"""Aligned label assignment: IoU-soft-label costs plus global dynamic top-k.

Per ground truth and prediction, the assignment cost couples regression and
classification quality:

    alpha = IoU(gt_box, pred_box)
    C_reg = -ln(max(alpha, eps))
    C_cls = (alpha - p)^2 * BCE(p, alpha),  p = predicted score of the GT class
    cost  = C_reg + C_cls

so a prediction is cheap only when it is both well placed and confidently,
correctly classified; alpha doubles as the soft classification target of the
assigned pair. Pairs with alpha <= eps are excluded from candidacy rather than
carrying infinite cost.

The selection rule is a deterministic dynamic top-k (a greedy stand-in for the
full transport problem; a Sinkhorn solver is available behind the same
interface): per GT, k = clamp(round(sum of top-q IoUs), 1, q) with
q = min(10, candidates), each GT takes its k lowest-cost candidates, and a
prediction claimed by several GTs goes to the one with the lowest cost.
Ties break by (GT index, prediction index) on original indices. Both solvers
share one per-GT candidate/k pass and build the result from a (P,) array of
winning GT indices, without a loop over predictions.

Arrays are the only input form. Per image, ground truths are (G,4) corners
and (G,) class ids (`GroundTruthArrays`); predictions are (P,4) corners, (P,C)
scores and (P,2) anchor points (`PredictionArrays`), which check their values
in bulk; `align_cost` checks the class ids. Errors name the first bad row,
e.g. `predictions[17].box`. The cost is built one GT row at a time,
vectorised over predictions: only the returned |GT| x |pred| matrices grow
with the pair count, never the temporaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError

__all__ = [
    "Box",
    "GroundTruthArrays",
    "PredictionArrays",
    "CostMatrix",
    "AssignmentResult",
    "pairwise_iou",
    "align_cost",
    "dynamic_k_assign",
    "sinkhorn_assign",
    "ALPHA_EPS",
]

ALPHA_EPS = 1e-8
LOG_EPS = 1e-12
TOPK_CANDIDATES = 10
# sinkhorn_assign's entropic regulariser and its fixed number of iterations
SINKHORN_REG = 0.05
SINKHORN_ITERATIONS = 200


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in pixel coordinates. Its corners follow the rule
    `PredictionArrays` applies to its (P,4) boxes and fail with its message."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not _corners_ok(np.array([(self.x1, self.y1, self.x2, self.y2)], dtype=np.float64))[0]:
            raise ValidationError(_CORNER_RULE)

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def _first_bad(ok: np.ndarray, message: str, path: str) -> None:
    """Raise naming the first row where `ok` is False; `path` holds a {} for its index."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValidationError(message, path=path.format(int(bad[0])))


# the one value rule of a box's corners, and its message
_CORNER_RULE = "box corners must be finite, with x1 <= x2, y1 <= y2"


def _corners_ok(boxes: np.ndarray) -> np.ndarray:
    return np.isfinite(boxes).all(axis=1) & (boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3])


@dataclass(frozen=True)
class GroundTruthArrays:
    """One image's ground truths: (G,4) float64 corners, finite, ordered and
    with positive area, and (G,) integer class ids, which `align_cost` checks
    (an object array of Python ints may hold ids too large for int64)."""

    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        if self.boxes.ndim != 2 or self.boxes.shape[1] != 4 or self.class_ids.shape != self.boxes.shape[:1]:
            raise ShapeError(
                f"ground truths need (G,4) boxes and (G,) class ids, got {self.boxes.shape} "
                f"and {self.class_ids.shape}"
            )
        areas = (self.boxes[:, 2] - self.boxes[:, 0]) * (self.boxes[:, 3] - self.boxes[:, 1])
        _first_bad(_corners_ok(self.boxes) & (areas > 0),
                   "ground-truth box must have positive area and finite corners", "ground_truths[{}].box")


@dataclass(frozen=True)
class PredictionArrays:
    """One image's predictions: (P,4) float64 corners, finite and in order,
    (P,C) class scores in [0, 1] (so not NaN) and (P,2) finite anchor points."""

    boxes: np.ndarray
    scores: np.ndarray
    anchors: np.ndarray

    def __post_init__(self):
        n = self.boxes.shape[0]
        if (self.boxes.shape != (n, 4) or self.scores.ndim != 2 or self.scores.shape[0] != n
                or self.anchors.shape != (n, 2)):
            raise ShapeError(
                f"predictions need (P,4) boxes, (P,C) scores and (P,2) anchors, got "
                f"{self.boxes.shape}, {self.scores.shape} and {self.anchors.shape}"
            )
        _first_bad(_corners_ok(self.boxes), _CORNER_RULE, "predictions[{}].box")
        _first_bad(np.isfinite(self.anchors).all(axis=1), "anchor point must be finite",
                   "predictions[{}].anchor_point")
        _first_bad(((self.scores >= 0) & (self.scores <= 1)).all(axis=1), "class scores must lie in [0, 1]",
                   "predictions[{}].cls_scores")


@dataclass(frozen=True)
class CostMatrix:
    """|GT| x |pred| aligned costs, their IoUs, and the candidacy mask."""

    costs: np.ndarray
    alphas: np.ndarray
    candidate_mask: np.ndarray

    def __post_init__(self):
        if not (self.costs.shape == self.alphas.shape == self.candidate_mask.shape):
            raise ShapeError("cost matrix field shapes differ")
        if np.any(~np.isfinite(self.costs[self.candidate_mask])):
            raise ValidationError("masked-in costs must be finite")


@dataclass(frozen=True)
class AssignmentResult:
    """Per-prediction GT index (or None), per-GT dynamic k, and the soft labels
    (the IoU used as classification target) of the assigned predictions."""

    assigned_gt: tuple[int | None, ...]
    per_gt_k: tuple[int, ...]
    soft_labels: tuple[float | None, ...]
    warnings: tuple[str, ...] = field(default=())


def pairwise_iou(gt_boxes: np.ndarray, pred_boxes: np.ndarray) -> np.ndarray:
    """|GT| x |pred| intersection-over-union of two (N,4) corner arrays;
    degenerate unions give 0.

    Rows are computed one GT at a time, with the operations in the order of
    the per-pair formula, so values are bit-identical to it.
    """
    areas = (pred_boxes[:, 2] - pred_boxes[:, 0]) * (pred_boxes[:, 3] - pred_boxes[:, 1])
    out = np.zeros((len(gt_boxes), len(pred_boxes)), dtype=np.float64)
    for i, box in enumerate(gt_boxes):
        ix = np.maximum(np.minimum(box[2], pred_boxes[:, 2]) - np.maximum(box[0], pred_boxes[:, 0]), 0.0)
        iy = np.maximum(np.minimum(box[3], pred_boxes[:, 3]) - np.maximum(box[1], pred_boxes[:, 1]), 0.0)
        inter = ix * iy
        union = (box[2] - box[0]) * (box[3] - box[1]) + areas - inter
        np.divide(inter, union, out=out[i], where=union > 0.0)
    return out


def _pair_costs(alpha: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-ln(max(alpha, eps)) + (alpha - p)^2 * BCE(p, alpha), elementwise."""
    pc = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    bce = -(alpha * np.log(pc) + (1.0 - alpha) * np.log(1.0 - pc))
    return -np.log(np.maximum(alpha, ALPHA_EPS)) + (alpha - p) ** 2 * bce


def align_cost(gts: GroundTruthArrays, preds: PredictionArrays, center_prior: bool = False) -> CostMatrix:
    """Aligned assignment costs for one image.

    center_prior additionally requires a prediction's anchor point to lie
    inside the GT box for candidacy; it is off by default.

    Each GT row is computed over all predictions at once, and the cost only at
    that row's candidates, so no temporary grows with |GT| x |pred|.
    """
    n_pred, n_classes = preds.scores.shape
    # without predictions, any id an int64 can hold is in range
    limit = n_classes if n_pred else np.iinfo(np.int64).max
    bad = np.flatnonzero((gts.class_ids < 0) | (gts.class_ids >= limit))
    if bad.size:
        j = int(bad[0])
        raise ValidationError(f"class_id {gts.class_ids[j]} out of range [0, {limit})",
                              path=f"ground_truths[{j}].class_id")
    alphas = pairwise_iou(gts.boxes, preds.boxes)
    mask = alphas > ALPHA_EPS
    costs = np.full(alphas.shape, np.inf, dtype=np.float64)
    ax, ay = preds.anchors[:, 0], preds.anchors[:, 1]
    for i, (box, cls) in enumerate(zip(gts.boxes, gts.class_ids)):
        if center_prior:
            mask[i] &= (box[0] <= ax) & (ax <= box[2]) & (box[1] <= ay) & (ay <= box[3])
        cand = np.flatnonzero(mask[i])
        if cand.size:
            costs[i, cand] = _pair_costs(alphas[i, cand], preds.scores[cand, cls])
    return CostMatrix(costs=costs, alphas=alphas, candidate_mask=mask)


def _dynamic_k(ious: np.ndarray) -> int:
    """k = clamp(round(sum of top-q IoUs), 1, q), q = min(10, candidates);
    round is half-up so the rule is platform-stable."""
    q = min(TOPK_CANDIDATES, ious.size)
    top = np.sort(ious)[::-1][:q]
    return int(min(max(math.floor(top.sum() + 0.5), 1), q))


def _candidate_pass(matrix: CostMatrix) -> tuple[list[np.ndarray], tuple[int, ...], tuple[str, ...]]:
    """Each GT's candidate prediction indices and dynamic k (0 without
    candidates), and a warning for each GT without candidates."""
    cands = [np.flatnonzero(row) for row in matrix.candidate_mask]
    per_gt_k = tuple(_dynamic_k(matrix.alphas[i, c]) if c.size else 0 for i, c in enumerate(cands))
    warnings = tuple(f"gt {i} has no candidates" for i, c in enumerate(cands) if not c.size)
    return cands, per_gt_k, warnings


def _result(matrix: CostMatrix, winners: np.ndarray, per_gt_k, warnings) -> AssignmentResult:
    """The result for a (P,) array of winning GT indices, -1 for background."""
    won = np.flatnonzero(winners >= 0)
    assigned = np.full(winners.size, None, dtype=object)
    soft = np.full(winners.size, None, dtype=object)
    assigned[won] = winners[won]
    soft[won] = matrix.alphas[winners[won], won]
    return AssignmentResult(tuple(assigned), per_gt_k, tuple(soft), warnings)


def dynamic_k_assign(matrix: CostMatrix) -> AssignmentResult:
    """Deterministic per-GT top-k selection with lowest-cost conflict resolution."""
    cands, per_gt_k, warnings = _candidate_pass(matrix)
    # stable sort keeps the documented (cost, prediction index) tie-break
    claims = [c[np.argsort(matrix.costs[i, c], kind="stable")[:k]]
              for i, (c, k) in enumerate(zip(cands, per_gt_k))]
    gt = np.repeat(np.arange(len(per_gt_k)), per_gt_k)
    pred = np.concatenate([np.empty(0, dtype=np.intp), *claims])
    # a prediction claimed by several GTs goes to the lowest (cost, GT index)
    order = np.lexsort((gt, matrix.costs[gt, pred], pred))
    claimed, first = np.unique(pred[order], return_index=True)
    winners = np.full(matrix.costs.shape[1], -1)
    winners[claimed] = gt[order][first]
    return _result(matrix, winners, per_gt_k, warnings)


def sinkhorn_assign(matrix: CostMatrix) -> AssignmentResult:
    """Entropic optimal-transport alternative behind the same interface.

    Supplies are the dynamic k of each GT; a background column absorbs the
    rest. After SINKHORN_ITERATIONS iterations at regulariser SINKHORN_REG
    each prediction goes to its highest-transport GT if it is one of that
    GT's candidates. Dynamic-k selection remains the default solver; this
    exists for experimentation and satisfies the same result contract.
    """
    _, per_gt_k, warnings = _candidate_pass(matrix)
    n_gt, n_pred = matrix.costs.shape
    if n_pred == 0 or sum(per_gt_k) == 0:
        return _result(matrix, np.full(n_pred, -1), per_gt_k, warnings)

    big = 1e6
    cost = np.where(matrix.candidate_mask, matrix.costs, big)
    cost = np.vstack([cost, np.full((1, n_pred), 2.0)])  # background row
    supply = np.array(per_gt_k + (max(n_pred - sum(per_gt_k), 0),), dtype=np.float64)
    supply = np.maximum(supply, 1e-9)
    supply = supply / supply.sum()
    demand = np.full(n_pred, 1.0 / n_pred)

    kernel = np.exp(-cost / SINKHORN_REG)
    u = np.ones(n_gt + 1)
    v = np.ones(n_pred)
    for _ in range(SINKHORN_ITERATIONS):
        u = supply / np.maximum(kernel @ v, 1e-30)
        v = demand / np.maximum(kernel.T @ u, 1e-30)
    plan = u[:, None] * kernel * v[None, :]

    # the background row is never a candidate
    best = plan.argmax(axis=0)
    candidate = np.vstack([matrix.candidate_mask, np.zeros((1, n_pred), dtype=bool)])
    return _result(matrix, np.where(candidate[best, np.arange(n_pred)], best, -1), per_gt_k, warnings)
