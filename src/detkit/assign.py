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
Ties break by (GT index, prediction index) on original indices.

Arrays are the core form. Per image, ground truths are (G,4) corners and (G,)
class ids (`GroundTruthArrays`); predictions are (P,4) corners, (P,C) scores
and (P,2) anchor points (`PredictionArrays`). `align_cost` also accepts lists
of `GroundTruth` / `Prediction` and stacks them. The cost is built one GT row
at a time, vectorised over predictions: only the returned |GT| x |pred|
matrices grow with the pair count, never the temporaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError

__all__ = [
    "Box",
    "Prediction",
    "GroundTruth",
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


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in pixel coordinates, finite corners (x1, y1) <= (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2))):
            raise ValidationError(f"box corners must be finite: {self}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValidationError(f"box corners out of order: {self}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class Prediction:
    box: Box
    cls_scores: np.ndarray
    anchor_point: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        scores = np.asarray(self.cls_scores, dtype=np.float64).reshape(-1)
        if scores.size == 0:
            raise ValidationError("prediction needs at least one class score")
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValidationError("class scores must lie in [0, 1]")
        if len(self.anchor_point) != 2:
            raise ValidationError(f"anchor_point must hold 2 numbers, got {self.anchor_point!r}")
        object.__setattr__(self, "cls_scores", scores)


@dataclass(frozen=True)
class GroundTruth:
    box: Box
    class_id: int

    def __post_init__(self):
        if self.class_id < 0:
            raise ValidationError(f"class_id must be >= 0, got {self.class_id}")
        if self.box.area <= 0:
            raise ValidationError("ground-truth box must have positive area")


@dataclass(frozen=True)
class GroundTruthArrays:
    """One image's ground truths: (G,4) float64 corners and (G,) integer class ids.

    Values are not re-validated here; GroundTruth objects or the CLI's bulk
    parse check them before stacking.
    """

    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        if self.boxes.ndim != 2 or self.boxes.shape[1] != 4 or self.class_ids.shape != self.boxes.shape[:1]:
            raise ShapeError(
                f"ground truths need (G,4) boxes and (G,) class ids, got {self.boxes.shape} "
                f"and {self.class_ids.shape}"
            )


@dataclass(frozen=True)
class PredictionArrays:
    """One image's predictions: (P,4) float64 corners, (P,C) class scores in
    [0, 1] and (P,2) anchor points, checked like GroundTruthArrays' values."""

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


def _box_rows(items) -> np.ndarray:
    """(N,4) float64 corners from an array or a sequence of Box / GroundTruth / Prediction."""
    if isinstance(items, np.ndarray):
        return items.astype(np.float64, copy=False).reshape(-1, 4)
    boxes = [item if isinstance(item, Box) else item.box for item in items]
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def pairwise_iou(gts, preds) -> np.ndarray:
    """|GT| x |pred| intersection-over-union; degenerate unions give 0.

    Either side is an (N,4) corner array or a sequence of Box, GroundTruth or
    Prediction. Rows are computed one GT at a time, with the operations in the
    order of the per-pair formula, so values are bit-identical to it.
    """
    gt_boxes, pred_boxes = _box_rows(gts), _box_rows(preds)
    areas = (pred_boxes[:, 2] - pred_boxes[:, 0]) * (pred_boxes[:, 3] - pred_boxes[:, 1])
    out = np.zeros((len(gt_boxes), len(pred_boxes)), dtype=np.float64)
    for i, box in enumerate(gt_boxes):
        ix = np.maximum(np.minimum(box[2], pred_boxes[:, 2]) - np.maximum(box[0], pred_boxes[:, 0]), 0.0)
        iy = np.maximum(np.minimum(box[3], pred_boxes[:, 3]) - np.maximum(box[1], pred_boxes[:, 1]), 0.0)
        inter = ix * iy
        union = (box[2] - box[0]) * (box[3] - box[1]) + areas - inter
        np.divide(inter, union, out=out[i], where=union > 0.0)
    return out


def _stack_gts(gts) -> GroundTruthArrays:
    if isinstance(gts, GroundTruthArrays):
        return gts
    return GroundTruthArrays(boxes=_box_rows(gts),
                             class_ids=np.array([g.class_id for g in gts], dtype=np.int64))


def _stack_preds(preds) -> PredictionArrays:
    if isinstance(preds, PredictionArrays):
        return preds
    n_classes = preds[0].cls_scores.size if preds else 0
    for j, pred in enumerate(preds):
        if pred.cls_scores.size != n_classes:
            raise ValidationError(
                f"expected {n_classes} class scores like predictions[0], got {pred.cls_scores.size}",
                path=f"predictions[{j}].cls_scores",
            )
    scores = np.array([p.cls_scores for p in preds], dtype=np.float64).reshape(len(preds), n_classes)
    anchors = np.array([p.anchor_point for p in preds], dtype=np.float64).reshape(-1, 2)
    return PredictionArrays(boxes=_box_rows(preds), scores=scores, anchors=anchors)


def _pair_costs(alpha: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-ln(max(alpha, eps)) + (alpha - p)^2 * BCE(p, alpha), elementwise."""
    pc = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    bce = -(alpha * np.log(pc) + (1.0 - alpha) * np.log(1.0 - pc))
    return -np.log(np.maximum(alpha, ALPHA_EPS)) + (alpha - p) ** 2 * bce


def align_cost(gts, preds, center_prior: bool = False) -> CostMatrix:
    """Aligned assignment costs for one image.

    gts is a GroundTruthArrays or a sequence of GroundTruth; preds is a
    PredictionArrays or a sequence of Prediction (lists are stacked into
    arrays first). center_prior additionally requires a prediction's anchor
    point to lie inside the GT box for candidacy; it is off by default.

    Each GT row is computed over all predictions at once, and the cost only at
    that row's candidates, so no temporary grows with |GT| x |pred|.
    """
    gts, preds = _stack_gts(gts), _stack_preds(preds)
    n_pred, n_classes = preds.scores.shape
    if n_pred:
        bad = np.flatnonzero((gts.class_ids < 0) | (gts.class_ids >= n_classes))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"gt class_id {gts.class_ids[i]} out of range for {n_classes} classes",
                path=f"ground_truths[{i}]",
            )
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


def dynamic_k_assign(matrix: CostMatrix) -> AssignmentResult:
    """Deterministic per-GT top-k selection with lowest-cost conflict resolution."""
    n_gt, n_pred = matrix.costs.shape
    per_gt_k = []
    warnings = []
    claimed: dict[int, list[int]] = {}
    for i in range(n_gt):
        cand = np.flatnonzero(matrix.candidate_mask[i])
        if cand.size == 0:
            per_gt_k.append(0)
            warnings.append(f"gt {i} has no candidates")
            continue
        k = _dynamic_k(matrix.alphas[i, cand])
        per_gt_k.append(k)
        # stable sort keeps the documented (cost, prediction index) tie-break
        order = cand[np.argsort(matrix.costs[i, cand], kind="stable")]
        for j in order[:k]:
            claimed.setdefault(int(j), []).append(i)

    assigned: list[int | None] = [None] * n_pred
    soft: list[float | None] = [None] * n_pred
    for j, gt_indices in claimed.items():
        best = min(gt_indices, key=lambda i: (matrix.costs[i, j], i))
        assigned[j] = best
        soft[j] = float(matrix.alphas[best, j])
    return AssignmentResult(
        assigned_gt=tuple(assigned),
        per_gt_k=tuple(per_gt_k),
        soft_labels=tuple(soft),
        warnings=tuple(warnings),
    )


def sinkhorn_assign(matrix: CostMatrix, reg: float = 0.05, iterations: int = 200) -> AssignmentResult:
    """Entropic optimal-transport alternative behind the same interface.

    Supplies are the dynamic k of each GT; a background column absorbs the
    rest. After convergence each prediction goes to its highest-transport GT.
    Dynamic-k selection remains the default solver; this exists for
    experimentation and satisfies the same result contract.
    """
    n_gt, n_pred = matrix.costs.shape
    per_gt_k = []
    warnings = []
    for i in range(n_gt):
        cand = np.flatnonzero(matrix.candidate_mask[i])
        if cand.size == 0:
            per_gt_k.append(0)
            warnings.append(f"gt {i} has no candidates")
        else:
            per_gt_k.append(_dynamic_k(matrix.alphas[i, cand]))
    if n_pred == 0 or sum(per_gt_k) == 0:
        return AssignmentResult((None,) * n_pred, tuple(per_gt_k), (None,) * n_pred,
                                tuple(warnings))

    big = 1e6
    cost = np.where(matrix.candidate_mask, matrix.costs, big)
    cost = np.vstack([cost, np.full((1, n_pred), 2.0)])  # background row
    supply = np.array(per_gt_k + [max(n_pred - sum(per_gt_k), 0)], dtype=np.float64)
    supply = np.maximum(supply, 1e-9)
    supply = supply / supply.sum()
    demand = np.full(n_pred, 1.0 / n_pred)

    kernel = np.exp(-cost / reg)
    u = np.ones(n_gt + 1)
    v = np.ones(n_pred)
    for _ in range(iterations):
        u = supply / np.maximum(kernel @ v, 1e-30)
        v = demand / np.maximum(kernel.T @ u, 1e-30)
    plan = u[:, None] * kernel * v[None, :]

    assigned: list[int | None] = [None] * n_pred
    soft: list[float | None] = [None] * n_pred
    winners = plan.argmax(axis=0)
    for j in range(n_pred):
        i = int(winners[j])
        if i < n_gt and matrix.candidate_mask[i, j]:
            assigned[j] = i
            soft[j] = float(matrix.alphas[i, j])
    return AssignmentResult(tuple(assigned), tuple(per_gt_k), tuple(soft), tuple(warnings))
