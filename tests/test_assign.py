"""Assignment tests. naive_assign is the independent oracle: pure-Python loops
re-deriving the documented rules from scratch, no shared helpers.
scalar_align_cost is the per-pair loop the array core replaced, kept as the
reference its row-at-a-time numpy form is checked against, and
loop_sinkhorn_assign the per-GT, per-prediction Sinkhorn solver that the
shared candidate pass and result builder replaced. The oracles read plain
per-object records (Gt, Pred), which `stack` turns into the library's array
bundles without checks of its own."""
import math
from typing import NamedTuple

import numpy as np
import pytest

from detkit.assign import (
    AssignmentResult,
    Box,
    CostMatrix,
    GroundTruthArrays,
    PredictionArrays,
    align_cost,
    dynamic_k_assign,
    pairwise_iou,
    sinkhorn_assign,
)
from detkit.errors import ShapeError, ValidationError
from detkit.fields import column


class Gt(NamedTuple):
    box: tuple  # (x1, y1, x2, y2)
    class_id: int


class Pred(NamedTuple):
    box: tuple
    cls_scores: np.ndarray
    anchor_point: tuple = (0.0, 0.0)


def stack(gts, preds) -> tuple[GroundTruthArrays, PredictionArrays]:
    n_classes = len(preds[0].cls_scores) if preds else 0
    return (GroundTruthArrays(boxes=np.array([g.box for g in gts], dtype=np.float64).reshape(-1, 4),
                              class_ids=np.array([g.class_id for g in gts], dtype=np.int64)),
            PredictionArrays(boxes=np.array([p.box for p in preds], dtype=np.float64).reshape(-1, 4),
                             scores=np.array([p.cls_scores for p in preds], dtype=np.float64)
                             .reshape(len(preds), n_classes),
                             anchors=np.array([p.anchor_point for p in preds], dtype=np.float64).reshape(-1, 2)))


def align(gts, preds, center_prior=False):
    return align_cost(*stack(gts, preds), center_prior=center_prior)


# --- independent oracle -------------------------------------------------------

def naive_iou(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def naive_assign(gt_boxes, gt_classes, pred_boxes, pred_scores):
    """Re-derives cost + dynamic-k + conflict rules with explicit loops."""
    eps = 1e-8
    log_eps = 1e-12
    n_gt, n_pred = len(gt_boxes), len(pred_boxes)
    alphas = [[naive_iou(g, p) for p in pred_boxes] for g in gt_boxes]

    costs = [[float("inf")] * n_pred for _ in range(n_gt)]
    for i in range(n_gt):
        for j in range(n_pred):
            a = alphas[i][j]
            if a <= eps:
                continue
            p = pred_scores[j][gt_classes[i]]
            pc = min(max(p, log_eps), 1 - log_eps)
            bce = -(a * math.log(pc) + (1 - a) * math.log(1 - pc))
            costs[i][j] = -math.log(max(a, eps)) + (a - p) ** 2 * bce

    per_gt_k = []
    selections = []  # (gt, pred) claims
    for i in range(n_gt):
        cand = [j for j in range(n_pred) if alphas[i][j] > eps]
        if not cand:
            per_gt_k.append(0)
            continue
        q = min(10, len(cand))
        top = sorted((alphas[i][j] for j in cand), reverse=True)[:q]
        k = int(min(max(math.floor(sum(top) + 0.5), 1), q))
        per_gt_k.append(k)
        ranked = sorted(cand, key=lambda j: (costs[i][j], j))
        for j in ranked[:k]:
            selections.append((i, j))

    assigned = [None] * n_pred
    soft = [None] * n_pred
    for j in range(n_pred):
        claimants = [i for (i, jj) in selections if jj == j]
        if not claimants:
            continue
        best = min(claimants, key=lambda i: (costs[i][j], i))
        assigned[j] = best
        soft[j] = alphas[best][j]
    return assigned, per_gt_k, soft


def _scalar_iou(a, b) -> float:
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _scalar_bce(p: float, target: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -(target * math.log(p) + (1.0 - target) * math.log(1.0 - p))


def scalar_align(gts, preds, center_prior=False):
    """The library's former per-pair cost loop: (costs, alphas, mask) lists."""
    alphas = np.array([[_scalar_iou(g.box, p.box) for p in preds] for g in gts],
                      dtype=np.float64).reshape(len(gts), len(preds))
    mask = alphas > 1e-8
    costs = np.full(alphas.shape, np.inf)
    for i, gt in enumerate(gts):
        for j, pred in enumerate(preds):
            if center_prior:
                ax, ay = pred.anchor_point
                mask[i, j] &= gt.box[0] <= ax <= gt.box[2] and gt.box[1] <= ay <= gt.box[3]
            if not mask[i, j]:
                continue
            alpha = alphas[i, j]
            p = float(pred.cls_scores[gt.class_id])
            costs[i, j] = -math.log(max(alpha, 1e-8)) + (alpha - p) ** 2 * _scalar_bce(p, alpha)
    return costs, alphas, mask


def loop_sinkhorn_assign(matrix, reg=0.05, iterations=200):
    """The library's former Sinkhorn solver, with its own per-GT k loop and
    per-prediction winner loop."""
    n_gt, n_pred = matrix.costs.shape
    per_gt_k = []
    warnings = []
    for i in range(n_gt):
        cand = np.flatnonzero(matrix.candidate_mask[i])
        if cand.size == 0:
            per_gt_k.append(0)
            warnings.append(f"gt {i} has no candidates")
        else:
            q = min(10, cand.size)
            top = np.sort(matrix.alphas[i, cand])[::-1][:q]
            per_gt_k.append(int(min(max(math.floor(top.sum() + 0.5), 1), q)))
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

    assigned = [None] * n_pred
    soft = [None] * n_pred
    winners = plan.argmax(axis=0)
    for j in range(n_pred):
        i = int(winners[j])
        if i < n_gt and matrix.candidate_mask[i, j]:
            assigned[j] = i
            soft[j] = float(matrix.alphas[i, j])
    return AssignmentResult(tuple(assigned), tuple(per_gt_k), tuple(soft), tuple(warnings))


# --- helpers -------------------------------------------------------------------

def make_pred(box, scores, anchor=(0.0, 0.0)):
    return Pred(box=tuple(box), cls_scores=np.array(scores), anchor_point=anchor)


def make_gt(box, cls=0):
    return Gt(box=tuple(box), class_id=cls)


def random_instance(rng, n_classes=3, max_preds=8, max_gts=3):
    n_gt = int(rng.integers(1, max_gts + 1))
    n_pred = int(rng.integers(1, max_preds + 1))
    gts, gt_boxes, gt_classes = [], [], []
    for _ in range(n_gt):
        x1, y1 = rng.uniform(0, 60, 2)
        w, h = rng.uniform(4, 40, 2)
        cls = int(rng.integers(0, n_classes))
        gt_boxes.append([x1, y1, x1 + w, y1 + h])
        gt_classes.append(cls)
        gts.append(make_gt(gt_boxes[-1], cls))
    preds, pred_boxes, pred_scores = [], [], []
    for _ in range(n_pred):
        x1, y1 = rng.uniform(0, 60, 2)
        w, h = rng.uniform(4, 40, 2)
        scores = rng.uniform(0, 1, n_classes)
        pred_boxes.append([x1, y1, x1 + w, y1 + h])
        pred_scores.append(list(scores))
        preds.append(make_pred(pred_boxes[-1], scores))
    return gts, preds, gt_boxes, gt_classes, pred_boxes, pred_scores


class TestPairwiseIou:
    def test_identical_boxes(self):
        m = pairwise_iou(np.array([[0.0, 0, 4, 4]]), np.array([[0.0, 0, 4, 4]]))
        assert m[0, 0] == 1.0

    def test_disjoint_boxes(self):
        m = pairwise_iou(np.array([[0.0, 0, 1, 1]]), np.array([[5.0, 5, 6, 6]]))
        assert m[0, 0] == 0.0

    def test_degenerate_union_gives_zero(self):
        point = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert pairwise_iou(point, point)[0, 0] == 0.0

    def test_hand_computed_overlap(self):
        m = pairwise_iou(np.array([[0.0, 0, 2, 2]]), np.array([[1.0, 1, 3, 3]]))
        assert m[0, 0] == pytest.approx(1.0 / 7.0, abs=1e-9)


class TestAlignCost:
    def test_perfect_pair_costs_zero(self):
        gts = [make_gt([0, 0, 4, 4], cls=0)]
        preds = [make_pred([0, 0, 4, 4], [1.0, 0.0])]
        m = align(gts, preds)
        assert m.costs[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_matched_half_quality_kills_cls_term(self):
        # alpha = 0.5 and p = 0.5: squared-gap factor zero, only -ln 0.5 remains
        gts = [make_gt([0, 0, 4, 2], cls=0)]
        preds = [make_pred([0, 0, 4, 4], [0.5])]
        m = align(gts, preds)
        assert m.alphas[0, 0] == pytest.approx(0.5)
        assert m.costs[0, 0] == pytest.approx(0.693147, abs=1e-6)

    def test_hand_computed_misaligned_pair(self):
        # alpha = 0.8, p = 0.2: C_cls = 0.36 * [-0.8 ln 0.2 - 0.2 ln 0.8],
        # C_reg = -ln 0.8 (scripted oracle re-derivation below)
        gts = [make_gt([0, 0, 10, 8], cls=0)]
        preds = [make_pred([0, 0, 10, 10], [0.2])]
        m = align(gts, preds)
        assert m.alphas[0, 0] == pytest.approx(0.8)
        c_cls = (0.8 - 0.2) ** 2 * (-(0.8 * math.log(0.2) + 0.2 * math.log(0.8)))
        assert c_cls == pytest.approx(0.479584, abs=1e-5)
        c_reg = -math.log(0.8)
        assert c_reg == pytest.approx(0.223144, abs=1e-6)
        assert m.costs[0, 0] == pytest.approx(c_reg + c_cls, abs=1e-9)

    def test_empty_inputs_give_empty_matrix(self):
        m = align([], [])
        assert m.costs.shape == (0, 0)
        result = dynamic_k_assign(m)
        assert result.assigned_gt == () and result.per_gt_k == ()

    def test_zero_iou_pairs_masked_out(self):
        gts = [make_gt([0, 0, 1, 1])]
        preds = [make_pred([5, 5, 6, 6], [0.9])]
        m = align(gts, preds)
        assert not m.candidate_mask[0, 0]
        assert np.isinf(m.costs[0, 0])

    def test_cls_cost_nonnegative_zero_iff_matched(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.01, 1.0))
            p = float(rng.uniform(0.0, 1.0))
            c_cls = (a - p) ** 2 * (-(a * math.log(max(p, 1e-12))
                                      + (1 - a) * math.log(max(1 - p, 1e-12))))
            assert c_cls >= 0.0
            if abs(a - p) > 1e-9:
                assert c_cls > 0.0

    def test_c_reg_strictly_decreasing_in_alpha(self):
        alphas = np.linspace(0.05, 1.0, 30)
        c_regs = [-math.log(a) for a in alphas]
        assert all(x > y for x, y in zip(c_regs, c_regs[1:]))

    def test_center_prior_filters_candidates(self):
        gts = [make_gt([0, 0, 4, 4])]
        inside = make_pred([0, 0, 4, 4], [0.9], anchor=(2, 2))
        outside = make_pred([0, 0, 4, 4], [0.9], anchor=(9, 9))
        m_default = align(gts, [inside, outside])
        assert m_default.candidate_mask.all()
        m_prior = align(gts, [inside, outside], center_prior=True)
        assert m_prior.candidate_mask[0, 0] and not m_prior.candidate_mask[0, 1]

    def test_center_prior_includes_box_edges(self):
        gts = [make_gt([0, 0, 4, 4])]
        corner = make_pred([0, 0, 4, 4], [0.9], anchor=(4, 0))
        assert align(gts, [corner], center_prior=True).candidate_mask[0, 0]

    def test_class_id_out_of_range(self):
        gts = [make_gt([0, 0, 4, 4], cls=5)]
        preds = [make_pred([0, 0, 4, 4], [0.9, 0.1])]
        with pytest.raises(ValidationError, match="class_id"):
            align(gts, preds)


def random_scene(rng, n_classes=4):
    """A denser instance than random_instance, with anchor points, degenerate
    prediction boxes and scores at exactly 0 and 1."""
    n_gt, n_pred = int(rng.integers(1, 7)), int(rng.integers(1, 61))
    gts = []
    for _ in range(n_gt):
        x1, y1 = rng.uniform(0, 60, 2)
        w, h = rng.uniform(4, 40, 2)
        gts.append(make_gt([x1, y1, x1 + w, y1 + h], int(rng.integers(0, n_classes))))
    preds = []
    for _ in range(n_pred):
        x1, y1 = rng.uniform(0, 60, 2)
        w, h = rng.uniform(0, 40, 2) * (rng.uniform() > 0.1)  # some zero-area boxes
        scores = rng.uniform(0, 1, n_classes)
        scores[rng.uniform(size=n_classes) < 0.1] = float(rng.integers(0, 2))
        anchor = (x1 + w * rng.uniform(), y1 + h * rng.uniform())
        preds.append(make_pred([x1, y1, x1 + w, y1 + h], scores, anchor=anchor))
    return gts, preds


class TestArrayCore:
    @pytest.mark.parametrize("center_prior", [False, True])
    def test_matches_scalar_reference(self, center_prior):
        rng = np.random.default_rng(11 + center_prior)
        for _ in range(300):
            gts, preds = random_scene(rng)
            m = align(gts, preds, center_prior=center_prior)
            costs, alphas, mask = scalar_align(gts, preds, center_prior=center_prior)
            assert np.array_equal(m.alphas, alphas)
            assert np.array_equal(m.candidate_mask, mask)
            assert np.all(np.isinf(m.costs[~mask]))
            # numpy's vectorised log may differ from libm's in the last bits
            np.testing.assert_array_max_ulp(m.costs[mask], costs[mask], maxulp=4)

    def test_gts_without_predictions(self):
        m = align([make_gt([0, 0, 4, 4])], [], center_prior=True)
        assert m.costs.shape == (1, 0)
        assert dynamic_k_assign(m).per_gt_k == (0,)

    def test_cls_score_lengths_must_agree(self):
        # the (P,C) score array has one C; the reader that builds it names a ragged row
        records = [{"cls_scores": [0.9]}, {"cls_scores": [0.9, 0.1]}]
        with pytest.raises(ValidationError, match=r"predictions\[1\]\.cls_scores"):
            column(records, "cls_scores", "predictions")

    def test_negative_class_id_in_arrays_rejected(self):
        gts = GroundTruthArrays(boxes=np.array([[0.0, 0, 4, 4]]), class_ids=np.array([-1]))
        preds = PredictionArrays(boxes=np.array([[0.0, 0, 4, 4]]), scores=np.array([[0.5]]),
                                 anchors=np.zeros((1, 2)))
        with pytest.raises(ValidationError, match=r"ground_truths\[0\]"):
            align_cost(gts, preds)

    @pytest.mark.parametrize("boxes, where", [
        ([[0, 0, 4, 4], [0, 0, 4, 4], [4, 0, 0, 4]], r"ground_truths\[2\]\.box"),
        ([[0, 0, 4, 4], [0, 4, 4, 0]], r"ground_truths\[1\]\.box"),
        ([[0, 0, 4, 4], [1, 1, 1, 4]], r"ground_truths\[1\]\.box"),
        ([[0, 0, 4, 0], [1, 1, 1, 4]], r"ground_truths\[0\]\.box"),
    ])
    def test_gt_arrays_reject_reversed_or_empty_boxes(self, boxes, where):
        with pytest.raises(ValidationError, match=where + ": ground-truth box must have positive area"):
            GroundTruthArrays(boxes=np.array(boxes, dtype=np.float64),
                              class_ids=np.zeros(len(boxes), dtype=np.int64))

    @pytest.mark.parametrize("box, score, where", [
        ((4, 0, 0, 4), 0.5, r"predictions\[1\]\.box: box corners"),
        ((0, 4, 4, 0), 0.5, r"predictions\[1\]\.box: box corners"),
        ((0, 0, 4, 4), 1.5, r"predictions\[1\]\.cls_scores: class scores"),
        ((0, 0, 4, 4), math.nan, r"predictions\[1\]\.cls_scores: class scores"),
    ])
    def test_prediction_arrays_reject_bad_rows(self, box, score, where):
        with pytest.raises(ValidationError, match=where):
            PredictionArrays(boxes=np.array([[0, 0, 4, 4], box, (0, 0, 1, 1)], dtype=np.float64),
                             scores=np.array([[0.5, 0.5], [0.5, score], [1.0, 0.0]]),
                             anchors=np.zeros((3, 2)))

    @pytest.mark.parametrize("box", [(0, 0, math.inf, 4), (math.nan, 0, 4, 4), (-math.inf, 0, 4, 4)])
    def test_gt_arrays_reject_non_finite_corners(self, box):
        with pytest.raises(ValidationError, match=r"ground_truths\[1\]\.box: .*finite corners"):
            GroundTruthArrays(boxes=np.array([[0, 0, 4, 4], box], dtype=np.float64),
                              class_ids=np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("box", [(0, 0, math.inf, 4), (0, math.nan, 4, 4)])
    def test_prediction_arrays_reject_non_finite_corners(self, box):
        with pytest.raises(ValidationError, match=r"predictions\[1\]\.box: box corners must be finite"):
            PredictionArrays(boxes=np.array([[0, 0, 4, 4], box], dtype=np.float64),
                             scores=np.full((2, 1), 0.5), anchors=np.zeros((2, 2)))

    @pytest.mark.parametrize("anchor", [(math.nan, 0.0), (0.0, math.inf)])
    def test_prediction_arrays_reject_non_finite_anchor(self, anchor):
        with pytest.raises(ValidationError, match=r"predictions\[1\]\.anchor_point: anchor point must be finite"):
            PredictionArrays(boxes=np.array([[0, 0, 4, 4], [0, 0, 4, 4]], dtype=np.float64),
                             scores=np.full((2, 1), 0.5), anchors=np.array([(1.0, 1.0), anchor]))

    def test_bundle_shapes_checked(self):
        with pytest.raises(ShapeError):
            GroundTruthArrays(boxes=np.zeros((2, 4)), class_ids=np.zeros(3, dtype=np.int64))
        with pytest.raises(ShapeError):
            PredictionArrays(boxes=np.zeros((2, 4)), scores=np.zeros((2, 3)), anchors=np.zeros((1, 2)))


class TestDynamicK:
    def test_single_perfect_prediction(self):
        gts = [make_gt([0, 0, 4, 4], cls=0)]
        preds = [make_pred([0, 0, 4, 4], [1.0])]
        result = dynamic_k_assign(align(gts, preds))
        assert result.assigned_gt == (0,)
        assert result.per_gt_k == (1,)
        assert result.soft_labels[0] == pytest.approx(1.0)

    def test_k_follows_sum_of_top_ious(self):
        # IoUs {0.9, 0.8, 0.1, 0.1, 0.1} sum to 2.0 -> k = 2
        ious = [0.9, 0.8, 0.1, 0.1, 0.1]
        costs = np.array([[0.1, 0.2, 5.0, 6.0, 7.0]])
        m = CostMatrix(costs=costs, alphas=np.array([ious]),
                       candidate_mask=np.ones((1, 5), dtype=bool))
        result = dynamic_k_assign(m)
        assert result.per_gt_k == (2,)
        assert result.assigned_gt == (0, 0, None, None, None)

    def test_conflict_goes_to_lowest_cost_gt(self):
        costs = np.array([[0.3], [0.5]])
        m = CostMatrix(costs=costs, alphas=np.array([[0.9], [0.9]]),
                       candidate_mask=np.ones((2, 1), dtype=bool))
        result = dynamic_k_assign(m)
        assert result.assigned_gt == (0,)

    def test_zero_candidate_gt_warns(self):
        gts = [make_gt([0, 0, 1, 1]), make_gt([10, 10, 14, 14])]
        preds = [make_pred([10, 10, 14, 14], [0.9])]
        result = dynamic_k_assign(align(gts, preds))
        assert result.per_gt_k[0] == 0
        assert any("gt 0" in w for w in result.warnings)
        assert result.assigned_gt == (1,)

    def test_oracle_equivalence_1000_random_instances(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            gts, preds, gb, gc, pb, ps = random_instance(rng)
            got = dynamic_k_assign(align(gts, preds))
            exp_assigned, exp_k, exp_soft = naive_assign(gb, gc, pb, ps)
            assert list(got.assigned_gt) == exp_assigned
            assert list(got.per_gt_k) == exp_k
            for a, b in zip(got.soft_labels, exp_soft):
                if b is None:
                    assert a is None
                else:
                    assert a == pytest.approx(b, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gts, preds, *_ = random_instance(rng)
            base = dynamic_k_assign(align(gts, preds))
            perm = list(rng.permutation(len(preds)))
            permuted = dynamic_k_assign(align(gts, [preds[j] for j in perm]))
            for new_pos, old_pos in enumerate(perm):
                assert permuted.assigned_gt[new_pos] == base.assigned_gt[old_pos]

    def test_cost_scaling_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            gts, preds, *_ = random_instance(rng)
            m = align(gts, preds)
            base = dynamic_k_assign(m)
            scaled = CostMatrix(costs=m.costs * 3.7, alphas=m.alphas,
                                candidate_mask=m.candidate_mask)
            assert dynamic_k_assign(scaled).assigned_gt == base.assigned_gt

    def test_each_gt_gets_at_most_k_predictions(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            gts, preds, *_ = random_instance(rng)
            result = dynamic_k_assign(align(gts, preds))
            for i, k in enumerate(result.per_gt_k):
                got = sum(1 for a in result.assigned_gt if a == i)
                assert got <= k


class TestSinkhorn:
    @pytest.mark.parametrize("center_prior", [False, True])
    def test_matches_loop_reference_1000_scenes(self, center_prior):
        rng = np.random.default_rng(31 + center_prior)
        no_candidates = no_predictions = 0
        for n in range(1000):
            gts, preds = random_scene(rng) if n % 2 else random_instance(rng)[:2]
            if n % 50 == 0:
                preds = []
            m = align(gts, preds, center_prior=center_prior)
            got = sinkhorn_assign(m)
            assert got == loop_sinkhorn_assign(m)
            no_candidates += 0 in got.per_gt_k
            no_predictions += not preds
        assert no_candidates > 100 and no_predictions == 20

    def test_perfect_pair_assigned(self):
        gts = [make_gt([0, 0, 4, 4], cls=0)]
        preds = [make_pred([0, 0, 4, 4], [1.0]), make_pred([50, 50, 54, 54], [0.2])]
        result = sinkhorn_assign(align(gts, preds))
        assert result.assigned_gt[0] == 0
        assert result.assigned_gt[1] is None

    def test_same_result_contract(self):
        rng = np.random.default_rng(9)
        gts, preds, *_ = random_instance(rng)
        result = sinkhorn_assign(align(gts, preds))
        assert isinstance(result, AssignmentResult)
        assert len(result.assigned_gt) == len(preds)
        assert len(result.per_gt_k) == len(gts)


@pytest.mark.parametrize("corners", [
    (0, 0, 2, 2), (1, 0, 1, 2), (math.nan, 0, 2, 2), (0, 0, math.inf, 2), (0, -math.inf, 2, 2),
    (2, 0, 1, 1), (0, 2, 1, 1),
], ids=["ordered", "zero-width", "nan", "inf", "minus-inf", "x2-below-x1", "y2-below-y1"])
def test_box_and_prediction_arrays_share_one_corner_rule(corners):
    """A Box raises exactly when PredictionArrays holding that one box does,
    with the same message."""
    def error(build):
        try:
            build()
        except ValidationError as e:
            return e.message
        return None

    box_error = error(lambda: Box(*corners))
    arrays_error = error(lambda: PredictionArrays(boxes=np.array([corners], dtype=np.float64),
                                                  scores=np.full((1, 1), 0.5), anchors=np.zeros((1, 2))))
    assert box_error == arrays_error
    assert (box_error is None) == (math.isfinite(sum(corners)) and corners[0] <= corners[2]
                                   and corners[1] <= corners[3])
