import math

import numpy as np
import pytest

from detkit import losses
from detkit.assign import Box
from detkit.errors import ShapeError, ValidationError
from detkit.losses import (
    LOG_EPS,
    STD_FLOOR,
    DistillSchedule,
    LossWeights,
    align_project,
    cwd_loss,
    dfl,
    distill_loss,
    distill_weight,
    giou,
    giou_loss,
    loss_breakdown,
    mgd_loss,
    mimic_loss,
    qfl,
    total_loss,
)
from detkit.tensorops import ConvParams, Tensor4, channel_stats


class TestQfl:
    def test_zero_iff_matched(self):
        assert qfl(0.7, 0.7) == 0.0
        assert qfl(0.2, 0.9) > 0.0

    def test_analytic_half_to_one(self):
        assert qfl(0.5, 1.0, 2.0) == pytest.approx(0.25 * -math.log(0.5), abs=1e-9)
        assert qfl(0.5, 1.0, 2.0) == pytest.approx(0.173287, abs=1e-6)

    def test_symmetry_at_extremes(self):
        assert qfl(0.5, 0.0, 2.0) == pytest.approx(0.173287, abs=1e-6)

    def test_extreme_probabilities_are_clamped(self):
        assert np.isfinite(qfl(0.0, 1.0))
        assert np.isfinite(qfl(1.0, 0.0))

    def test_vectorized(self):
        out = qfl(np.array([0.5, 0.7]), np.array([1.0, 0.7]))
        assert out.shape == (2,)
        assert out[1] == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            qfl(1.2, 0.5)

    # NaN compares false to every bound, so a check written as "x < 0 or x > 1" lets it through
    @pytest.mark.parametrize("pred, target, name", [
        (math.nan, 0.5, "pred_prob"), (0.5, math.nan, "target_q"),
        (np.array([0.5, math.nan]), np.array([0.5, 0.5]), "pred_prob"),
        (np.array([0.5, 0.5]), np.array([math.nan, 0.5]), "target_q"),
    ])
    def test_rejects_nan(self, pred, target, name):
        with pytest.raises(ValidationError, match=rf"^{name} must lie in \[0, 1\]"):
            qfl(pred, target)


class TestDfl:
    def test_integer_target_concentrated_bin_is_zero(self):
        p = np.zeros(8)
        p[3] = 1.0
        assert dfl(p, 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_two_neighbor_optimum_is_log2_at_half(self):
        p = np.zeros(8)
        p[2] = p[3] = 0.5
        assert dfl(p, 2.5) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_concentrated_mass_is_clamped_and_worse(self):
        p = np.zeros(8)
        p[2] = 1.0
        loss = dfl(p, 2.5)
        assert np.isfinite(loss)
        assert loss > math.log(2.0)

    def test_grid_search_finds_no_lower_value_than_interpolation_weights(self):
        # two-neighbor family (t, 1-t): scan the simplex at 1e-3 resolution
        y = 2.5
        best = math.inf
        for step in range(1001):
            t = step / 1000.0
            p = np.zeros(4)
            p[2], p[3] = t, 1.0 - t
            best = min(best, dfl(p, y))
        assert best >= math.log(2.0) - 1e-9
        # and the optimum sits exactly at p_i = i+1-y for a generic target
        y = 1.25
        analytic = None
        best = math.inf
        for step in range(1001):
            t = step / 1000.0
            p = np.zeros(4)
            p[1], p[2] = t, 1.0 - t
            val = dfl(p, y)
            if val < best:
                best, analytic = val, t
        assert analytic == pytest.approx(1 + 1 - y, abs=1e-3)

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError, match="range"):
            dfl(np.full(4, 0.25), 3.5)

    def test_simplex_enforced(self):
        with pytest.raises(ValidationError, match="sum"):
            dfl(np.full(4, 0.3), 1.0)

    @pytest.mark.parametrize("probs", [[0.5, 0.5, math.nan], [math.nan, 0.5, 0.5], [math.nan] * 3])
    def test_nan_bin_probability_rejected(self, probs):
        # NaN compares false, so checks written as "p < 0" and
        # "abs(sum - 1) > 1e-6" pass it: the first input then scores 0.693
        with pytest.raises(ValidationError, match="^bin probabilities must be non-negative"):
            dfl(probs, 0.5)

    def test_infinite_bin_probability_rejected(self):
        with pytest.raises(ValidationError, match="^bin probabilities must sum to 1"):
            dfl([0.5, 0.5, math.inf], 0.5)


class TestGiou:
    def test_identical_boxes_zero_loss(self):
        b = Box(0, 0, 4, 4)
        assert giou_loss(b, b) == 0.0

    def test_hand_computed_overlap(self):
        loss = giou_loss(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        assert giou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7 - 2 / 9, abs=1e-9)
        assert loss == pytest.approx(1.079365, abs=1e-5)

    def test_abutting_halves_hull_term_vanishes(self):
        # two half-boxes whose union fills the hull exactly
        a, b = Box(0, 0, 2, 4), Box(2, 0, 4, 4)
        inter = 0.0
        union = 16.0
        iou = inter / union
        assert giou(a, b) == pytest.approx(iou, abs=1e-12)

    def test_range_and_ordering(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x1, x2, y1, y2 = rng.uniform(0, 10, 4)
            a = Box(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
            u1, v1, u2, v2 = rng.uniform(0, 10, 4)
            b = Box(min(u1, u2), min(v1, v2), max(u1, u2), max(v1, v2))
            g = giou(a, b)
            inter, = [max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1)) * max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))]
            union = a.area + b.area - inter
            iou = inter / union if union > 0 else 0.0
            assert -1.0 - 1e-12 <= g <= 1.0 + 1e-12
            assert g <= iou + 1e-12
            assert 0.0 <= giou_loss(a, b) <= 2.0

    @pytest.mark.parametrize("a, b", [
        ((0, 0, 1e200, 1e200), (0, 0, 1e200, 1e200)),
        ((0, 0, 1e308, 1e308), (-1e308, -1e308, 1, 1)),
    ])
    def test_finite_boxes_whose_areas_overflow_raise(self, a, b):
        # the result would be NaN: an error, not a silent loss of NaN
        for pred, gt in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match="giou is nan"):
                giou(Box(*pred), Box(*gt))
            with pytest.raises(ValidationError, match="giou is nan"):
                giou_loss(Box(*pred), Box(*gt))

    def test_degenerate_boxes_take_iou_zero_path(self):
        a = Box(1, 1, 1, 1)
        b = Box(1, 1, 1, 1)
        assert giou_loss(a, b) == pytest.approx(1.0)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss((0, 0, 0), LossWeights()) == 0.0

    def test_single_component(self):
        assert total_loss((0.5, 0, 0), LossWeights(1, 0, 0)) == pytest.approx(0.5)

    def test_weighted_arithmetic(self):
        assert total_loss((0.2, 0.4, 0.3), LossWeights(1, 0.25, 2)) == pytest.approx(0.9)

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            total_loss((-0.1, 0, 0), LossWeights())

    @pytest.mark.parametrize("index, name", [(0, "qfl"), (1, "dfl"), (2, "giou")])
    def test_nan_component_rejected(self, index, name):
        components = [0.0, 0.0, 0.0]
        components[index] = math.nan
        for call in (lambda: total_loss(components, LossWeights()),
                     lambda: loss_breakdown(components, LossWeights())):
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == f"{name}: {name} component is not a number: nan"
            assert err.value.path == name

    def test_breakdown_rejects_a_negative_distill(self):
        with pytest.raises(ValidationError) as err:
            loss_breakdown((0, 0, 0), LossWeights(), distill=-1.0)
        assert str(err.value) == "distill: negative distill component: -1.0"
        assert err.value.path == "distill"

    def test_breakdown_rejects_a_nan_distill(self):
        with pytest.raises(ValidationError) as err:
            loss_breakdown((0, 0, 0), LossWeights(), distill=math.nan)
        assert str(err.value) == "distill: distill component is not a number: nan"
        assert err.value.path == "distill"

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            LossWeights(0, 0, 0)

    @pytest.mark.parametrize("schedule", [None, DistillSchedule()])
    def test_breakdown_rejects_a_negative_epoch(self, schedule):
        with pytest.raises(ValidationError, match="epoch must be >= 0, got -3") as err:
            loss_breakdown((1, 1, 1), LossWeights(), distill=0.5, epoch=-3, schedule=schedule)
        assert err.value.path == "epoch"

    @pytest.mark.parametrize("epoch", [0, 142, 284])
    def test_breakdown_carries_the_distill_weight_it_applied(self, epoch):
        schedule = DistillSchedule()
        bd = loss_breakdown((0.2, 0.4, 0.3), LossWeights(1, 0.25, 2), distill=2.0,
                            epoch=epoch, schedule=schedule)
        assert bd.distill_weight == distill_weight(epoch, schedule)
        assert bd.total == 0.2 + 0.25 * 0.4 + 2 * 0.3 + bd.distill_weight * 2.0
        # no schedule: the distillation term is taken at weight 1 at any epoch
        assert loss_breakdown((0, 0, 0), LossWeights(), distill=2.0, epoch=epoch).distill_weight == 1.0

    def test_breakdown_total_includes_scheduled_distill(self):
        schedule = DistillSchedule()
        bd = loss_breakdown((0.2, 0.4, 0.3), LossWeights(1, 0.25, 2),
                            distill=1.0, epoch=0, schedule=schedule)
        assert bd.total == pytest.approx(0.9 + 0.5)
        bd2 = loss_breakdown((0.2, 0.4, 0.3), LossWeights(1, 0.25, 2),
                             distill=1.0, epoch=284, schedule=schedule)
        assert bd2.total == pytest.approx(0.9)


class TestAlignProject:
    def test_identity_projection_is_noop(self):
        rng = np.random.default_rng(1)
        x = Tensor4(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        eye = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        proj = ConvParams(eye, np.zeros(3))
        out = align_project(x, (3, 4, 4), proj)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_channel_growth_shape_contract(self):
        rng = np.random.default_rng(2)
        x = Tensor4(rng.standard_normal((1, 64, 5, 5)).astype(np.float32))
        proj = ConvParams(rng.standard_normal((128, 64, 1, 1)).astype(np.float32), np.zeros(128))
        out = align_project(x, (128, 5, 5), proj)
        assert out.dims == (1, 128, 5, 5)

    def test_matches_per_pixel_matmul_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        w = rng.standard_normal((6, 4, 1, 1)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        out = align_project(Tensor4(x), (6, 3, 3), ConvParams(w, b))
        expected = np.zeros((2, 6, 3, 3))
        for n in range(2):
            for i in range(3):
                for j in range(3):
                    expected[n, :, i, j] = w[:, :, 0, 0] @ x[n, :, i, j] + b
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_nearest_resize_path(self):
        x = Tensor4(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        proj = ConvParams(np.ones((1, 1, 1, 1), dtype=np.float32), np.zeros(1))
        out = align_project(x, (1, 4, 4), proj)
        assert out.dims == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], x.data[0, 0, 0, 0])

    def test_unreachable_shape_is_error(self):
        x = Tensor4(np.zeros((1, 4, 4, 4), dtype=np.float32))
        proj = ConvParams(np.zeros((8, 4, 1, 1), dtype=np.float32), np.zeros(8))
        with pytest.raises(ShapeError):
            align_project(x, (16, 4, 4), proj)

    def test_non_1x1_projection_rejected(self):
        x = Tensor4(np.zeros((1, 4, 4, 4), dtype=np.float32))
        proj = ConvParams(np.zeros((4, 4, 3, 3), dtype=np.float32), np.zeros(4), padding=1)
        with pytest.raises(ShapeError, match="1x1"):
            align_project(x, (4, 4, 4), proj)


def two_pass_cwd(teacher, student):
    """The former cwd_loss, kept as the reference: out-of-place channel
    statistics and softmax, each step on a fresh array."""
    x = teacher.astype(np.float64)
    mean = x.mean(axis=(0, 2, 3))
    temps = np.maximum(np.sqrt(((x - mean[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))), STD_FLOOR)

    def distributions(feat):
        c = feat.shape[1]
        flat = feat.transpose(1, 0, 2, 3).reshape(c, -1).astype(np.float64)
        flat = flat - flat.mean(axis=1, keepdims=True)
        z = flat / temps[:, None]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    p, q = distributions(teacher), distributions(student)
    kl = np.sum(p * (np.log(np.maximum(p, LOG_EPS)) - np.log(np.maximum(q, LOG_EPS))), axis=1)
    return float(np.mean(temps**2 * kl))


class TestCwd:
    def test_equals_two_pass_reference(self):
        # same operations in the same order on in-place buffers: equal, not close
        rng = np.random.default_rng(17)
        for shape in [(1, 3, 5, 7), (2, 4, 6, 6), (3, 2, 1, 9), (2, 16, 9, 11), (1, 1, 1, 1)]:
            t = (rng.standard_normal(shape) * rng.uniform(0.1, 5)).astype(np.float32)
            s = (rng.standard_normal(shape) * rng.uniform(0.1, 5)).astype(np.float32)
            t[:, 0] = 2.5  # a constant teacher channel takes the temperature floor
            s[:, -1] = -1.0
            assert cwd_loss(Tensor4(t), Tensor4(s)) == two_pass_cwd(t, s)

    @pytest.mark.parametrize("shape", [(2, 9, 80, 80), (1, 70, 32, 48), (2, 11, 64, 64), (1, 128, 80, 80)])
    def test_equals_two_pass_reference_over_several_blocks(self, shape, monkeypatch):
        # each channel block runs the whole tensor's operations: equal, not close
        blocks = []
        monkeypatch.setattr(losses, "channel_stats", lambda feat: blocks.append(feat.dims[1]) or channel_stats(feat))
        rng = np.random.default_rng(shape[1])
        t = (rng.standard_normal(shape) * 2).astype(np.float32)
        s = rng.standard_normal(shape).astype(np.float32)
        t[:, shape[1] // 2] = -0.75  # a constant teacher channel inside a block
        assert cwd_loss(Tensor4(t), Tensor4(s)) == two_pass_cwd(t, s)
        assert len(blocks) > 2 and blocks[-1] != blocks[0] and sum(blocks) == shape[1]

    @pytest.mark.parametrize("block", [1, 20, 45, 100])
    def test_small_blocks_equal_two_pass_reference(self, block, monkeypatch):
        # blocks of 2+ channels with a ragged last one, at batch 1-4; a block of
        # one channel out of several rounds its statistics differently now and then
        monkeypatch.setattr(losses, "_CWD_BLOCK", block)
        rng = np.random.default_rng(block)
        for shape in [(2, 3, 4, 5), (3, 7, 2, 3), (2, 9, 1, 1), (1, 5, 3, 3), (4, 3, 7, 7),
                      (3, 3, 10, 10), (2, 16, 9, 11)]:
            for _ in range(10):
                t = (rng.standard_normal(shape) * rng.uniform(0.1, 5)).astype(np.float32)
                s = (rng.standard_normal(shape) * rng.uniform(0.1, 5)).astype(np.float32)
                t[:, 0] = 2.5
                assert cwd_loss(Tensor4(t), Tensor4(s)) == two_pass_cwd(t, s)

    def test_identical_features_zero(self):
        rng = np.random.default_rng(4)
        t = Tensor4(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        assert cwd_loss(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_constant_teacher_channel_floored_uniform(self):
        t = Tensor4(np.full((1, 1, 2, 2), 3.25, dtype=np.float32))
        s = Tensor4(np.full((1, 1, 2, 2), -1.5, dtype=np.float32))
        # both are constant channels: teacher softmax uniform under the floor,
        # student softmax uniform too -> KL exactly 0
        assert cwd_loss(t, s) == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_2x2_distribution(self):
        # teacher (ln3 * 1e-3, 0, 0, 0): its std falls below the 1e-3 floor, so
        # T = 1e-3 and the softmax gaps are exactly ln 3 -> (1/2, 1/6, 1/6, 1/6)
        t_val = math.log(3.0) * 1e-3
        t = Tensor4(np.array([t_val, 0, 0, 0], dtype=np.float32).reshape(1, 1, 2, 2))
        s = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32))
        kl_hand = 0.5 * math.log(0.5 / 0.25) + 3 * (1 / 6) * math.log((1 / 6) / 0.25)
        expected = (1e-3) ** 2 * kl_hand
        got = cwd_loss(t, s)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got / (1e-3) ** 2 == pytest.approx(kl_hand, abs=1e-6)

    def test_nonnegative_on_500_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            shape = (1, int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            t = Tensor4(rng.standard_normal(shape).astype(np.float32) * rng.uniform(0.1, 3))
            s = Tensor4(rng.standard_normal(shape).astype(np.float32) * rng.uniform(0.1, 3))
            assert cwd_loss(t, s) >= 0.0

    def test_shape_mismatch(self):
        t = Tensor4(np.zeros((1, 2, 2, 2), dtype=np.float32))
        s = Tensor4(np.zeros((1, 3, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            cwd_loss(t, s)


class TestDistillBaselines:
    def test_mimic_is_mse(self):
        t = Tensor4(np.full((1, 1, 2, 2), 2.0, dtype=np.float32))
        s = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32))
        assert mimic_loss(t, s) == pytest.approx(4.0)

    def test_mgd_seeded_and_deterministic(self):
        rng = np.random.default_rng(6)
        t = Tensor4(rng.standard_normal((1, 2, 6, 6)).astype(np.float32))
        s = Tensor4(rng.standard_normal((1, 2, 6, 6)).astype(np.float32))
        assert mgd_loss(t, s, seed=3) == mgd_loss(t, s, seed=3)
        assert mgd_loss(t, s, seed=3) != mgd_loss(t, s, seed=4)

    def test_common_interface_over_scales(self):
        rng = np.random.default_rng(7)
        teachers = [Tensor4(rng.standard_normal((1, 2, 4, 4)).astype(np.float32)) for _ in range(3)]
        for kind in ("cwd", "mimic", "mgd"):
            assert distill_loss(teachers, teachers, kind=kind) >= 0.0
        assert distill_loss(teachers, teachers, kind="cwd") == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValidationError):
            distill_loss(teachers, teachers, kind="nope")


class TestDistillWeight:
    def test_default_schedule_endpoints(self):
        schedule = DistillSchedule()
        assert distill_weight(0, schedule) == pytest.approx(0.5, abs=1e-12)
        assert distill_weight(142, schedule) == pytest.approx(0.25, abs=1e-12)
        for epoch in range(284, 300):
            assert distill_weight(epoch, schedule) == 0.0

    def test_cosine_midpoint_general(self):
        schedule = DistillSchedule(stage1_epochs=100, stage2_epochs=10, w_start=0.8, w_end=0.2)
        assert distill_weight(50, schedule) == pytest.approx(0.5, abs=1e-12)

    def test_non_increasing_and_continuous_in_stage1(self):
        schedule = DistillSchedule()
        values = [distill_weight(e, schedule) for e in range(schedule.stage1_epochs + schedule.stage2_epochs)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        deltas = [abs(a - b) for a, b in zip(values[:283], values[1:284])]
        assert max(deltas) < 0.01  # smooth within stage 1

    def test_constant_mode(self):
        schedule = DistillSchedule(mode="constant")
        assert distill_weight(0, schedule) == 0.5
        assert distill_weight(283, schedule) == 0.5
        assert distill_weight(284, schedule) == 0.0

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValidationError) as err:
            distill_weight(-1)
        assert err.value.path == "epoch"
