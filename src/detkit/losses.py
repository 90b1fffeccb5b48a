"""Forward evaluation of the detection losses and the feature-distillation stack.

Training losses (weighted sum, weights configurable):

- qfl:  |target - p|^beta * BCE(p, target), a focal loss against a continuous
  quality target in [0, 1].
- dfl:  a box coordinate is a distribution over integer bins; the loss
  supervises the two neighbors of the real-valued target,
  -( (i+1-y) ln p_i + (y-i) ln p_{i+1} ), i = floor(y).
- giou_loss: 1 - GIoU with GIoU = IoU - (hull - union) / hull in [-1, 1].

Distillation: student features pass an align projection (1x1 conv, nearest
spatial resize when needed) to the teacher's (C, H, W); the channel-wise loss
centers each feature by its own channel mean, uses the teacher channel's
standard deviation as a per-channel temperature (floored at 1e-3), takes the
spatial softmax of feature / T_c for both, and averages T_c^2 * KL(teacher ||
student) over channels. The teacher-side std is an interpretation choice: the
teacher distribution is the KL reference. The distillation weight follows a
cosine schedule over stage one and is identically zero during the short
second (fine-tuning) stage.

Log arguments are clamped at 1e-12 throughout, so all stated tolerances are
reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assign import Box
from .errors import ShapeError, ValidationError
from .tensorops import ConvParams, Tensor4, channel_stats, conv2d_forward

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "DistillSchedule",
    "qfl",
    "dfl",
    "giou",
    "giou_loss",
    "total_loss",
    "loss_breakdown",
    "align_project",
    "cwd_loss",
    "mimic_loss",
    "mgd_loss",
    "distill_loss",
    "distill_weight",
    "LOG_EPS",
    "STD_FLOOR",
    "QFL_BETA",
]

LOG_EPS = 1e-12
STD_FLOOR = 1e-3
# the focusing exponent of qfl when none is given
QFL_BETA = 2.0


@dataclass(frozen=True)
class LossWeights:
    """Weights of the three loss components; defaults follow the quality-focal
    convention (1.0 / 0.25 / 2.0) since the reference values are unstated."""

    qfl: float = 1.0
    dfl: float = 0.25
    giou: float = 2.0

    def __post_init__(self):
        for name in ("qfl", "dfl", "giou"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"loss weights must be non-negative, got {getattr(self, name)}", path=name)
        if self.qfl == self.dfl == self.giou == 0:
            raise ValidationError("at least one loss weight must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    qfl: float
    dfl: float
    giou: float
    distill: float
    distill_weight: float  # the schedule weight applied to `distill`
    total: float


@dataclass(frozen=True)
class DistillSchedule:
    """Two-stage schedule: distill through stage one, fine-tune without
    distillation in stage two. mode "cosine" decays w_start -> w_end over
    stage one; "constant" holds w_start. Both weights are non-negative."""

    stage1_epochs: int = 284
    stage2_epochs: int = 16
    w_start: float = 0.5
    w_end: float = 0.0
    mode: str = "cosine"

    def __post_init__(self):
        for name in ("stage1_epochs", "stage2_epochs"):
            if getattr(self, name) < 1:
                raise ValidationError("stage durations must be positive", path=name)
        for name in ("w_start", "w_end"):
            # written so that NaN fails too
            if not getattr(self, name) >= 0:
                raise ValidationError(f"must be >= 0, got {getattr(self, name)}", path=name)
        if self.mode not in ("cosine", "constant"):
            raise ValidationError(f"unknown schedule mode {self.mode!r}", path="mode")


def _clamp01(x, name: str):
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise ValidationError(f"{name} must lie in [0, 1]")
    return x


def _safe_log(x, out=None):
    return np.log(np.maximum(x, LOG_EPS, out=out), out=out)


def qfl(pred_prob, target_q, beta_focal: float = QFL_BETA):
    """Quality focal loss. Scalars in, scalar out; arrays broadcast. beta_focal
    must be >= 0: a negative one is infinite where the prediction meets its target."""
    if not beta_focal >= 0:
        raise ValidationError(f"beta_focal must be >= 0, got {beta_focal}")
    p = _clamp01(pred_prob, "pred_prob")
    t = _clamp01(target_q, "target_q")
    bce = -(t * _safe_log(p) + (1.0 - t) * _safe_log(1.0 - p))
    out = np.abs(t - p) ** beta_focal * bce
    return float(out) if out.ndim == 0 else out


def dfl(bin_probs, target_y: float) -> float:
    """Distribution focal loss for one coordinate.

    bin_probs is a simplex over the bins (checked to 1e-6); target_y must lie
    in [0, bins - 1]. Integer targets use only their own bin.
    """
    p = np.asarray(bin_probs, dtype=np.float64).reshape(-1)
    if p.size < 1:
        raise ValidationError("bin_probs must be non-empty")
    if np.any(p < 0):
        raise ValidationError("bin probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValidationError(f"bin probabilities must sum to 1, got {p.sum():.8f}")
    y = float(target_y)
    if not 0.0 <= y <= p.size - 1:
        raise ValidationError(f"target {y} outside bin range [0, {p.size - 1}]")
    i = int(math.floor(y))
    if i == y:
        return float(-_safe_log(p[i]))
    left, right = i + 1 - y, y - i
    return float(-(left * _safe_log(p[i]) + right * _safe_log(p[i + 1])))


def giou(pred: Box, gt: Box) -> float:
    """Generalized IoU in [-1, 1]; degenerate unions take the IoU-0 path.
    Finite boxes whose areas overflow a float have no finite GIoU here:
    a ValidationError, not NaN."""
    ix = max(0.0, min(pred.x2, gt.x2) - max(pred.x1, gt.x1))
    iy = max(0.0, min(pred.y2, gt.y2) - max(pred.y1, gt.y1))
    inter = ix * iy
    union = pred.area + gt.area - inter
    hull = (max(pred.x2, gt.x2) - min(pred.x1, gt.x1)) * (max(pred.y2, gt.y2) - min(pred.y1, gt.y1))
    iou = inter / union if union > 0 else 0.0
    if hull <= 0:
        return iou
    g = iou - (hull - union) / hull
    if not math.isfinite(g):
        raise ValidationError(f"giou is {g}: the boxes' areas overflow a float")
    return g


def giou_loss(pred: Box, gt: Box) -> float:
    """1 - GIoU, in [0, 2]."""
    return 1.0 - giou(pred, gt)


def _check_component(name: str, value: float) -> None:
    if value != value:
        raise ValidationError(f"{name} component is not a number: {value}", path=name)
    if value < 0:
        raise ValidationError(f"negative {name} component: {value}", path=name)


def total_loss(components, weights: LossWeights) -> float:
    """Weighted sum of (qfl, dfl, giou) components; rejects negative and NaN inputs."""
    q, d, g = (float(c) for c in components)
    for name, value in (("qfl", q), ("dfl", d), ("giou", g)):
        _check_component(name, value)
    return weights.qfl * q + weights.dfl * d + weights.giou * g


def loss_breakdown(components, weights: LossWeights, distill: float = 0.0,
                   epoch: int = 0, schedule: DistillSchedule | None = None) -> LossBreakdown:
    """Assemble the full breakdown; the distillation term is scaled by the
    schedule weight at `epoch` (weight 1 when no schedule is given, but the
    epoch must still be >= 0)."""
    if epoch < 0:
        raise ValidationError(f"epoch must be >= 0, got {epoch}", path="epoch")
    _check_component("distill", distill)
    base = total_loss(components, weights)
    w = distill_weight(epoch, schedule) if schedule is not None else 1.0
    q, d, g = (float(c) for c in components)
    return LossBreakdown(qfl=q, dfl=d, giou=g, distill=distill, distill_weight=w,
                         total=base + w * distill)


# --- distillation ----------------------------------------------------------------


def align_project(student: Tensor4, teacher_shape, proj: ConvParams) -> Tensor4:
    """Project student features to the teacher's (C, H, W) via a 1x1 conv,
    resizing spatially (nearest) first when the grids differ."""
    if proj.kernel != (1, 1):
        raise ShapeError(f"align projection must be 1x1, got {proj.kernel}")
    t_c, t_h, t_w = teacher_shape[-3], teacher_shape[-2], teacher_shape[-1]
    n, c, h, w = student.dims
    x = student
    if (h, w) != (t_h, t_w):
        rows = (np.arange(t_h) * h) // t_h
        cols = (np.arange(t_w) * w) // t_w
        x = Tensor4(x.data[:, :, rows][:, :, :, cols])
    out = conv2d_forward(x, proj)
    if out.dims[1:] != (t_c, t_h, t_w):
        raise ShapeError(
            f"projection yields {out.dims[1:]}, teacher needs {(t_c, t_h, t_w)}"
        )
    return out


# values per channel block of cwd_loss, so a block's temporaries stay cache-sized
_CWD_BLOCK = 1 << 15


def _channel_softmax(feat: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """Per-channel softmax over all batch x spatial positions of (x - mean)/T,
    (C, N*H*W), computed in place on one float64 copy."""
    c = feat.shape[1]
    p = feat.transpose(1, 0, 2, 3).astype(np.float64, order="C").reshape(c, -1)
    p -= p.mean(axis=1, keepdims=True)
    p /= temps[:, None]
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def cwd_loss(teacher: Tensor4, student: Tensor4) -> float:
    """Channel-wise distillation with dynamic temperature.

    T_c is the teacher channel's std after mean removal (floored at 1e-3);
    both features are centered, softmaxed spatially at that temperature, and
    compared with KL(teacher || student); channels contribute T_c^2 * KL and
    the result is their mean. Zero iff the normalized distributions coincide.

    Channels are taken in blocks of about 2^15 values (at least two channels;
    the last block is ragged), so the float64 temporaries stay cache-sized.
    Each channel's statistics, softmax and KL row sum see the same operations
    in the same order as on the whole tensor, so the result does not depend
    on the blocking. No block holds one channel out of several: numpy reduces
    a lone channel's batch and spatial axes as one run, which rounds
    differently at batch > 1.
    """
    if teacher.dims != student.dims:
        raise ShapeError(f"teacher {teacher.dims} != student {student.dims}")
    n, c, h, w = teacher.dims
    step = max(2, _CWD_BLOCK // (n * h * w))
    # a block ends at each multiple of step short of the last channel
    edges = [0, *range(step, c - 1, step), c]
    temps, kl = np.empty(c), np.empty(c)
    for block in map(slice, edges, edges[1:]):
        t = teacher.data[:, block]
        _, t_std = channel_stats(Tensor4(t))
        temps[block] = np.maximum(t_std, STD_FLOOR)
        p = _channel_softmax(t, temps[block])
        log_p = _safe_log(p, out=np.empty_like(p))
        # only the student's log is read, so it overwrites its softmax
        q = _channel_softmax(student.data[:, block], temps[block])
        log_p -= _safe_log(q, out=q)
        log_p *= p
        kl[block] = log_p.sum(axis=1)
    return float(np.mean(temps**2 * kl))


def mimic_loss(teacher: Tensor4, student: Tensor4) -> float:
    """Plain feature imitation baseline: mean squared error."""
    if teacher.dims != student.dims:
        raise ShapeError(f"teacher {teacher.dims} != student {student.dims}")
    diff = teacher.data.astype(np.float64) - student.data.astype(np.float64)
    return float(np.mean(diff**2))


def mgd_loss(teacher: Tensor4, student: Tensor4, mask_ratio: float = 0.65,
             seed: int = 0) -> float:
    """Masked-imitation baseline: a seeded binary spatial mask hides student
    positions before the squared error. Structural stand-in for the masked
    generative method (no regeneration network at evaluation time)."""
    if teacher.dims != student.dims:
        raise ShapeError(f"teacher {teacher.dims} != student {student.dims}")
    if not 0.0 <= mask_ratio < 1.0:
        raise ValidationError("mask_ratio must lie in [0, 1)")
    n, c, h, w = teacher.dims
    rng = np.random.default_rng(seed)
    keep = rng.random((n, 1, h, w)) >= mask_ratio
    diff = (teacher.data.astype(np.float64) - student.data.astype(np.float64) * keep)
    return float(np.mean(diff**2))


_DISTILL_KINDS = {"cwd": cwd_loss, "mimic": mimic_loss, "mgd": mgd_loss}


def distill_loss(teacher_feats, student_feats, kind: str = "cwd", **kw) -> float:
    """Multi-scale distillation: equal-weight mean over feature pairs."""
    if kind not in _DISTILL_KINDS:
        raise ValidationError(f"unknown distillation kind {kind!r}; options: {sorted(_DISTILL_KINDS)}",
                              path="kind")
    if len(teacher_feats) != len(student_feats) or not teacher_feats:
        raise ShapeError("teacher and student need the same non-zero number of feature maps")
    fn = _DISTILL_KINDS[kind]
    return float(np.mean([fn(t, s, **kw) for t, s in zip(teacher_feats, student_feats)]))


def distill_weight(epoch: int, schedule: DistillSchedule | None = None) -> float:
    """Distillation weight at an epoch: cosine (or constant) during stage one,
    identically zero from the first stage-two epoch on."""
    if schedule is None:
        schedule = DistillSchedule()
    if epoch < 0:
        raise ValidationError(f"epoch must be >= 0, got {epoch}", path="epoch")
    if epoch >= schedule.stage1_epochs:
        return 0.0
    if schedule.mode == "constant":
        return schedule.w_start
    span = schedule.w_start - schedule.w_end
    return schedule.w_end + 0.5 * span * (1.0 + math.cos(math.pi * epoch / schedule.stage1_epochs))
