"""Small dense NCHW kernels: convolution, batchnorm folding, channel statistics.

These back the numeric equivalence checks (branch folding, feature projection)
and the distillation losses. Values are stored as float32 and accumulated in
float64; the toolkit's tolerance budgets assume exactly that. Convolution uses
the cross-correlation convention (no kernel flip) and supports only odd kernels
with symmetric padding; it runs as one float64 GEMM per kernel tap, batched
over groups, and sums the taps in tap order. At stride 1 a tap's operand is a
contiguous slice of the zero-padded input, flattened onto the padded width,
not a copy; the output is computed on that grid and cropped once. Only a
kernel wider than 1 reads past the padded rows, into one spare zero row, so an
unpadded 1-wide kernel reads a plain float64 copy of the input. Its pixels
are summed in blocks of 2^12 (a 1x1 kernel in one block, with no product
buffer), so the accumulator and the product buffer stay cache-sized; every
output pixel sees the same GEMMs and additions in the same order whatever the
block. A stride above 1 copies each tap's strided window and runs as one
block. Each float32 result (conv plus bias, batchnorm) is written once,
rounded from the float64 values as they are stored, with no full-size float64
copy of the output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .fields import integers, load_json, read_utf8, string

__all__ = [
    "Tensor4",
    "ConvParams",
    "BnParams",
    "conv2d_forward",
    "fold_batchnorm",
    "channel_stats",
    "save_raw_tensor",
    "load_raw_tensor",
]


@dataclass(frozen=True)
class Tensor4:
    """A dense (batch, channels, height, width) activation tensor."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 needs 4 dims (n, c, h, w), got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"Tensor4 dims must all be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class ConvParams:
    """Weights and geometry of one 2-D convolution.

    weights has shape (out_ch, in_ch // groups, kh, kw); bias has shape
    (out_ch,). Kernels must be odd so symmetric padding keeps centers aligned.
    A bad value raises naming its field, e.g. `stride`.
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float32)
        if w.ndim != 4:
            raise ShapeError(f"conv weights need 4 dims, got {w.ndim}")
        out_ch, _, kh, kw = w.shape
        b = np.asarray(self.bias, dtype=np.float32)
        if b.shape != (out_ch,):
            raise ShapeError(f"bias dim {b.shape} != out_ch ({out_ch},)")
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValidationError(f"kernel must be odd, got {kh}x{kw}", path="weights")
        for name, low in (("stride", 1), ("padding", 0), ("groups", 1)):
            if getattr(self, name) < low:
                raise ValidationError(f"must be >= {low}, got {getattr(self, name)}", path=name)
        if out_ch % self.groups != 0:
            raise ValidationError(f"out_ch {out_ch} not divisible by groups {self.groups}", path="groups")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_ch(self) -> int:
        return self.weights.shape[0]

    @property
    def in_ch(self) -> int:
        return self.weights.shape[1] * self.groups

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


@dataclass(frozen=True)
class BnParams:
    """Per-channel batchnorm parameters in inference form."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        fields_ = {}
        for name in ("gamma", "beta", "running_mean", "running_var"):
            fields_[name] = np.asarray(getattr(self, name), dtype=np.float32).reshape(-1)
        n = fields_["gamma"].shape[0]
        for name, arr in fields_.items():
            if arr.shape != (n,):
                raise ShapeError(f"bn {name} dim {arr.shape} != channels ({n},)")
            object.__setattr__(self, name, arr)
        # written so that a NaN variance fails too
        if np.any(~(fields_["running_var"] + self.epsilon > 0)):
            raise ValidationError("running_var + epsilon must be > 0 per channel", path="running_var")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def apply(self, x: Tensor4) -> Tensor4:
        """Normalize a feature map with running statistics (inference mode)."""
        if x.dims[1] != self.channels:
            raise ShapeError(f"bn channels {self.channels} != input channels {x.dims[1]}")
        scale = (self.gamma.astype(np.float64)
                 / np.sqrt(self.running_var.astype(np.float64) + self.epsilon))
        shift = self.beta.astype(np.float64) - self.running_mean.astype(np.float64) * scale
        out = np.multiply(x.data, scale[None, :, None, None], dtype=np.float64)
        return Tensor4(np.add(out, shift[None, :, None, None], out=np.empty_like(x.data)))


# output pixels per block of a stride-1 conv over which the taps are summed,
# so the block's accumulator and product buffer stay in L2
_TAP_BLOCK = 1 << 12


def conv2d_forward(x: Tensor4, p: ConvParams) -> Tensor4:
    """Cross-correlate an NCHW input with a conv's weights and add its bias.

    Output spatial dims follow floor((H + 2*pad - kh) / stride) + 1. Raises
    ShapeError when channels disagree or padding leaves no valid output.
    """
    n, c, h, w = x.dims
    if c != p.in_ch:
        raise ShapeError(f"input channels {c} != conv in_ch {p.in_ch}")
    kh, kw = p.kernel
    h_out = (h + 2 * p.padding - kh) // p.stride + 1
    w_out = (w + 2 * p.padding - kw) // p.stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"output dims {h_out}x{w_out} invalid for input {h}x{w}, "
            f"kernel {kh}x{kw}, pad {p.padding}, stride {p.stride}"
        )

    g, s, pad = p.groups, p.stride, p.padding
    # at stride 1 the output is computed on the padded input's width: output
    # pixel (r, q) sits at r * grid_w + q, and tap (i, j) reads the flattened
    # input from offset i * grid_w + j on; the last tap runs kw - 1 values past
    # the padded rows, into one spare zero row, so only kw > 1 needs that row,
    # and an unpadded input with no spare row is one float64 copy, not zero-filled
    grid_w = w + 2 * pad if s == 1 else w_out
    spare = s == 1 and kw > 1
    if pad == 0 and not spare:
        xg = x.data.astype(np.float64).reshape(n, g, c // g, h, w)
    else:
        xg = np.zeros((n, g, c // g, h + 2 * pad + spare, w + 2 * pad))
        xg[..., pad:pad + h, pad:pad + w] = x.data.reshape(n, g, c // g, h, w)
    flat = xg.reshape(n, g, c // g, -1)
    pixels = h_out * grid_w
    block = min(_TAP_BLOCK, pixels) if s == 1 and kh * kw > 1 else pixels
    # one (groups, out/groups, in/groups) weight matrix per kernel tap
    taps = np.ascontiguousarray(
        p.weights.astype(np.float64).reshape(g, p.out_ch // g, c // g, kh, kw).transpose(3, 4, 0, 1, 2))
    out = np.empty((n, g, p.out_ch // g, pixels))
    # a 1x1 kernel's one tap writes the accumulator itself, so it needs no product buffer
    prod = np.empty((n, g, p.out_ch // g, block if kh * kw > 1 else 0))
    for start in range(0, pixels, block):
        stop = min(start + block, pixels)
        acc, tmp = out[..., start:stop], prod[..., :stop - start]
        for i in range(kh):
            for j in range(kw):
                if s == 1:
                    cols = flat[..., i * grid_w + j + start:i * grid_w + j + stop]
                else:
                    # strided windows are copied, one block covering every pixel
                    cols = xg[..., i:i + s * (h_out - 1) + 1:s, j:j + s * (w_out - 1) + 1:s]
                    cols = cols.reshape(n, g, c // g, pixels)
                if i == j == 0:
                    np.matmul(taps[i, j], cols, out=acc)
                else:
                    acc += np.matmul(taps[i, j], cols, out=tmp)
    # the bias is added in float64 and each sum rounded to float32 once, as it is written
    out = out.reshape(n, p.out_ch, h_out, grid_w)[..., :w_out]
    res = np.empty((n, p.out_ch, h_out, w_out), dtype=np.float32)
    return Tensor4(np.add(out, p.bias.astype(np.float64)[:, None, None], out=res))


def fold_batchnorm(conv: ConvParams, bn: BnParams) -> ConvParams:
    """Fold an inference batchnorm into the preceding convolution.

    For every input x, conv2d(x, folded) == bn(conv2d(x, conv)) up to float32
    rounding: weights scale by gamma / sqrt(var + eps) and the bias is rescaled
    and shifted accordingly.
    """
    if bn.channels != conv.out_ch:
        raise ShapeError(f"bn channels {bn.channels} != conv out_ch {conv.out_ch}")
    scale = bn.gamma.astype(np.float64) / np.sqrt(bn.running_var.astype(np.float64) + bn.epsilon)
    w = conv.weights.astype(np.float64) * scale[:, None, None, None]
    b = (conv.bias.astype(np.float64) - bn.running_mean.astype(np.float64)) * scale \
        + bn.beta.astype(np.float64)
    return ConvParams(
        weights=w.astype(np.float32),
        bias=b.astype(np.float32),
        stride=conv.stride,
        padding=conv.padding,
        groups=conv.groups,
    )


def channel_stats(feat: Tensor4) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (mean, std) over the batch and spatial axes.

    Std is the population definition (divide by N), so it is stable for any
    N >= 1. A constant channel yields std 0; callers that need a temperature
    must floor it themselves.
    """
    x = feat.data.astype(np.float64)
    mean = x.mean(axis=(0, 2, 3))
    x -= mean[None, :, None, None]
    std = np.sqrt(np.square(x, out=x).mean(axis=(0, 2, 3)))
    return mean, std


# the one layout raw tensor files have; a sidecar may restate it, not change it
_RAW_LAYOUT = {"dtype": "float32", "byte_order": "little", "order": "C"}


def save_raw_tensor(path, x: Tensor4) -> None:
    """Write little-endian float32 raw data plus a `<path>.json` shape sidecar."""
    import json
    from pathlib import Path

    path = Path(path)
    x.data.astype("<f4").tofile(path)
    sidecar = {"shape": list(x.dims), **_RAW_LAYOUT}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_raw_tensor(path) -> Tensor4:
    """Read a tensor written by save_raw_tensor."""
    import math
    from pathlib import Path

    path = Path(path)
    sidecar = Path(str(path) + ".json")
    doc = load_json(read_utf8(sidecar, sidecar.name), sidecar.name)
    shape = tuple(integers(doc, "shape", sidecar.name, length=4))
    if min(shape) < 1:
        raise ValidationError(f"dims must be >= 1, got {list(shape)}", path=f"{sidecar.name}.shape")
    for key, expected in _RAW_LAYOUT.items():
        value = string(doc, key, sidecar.name, default=expected)
        if value != expected:
            raise ValidationError(f"only {expected!r} is supported, got {value!r}",
                                  path=f"{sidecar.name}.{key}")
    data = np.fromfile(path, dtype="<f4")
    if data.size != math.prod(shape):
        raise ShapeError(f"raw file holds {data.size} values, sidecar shape {shape} needs {math.prod(shape)}")
    return Tensor4(data.reshape(shape))
