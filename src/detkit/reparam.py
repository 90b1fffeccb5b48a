"""Folding a multi-branch convolution block into one dense 3x3 convolution.

The trainable block is a 3x3 conv+bn, a parallel 1x1 conv+bn, and an optional
identity bn branch; at deploy time all three collapse into a single 3x3 conv
whose forward matches the branch sum for every input. The 1x1 kernel is
zero-padded into the 3x3 center and the identity branch becomes a centered
Dirac kernel scaled by its batchnorm fold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .tensorops import BnParams, ConvParams, Tensor4, conv2d_forward, fold_batchnorm

__all__ = ["RepBranchParams", "reparam_fold", "rep_branches_forward"]


@dataclass(frozen=True)
class RepBranchParams:
    """Weights of the three branches of a reparameterizable 3x3 block."""

    conv3: ConvParams
    bn3: BnParams
    conv1: ConvParams
    bn1: BnParams
    identity_bn: BnParams | None = None

    def __post_init__(self):
        if self.conv3.kernel != (3, 3):
            raise ShapeError(f"conv3 kernel must be 3x3, got {self.conv3.kernel}")
        if self.conv1.kernel != (1, 1):
            raise ShapeError(f"conv1 kernel must be 1x1, got {self.conv1.kernel}")
        if self.conv3.groups != 1 or self.conv1.groups != 1:
            raise ValidationError("rep branches support groups=1 only")
        if self.conv1.in_ch != self.conv3.in_ch or self.conv1.out_ch != self.conv3.out_ch:
            raise ShapeError(
                f"branch channels differ: 3x3 {self.conv3.in_ch}->{self.conv3.out_ch}, "
                f"1x1 {self.conv1.in_ch}->{self.conv1.out_ch}"
            )
        if self.conv1.stride != self.conv3.stride:
            raise ShapeError("branch strides differ")
        for name, padding in (("conv3", 1), ("conv1", 0)):
            got = getattr(self, name).padding
            if got != padding:
                raise ValidationError(f"rep block expects 3x3 pad 1 and 1x1 pad 0, got {got}",
                                      path=f"{name}.padding")
        if self.bn3.channels != self.conv3.out_ch or self.bn1.channels != self.conv1.out_ch:
            raise ShapeError("bn channels do not match branch out_ch")
        if self.identity_bn is not None:
            if self.conv3.in_ch != self.conv3.out_ch:
                raise ValidationError(
                    f"identity branch needs in_ch == out_ch, got {self.conv3.in_ch} != {self.conv3.out_ch}",
                    path="identity_bn",
                )
            if self.conv3.stride != 1:
                raise ValidationError("identity branch needs stride 1", path="identity_bn")
            if self.identity_bn.channels != self.conv3.out_ch:
                raise ShapeError("identity bn channels do not match out_ch")

    @property
    def in_ch(self) -> int:
        return self.conv3.in_ch

    @property
    def out_ch(self) -> int:
        return self.conv3.out_ch

    @property
    def stride(self) -> int:
        return self.conv3.stride


def _pad_1x1_to_3x3(w: np.ndarray) -> np.ndarray:
    out = np.zeros((w.shape[0], w.shape[1], 3, 3), dtype=np.float64)
    out[:, :, 1, 1] = w[:, :, 0, 0]
    return out


def _identity_as_conv(bn: BnParams, channels: int) -> ConvParams:
    """The identity branch as the batchnorm fold of a zero-bias Dirac 1x1 conv,
    which the 1x1 branch's padding centres in the 3x3 kernel."""
    w = np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1)
    return fold_batchnorm(ConvParams(w, np.zeros(channels, dtype=np.float32)), bn)


def reparam_fold(branches: RepBranchParams) -> ConvParams:
    """Collapse the branch block into one 3x3 conv with identical forward."""
    f3 = fold_batchnorm(branches.conv3, branches.bn3)
    f1 = fold_batchnorm(branches.conv1, branches.bn1)
    w = f3.weights.astype(np.float64) + _pad_1x1_to_3x3(f1.weights.astype(np.float64))
    b = f3.bias.astype(np.float64) + f1.bias.astype(np.float64)
    if branches.identity_bn is not None:
        ident = _identity_as_conv(branches.identity_bn, branches.out_ch)
        w += _pad_1x1_to_3x3(ident.weights.astype(np.float64))
        b += ident.bias.astype(np.float64)
    return ConvParams(w.astype(np.float32), b.astype(np.float32),
                      stride=branches.stride, padding=1)


def rep_branches_forward(x: Tensor4, branches: RepBranchParams) -> Tensor4:
    """Multi-branch (training view) forward: sum of the branch outputs."""
    y3 = branches.bn3.apply(conv2d_forward(x, branches.conv3))
    y1 = branches.bn1.apply(conv2d_forward(x, branches.conv1))
    out = y3.data.astype(np.float64) + y1.data.astype(np.float64)
    if branches.identity_bn is not None:
        out += branches.identity_bn.apply(x).data.astype(np.float64)
    return Tensor4(out.astype(np.float32))
