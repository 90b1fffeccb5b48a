import numpy as np
import pytest

from detkit.errors import ShapeError, ValidationError
from detkit.reparam import RepBranchParams, rep_branches_forward, reparam_fold
from detkit.tensorops import BnParams, ConvParams, Tensor4, conv2d_forward, fold_batchnorm

from test_tensorops import two_pass_bn_apply


def make_bn(rng, ch):
    return BnParams(
        gamma=rng.uniform(0.5, 1.5, ch).astype(np.float32),
        beta=rng.standard_normal(ch).astype(np.float32),
        running_mean=rng.standard_normal(ch).astype(np.float32),
        running_var=rng.uniform(0.2, 2.0, ch).astype(np.float32),
        epsilon=1e-5,
    )


def identity_bn(ch):
    return BnParams(np.ones(ch), np.zeros(ch), np.zeros(ch), np.ones(ch), epsilon=0.0)


def make_branches(rng, in_ch, out_ch, stride=1, identity=False):
    conv3 = ConvParams(rng.standard_normal((out_ch, in_ch, 3, 3)).astype(np.float32),
                       rng.standard_normal(out_ch).astype(np.float32), stride=stride, padding=1)
    conv1 = ConvParams(rng.standard_normal((out_ch, in_ch, 1, 1)).astype(np.float32),
                       rng.standard_normal(out_ch).astype(np.float32), stride=stride, padding=0)
    return RepBranchParams(
        conv3=conv3, bn3=make_bn(rng, out_ch),
        conv1=conv1, bn1=make_bn(rng, out_ch),
        identity_bn=make_bn(rng, out_ch) if identity else None,
    )


def reference_branches_forward(x: Tensor4, branches: RepBranchParams) -> np.ndarray:
    """The former rep_branches_forward, kept as the exact reference: each
    branch rounded to float32, the branches summed in float64 from float64
    copies and the sum rounded once."""
    y3 = two_pass_bn_apply(conv2d_forward(x, branches.conv3).data, branches.bn3)
    y1 = two_pass_bn_apply(conv2d_forward(x, branches.conv1).data, branches.bn1)
    out = y3.astype(np.float64) + y1.astype(np.float64)
    if branches.identity_bn is not None:
        out += two_pass_bn_apply(x.data, branches.identity_bn).astype(np.float64)
    return out.astype(np.float32)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("stride, identity", [(1, False), (1, True), (2, False)])
def test_branch_forward_equals_the_two_pass_reference(batch, stride, identity):
    rng = np.random.default_rng(4 * batch + 2 * stride + identity)
    branches = make_branches(rng, 6, 6, stride=stride, identity=identity)
    x = Tensor4((3 * rng.standard_normal((batch, 6, 17, 19))).astype(np.float32))
    got = rep_branches_forward(x, branches).data
    assert got.dtype == np.float32 and np.array_equal(got, reference_branches_forward(x, branches))


def test_zero_1x1_no_identity_equals_bn_folded_conv3():
    rng = np.random.default_rng(0)
    b = make_branches(rng, 4, 4)
    zero1 = ConvParams(np.zeros_like(b.conv1.weights), b.conv1.bias, stride=1, padding=0)
    b = RepBranchParams(conv3=b.conv3, bn3=b.bn3, conv1=zero1, bn1=b.bn1, identity_bn=None)
    folded = reparam_fold(b)
    np.testing.assert_allclose(folded.weights, fold_batchnorm(b.conv3, b.bn3).weights, atol=1e-6)


def test_zero_conv3_scalar_1x1_lands_in_center():
    k = 2.5
    conv3 = ConvParams(np.zeros((1, 1, 3, 3), dtype=np.float32), np.zeros(1), padding=1)
    conv1 = ConvParams(np.full((1, 1, 1, 1), k, dtype=np.float32), np.zeros(1), padding=0)
    b = RepBranchParams(conv3=conv3, bn3=identity_bn(1), conv1=conv1, bn1=identity_bn(1))
    folded = reparam_fold(b)
    expected = np.zeros((1, 1, 3, 3), dtype=np.float32)
    expected[0, 0, 1, 1] = k
    np.testing.assert_allclose(folded.weights, expected)


def test_identity_branch_is_scaled_dirac():
    ch = 3
    conv3 = ConvParams(np.zeros((ch, ch, 3, 3), dtype=np.float32), np.zeros(ch), padding=1)
    conv1 = ConvParams(np.zeros((ch, ch, 1, 1), dtype=np.float32), np.zeros(ch), padding=0)
    bn_id = BnParams(np.full(ch, 2.0), np.full(ch, 0.5), np.zeros(ch), np.ones(ch), epsilon=0.0)
    b = RepBranchParams(conv3=conv3, bn3=identity_bn(ch), conv1=conv1, bn1=identity_bn(ch),
                        identity_bn=bn_id)
    folded = reparam_fold(b)
    for c in range(ch):
        assert folded.weights[c, c, 1, 1] == pytest.approx(2.0)
    np.testing.assert_allclose(folded.bias, 0.5)


def test_100_random_branch_triples_fold_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(100):
        in_ch = int(rng.integers(1, 6))
        same = bool(rng.integers(0, 2))
        out_ch = in_ch if same else int(rng.integers(1, 6))
        stride = int(rng.choice([1, 2]))
        identity = same and stride == 1 and bool(rng.integers(0, 2))
        b = make_branches(rng, in_ch, out_ch, stride=stride, identity=identity)
        x = Tensor4(rng.standard_normal((1, in_ch, 8, 8)).astype(np.float32))
        multi = rep_branches_forward(x, b)
        single = conv2d_forward(x, reparam_fold(b))
        worst = max(worst, float(np.abs(multi.data - single.data).max()))
    assert worst < 1e-5


def test_identity_with_channel_change_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ValidationError, match="in_ch == out_ch"):
        make_branches(rng, 2, 4, identity=True)


def test_identity_with_stride2_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError, match="stride"):
        make_branches(rng, 4, 4, stride=2, identity=True)


def test_mismatched_branch_channels_rejected():
    rng = np.random.default_rng(3)
    conv3 = ConvParams(rng.standard_normal((4, 2, 3, 3)).astype(np.float32), np.zeros(4), padding=1)
    conv1 = ConvParams(rng.standard_normal((3, 2, 1, 1)).astype(np.float32), np.zeros(3), padding=0)
    with pytest.raises(ShapeError, match="channels"):
        RepBranchParams(conv3=conv3, bn3=make_bn(rng, 4), conv1=conv1, bn1=make_bn(rng, 3))


def test_wrong_kernels_rejected():
    rng = np.random.default_rng(4)
    conv5 = ConvParams(rng.standard_normal((2, 2, 5, 5)).astype(np.float32), np.zeros(2), padding=2)
    conv1 = ConvParams(rng.standard_normal((2, 2, 1, 1)).astype(np.float32), np.zeros(2), padding=0)
    with pytest.raises(ShapeError, match="3x3"):
        RepBranchParams(conv3=conv5, bn3=make_bn(rng, 2), conv1=conv1, bn1=make_bn(rng, 2))
