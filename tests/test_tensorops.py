"""tensorops tests. The quadruple-loop conv below is the independent oracle:
it was written first and stays loop-based on purpose."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from detkit import tensorops
from detkit.errors import ShapeError, ValidationError
from detkit.tensorops import (
    BnParams,
    ConvParams,
    Tensor4,
    channel_stats,
    conv2d_forward,
    fold_batchnorm,
    load_raw_tensor,
    save_raw_tensor,
)


def naive_conv2d(x, w, b, stride=1, padding=0, groups=1):
    """Reference cross-correlation: plain loops, float64, no shared helpers."""
    n, c, h, wi = x.shape
    out_ch, cg, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wi + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wi] = x
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wi + 2 * padding - kw) // stride + 1
    out = np.zeros((n, out_ch, h_out, w_out), dtype=np.float64)
    og = out_ch // groups
    for ni in range(n):
        for o in range(out_ch):
            g = o // og
            for yo in range(h_out):
                for xo in range(w_out):
                    acc = 0.0
                    for ci in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[ni, g * cg + ci, yo * stride + ky, xo * stride + kx]
                                    * w[o, ci, ky, kx]
                                )
                    out[ni, o, yo, xo] = acc + b[o]
    return out


def einsum_conv2d(x, p):
    """The former conv2d_forward, kept as a reference at shapes too large for
    the loop oracle: one einsum per group over a strided window view."""
    n, c, _, _ = x.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p.padding,) * 2, (p.padding,) * 2))
    win = sliding_window_view(xp, p.kernel, axis=(2, 3))[:, :, :: p.stride, :: p.stride]
    wt = p.weights.astype(np.float64)
    cg, og = c // p.groups, p.out_ch // p.groups
    out = np.concatenate([
        np.einsum("nchwij,ocij->nohw", win[:, g * cg:(g + 1) * cg], wt[g * og:(g + 1) * og], optimize=True)
        for g in range(p.groups)
    ], axis=1)
    return (out + p.bias.astype(np.float64)[None, :, None, None]).astype(np.float32)


def tap_copy_conv2d(x, p):
    """The former conv2d_forward, kept as the exact reference: one float64 GEMM
    per kernel tap on a copy of the tap's window, the taps summed in tap order
    over all output pixels at once."""
    n, c, h, w = x.shape
    kh, kw = p.kernel
    g, s, pad = p.groups, p.stride, p.padding
    h_out = (h + 2 * pad - kh) // s + 1
    w_out = (w + 2 * pad - kw) // s + 1
    xg = np.zeros((n, g, c // g, h + 2 * pad, w + 2 * pad))
    xg[..., pad:pad + h, pad:pad + w] = x.reshape(n, g, c // g, h, w)
    taps = np.ascontiguousarray(
        p.weights.astype(np.float64).reshape(g, p.out_ch // g, c // g, kh, kw).transpose(3, 4, 0, 1, 2))
    out = prod = None
    for i in range(kh):
        for j in range(kw):
            cols = xg[..., i:i + s * (h_out - 1) + 1:s, j:j + s * (w_out - 1) + 1:s]
            cols = cols.reshape(n, g, c // g, h_out * w_out)
            if out is None:
                out = np.matmul(taps[i, j], cols)
            else:
                prod = np.matmul(taps[i, j], cols, out=prod)
                out += prod
    out = out.reshape(n, p.out_ch, h_out, w_out)
    out += p.bias.astype(np.float64)[None, :, None, None]
    return out.astype(np.float32)


def two_pass_bn_apply(x, bn):
    """The former BnParams.apply, kept as the exact reference: a float64 copy
    of the input, scaled and shifted in two passes, then rounded to float32."""
    scale = bn.gamma.astype(np.float64) / np.sqrt(bn.running_var.astype(np.float64) + bn.epsilon)
    shift = bn.beta.astype(np.float64) - bn.running_mean.astype(np.float64) * scale
    out = x.astype(np.float64) * scale[None, :, None, None] + shift[None, :, None, None]
    return out.astype(np.float32)


def rand_conv(rng, in_ch, out_ch, k, stride=1, padding=None, groups=1):
    if padding is None:
        padding = k // 2
    w = rng.standard_normal((out_ch, in_ch // groups, k, k)).astype(np.float32)
    b = rng.standard_normal(out_ch).astype(np.float32)
    return ConvParams(w, b, stride=stride, padding=padding, groups=groups)


def rand_bn(rng, ch, eps=1e-5):
    return BnParams(
        gamma=rng.uniform(0.5, 1.5, ch).astype(np.float32),
        beta=rng.standard_normal(ch).astype(np.float32),
        running_mean=rng.standard_normal(ch).astype(np.float32),
        running_var=rng.uniform(0.2, 2.0, ch).astype(np.float32),
        epsilon=eps,
    )


class TestConv2d:
    def test_identity_shaped_scaling(self):
        x = Tensor4(np.ones((1, 1, 3, 3), dtype=np.float32))
        p = ConvParams(np.array([[[[2.0]]]]), np.zeros(1), stride=1, padding=0)
        out = conv2d_forward(x, p)
        assert out.dims == (1, 1, 3, 3)
        np.testing.assert_allclose(out.data, 2.0)

    def test_single_pixel_padded(self):
        x = Tensor4(np.full((1, 1, 1, 1), 5.0, dtype=np.float32))
        p = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1), padding=1)
        out = conv2d_forward(x, p)
        assert out.dims == (1, 1, 1, 1)
        np.testing.assert_allclose(out.data, 5.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        p = rand_conv(rng, 4, 8, 3)
        expected = naive_conv2d(x.astype(np.float64), p.weights.astype(np.float64),
                                p.bias.astype(np.float64), stride=1, padding=1)
        got = conv2d_forward(Tensor4(x), p)
        np.testing.assert_allclose(got.data, expected, atol=1e-6)

    @pytest.mark.parametrize("shape,out_ch,k,stride,padding,groups", [
        ((2, 4, 9, 7), 6, 1, 1, 0, 1),
        ((2, 4, 9, 7), 6, 3, 2, 1, 1),
        ((2, 4, 9, 7), 6, 5, 1, 2, 1),
        ((2, 4, 9, 7), 6, 3, 2, 1, 2),
        ((2, 4, 9, 7), 6, 1, 2, 0, 1),   # 1x1, stride 2
        ((2, 4, 9, 7), 6, 1, 1, 1, 1),   # 1x1, padded
        ((2, 4, 9, 7), 4, 3, 1, 1, 4),   # depthwise
        ((2, 4, 9, 7), 6, 5, 3, 1, 1),   # 5x5, stride 3
        ((3, 4, 5, 12), 6, 3, 1, 1, 1),  # batch 3, non-square
    ])
    def test_matches_naive_oracle_geometries(self, shape, out_ch, k, stride, padding, groups):
        rng = np.random.default_rng(stride * 100 + padding * 10 + k + groups)
        x = rng.standard_normal(shape).astype(np.float32)
        p = rand_conv(rng, shape[1], out_ch, k, stride=stride, padding=padding, groups=groups)
        expected = naive_conv2d(x.astype(np.float64), p.weights.astype(np.float64),
                                p.bias.astype(np.float64), stride, padding, groups)
        got = conv2d_forward(Tensor4(x), p)
        assert got.dims == expected.shape
        np.testing.assert_allclose(got.data, expected, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_naive_oracle_random_geometry(self, data):
        k = data.draw(st.sampled_from([1, 3, 5]), "k")
        padding = data.draw(st.integers(0, 2), "padding")
        stride = data.draw(st.integers(1, 3), "stride")
        groups = data.draw(st.integers(1, 3), "groups")
        in_ch = groups * data.draw(st.integers(1, 3), "in_ch / groups")
        out_ch = groups * data.draw(st.integers(1, 3), "out_ch / groups")
        side = st.integers(max(1, k - 2 * padding), 8)
        shape = (data.draw(st.integers(1, 2), "n"), in_ch, data.draw(side, "h"), data.draw(side, "w"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        x = rng.standard_normal(shape).astype(np.float32)
        p = rand_conv(rng, in_ch, out_ch, k, stride=stride, padding=padding, groups=groups)
        expected = naive_conv2d(x.astype(np.float64), p.weights.astype(np.float64),
                                p.bias.astype(np.float64), stride, padding, groups)
        got = conv2d_forward(Tensor4(x), p)
        assert got.dims == expected.shape
        np.testing.assert_allclose(got.data, expected, atol=1e-5)

    @pytest.mark.parametrize("in_ch,out_ch,k", [(96, 128, 1), (76, 76, 3)])
    def test_matches_einsum_reference_at_distill_shapes(self, in_ch, out_ch, k):
        # BLAS builds may order the float64 sums differently, so close, not equal
        rng = np.random.default_rng(in_ch + k)
        x = rng.standard_normal((1, in_ch, 80, 80)).astype(np.float32)
        p = rand_conv(rng, in_ch, out_ch, k)
        np.testing.assert_allclose(conv2d_forward(Tensor4(x), p).data, einsum_conv2d(x, p), rtol=1e-6)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_equals_tap_copy_reference_over_several_blocks(self, k, padding, groups):
        # a 90 x 100 input puts 2 or more blocks on the grid at stride 1 (a 1x1
        # kernel runs as one), the last one ragged; per output pixel the same
        # GEMMs and sums run, so equal, not close
        rng = np.random.default_rng(k * 10 + padding + groups)
        x = rng.standard_normal((2, 4, 90, 100)).astype(np.float32)
        p = rand_conv(rng, 4, 6, k, padding=padding, groups=groups)
        assert 2 * tensorops._TAP_BLOCK < 86 * 100
        assert np.array_equal(conv2d_forward(Tensor4(x), p).data, tap_copy_conv2d(x, p))

    @pytest.mark.parametrize("k,stride,padding,groups", [(3, 2, 1, 1), (5, 2, 2, 2), (1, 2, 0, 1)])
    def test_strided_equals_tap_copy_reference(self, k, stride, padding, groups):
        rng = np.random.default_rng(k + stride + padding)
        x = rng.standard_normal((2, 4, 33, 40)).astype(np.float32)
        p = rand_conv(rng, 4, 6, k, stride=stride, padding=padding, groups=groups)
        assert np.array_equal(conv2d_forward(Tensor4(x), p).data, tap_copy_conv2d(x, p))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_unpadded_1x1_equals_tap_copy_reference(self, stride):
        # the one tap reads a plain float64 copy of the input: no zero-filled
        # padded copy, no spare row and no product buffer
        rng = np.random.default_rng(40 + stride)
        x = rng.standard_normal((2, 4, 33, 40)).astype(np.float32)
        p = rand_conv(rng, 4, 6, 1, stride=stride, padding=0, groups=2)
        assert np.array_equal(conv2d_forward(Tensor4(x), p).data, tap_copy_conv2d(x, p))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_small_blocks_equal_tap_copy_reference(self, data):
        # tiny blocks split every row, down to one-pixel remainders
        block = data.draw(st.integers(1, 40), "block")
        k = data.draw(st.sampled_from([1, 3, 5]), "k")
        padding = data.draw(st.integers(0, 2), "padding")
        groups = data.draw(st.integers(1, 2), "groups")
        in_ch = groups * data.draw(st.integers(1, 3), "in_ch / groups")
        out_ch = groups * data.draw(st.integers(1, 3), "out_ch / groups")
        side = st.integers(max(1, k - 2 * padding), 9)
        shape = (data.draw(st.integers(1, 2), "n"), in_ch, data.draw(side, "h"), data.draw(side, "w"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        x = rng.standard_normal(shape).astype(np.float32)
        p = rand_conv(rng, in_ch, out_ch, k, padding=padding, groups=groups)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensorops, "_TAP_BLOCK", block)
            got = conv2d_forward(Tensor4(x), p).data
        assert np.array_equal(got, tap_copy_conv2d(x, p))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(3)
        p = rand_conv(rng, 3, 5, 3)
        p = ConvParams(p.weights, np.zeros(5), stride=1, padding=1)
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        y = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        a, b = 1.5, -0.75
        lhs = conv2d_forward(Tensor4(a * x + b * y), p).data
        rhs = a * conv2d_forward(Tensor4(x), p).data + b * conv2d_forward(Tensor4(y), p).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_channel_mismatch_names_dim(self):
        x = Tensor4(np.zeros((1, 3, 4, 4), dtype=np.float32))
        p = ConvParams(np.zeros((2, 4, 1, 1)), np.zeros(2))
        with pytest.raises(ShapeError, match="channels"):
            conv2d_forward(x, p)

    def test_invalid_output_dims(self):
        x = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32))
        p = ConvParams(np.zeros((1, 1, 5, 5)), np.zeros(1), padding=0)
        with pytest.raises(ShapeError, match="output dims"):
            conv2d_forward(x, p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            ConvParams(np.zeros((1, 1, 2, 2)), np.zeros(1))


class TestBnApply:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_equals_two_pass_reference(self, batch):
        # one float64 product, and the shifted sum rounded once into the result
        rng = np.random.default_rng(batch)
        x = (3 * rng.standard_normal((batch, 5, 17, 19))).astype(np.float32)
        bn = rand_bn(rng, 5)
        got = bn.apply(Tensor4(x)).data
        assert got.dtype == np.float32 and np.array_equal(got, two_pass_bn_apply(x, bn))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            rand_bn(np.random.default_rng(0), 4).apply(Tensor4(np.zeros((1, 3, 2, 2), dtype=np.float32)))


class TestFoldBatchnorm:
    def test_identity_bn_is_noop(self):
        rng = np.random.default_rng(11)
        conv = rand_conv(rng, 3, 4, 3)
        bn = BnParams(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), epsilon=0.0)
        folded = fold_batchnorm(conv, bn)
        np.testing.assert_allclose(folded.weights, conv.weights, atol=1e-7)
        np.testing.assert_allclose(folded.bias, conv.bias, atol=1e-7)

    def test_closed_form_scale_shift(self):
        rng = np.random.default_rng(12)
        conv = rand_conv(rng, 2, 3, 3)
        bn = BnParams(np.full(3, 2.0), np.full(3, 3.0), np.zeros(3), np.ones(3), epsilon=0.0)
        folded = fold_batchnorm(conv, bn)
        np.testing.assert_allclose(folded.weights, 2.0 * conv.weights, rtol=1e-6)
        np.testing.assert_allclose(folded.bias, 2.0 * conv.bias + 3.0, rtol=1e-6)

    def test_composed_equivalence_100_random_pairs(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            in_ch = int(rng.integers(1, 5))
            out_ch = int(rng.integers(1, 6))
            k = int(rng.choice([1, 3]))
            conv = rand_conv(rng, in_ch, out_ch, k)
            bn = rand_bn(rng, out_ch)
            x = Tensor4(rng.standard_normal((1, in_ch, 6, 6)).astype(np.float32))
            composed = bn.apply(conv2d_forward(x, conv))
            folded = conv2d_forward(x, fold_batchnorm(conv, bn))
            worst = max(worst, float(np.abs(composed.data - folded.data).max()))
        assert worst < 1e-5

    def test_channel_mismatch(self):
        conv = ConvParams(np.zeros((2, 1, 1, 1)), np.zeros(2))
        bn = BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            fold_batchnorm(conv, bn)

    def test_nonpositive_var_rejected(self):
        with pytest.raises(ValidationError):
            BnParams(np.ones(1), np.zeros(1), np.zeros(1), np.array([-1.0]), epsilon=0.5)

    def test_nan_var_rejected(self):
        with pytest.raises(ValidationError, match="running_var"):
            BnParams([1.0], [0.0], [0.0], [np.nan])


class TestChannelStats:
    def test_constant_channel(self):
        x = Tensor4(np.full((1, 1, 2, 2), 7.0, dtype=np.float32))
        mean, std = channel_stats(x)
        assert mean[0] == 7.0
        assert std[0] == 0.0

    def test_two_values(self):
        x = Tensor4(np.array([1.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 2))
        mean, std = channel_stats(x)
        np.testing.assert_allclose(mean, [2.0])
        np.testing.assert_allclose(std, [1.0])

    def test_four_values(self):
        x = Tensor4(np.array([0.0, 0.0, 6.0, 6.0], dtype=np.float32).reshape(1, 1, 2, 2))
        mean, std = channel_stats(x)
        np.testing.assert_allclose(mean, [3.0])
        np.testing.assert_allclose(std, [3.0])

    def test_standardized_channel_is_0_1(self):
        # exactly representable standardized values: mean 0 and std 1 hold to 1e-9
        x = Tensor4(np.array([-1.0, 1.0] * 8, dtype=np.float32).reshape(1, 1, 4, 4))
        mean, std = channel_stats(x)
        assert abs(mean[0]) < 1e-9
        assert abs(std[0] - 1.0) < 1e-9

    def test_batch_and_spatial_pooling(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        mean, std = channel_stats(Tensor4(x))
        for c in range(2):
            flat = x[:, c].astype(np.float64).ravel()
            np.testing.assert_allclose(mean[c], flat.mean(), atol=1e-12)
            np.testing.assert_allclose(std[c], flat.std(), atol=1e-12)


class TestRawTensorIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        x = Tensor4(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
        path = tmp_path / "feat.bin"
        save_raw_tensor(path, x)
        back = load_raw_tensor(path)
        assert back.dims == x.dims
        np.testing.assert_array_equal(back.data, x.data)
        assert json.loads((tmp_path / "feat.bin.json").read_text()) == {
            "shape": [2, 3, 4, 5], "dtype": "float32", "byte_order": "little", "order": "C"}

    def test_sidecar_without_layout_fields_is_read_as_the_default_layout(self, tmp_path):
        x = Tensor4(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        path = tmp_path / "feat.bin"
        save_raw_tensor(path, x)
        (tmp_path / "feat.bin.json").write_text(json.dumps({"shape": [1, 2, 2, 2]}))
        np.testing.assert_array_equal(load_raw_tensor(path).data, x.data)

    def test_size_mismatch_detected(self, tmp_path):
        x = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32))
        path = tmp_path / "feat.bin"
        save_raw_tensor(path, x)
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ShapeError):
            load_raw_tensor(path)


def test_tensor4_validation():
    with pytest.raises(ShapeError):
        Tensor4(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        Tensor4(np.zeros((1, 0, 2, 2)))
