import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from spatialgrad.conv import (
    ConvSpec,
    conv_backward_input,
    conv_backward_weights,
    conv_forward,
    grad_im2col,
    im2col,
)
from spatialgrad.tensor import ShapeError


def loop_conv_forward(x, w, stride, padding):
    """Nested-loop oracle: the direct definition, no vectorization."""
    n, ci, h, iw = x.shape
    co, _, kx, ky = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kx) // stride + 1
    ow = (iw + 2 * padding - ky) // stride + 1
    y = np.zeros((n, co, oh, ow))
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for kh in range(kx):
                            for kw in range(ky):
                                acc += w[o, c, kh, kw] * xp[b, c, i * stride + kh, j * stride + kw]
                    y[b, o, i, j] = acc
    return y


def loop_conv_backward_weights(dy, x, stride, padding, kernel):
    """Nested-loop oracle for dW[o, c, kh, kw] = sum_{n,i,j} dY[n,o,i,j] * Xp[n,c,i*s+kh,j*s+kw]."""
    n, ci = x.shape[:2]
    co, oh, ow = dy.shape[1:]
    kx, ky = kernel
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dw = np.zeros((co, ci, kx, ky))
    for o in range(co):
        for c in range(ci):
            for kh in range(kx):
                for kw in range(ky):
                    acc = 0.0
                    for b in range(n):
                        for i in range(oh):
                            for j in range(ow):
                                acc += dy[b, o, i, j] * xp[b, c, i * stride + kh, j * stride + kw]
                    dw[o, c, kh, kw] = acc
    return dw


def loop_conv_backward_input(dy, w, stride, padding, input_hw):
    """Nested-loop oracle: each dY[n,o,i,j] * W[o,c,kh,kw] lands on Xp[n,c,i*s+kh,j*s+kw]."""
    n, co, oh, ow = dy.shape
    _, ci, kx, ky = w.shape
    h, iw = input_hw
    dxp = np.zeros((n, ci, h + 2 * padding, iw + 2 * padding))
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    for c in range(ci):
                        for kh in range(kx):
                            for kw in range(ky):
                                dxp[b, c, i * stride + kh, j * stride + kw] += \
                                    float(w[o, c, kh, kw]) * float(dy[b, o, i, j])
    return dxp[:, :, padding : padding + h, padding : padding + iw]


def findiff_weight_grad(x, w, dy, spec, h=1e-5):
    """Central finite differences of L = sum(dY * Y) w.r.t. W."""
    num = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        num[idx] = ((conv_forward(im2col(x, spec), wp, spec) * dy).sum()
                    - (conv_forward(im2col(x, spec), wm, spec) * dy).sum()) / (2 * h)
    return num


def findiff_input_grad(x, w, dy, spec, h=1e-5):
    num = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        num[idx] = ((conv_forward(im2col(xp, spec), w, spec) * dy).sum()
                    - (conv_forward(im2col(xm, spec), w, spec) * dy).sum()) / (2 * h)
    return num


class TestConvSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ConvSpec(1, 1, (0, 3))
        with pytest.raises(ValueError):
            ConvSpec(1, 1, (3, 3), stride=3)
        with pytest.raises(ValueError):
            ConvSpec(1, 1, (3, 3), padding=-1)
        with pytest.raises(ValueError):
            ConvSpec(0, 1, (3, 3))

    def test_out_size(self):
        assert ConvSpec(1, 1, (3, 3), padding=1).out_size(8, 8) == (8, 8)
        assert ConvSpec(1, 1, (3, 3), stride=2, padding=1).out_size(8, 8) == (4, 4)
        with pytest.raises(ShapeError):
            ConvSpec(1, 1, (5, 5)).out_size(3, 3)


class TestConvForward:
    def test_identity_1x1_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        spec = ConvSpec(1, 1, (1, 1))
        np.testing.assert_array_equal(conv_forward(im2col(x, spec), w, spec), x)

    def test_frozen_2x2_example_matches_loop_oracle(self):
        x = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]).reshape(1, 1, 3, 3)
        w = np.array([[1.0, 0], [0, 1]]).reshape(1, 1, 2, 2)
        spec = ConvSpec(1, 1, (2, 2))
        expected = np.array([[6.0, 8.0], [12.0, 14.0]])
        np.testing.assert_array_equal(loop_conv_forward(x, w, 1, 0)[0, 0], expected)
        np.testing.assert_array_equal(conv_forward(im2col(x, spec), w, spec)[0, 0], expected)

    def test_zero_weights(self):
        x = np.ones((1, 2, 5, 5))
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        assert not conv_forward(im2col(x, spec), np.zeros(spec.weight_shape), spec).any()

    @pytest.mark.parametrize("stride,padding,hw", [(1, 0, (5, 6)), (1, 2, (4, 4)),
                                                   (2, 1, (7, 6)), (2, 0, (9, 9))])
    def test_matches_loop_oracle(self, stride, padding, hw):
        rng = np.random.default_rng(42)
        spec = ConvSpec(3, 2, (3, 3), stride=stride, padding=padding)
        x = rng.normal(size=(2, 3, *hw))
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(conv_forward(im2col(x, spec), w, spec),
                                   loop_conv_forward(x, w, stride, padding),
                                   rtol=1e-12, atol=1e-14)

    def test_non_square_kernel(self):
        rng = np.random.default_rng(3)
        spec = ConvSpec(1, 2, (1, 3), padding=0)
        x = rng.normal(size=(1, 1, 4, 5))
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(conv_forward(im2col(x, spec), w, spec),
                                   loop_conv_forward(x, w, 1, 0), rtol=1e-12)

    def test_shape_errors(self):
        spec = ConvSpec(2, 1, (3, 3))
        # A window matrix built for 3 input channels, then one built for a
        # 2x2 kernel, which fits a 2x2 input where the 3x3 kernel does not.
        for built in (im2col(np.ones((1, 3, 5, 5)), ConvSpec(3, 1, (3, 3))),
                      im2col(np.ones((1, 2, 2, 2)), ConvSpec(2, 1, (2, 2)))):
            with pytest.raises(ShapeError, match="window matrix"):
                conv_forward(built, np.ones(spec.weight_shape), spec)
        with pytest.raises(ShapeError):
            conv_forward(im2col(np.ones((1, 2, 5, 5)), spec), np.ones((1, 2, 3, 4)), spec)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        x = rng.normal(size=(2, 2, 6, 6))
        w1 = rng.normal(size=spec.weight_shape)
        w2 = rng.normal(size=spec.weight_shape)
        a, b = 1.7, -0.6
        lhs = conv_forward(im2col(x, spec), a * w1 + b * w2, spec)
        rhs = (a * conv_forward(im2col(x, spec), w1, spec)
               + b * conv_forward(im2col(x, spec), w2, spec))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_mask_distributivity(self):
        """Forward of mask-decomposed weights equals the sum of masked forwards."""
        rng = np.random.default_rng(6)
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        x = rng.normal(size=(2, 2, 5, 5))
        masks = [np.ones((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))]
        masks[1][1, :] = 1
        masks[2][:, 1] = 1
        ws = [rng.normal(size=spec.weight_shape) for _ in masks]
        merged = sum(m * w for m, w in zip(masks, ws))
        branch_sum = sum(conv_forward(im2col(x, spec), m * w, spec) for m, w in zip(masks, ws))
        np.testing.assert_allclose(conv_forward(im2col(x, spec), merged, spec), branch_sum,
                                   rtol=1e-12, atol=1e-14)


class TestConvBackwardWeights:
    def test_zero_dy(self):
        spec = ConvSpec(1, 1, (2, 2))
        x = np.ones((1, 1, 3, 3))
        assert not conv_backward_weights(np.zeros((1, 1, 2, 2)), im2col(x, spec), spec).any()

    def test_frozen_1x1_example(self):
        x = np.array([[1.0, 2], [3, 4]]).reshape(1, 1, 2, 2)
        dy = np.ones((1, 1, 2, 2))
        spec = ConvSpec(1, 1, (1, 1))
        dw = conv_backward_weights(dy, im2col(x, spec), spec)
        # direct summation oracle: sum of X
        assert dw.shape == (1, 1, 1, 1)
        assert dw[0, 0, 0, 0] == x.sum() == 10.0

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_finite_differences(self, stride, padding):
        rng = np.random.default_rng(8)
        spec = ConvSpec(2, 3, (3, 3), stride=stride, padding=padding)
        x = rng.normal(size=(2, 2, 7, 6))
        w = rng.normal(size=spec.weight_shape)
        dy = rng.normal(size=conv_forward(im2col(x, spec), w, spec).shape)
        dw = conv_backward_weights(dy, im2col(x, spec), spec)
        num = findiff_weight_grad(x, w, dy, spec)
        np.testing.assert_allclose(dw, num, rtol=1e-5, atol=1e-8)

    def test_independent_of_weight_values(self):
        """Same X and dY but different W give the identical weight gradient."""
        rng = np.random.default_rng(9)
        spec = ConvSpec(2, 2, (3, 3), padding=1)
        x = rng.normal(size=(2, 2, 5, 5))
        dy = rng.normal(size=(2, 2, 5, 5))
        g = conv_backward_weights(dy, im2col(x, spec), spec)
        # the operation does not even accept W; confirm the chain value ignores it
        for seed in range(3):
            w = np.random.default_rng(seed).normal(size=spec.weight_shape)
            loss_grad = findiff_weight_grad(x, w, dy, spec)
            np.testing.assert_allclose(loss_grad, g, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3), (3, 1)])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_oracle(self, stride, padding, kernel, dtype, tol):
        rng = np.random.default_rng(11)
        spec = ConvSpec(2, 3, kernel, stride=stride, padding=padding)
        x = rng.normal(size=(2, 2, 5, 6)).astype(dtype)
        dy = rng.normal(size=(2, 3, *spec.out_size(5, 6))).astype(dtype)
        dw = conv_backward_weights(dy, im2col(x, spec), spec)
        assert dw.dtype == dtype
        ref = loop_conv_backward_weights(dy.astype(np.float64), x, stride, padding, kernel)
        # each entry's rounding error is bounded by its sum of |products|
        scale = loop_conv_backward_weights(np.abs(dy.astype(np.float64)), np.abs(x),
                                           stride, padding, kernel)
        assert np.all(np.abs(dw - ref) <= tol * scale)

    def test_shape_error(self):
        spec = ConvSpec(1, 1, (2, 2))
        with pytest.raises(ShapeError):
            conv_backward_weights(np.ones((1, 1, 3, 3)), im2col(np.ones((1, 1, 3, 3)), spec), spec)


class TestWindowMatrix:
    """``im2col(x, spec)`` is the forward's ``cols`` and the weight gradient's input."""

    def test_wrong_shape_raises(self):
        spec = ConvSpec(2, 3, (3, 2), stride=2, padding=1)
        x = np.ones((2, 2, 6, 5))
        w = np.ones(spec.weight_shape)
        cols = im2col(x, spec)
        dy = np.ones(conv_forward(cols, w, spec).shape)
        rank3 = cols.reshape(*cols.shape[:2], -1)
        # The forward takes its batch size and grid from the matrix.
        for bad in (cols[:, :-1], rank3, cols.reshape(-1)):
            with pytest.raises(ShapeError, match="window matrix"):
                conv_forward(bad, w, spec)
        for bad in (cols[:1], cols[:, :-1], cols[:, :, :-1], cols[:, :, :, :-1], rank3,
                    cols.reshape(-1)):
            with pytest.raises(ShapeError, match="window matrix"):
                conv_backward_weights(dy, bad, spec)
        with pytest.raises(ShapeError, match="window matrix"):
            conv_backward_weights(dy[:, :, :-1], cols, spec)
        # A 4x4 grid against a 2x8 dY: the same cell count, another grid.
        same = ConvSpec(1, 1, (3, 3), padding=1)
        with pytest.raises(ShapeError, match="window matrix"):
            conv_backward_weights(np.ones((1, 1, 2, 8)), im2col(np.ones((1, 1, 4, 4)), same), same)
        with pytest.raises(ShapeError, match="channels"):
            conv_backward_weights(dy[:, :2], cols, spec)
        with pytest.raises(ShapeError, match="channels"):
            im2col(np.ones((2, 3, 6, 5)), spec)

    def test_input_smaller_than_kernel_raises_shape_error(self):
        spec = ConvSpec(1, 1, (3, 3))
        x = np.zeros((1, 1, 2, 2))
        with pytest.raises(ShapeError, match="non-positive output size 0x0"):
            im2col(x, spec)
        # The forward sees only a matrix: the 1x1 kernel's matrix of x has 1 row, not 9.
        with pytest.raises(ShapeError, match="window matrix"):
            conv_forward(im2col(x, ConvSpec(1, 1, (1, 1))), np.ones(spec.weight_shape), spec)

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3)])
    def test_read_only_for_every_kernel(self, kernel):
        x = np.ones((1, 2, 4, 4))
        cols = im2col(x, ConvSpec(2, 1, kernel))
        assert not cols.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0, 0] = 2.0
        assert (x == 1.0).all()
        # Only an unpadded 1x1 stride-1 view is already contiguous and so not copied.
        assert np.shares_memory(cols, x) == (kernel == (1, 1))

    @given(n=st.integers(1, 9), c=st.integers(1, 9), h=st.integers(1, 9), w=st.integers(1, 9),
           kx=st.integers(1, 5), ky=st.integers(1, 5), stride=st.sampled_from([1, 2]),
           padding=st.integers(0, 3), dtype=st.sampled_from([np.float32, np.float64]),
           margins=st.tuples(*[st.integers(0, 2)] * 5), fortran=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_sliding_window_reference(self, n, c, h, w, kx, ky, stride, padding, dtype,
                                             margins, fortran, seed):
        """Every geometry, dtype and input layout gives the reference matrix, C-contiguous
        and read-only; an input smaller than the padded kernel raises ``ShapeError``."""
        top, bottom, left, right, extra_c = margins
        base = np.random.default_rng(seed).normal(
            size=(n, c + extra_c, h + top + bottom, w + left + right)).astype(dtype)
        if fortran:
            base = np.asfortranarray(base)
        # A cropped view, as the gather path crops the padded dY.
        x = base[:, extra_c:, top : top + h, left : left + w]
        spec = ConvSpec(c, 1, (kx, ky), stride=stride, padding=padding)
        if h + 2 * padding < kx or w + 2 * padding < ky:
            with pytest.raises(ShapeError, match="non-positive output size"):
                im2col(x, spec)
            return
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        view = sliding_window_view(xp, (kx, ky), axis=(2, 3))[:, :, ::stride, ::stride]
        oh, ow = view.shape[2:4]
        expected = view.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kx * ky, oh, ow)
        cols = im2col(x, spec)
        assert cols.dtype == dtype
        assert np.array_equal(cols, expected)
        assert cols.flags.c_contiguous and not cols.flags.writeable


class TestConvBackwardInput:
    def test_identity_1x1(self):
        dy = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(
            conv_backward_input(dy, w, ConvSpec(1, 1, (1, 1)), (4, 4)), dy)

    def test_zero_dy(self):
        spec = ConvSpec(2, 1, (3, 3), padding=1)
        out = conv_backward_input(np.zeros((1, 1, 4, 4)), np.ones(spec.weight_shape), spec, (4, 4))
        assert out.shape == (1, 2, 4, 4) and not out.any()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_finite_differences(self, stride, padding):
        rng = np.random.default_rng(10)
        spec = ConvSpec(2, 3, (3, 3), stride=stride, padding=padding)
        x = rng.normal(size=(2, 2, 6, 7))
        w = rng.normal(size=spec.weight_shape)
        dy = rng.normal(size=conv_forward(im2col(x, spec), w, spec).shape)
        dx = conv_backward_input(dy, w, spec, x.shape[2:])
        num = findiff_input_grad(x, w, dy, spec)
        np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3), (3, 1)])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    # (2, 3) and (2, 5) take the row path at stride 1 where co <= ci * kx: (2, 3) under
    # both 3- and 2-row kernels, (2, 5) under 3-row kernels only.
    @pytest.mark.parametrize("ci,co", [(1, 4), (3, 3), (4, 1), (4, 4), (3, 2), (2, 3), (2, 5)])
    def test_matches_loop_oracle(self, ci, co, stride, padding, kernel, dtype, tol):
        rng = np.random.default_rng(12)
        spec = ConvSpec(ci, co, kernel, stride=stride, padding=padding)
        w = rng.normal(size=spec.weight_shape).astype(dtype)
        dy = rng.normal(size=(2, co, *spec.out_size(5, 6))).astype(dtype)
        dx = conv_backward_input(dy, w, spec, (5, 6))
        assert dx.dtype == dtype and dx.shape == (2, ci, 5, 6)
        ref = loop_conv_backward_input(dy, w, stride, padding, (5, 6))
        # each entry's rounding error is bounded by its sum of |products|
        scale = loop_conv_backward_input(np.abs(dy), np.abs(w), stride, padding, (5, 6))
        assert np.all(np.abs(dx - ref) <= tol * scale)

    @given(data=st.data(), n=st.integers(1, 2), ci=st.integers(1, 3), kx=st.integers(2, 4),
           ky=st.integers(1, 4), padding=st.integers(0, 3), h=st.integers(1, 6),
           w=st.integers(1, 6), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_path_matches_loop_oracle(self, data, n, ci, kx, ky, padding, h, w, dtype,
                                          seed):
        """Every stride-1 spec with ci < co <= ci * kx takes the row path, keeps the dtype
        and matches the loop oracle within its sum of |products|."""
        assume(h + 2 * padding >= kx and w + 2 * padding >= ky)
        co = data.draw(st.integers(ci + 1, ci * kx), label="co")
        spec = ConvSpec(ci, co, (kx, ky), padding=padding)
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=spec.weight_shape).astype(dtype)
        dy = rng.normal(size=(n, co, *spec.out_size(h, w))).astype(dtype)
        assert grad_im2col(dy, spec, (h, w)).shape == (n, co * ky, h + kx - 1, w)
        dx = conv_backward_input(dy, weights, spec, (h, w))
        assert dx.dtype == dtype and dx.shape == (n, ci, h, w)
        ref = loop_conv_backward_input(dy, weights, 1, padding, (h, w))
        scale = loop_conv_backward_input(np.abs(dy), np.abs(weights), 1, padding, (h, w))
        tol = 1e-10 if dtype == np.float64 else 1e-5
        assert np.all(np.abs(dx - ref) <= tol * scale)

    def test_shape_error(self):
        spec = ConvSpec(1, 2, (3, 3))
        with pytest.raises(ShapeError):
            conv_backward_input(np.ones((1, 1, 3, 3)), np.ones(spec.weight_shape), spec, (5, 5))

    @pytest.mark.parametrize("spec", [
        ConvSpec(3, 2, (3, 3), padding=1),            # gather, Co <= Ci
        ConvSpec(2, 3, (3, 3), padding=1),            # row, Ci < Co <= Ci * kx
        ConvSpec(1, 4, (3, 3), padding=1),            # scatter, Co > Ci * kx
        ConvSpec(3, 2, (3, 3), stride=2, padding=1),  # scatter, stride 2
    ], ids=["gather", "row", "scatter", "scatter_stride2"])
    def test_an_empty_batch_passes_forward_and_both_backwards(self, spec):
        x = np.zeros((0, spec.in_channels, 5, 6), dtype=np.float32)
        w = np.ones(spec.weight_shape, dtype=np.float32)
        cols = im2col(x, spec)
        y = conv_forward(cols, w, spec)
        assert y.shape == (0, spec.out_channels, *spec.out_size(5, 6))
        dw = conv_backward_weights(y, cols, spec)
        assert dw.shape == spec.weight_shape and not dw.any()
        dx = conv_backward_input(y, w, spec, (5, 6))
        assert dx.shape == x.shape and dx.dtype == np.float32


class TestGradWindowMatrix:
    """``grad_im2col(dy, spec, input_hw)`` is the gather or row path's ``cols`` for any weights."""

    @given(data=st.data(), n=st.integers(1, 5), ci=st.integers(1, 5),
           h=st.integers(1, 9), w=st.integers(1, 9), kx=st.integers(1, 5), ky=st.integers(1, 5),
           padding=st.integers(0, 3), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_given_matrix_equals_built_one(self, data, n, ci, h, w, kx, ky, padding, dtype,
                                           seed):
        assume(h + 2 * padding >= kx and w + 2 * padding >= ky)
        # co <= ci at stride 1 gathers; ci < co <= ci * kx takes the row path.
        co = data.draw(st.integers(1, ci * kx), label="co")
        spec = ConvSpec(ci, co, (kx, ky), padding=padding)
        rng = np.random.default_rng(seed)
        dy = rng.normal(size=(n, co, *spec.out_size(h, w))).astype(dtype)
        weights = rng.normal(size=spec.weight_shape).astype(dtype)
        cols = grad_im2col(dy, spec, (h, w))
        shape = (n, co * kx * ky, h, w) if co <= ci else (n, co * ky, h + kx - 1, w)
        assert cols.shape == shape and cols.dtype == dtype
        assert cols.flags.c_contiguous and not cols.flags.writeable
        assert np.array_equal(conv_backward_input(dy, weights, spec, (h, w), cols=cols),
                              conv_backward_input(dy, weights, spec, (h, w)))
        for bad in (cols[:, :-1], cols[:, :, :-1], cols.reshape(-1)):
            with pytest.raises(ShapeError, match="window matrix"):
                conv_backward_input(dy, weights, spec, (h, w), cols=bad)
        for scatter in (ConvSpec(ci, ci * kx + 1, (kx, ky), padding=padding),
                        ConvSpec(ci, co, (kx, ky), stride=2, padding=padding)):
            dy_s = np.ones((n, scatter.out_channels, *scatter.out_size(h, w)), dtype=dtype)
            assert grad_im2col(dy_s, scatter, (h, w)) is None
            with pytest.raises(ValueError, match="scatter"):
                conv_backward_input(dy_s, np.ones(scatter.weight_shape, dtype=dtype), scatter,
                                    (h, w), cols=cols)

    def test_shape_errors(self):
        spec = ConvSpec(2, 1, (3, 3), padding=1)
        with pytest.raises(ShapeError, match="output gradient shape"):
            grad_im2col(np.ones((1, 1, 4, 5)), spec, (4, 4))
        with pytest.raises(ShapeError, match="non-positive output size"):
            grad_im2col(np.ones((1, 1, 1, 1)), ConvSpec(2, 1, (3, 3)), (2, 2))
        # A 4x4 input's matrix against a 2x8 input: the same cell count, another grid.
        cols = grad_im2col(np.ones((1, 1, 4, 4)), spec, (4, 4))
        with pytest.raises(ShapeError, match="window matrix"):
            conv_backward_input(np.ones((1, 1, 2, 8)), np.ones(spec.weight_shape), spec, (2, 8),
                                cols=cols)
        row = ConvSpec(1, 2, (3, 3), padding=1)
        cols = grad_im2col(np.ones((1, 2, 4, 4)), row, (4, 4))
        with pytest.raises(ShapeError, match="window matrix"):
            conv_backward_input(np.ones((1, 2, 2, 8)), np.ones(row.weight_shape), row, (2, 8),
                                cols=cols)


def _dot64(a, b):
    """Inner product accumulated in float64, whatever the operands' dtype."""
    return float(a.astype(np.float64).ravel() @ b.astype(np.float64).ravel())


def _adjoint_case(draw_seed, n, ci, co, kx, ky, stride, padding, extra_h, extra_w, dtype):
    """Random (x, w, dy, spec) with a valid output size for the drawn geometry."""
    rng = np.random.default_rng(draw_seed)
    spec = ConvSpec(ci, co, (kx, ky), stride=stride, padding=padding)
    h = max(1, kx - 2 * padding) + extra_h
    w_ = max(1, ky - 2 * padding) + extra_w
    x = rng.normal(size=(n, ci, h, w_)).astype(dtype)
    w = rng.normal(size=spec.weight_shape).astype(dtype)
    dy = rng.normal(size=(n, co, *spec.out_size(h, w_))).astype(dtype)
    return x, w, dy, spec


class TestAdjointness:
    """<conv(x, w), dy> = <x, dX> = <w, dW>: both backward passes are the forward's adjoints."""

    geometry = dict(
        draw_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        ci=st.integers(1, 3),
        co=st.integers(1, 3),
        kx=st.integers(1, 4),
        ky=st.integers(1, 4),
        stride=st.sampled_from([1, 2]),
        padding=st.integers(0, 3),
        extra_h=st.integers(0, 5),
        extra_w=st.integers(0, 5),
    )

    @staticmethod
    def inner_products(x, w, dy, spec):
        y = conv_forward(im2col(x, spec), w, spec)
        dx = conv_backward_input(dy, w, spec, x.shape[2:])
        dw = conv_backward_weights(dy, im2col(x, spec), spec)
        # every product in the three sums is bounded by this magnitude sum
        scale = _dot64(conv_forward(im2col(np.abs(x), spec), np.abs(w), spec), np.abs(dy))
        products = (_dot64(y, dy), _dot64(x, dx), _dot64(w, dw))
        return (y, dx, dw), products, scale

    @given(**geometry)
    @settings(max_examples=150, deadline=None)
    def test_float64(self, **case):
        x, w, dy, spec = _adjoint_case(**case, dtype=np.float64)
        _, (fwd, via_dx, via_dw), scale = self.inner_products(x, w, dy, spec)
        assert abs(fwd - via_dx) <= 1e-10 * scale
        assert abs(fwd - via_dw) <= 1e-10 * scale

    @given(**geometry)
    @settings(max_examples=60, deadline=None)
    def test_float32_keeps_dtype(self, **case):
        x, w, dy, spec = _adjoint_case(**case, dtype=np.float32)
        outputs, (fwd, via_dx, via_dw), scale = self.inner_products(x, w, dy, spec)
        assert all(out.dtype == np.float32 for out in outputs)
        assert abs(fwd - via_dx) <= 1e-5 * scale
        assert abs(fwd - via_dw) <= 1e-5 * scale
