"""Direct 2-D convolution: forward pass and both backward passes.

The forward map is

    Y[n, co, h, w] = sum_{ci, kh, kw} W[co, ci, kh, kw] * Xp[n, ci, h*s + kh, w*s + kw]

with Xp the zero-padded input. The weight gradient is the same contraction
with dY in place of W,

    dW[co, ci, kh, kw] = sum_{n, h, w} dY[n, co, h, w] * Xp[n, ci, h*s + kh, w*s + kw],

which is a function of the input and the output gradient only; the weight
tensor never appears, so ``conv_backward_weights`` does not take it.

All three operations are direct convolutions (no FFT). The forward pass and
the weight gradient share one window-to-matrix path, ``_im2col``: it builds
the overlapping-window view [N, Ci, kx, ky, H', W'] of the padded input
directly from the padded input's strides (sizes from ``ConvSpec.out_size``,
so an input smaller than the kernel raises ``ShapeError``) and reshapes it
into a C-contiguous matrix [N, Ci*kx*ky, H', W'], copying the view once.
The matrix keeps the output grid (H', W') as its last two axes. An
unpadded 1x1 stride-1 kernel over a C-contiguous input is the one
exception: its view is already contiguous, so the matrix is a view of the
input with no copy, and a later write to the input shows in it. The matrix
is read-only for every kernel, so no consumer of a shared matrix can write
into it. The forward pass multiplies ``W.reshape(Co, -1)`` by that matrix,
viewed as [N, Ci*kx*ky, H'*W'], in one batched GEMM; the weight gradient
multiplies ``dY.reshape(N, Co, H'*W')`` by the same view's transpose in one
batched GEMM and sums the N per-sample products. The weight gradient
therefore sums over the output cells inside BLAS first and over the batch
last, an order that differs from a contraction over all of (n, h, w) at
once (such as ``einsum`` over the window view), so the two agree to
rounding, not bitwise.

The forward and the weight gradient read only the matrix, never the input:
every caller builds it once per conv input with ``im2col(x, spec)`` and
passes it to both, as a train-mode ``ConvLayer`` and ``reparam``'s oracle
do. The forward takes its batch size and grid from the matrix; the weight
gradient and the gather and row input gradients check a matrix's whole
shape, grid included.

The input gradient is the adjoint of the forward map,

    dXp[n, ci, h*s + kh, w*s + kw] += W[co, ci, kh, kw] * dY[n, co, h, w],

cropped by the padding, and it makes one GEMM per call by one of three
duals, chosen by the stride and the channel counts (``_dual``):

- Gather (stride 1 and ``Co <= Ci``), the transposed-convolution identity
  (Dumoulin and Visin, arXiv 1603.07285). Pad dY by k - 1 on each side and
  run a stride-1 valid conv over it with the kernel rotated 180 degrees and
  its in/out channels swapped:
  ``dX = conv(pad(dY), W[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))``.
  Only the windows that land inside the unpadded input are built, so the
  ``_im2col`` matrix is [N, Co*kx*ky, H, W], and each dX entry is one
  dot product over (co, kh, kw) inside BLAS. Gather stays the dual for
  ``Co <= Ci`` because its matrix feeds GEMMs that write dX directly: when
  one matrix serves several weights (``reparam``'s branches), each weight
  costs one GEMM and no add after it, where the row path would add its kx
  row terms per weight.
- Row (stride 1 and ``Ci < Co <= Ci*kx``): gather along the kernel's width,
  scatter along its height. The same padded dY, [N, Co, H+kx-1, W+ky-1], is
  windowed by a (1, ky) kernel into a matrix [N, Co*ky, H+kx-1, W], ky times
  dY, in place of the scatter's ``Ci*kx*ky`` or the gather's ``Co*kx*ky``
  rows. One GEMM with the kw-reversed kernel [Ci*kx, Co*ky] gives each kh's
  row term for every padded-dY row, each a dot product over (co, kw) inside
  BLAS; one ``sum(axis=2)`` over a strided view, in which term kh is shifted
  up by kx - 1 - kh rows, then adds the kx terms in kh order, so the number
  of numpy calls does not grow with kx.
- Scatter (stride 2, or ``Co > Ci*kx``). One GEMM ``W.reshape(Co, -1).T @ dY``
  gives every offset's contribution, [N, Ci*kx*ky, H'*W']
  (N*Ci*kx*ky*H'*W' entries); col2im then adds each offset's slice into the
  padded grid. Each contribution is a dot over co, and the kx*ky offsets
  are added in row-major order. At stride 2 the other two duals would first
  dilate dY by the stride, and three quarters of their matrix would be
  dilation zeros, so stride 2 always scatters; above ``Co = Ci*kx`` the row
  matrix outgrows the scatter's product and the row path loses (3x at 3->32).

The gather and row matrices are functions of dY and the spec only, never of
W, so ``grad_im2col(dy, spec, input_hw)`` builds the one its spec reads, and
one matrix can serve several weights, each passed to ``conv_backward_input``
as ``cols``; a call without it builds the same matrix itself, so its result
is bitwise equal. A scatter spec has no such matrix.

The three duals sum in different orders, so for one input they agree to
rounding, not bitwise; which one runs is fixed by the spec, and every dual
has a fixed reduction order, so results are deterministic for a given
input. The gather and row paths call ``_im2col`` directly rather than
``conv_forward``, so a profiler attributes their time to the input gradient;
a matrix built by ``grad_im2col`` is attributed to that call's caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, require_rank4


@dataclass(frozen=True)
class ConvSpec:
    """Static description of one convolution: channel counts, kernel, stride, padding."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        kx, ky = self.kernel
        for name in ("in_channels", "out_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if kx < 1 or ky < 1:
            raise ValueError(f"kernel dims must be >= 1, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, *self.kernel)

    def out_size(self, height: int, width: int) -> tuple[int, int]:
        kx, ky = self.kernel
        oh = (height + 2 * self.padding - kx) // self.stride + 1
        ow = (width + 2 * self.padding - ky) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"non-positive output size {oh}x{ow} for input {height}x{width} with {self}"
            )
        return oh, ow


def _check_input(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    x = require_rank4(x, "input")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    return x


def _check_weights(w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    w = require_rank4(w, "weights")
    if w.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {w.shape} does not match spec {spec.weight_shape}")
    return w


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    # A zero fill and one slice copy: np.pad costs tens of microseconds of
    # Python per call, which dominates the oracle's small arrays.
    if padding == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _im2col(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The windows of the padded input as a read-only matrix [N, Ci*kx*ky, H', W'].

    Rows run over (ci, kh, kw) in ``W.reshape(Co, -1)`` order, the last two
    axes over the output grid. The view is copied once, unless it
    is already C-contiguous (an unpadded 1x1 stride-1 kernel over a
    C-contiguous input), in which case the matrix is a view of x.
    """
    oh, ow = spec.out_size(x.shape[2], x.shape[3])
    xp = _pad(x, spec.padding)
    n, ci = xp.shape[:2]
    kx, ky = spec.kernel
    sn, sc, sh, sw = xp.strides
    s = spec.stride
    view = as_strided(xp, shape=(n, ci, kx, ky, oh, ow),
                      strides=(sn, sc, sh, sw, s * sh, s * sw), writeable=False)
    cols = np.ascontiguousarray(view).reshape(n, ci * kx * ky, oh, ow)
    cols.flags.writeable = False
    return cols


def im2col(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The window matrix [N, Ci*kx*ky, H', W'] of x [N, Ci, H, W].

    Pass it to ``conv_forward`` and ``conv_backward_weights``, so one matrix
    serves both.
    """
    return _im2col(_check_input(x, spec), spec)


def _check_cols(cols: np.ndarray, spec: ConvSpec, n: int, grid: tuple[int, int]) -> None:
    kx, ky = spec.kernel
    expected = (n, spec.in_channels * kx * ky, *grid)
    if np.shape(cols) != expected:
        raise ShapeError(f"window matrix shape {np.shape(cols)}, expected {expected}")


def conv_forward(cols: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Convolve the window matrix ``cols = im2col(x, spec)`` [N, Ci*kx*ky, H', W']
    with w [Co, Ci, kx, ky] -> [N, Co, H', W']."""
    w = _check_weights(w, spec)
    n, rows, oh, ow = require_rank4(cols, "window matrix").shape
    _check_cols(cols, spec, n, (oh, ow))
    y = w.reshape(spec.out_channels, rows) @ cols.reshape(n, rows, oh * ow)
    return y.reshape(n, spec.out_channels, oh, ow)


def conv_backward_weights(dy: np.ndarray, cols: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Loss gradient w.r.t. the weights from dY and the forward's window matrix
    ``cols = im2col(x, spec)``; it never reads W, and ``cols`` must match dY's
    batch size and grid."""
    dy = require_rank4(dy, "output gradient")
    n, co, oh, ow = dy.shape
    if co != spec.out_channels:
        raise ShapeError(f"output gradient has {co} channels, spec expects {spec.out_channels}")
    _check_cols(cols, spec, n, (oh, ow))
    per_sample = np.matmul(dy.reshape(n, co, oh * ow),
                           cols.reshape(n, cols.shape[1], oh * ow).transpose(0, 2, 1))
    return per_sample.sum(axis=0).reshape(spec.weight_shape)


def _dual(spec: ConvSpec) -> str:
    """Which dual ``conv_backward_input`` takes for this spec: gather, row or scatter."""
    ci, co = spec.in_channels, spec.out_channels
    if spec.stride != 1 or co > ci * spec.kernel[0]:
        return "scatter"
    return "gather" if co <= ci else "row"


def _grad_spec(spec: ConvSpec) -> ConvSpec:
    """The stride-1 valid conv over the padded dY that builds a dY matrix: in/out
    channels swapped, no padding, and for the row path only the kernel's width."""
    kernel = (1, spec.kernel[1]) if _dual(spec) == "row" else spec.kernel
    return ConvSpec(spec.out_channels, spec.in_channels, kernel)


def _check_output_grad(dy: np.ndarray, spec: ConvSpec, input_hw: tuple[int, int]) -> np.ndarray:
    dy = require_rank4(dy, "output gradient")
    oh, ow = spec.out_size(*input_hw)
    if dy.shape[1:] != (spec.out_channels, oh, ow):
        raise ShapeError(
            f"output gradient shape {dy.shape}, expected (N, {spec.out_channels}, {oh}, {ow})"
        )
    return dy


def _grad_im2col(dy: np.ndarray, spec: ConvSpec, input_hw: tuple[int, int]) -> np.ndarray:
    # dY padded by k - 1 and cropped to the window rows and columns of the
    # unpadded input, so the conv reads only windows that land inside it.
    height, width = input_hw
    pad = spec.padding
    kx, ky = spec.kernel
    n, co, oh, ow = dy.shape
    dyp = np.zeros((n, co, height + 2 * pad + kx - 1, width + 2 * pad + ky - 1), dtype=dy.dtype)
    dyp[:, :, kx - 1 : kx - 1 + oh, ky - 1 : ky - 1 + ow] = dy
    dyp = dyp[:, :, pad : pad + height + kx - 1, pad : pad + width + ky - 1]
    return _im2col(dyp, _grad_spec(spec))


def grad_im2col(dy: np.ndarray, spec: ConvSpec,
                input_hw: tuple[int, int]) -> np.ndarray | None:
    """The read-only window matrix of the padded dY that the gather and row paths read:
    [N, Co*kx*ky, H, W] for gather, [N, Co*ky, H+kx-1, W] for row.

    Pass it as ``cols`` to ``conv_backward_input`` for any weights of this
    spec, so one matrix serves several weights. A scatter spec (stride 2, or
    ``Co > Ci*kx``) has no such matrix, and the result is ``None``.
    """
    dy = _check_output_grad(dy, spec, input_hw)
    if _dual(spec) == "scatter":
        return None
    return _grad_im2col(dy, spec, input_hw)


def conv_backward_input(dy: np.ndarray, w: np.ndarray, spec: ConvSpec,
                        input_hw: tuple[int, int], *,
                        cols: np.ndarray | None = None) -> np.ndarray:
    """Loss gradient w.r.t. the input, for an input of spatial size ``input_hw``.

    One GEMM per call, by the gather, row or scatter dual (module docstring).
    ``cols``, if given, is ``grad_im2col(dy, spec, input_hw)`` and is used in
    place of a new matrix of dY; it is checked by shape, and passing one with
    a scatter spec, which has none, raises ``ValueError``.
    """
    w = _check_weights(w, spec)
    dy = _check_output_grad(dy, spec, input_hw)
    dual = _dual(spec)
    if dual == "scatter":
        if cols is not None:
            raise ValueError(f"{spec} takes the scatter path, which has no dY window matrix")
        return _scatter(dy, w, spec, input_hw)
    height, width = input_hw
    kx = spec.kernel[0]
    n, ci = dy.shape[0], spec.in_channels
    grad_spec = _grad_spec(spec)
    if cols is None:
        cols = _grad_im2col(dy, spec, input_hw)
    else:  # the matrix kernel's valid grid over the padded dY's H + kx - 1 rows
        _check_cols(cols, grad_spec, n, (height + kx - grad_spec.kernel[0], width))
    rows, gh, gw = cols.shape[1:]
    if dual == "gather":
        # A stride-1 valid conv of the padded dY with the kernel rotated 180
        # degrees and in/out swapped.
        w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, rows)
        dx = w_t @ cols.reshape(n, rows, gh * gw)
        return dx.reshape(n, ci, height, width).astype(dy.dtype, copy=False)
    # Row: each kh's row term for every padded-dY row in one GEMM with the
    # kw-reversed kernel, then the kx terms, each shifted up by kx - 1 - kh
    # rows, summed in kh order over one strided view.
    w_r = w[:, :, :, ::-1].transpose(1, 2, 0, 3).reshape(ci * kx, rows)
    terms = (w_r @ cols.reshape(n, rows, gh * gw)).reshape(n, ci, kx, gh, gw)
    sn, sc, sk, sh, sw = terms.strides
    shifted = as_strided(terms[:, :, :, kx - 1 :], shape=(n, ci, kx, height, width),
                         strides=(sn, sc, sk - sh, sh, sw), writeable=False)
    return shifted.sum(axis=2).astype(dy.dtype, copy=False)


def _scatter(dy: np.ndarray, w: np.ndarray, spec: ConvSpec,
             input_hw: tuple[int, int]) -> np.ndarray:
    # Every offset's contribution in one GEMM, then col2im.
    height, width = input_hw
    kx, ky = spec.kernel
    n, co, oh, ow = dy.shape
    ci, pad, s = spec.in_channels, spec.padding, spec.stride
    contrib = (w.reshape(co, -1).T @ dy.reshape(n, co, oh * ow)).reshape(n, ci, kx, ky, oh, ow)
    dxp = np.zeros((n, ci, height + 2 * pad, width + 2 * pad), dtype=dy.dtype)
    for kh in range(kx):
        for kw in range(ky):
            dxp[:, :, kh : kh + s * (oh - 1) + 1 : s, kw : kw + s * (ow - 1) + 1 : s] += \
                contrib[:, :, kh, kw]
    if pad == 0:
        return dxp
    return dxp[:, :, pad : pad + height, pad : pad + width]
