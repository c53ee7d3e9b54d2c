"""Convolution and pooling kernels (im2col-based, fully vectorized).

The convolution lowers each input window into a column matrix once
(``im2col``) and expresses both the forward pass and all three backward
passes (input, weight, bias) as dense matrix products — the standard HPC
formulation that keeps all FLOPs inside BLAS instead of Python loops.

``im2col``, its adjoint ``col2im`` and ``max_pool2d`` work tap by tap:
one strided slice of the image per kernel offset (a, b), so every copy
and add is a whole-array NumPy operation.  The matrix products are the
``matmul`` calls ``np.einsum(..., optimize=True)`` makes for the same
contractions, on the same operand layouts, without its per-call path
search; results are bit-identical to the einsum formulation.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.opprof import profiled_op
from repro.tensor.shape_ops import pad2d
from repro.tensor.tensor import Tensor, as_tensor

__all__ = [
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "im2col",
    "col2im",
]


def _tap(a: int, b: int, stride: int, out_h: int, out_w: int) -> tuple:
    """Index of the image pixels that kernel offset (a, b) reads, one per window."""
    return (Ellipsis, slice(a, a + stride * out_h, stride), slice(b, b + stride * out_w, stride))


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Lower NCHW ``x`` into C-contiguous columns of shape ``(N, C*kh*kw, L)``."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for a in range(kh):
        for b in range(kw):
            cols[:, :, a, b] = x[_tap(a, b, stride, out_h, out_w)]
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum each tap's columns back onto the image.

    Taps are added in ascending (a, b) order, the order in which an
    ``np.add.at`` scatter over the column index accumulates, so every
    pixel sums its window contributions in the same order and rounds the
    same way.
    """
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    taps = np.ascontiguousarray(cols).reshape(n, c, kh, kw, out_h, out_w)
    out = np.zeros(x_shape, dtype=cols.dtype)
    for a in range(kh):
        for b in range(kw):
            out[_tap(a, b, stride, out_h, out_w)] += taps[:, :, a, b]
    return out


def _einsum_layout(cols: np.ndarray) -> np.ndarray:
    """``cols`` in the memory order ``(C*kh*kw, L, N)``, for the einsum fallback.

    With no length-1 axis, ``np.einsum(..., optimize=True)`` contracts
    through one ``matmul`` on C-contiguous copies, which the kernels below
    call directly.  When an axis has length 1, einsum drops it and hands
    ``matmul`` views, so the operand's memory layout reaches BLAS; those
    shapes call einsum on the layout a fancy-index gather
    (``x[:, k, i, j]``) produces, keeping them bit-identical to the
    einsum formulation over that gather.
    """
    return np.ascontiguousarray(cols.transpose(1, 2, 0)).transpose(2, 0, 1)


def _rows(a: np.ndarray, axes: tuple, shape: tuple) -> np.ndarray:
    """``a`` transposed to ``axes`` and copied C-contiguous as ``shape``."""
    return np.ascontiguousarray(a.transpose(axes)).reshape(shape)


@profiled_op("conv2d")
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``; ``bias``
    (if given) has shape ``(out_channels,)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if padding:
        x = pad2d(x, padding)

    n, c, h, w = x.data.shape
    f, c_w, kh, kw = weight.data.shape
    if c_w != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {c_w}")

    cols, out_h, out_w = im2col(x.data, kh, kw, stride)  # (N, CKK, L)
    ckk, npix = c * kh * kw, out_h * out_w
    w_mat = weight.data.reshape(f, -1)  # (F, CKK)
    blas = min(n, f, ckk, npix) > 1  # else see _einsum_layout
    if blas:
        # einsum("fk,nkl->nfl"): (N·L, CKK) @ (CKK, F), viewed back as (N, F, L)
        out = np.matmul(_rows(cols, (0, 2, 1), (n * npix, ckk)), w_mat.T)
        out = out.reshape(n, npix, f).transpose(0, 2, 1)
    else:
        cols = _einsum_layout(cols)
        out = np.einsum("fk,nkl->nfl", w_mat, cols, optimize=True)
    out = out.reshape(n, f, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)

    x_shape = x.data.shape
    w_shape = weight.data.shape
    need_gx = x.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(n, f, npix)  # (N, F, L)
        gx = None
        if blas:
            # einsum("nfl,nkl->fk") and einsum("fk,nfl->nkl") share the (N·L, F) operand
            g_rows = grad_mat.transpose(0, 2, 1).reshape(n * npix, f)
            gw = np.matmul(_rows(cols, (1, 0, 2), (ckk, n * npix)), g_rows).T.reshape(w_shape)
            if need_gx:
                gcols = np.matmul(g_rows, w_mat).reshape(n, npix, ckk).transpose(0, 2, 1)
                gx = col2im(gcols, x_shape, kh, kw, stride)
        else:
            gw = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True).reshape(w_shape)
            if need_gx:
                gcols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
                gx = col2im(gcols, x_shape, kh, kw, stride)
        if bias is None:
            return gx, gw
        gb = grad.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return Tensor._make(out, parents, backward)


@profiled_op("depthwise_conv2d")
def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution: one kernel per channel.

    ``weight`` has shape ``(channels, 1, kh, kw)``.  Lowered through the
    same im2col columns as :func:`conv2d` but contracted per channel, so
    the cost is O(C·k²·L) instead of the O(C²·k²·L) a dense conv with a
    block-diagonal kernel would pay.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if padding:
        x = pad2d(x, padding)
    n, c, h, w = x.data.shape
    cw, one, kh, kw = weight.data.shape
    if cw != c or one != 1:
        raise ValueError(f"depthwise weight shape {weight.data.shape} mismatches {c} channels")

    cols, out_h, out_w = im2col(x.data, kh, kw, stride)  # (N, C*kh*kw, L)
    kk, npix = kh * kw, out_h * out_w
    blas = min(n, c, kk, npix) > 1  # else see _einsum_layout
    if not blas:
        cols = _einsum_layout(cols)
    cols_g = cols.reshape(n, c, kk, npix)
    w_mat = weight.data.reshape(c, kk)
    if blas:
        # einsum("ck,nckl->ncl"): per channel, (N·L, kk) @ (kk, 1), viewed back as (N, C, L)
        out = np.matmul(_rows(cols_g, (1, 0, 3, 2), (c, n * npix, kk)), w_mat.reshape(c, kk, 1))
        out = out.reshape(c, n, npix).transpose(1, 0, 2)
    else:
        out = np.einsum("ck,nckl->ncl", w_mat, cols_g, optimize=True)
    out = out.reshape(n, c, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c, 1, 1)

    x_shape = x.data.shape
    w_shape = weight.data.shape
    need_gx = x.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(n, c, npix)
        if blas:
            # einsum("ncl,nckl->ck"): per channel, (kk, N·L) @ (N·L, 1)
            g_col = grad_mat.transpose(1, 0, 2).reshape(c, n * npix, 1)
            gw = np.matmul(_rows(cols_g, (1, 2, 0, 3), (c, kk, n * npix)), g_col).reshape(w_shape)
        else:
            gw = np.einsum("ncl,nckl->ck", grad_mat, cols_g, optimize=True).reshape(w_shape)
        gx = None
        if need_gx:
            # einsum("ck,ncl->nckl") has no contracted index: a broadcast product
            gcols = grad_mat.reshape(n, c, 1, npix) * w_mat.reshape(1, c, kk, 1)
            gx = col2im(gcols.reshape(n, c * kk, npix), x_shape, kh, kw, stride)
        if bias is None:
            return gx, gw
        return gx, gw, grad.sum(axis=(0, 2, 3))

    return Tensor._make(out, parents, backward)


def _first_max(taps: list, best: np.ndarray) -> np.ndarray:
    """Index of the first tap equal to ``best``, per window (NaN-free input)."""
    k2 = len(taps)
    dtype = np.min_scalar_type(k2)
    first = np.full(best.shape, k2, dtype=dtype)
    cand = np.empty(best.shape, dtype=dtype)
    for t, tap in enumerate(taps):
        # cand = t where the tap holds the maximum, k2 elsewhere
        np.multiply(np.equal(tap, best).view(np.uint8), dtype.type(k2 - t), out=cand)
        np.subtract(dtype.type(k2), cand, out=cand)
        np.minimum(first, cand, out=first)
    return first


@profiled_op("max_pool2d")
def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over NCHW; gradient routes to the argmax of each window.

    Like ``argmax``, the first maximum of a window wins a tie and the
    first NaN wins over any number.  Stride-1 windows read each tap as a
    contiguous slice of the flattened (padded) image: the frame then
    covers every start position, and only its first ``out_h × out_w``
    rows and columns are real windows (strided taps are exactly those).
    """
    x = as_tensor(x)
    if stride is None:
        stride = kernel_size
    n, c, h0, w0 = x.data.shape
    k, p = kernel_size, padding
    h, w = h0 + 2 * p, w0 + 2 * p
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    offsets = [(a, b) for a in range(k) for b in range(k)]

    # padded cells hold -inf so they never win the max; the tail lets the
    # last stride-1 frame taps run past the final image
    tail = (k - 1) * (w + 1) if stride == 1 else 0
    flat = np.full(n * c * h * w + tail, -np.inf, dtype=x.data.dtype)
    padded = flat[: n * c * h * w].reshape(n, c, h, w)
    padded[:, :, p : p + h0, p : p + w0] = x.data
    if stride == 1:
        taps = [flat[a * w + b : a * w + b + padded.size].reshape(n, c, h, w) for a, b in offsets]
    else:
        taps = [padded[_tap(a, b, stride, out_h, out_w)] for a, b in offsets]

    best = taps[0].copy()
    if np.isnan(x.data).any() or (np.signbit(x.data) & (x.data == 0)).any():
        # argmax decides which NaN or which signed zero a window returns:
        # take a tap wherever argmax would move to it
        first = np.zeros(best.shape, dtype=np.min_scalar_type(k * k))
        for t in range(1, len(taps)):
            upd = ~(taps[t] <= best) & ~np.isnan(best)
            np.copyto(best, taps[t], where=upd)
            np.copyto(first, t, where=upd)
    else:
        # every window maximum is one number whatever tap holds it, so the
        # max needs no argmax; backward finds the first tap that holds it
        first = None
        for tap in taps[1:]:
            np.maximum(best, tap, out=best)

    def backward(grad):
        win = (_first_max(taps, best) if first is None else first)[:, :, :out_h, :out_w]
        # flat padded-image position of each window's argmax, in window order
        start = (np.arange(n * c).reshape(n, c, 1, 1) * h + stride * np.arange(out_h).reshape(out_h, 1)) * w
        pos = (start + stride * np.arange(out_w) + np.array([a * w + b for a, b in offsets])[win]).ravel()
        if grad.dtype == np.float64:
            # bincount adds the weights in input order, as add.at does
            gx = np.bincount(pos, weights=grad.ravel(), minlength=padded.size)
        else:
            gx = np.zeros(padded.size, dtype=grad.dtype)
            np.add.at(gx, pos, grad.ravel())
        gx = gx.reshape(n, c, h, w)
        return (gx[:, :, p : p + h0, p : p + w0] if p else gx,)

    return Tensor._make(np.ascontiguousarray(best[:, :, :out_h, :out_w]), (x,), backward)


@profiled_op("avg_pool2d")
def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW (count includes padding cells, as PyTorch)."""
    x = as_tensor(x)
    if stride is None:
        stride = kernel_size
    if padding:
        x = pad2d(x, padding)
    n, c, h, w = x.data.shape
    kh = kw = kernel_size
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = windows.mean(axis=(-1, -2))

    hh = (np.arange(out_h) * stride)[:, None] + np.arange(kh)[None, :]  # (oh, kh)
    ww = (np.arange(out_w) * stride)[:, None] + np.arange(kw)[None, :]  # (ow, kw)
    in_shape = x.data.shape
    scale = 1.0 / (kh * kw)

    def backward(grad):
        gx = np.zeros(in_shape, dtype=grad.dtype)
        # grad: (N, C, oh, ow) -> contribution grad/khkw at each window cell
        g = grad * scale
        np.add.at(
            gx,
            (
                np.arange(n).reshape(n, 1, 1, 1, 1, 1),
                np.arange(c).reshape(1, c, 1, 1, 1, 1),
                hh.reshape(1, 1, out_h, 1, kh, 1),
                ww.reshape(1, 1, 1, out_w, 1, kw),
            ),
            g[..., None, None],
        )
        return (gx,)

    return Tensor._make(out, (x,), backward)


@profiled_op("adaptive_avg_pool2d", backward=False)
def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling to an ``output_size × output_size`` grid.

    Bins follow the PyTorch convention: bin i spans
    ``[⌊i·H/s⌋, ⌈(i+1)·H/s⌉)``; bins may overlap when H is not a multiple
    of s.  ``output_size=1`` is global average pooling.
    """
    x = as_tensor(x)
    n, c, h, w = x.data.shape
    s = output_size
    if s == 1:
        out = x.data.mean(axis=(2, 3), keepdims=True)
        scale = 1.0 / (h * w)

        def backward(grad):
            return (
                np.broadcast_to(grad, (n, c, 1, 1))
                * scale
                * np.ones((n, c, h, w), dtype=grad.dtype),
            )

        return Tensor._make(out, (x,), backward)

    # s may exceed the spatial dims — bins then overlap/repeat pixels,
    # matching PyTorch's adaptive pooling semantics.
    h_starts = (np.arange(s) * h) // s
    h_ends = -(-(np.arange(1, s + 1) * h) // s)  # ceil division
    w_starts = (np.arange(s) * w) // s
    w_ends = -(-(np.arange(1, s + 1) * w) // s)

    out = np.empty((n, c, s, s), dtype=x.data.dtype)
    for i in range(s):
        for j in range(s):
            out[:, :, i, j] = x.data[
                :, :, h_starts[i] : h_ends[i], w_starts[j] : w_ends[j]
            ].mean(axis=(2, 3))
    in_shape = x.data.shape

    def backward(grad):
        gx = np.zeros(in_shape, dtype=grad.dtype)
        for i in range(s):
            for j in range(s):
                count = (h_ends[i] - h_starts[i]) * (w_ends[j] - w_starts[j])
                gx[:, :, h_starts[i] : h_ends[i], w_starts[j] : w_ends[j]] += (
                    grad[:, :, i : i + 1, j : j + 1] / count
                )
        return (gx,)

    return Tensor._make(out, (x,), backward)
