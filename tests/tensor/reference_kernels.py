"""Previous kernel implementations, kept as bit-exact references.

``repro.tensor.conv_ops`` and ``repro.nn.norm`` were rewritten for speed
under the rule that every output and gradient stays byte-identical.
These are the implementations they replaced: the ``np.add.at`` scatter
``col2im``, the fancy-index ``im2col``, ``einsum`` contractions, the
argmax ``max_pool2d`` and the batch norm composed from tape ops.  Tests
compare ``tobytes()`` of the new kernels against them.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, as_tensor, pad2d


def _col_indices(channels, height, width, kh, kw, stride):
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kh), kw), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def im2col(x, kh, kw, stride):
    n, c, h, w = x.shape
    k, i, j, out_h, out_w = _col_indices(c, h, w, kh, kw, stride)
    return x[:, k, i, j], out_h, out_w


def col2im(cols, x_shape, kh, kw, stride):
    n, c, h, w = x_shape
    k, i, j, _, _ = _col_indices(c, h, w, kh, kw, stride)
    out = np.zeros(x_shape, dtype=cols.dtype)
    np.add.at(out, (slice(None), k, i, j), cols)
    return out


def conv2d(x, weight, bias=None, stride=1, padding=0):
    x = as_tensor(x)
    weight = as_tensor(weight)
    if padding:
        x = pad2d(x, padding)

    n, c, h, w = x.data.shape
    f, c_w, kh, kw = weight.data.shape
    cols, out_h, out_w = im2col(x.data, kh, kw, stride)
    w_mat = weight.data.reshape(f, -1)
    out = np.einsum("fk,nkl->nfl", w_mat, cols, optimize=True)
    out = out.reshape(n, f, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)

    x_shape = x.data.shape
    w_shape = weight.data.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(n, f, out_h * out_w)
        gw = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True).reshape(w_shape)
        gcols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
        gx = col2im(gcols, x_shape, kh, kw, stride)
        if bias is None:
            return gx, gw
        gb = grad.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return Tensor._make(out, parents, backward)


def depthwise_conv2d(x, weight, bias=None, stride=1, padding=0):
    x = as_tensor(x)
    weight = as_tensor(weight)
    if padding:
        x = pad2d(x, padding)
    n, c, h, w = x.data.shape
    cw, one, kh, kw = weight.data.shape

    cols, out_h, out_w = im2col(x.data, kh, kw, stride)
    cols_g = cols.reshape(n, c, kh * kw, out_h * out_w)
    w_mat = weight.data.reshape(c, kh * kw)
    out = np.einsum("ck,nckl->ncl", w_mat, cols_g, optimize=True)
    out = out.reshape(n, c, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c, 1, 1)

    x_shape = x.data.shape
    w_shape = weight.data.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(n, c, out_h * out_w)
        gw = np.einsum("ncl,nckl->ck", grad_mat, cols_g, optimize=True).reshape(w_shape)
        gcols = np.einsum("ck,ncl->nckl", w_mat, grad_mat, optimize=True)
        gx = col2im(gcols.reshape(n, c * kh * kw, out_h * out_w), x_shape, kh, kw, stride)
        if bias is None:
            return gx, gw
        return gx, gw, grad.sum(axis=(0, 2, 3))

    return Tensor._make(out, parents, backward)


def max_pool2d(x, kernel_size, stride=None, padding=0):
    x = as_tensor(x)
    if stride is None:
        stride = kernel_size
    if padding:
        pads = [(0, 0), (0, 0), (padding, padding), (padding, padding)]
        padded = np.pad(x.data, pads, constant_values=-np.inf)
        inner = Tensor._make(padded, (x,), None)
        h0, w0 = x.data.shape[2], x.data.shape[3]

        def unpad_backward(grad):
            return (grad[:, :, padding : padding + h0, padding : padding + w0],)

        inner._backward = unpad_backward if inner.requires_grad else None
        x = inner

    n, c, h, w = x.data.shape
    kh = kw = kernel_size
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    flat = windows.reshape(n, c, out_h, out_w, kh * kw)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    a, b = np.unravel_index(idx, (kh, kw))
    hh = (np.arange(out_h) * stride).reshape(1, 1, out_h, 1) + a
    ww = (np.arange(out_w) * stride).reshape(1, 1, 1, out_w) + b
    n_idx = np.arange(n).reshape(n, 1, 1, 1)
    c_idx = np.arange(c).reshape(1, c, 1, 1)
    in_shape = x.data.shape

    def backward(grad):
        gx = np.zeros(in_shape, dtype=grad.dtype)
        np.add.at(gx, (n_idx, c_idx, hh, ww), grad)
        return (gx,)

    return Tensor._make(out, (x,), backward)


def batch_norm_train(module, x):
    """``_BatchNorm.forward`` in training mode, composed from tape ops."""
    axes = module._stats_axes(x)
    shape = module._reshape_param(None, x.ndim)
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    n = x.data.size / module.num_features
    unbiased = var.data.reshape(module.num_features) * (n / max(1.0, n - 1))
    m = module.momentum
    module._set_buffer(
        "running_mean",
        (1 - m) * module.running_mean + m * mu.data.reshape(module.num_features),
    )
    module._set_buffer("running_var", (1 - m) * module.running_var + m * unbiased)
    module._set_buffer("num_batches_tracked", module.num_batches_tracked + 1)
    inv_std = (var + module.eps) ** -0.5
    out = centered * inv_std
    if module.weight is not None:
        out = out * module.weight.reshape(shape) + module.bias.reshape(shape)
    return out
