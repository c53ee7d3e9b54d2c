"""The rewritten conv, pool and batch-norm kernels are byte-identical to the
implementations they replaced (``reference_kernels``): forward output and
every gradient, at the shapes the paper's models run and at the edge cases
(length-1 axes, post-ReLU ties, signed zeros, NaN, float32 input)."""

import numpy as np
import pytest

from repro.nn import BatchNorm1d, BatchNorm2d
from repro.tensor import Tensor, col2im, conv2d, depthwise_conv2d, im2col, max_pool2d

from . import reference_kernels as ref


def _rand(shape, seed, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _nhwc(a):
    """``a`` with the same values, laid out channels-last in memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _run(fn, arrays, flags, *args, grad_layout=None, **kwargs):
    """Forward + backward of ``fn``; returns the output and every gradient."""
    tensors = [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]
    out = fn(*tensors, *args, **kwargs)
    g = _rand(out.shape, 99)
    if grad_layout is not None:
        g = grad_layout(g)
    out.backward(g)
    return [out.data] + [t.grad for t in tensors if t.requires_grad]


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.strides == b.strides
        assert a.tobytes() == b.tobytes()


def _post_relu(shape, seed):
    """Activations after a ReLU: about half the entries tie at +0."""
    return np.maximum(_rand(shape, seed), 0.0)


def _special(shape, seed):
    """Random values with exact ties, salted with -0.0, +0.0 and NaN."""
    x = np.round(_rand(shape, seed), 1)  # many exact ties
    flat = x.reshape(-1)
    rng = np.random.default_rng(seed + 1)
    pick = rng.choice(flat.size, size=max(4, flat.size // 8), replace=False)
    flat[pick[0::4]] = -0.0
    flat[pick[1::4]] = 0.0
    flat[pick[2::4]] = np.nan
    return x


CONV_CASES = [
    # (x shape, w shape, stride, padding) — paper-model shapes and length-1 axes
    ((4, 3, 14, 14), (8, 3, 3, 3), 1, 1),
    ((4, 8, 14, 14), (16, 8, 3, 3), 2, 1),
    ((4, 8, 7, 7), (16, 8, 1, 1), 1, 0),
    ((4, 8, 14, 14), (16, 8, 1, 1), 2, 0),
    ((4, 2, 7, 7), (4, 2, 5, 5), 1, 2),
    ((1, 3, 6, 6), (4, 3, 3, 3), 1, 1),  # batch of one
    ((4, 8, 6, 6), (1, 8, 1, 1), 1, 0),  # one filter
    ((4, 3, 3, 3), (5, 3, 3, 3), 1, 0),  # one output pixel
    ((4, 1, 5, 5), (3, 1, 1, 1), 1, 0),  # one-element window
]


class TestConv2d:
    @pytest.mark.parametrize("xs,ws,stride,padding", CONV_CASES)
    @pytest.mark.parametrize("bias", [False, True])
    def test_matches_reference(self, xs, ws, stride, padding, bias):
        arrays = [_rand(xs, 1), _rand(ws, 2) * 0.3] + ([_rand(ws[:1], 3)] if bias else [])
        flags = [True] * len(arrays)
        got = _run(conv2d, arrays, flags, stride=stride, padding=padding)
        want = _run(ref.conv2d, arrays, flags, stride=stride, padding=padding)
        _assert_identical(got, want)

    @pytest.mark.parametrize("make", [_post_relu, _special])
    def test_ties_signed_zeros_and_nan(self, make):
        arrays = [make((4, 8, 7, 7), 4), _rand((8, 8, 3, 3), 5) * 0.3]
        got = _run(conv2d, arrays, [True, True], stride=1, padding=1)
        want = _run(ref.conv2d, arrays, [True, True], stride=1, padding=1)
        _assert_identical(got, want)

    def test_float32_input_without_grad(self):
        # the first layer: float32 images, float64 weights, no input gradient
        arrays = [_rand((4, 1, 14, 14), 6, np.float32), _rand((8, 1, 3, 3), 7), _rand((8,), 8)]
        flags = [False, True, True]
        got = _run(conv2d, arrays, flags, stride=1, padding=1)
        want = _run(ref.conv2d, arrays, flags, stride=1, padding=1)
        _assert_identical(got, want)

    def test_channels_last_upstream_gradient(self):
        arrays = [_rand((4, 8, 7, 7), 9), _rand((16, 8, 3, 3), 10) * 0.3]
        got = _run(conv2d, arrays, [True, True], stride=1, padding=1, grad_layout=_nhwc)
        want = _run(ref.conv2d, arrays, [True, True], stride=1, padding=1, grad_layout=_nhwc)
        _assert_identical(got, want)


DEPTHWISE_CASES = [
    ((4, 8, 14, 14), (8, 1, 3, 3), 2, 1),
    ((4, 16, 7, 7), (16, 1, 3, 3), 1, 1),
    ((1, 8, 6, 6), (8, 1, 3, 3), 1, 1),  # batch of one
    ((4, 1, 6, 6), (1, 1, 3, 3), 1, 1),  # one channel
    ((4, 8, 3, 3), (8, 1, 3, 3), 1, 0),  # one output pixel
]


class TestDepthwise:
    @pytest.mark.parametrize("xs,ws,stride,padding", DEPTHWISE_CASES)
    @pytest.mark.parametrize("bias", [False, True])
    def test_matches_reference(self, xs, ws, stride, padding, bias):
        arrays = [_rand(xs, 11), _rand(ws, 12) * 0.3] + ([_rand(ws[:1], 13)] if bias else [])
        flags = [True] * len(arrays)
        got = _run(depthwise_conv2d, arrays, flags, stride=stride, padding=padding)
        want = _run(ref.depthwise_conv2d, arrays, flags, stride=stride, padding=padding)
        _assert_identical(got, want)

    def test_special_values(self):
        arrays = [_special((4, 8, 7, 7), 14), _rand((8, 1, 3, 3), 15)]
        got = _run(depthwise_conv2d, arrays, [True, True], stride=2, padding=1)
        want = _run(ref.depthwise_conv2d, arrays, [True, True], stride=2, padding=1)
        _assert_identical(got, want)


class TestIm2ColCol2Im:
    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (2, 2), (1, 1), (5, 1)])
    def test_im2col_values(self, k, stride):
        x = _special((3, 4, 9, 9), 16)
        got, oh, ow = im2col(x, k, k, stride)
        want, oh_r, ow_r = ref.im2col(x, k, k, stride)
        assert (oh, ow) == (oh_r, ow_r)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (2, 2), (1, 1), (5, 1)])
    def test_col2im_accumulation_order(self, k, stride):
        # overlapping windows add up to k² contributions per pixel: any
        # change of summation order would show in the low bits
        shape = (3, 4, 9, 9)
        oh = ow = (9 - k) // stride + 1
        cols = _rand((3, 4 * k * k, oh * ow), 17) * 10.0 ** _rand((3, 4 * k * k, oh * ow), 18)
        got = col2im(cols, shape, k, k, stride)
        want = ref.col2im(cols, shape, k, k, stride)
        _assert_identical([got], [want])


POOL_CASES = [
    ((4, 16, 14, 14), 2, 2, 0),
    ((4, 16, 7, 7), 2, 2, 0),  # odd size: the last row/column is never read
    ((4, 8, 14, 14), 3, 1, 1),
    ((4, 8, 3, 3), 3, 1, 1),
    ((4, 8, 9, 9), 3, 2, 1),
    ((2, 3, 6, 6), 3, 1, 0),
]


class TestMaxPool:
    @pytest.mark.parametrize("xs,k,stride,padding", POOL_CASES)
    @pytest.mark.parametrize("make", [_rand, _post_relu, _special])
    def test_matches_reference(self, xs, k, stride, padding, make):
        arrays = [make(xs, 19)]
        got = _run(max_pool2d, arrays, [True], k, stride, padding)
        want = _run(ref.max_pool2d, arrays, [True], k, stride, padding)
        _assert_identical(got, want)

    def test_signed_zero_tie_returns_first(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 1, 2, 2)
        got = _run(max_pool2d, [x], [True], 2, 2)
        want = _run(ref.max_pool2d, [x], [True], 2, 2)
        assert np.signbit(got[0]).all()
        _assert_identical(got, want)

    def test_first_nan_wins(self):
        x = np.array([1.0, np.nan, 5.0, -np.nan]).reshape(1, 1, 2, 2)
        got = _run(max_pool2d, [x], [True], 2, 2)
        want = _run(ref.max_pool2d, [x], [True], 2, 2)
        assert np.flatnonzero(got[1]).tolist() == [1]  # the gradient goes to the first NaN
        _assert_identical(got, want)

    def test_float32_and_channels_last(self):
        x = _nhwc(_post_relu((4, 8, 7, 7), 20).astype(np.float32))
        got = _run(max_pool2d, [x], [True], 3, 1, 1, grad_layout=_nhwc)
        want = _run(ref.max_pool2d, [x], [True], 3, 1, 1, grad_layout=_nhwc)
        _assert_identical(got, want)


def _bn_run(forward, cls, shape, affine, seed, feed):
    """Train-mode batch norm; returns output, every gradient and the running stats."""
    bn = cls(shape[1], affine=affine)
    if affine:
        bn.weight.data[...] = 1.0 + 0.1 * _rand(shape[1:2], seed + 1)
        bn.bias.data[...] = 0.1 * _rand(shape[1:2], seed + 2)
    x = Tensor(feed(shape, seed), requires_grad=True)
    out = forward(bn, x)
    out.backward(_rand(out.shape, seed + 3))
    arrays = [out.data, x.grad, bn.running_mean, bn.running_var]
    if affine:
        arrays += [bn.weight.grad, bn.bias.grad]
    return arrays


class TestBatchNorm:
    @pytest.mark.parametrize("cls,shape", [
        (BatchNorm2d, (8, 4, 7, 7)),
        (BatchNorm2d, (4, 3, 1, 1)),
        (BatchNorm2d, (1, 3, 5, 5)),
        (BatchNorm1d, (16, 6)),
    ])
    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("feed", [_rand, _post_relu])
    def test_matches_tape_composition(self, cls, shape, affine, feed):
        got = _bn_run(lambda bn, x: bn(x), cls, shape, affine, 21, feed)
        want = _bn_run(ref.batch_norm_train, cls, shape, affine, 21, feed)
        _assert_identical(got, want)

    def test_input_with_other_consumers(self):
        # x also feeds a residual branch, and the module runs twice (two
        # views): gradients must reach x and the parameters in tape order
        def forward(bn_fn):
            bn = BatchNorm2d(4)
            x = Tensor(_rand((8, 4, 5, 5), 22), requires_grad=True)
            y = Tensor(_rand((8, 4, 5, 5), 23), requires_grad=True)
            out = (x * 2.0 + bn_fn(bn, x)) * bn_fn(bn, y) + bn_fn(bn, x * y)
            out.backward(_rand(out.shape, 24))
            return [out.data, x.grad, y.grad, bn.weight.grad, bn.bias.grad, bn.running_var]

        got = forward(lambda bn, x: bn(x))
        want = forward(ref.batch_norm_train)
        _assert_identical(got, want)
