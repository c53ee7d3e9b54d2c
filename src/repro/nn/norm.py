"""Batch normalization layers with running statistics."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.telemetry.opprof import profiled_op
from repro.tensor import Tensor, unbroadcast

__all__ = ["BatchNorm2d", "BatchNorm1d"]


class _BatchNorm(Module):
    """Shared machinery for 1-D/2-D batch norm.

    In training mode, batch statistics normalize the activations and
    update exponential running estimates; in eval mode, the running
    estimates are used (so single-sample inference is well-defined).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1, affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        if affine:
            self.weight = Parameter(np.ones(num_features))
            self.bias = Parameter(np.zeros(num_features))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.register_buffer("num_batches_tracked", np.array(0, dtype=np.int64))

    def _stats_axes(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def _reshape_param(self, p: np.ndarray, ndim: int) -> tuple:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            return self._batch_norm(x)
        shape = self._reshape_param(None, x.ndim)
        mu = self.running_mean.reshape(shape)
        std = np.sqrt(self.running_var.reshape(shape) + self.eps)
        out = (x - Tensor(mu)) * Tensor(1.0 / std)
        if self.weight is not None:
            out = out * self.weight.reshape(shape) + self.bias.reshape(shape)
        return out

    @profiled_op("batch_norm")
    def _batch_norm(self, x: Tensor) -> Tensor:
        """Batch-statistics normalization as one tape node.

        Forward and backward evaluate, operation for operation, what the
        tape composition ``(x - mean) * (var + eps) ** -0.5 * weight + bias``
        evaluates, and the two gradients that composition sends to ``x``
        (through the centering and through the mean) reach it as two
        contributions, in its order.  Outputs and gradients are therefore
        bit-identical to the composition's.
        """
        axes = self._stats_axes(x)
        shape = self._reshape_param(None, x.ndim)
        weight, bias = self.weight, self.bias
        xd = x.data
        mu = xd.mean(axis=axes, keepdims=True)
        centered = xd - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        var_eps = var + self.eps
        inv_std = var_eps**-0.5
        normed = centered * inv_std
        if weight is None:
            out = normed
        else:
            w = weight.data.reshape(shape)
            out = normed * w + bias.data.reshape(shape)
        count = xd.size / mu.size

        # Update running stats outside the tape.
        n = xd.size / self.num_features
        unbiased = var.reshape(self.num_features) * (n / max(1.0, n - 1))
        m = self.momentum
        self._set_buffer(
            "running_mean",
            (1 - m) * self.running_mean + m * mu.reshape(self.num_features),
        )
        self._set_buffer("running_var", (1 - m) * self.running_var + m * unbiased)
        self._set_buffer("num_batches_tracked", self.num_batches_tracked + 1)

        def backward(grad):
            if weight is None:
                g_normed = grad
            else:
                g_bias = unbroadcast(grad, shape).reshape(bias.shape)
                g_weight = unbroadcast(grad * normed, shape).reshape(weight.shape)
                g_normed = grad * w
            g_centered = g_normed * inv_std
            g_inv_std = unbroadcast(g_normed * centered, inv_std.shape)
            g_var = g_inv_std * -0.5 * var_eps**-1.5
            # the square's gradient, once per operand
            g_square = (np.broadcast_to(g_var, xd.shape) / count) * centered
            g_centered += g_square
            g_centered += g_square
            g_mean = np.broadcast_to(unbroadcast(-g_centered, mu.shape), xd.shape) / count
            if weight is None:
                return g_centered, g_mean
            return g_centered, g_mean, g_weight, g_bias

        parents = (x, x) if weight is None else (x, x, weight, bias)
        return Tensor._make(out, parents, backward)


class BatchNorm2d(_BatchNorm):
    """Batch norm over NCHW activations (per-channel statistics)."""

    def _stats_axes(self, x: Tensor) -> tuple:
        return (0, 2, 3)

    def _reshape_param(self, p, ndim: int) -> tuple:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch norm over (N, C) activations (per-feature statistics)."""

    def _stats_axes(self, x: Tensor) -> tuple:
        return (0,)

    def _reshape_param(self, p, ndim: int) -> tuple:
        return (1, self.num_features)
