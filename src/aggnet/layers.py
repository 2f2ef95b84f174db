"""Standard network building blocks with explicit forward/backward passes.

Every layer caches on forward exactly what its backward needs; backward
consumes the cache, so calling it a second time without a fresh forward
raises :class:`NoCachedForward`.  A layer's parameters are its
:class:`Parameter` attributes.  Backward assigns each one's ``.grad``,
never accumulating into it, and returns the input gradient.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ops import DTYPE, ShapeError, as_tensor, log_softmax, softmax

STANDARD, NOVEL = "standard", "novel"


class NoCachedForward(RuntimeError):
    """backward was called without a preceding (training-mode) forward."""


class Parameter:
    """A named trainable array with its gradient and learning-rate tag."""

    __slots__ = ("name", "data", "grad", "tag")

    def __init__(self, name: str, data: np.ndarray, tag: str = STANDARD):
        self.name = name
        self.data = np.ascontiguousarray(data, dtype=DTYPE)
        self.grad = None
        self.tag = tag

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape}, tag={self.tag})"


def kaiming_uniform(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    """He-uniform draw: U(-sqrt(6/fan_in), +sqrt(6/fan_in)); ``rng=None`` is seed 0."""
    rng = rng if rng is not None else np.random.default_rng(0)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: forward caches, backward consumes the cache once."""

    _cache = None

    def params(self) -> list[Parameter]:
        """The instance's Parameter attributes, in the order they were first assigned."""
        return [v for v in vars(self).values() if isinstance(v, Parameter)]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        cache = self._cache
        if cache is None:
            raise NoCachedForward(f"{type(self).__name__}.backward without forward")
        self._cache = None
        return cache


def _rows(x, W: np.ndarray) -> np.ndarray:
    """``x`` as a (batch, in_units) tensor for a weight ``W`` of (out_units, in_units)."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != W.shape[1]:
        raise ShapeError(f"expected (batch, {W.shape[1]}), got {x.shape}")
    return x


class LinearLayer(Layer):
    """y = x W^T + b with W shaped (out_units, in_units)."""

    def __init__(self, in_units: int, out_units: int, rng: np.random.Generator | None = None):
        self.W = Parameter("W", kaiming_uniform(rng, (out_units, in_units), in_units))
        self.b = Parameter("b", np.zeros(out_units))

    def forward(self, x, train: bool = True):
        x = _rows(x, self.W.data)
        if train:
            self._cache = x
        return x @ self.W.data.T + self.b.data

    def backward(self, upstream):
        x = self._take_cache()
        upstream = as_tensor(upstream)
        self.W.grad = upstream.T @ x
        self.b.grad = upstream.sum(axis=0)
        return upstream @ self.W.data


class ReLULayer(Layer):
    """max(0, x); the gradient is zero at exactly 0 (the cache is x > 0)."""

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, upstream):
        return np.where(self._take_cache(), upstream, 0.0)


class FlattenLayer(Layer):
    """(batch, ...) -> (batch, prod(...))."""

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream):
        return as_tensor(upstream).reshape(self._take_cache())


def _windows(x: np.ndarray) -> np.ndarray:
    """Every 3x3 window of x zero-padded by 1: (B, C, H, W, 3, 3), a view."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    return sliding_window_view(xp, (3, 3), axis=(2, 3))


class ConvLayer(Layer):
    """3x3 convolution, stride 1, pad 1: spatial size is preserved.

    The input gradient is the same convolution of the upstream gradient,
    with each kernel flipped in both spatial axes and its channel axes
    swapped."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator | None = None):
        self.kernels = Parameter("kernels", kaiming_uniform(rng, (out_ch, in_ch, 3, 3), in_ch * 9))
        self.bias = Parameter("bias", np.zeros(out_ch))

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        in_ch = self.kernels.data.shape[1]
        if x.ndim != 4 or x.shape[1] != in_ch:
            raise ShapeError(f"expected (batch, {in_ch}, H, W), got {x.shape}")
        win = _windows(x)
        out = np.einsum("bchwij,ocij->bohw", win, self.kernels.data, optimize=True)
        out += self.bias.data[None, :, None, None]
        if train:
            self._cache = win
        return out

    def backward(self, upstream):
        upstream = as_tensor(upstream)
        # no local holds the cached windows: the padded input is freed early
        self.kernels.grad = np.einsum("bohw,bchwij->ocij", upstream, self._take_cache(),
                                      optimize=True)
        self.bias.grad = upstream.sum(axis=(0, 2, 3))
        return np.einsum("bohwij,ocij->bchw", _windows(upstream),
                         self.kernels.data[:, :, ::-1, ::-1], optimize=True)


def pool_views(x: np.ndarray) -> list[np.ndarray]:
    """The views x[:, :, i::2, j::2], one per 2x2-window entry, in row-major order."""
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"expected (batch, C, H, W) with H and W even, got {x.shape}")
    return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]


class MaxPool2x2Layer(Layer):
    """2x2 max pooling, stride 2; gradient routes to each window's first maximum in
    row-major order.  ``np.maximum`` returns its second operand on a -0.0/+0.0 tie,
    so an output zero takes the later entry's sign; ReLU outputs are never -0.0."""

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        views = pool_views(x)
        out = np.maximum(views[0], views[1])
        for view in views[2:]:
            np.maximum(out, view, out=out)
        if train:
            free, masks = np.ones(out.shape, dtype=bool), []
            for view in views:
                masks.append(free & (view == out))
                free &= ~masks[-1]
            self._cache = x.shape, masks
        return out

    def backward(self, upstream):
        shape, masks = self._take_cache()
        dx = np.zeros(shape)
        for view, mask in zip(pool_views(dx), masks):
            np.copyto(view, upstream, where=mask)
        return dx


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch and its logit gradient.

    Returns ``(loss, dlogits)`` with dlogits = (softmax - onehot) / batch.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    B, C = logits.shape
    if labels.shape != (B,):
        raise ShapeError(f"labels must be ({B},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"label out of range [0, {C})")
    logp = log_softmax(logits, axis=1)
    loss = -logp[np.arange(B), labels].mean()
    dlogits = softmax(logits, axis=1)
    dlogits[np.arange(B), labels] -= 1.0
    return loss, dlogits / B
