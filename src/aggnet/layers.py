"""Standard network building blocks with explicit forward/backward passes.

Every layer caches on forward exactly what its backward needs; backward
consumes the cache, so calling it a second time without a fresh forward
raises :class:`NoCachedForward`.  A layer's parameters are its
:class:`Parameter` attributes.  Backward refuses an upstream gradient not
shaped like its forward's output (:class:`ShapeError`), then assigns each
parameter's ``.grad``, never accumulating into it, and returns the input
gradient.  A model's
first layer (linear or conv) is called with ``need_dx=False``: nothing
reads its input gradient, so it computes none and returns None.

The conv layer contracts every 3x3 window of its input, a (B, C, H, W, 3,
3) view, with its kernels.  Each contraction copies the windows it reads
into a matrix, nine times the input's size, so the layer walks the forward
and the input gradient through blocks of images and the kernel gradient
through blocks of input channels (:func:`_blocks`), each block's window
matrix at most ``_BLOCK_ELEMS`` elements.  Each block's matrix product
writes its slice of one array, laid out as numpy's whole-batch contraction
lays out its result: the output and the input gradient as (O, B, H, W) and
(C, B, H, W) memory, the kernel gradient as (C, 3, 3, O).  The layout
matters beyond the values: the next layer's bias gradient and the
optimizer's gradient norm add in memory order, so a C-contiguous result
with equal values still moves their last bits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ops import DTYPE, ShapeError, as_tensor, log_softmax, softmax

STANDARD, NOVEL = "standard", "novel"

# float64 elements in the window matrix of one block of a conv layer's
# images or input channels (32 MB): 7 images or 3 channels at 64 -> 64
# channels, 32x32 and batch 128, where the whole batch's matrix is 604 MB.
# There, in one process, its backward took a median 1.04 s against 1.56 s
# at 2^21 and 1.21 s at 2^23.
_BLOCK_ELEMS = 1 << 22


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


def _blocks(count, width, elems):
    """``range(count)`` as contiguous slices of items that each hold ``width``
    elements; a slice holds at most ``elems`` of them, and at least one item."""
    step = max(1, elems // width)
    return [slice(lo, min(lo + step, count)) for lo in range(0, max(count, 1), step)]


def _rows(x, W: np.ndarray) -> np.ndarray:
    """``x`` as a (batch, in_units) tensor for a weight ``W`` of (out_units, in_units)."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != W.shape[1]:
        raise ShapeError(f"expected (batch, {W.shape[1]}), got {x.shape}")
    return x


def _upstream(upstream, shape) -> np.ndarray:
    """``upstream`` as a tensor, checked to have the forward output's ``shape``."""
    upstream = as_tensor(upstream)
    if upstream.shape != shape:
        raise ShapeError(f"upstream gradient of shape {upstream.shape} "
                         f"for an output of shape {shape}")
    return upstream


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

    def backward(self, upstream, need_dx: bool = True):
        x = self._take_cache()
        upstream = _upstream(upstream, (len(x), len(self.W.data)))
        self.W.grad = upstream.T @ x
        self.b.grad = upstream.sum(axis=0)
        return upstream @ self.W.data if need_dx else None


class ReLULayer(Layer):
    """max(0, x); the gradient is zero at exactly 0 (the cache is x > 0)."""

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, upstream):
        mask = self._take_cache()
        return np.where(mask, _upstream(upstream, mask.shape), 0.0)


class FlattenLayer(Layer):
    """(batch, ...) -> (batch, prod(...))."""

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream):
        shape = self._take_cache()
        return _upstream(upstream, (shape[0], int(np.prod(shape[1:])))).reshape(shape)


def _windows(x: np.ndarray) -> np.ndarray:
    """Every 3x3 window of x zero-padded by 1: (B, C, H, W, 3, 3), a view."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    return sliding_window_view(xp, (3, 3), axis=(2, 3))


def _window_matrix(x: np.ndarray) -> np.ndarray:
    """The windows of x copied into a (C * 9, B * H * W) matrix, rows by
    channel and tap, columns by image and position."""
    return _windows(x).transpose(1, 4, 5, 0, 2, 3).reshape(x.shape[1] * 9, -1)


def _conv(x: np.ndarray, K: np.ndarray) -> np.ndarray:
    """x (B, C, H, W) convolved with K (O, C, 3, 3), zero-padded by 1: a
    (B, O, H, W) view of an (O, B, H, W) array, made in blocks of images."""
    B, C, H, W = x.shape
    O = len(K)
    # the window matrix split into columns by image
    kmat = K.reshape(O, C * 9)
    out = np.empty((O, B * H * W))
    for rows in _blocks(B, C * 9 * H * W, _BLOCK_ELEMS):
        np.matmul(kmat, _window_matrix(x[rows]), out=out[:, rows.start * H * W:rows.stop * H * W])
    return out.reshape(O, B, H, W).transpose(1, 0, 2, 3)


def _kernel_grad(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """The (O, C, 3, 3) sum over images and positions of upstream times x's
    windows: a view of a (C, 3, 3, O) array, made in blocks of channels,
    each summing over the whole batch."""
    B, C, H, W = x.shape
    O = upstream.shape[1]
    # the window matrix split into rows by channel; the upstream is laid out
    # once for every block
    up = upstream.transpose(0, 2, 3, 1).reshape(B * H * W, O)
    grad = np.empty((C, 3, 3, O))
    for ch in _blocks(C, 9 * B * H * W, _BLOCK_ELEMS):
        np.matmul(_window_matrix(x[:, ch]), up, out=grad[ch].reshape(-1, O))
    return grad.transpose(3, 0, 1, 2)


class ConvLayer(Layer):
    """3x3 convolution, stride 1, pad 1: spatial size is preserved.

    The input gradient is the same convolution of the upstream gradient,
    with each kernel flipped in both spatial axes and its channel axes
    swapped.  Forward and input gradient walk blocks of images, the kernel
    gradient blocks of input channels, so no step copies more than
    ``_BLOCK_ELEMS`` window elements at once; each result has the values
    and the memory layout of one whole-batch contraction (module
    docstring)."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator | None = None):
        self.kernels = Parameter("kernels", kaiming_uniform(rng, (out_ch, in_ch, 3, 3), in_ch * 9))
        self.bias = Parameter("bias", np.zeros(out_ch))

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        in_ch = self.kernels.data.shape[1]
        if x.ndim != 4 or x.shape[1] != in_ch:
            raise ShapeError(f"expected (batch, {in_ch}, H, W), got {x.shape}")
        out = _conv(x, self.kernels.data)
        out += self.bias.data[None, :, None, None]
        if train:
            self._cache = x
        return out

    def backward(self, upstream, need_dx: bool = True):
        x = self._take_cache()
        upstream = _upstream(upstream, (len(x), len(self.kernels.data), *x.shape[2:]))
        self.kernels.grad = _kernel_grad(x, upstream)
        del x  # the cached input is freed before the input gradient
        self.bias.grad = upstream.sum(axis=(0, 2, 3))
        if not need_dx:
            return None
        return _conv(upstream, self.kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


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
        upstream = _upstream(upstream, masks[0].shape)
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
