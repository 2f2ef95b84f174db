"""Dense-array primitives shared by every layer.

All values are carried as contiguous ``numpy`` arrays; float64 is the
reference precision for every correctness and gradient test.  The scalar
functions here are the numerically guarded forms (overflow-safe softplus
and softmax, saturating sigmoid) rather than the textbook identities.

Non-finite inputs are rejected rather than propagated: a NaN or Inf
entering one of these ops raises :class:`InvalidValueError`.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64

# threshold beyond which softplus(t) is numerically t and log-softplus is
# numerically t (negative side) or log(t) corrections apply (positive side)
_SOFTPLUS_EXACT = 30.0


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class InvalidValueError(ValueError):
    """A non-finite value reached an op that requires finite input."""


def as_tensor(x) -> np.ndarray:
    """Coerce ``x`` to a float64 ndarray without copying when possible."""
    return np.asarray(x, dtype=DTYPE)


def check_finite(x: np.ndarray, what: str = "input") -> np.ndarray:
    """Raise :class:`InvalidValueError` if ``x`` contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise InvalidValueError(f"non-finite value in {what}")
    return x


def softplus(t) -> np.ndarray:
    """Elementwise ln(1 + e^t), strictly positive and overflow-safe.

    For large t this evaluates as t + ln(1 + e^-t), so softplus(1000)
    returns 1000 instead of overflowing.
    """
    t = check_finite(as_tensor(t))
    # logaddexp(0, t) == ln(1 + e^t) computed as max + log1p(exp(-|t|))
    return np.logaddexp(0.0, t)


def _softplus_guarded(t):
    """``t < -30`` and softplus(t) with those entries taken at 0 instead, in
    one pass: the branch both softplus logs and ratios below pin."""
    small = t < -_SOFTPLUS_EXACT
    safe = np.where(small, 0.0, t)
    return small, safe, np.logaddexp(0.0, safe)


def log_softplus(t) -> np.ndarray:
    """Elementwise ln(softplus(t)), finite for every finite t.

    softplus underflows to 0 below t ~ -745; since softplus(t) -> e^t as
    t -> -inf, the log is taken as t itself on that branch.
    """
    t = check_finite(as_tensor(t))
    small, _, sp = _softplus_guarded(t)
    return np.where(small, t, np.log(sp))


def sigmoid(t) -> np.ndarray:
    """Elementwise 1 / (1 + e^-t), in the open interval (0, 1)."""
    t = check_finite(as_tensor(t))
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_softplus_ratio(t) -> np.ndarray:
    """Elementwise sigmoid(t) / softplus(t), bounded in (0, 1].

    Both factors underflow together as t -> -inf where the ratio tends
    to 1; that branch is pinned to avoid 0/0.
    """
    small, safe, sp = _softplus_guarded(as_tensor(t))
    return np.where(small, 1.0, sigmoid(safe) / sp)


def log_softplus_and_ratio(t):
    """``(log_softplus(t), sigmoid_softplus_ratio(t))``, bit for bit, from one
    softplus pass that both share."""
    t = check_finite(as_tensor(t))
    small, safe, sp = _softplus_guarded(t)
    return np.where(small, t, np.log(sp)), np.where(small, 1.0, sigmoid(safe) / sp)


def softmax(t, axis: int = -1) -> np.ndarray:
    """Max-subtracted exponential normalization along ``axis``.

    Entries are positive and sum to 1 along the axis; the output is
    invariant to adding a constant along the axis.
    """
    t = check_finite(as_tensor(t))
    shifted = t - np.max(t, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(t, axis: int = -1) -> np.ndarray:
    """log(softmax(t)) computed without forming the ratio."""
    t = check_finite(as_tensor(t))
    shifted = t - np.max(t, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit inner-dimension checking."""
    a = check_finite(as_tensor(a), "left operand")
    b = check_finite(as_tensor(b), "right operand")
    if a.ndim < 1 or b.ndim < 1:
        raise ShapeError("matmul requires at least 1-d operands")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else -1]:
        raise ShapeError(
            f"inner dimensions disagree: {a.shape} x {b.shape}"
        )
    return np.matmul(a, b)
