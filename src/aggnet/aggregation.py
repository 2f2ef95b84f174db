"""Learnable input-aggregation layers and their analytic gradients.

Instead of the plain weighted sum, each output unit forms the scaled
contributions z_i = w_i * x_i (a Hadamard row, one z vector per unit) and
reduces them with a learnable rule:

* F-Mean: weights proportional to softplus(z_i)^p with a per-unit
  learnable exponent p.  p = 0 gives the uniform mean, large p approaches
  the max; the weighted value is the raw z_i, not its softplus.
* Gaussian support: each z_i is weighted by its summed Gaussian affinity
  to the other contributions, normalised to sum to 1; the kernel width
  is learnable per unit, stored as log sigma.
* Hybrid: a sigmoid- (two-way) or softmax- (three-way) blended mix of the
  plain sum and the learnable rules, sharing one W per unit.

Every forward is evaluated in log space where needed so outputs stay
finite for extreme inputs, and every backward is exact (finite-difference
checked) including the gradients of p, log sigma and the raw blend
coefficients.

The pairwise-affinity pass is the only O(n^2) piece.  It is reduced to
three row moments (sum of affinities, affinity-weighted z and z^2) by one
chunked numpy kernel: each chunk of rows builds its n x n affinity blocks
in place in a reused buffer and takes all three moments with one batched
matmul.  The backward pass needs only those moments, never the full
matrix.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, NOVEL, Parameter, kaiming_uniform
from .ops import (
    ShapeError,
    as_tensor,
    log_softplus,
    sigmoid,
    sigmoid_softplus_ratio,
    softmax,
)

EPS = 1e-8

HYBRID_KINDS = ("two-way-fmean", "two-way-gaussian", "three-way")

# float64 elements in the pairwise buffer of one chunk of rows (512 KB,
# 4 rows at n=128): small enough to stay in a core's L2 cache, large
# enough that the small shapes of gradcheck run as one chunk
_CHUNK_ELEMS = 1 << 16


def _affinity_moments(z: np.ndarray, sigma: np.ndarray):
    """Row moments of the Gaussian affinity matrix over the last axis.

    Returns (r, s, q) with r_i = sum_j Aff(i,j), s_i = sum_j Aff(i,j) z_j,
    q_i = sum_j Aff(i,j) z_j^2, each shaped like ``z``.

    Each chunk of rows fills one buffer with z_j - z_i, squares, scales
    and exponentiates it in place, then takes all three moments with one
    batched matmul of [1, z, z^2] against the affinity block.  The block
    is exactly symmetric, so that matmul writes the moments as rows, here
    straight into three contiguous planes: the backward pass reads them
    faster than strided views.
    """
    lead = z.shape[:-1]
    n = z.shape[-1]
    Z = z.reshape(-1, n)
    neg_c = -np.broadcast_to(1.0 / (2.0 * sigma * sigma), lead).reshape(-1)
    M = Z.shape[0]
    step = max(1, min(M, _CHUNK_ELEMS // (n * n)))
    G = np.empty((step, n, n))
    P = np.empty((step, 3, n))
    P[:, 0] = 1.0
    out = np.empty((3, M, n))
    for lo in range(0, M, step):
        hi = min(lo + step, M)
        g, p, zc = G[: hi - lo], P[: hi - lo], Z[lo:hi]
        np.subtract(zc[:, None, :], zc[:, :, None], out=g)
        g *= g
        g *= neg_c[lo:hi, None, None]
        np.exp(g, out=g)
        p[:, 1] = zc
        np.multiply(zc, zc, out=p[:, 2])
        np.matmul(p, g, out=out[:, lo:hi].transpose(1, 0, 2))
    return tuple(out.reshape(3, *z.shape))


# ---------------------------------------------------------------------------
# F-Mean aggregation
# ---------------------------------------------------------------------------


def fmean_weights(z, p, eps: float = EPS) -> np.ndarray:
    """Power-normalised weights softplus(z_i)^p / (sum_j softplus(z_j)^p + eps).

    Reduces over the last axis of ``z``; ``p`` is a scalar or an array
    broadcastable to the leading shape.  Powers are taken as
    exp(p * ln softplus(z)) so any real p is valid, and the normalisation
    happens in log space so the result is finite for any finite input.
    """
    z = as_tensor(z)
    lnzp = log_softplus(z)
    lnt = np.asarray(p, dtype=float)[..., None] * lnzp
    hi = np.max(lnt, axis=-1, keepdims=True)
    lse = hi + np.log(np.sum(np.exp(lnt - hi), axis=-1, keepdims=True))
    ln_denom = np.logaddexp(lse, np.log(eps))
    return np.exp(lnt - ln_denom)


def fmean_aggregate(z, p, eps: float = EPS) -> np.ndarray:
    """Power-weighted aggregation sum_i w_i(p) * z_i over the last axis."""
    z = as_tensor(z)
    return np.sum(fmean_weights(z, p, eps) * z, axis=-1)


def _fmean_eval(z, p, eps: float = EPS):
    """Forward for z shaped (..., n) with per-row p; returns (A, cache)."""
    lnzp = log_softplus(z)
    lnt = p[..., None] * lnzp
    hi = np.max(lnt, axis=-1, keepdims=True)
    lse = hi + np.log(np.sum(np.exp(lnt - hi), axis=-1, keepdims=True))
    ln_denom = np.logaddexp(lse, np.log(eps))
    omega = np.exp(lnt - ln_denom)
    A = np.sum(omega * z, axis=-1)
    return A, (lnzp, omega, A)


def _fmean_grads(z, p, cache, dA):
    """Exact gradients of the F-Mean reduction.

    dA is the upstream gradient of A, shaped like the leading dims of z.
    Returns (dz, dp_rows) where dp_rows has the leading shape (summed over
    the reduction axis but not over rows).
    """
    lnzp, omega, A = cache
    centered = z - A[..., None]
    ratio = sigmoid_softplus_ratio(z)
    dz = dA[..., None] * omega * (1.0 + p[..., None] * ratio * centered)
    dp_rows = dA * np.sum(omega * lnzp * centered, axis=-1)
    return dz, dp_rows


# ---------------------------------------------------------------------------
# Gaussian support aggregation
# ---------------------------------------------------------------------------


def gaussian_affinity(z, sigma) -> np.ndarray:
    """Pairwise affinity matrix exp(-(z_i - z_j)^2 / (2 sigma^2)).

    Symmetric with unit diagonal; entries lie in (0, 1].  Accepts z of
    shape (..., n) with sigma broadcastable to the leading shape.
    """
    z = as_tensor(z)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    d = z[..., :, None] - z[..., None, :]
    return np.exp(-(d * d) / (2.0 * sigma[..., None, None] ** 2))


def gaussian_support_weights(aff) -> np.ndarray:
    """Row-sum normalised support weights of an affinity matrix.

    alpha_i = sum_j aff(i,j) / sum_k sum_j aff(k,j); rows of the unit
    diagonal keep the denominator at least n, so no epsilon is needed.
    """
    aff = as_tensor(aff)
    rows = aff.sum(axis=-1)
    return rows / rows.sum(axis=-1, keepdims=True)


def _gaussian_eval(z, sigma):
    """Forward over the last axis using row moments only: (A, cache)."""
    r, s, q = _affinity_moments(z, sigma)
    T = r.sum(axis=-1)
    alpha = r / T[..., None]
    A = np.sum(alpha * z, axis=-1)
    return A, (r, s, q, T, A)


def _gaussian_grads(z, sigma, cache, dA):
    """Exact gradients of the support-weighted reduction.

    Differentiating alpha = r / sum(r) through the pairwise kernel
    collapses to the cached row moments:

        dA/dz_m    = alpha_m + (q_m - z_m s_m - z_m v_m + 2 A v_m) / (T s^2)
        dA/dlogsig = (sum_i z_i c_i - A sum_i c_i) / (T s^2)

    with v = z r - s and c = z^2 r - 2 z s + q.
    Returns (dz, dlog_sigma_rows).
    """
    r, s, q, T, A = cache
    sig2 = sigma * sigma
    coef = 1.0 / (T * sig2)
    v = z * r - s
    alpha = r / T[..., None]
    dz = dA[..., None] * (
        alpha + coef[..., None] * (q - z * s - z * v + 2.0 * A[..., None] * v)
    )
    c = z * z * r - 2.0 * z * s + q
    dlog_rows = dA * coef * (np.sum(z * c, axis=-1) - A * np.sum(c, axis=-1))
    return dz, dlog_rows


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def _hadamard_rows(x, W):
    """Per-unit scaled contributions z[b, u, i] = W[u, i] * x[b, i]."""
    if x.ndim != 2 or x.shape[1] != W.shape[1]:
        raise ShapeError(f"expected (batch, {W.shape[1]}), got {x.shape}")
    return x[:, None, :] * W[None, :, :]


class FMeanLayer(Layer):
    """Power-weighted aggregation unit with per-unit learnable exponent."""

    def __init__(self, in_units, out_units, rng=None, eps: float = EPS):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_units = in_units
        self.out_units = out_units
        self.eps = eps
        self.W = Parameter("W", kaiming_uniform(rng, (out_units, in_units), in_units))
        self.b = Parameter("b", np.zeros(out_units))
        self.p = Parameter("p", np.ones(out_units), tag=NOVEL)
        self._cache = None

    def params(self):
        return [self.W, self.b, self.p]

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        z = _hadamard_rows(x, self.W.data)
        A, fm = _fmean_eval(z, self.p.data[None, :], self.eps)
        if train:
            self._cache = (x, z, fm)
        return A + self.b.data

    def backward(self, upstream):
        x, z, fm = self._take_cache()
        upstream = as_tensor(upstream)
        dz, dp_rows = _fmean_grads(z, self.p.data[None, :], fm, upstream)
        self.W.grad = np.einsum("bun,bn->un", dz, x)
        self.b.grad = upstream.sum(axis=0)
        self.p.grad = dp_rows.sum(axis=0)
        return np.einsum("bun,un->bn", dz, self.W.data)


class GaussianSupportLayer(Layer):
    """Affinity-weighted aggregation unit with per-unit learnable width."""

    def __init__(self, in_units, out_units, rng=None, eps: float = EPS):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_units = in_units
        self.out_units = out_units
        self.eps = eps
        self.W = Parameter("W", kaiming_uniform(rng, (out_units, in_units), in_units))
        self.b = Parameter("b", np.zeros(out_units))
        self.log_sigma = Parameter("log_sigma", np.zeros(out_units), tag=NOVEL)
        self._cache = None

    def params(self):
        return [self.W, self.b, self.log_sigma]

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        z = _hadamard_rows(x, self.W.data)
        sigma = np.exp(self.log_sigma.data)[None, :]
        A, gc = _gaussian_eval(z, sigma)
        if train:
            self._cache = (x, z, sigma, gc)
        return A + self.b.data

    def backward(self, upstream):
        x, z, sigma, gc = self._take_cache()
        upstream = as_tensor(upstream)
        dz, dls_rows = _gaussian_grads(z, sigma, gc, upstream)
        self.W.grad = np.einsum("bun,bn->un", dz, x)
        self.b.grad = upstream.sum(axis=0)
        self.log_sigma.grad = dls_rows.sum(axis=0)
        return np.einsum("bun,un->bn", dz, self.W.data)


class HybridLayer(Layer):
    """Blend of the plain weighted sum with learnable aggregation paths.

    All paths of a unit share the same weight row; the bias is added once
    after blending.  Two-way kinds blend one learnable path against the
    plain sum through sigmoid(alpha_raw); the three-way kind mixes plain,
    F-Mean and Gaussian paths through a per-unit softmax over alpha_raw.
    alpha_raw starts at exactly 0, giving each pathway equal weight.
    """

    def __init__(self, in_units, out_units, kind: str, rng=None, eps: float = EPS):
        if kind not in HYBRID_KINDS:
            raise ValueError(f"unknown hybrid kind {kind!r}, expected one of {HYBRID_KINDS}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_units = in_units
        self.out_units = out_units
        self.kind = kind
        self.eps = eps
        self.W = Parameter("W", kaiming_uniform(rng, (out_units, in_units), in_units))
        self.b = Parameter("b", np.zeros(out_units))
        if kind == "three-way":
            self.alpha_raw = Parameter("alpha_raw", np.zeros((out_units, 3)), tag=NOVEL)
        else:
            self.alpha_raw = Parameter("alpha_raw", np.zeros(out_units), tag=NOVEL)
        self.p = None
        self.log_sigma = None
        if kind in ("two-way-fmean", "three-way"):
            self.p = Parameter("p", np.ones(out_units), tag=NOVEL)
        if kind in ("two-way-gaussian", "three-way"):
            self.log_sigma = Parameter("log_sigma", np.zeros(out_units), tag=NOVEL)
        self._cache = None

    def params(self):
        out = [self.W, self.b]
        for extra in (self.p, self.log_sigma, self.alpha_raw):
            if extra is not None:
                out.append(extra)
        return out

    def forward(self, x, train: bool = True):
        x = as_tensor(x)
        z = _hadamard_rows(x, self.W.data)
        a_lin = z.sum(axis=-1)
        fm = gc = sigma = None
        a_fm = a_g = None
        if self.p is not None:
            a_fm, fm = _fmean_eval(z, self.p.data[None, :], self.eps)
        if self.log_sigma is not None:
            sigma = np.exp(self.log_sigma.data)[None, :]
            a_g, gc = _gaussian_eval(z, sigma)
        if self.kind == "three-way":
            blend = softmax(self.alpha_raw.data, axis=-1)  # (U, 3)
            out = blend[:, 0] * a_lin + blend[:, 1] * a_fm + blend[:, 2] * a_g
        else:
            blend = sigmoid(self.alpha_raw.data)  # (U,)
            a_novel = a_fm if self.kind == "two-way-fmean" else a_g
            out = blend * a_novel + (1.0 - blend) * a_lin
        if train:
            self._cache = (x, z, fm, gc, sigma, a_lin, a_fm, a_g, blend)
        return out + self.b.data

    def backward(self, upstream):
        x, z, fm, gc, sigma, a_lin, a_fm, a_g, blend = self._take_cache()
        upstream = as_tensor(upstream)
        self.b.grad = upstream.sum(axis=0)

        if self.kind == "three-way":
            d_lin = upstream * blend[:, 0]
            d_fm = upstream * blend[:, 1]
            d_g = upstream * blend[:, 2]
            # softmax Jacobian per unit on path-output sensitivities
            g = np.stack(
                [
                    (upstream * a_lin).sum(axis=0),
                    (upstream * a_fm).sum(axis=0),
                    (upstream * a_g).sum(axis=0),
                ],
                axis=-1,
            )  # (U, 3)
            self.alpha_raw.grad = blend * (g - (blend * g).sum(axis=-1, keepdims=True))
        else:
            a_novel = a_fm if self.kind == "two-way-fmean" else a_g
            d_nov = upstream * blend
            d_lin = upstream * (1.0 - blend)
            d_fm = d_nov if self.kind == "two-way-fmean" else None
            d_g = d_nov if self.kind == "two-way-gaussian" else None
            dsig = blend * (1.0 - blend)
            self.alpha_raw.grad = (upstream * (a_novel - a_lin)).sum(axis=0) * dsig

        dz = np.empty_like(z)
        dz[...] = d_lin[..., None]
        if d_fm is not None:
            dz_fm, dp_rows = _fmean_grads(z, self.p.data[None, :], fm, d_fm)
            dz += dz_fm
            self.p.grad = dp_rows.sum(axis=0)
        if d_g is not None:
            dz_g, dls_rows = _gaussian_grads(z, sigma, gc, d_g)
            dz += dz_g
            self.log_sigma.grad = dls_rows.sum(axis=0)

        self.W.grad = np.einsum("bun,bn->un", dz, x)
        return np.einsum("bun,un->bn", dz, self.W.data)
