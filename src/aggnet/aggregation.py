"""Learnable input-aggregation layers and their analytic gradients.

Instead of the plain weighted sum, each output unit forms the scaled
contributions z_i = w_i * x_i (a Hadamard row, one z vector per unit) and
reduces them along one or more paths:

* linear: the plain sum of z.
* F-Mean: weights proportional to softplus(z_i)^p with a per-unit
  learnable exponent p.  p = 0 gives the uniform mean, large p approaches
  the max; the weighted value is the raw z_i, not its softplus.
* Gaussian support: each z_i is weighted by its summed Gaussian affinity
  to the other contributions, normalised to sum to 1; the kernel width
  is learnable per unit, stored as log sigma.

One layer class, :class:`HybridLayer`, covers the five kinds of
``KIND_PATHS``: one learnable path alone ("fmean", "gaussian"), or the
linear path blended with one or both ("fmean-hybrid", "gaussian-hybrid",
"threeway-hybrid"), the model's aggregation-slot choices.  Its ``NOVEL``
tag marks the parameters that train at the novel learning rate.

Every forward is evaluated in log space where needed so outputs stay
finite for extreme inputs, and every backward is exact (finite-difference
checked) including the gradients of p, log sigma and the raw blend
coefficients.

The pairwise-affinity pass is the only O(n^2) piece.  It is reduced to
three row moments (sum of affinities, affinity-weighted z and z^2) by one
chunked numpy kernel: each chunk of rows builds its n x n affinity blocks
in place in a reused buffer, the differences by a copy and an in-place
subtract, and takes all three moments with one batched matmul.  The rows
are split into one contiguous slab per CPU of the process, each filled by
its own thread with its own buffers; small calls run as one slab on the
calling thread.  Every row gets the same arithmetic in any slab, so the
moments do not depend on the split.  The backward pass needs only those
moments, never the full matrix.

Every stage of the layer works per batch row, so :class:`HybridLayer`
walks its batch in contiguous blocks of rows, each holding about 1 MB per
(rows, units, n) array.  An eval forward keeps only its (batch, units)
output; a train forward keeps each block's Hadamard rows, path outputs
and caches.  The backward makes one pass over the blocks, writing each
block's rows of the input gradient and adding its rows of every batch sum
(the W, p, log sigma and blend gradients) into running totals in batch
order.  Each block's kernel call splits into its slabs; the rest runs on
the calling thread.  The results are bit for bit those of one block.
"""

from __future__ import annotations

import os
from threading import Thread

import numpy as np

from .layers import Layer, NOVEL, Parameter, _blocks, _rows, kaiming_uniform
from .ops import (
    as_tensor,
    log_softplus,
    sigmoid,
    sigmoid_softplus_ratio,
    softmax,
)

EPS = 1e-8

# float64 elements in the pairwise buffer of one chunk of rows (512 KB,
# 4 rows at n=128): small enough to stay in a core's L2 cache, large
# enough that the small shapes of gradcheck run as one chunk
_CHUNK_ELEMS = 1 << 16

# pairs (rows * n^2) each slab holds at least: about 0.4 ms of kernel
# work, where a second thread starts to pay for its start and join, so
# gradcheck's shapes (a few hundred pairs) run on the calling thread
_SLAB_MIN_PAIRS = 1 << 17

# float64 elements in each (rows, units, n) array of one block of batch rows
# (1 MB, 8 rows at 128 -> 128): the hybrid layer walks its batch in such
# blocks, so no (batch, units, n) temporary is made.  A block's temporaries
# (about 8 MB) stay small enough for glibc to reuse its heap for them; at
# 2 MB per array it trimmed the heap and faulted them in again every block
# (74k against 3.8k minor faults per clean+noisy eval of 256 images).  At
# n=128 a block's kernel call holds 2^24 pairs, a slab for each of 128 CPUs
_BLOCK_ELEMS = 1 << 17


def _affinity_rows(Z, neg_c, out, start, stop):
    """Fill rows [start, stop) of the (3, M, n) moment planes ``out`` from the
    (M, n) rows ``Z`` and their (M,) factors -1 / (2 sigma^2).

    Each chunk of rows fills one buffer with z_j - z_i, squares, scales
    and exponentiates it in place, then takes all three moments with one
    batched matmul of [1, z, z^2] against the affinity block.  The block
    is exactly symmetric, so that matmul writes the moments as rows, here
    straight into three contiguous planes: the backward pass reads them
    faster than strided views.  The subtract runs in two passes, a copy
    of z_j and an in-place subtract of z_i: the same IEEE subtraction,
    without numpy's slow loop for an operand with a stride-0 axis.
    """
    n = Z.shape[1]
    step = max(1, min(stop - start, _CHUNK_ELEMS // (n * n)))
    G = np.empty((step, n, n))
    P = np.empty((step, 3, n))
    P[:, 0] = 1.0
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        g, p, zc = G[: hi - lo], P[: hi - lo], Z[lo:hi]
        g[...] = zc[:, None, :]
        g -= zc[:, :, None]
        g *= g
        g *= neg_c[lo:hi, None, None]
        np.exp(g, out=g)
        p[:, 1] = zc
        np.multiply(zc, zc, out=p[:, 2])
        np.matmul(p, g, out=out[:, lo:hi].transpose(1, 0, 2))


def _affinity_moments(z: np.ndarray, sigma: np.ndarray):
    """Row moments of the Gaussian affinity matrix over the last axis.

    Returns (r, s, q) with r_i = sum_j Aff(i,j), s_i = sum_j Aff(i,j) z_j,
    q_i = sum_j Aff(i,j) z_j^2, each shaped like ``z``.

    The rows are split into one contiguous slab per CPU the process may
    run on, each slab holding at least ``_SLAB_MIN_PAIRS`` pairs.  The
    calling thread fills the first slab and one thread per other slab
    fills its own, each with its own chunk buffers
    (:func:`_affinity_rows`); numpy's elementwise loops and matmul release
    the interpreter lock, so the slabs run at once.  Every row sees the
    same arithmetic whichever slab holds it, so the moments are bit for
    bit those of one slab.  A small call, or a process with one CPU, runs
    one slab on the calling thread.  The threads end before the call
    returns, so none outlives it (nor survives into a forked child), and
    an exception raised in any of them is raised here.
    """
    lead = z.shape[:-1]
    n = z.shape[-1]
    Z = z.reshape(-1, n)
    neg_c = -np.broadcast_to(1.0 / (2.0 * sigma * sigma), lead).reshape(-1)
    M = Z.shape[0]
    out = np.empty((3, M, n))
    slabs = max(1, min(len(os.sched_getaffinity(0)), M, M * n * n // _SLAB_MIN_PAIRS))
    bounds = [M * k // slabs for k in range(slabs + 1)]
    errors = []

    def fill(start, stop):
        try:
            _affinity_rows(Z, neg_c, out, start, stop)
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [Thread(target=fill, args=(bounds[k], bounds[k + 1]))
               for k in range(1, slabs)]
    for t in threads:
        t.start()
    try:
        _affinity_rows(Z, neg_c, out, bounds[0], bounds[1])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return tuple(out.reshape(3, *z.shape))


# ---------------------------------------------------------------------------
# F-Mean aggregation
# ---------------------------------------------------------------------------


def _fmean_eval(z, p, eps: float = EPS):
    """Forward for z shaped (..., n) with per-row p; returns (A, cache).

    The weights are softplus(z_i)^p / (sum_j softplus(z_j)^p + eps), with
    powers taken as exp(p * ln softplus(z)) so any real p is valid, and the
    normalisation done in log space so they are finite for any finite
    input.  A weights the raw z_i, not their softplus.
    """
    lnzp = log_softplus(z)
    lnt = p[..., None] * lnzp
    hi = np.max(lnt, axis=-1, keepdims=True)
    lse = hi + np.log(np.sum(np.exp(lnt - hi), axis=-1, keepdims=True))
    ln_denom = np.logaddexp(lse, np.log(eps))
    omega = np.exp(lnt - ln_denom)
    A = np.sum(omega * z, axis=-1)
    return A, (lnzp, omega, A)


def fmean_weights(z, p) -> np.ndarray:
    """Power-normalised weights over the last axis of ``z``; ``p`` is a
    scalar or an array broadcastable to the leading shape."""
    return _fmean_eval(as_tensor(z), np.asarray(p, dtype=float))[1][1]


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


def _gaussian_eval(z, log_sigma):
    """Forward over the last axis with sigma = exp(log_sigma), using row
    moments only: (A, cache)."""
    sigma = np.exp(log_sigma)
    r, s, q = _affinity_moments(z, sigma)
    T = r.sum(axis=-1)
    alpha = r / T[..., None]
    A = np.sum(alpha * z, axis=-1)
    return A, (sigma, r, s, q, T, A)


def _gaussian_grads(z, cache, dA):
    """Exact gradients of the support-weighted reduction.

    Differentiating alpha = r / sum(r) through the pairwise kernel
    collapses to the cached row moments:

        dA/dz_m    = alpha_m + (q_m - z_m s_m - z_m v_m + 2 A v_m) / (T s^2)
        dA/dlogsig = (sum_i z_i c_i - A sum_i c_i) / (T s^2)

    with v = z r - s and c = z^2 r - 2 z s + q.
    Returns (dz, dlog_sigma_rows).
    """
    sigma, r, s, q, T, A = cache
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
# The aggregation layer
# ---------------------------------------------------------------------------

def _add_rows(total, part):
    """Add each row of ``part`` into ``total`` in turn, in place."""
    for row in part:
        total += row


LINEAR, FMEAN, GAUSSIAN = "linear", "fmean", "gaussian"

# kind -> the paths that reduce each unit's contributions; the linear path,
# where present, comes first, because the backward starts dz from it
KIND_PATHS = {
    "fmean": (FMEAN,),
    "gaussian": (GAUSSIAN,),
    "fmean-hybrid": (LINEAR, FMEAN),
    "gaussian-hybrid": (LINEAR, GAUSSIAN),
    "threeway-hybrid": (LINEAR, FMEAN, GAUSSIAN),
}


class HybridLayer(Layer):
    """One shared weight row per unit, reduced by the paths of ``kind``.

    A single-path kind ("fmean", "gaussian") has no blend parameter.  Two
    paths blend the plain sum against a learnable one through
    sigmoid(alpha_raw); three mix plain, F-Mean and Gaussian through a
    per-unit softmax over alpha_raw.  alpha_raw starts at exactly 0, giving
    each path equal weight.  The bias is added once after blending.

    Forward and backward walk the batch in blocks of rows
    (:func:`layers._blocks`), so no array of either has more than one
    block's rows of (rows, units, n).  Each block's kernel call splits into
    slabs on the CPUs; everything else runs on the calling thread.
    """

    def __init__(self, in_units, out_units, kind: str, rng=None, eps: float = EPS):
        if kind not in KIND_PATHS:
            raise ValueError(f"unknown aggregation kind {kind!r}, "
                             f"expected one of {tuple(KIND_PATHS)}")
        self.kind = kind
        self.paths = KIND_PATHS[kind]
        self.eps = eps
        self.W = Parameter("W", kaiming_uniform(rng, (out_units, in_units), in_units))
        self.b = Parameter("b", np.zeros(out_units))
        # fixes params() order W, b, p, log_sigma, alpha_raw, which Adam and checkpoints keep
        self.p = self.log_sigma = self.alpha_raw = None
        if FMEAN in self.paths:
            self.p = Parameter("p", np.ones(out_units), tag=NOVEL)
        if GAUSSIAN in self.paths:
            self.log_sigma = Parameter("log_sigma", np.zeros(out_units), tag=NOVEL)
        if len(self.paths) > 1:
            shape = (out_units, 3) if len(self.paths) == 3 else (out_units,)
            self.alpha_raw = Parameter("alpha_raw", np.zeros(shape), tag=NOVEL)

    def blend(self):
        """The weight of each path in path order, as (U,) vectors; a single
        path has the one weight 1."""
        if self.alpha_raw is None:
            return (np.ones_like(self.b.data),)
        if len(self.paths) == 2:
            s = sigmoid(self.alpha_raw.data)
            return (1.0 - s, s)
        return tuple(softmax(self.alpha_raw.data, axis=-1).T)

    def forward(self, x, train: bool = True):
        x = _rows(x, self.W.data)
        W = self.W.data
        blend = self.blend()
        out = np.empty((len(x), len(W)))
        blocks = []
        for rows in _blocks(len(x), W.size, _BLOCK_ELEMS):
            z = x[rows, None, :] * W[None, :, :]  # z[b, u, i] = W[u, i] * x[b, i]
            outs, caches = [], []
            for path in self.paths:
                if path == LINEAR:
                    a, cache = z.sum(axis=-1), None
                elif path == FMEAN:
                    a, cache = _fmean_eval(z, self.p.data[None, :], self.eps)
                else:
                    a, cache = _gaussian_eval(z, self.log_sigma.data[None, :])
                outs.append(a)
                caches.append(cache)
            mixed = blend[0] * outs[0]
            for w, a in zip(blend[1:], outs[1:]):
                mixed = mixed + w * a
            np.add(mixed, self.b.data, out=out[rows])
            if train:
                blocks.append((rows, z, outs, caches))
        if train:
            self._cache = (x, blend, blocks)
        return out

    def backward(self, upstream):
        x, blend, blocks = self._take_cache()
        upstream = as_tensor(upstream)
        self.b.grad = upstream.sum(axis=0)
        dx, U = np.empty(x.shape), len(self.b.data)
        # batch sums that start at +0 and add rows in batch order, as numpy's
        # sum over axis 0 does, so no bit depends on the blocks; sens sums the
        # upstream times each path's output, or the second's less the first's
        dW, dp, dls = np.zeros(self.W.data.shape), np.zeros(U), np.zeros(U)
        sens = np.zeros(({1: 0, 2: 1, 3: 3}[len(blend)], U))
        for rows, z, outs, caches in blocks:
            up = upstream[rows]
            for total, a in zip(sens, [outs[1] - outs[0]] if len(outs) == 2 else outs):
                _add_rows(total, up * a)
            dz = part = None  # the last block's dz goes before this one's is made
            for path, cache, weight in zip(self.paths, caches, blend):
                d = up * weight
                if path == LINEAR:
                    part = d[..., None]
                elif path == FMEAN:
                    part, dp_rows = _fmean_grads(z, self.p.data[None, :], cache, d)
                    _add_rows(dp, dp_rows)
                else:
                    part, dls_rows = _gaussian_grads(z, cache, d)
                    _add_rows(dls, dls_rows)
                # IEEE addition commutes
                dz = part if dz is None else np.add(part, dz, out=part)
            _add_rows(dW, dz * x[rows, None, :])
            dx[rows] = np.einsum("bun,un->bn", dz, self.W.data)
        for param, grad in ((self.W, dW), (self.p, dp), (self.log_sigma, dls)):
            if param is not None:
                param.grad = grad
        if len(blend) == 2:  # the sigmoid's derivative s (1 - s)
            self.alpha_raw.grad = sens[0] * (blend[1] * blend[0])
        elif len(blend) == 3:  # the softmax's Jacobian per unit
            soft = np.stack(blend, axis=-1)  # (U, 3)
            g = np.stack(sens, axis=-1)
            self.alpha_raw.grad = soft * (g - (soft * g).sum(axis=-1, keepdims=True))
        return dx


class FMeanLayer(HybridLayer):
    """Power-weighted aggregation unit with per-unit learnable exponent."""

    def __init__(self, in_units, out_units, rng=None):
        super().__init__(in_units, out_units, "fmean", rng)

    # the benchmark tracer wraps only methods in a class's own __dict__
    forward = HybridLayer.forward
    backward = HybridLayer.backward


class GaussianSupportLayer(HybridLayer):
    """Affinity-weighted aggregation unit with per-unit learnable width."""

    def __init__(self, in_units, out_units, rng=None):
        super().__init__(in_units, out_units, "gaussian", rng)

    # the benchmark tracer wraps only methods in a class's own __dict__
    forward = HybridLayer.forward
    backward = HybridLayer.backward
