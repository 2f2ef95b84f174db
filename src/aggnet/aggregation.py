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

The pairwise-affinity pass is the only O(n^2) piece.  One chunked numpy
kernel reduces it to three row moments (sum of affinities, affinity-weighted
z and z^2), building each chunk's n x n affinity blocks in place in a reused
buffer, on the thread that calls it.  The gradients need only those moments.

:class:`HybridLayer` walks its batch in blocks of rows, about 1 MB per
(rows, units, n) array.  A train forward keeps, in whole-batch arrays the
blocks fill, what each learnable path's gradients need beyond its output:
the Gaussian path's (batch, units, n) dA/dz, whose rebuild would take a
second kernel pass, and only (batch, units) values for F-Mean, whose
(rows, units, n) factors the backward rebuilds elementwise from them.  The
backward walks blocks a quarter the forward's size, which bounds that
rebuild's temporaries, multiplies the factors by the upstream in two
reused block buffers, and adds the rows of every batch sum into running
totals in batch order.

Each forward and each backward is the package's one thread split: it
starts one thread per CPU the process may run on, no more than its rows
fill full-size blocks, and joins them before it returns.  The threads
share the block budget, each walking blocks of 1/T of it, so a pass holds
as much at once on T threads as on one.  Per-row work runs on any of them;
every batch sum adds its rows in batch order on the calling thread.  The
results are bit for bit those of one block on one thread.
"""

from __future__ import annotations

import os
from threading import Barrier, Thread

import numpy as np

from .layers import Layer, NOVEL, Parameter, _blocks, _rows, _upstream, kaiming_uniform
from .ops import as_tensor, log_softplus, log_softplus_and_ratio, sigmoid, softmax

EPS = 1e-8

# float64 elements in the pairwise buffer of one chunk of rows (512 KB,
# 4 rows at n=128): small enough to stay in a core's L2 cache, large
# enough that the small shapes of gradcheck run as one chunk
_CHUNK_ELEMS = 1 << 16

# float64 elements in each (rows, units, n) array of one block of batch rows
# (1 MB, 8 rows at 128 -> 128): the hybrid layer walks its batch in such
# blocks, so no (batch, units, n) temporary is made.  A block's temporaries
# (about 8 MB) stay small enough for glibc to reuse its heap for them; at
# 2 MB per array it trimmed the heap and faulted them in again every block
# (74k against 3.8k minor faults per clean+noisy eval of 256 images).  The
# budget is a whole pass's: its T threads each walk blocks of 1/T of it, so
# a pass holds as much at once on any number of threads (two threads each
# walking blocks of the whole budget took a train benchmark run's peak RSS
# from 87.1 to 96.0 MB)
_BLOCK_ELEMS = 1 << 17


def _affinity_moments(z: np.ndarray, sigma: np.ndarray):
    """Row moments of the Gaussian affinity matrix over the last axis.

    Returns (r, s, q) with r_i = sum_j Aff(i,j), s_i = sum_j Aff(i,j) z_j,
    q_i = sum_j Aff(i,j) z_j^2, each shaped like ``z``.

    Each chunk of rows fills one buffer with z_j - z_i, squares, scales
    and exponentiates it in place, then takes all three moments with one
    batched matmul of [1, z, z^2] against the affinity block.  The block
    is exactly symmetric, so that matmul writes the moments as rows, here
    straight into three contiguous planes: the backward pass reads them
    faster than strided views.  The subtract runs in two passes, a copy
    of z_j and an in-place subtract of z_i: the same IEEE subtraction,
    without numpy's slow loop for an operand with a stride-0 axis.  It
    runs on the calling thread with buffers of its own, so threads that
    call it at once (the hybrid layer's) do not share any.
    """
    n = z.shape[-1]
    Z = z.reshape(-1, n)
    neg_c = -np.broadcast_to(1.0 / (2.0 * sigma * sigma), z.shape[:-1]).reshape(-1)
    M = Z.shape[0]
    out = np.empty((3, M, n))
    step = max(1, min(M, _CHUNK_ELEMS // (n * n)))
    G = np.empty((step, n, n))
    P = np.empty((step, 3, n))
    P[:, 0] = 1.0
    for lo in range(0, M, step):
        hi = min(lo + step, M)
        g, p, zc = G[: hi - lo], P[: hi - lo], Z[lo:hi]
        g[...] = zc[:, None, :]
        g -= zc[:, :, None]
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


def _fmean_eval(z, p, eps: float = EPS, small=None):
    """Forward for z shaped (..., n) with per-row p; returns (A, omega).

    The weights are softplus(z_i)^p / (sum_j softplus(z_j)^p + eps), with
    powers taken as exp(p * ln softplus(z)) so any real p is valid, and the
    normalisation done in log space so they are finite for any finite
    input.  A weights the raw z_i, not their softplus.

    Given ``small`` (2, ...), it also writes there S = sum(omega ln
    softplus(z) (z - A)), so that dp_rows = dA * S, and the log denominator
    ln_denom, from which :func:`_fmean_factors` rebuilds omega.
    """
    lnzp = log_softplus(z)
    lnt = p[..., None] * lnzp
    hi = np.max(lnt, axis=-1, keepdims=True)
    lse = hi + np.log(np.sum(np.exp(lnt - hi), axis=-1, keepdims=True))
    ln_denom = np.logaddexp(lse, np.log(eps))
    omega = np.exp(lnt - ln_denom)
    A = np.sum(omega * z, axis=-1)
    if small is not None:
        small[0] = np.sum(omega * lnzp * (z - A[..., None]), axis=-1)
        small[1] = ln_denom[..., 0]
    return A, omega


def _fmean_factors(z, p, A, ln_denom, omega):
    """F-Mean's (..., n) gradient factors less the upstream dA, rebuilt from
    the forward's output ``A`` and log denominator by its own operations, so
    bit for bit its values: writes omega into ``omega`` and returns bracket =
    1 + p ratio (z - A), with ratio = sigmoid(z) / softplus(z), so that
    dz = (dA omega) * bracket.  Elementwise only: no row depends on another.
    """
    p = p[..., None]
    lnzp, ratio = log_softplus_and_ratio(z)
    np.exp(p * lnzp - ln_denom[..., None], out=omega)
    bracket = p * ratio
    bracket *= z - A[..., None]
    return np.add(1.0, bracket, out=bracket)


def fmean_weights(z, p) -> np.ndarray:
    """Power-normalised weights over the last axis of ``z``; ``p`` is a
    scalar or an array broadcastable to the leading shape."""
    return _fmean_eval(as_tensor(z), np.asarray(p, dtype=float))[1]


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


def _gaussian_eval(z, log_sigma, big=None, small=None):
    """Forward over the last axis with sigma = exp(log_sigma), using row
    moments only: A.  Given ``big`` (1, ..., n) and ``small`` (2, ...), it
    also writes J, and coef and X, there (:func:`_gaussian_factors`)."""
    sigma = np.exp(log_sigma)
    r, s, q = _affinity_moments(z, sigma)
    T = r.sum(axis=-1)
    alpha = r / T[..., None]
    A = np.sum(alpha * z, axis=-1)
    if big is not None:
        small[0], small[1] = _gaussian_factors(z, sigma, r, s, q, T, alpha, A, big[0])
    return A


def _gaussian_factors(z, sigma, r, s, q, T, alpha, A, J):
    """The support-weighted reduction's gradients, less the upstream dA.

    Differentiating alpha = r / sum(r) through the pairwise kernel
    collapses to the forward's row moments:

        dA/dz_m    = alpha_m + (q_m - z_m s_m - z_m v_m + 2 A v_m) / (T s^2)
        dA/dlogsig = (sum_i z_i c_i - A sum_i c_i) / (T s^2)

    with v = z r - s and c = z^2 r - 2 z s + q.  Writes dA/dz into ``J`` and
    returns coef = 1 / (T s^2) and X = sum(z c) - A sum(c), so that
    dz = dA * J and dlog_sigma_rows = (dA * coef) * X.
    """
    coef = 1.0 / (T * (sigma * sigma))
    v = z * r - s
    np.add(alpha, coef[..., None] * (q - z * s - z * v + 2.0 * A[..., None] * v), out=J)
    c = z * z * r - 2.0 * z * s + q
    return coef, np.sum(z * c, axis=-1) - A * np.sum(c, axis=-1)


# ---------------------------------------------------------------------------
# The aggregation layer
# ---------------------------------------------------------------------------

def _add_rows(total, part):
    """Add each row of ``part`` into ``total`` in turn, in place."""
    for row in part:
        total += row


def _split(count, width):
    """The threads of a pass over ``count`` rows of ``width`` elements: one per
    CPU the process may run on, but no more than the rows fill blocks of
    ``_BLOCK_ELEMS`` elements, so that a call of one block (every gradcheck
    call) runs on the calling thread alone."""
    full = count // max(1, _BLOCK_ELEMS // width)
    return max(1, min(len(os.sched_getaffinity(0)), full))


def _on_threads(count, work, barrier=None):
    """Run ``work(k)`` for each k in ``range(count)``: k = 0 on the calling
    thread, each other k on a thread of its own.

    The threads start and join here, so none outlives the call (nor survives
    into a forked child).  The first exception that any of them raises, or
    that starting one raises, is raised here once all have stopped; it also
    breaks ``barrier``, so that no thread waits there for one that has
    stopped.  numpy's elementwise loops, matmul and einsum release the
    interpreter lock, so the threads run at once.
    """
    if count == 1:
        return work(0)
    errors = []

    def fail(exc):
        errors.append(exc)
        if barrier is not None:
            barrier.abort()

    def run(k):
        try:
            work(k)
        except BaseException as exc:  # raised again on the calling thread
            fail(exc)

    threads = [Thread(target=run, args=(k,)) for k in range(1, count)]
    try:
        for t in threads:
            t.start()
    except BaseException as exc:
        fail(exc)
    else:
        run(0)
    for t in threads:
        if t.ident is not None:  # started
            t.join()
    if errors:
        raise errors[0]


LINEAR, FMEAN, GAUSSIAN = "linear", "fmean", "gaussian"

# kind -> the paths that reduce each unit's contributions; the linear path,
# where present, comes first, as the blend and dz's sum order expect
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
    (:func:`layers._blocks`).  A train forward keeps the Gaussian path's
    gradient factors and F-Mean's S and log denominator; the backward
    rebuilds F-Mean's factors from those and multiplies each path's by the
    upstream.

    Each pass runs on T = min(CPUs, full-size blocks) threads, the calling
    one among them (:func:`_split`, :func:`_on_threads`).  The forward gives
    each thread one contiguous run of blocks, since every row's output is its
    own.  The backward deals its blocks out in rounds of T, the k-th of each
    round to thread k, which writes its rows of dx and leaves their dW terms
    dz * x in a buffer of its own; between rounds the calling thread adds
    those terms into dW in batch order.  The (batch, units) sums of the
    other gradients it makes before the threads start, whole.
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
        W, blend = self.W.data, self.blend()
        B, (U, n) = len(x), W.shape
        out, outs = np.empty((B, U)), np.empty((len(self.paths), B, U)) if train else None
        # path -> what its gradients need beyond the outputs: F-Mean's
        # (batch, units) S and ln_denom, the Gaussian's (batch, units, n) J
        # and (batch, units) coef and X
        shapes = {FMEAN: [(2, B, U)], GAUSSIAN: [(1, B, U, n), (2, B, U)]}
        keep = {path: [np.empty(shape) for shape in shapes[path]]
                for path in self.paths if train and path in shapes}
        T = _split(B, W.size)
        blocks = _blocks(B, W.size, _BLOCK_ELEMS // T)

        def run(k):  # the k-th of T contiguous runs of blocks
            for rows in blocks[len(blocks) * k // T:len(blocks) * (k + 1) // T]:
                z = x[rows, None, :] * W[None, :, :]  # z[b, u, i] = W[u, i] * x[b, i]
                a = []  # each path's output
                for path in self.paths:
                    kept = [f[:, rows] for f in keep.get(path, ())]  # the block's rows
                    if path == LINEAR:
                        a.append(z.sum(axis=-1))
                    elif path == FMEAN:
                        a.append(_fmean_eval(z, self.p.data[None, :], self.eps, *kept)[0])
                    else:
                        a.append(_gaussian_eval(z, self.log_sigma.data[None, :], *kept))
                mixed = blend[0] * a[0]
                for w, path_out in zip(blend[1:], a[1:]):
                    mixed = mixed + w * path_out
                np.add(mixed, self.b.data, out=out[rows])
                if train:
                    outs[:, rows] = a

        _on_threads(T, run)
        if train:
            self._cache = (x, blend, outs, keep)
        return out

    def backward(self, upstream):
        x, blend, outs, keep = self._take_cache()
        W = self.W.data
        B, (U, n) = len(x), W.shape
        upstream = _upstream(upstream, (B, U))
        self.b.grad = upstream.sum(axis=0)
        # batch sums that start at +0 and add rows in batch order, as numpy's
        # sum over axis 0 does, so no bit depends on the blocks or threads;
        # sens sums the upstream times each path's output, or the second's
        # less the first's; the (batch, units) ones are made here whole
        dW, dp, dls = np.zeros((U, n)), np.zeros(U), np.zeros(U)
        sens = np.zeros(({1: 0, 2: 1, 3: 3}[len(blend)], U))
        for total, a in zip(sens, [outs[1] - outs[0]] if len(outs) == 2 else outs):
            _add_rows(total, upstream * a)
        for path, weight in zip(self.paths, blend):  # upstream * weight, each path's share
            if path == FMEAN:
                _add_rows(dp, upstream * weight * keep[FMEAN][0][0])
            elif path == GAUSSIAN:
                coef, X = keep[GAUSSIAN][1]
                _add_rows(dls, upstream * weight * coef * X)
        dx = np.empty(x.shape)

        def grads(rows, dz, tmp):
            """Write dx's ``rows``, and their (rows, units, n) dW terms into ``tmp``."""
            # dz = the last novel path's part + (... + (the first's + the
            # linear broadcast)), each part made in place; IEEE addition commutes
            parts, lin = iter((dz, tmp)), None
            for path, weight, a in zip(self.paths, blend, outs[:, rows]):
                d = upstream[rows] * weight
                if path == LINEAR:
                    lin = d[..., None]
                    continue
                kept, part = [f[:, rows] for f in keep[path]], next(parts)
                if path == FMEAN:  # part = (d omega) * bracket
                    z = x[rows, None, :] * W[None, :, :]
                    bracket = _fmean_factors(z, self.p.data[None, :], a, kept[0][1], part)
                    np.multiply(d[..., None], part, out=part)
                    np.multiply(part, bracket, out=part)
                else:  # part = d J
                    np.multiply(d[..., None], kept[0][0], out=part)
                if part is tmp:
                    np.add(tmp, dz, out=dz)
                elif lin is not None:
                    np.add(dz, lin, out=dz)
            np.multiply(dz, x[rows, None, :], out=tmp)
            dx[rows] = np.einsum("bun,un->bn", dz, W)

        # every row's work is its own, so these blocks need not be the
        # forward's; a quarter of their size bounds F-Mean's rebuild, whose
        # elementwise passes hold several block arrays at once.  Rounds of T
        # blocks, the k-th of each on thread k; between rounds the calling
        # thread adds the round's dW terms in batch order
        T = _split(B, U * n)
        blocks = _blocks(B, U * n, _BLOCK_ELEMS // (4 * T))
        bufs = np.empty((T, 2, blocks[0].stop, U, n))  # each thread's dz and dW terms
        rounds = Barrier(T) if T > 1 else None  # one thread waits for no other

        def run(k):
            for first in range(0, len(blocks), T):
                if first + k < len(blocks):
                    rows = blocks[first + k]
                    grads(rows, *bufs[k, :, :rows.stop - rows.start])
                if rounds:
                    rounds.wait()  # the round's terms are written
                if k == 0:
                    for buf, rows in zip(bufs, blocks[first:first + T]):
                        _add_rows(dW, buf[1, :rows.stop - rows.start])
                if rounds:
                    rounds.wait()  # and added, so the buffers are free

        _on_threads(T, run, rounds)
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
