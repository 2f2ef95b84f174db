"""Aggregation rules against literal scalar-loop oracles and FD checks.

The oracles below implement the aggregation formulas directly with
Python floats and explicit loops; they share no code with the vectorized
layers they check.
"""

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from aggnet import aggregation, gradcheck
from aggnet.aggregation import (
    EPS,
    KIND_PATHS,
    FMeanLayer,
    GaussianSupportLayer,
    HybridLayer,
    _CHUNK_ELEMS,
    _affinity_moments,
    fmean_weights,
    gaussian_affinity,
    gaussian_support_weights,
)
from aggnet.gradcheck import fd_gradient, rel_error
from aggnet.layers import LinearLayer, NoCachedForward, _blocks
from aggnet.ops import ShapeError, sigmoid, softmax


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def softplus_scalar(v: float) -> float:
    if v > 30:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


def fmean_oracle(z, p, eps=EPS):
    """Literal power-weighted mean: weights and aggregate."""
    zp = [softplus_scalar(v) for v in z]
    t = [math.exp(p * math.log(s)) for s in zp]
    denom = sum(t) + eps
    w = [ti / denom for ti in t]
    agg = sum(wi * zi for wi, zi in zip(w, z))
    return w, agg


def gaussian_oracle(z, sigma):
    """Literal affinity matrix, support weights and aggregate."""
    n = len(z)
    aff = [
        [math.exp(-((z[i] - z[j]) ** 2) / (2.0 * sigma * sigma)) for j in range(n)]
        for i in range(n)
    ]
    rows = [sum(r) for r in aff]
    total = sum(rows)
    alpha = [r / total for r in rows]
    agg = sum(a * v for a, v in zip(alpha, z))
    return aff, alpha, agg


def layer_forward_oracle(x, W, b, unit_aggregate):
    """Per-sample, per-unit Hadamard row then scalar aggregation."""
    B, n = x.shape
    U = W.shape[0]
    out = np.zeros((B, U))
    for s in range(B):
        for u in range(U):
            z = [W[u, i] * x[s, i] for i in range(n)]
            out[s, u] = unit_aggregate(z, u) + b[u]
    return out


# ---------------------------------------------------------------------------
# F-Mean
# ---------------------------------------------------------------------------

class TestFMeanWeights:
    def test_symmetry(self):
        """Equal inputs give 1/3 weights, up to the epsilon in the denominator.

        The deviation from 1/3 is eps / (3 softplus(c)^p + eps), so the 1e-7
        bound holds wherever the power sum dominates eps.
        """
        for c in (-1.0, 0.0, 0.7, 4.0):
            for p in (-2.0, 0.0, 1.0, 3.0):
                w = fmean_weights(np.full(3, c), p)
                np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-7)

    def test_p_zero_uniform(self):
        """x^0 = 1 makes the weights uniform up to the epsilon."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.uniform(-5, 5, size=rng.integers(2, 9))
            w = fmean_weights(z, 0.0)
            np.testing.assert_allclose(w, 1.0 / len(z), atol=1e-8)

    def test_known_pair(self):
        """z=[1,-1], p=1 against softplus(1)=1.313262, softplus(-1)=0.313262."""
        w = fmean_weights(np.array([1.0, -1.0]), 1.0)
        np.testing.assert_allclose(w, [0.80737, 0.19262], atol=1e-4)
        oracle, _ = fmean_oracle([1.0, -1.0], 1.0)
        np.testing.assert_allclose(w, oracle, rtol=1e-12)

    def test_nonnegative_sum_below_one(self):
        """Weights are nonnegative and sum into (1 - 1e-6, 1) for p in [-5, 5].

        The epsilon shifts the sum below 1 by eps / (power sum + eps), so
        the 1e-6 bound is meaningful where the power sum stays above
        ~1e-2; z is drawn accordingly.  When the power sum exceeds eps by
        more than 1/ulp the true gap is not representable, hence a few
        ulp of headroom on the upper side.
        """
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(-1.0, 2.5, size=rng.integers(2, 10))
            p = rng.uniform(-5, 5)
            w = fmean_weights(z, p)
            assert np.all(w >= 0)
            total = w.sum()
            assert 1.0 - 1e-6 < total < 1.0 + 1e-12

    def test_sum_never_exceeds_one_on_wide_ranges(self):
        """Unconditionally, weights stay nonnegative with sum in (0, 1]."""
        rng = np.random.default_rng(34)
        for _ in range(200):
            z = rng.uniform(-6, 6, size=rng.integers(2, 10))
            p = rng.uniform(-5, 5)
            w = fmean_weights(z, p)
            assert np.all(w >= 0)
            assert 0.0 < w.sum() < 1.0 + 1e-12

    def test_max_limit(self):
        """p=50 with a separated maximum puts >= 0.99 weight on the argmax."""
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = rng.integers(2, 9)
            z = rng.uniform(-3, 0, size=n)
            k = rng.integers(0, n)
            z[k] = rng.uniform(1.0, 3.0)  # unique max, separated by >= 1
            w = fmean_weights(z, 50.0)
            assert w[k] >= 0.99
            assert np.argmax(w) == k

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 5))
        p = rng.uniform(-2, 3, size=4)
        w = fmean_weights(z, p)
        for i in range(4):
            np.testing.assert_allclose(w[i], fmean_weights(z[i], p[i]), rtol=1e-12)


def fmean_value(z, p):
    """The F-Mean aggregate sum_i w_i(p) z_i, bit for bit as the layer forms it."""
    return np.sum(fmean_weights(z, p) * z, axis=-1)


class TestFMeanAggregate:
    def test_constant_vector(self):
        """Weighted mean of constants is the constant (up to eps)."""
        for c in (-2.0, 0.5, 3.0):
            a = fmean_value(np.full(4, c), 1.7)
            assert a == pytest.approx(c, rel=1e-6)

    def test_known_pair(self):
        a = fmean_value(np.array([1.0, -1.0]), 1.0)
        assert a == pytest.approx(0.61475, abs=1e-3)
        _, oracle = fmean_oracle([1.0, -1.0], 1.0)
        assert a == pytest.approx(oracle, rel=1e-12)

    def test_max_like_limit(self):
        """Large p drives the aggregate to the maximum entry."""
        a = fmean_value(np.array([2.0, 1.0, 0.0]), 50.0)
        assert a == pytest.approx(2.0, abs=1e-3)

    def test_mean_special_case(self):
        """p = 0 recovers the arithmetic mean within 1e-5."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.uniform(-5, 5, size=rng.integers(2, 10))
            a = fmean_value(z, 0.0)
            assert abs(a - z.mean()) <= 1e-5 * max(1.0, abs(z.mean()))


class TestFMeanLayer:
    def test_all_ones_weights_constant_input(self):
        layer = FMeanLayer(3, 2)
        layer.W.data = np.ones((2, 3))
        layer.b.data = np.zeros(2)
        out = layer.forward(np.full((1, 3), 0.8))
        np.testing.assert_allclose(out, 0.8, rtol=1e-6)

    def test_single_input_degenerates_to_passthrough(self):
        """in_units = 1: the weighted mean of one element is that element."""
        layer = FMeanLayer(1, 1)
        layer.W.data = np.array([[2.0]])
        layer.b.data = np.array([0.25])
        out = layer.forward(np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(1.0 + 0.25, rel=1e-6)

    def test_matches_scalar_oracle(self):
        """Random 2x4 batch against the literal loop oracle, < 1e-10."""
        rng = np.random.default_rng(5)
        layer = FMeanLayer(4, 3, rng)
        layer.p.data = rng.uniform(-2, 3, size=3)
        x = rng.standard_normal((2, 4))
        oracle = layer_forward_oracle(
            x, layer.W.data, layer.b.data,
            lambda z, u: fmean_oracle(z, layer.p.data[u])[1],
        )
        np.testing.assert_allclose(layer.forward(x), oracle, atol=1e-10)

    def test_initialization(self):
        """p starts at exactly 1 per unit; one path needs no blend."""
        for layer in (FMeanLayer(5, 7), HybridLayer(5, 7, "fmean")):
            np.testing.assert_array_equal(layer.p.data, np.ones(7))
            assert layer.kind == "fmean"
            assert layer.alpha_raw is None and layer.log_sigma is None

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(6)
        layer = FMeanLayer(4, 3, rng)
        layer.forward(rng.standard_normal((2, 4)))
        dx = layer.backward(np.zeros((2, 3)))
        assert not np.any(dx)
        for p in layer.params():
            assert not np.any(p.grad)

    def test_symmetric_input_has_stationary_p(self):
        """Equal contributions make the weights p-independent: dp ~ 0."""
        layer = FMeanLayer(3, 2)
        layer.W.data = np.ones((2, 3))
        layer.p.data = np.array([0.3, 2.5])
        layer.forward(np.full((1, 3), 1.0))
        layer.backward(np.ones((1, 2)))
        assert np.all(np.abs(layer.p.grad) < 1e-8)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, u, b = rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 4)
            layer = FMeanLayer(int(n), int(u), rng)
            layer.p.data = rng.uniform(-2, 4, size=u)
            x = rng.standard_normal((int(b), int(n)))
            C = rng.standard_normal((int(b), int(u)))

            def f():
                return float(np.sum(C * layer.forward(x, train=False)))

            layer.forward(x)
            dx = layer.backward(C)
            assert rel_error(dx, fd_gradient(f, x)) < 1e-5
            for p in layer.params():
                assert rel_error(p.grad, fd_gradient(f, p.data)) < 1e-5

    def test_double_backward_raises(self):
        layer = FMeanLayer(2, 2)
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        with pytest.raises(NoCachedForward):
            layer.backward(np.ones((1, 2)))


# ---------------------------------------------------------------------------
# Gaussian support
# ---------------------------------------------------------------------------

class TestGaussianAffinity:
    def test_unit_diagonal(self):
        z = np.random.default_rng(8).standard_normal(6)
        aff = gaussian_affinity(z, 1.3)
        np.testing.assert_allclose(np.diag(aff), 1.0, atol=0)

    def test_distance_sigma_sqrt2(self):
        """|z_i - z_j| = sigma * sqrt(2) forces affinity e^-1."""
        sigma = 0.7
        aff = gaussian_affinity(np.array([0.0, sigma * math.sqrt(2.0)]), sigma)
        assert aff[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_wide_kernel_limit(self):
        """sigma = 1000 * range(z) makes every entry ~ 1."""
        z = np.random.default_rng(9).uniform(-2, 2, size=8)
        sigma = 1000.0 * (z.max() - z.min())
        aff = gaussian_affinity(z, sigma)
        np.testing.assert_allclose(aff, 1.0, atol=1e-6)

    def test_symmetric_entries_in_unit_interval(self):
        z = np.random.default_rng(10).standard_normal(7)
        aff = gaussian_affinity(z, 0.8)
        np.testing.assert_allclose(aff, aff.T, atol=0)
        assert np.all(aff > 0) and np.all(aff <= 1)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_affinity(np.zeros(3), 0.0)


class TestGaussianSupportWeights:
    def test_two_points_always_half(self):
        """n=2: both row sums equal 1 + Aff(1,2), so weights are 0.5 each."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.uniform(-5, 5, size=2)
            sigma = rng.uniform(0.1, 10)
            w = gaussian_support_weights(gaussian_affinity(z, sigma))
            np.testing.assert_allclose(w, 0.5, atol=1e-12)

    def test_outlier_down_weighted(self):
        """z=[0,0,10], sigma=1: row sums [2,2,1] give [0.4, 0.4, 0.2]."""
        w = gaussian_support_weights(gaussian_affinity(np.array([0.0, 0.0, 10.0]), 1.0))
        np.testing.assert_allclose(w, [0.4, 0.4, 0.2], atol=1e-6)

    def test_equal_inputs_uniform(self):
        w = gaussian_support_weights(gaussian_affinity(np.full(5, 1.7), 2.0))
        np.testing.assert_allclose(w, 0.2, atol=1e-12)

    def test_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z = rng.uniform(-10, 10, size=rng.integers(2, 12))
            sigma = rng.uniform(0.05, 50)
            w = gaussian_support_weights(gaussian_affinity(z, sigma))
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal(7)
        perm = rng.permutation(7)
        w = gaussian_support_weights(gaussian_affinity(z, 0.9))
        wp = gaussian_support_weights(gaussian_affinity(z[perm], 0.9))
        np.testing.assert_allclose(wp, w[perm], rtol=1e-12)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)``: from now on the layer sees k CPUs, on any machine."""
    def set_cpus(k):
        monkeypatch.setattr(aggregation.os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_cpus


@pytest.fixture
def two_cpus(cpus):
    """The layer sees two CPUs, so it splits its passes on any machine."""
    cpus(2)


@pytest.fixture
def threads_started(monkeypatch):
    """The list of the threads the layer starts, as it starts them."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(aggregation, "Thread", Counted)
    return started


class TestAffinityMoments:
    def test_chunked_moments_match_affinity_matrix(self):
        """n=128 over three full chunks and a ragged last one, to 1e-13."""
        n = 128
        step = _CHUNK_ELEMS // (n * n)
        rows = 3 * step + step // 2 + 1
        assert rows // step >= 3 and rows % step
        rng = np.random.default_rng(14)
        z = rng.standard_normal((rows, n))
        sigma = rng.uniform(0.3, 3.0, size=rows)
        aff = gaussian_affinity(z, sigma)
        want = (
            aff.sum(-1),
            np.einsum("mij,mj->mi", aff, z),
            np.einsum("mij,mj->mi", aff, z * z),
        )
        for got, ref in zip(_affinity_moments(z, sigma), want):
            assert got.shape == z.shape
            scale = np.abs(ref).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_underflow_leaves_only_the_diagonal(self):
        """Gaps of 125 at sigma 1e-3: every off-diagonal affinity is 0."""
        rng = np.random.default_rng(20)
        grid = np.broadcast_to(np.linspace(-500.0, 500.0, 9), (2, 3, 9))
        z = rng.permuted(grid, axis=-1)
        r, s, q = _affinity_moments(z, np.full((2, 3), 1e-3))
        assert not np.isnan(np.stack([r, s, q])).any()
        np.testing.assert_array_equal(r, 1.0)
        np.testing.assert_array_equal(s, z)
        np.testing.assert_array_equal(q, z * z)

    def test_moments_match_affinity_matrix(self):
        """Row moments equal the sums of the explicitly built matrix."""
        rng = np.random.default_rng(15)
        z = rng.standard_normal(9)
        sigma = 1.4
        r, s, q = _affinity_moments(z, np.asarray(sigma))
        aff = gaussian_affinity(z, sigma)
        np.testing.assert_allclose(r, aff.sum(-1), rtol=1e-12)
        np.testing.assert_allclose(s, aff @ z, rtol=1e-12)
        np.testing.assert_allclose(q, aff @ (z * z), rtol=1e-12)


class TestGaussianSupportLayer:
    def test_initialization(self):
        """log sigma starts at exactly 0 per unit; one path needs no blend."""
        for layer in (GaussianSupportLayer(5, 7), HybridLayer(5, 7, "gaussian")):
            np.testing.assert_array_equal(layer.log_sigma.data, np.zeros(7))
            assert layer.kind == "gaussian"
            assert layer.alpha_raw is None and layer.p is None

    def test_outlier_case(self):
        """Contributions [0,0,10] at sigma 1 aggregate to 2.0, not 3.33."""
        layer = GaussianSupportLayer(3, 1)
        layer.W.data = np.ones((1, 3))
        layer.b.data = np.zeros(1)
        layer.log_sigma.data = np.zeros(1)
        out = layer.forward(np.array([[0.0, 0.0, 10.0]]))
        assert out[0, 0] == pytest.approx(2.0, abs=1e-5)

    def test_wide_sigma_recovers_mean(self):
        """sigma -> large turns the support weights uniform."""
        rng = np.random.default_rng(16)
        layer = GaussianSupportLayer(6, 1)
        layer.W.data = np.ones((1, 6))
        layer.b.data = np.zeros(1)
        layer.log_sigma.data = np.array([9.0])
        x = rng.uniform(-2, 2, size=(1, 6))
        out = layer.forward(x)
        assert out[0, 0] == pytest.approx(x.mean(), abs=1e-5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        layer = GaussianSupportLayer(4, 3, rng)
        layer.log_sigma.data = rng.uniform(-1, 1, size=3)
        x = rng.standard_normal((2, 4))
        sig = np.exp(layer.log_sigma.data)
        oracle = layer_forward_oracle(
            x, layer.W.data, layer.b.data,
            lambda z, u: gaussian_oracle(z, sig[u])[2],
        )
        np.testing.assert_allclose(layer.forward(x), oracle, atol=1e-10)

    def test_support_weights_sum_per_unit(self):
        """Support weights sum to 1 +- 1e-9 per unit per sample."""
        rng = np.random.default_rng(18)
        layer = GaussianSupportLayer(5, 4, rng)
        x = rng.standard_normal((3, 5))
        z = x[:, None, :] * layer.W.data[None, :, :]
        sigma = np.exp(layer.log_sigma.data)[None, :]
        r, _, _ = _affinity_moments(z, sigma)
        alpha = r / r.sum(-1, keepdims=True)
        np.testing.assert_allclose(alpha.sum(-1), 1.0, atol=1e-9)

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(19)
        layer = GaussianSupportLayer(4, 2, rng)
        layer.forward(rng.standard_normal((2, 4)))
        dx = layer.backward(np.zeros((2, 2)))
        assert not np.any(dx)
        for p in layer.params():
            assert not np.any(p.grad)

    def test_equal_inputs_have_stationary_sigma(self):
        """Constant contributions give affinity 1 regardless of sigma."""
        layer = GaussianSupportLayer(4, 1)
        layer.W.data = np.ones((1, 4))
        layer.forward(np.full((1, 4), 2.0))
        layer.backward(np.ones((1, 1)))
        assert np.all(np.abs(layer.log_sigma.grad) < 1e-10)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n, u, b = rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 4)
            layer = GaussianSupportLayer(int(n), int(u), rng)
            layer.log_sigma.data = rng.uniform(-1.5, 2, size=u)
            x = rng.standard_normal((int(b), int(n)))
            C = rng.standard_normal((int(b), int(u)))

            def f():
                return float(np.sum(C * layer.forward(x, train=False)))

            layer.forward(x)
            dx = layer.backward(C)
            assert rel_error(dx, fd_gradient(f, x)) < 1e-5
            for p in layer.params():
                assert rel_error(p.grad, fd_gradient(f, p.data)) < 1e-5


# ---------------------------------------------------------------------------
# Hybrids
# ---------------------------------------------------------------------------

def _linear_path(layer, x):
    """The plain-sum path of a hybrid unit, via an ordinary LinearLayer."""
    out_units, in_units = layer.W.data.shape
    lin = LinearLayer(in_units, out_units)
    lin.W.data = layer.W.data.copy()
    lin.b.data = np.zeros(out_units)
    return lin.forward(x)


class TestHybridTwoWay:
    def test_fresh_blend_is_exact_midpoint(self):
        rng = np.random.default_rng(21)
        layer = HybridLayer(4, 3, "fmean-hybrid", rng)
        x = rng.standard_normal((2, 4))
        out = layer.forward(x)
        z = x[:, None, :] * layer.W.data[None, :, :]
        a_lin = z.sum(-1)
        a_fm = fmean_value(z, layer.p.data[None, :])
        np.testing.assert_allclose(out, 0.5 * a_fm + 0.5 * a_lin + layer.b.data, rtol=1e-12)

    def test_saturated_negative_recovers_linear(self):
        """alpha_raw = -40 reproduces x W^T + b to 1e-12."""
        rng = np.random.default_rng(22)
        for kind in ("fmean-hybrid", "gaussian-hybrid"):
            layer = HybridLayer(5, 4, kind, rng)
            layer.alpha_raw.data = np.full(4, -40.0)
            layer.b.data = rng.standard_normal(4)
            x = rng.standard_normal((3, 5))
            np.testing.assert_allclose(
                layer.forward(x), _linear_path(layer, x) + layer.b.data, atol=1e-12
            )

    def test_saturated_positive_recovers_novel_path(self):
        """alpha_raw = +40 gives pure novel aggregation plus bias."""
        rng = np.random.default_rng(23)
        layer = HybridLayer(4, 2, "fmean-hybrid", rng)
        layer.alpha_raw.data = np.full(2, 40.0)
        layer.b.data = rng.standard_normal(2)
        x = rng.standard_normal((2, 4))
        z = x[:, None, :] * layer.W.data[None, :, :]
        a_fm = fmean_value(z, layer.p.data[None, :])
        np.testing.assert_allclose(layer.forward(x), a_fm + layer.b.data, atol=1e-12)

    def test_output_affine_in_blend(self):
        """out lies exactly on the segment between the two path outputs."""
        rng = np.random.default_rng(24)
        layer = HybridLayer(4, 3, "gaussian-hybrid", rng)
        x = rng.standard_normal((2, 4))
        z = x[:, None, :] * layer.W.data[None, :, :]
        sigma = np.exp(layer.log_sigma.data)[None, :]
        aff_w = gaussian_support_weights(gaussian_affinity(z, sigma))
        a_g = (aff_w * z).sum(-1)
        a_lin = z.sum(-1)
        for raw in (-3.0, -0.5, 0.0, 1.2, 4.0):
            layer.alpha_raw.data = np.full(3, raw)
            blend = float(sigmoid(raw))
            expected = a_lin + blend * (a_g - a_lin) + layer.b.data
            np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)

    def test_initialization(self):
        layer = HybridLayer(3, 5, "fmean-hybrid")
        np.testing.assert_array_equal(layer.alpha_raw.data, np.zeros(5))
        np.testing.assert_array_equal(layer.p.data, np.ones(5))
        assert layer.log_sigma is None


class TestHybridThreeWay:
    def test_fresh_blend_is_equal_thirds(self):
        rng = np.random.default_rng(25)
        layer = HybridLayer(4, 2, "threeway-hybrid", rng)
        x = rng.standard_normal((2, 4))
        out = layer.forward(x)
        z = x[:, None, :] * layer.W.data[None, :, :]
        a_lin = z.sum(-1)
        a_fm = fmean_value(z, layer.p.data[None, :])
        sigma = np.exp(layer.log_sigma.data)[None, :]
        aff_w = gaussian_support_weights(gaussian_affinity(z, sigma))
        a_g = (aff_w * z).sum(-1)
        np.testing.assert_allclose(out, (a_lin + a_fm + a_g) / 3.0 + layer.b.data, rtol=1e-12)

    def test_saturated_first_coefficient_is_linear(self):
        layer = HybridLayer(5, 3, "threeway-hybrid", np.random.default_rng(26))
        layer.alpha_raw.data = np.tile([40.0, 0.0, 0.0], (3, 1))
        x = np.random.default_rng(27).standard_normal((2, 5))
        np.testing.assert_allclose(
            layer.forward(x), _linear_path(layer, x) + layer.b.data, atol=1e-10
        )

    def test_matches_compositional_oracle(self):
        """Blending the three scalar-oracle paths reproduces the layer."""
        rng = np.random.default_rng(28)
        layer = HybridLayer(4, 3, "threeway-hybrid", rng)
        layer.alpha_raw.data = rng.uniform(-1.5, 1.5, size=(3, 3))
        layer.p.data = rng.uniform(-1, 3, size=3)
        layer.log_sigma.data = rng.uniform(-1, 1, size=3)
        x = rng.standard_normal((2, 4))
        W, b = layer.W.data, layer.b.data
        blend = softmax(layer.alpha_raw.data, axis=-1)
        sig = np.exp(layer.log_sigma.data)
        oracle = np.zeros((2, 3))
        for s in range(2):
            for u in range(3):
                z = [W[u, i] * x[s, i] for i in range(4)]
                _, a_fm = fmean_oracle(z, layer.p.data[u])
                _, _, a_g = gaussian_oracle(z, sig[u])
                a_lin = sum(z)
                oracle[s, u] = (
                    blend[u, 0] * a_lin + blend[u, 1] * a_fm + blend[u, 2] * a_g + b[u]
                )
        np.testing.assert_allclose(layer.forward(x), oracle, atol=1e-10)

    def test_initialization(self):
        layer = HybridLayer(3, 4, "threeway-hybrid")
        np.testing.assert_array_equal(layer.alpha_raw.data, np.zeros((4, 3)))
        np.testing.assert_array_equal(layer.p.data, np.ones(4))
        np.testing.assert_array_equal(layer.log_sigma.data, np.zeros(4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            HybridLayer(3, 3, "four-way")


class TestHybridBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(29)
        for kind in ("fmean-hybrid", "gaussian-hybrid", "threeway-hybrid"):
            layer = HybridLayer(4, 3, kind, rng)
            layer.forward(rng.standard_normal((2, 4)))
            dx = layer.backward(np.zeros((2, 3)))
            assert not np.any(dx)
            for p in layer.params():
                assert not np.any(p.grad)

    def test_indistinguishable_paths_leave_blend_stationary(self):
        """x = 0 makes every path output 0, so d alpha_raw vanishes."""
        for kind in ("fmean-hybrid", "gaussian-hybrid"):
            layer = HybridLayer(4, 3, kind, np.random.default_rng(30))
            layer.forward(np.zeros((2, 4)))
            layer.backward(np.ones((2, 3)))
            assert np.all(np.abs(layer.alpha_raw.grad) < 1e-10)

    def test_shared_weight_gets_both_path_contributions(self):
        """dW from the hybrid equals the blend of per-path layer dWs."""
        rng = np.random.default_rng(31)
        layer = HybridLayer(4, 2, "fmean-hybrid", rng)
        x = rng.standard_normal((3, 4))
        up = rng.standard_normal((3, 2))
        layer.forward(x)
        layer.backward(up)

        lin = LinearLayer(4, 2)
        lin.W.data = layer.W.data.copy()
        lin.forward(x)
        lin.backward(up)

        fm = FMeanLayer(4, 2)
        fm.W.data = layer.W.data.copy()
        fm.p.data = layer.p.data.copy()
        fm.forward(x)
        fm.backward(up)

        np.testing.assert_allclose(
            layer.W.grad, 0.5 * lin.W.grad + 0.5 * fm.W.grad, rtol=1e-10, atol=1e-12
        )

    def test_threeway_backward_allocations(self, traced_peak):
        """One threeway backward holds at most 6.5 (batch, units, n) float64
        arrays at once (measured 4.72: its two block buffers and F-Mean's
        rebuild, in blocks of half this batch; the same rebuild in the
        forward's one block held 8.36, and evaluating each path's gradient
        factors in the backward 6.35)."""
        rng = np.random.default_rng(34)
        B, U, n = 32, 32, 64
        layer = HybridLayer(n, U, "threeway-hybrid", rng)
        layer.forward(rng.standard_normal((B, n)))
        up = rng.standard_normal((B, U))
        assert traced_peak(lambda: layer.backward(up)) <= 6.5 * B * U * n * 8

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(32)
        kinds = ("fmean-hybrid", "gaussian-hybrid", "threeway-hybrid")
        for i in range(18):
            kind = kinds[i % 3]
            n, u, b = rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 4)
            layer = HybridLayer(int(n), int(u), kind, rng)
            layer.alpha_raw.data = rng.uniform(-2, 2, size=layer.alpha_raw.data.shape)
            if layer.p is not None:
                layer.p.data = rng.uniform(-2, 4, size=u)
            if layer.log_sigma is not None:
                layer.log_sigma.data = rng.uniform(-1.5, 2, size=u)
            x = rng.standard_normal((int(b), int(n)))
            C = rng.standard_normal((int(b), int(u)))

            def f():
                return float(np.sum(C * layer.forward(x, train=False)))

            layer.forward(x)
            dx = layer.backward(C)
            assert rel_error(dx, fd_gradient(f, x)) < 1e-5
            for p in layer.params():
                assert rel_error(p.grad, fd_gradient(f, p.data)) < 1e-5


def _layer_results(kind, batch, n, units, before_backward=lambda: None):
    """A seeded layer's eval and train outputs, dx and every parameter grad,
    with the learnable paths' parameters drawn away from their start;
    ``before_backward()`` runs between the train forward and the backward."""
    rng = np.random.default_rng(35)
    layer = HybridLayer(n, units, kind, rng)
    for param in layer.params()[2:]:
        param.data = rng.uniform(-1.0, 1.0, size=param.data.shape)
    x = rng.standard_normal((batch, n))
    up = rng.standard_normal((batch, units))
    results = [layer.forward(x, train=False), layer.forward(x)]
    before_backward()
    results.append(layer.backward(up))
    return results + [param.grad for param in layer.params()]


def _ragged(blocks):
    """Whether ``blocks`` ends in a block shorter than its first."""
    return blocks[-1].stop - blocks[-1].start < blocks[0].stop


class TestRowBlocks:
    @pytest.mark.parametrize("kind", list(KIND_PATHS))
    @pytest.mark.parametrize("shape, block_elems", [
        # forward blocks of 8 rows and a ragged one of 5 (on two threads, of 4
        # and a ragged one of 1)
        ((37, 128, 128), None),
        # forward blocks of 5 rows and a ragged one of 1 (on two threads, of 2
        # and a ragged one of 1)
        ((11, 3, 2), 5 * 3 * 2),
        # a one-block forward; backward blocks of 2 rows and a ragged one of 1
        pytest.param((7, 5, 3), (None, 4 * 2 * 5 * 3), id="shape2-backward-only"),
    ])
    def test_blocks_equal_one_block(self, kind, shape, block_elems, cpus, threads_started,
                                    monkeypatch):
        """Outputs, dx and every gradient are bit for bit those of one block,
        and laid out alike, on one CPU and on two, also where the backward's
        blocks are not the forward's.  ``block_elems`` sets ``_BLOCK_ELEMS``
        for the whole call, or as a (forward, backward) pair, None keeping
        the default."""
        default = aggregation._BLOCK_ELEMS
        fwd, bwd = block_elems if isinstance(block_elems, tuple) else (block_elems,) * 2
        walked = []  # the blocks of the eval forward, the train forward, the backward

        def spy(*args):
            walked.append(_blocks(*args))
            return walked[-1]

        def results(fwd, bwd):
            def patch(elems):
                monkeypatch.setattr(aggregation, "_BLOCK_ELEMS", elems or default)

            walked.clear()
            threads_started.clear()
            patch(fwd)
            return _layer_results(kind, *shape, before_backward=lambda: patch(bwd))

        monkeypatch.setattr(aggregation, "_blocks", spy)
        want = results(1 << 40, 1 << 40)
        assert [len(blocks) for blocks in walked] == [1, 1, 1] and not threads_started
        for k in (1, 2):
            cpus(k)
            got = results(fwd, bwd)
            forward, backward = walked[1:]
            if fwd == bwd:
                assert len(forward) >= 3 and _ragged(forward) and len(backward) >= len(forward)
                # on two CPUs each pass splits in two: one thread beside the caller's
                assert len(threads_started) == 3 * (k - 1)
            else:
                assert len(forward) == 1 and len(backward) >= 3 and _ragged(backward)
                assert not threads_started
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.strides == w.strides
                assert g.tobytes() == w.tobytes()

    def test_eval_forward_memory(self, cpus, traced_peak):
        """An eval forward at the paper's slot and eval batch holds less than
        one (batch, units, n) array, 32 MiB, on one thread and on two, whose
        blocks are half the size (measured 6.3 MiB on either; a forward over
        the whole batch at once held 257.0 MiB)."""
        rng = np.random.default_rng(36)
        layer = HybridLayer(128, 128, "threeway-hybrid", rng)
        x = rng.standard_normal((256, 128))
        for k in (1, 2):
            cpus(k)
            assert traced_peak(lambda: layer.forward(x, train=False)) <= 32 * 2**20

    def test_backward_memory(self, cpus, traced_peak):
        """A backward at the paper's slot holds at most 2.5 (batch, units, n)
        arrays beyond its cache, on one thread and on two (measured 0.18 on
        either: its block buffers and F-Mean's rebuild, each of 2 rows on one
        thread and of 1 row per thread on two; a backward that gathered the
        full dz held 1.41)."""
        rng = np.random.default_rng(37)
        B, U, n = 128, 128, 128
        layer = HybridLayer(n, U, "threeway-hybrid", rng)
        x = rng.standard_normal((B, n))
        up = rng.standard_normal((B, U))
        for k in (1, 2):
            cpus(k)
            layer.forward(x)
            assert traced_peak(lambda: layer.backward(up)) <= 2.5 * B * U * n * 8

    @pytest.mark.parametrize("batch", [128, 512])
    def test_backward_memory_does_not_grow_with_the_batch(self, batch, cpus, traced_peak):
        """A backward at the paper's slot holds at most 12 of one block's
        (rows, units, n) arrays, 12 MiB, whatever the batch, on one thread
        and on two (measured 2.8 MiB at batch 128 and 3.2 at 512 on either;
        gathering the full dz held 22.5 and 71.3)."""
        rng = np.random.default_rng(39)
        U = n = 128
        layer = HybridLayer(n, U, "threeway-hybrid", rng)
        x = rng.standard_normal((batch, n))
        up = rng.standard_normal((batch, U))
        for k in (1, 2):
            cpus(k)
            layer.forward(x)
            assert traced_peak(lambda: layer.backward(up)) <= 12 * aggregation._BLOCK_ELEMS * 8

    @pytest.mark.parametrize("kind, arrays", [
        ("fmean-hybrid", 0.5), ("gaussian-hybrid", 1.5), ("threeway-hybrid", 1.5),
    ])
    def test_train_forward_keeps_only_gradient_factors(self, kind, arrays, traced_kept):
        """A train forward at the paper's slot keeps at most ``arrays``
        (batch, units, n) arrays for the backward: the Gaussian path's J, and
        for F-Mean only (batch, units) values (measured 0.03, 1.03 and 1.06;
        keeping F-Mean's omega and bracket kept 2.02, 1.03 and 3.05, and each
        block's z and path intermediates 3.02, 4.03 and 6.03)."""
        rng = np.random.default_rng(40)
        B = U = n = 128
        layer = HybridLayer(n, U, kind, rng)
        x = rng.standard_normal((B, n))
        assert traced_kept(lambda: layer.forward(x)) <= arrays * B * U * n * 8

    @pytest.mark.parametrize("kind, arrays", [("fmean-hybrid", 1), ("threeway-hybrid", 2)])
    def test_train_step_peak(self, kind, arrays, cpus, traced_peak):
        """A train forward plus backward at the paper's slot, on ReLU'd input,
        holds at most ``arrays`` (batch, units, n) arrays at once, on one
        thread and on two (measured 0.42 and 1.57 on either; keeping F-Mean's
        omega and bracket from the forward held 2.61 and 3.64)."""
        rng = np.random.default_rng(41)
        B = U = n = 128
        layer = HybridLayer(n, U, kind, rng)
        x = np.maximum(rng.standard_normal((B, n)), 0.0)
        up = rng.standard_normal((B, U))

        def step():
            layer.forward(x)
            layer.backward(up)

        for k in (1, 2):
            cpus(k)
            assert traced_peak(step) <= arrays * B * U * n * 8

    def test_each_block_kernel_call_keeps_both_cpus(self, two_cpus, threads_started,
                                                    monkeypatch):
        """On two CPUs, each pass over a batch of four blocks starts one
        thread beside the calling one, and the forward's kernel calls on the
        two threads take half the rows each."""
        rng = np.random.default_rng(38)
        layer = HybridLayer(128, 128, "gaussian", rng)
        x = rng.standard_normal((32, 128))
        rows = {}  # thread -> the rows of its kernel calls
        kernel = aggregation._affinity_moments

        def counted(z, sigma):
            ident = threading.get_ident()
            rows[ident] = rows.get(ident, 0) + z.size // z.shape[-1]
            return kernel(z, sigma)

        monkeypatch.setattr(aggregation, "_affinity_moments", counted)
        assert len(_blocks(32, 128 * 128, aggregation._BLOCK_ELEMS)) == 4
        layer.forward(x, train=False)
        assert len(threads_started) == 1
        assert sorted(rows.values()) == [16 * 128] * 2
        layer.forward(x)
        layer.backward(rng.standard_normal((32, 128)))
        assert len(threads_started) == 3


def _child_results(kind, shape, parent, results):
    """In a forked child: whether the layer there repeats the parent's results."""
    got = _layer_results(kind, *shape)
    results.put(all(g.tobytes() == w.tobytes() for g, w in zip(got, parent)))


def _within(seconds, fn):
    """``fn()`` on a thread of its own, failing the test, not hanging it,
    if that thread has not finished after ``seconds``."""
    outcome = []

    def call():
        try:
            outcome.append((True, fn()))
        except BaseException as exc:
            outcome.append((False, exc))

    t = threading.Thread(target=call, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert outcome, f"still running after {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class TestLayerThreads:
    """The layer's one thread split: T = min(CPUs, full-size blocks) threads
    per pass, the calling thread one of them."""

    @pytest.mark.parametrize("kind", list(KIND_PATHS))
    def test_threads_equal_one_thread(self, kind, cpus, threads_started):
        """The outputs, dx and every gradient are byte for byte the same on
        1, 2 and 64 CPUs: over 37 rows at the paper's slot, 1, 2 and 4
        threads per pass, the last backward round one block short."""
        shape = (37, 128, 128)
        cpus(1)
        want = _layer_results(kind, *shape)
        assert not threads_started
        for k, threads in ((2, 2), (64, 4)):
            cpus(k)
            threads_started.clear()
            got = _layer_results(kind, *shape)
            assert len(threads_started) == 3 * (threads - 1)  # per pass, beside the caller
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_small_calls_start_no_thread(self, cpus, monkeypatch):
        """gradcheck's aggregation checks, and a call at the paper's slot
        whose rows fill one full block and a ragged one, run on the calling
        thread alone, even with 64 CPUs."""
        cpus(64)

        def no_thread(*args, **kwargs):
            raise AssertionError("the layer started a thread")

        monkeypatch.setattr(aggregation, "Thread", no_thread)
        calls = []
        kernel = aggregation._affinity_moments
        monkeypatch.setattr(aggregation, "_affinity_moments",
                            lambda z, sigma: calls.append(z.shape) or kernel(z, sigma))
        assert gradcheck.check_gaussian(2) < gradcheck.TOL
        assert gradcheck.check_hybrid(2) < gradcheck.TOL
        assert gradcheck.check_full_model() < 1e-4
        assert calls
        one_full_block = 2 * (aggregation._BLOCK_ELEMS // 128**2) - 1
        _layer_results("threeway-hybrid", one_full_block, 128, 128)

    def test_worker_exception_raised_to_the_caller(self, two_cpus, threads_started,
                                                   monkeypatch):
        """An exception on the worker thread, in a forward's kernel call or a
        backward's F-Mean rebuild, is raised by the call; so is one on the
        calling thread in a backward, where the worker waits for its round.
        No thread is left running."""
        rng = np.random.default_rng(25)
        layer = HybridLayer(128, 128, "threeway-hybrid", rng)
        x, up = rng.standard_normal((32, 128)), rng.standard_normal((32, 128))

        def failing(name, where):
            fn = getattr(aggregation, name)

            def call(*args):
                if (threading.current_thread() in threads_started) == (where == "worker"):
                    raise MemoryError(f"{name} on the {where}")
                return fn(*args)

            return call

        with monkeypatch.context() as m:
            m.setattr(aggregation, "_affinity_moments", failing("_affinity_moments", "worker"))
            with pytest.raises(MemoryError, match="_affinity_moments on the worker"):
                _within(60, lambda: layer.forward(x))
        for where in ("worker", "caller"):
            layer.forward(x)
            with monkeypatch.context() as m:
                m.setattr(aggregation, "_fmean_factors", failing("_fmean_factors", where))
                with pytest.raises(MemoryError, match=f"_fmean_factors on the {where}"):
                    _within(60, lambda: layer.backward(up))
        assert len(threads_started) == 5
        assert not any(t.is_alive() for t in threads_started)

    def test_concurrent_callers_get_their_own_results(self, two_cpus, threads_started):
        """Two callers running threaded passes at once, each with its own
        layer, five times each, each get exactly their own layer's results."""
        kinds, shape = ("threeway-hybrid", "fmean-hybrid"), (16, 128, 128)
        want = [_layer_results(kind, *shape) for kind in kinds]
        got = [[], []]
        together = threading.Barrier(2)

        def call(k):
            for _ in range(5):
                together.wait(timeout=60)
                got[k].append(_layer_results(kinds[k], *shape))

        callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(threads_started) == 3 * (2 + 2 * 5)  # one per pass
        for k in range(2):
            assert len(got[k]) == 5
            for results in got[k]:
                assert all(g.tobytes() == w.tobytes() for g, w in zip(results, want[k]))

    def test_forked_child_runs_the_layer(self, two_cpus, threads_started):
        """A child forked after a threaded call runs the layer, threaded
        again, to the parent's results: no thread or lock of the parent's
        calls is left for it to wait on."""
        shape = (16, 128, 128)
        parent = _layer_results("threeway-hybrid", *shape)
        assert threads_started
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_child_results,
                            args=("threeway-hybrid", shape, parent, results))
        child.start()
        try:
            assert results.get(timeout=60) is True
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

class TestFiniteness:
    def test_extreme_inputs_stay_finite(self):
        """|x| <= 1e3, |W| <= 1e2, p in [-10, 10], log sigma in [-6, 6]."""
        rng = np.random.default_rng(33)
        for _ in range(15):
            n, u = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            x = rng.uniform(-1e3, 1e3, size=(2, n))
            for make in (
                lambda: FMeanLayer(n, u, rng),
                lambda: GaussianSupportLayer(n, u, rng),
                lambda: HybridLayer(n, u, "threeway-hybrid", rng),
            ):
                layer = make()
                layer.W.data = rng.uniform(-1e2, 1e2, size=(u, n))
                if getattr(layer, "p", None) is not None:
                    layer.p.data = rng.uniform(-10, 10, size=u)
                if getattr(layer, "log_sigma", None) is not None:
                    layer.log_sigma.data = rng.uniform(-6, 6, size=u)
                out = layer.forward(x)
                assert np.all(np.isfinite(out))
                dx = layer.backward(np.ones((2, u)))
                assert np.all(np.isfinite(dx))
                for p in layer.params():
                    assert np.all(np.isfinite(p.grad))

    def test_shape_mismatch_rejected(self):
        for layer in (FMeanLayer(3, 2), GaussianSupportLayer(3, 2),
                      HybridLayer(3, 2, "threeway-hybrid")):
            with pytest.raises(ShapeError):
                layer.forward(np.ones((1, 4)))
