"""Scalar-function and matmul primitives against independent oracles."""

import math

import numpy as np
import pytest

from aggnet.ops import (
    InvalidValueError,
    ShapeError,
    log_softplus,
    log_softplus_and_ratio,
    matmul,
    sigmoid,
    sigmoid_softplus_ratio,
    softmax,
    softplus,
)


class TestSoftplus:
    def test_zero(self):
        """softplus(0) = ln 2, analytically forced."""
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_input_no_overflow(self):
        """softplus(1000) = 1000 to relative 1e-12 (asymptote, no overflow)."""
        out = float(softplus(1000.0))
        assert abs(out - 1000.0) / 1000.0 < 1e-12

    def test_one(self):
        """softplus(1) equals the double-precision ln(1 + e) oracle."""
        assert float(softplus(1.0)) == pytest.approx(math.log1p(math.e), abs=1e-12)
        assert float(softplus(1.0)) == pytest.approx(1.313262, abs=1e-6)

    def test_strictly_positive_and_bounded_gap(self):
        """softplus(t) > 0 and softplus(t) - max(t, 0) in [0, ln 2]."""
        t = np.random.default_rng(0).uniform(-50, 50, size=10_000)
        sp = softplus(t)
        assert np.all(sp > 0)
        gap = sp - np.maximum(t, 0.0)
        assert np.all(gap >= 0)
        assert np.all(gap <= math.log(2.0) + 1e-15)

    def test_monotone(self):
        t = np.linspace(-40, 40, 5000)
        assert np.all(np.diff(softplus(t)) > 0)

    def test_derivative_is_sigmoid(self):
        """d/dt softplus = sigmoid, via central differences at 100 points."""
        rng = np.random.default_rng(1)
        t = rng.uniform(-20, 20, size=100)
        h = 1e-6
        fd = (softplus(t + h) - softplus(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, sigmoid(t), atol=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidValueError):
            softplus(np.array([1.0, np.nan]))
        with pytest.raises(InvalidValueError):
            softplus(np.array([np.inf]))


class TestLogSoftplus:
    def test_matches_direct_log(self):
        t = np.random.default_rng(2).uniform(-25, 25, size=1000)
        np.testing.assert_allclose(log_softplus(t), np.log(softplus(t)), rtol=1e-12)

    def test_finite_deep_in_the_tail(self):
        """Where softplus underflows, ln softplus(t) -> t stays finite."""
        t = np.array([-50.0, -500.0, -5000.0, -1e5])
        out = log_softplus(t)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, t, rtol=1e-12)


class TestSigmoid:
    def test_half_at_zero(self):
        assert float(sigmoid(0.0)) == 0.5

    def test_saturation(self):
        """sigmoid(40) = 1 - delta with delta < 1e-15."""
        assert 1.0 - float(sigmoid(40.0)) < 1e-15
        assert float(sigmoid(-40.0)) > 0.0

    def test_one(self):
        oracle = 1.0 / (1.0 + math.exp(-1.0))
        assert float(sigmoid(1.0)) == pytest.approx(oracle, abs=1e-12)
        assert float(sigmoid(1.0)) == pytest.approx(0.731059, abs=1e-6)

    def test_open_interval(self):
        t = np.random.default_rng(3).uniform(-36, 36, size=10_000)
        s = sigmoid(t)
        assert np.all(s > 0) and np.all(s < 1)

    def test_symmetry(self):
        t = np.random.default_rng(4).uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(t) + sigmoid(-t), 1.0, atol=1e-12)


class TestSigmoidSoftplusRatio:
    def test_matches_quotient(self):
        t = np.random.default_rng(5).uniform(-25, 25, size=1000)
        np.testing.assert_allclose(
            sigmoid_softplus_ratio(t), sigmoid(t) / softplus(t), rtol=1e-12
        )

    def test_tail_limit(self):
        """The ratio tends to 1 as t -> -inf and stays finite everywhere."""
        t = np.array([-40.0, -400.0, -4e4])
        np.testing.assert_allclose(sigmoid_softplus_ratio(t), 1.0, atol=1e-12)


class TestLogSoftplusAndRatio:
    def test_bit_for_bit_the_two_ops(self):
        """Both halves equal log_softplus and sigmoid_softplus_ratio byte for
        byte, on both sides of the t = -30 branch and deep in either tail."""
        rng = np.random.default_rng(14)
        t = np.concatenate([rng.uniform(-60, 60, size=5000), [-30.0, -1e5, 1e5, 0.0]])
        t = t.reshape(4, -1)
        lnsp, ratio = log_softplus_and_ratio(t)
        assert lnsp.tobytes() == log_softplus(t).tobytes()
        assert ratio.tobytes() == sigmoid_softplus_ratio(t).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_error(self, bad):
        with pytest.raises(InvalidValueError):
            log_softplus_and_ratio(np.array([0.0, bad]))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        """softmax([c, c+k, c+2k]) does not depend on c."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = rng.uniform(-3, 3)
            base = np.array([0.0, k, 2 * k])
            for c in (-100.0, -1.0, 0.0, 7.5, 300.0):
                np.testing.assert_allclose(
                    softmax(base + c), softmax(base), atol=1e-12
                )

    def test_one_two_three(self):
        """[1,2,3] against the direct exp-ratio oracle."""
        e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        oracle = np.array(e) / sum(e)
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), oracle, atol=1e-12)
        np.testing.assert_allclose(
            softmax([1.0, 2.0, 3.0]), [0.090031, 0.244728, 0.665241], atol=1e-6
        )

    def test_sums_to_one_and_positive(self):
        # spreads beyond ~log(DBL_MIN) underflow the smallest entries to 0,
        # so strict positivity is asserted inside the representable range
        rng = np.random.default_rng(7)
        x = rng.uniform(-300, 300, size=(200, 11))
        s = softmax(x, axis=1)
        assert np.all(s > 0)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_spread_still_normalised(self):
        s = softmax(np.array([-1e5, 0.0, 1e5]))
        assert np.all(s >= 0)
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_axis(self):
        x = np.random.default_rng(8).standard_normal((4, 5))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0, atol=1e-12)


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(9).standard_normal((4, 4))
        np.testing.assert_array_equal(matmul(a, np.eye(4)), a)

    def test_row_sums(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        """Random 3x4 . 4x2 equals the naive triple-loop oracle."""
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        oracle = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    oracle[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(matmul(a, b), oracle, atol=1e-12)

    def test_associativity_with_identity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 5))
        np.testing.assert_allclose(matmul(matmul(a, np.eye(5)), np.eye(5)), a, atol=0)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_non_finite_error(self):
        with pytest.raises(InvalidValueError):
            matmul(np.array([[np.nan]]), np.ones((1, 1)))


class TestScalarLoopOracles:
    def test_elementwise_ops_match_math_module(self):
        """Vectorized ops against per-element math.* evaluation."""
        rng = np.random.default_rng(13)
        t = rng.uniform(-20, 20, size=64)
        np.testing.assert_allclose(
            softplus(t), [math.log1p(math.exp(v)) for v in t], rtol=1e-12
        )
        np.testing.assert_allclose(
            sigmoid(t), [1.0 / (1.0 + math.exp(-v)) for v in t], rtol=1e-12
        )
        x = rng.uniform(-5, 5, size=(8, 6))
        for row, srow in zip(x, softmax(x, axis=1)):
            e = [math.exp(v - max(row)) for v in row]
            np.testing.assert_allclose(srow, np.array(e) / sum(e), rtol=1e-12)


class TestFiniteOutputs:
    def test_all_ops_finite_on_wide_ranges(self):
        """Finite inputs never produce NaN/Inf from these ops."""
        rng = np.random.default_rng(12)
        t = rng.uniform(-1e5, 1e5, size=2000)
        for fn in (softplus, sigmoid, log_softplus, sigmoid_softplus_ratio):
            assert np.all(np.isfinite(fn(t)))
        assert np.all(np.isfinite(softmax(t.reshape(100, 20), axis=1)))
