"""Clipping arithmetic, Adam updates, and the two plateau state machines."""

import numpy as np
import pytest

from aggnet.layers import NOVEL, Parameter, STANDARD
from aggnet.model import AGGREGATION_KINDS, aggregation_layer, build_mlp
from aggnet.optim import (
    Adam,
    EarlyStopper,
    NonFiniteGradient,
    ParamGroup,
    PlateauScheduler,
    build_param_groups,
    clip_global_norm,
)


class TestClipGlobalNorm:
    def test_exact_halving(self):
        """Norm 2.0 against max 1.0 halves every entry."""
        g = [np.array([2.0, 0.0]), np.array([0.0])]
        out = clip_global_norm(g, 1.0)
        np.testing.assert_allclose(out[0], [1.0, 0.0])

    def test_below_threshold_unchanged(self):
        g = [np.array([0.3, 0.4])]
        out = clip_global_norm(g, 1.0)
        np.testing.assert_array_equal(out[0], g[0])

    def test_three_four_five(self):
        """{[3],[4]} has norm 5 and clips to {[0.6],[0.8]}."""
        out = clip_global_norm([np.array([3.0]), np.array([4.0])], 1.0)
        np.testing.assert_allclose(out[0], [0.6])
        np.testing.assert_allclose(out[1], [0.8])

    def test_post_norm_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = [rng.standard_normal(rng.integers(1, 20)) * rng.uniform(0, 5)
                 for _ in range(rng.integers(1, 6))]
            out = clip_global_norm(g, 1.0)
            norm = np.sqrt(sum(float(np.sum(v * v)) for v in out))
            assert norm <= 1.0 + 1e-12

    def test_non_finite_aborts(self):
        with pytest.raises(NonFiniteGradient):
            clip_global_norm([np.array([np.nan])], 1.0)

    def test_inputs_not_mutated(self):
        g = [np.array([3.0, 4.0])]
        clip_global_norm(g, 1.0)
        np.testing.assert_array_equal(g[0], [3.0, 4.0])


def _param(name, values, tag=STANDARD):
    return Parameter(name, np.asarray(values, dtype=float), tag=tag)


class TestParamGroups:
    def test_partition(self):
        ps = [_param("W", [1.0]), _param("b", [0.0]),
              _param("p", [1.0], NOVEL), _param("alpha_raw", [0.0], NOVEL)]
        std, nov = build_param_groups(ps, 1e-3, 1e-2)
        assert [p.name for p in std.params] == ["W", "b"]
        assert [p.name for p in nov.params] == ["p", "alpha_raw"]
        assert std.learning_rate == 1e-3 and nov.learning_rate == 1e-2

    def test_duplicate_rejected(self):
        p = _param("W", [1.0])
        with pytest.raises(ValueError):
            build_param_groups([p, p], 1e-3, 1e-2)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter tag"):
            build_param_groups([_param("W", [1.0], "fast")], 1e-3, 1e-2)

    @pytest.mark.parametrize("aggregation", AGGREGATION_KINDS)
    def test_novel_group_is_the_slot_parameters(self, aggregation):
        """In a built model the novel group is exactly the aggregation
        slot's p / log_sigma / alpha_raw, and empty for the baseline."""
        model = build_mlp(aggregation, np.random.default_rng(0), in_dim=6, proj_dim=5,
                          hidden_dim=4, classes=3)
        std, nov = build_param_groups(model.parameters(), 1e-3, 1e-2)
        layer = aggregation_layer(model)
        slot = [] if layer is None else [
            p for p in (layer.p, layer.log_sigma, layer.alpha_raw) if p is not None]
        assert [id(p) for p in nov.params] == [id(p) for p in slot]
        assert {p.name for p in slot} <= {"p", "log_sigma", "alpha_raw"}
        assert len(slot) == {"baseline": 0, "threeway-hybrid": 3}.get(aggregation, 2)
        assert len(std.params) + len(nov.params) == len(model.parameters())


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = _param("W", [1.0, -2.0])
        p.grad = np.zeros(2)
        opt = Adam([ParamGroup(STANDARD, 1e-3, [p])])
        opt.step(clip_norm=np.inf)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        """Unit gradient moves the parameter by ~lr on step one."""
        p = _param("W", [0.0])
        p.grad = np.ones(1)
        opt = Adam([ParamGroup(STANDARD, 1e-3, [p])])
        opt.step(clip_norm=np.inf)
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_novel_group_moves_ten_times_further(self):
        """Same gradient, 1e-2 vs 1e-3 rates: 10x the first step."""
        w = _param("W", [0.0])
        q = _param("p", [0.0], NOVEL)
        w.grad = np.ones(1)
        q.grad = np.ones(1)
        opt = Adam(build_param_groups([w, q], 1e-3, 1e-2))
        opt.step(clip_norm=np.inf)
        assert q.data[0] == pytest.approx(10.0 * w.data[0], rel=1e-12)

    def test_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(42)
            p = _param("W", rng.standard_normal(8))
            opt = Adam([ParamGroup(STANDARD, 1e-3, [p])])
            for _ in range(25):
                p.grad = rng.standard_normal(8)
                opt.step(clip_norm=1.0)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        p = _param("W", [0.0, 0.0])
        p.grad = np.zeros(3)
        opt = Adam([ParamGroup(STANDARD, 1e-3, [p])])
        with pytest.raises(ValueError):
            opt.step(clip_norm=np.inf)


class TestPlateauScheduler:
    def nothing_improves(self, n):
        return [1.0] * n

    def test_improving_sequence_keeps_rates(self):
        groups = [ParamGroup(STANDARD, 1e-3, []), ParamGroup(NOVEL, 1e-2, [])]
        sched = PlateauScheduler(groups)
        for m in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]:
            sched.step(m)
        assert groups[0].learning_rate == 1e-3
        assert groups[1].learning_rate == 1e-2

    def test_six_flat_epochs_halve_once(self):
        """Patience 5: the sixth non-improving epoch halves the rates."""
        groups = [ParamGroup(STANDARD, 1e-3, []), ParamGroup(NOVEL, 1e-2, [])]
        sched = PlateauScheduler(groups, patience=5)
        reduced = [sched.step(1.0) for _ in range(6)]
        assert reduced == [False] * 5 + [True]
        assert groups[0].learning_rate == pytest.approx(5e-4)
        assert groups[1].learning_rate == pytest.approx(5e-3)

    def test_improvement_resets_counter(self):
        groups = [ParamGroup(STANDARD, 1e-3, [])]
        sched = PlateauScheduler(groups, patience=5)
        for m in [1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]:
            sched.step(m)
        assert groups[0].learning_rate == 1e-3  # never 6 stale epochs in a row

    def test_floor(self):
        """Rates never drop below the 1e-6 floor."""
        groups = [ParamGroup(STANDARD, 1e-3, [])]
        sched = PlateauScheduler(groups, patience=1)
        for _ in range(100):
            sched.step(1.0)
        assert groups[0].learning_rate == pytest.approx(1e-6)

    def test_zero_rate_never_raised_by_floor(self):
        """A deliberately zero rate stays zero through reductions."""
        groups = [ParamGroup(STANDARD, 0.0, [])]
        sched = PlateauScheduler(groups, patience=1)
        for _ in range(10):
            sched.step(1.0)
        assert groups[0].learning_rate == 0.0

    def test_tiny_improvement_below_delta_does_not_count(self):
        groups = [ParamGroup(STANDARD, 1e-3, [])]
        sched = PlateauScheduler(groups, patience=2, min_delta=1e-4)
        hit = [sched.step(m) for m in [1.0, 1.0 - 5e-5, 1.0 - 9e-5]]
        assert hit == [False, False, True]

    def test_rejects_non_finite(self):
        sched = PlateauScheduler([ParamGroup(STANDARD, 1e-3, [])])
        with pytest.raises(ValueError):
            sched.step(float("nan"))


class TestEarlyStopper:
    def test_monotone_improvement_never_stops(self):
        stop = EarlyStopper(patience=10)
        assert not any(stop.step(1.0 - 0.01 * k) for k in range(100))

    def test_flat_trace_stops_at_epoch_eleven(self):
        """Patience 10: eleven flat epochs stop on exactly the eleventh."""
        stop = EarlyStopper(patience=10)
        outcomes = [stop.step(1.0) for _ in range(11)]
        assert outcomes == [False] * 10 + [True]

    def test_improvement_at_the_boundary_resets(self):
        """An improvement on the tenth stale epoch restarts the budget."""
        stop = EarlyStopper(patience=10)
        for _ in range(9):
            assert not stop.step(1.0)
        assert not stop.step(0.5)  # improvement at epoch 10
        for _ in range(10):
            assert not stop.step(0.5)
        assert stop.step(0.5)  # the 11th stale epoch after the reset

    def test_best_epoch_tracked(self):
        stop = EarlyStopper(patience=10)
        for m in [1.0, 0.8, 0.9, 0.7, 0.71]:
            stop.step(m)
        assert stop.best == 0.7
        assert stop.best_epoch == 4
