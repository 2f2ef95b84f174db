"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Criterion 6 (full CIFAR-10 at desk scale) needs the real dataset
on disk and is opt-in via ``-m cifar`` with AGGNET_CIFAR_DIR set.
"""

import math
import os
import time

import numpy as np
import pytest

from aggnet import gradcheck
from aggnet.aggregation import (
    GaussianSupportLayer,
    HybridLayer,
    fmean_weights,
    gaussian_affinity,
    gaussian_support_weights,
)
from aggnet.data import (
    TRAIN_FILES,
    NoiseSpec,
    _batch_dir,
    add_noise,
    load_batch_file,
    save_batch_file,
)
from aggnet.experiment import ExperimentConfig, robustness_score, sweep, train
from aggnet.layers import LinearLayer
from aggnet.optim import EarlyStopper, ParamGroup, PlateauScheduler, clip_global_norm


def _report(criterion: int, name: str, ok: bool):
    print(f"\nACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


class TestC1GradientCorrectness:
    def test_gradcheck_all_ops_under_two_minutes(self):
        """Every analytic gradient matches central differences at 1e-5
        over >= 100 random cases per op, within the runtime budget."""
        t0 = time.perf_counter()
        lines = []
        ok = gradcheck.run(module="all", cases=100, tol=1e-5, log=lines.append)
        elapsed = time.perf_counter() - t0
        for line in lines:
            print(line)
        _report(1, "gradient correctness", ok and elapsed < 120.0)


class TestC2AnalyticLimits:
    def test_limits(self):
        ok = True

        # p = 0: uniform weights to 1e-6
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.uniform(-3, 3, size=rng.integers(2, 9))
            ok &= bool(np.all(np.abs(fmean_weights(z, 0.0) - 1.0 / len(z)) < 1e-6))

        # p = 50 on separated z: argmax weight >= 0.99
        for _ in range(20):
            n = int(rng.integers(2, 9))
            z = rng.uniform(-3, 0, size=n)
            k = int(rng.integers(0, n))
            z[k] = rng.uniform(1.0, 3.0)
            ok &= bool(fmean_weights(z, 50.0)[k] >= 0.99)

        # sigma scaled 1000x beyond the data range: uniform support weights
        for _ in range(20):
            z = rng.uniform(-2, 2, size=int(rng.integers(2, 9)))
            sigma = 1000.0 * max(z.max() - z.min(), 1e-3)
            w = gaussian_support_weights(gaussian_affinity(z, sigma))
            ok &= bool(np.all(np.abs(w - 1.0 / len(z)) < 1e-5))

        # alpha_raw = -40: hybrid output equals the plain linear output
        for kind in ("fmean-hybrid", "gaussian-hybrid"):
            layer = HybridLayer(6, 4, kind, np.random.default_rng(1))
            layer.alpha_raw.data[:] = -40.0
            x = rng.standard_normal((3, 6))
            lin = LinearLayer(6, 4)
            lin.W.data = layer.W.data.copy()
            lin.b.data = layer.b.data.copy()
            ok &= bool(np.max(np.abs(layer.forward(x) - lin.forward(x))) < 1e-12)

        # fresh initialization: blend exactly 0.5, p exactly 1
        fresh = HybridLayer(5, 3, "fmean-hybrid")
        from aggnet.ops import sigmoid

        ok &= bool(np.all(sigmoid(fresh.alpha_raw.data) == 0.5))
        ok &= bool(np.all(fresh.p.data == 1.0))

        _report(2, "analytic limits", ok)


class TestC3RobustAggregation:
    def test_outlier_down_weighting(self):
        """[0, 0, 10] at sigma 1 aggregates to 2.0, not the mean 3.33."""
        layer = GaussianSupportLayer(3, 1)
        layer.W.data = np.ones((1, 3))
        layer.b.data = np.zeros(1)
        layer.log_sigma.data = np.zeros(1)
        out = float(layer.forward(np.array([[0.0, 0.0, 10.0]]))[0, 0])
        ok = abs(out - 2.0) < 1e-5 and abs(out - 10.0 / 3.0) > 1.0
        _report(3, "robust aggregation behavior", ok)


class TestC4RhoArithmetic:
    def test_published_ratios(self):
        ok = abs(robustness_score(87.33, 77.73) - 0.890) < 0.0005
        ok &= abs(robustness_score(52.30, 51.45) - 0.984) < 0.0005
        _report(4, "robustness-score arithmetic", ok)


class TestC5TrainingSmoke:
    def test_threeway_mlp_on_synthetic_blobs(self):
        """threeway-hybrid MLP on 2,000 blob samples: > 80% validation
        accuracy within 10 epochs and under 3 minutes, with the mean
        exponent demonstrably moving off its initialization."""
        t0 = time.perf_counter()
        cfg = ExperimentConfig(
            arch="mlp", aggregation="threeway-hybrid", data="synthetic",
            proj_dim=64, hidden_dim=64, batch_size=128, max_epochs=10, seed=0,
            synthetic_train=2000, synthetic_val=400, synthetic_test=400,
        )
        report = train(cfg)
        elapsed = time.perf_counter() - t0
        best_val = max(row["val_acc"] for row in report.epochs)
        p_shift = abs(report.epochs[-1]["mean_p"] - 1.0)
        ok = best_val > 0.80 and elapsed < 180.0 and p_shift > 1e-3
        print(f"\n  val acc {best_val:.3f}, mean p shift {p_shift:.4f}, {elapsed:.0f}s")
        _report(5, "training smoke test", ok)


def _cifar_dir():
    d = os.environ.get("AGGNET_CIFAR_DIR", "data")
    return d if _batch_dir(d) is not None else None


def test_cifar_probe_needs_all_six_batch_files(tmp_path, monkeypatch):
    """C6 runs only on a directory that the loader can read: a test batch
    with no training batch skips it."""
    monkeypatch.setenv("AGGNET_CIFAR_DIR", str(tmp_path))
    d = tmp_path / "cifar-10-batches-bin"
    d.mkdir()
    (d / "test_batch.bin").touch()
    assert _cifar_dir() is None
    for name in TRAIN_FILES:
        (d / name).touch()
    assert _cifar_dir() == str(tmp_path)


@pytest.mark.cifar
@pytest.mark.slow
class TestC6DeskScaleCifar:
    def test_mlp_variants_on_full_cifar(self):
        """Baseline MLP lands near the published 52.3% clean accuracy and
        all four MLP variants complete with finite, logged trajectories.

        Per-seed determinism of the reports is covered (at tractable
        scale) by TestReportDeterminism in test_experiment.py; repeating
        four full trainings twice here would double a multi-hour run.
        """
        data_dir = _cifar_dir()
        if data_dir is None:
            pytest.skip("CIFAR-10 binaries not found (set AGGNET_CIFAR_DIR)")
        max_epochs = int(os.environ.get("AGGNET_CIFAR_EPOCHS", "60"))
        rows = sweep(
            {
                "archs": ["mlp"],
                "aggregations": ["baseline", "fmean-hybrid", "gaussian-hybrid",
                                 "threeway-hybrid"],
                "seeds": [0],
                "data": "cifar10", "data_dir": data_dir,
                "max_epochs": max_epochs,
            },
            out_dir=os.environ.get("AGGNET_CIFAR_OUT", "cifar_runs"),
            log=print,
        )
        ok = all(r["status"] == "ok" for r in rows)
        for r in rows:
            ok &= r["clean_acc"] is not None and np.isfinite(r["rho"])
        baseline_clean = 100.0 * rows[0]["clean_acc"]
        print(f"\n  baseline clean {baseline_clean:.2f}%")
        ok &= abs(baseline_clean - 52.3) <= 4.0
        _report(6, "desk-scale CIFAR run", ok)


class TestC7StateMachines:
    def test_scripted_traces(self):
        ok = True

        # early stopping: flat trace stops at exactly epoch 11
        stopper = EarlyStopper(patience=10)
        outcomes = [stopper.step(1.0) for _ in range(11)]
        ok &= outcomes == [False] * 10 + [True]

        # scheduler: patience-5 plateau halves both rates once
        groups = [ParamGroup("standard", 1e-3, []), ParamGroup("novel", 1e-2, [])]
        sched = PlateauScheduler(groups, patience=5)
        reduced = [sched.step(0.7) for _ in range(6)]
        ok &= reduced == [False] * 5 + [True]
        ok &= groups[0].learning_rate == pytest.approx(5e-4)
        ok &= groups[1].learning_rate == pytest.approx(5e-3)

        # clipping: post-clip global norm <= 1.0 always
        rng = np.random.default_rng(2)
        for _ in range(50):
            grads = [rng.standard_normal(rng.integers(1, 30)) * rng.uniform(0, 10)
                     for _ in range(rng.integers(1, 5))]
            clipped = clip_global_norm(grads, 1.0)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped))
            ok &= norm <= 1.0 + 1e-12

        _report(7, "optimizer state machines", ok)


class TestC8DataIntegrity:
    def test_round_trip_and_noise_statistics(self, tmp_path):
        ok = True

        # byte-identical loader round-trip
        rng = np.random.default_rng(3)
        from aggnet.data import RECORD_BYTES

        rec = np.zeros((100, RECORD_BYTES), dtype=np.uint8)
        rec[:, 0] = rng.integers(0, 10, size=100)
        rec[:, 1:] = rng.integers(0, 256, size=(100, RECORD_BYTES - 1))
        src = tmp_path / "batch.bin"
        src.write_bytes(rec.tobytes())
        images, labels = load_batch_file(src)
        dst = tmp_path / "resaved.bin"
        save_batch_file(dst, images, labels)
        ok &= dst.read_bytes() == src.read_bytes()

        # noise statistics over more than a million pixels
        clean = np.zeros((330, 3, 32, 32))
        noisy = add_noise(clean, NoiseSpec(sigma_noise=0.15, seed=4))
        delta = noisy - clean
        ok &= delta.size > 1_000_000
        ok &= abs(delta.std() - 0.15) < 0.002
        ok &= abs(delta.mean()) < 0.001

        _report(8, "data integrity", ok)
