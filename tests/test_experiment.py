"""Model assembly, the training protocol, metrics and the sweep."""

import csv
import dataclasses
import json
import math
import os
import re
import typing

import numpy as np
import pytest

from aggnet.aggregation import FMeanLayer, GaussianSupportLayer
from aggnet.experiment import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    TrainingDiverged,
    build_model,
    evaluate,
    format_results_table,
    load_datasets,
    param_summary,
    robustness_score,
    sweep,
    train,
)
from aggnet.gradcheck import check_full_model
from aggnet.model import AGGREGATION_KINDS, ARCHS, aggregation_layer


def tiny_config(**kw):
    base = dict(
        arch="mlp", aggregation="baseline", data="synthetic",
        proj_dim=8, hidden_dim=8, batch_size=32, max_epochs=2, seed=0,
        synthetic_train=120, synthetic_val=40, synthetic_test=40,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def param_total(model):
    return sum(p.data.size for p in model.parameters())


class TestConfigFromDict:
    @pytest.mark.parametrize("kw", [
        {},
        {"arch": "cnn", "aggregation": "threeway-hybrid"},
        {"aggregation": "fmean-hybrid", "lr_novel": 1, "sched_min_lr": 0},
        {"aggregation": "gaussian-hybrid", "proj_dim": 16, "hidden_dim": 4},
    ])
    def test_round_trip(self, kw):
        cfg = tiny_config(**kw)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_int_for_float_and_null_for_optional(self):
        """A float field takes an int; an ``int | None`` field takes null."""
        cfg = ExperimentConfig.from_dict({"lr_novel": 1, "proj_dim": None})
        assert cfg.lr_novel == 1 and cfg.proj_dim == 128 and cfg.hidden_dim == 128

    @pytest.mark.parametrize("field, value", [
        ("proj_dim", "8"), ("max_epochs", "2"), ("max_epochs", 2.0),
        ("lr_novel", True), ("seed", False), ("arch", 1), ("data_dir", None),
    ])
    def test_wrong_type_refused(self, field, value):
        """An int field takes only an int, a str field only a str, and a
        bool is never a number; the message names the field and value."""
        with pytest.raises(ValueError, match=f"config field {field} must be .*{value!r}"):
            ExperimentConfig.from_dict({field: value})

    @pytest.mark.parametrize("build", [
        ExperimentConfig, lambda **kw: dataclasses.replace(tiny_config(), **kw),
    ], ids=["init", "replace"])
    @pytest.mark.parametrize("field, value", [
        ("seed", True), ("proj_dim", 8.0), ("lr_standard", "1e-3"), ("data_dir", 3),
        ("max_epochs", 2.5),
    ])
    def test_wrong_type_refused_outside_from_dict(self, build, field, value):
        """A config built in code or by ``dataclasses.replace`` meets the
        same type rules as one read from JSON."""
        with pytest.raises(ValueError, match=re.escape(f"config field {field} must be ")
                           + f".*{re.escape(repr(value))}"):
            build(**{field: value})


class TestBuildModel:
    def test_baseline_mlp_parameter_count(self):
        """Arithmetic oracle: 3072*128+128 + 128*128+128 + 128*10+10."""
        expected = 3072 * 128 + 128 + 128 * 128 + 128 + 128 * 10 + 10
        assert expected == 411_146
        cfg = ExperimentConfig(arch="mlp", aggregation="baseline")
        assert param_total(build_model(cfg)) == expected

    def test_fmean_hybrid_adds_exactly_256_novel_parameters(self):
        """128 p entries plus 128 alpha_raw entries over the baseline."""
        base = build_model(ExperimentConfig(arch="mlp", aggregation="baseline"))
        hyb = build_model(ExperimentConfig(arch="mlp", aggregation="fmean-hybrid"))
        assert param_total(hyb) - param_total(base) == 256

    def test_threeway_has_five_novel_parameters_per_unit(self):
        """Per unit: p, log_sigma and three alpha_raw entries."""
        model = build_model(tiny_config(aggregation="threeway-hybrid", hidden_dim=8))
        novel = sum(p.data.size for p in model.parameters() if p.tag == "novel")
        assert novel == 5 * 8

    def test_cnn_flatten_width(self):
        from aggnet.model import CNN_FLAT

        assert CNN_FLAT == 8192

    @pytest.mark.parametrize("arch, aggregation",
                             [(a, g) for a in ARCHS for g in AGGREGATION_KINDS])
    def test_cnn_composes_at_native_resolution(self, arch, aggregation):
        """One forward/backward step through the full stack at 32x32: the
        conv extractor must hand exactly 8192 features to the projection,
        and one backward gives every parameter of either architecture, with
        any aggregation, a grad (Adam steps over all of them).  The model
        backward returns no input gradient: nothing reads it."""
        from aggnet.layers import softmax_xent

        cfg = ExperimentConfig(arch=arch, aggregation=aggregation,
                               proj_dim=16, hidden_dim=16)
        model = build_model(cfg)
        x = np.random.default_rng(0).random((2, 3, 32, 32))
        if arch == "mlp":
            x = x.reshape(2, -1)
        logits = model.forward(x, train=True)
        assert logits.shape == (2, 10)
        _, dlogits = softmax_xent(logits, np.array([1, 7]))
        assert model.backward(dlogits) is None
        assert all(p.grad is not None for p in model.parameters())

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(arch="rnn")
        with pytest.raises(ValueError):
            ExperimentConfig(aggregation="median")
        with pytest.raises(ValueError):
            ExperimentConfig(proj_dim=0)

    def test_baseline_has_no_novel_group(self):
        model = build_model(tiny_config())
        assert all(p.tag == "standard" for p in model.parameters())

    def test_end_to_end_gradcheck_every_aggregation(self):
        """Tiny full models pass FD checks on every parameter at 1e-4."""
        assert check_full_model() < 1e-4


class TestTraining:
    def test_zero_learning_rate_freezes_parameters(self):
        cfg = tiny_config(lr_standard=0.0, lr_novel=0.0,
                          aggregation="fmean-hybrid", max_epochs=3)
        model = build_model(cfg)
        before = [p.data.copy() for p in model.parameters()]
        train(cfg, model=model, datasets=load_datasets(cfg))
        for b, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(b, p.data)

    def test_one_epoch_reduces_loss(self):
        """A single epoch on separable blobs beats the initial loss."""
        cfg = tiny_config(max_epochs=1, synthetic_train=240)
        datasets = load_datasets(cfg)
        model = build_model(cfg)
        from aggnet.experiment import validation_loss

        initial, _ = validation_loss(model, datasets[0], cfg.arch)
        report = train(cfg, model=model, datasets=datasets)
        assert report.epochs[0]["train_loss"] < initial

    def test_flat_validation_stops_at_epoch_eleven(self):
        """Frozen parameters give a flat metric; patience 10 stops at 11."""
        cfg = tiny_config(lr_standard=0.0, lr_novel=0.0, max_epochs=40)
        report = train(cfg)
        assert report.stopped_early
        assert len(report.epochs) == 11

    def test_divergence_aborts_with_diagnostics(self):
        cfg = tiny_config()
        model = build_model(cfg)
        model.parameters()[0].data[0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(cfg, model=model)
        assert "at epoch 1, batch 0 (seed 0)" in str(err.value)

    def test_overflowing_gradient_norm_aborts_with_diagnostics(self, monkeypatch):
        """Finite gradients whose global norm overflows stop the run, where a
        clip by max_norm / inf would have zeroed the step."""
        cfg = tiny_config()
        model = build_model(cfg)
        backward, first = model.backward, model.parameters()[0]

        def huge_backward(dlogits):
            out = backward(dlogits)
            first.grad = np.full_like(first.data, 1e200)
            return out

        monkeypatch.setattr(model, "backward", huge_backward)
        with pytest.raises(TrainingDiverged, match="overflows: inf at epoch 1, batch 0 "):
            train(cfg, model=model)

    def test_best_checkpoint_restored_for_final_eval(self):
        cfg = tiny_config(max_epochs=4, aggregation="fmean-hybrid")
        report = train(cfg)
        assert report.best_epoch is not None
        assert 1 <= report.best_epoch <= 4

    def test_learning_rates_logged_per_epoch(self):
        cfg = tiny_config(max_epochs=2)
        report = train(cfg)
        assert [row["lr_standard"] for row in report.epochs] == [1e-3, 1e-3]

    def test_outputs_written(self, tmp_path):
        cfg = tiny_config(max_epochs=1)
        train(cfg, out_dir=tmp_path)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "best.ckpt").exists()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "epoch", "train_loss", "val_loss", "val_acc",
            "lr_standard", "lr_novel", "mean_p", "mean_sigma", "mean_alpha",
        ]

    @pytest.mark.parametrize("name", ["report.json", "metrics.csv", "best.ckpt"])
    def test_failed_move_keeps_earlier_run_files(self, tmp_path, monkeypatch, name):
        """Each run file is written to a temporary file and moved into
        place; when the move fails, the earlier file stays whole."""
        train(tiny_config(max_epochs=1), out_dir=tmp_path)
        files = ["best.ckpt", "metrics.csv", "report.json"]
        old = {f: (tmp_path / f).read_bytes() for f in files}
        real_replace = os.replace

        def replace(src, dst):
            assert os.path.getsize(src) > 0  # the temporary file was written
            if os.path.basename(dst) == name:
                raise OSError("move refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="move refused"):
            train(tiny_config(max_epochs=1, aggregation="fmean-hybrid", seed=1),
                  out_dir=tmp_path)
        assert (tmp_path / name).read_bytes() == old[name]
        assert sorted(p.name for p in tmp_path.iterdir()) == files


class TestBaselineEquivalence:
    def test_saturated_hybrid_tracks_baseline(self):
        """alpha_raw = -40 with frozen novel params reproduces the
        baseline loss trajectory step for step."""
        base_cfg = tiny_config(max_epochs=5)
        hyb_cfg = tiny_config(max_epochs=5, aggregation="fmean-hybrid", lr_novel=0.0)

        base_model = build_model(base_cfg)
        hyb_model = build_model(hyb_cfg)
        agg = aggregation_layer(hyb_model)
        agg.alpha_raw.data[:] = -40.0
        np.testing.assert_array_equal(agg.W.data,
                                      base_model.layers[2].W.data)

        datasets = load_datasets(base_cfg)
        base_rep = train(base_cfg, model=base_model, datasets=datasets)
        hyb_rep = train(hyb_cfg, model=hyb_model, datasets=datasets)
        for a, b in zip(base_rep.epochs, hyb_rep.epochs):
            assert abs(a["train_loss"] - b["train_loss"]) < 1e-6
            assert abs(a["val_loss"] - b["val_loss"]) < 1e-6


class TestLoadDatasets:
    def test_cifar_source_splits_train_val_test(self, tmp_path):
        from test_data import write_fake_batch

        for i in range(1, 6):
            write_fake_batch(tmp_path / f"data_batch_{i}.bin", 20, seed=i)
        write_fake_batch(tmp_path / "test_batch.bin", 10, seed=9)
        cfg = tiny_config(data="cifar10", data_dir=str(tmp_path), val_size=25)
        train_ds, val_ds, test_ds = load_datasets(cfg)
        assert len(train_ds) == 75 and len(val_ds) == 25 and len(test_ds) == 10

    def test_unknown_source_rejected(self):
        """A checked config cannot be given an unknown source afterwards:
        it is frozen, so load_datasets never meets one."""
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.data = "mnist"


class TestEvaluate:
    def test_constant_predictor_is_chance_level(self):
        cfg = tiny_config()
        model = build_model(cfg)
        head = model.layers[-1]
        head.W.data[:] = 0.0
        head.b.data[:] = 0.0
        head.b.data[3] = 10.0  # always predicts class 3
        _, _, test = load_datasets(cfg)
        acc = evaluate(model, test, cfg.arch)
        expected = float(np.mean(test.labels == 3))
        assert acc == pytest.approx(expected, abs=1e-12)
        assert abs(acc - 0.1) < 0.05  # balanced 10-class data

    def test_zero_sigma_noise_equals_clean(self):
        from aggnet.data import NoiseSpec

        cfg = tiny_config()
        model = build_model(cfg)
        _, _, test = load_datasets(cfg)
        clean = evaluate(model, test, cfg.arch)
        noisy = evaluate(model, test, cfg.arch, noise=NoiseSpec(sigma_noise=0.0, seed=3))
        assert clean == noisy

    def test_same_noise_seed_is_deterministic(self):
        from aggnet.data import NoiseSpec

        cfg = tiny_config()
        model = build_model(cfg)
        _, _, test = load_datasets(cfg)
        spec = NoiseSpec(sigma_noise=0.15, seed=7)
        assert evaluate(model, test, cfg.arch, noise=spec) == evaluate(
            model, test, cfg.arch, noise=spec
        )


class TestRobustnessScore:
    def test_published_cnn_ratio(self):
        """Accuracies 87.33 and 77.73 give 0.890."""
        assert robustness_score(87.33, 77.73) == pytest.approx(0.890, abs=0.0005)

    def test_published_mlp_ratio(self):
        """Accuracies 52.30 and 51.45 give 0.984."""
        assert robustness_score(52.30, 51.45) == pytest.approx(0.984, abs=0.0005)

    def test_equal_accuracies(self):
        assert robustness_score(0.42, 0.42) == 1.0

    def test_scale_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, k = rng.uniform(0.01, 1.0, size=3)
            assert robustness_score(k * a, k * b) == pytest.approx(
                robustness_score(a, b), rel=1e-12
            )

    def test_zero_clean_rejected(self):
        """A clean accuracy of 0 leaves rho undefined: None, not a number."""
        assert robustness_score(0.0, 0.1) is None


class TestParamSummary:
    def test_fresh_fmean_hybrid(self):
        """New layers report mean p = 1.0 and mean blend = 0.5 exactly."""
        model = build_model(tiny_config(aggregation="fmean-hybrid"))
        s = param_summary(model)
        assert s["p"]["mean"] == 1.0
        assert s["alpha"]["mean"] == 0.5
        assert "sigma" not in s

    def test_fresh_threeway_blends(self):
        model = build_model(tiny_config(aggregation="threeway-hybrid"))
        s = param_summary(model)
        assert s["blend"]["linear"]["mean"] == pytest.approx(1 / 3, abs=1e-15)
        assert s["blend"]["fmean"]["mean"] == pytest.approx(1 / 3, abs=1e-15)
        assert s["blend"]["gaussian"]["mean"] == pytest.approx(1 / 3, abs=1e-15)
        assert s["alpha"]["mean"] == pytest.approx(2 / 3, abs=1e-15)
        assert s["sigma"]["mean"] == 1.0

    def test_baseline_summary_empty(self):
        assert param_summary(build_model(tiny_config())) == {}

    def test_single_path_slots(self):
        """Single-path layers have no blend, so no alpha is reported."""
        model = build_model(tiny_config())
        model.layers[2] = FMeanLayer(8, 8, np.random.default_rng(0))
        s = param_summary(model)
        assert s["kind"] == "fmean" and s["p"]["mean"] == 1.0
        assert "alpha" not in s and "sigma" not in s and "blend" not in s
        model.layers[2] = GaussianSupportLayer(8, 8, np.random.default_rng(0))
        s = param_summary(model)
        assert s["kind"] == "gaussian" and s["sigma"]["mean"] == 1.0
        assert "alpha" not in s and "p" not in s

    def test_train_with_single_path_slot(self):
        cfg = tiny_config(aggregation="fmean-hybrid", max_epochs=1)
        model = build_model(cfg)
        model.layers[2] = FMeanLayer(8, 8, np.random.default_rng(0))
        row = train(cfg, model=model).epochs[0]
        assert row["mean_p"] is not None
        assert row["mean_alpha"] is None and row["mean_sigma"] is None


class TestReportDeterminism:
    def test_two_runs_agree_number_for_number(self):
        """Config + seed fully determine the report (wall-clock aside)."""
        cfg = tiny_config(aggregation="gaussian-hybrid", max_epochs=2)
        a = train(cfg).to_dict()
        b = train(cfg).to_dict()
        a.pop("wall_clock_sec")
        b.pop("wall_clock_sec")
        assert a == b


class TestSweep:
    def test_four_aggregations_one_arch(self, tmp_path):
        matrix = {
            "archs": ["mlp"],
            "aggregations": ["baseline", "fmean-hybrid", "gaussian-hybrid",
                             "threeway-hybrid"],
            "seeds": [0],
            "data": "synthetic", "proj_dim": 8, "hidden_dim": 8,
            "batch_size": 32, "max_epochs": 1,
            "synthetic_train": 96, "synthetic_val": 32, "synthetic_test": 32,
        }
        rows = sweep(matrix, out_dir=tmp_path)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["clean_acc"] is not None for r in rows)
        baseline = rows[0]
        assert baseline["mean_p"] is None and baseline["mean_alpha"] is None
        threeway = rows[3]
        assert threeway["mean_p"] is not None and threeway["mean_sigma"] is not None
        assert (tmp_path / "sweep.csv").exists()
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert len(saved) == 4

    def test_sweep_deterministic(self):
        matrix = {
            "archs": ["mlp"], "aggregations": ["fmean-hybrid"], "seeds": [3],
            "data": "synthetic", "proj_dim": 8, "hidden_dim": 8,
            "batch_size": 32, "max_epochs": 1,
            "synthetic_train": 96, "synthetic_val": 32, "synthetic_test": 32,
        }
        a = sweep(matrix)
        b = sweep(matrix)
        assert a == b

    def test_zero_clean_accuracy_row(self, tmp_path):
        """A row whose one test sample is misclassified is ok with rho null,
        and the results table prints ``--`` for it."""
        matrix = {"archs": ["mlp"], "aggregations": ["baseline"], "seeds": [0],
                  "proj_dim": 8, "hidden_dim": 8, "max_epochs": 1, "lr_standard": 0.0,
                  "lr_novel": 0.0, "synthetic_train": 96, "synthetic_val": 32,
                  "synthetic_test": 1}
        (row,) = sweep(matrix, out_dir=tmp_path)
        assert row["status"] == "ok"
        assert row["clean_acc"] == 0.0 and row["rho"] is None
        assert format_results_table([row]).splitlines()[1].split()[-1] == "--"

    @pytest.mark.slow
    def test_eight_row_full_matrix(self, tmp_path):
        """4 aggregations x 2 architectures produce 8 result rows."""
        matrix = {
            "aggregations": ["baseline", "fmean-hybrid", "gaussian-hybrid",
                             "threeway-hybrid"],
            "seeds": [0],
            "data": "synthetic", "proj_dim": 8, "hidden_dim": 8,
            "batch_size": 32, "max_epochs": 1,
            "synthetic_train": 64, "synthetic_val": 32, "synthetic_test": 32,
        }
        rows = sweep(matrix, out_dir=tmp_path)
        assert len(rows) == 8
        assert {r["arch"] for r in rows} == {"mlp", "cnn"}
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("name", ["sweep.csv", "sweep.json"])
    def test_failed_move_keeps_earlier_sweep_files(self, tmp_path, monkeypatch, name):
        matrix = {
            "archs": ["mlp"], "aggregations": ["baseline"], "seeds": [0],
            "data": "synthetic", "proj_dim": 8, "hidden_dim": 8,
            "batch_size": 32, "max_epochs": 1,
            "synthetic_train": 96, "synthetic_val": 32, "synthetic_test": 32,
        }
        sweep(matrix, out_dir=tmp_path)
        old = (tmp_path / name).read_bytes()
        listing = sorted(p.name for p in tmp_path.iterdir())
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == name:
                raise OSError("move refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="move refused"):
            sweep({**matrix, "seeds": [5]}, out_dir=tmp_path)
        assert (tmp_path / name).read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            listing + ["mlp-baseline-seed5"])

    def test_failed_run_recorded_and_sweep_continues(self, tmp_path):
        """The failed row keeps its traceback in ``sweep.json`` and in its run
        directory's ``error.txt``; ``sweep.csv`` keeps its columns."""
        matrix = {
            "archs": ["mlp"], "aggregations": ["not-a-kind", "baseline"],
            "seeds": [0], "data": "synthetic", "proj_dim": 8, "hidden_dim": 8,
            "batch_size": 32, "max_epochs": 1,
            "synthetic_train": 96, "synthetic_val": 32, "synthetic_test": 32,
        }
        rows = sweep(matrix, out_dir=tmp_path)
        assert rows[0]["status"].startswith("error:")
        assert rows[1]["status"] == "ok"
        failed = rows[0]["traceback"]
        assert failed.startswith("Traceback (most recent call last):")
        assert "from_dict" in failed
        assert failed.rstrip().endswith(rows[0]["status"][len("error: "):])
        assert rows[1]["traceback"] is None
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert [r["traceback"] for r in saved] == [failed, None]
        assert (tmp_path / "mlp-not-a-kind-seed0" / "error.txt").read_text() == failed
        assert not (tmp_path / "mlp-baseline-seed0" / "error.txt").exists()
        with open(tmp_path / "sweep.csv", newline="") as f:
            assert next(csv.reader(f)) == SWEEP_COLUMNS

    def test_wrong_type_override_recorded_per_row(self):
        """Each row's config goes through ``from_dict``, so a wrongly typed
        override is one failed row per combination, naming the field."""
        matrix = {"archs": ["mlp"], "aggregations": ["baseline", "fmean-hybrid"],
                  "seeds": [0], "data": "synthetic", "proj_dim": "8"}
        rows = sweep(matrix)
        assert len(rows) == 2
        assert all(r["status"].startswith("error: config field proj_dim") for r in rows)


class TestCLI:
    def test_train_eval_round_trip(self, tmp_path, capsys):
        from aggnet.cli import main

        cfg = tiny_config(max_epochs=1).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", str(out / "best.ckpt"),
                     "--noise-sigma", "0.15"]) == 0
        captured = capsys.readouterr().out
        assert "rho" in captured

    def test_eval_rejected_checkpoint(self, tmp_path, capsys):
        """A damaged checkpoint exits 2 with one line naming the file and
        the reason, not a traceback."""
        from aggnet.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(max_epochs=1).to_dict()))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        ckpt = out / "best.ckpt"
        ckpt.write_bytes(ckpt.read_bytes() + b"\0\0\0\0")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(ckpt) in err[0] and "trailing data" in err[0]

    def test_gradcheck_verb(self, capsys):
        from aggnet.cli import main

        assert main(["gradcheck", "--module", "fmean", "--cases", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_gradcheck_without_cases_refused(self, cases, capsys):
        """A gradcheck of no cases checks nothing, so it may not pass."""
        from aggnet import gradcheck
        from aggnet.cli import main

        with pytest.raises(ValueError, match="at least 1 case"):
            gradcheck.run(module="layers", cases=int(cases), log=lambda line: None)
        assert main(["gradcheck", "--module", "layers", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and cases in err[0]

    @pytest.mark.parametrize("text, reason", [
        ('{"arch": "mlp", "resume_from": "old"}', "unknown config fields: resume_from"),
        ('{"arch": "mlp",', "Expecting"),
        ('{"arch": "rnn"}', "arch must be one of"),
        ('["mlp"]', "must be a JSON object"),
    ])
    def test_train_rejected_config(self, tmp_path, capsys, text, reason):
        """An unknown field, malformed JSON, a bad value or a non-object
        exits 2 with one line naming the file and the reason."""
        from aggnet.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(cfg_path) in err[0] and reason in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("echo, reason", [
        ({"resume_from": "old"}, "unknown config fields: resume_from"),
        (None, "must be a JSON object"),
    ])
    def test_eval_rejected_config_echo(self, tmp_path, capsys, echo, reason):
        """A checkpoint whose config echo holds an unknown field, or is not
        an object, exits 2 with one line, not a traceback."""
        from aggnet.checkpoint import save_checkpoint
        from aggnet.cli import main

        cfg = tiny_config()
        config = {**cfg.to_dict(), **echo} if echo else list(cfg.to_dict())
        ckpt = tmp_path / "best.ckpt"
        save_checkpoint(build_model(cfg), ckpt, extra={"config": config})
        assert main(["eval", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and reason in err[0]

    @staticmethod
    def _refused(argv, capsys, *names):
        """``main(argv)`` exits 2 with one stderr line naming each of names;
        returns what it printed to stdout."""
        from aggnet.cli import main

        assert main(argv) == 2
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        for name in names:
            assert name in lines[0]
        return out

    @pytest.mark.parametrize("override, names", [
        (None, ["cfg.json", "No such file"]),
        ({"proj_dim": "8"}, ["cfg.json", "proj_dim", "'8'"]),
        ({"max_epochs": "2"}, ["cfg.json", "max_epochs", "'2'"]),
        ({"lr_novel": True}, ["cfg.json", "lr_novel", "True"]),
        ({"data": "cifar10", "data_dir": "empty"}, ["data_batch_1.bin", "No such file"]),
        ({"noise_sigma": -0.15}, ["cfg.json", "noise_sigma", "-0.15"]),
        ({"noise_seed": -1}, ["cfg.json", "noise_seed", "-1"]),
        ({"eps": 0.0}, ["cfg.json", "eps", "0.0"]),
        ({"eps": -1.0}, ["cfg.json", "eps", "-1.0"]),
        ({"clip_norm": -1.0}, ["cfg.json", "clip_norm", "-1.0"]),
        ({"clip_norm": 0}, ["cfg.json", "clip_norm", "0"]),
        ({"sched_factor": 3.0}, ["cfg.json", "sched_factor", "3.0"]),
        ({"sched_factor": 0.0}, ["cfg.json", "sched_factor", "0.0"]),
        ({"classes": 0}, ["cfg.json", "classes", "0"]),
        ({"classes": 1}, ["cfg.json", "classes", "1"]),
        ({"classes": 11}, ["cfg.json", "classes", "11"]),
        ({"max_epochs": 0}, ["cfg.json", "max_epochs", "0"]),
        ({"early_stop_patience": -1}, ["cfg.json", "early_stop_patience", "-1"]),
        ({"sched_patience": -3}, ["cfg.json", "sched_patience", "-3"]),
        ({"data": "imagenet"}, ["cfg.json", "data", "'imagenet'"]),
        ({"batch_size": 0}, ["cfg.json", "batch_size", "0"]),
        ({"val_size": 0}, ["cfg.json", "val_size", "0"]),
        ({"synthetic_val": 0}, ["cfg.json", "synthetic_val", "0"]),
        ({"synthetic_sigma": -0.1}, ["cfg.json", "synthetic_sigma", "-0.1"]),
        ({"lr_standard": -0.001}, ["cfg.json", "lr_standard", "-0.001"]),
        ({"lr_novel": -0.5}, ["cfg.json", "lr_novel", "-0.5"]),
        ({"sched_min_delta": -1.0}, ["cfg.json", "sched_min_delta", "-1.0"]),
        ({"sched_min_lr": -1.0}, ["cfg.json", "sched_min_lr", "-1.0"]),
        ({"seed": -1}, ["cfg.json", "seed", "-1"]),
    ] + [({name: math.nan}, ["cfg.json", name, "nan"])
         for name, hint in typing.get_type_hints(ExperimentConfig).items() if hint is float]
      + [({name: value}, ["cfg.json", name, repr(value)])
         for name, hint in typing.get_type_hints(ExperimentConfig).items() if hint is float
         for value in (math.inf, -math.inf)]
      + [({"data": "cifar10", "data_dir": "empty", "classes": 5},
          ["cfg.json", "classes", "5", "cifar10"]),
         ({"lr_novel": 10**400}, ["cfg.json", "lr_novel", "finite"])])
    def test_train_refused_input(self, tmp_path, capsys, monkeypatch, override, names):
        """A missing config file, a wrongly typed field, a CIFAR-10 config
        without its batch files, a negative noise width or seed, a
        non-positive eps or clip norm, a plateau factor outside (0, 1], a
        class count outside [2, 10], no epochs, a negative patience, an
        unknown data source, a batch size, validation size or synthetic
        split size of 0, a negative synthetic blob width, learning rate,
        plateau delta, rate floor or seed, NaN, Infinity or -Infinity in
        any float field, a CIFAR-10 config with other than 10 classes, and
        an integer too large for a float field each exit 2 with one line,
        before the first epoch and before any data is read; a refused field
        is named together with its file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        if override is not None:
            (tmp_path / "cfg.json").write_text(
                json.dumps({**tiny_config(max_epochs=1).to_dict(), **override}))
        out = self._refused(["train", "--config", "cfg.json", "--out", "run"], capsys, *names)
        assert "epoch" not in out
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_diverged_run_aborted(self, tmp_path, capsys):
        """A step that overflows the weights aborts the run with one line
        naming the epoch and batch, and writes no run files."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**tiny_config(max_epochs=1, batch_size=16).to_dict(), "lr_standard": 1e300}))
        out = tmp_path / "run"
        self._refused(["train", "--config", str(cfg_path), "--out", str(out)], capsys,
                      "run aborted:", "at epoch 1, batch 1")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_diverged_in_validation(self, tmp_path, capsys):
        """With one step per epoch, a step that overflows the weights first
        shows in validation: the run aborts with one line naming the epoch
        and validation, not as rejected input."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**tiny_config(max_epochs=1, batch_size=120).to_dict(), "lr_standard": 1e300}))
        out = tmp_path / "run"
        self._refused(["train", "--config", str(cfg_path), "--out", str(out)], capsys,
                      "run aborted:", "epoch 1", "in validation")
        assert not out.exists()

    def test_zero_clean_accuracy_still_writes_the_run(self, tmp_path, capsys):
        """A clean accuracy of 0 leaves rho undefined: train records null,
        writes all three run files, and train and eval print ``--``."""
        from aggnet.cli import main

        cfg = tiny_config(max_epochs=1, synthetic_test=1, lr_standard=0.0, lr_novel=0.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["clean_accuracy"] == 0.0 and report["rho"] is None
        assert sorted(os.listdir(out)) == ["best.ckpt", "metrics.csv", "report.json"]
        assert main(["eval", "--checkpoint", str(out / "best.ckpt"),
                     "--noise-sigma", "0.15"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "rho --" in printed[-3] and printed[-1] == "clean 0.00%  rho --"

    def test_eval_reproduces_the_run_noise(self, tmp_path, capsys):
        """Without --noise-seed, eval at the config's noise sigma draws the
        run's own noise: it prints the report's noisy accuracy and rho."""
        from aggnet.cli import main

        cfg = tiny_config(noise_seed=7, noise_sigma=2.0, synthetic_test=400)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "best.ckpt"),
                     "--noise-sigma", "2.0"]) == 0
        noisy, clean = capsys.readouterr().out.splitlines()
        assert noisy.startswith(f"accuracy {100 * report['noisy_accuracy']:.2f}%")
        assert clean == (f"clean {100 * report['clean_accuracy']:.2f}%  "
                         f"rho {report['rho']:.3f}")

    @pytest.mark.parametrize("flag, value", [("--noise-sigma", "-0.5"), ("--noise-seed", "-1"),
                                             ("--noise-sigma", "inf")])
    def test_eval_refused_noise(self, tmp_path, capsys, flag, value):
        """A negative noise width or seed, or an infinite noise width, on the
        command line is refused by the config's own check: exit 2, one line,
        nothing evaluated."""
        from aggnet.checkpoint import save_checkpoint

        cfg = tiny_config()
        ckpt = tmp_path / "best.ckpt"
        save_checkpoint(build_model(cfg), ckpt, extra={"config": cfg.to_dict()})
        name = flag[2:].replace("-", "_")
        out = self._refused(["eval", "--checkpoint", str(ckpt), flag, value], capsys, name, value)
        assert out == ""

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "best.ckpt"
        self._refused(["eval", "--checkpoint", str(ckpt)], capsys, str(ckpt), "No such file")

    @pytest.mark.parametrize("text, names", [
        (None, ["matrix.json", "No such file"]),
        ('{"archs": ["mlp"],', ["matrix.json", "Expecting"]),
        ('["mlp"]', ["matrix", "JSON object", "list"]),
        ('{"seeds": 3}', ["seeds", "must be a list", "3"]),
        ('{"arch": "cnn"}', ["arch", "archs"]),
        ('{"seeds": [0, 1, 0]}', ["seeds", "repeats", "0"]),
        ('{"archs": ["mlp", "mlp"]}', ["archs", "repeats", "'mlp'"]),
        ('{"aggregations": ["baseline", "baseline"]}', ["aggregations", "repeats", "'baseline'"]),
        ('{"archs": []}', ["archs", "empty"]),
        ('{"aggregations": []}', ["aggregations", "empty"]),
        ('{"seeds": []}', ["seeds", "empty"]),
    ])
    def test_sweep_refused_matrix(self, tmp_path, capsys, monkeypatch, text, names):
        """A missing, malformed or non-object matrix, a non-list or empty
        axis, a field the axes set, or an axis that repeats a value (its rows
        would share one run directory) exits 2 with one line before any row
        runs."""
        monkeypatch.setattr("aggnet.experiment.train",
                            lambda *a, **kw: pytest.fail("a sweep row ran"))
        mpath = tmp_path / "matrix.json"
        if text is not None:
            mpath.write_text(text)
        out = tmp_path / "s"
        self._refused(["sweep", "--matrix", str(mpath), "--out", str(out)], capsys, *names)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--sha256", "abc"], ["--sha256", ""],
                                       ["--sha256", "ab" * 32 + "a"], ["--sha256", "xy" * 32]])
    def test_fetch_data_refused_flags(self, tmp_path, capsys, monkeypatch, flags):
        """A digest that is not 64 hex digits (too short, empty, too long,
        not hex) exits 2 with one line naming it, before any download or
        directory."""
        monkeypatch.setattr("urllib.request.urlretrieve",
                            lambda *a, **kw: pytest.fail("a download started"))
        dest = tmp_path / "data"
        out = self._refused(["fetch-data", "--dir", str(dest), *flags], capsys,
                            "sha256", "64 hex digits", repr(flags[1]))
        assert out == "" and not dest.exists()

    def test_sweep_verb(self, tmp_path):
        from aggnet.cli import main

        matrix = {
            "archs": ["mlp"], "aggregations": ["baseline"], "seeds": [0],
            "data": "synthetic", "proj_dim": 8, "hidden_dim": 8,
            "batch_size": 32, "max_epochs": 1,
            "synthetic_train": 96, "synthetic_val": 32, "synthetic_test": 32,
        }
        mpath = tmp_path / "matrix.json"
        mpath.write_text(json.dumps(matrix))
        assert main(["sweep", "--matrix", str(mpath), "--out", str(tmp_path / "s")]) == 0
