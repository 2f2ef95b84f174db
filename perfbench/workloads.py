"""The benchmark's workloads: set-up, one unit of work, and its checks.

Every workload drives aggnet through its public entry points on seeded
synthetic CIFAR-shaped data, so nothing is downloaded.  A unit is one
call a user would make (``experiment.train``, a clean plus a noisy
``experiment.evaluate``, ``gradcheck.run``); the runner repeats units
for the measured time, in one process with one caller (a closed loop).

``unit`` returns the wall seconds of the unit, which covers
``items_per_unit`` items, and the unit's output.  ``check``
returns a list of problems, empty when that output is correct.  At
REFERENCE_SEED the output is compared with reference.json, recorded
from the commit that defined this benchmark; at any other seed only
invariants are checked.  The runner also requires every unit of a run
to repeat the first unit's output, since all of them see the same
inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from aggnet import data, experiment, gradcheck

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Losses may differ from the reference by this share: far above the
# 1e-15 by which a reordered float64 sum moves them through the Adam
# steps of a unit, far below what a wrong gradient term moves them.
# Accuracies are counts of argmax hits and must match exactly.
LOSS_RTOL = 1e-9

NOISE_SIGMA = 0.15
NOISE_SEED = 1234


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads; PAPER is what the benchmark runs."""

    batch: int = 128
    # one training step per epoch, validated on a fifth as many images:
    # the 5:1 train:val ratio of the default protocol (2000:400)
    train: int = 128
    val: int = 26
    # the protocol's test pass runs once per train() call, so it is a
    # larger share of a one-step unit than of a 60-epoch run (see the
    # README); it cannot shrink much, since rho = noisy/clean is
    # undefined if a near-chance model gets no test image right
    test: int = 96
    epochs: int = 1
    width: int | None = None  # aggregation width; None is the paper's
    eval_images: int = 256
    eval_batch: int = 256
    gradcheck_cases: int = 20


PAPER = Sizes()


class TrainWorkload:
    """One ``experiment.train`` call, writing report and checkpoint."""

    def __init__(self, arch, aggregation, seed, sizes, scratch):
        self.sizes = sizes
        self.scratch = scratch
        self.config = experiment.ExperimentConfig(
            arch=arch, aggregation=aggregation, data="synthetic", seed=seed,
            batch_size=sizes.batch, max_epochs=sizes.epochs,
            proj_dim=sizes.width, synthetic_train=sizes.train,
            synthetic_val=sizes.val, synthetic_test=sizes.test,
        )
        self.items_per_unit = sizes.train * sizes.epochs

    def setup(self):
        self.datasets = experiment.load_datasets(self.config)
        self.model = experiment.build_model(self.config)

    def unit(self):
        model = self.model.clone()
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            t0 = time.perf_counter()
            report = experiment.train(self.config, out_dir=out,
                                      datasets=self.datasets, model=model)
            wall = time.perf_counter() - t0
            written = json.loads((Path(out) / "report.json").read_text())
            ckpt_bytes = (Path(out) / "best.ckpt").stat().st_size
        output = {
            "epochs": [{k: row[k] for k in ("train_loss", "val_loss", "val_acc")}
                       for row in report.epochs],
            "clean_accuracy": report.clean_accuracy,
            "noisy_accuracy": report.noisy_accuracy,
            "rho": report.rho,
            "report_json_matches": written["epochs"] == json.loads(json.dumps(report.epochs)),
            "checkpoint_written": ckpt_bytes > 0,
        }
        return wall, output

    def check(self, out, ref=None):
        problems = []
        if len(out["epochs"]) != self.sizes.epochs:
            problems.append(f"{len(out['epochs'])} epochs, expected {self.sizes.epochs}")
        for row in out["epochs"]:
            if not (math.isfinite(row["train_loss"]) and math.isfinite(row["val_loss"])):
                problems.append(f"non-finite loss {row}")
            if not 0.0 <= row["val_acc"] <= 1.0:
                problems.append(f"val_acc outside [0, 1]: {row['val_acc']}")
        problems += _accuracy_problems(out)
        if not out["report_json_matches"]:
            problems.append("report.json does not match the returned report")
        if not out["checkpoint_written"]:
            problems.append("best.ckpt is empty")
        if ref is not None:
            problems += compare(out, ref)
        return problems


class EvalWorkload:
    """Clean then noisy ``experiment.evaluate`` of a seeded threeway MLP."""

    def __init__(self, seed, sizes, scratch):
        self.seed = seed
        self.sizes = sizes
        self.config = experiment.ExperimentConfig(
            arch="mlp", aggregation="threeway-hybrid", seed=seed, proj_dim=sizes.width,
        )
        # a unit is a clean and a noisy pass over the images
        self.items_per_unit = 2 * sizes.eval_images

    def setup(self):
        self.dataset = data.make_synthetic(self.sizes.eval_images, seed=self.seed, split="test")
        self.model = experiment.build_model(self.config)
        model = self.model

        # records each batch's predicted labels; looks the method up on
        # every call so a traced Model.forward is the one that runs
        def forward(x, train=True):
            logits = type(model).forward(model, x, train=train)
            self.predictions.append(np.argmax(logits, axis=1))
            return logits

        model.forward = forward

    def unit(self):
        self.predictions = []
        noise = data.NoiseSpec(sigma_noise=NOISE_SIGMA, seed=NOISE_SEED)
        batch = self.sizes.eval_batch
        t0 = time.perf_counter()
        clean = experiment.evaluate(self.model, self.dataset, "mlp", batch_size=batch)
        noisy = experiment.evaluate(self.model, self.dataset, "mlp", noise=noise, batch_size=batch)
        wall = time.perf_counter() - t0
        labels = np.concatenate(self.predictions).astype(np.int64)
        truth = np.concatenate([self.dataset.labels, self.dataset.labels])
        half = len(self.dataset)
        output = {
            "clean_accuracy": clean,
            "noisy_accuracy": noisy,
            "labels_digest": hashlib.sha256(labels.tobytes()).hexdigest(),
            "recounted": [int(np.sum(labels[:half] == truth[:half])) / half,
                          int(np.sum(labels[half:] == truth[half:])) / half],
        }
        return wall, output

    def check(self, out, ref=None):
        problems = _accuracy_problems(out)
        if out["recounted"] != [out["clean_accuracy"], out["noisy_accuracy"]]:
            problems.append(f"accuracies {out['clean_accuracy']}, {out['noisy_accuracy']} "
                            f"disagree with the predicted labels {out['recounted']}")
        if ref is not None:
            problems += compare(out, ref)
        return problems


class _SplitGenerator:
    """A generator whose integer draws come from a fixed stream.

    The checks draw their shapes (and loss labels) with ``integers`` and
    their values with the other methods.  Fixing the shapes keeps the
    work per run the same at every seed, so the seed changes the values
    checked and not the time a run takes.
    """

    def __init__(self, shapes, values):
        self._shapes = shapes
        self._values = values

    def integers(self, *args, **kwargs):
        return self._shapes.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._values, name)


class GradcheckWorkload:
    """``gradcheck.run(module="all")`` with every check's worst error kept.

    Each check gets a :class:`_SplitGenerator` for its ``rng`` argument,
    passed through the check table ``gradcheck.run`` reads: shapes from a
    stream fixed per check, values from a stream seeded by the workload
    seed.
    """

    def __init__(self, seed, sizes, scratch):
        self.seed = seed
        self.cases = sizes.gradcheck_cases
        self.errors = {}
        n_checks = sum(len(entries) for entries in gradcheck.MODULES.values())
        # instances drawn per run: `cases` per check, three hybrid kinds
        # of `cases` each, and four tiny full models
        self.items_per_unit = (n_checks + 2) * self.cases + 4

    def setup(self):
        pass

    def _recording(self, index, fn):
        seed = self.seed

        @functools.wraps(fn)
        def check(*args, **kwargs):
            kwargs["rng"] = _SplitGenerator(np.random.default_rng(index),
                                            np.random.default_rng([seed, index]))
            err = fn(*args, **kwargs)
            self.errors[fn.__name__[len("check_"):]] = err
            return err

        return check

    def unit(self):
        """One run; the recording checks are swapped in for its duration only."""
        self.errors = {}
        undo = []
        index = 0
        for entries in gradcheck.MODULES.values():
            for i, (label, fn) in enumerate(entries):
                undo.append((entries, i, (label, fn)))
                entries[i] = (label, self._recording(index, fn))
                index += 1
        undo.append((vars(gradcheck), "check_full_model", gradcheck.check_full_model))
        gradcheck.check_full_model = self._recording(index, gradcheck.check_full_model)
        try:
            t0 = time.perf_counter()
            ok = gradcheck.run(module="all", cases=self.cases, log=lambda line: None)
            wall = time.perf_counter() - t0
        finally:
            for container, key, original in reversed(undo):
                container[key] = original
        return wall, {"ok": bool(ok), "errors": dict(self.errors)}

    def check(self, out, ref=None):
        problems = [] if out["ok"] else ["gradcheck.run returned False"]
        for name, err in out["errors"].items():
            if not err <= gradcheck.TOL:
                problems.append(f"gradcheck {name}: worst error {err:.3e} > TOL {gradcheck.TOL:g}")
        if ref is not None and sorted(out["errors"]) != ref["checks"]:
            problems.append(f"checks run {sorted(out['errors'])}, expected {ref['checks']}")
        return problems


WORKLOADS = {
    "mlp-threeway-train": lambda seed, sizes, scratch: TrainWorkload(
        "mlp", "threeway-hybrid", seed, sizes, scratch),
    "mlp-threeway-eval": EvalWorkload,
    "cnn-baseline-train": lambda seed, sizes, scratch: TrainWorkload(
        "cnn", "baseline", seed, sizes, scratch),
    "gradcheck-all": GradcheckWorkload,
}


def make(name, seed, scratch, sizes=PAPER):
    """The workload ``name``; temporary files go under ``scratch``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, sizes, scratch)


def reference_for(name, seed, sizes, path=REFERENCE_PATH):
    """The stored output for this workload at REFERENCE_SEED, else None."""
    if seed != REFERENCE_SEED:
        return None
    entry = json.loads(path.read_text())[name]
    if entry["sizes"] != asdict(sizes):
        raise ValueError(f"{path.name} was recorded at other sizes than {sizes}")
    return entry["output"]


def _accuracy_problems(out):
    """Accuracies in [0, 1], and rho = noisy / clean where the output has rho."""
    problems = []
    clean, noisy = out["clean_accuracy"], out["noisy_accuracy"]
    for key, value in (("clean_accuracy", clean), ("noisy_accuracy", noisy)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{key} outside [0, 1]: {value}")
    if "rho" in out and not math.isclose(out["rho"], noisy / clean, rel_tol=1e-12):
        problems.append(f"rho {out['rho']} != noisy/clean {noisy / clean}")
    return problems


def compare(out, ref, path="output"):
    """Every difference between two outputs; losses may differ by LOSS_RTOL."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys {sorted(out) if isinstance(out, dict) else out} "
                    f"!= {sorted(ref)}"]
        return [p for k in ref for p in compare(out[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: {out} != {ref}"]
        return [p for i, (o, r) in enumerate(zip(out, ref)) for p in compare(o, r, f"{path}[{i}]")]
    if path.endswith("_loss"):
        if not math.isclose(out, ref, rel_tol=LOSS_RTOL, abs_tol=0.0):
            return [f"{path}: {out!r} differs from {ref!r} by more than {LOSS_RTOL:g} relative"]
        return []
    if out != ref:
        return [f"{path}: {out!r} != {ref!r}"]
    return []

