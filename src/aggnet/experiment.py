"""Experiment harness: configuration, training loop, evaluation metrics
and the configuration sweep.

A run trains one (architecture, aggregation) pair with grouped Adam,
global-norm clipping, plateau LR reduction and early stopping, restores
the best-validation parameters, then evaluates the clean and the
noise-corrupted test set.  The robustness score is the ratio of the two
accuracies.  Everything that varies is derived from the config and its
seed, so reports are reproducible number for number (wall-clock aside).
"""

from __future__ import annotations

import csv
import json
import sys
import time
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from .aggregation import EPS
from .checkpoint import atomic_open, save_checkpoint
from .layers import softmax_xent
from .model import (
    AGGREGATION_KINDS,
    ARCHS,
    Model,
    aggregation_layer,
    build_cnn,
    build_mlp,
)
from .ops import InvalidValueError
from .optim import Adam, EarlyStopper, NonFiniteGradient, PlateauScheduler, build_param_groups

EVAL_BATCH = 256  # rows per uncached forward pass in evaluation and validation
DATA_SOURCES = ("cifar10", "synthetic")


class TrainingDiverged(RuntimeError):
    """Loss or a gradient became non-finite; the message names the epoch,
    the batch or validation, and the seed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, immutable.  Every construction (``from_dict``, a direct call,
    ``dataclasses.replace``) checks each field by name: first its type, then its range."""

    arch: str = "mlp"
    aggregation: str = "baseline"
    data: str = "synthetic"
    data_dir: str = "data"
    batch_size: int = 128
    max_epochs: int = 60
    seed: int = 0
    proj_dim: int | None = None  # defaults: 128 (mlp) / 256 (cnn)
    hidden_dim: int | None = None
    classes: int = 10
    lr_standard: float = 1e-3
    lr_novel: float = 1e-2
    clip_norm: float = 1.0
    sched_factor: float = 0.5
    sched_patience: int = 5
    sched_min_delta: float = 1e-4
    sched_min_lr: float = 1e-6
    early_stop_patience: int = 10
    eps: float = EPS
    noise_sigma: float = 0.15
    noise_seed: int = 1234
    val_size: int = 5000
    synthetic_train: int = 2000
    synthetic_val: int = 400
    synthetic_test: int = 400
    synthetic_sigma: float = 0.08

    def __post_init__(self):
        for name, hint in typing.get_type_hints(type(self)).items():
            value, types = getattr(self, name), typing.get_args(hint) or (hint,)
            real = float in types  # also takes an int, and must be finite; a bool is no number
            if (isinstance(value, bool) or not isinstance(value, types + (int,) * real)
                    or real and not abs(value) <= sys.float_info.max):
                raise ValueError(f"config field {name} must be {'finite ' * real}"
                                 f"{self.__annotations__[name]}, got {value!r}")
        if self.arch not in ARCHS:
            raise ValueError(f"arch must be one of {ARCHS}, got {self.arch!r}")
        if self.data not in DATA_SOURCES:
            raise ValueError(f"data must be one of {DATA_SOURCES}, got {self.data!r}")
        if self.aggregation not in AGGREGATION_KINDS:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_KINDS}, got {self.aggregation!r}"
            )
        default_width = 128 if self.arch == "mlp" else 256
        if self.proj_dim is None:
            object.__setattr__(self, "proj_dim", default_width)
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", self.proj_dim)
        low = datamod.NUM_CLASSES if self.data == "cifar10" else 2
        if not low <= self.classes <= datamod.NUM_CLASSES:
            raise ValueError(f"classes must be in [{low}, {datamod.NUM_CLASSES}] with data "
                             f"{self.data}, got {self.classes!r}")
        for name in ("proj_dim", "hidden_dim", "max_epochs", "batch_size", "val_size",
                     "synthetic_train", "synthetic_val", "synthetic_test"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("seed", "lr_standard", "lr_novel", "sched_min_delta", "sched_min_lr",
                     "synthetic_sigma", "noise_sigma", "noise_seed", "early_stop_patience",
                     "sched_patience"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        for name in ("eps", "clip_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0 < self.sched_factor <= 1:
            raise ValueError(f"sched_factor must be in (0, 1], got {self.sched_factor!r}")

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        """Build a config from a file, a checkpoint echo or a sweep row, which
        must be an object naming only config fields."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - set(cls.__annotations__))
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    config: dict
    seed: int
    epochs: list[dict] = field(default_factory=list)  # per-epoch metrics
    clean_accuracy: float | None = None
    noisy_accuracy: float | None = None
    rho: float | None = None
    best_epoch: int | None = None
    stopped_early: bool = False
    wall_clock_sec: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    CSV_COLUMNS = [
        "epoch", "train_loss", "val_loss", "val_acc",
        "lr_standard", "lr_novel", "mean_p", "mean_sigma", "mean_alpha",
    ]


def read_json(path, what: str, build=lambda value: value):
    """Parse a JSON file and ``build`` from it; a ValueError names ``what`` and the file."""
    try:
        return build(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{what} {path}: {exc}") from exc


def _write_json(path, obj):
    with atomic_open(path) as f:
        f.write(json.dumps(obj, indent=2))


def _write_csv(path, columns, rows):
    """One CSV row per dict, ``None`` written as an empty field."""
    with atomic_open(path, newline="") as f:
        w = csv.DictWriter(f, fieldnames=columns)
        w.writeheader()
        for row in rows:
            w.writerow({k: ("" if row.get(k) is None else row[k]) for k in columns})


def build_model(config: ExperimentConfig) -> Model:
    """Construct and initialize the configured architecture."""
    build = build_mlp if config.arch == "mlp" else build_cnn
    return build(config.aggregation, np.random.default_rng(config.seed),
                 proj_dim=config.proj_dim, hidden_dim=config.hidden_dim,
                 classes=config.classes, eps=config.eps)


def _prepare_input(images: np.ndarray, arch: str) -> np.ndarray:
    if arch == "mlp":
        return images.reshape(images.shape[0], -1)
    return images


def load_datasets(config: ExperimentConfig):
    """Return (train, val, test) datasets per the config's data source,
    which ``ExperimentConfig`` has already checked to be one it knows."""
    if config.data == "cifar10":
        train, test = datamod.load_cifar10(config.data_dir)
        train, val = datamod.train_val_split(train, config.val_size, config.seed)
        return train, val, test
    n = config.synthetic_train + config.synthetic_val + config.synthetic_test
    full = datamod.make_synthetic(
        n, config.classes, seed=config.seed, sigma_blob=config.synthetic_sigma
    )
    a = config.synthetic_train
    b = a + config.synthetic_val
    return tuple(datamod.Dataset(full.images[lo:hi], full.labels[lo:hi], split=split)
                 for split, lo, hi in (("train", 0, a), ("val", a, b), ("test", b, None)))


def _eval_batches(model: Model, images, labels, arch: str, batch_size: int):
    """Yield (logits, labels) per batch of an uncached forward pass."""
    for lo in range(0, len(labels), batch_size):
        x = _prepare_input(images[lo : lo + batch_size], arch)
        yield model.forward(x, train=False), labels[lo : lo + batch_size]


def evaluate(model: Model, dataset, arch: str, noise: datamod.NoiseSpec | None = None,
             batch_size: int = EVAL_BATCH) -> float:
    """Argmax accuracy, with optional on-the-fly Gaussian corruption,
    over uncached forward passes of ``batch_size`` rows."""
    images = dataset.images if noise is None else datamod.add_noise(dataset.images, noise)
    batches = _eval_batches(model, images, dataset.labels, arch, batch_size)
    return sum(int(np.sum(np.argmax(logits, axis=1) == y)) for logits, y in batches) / len(dataset)


def validation_loss(model: Model, dataset, arch: str):
    """Mean cross-entropy and accuracy over a dataset (no caching)."""
    total, correct = 0.0, 0
    for logits, y in _eval_batches(model, dataset.images, dataset.labels, arch, EVAL_BATCH):
        loss, _ = softmax_xent(logits, y)
        total += loss * len(y)
        correct += int(np.sum(np.argmax(logits, axis=1) == y))
    return total / len(dataset), correct / len(dataset)


def robustness_score(clean_acc: float, noisy_acc: float) -> float | None:
    """Noisy accuracy divided by clean accuracy (scale-invariant), or
    ``None`` where it is undefined: a clean accuracy of 0."""
    return noisy_acc / clean_acc if clean_acc > 0 else None


def param_summary(model: Model) -> dict:
    """Per-layer statistics of the learnable aggregation parameters.

    Widths are reported as exp(log_sigma) and exponents as p.  A blended
    layer reports ``alpha``, the per-unit weight on its novel paths, and
    a blend of three paths also each path's weight.  Single-path layers report
    no alpha; baseline models produce an empty summary.
    """
    layer = aggregation_layer(model)
    if layer is None:
        return {}

    def stats(v: np.ndarray) -> dict:
        return {
            "mean": float(v.mean()), "std": float(v.std()),
            "min": float(v.min()), "max": float(v.max()),
        }

    out: dict = {"kind": layer.kind}
    if layer.p is not None:
        out["p"] = stats(layer.p.data)
    if layer.log_sigma is not None:
        out["sigma"] = stats(np.exp(layer.log_sigma.data))
    blend = layer.blend()
    if len(blend) > 1:
        if len(blend) == 3:
            out["blend"] = {path: stats(w) for path, w in zip(layer.paths, blend)}
        out["alpha"] = stats(sum(blend[1:]))  # novel-path mass
    return out


def _epoch_row(epoch, train_loss, val_loss, val_acc, groups, summary) -> dict:
    return {
        "epoch": epoch,
        "train_loss": train_loss,
        "val_loss": val_loss,
        "val_acc": val_acc,
        "lr_standard": groups[0].learning_rate,
        "lr_novel": groups[1].learning_rate,
        **{f"mean_{k}": summary.get(k, {}).get("mean") for k in ("p", "sigma", "alpha")},
        "param_summary": summary or None,
    }


def train(config: ExperimentConfig, out_dir=None, datasets=None,
          model: Model | None = None, log=None) -> RunReport:
    """Run the full training protocol and return the report.

    ``datasets`` and ``model`` can be injected (the benchmark builds them
    once, outside its timed units); ``out_dir`` receives report.json,
    metrics.csv and best.ckpt.
    """
    t0 = time.perf_counter()
    train_ds, val_ds, test_ds = datasets if datasets is not None else load_datasets(config)
    if model is None:
        model = build_model(config)
    groups = build_param_groups(model.parameters(), config.lr_standard, config.lr_novel)
    optimizer = Adam(groups)
    scheduler = PlateauScheduler(
        groups, factor=config.sched_factor, patience=config.sched_patience,
        min_delta=config.sched_min_delta, min_lr=config.sched_min_lr,
    )
    stopper = EarlyStopper(patience=config.early_stop_patience,
                           min_delta=config.sched_min_delta)
    report = RunReport(config=config.to_dict(), seed=config.seed)

    for epoch in range(1, config.max_epochs + 1):
        losses = []
        try:
            for bi, (xb, yb) in enumerate(
                datamod.batches(train_ds, config.batch_size, shuffle_seed=config.seed + epoch)
            ):
                logits = model.forward(_prepare_input(xb, config.arch), train=True)
                loss, dlogits = softmax_xent(logits, yb)
                if not np.isfinite(loss):
                    raise InvalidValueError("non-finite loss")
                model.backward(dlogits)
                optimizer.step(clip_norm=config.clip_norm)
                losses.append(loss)
            bi = None  # past the last batch: what fails now fails in validation
            val_loss, val_acc = validation_loss(model, val_ds, config.arch)
            if not np.isfinite(val_loss):
                raise InvalidValueError("non-finite validation loss")
        except (InvalidValueError, NonFiniteGradient) as exc:
            where = "in validation" if bi is None else f"batch {bi}"
            raise TrainingDiverged(f"{exc} at epoch {epoch}, {where} (seed {config.seed})") from exc
        summary = param_summary(model)
        report.epochs.append(
            _epoch_row(epoch, float(np.mean(losses)), val_loss, val_acc, groups, summary)
        )
        if log:
            log(f"epoch {epoch:3d}  train {np.mean(losses):.4f}  "
                f"val {val_loss:.4f}  acc {val_acc:.4f}")
        stop = stopper.step(val_loss)
        if stopper.best_epoch == epoch:  # always so at epoch 1
            best_state = model.state()
            report.best_epoch = epoch
        scheduler.step(val_loss)
        if stop:
            report.stopped_early = True
            break

    model.load_state(best_state)
    report.clean_accuracy = evaluate(model, test_ds, config.arch)
    noise = datamod.NoiseSpec(sigma_noise=config.noise_sigma, seed=config.noise_seed)
    report.noisy_accuracy = evaluate(model, test_ds, config.arch, noise=noise)
    report.rho = robustness_score(report.clean_accuracy, report.noisy_accuracy)
    report.wall_clock_sec = time.perf_counter() - t0

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", report.to_dict())
        _write_csv(out / "metrics.csv", RunReport.CSV_COLUMNS, report.epochs)
        save_checkpoint(model, out / "best.ckpt", extra={"config": config.to_dict()})
    return report


SWEEP_COLUMNS = [
    "arch", "aggregation", "seed", "status",
    "clean_acc", "noisy_acc", "rho", "mean_p", "mean_sigma", "mean_alpha",
]
_RESULT_KEYS = SWEEP_COLUMNS[4:]


def sweep(matrix: dict, out_dir=None, log=None) -> list[dict]:
    """Train every (arch, aggregation, seed) combination in the matrix.

    ``matrix`` holds optional ``archs``, ``aggregations`` and ``seeds`` lists
    and any other ExperimentConfig overrides.  A bad matrix, an empty axis or
    a repeated axis value included, raises ValueError before any row runs; a
    failed run is recorded and the sweep continues.
    """
    if not isinstance(matrix, dict):
        raise ValueError(f"sweep matrix must be a JSON object, got {type(matrix).__name__}")
    archs = matrix.get("archs", list(ARCHS))
    aggregations = matrix.get("aggregations", list(AGGREGATION_KINDS))
    seeds = matrix.get("seeds", [0])
    for axis, values in (("archs", archs), ("aggregations", aggregations), ("seeds", seeds)):
        if axis[:-1] in matrix:  # arch, aggregation or seed: each row sets its own
            raise ValueError(f"sweep matrix sets {axis[:-1]}; list its values under {axis}")
        if not isinstance(values, list):
            raise ValueError(f"sweep matrix {axis} must be a list, got {values!r}")
        if not values:
            raise ValueError(f"sweep matrix {axis} is empty: it would run no row")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:  # the two rows would train into one run directory
            raise ValueError(f"sweep matrix {axis} repeats {repeated[0]!r}")
    overrides = {k: v for k, v in matrix.items() if k not in ("archs", "aggregations", "seeds")}
    rows = []
    for arch in archs:
        for seed in seeds:
            for agg in aggregations:
                row = {"arch": arch, "aggregation": agg, "seed": seed,
                       **dict.fromkeys(_RESULT_KEYS)}
                run_dir = Path(out_dir) / f"{arch}-{agg}-seed{seed}" if out_dir else None
                try:
                    cfg = ExperimentConfig.from_dict(
                        {**overrides, "arch": arch, "aggregation": agg, "seed": seed})
                    rep = train(cfg, out_dir=run_dir, log=log)
                    last = rep.epochs[-1]  # train records every epoch it runs, at least one
                    row.update(zip(_RESULT_KEYS, (
                        rep.clean_accuracy, rep.noisy_accuracy, rep.rho,
                        *(last.get(k) for k in _RESULT_KEYS[3:]))))
                    row["status"] = "ok"
                except Exception as exc:  # record and continue
                    row["status"] = f"error: {exc}"
                rows.append(row)
                if log:
                    log(f"[sweep] {arch}/{agg}/seed{seed}: {row['status']}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
        _write_json(out / "sweep.json", rows)
    return rows


def format_results_table(rows: list[dict]) -> str:
    """Render sweep rows as an accuracy/robustness table (percentages)."""
    lines = [f"{'model':<28}{'clean %':>9}{'noisy %':>9}{'rho':>8}"]
    for r in rows:
        name = f"{r['arch']} {r['aggregation']} (seed {r['seed']})"
        if r.get("clean_acc") is None:
            lines.append(f"{name:<28}{'--':>9}{'--':>9}{'--':>8}  {r['status']}")
        else:
            lines.append(
                f"{name:<28}{100 * r['clean_acc']:>9.2f}{100 * r['noisy_acc']:>9.2f}"
                f"{rho_text(r['rho']):>8}"
            )
    return "\n".join(lines)


def rho_text(rho) -> str:
    """``rho`` to three places, or ``--`` where it is undefined."""
    return "--" if rho is None else f"{rho:.3f}"
