"""Command-line entry point.

Verbs: ``train`` one configuration, ``eval`` a checkpoint under optional
noise, ``sweep`` a configuration matrix, ``gradcheck`` the analytic
gradients, and ``fetch-data`` for CIFAR-10.  A failed gradcheck exits 1;
failed sweep rows, an aborted run or any rejected input exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import data as datamod
from . import gradcheck
from .checkpoint import load_checkpoint, read_header
from .experiment import (
    ExperimentConfig,
    TrainingDiverged,
    build_model,
    evaluate,
    format_results_table,
    load_datasets,
    read_json,
    rho_text,
    robustness_score,
    sweep,
    train,
)


def _cmd_train(args) -> int:
    config = read_json(args.config, "config", ExperimentConfig.from_dict)
    report = train(config, out_dir=args.out, log=print)
    print(f"clean {100 * report.clean_accuracy:.2f}%  noisy {100 * report.noisy_accuracy:.2f}%  "
          f"rho {rho_text(report.rho)}  best epoch {report.best_epoch}")
    return 0


def _cmd_eval(args) -> int:
    cfg_dict = read_header(args.checkpoint).get("extra", {}).get("config")
    if cfg_dict is None:
        raise ValueError(f"checkpoint {args.checkpoint}: no config echo to rebuild from")
    config = ExperimentConfig.from_dict(cfg_dict)
    # the run's own noise seed unless one is given; the config's own checks
    # refuse a negative or infinite width and a negative seed
    noise_cfg = dataclasses.replace(
        config, noise_sigma=args.noise_sigma,
        noise_seed=config.noise_seed if args.noise_seed is None else args.noise_seed)
    model = build_model(config)
    load_checkpoint(model, args.checkpoint)
    _, _, test = load_datasets(config)
    noise = None
    if noise_cfg.noise_sigma > 0:
        noise = datamod.NoiseSpec(sigma_noise=noise_cfg.noise_sigma, seed=noise_cfg.noise_seed)
    acc = evaluate(model, test, config.arch, noise=noise)
    print(f"accuracy {100 * acc:.2f}%  (noise sigma {args.noise_sigma})")
    if noise is not None:
        clean = evaluate(model, test, config.arch)
        print(f"clean {100 * clean:.2f}%  rho {rho_text(robustness_score(clean, acc))}")
    return 0


def _cmd_sweep(args) -> int:
    rows = sweep(read_json(args.matrix, "matrix"), out_dir=args.out, log=print)
    print(format_results_table(rows))
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def _cmd_gradcheck(args) -> int:
    return 0 if gradcheck.run(module=args.module, cases=args.cases) else 1


def _cmd_fetch_data(args) -> int:
    if args.sha256 == "":
        raise ValueError("--sha256 needs a digest, got an empty one")
    if args.sha256 is not None and args.skip_checksum:
        raise ValueError("--sha256 and --skip-checksum conflict: give one or neither")
    sha = None if args.skip_checksum else (args.sha256 or datamod.CIFAR10_SHA256)
    where = datamod.fetch_cifar10(args.dir, sha256=sha)
    print(f"CIFAR-10 binaries available under {where}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aggnet",
        description="Learnable input-aggregation networks: training and evaluation",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("train", help="train one configuration")
    p.add_argument("--config", required=True, help="JSON ExperimentConfig file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=None,
                   help="default: the noise_seed of the checkpoint's config")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", help="train a configuration matrix")
    p.add_argument("--matrix", required=True, help="JSON sweep matrix file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--module", default="all",
                   choices=["all", *gradcheck.MODULES])
    p.add_argument("--cases", type=int, default=gradcheck.CASES)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("fetch-data", help="download and verify CIFAR-10")
    p.add_argument("--dir", required=True)
    p.add_argument("--sha256", default=None, help="override the recorded archive digest")
    p.add_argument("--skip-checksum", action="store_true")
    p.set_defaults(fn=_cmd_fetch_data)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrainingDiverged as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:  # rejected input: one line, no traceback
        print(f"aggnet {args.cmd}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
