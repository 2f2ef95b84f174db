"""Print a JSON digest of every deterministic output of this checkout.

Run from a checkout (``python3 tools/output_digest.py``); it imports that
checkout's own ``src`` and prints:

- for five small synthetic runs (the four MLP aggregations and the CNN
  baseline; proj_dim 16, 3 epochs, batch 16), the sha256 of
  ``metrics.csv``, of ``best.ckpt`` and of ``report.json`` with its
  ``wall_clock_sec`` removed;
- the stdout of ``aggnet eval`` on the threeway MLP run's ``best.ckpt``,
  at ``--noise-sigma 0`` and at the config's own noise sigma;
- the ``repr`` of the worst relative error of each of the nine gradcheck
  checks at 5 cases;
- at the paper's shapes, with fixed seeds, the sha256 of the raw bytes
  (signed zeros included) and the strides of one threeway
  ``HybridLayer(128, 128)`` forward at batch 128, its backward ``dx`` and
  every parameter grad, of one ``MaxPool2x2Layer`` forward and backward
  on ReLU'd (128, 64, 32, 32) input, and of one ``ConvLayer(64, 64)``
  forward, ``dx`` and parameter grads on another such input, each of
  which walks several blocks;
- the same for two passes that fit in one block: the threeway layer at
  batch 8, and a ``ConvLayer(3, 64)``, the CNN's first layer, on a
  (4, 3, 32, 32) batch of pixels in [0, 1].

The strides count because later sums add in memory order.

Two checkouts produce the same outputs byte for byte when their digests
are equal, so a change that should not move any number is checked with::

    python3 tools/output_digest.py > after.json
    (cd ../parent && python3 tools/output_digest.py) > before.json
    diff before.json after.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from aggnet import cli, gradcheck  # noqa: E402
from aggnet.aggregation import HybridLayer  # noqa: E402
from aggnet.experiment import ExperimentConfig, train  # noqa: E402
from aggnet.layers import NOVEL, ConvLayer, MaxPool2x2Layer  # noqa: E402

EVAL_RUN = ("mlp", "threeway-hybrid")
RUNS = [("mlp", agg) for agg in ("baseline", "fmean-hybrid", "gaussian-hybrid",
                                 "threeway-hybrid")] + [("cnn", "baseline")]
GRADCHECK_CASES = 5


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def eval_stdout(checkpoint: Path, noise_sigma: float) -> str:
    """What ``aggnet eval`` prints for a checkpoint at one noise sigma."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--noise-sigma", str(noise_sigma)])
    return f"exit {code}: {stdout.getvalue()}"


def run_digest(arch: str, aggregation: str, out: Path) -> dict:
    config = ExperimentConfig(
        arch=arch, aggregation=aggregation, data="synthetic", proj_dim=16, hidden_dim=16,
        batch_size=16, max_epochs=3, seed=0,
        synthetic_train=128, synthetic_val=32, synthetic_test=32,
    )
    train(config, out_dir=out)
    report = json.loads((out / "report.json").read_text())
    del report["wall_clock_sec"]
    digest = {
        "metrics.csv": _sha256((out / "metrics.csv").read_bytes()),
        "best.ckpt": _sha256((out / "best.ckpt").read_bytes()),
        "report.json": _sha256(json.dumps(report, sort_keys=True).encode()),
    }
    if (arch, aggregation) == EVAL_RUN:
        digest["eval"] = [eval_stdout(out / "best.ckpt", sigma)
                          for sigma in (0.0, config.noise_sigma)]
    return digest


def gradcheck_digest() -> dict:
    errors = {label: repr(check(GRADCHECK_CASES))
              for checks in gradcheck.MODULES.values() for label, check in checks}
    errors["full model"] = repr(gradcheck.check_full_model())
    return errors


def _layer_pass(layer, x, rng) -> dict:
    """sha256 and strides of one forward, its backward's dx and each
    parameter grad."""
    out = layer.forward(x)
    dx = layer.backward(rng.standard_normal(out.shape))
    arrays = {"forward": out, "dx": dx, **{p.name: p.grad for p in layer.params()}}
    digest = {name: _sha256(a.tobytes()) for name, a in arrays.items()}
    digest["strides"] = {name: a.strides for name, a in arrays.items()}
    return digest


def layers_digest() -> dict:
    """The threeway slot, the pool and the 64 -> 64 conv at the paper's
    shapes, then the threeway slot and the 3 -> 64 conv at one block each;
    the novel parameters are moved off their initial values so no blend
    weight is 1/3, and the conv biases off zero."""
    rng = np.random.default_rng(2026)
    hybrid = HybridLayer(128, 128, "threeway-hybrid", rng)
    for param in hybrid.params():
        if param.tag == NOVEL:
            param.data = param.data + rng.uniform(-0.5, 0.5, param.data.shape)
    pool_input = np.maximum(rng.standard_normal((128, 64, 32, 32)), 0.0)
    digest = {"threeway-hybrid": _layer_pass(hybrid, rng.standard_normal((128, 128)), rng),
              "maxpool2x2": _layer_pass(MaxPool2x2Layer(), pool_input, rng)}
    conv = ConvLayer(64, 64, rng)
    conv.bias.data = rng.uniform(-0.5, 0.5, 64)
    conv_input = np.maximum(rng.standard_normal((128, 64, 32, 32)), 0.0)
    digest["conv64"] = _layer_pass(conv, conv_input, rng)
    digest["threeway-hybrid-one-block"] = _layer_pass(hybrid, rng.standard_normal((8, 128)), rng)
    first = ConvLayer(3, 64, rng)
    first.bias.data = rng.uniform(-0.5, 0.5, 64)
    digest["conv3-one-block"] = _layer_pass(first, rng.uniform(0.0, 1.0, (4, 3, 32, 32)), rng)
    return digest


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {f"{arch}-{agg}": run_digest(arch, agg, Path(tmp) / f"{arch}-{agg}")
                for arch, agg in RUNS}
    print(json.dumps({"runs": runs, "gradcheck": gradcheck_digest(),
                      "layers": layers_digest()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
