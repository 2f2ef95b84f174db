"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aggnet import aggregation, experiment, gradcheck, layers  # noqa: E402

TINY = workloads.Sizes(batch=2, train=4, val=2, test=30, epochs=2, width=8,
                       eval_images=4, eval_batch=4, gradcheck_cases=1)


def traced_unit(name, scratch, seed=0):
    wl = workloads.make(name, seed, scratch, TINY)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
        tracer.phase = "unit"
        wl.unit()
    finally:
        tracer.uninstall()
    return tracer.per_layer(1, 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_tiny_unit_is_correct_and_repeats(name, seed, tmp_path):
    wl = workloads.make(name, seed, tmp_path, TINY)
    wl.setup()
    wall, out = wl.unit()
    assert wall > 0
    assert wl.check(out) == []
    _, again = wl.unit()
    assert workloads.compare(again, out) == []


def test_wrong_reference_counts_as_a_failure(tmp_path):
    wl = workloads.make("mlp-threeway-train", 0, tmp_path, TINY)
    wl.setup()
    _, out = wl.unit()
    close = copy.deepcopy(out)
    close["epochs"][0]["train_loss"] *= 1 + 1e-12
    wrong = copy.deepcopy(out)
    wrong["epochs"][0]["train_loss"] *= 1 + 1e-6
    assert wl.check(out, close) == []
    assert wl.check(out, wrong)

    runner = run.Runner(wl, wrong)
    runner.unit()
    assert (runner.attempted, runner.failed) == (1, 1)
    runner = run.Runner(wl, out)
    runner.unit()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_wrong_label_digest_counts_as_a_failure(tmp_path):
    wl = workloads.make("mlp-threeway-eval", 0, tmp_path, TINY)
    wl.setup()
    _, out = wl.unit()
    wrong = dict(out, labels_digest="0" * 64)
    runner = run.Runner(wl, wrong)
    runner.unit()
    assert runner.failed == 1


def test_failed_gradcheck_counts_as_a_failure(tmp_path):
    wl = workloads.make("gradcheck-all", 3, tmp_path, TINY)
    out = {"ok": True, "errors": {"hybrid": 10 * gradcheck.TOL}}
    assert wl.check(out)
    assert wl.check(dict(out, ok=False, errors={}))


def test_reference_matches_the_paper_sizes():
    for name in workloads.WORKLOADS:
        assert workloads.reference_for(name, workloads.REFERENCE_SEED, workloads.PAPER)
        assert workloads.reference_for(name, workloads.REFERENCE_SEED + 1, workloads.PAPER) is None
    with pytest.raises(ValueError):
        workloads.reference_for("gradcheck-all", workloads.REFERENCE_SEED, TINY)


def test_cnn_baseline_never_calls_the_kernel(tmp_path):
    m = traced_unit("cnn-baseline-train", tmp_path)
    assert m["aggregation.kernel.calls"] == 0
    assert m["aggregation.hybrid.forward.s"] == 0
    assert m["layers.conv.forward.s"] > 0 and m["layers.conv.backward.s"] > 0
    steps = TINY.epochs * TINY.train // TINY.batch
    assert m["optim.adam_step.calls"] == steps
    assert m["experiment.step.count"] == steps


def test_threeway_train_traces_every_layer_it_runs(tmp_path):
    m = traced_unit("mlp-threeway-train", tmp_path)
    assert m["aggregation.kernel.calls"] > 0
    # kernel rows are batch x units for every forward, train and eval
    assert m["aggregation.kernel.rows"] % TINY.width == 0
    for name in ("aggregation.hybrid.forward.self_s", "aggregation.hybrid.backward.s",
                 "model.forward_train.s", "model.forward_eval.s", "model.backward.s",
                 "experiment.train.s", "experiment.evaluate.s", "experiment.validation_loss.s",
                 "data.make_synthetic.s", "data.batches.s", "data.add_noise.s",
                 "checkpoint.save.s", "checkpoint.save.bytes", "optim.clip.s", "ops.calls"):
        assert m[name] > 0, name
    assert m["layers.conv.forward.s"] == 0
    assert m["experiment.train.s"] >= m["experiment.evaluate.s"] + m["optim.adam_step.s"]


def test_eval_runs_no_backward(tmp_path):
    m = traced_unit("mlp-threeway-eval", tmp_path)
    assert m["aggregation.kernel.calls"] > 0 and m["model.forward_eval.s"] > 0
    assert m["aggregation.hybrid.backward.s"] == 0 and m["model.forward_train.s"] == 0
    assert m["optim.adam_step.calls"] == 0


def test_gradcheck_traces_each_check(tmp_path):
    m = traced_unit("gradcheck-all", tmp_path, seed=2)
    for name in tracing.GRADCHECKS:
        assert m[f"gradcheck.{name}.s"] > 0, name
    assert m["aggregation.fmean_layer.s"] > 0 and m["aggregation.gaussian_layer.s"] > 0


def test_traced_run_pairs_warm_untraced_and_traced_units(tmp_path):
    wl = workloads.make("mlp-threeway-eval", 0, tmp_path, TINY)
    runner = run.Runner(wl, None)
    args = run.parse_args(["--workload", "mlp-threeway-eval", "--seconds", "0", "--trace", "1"])
    metrics, detail = run.measure_traced(args, wl, runner, tmp_path / "spans.jsonl")
    # a warm-up unit, then one untraced and one traced unit
    assert (runner.attempted, runner.failed) == (3, 0)
    assert len(detail["untraced_unit_walls_s"]) == len(detail["traced_unit_walls_s"]) == 1
    assert metrics["aggregation.kernel.calls"][0] > 0
    assert metrics["trace.overhead_frac"][0] > -1.0


def test_uninstall_restores_the_package():
    def boundaries():
        return (aggregation._affinity_moments, experiment.save_checkpoint,
                experiment.softmax_xent, layers.ConvLayer.forward,
                gradcheck.check_full_model, list(gradcheck.MODULES["layers"]))

    before = boundaries()
    tracer = tracing.Tracer()
    tracer.install()
    assert aggregation._affinity_moments is not before[0]
    assert gradcheck.MODULES["layers"] != before[-1]
    tracer.uninstall()
    assert boundaries() == before


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.delattr(aggregation, "_affinity_moments")
    tracer = tracing.Tracer()
    try:
        with pytest.raises(tracing.BoundaryMissing):
            tracer.install()
    finally:
        tracer.uninstall()


def _checkout(tmp_path, with_src=True):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "gradcheck-all", *args]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric_in_benchmark_json(trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    proc = _run(_checkout(tmp_path), "--seed", "4", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}


def test_fails_without_the_program(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
