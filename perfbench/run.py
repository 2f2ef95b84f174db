"""Run one aggnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mlp-threeway-train --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(set-up time, throughput, peak memory); with ``--trace 1`` they are the
per-layer ones from a traced run.  A line before it records the
environment, and ``.perfbench-out/`` at the checkout root receives the
full result and, for a traced run, every span.

Units of work repeat while another fits in ``--seconds`` (at least two
run, even when they take longer), in one process with one caller (a
closed loop).  BLAS may use as
many threads as the process has CPUs and no more.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# fresh processes timed per run for setup_s, half before the units and
# half after them, so the median spans the run; the median is reported
SETUP_REPEATS = 10

# units in every untraced run: throughput rests on at least two, also
# where a unit takes more than half of --seconds
MIN_UNITS = 2

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "throughput": "items/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up the workload and exit: the child process that setup_s times
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program():
    """Put the checkout's sources first on the path and import aggnet."""
    if not (SRC / "aggnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no aggnet sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import aggnet

    if Path(aggnet.__file__).resolve().parent != SRC / "aggnet":
        raise SystemExit(f"perfbench: imported aggnet from {aggnet.__file__}, not {SRC}")


def blas_threads():
    """Threads OpenBLAS reports using, when numpy bundles it; else None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    no_numba = os.environ.get("AGGNET_NO_NUMBA")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "numba_importable": numba,
        "AGGNET_NO_NUMBA": no_numba,
        # the kernel aggnet picks: numba unless it is missing or switched off
        "affinity_backend": "numba" if numba and not no_numba else "numpy",
    }


def time_setups(args, repeats) -> list[float]:
    """Wall seconds of fresh processes that import, generate data and build."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls every 50 ms, which quantizes the time
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs units of one workload, checking each output."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None

    def unit(self):
        """Wall seconds of one unit; None when it raised."""
        import workloads

        self.attempted += 1
        try:
            wall, out = self.workload.unit()
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc())
            traceback.print_exc()
            return None
        problems = self.workload.check(out, self.reference)
        if self.first is None:
            self.first = out
        else:
            problems += workloads.compare(out, self.first)
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"perfbench: wrong output: {p}", file=sys.stderr)
        return wall


def repeat(seconds, step, at_least):
    """Call ``step`` while another call fits in ``seconds``, at least ``at_least`` times."""
    t0 = time.perf_counter()
    for calls in itertools.count(1):
        u0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if calls >= at_least and (now - t0) + (now - u0) > seconds:
            return


def measure(args, workload, runner):
    """The untraced run: end-to-end metrics."""
    setups = time_setups(args, SETUP_REPEATS // 2)
    workload.setup()
    walls = []
    repeat(args.seconds, lambda: walls.append(runner.unit()), MIN_UNITS)
    setups += time_setups(args, SETUP_REPEATS - SETUP_REPEATS // 2)
    timed = [w for w in walls if w is not None]
    # The median unit, not the fastest: on a shared machine other tenants
    # slow the CPU by up to half, a few seconds to minutes at a time, and
    # the fastest of a run's units is an extreme of those swings, which
    # spread more from run to run than the median does.
    throughput = workload.items_per_unit / statistics.median(timed) if timed else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": throughput,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_s": setups, "unit_walls_s": walls}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def measure_traced(args, workload, runner, spans_path):
    """The traced run: an untraced warm-up unit, then pairs of units.

    Each pair is one untraced and one traced unit, so both sides of
    ``trace.overhead_frac`` are warm and close in time.  Pairs repeat
    while another fits in ``--seconds``; at least one runs.
    """
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    runner.unit()
    tracer.phase = "unit"
    untraced, traced = [], []

    def pair():
        untraced.append(runner.unit())
        tracer.install()
        try:
            traced.append(runner.unit())
        finally:
            tracer.uninstall()

    repeat(args.seconds, pair, 1)
    base = [w for w in untraced if w is not None]
    timed = [w for w in traced if w is not None]
    overhead = (statistics.median(timed) / statistics.median(base) - 1.0
                if timed and base else 0.0)
    per_layer = tracer.per_layer(len(traced), overhead)
    tracer.write_spans(spans_path)
    detail = {"untraced_unit_walls_s": untraced, "traced_unit_walls_s": traced,
              "spans": str(spans_path)}
    return {k: (v, tracing.PER_LAYER_UNITS[k]) for k, v in per_layer.items()}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, scratch=OUT)
    if args.setup_only:
        workload.setup()
        return 0

    env = environment()
    print(json.dumps({"environment": env}))
    reference = workloads.reference_for(args.workload, args.seed, workloads.PAPER)
    runner = Runner(workload, reference)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail = measure_traced(args, workload, runner, OUT / f"{stem}-spans.jsonl")
    else:
        metrics, detail = measure(args, workload, runner)
    result = {
        "correct": runner.attempted > 0 and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "items_per_unit": workload.items_per_unit,
        "reference_checked": reference is not None, "problems": runner.problems,
        "detail": detail, "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
