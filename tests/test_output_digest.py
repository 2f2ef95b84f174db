"""No number moves: ``tools/output_digest.py`` still prints the committed
``tools/output_digest.json``, byte for byte, on all CPUs and BLAS threads
and again on one of each."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
RECORD = ROOT / "tools" / "output_digest.json"

# runs the tool as __main__ after pinning its own process to one CPU, so
# the BLAS and the kernel start on that CPU alone
ONE_CPU = ("import os, runpy, sys; "
           "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "sys.argv = [sys.argv[1]]; runpy.run_path(sys.argv[0], run_name='__main__')")


def _tool_environment(monkeypatch) -> dict:
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its src
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.environment()


def _digest(*args, **env) -> str:
    proc = subprocess.run([sys.executable, *args], env={**os.environ, **env},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digest_prints_the_committed_bytes(monkeypatch):
    record = RECORD.read_text()
    recorded = json.loads(record)["environment"]
    if recorded["numpy"] != np.__version__:  # before numpy 1.26 the tool cannot say more
        pytest.skip(f"the digest was recorded under numpy {recorded['numpy']}, "
                    f"this is {np.__version__}")
    here = _tool_environment(monkeypatch)
    moved = {key: f"{recorded.get(key)} recorded, {value} here"
             for key, value in here.items() if recorded.get(key) != value}
    if moved:
        pytest.skip(f"the digest was recorded in another environment: {moved}")
    assert _digest(str(TOOL)) == record
    assert _digest("-c", ONE_CPU, str(TOOL), OPENBLAS_NUM_THREADS="1") == record
