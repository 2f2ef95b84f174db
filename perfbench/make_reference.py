"""Record reference.json: each workload's output at the reference seed.

    python3 perfbench/make_reference.py

Run this only at a commit whose outputs are known to be right (the one
that defined the benchmark); every later run at REFERENCE_SEED is
checked against what it writes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import run


def main() -> int:
    run.import_program()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    refs = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workloads.REFERENCE_SEED, scratch=run.OUT)
        wl.setup()
        _, out = wl.unit()
        problems = wl.check(out)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        if name == "gradcheck-all":
            out = {"checks": sorted(out["errors"])}
        refs[name] = {"sizes": asdict(workloads.PAPER), "output": out}
        print(f"{name}: recorded", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
