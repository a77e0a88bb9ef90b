#!/usr/bin/env python3
"""Capture golden optimum reports for the workloads on fixed inputs.

    python3 perfbench/golden.py

Runs every optimum op of ``fixture-report`` and ``torus-ties`` (full and toy
size) once and writes ``perfbench/golden.json``: per op, the report's
manifest without wall time, version and checkout paths, and per k the exact
rational, float value, evaluated count and complete tie list.  Their inputs
do not depend on the seed, so one capture serves every seed.  Re-capture
only when a change is meant to alter these reports.
"""

import contextlib
import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
import workloads
from reference import golden_entry, golden_key, write_golden


def main() -> int:
    cli = run.import_program()
    golden = {}
    for name in ("fixture-report", "torus-ties"):
        for toy in (False, True):
            work = run.ROOT / ".perfbench_work" / f"golden-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                wl = workloads.build(name, 0, work, run.SRC / "gcentral" / "fixtures", toy)
                for op in wl.ops:
                    if op.kind != "optimum":
                        continue
                    _, rc, out, err = run.call(cli, op.argv)
                    if rc != 0:
                        sys.exit(f"{' '.join(op.argv)} failed: {err}")
                    entry = golden[golden_key(wl, op, toy)] = golden_entry(json.loads(out), work)
                    last = entry["rows"][-1]
                    print(golden_key(wl, op, toy), last["exact"] or last["value"],
                          len(last["optimal_sets"]), "ties")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        (run.ROOT / ".perfbench_work").rmdir()
    write_golden(golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
