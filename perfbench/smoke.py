#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at toy size for one second, untraced and traced, and
checks that the last line of output names every metric of BENCHMARK.json
with its unit, that the outputs were correct and that no op failed (error
rate 0).  Then checks that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and the benchmark.
Each run is started in a session of its own, and no process of that
session may outlive it.
"""

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def session_members(sid: int) -> list[int]:
    """Pids of the processes still in session ``sid``, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError, ValueError, IndexError):
            # Fields after the command name: state, ppid, pgrp, session, ...
            if int(stat.read_text().rsplit(")", 1)[1].split()[3]) == sid:
                pids.append(int(stat.parent.name))
    return pids


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as popen:
        stdout, stderr = popen.communicate(timeout=600)
    proc = subprocess.CompletedProcess(cmd, popen.returncode, stdout, stderr)
    left = session_members(popen.pid)
    if left:
        return [f"processes left running after the run: {left}"]
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    res = last_json(proc.stdout)
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["last line is not the result object"]
    problems = []
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"correct={res['correct']} failed={res['failed']} "
                        f"attempted={res['attempted']}: {proc.stderr.strip()[-500:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
    for name, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{name} = {v['value']!r}")
    if not trace and res["metrics"].get("ok_rate", {}).get("value") != 1.0:
        problems.append("error rate is not 0")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload",
                               "torus-ties", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return ["ran without the program source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    checks = [(f"{w['name']} trace {t}", lambda w=w, t=t: check_run(spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("bare directory refused", check_bare))
    for label, check in checks:
        problems = check()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" +
              "".join(f"\n     {p}" for p in problems), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
