#!/usr/bin/env python3
"""Benchmark of the gcentral command line, driven in-process.

    python3 perfbench/run.py --workload fixture-report --seed 1 --seconds 30 --trace 0

One client calls ``gcentral.cli.main`` in a closed loop: a pass issues every
op of the workload once, in order, and passes repeat until ``--seconds``
would be exceeded.  Before each op the program's module-level caches are
emptied, as in a new process.  Every output is checked (see reference.py).
Timings are medians over passes.  ``--trace 1`` alternates untraced passes
with passes that take spans inside the calls and reports per-layer metrics
(see tracing.py).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units are listed in BENCHMARK.json.
"""

import os

# One BLAS thread per process, fixed before numpy loads, so pool workers
# times BLAS threads stays within the core count and BLAS threads never
# compete with the pool for cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
#: Seconds one calibrate() call takes on the reference host, a 2-vCPU KVM
#: guest on an Intel Xeon at 2.1 GHz.  Timings are reported at that speed.
CALIBRATION_REF_S = 0.0065
#: Least time between two host-speed readings within a pass.
CALIBRATION_GAP_S = 0.05
_CAL_MATRIX = np.random.default_rng(0).random((120, 120))
_CAL_INDEX = np.random.default_rng(1).integers(0, 120, size=(512, 38, 4))
#: Seconds one calibrate_walks() call takes on the reference host when
#: calibrate() takes CALIBRATION_REF_S (the median ratio of the two there).
WALKS_CALIBRATION_REF_S = 0.0068
_WALK_TABLE = np.sort(np.random.default_rng(2).random(4000)) * 2000
_WALK_START = np.random.default_rng(3).integers(0, 1000, size=10_000)
WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')
COUNTS = {"graph.edges", "optimize.evaluated", "optimize.ties", "randomwalk.mc_walk_steps",
          "sampling.visited"}


def unit(name: str) -> str:
    if name in COUNTS:
        return "count"
    if "subsets_per_s" in name:
        return "subsets/s"
    for suffix, u in (("steps_per_s", "steps/s"), ("_s", "s"), ("_mb", "MB"), ("_rate", "ratio"),
                      ("_bytes", "bytes"), ("route_gap", "steps"), ("max_z", "sigma")):
        if name.endswith(suffix):
            return u
    raise ValueError(f"no unit for metric {name!r}")


def calibrate() -> float:
    """Wall seconds of a fixed mix of the work the program does.

    Interpreter loop with dict stores, ``Fraction`` construction and
    comparison, numpy fancy indexing and small LAPACK solves.  The host's
    speed drifts: on the reference host a fixed loop's median over 30-second
    windows moved by +-15%, and every op moved with it.  Op times divided by
    readings taken around them stayed within +-3% over 10-second windows
    where the raw times moved by +-16%.
    """
    start = time.perf_counter()
    acc, table, best = 0, {}, Fraction(0)
    for i in range(8000):
        acc += i * i
        table[i & 255] = acc
    for i in range(1000):
        f = Fraction(i % 97, 38)
        if f > best:
            best = f
    (_CAL_MATRIX[_CAL_INDEX[:, :, :1], _CAL_INDEX[:, :1, :]] > 0.5).any(axis=2)
    for _ in range(8):
        np.linalg.solve(_CAL_MATRIX, _CAL_MATRIX[0])
    return time.perf_counter() - start


def calibrate_walks() -> float:
    """Wall seconds of vectorised walk steps, as the Monte Carlo hitting kernel takes them.

    Random draws, gathers, ``searchsorted`` into a cumulative table and
    shrinking index arrays over 10,000 walks.  On the reference host that
    kernel, on a graph with that many walks, moved far less with host drift
    than calibrate() did, so such ops are scaled by this reading instead.
    """
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(0))
    state = _WALK_START.copy()
    alive = np.arange(state.size)
    for _ in range(6):
        keys = 2.0 * state[alive] + rng.random(alive.size)
        nxt = np.searchsorted(_WALK_TABLE, keys, side="right") % 1000
        state[alive] = nxt
        alive = alive[nxt % 7 != 0]
    return time.perf_counter() - start


def host_speed() -> tuple[float, float, float]:
    """(when, median of three calibrate() readings, median of three calibrate_walks())."""
    reading = statistics.median(calibrate() for _ in range(3))
    walks = statistics.median(calibrate_walks() for _ in range(3))
    return time.perf_counter(), reading, walks


def local_speed(readings: list[tuple[float, float, float]], start: float, end: float,
                column: int = 1) -> float:
    """Mean of ``column`` of the last reading before ``start`` and the first after ``end``."""
    times = [r[0] for r in readings]
    before = readings[max(bisect.bisect_right(times, start) - 1, 0)][column]
    after = readings[min(bisect.bisect_left(times, end), len(readings) - 1)][column]
    return (before + after) / 2


def scaled_op_time(wl, op, t: float, end: float, readings) -> float:
    """An op's wall time at reference speed, by the calibration that follows its kind of work.

    A Monte Carlo op with at least as many walks as calibrate_walks() runs
    follows that reading; a smaller one is mostly per-step call overhead
    and follows calibrate(), as every other op does.
    """
    walks = (wl.graphs[op.graph].n - len(op.members or ())) * workloads.MC_WALKS
    if op.kind == "hitting-montecarlo" and walks >= _WALK_START.size:
        return t * WALKS_CALIBRATION_REF_S / local_speed(readings, end - t, end, 2)
    return t * CALIBRATION_REF_S / local_speed(readings, end - t, end)


def at_reference_speed(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Scale times by ``factor`` and rates by its inverse; counts stay."""
    out = {}
    for name, v in metrics.items():
        u = unit(name)
        out[name] = v * factor if u == "s" else v / factor if u.endswith("/s") else v
    return out


def import_program():
    """gcentral from this checkout's src/, never an installed copy."""
    if not (SRC / "gcentral" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import gcentral.cli

    return gcentral.cli


def clear_program_caches() -> None:
    """Empty every functools cache at module level in the program, as a new process starts.

    ``gcentral.optimize`` keeps per-graph kernels (adjacency, all-pairs
    distances, transition matrix) in such a cache; a ``gcentral`` process
    builds them on every call, so every measured call does too.
    """
    for name, mod in list(sys.modules.items()):
        if name == "gcentral" or name.startswith("gcentral."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def call(cli, argv) -> tuple[float, int, str, str]:
    """Run one command line; return wall seconds, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed op, not the end of the run
        rc = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def setup(args, work: Path):
    """What a user pays before the first op: import, inputs, warm-up."""
    cli = import_program()
    wl = workloads.build(args.workload, args.seed, work, SRC / "gcentral" / "fixtures", args.toy)
    warm = [(op, call(cli, op.argv)) for op in workloads.warmup_ops(wl, work)]
    return cli, wl, warm


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that only set up: raw, and at reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"] + (["--toy"] if args.toy else [])
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(calibrate() for _ in range(5))
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        after = statistics.median(calibrate() for _ in range(5))
        scaled.append(raw[-1] * 2 * CALIBRATION_REF_S / (before + after))
    return raw, scaled


class Outputs:
    """Every op's outcome: exit code, and output equal to the op's first output.

    The first output of each op is kept and checked against the references
    after the measured loop (``verify``), so that the reference arrays are
    built after the peak RSS has been read.  Outputs are compared by a
    digest with the wall time masked.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.first: dict[int, tuple] = {}  # op index -> (op, output)
        self._digest: dict[int, str] = {}
        self._matched: dict[int, int] = defaultdict(int)

    def _fail(self, label: str, problems: list[str], times: int = 1) -> None:
        self.failed += times
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    def record(self, label: str, index: int | None, op, rc: int, out: str, err: str) -> None:
        """One op's outcome; ``index`` None for a warm-up op, whose output is not kept."""
        self.attempted += 1
        if rc != 0:
            self._fail(label, [f"exit code {rc}: {err.strip()[-300:]}"])
            return
        if index is None:
            return
        if op.kind == "sample":
            out = {s: Path(op.out_prefix + "." + s).read_text(encoding="utf-8")
                   for s in ("edges", "map")}
            text = out["edges"] + out["map"]
        else:
            text = out
        digest = hashlib.sha256(WALL_TIME.sub("", text).encode()).hexdigest()
        if index not in self.first:
            self.first[index], self._digest[index] = (op, out), digest
        elif digest != self._digest[index]:
            self._fail(label, ["output differs from this op's first output"])
            return
        self._matched[index] += 1

    def verify(self, checker) -> None:
        """Check each op's first output; every run of the op that matched it shares its verdict."""
        for index, (op, out) in sorted(self.first.items()):
            problems = checker.check(op, out)
            if problems:
                self._fail(f"op {index} {op.kind} {op.graph} {op.measure or ''}", problems,
                           self._matched[index])


def op_counts(op, out) -> dict:
    """Exact counts read off one op's output."""
    if op.kind == "optimum":
        rows = json.loads(out)["rows"]
        return {"cells": [[r["k"], r["evaluated"], len(r["optimal_sets"])] for r in rows]}
    if op.kind == "hitting-montecarlo":
        sol = json.loads(out)["solution"]
        truncated = sol["truncated"]
        steps = sum(round(h * (sol["walks_per_source"] - truncated.get(v, 0)))
                    for v, h in sol["hitting_times"].items())
        return {"mc_walk_steps": steps + sum(truncated.values()) * sol["max_steps"]}
    if op.kind == "sample":
        return {"sample_vertices": len(out["map"].splitlines())}
    return {}


def e2e_of_pass(wl, times: list[float]) -> dict[str, float]:
    by_metric = defaultdict(list)
    subsets = defaultdict(int)
    for op, t in zip(wl.ops, times):
        by_metric[op.metric].append(t)
        if op.kind == "optimum":
            subsets[op.metric] += wl.subsets(op)
    m = {"report_s": sum(t for op, t in zip(wl.ops, times) if op.kind == "optimum")}
    for name, ts in by_metric.items():
        m[name] = subsets[name] / sum(ts) if name in subsets else statistics.median(ts)
    return m


def run_passes(seconds: float, min_passes: int, one_pass) -> int:
    """Start passes while another typical pass still fits in ``seconds``."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        one_pass(len(durations))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_passes and elapsed + statistics.median(durations) > seconds:
            return len(durations)


def summarise(samples: dict[str, list[float]], raw: dict[str, list[float]]) -> dict[str, float]:
    """Medians over passes; prints them with max, min, count and the raw median."""
    out = {}
    for name in sorted(samples):
        xs = samples[name]
        out[name] = statistics.median(xs)
        print(f"  {name:38s} median {out[name]:<12.6g} max {max(xs):<12.6g} "
              f"min {min(xs):<12.6g} n={len(xs):<3d} raw median "
              f"{statistics.median(raw[name]):<12.6g} {unit(name)}")
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(args, wl) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "optimum_workers": 1, "dispatch_probe_workers": os.cpu_count(),
        "commit": git_commit(),
    }


def measure(args, work: Path) -> int:
    t0 = time.perf_counter()
    cli, wl, warm = setup(args, work)
    import tracing  # needs gcentral on sys.path

    outputs = Outputs()
    for op, (_, rc, out, err) in warm:
        outputs.record(f"warm-up {' '.join(op.argv[:1])}", None, op, rc, out, err)
    print(f"# in-process set-up: {time.perf_counter() - t0:.3f} s")
    print("# env " + json.dumps(environment(args, wl), sort_keys=True))

    e2e: dict[str, list[float]] = defaultdict(list)
    layers: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    speeds: list[float] = []
    op_times: dict[tuple[bool, int], list[float]] = defaultdict(list)
    spans_per_pass: dict[bool, int] = {}
    tracer = tracing.Tracer()
    rng = random.Random(args.seed)

    def one_pass(pass_no: int) -> None:
        traced = bool(args.trace) and pass_no % 2 == 0
        times, records, out_bytes = [], {}, 0
        gc.collect()  # each pass starts from a collected heap, as a fresh process would
        first_span = len(tracer.spans)
        readings: list[tuple[float, float, float]] = []  # (when, host speed readings)
        ends = []
        for i, op in enumerate(wl.ops):
            if not readings or time.perf_counter() - readings[-1][0] > CALIBRATION_GAP_S:
                readings.append(host_speed())
            clear_program_caches()
            if traced:
                tracer.op = f"{pass_no}:{i}"
                with tracing.instrument(tracer, cli), tracer.span("cli.main"):
                    dt, rc, out, err = call(cli, op.argv)
            else:
                dt, rc, out, err = call(cli, op.argv)
            ends.append(time.perf_counter())
            outputs.record(f"pass {pass_no} op {i} {' '.join(op.argv[:1])} {op.metric}",
                           i, op, rc, out, err)
            times.append(dt)
            if traced:
                out_bytes += len(out.encode())
                if op.kind == "sample":
                    out_bytes += sum(Path(op.out_prefix + s).stat().st_size
                                     for s in (".edges", ".map"))
                records[i] = tracing.op_record(tracer, op)
        readings.append(host_speed())
        speeds.append(statistics.median(r[1] for r in readings))
        scaled_times = [scaled_op_time(wl, op, t, end, readings)
                        for op, t, end in zip(wl.ops, times, ends)]
        for i, t in enumerate(scaled_times):
            op_times[(traced, i)].append(t)
        spans_per_pass[traced] = len(tracer.spans) - first_span
        if traced:
            tracer.op = f"{pass_no}:probe"
            probe = tracing.probes(tracer, wl, rng)
            measured, into = tracing.pass_metrics(wl, tracer.spans[first_span:], records, probe,
                                                  out_bytes), layers
            scaled = at_reference_speed(measured, CALIBRATION_REF_S / speeds[-1])
        else:
            measured, into = e2e_of_pass(wl, times), e2e
            scaled = e2e_of_pass(wl, scaled_times)
        for name, v in scaled.items():
            into[name].append(v)
            raw[name].append(measured[name])

    passes = run_passes(args.seconds, 2 if args.trace else 1, one_pass)
    # Read before the references below are built: they are the benchmark's, not the program's.
    ru = resource.getrusage
    peak_mb = (ru(resource.RUSAGE_SELF).ru_maxrss + ru(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    t1 = time.perf_counter()
    from reference import Checker

    outputs.verify(Checker(wl, work, args.toy))
    print(f"# outputs checked against the references in {time.perf_counter() - t1:.3f} s")
    print(f"# host speed: calibrate() median {statistics.median(speeds) * 1e3:.3f} ms over "
          f"{passes} passes (min {min(speeds) * 1e3:.3f}, max {max(speeds) * 1e3:.3f}); "
          f"timings below are scaled to {CALIBRATION_REF_S * 1e3:g} ms")
    print(f"# {passes} passes of {len(wl.ops)} ops; exact counts per op:")
    for i, (op, out) in sorted(outputs.first.items()):
        c = op_counts(op, out)
        if c:
            print(f"  {i} {op.graph} {op.kind} {op.measure or ''}: {json.dumps(c)}")

    if args.trace:
        print("# per-layer metrics over traced passes:")
        metrics = summarise(layers, raw)
        shares = tracing.layer_shares(tracer.spans)
        print("# self-time share by span: " +
              ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:8]))
        traced = sum(statistics.median(op_times[(True, i)]) for i in range(len(wl.ops)))
        plain = sum(statistics.median(op_times[(False, i)]) for i in range(len(wl.ops)))
        probe, start = tracing.Tracer(), time.perf_counter()
        for _ in range(10_000):
            with probe.span("overhead"):
                pass
        per_span = (time.perf_counter() - start) / 10_000
        print(f"# tracing overhead: traced minus untraced median pass of cli.main, scaled: "
              f"{traced - plain:+.4f} s on {plain:.4f} s; span "
              f"bookkeeping {per_span * 1e6:.2f} us x {spans_per_pass[True]} spans per traced "
              f"pass = {per_span * spans_per_pass[True]:.5f} s")
        out_dir = ROOT / ".perfbench_out"
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        print("# end-to-end metrics, per pass:")
        metrics = summarise(e2e, raw)
        setup_raw, setups = setup_seconds(args)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_mb
        metrics["ok_rate"] = 1.0 - outputs.failed / outputs.attempted
        print(f"  setup_s samples {[round(s, 4) for s in setups]} "
              f"(raw {[round(s, 4) for s in setup_raw]}); peak_rss_mb {peak_mb:.1f}; "
              f"error_rate {outputs.failed / outputs.attempted:g} "
              f"({outputs.failed} of {outputs.attempted} ops)")

    result = {
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def stop_helper_processes() -> None:
    """Stop and wait for the helpers multiprocessing may have started.

    A process pool under the spawn or forkserver start method leaves a
    semaphore tracker (and a fork server) running until its parent exits;
    they would outlive the run.
    """
    helpers = []
    if "multiprocessing.forkserver" in sys.modules:
        helpers.append(getattr(sys.modules["multiprocessing.forkserver"], "_forkserver", None))
    if "multiprocessing.resource_tracker" in sys.modules:
        helpers.append(getattr(sys.modules["multiprocessing.resource_tracker"],
                               "_resource_tracker", None))
    for helper in helpers:
        stop = getattr(helper, "_stop", None)
        if callable(stop):
            with contextlib.suppress(Exception):
                stop()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--probe", action="store_true", help="set up only (times setup_s)")
    args = p.parse_args()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.probe:
            _, _, warm = setup(args, work)
            return 0 if all(res[1] == 0 for _, res in warm) else 1
        return measure(args, work)
    finally:
        stop_helper_processes()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
