"""curvepull benchmark.

    python3 perfbench/run.py --workload sweep|long_words|spectra --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports curvepull from ``src/`` there.
Every operation is one ``curvepull.cli.main(argv)`` call in this process,
with stdout captured and checked against a reference (see checks.py).
Operations run back to back in passes over the workload's operation list
(a closed loop, one client) until the next pass would end after
``--seconds``; at least one pass runs.

``--trace 0`` prints the end-to-end metrics, with tracing off:

- wall_s: median over passes of the pass time (the sum of its op times);
- curves_per_s, letters_per_s: curves classified, and curve letters
  (axis letter plus conjugator letters) given as input, by operations that
  answered correctly, per second of pass time; median over passes;
- ops_ok_frac: operations that answered correctly / operations attempted
  (the complement of the failed fraction, so that it is never 0);
- setup_s: median over fresh interpreters, started before the first pass
  and after each pass, of importing curvepull and building both built-in
  PullbackSystems;
- peak_rss_mb: peak RSS of this process or of its largest child.

op_s.p50 (median over passes of the pass's median op time), op_s.p90 and
ops_failed_frac are printed beside them but not gated in BENCHMARK.json.
p90 needs about 100 operations a run (10 samples above it), which only
spectra reaches, and only in its faster runs.  ops_failed_frac is 0 on
most workloads and is gated as ops_ok_frac.  op_s.p50 falls on
millisecond-scale operations whose run-to-run spread on the 2-CPU
benchmark host (0.33-0.41 of the median) exceeds the largest bound
allowed.

``--trace 1`` runs one untraced pass, then one pass with every layer
wrapped (tracing.py), and prints the per-layer metrics and the tracing
overhead; its sweeps run with ``--jobs 1`` and the pool is timed by an
extra untraced pass at the default ``--jobs``.

The last line of stdout is one JSON object with the keys correct (no
operation gave a wrong answer), attempted, failed (operations that exited
nonzero, raised, or answered wrongly) and metrics.  Generated inputs and
span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROCS = 2  # the benchmark host has 2 CPUs; no sweep may start more workers
SETUP_BATCH = 4  # fresh-interpreter set-ups before the first pass and after each
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from curvepull import PullbackSystem, load_map
for name in ("rabbit", "dendrite"):
    PullbackSystem(load_map(name))
print(time.perf_counter() - t0)
"""


class OpResult:
    __slots__ = ("op", "seconds", "code", "reason")

    def __init__(self, op: dict, seconds: float, code, reason: str | None):
        self.op, self.seconds, self.code, self.reason = op, seconds, code, reason

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def wrong(self) -> bool:
        """Answered (exit 0) but the answer differs from the reference."""
        return self.code == 0 and self.reason is not None


def run_op(cli, op: dict, work_dir: str) -> OpResult:
    argv = [os.path.join(work_dir, a) if a == op.get("input_file") else a for a in op["argv"]]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        seconds = time.perf_counter() - t0
        return OpResult(op, seconds, None, f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    reason = checks.check(op, code, out.getvalue())
    if code != 0:
        reason = f"{reason}: {err.getvalue().strip()[:160]}"
    return OpResult(op, seconds, code, reason)


def run_pass(cli, ops, work_dir, tracer=None) -> list[OpResult]:
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        return [run_op(cli, op, work_dir) for op in ops]


def wall(results) -> float:
    return sum(r.seconds for r in results)


def measure_setup() -> float:
    """Fresh interpreter: import curvepull and build both built-in systems."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of the largest process: this one or any child (pool
    workers, set-up interpreters).  A child's peak includes the pages it
    shares with this process until it execs, so the two are not added."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def with_jobs(op: dict, jobs: int) -> dict:
    argv = list(op["argv"])
    if "--jobs" in argv:
        del argv[argv.index("--jobs") : argv.index("--jobs") + 2]
    return dict(op, argv=argv + ["--jobs", str(jobs)])


def end_to_end(passes, setup) -> dict[str, float]:
    walls = [wall(p) for p in passes]
    flat = [r for p in passes for r in p]

    def rate(key):
        return statistics.median(sum(r.op[key] for r in p if r.ok) / wall(p) for p in passes)

    return {
        "wall_s": statistics.median(walls),
        "curves_per_s": rate("curves"),
        "letters_per_s": rate("letters"),
        "ops_ok_frac": sum(r.ok for r in flat) / len(flat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def p50_line(passes) -> str:
    # Median op time of each pass, then the median over passes: pooling
    # would let a two-op pass (sweep) flip between its two ops.
    p50 = statistics.median(statistics.median(r.seconds for r in p) for p in passes)
    return f"op_s.p50: {p50:.6f} s over {sum(len(p) for p in passes)} samples"


def p90_line(flat) -> str:
    times = sorted(r.seconds for r in flat)
    above = len(times) - int(0.9 * len(times)) - 1
    if above < 10:
        return f"op_s.p90: not reported, {len(times)} samples leave {max(above, 0)} above it (needs 10)"
    return f"op_s.p90: {statistics.quantiles(times, n=10)[-1]:.6f} s over {len(times)} samples"


def timed_run(cli, ops, work_dir, seconds) -> tuple[list[OpResult], dict, list[str]]:
    measure_setup()  # the first fresh import also writes the bytecode cache
    # Set-up samples are spread over the run, between passes, so that their
    # median sees the same drift of host speed as the passes do.
    setup = [measure_setup() for _ in range(SETUP_BATCH)]
    passes = []
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(run_pass(cli, ops, work_dir))
        setup += [measure_setup() for _ in range(SETUP_BATCH)]
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + longest > deadline:
            break
    flat = [r for p in passes for r in p]
    notes = [
        f"passes: {len(passes)}, walls: " + ", ".join(f"{wall(p):.3f}" for p in passes) + " s",
        f"setup samples: " + ", ".join(f"{s:.4f}" for s in setup) + " s",
        p50_line(passes),
        p90_line(flat),
        f"ops_failed_frac: {sum(not r.ok for r in flat) / len(flat):.4f} "
        f"({sum(not r.ok for r in flat)} of {len(flat)})",
    ]
    for i, op in enumerate(ops):
        seconds = statistics.median(p[i].seconds for p in passes)
        notes.append(f"op {seconds:10.4f} s  {op['label']}")
    return flat, end_to_end(passes, setup), notes


def traced_run(cli, workload, ops, work_dir, seed) -> tuple[list[OpResult], dict, list[str]]:
    flat = []
    notes = []
    if workload == "sweep":
        # Traced sweeps run serially (tracing.py); the pool is timed untraced.
        default = tracing.Tracer(only={"cli.run_sweep"})
        flat += run_pass(cli, ops, work_dir, default)
        ops = [with_jobs(op, 1) for op in ops]
        serial = tracing.Tracer(only={"cli.run_sweep"})
        base = run_pass(cli, ops, work_dir, serial)
        pool = default.aggregate()["cli.run_sweep"]["s"] - serial.aggregate()["cli.run_sweep"]["s"]
        notes.append(f"run_sweep at default --jobs minus --jobs 1: {pool:.4f} s")
    else:
        base = run_pass(cli, ops, work_dir)
        pool = 0.0
    flat += base
    tracer = tracing.Tracer()
    traced = run_pass(cli, ops, work_dir, tracer)
    flat += traced
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.run_sweep.pool_overhead_s"] = pool
    metrics["trace.wall_s"] = wall(traced)
    metrics["trace.overhead_s"] = wall(traced) - wall(base)
    span_file = os.path.join(OUT, f"spans-{workload}-{seed}.bin")
    tracer.write(span_file)
    notes.append(f"untraced wall_s {wall(base):.4f} s, traced wall_s {wall(traced):.4f} s, "
                 f"{len(tracer.start)} spans written to {os.path.relpath(span_file, ROOT)}")
    return flat, metrics, notes


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def import_cli():
    """curvepull.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        from curvepull import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import curvepull from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported curvepull from {cli.__file__}, not from {SRC}")
    return cli


def main() -> None:
    parser = argparse.ArgumentParser(description="curvepull benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_cli()
    work_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    cpus = os.cpu_count() or 1
    ops = workloads.generate(args.workload, args.seed, work_dir,
                             sweep_jobs=None if cpus <= MAX_PROCS else MAX_PROCS)
    # Parse the built-in maps once, as any process that has run one command has.
    from curvepull.mapdef import load_map
    for name in ("rabbit", "dendrite"):
        load_map(name)

    if args.trace:
        flat, metrics, notes = traced_run(cli, args.workload, ops, work_dir, args.seed)
        units = metric_units("per_layer")
    else:
        flat, metrics, notes = timed_run(cli, ops, work_dir, args.seconds)
        units = metric_units("end_to_end")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(ops)} operations per pass")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    failures = collections.Counter((r.op["label"], r.reason) for r in flat if not r.ok)
    for (label, reason), count in failures.items():
        print(f"  FAILED x{count} {label}: {reason}")
    print(json.dumps({
        "correct": not any(r.wrong for r in flat),
        "attempted": len(flat),
        "failed": sum(not r.ok for r in flat),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
