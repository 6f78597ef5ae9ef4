"""Command-line front end.

Each ``cmd_*`` returns its report, text lines and exit code; ``main``
times it and emits the JSON envelope: ``command`` first, then the
command's own keys (``map``, ``inputs``, ``results``), ``elapsed_s`` last.
``verify --n`` is read only by the prop84 suite, so it is a usage error
with any other single suite, and with ``--suite all`` on a map that
prop84 does not apply to; it is at most ``verify.MAX_SECTION_DEPTH``
(20): the prop84 conjugator w_n has 2^(n+1) - 3 letters.
``sweep --max-len`` is at most ``MAX_SWEEP_LENGTH`` (10): the number of
curves triples per letter.  ``--max-steps`` (``orbit``, ``sweep`` and
``spectra --cycle-of``) is at most ``MAX_STEPS`` (10,000): an orbit that
drifts builds conjugators that grow with each step.

``sweep --jobs`` (at least 1; by default the CPUs this process may use)
splits a sweep into that many shares of the curve tree, never more than
the usable CPUs: the calling process classifies one share and a forked
child each other one (see ``run_sweep``).  The report is the same at
every ``--jobs``.

``main`` builds its parser once per process, on its first call, and
reuses it on every later call; it looks up the command's ``cmd_*``
function by name in this module at call time, so a ``cmd_*`` replaced
after that first call (say, by a wrapper that traces it) is the one
that runs.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error.  Rational weights are printed exactly as p/q;
floats appear only in eigenvalue estimates.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import gc
import json
import math
import operator
import os
import pickle
import signal
import sys
import threading
import time
from typing import BinaryIO, Callable, NamedTuple

from .curves import EntersCycle, EventuallyTrivial, PullbackSystem, Unresolved, order_key
from .mapdef import load_map
from .verify import MAX_SECTION_DEPTH, SUITES, VERDICT_CHECKS, SuiteError, applies, run_suite, sweep_facts

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(report: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))


def cmd_orbit(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    mapdef = load_map(args.map)
    system = PullbackSystem(mapdef)
    result = system.orbit(system.parse_curve(args.curve), args.max_steps)
    lines = [f"map: {mapdef.name}", f"curve: {system.format_curve(result.start)}"]
    steps_json = []
    for i, step in enumerate(result.steps, start=1):
        target = "o" if step.target is None else system.format_curve(step.target)
        lines.append(f"step {i}: target {target}  s {step.s}  t {step.t}  weight {step.weight}")
        steps_json.append(
            {"target": None if step.target is None else target, "s": step.s, "t": step.t, "weight": str(step.weight)}
        )
    cls = result.classification
    if isinstance(cls, EventuallyTrivial):
        lines.append(f"classification: trivial after {cls.steps} steps")
        cls_json: dict = {"kind": "trivial", "steps": cls.steps}
    elif isinstance(cls, EntersCycle):
        cycle = [system.format_curve(c) for c in cls.cycle]
        weights = [str(w) for w in cls.cycle_weights]
        product = str(cls.weight_product)
        lines.append(f"classification: enters cycle, preperiod {cls.preperiod}, period {len(cls.cycle)}")
        lines.append("cycle: " + " -> ".join(cycle))
        lines.append("cycle weights: " + " ".join(weights))
        lines.append(f"cycle weight product: {product}")
        cls_json = {
            "kind": "cycle",
            "preperiod": cls.preperiod,
            "cycle": cycle,
            "cycle_weights": weights,
            "cycle_weight_product": product,
        }
    else:
        assert isinstance(cls, Unresolved)
        lines.append(f"classification: unresolved after {cls.max_steps} steps")
        cls_json = {"kind": "unresolved", "max_steps": cls.max_steps}
    return {
        "map": mapdef.name,
        "inputs": {"curve": args.curve, "max_steps": args.max_steps},
        "results": {"steps": steps_json, "classification": cls_json},
    }, lines, 0


def cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    mapdef = load_map(args.map)
    prop84_maps = SUITES["prop84"][0]
    if "n" in vars(args) and args.suite == "all" and not applies(prop84_maps, mapdef):
        raise SuiteError(f"--n applies only to the prop84 suite, which requires map {' or '.join(prop84_maps)}")
    results = run_suite(args.suite, mapdef, n_max=getattr(args, "n", 12))
    lines = [f"map: {mapdef.name}"]
    suites_json = []
    for res in results:
        for item in res.items:
            status = "PASS" if item.ok else "FAIL"
            detail = f"  [{item.detail}]" if item.detail and not item.ok else ""
            lines.append(f"{status} {res.suite}: {item.label}{detail}")
        lines.append(f"suite {res.suite}: {res.passed}/{res.total} pass")
        suites_json.append(
            {
                "suite": res.suite,
                "passed": res.passed,
                "total": res.total,
                "items": [
                    {"label": it.label, "ok": it.ok, "detail": it.detail}
                    for it in res.items
                ],
            }
        )
    ok = all(res.ok for res in results)
    return {
        "map": mapdef.name,
        "inputs": {"suite": args.suite},
        "results": {"suites": suites_json, "ok": ok},
    }, lines, 0 if ok else CHECK_FAILED


# Longest conjugator ``sweep`` accepts: the number of curves triples per
# letter, and length 10 (196,830 curves on the rabbit) already takes about
# 1.9-3.5 s and 94 MB per process at the default --jobs, and 3.2-6.3 s and
# 167 MB at --jobs 1 (2-CPU host, Python 3.11).
MAX_SWEEP_LENGTH = 10

# Most pullback steps ``orbit``, ``sweep`` and ``spectra --cycle-of`` take
# per orbit.  An orbit that drifts (ROADMAP item 2's twisted rabbit, whose
# z-orbit moves by x^-1 every 2 steps) costs time and memory quadratic in
# the steps: ``orbit --curve z`` on it takes 9-12 s and 574 MB at 10,000
# steps (0.3-0.5 s and 40 MB at 2,000; 2-CPU host, Python 3.11).
MAX_STEPS = 10_000


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_count(system: PullbackSystem, max_len: int, jobs: int | None) -> int:
    """The number of shares a sweep runs in: ``jobs`` (default: the
    usable CPUs), but never more than the usable CPUs or the non-empty
    shares, and 1 where this process cannot fork, or should not because
    another thread runs in it."""
    cpus = _usable_cpus()
    k = cpus if jobs is None else min(jobs, cpus)
    if k < 2 or max_len < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    # each non-empty share holds at least one curve of length 2
    return min(k, sum(len(c.conjugator) == 2 for c in system.enumerate_curves(2)))


class _Tally(NamedTuple):
    """One share's part of a sweep report.

    Each counterexample is (``order_key`` of its curve, text).  The error
    is None, or (key, exception) for the exception that stopped the
    share, with key (0, order key of the start whose walk raised) while
    classifying and (1, order key of the curve) while checking.
    """

    count: int
    histogram: dict[tuple[str, int], int]
    counterexamples: list[tuple[tuple, str]]
    error: tuple[tuple, Exception] | None


def _sweep_share(system: PullbackSystem, max_len: int, max_steps: int, share: int, shares: int) -> _Tally:
    """Enumerate, classify and check one share of a sweep's curves.

    ``classify`` builds one object per distinct verdict, about 15 in a
    share of thousands of curves, so the histogram is counted per object
    and each check in ``verify.VERDICT_CHECKS`` runs once per object, on
    its first curve.  The curves are walked one by one only for the other
    checks, which read the curve, and for a verdict whose checks found a
    problem or raised: there every check runs again in table order, so
    the counterexamples and the error are those of a check of every
    curve in turn.
    """
    curves = system.enumerate_curves(max_len, share=share, shares=shares)
    facts = sweep_facts(system.mapdef)
    histogram: dict[tuple[str, int], int] = {}
    counterexamples: list[tuple[tuple, str]] = []
    phase, at = 0, None

    def starts():
        # ``classify`` takes the next start only when the last one's walk is done
        nonlocal at
        for at in curves:
            yield at

    try:
        classes = system.classify(starts(), max_steps)
        phase = 1
        ids = list(map(id, classes))
        verdicts = dict(zip(ids, classes))
        for vid, count in collections.Counter(ids).items():
            cls = verdicts[vid]
            if isinstance(cls, EventuallyTrivial):
                key = ("trivial", cls.steps)
            elif isinstance(cls, EntersCycle):
                key = ("cycle", cls.preperiod)
            else:
                key = ("unresolved", 0)
            histogram[key] = histogram.get(key, 0) + count
        per_curve = [check for check in facts if check not in VERDICT_CHECKS]
        todo = {}  # verdict id -> the checks to run on each of its curves
        # reversed, so that each id keeps its first curve
        for vid, curve in dict(zip(reversed(ids), reversed(curves))).items():
            try:
                clean = all(check(system, curve, verdicts[vid]) is None for check in facts if check in VERDICT_CHECKS)
            except Exception:  # raised again below, at this curve
                clean = False
            todo[vid] = per_curve if clean else facts
        if any(todo.values()):
            for at, cls, vid in zip(curves, classes, ids):
                for check in todo[vid]:
                    problem = check(system, at, cls)
                    if problem is not None:
                        counterexamples.append((order_key(at), f"{system.format_curve(at)}: {problem}"))
    except Exception as exc:  # reported by run_sweep, after every share is in
        return _Tally(len(curves), histogram, counterexamples, ((phase, order_key(at) if at else ()), exc))
    return _Tally(len(curves), histogram, counterexamples, None)


def _fork(reaper: contextlib.ExitStack, work: Callable[[], object]) -> BinaryIO:
    """Run ``work()`` in a forked child and return the read end of a pipe
    that carries its pickled result.  However the caller leaves
    ``reaper``, it closes the pipe, then kills and reaps the child."""
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:  # the child writes its result and exits, whatever happens
            try:
                os.close(r)
                result = pickle.dumps(work())  # all or nothing reaches the pipe
                with open(w, "wb") as out:
                    out.write(result)
            finally:
                os._exit(0)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    reaper.callback(os.waitpid, pid, 0)
    reaper.callback(os.kill, pid, signal.SIGKILL)
    return reaper.enter_context(open(r, "rb"))


def _receive(pipe: BinaryIO) -> _Tally:
    data = pipe.read()
    if not data:
        raise ChildProcessError("a sweep process ended without a result")
    return pickle.loads(data)


def run_sweep(system: PullbackSystem, max_len: int, max_steps: int, jobs: int | None = None) -> dict:
    """Classify every curve with conjugator length <= max_len; return the
    curve count, the histogram and the counterexamples found by
    ``verify.sweep_facts``, in curve order.

    The curves are split into ``_share_count`` shares, disjoint subtrees
    of the enumeration (``PullbackSystem.enumerate_curves``).  Share 0
    runs in this process, each other share in a forked child that
    enumerates, classifies and checks its own curves and sends back its
    tally.  Counts and histograms add up, and the counterexamples are
    merged by curve order, so the report is the one-process report.

    If a share raised, the error of the earliest start in curve order
    is raised, after every child has been reaped.  That is the error
    one process would raise.  A start's walk raises when it reaches a
    curve whose pullback raises, and whether it does is not changed by
    the memo of the walks before it: a pullback depends only on its
    curve, the memo stores only pullbacks that returned, and a walk
    stops at a curve with a verdict only when that curve's whole orbit
    was pulled back without error.  So one process raises at the first
    start in curve order whose orbit (up to ``max_steps`` curves) meets
    a failing pullback; each share raises at its own first such start,
    which is the global first one in the share that holds it.  The same
    holds for the checks, which run only once a share's classification
    has finished, so an error while classifying comes before any error
    while checking.

    The cyclic garbage collector is off for the whole sweep, in this
    process and so in each forked child, and the caller's setting is
    restored after it.  A sweep builds no reference cycles (a collection
    after a length-8 sweep frees nothing), but it allocates hundreds of
    thousands of tuples, words and curves, and the collections that they
    set off took 14-19% of the classification.  In a child a collection
    would also write to the pages it shares with this process, and so
    copy them.
    """
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1")
    shares = _share_count(system, max_len, jobs)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.ExitStack() as reaper:
            pipes = [
                _fork(reaper, functools.partial(_sweep_share, system, max_len, max_steps, share, shares))
                for share in range(1, shares)
            ]
            tallies = [_sweep_share(system, max_len, max_steps, 0, shares)]
            tallies += [_receive(pipe) for pipe in pipes]
    finally:
        if enabled:
            gc.enable()
    errors = [t.error for t in tallies if t.error is not None]
    if errors:
        raise min(errors, key=operator.itemgetter(0))[1]
    histogram: collections.Counter = collections.Counter()
    for t in tallies:
        histogram.update(t.histogram)
    found = sorted((ce for t in tallies for ce in t.counterexamples), key=operator.itemgetter(0))
    return {
        "curve_count": sum(t.count for t in tallies),
        "histogram": histogram,
        "counterexamples": [text for _, text in found],
    }


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    mapdef = load_map(args.map)
    system = PullbackSystem(mapdef)
    data = run_sweep(system, args.max_len, args.max_steps, args.jobs)
    histogram = data["histogram"]
    counterexamples = data["counterexamples"]
    lines = [
        f"map: {mapdef.name}",
        f"curves with conjugator length <= {args.max_len}: {data['curve_count']}",
    ]
    hist_json = []
    for (kind, n), count in sorted(histogram.items()):
        label = {"trivial": "trivial in", "cycle": "cycle with preperiod", "unresolved": "unresolved after"}[kind]
        lines.append(f"  {label} {n if kind != 'unresolved' else args.max_steps}: {count}")
        hist_json.append({"kind": kind, "steps": n, "count": count})
    for ce in counterexamples:
        lines.append(f"COUNTEREXAMPLE {ce}")
    ok = not counterexamples
    lines.append("sweep: ok" if ok else f"sweep: {len(counterexamples)} counterexamples")
    return {
        "map": mapdef.name,
        "inputs": {"max_len": args.max_len, "max_steps": args.max_steps},
        "results": {
            "curve_count": data["curve_count"],
            "histogram": hist_json,
            "counterexamples": counterexamples,
            "ok": ok,
        },
    }, lines, 0 if ok else CHECK_FAILED


def cmd_spectra(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from . import spectra  # here, so that no other command compiles it

    lines = []
    report_inputs: dict = {"tol": args.tol} if args.matrix else {}
    if args.matrix:
        with open(args.matrix, encoding="utf-8") as fh:
            matrix = spectra.parse_matrix(fh.read())
        report_inputs["matrix"] = args.matrix
        lines.append(f"matrix: {args.matrix} ({matrix.n}x{matrix.n})")
        contracting = spectra.is_contracting(matrix)
        try:
            lam = spectra.leading_eigenvalue(matrix, tol=args.tol)
        except ArithmeticError:
            # a nearly decomposable block can outlast the iteration cap;
            # the exact verdict does not depend on the estimate
            lam = None
        cycle_results = {}
    else:
        mapdef = load_map(args.map)
        system = PullbackSystem(mapdef)
        curve = system.parse_curve(args.cycle_of)
        result = system.orbit(curve, getattr(args, "max_steps", 1000))
        cls = result.classification
        if not isinstance(cls, EntersCycle):
            raise ValueError(
                f"orbit of {args.cycle_of!r} does not enter a cycle (classification: {cls.kind})"
            )
        # The cycle matrix is a weighted p-cycle: rho^p is its weight product.
        product, p = cls.weight_product, len(cls.cycle)
        lam = spectra.cycle_radius(product, p)
        contracting = product < 1
        cycle_results = {"cycle_weight_product": str(product), "cycle_length": p}
        report_inputs.update({"map": mapdef.name, "curve": args.cycle_of})
        lines.append(f"map: {mapdef.name}")
        lines.append("cycle: " + " -> ".join(system.format_curve(c) for c in cls.cycle))
        lines.append(f"cycle weight product: {product}")
    lines.append(f"leading eigenvalue: {'not converged' if lam is None else format(lam, '.12g')}")
    lines.append(f"contracting: {'true' if contracting else 'false'}")
    # JSON has no infinity: a rho beyond float range reads null there
    results = {"leading_eigenvalue": None if lam == math.inf else lam, "contracting": contracting, **cycle_results}
    return {"inputs": report_inputs, "results": results}, lines, 0


def cmd_mapinfo(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    mapdef = load_map(args.map)
    parity = mapdef.parity
    lines = [f"map: {mapdef.name}"]
    for g, bit in zip(mapdef.gens, mapdef.parity_bits):
        lines.append(f"generator {g}: parity {bit}")
    lines.append(f"coset representative: {mapdef.gens[parity.transversal_gen]}")
    lines.append(
        f"axes: {mapdef.axis_names[0]}, {mapdef.axis_names[1]}, "
        f"{mapdef.third_axis_name} = {mapdef.format(mapdef.third_axis)}"
    )
    schreier_json = []
    for lhs, rhs in mapdef.schreier_images:
        lines.append(f"schreier {mapdef.format(lhs)} -> {mapdef.format(rhs)}")
        schreier_json.append({"from": mapdef.format(lhs), "to": mapdef.format(rhs)})
    return {
        "map": mapdef.name,
        "results": {
            "generators": list(mapdef.gens),
            "parity": list(mapdef.parity_bits),
            "coset_representative": mapdef.gens[parity.transversal_gen],
            "axes": list(mapdef.axis_names),
            "third_axis_word": mapdef.format(mapdef.third_axis),
            "schreier": schreier_json,
        },
    }, lines, 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="curvepull",
        description="Exact pullback dynamics of curves under quadratic Thurston maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--map", required=True, help="built-in name, file path, or name on CURVEPULL_MAP_PATH")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_orbit = sub.add_parser("orbit", help="pullback orbit of one curve")
    add_common(p_orbit)
    p_orbit.add_argument("--curve", required=True, help="AXIS or AXIS^(WORD)")
    p_orbit.add_argument("--max-steps", type=int, default=1000)

    p_verify = sub.add_parser("verify", help="check a built-in map against its reference identities")
    add_common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    # no default, so that main can tell a --n given with another suite
    p_verify.add_argument("--n", type=int, default=argparse.SUPPRESS, help="depth for the prop84 suite (default 12)")

    p_sweep = sub.add_parser("sweep", help="classify all curves up to a conjugator length")
    add_common(p_sweep)
    p_sweep.add_argument("--max-len", type=int, required=True)
    p_sweep.add_argument("--max-steps", type=int, default=1000)
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="processes to split the sweep over (default: the CPUs this process may use; "
                              "never more than those)")

    p_spectra = sub.add_parser("spectra", help="leading eigenvalue and exact contraction verdict")
    p_spectra.add_argument("--matrix", help="matrix file: first line n, then n rows of rationals")
    p_spectra.add_argument("--cycle-of", dest="cycle_of", help="curve whose orbit cycle matrix to analyze")
    p_spectra.add_argument("--map", help="map for --cycle-of")
    # no defaults, so that main can tell a --max-steps given with --matrix, or a --tol with --cycle-of
    p_spectra.add_argument("--max-steps", type=int, default=argparse.SUPPRESS, help="orbit cut for --cycle-of (default 1000)")
    p_spectra.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                           help="stopping threshold of the --matrix power iteration (default 1e-10)")
    p_spectra.add_argument("--format", choices=("text", "json"), default="text")

    p_info = sub.add_parser("mapinfo", help="show a map definition")
    add_common(p_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "spectra":
        from . import spectra

        if bool(args.matrix) == bool(args.cycle_of):
            parser.error("spectra needs exactly one of --matrix or --cycle-of")
        if args.cycle_of and not args.map:
            parser.error("--cycle-of requires --map")
        if args.matrix and (args.map is not None or "max_steps" in vars(args)):
            parser.error("--map and --max-steps apply only to --cycle-of")
        if args.cycle_of and "tol" in vars(args):
            parser.error("--tol applies only to --matrix")
        if not 0 < vars(args).setdefault("tol", spectra.DEFAULT_TOL) < math.inf:  # nan fails too
            parser.error("--tol must be a positive finite number")
    if getattr(args, "max_steps", 1) < 1:
        parser.error("--max-steps must be at least 1")
    if getattr(args, "max_steps", 1) > MAX_STEPS:
        parser.error(f"--max-steps must be at most {MAX_STEPS}")
    if "n" in vars(args):
        if args.suite not in ("prop84", "all"):
            parser.error("--n applies only to --suite prop84 or all")
        if args.n < 1:
            parser.error("--n must be at least 1")
        if args.n > MAX_SECTION_DEPTH:
            parser.error(f"--n must be at most {MAX_SECTION_DEPTH}")
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if getattr(args, "max_len", 0) < 0:
        parser.error("--max-len must be at least 0")
    if getattr(args, "max_len", 0) > MAX_SWEEP_LENGTH:
        parser.error(f"--max-len must be at most {MAX_SWEEP_LENGTH}")
    try:
        t0 = time.perf_counter()
        report, lines, code = globals()[f"cmd_{args.command}"](args)
        _emit({"command": args.command, **report, "elapsed_s": time.perf_counter() - t0}, args.format, lines)
        return code
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
