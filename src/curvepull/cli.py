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

``sweep --jobs`` is parsed and must be at least 1, for scripts that
pass it; nothing reads it: a sweep runs in the calling process, and
``PullbackSystem.sweep`` makes its verdicts (see ``run_sweep``).

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
import functools
import gc
import json
import math
import sys
import time
from typing import Iterable

from .curves import Classification, Curve, EntersCycle, EventuallyTrivial, PullbackError, PullbackSystem, Unresolved
from .mapdef import load_map
from .verify import MAX_SECTION_DEPTH, SUITES, SuiteError, applies, run_suite, sweep_facts

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
# letter, and the number of merged prefix states grows 2-2.2 fold.  At
# length 10 (196,830 curves, 21,891 states on the rabbit) a sweep takes
# about 0.12-0.17 s and 23 MB on the rabbit and 0.05-0.07 s and 19 MB on
# the dendrite, in a fresh process (2-CPU host, Python 3.11).  A sweep that
# falls back to its curves one by one (see ``run_sweep``) takes far longer:
# 40-60 s and 167 MB on the twisted rabbit of the tests and the CI, whose
# cut orbits ``classify`` walks again once per curve.
MAX_SWEEP_LENGTH = 10

# Most pullback steps ``orbit``, ``sweep`` and ``spectra --cycle-of`` take
# per orbit.  An orbit that drifts (the twisted rabbit of the tests and the
# CI, whose z-orbit moves by x^-1 every 2 steps) costs time and memory
# quadratic in the steps: ``orbit --curve z`` on it takes 9-12 s and 574 MB
# at 10,000 steps (0.3-0.5 s and 40 MB at 2,000; 2-CPU host, Python 3.11).
MAX_STEPS = 10_000


def _bucket(cls: Classification) -> tuple[str, int]:
    """The histogram line of a classification."""
    if isinstance(cls, EventuallyTrivial):
        return ("trivial", cls.steps)
    if isinstance(cls, EntersCycle):
        return ("cycle", cls.preperiod)
    return ("unresolved", 0)


def _report(system: PullbackSystem, groups: Iterable[tuple[int, Classification, int, Curve | None]]) -> dict | None:
    """The sweep report of (conjugator length, classification, number of
    curves, curve) groups, or None where a merged prefix state's group,
    whose curve is None, fails a check or a length test.  The checks of
    ``verify.sweep_facts`` run in table order: one without a length test
    once per distinct classification, given None for the curve, and one
    with a length test on the curve where the test fails."""
    facts = sweep_facts(system.mapdef)
    histogram: collections.Counter = collections.Counter()
    counterexamples = []
    todo_of: dict[int, list] = {}  # classification id -> (check, length test, problem) rows that act on a group
    curve_count = 0
    for length, cls, count, curve in groups:
        curve_count += count
        histogram[_bucket(cls)] += count
        todo = todo_of.get(id(cls))
        if todo is None:
            rows = [(check, test, None if test else check(system, None, cls)) for check, test in facts]
            todo = todo_of[id(cls)] = [row for row in rows if row[1] or row[2] is not None]
        for check, test, problem in todo:
            if test and not test(length, cls):
                if curve is None:
                    return None
                problem = check(system, curve, cls)
            if problem is not None:
                if curve is None:
                    return None
                counterexamples.append(f"{system.format_curve(curve)}: {problem}")
    return {"curve_count": curve_count, "histogram": histogram, "counterexamples": counterexamples}


def _sweep_states(system: PullbackSystem, max_len: int, max_steps: int) -> dict | None:
    """The report of ``PullbackSystem.sweep``'s merged prefix states, or
    None where they cannot vouch for it: a twist-table entry holds a
    fault, or a state's group fails a check or a length test, or raises."""
    try:
        found = system.sweep(max_len, max_steps)
    except PullbackError:
        return None
    try:
        return _report(system, ((length, cls, count, None) for length, cls, count in found))
    except Exception:  # raised again by the curve path, at its curve
        return None


def _sweep_curves(system: PullbackSystem, max_len: int, max_steps: int) -> dict:
    """The report of the curves one by one, in curve order."""
    curves = system.enumerate_curves(max_len)
    classes = system.classify(curves, max_steps)
    return _report(system, ((len(c.conjugator), cls, 1, c) for c, cls in zip(curves, classes)))


def run_sweep(system: PullbackSystem, max_len: int, max_steps: int) -> dict:
    """Classify every curve with conjugator length <= max_len; return the
    curve count, the histogram and the counterexamples found by
    ``verify.sweep_facts``, in curve order.

    ``_report`` checks the merged prefix states (``_sweep_states``) and,
    where they cannot vouch for the report, the curves one by one
    (``_sweep_curves``).  A sweep runs in this process.

    The cyclic garbage collector is off for the whole sweep, and the
    caller's setting is restored after it.  A sweep builds no reference
    cycles, but it allocates tens of thousands of tuples, words and
    curves, and the collections that they set off took 12-20% of a sweep
    to length 8 or 10.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _sweep_states(system, max_len, max_steps) or _sweep_curves(system, max_len, max_steps)
    finally:
        if enabled:
            gc.enable()


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    mapdef = load_map(args.map)
    system = PullbackSystem(mapdef)
    data = run_sweep(system, args.max_len, args.max_steps)
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

    max_steps_help = f"pullbacks per orbit before it is unresolved (default 1000, at most {MAX_STEPS})"

    p_orbit = sub.add_parser("orbit", help="pullback orbit of one curve")
    add_common(p_orbit)
    p_orbit.add_argument("--curve", required=True, help="AXIS or AXIS^(WORD)")
    p_orbit.add_argument("--max-steps", type=int, default=1000, help=max_steps_help)

    p_verify = sub.add_parser("verify", help="check a built-in map against its reference identities")
    add_common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    # no default, so that main can tell a --n given with another suite
    p_verify.add_argument("--n", type=int, default=argparse.SUPPRESS, help="depth for the prop84 suite (default 12)")

    p_sweep = sub.add_parser("sweep", help="classify all curves up to a conjugator length")
    add_common(p_sweep)
    p_sweep.add_argument("--max-len", type=int, required=True,
                         help=f"longest conjugator to classify, 0 to {MAX_SWEEP_LENGTH}")
    p_sweep.add_argument("--max-steps", type=int, default=1000, help=max_steps_help)
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="accepted for scripts that pass it, at least 1; a sweep runs in one process")

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
