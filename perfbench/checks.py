"""Reference checks for benchmark operations.

``check(op, code, stdout)`` returns None when the CLI's answer to ``op``
matches its reference and a one-line reason otherwise.  References come
from the generator (how an input was built), from facts of the source
paper, and for ``sweep`` from histograms frozen from the seed commit in
``frozen/``.  Nothing here calls curvepull.
"""

from __future__ import annotations

import json
import math
import os

FROZEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")
RHO_REL_TOL = 1e-6


def frozen_sweep(map_name: str) -> dict:
    with open(os.path.join(FROZEN_DIR, f"sweep-{map_name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_sweep(expect: dict, results: dict) -> str | None:
    if results.get("curve_count") != expect["curve_count"]:
        return f"curve_count {results.get('curve_count')}, want {expect['curve_count']}"
    if results.get("counterexamples") or results.get("ok") is not True:
        return f"sweep reports counterexamples: {results.get('counterexamples')!r:.200}"
    histogram = results.get("histogram", [])
    kinds = {h["kind"] for h in histogram}
    if expect["map"] == "dendrite":
        # Every dendrite curve becomes trivial within 4|w|+3 steps.
        bound = 4 * expect["max_len"] + 3
        if kinds != {"trivial"} or max(h["steps"] for h in histogram) > bound:
            return f"dendrite histogram leaves 'trivial within {bound}': {histogram!r:.200}"
    elif not kinds <= {"trivial", "cycle"}:
        return f"rabbit histogram has kinds {sorted(kinds)}, want trivial or cycle"
    if sum(h["count"] for h in histogram) != expect["curve_count"]:
        return "histogram counts do not add up to curve_count"
    if _canonical(results) != _canonical(frozen_sweep(expect["map"])):
        return "results differ from the histogram frozen from the seed commit"
    return None


def check_orbit(expect: dict, results: dict) -> str | None:
    cls = results["classification"]
    steps = results["steps"]
    if expect["map"] == "dendrite":
        if cls["kind"] != "trivial":
            return f"dendrite orbit classified {cls['kind']!r}, want trivial"
        if cls["steps"] > expect["trivial_within"]:
            return f"trivial after {cls['steps']} steps, bound {expect['trivial_within']}"
    elif cls["kind"] == "cycle":
        # Rabbit: trivial, or the axis three-cycle with weight product 1/4.
        if sorted(cls["cycle"]) != ["x", "y", "z"] or cls["cycle_weight_product"] != "1/4":
            return f"rabbit cycle {cls['cycle']} product {cls['cycle_weight_product']}, want axis 3-cycle 1/4"
    elif cls["kind"] != "trivial":
        return f"rabbit orbit classified {cls['kind']!r}, want trivial or cycle"
    if cls["kind"] == "trivial" and cls["steps"] != len(steps):
        return f"trivial after {cls['steps']} steps but {len(steps)} steps listed"
    survives = expect.get("survives")
    if survives is not None:
        alive = next((i for i, st in enumerate(steps) if st["target"] is None), len(steps))
        if alive < survives:
            return f"became trivial after {alive} pullbacks, must survive {survives}"
    return None


def check_verify(expect: dict, results: dict) -> str | None:
    suites = results["suites"]
    total = sum(s["total"] for s in suites)
    passed = sum(1 for s in suites for it in s["items"] if it["ok"])
    if total != expect["items"] or passed != total or results["ok"] is not True:
        return f"{passed}/{total} items pass, want {expect['items']}/{expect['items']}"
    return None


def check_spectra(expect: dict, results: dict) -> str | None:
    if results["contracting"] is not expect["contracting"]:
        return f"contracting {results['contracting']}, want {expect['contracting']}"
    lam, rho = results["leading_eigenvalue"], expect["rho"]
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)) or abs(lam - rho) > RHO_REL_TOL * max(1.0, rho):
        return f"leading eigenvalue {lam!r}, want {rho!r}"
    for key in ("cycle_weight_product", "cycle_length"):
        if key in expect and results.get(key) != expect[key]:
            return f"{key} {results.get(key)!r}, want {expect[key]!r}"
    return None


CHECKERS = {
    "sweep": check_sweep,
    "orbit": check_orbit,
    "verify": check_verify,
    "spectra": check_spectra,
}


def check(op: dict, code, stdout: str) -> str | None:
    """None if the operation answered correctly; otherwise why it did not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
        return CHECKERS[op["expect"]["kind"]](op["expect"], doc["results"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
