"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  CLI-surface criteria go through a real subprocess.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from curvepull.cli import run_sweep
from curvepull.curves import Curve, EntersCycle, EventuallyTrivial, PullbackSystem
from curvepull.endo import schreier_basis, section, section_conjugators
from curvepull.mapdef import builtin
from curvepull.spectra import (
    AbelianVirtualEndo,
    RationalMatrix,
    contraction_coefficient_estimate,
    is_contracting,
    leading_eigenvalue,
)
from curvepull.verify import _min_coset_length, verify_nucleus_table
from curvepull.words import Word, geodesic_length


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label} failed: {detail}"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "curvepull.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def random_reduced(rng, max_len):
    codes = []
    for _ in range(rng.randint(0, max_len)):
        codes.append(rng.choice([c for c in (1, -1, 2, -2) if not codes or c != -codes[-1]]))
    return Word(codes)


def random_in_domain(rng, basis, max_factors=12):
    out = Word.identity()
    for _ in range(rng.randint(0, max_factors)):
        b = rng.choice(basis)
        out = out * (b if rng.random() < 0.5 else ~b)
    return out


def test_criterion_01_nucleus_table():
    rabbit = builtin("rabbit")
    t0 = time.perf_counter()
    res = verify_nucleus_table(rabbit, rabbit.endomorphism())
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    code, out, _ = run_cli("verify", "--map", "rabbit", "--suite", "table7")
    cli_elapsed = time.perf_counter() - t0
    ok = (
        res.total == 49
        and res.passed == 49
        and code == 0
        and "suite table7: 49/49 pass" in out
        and elapsed < 1.0
        and cli_elapsed < 1.0
    )
    report(1, "nucleus table 49/49", ok, f"{res.passed}/49 in {elapsed:.3f}s, cli {cli_elapsed:.2f}s")


def test_criterion_02_generator_images():
    rabbit = builtin("rabbit")
    pr = rabbit.endomorphism()
    w = rabbit.word
    checks = [
        pr.apply(w("x")) == w("y"),
        pr.apply(w("y y")) == w("y^-1 x^-1"),
        pr.apply(w("y^-1 x y")) == Word.identity(),
    ]
    dendrite = builtin("dendrite")
    pd = dendrite.endomorphism()
    v = dendrite.word
    checks += [
        pd.apply(v("a a")) == Word.identity(),
        pd.apply(v("b")) == v("b^-1 a^-1"),
        pd.apply(v("a^-1 b a")) == v("b"),
    ]
    report(2, "generator images exact", all(checks), f"{sum(checks)}/6 identities")


def test_criterion_03_three_cycle():
    system = PullbackSystem(builtin("rabbit"))
    result = system.orbit(Curve(0, Word.identity()), 100)
    cls = result.classification
    orbit_ok = (
        isinstance(cls, EntersCycle)
        and cls.preperiod == 0
        and [c.axis for c in cls.cycle] == [0, 1, 2]
        and all(c.conjugator.is_identity() for c in cls.cycle)
        and cls.cycle_weights == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
        and cls.weight_product == Fraction(1, 4)
    )
    code, out, _ = run_cli(
        "spectra", "--cycle-of", "x", "--map", "rabbit", "--format", "json"
    )
    doc = json.loads(out)
    lam = doc["results"]["leading_eigenvalue"]
    cli_ok = (
        code == 0
        and doc["results"]["cycle_weight_product"] == "1/4"
        and abs(lam - 0.25 ** (1 / 3)) < 1e-9
        and doc["results"]["contracting"] is True
    )
    report(
        3,
        "axis three-cycle and its eigenvalue",
        orbit_ok and cli_ok,
        f"weights 1,1/2,1/2 product 1/4, lambda {lam:.12f}",
    )


def test_criterion_04_rabbit_sweep():
    system = PullbackSystem(builtin("rabbit"))
    t0 = time.perf_counter()
    data = run_sweep(system, 8, 1000)
    elapsed = time.perf_counter() - t0
    n = data["curve_count"]
    unresolved = sum(c for (kind, _), c in data["histogram"].items() if kind == "unresolved")
    ok = (
        n > 1000
        and unresolved == 0
        and not data["counterexamples"]
        and elapsed < 60.0
    )
    report(
        4,
        "rabbit sweep L<=8 trivial-or-3-cycle",
        ok,
        f"{n} curves, 0 unresolved, {elapsed:.1f}s",
    )


def test_criterion_05_dendrite_sweep():
    system = PullbackSystem(builtin("dendrite"))
    t0 = time.perf_counter()
    data = run_sweep(system, 8, 1000)
    elapsed = time.perf_counter() - t0
    n = data["curve_count"]
    all_trivial = all(kind == "trivial" for (kind, _) in data["histogram"])
    ok = (
        n > 1000
        and all_trivial
        and not data["counterexamples"]
        and elapsed < 60.0
    )
    report(
        5,
        "dendrite sweep L<=8 trivial within 4|w|+3",
        ok,
        f"{n} curves, {elapsed:.1f}s",
    )


def test_criterion_06_section_identities():
    dendrite = builtin("dendrite")
    system = PullbackSystem(dendrite)
    psi = system.psi
    rng = random.Random(600)
    section_bad = sum(
        1
        for _ in range(1000)
        if psi.apply(section(w := random_reduced(rng, 24))) != w
    )
    b = dendrite.word("b")
    exact_bad = 0
    orbit_bad = 0
    for n, wn in enumerate(section_conjugators(12), start=1):
        g = b.conj(wn)
        for _ in range(n):
            g = psi.apply(g)
        if g != b:
            exact_bad += 1
        result = system.orbit(Curve(1, wn), 100)
        head = result.steps[:n]
        if not (
            isinstance(result.classification, EventuallyTrivial)
            and all(s.weight == 1 and s.target is not None for s in head)
            and head[-1].target == Curve(1, Word.identity())
            and result.classification.steps == n + 3
        ):
            orbit_bad += 1
    ok = section_bad == 0 and exact_bad == 0 and orbit_bad == 0
    report(
        6,
        "section identities and n-step survival, n<=12",
        ok,
        f"{section_bad} section misses, {exact_bad} exact misses, {orbit_bad} orbit misses",
    )


def test_criterion_07_length_properties():
    dendrite = builtin("dendrite")
    psi = dendrite.endomorphism()
    blocks = [dendrite.third_axis]
    b = dendrite.word("b")
    rng = random.Random(700)
    nonincrease_bad = 0
    decrease_bad = 0
    identity_bad = 0
    eligible = 0
    for _ in range(10_000):
        w = random_reduced(rng, 32)
        hat = psi.apply_hat(w)
        if geodesic_length(hat, blocks) > geodesic_length(w, blocks):
            nonincrease_bad += 1
        if psi.parity.theta(w) == 1 and psi.parity.theta(hat) == 1:
            eligible += 1
            v = psi.apply_hat(hat)
            if psi.apply(psi.apply(b.conj(w))) != b.conj(v):
                identity_bad += 1
            if _min_coset_length(v, b, blocks) >= geodesic_length(w, blocks):
                decrease_bad += 1
    ok = nonincrease_bad == 0 and decrease_bad == 0 and identity_bad == 0
    report(
        7,
        "hat never lengthens; double step shortens b-conjugators",
        ok,
        f"10000 words, {eligible} eligible, 0 counterexamples" if ok else
        f"{nonincrease_bad}/{identity_bad}/{decrease_bad} violations",
    )


def test_criterion_08_spectral_oracle_agreement():
    rng = random.Random(53)
    worst = 0.0
    contradictions = 0
    for i in range(100):
        n = rng.randint(1, 4)
        a = RationalMatrix.from_rows(
            [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
        )
        lam = leading_eigenvalue(a, tol=1e-6)
        est = contraction_coefficient_estimate(
            AbelianVirtualEndo.from_matrix(a), n_steps=40, trials=20, seed=53_000 + i
        )
        worst = max(worst, abs(est - lam) / max(lam, 0.1))
        if lam < 0.99 and not is_contracting(a):
            contradictions += 1
        if lam > 1.01 and is_contracting(a):
            contradictions += 1
    ok = worst <= 0.05 and contradictions == 0
    report(
        8,
        "growth estimator tracks the leading eigenvalue",
        ok,
        f"worst relative gap {worst:.4f}, {contradictions} contradictions",
    )


def test_criterion_09_equivariance():
    bad = 0
    for name in ("rabbit", "dendrite"):
        system = PullbackSystem(builtin(name))
        psi = system.psi
        rng = random.Random(900)
        checked = 0
        while checked < 1000:
            g = random_reduced(rng, 12)
            if not psi.in_domain(g):
                continue
            checked += 1
            curve = system.canonicalize(rng.randrange(3), random_reduced(rng, 6))
            left = system.pullback(system.act(g, curve))
            right = system.pullback(curve)
            if left.weight != right.weight or left.s != right.s:
                bad += 1
            elif right.target is None:
                bad += left.target is not None
            elif left.target != system.act(psi.apply(g), right.target):
                bad += 1
    report(9, "pullback commutes with the group action", bad == 0, f"{bad} mismatches in 2000")


def test_criterion_10_homomorphism():
    bad = 0
    for name in ("rabbit", "dendrite"):
        mapdef = builtin(name)
        psi = mapdef.endomorphism()
        basis = schreier_basis(mapdef.parity)
        rng = random.Random(1000)
        for _ in range(10_000):
            u = random_in_domain(rng, basis)
            v = random_in_domain(rng, basis)
            if psi.apply(u * v) != psi.apply(u) * psi.apply(v):
                bad += 1
    report(10, "endomorphism respects products", bad == 0, f"{bad} mismatches in 20000")
