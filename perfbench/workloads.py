"""Seeded input generator for the curvepull benchmark.

``generate(workload, seed, out_dir)`` writes every input the program will
see (the operation list with its word literals, and the matrix files) into
``out_dir`` and returns the operations.  Each operation carries the
reference answer it is checked against.  References come from how the
input was built or from facts of the source paper, never from running
curvepull, and this module does not import curvepull at all.

Run ``python3 perfbench/workloads.py --workload spectra --seed 1 --out DIR``
to write one workload's inputs without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("sweep", "long_words", "spectra")

# Letter codes as in curvepull.words: +-1 is the first generator, +-2 the second.
GENS = {"rabbit": ("x", "y"), "dendrite": ("a", "b")}
AXES = {"rabbit": ("x", "y", "z"), "dendrite": ("a", "b", "c")}

SWEEP_MAX_LEN = 8
SWEEP_CURVES = 21_870  # canonical curves with conjugator length <= 8, per map
SECTION_DEPTHS = range(8, 13)  # b^(w_n), |w_n| = 509 .. 8189
RANDOM_LENGTHS = (500, 1000, 2000, 4000)
POWERS = (("rabbit", "x", "y", (500, 2000, 4000)), ("dendrite", "b", "a", (1000, 3000)))  # axis^(gen^k)
PROP84_DEPTH = 16
CYCLE_PERIODS = tuple(range(2, 11)) + (11, 16)  # 11 and 16 exceed the 10-iterate window
DENSE_SIZES = (8, 16, 24, 32, 40)
SMALL_WEIGHTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def _reduce(codes):
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def _inverse(codes):
    return [-c for c in reversed(codes)]


def _section(codes):
    """Right inverse of the dendrite endomorphism on letters:
    a -> b^-1 a^-1 b^-1 a, b -> a^-1 b a."""
    images = {1: [-2, -1, -2, 1], 2: [-1, 2, 1]}
    out: list[int] = []
    for c in codes:
        out.extend(images[c] if c > 0 else _inverse(images[-c]))
    return _reduce(out)


def section_conjugator(n: int) -> list[int]:
    """w_n = a * s(a) * ... * s^(n-1)(a); the twist b^(w_n) survives n pullbacks."""
    term = [1]
    out = [1]
    for _ in range(n - 1):
        term = _section(term)
        out = _reduce(out + term)
    return out


def geodesic_length(codes) -> int:
    """Dendrite word length over a, b and the third axis c = b^-1 a^-1."""
    blocks = {(-2, -1), (1, 2)}
    best = [0] * (len(codes) + 1)
    for i in range(1, len(codes) + 1):
        best[i] = best[i - 1] + 1
        if i >= 2 and tuple(codes[i - 2 : i]) in blocks:
            best[i] = min(best[i], best[i - 2] + 1)
    return best[-1]


def random_reduced(rng: random.Random, length: int) -> list[int]:
    codes: list[int] = []
    while len(codes) < length:
        c = rng.choice((1, -1, 2, -2))
        if not codes or codes[-1] != -c:
            codes.append(c)
    return codes


def literal(codes, gens) -> str:
    return " ".join(gens[abs(c) - 1] + ("" if c > 0 else "^-1") for c in codes)


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sweep_letters() -> int:
    """Curve letters enumerated for one map: each of the 3 axes under every
    reduced conjugator of length 0..8 (4 * 3^(k-1) words of length k),
    counting the axis letter and the conjugator letters."""
    return 3 * (1 + sum((1 + k) * 4 * 3 ** (k - 1) for k in range(1, SWEEP_MAX_LEN + 1)))


def _sweep_ops(jobs: int | None) -> list[dict]:
    ops = []
    for m in ("rabbit", "dendrite"):
        argv = ["sweep", "--map", m, "--max-len", str(SWEEP_MAX_LEN), "--format", "json"]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        ops.append(
            {
                "label": f"sweep {m}",
                "argv": argv,
                "curves": SWEEP_CURVES,
                "letters": sweep_letters(),
                "expect": {"kind": "sweep", "map": m, "curve_count": SWEEP_CURVES,
                           "max_len": SWEEP_MAX_LEN},
            }
        )
    return ops


def _orbit_op(label, m, axis, codes, expect_extra=None, tokens=None) -> dict:
    word_text = tokens if tokens is not None else literal(codes, GENS[m])
    expect = {"kind": "orbit", "map": m, **(expect_extra or {})}
    if m == "dendrite":
        # Every dendrite curve becomes trivial within 4|w|+3 pullbacks.
        expect["trivial_within"] = 4 * geodesic_length(codes) + 3
    return {
        "label": label,
        "argv": ["orbit", "--map", m, "--curve", f"{axis}^({word_text})", "--format", "json"],
        "curves": 1,
        "letters": 1 + len(codes),  # the axis letter and the conjugator letters
        "expect": expect,
    }


def _long_word_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n in SECTION_DEPTHS:
        w = section_conjugator(n)
        ops.append(_orbit_op(f"orbit dendrite b^(w_{n}) |w|={len(w)}", "dendrite", "b", w,
                             {"survives": n}))
    for m in ("rabbit", "dendrite"):
        for length in RANDOM_LENGTHS:
            axis = rng.choice(AXES[m])
            ops.append(_orbit_op(f"orbit {m} random |w|={length}", m, axis, random_reduced(rng, length)))
    for m, axis, gen, bases in POWERS:
        for base in bases:
            k = base + rng.randrange(base // 50 + 1)
            codes = [GENS[m].index(gen) + 1] * k
            ops.append(_orbit_op(f"orbit {m} {axis}^({gen}^{k})", m, axis, codes, tokens=f"{gen}^{k}"))
    ops.append(
        {
            "label": f"verify dendrite prop84 --n {PROP84_DEPTH}",
            "argv": ["verify", "--map", "dendrite", "--suite", "prop84", "--n", str(PROP84_DEPTH),
                     "--format", "json"],
            "curves": 0,
            "letters": 0,
            # One section identity plus psi^n(b^(w_n)) = b for n = 1..16.
            "expect": {"kind": "verify", "items": PROP84_DEPTH + 1},
        }
    )
    return ops


def _cycle_rows(weights) -> list[list[Fraction]]:
    p = len(weights)
    rows = [[Fraction(0)] * p for _ in range(p)]
    for i, w in enumerate(weights):
        rows[(i + 1) % p][i] = w
    return rows


def _cycle_weights(rng: random.Random, p: int, product: Fraction) -> list[Fraction]:
    weights = [rng.choice(SMALL_WEIGHTS) for _ in range(p - 1)]
    rest = Fraction(1)
    for w in weights:
        rest *= w
    weights.append(product / rest)
    rng.shuffle(weights)
    return weights


def _dense_rows(rng: random.Random, n: int, row_sum: Fraction) -> list[list[Fraction]]:
    rows = []
    for _ in range(n):
        k = [rng.randint(1, 9) for _ in range(n)]
        total = sum(k)
        rows.append([row_sum * x / total for x in k])
    return rows


def _block_triangular(rng: random.Random, first, second) -> list[list[Fraction]]:
    n1, n2 = len(first), len(second)
    rows = []
    for i in range(n1):
        coupling = [Fraction(rng.choice((0, 1, 2)), 2) for _ in range(n2)]
        rows.append(list(first[i]) + coupling)
    for i in range(n2):
        rows.append([Fraction(0)] * n1 + list(second[i]))
    return rows


def _write_matrix(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)}\n")
        for row in rows:
            fh.write(" ".join(_frac(e) for e in row) + "\n")


def _matrix_op(label, out_dir, name, rows, rho: float, contracting: bool) -> dict:
    _write_matrix(os.path.join(out_dir, name), rows)
    return {
        "label": label,
        # The runner resolves input_file against the directory it was written to.
        "argv": ["spectra", "--matrix", name, "--format", "json"],
        "input_file": name,
        "curves": 0,
        "letters": 0,
        "expect": {"kind": "spectra", "rho": rho, "contracting": contracting},
    }


def _spectra_ops(rng: random.Random, seed: int, out_dir: str) -> list[dict]:
    ops = []
    for axis in AXES["rabbit"]:
        # The rabbit axis three-cycle has weights 1, 1/2, 1/2 (product 1/4).
        ops.append(
            {
                "label": f"spectra --cycle-of {axis} rabbit",
                "argv": ["spectra", "--cycle-of", axis, "--map", "rabbit", "--format", "json"],
                "curves": 1,
                "letters": 1,
                "expect": {"kind": "spectra", "rho": 0.25 ** (1 / 3), "contracting": True,
                           "cycle_weight_product": "1/4", "cycle_length": 3},
            }
        )
    below = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4))
    above = (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))
    for i, p in enumerate(CYCLE_PERIODS):
        side = (i + seed) % 3
        product = rng.choice(below) if side == 0 else Fraction(1) if side == 1 else rng.choice(above)
        rows = _cycle_rows(_cycle_weights(rng, p, product))
        ops.append(_matrix_op(f"spectra cycle p={p} product {_frac(product)}", out_dir,
                              f"cycle-{p}.mat", rows, float(product) ** (1 / p), product < 1))
    sums = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    for i, n in enumerate(DENSE_SIZES):
        r = sums[(i + seed) % 3]
        ops.append(_matrix_op(f"spectra dense n={n} row sum {_frac(r)}", out_dir,
                              f"dense-{n}.mat", _dense_rows(rng, n, r), float(r), r < 1))
    # Block-triangular mixes; rho is the larger block radius, kept well apart
    # from the smaller one so that the estimate has a clear gap to converge on.
    mixes = (
        (Fraction(8), Fraction(1, 2)),  # cycle block dominates, rho > 1
        (Fraction(1, 8), Fraction(3, 2)),  # dense block dominates, rho > 1
        (Fraction(1, 2), Fraction(1, 4)),  # cycle block dominates, rho < 1
    )
    for j, (product, r) in enumerate(mixes):
        p = rng.randint(3, 8)
        n = rng.randint(8, 12)
        cycle = _cycle_rows(_cycle_weights(rng, p, product))
        dense = _dense_rows(rng, n, r)
        blocks = (cycle, dense) if rng.random() < 0.5 else (dense, cycle)
        rho = max(float(product) ** (1 / p), float(r))
        ops.append(_matrix_op(f"spectra mix {j}: cycle p={p} product {_frac(product)} + dense n={n} "
                              f"row sum {_frac(r)}", out_dir, f"mix-{j}.mat",
                              _block_triangular(rng, *blocks), rho, rho < 1))
    return ops


def generate(workload: str, seed: int, out_dir: str, sweep_jobs: int | None = None) -> list[dict]:
    """Write the inputs of one workload into out_dir and return its operations.

    The same (workload, seed) always writes the same bytes.  ``sweep_jobs``
    pins ``--jobs`` on the sweep operations; None keeps the CLI default.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        ops = _sweep_ops(sweep_jobs)  # exhaustive inputs: the seed changes nothing
    elif workload == "long_words":
        ops = _long_word_ops(rng)
    else:
        ops = _spectra_ops(rng, seed, out_dir)
    with open(os.path.join(out_dir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1)
        fh.write("\n")
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    ops = generate(args.workload, args.seed, args.out)
    print(f"{len(ops)} operations written to {args.out}")


if __name__ == "__main__":
    main()
