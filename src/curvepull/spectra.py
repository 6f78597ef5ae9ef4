"""Exact contraction tests for nonnegative rational matrices.

The decision rho(A) < 1 is made in exact arithmetic: for nonnegative A
it holds iff every leading principal minor of I - A is positive, and
fraction-free integer elimination reads those signs off its pivots.  A
floating-point shifted power iteration provides the leading-eigenvalue
estimate, and an exact integer growth-rate estimator serves as an
independent oracle for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RationalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        for i, row in enumerate(self.entries, start=1):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j, e in enumerate(row, start=1):
                if e < 0:
                    raise ValueError(f"row {i}, column {j}: matrix must be nonnegative, got {e}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(e) for e in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        return [sum(row[j] * v[j] for j in range(self.n)) for row in self.entries]


def is_contracting(a: RationalMatrix) -> bool:
    """Exact decision of rho(A) < 1 from the signs of the leading minors.

    For nonnegative A, rho(A) < 1 iff the Z-matrix I - A is a nonsingular
    M-matrix, iff every leading principal minor of I - A is positive
    (Berman-Plemmons, Thm 6.2.3).  Each row of I - A is scaled by the lcm
    of its denominators, which keeps the sign of every leading minor, and
    fraction-free (Bareiss) elimination without pivoting then yields those
    minors as its successive pivots; the first one that is not positive
    decides False.
    """
    m = []
    for i, row in enumerate(a.entries):
        d = math.lcm(*(e.denominator for e in row))
        m.append(
            [(d if i == j else 0) - e.numerator * (d // e.denominator) for j, e in enumerate(row)]
        )
    prev = 1
    for k, pivot_row in enumerate(m):
        p = pivot_row[k]
        if p <= 0:
            return False
        tail = pivot_row[k + 1:]
        for row in m[k + 1:]:
            f = row[k]
            # Bareiss: the division by the previous pivot is exact
            row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return True


# Steps of power iteration before leading_eigenvalue gives up: a defective
# dominant eigenvalue converges only like 1/k and can reach it.
MAX_POWER_ITERATIONS = 100_000


def leading_eigenvalue(a: RationalMatrix, tol: float = 1e-10) -> float:
    """Spectral radius by power iteration on (lam/4) I + A, lam the current
    estimate, from the all-ones vector.

    For any s > 0, rho(A) + s is the only eigenvalue of s I + A of that
    modulus, so this converges for every period of an imprimitive matrix,
    and a shift scaled with the estimate makes it independent of A's scale.
    Iterates v are L1-normalized and the estimate is |A v|_1.  ``tol`` is
    the stopping threshold on the largest coordinate change of v.
    """
    n = a.n
    rows = [[(j, float(e)) for j, e in enumerate(row) if e] for row in a.entries]
    # A nilpotent matrix (A^n 1 = 0) has rho = 0: the estimate would only
    # creep toward it, and A = 0 would leave a zero shift to divide by.
    v = [1.0] * n
    for _ in range(n):
        v = [sum(e * v[j] for j, e in row) for row in rows]
        norm = sum(v)
        if norm == 0.0:
            return 0.0
        v = [x / norm for x in v]
    v = [1.0 / n] * n
    for _ in range(MAX_POWER_ITERATIONS):
        av = [sum(e * v[j] for j, e in row) for row in rows]
        lam = sum(av)
        # a smaller shift damps a cycle's rotation more slowly, a larger one
        # slows the 1/k convergence of a defective dominant eigenvalue
        nxt = [(x + 4.0 * y / lam) / 5.0 for x, y in zip(v, av)]
        if max(abs(x - y) for x, y in zip(nxt, v)) <= tol:
            return lam
        v = nxt
    raise ArithmeticError(
        f"power iteration did not converge within {MAX_POWER_ITERATIONS} iterations"
    )


@dataclass(frozen=True)
class AbelianVirtualEndo:
    """phi: Z^n -> Z^n defined on the sublattice L*Z^n, with matrix A."""

    matrix: RationalMatrix
    domain_scale: int

    def __post_init__(self):
        if self.domain_scale < 1:
            raise ValueError("domain scale must be a positive integer")
        for row in self.matrix.entries:
            for e in row:
                if (e * self.domain_scale).denominator != 1:
                    raise ValueError(
                        f"scale {self.domain_scale} does not clear denominator of {e}"
                    )

    @classmethod
    def from_matrix(
        cls, matrix: RationalMatrix, domain_scale: int | None = None
    ) -> "AbelianVirtualEndo":
        if domain_scale is None:
            domain_scale = 1
            for row in matrix.entries:
                for e in row:
                    domain_scale = math.lcm(domain_scale, e.denominator)
        return cls(matrix, domain_scale)


def contraction_coefficient_estimate(
    phi: AbelianVirtualEndo,
    n_steps: int = 40,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Growth-rate estimate of rho(phi): max over sample vectors v in
    L*Z^n of (|A^n v| / |v|)^(1/n), computed in exact arithmetic.

    The all-ones vector is always sampled (it dominates every basis
    vector, so the estimate is never starved of the leading direction);
    the rest are random positive integer vectors.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    a = phi.matrix
    n = a.n
    scale = phi.domain_scale
    rng = random.Random(seed)
    vectors = [[scale] * n]
    for _ in range(max(trials - 1, 0)):
        vectors.append([scale * rng.randint(1, 9) for _ in range(n)])
    best = 0.0
    for v0 in vectors:
        v = [Fraction(x) for x in v0]
        size0 = sum(abs(x) for x in v)
        for _ in range(n_steps):
            v = a.apply(v)
        size = sum(abs(x) for x in v)
        if size == 0:
            continue
        best = max(best, float(size / size0) ** (1.0 / n_steps))
    return best


def parse_matrix(text: str) -> RationalMatrix:
    """Matrix file format: first line n, then n rows of n nonnegative
    rationals, each an integer, p/q or a decimal such as 0.25."""
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the dimension, got {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the dimension, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        rows.append([_parse_entry(p, i, j) for j, p in enumerate(parts, start=1)])
    return RationalMatrix.from_rows(rows)


# The default limit on int(str) since Python 3.11; checking it here gives
# every Python version the same diagnostic, in the matrix's own terms.
_MAX_ENTRY_DIGITS = 4300


def _parse_entry(p: str, i: int, j: int) -> Fraction:
    """One matrix entry; a diagnostic names its row i and column j."""
    where = f"row {i}, column {j}"
    # Fraction builds 10**k for an exponent k, so a few bytes of input
    # would take unbounded time and memory; no other entry it accepts
    # has an e in it
    if "e" in p or "E" in p:
        raise ValueError(
            f"{where}: {p!r} is not an integer, p/q or decimal"
            " (exponent notation is not accepted)"
        )
    if len(p) > _MAX_ENTRY_DIGITS:
        digits = sum(map(str.isdigit, p))
        if digits > _MAX_ENTRY_DIGITS:
            raise ValueError(
                f"{where}: entry has {digits} digits, more than the {_MAX_ENTRY_DIGITS} accepted"
            )
    try:
        return Fraction(p)
    except ValueError:
        raise ValueError(f"{where}: {p!r} is not an integer, p/q or decimal") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: {p!r} has a zero denominator") from None
