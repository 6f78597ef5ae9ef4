"""Spectral radius and exact contraction tests for nonnegative rational matrices.

Both are read off one split of A into irreducible diagonal blocks, each
with a cyclic index d and a primitive class product P: rho(A) is the
largest rho(P)^(1/d).  rho(A) < 1 is decided exactly, from the signs of
the leading minors of each I - P, which fraction-free integer elimination
reads off its pivots.  The leading eigenvalue is exact for a 1x1 P, as
for a cycle, and comes from power iteration on a larger one; an exact
integer growth-rate estimator serves as an independent oracle for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

    @cached_property
    def _blocks(self) -> tuple[tuple[int, tuple[tuple[Fraction, ...], ...]], ...]:
        """(d, P) for each irreducible diagonal block B of A with a cycle.

        The blocks are the strongly connected components of A's nonzero
        pattern; a vertex on no cycle adds only the eigenvalue 0.  d is B's
        cyclic index, the gcd of level[i] + 1 - level[j] over its edges i -> j
        with BFS levels, and P is B^d on the vertices of level 0 mod d: a
        primitive matrix with rho(P) = rho(B)^d, B itself when d = 1 and 1x1
        for a pure cycle (Berman-Plemmons, ch. 2).
        """
        n = self.n
        succ = [[(j, e) for j, e in enumerate(row) if e] for row in self.entries]
        # reach[i]: bitmask of the ends of the paths of length >= 1 from i (Warshall)
        reach = [sum(1 << j for j, _ in s) for s in succ]
        for k in range(n):
            bit, through = 1 << k, reach[k]
            reach = [r | through if r & bit else r for r in reach]
        out = []
        for i in range(n):
            # the vertices i reaches that reach i back; empty if i is on no cycle
            block = [j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1]
            if block[:1] != [i]:  # no cycle, or i is not the block's first vertex
                continue
            members = set(block)
            inner = {v: [(j, e) for j, e in succ[v] if j in members] for v in block}
            level = {i: 0}
            queue = [i]
            for v in queue:
                for j, _ in inner[v]:
                    if j not in level:
                        level[j] = level[v] + 1
                        queue.append(j)
            d = math.gcd(*(level[v] + 1 - level[j] for v in block for j, _ in inner[v]))
            first = [v for v in block if level[v] % d == 0]
            p = []
            for v in first:
                x = dict(inner[v])  # row v of B, then of B^2, ..., B^d
                for _ in range(d - 1):
                    y = {}
                    for k, c in x.items():
                        for j, e in inner[k]:
                            y[j] = y.get(j, 0) + c * e
                    x = y
                p.append(tuple(x.get(w, 0) for w in first))
            out.append((d, tuple(p)))
        return tuple(out)


def is_contracting(a: RationalMatrix) -> bool:
    """Exact decision of rho(A) < 1: rho(P) < 1 for every P of ``a._blocks``.

    For nonnegative P, rho(P) < 1 iff the Z-matrix I - P is a nonsingular
    M-matrix, iff every leading principal minor of I - P is positive
    (Berman-Plemmons, Thm 6.2.3).  Each row of I - P is scaled by the lcm
    of its denominators, which keeps the sign of every leading minor, and
    fraction-free (Bareiss) elimination without pivoting then yields those
    minors as its successive pivots; the first one that is not positive
    decides False.
    """
    return all(_minors_positive(p) for _, p in a._blocks)


def _minors_positive(rows: Sequence[Sequence[Fraction]]) -> bool:
    m = []
    for i, row in enumerate(rows):
        d = math.lcm(*(e.denominator for e in row))
        m.append([(d if i == j else 0) - e.numerator * (d // e.denominator) for j, e in enumerate(row)])
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


def cycle_radius(product: Fraction, period: int) -> float:
    """rho of a weighted cycle, the period-th root of its weight product,
    through logs: the product can lie outside float range, and inf past it."""
    try:
        return math.exp((math.log(product.numerator) - math.log(product.denominator)) / period)
    except OverflowError:
        return math.inf


# Steps of power iteration on one class product before leading_eigenvalue
# gives up: a nearly decomposable block converges too slowly for a tight tol.
MAX_POWER_ITERATIONS = 100_000


def leading_eigenvalue(a: RationalMatrix, tol: float = 1e-10) -> float:
    """Spectral radius: the largest rho(P)^(1/d) over ``a._blocks``, 0.0 if none.

    A 1x1 P is read as ``cycle_radius(P, d)``.  A larger P is primitive,
    so unshifted power iteration from the uniform vector converges on it;
    iterates v are L1-normalized, the estimate is |P v|_1, and ``tol`` is
    the stopping threshold on the largest coordinate change of v.  A rho
    beyond float range is inf; ArithmeticError means the iteration cap.
    """
    return max((_block_radius(d, p, tol) for d, p in a._blocks), default=0.0)


def _block_radius(d: int, p: Sequence[Sequence[Fraction]], tol: float) -> float:
    if len(p) == 1:
        return cycle_radius(p[0][0], d)
    # P / 2^k, k its largest binary exponent, keeps a long class product in float range
    k = max(e.numerator.bit_length() - e.denominator.bit_length() for row in p for e in row if e)
    rows = [[(j, (e.numerator << max(-k, 0)) / (e.denominator << max(k, 0))) for j, e in enumerate(row) if e]
            for row in p]
    v = [1.0 / len(p)] * len(p)
    for _ in range(MAX_POWER_ITERATIONS):
        pv = [sum(e * v[j] for j, e in row) for row in rows]
        lam = sum(pv)
        nxt = [x / lam for x in pv]
        if max(abs(x - y) for x, y in zip(nxt, v)) <= tol:
            try:  # ldexp scales by 2^(k // d) exactly: only a rho beyond float range overflows
                return math.ldexp(lam ** (1 / d) * 2.0 ** (k % d / d), k // d)
            except OverflowError:
                return math.inf
        v = nxt
    raise ArithmeticError(f"power iteration did not converge within {MAX_POWER_ITERATIONS} iterations")


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


# The largest dimension parse_matrix accepts: a dense primitive block takes seconds at 200.
MAX_MATRIX_DIM = 200


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
    if n > MAX_MATRIX_DIM:
        raise ValueError(f"dimension {n} is more than the {MAX_MATRIX_DIM} accepted")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the dimension, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        rows.append(tuple(_parse_entry(p, i, j) for j, p in enumerate(parts, start=1)))
    return RationalMatrix(tuple(rows))


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
