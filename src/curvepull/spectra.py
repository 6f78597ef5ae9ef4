"""Spectral radius and exact contraction tests for nonnegative rational matrices.

Both are read off one split of A into irreducible diagonal blocks, each
with a cyclic index d and a primitive class product P: rho(A) is the
largest rho(P)^(1/d).  Each P gets exact rational Collatz-Wielandt
brackets lo <= rho(P) <= hi, from the row sums first.  rho(A) < 1 is
decided exactly: by a bracket that lies on one side of 1, and only
otherwise from the signs of the leading minors of I - P, which
fraction-free integer elimination reads off its pivots.  The leading
eigenvalue is exact where a bracket closes (lo == hi), as for a cycle, a
1x1 P or constant row sums, and comes from power iteration on a balanced
P otherwise; an exact integer growth-rate estimator serves as an
independent oracle for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence


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

    A primitive P is irreducible, so for every positive vector v, rho(P)
    lies between the least and the greatest (Pv)_i / v_i (Collatz-Wielandt,
    Berman-Plemmons, ch. 2).  Each such bracket [lo, hi] is exact: v is a
    vector of integers and each row is summed in integers over the lcm of
    its denominators.  hi < 1 decides True and lo >= 1 decides False.  The
    brackets are tried cheapest first: v all ones (the row sums, exact for
    constant row sums), v = D 1 for the power-of-two balancing D of P, and
    v the float power iterate after at most n steps: n^3 float products,
    about what elimination makes on growing integers.  Only a block whose
    every bracket straddles 1 goes to the exact oracle: one whose rho(P)
    is 1 or within about ``DEFAULT_TOL`` of it, or a small P whose n steps
    leave the iterate too coarse.  For nonnegative P, rho(P) < 1 iff the
    Z-matrix I - P is a nonsingular M-matrix, iff every leading principal
    minor of I - P is positive (Berman-Plemmons, Thm 6.2.3).  Each row of
    I - P is scaled by the lcm of its denominators, which keeps the sign of
    every leading minor, and fraction-free (Bareiss) elimination without
    pivoting then yields those minors as its successive pivots; the first
    one that is not positive decides False.
    """
    return all(_below_one(p) for _, p in a._blocks)


def _below_one(p: Sequence[Sequence[Fraction]]) -> bool:
    for lo, hi, x in _exact_brackets(p):
        if not lo < 1 <= hi:
            return hi < 1
    v = _power_iteration(p, x, DEFAULT_TOL, len(p))[2]
    if v is not None:
        lo, hi = _bracket(p, v)
        if not lo < 1 <= hi:
            return hi < 1
    return _minors_positive(p)


def _exact_brackets(p: Sequence[Sequence[Fraction]]) -> Iterator[tuple[Fraction, Fraction, list[int]]]:
    """(lo, hi, x): the brackets from v = D 1 with D = diag(2^x), first
    for D = I (the row sums), then for the balancing D of P if it is not I."""
    x = [0] * len(p)
    yield (*_bracket(p, [1] * len(p)), x)
    x = _balance(p)
    if any(x):
        yield (*_bracket(p, [1 << e for e in x]), x)


def _bracket(p: Sequence[Sequence[Fraction]], v: Sequence[int]) -> tuple[Fraction, Fraction]:
    """The least and the greatest (Pv)_i / v_i for positive integers v,
    each row summed in integers over the lcm of its denominators."""
    ratios = []
    for row, w in zip(p, v):
        d = math.lcm(*(e.denominator for e in row))
        ratios.append(Fraction(sum(e.numerator * (d // e.denominator) * u for e, u in zip(row, v) if e), d * w))
    return min(ratios), max(ratios)


# Gauss-Seidel sweeps _balance makes at most; any D gives a valid bracket,
# so a sweep cut short costs only accuracy of the float iteration.  Blocks
# of n = 5-200 scaled by random 2^(+-50..1000) settle in 4-12 sweeps, and
# after 8 the entries of D^-1 P D span at most 2^16.
_BALANCE_SWEEPS = 8


def _balance(p: Sequence[Sequence[Fraction]]) -> list[int]:
    """Exponents x >= 0, min 0, of a diagonal similarity D = diag(2^x) that
    evens out D^-1 P D: each sweep sets x_i so that row i and column i
    have about the same largest entry, in binary exponents (Osborne's
    balancing with max in place of sums).  P is primitive and n > 1, so
    every row and column has an entry off the diagonal."""
    n = len(p)
    rows = [[(j, _exponent(e)) for j, e in enumerate(row) if e and j != i] for i, row in enumerate(p)]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, e in row:
            cols[j].append((i, e))
    x = [0] * n
    for _ in range(_BALANCE_SWEEPS):
        moved = False
        for i in range(n):
            # row i of D^-1 P D peaks at 2^(r - x_i), column i at 2^(c + x_i)
            r = max(e + x[j] for j, e in rows[i])
            c = max(e - x[j] for j, e in cols[i])
            if abs(r - c - 2 * x[i]) > 1:
                x[i] = (r - c) // 2
                moved = True
        if not moved:
            break
    low = min(x)
    return [e - low for e in x]


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
    """rho of a weighted cycle, the period-th root of its weight product:
    the nearest float for period 1, and through logs otherwise, since the
    product can lie outside float range; inf past it."""
    try:
        if period == 1:
            return float(product)
        return math.exp((math.log(product.numerator) - math.log(product.denominator)) / period)
    except OverflowError:
        return math.inf


# Steps of power iteration on one class product before leading_eigenvalue
# gives up: a nearly decomposable block converges too slowly for a tight tol.
MAX_POWER_ITERATIONS = 100_000

# leading_eigenvalue's stopping threshold, and is_contracting's for the iterate
DEFAULT_TOL = 1e-10


def leading_eigenvalue(a: RationalMatrix, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius: the largest rho(P)^(1/d) over ``a._blocks``, 0.0 if none.

    rho(P) is exact when a bracket of ``is_contracting`` has lo == hi, from
    v all ones (every 1x1 P, as for a cycle, and every P with constant row
    sums) or from v = D 1: then rho(P) = lo and rho(P)^(1/d) is
    ``cycle_radius(lo, d)``.  Otherwise P is primitive, so unshifted power
    iteration on the balanced D^-1 P D from the uniform vector converges;
    iterates v are L1-normalized, the estimate is |P v|_1, and ``tol`` is
    the stopping threshold on the largest coordinate change of v.  A rho
    beyond float range is inf; ArithmeticError means the iteration cap.
    """
    return max((_block_radius(d, p, tol) for d, p in a._blocks), default=0.0)


def _block_radius(d: int, p: Sequence[Sequence[Fraction]], tol: float) -> float:
    for lo, hi, x in _exact_brackets(p):
        if lo == hi:
            return cycle_radius(lo, d)
    lam, k, _ = _power_iteration(p, x, tol, MAX_POWER_ITERATIONS)
    if lam is None:
        raise ArithmeticError(f"power iteration did not converge within {MAX_POWER_ITERATIONS} iterations")
    try:  # ldexp scales by 2^(k // d) exactly: only a rho beyond float range overflows
        return math.ldexp(lam ** (1 / d) * 2.0 ** (k % d / d), k // d)
    except OverflowError:
        return math.inf


def _power_iteration(
    p: Sequence[Sequence[Fraction]], x: Sequence[int], tol: float, steps: int
) -> tuple[float | None, int, list[int] | None]:
    """At most ``steps`` steps of power iteration on D^-1 P D / 2^k from
    the uniform vector, D = diag(2^x) and k the largest binary exponent of
    D^-1 P D, which keeps a long class product in float range.

    Returns (lam, k, v): lam 2^k estimates rho(P), None if the iteration
    did not converge; v is the last iterate w brought back to P, D w as
    exact integers up to a common power of two, None if a coordinate of w
    is 0.
    """
    k = max(_exponent(e) + x[j] - x[i] for i, row in enumerate(p) for j, e in enumerate(row) if e)
    rows = [[(j, _times_power_of_two(e, x[j] - x[i] - k)) for j, e in enumerate(row) if e] for i, row in enumerate(p)]
    n = len(p)
    w = [1.0 / n] * n
    lam = None
    for _ in range(steps):
        pw = [sum(e * w[j] for j, e in row) for row in rows]
        est = sum(pw)
        nxt = [c / est for c in pw]
        if max(abs(a - b) for a, b in zip(nxt, w)) <= tol:
            lam = est
            break
        w = nxt
    if not all(w):
        return lam, k, None
    # w_j = m_j / 2^t_j exactly, so D w is a vector of integers over one power of two
    ratios = [c.as_integer_ratio() for c in w]
    shifts = [e + 1 - q.bit_length() for (_, q), e in zip(ratios, x)]
    low = min(shifts)
    return lam, k, [m << s - low for (m, _), s in zip(ratios, shifts)]


def _exponent(e: Fraction) -> int:
    """An integer within 1 of log2(e), for e > 0."""
    return e.numerator.bit_length() - e.denominator.bit_length()


def _times_power_of_two(e: Fraction, s: int) -> float:
    """e 2^s as the nearest float, where float(e) itself may overflow."""
    return (e.numerator << max(s, 0)) / (e.denominator << max(-s, 0))


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


# The largest dimension parse_matrix accepts: a dense primitive block whose
# brackets all straddle 1 goes to elimination, which takes seconds at 200,
# and minutes when its rows have many different denominators.
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
    # each distinct token is parsed once, at its first occurrence, so a
    # diagnostic still names the first row and column that hold it
    parsed: dict[str, Fraction] = {}
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        row = []
        for j, p in enumerate(parts, start=1):
            e = parsed.get(p)
            if e is None:
                e = parsed[p] = _parse_entry(p, i, j)
            row.append(e)
        rows.append(tuple(row))
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
