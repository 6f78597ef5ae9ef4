"""Spectral radius and exact contraction tests for nonnegative rational matrices.

Both read one certified record per irreducible diagonal block of A: its
cyclic index d, its primitive class product P in integers, and an exact
Collatz-Wielandt bracket lo <= rho(P) <= hi; rho(A) is the largest
rho(P)^(1/d).  rho(A) < 1 is decided exactly, by a bracket on one side of
1 and otherwise by integer elimination.  The leading eigenvalue is exact
where the bracket closes (lo == hi) and comes from power iteration on a
balanced P otherwise; an exact integer growth-rate estimator serves as an
independent oracle for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple, Sequence


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
                if e.numerator < 0:
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
    def _blocks(self) -> tuple[_Block, ...]:
        """The certified ``_Block`` of each irreducible diagonal block B of A with a cycle.

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
                p.append([x.get(w, 0) for w in first])
            out.append(_certify(d, p))
        return tuple(out)


class _Block(NamedTuple):
    """A block's cyclic index d; its class product P as integer rows over
    one denominator per row, P[i][j] = rows[i][j] / dens[i] with dens[i]
    the lcm of row i's denominators; an exact bracket lo <= rho(P) <= hi;
    the exponents x of P's balancing D = diag(2^x), 0s if lo == hi."""

    d: int
    rows: list[list[int]]
    dens: list[int]
    lo: Fraction
    hi: Fraction
    x: list[int]


def _certify(d: int, p: list[list[Fraction]]) -> _Block:
    """The record of a class product P.  P is irreducible, so for every
    positive v, rho(P) lies between the least and the greatest (Pv)_i / v_i
    (Collatz-Wielandt, Berman-Plemmons, ch. 2), and so does rho(P^T).  The
    bracket intersects those of v all ones on P (the row sums) and on P^T
    (the column sums), and of v = D 1, tried in that order until lo == hi."""
    dens = [math.lcm(*(e.denominator for e in row)) for row in p]
    rows = [[e.numerator * (q // e.denominator) for e in row] for row, q in zip(p, dens)]
    lo, hi = _bracket(rows, dens, [1] * len(p))
    if lo < hi:
        # column j of P sums to sum_i rows[i][j] (l / dens[i]) over l
        l = math.lcm(*dens)
        scale = [l // q for q in dens]
        sums = [sum(map(mul, col, scale)) for col in zip(*rows)]
        lo, hi = max(lo, Fraction(min(sums), l)), min(hi, Fraction(max(sums), l))
    x = _balance(rows, dens) if lo < hi else [0] * len(p)
    if any(x):
        lo_x, hi_x = _bracket(rows, dens, [1 << e for e in x])
        lo, hi = max(lo, lo_x), min(hi, hi_x)
    return _Block(d, rows, dens, lo, hi, x)


def is_contracting(a: RationalMatrix) -> bool:
    """Exact decision of rho(A) < 1: rho(P) < 1 for every P of ``a._blocks``.

    A block's bracket [lo, hi] decides True if hi < 1 and False if lo >= 1.
    One that straddles 1 gets a second bracket, from v the float power
    iterate after at most n steps (n^3 float products, about what
    elimination makes on growing integers); it straddles 1 too only when
    rho(P) is 1 or within about ``DEFAULT_TOL`` of it, or when n steps
    leave v too coarse.  The exact oracle then decides: for nonnegative P,
    rho(P) < 1 iff every leading principal minor of the Z-matrix I - P is
    positive (Berman-Plemmons, Thm 6.2.3).  Row i of I - P times dens[i]
    keeps each minor's sign, and fraction-free (Bareiss) elimination
    without pivoting yields those minors as its pivots; the first that is
    not positive decides False.
    """
    return all(_below_one(b) for b in a._blocks)


def _below_one(b: _Block) -> bool:
    lo, hi = b.lo, b.hi
    if lo < 1 <= hi:
        v = _power_iteration(b, DEFAULT_TOL, len(b.rows))[2]
        if v is not None:
            lo, hi = _bracket(b.rows, b.dens, v)
    return _minors_positive(b) if lo < 1 <= hi else hi < 1


def _bracket(rows: Sequence[Sequence[int]], dens: Sequence[int], v: Sequence[int]) -> tuple[Fraction, Fraction]:
    """The least and the greatest (Pv)_i / v_i for positive integers v."""
    ratios = [Fraction(sum(map(mul, row, v)), q * w) for row, q, w in zip(rows, dens, v)]
    return min(ratios), max(ratios)


# Gauss-Seidel sweeps _balance makes at most; any D gives a valid bracket,
# so a sweep cut short costs only accuracy of the float iteration.  Blocks
# of n = 5-200 scaled by random 2^(+-50..1000) settle in 4-12 sweeps, and
# after 8 the entries of D^-1 P D span at most 2^16.
_BALANCE_SWEEPS = 8


def _balance(rows: Sequence[Sequence[int]], dens: Sequence[int]) -> list[int]:
    """Exponents x >= 0, min 0, of a diagonal similarity D = diag(2^x) that
    evens out D^-1 P D: each sweep sets x_i so that row i and column i
    have about the same largest entry, in binary exponents (Osborne's
    balancing with max in place of sums).  P is primitive and n > 1, so
    every row and column has an entry off the diagonal."""
    n = len(rows)
    ex = [[_exponent(e, q) if e else None for e in row] for row, q in zip(rows, dens)]
    # (j, exponent) of the entries off the diagonal along row i, and down column i
    row_exp = [[(j, e) for j, e in enumerate(r) if e is not None and j != i] for i, r in enumerate(ex)]
    col_exp = [[(j, e) for j, e in enumerate(c) if e is not None and j != i] for i, c in enumerate(zip(*ex))]
    x = [0] * n
    for _ in range(_BALANCE_SWEEPS):
        moved = False
        for i in range(n):
            # row i of D^-1 P D peaks at 2^(r - x_i), column i at 2^(c + x_i)
            r = max(e + x[j] for j, e in row_exp[i])
            c = max(e - x[j] for j, e in col_exp[i])
            if abs(r - c - 2 * x[i]) > 1:
                x[i] = (r - c) // 2
                moved = True
        if not moved:
            break
    low = min(x)
    return [e - low for e in x]


def _minors_positive(b: _Block) -> bool:
    m = [[(q if i == j else 0) - e for j, e in enumerate(row)] for i, (row, q) in enumerate(zip(b.rows, b.dens))]
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

    Where a block's bracket closes (lo == hi), as for a 1x1 P (a cycle), for
    constant row or column sums and for a P that D 1 balances exactly, it
    is ``cycle_radius(lo, d)``.  Otherwise P is primitive, so unshifted
    power iteration on the balanced D^-1 P D from the uniform vector
    converges; iterates v are L1-normalized, the estimate is |P v|_1, and
    ``tol`` is the stopping threshold on the largest coordinate change of
    v.  A rho beyond float range is inf; ArithmeticError means the cap.
    """
    return max((_block_radius(b, tol) for b in a._blocks), default=0.0)


def _block_radius(b: _Block, tol: float) -> float:
    if b.lo == b.hi:
        return cycle_radius(b.lo, b.d)
    lam, k, _ = _power_iteration(b, tol, MAX_POWER_ITERATIONS)
    if lam is None:
        raise ArithmeticError(f"power iteration did not converge within {MAX_POWER_ITERATIONS} iterations")
    try:  # ldexp scales by 2^(k // d) exactly: only a rho beyond float range overflows
        return math.ldexp(lam ** (1 / b.d) * 2.0 ** (k % b.d / b.d), k // b.d)
    except OverflowError:
        return math.inf


def _power_iteration(b: _Block, tol: float, steps: int) -> tuple[float | None, int, list[int] | None]:
    """At most ``steps`` steps of power iteration on D^-1 P D / 2^k from
    the uniform vector, D = diag(2^x) and k the largest binary exponent of
    D^-1 P D, which keeps a long class product in float range.

    Returns (lam, k, v): lam 2^k estimates rho(P), None if the iteration
    did not converge; v is the last iterate w brought back to P, D w as
    exact integers up to a common power of two, None if some w_j is 0.
    """
    x, numbered = b.x, list(enumerate(zip(b.rows, b.dens)))
    k = max(_exponent(e, q) + x[j] - x[i] for i, (row, q) in numbered for j, e in enumerate(row) if e)
    rows = [[(j, _times_power_of_two(e, q, x[j] - x[i] - k)) for j, e in enumerate(row) if e] for i, (row, q) in numbered]
    n = len(rows)
    w = [1.0 / n] * n
    lam = None
    for _ in range(steps):
        pw = [sum(e * w[j] for j, e in row) for row in rows]
        est = sum(pw)
        nxt = [c / est for c in pw]
        if max(abs(s - t) for s, t in zip(nxt, w)) <= tol:
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


def _exponent(m: int, q: int) -> int:
    """An integer within 1 of log2(m / q), for m, q > 0."""
    return m.bit_length() - q.bit_length()


def _times_power_of_two(m: int, q: int, s: int) -> float:
    """m / q 2^s as the nearest float, where m / q itself may overflow."""
    return (m << max(s, 0)) / (q << max(-s, 0))


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
                if self.domain_scale % e.denominator:
                    raise ValueError(f"scale {self.domain_scale} does not clear denominator of {e}")

    @classmethod
    def from_matrix(
        cls, matrix: RationalMatrix, domain_scale: int | None = None
    ) -> "AbelianVirtualEndo":
        if domain_scale is None:
            domain_scale = math.lcm(*(e.denominator for row in matrix.entries for e in row))
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
# rho is 1 with neither its row nor its column sums constant goes to
# elimination: about 10 s at 200, minutes if rows hold many denominators.
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
