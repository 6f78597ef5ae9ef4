"""Spectral radius and exact contraction tests for nonnegative rational matrices.

Both read one certified record per irreducible diagonal block of A, in
integers from the moment A is read: its cyclic index d, its primitive class
product P, and an exact Collatz-Wielandt bracket lo <= rho(P) <= hi,
narrowed once, by ``_certify``; rho(A) is the largest rho(P)^(1/d).  An
exact integer growth-rate estimator serves as an independent oracle for
the leading eigenvalue.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._record import Record


class RationalMatrix(Record):
    """A square nonnegative matrix of rationals rows[i][j] / dens[i], dens[i]
    the lcm of row i's denominators; ``from_rows`` takes rows of Fractions
    or ints."""

    _fields = ("rows", "dens")

    def __init__(self, rows: tuple[tuple[int, ...], ...], dens: tuple[int, ...]):
        if not rows:
            raise ValueError("matrix must be nonempty")
        for i, (row, q) in enumerate(zip(rows, dens), start=1):
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            if min(row) < 0:
                j = next(j for j, e in enumerate(row) if e < 0)
                raise ValueError(f"row {i}, column {j + 1}: matrix must be nonnegative, got {Fraction(row[j], q)}")
        super().__init__(rows, dens)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        held = [(row, math.lcm(*[e.denominator for e in row])) for row in (tuple(map(Fraction, r)) for r in rows)]
        return cls(tuple(tuple(e.numerator * (q // e.denominator) for e in r) for r, q in held), tuple(q for _, q in held))

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, q) for e in row) for row, q in zip(self.rows, self.dens))

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        return [Fraction(sum(map(mul, row, v)), q) for row, q in zip(self.rows, self.dens)]

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
        n, rows, dens = self.n, self.rows, self.dens
        succ = [list(compress(range(n), row)) for row in rows]
        # reach[i]: bitmask of the ends of the paths of length >= 1 from i (Warshall)
        reach = [sum(map((1).__lshift__, s)) for s in succ]
        for k in range(n):
            bit, through = 1 << k, reach[k]
            reach = [r | through if r & bit else r for r in reach]
        out, done = [], 0  # done: bitmask of the vertices of the blocks found
        for i in range(n):
            if (done | ~reach[i]) >> i & 1:  # i is in an earlier block, or on no cycle
                continue
            block = [j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1]  # i's block; i is its least
            done |= sum(map((1).__lshift__, block))
            members = set(block)
            inner = {v: list(filter(members.__contains__, succ[v])) for v in block}
            level, queue = {i: 0}, [i]
            for v in queue:
                queue += (new := set(inner[v]).difference(level))
                level.update(dict.fromkeys(new, level[v] + 1))
            d = math.gcd(*[level[v] + 1 - t for v in block for t in set(map(level.__getitem__, inner[v]))])
            first = [v for v in block if level[v] % d == 0]
            p, qs = [], []
            for v in first:
                x, q, support = rows[v], dens[v], inner[v]  # row v of B, B^2, ..., B^d: x / q
                for _ in range(d - 1):
                    l, y = math.lcm(*[dens[k] for k in support]), defaultdict(int)
                    for k in support:
                        for j in inner[k]:
                            y[j] += x[k] * (l // dens[k]) * rows[k][j]
                    x, q, support = y, q * l, y
                row = list(map(x.__getitem__, first))
                g = math.gcd(q, *row)  # the gcd form of row v is the lcm form of its entries
                p.append(list(map(g.__rfloordiv__, row)))
                qs.append(q // g)
            out.append(_certify(d, p, qs))
        return tuple(out)


class _Block(NamedTuple):
    """A block's cyclic index d; its class product P as rows over dens, in the
    form of ``RationalMatrix``; the exact bracket lo <= rho(P) <= hi of
    ``_certify``; the exponents x of P's balancing D = diag(2^x), 0s if the
    row or column sums close the bracket."""

    d: int
    rows: list[list[int]]
    dens: list[int]
    lo: Fraction
    hi: Fraction
    x: list[int]


def _certify(d: int, rows: list[list[int]], dens: list[int]) -> _Block:
    """The record of a class product P, the only place its bracket narrows.

    P is irreducible, so for every positive v, rho(P) lies between the
    least and the greatest (Pv)_i / v_i (Collatz-Wielandt, Berman-Plemmons,
    ch. 2), and so does rho(P^T).  The bracket intersects those of v all
    ones on P (the row sums) and on P^T (the column sums), and of v = D 1,
    tried in that order until lo == hi.  One that still holds 1 (lo < 1 <=
    hi) is narrowed on until 1 lies outside it, on P and then on P^T:
    from v the float power iterate after at most max(n, 50) steps (n^3
    float products, about what elimination makes on growing integers;
    fewer leave a small block's v too coarse), and from the Perron guess,
    v / min(v) to denominators of at most 10, which closes rho 1 at [1, 1]
    when the Perron ratios have such denominators (D^-1 S D, S row- or
    column-stochastic, D over {1, 3}).  Then the guess to denominators of
    at most 1000 is tried on each side (D over {1, 13, 17}).  P^T's
    iterate runs only if P's vectors leave 1 inside.  Any positive v gives
    a valid bracket, so a guess costs time, never a verdict.
    """
    n = len(rows)
    lo, hi = _bracket(rows, dens, [1] * n)
    if lo < hi:
        # P^T over one denominator l: its row j, column j of P, sums to sum_i rows[i][j] (l / dens[i])
        l = math.lcm(*dens)
        t = [list(col) for col in zip(*[[e * (l // q) for e in row] for row, q in zip(rows, dens)])]
        sums = list(map(sum, t))
        lo, hi = max(lo, Fraction(min(sums), l)), min(hi, Fraction(max(sums), l))
    x = _balance(rows, dens) if lo < hi else [0] * n
    if any(x):
        lo_x, hi_x = _bracket(rows, dens, [1 << e for e in x])
        lo, hi = max(lo, lo_x), min(hi, hi_x)
    if lo < 1 <= hi:
        # lo < hi after the row sums, so P^T is built; D^-1 balances it where D balances P
        sides = _Block(d, rows, dens, lo, hi, x), _Block(d, t, [l] * n, lo, hi, [max(x) - e for e in x])
        for p, v in _ladder(sides, max(n, 50)):
            lo_v, hi_v = _bracket(p.rows, p.dens, v)
            lo, hi = max(lo, lo_v), min(hi, hi_v)
            if not lo < 1 <= hi:
                break
    return _Block(d, rows, dens, lo, hi, x)


def _ladder(sides: Sequence[_Block], steps: int) -> Iterator[tuple[_Block, list[int]]]:
    """``_certify``'s (side, v) pairs in order, each computed only when asked for."""
    iterates = []
    for p in sides:
        v = _power_iteration(p, DEFAULT_TOL, steps)[2]
        if v is not None:
            iterates.append((p, v))
            yield p, v
            yield p, _perron_guess(v, 10)
    for p, v in iterates:
        yield p, _perron_guess(v, 1000)


def is_contracting(a: RationalMatrix) -> bool:
    """Exact decision of rho(A) < 1: rho(P) < 1 for every P of ``a._blocks``.

    A block's bracket [lo, hi] decides True if hi < 1 and False if lo >= 1.
    The exact oracle decides a block whose bracket still holds 1: for
    nonnegative P, rho(P) < 1 iff every leading principal minor of the
    Z-matrix I - P is positive (Berman-Plemmons, Thm 6.2.3), the pivots of
    Bareiss elimination without pivoting on the rows of I - P times
    dens[i]; the first that is not positive decides False.
    """
    return all(_minors_positive(b) if b.lo < 1 <= b.hi else b.hi < 1 for b in a._blocks)


def _perron_guess(v: Sequence[int], bound: int) -> list[int]:
    """v / min(v), each ratio rounded to the nearest fraction of
    denominator at most ``bound``, times the lcm of those denominators."""
    least = min(v)
    ratios = [Fraction(e, least).limit_denominator(bound) for e in v]
    l = math.lcm(*(r.denominator for r in ratios))
    return [r.numerator * (l // r.denominator) for r in ratios]


def _bracket(rows: Sequence[Sequence[int]], dens: Sequence[int], v: Sequence[int]) -> tuple[Fraction, Fraction]:
    """The least and the greatest (Pv)_i / v_i for positive integers v,
    compared as integer pairs by cross-multiplying (the denominators
    are positive), so that only the two extremes become Fractions."""
    ratios = [(sum(map(mul, row, v)), q * w) for row, q, w in zip(rows, dens, v)]
    lo = hi = ratios[0]
    for m, q in ratios:
        if m * lo[1] < lo[0] * q:
            lo = m, q
        elif m * hi[1] > hi[0] * q:
            hi = m, q
    return Fraction(*lo), Fraction(*hi)


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
    constant row or column sums, for a P that D 1 balances exactly and for
    one whose rho 1 a Perron guess of ``_certify`` closes at [1, 1], it is
    ``cycle_radius(lo, d)``.  Otherwise P is primitive, so unshifted power
    iteration on the balanced D^-1 P D from the uniform vector
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


class AbelianVirtualEndo(Record):
    """phi: Z^n -> Z^n defined on the sublattice L*Z^n, with matrix A."""

    __slots__ = _fields = ("matrix", "domain_scale")

    def __init__(self, matrix: RationalMatrix, domain_scale: int):
        super().__init__(matrix, domain_scale)
        if self.domain_scale < 1:
            raise ValueError("domain scale must be a positive integer")
        for e in (e for row in self.matrix.entries for e in row if self.domain_scale % e.denominator):
            raise ValueError(f"scale {self.domain_scale} does not clear denominator of {e}")

    @classmethod
    def from_matrix(cls, matrix: RationalMatrix, domain_scale: int | None = None) -> "AbelianVirtualEndo":
        return cls(matrix, math.lcm(*matrix.dens) if domain_scale is None else domain_scale)


def contraction_coefficient_estimate(phi: AbelianVirtualEndo, n_steps: int = 40, trials: int = 20, seed: int = 0) -> float:
    """Growth-rate estimate of rho(phi): max over sample vectors v in
    L*Z^n of (|A^n v| / |v|)^(1/n), computed in exact arithmetic.

    The all-ones vector is always sampled (it dominates every basis
    vector, so the estimate is never starved of the leading direction);
    the rest are random positive integer vectors.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    a, scale, rng = phi.matrix, phi.domain_scale, random.Random(seed)
    vectors = [[scale] * a.n] + [[scale * rng.randint(1, 9) for _ in range(a.n)] for _ in range(trials - 1)]
    best = 0.0
    for v in vectors:  # positive, and A is nonnegative: |v| is sum(v)
        size0 = sum(v)
        for _ in range(n_steps):
            v = a.apply(v)
        if size := sum(v):
            best = max(best, float(size / size0) ** (1.0 / n_steps))
    return best


# The largest dimension parse_matrix accepts: a dense rho-1 block whose Perron
# ratios need denominators above 1000 goes to elimination: 12.3 s at 200 for
# D^-1 S D, D over {1, 1009, 1013} (2-CPU host, Python 3.11).
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
    # each token's reduced numerator and denominator (nums, qs), parsed at its first occurrence, which diagnostics name
    rows, dens, nums, qs = [], [], {}, {}
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        distinct = set(parts)
        for j in sorted(map(parts.index, distinct.difference(qs))):
            nums[parts[j]], qs[parts[j]] = _parse_entry(parts[j], i, j + 1)
        l = math.lcm(*[qs[p] for p in distinct])
        scaled = {p: nums[p] * (l // qs[p]) for p in distinct}
        # lists, not iterators, feed tuples and star arguments: a resized tuple stays on CPython's free list
        rows.append((*map(scaled.__getitem__, parts),))
        dens.append(l)
    return RationalMatrix(tuple(rows), tuple(dens))


# The default limit on int(str) since Python 3.11; checking it here gives
# every Python version the same diagnostic, in the matrix's own terms.
_MAX_ENTRY_DIGITS = 4300


def _parse_entry(p: str, i: int, j: int) -> tuple[int, int]:
    """One matrix entry as a reduced (numerator, denominator), through int if it is
    ASCII p or p/q and through Fraction otherwise; a diagnostic names its row i and column j."""
    num, slash, den = p.partition("/")
    if p.isascii() and num.isdigit() and (den.isdigit() or not slash) and len(p) <= _MAX_ENTRY_DIGITS:
        if q := int(den or 1):  # a zero denominator gets Fraction's diagnostic below
            g = math.gcd(m := int(num), q)
            return m // g, q // g
    where = f"row {i}, column {j}"
    # Fraction builds 10**k for an exponent k, so a few bytes of input would take
    # unbounded time and memory; no other entry it accepts has an e in it
    if "e" in p or "E" in p:
        raise ValueError(f"{where}: {p!r} is not an integer, p/q or decimal (exponent notation is not accepted)")
    if len(p) > _MAX_ENTRY_DIGITS and (digits := sum(map(str.isdigit, p))) > _MAX_ENTRY_DIGITS:
        raise ValueError(f"{where}: entry has {digits} digits, more than the {_MAX_ENTRY_DIGITS} accepted")
    try:
        e = Fraction(p)
    except ValueError:
        raise ValueError(f"{where}: {p!r} is not an integer, p/q or decimal") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: {p!r} has a zero denominator") from None
    return e.numerator, e.denominator
