import math
import random
import time
from fractions import Fraction

import pytest

from curvepull import spectra
from curvepull.spectra import (
    AbelianVirtualEndo,
    RationalMatrix,
    contraction_coefficient_estimate,
    is_contracting,
    leading_eigenvalue,
    parse_matrix,
)

def identity(n: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def format_matrix(a: RationalMatrix) -> str:
    """The matrix file text that parse_matrix reads back as a."""
    lines = [str(a.n)]
    for row in a.entries:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


RABBIT_CYCLE = RationalMatrix.from_rows(
    [[0, 0, Fraction(1, 2)], [1, 0, 0], [0, Fraction(1, 2), 0]]
)


def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Exact Gauss-Jordan inverse; None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [e / p for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _identity_minus(a):
    n = a.n
    return [[Fraction(int(i == j)) - a.entries[i][j] for j in range(n)] for i in range(n)]


def _contracting_by_inverse(a):
    """Reference verdict: for nonnegative A, rho(A) < 1 iff I - A is
    invertible with entrywise nonnegative inverse."""
    inv = _inverse(_identity_minus(a))
    return inv is not None and all(e >= 0 for row in inv for e in row)


def test_matrix_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        RationalMatrix.from_rows([[-1]])
    with pytest.raises(ValueError, match="row 2, column 1: matrix must be nonnegative, got -1/2"):
        RationalMatrix.from_rows([[0, 1], [Fraction(-1, 2), -1]])
    with pytest.raises(ValueError, match="square"):
        RationalMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match="nonempty"):
        RationalMatrix.from_rows(())
    # the constructor takes the fields, rows over their lcm, and checks them alike
    with pytest.raises(ValueError, match="row 1, column 2: matrix must be nonnegative, got -1/2"):
        RationalMatrix(((1, -1), (0, 1)), (2, 1))


def test_leading_eigenvalue_identity():
    assert leading_eigenvalue(identity(2)) == pytest.approx(1.0, abs=1e-12)


def test_leading_eigenvalue_permutation():
    a = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert leading_eigenvalue(a) == pytest.approx(1.0, abs=1e-12)


def test_leading_eigenvalue_rabbit_cycle():
    # the cycle matrix is imprimitive with period 3; its class product is
    # the 1x1 cycle weight product, whose cube root is rho
    lam = leading_eigenvalue(RABBIT_CYCLE, tol=1e-12)
    assert abs(lam - 0.25 ** (1 / 3)) < 1e-9
    assert abs(lam ** 3 - 0.25) < 1e-9


def _weighted_cycle(weights):
    p = len(weights)
    rows = [[0] * p for _ in range(p)]
    for i, w in enumerate(weights):
        rows[(i + 1) % p][i] = w
    return RationalMatrix.from_rows(rows)


def _two_cyclic(c):
    """Classes {0, 1} and {2, 3}, every entry between them c."""
    return RationalMatrix.from_rows([[0, 0, c, c], [0, 0, c, c], [c, c, 0, 0], [c, c, 0, 0]])


@pytest.mark.parametrize(
    "a, rho, rel",
    [
        *(
            pytest.param(_weighted_cycle([Fraction(1, 2)] + [1] * (p - 1)), 0.5 ** (1 / p), 1e-9, id=f"period{p}")
            for p in (11, 12, 16, 30)
        ),
        # the first two estimates of this 4-cycle agree at 1.25
        pytest.param(
            _weighted_cycle([1, Fraction(1, 2), Fraction(3, 2), 2]), 1.5 ** (1 / 4), 1e-9, id="4cycle-product-3/2"
        ),
        pytest.param(
            _weighted_cycle([10000, 12000, 9000, 11000]), (10000 * 12000 * 9000 * 11000) ** (1 / 4), 1e-9,
            id="4cycle-weights-near-1e4",
        ),
        pytest.param(
            RationalMatrix.from_rows([[Fraction(1, 1000), 0], [0, Fraction(9, 10000)]]), 1e-3, 1e-9, id="diag-1/1000"
        ),
        # defective dominant eigenvalues: each diagonal entry is its own block
        pytest.param(RationalMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(1, 2)]]), 0.5, 1e-12, id="jordan-1/2"),
        pytest.param(RationalMatrix.from_rows([[1, 1], [0, 1]]), 1.0, 1e-12, id="jordan-1"),
        pytest.param(RationalMatrix.from_rows([[Fraction(4, 5), 1], [0, Fraction(4, 5)]]), 0.8, 1e-12, id="jordan-4/5"),
        pytest.param(RationalMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), 1.0, 1e-12, id="jordan-3x3-1"),
        # badly balanced: the class product of the 2-cycle is 1/2
        pytest.param(_weighted_cycle([500000, Fraction(1, 10**6)]), 0.5 ** 0.5, 1e-12, id="2cycle-5e5-1e-6"),
        pytest.param(
            RationalMatrix.from_rows([[0, 0], [Fraction(1000, 3), Fraction(1, 375)]]), 1 / 375, 1e-12, id="loop-1/375"
        ),
        pytest.param(
            _weighted_cycle([3] + [Fraction(1, 2)] * 99), (3 / 2**99) ** (1 / 100), 1e-12,
            id="period100",
        ),
        # a 2-cyclic block whose class product leaves float range: rho = 2c
        *(
            pytest.param(_two_cyclic(c), 2 * float(c), 1e-12, id=f"2cyclic-entries-{name}")
            for c, name in ((Fraction(10**200), "1e200"), (Fraction(1, 10**200), "1e-200"))
        ),
    ],
)
def test_leading_eigenvalue_slow_cases(a, rho, rel):
    assert leading_eigenvalue(a) == pytest.approx(rho, rel=rel)


@pytest.mark.parametrize("c", [Fraction(1, 1000), Fraction(1), Fraction(1000)], ids=["1/1000", "1", "1000"])
def test_leading_eigenvalue_scales_with_the_matrix(c):
    rng = random.Random(32)
    dense = RationalMatrix.from_rows([[Fraction(rng.randint(1, 9), 7) for _ in range(5)] for _ in range(5)])
    for a in (RABBIT_CYCLE, _weighted_cycle([1, Fraction(1, 2), Fraction(3, 2), 2]), dense):
        scaled = RationalMatrix.from_rows([[c * e for e in row] for row in a.entries])
        assert leading_eigenvalue(scaled) == pytest.approx(float(c) * leading_eigenvalue(a), rel=1e-9)


def test_leading_eigenvalue_diagonal():
    a = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert leading_eigenvalue(a) == pytest.approx(0.5, abs=1e-9)


def test_leading_eigenvalue_zero_matrix():
    assert leading_eigenvalue(RationalMatrix.from_rows([[0, 0], [0, 0]])) == 0.0
    # nilpotent: no vertex lies on a cycle
    assert leading_eigenvalue(RationalMatrix.from_rows([[0, 5], [0, 0]])) == 0.0


def test_leading_eigenvalue_nonconvergence_names_cap():
    # a nearly decomposable primitive block: its eigenvalues lie within
    # about 4e-9 of each other, so the iteration cannot meet a tight
    # tolerance within the cap, and neither its row sums nor its column
    # sums are constant, so no bracket closes
    a = parse_matrix("2\n0.5 0.000000001\n0.000000003 0.5000000005\n")
    with pytest.raises(ArithmeticError, match="100000"):
        leading_eigenvalue(a, tol=1e-14)


def test_is_contracting_examples():
    assert is_contracting(RationalMatrix.from_rows([[Fraction(1, 2)]]))
    assert not is_contracting(RationalMatrix.from_rows([[1]]))
    assert not is_contracting(RationalMatrix.from_rows([[2]]))
    assert is_contracting(RABBIT_CYCLE)
    # nilpotent: spectral radius 0
    assert is_contracting(RationalMatrix.from_rows([[0, 5], [0, 0]]))
    # spectral radius exactly 1 via a permutation
    assert not is_contracting(RationalMatrix.from_rows([[0, 1], [1, 0]]))


def _stochastic_rows(rng, n, zero_frac):
    rows = []
    for _ in range(n):
        weights = [0 if rng.random() < zero_frac else rng.randint(1, 9) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return rows


def _permutation_rows(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[int(j == perm[i]) for j in range(n)] for i in range(n)]


def _permuted(rng, rows):
    """P A P^-1 for a random permutation P: same spectrum, blocks hidden."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _random_rows(rng, n):
    return [
        [0 if rng.random() < 0.4 else Fraction(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(n)]
        for _ in range(n)
    ]


def _block_triangular_rows(rng, n):
    # a leading diagonal block with rho exactly 1 gives a zero leading minor
    k = rng.randint(1, n)
    first = _stochastic_rows(rng, k, 0.3) if rng.random() < 0.5 else _permutation_rows(rng, k)
    second = _random_rows(rng, n - k)
    upper = _random_rows(rng, max(k, n - k))
    rows = [first[i] + upper[i][: n - k] for i in range(k)]
    rows += [[0] * k + second[i] for i in range(n - k)]
    return _permuted(rng, rows) if rng.random() < 0.5 else rows


def _nilpotent_rows(rng, n):
    strict = [[Fraction(rng.randint(0, 9), rng.randint(1, 3)) if j > i else 0 for j in range(n)] for i in range(n)]
    return _permuted(rng, strict)


def _cyclic_rows(rng, tail):
    """A d-cyclic irreducible block, d in 2..5 with classes of 1-4 vertices,
    above a reducible tail of ``tail`` vertices that it feeds, permuted."""
    d = rng.randint(2, 5)
    classes, start = [], 0
    for size in (rng.randint(1, 4) for _ in range(d)):
        classes.append(range(start, start + size))
        start += size
    n = start + tail
    rows = [[0] * n for _ in range(n)]
    for c, here in enumerate(classes):
        there = classes[(c + 1) % d]
        for i in here:
            # the first vertex of each class links to and from every vertex
            # of its neighbour classes, which makes the block irreducible
            for j in there:
                if i == here[0] or j == there[0] or rng.random() < 0.5:
                    rows[i][j] = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            for j in range(start, n):
                rows[i][j] = Fraction(rng.randint(0, 2), 2)
    for i, row in enumerate(_scaled(_random_rows(rng, tail), Fraction(1, 4))):
        rows[start + i][start:] = row
    return _permuted(rng, rows)


def _scaled(rows, c):
    return [[c * e for e in row] for row in rows]


def test_is_contracting_matches_inverse_reference():
    rng = random.Random(34)
    families = {
        "random": lambda n: _random_rows(rng, n),
        "block-triangular": lambda n: _block_triangular_rows(rng, n),
        "stochastic": lambda n: _stochastic_rows(rng, n, rng.choice([0, 0.3, 0.6])),
        "permutation": lambda n: _permutation_rows(rng, n),
        "stochastic*999/1000": lambda n: _scaled(_stochastic_rows(rng, n, 0.3), Fraction(999, 1000)),
        "stochastic*1001/1000": lambda n: _scaled(_stochastic_rows(rng, n, 0.3), Fraction(1001, 1000)),
        "nilpotent": lambda n: _nilpotent_rows(rng, n),
        "d-cyclic": lambda n: _cyclic_rows(rng, n // 3),
    }
    verdicts = {name: set() for name in families}
    for name, make in families.items():
        for _ in range(150):
            a = RationalMatrix.from_rows(make(rng.randint(1, 9)))
            want = _contracting_by_inverse(a)
            assert is_contracting(a) == want, (name, a)
            verdicts[name].add(want)
    swap = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert is_contracting(swap) is _contracting_by_inverse(swap) is False
    # each family lands where rho puts it, so the agreement is not vacuous
    assert verdicts["random"] == verdicts["d-cyclic"] == {True, False}
    assert verdicts["block-triangular"] == verdicts["stochastic"] == verdicts["permutation"] == {False}
    assert verdicts["stochastic*1001/1000"] == {False}
    assert verdicts["stochastic*999/1000"] == verdicts["nilpotent"] == {True}


def test_leading_eigenvalue_is_bracketed_exactly_on_cyclic_blocks():
    # rho(A) < t iff A / t is contracting, so two exact verdicts pin the
    # estimate read off a d-step class product to within 1e-9
    rng = random.Random(36)
    for _ in range(100):
        a = RationalMatrix.from_rows(_cyclic_rows(rng, rng.randint(0, 3)))
        lam = Fraction(leading_eigenvalue(a, tol=1e-13))
        for t, below in ((lam * (1 + Fraction(1, 10**9)), True), (lam * (1 - Fraction(1, 10**9)), False)):
            assert is_contracting(RationalMatrix.from_rows([[e / t for e in row] for row in a.entries])) is below, a


@pytest.mark.parametrize("row_sum", [Fraction(1), Fraction(999999, 1000000)], ids=["1", "999999/1000000"])
def test_is_contracting_is_fast_on_dense_matrices(row_sum):
    # row sums 1 make I - A singular, so elimination runs to the last pivot
    rng = random.Random(35)
    n = 60
    rows = _scaled(_stochastic_rows(rng, n, 0), row_sum)
    a = RationalMatrix.from_rows(rows)
    t0 = time.perf_counter()
    verdict = is_contracting(a)
    elapsed = time.perf_counter() - t0
    assert verdict is (row_sum < 1)
    assert elapsed < 2.0, f"{elapsed:.2f} s for a dense {n}x{n} matrix"


def _straddling_rows(rng, n):
    """A positive matrix whose even rows sum to 1/2 and odd rows to 3/2."""
    return [[Fraction(3 if i % 2 else 1, 2) * e for e in row] for i, row in enumerate(_stochastic_rows(rng, n, 0))]


def _diagonally_similar(rng, rows, d=None):
    """D^-1 A D for a diagonal D, by default of random 1s and 3s: same spectrum, other sums."""
    d = d or [rng.choice((1, 3)) for _ in rows]
    return [[e * d[j] / d[i] for j, e in enumerate(row)] for i, row in enumerate(rows)]


def _diagonal_over(rng, n, p, q):
    """A diagonal over {1, p, q} that holds a p and a q, so that the
    Perron vector D^-1 1 of D^-1 S D has a ratio q/p."""
    d = [p, q] + [rng.choice((1, p, q)) for _ in range(n - 2)]
    rng.shuffle(d)
    return d


def _sum_brackets(b):
    """The row-sum and the column-sum bracket of a block's class product."""
    p = [[Fraction(e, q) for e in row] for row, q in zip(b.rows, b.dens)]
    return [(min(map(sum, m)), max(map(sum, m))) for m in (p, list(zip(*p)))]


def _count_elimination(monkeypatch) -> list:
    """Record each block that is_contracting hands to the exact oracle."""
    calls = []
    oracle = spectra._minors_positive

    def counted(b):
        calls.append(b)
        return oracle(b)

    monkeypatch.setattr(spectra, "_minors_positive", counted)
    return calls


def test_brackets_decide_and_elimination_runs_only_on_straddling_blocks(monkeypatch):
    # each block's bracket [lo, hi] lies within its row-sum and its
    # column-sum bracket and holds rho(P); the verdict is the oracle's, and
    # the oracle sees only blocks whose bracket holds 1
    rng = random.Random(37)
    oracle = spectra._minors_positive
    families = {
        "random": lambda n: _random_rows(rng, n),
        "reducible": lambda n: _block_triangular_rows(rng, n),
        "d-cyclic": lambda n: _cyclic_rows(rng, n // 3),
        "row sums 1/2": lambda n: _scaled(_stochastic_rows(rng, n, 0.3), Fraction(1, 2)),
        "row sums 1": lambda n: _stochastic_rows(rng, n, 0.3),
        "row sums 3/2": lambda n: _scaled(_stochastic_rows(rng, n, 0.3), Fraction(3, 2)),
        # from n = 5 up, the iterate after n steps decides these
        "row sums 1/2 and 3/2": lambda n: _permuted(rng, _straddling_rows(rng, n + 3)),
        # rho exactly 1 with unequal row sums: the column sums close the bracket
        "column sums 1": lambda n: [list(col) for col in zip(*_stochastic_rows(rng, n, 0.3))],
        # rho exactly 1 with neither sum constant: the Perron guess closes the
        # bracket at [1, 1], from the right vector D^-1 1 or the left one D 1
        "D^-1 S D": lambda n: _diagonally_similar(rng, _stochastic_rows(rng, n, 0.3)),
        "D^-1 C D": lambda n: _diagonally_similar(rng, [list(col) for col in zip(*_stochastic_rows(rng, n, 0.3))]),
        # ratios such as 17/13 defeat the guess to denominator 10, not the one to 1000
        "D^-1 S D, D over {1, 13, 17}": lambda n: _diagonally_similar(
            rng, _stochastic_rows(rng, n, 0), _diagonal_over(rng, n, 13, 17)
        ),
        # ratios such as 1013/1009 defeat every guess: elimination decides
        "D^-1 S D, D over {1, 1009, 1013}": lambda n: _diagonally_similar(
            rng, _stochastic_rows(rng, n, 0), _diagonal_over(rng, n, 1009, 1013)
        ),
    }
    eliminated = {}
    calls = _count_elimination(monkeypatch)
    for name, make in families.items():
        eliminated[name] = 0
        for _ in range(100):
            a = RationalMatrix.from_rows(make(rng.randint(2, 10)))
            calls.clear()
            assert is_contracting(a) is all(oracle(b) for b in a._blocks), (name, a)
            straddling = [b for b in a._blocks if b.lo < 1 <= b.hi]
            assert all(any(c is b for b in straddling) for c in calls), (name, a)
            eliminated[name] += len(calls)
            for b in a._blocks:
                (row_lo, row_hi), (col_lo, col_hi) = _sum_brackets(b)
                assert max(row_lo, col_lo) <= b.lo <= b.hi <= min(row_hi, col_hi), (name, a)
            lam = leading_eigenvalue(a)
            low = max((spectra.cycle_radius(b.lo, b.d) for b in a._blocks), default=0.0)
            high = max((spectra.cycle_radius(b.hi, b.d) for b in a._blocks), default=0.0)
            assert low * (1 - 1e-9) <= lam <= high * (1 + 1e-9), (name, a)
            if all(b.lo == b.hi for b in a._blocks):
                assert lam == high, (name, a)
    assert eliminated["row sums 1/2"] == eliminated["row sums 1"] == eliminated["row sums 3/2"] == 0
    assert eliminated["row sums 1/2 and 3/2"] == eliminated["column sums 1"] == 0
    assert eliminated["D^-1 S D"] == eliminated["D^-1 C D"] == eliminated["D^-1 S D, D over {1, 13, 17}"] == 0
    # a small block's left Perron vector can still have ratios of denominator
    # at most 1000 (7 in 100 here), but the right one never does
    assert eliminated["D^-1 S D, D over {1, 1009, 1013}"] >= 90


def test_perron_guess_to_denominator_1000_decides_where_10_does_not(monkeypatch):
    # at n = 40 the guess to denominator 10 straddles 1 on both sides of
    # each; the right vector D^-1 1, or the left one D 1, has ratios 17/13
    def no_elimination(b):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(spectra, "_minors_positive", no_elimination)
    rng = random.Random(40)
    n = 40
    row_similar = _diagonally_similar(rng, _stochastic_rows(rng, n, 0), _diagonal_over(rng, n, 13, 17))
    columns = [list(col) for col in zip(*_stochastic_rows(rng, n, 0))]
    column_similar = _diagonally_similar(rng, columns, [rng.choice((13, 17)) for _ in range(n)])
    for rows in (row_similar, column_similar):
        a = RationalMatrix.from_rows(rows)
        assert [[lo < 1 <= hi for lo, hi in _sum_brackets(b)] for b in a._blocks] == [[True, True]]
        # the guess closes rho 1 at [1, 1], so the estimate is exact too
        assert [(b.lo, b.hi) for b in a._blocks] == [(1, 1)]
        assert is_contracting(a) is False and leading_eigenvalue(a) == 1.0


def test_the_ladder_iterates_on_p_transpose_only_when_p_leaves_1_inside(monkeypatch):
    # row sums 1/2 and 3/2 straddle 1, and P's own iterate decides them, so
    # building the records runs at most one power iteration per matrix
    rng = random.Random(37)
    iterate = spectra._power_iteration
    calls = []

    def counted(b, tol, steps):
        calls.append(steps)
        return iterate(b, tol, steps)

    monkeypatch.setattr(spectra, "_power_iteration", counted)
    per_matrix = []
    for _ in range(100):
        a = RationalMatrix.from_rows(_permuted(rng, _straddling_rows(rng, rng.randint(2, 10) + 3)))
        calls.clear()
        assert len(a._blocks) == 1  # a positive matrix is one primitive block
        per_matrix.append(len(calls))
    assert max(per_matrix) == 1 and sum(per_matrix) >= 90


def test_each_block_is_certified_once(monkeypatch):
    # both answers read one record per block: the row-sum bracket of a
    # matrix with constant row sums closes, and nothing recomputes it
    calls = []
    bracket = spectra._bracket
    monkeypatch.setattr(spectra, "_bracket", lambda *args: calls.append(args) or bracket(*args))
    a = RationalMatrix.from_rows(_scaled(_stochastic_rows(random.Random(39), 6, 0), Fraction(1, 2)))
    assert is_contracting(a) and leading_eigenvalue(a) == 0.5
    assert len(calls) == 1


def test_bracket_is_the_least_and_the_greatest_ratio():
    # cross-multiplied pairs pick the same extremes as Fractions do, ties
    # and ratios that reduce to one value included
    rng = random.Random(44)
    for _ in range(500):
        n = rng.randint(1, 7)
        rows = [[rng.choice((0, 0, rng.randint(1, 30))) for _ in range(n)] for _ in range(n)]
        dens = [rng.choice((1, 2, 3, 6, 12)) for _ in range(n)]
        v = [rng.choice((1, 2, 4, rng.randint(1, 1000))) for _ in range(n)]
        ratios = [Fraction(sum(e * x for e, x in zip(row, v)), q * w) for row, q, w in zip(rows, dens, v)]
        assert spectra._bracket(rows, dens, v) == (min(ratios), max(ratios))
    assert spectra._bracket([[2, 2], [3, 3]], [4, 6], [1, 1]) == (1, 1)


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2)], ids=["rho-1.2", "rho-0.6"])
def test_is_contracting_decides_a_dense_200x200_block_without_elimination(monkeypatch, scale):
    # rows of entries k/450, k up to 6 on even rows and up to 3 on odd ones:
    # the row sums straddle 1, rho does not come near it
    rng = random.Random(38)
    n = 200
    rows = [[Fraction(rng.randint(1, 3 if i % 2 else 6), 450) * scale for _ in range(n)] for i in range(n)]
    a = RationalMatrix.from_rows(rows)
    calls = _count_elimination(monkeypatch)
    t0 = time.perf_counter()
    verdict = is_contracting(a)
    elapsed = time.perf_counter() - t0
    assert verdict is (scale < 1) and calls == []
    assert elapsed < 2.0, f"{elapsed:.2f} s for a dense {n}x{n} matrix"


@pytest.mark.parametrize("side", ["row", "column"])
def test_is_contracting_closes_a_rho_1_similarity_scaled_200x200_block_with_the_perron_guess(monkeypatch, side):
    # D^-1 S D, S positive and row- or column-stochastic, D over {1, 3}:
    # elimination took 10 s and more than 300 s before the guess
    rng = random.Random(43)
    s = _stochastic_rows(rng, 200, 0)
    a = RationalMatrix.from_rows(_diagonally_similar(rng, s if side == "row" else [list(col) for col in zip(*s)]))
    calls = _count_elimination(monkeypatch)
    t0 = time.perf_counter()
    verdict = is_contracting(a)
    elapsed = time.perf_counter() - t0
    assert verdict is False and calls == []
    assert elapsed < 2.0, f"{elapsed:.2f} s for a 200x200 D^-1 S D"


def test_is_contracting_agrees_with_float(rabbit):
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        a = RationalMatrix.from_rows(rows)
        lam = leading_eigenvalue(a, tol=1e-8)
        if lam < 0.99:
            assert is_contracting(a)
        elif lam > 1.01:
            assert not is_contracting(a)


def test_is_contracting_scale_invariant():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(0, 4), 3) for _ in range(n)] for _ in range(n)]
        a = RationalMatrix.from_rows(rows)
        diag = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        similar = RationalMatrix.from_rows(
            [[rows[i][j] * diag[j] / diag[i] for j in range(n)] for i in range(n)]
        )
        assert is_contracting(a) == is_contracting(similar)


def test_estimator_examples():
    half = AbelianVirtualEndo.from_matrix(RationalMatrix.from_rows([[Fraction(1, 2)]]))
    assert contraction_coefficient_estimate(half, n_steps=40) == pytest.approx(0.5, rel=1e-9)
    swap = AbelianVirtualEndo.from_matrix(RationalMatrix.from_rows([[0, 1], [1, 0]]))
    assert contraction_coefficient_estimate(swap, n_steps=40) == pytest.approx(1.0, rel=1e-9)
    nil = AbelianVirtualEndo.from_matrix(RationalMatrix.from_rows([[0, 3], [0, 0]]))
    assert contraction_coefficient_estimate(nil, n_steps=40) == 0.0


def test_estimator_tracks_eigenvalue():
    rng = random.Random(53)
    for i in range(25):
        n = rng.randint(1, 4)
        a = RationalMatrix.from_rows([[rng.randint(0, 5) for _ in range(n)] for _ in range(n)])
        lam = leading_eigenvalue(a, tol=1e-6)
        est = contraction_coefficient_estimate(
            AbelianVirtualEndo.from_matrix(a), n_steps=40, trials=20, seed=i
        )
        assert abs(est - lam) / max(lam, 0.1) <= 0.05


def test_abelian_endo_scale():
    a = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
    phi = AbelianVirtualEndo.from_matrix(a)
    assert phi.domain_scale == 6
    assert AbelianVirtualEndo.from_matrix(a, 12).domain_scale == 12
    with pytest.raises(ValueError, match="denominator"):
        AbelianVirtualEndo.from_matrix(a, 2)
    with pytest.raises(ValueError, match="positive"):
        AbelianVirtualEndo.from_matrix(a, 0)


def test_parse_matrix():
    a = parse_matrix("2\n1/2 0\n3 1\n")
    assert a.entries[0][0] == Fraction(1, 2)
    assert a.entries[1][0] == 3
    assert parse_matrix(format_matrix(a)) == a
    with pytest.raises(ValueError, match="dimension"):
        parse_matrix("x\n")
    with pytest.raises(ValueError, match="rows"):
        parse_matrix("2\n1 0\n")
    with pytest.raises(ValueError, match="entries"):
        parse_matrix("2\n1 0 3\n0 1\n")
    with pytest.raises(ValueError, match="row 1"):
        parse_matrix("1\nfoo\n")
    with pytest.raises(ValueError, match=r"^row 1, column 2: 'foo' is not an integer, p/q or decimal$"):
        parse_matrix("2\n1/2 foo\n0 1\n")
    with pytest.raises(ValueError, match=r"^row 2, column 1: '1/0' has a zero denominator$"):
        parse_matrix("2\n1 0\n1/0 1\n")
    # Python's own limit on int(str) is not what the user sees
    for entry in ("7" * 5_000, "1/" + "3" * 5_000, "0." + "5" * 5_000):
        with pytest.raises(ValueError, match=r"^row 1, column 2: entry has 500[01] digits, more than the 4300 accepted$"):
            parse_matrix(f"2\n0 {entry}\n0 0\n")
    assert parse_matrix("1\n" + "9" * 4_300 + "\n").entries[0][0] == 10 ** 4_300 - 1
    assert parse_matrix("1\n0.25\n").entries[0][0] == Fraction(1, 4)
    # Fraction would build 10**999999999 from these few bytes
    for entry in ("1e999999999", "1E5", "-2.5e-3", "0.5e1"):
        with pytest.raises(ValueError, match=r"row 2, column 1: .* \(exponent notation is not accepted\)"):
            parse_matrix(f"2\n1 0\n{entry} 1/2\n")
    with pytest.raises(ValueError, match="row 2, column 2: matrix must be nonnegative, got -1/3"):
        parse_matrix("2\n1 0\n0 -1/3\n")
    with pytest.raises(ValueError, match="empty"):
        parse_matrix("\n")
    with pytest.raises(ValueError, match=r"^dimension 201 is more than the 200 accepted$"):
        parse_matrix("201\n" + "0 " * 201 + "\n")
    assert parse_matrix("200\n" + ("0 " * 200 + "\n") * 200).n == 200


# Entries next to the integer path of parse_matrix (ASCII p and p/q), and
# entries on either side of the 4300-digit limit
NEAR_THE_INTEGER_PATH = [
    "007", "0/5", "10/4", "+1", "-0", "1_0", "٣/٤", "2²", "2/", "/2", "1/2/3", "0/0", "0.25",
    "9" * 4300, "9" * 4301, "1/" + "3" * 4298, "1/" + "3" * 4299, "3" * 2151 + "/" + "7" * 2150,
]


def _read_as_fraction(token: str, where: str):
    """The value parse_matrix gives token at where, or its diagnostic, read off Fraction(token)."""
    digits = sum(map(str.isdigit, token))
    if digits > 4300:
        return f"{where}: entry has {digits} digits, more than the 4300 accepted"
    try:
        e = Fraction(token)
    except ValueError:
        return f"{where}: {token!r} is not an integer, p/q or decimal"
    except ZeroDivisionError:
        return f"{where}: {token!r} has a zero denominator"
    return e if e >= 0 else f"{where}: matrix must be nonnegative, got {e}"


@pytest.mark.parametrize("token", NEAR_THE_INTEGER_PATH, ids=lambda t: t if len(t) < 20 else f"{len(t)}-chars")
def test_entries_read_as_fraction_reads_them(token):
    # alone, and in a row with another denominator, where the row's lcm scales it
    for text, where in ((f"1\n{token}\n", "row 1, column 1"), (f"2\n0 1\n1/3 {token}\n", "row 2, column 2")):
        want = _read_as_fraction(token, where)
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                parse_matrix(text)
            assert str(err.value) == want
        else:
            a = parse_matrix(text)
            assert a.entries[-1][-1] == want and type(a.entries[-1][-1]) is Fraction
            assert a == RationalMatrix.from_rows([[want]] if a.n == 1 else [[0, 1], [Fraction(1, 3), want]])


BAD = "is not an integer, p/q or decimal"


@pytest.mark.parametrize(
    "text, message",
    [
        # the leftmost bad entry of the first bad row, whatever the order of a set of its tokens
        ("3\n1 1 1\n1 zz yy\nxx 1 1\n", f"row 2, column 2: 'zz' {BAD}"),
        ("3\n1 1 1\n1 yy zz\nxx 1 1\n", f"row 2, column 2: 'yy' {BAD}"),
        ("8\n" + "1 " * 8 + "\n1 h g f e d c b\n" + ("1 " * 8 + "\n") * 6, f"row 2, column 2: 'h' {BAD}"),
        ("3\n1 1 1\n1 1/0 2/\n1 1 1\n", "row 2, column 2: '1/0' has a zero denominator"),
        # a token is parsed once, where it first occurs
        ("2\n1 1/0\n1/0 1\n", "row 1, column 2: '1/0' has a zero denominator"),
        # a row's length is checked before its entries, after the rows above it
        ("2\n1 1 1\nfoo 1\n", "row 1 has 3 entries, expected 2"),
        ("2\nfoo 1\n1\n", f"row 1, column 1: 'foo' {BAD}"),
        # any syntax error comes before any negative entry
        ("2\n-1 1\n1 foo\n", f"row 2, column 2: 'foo' {BAD}"),
        ("2\n1 -1/2\n-3 1\n", "row 1, column 2: matrix must be nonnegative, got -1/2"),
        ("2\n1 1\n1 -0.5\n", "row 2, column 2: matrix must be nonnegative, got -1/2"),
    ],
)
def test_parse_matrix_reports_the_first_fault(text, message):
    with pytest.raises(ValueError) as err:
        parse_matrix(text)
    assert str(err.value) == message


def _spelled(rng, e: Fraction) -> str:
    """e as a matrix file entry: p/q unreduced, an integer with leading zeros, or a decimal."""
    k = rng.randint(1, 4)
    if e.denominator == 1 and rng.random() < 0.5:
        return "0" * rng.randint(0, 2) + str(e.numerator)
    if 10**6 % e.denominator == 0 and rng.random() < 0.5:
        m = e.numerator * (10**6 // e.denominator)
        return f"{m // 10**6}.{m % 10**6:06d}"
    return f"{e.numerator * k}/{e.denominator * k}"


def test_parse_matrix_equals_from_rows():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.choice((0, 0, rng.randint(1, 40))), rng.choice((1, 2, 4, 5, 3, 7, 12, 25))) for _ in range(n)]
            for _ in range(n)
        ]
        text = f"{n}\n" + "".join(" ".join(_spelled(rng, e) for e in row) + "\n" for row in rows)
        a, b = parse_matrix(text), RationalMatrix.from_rows(rows)
        assert a == b and hash(a) == hash(b) and a.entries == b.entries, text
        assert RationalMatrix.from_rows(b.entries) == b and a.apply([1] * n) == [sum(row) for row in rows]


def _reference_blocks(a: RationalMatrix) -> tuple:
    """``a._blocks`` computed on Fraction entries, each class product then
    brought to integer rows over the lcm of each row's denominators."""
    n = a.n
    succ = [[(j, e) for j, e in enumerate(row) if e] for row in a.entries]
    reach = [sum(1 << j for j, _ in s) for s in succ]
    for k in range(n):
        reach = [r | reach[k] if r >> k & 1 else r for r in reach]
    out = []
    for i in range(n):
        block = [j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1]
        if block[:1] != [i]:
            continue
        inner = {v: [(j, e) for j, e in succ[v] if j in block] for v in block}
        level, queue = {i: 0}, [i]
        for v in queue:
            for j, _ in inner[v]:
                if j not in level:
                    level[j] = level[v] + 1
                    queue.append(j)
        d = math.gcd(*(level[v] + 1 - level[j] for v in block for j, _ in inner[v]))
        first = [v for v in block if level[v] % d == 0]
        p = []
        for v in first:
            x = dict(inner[v])
            for _ in range(d - 1):
                y = {}
                for k, c in x.items():
                    for j, e in inner[k]:
                        y[j] = y.get(j, 0) + c * e
                x = y
            p.append([Fraction(x.get(w, 0)) for w in first])
        dens = [math.lcm(*(e.denominator for e in row)) for row in p]
        rows = [[e.numerator * (q // e.denominator) for e in row] for row, q in zip(p, dens)]
        out.append(spectra._certify(d, rows, dens))
    return tuple(out)


def _with_zero_rows(rng, rows):
    return [[0] * len(row) if rng.random() < 0.3 else row for row in rows]


def test_blocks_match_a_fraction_reference():
    rng = random.Random(42)
    families = {
        "random": lambda n: _random_rows(rng, n),
        "reducible": lambda n: _block_triangular_rows(rng, n),
        "d-cyclic": lambda n: _cyclic_rows(rng, n // 3),
        "zero rows": lambda n: _with_zero_rows(rng, _random_rows(rng, n)),
        "nilpotent": lambda n: _nilpotent_rows(rng, n),
        "D^-1 S D": lambda n: _diagonally_similar(rng, _stochastic_rows(rng, n, 0.5)),
    }
    seen = set()
    for name, make in families.items():
        for _ in range(100):
            a = RationalMatrix.from_rows(make(rng.randint(1, 9)))
            want = _reference_blocks(a)
            assert a._blocks == want, (name, a)
            seen.update((b.d > 1, len(want) > 1, b.lo < b.hi) for b in want)
    for a in (_two_cyclic(Fraction(10**200)), _weighted_cycle([3] + [Fraction(1, 2)] * 99), RABBIT_CYCLE):
        assert a._blocks == _reference_blocks(a)
    # cyclic and primitive blocks, alone and beside others, with open and closed brackets
    assert len(seen) == 8


def test_neumann_series_cross_check():
    # for a contracting matrix, (I - A)^-1 equals the geometric series;
    # check against a truncated float sum
    a = RABBIT_CYCLE
    n = a.n
    inv = _inverse(_identity_minus(a))
    acc = [[float(i == j) for j in range(n)] for i in range(n)]
    power = [[float(i == j) for j in range(n)] for i in range(n)]
    af = [[float(e) for e in row] for row in a.entries]
    for _ in range(200):
        power = [
            [sum(power[i][k] * af[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        acc = [[acc[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert math.isclose(float(inv[i][j]), acc[i][j], abs_tol=1e-9)
