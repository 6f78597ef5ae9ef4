"""Verification suites: frozen expected values checked against the engine.

Each suite replays frozen reference identities of the two built-in maps
against the transducer, item by item.  The expected values here are data, not
derived from the code under test, so a corrupted transducer or map file
cannot silently pass.  Every rule that fails a ``sweep`` is kept here too:
the paper's facts about every curve's orbit, under the same rule for which
map gets which checks, and the checks that apply to every map.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from . import endo
from .curves import Classification, Curve, EntersCycle, EventuallyTrivial, PullbackSystem, Unresolved
from .mapdef import MapDefinition
from .words import Word, geodesic_length

# Expected second-iterate values over the rabbit nucleus
# {1, x, x^-1, y, y^-1, z^-1, z}: row element times column element.
NUCLEUS_ORDER = ("1", "x", "x^-1", "y", "y^-1", "z^-1", "z")
NUCLEUS_PAIR_TABLE = {
    "1": ("1", "1", "z^-1", "1", "1", "1", "y"),
    "x": ("1", "z", "1", "1", "1", "1", "y"),
    "x^-1": ("z^-1", "1", "z^-1", "1", "1", "1", "y"),
    "y": ("1", "1", "z^-1", "x", "1", "x", "z^-1"),
    "y^-1": ("1", "x^-1", "y", "1", "1", "1", "y"),
    "z^-1": ("1", "1", "z^-1", "y^-1", "1", "y^-1", "1"),
    "z": ("y", "1", "z^-1", "1", "1", "1", "y"),
}

# Recursion factors of the extension map: psi_hat(prefix * w) equals
# factor * psi_hat(w), keyed by (prefix token, parity of w).
RECURSION_FACTORS = {
    "rabbit": (
        ("x", 0, "y"),
        ("x", 1, "1"),
        ("x^-1", 0, "y^-1"),
        ("x^-1", 1, "1"),
        ("y", 0, "1"),
        ("y", 1, "y^-1 x^-1"),
        ("y^-1", 0, "x y"),
        ("y^-1", 1, "1"),
    ),
    "dendrite": (
        ("a", 0, "1"),
        ("a", 1, "1"),
        ("a^-1", 0, "1"),
        ("a^-1", 1, "1"),
        ("b", 0, "c"),
        ("b", 1, "b"),
        ("b^-1", 0, "c^-1"),
        ("b^-1", 1, "b^-1"),
        ("c", 0, "b^-1"),
        ("c", 1, "c^-1"),
        ("c^-1", 0, "c"),
        ("c^-1", 1, "b"),
    ),
}

class SuiteError(ValueError):
    """Suite requested for a map it does not apply to."""


class CheckItem(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


class SuiteResult:
    """A suite's checks, appended to ``items`` as they run."""

    __slots__ = ("suite", "items")

    def __init__(self, suite: str, items: list[CheckItem] | None = None):
        self.suite = suite
        self.items = [] if items is None else items

    @property
    def passed(self) -> int:
        return sum(1 for it in self.items if it.ok)

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def applies(maps: tuple[str, ...], mapdef: MapDefinition) -> bool:
    """The rule for which suites and sweep facts a map gets: those listed
    under its ``map`` name, whether built in or read from a file."""
    return mapdef.name in maps


def _require(suite: str, mapdef: MapDefinition) -> None:
    allowed = SUITES[suite][0]
    if not applies(allowed, mapdef):
        raise SuiteError(f"suite {suite!r} requires map {' or '.join(allowed)}")


def verify_nucleus_table(mapdef: MapDefinition, psi: endo.VirtualEndo) -> SuiteResult:
    """Recompute the 7x7 double-step table over the nucleus and diff it
    against the frozen expected entries."""
    _require("table7", mapdef)
    elems = {tok: mapdef.word(tok) for tok in NUCLEUS_ORDER}
    computed = endo.pair_table(psi, tuple(elems.values()))
    result = SuiteResult("table7")
    for row_tok in NUCLEUS_ORDER:
        for col_tok, want_tok in zip(NUCLEUS_ORDER, NUCLEUS_PAIR_TABLE[row_tok]):
            got = computed[(elems[row_tok], elems[col_tok])]
            want = elems[want_tok] if want_tok != "1" else Word.identity()
            result.items.append(
                CheckItem(
                    label=f"{row_tok} * {col_tok}",
                    ok=got == want,
                    detail=f"got {mapdef.format(got)}, want {want_tok}",
                )
            )
    return result


# The letters that may follow each last letter (0 before the first), in draw order.
_NEXT_LETTERS = {last: tuple(c for c in (1, -1, 2, -2) if c != -last) for last in (0, 1, -1, 2, -2)}


def _random_word(rng: random.Random, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    codes: list[int] = []
    last = 0
    for _ in range(length):
        last = rng.choice(_NEXT_LETTERS[last])
        codes.append(last)
    return Word(codes, _reduced=True)


def _random_word_with_parity(
    rng: random.Random, parity: endo.ParityHom, want: int, max_len: int
) -> Word:
    while True:
        w = _random_word(rng, max_len)
        if parity.theta(w) == want:
            return w


def verify_recursions(mapdef: MapDefinition, psi: endo.VirtualEndo) -> SuiteResult:
    """Check every recursion case psi_hat(prefix*w) = factor * psi_hat(w)
    on 200 random words w of the required coset."""
    _require("recursions", mapdef)
    samples = 200
    rng = random.Random(7)
    cases = RECURSION_FACTORS[mapdef.name]
    result = SuiteResult("recursions")
    for prefix_tok, parity_class, factor_tok in cases:
        prefix = mapdef.word(prefix_tok)
        factor = mapdef.word(factor_tok)
        bad = 0
        for _ in range(samples):
            w = _random_word_with_parity(rng, psi.parity, parity_class, 24)
            if psi.apply_hat(prefix * w) != factor * psi.apply_hat(w):
                bad += 1
        side = "w in H" if parity_class == 0 else "w not in H"
        result.items.append(
            CheckItem(
                label=f"hat({prefix_tok} w) = {factor_tok} hat(w), {side}",
                ok=bad == 0,
                detail=f"{samples - bad}/{samples} random words",
            )
        )
    return result


# Deepest prop84 check the CLI accepts: w_n has 2^(n+1) - 3 letters, and
# n = 20 already takes about 0.9-1.3 s and 85 MB (2-CPU host, Python 3.11).
MAX_SECTION_DEPTH = 20


def verify_section(mapdef: MapDefinition, psi: endo.VirtualEndo, n_max: int = 12) -> SuiteResult:
    """The section is a right inverse of psi on 200 random words, and
    conjugating the b-twist by w_n makes it survive exactly n pullbacks."""
    _require("prop84", mapdef)
    samples = 200
    rng = random.Random(11)
    result = SuiteResult("prop84")

    bad = 0
    for _ in range(samples):
        w = _random_word(rng, 24)
        if psi.apply(endo.section(w)) != w:
            bad += 1
    result.items.append(
        CheckItem(
            label="psi(section(w)) = w",
            ok=bad == 0,
            detail=f"{samples - bad}/{samples} random words",
        )
    )

    # Item n follows psi^k(b^(w_n)) as a pair (u, x) with u^x equal to
    # it, one apply_conj per step, so b^(w_n) is never built.  A pair
    # that is literally (b, w_m) after k steps has item m's chain ahead
    # (m = n - k), and takes item m's verdict.
    b = mapdef.word("b")
    conjugators: list[Word] = []  # w_m at index m - 1
    verdicts: list[bool] = []
    for n, wn in enumerate(endo.section_conjugators(n_max), start=1):
        u, x = b, wn
        for m in range(n, 0, -1):  # m steps left
            if m < n and u == b and x == conjugators[m - 1]:
                ok = verdicts[m - 1]
                break
            u, x = psi.apply_conj(u, x)
        else:
            ok = u.conj(x) == b
        conjugators.append(wn)
        verdicts.append(ok)
        result.items.append(CheckItem(label=f"psi^{n}(b^(w_{n})) = b", ok=ok))
    return result


def _min_coset_length(v: Word, axis: Word, blocks: list[Word]) -> int:
    """Shortest length over the coset <axis> * v; representatives of b^v
    differ exactly by leading axis powers."""
    span = 2 * (len(v) + len(axis)) // len(axis) + 2
    cur = axis ** (-span) * v
    best = geodesic_length(cur, blocks)
    for _ in range(2 * span):
        cur = axis * cur
        best = min(best, geodesic_length(cur, blocks))
    return best


def verify_length_decrease(mapdef: MapDefinition, psi: endo.VirtualEndo) -> SuiteResult:
    """Length behavior of the extension map in the 6-letter generating set
    (the two generators plus the derived axis) on 2000 random words: never
    increasing, and the b-twist conjugator admits a strictly shorter
    representative after a double step off H."""
    _require("lemma83", mapdef)
    samples = 2000
    rng = random.Random(13)
    blocks = [mapdef.third_axis]
    b = mapdef.word("b")

    nonincrease_bad = 0
    decrease_bad = 0
    identity_bad = 0
    eligible = 0
    for _ in range(samples):
        w = _random_word(rng, 24)
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
    result = SuiteResult("lemma83")
    result.items.append(
        CheckItem(
            label="|hat(w)| <= |w|",
            ok=nonincrease_bad == 0,
            detail=f"{samples - nonincrease_bad}/{samples} random words",
        )
    )
    result.items.append(
        CheckItem(
            label="psi^2(b^w) = b^v with v = hat^2(w)",
            ok=identity_bad == 0,
            detail=f"{eligible - identity_bad}/{eligible} eligible words",
        )
    )
    result.items.append(
        CheckItem(
            label="|v| < |w| when w and hat(w) are both off H",
            ok=decrease_bad == 0,
            detail=f"{eligible - decrease_bad}/{eligible} eligible words",
        )
    )
    return result


# Suite name -> (maps it applies to, runner).
SUITES: dict[str, tuple[tuple[str, ...], Callable[[MapDefinition, endo.VirtualEndo, int], SuiteResult]]] = {
    "table7": (("rabbit",), lambda mapdef, psi, n_max: verify_nucleus_table(mapdef, psi)),
    "recursions": (("rabbit", "dendrite"), lambda mapdef, psi, n_max: verify_recursions(mapdef, psi)),
    "prop84": (("dendrite",), lambda mapdef, psi, n_max: verify_section(mapdef, psi, n_max=n_max)),
    "lemma83": (("dendrite",), lambda mapdef, psi, n_max: verify_length_decrease(mapdef, psi)),
}


def _resolved_unobstructed(system: PullbackSystem, curve: Curve, cls: Classification) -> str | None:
    if isinstance(cls, Unresolved):
        return "unresolved"
    if isinstance(cls, EntersCycle) and cls.weight_product >= 1:
        return f"obstruction, cycle weight product {cls.weight_product} >= 1"
    return None


def _trivial_within_length_bound(length: int, cls: Classification) -> bool:
    """Whether a trivial orbit of a conjugator of this length meets the
    4|w|+3 bound by its length alone.  A block has at most two letters,
    so the geodesic length is at least ceil(|w|/2): within the bound
    from that, the exact one holds too."""
    return not isinstance(cls, EventuallyTrivial) or cls.steps <= 4 * ((length + 1) // 2) + 3


def _trivial_within_bound(system: PullbackSystem, curve: Curve, cls: Classification) -> str | None:
    if not isinstance(cls, EventuallyTrivial):
        return None
    bound = 4 * geodesic_length(curve.conjugator, [system.mapdef.third_axis]) + 3
    return f"trivial after {cls.steps} steps, bound {bound}" if cls.steps > bound else None


def _never_cycles(system: PullbackSystem, curve: Curve, cls: Classification) -> str | None:
    return "enters a cycle, expected trivial" if isinstance(cls, EntersCycle) else None


_AXIS_CURVES = frozenset(Curve(i, Word.identity()) for i in range(3))


def _cycle_is_axes(system: PullbackSystem, curve: Curve, cls: Classification) -> str | None:
    if isinstance(cls, EntersCycle) and frozenset(cls.cycle) != _AXIS_CURVES:
        return "unexpected cycle " + " -> ".join(system.format_curve(c) for c in cls.cycle)
    return None


# What fails a ``sweep``: name -> (maps it applies to, None for every map;
# check; length test or None).  A check returns what is wrong with one
# curve's classification, or None.  A check with no length test reads the
# classification alone, never the curve.  A length test passes on a
# conjugator's length and classification only where the check passes too:
# a sweep of merged prefix states knows a state's length but not its
# curves, and it runs the check on the curves only where the test fails.
# The first row is for any map: an unresolved orbit decides nothing, and a
# cycle of weight product >= 1 is an obstruction.  The paper proves the rest.
SweepCheck = Callable[[PullbackSystem, Curve, Classification], str | None]
LengthTest = Callable[[int, Classification], bool]
SWEEP_FACTS: dict[str, tuple[tuple[str, ...] | None, SweepCheck, LengthTest | None]] = {
    "resolved, no cycle of weight product >= 1": (None, _resolved_unobstructed, None),
    "trivial within 4|w|+3 steps": (("dendrite",), _trivial_within_bound, _trivial_within_length_bound),
    "never enters a cycle": (("dendrite",), _never_cycles, None),
    "the only cycle is the axis 3-cycle": (("rabbit",), _cycle_is_axes, None),
}


def sweep_facts(mapdef: MapDefinition) -> list[tuple[SweepCheck, LengthTest | None]]:
    """The (check, length test) pairs that apply to the map, in table order."""
    return [(check, test) for maps, check, test in SWEEP_FACTS.values() if maps is None or applies(maps, mapdef)]


def run_suite(suite: str, mapdef: MapDefinition, *, n_max: int = 12) -> list[SuiteResult]:
    """Run one named suite, or all suites applicable to the map."""
    if suite == "all":
        names = [s for s, (maps, _) in SUITES.items() if applies(maps, mapdef)]
        if not names:
            raise SuiteError(f"no verification suites apply to map {mapdef.name!r}")
    else:
        if suite not in SUITES:
            raise SuiteError(f"unknown suite {suite!r}; have {tuple(SUITES) + ('all',)}")
        _require(suite, mapdef)
        names = [suite]
    psi = mapdef.endomorphism()
    return [SUITES[name][1](mapdef, psi, n_max) for name in names]
