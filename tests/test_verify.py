from fractions import Fraction

import pytest

from curvepull.curves import Curve, EntersCycle, EventuallyTrivial, Unresolved
from curvepull.endo import DomainError, VirtualEndo, section_conjugators
from curvepull.mapdef import BUILTIN_TEXTS, builtin, parse_mapdef
from curvepull.verify import (
    NUCLEUS_ORDER,
    NUCLEUS_PAIR_TABLE,
    SWEEP_FACTS,
    SuiteError,
    run_suite,
    sweep_facts,
    verify_length_decrease,
    verify_nucleus_table,
    verify_recursions,
    verify_section,
)
from curvepull.words import Word


def test_table_shape():
    assert len(NUCLEUS_ORDER) == 7
    assert set(NUCLEUS_PAIR_TABLE) == set(NUCLEUS_ORDER)
    assert all(len(row) == 7 for row in NUCLEUS_PAIR_TABLE.values())


def test_table_spot_values():
    def entry(row, col):
        return NUCLEUS_PAIR_TABLE[row][NUCLEUS_ORDER.index(col)]

    assert entry("x", "x") == "z"
    assert entry("y", "y") == "x"
    assert entry("z^-1", "x^-1") == "z^-1"
    assert entry("y", "z") == "z^-1"
    assert entry("z", "1") == "y"


def test_nucleus_table_all_pass(rabbit, rabbit_system):
    res = verify_nucleus_table(rabbit, rabbit_system.psi)
    assert res.total == 49
    assert res.passed == 49
    assert res.ok


def test_nucleus_table_catches_corruption(rabbit):
    images = dict(rabbit.schreier_images)
    images[rabbit.word("x")] = rabbit.word("y y")
    bad = VirtualEndo.from_images(rabbit.parity, images)
    res = verify_nucleus_table(rabbit, bad)
    assert not res.ok
    assert res.passed < 49


def test_recursions_pass(rabbit, rabbit_system, dendrite, dendrite_system):
    res = verify_recursions(rabbit, rabbit_system.psi)
    assert res.ok and res.total == 8
    res = verify_recursions(dendrite, dendrite_system.psi)
    assert res.ok and res.total == 12


def test_recursions_catch_corruption(dendrite):
    images = dict(dendrite.schreier_images)
    images[dendrite.word("b")] = dendrite.word("a^-1 b^-1")
    bad = VirtualEndo.from_images(dendrite.parity, images)
    assert not verify_recursions(dendrite, bad).ok


def test_section_suite(dendrite, dendrite_system):
    res = verify_section(dendrite, dendrite_system.psi, n_max=6)
    assert res.ok
    assert res.total == 7  # right-inverse check plus n = 1..6


def direct_prop84(mapdef, psi, n_max):
    """prop84's verdicts the direct way: psi applied n times to the whole
    word b^(w_n); "raises" for an item whose chain leaves H."""
    b = mapdef.word("b")
    out = []
    for n, wn in enumerate(section_conjugators(n_max), start=1):
        g = b.conj(wn)
        try:
            for _ in range(n):
                g = psi.apply(g)
        except DomainError:
            out.append("raises")
        else:
            out.append(g == b)
    return out


@pytest.mark.parametrize(
    "corrupt, direct",
    [
        ({}, [True] * 10),
        # the corruption of test_recursions_catch_corruption: hat(w_n) is
        # never w_(n-1), so no item can take an earlier item's verdict
        ({"b": "a^-1 b^-1"}, [True, False, False] + ["raises"] * 7),
        # one step takes (b, w_2) to (b^-1, w_1): the conjugator
        # is item 1's, but the chain ahead is not
        ({"b": "b a^-1", "a^-1 b a": "b^-1"}, [False, True, False, False] + ["raises"] * 6),
        # the chain leaves H only at the eighth step
        ({"a^-1 b a": "b b"}, [False] * 7 + ["raises"] * 3),
    ],
    ids=["built-in", "corrupted-b", "same-conjugator-other-word", "leaves-H-late"],
)
def test_section_verdicts_match_the_direct_iteration(dendrite, corrupt, direct):
    images = dict(dendrite.schreier_images)
    images.update((dendrite.word(lhs), dendrite.word(rhs)) for lhs, rhs in corrupt.items())
    psi = VirtualEndo.from_images(dendrite.parity, images)
    assert direct_prop84(dendrite, psi, 10) == direct
    for n_max in range(1, 11):
        if "raises" in direct[:n_max]:
            with pytest.raises(DomainError):
                verify_section(dendrite, psi, n_max=n_max)
        else:
            assert [it.ok for it in verify_section(dendrite, psi, n_max=n_max).items[1:]] == direct[:n_max]


def test_section_takes_earlier_verdicts(dendrite, monkeypatch):
    # on the built-in map, one step takes (b, w_n) to (b, w_(n-1)), so
    # each item scans its conjugator once
    calls = []
    apply_conj = VirtualEndo.apply_conj

    def counted(psi, u, w):
        calls.append(len(w))
        return apply_conj(psi, u, w)

    monkeypatch.setattr(VirtualEndo, "apply_conj", counted)
    assert verify_section(dendrite, dendrite.endomorphism(), n_max=12).ok
    assert calls == [2 ** (n + 1) - 3 for n in range(1, 13)]


def test_length_decrease_suite(dendrite, dendrite_system):
    res = verify_length_decrease(dendrite, dendrite_system.psi)
    assert res.ok


def test_suite_map_mismatch(rabbit, dendrite):
    with pytest.raises(SuiteError, match="requires map dendrite"):
        run_suite("lemma83", rabbit)
    with pytest.raises(SuiteError, match="requires map rabbit"):
        run_suite("table7", dendrite)
    with pytest.raises(SuiteError, match="unknown suite"):
        run_suite("nosuch", rabbit)


def test_run_all(rabbit, dendrite):
    names = [r.suite for r in run_suite("all", rabbit)]
    assert names == ["table7", "recursions"]
    names = [r.suite for r in run_suite("all", dendrite, n_max=3)]
    assert names == ["recursions", "prop84", "lemma83"]


def test_sweep_facts_follow_the_map_name():
    # the every-map row comes first, then the rows listed under the map name
    def rows(*names):
        return [SWEEP_FACTS[name][1:] for name in ("resolved, no cycle of weight product >= 1", *names)]

    rabbit_facts = rows("the only cycle is the axis 3-cycle")
    dendrite_facts = rows("trivial within 4|w|+3 steps", "never enters a cycle")
    assert sweep_facts(builtin("rabbit")) == rabbit_facts
    assert sweep_facts(builtin("dendrite")) == dendrite_facts
    # the rule is the `map` name, as for the verify suites
    assert sweep_facts(parse_mapdef(BUILTIN_TEXTS["rabbit"])) == rabbit_facts
    bunny = parse_mapdef(BUILTIN_TEXTS["rabbit"].replace("map rabbit", "map bunny"))
    assert sweep_facts(bunny) == rows()


def test_sweep_facts_flag_what_the_paper_excludes(rabbit_system, dendrite_system):
    (resolved, _), (bound, _), (never_cycles, _) = sweep_facts(dendrite_system.mapdef)
    b = Curve(1, Word.identity())
    assert bound(dendrite_system, b, EventuallyTrivial(3)) is None
    assert bound(dendrite_system, b, EventuallyTrivial(4)) == "trivial after 4 steps, bound 3"
    assert never_cycles(dendrite_system, b, EventuallyTrivial(4)) is None
    loop = EntersCycle(0, (b,), (Fraction(1),))
    assert never_cycles(dendrite_system, b, loop) == "enters a cycle, expected trivial"

    # the every-map row: an unresolved orbit, or a cycle of weight product >= 1
    assert resolved(dendrite_system, b, Unresolved(4)) == "unresolved"
    assert resolved(dendrite_system, b, EventuallyTrivial(4)) is None
    assert resolved(dendrite_system, b, EntersCycle(0, (b,), (Fraction(1, 2),))) is None
    assert resolved(dendrite_system, b, loop) == "obstruction, cycle weight product 1 >= 1"
    heavy = EntersCycle(0, (b, b), (Fraction(3), Fraction(1, 2)))
    assert resolved(dendrite_system, b, heavy) == "obstruction, cycle weight product 3/2 >= 1"

    _, (axis_cycle, _) = sweep_facts(rabbit_system.mapdef)
    x, y, z = (Curve(i, Word.identity()) for i in range(3))
    half = Fraction(1, 2)
    assert axis_cycle(rabbit_system, x, EntersCycle(0, (y, z, x), (half, half, Fraction(1)))) is None
    assert axis_cycle(rabbit_system, x, EntersCycle(0, (x, y), (half, half))) == "unexpected cycle x -> y"


def test_verdict_checks_do_not_read_the_curve(rabbit_system, dendrite_system):
    # a sweep runs a check with no length test once per classification,
    # given None for the curve; only the 4|w|+3 bound has a length test
    tested = [name for name, (_, _, test) in SWEEP_FACTS.items() if test is not None]
    assert tested == ["trivial within 4|w|+3 steps"]
    x, y, z = (Curve(i, Word.identity()) for i in range(3))
    half = Fraction(1, 2)
    classes = [
        Unresolved(4),
        EventuallyTrivial(40),
        EntersCycle(0, (y, z, x), (half, half, Fraction(1))),
        EntersCycle(2, (x, y), (Fraction(2), Fraction(1))),
    ]
    far = Curve(2, Word((1, 2, -1, -2, 1), _reduced=True))
    for system in (rabbit_system, dendrite_system):
        for _, check, test in SWEEP_FACTS.values():
            if test is None:
                for cls in classes:
                    assert check(system, None, cls) == check(system, x, cls) == check(system, far, cls)


def test_trivial_bound_past_the_shortcut_uses_the_geodesic_length(dendrite, dendrite_system):
    # For these 3- and 4-letter conjugators the shortcut 4 ceil(|w|/2) + 3
    # admits 11 steps; past it, the geodesic length 3 gives the bound 15.
    # "b a a" has no c block, and "a^-1 b^-1 a^-1 b" spells a^-1 c b.
    _, bound, by_length = SWEEP_FACTS["trivial within 4|w|+3 steps"]
    for text in ("b a a", "a^-1 b^-1 a^-1 b"):
        curve = Curve(0, dendrite.word(text))
        for steps in (11, 12, 15):
            assert bound(dendrite_system, curve, EventuallyTrivial(steps)) is None
        assert bound(dendrite_system, curve, EventuallyTrivial(16)) == "trivial after 16 steps, bound 15"
        # a sweep runs the check only where the length test fails
        assert [by_length(len(curve.conjugator), EventuallyTrivial(steps)) for steps in (11, 12)] == [True, False]
        cycle = EntersCycle(40, (curve,), (Fraction(1, 2),))
        assert by_length(len(curve.conjugator), cycle)
        assert bound(dendrite_system, curve, cycle) is None
    # the length test passes only where the check passes
    for curve in dendrite_system.enumerate_curves(4):
        for steps in range(20):
            cls = EventuallyTrivial(steps)
            if by_length(len(curve.conjugator), cls):
                assert bound(dendrite_system, curve, cls) is None
