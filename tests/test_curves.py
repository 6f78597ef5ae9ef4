import collections
import random
from fractions import Fraction

import pytest

from curvepull.curves import (
    Curve,
    EntersCycle,
    EventuallyTrivial,
    OrbitResult,
    PullbackError,
    PullbackStep,
    PullbackSystem,
    Unresolved,
    _lex_key,
)
from curvepull.endo import section_conjugators
from curvepull.mapdef import builtin, parse_mapdef
from curvepull.words import Word, cyclic_reduce, primitive_root


# w_n, whose b-twist on the dendrite survives n pullbacks, at index n
SECTION_CONJUGATORS = [None, *section_conjugators(10)]


def random_word(rng, length):
    codes = []
    for _ in range(length):
        codes.append(rng.choice([c for c in (1, -1, 2, -2) if not codes or c != -codes[-1]]))
    return Word(codes)


def random_reduced(rng, max_len):
    return random_word(rng, rng.randint(0, max_len))


def test_canonicalize_strips_axis_powers(rabbit_system, rabbit):
    w = rabbit.word
    assert rabbit_system.canonicalize(0, w("x^3 y")) == Curve(0, w("y"))
    assert rabbit_system.canonicalize(2, w("1")) == Curve(2, Word.identity())
    assert rabbit_system.canonicalize(1, w("y^-1 x")) == Curve(1, w("x"))


def test_canonicalize_two_letter_axis_ties(rabbit_system, rabbit):
    # z * y^-1 reduces to x, so the conjugators y^-1 and x give the same
    # curve; the canonical pick is deterministic
    w = rabbit.word
    a = rabbit_system.canonicalize(2, w("y^-1"))
    b = rabbit_system.canonicalize(2, w("x"))
    assert a == b == Curve(2, w("x"))
    # and the two twists really are the same group element
    assert rabbit_system.twist_word(Curve(2, w("y^-1"))) == rabbit_system.twist_word(
        Curve(2, w("x"))
    )


def test_canonicalize_idempotent(rabbit_system):
    rng = random.Random(20)
    for _ in range(2_000):
        axis = rng.randrange(3)
        c = rabbit_system.canonicalize(axis, random_reduced(rng, 10))
        again = rabbit_system.canonicalize(c.axis, c.conjugator)
        assert again == c


def brute_canonical(system, axis, conjugator):
    """Reference canonical form: scan every axis power in a window wide
    enough to contain all minimal-length coset elements."""
    u = system.axis_words[axis]
    span = 2 * len(conjugator) // len(u) + 2
    candidates = [u ** k * conjugator for k in range(-span, span + 1)]
    return Curve(axis, min(candidates, key=lambda w: _lex_key(w.codes)))


def reduced_words(max_length):
    """All freely reduced words of length <= max_length, shortest first."""
    yield Word.identity()
    layer = [()]
    for _ in range(max_length):
        layer = [w + (c,) for w in layer for c in (1, -1, 2, -2) if not w or w[-1] != -c]
        yield from (Word(w) for w in layer)


def reference_enumeration(system, max_length):
    """Canonicalize every (axis, reduced word) pair, drop repeats, sort."""
    curves = {system.canonicalize(axis, w) for axis in range(3) for w in reduced_words(max_length)}
    return sorted(curves, key=lambda c: (c.axis, _lex_key(c.conjugator.codes)))


@pytest.fixture(scope="module")
def axis_shape_systems(rabbit_system, dendrite_system, fixed_map_text):
    """The built-in maps plus two with other third-axis shapes: x y x has
    odd length, so canonical forms have no ties, and x y x y is a proper
    power, which the loader rejects, so it is built from the parsed map."""
    systems = {"rabbit": rabbit_system, "dendrite": dendrite_system}
    text = fixed_map_text.replace("axis z = y^-1 x^-1", "axis z = x y x")
    assert text != fixed_map_text
    systems["x y x"] = PullbackSystem(parse_mapdef(text))
    power = parse_mapdef(fixed_map_text)._replace(third_axis=Word((1, 2, 1, 2)))
    systems["x y x y"] = PullbackSystem(power)
    return systems


def test_canonicalize_matches_brute_force(axis_shape_systems):
    rng = random.Random(23)
    for system in axis_shape_systems.values():
        for conj in reduced_words(6):
            for axis in range(3):
                assert system.canonicalize(axis, conj) == brute_canonical(system, axis, conj)
        for _ in range(3_000):
            axis = rng.randrange(3)
            conj = random_reduced(rng, 12)
            if rng.random() < 0.3:  # near an axis power, where agreements run long
                conj = system.axis_words[axis] ** rng.randint(-3, 3) * random_reduced(rng, 3) * conj
            assert system.canonicalize(axis, conj) == brute_canonical(system, axis, conj)


@pytest.mark.parametrize("name", ["rabbit", "dendrite", "x y x", "x y x y"])
def test_enumerate_matches_reference(name, axis_shape_systems):
    system = axis_shape_systems[name]
    for max_length in range(7):
        assert system.enumerate_curves(max_length) == reference_enumeration(system, max_length)


def test_canonicalize_preserves_twist(rabbit_system):
    rng = random.Random(21)
    for _ in range(2_000):
        axis = rng.randrange(3)
        conj = random_reduced(rng, 10)
        c = rabbit_system.canonicalize(axis, conj)
        assert rabbit_system.twist_word(c) == rabbit_system.twist_word(Curve(axis, conj))


def test_twist_word(rabbit_system, rabbit, dendrite_system, dendrite):
    w = rabbit.word
    assert rabbit_system.twist_word(Curve(0, w("y")), 1) == w("y^-1 x y")
    assert rabbit_system.twist_word(Curve(2, Word.identity()), 2) == w("y^-1 x^-1 y^-1 x^-1")
    with pytest.raises(ValueError):
        rabbit_system.twist_word(Curve(0, Word.identity()), 0)
    w2 = SECTION_CONJUGATORS[2]
    b_curve = Curve(1, w2)
    assert dendrite_system.twist_word(b_curve, 1) == ~w2 * dendrite.word("b") * w2


def test_act_examples(rabbit_system, rabbit):
    w = rabbit.word
    x_curve = Curve(0, Word.identity())
    assert rabbit_system.act(w("y"), x_curve) == Curve(0, w("y"))
    assert rabbit_system.act(w("x"), x_curve) == x_curve


def test_pullback_rabbit_axes(rabbit_system):
    steps = [rabbit_system.pullback(Curve(i, Word.identity())) for i in range(3)]
    assert [s.target.axis for s in steps] == [1, 2, 0]
    assert all(s.target.conjugator.is_identity() for s in steps)
    assert [(s.s, s.t) for s in steps] == [(1, 1), (2, 1), (2, 1)]
    assert [s.weight for s in steps] == [Fraction(1), Fraction(1, 2), Fraction(1, 2)]


def test_pullback_dendrite_axes(dendrite_system):
    a_step = dendrite_system.pullback(Curve(0, Word.identity()))
    assert a_step.target is None and a_step.weight == 0 and a_step.t == 0
    b_step = dendrite_system.pullback(Curve(1, Word.identity()))
    assert b_step.target == Curve(2, Word.identity()) and b_step.weight == 1
    c_step = dendrite_system.pullback(Curve(2, Word.identity()))
    assert c_step.target.axis == 0 and c_step.weight == Fraction(1, 2)


def scan_pullback(system, curve):
    """Reference pullback step: apply psi to the whole twist word, then
    match the primitive root of the image's cyclic core to a rotation of
    an axis word or its inverse."""
    s = 1 + system.psi.parity.theta(system.axis_words[curve.axis])
    h = system.psi.apply(system.twist_word(curve, s))
    if h.is_identity():
        return PullbackStep(None, s, 0, Fraction(0))
    core, v = cyclic_reduce(h)
    root, t = primitive_root(core)
    rotations = {}
    for i, aw in enumerate(system.axis_words):
        for u in (aw, ~aw):
            for j in range(len(u)):
                rotations.setdefault(u.codes[j:] + u.codes[:j], (i, Word(u.codes[:j])))
    if root.codes not in rotations:
        raise PullbackError(f"twist image {h.codes!r} is not conjugate into an axis")
    axis, prefix = rotations[root.codes]
    return PullbackStep(system.canonicalize(axis, prefix * v), s, t, Fraction(t, s))


def pullback_outcome(pull, system, curve):
    try:
        return pull(system, curve)
    except PullbackError:
        return PullbackError


@pytest.fixture(scope="module")
def pullback_systems(axis_shape_systems, fixed_map_text):
    """The axis shapes plus the fixed map itself, and the fixed map with
    its third axis spelled x^-1 y^-1: from the odd coset state its twist
    image has a core that is a proper rotation of that axis."""
    rotated = fixed_map_text.replace("axis z = y^-1 x^-1", "axis z = x^-1 y^-1")
    return {
        **axis_shape_systems,
        "fixed": PullbackSystem(parse_mapdef(fixed_map_text)),
        "x^-1 y^-1": PullbackSystem(parse_mapdef(rotated)),
    }


@pytest.mark.parametrize("name", ["rabbit", "dendrite", "fixed", "x y x", "x y x y", "x^-1 y^-1"])
def test_pullback_matches_scan_reference(name, pullback_systems):
    system = pullback_systems[name]
    rng = random.Random(24)
    curves = system.enumerate_curves(6)
    # non-canonical spellings: an axis power times the conjugator
    curves += [
        Curve(c.axis, system.axis_words[c.axis] ** rng.choice((-2, -1, 1, 2)) * c.conjugator)
        for c in rng.sample(curves, 30)
    ]
    long_words = [random_word(rng, 2_000) for _ in range(3)]
    long_words += [SECTION_CONJUGATORS[n] for n in (8, 9, 10)]
    curves += [Curve(axis, w) for w in long_words for axis in range(3)]
    for curve in curves:
        want = pullback_outcome(scan_pullback, system, curve)
        assert pullback_outcome(PullbackSystem.pullback, system, curve) == want, curve


def test_pullback_weight_positive_on_enumeration(rabbit_system, dendrite_system):
    for system in (rabbit_system, dendrite_system):
        for curve in system.enumerate_curves(3):
            step = system.pullback(curve)
            if step.target is not None:
                assert step.t >= 1


def test_pullback_twist_linearity(rabbit_system, dendrite_system):
    # psi(twist^(s*k)) equals the target twist to the power t*k
    for system in (rabbit_system, dendrite_system):
        for curve in system.enumerate_curves(4):
            step = system.pullback(curve)
            if step.target is None:
                continue
            for k in (1, 2, 3):
                image = system.psi.apply(system.twist_word(curve, step.s * k))
                assert image == system.twist_word(step.target, step.t * k)


def test_pullback_trivial_powers(rabbit_system, dendrite_system):
    # trivial images stay trivial with the exponent scaled
    for system, axis in ((rabbit_system, 0), (dendrite_system, 0)):
        for curve in system.enumerate_curves(3):
            step = system.pullback(curve)
            if step.target is None:
                image = system.psi.apply(system.twist_word(curve, 2 * step.s))
                assert image.is_identity()


def test_equivariance(rabbit_system, dendrite_system):
    rng = random.Random(22)
    for system in (rabbit_system, dendrite_system):
        psi = system.psi
        checked = 0
        while checked < 500:
            g = random_reduced(rng, 12)
            if not psi.in_domain(g):
                continue
            checked += 1
            curve = system.canonicalize(rng.randrange(3), random_reduced(rng, 6))
            left = system.pullback(system.act(g, curve))
            right = system.pullback(curve)
            assert left.weight == right.weight and left.s == right.s
            if right.target is None:
                assert left.target is None
            else:
                assert left.target == system.act(psi.apply(g), right.target)


def test_orbit_rabbit_three_cycle(rabbit_system):
    result = rabbit_system.orbit(Curve(0, Word.identity()), 100)
    cls = result.classification
    assert isinstance(cls, EntersCycle)
    assert cls.preperiod == 0
    assert [c.axis for c in cls.cycle] == [0, 1, 2]
    assert cls.cycle_weights == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert cls.weight_product == Fraction(1, 4)


def test_orbit_dendrite_chain(dendrite_system):
    result = dendrite_system.orbit(Curve(1, Word.identity()), 100)
    assert isinstance(result.classification, EventuallyTrivial)
    assert result.classification.steps == 3
    axes = [s.target.axis for s in result.steps[:-1]]
    assert axes == [2, 0]


def test_orbit_of_section_conjugates(dendrite_system):
    for n in (1, 2, 5):
        start = Curve(1, SECTION_CONJUGATORS[n])
        result = dendrite_system.orbit(start, 100)
        assert isinstance(result.classification, EventuallyTrivial)
        head = result.steps[:n]
        assert all(s.weight == 1 and s.target.axis == 1 for s in head)
        assert head[-1].target == Curve(1, Word.identity())
        assert result.classification.steps == n + 3


def test_orbit_unresolved(rabbit_system):
    result = rabbit_system.orbit(Curve(0, Word.identity()), 1)
    # one step cannot see the cycle close
    assert isinstance(result.classification, Unresolved)
    with pytest.raises(ValueError):
        rabbit_system.orbit(Curve(0, Word.identity()), 0)


def reference_orbit(system, curve, max_steps):
    """Reference orbit: pull one curve back step by step, with no memo,
    until the trivial curve, a repeat, or max_steps pullbacks."""
    start = system.canonicalize(curve.axis, curve.conjugator)
    visited = {start: 0}
    trail = [start]
    steps = []
    for _ in range(max_steps):
        step = system.pullback(trail[-1])
        steps.append(step)
        if step.target is None:
            return OrbitResult(start, tuple(steps), EventuallyTrivial(len(steps)))
        if step.target in visited:
            j = visited[step.target]
            cls = EntersCycle(
                preperiod=j,
                cycle=tuple(trail[j:]),
                cycle_weights=tuple(st.weight for st in steps[j:]),
            )
            return OrbitResult(start, tuple(steps), cls)
        visited[step.target] = len(trail)
        trail.append(step.target)
    return OrbitResult(start, tuple(steps), Unresolved(max_steps))


@pytest.mark.parametrize("map_name", ["rabbit", "dendrite", "fixed"])
def test_classify_matches_orbit(map_name, fixed_map_text, monkeypatch):
    mapdef = parse_mapdef(fixed_map_text) if map_name == "fixed" else builtin(map_name)
    system = PullbackSystem(mapdef)
    canonical = system.enumerate_curves(4)
    # non-canonical spellings, which only orbit accepts
    spellings = [Curve(c.axis, system.axis_words[c.axis] * c.conjugator) for c in canonical[:30]]
    sections = [Curve(axis, SECTION_CONJUGATORS[n]) for n in (5, 6, 7, 8) for axis in range(3)]
    canonical += [system.canonicalize(c.axis, c.conjugator) for c in sections]
    pulled = []
    pullback = PullbackSystem.pullback

    def counted(self, curve):
        pulled.append(curve)
        return pullback(self, curve)

    monkeypatch.setattr(PullbackSystem, "pullback", counted)
    for max_steps in (1, 2, 3, 5, 1000):
        want = {c: reference_orbit(system, c, max_steps) for c in canonical + spellings + sections}
        for c, reference in want.items():
            assert system.orbit(c, max_steps) == reference, c
        pulled.clear()
        assert system.classify(canonical, max_steps) == [want[c].classification for c in canonical]
        assert len(pulled) == len(set(pulled))
    with pytest.raises(ValueError):
        system.classify(canonical, 0)


@pytest.mark.parametrize("map_name", ["rabbit", "dendrite", "fixed"])
def test_classify_pulls_each_curve_back_once(map_name, fixed_map_text, monkeypatch):
    mapdef = parse_mapdef(fixed_map_text) if map_name == "fixed" else builtin(map_name)
    system = PullbackSystem(mapdef)
    curves = system.enumerate_curves(6)
    want = [reference_orbit(system, c, 1000).classification for c in curves]
    pulled = []
    pullback = PullbackSystem.pullback

    def counted(self, curve):
        pulled.append(curve)
        return pullback(self, curve)

    monkeypatch.setattr(PullbackSystem, "pullback", counted)
    assert system.classify(curves) == want
    assert len(pulled) == len(set(pulled))
    assert set(curves) <= set(pulled)


def test_enumerate_axis_count(rabbit_system):
    assert len(rabbit_system.enumerate_curves(0)) == 3


def coset_equal(system, c1, c2):
    """Independent curve-equality oracle: conjugators lie in the same
    <axis> coset iff their quotient is a literal axis power."""
    if c1.axis != c2.axis:
        return False
    u = system.axis_words[c1.axis]
    q = c1.conjugator * ~c2.conjugator
    k = 0
    while len(u ** k) <= len(q) + len(u):
        if q == u ** k or q == u ** (-k):
            return True
        k += 1
    return False


def test_enumerate_matches_brute_force(rabbit_system):
    words = list(reduced_words(2))
    raw = [Curve(axis, w) for axis in range(3) for w in words]
    classes = []
    for c in raw:
        for cls in classes:
            if coset_equal(rabbit_system, cls[0], c):
                cls.append(c)
                break
        else:
            classes.append([c])
    enumerated = rabbit_system.enumerate_curves(2)
    assert len(enumerated) == len(classes)
    # every enumerated curve is canonical and all classes are hit
    for c in enumerated:
        assert rabbit_system.canonicalize(c.axis, c.conjugator) == c
    for cls in classes:
        assert rabbit_system.canonicalize(cls[0].axis, cls[0].conjugator) in enumerated


def test_enumerate_l1_count(rabbit_system):
    # 15 raw pairs collapse to 10 canonical curves
    assert len(rabbit_system.enumerate_curves(1)) == 10


@pytest.mark.parametrize("name", ["rabbit", "dendrite", "x y x", "fixed", "twisted"])
def test_prefix_states_hold_each_curve_once_with_its_target(name, axis_shape_systems, fixed_map_text, twisted_map_text):
    # fixed: no (axis, parity) slot has a trivial image; twisted: x at s = 1
    # is trivial, as on the rabbit, and both z slots put x^-1 before the scan
    if name in ("fixed", "twisted"):
        system = PullbackSystem(parse_mapdef(fixed_map_text if name == "fixed" else twisted_map_text))
    else:
        system = axis_shape_systems[name]
    for max_length in range(7):
        want = collections.Counter(
            (len(c.conjugator), system.pullback(c).target) for c in system.enumerate_curves(max_length)
        )
        got = collections.Counter()
        for length, target, count in system.prefix_states(max_length):
            assert count > 0
            got[length, target] += count
        assert got == want
    for bad in (lambda: system.prefix_states(-1), lambda: system.sweep(-1), lambda: system.sweep(2, 0)):
        with pytest.raises(ValueError):
            bad()


def test_prefix_states_raise_on_a_faulty_twist_entry(axis_shape_systems):
    # the proper power x y x y is no axis word, so the z entries hold faults
    for walk in (axis_shape_systems["x y x y"].prefix_states, axis_shape_systems["x y x y"].sweep):
        with pytest.raises(PullbackError, match="primitive root x y is not conjugate to an axis"):
            walk(0)


@pytest.mark.parametrize("name, max_length, states", [
    ("rabbit", 8, 4707), ("rabbit", 10, 21891), ("dendrite", 8, 2230), ("dendrite", 10, 8950),
])
def test_prefix_states_merge_the_curves(name, max_length, states, axis_shape_systems):
    # 21,870 curves at length 8 and 196,830 at length 10 on both maps
    assert len(axis_shape_systems[name].prefix_states(max_length)) == states


def test_non_twist_image_raises():
    # a malformed user map whose b-image is not conjugate into any axis
    text = """\
map broken
gen a parity 1
gen b parity 0
axis c = b^-1 a^-1
schreier a a -> 1
schreier b -> a a b
schreier a^-1 b a -> b
"""
    # the fault is in the map, but only a pullback that needs it raises
    system = PullbackSystem(parse_mapdef(text))
    a = system.mapdef.word("a")
    assert system.pullback(Curve(1, a)) == scan_pullback(system, Curve(1, a))
    with pytest.raises(PullbackError, match="not conjugate") as err:
        system.pullback(Curve(1, Word.identity()))
    message = str(err.value)
    assert message.startswith("pullback of b:")
    assert "axis b and a conjugator of parity 0" in message
    assert "conjugate to a a b" in message


def test_parse_and_format_curve(rabbit_system):
    c = rabbit_system.parse_curve("z^(x y^-1)")
    assert c.axis == 2
    assert rabbit_system.parse_curve(rabbit_system.format_curve(c)) == c
    assert rabbit_system.format_curve(Curve(0, Word.identity())) == "x"
    assert rabbit_system.parse_curve("  y ^ ( x )  ") == Curve(1, rabbit_system.mapdef.word("x"))
    assert rabbit_system.parse_curve("\ty\t^\t(\tx\ty^-1\t)\t") == rabbit_system.parse_curve("y^(x y^-1)")
    for text in ("x ^ ( )", "x^()", "x\t^(\t)"):
        assert rabbit_system.parse_curve(text) == Curve(0, Word.identity())
    with pytest.raises(ValueError, match="unknown axis"):
        rabbit_system.parse_curve("q")
    for text in ("z^(x", "x^(y)^(x)", "x^(y))", "x^((y))", "x^(y)(x)"):
        with pytest.raises(ValueError, match="bad curve expression"):
            rabbit_system.parse_curve(text)


def test_curve_grammar_spec_example(dendrite_system):
    c = dendrite_system.parse_curve("b^(a b^-1 a^-1 b^-1 a)")
    assert c == dendrite_system.canonicalize(1, SECTION_CONJUGATORS[2])
