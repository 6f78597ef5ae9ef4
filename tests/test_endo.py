import random
from dataclasses import dataclass

import pytest

from curvepull.endo import (
    DomainError,
    ParityHom,
    VirtualEndo,
    pair_table,
    schreier_basis,
    schreier_factor,
    section,
    section_conjugators,
)
from curvepull.words import Word, cyclic_reduce, primitive_root


@dataclass(frozen=True)
class HatOrbit:
    words: tuple[Word, ...]
    reason: str  # "absorbed", "repeated", or "max_steps"

    @property
    def final(self) -> Word:
        return self.words[-1]


def hat_orbit(psi, w, max_steps, nucleus=None):
    """Iterate the extension map, recording the trajectory.

    Stops when the value lands in the nucleus (checked from the second
    iterate on, mirroring the two-step absorption that the nucleus is
    closed under), when a value repeats, or after max_steps.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    traj = [w]
    seen = {w}
    for step in range(1, max_steps + 1):
        v = psi.apply_hat(traj[-1])
        traj.append(v)
        if nucleus is not None and step >= 2 and v in nucleus:
            return HatOrbit(tuple(traj), "absorbed")
        if v in seen:
            return HatOrbit(tuple(traj), "repeated")
        seen.add(v)
    return HatOrbit(tuple(traj), "max_steps")


def verify_contraction_closure(psi, nucleus):
    """True iff the second iterate maps every pairwise product back into
    the nucleus; this is the machine-checked core of contraction."""
    elems = tuple(nucleus)
    nuc = frozenset(elems)
    return all(v in nuc for v in pair_table(psi, elems).values())


def random_reduced(rng, max_len):
    codes = []
    for _ in range(rng.randint(0, max_len)):
        codes.append(rng.choice([c for c in (1, -1, 2, -2) if not codes or c != -codes[-1]]))
    return Word(codes)


def random_in_domain(rng, basis, max_factors=12):
    """Random element of H as a product of Schreier generators."""
    out = Word.identity()
    for _ in range(rng.randint(0, max_factors)):
        b = rng.choice(basis)
        out = out * (b if rng.random() < 0.5 else ~b)
    return out


def test_parity_validation():
    with pytest.raises(ValueError, match="surjective"):
        ParityHom((0, 0))
    with pytest.raises(ValueError):
        ParityHom((0, 2))
    assert ParityHom((0, 1)).transversal_gen == 1
    assert ParityHom((1, 1)).transversal_gen == 0


def test_theta_matches_letter_xor():
    rng = random.Random(3)
    words = [random_reduced(rng, 64) for _ in range(300)] + reduced_words_up_to(8)
    for bits in ((0, 1), (1, 0), (1, 1)):
        parity = ParityHom(bits)
        for w in words:
            want = 0
            for c in w.codes:
                want ^= bits[abs(c) - 1]
            assert parity.theta(w) == want


def test_in_domain_examples(rabbit):
    psi = rabbit.endomorphism()
    assert psi.in_domain(rabbit.word("x"))
    assert not psi.in_domain(rabbit.word("y"))
    assert not psi.in_domain(rabbit.word("y^-1 x^-1"))  # theta(z) = 1


def test_schreier_basis_rabbit(rabbit):
    basis = schreier_basis(rabbit.parity)
    assert set(basis) == {rabbit.word("x"), rabbit.word("y y"), rabbit.word("y^-1 x y")}


def test_schreier_basis_dendrite(dendrite):
    basis = schreier_basis(dendrite.parity)
    assert set(basis) == {
        dendrite.word("a a"),
        dendrite.word("b"),
        dendrite.word("a^-1 b a"),
    }


def test_schreier_factors_telescope(rabbit):
    # the factor decomposition of a domain word multiplies back to it
    parity = rabbit.parity
    rng = random.Random(0)
    basis = schreier_basis(parity)
    for _ in range(200):
        w = random_in_domain(rng, basis)
        state = 0
        product = Word.identity()
        for c in w.codes:
            product = product * schreier_factor(parity, c, state)
            state ^= parity.bits[abs(c) - 1]
        assert state == 0
        assert product == w


def schreier_product(parity, images, w, state):
    """Reference for the transducer: the reduced product of the declared
    images of the Schreier factors of w's letters, read from ``state``."""
    codes = []
    for c in w.codes:
        f = schreier_factor(parity, c, state)
        if not f.is_identity():
            codes += (images[f] if f in images else ~images[~f]).codes
        state ^= parity.bits[abs(c) - 1]
    return Word(codes)


def test_scan_matches_schreier_factor_product(rabbit, dendrite):
    x, y = Word((1,)), Word((2,))
    both_odd = ParityHom((1, 1))  # basis x x, y x, x^-1 y
    maps = [
        (mapdef.parity, dict(mapdef.schreier_images)) for mapdef in (rabbit, dendrite)
    ] + [(both_odd, {x * x: y, y * x: ~x * y * y, ~x * y: Word.identity()})]
    rng = random.Random(5)
    words = [random_reduced(rng, 64) for _ in range(300)]
    words += [Word(()), x, ~y] + list(section_conjugators(12))
    for parity, images in maps:
        psi = VirtualEndo.from_images(parity, images)
        for w in words:
            want = [schreier_product(parity, images, w, state) for state in (0, 1)]
            assert [psi._scan(w, state) for state in (0, 1)] == want
            theta = parity.theta(w)
            assert psi.apply_hat(w) == want[theta]
            if theta:
                with pytest.raises(DomainError):
                    psi.apply(w)
            else:
                assert psi.apply(w) == want[0]


def scan_letter_by_letter(steps, w, state):
    """Reference for the block kernel: push each letter's output onto a
    reducing stack one letter at a time."""
    stack = []
    for c in w.codes:
        out, state = steps[state][c]
        for o in out:
            if stack and stack[-1] == -o:
                stack.pop()
            else:
                stack.append(o)
    return Word(stack)


def reduced_words_up_to(max_len):
    words, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (c,) for w in frontier for c in (1, -1, 2, -2) if not w or c != -w[-1]]
        words += frontier
    return [Word(w, _reduced=True) for w in words]


def reduced_of_length(rng, n):
    codes = []
    while len(codes) < n:
        codes.append(rng.choice([c for c in (1, -1, 2, -2) if not codes or c != -codes[-1]]))
    return Word(codes, _reduced=True)


def test_block_scan_matches_letter_by_letter_scan(rabbit, dendrite):
    rng = random.Random(21)
    words = reduced_words_up_to(8)  # every word the one-lookup path reads, and then some
    words += [reduced_of_length(rng, n) for n in range(201)]  # every length mod 4
    words += list(section_conjugators(12))
    assert len(words) == 13121 + 201 + 12
    for mapdef in (rabbit, dendrite):
        psi = mapdef.endomorphism()
        for w in words:
            for state in (0, 1):
                assert psi._scan(w, state) == scan_letter_by_letter(psi.steps, w, state)


def test_block_outputs_cancel_across_many_blocks(rabbit, dendrite):
    # u m u^-1, with m read to the empty word from state 0 and u ending
    # there: the scan of u^-1 emits the inverse of the scan of u, so the
    # later blocks' outputs cancel all of the earlier ones.
    rng = random.Random(22)
    for mapdef, middle in ((rabbit, "y^-1 x y"), (dendrite, "a a")):
        psi = mapdef.endomorphism()
        m = mapdef.word(middle)
        assert psi._scan(m, 0).is_identity()
        tried = 0
        for _ in range(200):
            u = reduced_of_length(rng, 160 + tried % 4)
            w = u * m * ~u
            if psi.parity.theta(u) or len(w) != 2 * len(u) + len(m) or len(psi._scan(u, 0)) < 12:
                continue
            tried += 1
            assert psi._scan(w, 0) == scan_letter_by_letter(psi.steps, w, 0) == Word.identity()
        assert tried >= 20


def test_equal_steps_compare_equal_whatever_the_tables_hold(rabbit):
    images = dict(rabbit.schreier_images)
    filled = VirtualEndo.from_images(rabbit.parity, images)
    fresh = VirtualEndo.from_images(rabbit.parity, images)
    filled._scan(Word((1, 2, 1, -2, 1)), 0)
    assert filled.blocks != fresh.blocks
    assert filled == fresh
    assert repr(filled) == repr(fresh)
    assert "blocks" not in repr(filled)


def test_generator_images_rabbit(rabbit):
    psi = rabbit.endomorphism()
    w = rabbit.word
    assert psi.apply(w("x")) == w("y")
    assert psi.apply(w("y y")) == w("y^-1 x^-1")
    assert psi.apply(w("y^-1 x y")) == Word.identity()


def test_generator_images_dendrite(dendrite):
    psi = dendrite.endomorphism()
    w = dendrite.word
    assert psi.apply(w("a a")) == Word.identity()
    assert psi.apply(w("b")) == w("b^-1 a^-1")
    assert psi.apply(w("a^-1 b a")) == w("b")


def test_apply_power_chain(rabbit):
    # x^4 -> y^4 -> z^2 -> x under successive application
    psi = rabbit.endomorphism()
    w = rabbit.word
    assert psi.apply(w("x^4")) == w("y^4")
    assert psi.apply(w("y^4")) == w("z z")
    assert psi.apply(w("z z")) == w("x")


def test_apply_outside_domain_raises(rabbit):
    psi = rabbit.endomorphism()
    with pytest.raises(DomainError):
        psi.apply(rabbit.word("y"))


def test_apply_is_homomorphism_on_domain(rabbit, dendrite):
    for mapdef in (rabbit, dendrite):
        psi = mapdef.endomorphism()
        basis = schreier_basis(mapdef.parity)
        rng = random.Random(1)
        for _ in range(2_000):
            u = random_in_domain(rng, basis)
            v = random_in_domain(rng, basis)
            assert psi.apply(u * v) == psi.apply(u) * psi.apply(v)


def test_apply_independent_of_spelling(rabbit):
    # inserting cancelling garbage into a domain word changes nothing
    psi = rabbit.endomorphism()
    rng = random.Random(2)
    basis = schreier_basis(rabbit.parity)
    for _ in range(500):
        w = random_in_domain(rng, basis)
        g = random_reduced(rng, 8)
        respelled = Word(w.codes[: len(w) // 2] + g.codes + (~g).codes + w.codes[len(w) // 2 :])
        assert respelled == w
        assert psi.apply(respelled) == psi.apply(w)


def test_apply_hat_examples(rabbit, dendrite):
    psi = rabbit.endomorphism()
    assert psi.apply_hat(rabbit.word("z")) == rabbit.word("x")
    assert psi.apply_hat(rabbit.word("x x")) == rabbit.word("y y")
    # off H it evaluates psi at t^-1 * w
    rng = random.Random(3)
    for mapdef in (rabbit, dendrite):
        psi = mapdef.endomorphism()
        t = Word((mapdef.parity.transversal_gen + 1,))
        for _ in range(500):
            w = random_reduced(rng, 20)
            if psi.in_domain(w):
                assert psi.apply_hat(w) == psi.apply(w)
            else:
                assert psi.apply_hat(w) == psi.apply(~t * w)


def test_apply_conj_matches_apply_on_the_conjugate(rabbit, dendrite):
    # c.conj(X) is psi(u^w) when u is in H, for w of either parity, and
    # u off H raises as apply(u^w) does
    rng = random.Random(9)
    for mapdef in (rabbit, dendrite):
        psi = mapdef.endomorphism()
        theta = psi.parity.theta
        seen = set()
        for _ in range(1_000):
            u, w = random_reduced(rng, 16), random_reduced(rng, 16)
            seen.add((theta(u), theta(w)))
            if theta(u):
                with pytest.raises(DomainError):
                    psi.apply_conj(u, w)
                with pytest.raises(DomainError):
                    psi.apply(u.conj(w))
            else:
                c, x = psi.apply_conj(u, w)
                assert x == psi.apply_hat(w)
                assert c.conj(x) == psi.apply(u.conj(w))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_apply_hat_dendrite_prefix_insensitive(dendrite):
    # prefixing by the coset-flipping generator leaves the value alone
    psi = dendrite.endomorphism()
    a = dendrite.word("a")
    rng = random.Random(4)
    for _ in range(500):
        w = random_reduced(rng, 20)
        assert psi.apply_hat(a * w) == psi.apply_hat(w)


def test_hat_orbit_examples(rabbit):
    psi = rabbit.endomorphism()
    nucleus = rabbit.axis_ball()
    orb = hat_orbit(psi, rabbit.word("x x"), 100, nucleus=nucleus)
    assert orb.final == rabbit.word("z")
    assert len(orb.words) - 1 <= 2
    assert orb.reason == "absorbed"

    orb = hat_orbit(psi, rabbit.word("y z"), 100, nucleus=nucleus)
    assert orb.final == rabbit.word("z^-1")

    orb = hat_orbit(psi, Word.identity(), 100, nucleus=nucleus)
    assert set(orb.words) == {Word.identity()}
    assert orb.reason == "repeated"


def test_hat_orbit_without_nucleus_stops_on_repeat(dendrite):
    psi = dendrite.endomorphism()
    orb = hat_orbit(psi, dendrite.word("b"), 100)
    assert orb.reason == "repeated"
    assert orb.final in set(orb.words[:-1])


def test_hat_orbit_max_steps(rabbit):
    psi = rabbit.endomorphism()
    with pytest.raises(ValueError):
        hat_orbit(psi, rabbit.word("x"), 0)
    # hitting the cap is reported in the result, not raised
    orb = hat_orbit(psi, rabbit.word("x x"), 1, nucleus=rabbit.axis_ball())
    assert orb.reason == "max_steps"
    assert len(orb.words) == 2


def test_nucleus_absorbs_everything_short(rabbit):
    # every word of length <= 7 is absorbed; this is the contraction
    # claim at desk scale
    psi = rabbit.endomorphism()
    nucleus = rabbit.axis_ball()
    stack = [()]
    for _ in range(7):
        stack = [c + (d,) for c in stack for d in (1, -1, 2, -2) if not c or c[-1] != -d]
    rng = random.Random(5)
    for codes in rng.sample(stack, 800):
        orb = hat_orbit(psi, Word(codes), 100, nucleus=nucleus)
        assert orb.reason in ("absorbed", "repeated")
        assert orb.final in nucleus


def test_triple_image_is_pure_axis_power(rabbit):
    # (u^t)^v in dom(psi^3) with v in the nucleus implies the third image
    # is literally a power of one axis
    psi = rabbit.endomorphism()
    axes = rabbit.axis_words
    checked = 0
    for u in axes:
        for v in sorted(rabbit.axis_ball(), key=lambda w: (len(w), w.codes)):
            for t in (-4, -3, -2, -1, 1, 2, 3, 4):
                h = (u ** t).conj(v)
                ok = True
                for _ in range(3):
                    if not psi.in_domain(h):
                        ok = False
                        break
                    h = psi.apply(h)
                if not ok:
                    continue
                checked += 1
                if h.is_identity():
                    continue
                core, conjugator = cyclic_reduce(h)
                root, _ = primitive_root(core)
                assert conjugator.is_identity()
                assert any(root == a or root == ~a for a in axes)
    assert checked >= 50


def test_from_images_validates_basis(rabbit):
    images = {rabbit.word("x"): rabbit.word("y")}
    with pytest.raises(ValueError, match="Schreier basis"):
        VirtualEndo.from_images(rabbit.parity, images)


def test_contraction_closure(rabbit):
    psi = rabbit.endomorphism()
    nucleus = rabbit.axis_ball()
    assert verify_contraction_closure(psi, nucleus)


def test_contraction_closure_catches_corruption(rabbit):
    # corrupt one generator image: x now maps to y^2
    images = dict(rabbit.schreier_images)
    images[rabbit.word("x")] = rabbit.word("y y")
    bad_psi = VirtualEndo.from_images(rabbit.parity, images)
    assert not verify_contraction_closure(bad_psi, rabbit.axis_ball())


def test_contraction_closure_catches_missing_element(rabbit):
    psi = rabbit.endomorphism()
    smaller = rabbit.axis_ball() - {rabbit.word("x y")}
    assert not verify_contraction_closure(psi, smaller)


def test_pair_table_size(rabbit):
    psi = rabbit.endomorphism()
    elems = tuple(rabbit.axis_ball())
    assert len(pair_table(psi, elems)) == 49


def test_section_values(dendrite):
    w = dendrite.word
    assert section(w("a")) == w("b^-1 a^-1 b^-1 a")
    assert section(w("b")) == w("a^-1 b a")


def test_section_matches_substitute_then_reduce(dendrite):
    images = {1: dendrite.word("b^-1 a^-1 b^-1 a"), 2: dendrite.word("a^-1 b a")}
    rng = random.Random(23)
    words = [reduced_of_length(rng, n) for n in range(201)] + list(section_conjugators(10))
    for w in words:
        codes = []
        for c in w.codes:
            codes += images[c].codes if c > 0 else (~images[-c]).codes
        assert section(w) == Word(codes)


def test_section_is_right_inverse(dendrite):
    psi = dendrite.endomorphism()
    rng = random.Random(6)
    assert psi.apply(section(dendrite.word("a"))) == dendrite.word("a")
    for _ in range(1_000):
        w = random_reduced(rng, 24)
        assert psi.apply(section(w)) == w


def test_section_conjugator(dendrite):
    w = dendrite.word
    assert list(section_conjugators(0)) == []
    # w_n = a * section(a) * ... * section^(n-1)(a), each term from scratch
    one_pass = list(section_conjugators(12))
    assert len(one_pass) == 12
    for n, wn in enumerate(one_pass, start=1):
        want = Word.identity()
        for k in range(n):
            term = w("a")
            for _ in range(k):
                term = section(term)
            want = want * term
        assert wn == want
        assert len(wn) == 2 ** (n + 1) - 3


def test_twisted_b_survives_n_pullbacks(dendrite):
    psi = dendrite.endomorphism()
    b = dendrite.word("b")
    for n, wn in enumerate(section_conjugators(6), start=1):
        g = b.conj(wn)
        for _ in range(n):
            g = psi.apply(g)
        assert g == b
