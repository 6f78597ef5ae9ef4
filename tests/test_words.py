import random
import re
import time

import pytest

from curvepull.words import (
    CyclicWord,
    Word,
    WordSyntaxError,
    _reduce_codes,
    cyclic_reduce,
    format_word,
    geodesic_length,
    parse_word,
    primitive_root,
    substitute,
)

NAMES = {"x": Word((1,)), "y": Word((2,))}


def W(text):
    return parse_word(text, NAMES)


def naive_reduce(codes):
    """Quadratic oracle: delete adjacent inverse pairs until none remain."""
    out = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def random_codes(rng, max_len):
    return [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, max_len))]


def random_reduced(rng, max_len):
    return Word(random_codes(rng, max_len))


def test_reduce_examples():
    assert Word([1, -1]) == Word.identity()
    assert Word([2, 1, -1, -2]) == Word.identity()
    assert W("x x^-1") == Word.identity()
    assert W("y^-1 x^-1 x y") == Word.identity()
    assert W("y y y^-1 x") == W("y x")


def test_reduce_matches_naive_oracle():
    rng = random.Random(100)
    for _ in range(10_000):
        codes = random_codes(rng, 24)
        assert Word(codes).codes == naive_reduce(codes)


def test_reduce_idempotent_and_length_bound():
    rng = random.Random(101)
    for _ in range(10_000):
        u = random_reduced(rng, 32)
        v = random_reduced(rng, 32)
        assert Word(u.codes) == u
        assert len(u * v) <= len(u) + len(v)


def test_bad_letter_codes_are_named():
    for codes, bad in (((1, 3), 3), ((0,), 0), ((1, -5, 2), -5)):
        with pytest.raises(ValueError, match=f"^bad letter code {bad}$"):
            Word(codes)


def test_mul_inv_conj_examples():
    assert W("x") * W("x^-1") == Word.identity()
    assert W("x").conj(W("y")) == W("y^-1 x y")
    assert ~W("y^-1 x^-1") == W("x y")


def test_group_laws_on_random_triples():
    rng = random.Random(102)
    for _ in range(10_000):
        u = random_reduced(rng, 32)
        v = random_reduced(rng, 32)
        w = random_reduced(rng, 32)
        assert (u * v) * w == u * (v * w)
        assert ~(~u) == u
        assert u * ~u == Word.identity()


def test_conj_composes():
    rng = random.Random(103)
    for _ in range(2_000):
        u = random_reduced(rng, 16)
        w1 = random_reduced(rng, 16)
        w2 = random_reduced(rng, 16)
        assert u.conj(w1 * w2) == u.conj(w1).conj(w2)


def test_powers():
    assert W("x") ** 3 == W("x x x")
    assert W("x y") ** -2 == W("y^-1 x^-1 y^-1 x^-1")
    assert W("x") ** 0 == Word.identity()
    assert W("y x y^-1") ** 3 == W("y x x x y^-1")
    assert W("y x y^-1") ** -2 == W("y x^-1 x^-1 y^-1")
    assert Word.identity() ** 5 == Word.identity()
    rng = random.Random(97)
    for _ in range(2_000):
        u = random_reduced(rng, 12)
        n = rng.randint(-4, 4)
        base = u if n >= 0 else ~u
        assert u ** n == Word(base.codes * abs(n))


def test_long_powers_and_literals_take_linear_time():
    # powers or literals that re-reduce the whole word at each factor are
    # quadratic and take minutes at these lengths; linear ones take well
    # under a second
    start = time.perf_counter()
    assert Word((2,)) ** 100_000 == Word((2,) * 100_000)
    assert W("y^100000") == Word((2,) * 100_000)
    assert W("x y^30000 x^-1") ** 3 == Word((1,) + (2,) * 90_000 + (-1,))
    assert time.perf_counter() - start < 2.0


def test_products_match_the_reducing_constructor():
    rng = random.Random(98)
    for _ in range(2_000):
        a = random_reduced(rng, 16)
        # b starts by undoing a random tail of a, so cancellation at the
        # boundary runs from none of a to all of it
        tail = a.codes[len(a) - rng.randint(0, len(a)) :]
        b = Word(tuple(-c for c in reversed(tail)) + random_reduced(rng, 8).codes)
        assert a * b == Word(a.codes + b.codes)


def test_long_products_take_linear_time():
    # a product that cancels letter by letter and re-slices at each step
    # is quadratic and takes minutes at these lengths; a boundary scan is linear
    a = Word((1, 2) * 50_000)
    start = time.perf_counter()
    assert a * Word((~a).codes + (2,)) == Word((2,))
    assert a * a == Word((1, 2) * 100_000)
    assert time.perf_counter() - start < 2.0


def test_hashes_distinct_on_short_words():
    # CPython hashes -1 and -2 alike, so hashing the raw letter tuple
    # collides whenever x^-1 and y^-1 are swapped
    words = [Word()]
    layer = [()]
    for _ in range(6):
        layer = [w + (c,) for w in layer for c in (1, -1, 2, -2) if not w or w[-1] != -c]
        words += [Word(w) for w in layer]
    assert len(words) == 1457
    assert len({hash(w) for w in words}) == len(words)


def test_cyclic_reduce_examples():
    core, c = cyclic_reduce(W("y^-1 x y"))
    assert core == W("x") and c == W("y")
    core, c = cyclic_reduce(W("x y x y"))
    assert core == W("x y x y") and c == Word.identity()
    core, c = cyclic_reduce(W("y x x y^-1"))
    assert core == W("x x") and c == W("y^-1")
    assert primitive_root(core) == (CyclicWord((1,)), 2)


def test_cyclic_reduce_rejects_identity():
    with pytest.raises(ValueError, match="trivial"):
        cyclic_reduce(Word.identity())


def test_cyclic_reduce_round_trip():
    rng = random.Random(104)
    for _ in range(5_000):
        u = random_reduced(rng, 24)
        if u.is_identity():
            continue
        core, c = cyclic_reduce(u)
        assert core.conj(c) == u
        # core really is cyclically reduced
        assert len(core) < 2 or core.codes[0] != -core.codes[-1]


def test_cyclic_word_validates():
    with pytest.raises(ValueError, match="cyclically reduced"):
        CyclicWord((2, 1, -2))


def test_primitive_root_examples():
    assert primitive_root(CyclicWord((1, 1, 1))) == (CyclicWord((1,)), 3)
    assert primitive_root(CyclicWord((1, 2, 1, 2))) == (CyclicWord((1, 2)), 2)
    assert primitive_root(CyclicWord((1, 2))) == (CyclicWord((1, 2)), 1)


def test_primitive_root_is_primitive():
    rng = random.Random(105)
    for _ in range(2_000):
        u = random_reduced(rng, 12)
        if u.is_identity():
            continue
        core, _ = cyclic_reduce(u)
        root, exp = primitive_root(core)
        assert root ** exp == core
        # no shorter period divides the root
        n = len(root)
        for d in range(1, n):
            if n % d == 0:
                assert root.codes[:d] * (n // d) != root.codes


def test_substitute():
    images = {0: W("y"), 1: W("y^-1 x^-1")}
    assert substitute(W("x y"), images) == W("y y^-1 x^-1")
    assert substitute(W("x^-1"), images) == W("y^-1")
    # a homomorphism: the product of the per-letter images, inverses included
    rng = random.Random(107)
    for _ in range(200):
        u = random_reduced(rng, 30)
        want = Word.identity()
        for c in u.codes:
            img = images[abs(c) - 1]
            want = want * (img if c > 0 else ~img)
        assert substitute(u, images) == want


def test_substitute_matches_substitute_then_reduce():
    # images that cancel into each other, and the empty image
    image_sets = [
        {0: W("y x"), 1: W("x^-1 y^-1 x")},
        {0: W("x y x^-1"), 1: W("x y^-1 x^-1")},
        {0: W("1"), 1: W("y x y")},
    ]
    rng = random.Random(108)
    for images in image_sets:
        for n in range(201):
            u = random_reduced(rng, n)
            codes = []
            for c in u.codes:
                img = images[abs(c) - 1]
                codes += img.codes if c > 0 else (~img).codes
            assert substitute(u, images).codes == _reduce_codes(codes)


def test_geodesic_length_plain():
    assert geodesic_length(Word.identity()) == 0
    assert geodesic_length(W("x y x")) == 3


def test_geodesic_length_with_block_matches_bfs():
    # Extra generator z = y^-1 x^-1: distances agree with explicit BFS
    # over products of the six letters.
    z = W("y^-1 x^-1")
    gens = [W("x"), W("x^-1"), W("y"), W("y^-1"), z, ~z]
    dist = {Word.identity(): 0}
    frontier = [Word.identity()]
    for d in range(1, 5):
        nxt = []
        for w in frontier:
            for g in gens:
                v = w * g
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    for w, d in dist.items():
        assert geodesic_length(w, [z]) == d


def test_geodesic_length_rejects_long_blocks():
    with pytest.raises(ValueError):
        geodesic_length(W("x"), [W("x y x")])


def test_parse_word():
    assert W("1") == Word.identity()
    assert W("x^4") == W("x x x x")
    assert W("x^-2 y") == W("x^-1 x^-1 y")
    names = dict(NAMES)
    names["z"] = W("y^-1 x^-1")
    assert parse_word("z^-1", names) == W("x y")
    with pytest.raises(WordSyntaxError, match="unknown generator"):
        W("q")
    with pytest.raises(WordSyntaxError, match="exponent"):
        W("x^two")
    with pytest.raises(WordSyntaxError, match="zero"):
        W("x^0")


def test_parse_word_letter_cap():
    assert W("y^1000000") == Word((2,) * 1_000_000)
    for text, token in (("y^1000001", "y^1000001"), ("x^999999 y x", "x"), ("x^-600000 y^-400001", "y^-400001")):
        with pytest.raises(WordSyntaxError, match="past 1000000 letters") as exc:
            W(text)
        assert exc.value.token == token
    # a repeated token counts at each occurrence, and the one that
    # crosses the cap is named
    for text, token in (("x^999999 y y", "y"), ("y^600000 x y^600000", "y^600000")):
        with pytest.raises(WordSyntaxError, match=re.escape(f"token '{token}' takes the literal past")) as exc:
            W(text)
        assert exc.value.token == token
    # a derived name counts its own letters
    with pytest.raises(WordSyntaxError, match="past 1000000 letters"):
        parse_word("z^500001", {**NAMES, "z": W("y^-1 x^-1")})


def test_unit_exponents_take_the_letters_directly(monkeypatch):
    def no_power(self, n):
        raise AssertionError("a ^1 or ^-1 token built a power")

    names = {**NAMES, "z": W("y^-1 x^-1")}
    monkeypatch.setattr(Word, "__pow__", no_power)
    assert parse_word("x^1 y^-1 z^-1 z^1 x", names) == Word((1, -2, 1, 2, -2, -1, 1))


def test_format_word_round_trip():
    rng = random.Random(107)
    for _ in range(500):
        u = random_reduced(rng, 16)
        assert parse_word(format_word(u, ("x", "y")), NAMES) == u
    assert format_word(Word.identity(), ("x", "y")) == "1"
