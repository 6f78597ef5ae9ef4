import pytest

from curvepull.mapdef import (
    MAP_PATH_ENV,
    MapDefError,
    builtin,
    load_map,
    parse_mapdef,
)

GOOD = """\
map rabbit
gen x parity 0
gen y parity 1
axis z = y^-1 x^-1
schreier x -> y
schreier y y -> y^-1 x^-1
schreier y^-1 x y -> 1
"""


def err_code(text):
    with pytest.raises(MapDefError) as exc:
        parse_mapdef(text)
    return exc.value.code


def test_builtin_rabbit():
    m = builtin("rabbit")
    assert m.gens == ("x", "y")
    assert m.parity_bits == (0, 1)
    assert m.axis_names == ("x", "y", "z")
    assert m.third_axis == m.word("y^-1 x^-1")
    psi = m.endomorphism()
    assert psi.apply(m.word("x")) == m.word("y")


def test_builtin_dendrite():
    m = builtin("dendrite")
    assert m.gens == ("a", "b")
    assert m.parity_bits == (1, 0)
    assert m.third_axis == m.word("b^-1 a^-1")
    psi = m.endomorphism()
    assert psi.apply(m.word("a a")).is_identity()
    assert psi.apply(m.word("b")) == m.word("b^-1 a^-1")
    assert psi.apply(m.word("a^-1 b a")) == m.word("b")


def test_builtin_unknown():
    with pytest.raises(ValueError, match="airplane"):
        builtin("airplane")


def test_parse_good_text_matches_builtin():
    assert parse_mapdef(GOOD) == builtin("rabbit")


def test_parse_accepts_comments_and_crlf():
    text = GOOD.replace("\n", "  # trailing comment\r\n")
    assert parse_mapdef(text) == builtin("rabbit")


def test_parity_not_surjective():
    text = GOOD.replace("gen y parity 1", "gen y parity 0")
    assert err_code(text) == "parity-not-surjective"


def test_wrong_schreier_basis():
    # z is not a Schreier basis element: the true basis has y^-1 x y
    text = GOOD.replace("schreier y^-1 x y -> 1", "schreier y^-1 x^-1 -> 1")
    assert err_code(text) == "not-schreier-basis"


def test_repeated_schreier_lhs():
    text = GOOD.replace("schreier y^-1 x y -> 1", "schreier x -> y")
    assert err_code(text) == "not-schreier-basis"


def test_unknown_generator_in_axis():
    text = GOOD.replace("axis z = y^-1 x^-1", "axis z = y^-1 q^-1")
    assert err_code(text) == "unknown-generator"


def test_unknown_generator_in_schreier():
    text = GOOD.replace("schreier x -> y", "schreier x -> q")
    assert err_code(text) == "unknown-generator"


def test_axis_name_collides_with_generator():
    text = GOOD.replace("axis z = y^-1 x^-1", "axis x = y^-1 x^-1")
    assert err_code(text) == "duplicate-axis"


def test_conjugate_axis_rejected():
    # y^-1 x y is conjugate to the x axis, so it names the same curve
    text = GOOD.replace("axis z = y^-1 x^-1", "axis z = y^-1 x y")
    assert err_code(text) == "duplicate-axis"


@pytest.mark.parametrize("axis, gen", [("x", "x"), ("x^-1", "x"), ("y", "y"), ("y^-1", "y")])
def test_generator_axis_rejected(axis, gen):
    # a generator's inverse is the same loop run backwards: the same curve
    with pytest.raises(MapDefError) as exc:
        parse_mapdef(GOOD.replace("axis z = y^-1 x^-1", f"axis z = {axis}"))
    assert exc.value.code == "duplicate-axis"
    assert exc.value.line == 4
    assert f"generator {gen}" in str(exc.value)


def test_non_cyclically_reduced_axis_rejected():
    text = GOOD.replace("axis z = y^-1 x^-1", "axis z = y^-1 x x y")
    assert err_code(text) == "duplicate-axis"


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("map rabbit\n", ""),
        lambda t: "map one\n" + t,
        lambda t: t.replace("gen x parity 0\n", ""),
        lambda t: t.replace("parity 0", "parity 3"),
        lambda t: t.replace("axis z = y^-1 x^-1\n", ""),
        lambda t: t.replace("axis z =", "axis z"),
        lambda t: t.replace("schreier x -> y\n", ""),
        lambda t: t.replace("schreier x -> y", "schreier x y"),
        lambda t: t + "orbit x\n",
        lambda t: t.replace("axis z = y^-1 x^-1", "axis z = 1"),
        lambda t: t.replace("gen x parity 0", "gen 1 parity 0"),
        lambda t: t.replace("gen x parity 0", "gen x^2 parity 0"),
    ],
)
def test_syntax_errors(mutation):
    assert err_code(mutation(GOOD)) == "syntax-error"


@pytest.mark.parametrize(
    "old, new, line",
    [("gen x", "gen 1", 2), ("gen x", "gen x^2", 2), ("gen y", "gen y-1", 3), ("axis z", "axis 2z", 4)],
)
def test_unreadable_names_rejected_at_their_line(old, new, line):
    with pytest.raises(MapDefError) as exc:
        parse_mapdef(GOOD.replace(old, new, 1))
    assert exc.value.code == "syntax-error"
    assert exc.value.line == line
    assert "not an identifier" in str(exc.value)


@pytest.mark.parametrize("axis", ["x y x y", "x^-1 y^2 x^-1 y^2", "x x"])
def test_proper_power_axis_rejected(axis):
    with pytest.raises(MapDefError) as exc:
        parse_mapdef(GOOD.replace("axis z = y^-1 x^-1", f"axis z = {axis}"))
    assert exc.value.code == "axis-not-primitive"
    assert exc.value.line == 4


def test_error_carries_line():
    text = GOOD.replace("schreier x -> y", "schreier x -> q")
    with pytest.raises(MapDefError) as exc:
        parse_mapdef(text)
    assert exc.value.line == 5


@pytest.mark.parametrize(
    "text, line",
    [
        (GOOD + "schreier x -> y\n", 8),
        (GOOD.replace("gen y parity 1\n", "gen y parity 1\ngen w parity 0\n"), 4),
        (GOOD.replace("axis", "gen w parity 0\n\n# comment\ngen v parity 1\naxis"), 4),
        (GOOD.replace("schreier x -> y\n", ""), 0),
        (GOOD.replace("gen x parity 0\n", ""), 0),
    ],
)
def test_a_wrong_line_count_names_the_first_surplus_line(text, line):
    # a shortage has no line to name, like a missing map line
    with pytest.raises(MapDefError) as exc:
        parse_mapdef(text)
    assert exc.value.code == "syntax-error"
    assert exc.value.line == line
    assert "expected exactly" in str(exc.value)


def test_load_map_builtin_and_path(tmp_path, monkeypatch):
    assert load_map("rabbit") == builtin("rabbit")
    f = tmp_path / "mymap.map"
    f.write_text(GOOD.replace("map rabbit", "map mymap"))
    assert load_map(str(f)).name == "mymap"
    monkeypatch.setenv(MAP_PATH_ENV, str(tmp_path))
    assert load_map("mymap").name == "mymap"
    with pytest.raises(ValueError, match="unknown map"):
        load_map("nosuchmap")


def test_endomorphism_is_shared_by_equal_images_not_by_name():
    psi = builtin("rabbit").endomorphism()
    assert builtin("rabbit").endomorphism() is psi
    assert parse_mapdef(GOOD).endomorphism() is psi
    corrupt = parse_mapdef(GOOD.replace("schreier x -> y", "schreier x -> y y"))
    assert corrupt.name == "rabbit"
    assert corrupt.endomorphism() is not psi
    assert corrupt.endomorphism() != psi
    assert corrupt.endomorphism() is corrupt.endomorphism()


def test_axis_ball(rabbit):
    w = rabbit.word
    assert rabbit.axis_ball() == frozenset(
        [w("1"), w("x"), w("x^-1"), w("y"), w("y^-1"), w("x y"), w("y^-1 x^-1")]
    )
