"""Map definition files: parsing, validation, and the built-in maps.

The format is line based; ``#`` starts a comment and blank lines are
ignored::

    map rabbit
    gen x parity 0
    gen y parity 1
    axis z = y^-1 x^-1
    schreier x -> y
    schreier y y -> y^-1 x^-1
    schreier y^-1 x y -> 1

Exactly two generators, one derived axis, and three Schreier lines are
required.  Validation recomputes the Reidemeister-Schreier basis of
ker(parity) and demands that the declared left-hand sides match it
exactly, so a wrong generating set for the domain is rejected rather
than silently reinterpreted.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

from . import endo
from .words import Word, WordSyntaxError, cyclic_reduce, format_word, parse_word, primitive_root

MAP_PATH_ENV = "CURVEPULL_MAP_PATH"

BUILTIN_TEXTS = {
    "rabbit": """\
map rabbit
gen x parity 0
gen y parity 1
axis z = y^-1 x^-1
schreier x -> y
schreier y y -> y^-1 x^-1
schreier y^-1 x y -> 1
""",
    "dendrite": """\
map dendrite
gen a parity 1
gen b parity 0
axis c = b^-1 a^-1
schreier a a -> 1
schreier b -> b^-1 a^-1
schreier a^-1 b a -> b
""",
}


class MapDefError(ValueError):
    """Diagnostic for a bad map definition, with a stable code and location."""

    CODES = (
        "syntax-error",
        "unknown-generator",
        "parity-not-surjective",
        "not-schreier-basis",
        "duplicate-axis",
        "axis-not-primitive",
    )

    def __init__(self, code: str, message: str, line: int = 0):
        assert code in self.CODES
        super().__init__(f"{code} at line {line}: {message}")
        self.code = code
        self.line = line


class MapDefinition(NamedTuple):
    name: str
    gens: tuple[str, str]
    parity_bits: tuple[int, int]
    third_axis_name: str
    third_axis: Word
    schreier_images: tuple[tuple[Word, Word], ...]  # (basis element, image)

    @property
    def axis_names(self) -> tuple[str, str, str]:
        return (self.gens[0], self.gens[1], self.third_axis_name)

    @property
    def axis_words(self) -> tuple[Word, Word, Word]:
        return (Word((1,), _reduced=True), Word((2,), _reduced=True), self.third_axis)

    @property
    def parity(self) -> endo.ParityHom:
        return endo.ParityHom(self.parity_bits)

    def names(self) -> dict[str, Word]:
        table = {
            self.gens[0]: Word((1,), _reduced=True),
            self.gens[1]: Word((2,), _reduced=True),
            self.third_axis_name: self.third_axis,
        }
        return table

    def word(self, text: str) -> Word:
        return parse_word(text, self.names())

    def format(self, w: Word) -> str:
        return format_word(w, self.gens)

    def endomorphism(self) -> endo.VirtualEndo:
        """The map's transducer, shared by every map with the same parity
        bits and Schreier images, so its block tables fill once."""
        return _endomorphism(self.parity_bits, self.schreier_images)

    def axis_ball(self) -> frozenset[Word]:
        """Identity plus the six axis letters; for the rabbit this is the
        nucleus that the extension map contracts into."""
        ball = {Word.identity()}
        for a in self.axis_words:
            ball.add(a)
            ball.add(~a)
        return frozenset(ball)


# Keyed by what defines the transducer, not by the map's name.
@lru_cache(maxsize=64)
def _endomorphism(bits: tuple[int, int], images: tuple[tuple[Word, Word], ...]) -> endo.VirtualEndo:
    return endo.VirtualEndo.from_images(endo.ParityHom(bits), dict(images))


def parse_mapdef(text: str) -> MapDefinition:
    name: str | None = None
    gens: list[tuple[str, int, int]] = []  # (name, parity bit, line)
    axis: tuple[str, str, int] | None = None  # (name, word text, line)
    schreier: list[tuple[str, str, int]] = []  # (lhs text, rhs text, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "map":
            if len(tokens) != 2:
                raise MapDefError("syntax-error", "expected: map NAME", lineno)
            if name is not None:
                raise MapDefError("syntax-error", "duplicate map line", lineno)
            name = tokens[1]
        elif directive == "gen":
            if len(tokens) != 4 or tokens[2] != "parity":
                raise MapDefError("syntax-error", "expected: gen NAME parity BIT", lineno)
            if tokens[3] not in ("0", "1"):
                raise MapDefError("syntax-error", f"parity bit must be 0 or 1, got {tokens[3]}", lineno)
            if not tokens[1].isidentifier():
                raise MapDefError("syntax-error", f"generator name {tokens[1]!r} is not an identifier", lineno)
            gens.append((tokens[1], int(tokens[3]), lineno))
        elif directive == "axis":
            if len(tokens) < 4 or tokens[2] != "=":
                raise MapDefError("syntax-error", "expected: axis NAME = WORD", lineno)
            if axis is not None:
                raise MapDefError("syntax-error", "duplicate axis line", lineno)
            if not tokens[1].isidentifier():
                raise MapDefError("syntax-error", f"axis name {tokens[1]!r} is not an identifier", lineno)
            axis = (tokens[1], " ".join(tokens[3:]), lineno)
        elif directive == "schreier":
            rest = line[len("schreier") :].strip()
            lhs, arrow, rhs = rest.partition("->")
            if not arrow:
                raise MapDefError("syntax-error", "expected: schreier WORD -> WORD", lineno)
            schreier.append((lhs.strip(), rhs.strip(), lineno))
        else:
            raise MapDefError("syntax-error", f"unknown directive {directive!r}", lineno)

    if name is None:
        raise MapDefError("syntax-error", "missing map line")
    if len(gens) != 2:  # at the first surplus line; a shortage has none, like a missing map line
        line = gens[2][2] if len(gens) > 2 else 0
        raise MapDefError("syntax-error", f"expected exactly 2 generators, got {len(gens)}", line)
    if gens[0][0] == gens[1][0]:
        raise MapDefError("duplicate-axis", f"generator name {gens[0][0]!r} repeated", gens[1][2])
    bits = (gens[0][1], gens[1][1])
    if bits == (0, 0):
        raise MapDefError("parity-not-surjective", "parity bits are all zero", gens[1][2])
    if axis is None:
        raise MapDefError("syntax-error", "missing axis line")
    if len(schreier) != 3:  # at the first surplus line, as for the generators
        line = schreier[3][2] if len(schreier) > 3 else 0
        raise MapDefError("syntax-error", f"expected exactly 3 schreier lines, got {len(schreier)}", line)

    gen_names = (gens[0][0], gens[1][0])
    gen_table = {gen_names[0]: Word((1,), _reduced=True), gen_names[1]: Word((2,), _reduced=True)}

    axis_name, axis_text, axis_line = axis
    if axis_name in gen_names:
        raise MapDefError("duplicate-axis", f"axis name {axis_name!r} collides with a generator", axis_line)
    try:
        third = parse_word(axis_text, gen_table)
    except WordSyntaxError as exc:
        code = "unknown-generator" if exc.token and exc.token.partition("^")[0] not in gen_table else "syntax-error"
        raise MapDefError(code, str(exc), axis_line) from None
    if third.is_identity():
        raise MapDefError("syntax-error", "axis word is trivial", axis_line)
    if len(third) >= 2 and third.codes[0] == -third.codes[-1]:
        raise MapDefError(
            "duplicate-axis",
            "axis word must be cyclically reduced; as written it names the "
            "same curve as a shorter word",
            axis_line,
        )
    root, power = primitive_root(cyclic_reduce(third)[0])
    if power > 1:
        raise MapDefError(
            "axis-not-primitive",
            f"axis word is a proper power, ({format_word(root, gen_names)})^{power},"
            " but the loop of a simple closed curve is primitive",
            axis_line,
        )
    # A cyclically reduced word is conjugate to a generator or to its
    # inverse, the same loop run backwards, exactly when it is that letter.
    if len(third) == 1:
        raise MapDefError(
            "duplicate-axis",
            f"axis word {axis_text!r} names the same curve as generator {gen_names[abs(third.codes[0]) - 1]}",
            axis_line,
        )

    parity = endo.ParityHom(bits)
    basis = endo.schreier_basis(parity)
    full_table = dict(gen_table)
    full_table[axis_name] = third

    declared: dict[Word, Word] = {}
    for lhs_text, rhs_text, lineno in schreier:
        try:
            lhs = parse_word(lhs_text, full_table)
            rhs = parse_word(rhs_text, full_table)
        except WordSyntaxError as exc:
            code = "unknown-generator" if exc.token and exc.token.partition("^")[0] not in full_table else "syntax-error"
            raise MapDefError(code, str(exc), lineno) from None
        if lhs in declared:
            raise MapDefError("not-schreier-basis", f"left-hand side {lhs_text!r} repeated", lineno)
        declared[lhs] = rhs
    if set(declared) != set(basis):
        want = ", ".join(format_word(b, gen_names) for b in basis)
        raise MapDefError(
            "not-schreier-basis",
            f"left-hand sides must be exactly the Reidemeister-Schreier basis {{{want}}}",
            schreier[0][2],
        )

    images = tuple((b, declared[b]) for b in basis)
    return MapDefinition(name, gen_names, bits, axis_name, third, images)


@lru_cache(maxsize=None)
def builtin(name: str) -> MapDefinition:
    if name not in BUILTIN_TEXTS:
        raise ValueError(f"unknown built-in map {name!r}; have {sorted(BUILTIN_TEXTS)}")
    return parse_mapdef(BUILTIN_TEXTS[name])


def load_map(name_or_path: str) -> MapDefinition:
    """Resolve a --map argument: built-in name, file path, or a NAME.map
    file found in the directories listed in CURVEPULL_MAP_PATH."""
    if name_or_path in BUILTIN_TEXTS:
        return builtin(name_or_path)
    if os.sep in name_or_path or name_or_path.endswith(".map"):
        with open(name_or_path, encoding="utf-8") as fh:
            return parse_mapdef(fh.read())
    for directory in os.environ.get(MAP_PATH_ENV, "").split(os.pathsep):
        if not directory:
            continue
        candidate = os.path.join(directory, name_or_path + ".map")
        if os.path.exists(candidate):
            with open(candidate, encoding="utf-8") as fh:
                return parse_mapdef(fh.read())
    raise ValueError(
        f"unknown map {name_or_path!r}: not a built-in and not found via {MAP_PATH_ENV}"
    )
