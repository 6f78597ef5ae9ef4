"""Exact word algebra in a rank-2 free group.

A letter is a nonzero int: ``+1``/``-1`` for the first generator and its
inverse, ``+2``/``-2`` for the second.  A :class:`Word` is an immutable,
freely reduced tuple of letters; the empty word is the identity.  Because
every word is reduced at construction, equality of group elements is
literal equality of tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence


_LETTERS = frozenset((1, -1, 2, -2))


def _reduce_codes(codes: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


class Word:
    """A freely reduced word; the group operation is ``*``.

    Words compare and hash by their letter tuple, so they can be used as
    dict keys and set members.  ``~w`` is the inverse, ``w ** n`` the
    n-th power, ``u.conj(w)`` the conjugate w^-1 * u * w.
    """

    __slots__ = ("codes", "_hash")

    def __init__(self, codes: Iterable[int] = (), *, _reduced: bool = False):
        self._hash = None  # computed on first use: a curve is hashed many times
        if _reduced:
            self.codes = tuple(codes)
        else:
            codes = tuple(codes)
            if not _LETTERS.issuperset(codes):
                bad = next(c for c in codes if c not in _LETTERS)
                raise ValueError(f"bad letter code {bad}")
            self.codes = _reduce_codes(codes)

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    def is_identity(self) -> bool:
        return not self.codes

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.codes == other.codes

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # hash(-1) == hash(-2) in CPython; shift the letters to 0, 1, 3, 4.
            h = self._hash = hash(tuple(map((2).__add__, self.codes)))
        return h

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if not self.codes:
            return other
        if not other.codes:
            return self
        # Both factors are reduced, so letters cancel only at the boundary.
        a, b = self.codes, other.codes
        n = min(len(a), len(b))
        k = 0
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return Word(a[: len(a) - k] + b[k:], _reduced=True)

    def __invert__(self) -> "Word":
        return Word(tuple(-c for c in reversed(self.codes)), _reduced=True)

    def __pow__(self, n: int) -> "Word":
        if n == 0 or not self.codes:
            return _IDENTITY
        base = self if n > 0 else ~self
        if base.codes[0] != -base.codes[-1]:
            return Word(base.codes * abs(n), _reduced=True)
        core, conjugator = cyclic_reduce(base)
        return Word(core.codes * abs(n), _reduced=True).conj(conjugator)

    def conj(self, w: "Word") -> "Word":
        return ~w * self * w

    def __repr__(self) -> str:
        return f"Word({self.codes!r})"


_IDENTITY = Word((), _reduced=True)


class CyclicWord(Word):
    """A cyclically reduced word, standing for a conjugacy class.

    Equality stays literal, not up to rotation.
    """

    __slots__ = ()

    def __init__(self, codes: Iterable[int] = (), *, _reduced: bool = False):
        super().__init__(codes, _reduced=_reduced)
        if len(self.codes) >= 2 and self.codes[0] == -self.codes[-1]:
            raise ValueError(f"not cyclically reduced: {self.codes}")


def cyclic_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split u as core^conjugator with the core cyclically reduced.

    Returns (core, conjugator) with ``core.conj(conjugator) == u``
    exactly.  The identity has no core and is rejected.
    """
    if u.is_identity():
        raise ValueError("trivial element has no cyclic reduction")
    codes = u.codes
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == -codes[j - 1]:
        i += 1
        j -= 1
    core = CyclicWord(codes[i:j], _reduced=True)
    # u = p * core * p^-1 with p the stripped prefix, so u = core^(p^-1).
    conjugator = ~Word(codes[:i], _reduced=True)
    return core, conjugator


def primitive_root(c: CyclicWord) -> tuple[CyclicWord, int]:
    """Write a cyclically reduced word as root**exp with exp maximal."""
    n = len(c)
    if n == 0:
        raise ValueError("empty cyclic word has no primitive root")
    codes = c.codes
    for d in range(1, n + 1):
        if n % d:
            continue
        if codes[:d] * (n // d) == codes:
            return CyclicWord(codes[:d], _reduced=True), n // d
    raise AssertionError("unreachable: every word is its own root")


# Letters read per table lookup by the transducer kernel below.
_BLOCK = 4


class _BlockTable(dict):
    """One start state's lookups for a letter-to-word transducer.

    ``steps[state][letter]`` is the pair (output letters, state after the
    letter).  A key is a block of 0 to ``_BLOCK`` letters read from
    ``state``; its value is the triple (the block's freely reduced output,
    the state after it, the letter that cancels the output's first letter
    or None when the output is empty).  Entries are filled on first read,
    so a table costs nothing until words are read through it.
    """

    __slots__ = ("steps", "state")

    def __init__(self, steps: Sequence[Mapping[int, tuple[tuple[int, ...], int]]], state: int):
        super().__init__()
        self.steps = steps
        self.state = state

    def __missing__(self, block: tuple[int, ...]) -> tuple[tuple[int, ...], int, int | None]:
        steps, state = self.steps, self.state
        outs = []
        for c in block:
            out, state = steps[state][c]
            outs.append(out)
        out = _reduce_codes(chain.from_iterable(outs))
        entry = self[block] = (out, state, -out[0] if out else None)
        return entry


def _block_tables(steps: Sequence[Mapping[int, tuple[tuple[int, ...], int]]]) -> tuple[_BlockTable, ...]:
    """One block table per start state of the transducer ``steps``."""
    return tuple(_BlockTable(steps, state) for state in range(len(steps)))


def _transduce(codes: tuple[int, ...], tables: Sequence[_BlockTable], state: int) -> Word:
    """The freely reduced output of reading the reduced word ``codes``
    from ``state``, one table lookup per ``_BLOCK`` letters.

    A word of at most ``_BLOCK`` letters is one block.  Otherwise the
    first ``len(codes) % _BLOCK`` letters are read as one block and the
    rest in full blocks.  Each block's output is already reduced, so
    letters cancel only where it meets the output so far.
    """
    if len(codes) <= _BLOCK:
        return Word(tables[state][codes][0], _reduced=True)
    head = len(codes) % _BLOCK
    out, state, _ = tables[state][codes[:head]]
    stack = [0, *out]  # 0 marks the bottom: no letter cancels it
    it = islice(codes, head, None)
    for block in zip(*[it] * _BLOCK):
        out, state, cancels = tables[state][block]
        if stack[-1] == cancels:
            n = len(out)
            k = 1
            while k < n and stack[-1 - k] == -out[k]:
                k += 1
            del stack[-k:]
            stack += out[k:]
        else:
            stack += out
    del stack[0]
    return Word(stack, _reduced=True)


@lru_cache(maxsize=16)
def _substitution(images: tuple[tuple[int, tuple[int, ...]], ...]) -> tuple[_BlockTable]:
    """The one-state transducer of a substitution, from (generator index,
    image letters) pairs; cached so that repeated substitutions by the
    same images share their filled table."""
    step: dict[int, tuple[tuple[int, ...], int]] = {}
    for g, codes in images:
        step[g + 1] = (codes, 0)
        step[-g - 1] = (tuple(-c for c in reversed(codes)), 0)
    return _block_tables((step,))


def substitute(u: Word, images: Mapping[int, Word]) -> Word:
    """Apply the endomorphism sending generator index g to images[g].

    A substitution is a one-state transducer, so this reads u one lookup
    per four letters (see ``_transduce``).  The images are Words, so their
    letters need no check.
    """
    tables = _substitution(tuple((g, img.codes) for g, img in images.items()))
    return _transduce(u.codes, tables, 0)


def geodesic_length(u: Word, extra_blocks: Iterable[Word] = ()) -> int:
    """Word length of u over the four letters plus the given extra generators.

    Each extra generator must be a reduced word of length at most 2; its
    inverse is included automatically.  With such blocks a geodesic
    spelling never cancels across a block boundary (any cancelling
    adjacent pair collapses to at most one block), so the length is the
    minimum block count over literal factorizations of the reduced word.
    """
    blocks: set[tuple[int, ...]] = set()
    for b in extra_blocks:
        if len(b) > 2:
            raise ValueError("extra generators longer than 2 letters are not supported")
        if len(b) == 2:
            blocks.add(b.codes)
            blocks.add((~b).codes)
    codes = u.codes
    n = len(codes)
    dp = [0] * (n + 1)
    for i in range(1, n + 1):
        best = dp[i - 1] + 1
        if i >= 2 and codes[i - 2 : i] in blocks:
            best = min(best, dp[i - 2] + 1)
        dp[i] = best
    return dp[n]


# -- word literals -----------------------------------------------------------


class WordSyntaxError(ValueError):
    """Raised for malformed word literals; carries the bad token."""

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token


# Most letters a word literal may spell, counted before free reduction:
# a token NAME^k spells |k| times the letters of NAME.  The cap is
# checked before any letter is built; an orbit of a curve at the cap
# takes about 0.4-2.5 s and up to 180 MB (2-CPU host, Python 3.11).
MAX_LITERAL_LETTERS = 1_000_000


def parse_word(text: str, names: Mapping[str, Word]) -> Word:
    """Parse a word literal: whitespace-separated NAME or NAME^INT tokens.

    ``1`` denotes the identity.  ``names`` maps each accepted token name
    to its expansion, so derived names parse transparently.  A literal
    that spells more than ``MAX_LITERAL_LETTERS`` letters is rejected,
    naming the token that crosses the cap.  Each distinct token is
    checked and expanded once, but its letters count at every
    occurrence, so the cap error names the occurrence that crosses it.
    """
    spelled: dict[str, tuple[tuple[int, ...], int]] = {}  # token -> (expansion, letters)
    parts: list[tuple[int, ...]] = []
    letters = 0
    for token in text.split():
        if token == "1":
            continue
        known = spelled.get(token)
        if known is None:
            name, caret, exp_text = token.partition("^")
            if name not in names:
                raise WordSyntaxError(f"unknown generator name {name!r}", token=token)
            exp = 1
            if caret:
                try:
                    exp = int(exp_text)
                except ValueError:
                    raise WordSyntaxError(
                        f"bad exponent {exp_text!r} in token {token!r}", token=token
                    ) from None
                if exp == 0:
                    raise WordSyntaxError(f"zero exponent in token {token!r}", token=token)
            base = names[name]
            count = len(base.codes) * abs(exp)
        else:
            expansion, count = known
        letters += count
        if letters > MAX_LITERAL_LETTERS:
            raise WordSyntaxError(
                f"token {token!r} takes the literal past {MAX_LITERAL_LETTERS} letters", token=token
            )
        if known is None:
            expansion = base.codes if exp == 1 else (~base).codes if exp == -1 else (base ** exp).codes
            spelled[token] = (expansion, count)
        parts.append(expansion)
    # The expansions come from Words, so their letters need no check.
    return Word(_reduce_codes(chain.from_iterable(parts)), _reduced=True)


def format_word(u: Word, gen_names: tuple[str, str]) -> str:
    """Render a word with one token per letter; the identity prints as 1."""
    if u.is_identity():
        return "1"
    parts = []
    for c in u.codes:
        name = gen_names[abs(c) - 1]
        parts.append(name if c > 0 else f"{name}^-1")
    return " ".join(parts)
