"""Virtual endomorphism on an index-2 subgroup, realized as a transducer.

The domain H is the kernel of a parity homomorphism onto Z/2.  A word is
evaluated letter by letter while tracking the coset state of the prefix
read so far; each (letter, state) pair contributes the image of one
Schreier generator of H.  The homomorphism property is then structural:
the factor decomposition telescopes to the input word.

The transducer is a step table, one row per coset state: reading a
letter in a state gives the letters it emits and the state after it.
A scan reads blocks of four letters from per-state tables filled from
the step table on first use, so it does one lookup per four letters.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ._record import Record
from .words import Word, _block_tables, _transduce, substitute


class DomainError(ValueError):
    """Raised when a word outside H is fed to the partial endomorphism."""


class ParityHom(Record):
    """Per-generator parity bits defining H = ker(theta), plus the coset
    representative t (a generator with bit 1)."""

    _fields = ("bits",)
    __slots__ = (*_fields, "_even")

    def __init__(self, bits: tuple[int, int]):
        super().__init__(bits)
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"parity bits must be 0/1, got {self.bits}")
        if self.bits == (0, 0):
            raise ValueError("parity is not surjective onto Z/2")
        # the letter code of the generator with bit 0, or 0, which no letter is
        object.__setattr__(self, "_even", self.bits.index(0) + 1 if 0 in self.bits else 0)

    @property
    def transversal_gen(self) -> int:
        """Index of the generator used as the nontrivial coset representative."""
        return self.bits.index(1)

    def theta(self, w: Word) -> int:
        """Parity of w: the number of its letters with bit 1, mod 2."""
        codes, even = w.codes, self._even
        return (len(codes) - codes.count(even) - codes.count(-even)) & 1


def schreier_factor(parity: ParityHom, code: int, state: int) -> Word:
    """Rewriting factor contributed by one letter read at a coset state.

    With u_0 = 1 and u_1 = t, the factor is u_s^-1 * letter * u_s' where
    s' is the state after the letter.  A word w in H decomposes as the
    product of its factors; the nontrivial factors over positive letters
    are the Reidemeister-Schreier basis of H for the transversal {1, t}.
    """
    t = Word((parity.transversal_gen + 1,), _reduced=True)
    reps = (Word.identity(), t)
    state_after = state ^ parity.bits[abs(code) - 1]
    return ~reps[state] * Word((code,), _reduced=True) * reps[state_after]


def schreier_basis(parity: ParityHom) -> tuple[Word, ...]:
    """The three nontrivial rewriting factors over positive letters."""
    basis = []
    for code in (1, 2):
        for state in (0, 1):
            f = schreier_factor(parity, code, state)
            if not f.is_identity():
                basis.append(f)
    if len(basis) != 3:
        raise AssertionError(f"expected 3 basis elements, got {basis}")
    return tuple(basis)


class VirtualEndo(Record):
    """The endomorphism psi: H -> F realized as a two-state transducer.

    ``steps[state][letter]`` is the pair (output letter codes, state after
    the letter).  All eight entries are derived from the three declared
    Schreier-generator images, so a single source of truth drives both
    evaluation directions.  ``blocks`` holds one block table per state,
    filled from ``steps`` as words are read; a scan reads them one lookup
    per four letters.
    """

    _fields = ("parity", "steps")
    __slots__ = (*_fields, "blocks")

    def __init__(self, parity: ParityHom, steps: tuple[Mapping[int, tuple[tuple[int, ...], int]], ...]):
        super().__init__(parity, steps)
        object.__setattr__(self, "blocks", _block_tables(steps))

    @classmethod
    def from_images(cls, parity: ParityHom, images: Mapping[Word, Word]) -> "VirtualEndo":
        basis = schreier_basis(parity)
        if set(images) != set(basis):
            raise ValueError(
                f"images must be declared exactly on the Schreier basis {basis}"
            )
        steps: tuple[dict[int, tuple[tuple[int, ...], int]], ...] = ({}, {})
        for code in (1, -1, 2, -2):
            bit = parity.bits[abs(code) - 1]
            for state in (0, 1):
                f = schreier_factor(parity, code, state)
                if f.is_identity():
                    out = Word.identity()
                elif f in images:
                    out = images[f]
                else:
                    out = ~images[~f]
                steps[state][code] = (out.codes, state ^ bit)
        return cls(parity, steps)

    def in_domain(self, w: Word) -> bool:
        return self.parity.theta(w) == 0

    def _scan(self, w: Word, state: int) -> Word:
        return _transduce(w.codes, self.blocks, state)

    def apply(self, w: Word) -> Word:
        """psi(w) for w in H; raises DomainError otherwise."""
        if self.parity.theta(w):
            raise DomainError("word is not in the domain of the endomorphism")
        return self._scan(w, 0)

    def apply_conj(self, u: Word, w: Word) -> tuple[Word, Word]:
        """psi(w^-1 u w) for u in H, as the pair (c, X) with
        ``c.conj(X) == psi(u.conj(w))``; raises DomainError otherwise.

        ``from_images`` reads an inverse letter's Schreier factor as the
        inverse of the letter's own factor, taken from the state after
        it.  So the scan of w^-1 from state 0 ends in state theta(w) and
        emits the inverse of X = apply_hat(w), the scan of w from
        theta(w); u, in H, leaves that state unchanged; and

            psi(w^-1 u w) = X^-1 c X,  c = scan of u from theta(w).

        This reads |u| + |w| letters and never builds u^w.  theta(u^w) =
        theta(u), so it raises exactly when ``apply(u.conj(w))`` does.
        """
        if self.parity.theta(u):
            raise DomainError("word is not in the domain of the endomorphism")
        state = self.parity.theta(w)
        return self._scan(u, state), self._scan(w, state)

    def apply_hat(self, w: Word) -> Word:
        """The coset-corrected extension: psi(w) on H, psi(t^-1 w) off it.

        The factor contributed by t^-1 at state 0 is trivial, so this is
        exactly a scan started in the coset state of w.
        """
        return self._scan(w, self.parity.theta(w))


def pair_table(psi: VirtualEndo, elements: Sequence[Word]) -> dict[tuple[Word, Word], Word]:
    """Second iterate of the extension map on all products a*b."""
    return {
        (a, b): psi.apply_hat(psi.apply_hat(a * b))
        for a in elements
        for b in elements
    }


# -- section of the z^2+i endomorphism ---------------------------------------

# Substitution images for the right inverse of psi on the dendrite map
# (generators a=index 0, b=index 1): a -> b^-1 a^-1 b^-1 a, b -> a^-1 b a.
_SECTION_IMAGES: dict[int, Word] = {
    0: Word((-2, -1, -2, 1), _reduced=True),
    1: Word((-1, 2, 1), _reduced=True),
}


def section(w: Word) -> Word:
    """Right inverse of the dendrite endomorphism: psi(section(w)) == w."""
    return substitute(w, _SECTION_IMAGES)


def section_conjugators(n: int) -> Iterator[Word]:
    """The conjugators w_1, ..., w_n whose b-twists survive 1, ..., n
    pullbacks, in one pass: w_1 = a and w_k = w_(k-1) * section^(k-1)(a)."""
    term = out = Word((1,), _reduced=True)
    for k in range(n):
        if k:
            term = section(term)
            out = out * term
        yield out

