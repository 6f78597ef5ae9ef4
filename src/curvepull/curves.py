"""Simple closed curves on the 4-punctured sphere as twist conjugates.

A curve is (axis, conjugator): the twist about it is axis^conjugator.
Conjugators that differ by a power of the axis word give the same twist,
so the stored conjugator is the minimal-length representative of its
coset under the cyclic group on the axis, with a fixed lexicographic
tie-break.  Equality of curves is then equality of fields.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Union

from ._record import Record
from .mapdef import MapDefinition
from .words import Word, cyclic_reduce, parse_word, primitive_root


class PullbackError(ValueError):
    """The image of a twist is not a twist conjugate; valid map data never
    produces this, malformed user maps can."""


class Curve(NamedTuple):
    """A tuple equal to the plain tuple (axis, conjugator).  Its hash
    makes one Python call to ``Word.__hash__``, so a walk looks each
    curve up once per step."""

    axis: int  # index into the map's three axes
    conjugator: Word


class PullbackStep(NamedTuple):
    """One application of the pullback relation.

    ``s`` is the minimal power in {1, 2} with twist^s liftable, ``t`` the
    exponent of the image twist (0 for a trivial image), and the weight
    is the exact transition coefficient t/s.
    """

    target: Curve | None
    s: int
    t: int
    weight: Fraction


class EventuallyTrivial(Record):
    __slots__ = _fields = ("steps",)
    kind = "trivial"

    def __init__(self, steps: int):
        super().__init__(steps)


class EntersCycle(Record):
    _fields = ("preperiod", "cycle", "cycle_weights")
    kind = "cycle"

    def __init__(self, preperiod: int, cycle: tuple[Curve, ...], cycle_weights: tuple[Fraction, ...]):
        super().__init__(preperiod, cycle, cycle_weights)

    @cached_property
    def weight_product(self) -> Fraction:
        out = Fraction(1)
        for w in self.cycle_weights:
            out *= w
        return out


class Unresolved(Record):
    __slots__ = _fields = ("max_steps",)
    kind = "unresolved"

    def __init__(self, max_steps: int):
        super().__init__(max_steps)


Classification = Union[EventuallyTrivial, EntersCycle, Unresolved]


class OrbitResult(NamedTuple):
    start: Curve
    steps: tuple[PullbackStep, ...]
    classification: Classification


def _lex_key(codes: tuple[int, ...]) -> tuple:
    # Letter order x < x^-1 < y < y^-1; shorter words first.
    return (len(codes), tuple((abs(c), c < 0) for c in codes))


def _power_prefix(codes: tuple[int, ...], block: tuple[int, ...]) -> int:
    """Longest common prefix of a word with block repeated forever."""
    m = len(block)
    i = 0
    n = len(codes)
    while i < n and codes[i] == block[i % m]:
        i += 1
    return i


class _Twist(NamedTuple):
    """A twist-table entry: the image of u^s read from one coset state is
    the t-th power of the twist about (target, conjugator), or trivial
    (target None), or a map fault described by ``fault``."""

    s: int
    target: int | None
    conjugator: Word
    t: int
    weight: Fraction
    fault: str | None = None


# Greedy classes only, so that a long word literal matches without backtracking.
_CURVE_RE = re.compile(r"^\s*([^\s^]+)\s*(?:\^\s*\(([^()]*)\)\s*)?$")


class PullbackSystem:
    """Curve dynamics for one map: a map definition plus its transducer."""

    def __init__(self, mapdef: MapDefinition):
        self.mapdef = mapdef
        self.psi = mapdef.endomorphism()
        self.axis_words = mapdef.axis_words
        # Each axis word and its inverse, as letters, for canonical forms.
        self._axis_codes = [(aw.codes, (~aw).codes) for aw in self.axis_words]
        # A conjugate of an axis has the axis's parity (theta maps to an
        # abelian group), so the parity decides the liftable power s.
        self._axis_parity = [self.psi.parity.theta(aw) for aw in self.axis_words]
        # Rotations of each axis word and its inverse, with the rotating
        # prefix, for matching primitive roots to axes.
        rotations: dict[tuple[int, ...], tuple[int, Word]] = {}
        for i, aw in enumerate(self.axis_words):
            for w in (aw, ~aw):
                codes = w.codes
                for j in range(len(codes)):
                    rot = codes[j:] + codes[:j]
                    rotations.setdefault(rot, (i, Word(codes[:j], _reduced=True)))
        # The twist table: one entry per (axis, parity of the conjugator).
        self._twists = [
            [self._twist_entry(i, p, rotations) for p in (0, 1)] for i in range(3)
        ]

    def _twist_entry(
        self, axis: int, parity: int, rotations: dict[tuple[int, ...], tuple[int, Word]]
    ) -> _Twist:
        """The image c of u^s scanned from coset state ``parity``, written
        as g^-1 a^t g with a an axis word or its inverse and t maximal.

        A c that is not of that form is kept as a fault, raised by each
        pullback that reads the entry, so a malformed map still loads.
        """
        s = 1 + self._axis_parity[axis]
        c = self.psi._scan(self.axis_words[axis] ** s, parity)
        if c.is_identity():
            return _Twist(s, None, c, 0, Fraction(0))
        core, v = cyclic_reduce(c)
        root, t = primitive_root(core)
        hit = rotations.get(root.codes)
        if hit is None:
            name = self.mapdef.axis_names[axis]
            fault = (
                f"for axis {name} and a conjugator of parity {parity}, the twist image"
                f" is conjugate to {self.mapdef.format(c)}, whose primitive root"
                f" {self.mapdef.format(root)} is not conjugate to an axis"
            )
            return _Twist(s, None, Word.identity(), 0, Fraction(0), fault)
        target, prefix = hit
        return _Twist(s, target, prefix * v, t, Fraction(t, s))

    # -- canonical form ------------------------------------------------------

    def canonicalize(self, axis: int, conjugator: Word) -> Curve:
        """Quotient out axis powers: the minimal-length element of
        <axis> * conjugator, ties broken lexicographically.

        Let u be the axis word, cyclically reduced of length m, and d the
        prefix agreement of the conjugator w with (u^-1)^infinity.  Then
        u^k w cancels min(k*m, d) letters for k >= 0, so its length is
        V-shaped in k.  With d = q*m + r, the minimum is u^q w, which is w
        without its first q*m letters, if 2r < m; u^(q+1) w, which is the
        first m - r letters of u followed by w without its first d
        letters, if 2r > m; and the lexicographically smaller of the two
        if 2r == m.  If d is 0, the same holds for negative k with u and
        u^-1 swapped.  Both are slices of reduced words, so neither needs
        a product or a reduction.  A w that starts with neither the first
        letter of u nor that of u^-1 has d = 0 both ways, so q = r = 0
        and w is canonical.
        """
        codes = conjugator.codes
        block, stream = self._axis_codes[axis]
        if not codes or codes[0] != block[0] and codes[0] != stream[0]:
            return Curve(axis, conjugator)
        d = _power_prefix(codes, stream)
        if not d:
            stream, block = block, stream
            d = _power_prefix(codes, stream)
        m = len(block)
        q, r = divmod(d, m)
        if 2 * r < m:
            best = codes[q * m :]
        elif 2 * r > m:
            best = block[: m - r] + codes[d:]
        else:
            best = min(codes[q * m :], block[: m - r] + codes[d:], key=_lex_key)
        return Curve(axis, conjugator if best == codes else Word(best, _reduced=True))

    def twist_word(self, curve: Curve, n: int = 1) -> Word:
        if n == 0:
            raise ValueError("twist power must be nonzero")
        return (self.axis_words[curve.axis] ** n).conj(curve.conjugator)

    def act(self, g: Word, curve: Curve) -> Curve:
        """Image of the curve under a mapping class acting by conjugation
        of twists (a right action, like all conjugation here)."""
        return self.canonicalize(curve.axis, curve.conjugator * g)

    # -- pullback ------------------------------------------------------------

    def pullback(self, curve: Curve) -> PullbackStep:
        """One pullback step, read from the twist table.

        For the curve (u, w) the liftable power is s, and the twist word
        w^-1 u^s w lies in H.  By ``VirtualEndo.apply_conj``,

            psi(w^-1 u^s w) = X^-1 c X,  X = apply_hat(w),

        with c the scan of u^s from state theta(w).  c depends only on
        the axis and the parity theta(w): six values, whose cyclic core,
        primitive root a^t, matched axis and conjugator v are
        precomputed.  The image is then the t-th power
        of the twist about (a, v X), and a step is one scan of w, one
        product and one canonical form.
        """
        w = curve.conjugator
        state = self.psi.parity.theta(w)
        s, target, v, t, weight, fault = self._twists[curve.axis][state]
        if target is None:
            if fault is not None:
                raise PullbackError(f"pullback of {self.format_curve(curve)}: {fault}")
            return PullbackStep(None, s, 0, weight)
        return PullbackStep(self.canonicalize(target, v * self.psi._scan(w, state)), s, t, weight)

    def _walk(self, starts: Iterable[Curve], max_steps: int) -> tuple[dict[Curve, list], list]:
        """Walk the orbits of the canonical curves ``starts`` at once.

        Return a node [step, verdict, stamp] per distinct curve met, in
        the order met, and each start's compact verdict: (n, None) for
        trivial after n steps, (preperiod, cycle curve entered at) for a
        cycle, or None if cut after ``max_steps`` pullbacks.  A walk stops
        at the trivial curve, a curve with a verdict, or one on its own
        path, which closes a new cycle; the curves before get their
        target's verdict plus one step.  Each curve is pulled back once.
        A stamp is a path index plus ``mark``, which grows by
        ``max_steps`` per walk, so one of at least ``mark`` is on the path.
        """
        pullback = self.pullback
        nodes: dict[Curve, list] = {}
        found: list = []
        mark = 0
        for cur in starts:
            path: list[list] = []
            v = (0, None)
            while cur is not None:
                node = nodes.get(cur)
                if node is None:
                    node = nodes[cur] = [None, None, -1]
                elif node[1] is not None:
                    v = node[1]
                    break
                elif node[2] >= mark:  # a new cycle: each of its curves enters at itself
                    for c_node in path[node[2] - mark :]:
                        c_node[1] = (0, cur)
                        cur = c_node[0].target
                    v = node[1]
                    del path[node[2] - mark :]
                    break
                if len(path) == max_steps:
                    v = None
                    break
                node[2] = mark + len(path)
                path.append(node)
                step = node[0]
                if step is None:
                    step = node[0] = pullback(cur)
                cur = step.target
            if v is not None:
                n, entry = v
                for node in reversed(path):
                    n += 1
                    node[1] = v = (n, entry)
            found.append(v)
            mark += max_steps
        return nodes, found

    @staticmethod
    def _records(nodes: dict[Curve, list], verdicts: Iterable, max_steps: int) -> list[Classification]:
        """The classification of each compact verdict of ``_walk``, one
        object per distinct verdict; unresolved where it needs more than
        ``max_steps`` pullbacks (the trivial depth, or preperiod plus
        period)."""
        cut = Unresolved(max_steps)
        made: dict[tuple, Classification] = {}
        out: list[Classification] = []
        for v in verdicts:
            cls = cut if v is None else made.get(v)
            if cls is None:
                n, entry = v
                if entry is None:
                    cls, needed = EventuallyTrivial(n), n
                else:
                    cycle, weights = [entry], []
                    while True:
                        step = nodes[cycle[-1]][0]
                        weights.append(step.weight)
                        if step.target == entry:
                            break
                        cycle.append(step.target)
                    cls = EntersCycle(n, tuple(cycle), tuple(weights))
                    needed = n + len(cycle)
                cls = made[v] = cls if needed <= max_steps else cut
            out.append(cls)
        return out

    def orbit(self, curve: Curve, max_steps: int = 1000) -> OrbitResult:
        """The orbit of a curve in any spelling, cut after ``max_steps`` pullbacks."""
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        start = self.canonicalize(curve.axis, curve.conjugator)
        nodes, found = self._walk((start,), max_steps)
        # one walk meets the curves in orbit order; only the last may lack a step
        steps = tuple(node[0] for node in nodes.values() if node[0] is not None)
        return OrbitResult(start, steps, self._records(nodes, found, max_steps)[0])

    def classify(self, curves: Iterable[Curve], max_steps: int = 1000) -> list[Classification]:
        """``orbit(c, max_steps).classification`` for each canonical curve
        (``orbit`` alone canonicalizes), each distinct curve pulled back
        at most once."""
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        return self._records(*self._walk(curves, max_steps), max_steps)

    def sweep(self, max_len: int, max_steps: int = 1000) -> list[tuple[int, Classification, int]]:
        """The classifications of ``enumerate_curves(max_len)``, counted:
        (conjugator length, classification, number of curves) triples.

        Only the targets of ``prefix_states`` are walked.  A state's curves
        take their target's verdict plus one step, except a curve on a
        cycle, which enters it at itself.  Raises as ``prefix_states``.
        """
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        by_target: dict[Curve | None, dict[int, int]] = {None: {}}  # target -> length -> curves
        for length, target, count in self.prefix_states(max_len):
            at = by_target.setdefault(target, {})
            at[length] = at.get(length, 0) + count
        nodes, found = self._walk(list(by_target)[1:], max_steps)
        on_cycles = [c for c, node in nodes.items() if node[1] and not node[1][0] and len(c.conjugator) <= max_len]
        for c in on_cycles:
            by_target[nodes[c][0].target][len(c.conjugator)] -= 1
        verdicts = [(1, None), *(v and (v[0] + 1, v[1]) for v in found), *((0, c) for c in on_cycles)]
        groups = [*by_target.values(), *({len(c.conjugator): 1} for c in on_cycles)]
        return [
            (length, cls, count)
            for at, cls in zip(groups, self._records(nodes, verdicts, max_steps))
            for length, count in at.items()
            if count
        ]

    # -- enumeration ---------------------------------------------------------

    def enumerate_curves(self, max_conjugator_length: int) -> list[Curve]:
        """All canonical curves whose conjugator has reduced length at
        most the bound, ordered by axis, then by conjugator length, then
        by letters in the order x, x^-1, y, y^-1.

        Canonical conjugators are prefix-closed: a prefix agrees with the
        axis powers no further than the whole word does, and a tie is
        decided within the first |axis|/2 letters.  So each length grows
        from the canonical conjugators one letter shorter, keeping the
        canonical children, and every curve appears once and in order.
        """
        if max_conjugator_length < 0:
            raise ValueError("max_conjugator_length must be >= 0")
        out: list[Curve] = []
        for axis in range(3):
            layer = [Curve(axis, Word.identity())]
            out.extend(layer)
            for _ in range(max_conjugator_length):
                grown: list[Curve] = []
                for parent in layer:
                    codes = parent.conjugator.codes
                    for c in (1, -1, 2, -2):
                        if codes and codes[-1] == -c:
                            continue
                        child = Word(codes + (c,), _reduced=True)
                        curve = self.canonicalize(axis, child)
                        # canonicalize keeps a canonical word itself
                        if curve.conjugator is child:
                            grown.append(curve)
                layer = grown
                out.extend(layer)
        return out

    def prefix_states(self, max_conjugator_length: int) -> list[tuple[int, Curve | None, int]]:
        """The curves of ``enumerate_curves``, merged into states of one
        conjugator length and one pullback target without being listed:
        one (length, target, number of curves) per state, with target
        None for a trivial image.

        The pullback of (u, w) reads only theta(w) and the scan of w from
        the state theta(w) (see ``pullback``).  So one walk grows the
        conjugators a letter at a time, as ``enumerate_curves`` does, for
        all six slots (u, s) of an axis u and a final parity s at once,
        and keeps of each prefix p of a slot only its key: the state after
        reading p from s, which is s + theta(p) mod 2; the id of the
        reduced scan of p from s, or None in a slot whose image is
        trivial, which reads no scan; its last letter; and (u, p) while p
        follows the power stream of u or of u^-1.  Prefixes with equal
        keys merge into one entry, which counts them per slot.  Equal keys
        have equal futures in every slot:

        - The scan of p c from s is the reduced product of the scan of p
          and that of c from the state after p, and p c is reduced unless
          c cancels the last letter.  So the key of p c follows from the
          key of p and from c, whatever the slot.
        - By ``canonicalize``, whether a reduced word is canonical
          depends only on how far it follows the stream that its first
          letter starts (u[0] != u^-1[0] for a cyclically reduced u) and,
          at a tie, on that letter.  A prefix that has left both streams
          has fixed both, so every reduced extension of a canonical one
          is canonical, whatever u is.  A prefix on a stream is the only
          one of its length there, its key names u, and ``canonicalize``
          tests its children.
        - A prefix in state 0 has theta(p) = s, and every curve it counts
          in slot (u, s) has the target read from entry [u][s] and the
          common scan.

        Each slot's counts are one field of ``width`` bits of an int, wide
        enough for every prefix of the longest length, so merging adds
        the ints.  The scans, their moves and the targets are kept for
        one call.

        Raises PullbackError if a twist-table entry holds a fault, whether
        or not a curve reads it.
        """
        if max_conjugator_length < 0:
            raise ValueError("max_conjugator_length must be >= 0")
        for row in self._twists:
            for entry in row:
                if entry.fault is not None:
                    raise PullbackError(entry.fault)
        steps = self.psi.steps
        width = (4 * 3**max_conjugator_length).bit_length()
        mask = (1 << width) - 1
        scans = [()]  # scan id -> scan letters
        ids = {(): 0}  # scan letters -> scan id
        moves: dict[tuple, list] = {}  # (state, scan id) -> (letter, state after, scan id after) per letter
        layer = {}  # (state, scan id, last letter, (axis, prefix) on a stream) -> counts per slot
        slots = []  # (shift, target axis, conjugator, target by scan id) per slot
        targets: dict[tuple, dict] = {(None, Word.identity()): {None: None}}  # a trivial image: no scan, no target
        for u, row in enumerate(self._twists):
            for s, entry in enumerate(row):
                shift = (2 * u + s) * width
                layer[s, None if entry.target is None else 0, 0, (u, ())] = 1 << shift
                found = targets.setdefault((entry.target, entry.conjugator), {})
                slots.append((shift, entry.target, entry.conjugator, found))
        # the two power streams of each axis, as far as the longest conjugator follows them
        streams = [[block * (max_conjugator_length // len(block) + 1) for block in pair] for pair in self._axis_codes]
        out: list[tuple[int, Curve | None, int]] = []
        for length in range(max_conjugator_length + 1):
            if length:
                heads = [(plus[:length], minus[:length]) for plus, minus in streams]
                grown: dict[tuple, int] = {}
                for (state, sid, last, on), count in layer.items():
                    here = moves.get((state, sid))
                    if here is None:
                        here = moves[state, sid] = []
                        for c, (emit, after) in steps[state].items():
                            nxt = sid
                            if sid is not None and emit:
                                scan = scans[sid]
                                k = 0
                                while k < len(emit) and k < len(scan) and scan[-1 - k] == -emit[k]:
                                    k += 1
                                scan = scan[: len(scan) - k] + emit[k:]
                                nxt = ids.setdefault(scan, len(scans))
                                if nxt == len(scans):
                                    scans.append(scan)
                            here.append((c, after, nxt))
                    for c, after, nxt in here:
                        if c == -last:
                            continue
                        key = (after, nxt, c, None)
                        if on is not None:
                            u, prefix = on
                            child = Word(prefix + (c,), _reduced=True)
                            if self.canonicalize(u, child).conjugator is not child:
                                continue
                            if child.codes in heads[u]:
                                key = (after, nxt, c, (u, child.codes))
                        grown[key] = grown.get(key, 0) + count
                layer = grown
            for (state, sid, _, _), count in layer.items():
                if state:
                    continue
                for shift, target_axis, v, found in slots:
                    n = count >> shift & mask
                    if n:
                        if sid not in found:
                            found[sid] = self.canonicalize(target_axis, v * Word(scans[sid], _reduced=True))
                        out.append((length, found[sid], n))
        return out

    # -- parsing and formatting ----------------------------------------------

    def parse_curve(self, text: str) -> Curve:
        m = _CURVE_RE.match(text)
        if not m:
            raise ValueError(f"bad curve expression {text!r}; expected AXIS or AXIS^(WORD)")
        axis_name, word_text = m.group(1), (m.group(2) or "").strip()
        names = self.mapdef.axis_names
        if axis_name not in names:
            raise ValueError(f"unknown axis {axis_name!r}; have {list(names)}")
        conj = Word.identity()
        if word_text:
            conj = parse_word(word_text, self.mapdef.names())
        return self.canonicalize(names.index(axis_name), conj)

    def format_curve(self, curve: Curve) -> str:
        name = self.mapdef.axis_names[curve.axis]
        if curve.conjugator.is_identity():
            return name
        return f"{name}^({self.mapdef.format(curve.conjugator)})"

