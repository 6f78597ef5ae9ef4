"""Layer tracing for the benchmark, installed at runtime from outside src/.

``Tracer.installed()`` replaces the public functions and methods of the
curvepull modules words, endo, curves, spectra, mapdef, verify and cli
(plus ``cli._emit``) with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Spans are kept in
memory in flat arrays and written out with ``write``.  ``Word.__init__``
and ``Word.__pow__`` run far too often for spans, so they only count.
Leaving the context restores every original function.

Spans come from one process.  A sweep with worker processes runs its
orbits where these wrappers cannot see them, so traced sweeps use
``--jobs 1``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = ("words", "endo", "curves", "spectra", "mapdef", "verify", "cli")
PRIVATE_SPANS = {"cli": ("_emit",)}


class Tracer:
    """Spans and counters for one traced pass.

    ``only`` limits the wrapped functions to the given span labels, for a
    run that times one function and leaves the rest untouched.
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.pulled_back: set = set()
        self.max_orbit_conjugator = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _span(self, label: str, fn, observe=None):
        nid = self._label_id(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[label] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__module__ = getattr(fn, "__module__", None)
        return wrapper

    def _observers(self) -> dict:
        counts = self.counts

        def apply(args, _result):
            counts["endo.VirtualEndo.apply.letters_in"] += len(args[1])

        def pullback(args, _result):
            self.pulled_back.add((args[0].mapdef.name, args[1]))

        def orbit(_args, result):
            lengths = [len(result.start.conjugator)]
            lengths += [len(st.target.conjugator) for st in result.steps if st.target is not None]
            self.max_orbit_conjugator = max(self.max_orbit_conjugator, *lengths)

        def enumerate_curves(_args, result):
            counts["curves.enumerate_curves.kept"] += len(result)

        return {
            "endo.VirtualEndo.apply": apply,
            "curves.PullbackSystem.pullback": pullback,
            "curves.PullbackSystem.orbit": orbit,
            "curves.PullbackSystem.enumerate_curves": enumerate_curves,
        }

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))  # the raw descriptor on classes
        setattr(owner, attr, value)

    def _wanted(self, label: str) -> bool:
        return self.only is None or label in self.only

    def _install(self) -> None:
        package = importlib.import_module("curvepull")
        modules = {m: importlib.import_module(f"curvepull.{m}") for m in MODULES}
        holders = [package, *modules.values()]
        observers = self._observers()
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and name not in PRIVATE_SPANS.get(short, ()):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere, or already wrapped there
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        label = f"{short}.{name}.{attr}"
                        if attr.startswith("_") or not self._wanted(label):
                            continue
                        if isinstance(member, (classmethod, staticmethod)):
                            self._patch(obj, attr, type(member)(self._span(label, member.__func__)))
                        elif inspect.isfunction(member):
                            self._patch(obj, attr, self._span(label, member, observers.get(label)))
                elif callable(obj) and self._wanted(f"{short}.{name}"):
                    wrapped = self._span(f"{short}.{name}", obj, observers.get(f"{short}.{name}"))
                    # `from .x import f` copies the reference, so replace every copy.
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, key, wrapped)
        if self.only is None:
            self._install_counters(modules["words"].Word)

    def _install_counters(self, word_cls) -> None:
        counts = self.counts
        init, power = word_cls.__init__, word_cls.__pow__

        def counted_init(self, codes=(), *, _reduced=False):
            if not _reduced:
                codes = tuple(codes)
                counts["words.Word.letters_reduced"] += len(codes)
            init(self, codes, _reduced=_reduced)

        def counted_pow(self, n):
            counts["words.Word.pow.calls"] += 1
            return power(self, n)

        self._patch(word_cls, "__init__", counted_init)
        self._patch(word_cls, "__pow__", counted_pow)

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    # -- reading -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per label: calls, inclusive seconds, and self seconds (outside
        the label's direct child spans)."""
        child = [0.0] * len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for d, p in zip(durations, self.parent):
            if p >= 0:
                child[p] += d
        out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in self.labels}
        for nid, d, c in zip(self.name, durations, child):
            row = out[self.labels[nid]]
            row["calls"] += 1
            row["s"] += d
            row["self_s"] += d - c
        return out

    def child_calls(self, parent_label: str, label: str) -> int:
        """Calls of ``label`` made directly from inside ``parent_label``."""
        if parent_label not in self._label_ids or label not in self._label_ids:
            return 0
        pid, cid = self._label_ids[parent_label], self._label_ids[label]
        name = self.name
        return sum(1 for nid, p in zip(name, self.parent) if nid == cid and p >= 0 and name[p] == pid)

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"labels": self.labels, "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field] = arr
    return header["labels"], arrays


# Per-layer metric name -> (span label, aggregate field), unit.
SPAN_METRICS = {
    "words.parse_word.s": ("words.parse_word", "s"),
    "words.parse_word.calls": ("words.parse_word", "calls"),
    "endo.VirtualEndo.apply.calls": ("endo.VirtualEndo.apply", "calls"),
    "endo.VirtualEndo.apply.s": ("endo.VirtualEndo.apply", "s"),
    "curves.enumerate_curves.s": ("curves.PullbackSystem.enumerate_curves", "s"),
    "curves.pullback.calls": ("curves.PullbackSystem.pullback", "calls"),
    "curves.pullback.s": ("curves.PullbackSystem.pullback", "s"),
    "curves.canonicalize.calls": ("curves.PullbackSystem.canonicalize", "calls"),
    "curves.canonicalize.s": ("curves.PullbackSystem.canonicalize", "s"),
    "curves.orbit.s": ("curves.PullbackSystem.orbit", "s"),
    "cli.run_sweep.self_s": ("cli.run_sweep", "self_s"),
    "cli._emit.s": ("cli._emit", "s"),
    "spectra.leading_eigenvalue.s": ("spectra.leading_eigenvalue", "s"),
    "spectra.is_contracting.s": ("spectra.is_contracting", "s"),
    "spectra.parse_matrix.s": ("spectra.parse_matrix", "s"),
    "mapdef.load_map.s": ("mapdef.load_map", "s"),
    "verify.run_suite.s": ("verify.run_suite", "s"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (those that need no
    second pass; run.py adds the pool and overhead differences)."""
    agg = tracer.aggregate()
    out = {name: agg.get(label, {}).get(field, 0) for name, (label, field) in SPAN_METRICS.items()}
    counts = tracer.counts
    out["words.Word.letters_reduced"] = counts["words.Word.letters_reduced"]
    out["words.Word.pow.calls"] = counts["words.Word.pow.calls"]
    out["endo.VirtualEndo.apply.letters_in"] = counts["endo.VirtualEndo.apply.letters_in"]
    canonicalized = tracer.child_calls("curves.PullbackSystem.enumerate_curves",
                                       "curves.PullbackSystem.canonicalize")
    out["curves.enumerate_curves.canonicalized"] = canonicalized
    out["curves.enumerate_curves.kept_ratio"] = (
        counts["curves.enumerate_curves.kept"] / canonicalized if canonicalized else 0.0)
    calls = out["curves.pullback.calls"]
    out["curves.pullback.distinct_ratio"] = len(tracer.pulled_back) / calls if calls else 0.0
    out["curves.orbit.max_conjugator_len"] = tracer.max_orbit_conjugator
    out["spectra.leading_eigenvalue.failed"] = tracer.raised["spectra.leading_eigenvalue"]
    return out
