"""Tests of the benchmark itself: seeded inputs and reference checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = workloads.generate(workload, 7, str(tmp_path / "a"))
    second = workloads.generate(workload, 7, str(tmp_path / "b"))
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    other = workloads.generate(workload, 8, str(tmp_path / "c"))
    if workload == "sweep":
        assert other == first  # exhaustive inputs do not depend on the seed
    else:
        assert other != first


def test_section_conjugator_lengths():
    assert [len(workloads.section_conjugator(n)) for n in workloads.SECTION_DEPTHS] == [
        509, 1021, 2045, 4093, 8189]


def _op(workload, label_prefix, tmp_path):
    ops = workloads.generate(workload, 3, str(tmp_path))
    return next(op for op in ops if op["label"].startswith(label_prefix))


def _answer(results):
    return json.dumps({"results": results})


def test_sweep_checker_counts_changed_histogram(tmp_path):
    op = _op("sweep", "sweep rabbit", tmp_path)
    good = checks.frozen_sweep("rabbit")
    assert checks.check(op, 0, _answer(good)) is None
    bad = copy.deepcopy(good)
    bad["histogram"][0]["count"] += 1
    bad["histogram"][-1]["count"] -= 1
    assert checks.check(op, 0, _answer(bad)) is not None
    flipped = copy.deepcopy(good)
    flipped["histogram"][0]["kind"] = "unresolved"
    assert checks.check(op, 0, _answer(flipped)) is not None
    assert checks.check(op, 1, _answer(good)) is not None


def test_sweep_checker_dendrite_bound(tmp_path):
    op = _op("sweep", "sweep dendrite", tmp_path)
    good = checks.frozen_sweep("dendrite")
    assert checks.check(op, 0, _answer(good)) is None
    late = copy.deepcopy(good)
    late["histogram"][-1]["steps"] = 36  # beyond 4*8+3
    assert checks.check(op, 0, _answer(late)) is not None


def _orbit(kind, n_steps, alive=None, **extra):
    alive = n_steps - 1 if alive is None else alive
    steps = [{"target": "b" if i < alive else None} for i in range(n_steps)]
    cls = {"kind": kind, "steps": n_steps} if kind == "trivial" else dict(kind=kind, **extra)
    return {"steps": steps, "classification": cls}


def test_orbit_checker(tmp_path):
    section = _op("long_words", "orbit dendrite b^(w_8)", tmp_path)
    assert checks.check(section, 0, _answer(_orbit("trivial", 11))) is None
    # Trivial too early: b^(w_8) must survive 8 pullbacks.
    assert checks.check(section, 0, _answer(_orbit("trivial", 8))) is not None
    assert checks.check(section, 0, _answer(_orbit("trivial", section["expect"]["trivial_within"] + 1))) is not None
    cycle = _orbit("cycle", 3, alive=3, cycle=["x", "y", "z"], cycle_weight_product="1/4")
    assert checks.check(section, 0, _answer(cycle)) is not None

    rabbit = _op("long_words", "orbit rabbit random", tmp_path)
    assert checks.check(rabbit, 0, _answer(cycle)) is None
    assert checks.check(rabbit, 0, _answer(_orbit("trivial", 4))) is None
    wrong = _orbit("cycle", 3, alive=3, cycle=["x", "y", "z"], cycle_weight_product="1/2")
    assert checks.check(rabbit, 0, _answer(wrong)) is not None
    unresolved = _orbit("unresolved", 3, alive=3, max_steps=1000)
    assert checks.check(rabbit, 0, _answer(unresolved)) is not None


def test_verify_checker(tmp_path):
    op = _op("long_words", "verify", tmp_path)
    items = [{"label": str(i), "ok": True, "detail": ""} for i in range(17)]
    good = {"suites": [{"suite": "prop84", "passed": 17, "total": 17, "items": items}], "ok": True}
    assert checks.check(op, 0, _answer(good)) is None
    bad = copy.deepcopy(good)
    bad["suites"][0]["items"][5]["ok"] = False
    assert checks.check(op, 0, _answer(bad)) is not None


def test_spectra_checker_counts_flipped_verdict(tmp_path):
    ops = workloads.generate("spectra", 3, str(tmp_path))
    for op in ops:
        expect = op["expect"]
        good = {"leading_eigenvalue": expect["rho"], "contracting": expect["contracting"],
                **{k: expect[k] for k in ("cycle_weight_product", "cycle_length") if k in expect}}
        assert checks.check(op, 0, _answer(good)) is None, op["label"]
        flipped = dict(good, contracting=not expect["contracting"])
        assert checks.check(op, 0, _answer(flipped)) is not None, op["label"]
        off = dict(good, leading_eigenvalue=expect["rho"] * 1.001)
        assert checks.check(op, 0, _answer(off)) is not None, op["label"]
        assert checks.check(op, 2, "") is not None


def test_spectra_references_follow_construction(tmp_path):
    """Cycle matrices have rho = product^(1/p); dense ones rho = row sum."""
    from fractions import Fraction

    ops = workloads.generate("spectra", 5, str(tmp_path))
    for op in ops:
        if "input_file" not in op or op["label"].startswith("spectra mix"):
            continue
        with open(tmp_path / op["input_file"], encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        rows = [[Fraction(e) for e in line.split()] for line in lines[1:] if line]
        if op["label"].startswith("spectra cycle"):
            product = Fraction(1)
            for row in rows:
                product *= sum(row)
            assert abs(float(product) ** (1 / len(rows)) - op["expect"]["rho"]) < 1e-12
        else:
            assert {sum(row) for row in rows} == {Fraction(op["expect"]["rho"])}
        assert op["expect"]["contracting"] == (op["expect"]["rho"] < 1)


def test_tracer_records_and_restores(tmp_path):
    from curvepull import cli, curves, load_map, words

    load_map("rabbit")  # parse the built-in map outside the trace, as run.py does
    original = (curves.PullbackSystem.pullback, words.parse_word, words.Word.__init__, cli._emit)
    tracer = tracing.Tracer()
    with tracer.installed(), redirect_stdout(io.StringIO()):
        assert cli.main(["orbit", "--map", "rabbit", "--curve", "x^(y x)"]) == 0
    assert (curves.PullbackSystem.pullback, words.parse_word, words.Word.__init__, cli._emit) == original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["curves.pullback.calls"] >= 1
    assert metrics["words.parse_word.calls"] == 1
    assert metrics["cli._emit.s"] > 0
    path = str(tmp_path / "spans.bin")
    tracer.write(path)
    labels, arrays = tracing.read_spans(path)
    assert labels == tracer.labels
    assert list(arrays["parent"]) == list(tracer.parent)
    assert list(arrays["end"]) == list(tracer.end)
