import argparse
import collections
import gc
import json
import os
from fractions import Fraction

import pytest

from curvepull import cli, mapdef, spectra, verify
from curvepull.cli import main
from curvepull.curves import EntersCycle, OrbitResult, PullbackError, PullbackSystem

RABBIT_TEXT = """\
map twinrabbit
gen x parity 0
gen y parity 1
axis z = y^-1 x^-1
schreier x -> y
schreier y y -> y^-1 x^-1
schreier y^-1 x y -> 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_orbit_rabbit_text(capsys):
    code, out, _ = run(capsys, "orbit", "--map", "rabbit", "--curve", "x")
    assert code == 0
    assert "step 1: target y  s 1  t 1  weight 1" in out
    assert "step 2: target z  s 2  t 1  weight 1/2" in out
    assert "cycle: x -> y -> z" in out
    assert "cycle weight product: 1/4" in out


def test_orbit_json_round_trips_weights(capsys):
    code, doc = run_json(capsys, "orbit", "--map", "rabbit", "--curve", "x")
    assert code == 0
    weights = [Fraction(s["weight"]) for s in doc["results"]["steps"]]
    assert weights == [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    cls = doc["results"]["classification"]
    assert cls["kind"] == "cycle"
    assert Fraction(cls["cycle_weight_product"]) == Fraction(1, 4)
    assert cls["cycle"] == ["x", "y", "z"]


def test_orbit_dendrite_trivial(capsys):
    code, doc = run_json(capsys, "orbit", "--map", "dendrite", "--curve", "a")
    assert code == 0
    assert doc["results"]["classification"] == {"kind": "trivial", "steps": 1}


def test_orbit_section_conjugate(capsys):
    code, doc = run_json(
        capsys, "orbit", "--map", "dendrite", "--curve", "b^(a b^-1 a^-1 b^-1 a)"
    )
    assert code == 0
    steps = doc["results"]["steps"]
    assert [s["weight"] for s in steps[:2]] == ["1", "1"]
    assert steps[1]["target"] == "b"
    assert doc["results"]["classification"]["steps"] == 5


def test_orbit_unresolved_is_success(capsys):
    code, doc = run_json(
        capsys, "orbit", "--map", "rabbit", "--curve", "x", "--max-steps", "1"
    )
    assert code == 0
    assert doc["results"]["classification"]["kind"] == "unresolved"


GOLDEN = {
    ("orbit", "--map", "rabbit", "--curve", "z^(x y^-1)"): """\
map: rabbit
curve: z^(x y^-1)
step 1: target x^(y)  s 2  t 1  weight 1/2
step 2: target o  s 1  t 0  weight 0
classification: trivial after 2 steps
""",
    ("verify", "--map", "dendrite", "--suite", "prop84", "--n", "2"): """\
map: dendrite
PASS prop84: psi(section(w)) = w
PASS prop84: psi^1(b^(w_1)) = b
PASS prop84: psi^2(b^(w_2)) = b
suite prop84: 3/3 pass
""",
    ("sweep", "--map", "rabbit", "--max-len", "2"): """\
map: rabbit
curves with conjugator length <= 2: 30
  cycle with preperiod 0: 3
  cycle with preperiod 1: 6
  cycle with preperiod 2: 2
  cycle with preperiod 3: 1
  trivial in 1: 6
  trivial in 2: 7
  trivial in 3: 3
  trivial in 4: 1
  trivial in 5: 1
sweep: ok
""",
    ("spectra", "--cycle-of", "x", "--map", "rabbit"): """\
map: rabbit
cycle: x -> y -> z
cycle weight product: 1/4
leading eigenvalue: 0.629960524947
contracting: true
""",
    ("mapinfo", "--map", "rabbit"): """\
map: rabbit
generator x: parity 0
generator y: parity 1
coset representative: y
axes: x, y, z = y^-1 x^-1
schreier x -> y
schreier y^-1 x y -> 1
schreier y y -> y^-1 x^-1
""",
}


# A step cut that leaves orbits unresolved fails the sweep, one line per curve.
UNRESOLVED_SWEEP = ("sweep", "--map", "rabbit", "--max-len", "2", "--max-steps", "2")
UNRESOLVED_SWEEP_TEXT = """\
map: rabbit
curves with conjugator length <= 2: 30
  trivial in 1: 6
  trivial in 2: 7
  unresolved after 2: 17
COUNTEREXAMPLE x: unresolved
COUNTEREXAMPLE x^(y y): unresolved
COUNTEREXAMPLE x^(y^-1 y^-1): unresolved
COUNTEREXAMPLE y: unresolved
COUNTEREXAMPLE y^(x): unresolved
COUNTEREXAMPLE y^(x^-1): unresolved
COUNTEREXAMPLE y^(x x): unresolved
COUNTEREXAMPLE y^(x y): unresolved
COUNTEREXAMPLE y^(x y^-1): unresolved
COUNTEREXAMPLE y^(x^-1 x^-1): unresolved
COUNTEREXAMPLE y^(x^-1 y): unresolved
COUNTEREXAMPLE y^(x^-1 y^-1): unresolved
COUNTEREXAMPLE z: unresolved
COUNTEREXAMPLE z^(y): unresolved
COUNTEREXAMPLE z^(x x): unresolved
COUNTEREXAMPLE z^(x^-1 x^-1): unresolved
COUNTEREXAMPLE z^(x^-1 y): unresolved
sweep: 17 counterexamples
"""

# The fixed map named dendrite: every curve fails two rows, in table order.
FIXED_AS_DENDRITE_SWEEP = ("sweep", "--map", "FIXED-AS-DENDRITE", "--max-len", "1")
FIXED_AS_DENDRITE_SWEEP_TEXT = """\
map: dendrite
curves with conjugator length <= 1: 10
  cycle with preperiod 0: 10
COUNTEREXAMPLE x: obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE x: enters a cycle, expected trivial
COUNTEREXAMPLE x^(y): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE x^(y): enters a cycle, expected trivial
COUNTEREXAMPLE x^(y^-1): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE x^(y^-1): enters a cycle, expected trivial
COUNTEREXAMPLE y: obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE y: enters a cycle, expected trivial
COUNTEREXAMPLE y^(x): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE y^(x): enters a cycle, expected trivial
COUNTEREXAMPLE y^(x^-1): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE y^(x^-1): enters a cycle, expected trivial
COUNTEREXAMPLE z: obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE z: enters a cycle, expected trivial
COUNTEREXAMPLE z^(x): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE z^(x): enters a cycle, expected trivial
COUNTEREXAMPLE z^(x^-1): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE z^(x^-1): enters a cycle, expected trivial
COUNTEREXAMPLE z^(y): obstruction, cycle weight product 1 >= 1
COUNTEREXAMPLE z^(y): enters a cycle, expected trivial
sweep: 20 counterexamples
"""


@pytest.mark.parametrize(
    "argv, code, text",
    [
        *(pytest.param(argv, 0, text, id=argv[0]) for argv, text in GOLDEN.items()),
        pytest.param(UNRESOLVED_SWEEP, 1, UNRESOLVED_SWEEP_TEXT, id="sweep-unresolved"),
        pytest.param(FIXED_AS_DENDRITE_SWEEP, 1, FIXED_AS_DENDRITE_SWEEP_TEXT, id="sweep-fixed-as-dendrite"),
    ],
)
def test_text_output_golden(capsys, tmp_path, fixed_map_text, argv, code, text):
    if "FIXED-AS-DENDRITE" in argv:
        f = tmp_path / "fixed.map"
        f.write_text(fixed_map_text.replace("map fixed", "map dendrite"))
        argv = [str(f) if a == "FIXED-AS-DENDRITE" else a for a in argv]
    assert run(capsys, *argv) == (code, text, "")


@pytest.mark.parametrize("argv", GOLDEN, ids=lambda argv: argv[0])
def test_json_envelope(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    own = {"spectra": ["inputs", "results"], "mapinfo": ["map", "results"]}
    assert list(doc) == ["command", *own.get(argv[0], ["map", "inputs", "results"]), "elapsed_s"]
    assert doc["command"] == argv[0]


def test_orbit_bad_curve(capsys):
    code, _, err = run(capsys, "orbit", "--map", "rabbit", "--curve", "w")
    assert code == 2
    assert "unknown axis" in err


def test_word_literals_past_the_letter_cap(capsys, tmp_path):
    # each is rejected before its letters are built, naming the token
    for word, token in (
        ("y^1000000000", "y^1000000000"),
        ("y^99999999999999999999", "y^99999999999999999999"),
        ("y^500000 x^-500001", "x^-500001"),
    ):
        code, _, err = run(capsys, "orbit", "--map", "rabbit", "--curve", f"x^({word})")
        assert code == 2
        assert f"token {token!r} takes the literal past 1000000 letters" in err
    f = tmp_path / "huge.map"
    f.write_text(RABBIT_TEXT.replace("schreier x -> y", "schreier x -> y^1000000000"))
    code, _, err = run(capsys, "mapinfo", "--map", str(f))
    assert code == 2
    assert "'y^1000000000' takes the literal past 1000000 letters" in err


def test_orbit_unknown_map(capsys):
    code, _, err = run(capsys, "orbit", "--map", "airplane", "--curve", "x")
    assert code == 2
    assert "unknown map" in err


def test_verify_table7(capsys):
    code, out, _ = run(capsys, "verify", "--map", "rabbit", "--suite", "table7")
    assert code == 0
    assert "suite table7: 49/49 pass" in out


def test_verify_all_dendrite(capsys):
    code, doc = run_json(capsys, "verify", "--map", "dendrite", "--suite", "all", "--n", "6")
    assert code == 0
    assert doc["results"]["ok"] is True
    assert [s["suite"] for s in doc["results"]["suites"]] == [
        "recursions",
        "prop84",
        "lemma83",
    ]


def test_verify_suite_mismatch(capsys):
    code, _, err = run(capsys, "verify", "--map", "rabbit", "--suite", "lemma83")
    assert code == 2
    assert "requires map dendrite" in err


def test_verify_failure_exit_code(capsys, tmp_path):
    # a user map claiming to be the rabbit but with a corrupted image
    # fails the table suite with exit code 1
    f = tmp_path / "rabbit.map"
    f.write_text(RABBIT_TEXT.replace("map twinrabbit", "map rabbit").replace(
        "schreier x -> y", "schreier x -> y y"
    ))
    code, out, _ = run(capsys, "verify", "--map", str(f), "--suite", "table7")
    assert code == 1
    assert "FAIL" in out


def test_corrupted_rabbit_and_builtin_rabbit_keep_their_verdicts_in_one_process(capsys, tmp_path):
    # Transducers are shared between maps with equal images, so a map
    # named rabbit with another image must not get or leave the built-in's.
    f = tmp_path / "rabbit.map"
    f.write_text(RABBIT_TEXT.replace("map twinrabbit", "map rabbit").replace(
        "schreier x -> y", "schreier x -> y y"
    ))
    mapdef._endomorphism.cache_clear()
    for _ in range(2):
        assert run(capsys, "verify", "--map", str(f), "--suite", "all")[0] == 1
        assert run(capsys, "verify", "--map", "rabbit", "--suite", "all")[0] == 0


def test_sweep_rabbit_len0(capsys):
    code, doc = run_json(capsys, "sweep", "--map", "rabbit", "--max-len", "0", "--jobs", "1")
    assert code == 0
    res = doc["results"]
    assert res["curve_count"] == 3
    assert res["ok"] is True
    assert res["histogram"] == [{"kind": "cycle", "steps": 0, "count": 3}]


def test_sweep_dendrite_len0(capsys):
    code, doc = run_json(capsys, "sweep", "--map", "dendrite", "--max-len", "0", "--jobs", "1")
    assert code == 0
    hist = doc["results"]["histogram"]
    assert sum(h["count"] for h in hist) == 3
    assert all(h["kind"] == "trivial" and h["steps"] <= 3 for h in hist)


def test_sweep_reports_obstruction(capsys, tmp_path, fixed_map_text):
    # each axis curve is an invariant cycle of weight product >= 1
    f = tmp_path / "fixed.map"
    f.write_text(fixed_map_text)
    code, out, _ = run(capsys, "sweep", "--map", str(f), "--max-len", "0", "--jobs", "1")
    assert code == 1
    assert out.count("obstruction") == 3


def test_sweep_paper_facts_follow_the_map_name(capsys, tmp_path, fixed_map_text):
    # A map gets the sweep facts listed under its `map` name, as it gets the
    # verify suites: the fixed map named dendrite breaks "never enters a
    # cycle" on every curve, under its own name it gets the generic checks.
    f = tmp_path / "fixed.map"
    f.write_text(fixed_map_text.replace("map fixed", "map dendrite"))
    code, out, _ = run(capsys, "sweep", "--map", str(f), "--max-len", "0")
    assert code == 1
    assert out.count("obstruction") == out.count("enters a cycle, expected trivial") == 3
    f.write_text(fixed_map_text)
    _, out, _ = run(capsys, "sweep", "--map", str(f), "--max-len", "0")
    assert "expected trivial" not in out


# The rabbit's Schreier images pushed through x -> x y x^-1, y -> x: its
# orbits drift, so a sweep reports many counterexamples.
TWISTED_TEXT = """\
map twisted
gen x parity 0
gen y parity 1
axis z = y^-1 x^-1
schreier x -> x
schreier y^-1 x y -> 1
schreier y y -> y^-1 x^-1
"""

# The automorphism x -> y -> z -> x, of order 3, on the Schreier
# generators: every curve lies on a cycle of period 3, and most of these
# cycles pass through conjugators of two or three lengths.
ROTATION_TEXT = """\
map rotation
gen x parity 0
gen y parity 1
axis z = y^-1 x^-1
schreier x -> y
schreier y y -> y^-1 x^-1 y^-1 x^-1
schreier y^-1 x y -> x y x^-1
"""

# The map of test_curves.test_non_twist_image_raises: the pullback of b fails.
BROKEN_TEXT = """\
map broken
gen a parity 1
gen b parity 0
axis c = b^-1 a^-1
schreier a a -> 1
schreier b -> a a b
schreier a^-1 b a -> b
"""

SWEEP_CASES = {
    "rabbit-8": (["--map", "rabbit", "--max-len", "8"], 0, "sweep: ok"),
    "dendrite-8": (["--map", "dendrite", "--max-len", "8"], 0, "sweep: ok"),
    "cut": (["--map", "rabbit", "--max-len", "5", "--max-steps", "2"], 1, "sweep: 518 counterexamples"),
    "twisted-6": (["--map", "TWISTED", "--max-len", "6"], 1, "sweep: 1806 counterexamples"),
    "broken": (["--map", "BROKEN", "--max-len", "4"], 2, ""),
}
_serial_sweeps: dict = {}


@pytest.fixture(scope="module")
def sweep_maps(tmp_path_factory):
    d = tmp_path_factory.mktemp("maps")
    (d / "twisted.map").write_text(TWISTED_TEXT)
    (d / "broken.map").write_text(BROKEN_TEXT)
    (d / "rotation.map").write_text(ROTATION_TEXT)
    return {"TWISTED": str(d / "twisted.map"), "BROKEN": str(d / "broken.map"), "ROTATION": str(d / "rotation.map")}


@pytest.fixture
def forks(monkeypatch):
    """Fork calls made by this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def sweep_outputs(capsys, argv):
    """(exit code, stdout, stderr) as text, then as JSON without elapsed_s."""
    out = []
    for fmt in ("text", "json"):
        code, stdout, stderr = run(capsys, "sweep", *argv, "--format", fmt)
        if fmt == "json" and stdout:
            doc = json.loads(stdout)
            del doc["elapsed_s"]
            stdout = doc
        out.append((code, stdout, stderr))
    return out


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_parallel_matches_serial(capsys, sweep_maps, forks, case, jobs):
    # --jobs changes nothing, and no sweep forks
    argv, code, last = SWEEP_CASES[case]
    argv = [sweep_maps.get(a, a) for a in argv]
    (text_code, text, err), _ = got = sweep_outputs(capsys, [*argv, "--jobs", str(jobs)])
    if case not in _serial_sweeps:
        _serial_sweeps[case] = got if jobs == 1 else sweep_outputs(capsys, [*argv, "--jobs", "1"])
    assert got == _serial_sweeps[case]
    assert forks == []
    assert text_code == code
    assert text.rstrip("\n").rsplit("\n", 1)[-1] == last
    if case == "broken":
        assert err.startswith("error: pullback of b: ")


def test_jobs_is_validated_and_capped_by_the_usable_cpus(capsys, forks):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--map", "rabbit", "--max-len", "1", "--jobs", "0"])
    assert exc.value.code == 2
    assert "error: --jobs must be at least 1\n" in capsys.readouterr().err
    # any --jobs runs one process
    serial = run(capsys, "sweep", "--map", "rabbit", "--max-len", "4", "--jobs", "1")
    assert run(capsys, "sweep", "--map", "rabbit", "--max-len", "4", "--jobs", "1000000") == serial
    assert run(capsys, "sweep", "--map", "rabbit", "--max-len", "4") == serial
    assert forks == []


@pytest.mark.parametrize("name", ["rabbit", "dendrite", "fixed", "TWISTED", "ROTATION"])
def test_state_sweep_matches_the_curves(monkeypatch, sweep_maps, fixed_map_text, tmp_path, name):
    # With no checks, the state sweep always answers: so the verdicts it
    # derives from the targets', cycles and cut orbits included, are
    # compared on every input.  On the fixed and rotation maps every curve
    # is on a cycle; only the rotation's cycles mix conjugator lengths, so
    # only there does a cycle that starts at the wrong curve change the count.
    if name == "fixed":
        (tmp_path / "fixed.map").write_text(fixed_map_text)
        name = str(tmp_path / "fixed.map")
    system = PullbackSystem(mapdef.load_map(sweep_maps.get(name, name)))
    if name in ("rabbit", "dendrite"):  # they hold the paper's facts, so their states vouch for them
        assert all(cli._sweep_states(system, max_len, 1000) for max_len in range(cli.MAX_SWEEP_LENGTH + 1))
    monkeypatch.setattr(cli, "sweep_facts", lambda mapdef: [])
    for max_len in range(9 if name in ("rabbit", "dendrite") else 7):
        curves = system.enumerate_curves(max_len)
        for max_steps in (1, 2, 3, 5, 1000):
            classes = system.classify(curves, max_steps)
            report = cli._sweep_states(system, max_len, max_steps)
            got = report["curve_count"], report["histogram"]
            assert got == (len(curves), collections.Counter(map(cli._bucket, classes))), (max_len, max_steps)
            # whole records: a cycle that starts at the wrong curve has the right bucket
            swept = collections.Counter()
            for length, cls, count in system.sweep(max_len, max_steps):
                swept[length, cls] += count
            assert swept == collections.Counter(zip((len(c.conjugator) for c in curves), classes)), (max_len, max_steps)


def test_a_failed_length_test_falls_back_to_the_curves(capsys, monkeypatch):
    argv = ("sweep", "--map", "dendrite", "--max-len", "6")
    want = run(capsys, *argv)
    assert want[0] == 0
    enumerated = []
    enumerate_curves = PullbackSystem.enumerate_curves

    def counted(self, max_len):
        enumerated.append(max_len)
        return enumerate_curves(self, max_len)

    monkeypatch.setattr(PullbackSystem, "enumerate_curves", counted)
    assert run(capsys, *argv) == want
    assert enumerated == []
    # a dendrite row whose length test always fails: its check runs on every curve
    row = "trivial within 4|w|+3 steps"
    maps, check, _ = verify.SWEEP_FACTS[row]
    monkeypatch.setitem(verify.SWEEP_FACTS, row, (maps, check, lambda length, cls: False))
    assert run(capsys, *argv) == want
    assert enumerated == [6]


def test_the_curve_path_checks_each_classification_once(monkeypatch, sweep_maps):
    # A check with no length test reads the classification alone: the
    # curves, like the states, run it once per distinct classification.
    calls = []

    def counting(system, curve, cls):
        calls.append(cls)
        return None

    monkeypatch.setitem(verify.SWEEP_FACTS, "counting", (("twisted",), counting, None))
    system = PullbackSystem(mapdef.load_map(sweep_maps["TWISTED"]))
    report = cli._sweep_curves(system, 4, 1000)
    classes = system.classify(system.enumerate_curves(4), 1000)
    assert len(calls) == len({id(cls) for cls in calls}) == len(set(classes)) < len(classes)
    assert report["counterexamples"]  # the twisted map still fails its every-map row


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_sweep_turns_the_gc_off_and_restores_it(sweep_maps, monkeypatch, rabbit_system, enabled):
    broken = PullbackSystem(mapdef.load_map(sweep_maps["BROKEN"]))
    during = []
    for name in ("_sweep_states", "_sweep_curves"):
        path = getattr(cli, name)

        def watched(*args, path=path):
            during.append(gc.isenabled())
            return path(*args)

        monkeypatch.setattr(cli, name, watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        cli.run_sweep(rabbit_system, 4, 1000)
        # the broken map's twist table holds a fault: the curve path raises
        with pytest.raises(PullbackError, match="pullback of b"):
            cli.run_sweep(broken, 4, 1000)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] * 3  # the states of each sweep, then the broken map's curves


def _cycle_text(weights):
    """The matrix file of the cycle i -> i + 1 with weights[i] on that edge."""
    p = len(weights)
    rows = [["0"] * p for _ in range(p)]
    for i, w in enumerate(weights):
        rows[(i + 1) % p][i] = w
    return f"{p}\n" + "\n".join(" ".join(r) for r in rows) + "\n"


def test_spectra_matrix_file(capsys, tmp_path):
    f = tmp_path / "m.mat"
    f.write_text("2\n1/2 0\n0 1/3\n")
    code, doc = run_json(capsys, "spectra", "--matrix", str(f))
    assert code == 0
    assert doc["results"]["contracting"] is True
    assert abs(doc["results"]["leading_eigenvalue"] - 0.5) < 1e-9

    f.write_text("1\n1\n")
    code, doc = run_json(capsys, "spectra", "--matrix", str(f))
    assert code == 0
    assert doc["results"]["contracting"] is False

    # a 16-cycle with weight product 1/2 still gets an eigenvalue and verdict
    f.write_text(_cycle_text(["1/2"] + ["1"] * 15))
    code, doc = run_json(capsys, "spectra", "--matrix", str(f))
    assert code == 0
    assert doc["results"]["contracting"] is True
    assert abs(doc["results"]["leading_eigenvalue"] - 0.5 ** (1 / 16)) < 1e-9

    # rho far below 1 still converges and keeps its verdict
    f.write_text("2\n1/1000 0\n0 9/10000\n")
    code, doc = run_json(capsys, "spectra", "--matrix", str(f))
    assert code == 0
    assert doc["results"]["contracting"] is True
    assert doc["results"]["leading_eigenvalue"] == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize(
    "text, eigen, contracting",
    [
        pytest.param("2\n4/5 1\n0 4/5\n", "0.8", True, id="2x2-4/5"),
        pytest.param("2\n1 1\n0 1\n", "1", False, id="2x2-1"),
        pytest.param("3\n1/2 1 0\n0 1/2 1\n0 0 1/2\n", "0.5", True, id="3x3-1/2"),
        pytest.param("3\n1 1 0\n0 1 1\n0 0 1\n", "1", False, id="3x3-1"),
        # nearly decomposable, eigenvalues 1 and 1 - 3e-7: the column sums read rho exactly
        pytest.param("2\n0.9999999 0.0000002\n0.0000001 0.9999998\n", "1", False, id="near-1"),
        # eigenvalues about 4e-9 apart outlast the cap, and neither sum is constant
        pytest.param("2\n0.5 0.000000001\n0.000000003 0.5000000005\n", "not converged", True, id="near-1/2"),
        # an 11-cycle whose weights multiply to 1: rho is 1 to the last digit
        pytest.param(_cycle_text("2 1/2 3 1/3 5 1/5 7 1/7 3/2 2/3 1".split()), "1", False, id="11-cycle-product-1"),
        # rho beyond float range reads inf, below it 0
        pytest.param(f"1\n{10**400}\n", "inf", False, id="1x1-10^400"),
        pytest.param(f"2\n{10**400} {10**400}\n{10**400} {10**400}\n", "inf", False, id="2x2-all-10^400"),
        pytest.param(f"2\n1/{10**400} 0\n0 1/{10**400}\n", "0", True, id="diag-10^-400"),
        # badly balanced: an unscaled iteration loses 2^-870 next to 2^900;
        # D = diag(2^885, 1) balances it, and D 1 is its eigenvector
        pytest.param(f"2\n1 {2**900}\n1/{2**870} 1\n", "32769", False, id="2x2-2^900-2^-870"),
    ],
)
def test_spectra_keeps_the_exact_verdict_on_jordan_blocks(capsys, tmp_path, text, eigen, contracting):
    # each diagonal entry of a Jordan block is a block of its own, and a
    # cycle's class product is 1x1, so rho is exact; where the iteration
    # does hit its cap, the exact verdict is reported anyway; JSON has no
    # infinity, so a rho beyond float range is null there
    f = tmp_path / "m.mat"
    f.write_text(text)
    code, out, _ = run(capsys, "spectra", "--matrix", str(f))
    assert code == 0
    assert out.splitlines()[-2:] == [f"leading eigenvalue: {eigen}", f"contracting: {'true' if contracting else 'false'}"]
    code, doc = run_json(capsys, "spectra", "--matrix", str(f))
    assert code == 0 and doc["results"]["contracting"] is contracting
    lam = doc["results"]["leading_eigenvalue"]
    if eigen in ("not converged", "inf"):
        assert lam is None
    else:
        assert lam == pytest.approx(float(eigen), rel=1e-12)


def test_spectra_cycle_of(capsys):
    code, doc = run_json(capsys, "spectra", "--cycle-of", "x", "--map", "rabbit")
    assert code == 0
    assert doc["inputs"] == {"map": "rabbit", "curve": "x"}
    res = doc["results"]
    assert res["cycle_weight_product"] == "1/4"
    assert res["cycle_length"] == 3
    assert res["leading_eigenvalue"] == float(Fraction(1, 4)) ** (1 / 3)
    assert res["contracting"] is True
    code, out, _ = run(capsys, "spectra", "--cycle-of", "x", "--map", "rabbit")
    assert code == 0
    assert "leading eigenvalue: 0.629960524947\n" in out


@pytest.mark.parametrize(
    "weight, rho, contracting",
    [(Fraction(1, 2), 0.5, "true"), (2, 2.0, "false")],
    ids=["product-2^-1100", "product-2^1100"],
)
def test_spectra_cycle_of_long_cycle_outside_float_range(capsys, monkeypatch, weight, rho, contracting):
    # a period-1100 cycle: its weight product 2^-1100 or 2^1100 is no float
    def orbit(self, curve, max_steps=1000):
        cls = EntersCycle(0, (curve,) * 1100, (Fraction(weight),) * 1100)
        return OrbitResult(curve, (), cls)

    monkeypatch.setattr(PullbackSystem, "orbit", orbit)
    code, out, _ = run(capsys, "spectra", "--cycle-of", "x", "--map", "rabbit")
    assert code == 0
    assert f"leading eigenvalue: {rho:.12g}\n" in out
    assert f"contracting: {contracting}\n" in out
    code, doc = run_json(capsys, "spectra", "--cycle-of", "x", "--map", "rabbit")
    assert code == 0
    assert doc["results"]["leading_eigenvalue"] == pytest.approx(rho, rel=1e-12)
    assert doc["results"]["cycle_length"] == 1100


def test_spectra_cycle_of_trivial_orbit(capsys):
    code, _, err = run(capsys, "spectra", "--cycle-of", "a", "--map", "dendrite")
    assert code == 2
    assert "does not enter a cycle" in err


def test_spectra_help_states_the_default_tolerance(capsys):
    # the help spells the default out, so that building the parser does not load spectra;
    # the orbit cut and the sweep length state their defaults and caps too
    for command, stated in [
        ("spectra", f"--tol TOL stopping threshold of the --matrix power iteration (default {spectra.DEFAULT_TOL:g})"),
        ("orbit", f"--max-steps MAX_STEPS pullbacks per orbit before it is unresolved (default 1000, at most {cli.MAX_STEPS})"),
        ("sweep", f"--max-steps MAX_STEPS pullbacks per orbit before it is unresolved (default 1000, at most {cli.MAX_STEPS})"),
        ("sweep", f"--max-len MAX_LEN longest conjugator to classify, 0 to {cli.MAX_SWEEP_LENGTH}"),
    ]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert stated in " ".join(capsys.readouterr().out.split()), (command, stated)


def test_spectra_needs_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--map", "rabbit"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cycle-of", "x"], "--cycle-of requires --map"),
        (["--cycle-of", "x", "--map", "rabbit", "--tol", "1e-12"], "--tol applies only to --matrix"),
        *((["--matrix", "m.mat", "--tol", tol], "--tol must be a positive finite number") for tol in ("0", "-1", "nan", "inf")),
    ],
    ids=["cycle-of-without-map", "cycle-of-with-tol", "tol-0", "tol-minus-1", "tol-nan", "tol-inf"],
)
def test_spectra_usage_errors(capsys, argv, message):
    # rejected before any file is read
    with pytest.raises(SystemExit) as exc:
        main(["spectra", *argv])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--map", "rabbit"], ["--max-steps", "5"]])
def test_spectra_matrix_rejects_cycle_of_flags(capsys, tmp_path, extra):
    f = tmp_path / "m.mat"
    f.write_text("1\n1/2\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--matrix", str(f), *extra])
    assert exc.value.code == 2
    assert "apply only to --cycle-of" in capsys.readouterr().err


def test_spectra_cycle_of_takes_max_steps(capsys):
    code, out, _ = run(capsys, "spectra", "--cycle-of", "x", "--map", "rabbit", "--max-steps", "5")
    assert code == 0
    assert "cycle weight product: 1/4\n" in out
    code, _, err = run(capsys, "spectra", "--cycle-of", "x", "--map", "rabbit", "--max-steps", "2")
    assert code == 2
    assert "does not enter a cycle" in err


def test_spectra_malformed_matrix(capsys, tmp_path):
    f = tmp_path / "bad.mat"
    f.write_text("2\n1 0\n")
    code, _, err = run(capsys, "spectra", "--matrix", str(f))
    assert code == 2
    assert "expected 2 rows" in err

    f.write_text("2\n1/2 0\n1e999999999 1/3\n")
    code, _, err = run(capsys, "spectra", "--matrix", str(f))
    assert code == 2
    assert "row 2, column 1: '1e999999999' is not an integer, p/q or decimal (exponent notation is not accepted)" in err

    f.write_text("2\n1/2 -1\n0 1/3\n")
    code, _, err = run(capsys, "spectra", "--matrix", str(f))
    assert code == 2
    assert "row 1, column 2: matrix must be nonnegative, got -1" in err

    f.write_text("2\n1/2 foo\n0 1/3\n")
    code, _, err = run(capsys, "spectra", "--matrix", str(f))
    assert code == 2
    assert err == "error: row 1, column 2: 'foo' is not an integer, p/q or decimal\n"

    f.write_text("2\n1/2 0\n" + "7" * 5_000 + " 1/3\n")
    code, _, err = run(capsys, "spectra", "--matrix", str(f))
    assert code == 2
    assert err == "error: row 2, column 1: entry has 5000 digits, more than the 4300 accepted\n"

    # the cap is checked before any row is read
    f.write_text("201\n")
    code, _, err = run(capsys, "spectra", "--matrix", str(f))
    assert code == 2
    assert err == "error: dimension 201 is more than the 200 accepted\n"


def test_mapinfo(capsys):
    code, out, _ = run(capsys, "mapinfo", "--map", "dendrite")
    assert code == 0
    assert "generator a: parity 1" in out
    assert "coset representative: a" in out
    assert "schreier a a -> 1" in out


def test_mapinfo_user_map(capsys, tmp_path, monkeypatch):
    (tmp_path / "twinrabbit.map").write_text(RABBIT_TEXT)
    monkeypatch.setenv("CURVEPULL_MAP_PATH", str(tmp_path))
    code, doc = run_json(capsys, "mapinfo", "--map", "twinrabbit")
    assert code == 0
    assert doc["map"] == "twinrabbit"
    code, doc = run_json(capsys, "orbit", "--map", "twinrabbit", "--curve", "x")
    assert code == 0
    assert doc["results"]["classification"]["kind"] == "cycle"


def test_bad_mapfile_diagnostic(capsys, tmp_path):
    f = tmp_path / "broken.map"
    f.write_text(RABBIT_TEXT.replace("gen y parity 1", "gen y parity 0"))
    code, _, err = run(capsys, "orbit", "--map", str(f), "--curve", "x")
    assert code == 2
    assert "parity-not-surjective" in err


def test_max_steps_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--map", "rabbit", "--curve", "x", "--max-steps", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    for n, message in (("0", "at least 1"), ("-1", "at least 1"), ("21", "at most 20")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--map", "dendrite", "--suite", "prop84", "--n", n])
        assert exc.value.code == 2
        assert f"--n must be {message}" in capsys.readouterr().err
    for suite, n in (("table7", "3"), ("table7", "21"), ("recursions", "3"), ("lemma83", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--map", "rabbit", "--suite", suite, "--n", n])
        assert exc.value.code == 2
        assert "--n applies only to --suite prop84 or all" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--map", "dendrite", "--suite", "all", "--n", "21"])
    assert exc.value.code == 2
    assert "--n must be at most 20" in capsys.readouterr().err
    # with --suite all, --n needs a map that prop84 applies to
    assert main(["verify", "--map", "rabbit", "--suite", "all", "--n", "3"]) == 2
    assert "--n applies only to the prop84 suite, which requires map dendrite" in capsys.readouterr().err
    for n, message in (("-1", "at least 0"), ("11", "at most 10")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--map", "rabbit", "--max-len", n])
        assert exc.value.code == 2
        assert f"--max-len must be {message}" in capsys.readouterr().err
    for argv in (["orbit", "--curve", "x"], ["sweep", "--max-len", "1"], ["spectra", "--cycle-of", "x"]):
        argv = [*argv, "--map", "rabbit", "--max-steps"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(cli.MAX_STEPS + 1)])
        assert exc.value.code == 2
        assert f"error: --max-steps must be at most {cli.MAX_STEPS}\n" in capsys.readouterr().err
        assert main([*argv, str(cli.MAX_STEPS)]) == 0
        capsys.readouterr()


def _call(capsys, argv):
    """Exit code and stdout of one ``main`` call, JSON without elapsed_s."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if "json" in argv and out:
        doc = json.loads(out)
        del doc["elapsed_s"]
        return code, doc
    return code, out


@pytest.mark.parametrize(
    "before, code, after",
    [
        (["verify", "--map", "dendrite", "--suite", "prop84", "--n", "3"], 0,
         ["verify", "--map", "rabbit", "--suite", "table7"]),
        (["spectra", "--matrix", "F", "--tol", "1e-3", "--format", "json"], 0,
         ["spectra", "--matrix", "F", "--format", "json"]),
        (["orbit", "--map", "rabbit", "--curve", "x", "--max-steps", "5", "--format", "json"], 0,
         ["orbit", "--map", "rabbit", "--curve", "x", "--format", "json"]),
        (["orbit", "--map", "rabbit", "--curve", "x", "--max-steps", "0"], 2,
         ["mapinfo", "--map", "rabbit"]),
        (["spectra", "--cycle-of", "x", "--map", "rabbit", "--bogus"], 2,
         ["spectra", "--cycle-of", "x", "--map", "rabbit"]),
    ],
    ids=["verify-n", "spectra-tol", "orbit-max-steps", "usage-error", "unknown-option"],
)
def test_reused_parser_leaks_nothing_between_calls(capsys, tmp_path, before, code, after):
    f = tmp_path / "F.mat"
    f.write_text("2\n1/2 1/3\n1/5 1/7\n")
    before, after = ([str(f) if a == "F" else a for a in argv] for argv in (before, after))
    cli._parser.cache_clear()
    first = _call(capsys, after)
    assert first[0] == 0
    cli._parser.cache_clear()
    assert _call(capsys, before)[0] == code
    assert _call(capsys, after) == first
    if "--tol" in before:
        assert first[1]["inputs"]["tol"] == spectra.DEFAULT_TOL


def test_parser_built_once_and_commands_looked_up_at_call_time(capsys, monkeypatch):
    assert main(["mapinfo", "--map", "rabbit"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_mapinfo", lambda args: ({"map": args.map}, ["patched"], 0))
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["mapinfo", "--map", "rabbit"]) == 0
    assert capsys.readouterr().out == "patched\n"
    assert calls == []
