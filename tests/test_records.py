"""The package's records: equality, hashing, repr and immutability, and the
library import that leaves out ``dataclasses`` and ``spectra``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import curvepull
from curvepull.curves import Curve, EntersCycle, EventuallyTrivial, OrbitResult, Unresolved
from curvepull.endo import ParityHom
from curvepull.spectra import AbelianVirtualEndo, RationalMatrix
from curvepull.verify import CheckItem, SuiteResult
from curvepull.words import Word

X, Y = Curve(0, Word.identity()), Curve(1, Word.identity())


def records():
    """One record of each frozen kind, with its field values."""
    matrix = RationalMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
    return [
        (EventuallyTrivial(3), (3,)),
        (Unresolved(3), (3,)),
        (EntersCycle(1, (X, Y), (Fraction(1, 2), Fraction(3))), (1, (X, Y), (Fraction(1, 2), Fraction(3)))),
        (ParityHom((0, 1)), ((0, 1),)),
        (matrix, (((1, 2), (0, 1)), (2, 3))),
        (AbelianVirtualEndo(matrix, 6), (matrix, 6)),
    ]


def test_verdicts_of_different_types_are_unequal_with_equal_fields():
    assert EventuallyTrivial(3) != Unresolved(3)
    assert EventuallyTrivial(3) == EventuallyTrivial(3) != EventuallyTrivial(4)
    assert len({EventuallyTrivial(3), Unresolved(3), EventuallyTrivial(3)}) == 2
    assert EventuallyTrivial(3) != (3,)
    assert [cls.kind for cls in (EventuallyTrivial(0), EntersCycle(0, (), ()), Unresolved(1))] == [
        "trivial", "cycle", "unresolved"
    ]


def test_records_hash_show_and_copy_their_fields():
    for record, values in records():
        same = type(record)(*values)
        assert record == same and hash(record) == hash(same) == hash(values)
        assert pickle.loads(pickle.dumps(record)) == record == copy.copy(record)
        names = type(record)._fields
        assert repr(record) == f"{type(record).__name__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert repr(EventuallyTrivial(3)) == "EventuallyTrivial(steps=3)"
    assert EntersCycle(preperiod=0, cycle=(X,), cycle_weights=(Fraction(1),)) == EntersCycle(0, (X,), (Fraction(1),))


def test_assigning_to_a_field_raises():
    for record, _ in records():
        name = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 0
    for record in (OrbitResult(X, (), Unresolved(1)), CheckItem("a", True)):
        with pytest.raises(AttributeError):
            record.start = Y
    with pytest.raises(TypeError):
        EventuallyTrivial()


def test_weight_product_is_the_product_of_the_cycle_weights():
    cls = EntersCycle(0, (X, Y, X), (Fraction(1, 2), Fraction(3), Fraction(2, 9)))
    assert cls.weight_product == Fraction(1, 3)
    assert cls.weight_product is cls.weight_product
    assert EntersCycle(2, (), ()).weight_product == 1
    assert cls == EntersCycle(0, (X, Y, X), (Fraction(1, 2), Fraction(3), Fraction(2, 9)))  # the cache is no field


def test_suite_results_do_not_share_items():
    a, b = SuiteResult("table7"), SuiteResult("table7")
    a.items.append(CheckItem("x", True))
    assert b.items == [] and a.items == [CheckItem("x", True, "")]
    assert SuiteResult("lemma83", a.items).items is a.items


def test_records_still_check_their_fields():
    with pytest.raises(ValueError, match="surjective"):
        ParityHom((0, 0))
    with pytest.raises(ValueError, match="0/1"):
        ParityHom((0, 2))
    matrix = RationalMatrix.from_rows([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="positive"):
        AbelianVirtualEndo(matrix, 0)
    with pytest.raises(ValueError, match="does not clear"):
        AbelianVirtualEndo(matrix, 3)


LEAN_IMPORT = """\
import sys
from curvepull import PullbackSystem, load_map
for name in ("rabbit", "dendrite"):
    PullbackSystem(load_map(name))
loaded = sorted({"dataclasses", "curvepull.spectra"} & set(sys.modules))
assert not loaded, f"loaded by building both built-in systems: {loaded}"
import curvepull
assert curvepull.spectra.is_contracting is curvepull.is_contracting
namespace = {}
exec("from curvepull import *", namespace)
missing = sorted(set(curvepull.__all__) - set(namespace))
assert not missing, f"not bound by import *: {missing}"
try:
    curvepull.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown attribute did not raise AttributeError")
print("ok")
"""


def _fresh(code: str) -> subprocess.CompletedProcess:
    # pytest itself imports dataclasses, so only a fresh interpreter can tell
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(curvepull.__file__))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)


def test_the_library_import_leaves_out_dataclasses_and_spectra():
    proc = _fresh(LEAN_IMPORT)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_the_cli_import_leaves_out_dataclasses():
    proc = _fresh("import sys, curvepull.cli; print('dataclasses' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


CLI_SWEEP = """\
import contextlib, io, sys
import curvepull.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = curvepull.cli.main(["sweep", "--map", "rabbit", "--max-len", "3"])
print(code, sorted({"dataclasses", "curvepull.spectra"} & set(sys.modules)))
"""


def test_a_cli_sweep_leaves_out_dataclasses_and_spectra():
    # only the spectra command loads spectra
    proc = _fresh(CLI_SWEEP)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")
