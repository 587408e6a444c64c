"""The frozen value records (`varmult._record`) and the import graph they
keep small: construction, equality, hashing, repr, immutability, `replace`,
and the absence of `dataclasses` from the package."""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import varmult
from varmult._record import Record, replace
from varmult.checker import TraceEntry
from varmult.jetops import MultiIndex
from varmult.symexpr import (
    ZERO,
    NonZero,
    ZeroNumeric,
    ZeroStructural,
    ZeroTestConfig,
    jet,
)
from varmult.varcore import ParamSet

p0, p1, p2 = jet(0), jet(1), jet(2)
SRC = Path(varmult.__file__).parent


def test_construction_by_position_keyword_and_default():
    assert ZeroTestConfig(5, 1e-6, 7) == ZeroTestConfig(seed=7, atol=1e-6, samples=5)
    c = ZeroTestConfig(5)
    assert (c.samples, c.atol, c.seed) == (5, 1e-9, 0)

    ps = ParamSet(2, p2, (p0, p1), ZERO)
    assert ps == ParamSet(n=2, R=p2, f_lower=[p0, p1], N=ZERO, m=2)
    assert ps.m == 2 and ps.f_lower == (p0, p1)  # filled in by __post_init__

    v = ZeroNumeric(20)
    t = TraceEntry("S1", p1, v)
    assert (t.step, t.checked, t.verdict) == ("S1", p1, v)
    assert (t.derived, t.kind, t.note) == (None, "check", None)
    assert TraceEntry(step="S1", checked=p1, verdict=v, kind="note",
                      note="x").note == "x"


def test_construction_argument_errors():
    with pytest.raises(TypeError, match="positional"):
        ZeroTestConfig(1, 1e-9, 0, 4)
    with pytest.raises(TypeError, match="multiple values"):
        ZeroTestConfig(5, samples=5)
    with pytest.raises(TypeError, match="missing required argument 'verdict'"):
        TraceEntry("S1", p1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'sample'"):
        ZeroTestConfig(sample=5)


def test_equality_and_hash_are_field_wise_within_one_class():
    assert ZeroTestConfig() == ZeroTestConfig(20, 1e-9, 0)
    assert hash(ZeroTestConfig()) == hash(ZeroTestConfig(20, 1e-9, 0))
    assert ZeroTestConfig(seed=1) != ZeroTestConfig(seed=2)
    assert len({ZeroStructural(), ZeroStructural(), ZeroNumeric(3), ZeroNumeric(3)}) == 2
    # equal fields in different classes are not equal records
    assert ZeroNumeric(3) != MultiIndex((3,))
    assert ZeroTestConfig() != (20, 1e-9, 0)
    with pytest.raises(TypeError):
        hash(NonZero({p1: 0.5}, 1.0))  # a dict field cannot be hashed


def test_repr_in_dataclass_format():
    assert repr(ZeroTestConfig()) == "ZeroTestConfig(samples=20, atol=1e-09, seed=0)"
    assert repr(ZeroStructural()) == "ZeroStructural()"
    assert repr(MultiIndex((1, 0))) == "MultiIndex(entries=(1, 0))"


def test_records_are_frozen():
    c = ZeroTestConfig()
    with pytest.raises(AttributeError):
        c.samples = 3
    with pytest.raises(AttributeError):
        c.extra = 3
    with pytest.raises(AttributeError):
        del c.seed
    assert c.samples == 20


def test_post_init_validation_still_fires():
    with pytest.raises(ValueError, match="samples"):
        ZeroTestConfig(samples=0)
    with pytest.raises(ValueError, match="half-order"):
        ParamSet(n=1, R=ZERO, f_lower=(ZERO,), N=ZERO)
    with pytest.raises(ValueError, match="at least one entry"):
        MultiIndex(())


def test_replace_changes_fields_and_validates_anew():
    t = TraceEntry("S1", p1, ZeroStructural())
    t2 = replace(t, derived=p2)
    assert t2.derived is p2 and t.derived is None
    assert (t2.step, t2.checked, t2.verdict) == (t.step, t.checked, t.verdict)
    assert replace(MultiIndex((1, 2)), entries=[3]).entries == (3,)
    with pytest.raises(ValueError):
        replace(ZeroTestConfig(), samples=0)
    with pytest.raises(TypeError):
        replace(ZeroTestConfig(), sample=3)


def test_fields_follow_the_class_hierarchy():
    class Base(Record):
        a: int
        b: int = 2

    class Child(Base):
        c: int = 3

    assert Child(1) == Child(a=1, b=2, c=3)
    assert repr(Child(1, c=4)) == ("test_fields_follow_the_class_hierarchy."
                                   "<locals>.Child(a=1, b=2, c=4)")


def test_records_pickle():
    for r in (ZeroTestConfig(seed=3), MultiIndex((1, 2)), ZeroNumeric(4)):
        assert pickle.loads(pickle.dumps(r)) == r


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site, so nothing but varmult's own imports counts
    script = ("import sys\n"
              f"sys.path.insert(0, {str(SRC.parent)!r})\n"
              "import varmult.cli\n"
              "print(sorted(m for m in ('dataclasses', 'inspect') "
              "if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120,
                          env={k: v for k, v in os.environ.items()
                               if k != "PYTHONPATH"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                importers.append(path.name)
    assert importers == []
