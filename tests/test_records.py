"""The value types keep the contract of ``@dataclass(frozen=True)``.

Every value type derives from ``exactalg.Record``, which generates no code
per class.  Each is checked here against a frozen dataclass with the same
fields, which serves as the reference for equality, hashing and repr.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import casimirspec
import casimirspec.cli  # noqa: F401  (imports every engine, so every value type)
from casimirspec.exactalg import Record
from casimirspec.products import FactorSpectrum
from casimirspec.rootsys import RootSystemType
from casimirspec.spectrum import CollisionPairs

VALUE_TYPES = {
    "BetaCertificate", "CartanData", "CollisionPairs", "FactorSpectrum",
    "HopfScanReport", "MetricReport", "Rank2Case", "Rank2Pair",
    "ReflectionWitness", "RestrictedDatum", "RootSystemType", "SimplicityReport",
    "SymmetricSpaceDescriptor",
}
RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


def sample_values(cls, tag=0):
    """Field values that pass the type's own validation."""
    if cls is RootSystemType:
        return ("A", 3 + tag)
    return tuple(f"{name}-{tag}" for name in cls._fields)


def reference(cls, values):
    """The frozen dataclass the type replaced, holding the same values."""
    fields = [(name, object) for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)


def test_every_value_type_is_a_record():
    assert {cls.__name__ for cls in RECORDS} == VALUE_TYPES


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_are_the_annotations_in_order(self, cls):
        assert cls._fields == tuple(cls.__annotations__)

    def test_position_and_keyword(self, cls):
        values = sample_values(cls)
        by_position = cls(*values)
        by_keyword = cls(**dict(reversed(list(zip(cls._fields, values)))))
        mixed = cls(*values[:1], **dict(zip(cls._fields[1:], values[1:])))
        for record in (by_position, by_keyword, mixed):
            assert tuple(getattr(record, name) for name in cls._fields) == values

    def test_missing_unknown_and_repeated_fields(self, cls):
        values = sample_values(cls)
        first = cls._fields[0]
        required = [name for name in cls._fields if name not in cls.__dict__]
        with pytest.raises(TypeError):
            cls(*values[:len(required) - 1])
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, unknown=1)
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})

    def test_frozen(self, cls):
        record = cls(*sample_values(cls))
        name = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == sample_values(cls)[0]

    def test_repr_matches_the_dataclass(self, cls):
        values = sample_values(cls)
        assert repr(cls(*values)) == repr(reference(cls, values))

    def test_equality_and_hash(self, cls):
        values, other = sample_values(cls), sample_values(cls, 1)
        record, twin = cls(*values), cls(*values)
        assert record == record and record != cls(*other)
        assert record != values and (record == values) is False
        if cls is CollisionPairs:  # identity semantics, as with eq=False
            assert record != twin
            assert hash(record) == object.__hash__(record)
        else:
            assert record == twin and not record != twin
            assert hash(record) == hash(twin) == hash(reference(cls, values))


def test_default_field():
    pairs = CollisionPairs("rows", "first", "second", "values", 1)
    assert pairs.dual is None
    assert CollisionPairs(*"abcde", dual="f").dual == "f"
    assert repr(pairs).endswith("denom=1, dual=None)")


def test_classes_with_equal_values_differ():
    values = ("A", 3)
    assert FactorSpectrum(*values) != RootSystemType(*values)
    assert not FactorSpectrum(*values) == RootSystemType(*values)


def test_post_init_validates():
    with pytest.raises(ValueError):
        RootSystemType("B", 1)
    with pytest.raises(ValueError):
        RootSystemType(family="X", rank=2)
    assert str(RootSystemType("B", 2)) == "B2"


def test_cli_import_generates_no_dataclasses():
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import casimirspec.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = pathlib.Path(casimirspec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.strip()
    assert "'casimirspec.cli'" in new
    assert "'dataclasses'" not in new
