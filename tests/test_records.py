"""The value records: ``semifield.Ring``, ``crystal.CrystalReadout``,
``partitions.ColoredSkewShape``, ``cylindric.CylShape`` and
``verify.VerifyReport``.  Verify witnesses are built from their reprs, so
the reprs are pinned literally."""

import pytest

from loopsym.crystal import CrystalReadout
from loopsym.cylindric import CylShape
from loopsym.partitions import ColoredSkewShape
from loopsym.semifield import INTEGER, Ring
from loopsym.verify import VerifyReport


# each frozen record class with the arguments of one value
FROZEN = [
    (Ring, ("integer", 0, 1, True)),
    (CrystalReadout, ((1, 2), 3, 4)),
    (ColoredSkewShape, ((2, 1), (1,), 2, 3)),
    (CylShape, (2, (2, 1), (1,), 2, 3)),
]


def test_reprs_are_pinned():
    assert repr(INTEGER) == "Ring(name='integer', zero=0, one=1, has_subtraction=True)"
    assert repr(CrystalReadout((1, 2), 3, 4)) == "CrystalReadout(gamma=(1, 2), eps=3, phi=4)"
    assert repr(ColoredSkewShape((2, 1), (1,), 2, 3)) == "Shape([2, 1]/[1]; r=2 mod 3)"
    assert repr(CylShape(2, (2, 1), (1,), 2, 3)) == "CylShape([2, 1]/[1]; k=2, r=2 mod 3)"


@pytest.mark.parametrize("cls, args", FROZEN)
def test_equal_fields_give_equal_values_and_hashes(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)


def test_fields_enter_equality_and_hash():
    assert Ring("integer", 0, 1, False) != INTEGER
    assert ColoredSkewShape((2, 1), (1,), 5, 3) == ColoredSkewShape((2, 1), (1,), 2, 3)  # r is read mod n
    narrow, wide = CylShape(2, (1,), (), 1, 4), CylShape(3, (1,), (), 1, 4)
    assert narrow != wide and hash(narrow) != hash(wide)


def test_equality_is_class_exact():
    shape, cyl = ColoredSkewShape((2, 1), (1,), 2, 3), CylShape(2, (2, 1), (1,), 2, 3)
    assert shape != cyl and cyl != shape
    assert len({shape, cyl}) == 2


@pytest.mark.parametrize("cls, args", FROZEN)
def test_frozen_records_refuse_assignment(cls, args):
    value = cls(*args)
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert cls(*args) == value


def test_verify_report_is_frozen_and_keeps_its_json():
    report = VerifyReport("grsk", {"m": 2, "n": 2}, 1, 0, [], {}, 5)
    assert report == VerifyReport("grsk", {"m": 2, "n": 2}, 1, 0, [], {}, 5)
    with pytest.raises(AttributeError):
        report.elapsed_ms = 6
    with pytest.raises(TypeError):
        hash(report)
    assert list(report.to_json()) == [
        "suite", "params", "trials", "seed", "failures", "checks", "passed", "elapsed_ms"
    ]
    assert repr(report) == (
        "VerifyReport(suite='grsk', params={'m': 2, 'n': 2}, trials=1, seed=0,"
        " failures=[], checks={}, elapsed_ms=5)"
    )
