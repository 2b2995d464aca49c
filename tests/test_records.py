"""The package's value records: equality, hashing, repr, immutability, pickling.

Eight records are ``typing.NamedTuple``s; the four that wrap one tuple field
(three of them checking its contents when built) share the slotted base
``perms._Record``.
"""

from __future__ import annotations

import copy
import pickle
import sys
from fractions import Fraction
from functools import partial

import pytest

from motzkinperm.bell import SetPartition
from motzkinperm.census import CensusReport, CheckResult
from motzkinperm.cfrac import WeightScheme
from motzkinperm.invert import RecoveryStatus, WeightRecovery
from motzkinperm.paths import (
    ColoredMotzkinPath,
    ColoredStep,
    PathFamily,
    standard_down_colors,
    standard_level_colors,
)
from motzkinperm.perms import (
    DiagonalSequence,
    DiagonalType,
    Permutation,
    StatVector,
    _Record,
)
from motzkinperm.polys import MultiPoly
from motzkinperm.sequences import catalan_numbers
from motzkinperm.subsets import ClassSpec, avoids_321

# Each record with a factory, one with a changed field, and whether it hashes:
# a census report holds dicts, so it has no hash, as no tuple holding a dict
# has.  Callable fields are module-level functions, so the records pickle.
RECORDS = [
    (partial(StatVector, 2, 4, 0, 5, 17), partial(StatVector, 2, 4, 0, 5, 16), True),
    (partial(ColoredStep, "L", 1, 2), partial(ColoredStep, "L", 1, 1), True),
    (
        partial(CensusReport, "Avoid321", 3, "", {"BruteForce": [1, 1, 2, 5]}, {}),
        partial(CensusReport, "Avoid321", 3, "", {"BruteForce": [1, 1, 2, 6]}, {}),
        False,
    ),
    (partial(CheckResult, "paths", True), partial(CheckResult, "paths", False, "broke"), True),
    (
        partial(WeightScheme, "h", MultiPoly.const, MultiPoly.const),
        partial(WeightScheme, "h", MultiPoly.const, MultiPoly.const, marks=frozenset("x")),
        True,
    ),
    (
        partial(WeightRecovery, (Fraction(1),), (Fraction(1, 2),), RecoveryStatus.COMPLETE, 3),
        partial(WeightRecovery, (Fraction(1),), (Fraction(1, 2),), RecoveryStatus.FAILED, 3),
        True,
    ),
    (
        partial(ClassSpec, (avoids_321,), "xvwq", max, divmod, closed=catalan_numbers),
        partial(ClassSpec, (avoids_321,), "xvwq", max, divmod, brute_cap=13),
        True,
    ),
    (
        partial(PathFamily, standard_down_colors, standard_level_colors),
        partial(PathFamily, standard_down_colors, standard_level_colors, True),
        True,
    ),
    (partial(Permutation, (3, 1, 2)), partial(Permutation, (2, 3, 1)), True),
    (
        partial(DiagonalSequence, ((DiagonalType.OPEN, 1), (DiagonalType.CLOSE, 1))),
        partial(DiagonalSequence, ((DiagonalType.FIXED, 0), (DiagonalType.FIXED, 0))),
        True,
    ),
    (
        partial(ColoredMotzkinPath.parse, "U L1 D0"),
        partial(ColoredMotzkinPath.parse, "U L2 D0"),
        True,
    ),
    (partial(SetPartition.parse, "1 3 | 2"), partial(SetPartition.parse, "1 | 2 | 3"), True),
]


def _name(row) -> str:
    return row[0]().__class__.__name__


def _fields(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or type(record).__slots__


def test_the_table_holds_every_record_of_the_package():
    modules = [m for name, m in sys.modules.items() if name.startswith("motzkinperm.")]
    records = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and obj is not _Record
        and (issubclass(obj, _Record) or (issubclass(obj, tuple) and hasattr(obj, "_fields")))
    }
    assert records == {make().__class__ for make, _, _ in RECORDS}
    assert len(records) == 12


@pytest.mark.parametrize("make, make_changed, hashable", RECORDS, ids=map(_name, RECORDS))
def test_records_are_immutable_values(make, make_changed, hashable):
    a, b, changed = make(), make(), make_changed()
    assert a is not b and a == b and not a != b
    assert a != changed and not a == changed
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, changed}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)

    fields = _fields(a)
    shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{type(a).__name__}({shown})"

    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(changed, fields[0]))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b

    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(twin) is type(a) and twin == a


def test_named_tuples_equal_plain_tuples_but_one_field_records_only_their_class():
    assert StatVector(2, 4, 0, 5, 17) == (2, 4, 0, 5, 17)
    assert ColoredStep("U", 1, 0) == ("U", 1, 0)
    entries = ((DiagonalType.FIXED, 0),)
    assert DiagonalSequence(entries) != entries
    assert Permutation((1,)) != (1,)
    assert SetPartition(((1,),)) != DiagonalSequence(((1,),))
    with pytest.raises(AttributeError):
        del Permutation((1,)).values


def test_validating_records_refuse_bad_input_when_built_and_when_unpickled():
    bad = [
        (Permutation, (1, 1, 3), "rearrangement"),
        (ColoredMotzkinPath, (ColoredStep("L", 0, 1),), "color"),
        (SetPartition, ((1, 2), (2, 3)), "overlap"),
        # Heights, colors and block entries are ints, not bools or floats.
        (ColoredMotzkinPath, (ColoredStep("L", 0, False),), "not an int"),
        (ColoredMotzkinPath, (ColoredStep("L", 0.0, 0.0),), "not an int"),
        (ColoredMotzkinPath, (ColoredStep("U", True, 0), ColoredStep("D", 1, 0)), "not an int"),
        (ColoredMotzkinPath, (("L", 0, 0),), "not a ColoredStep"),
        (SetPartition, ((True,),), "tuple of ints"),
        (SetPartition, ((1.0,),), "tuple of ints"),
        (SetPartition, ([1],), "tuple of ints"),
        # A list field would leave the record mutable and unhashable.
        (Permutation, [3, 1, 2], "wraps a tuple"),
        (ColoredMotzkinPath, [ColoredStep("L", 0, 0)], "wraps a tuple"),
        (SetPartition, [[1]], "wraps a tuple"),
    ]
    for cls, field, message in bad:
        with pytest.raises(ValueError, match=message):
            cls(field)
        # A record forged past its constructor is checked again on the way back.
        forged = object.__new__(cls)
        object.__setattr__(forged, cls.__slots__[0], field)
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(forged))
        with pytest.raises(ValueError, match=message):
            copy.deepcopy(forged)
