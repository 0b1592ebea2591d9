"""The package's records: equality over the type and the fields, hashing
and immutability where a record is frozen, and the Class(field=...) repr."""

import pytest

from sl2rep.census import CensusResult, ComponentSpectrum, QuotientLowerBound
from sl2rep.dimension import DimResult
from sl2rep.families import ParafreeProfile
from sl2rep.oracle import ConstraintSystem, Sample, SamplePlan, Tolerances, VerificationReport
from sl2rep.presentations import CyclicFinite, FreeGroup, FreeProduct, ProductPower
from sl2rep.records import FrozenRecord
from sl2rep.traces import CentralRootClasses

FROZEN = [
    lambda: FreeGroup(2),
    lambda: CyclicFinite(5),
    lambda: ProductPower((3, -5, 7)),
    lambda: FreeProduct((FreeGroup(1), ProductPower((2, 3)))),
    lambda: QuotientLowerBound(FreeProduct((CyclicFinite(3), CyclicFinite(5))), 4),
    lambda: DimResult(6, "certified-reducible"),
    lambda: ParafreeProfile(2, 3, 1, True),
    lambda: CentralRootClasses((1, -1), ()),
    lambda: Tolerances(),
    lambda: ConstraintSystem(2, (3, 5), -1),
    lambda: SamplePlan((2, 3), 1, ((2, -1), (3, -1))),
]
MUTABLE = [
    lambda: ComponentSpectrum({6: 2, 0: 1}),
    lambda: CensusResult(ComponentSpectrum({0: 1}), None),
    lambda: Sample(None, [2.0]),
    lambda: VerificationReport("dimension", {}, 0, Tolerances(), 1, 1, {}, {6: 1}, 6, 6, 1.0,
                               1e9, {}, {}, True),
]


@pytest.mark.parametrize("make", FROZEN)
def test_frozen_records_hash_by_their_fields_and_reject_assignment(make):
    record, twin = make(), make()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == twin


@pytest.mark.parametrize("make", MUTABLE)
def test_mutable_records_compare_by_their_fields_and_do_not_hash(make):
    record, twin = make(), make()
    assert record == twin
    with pytest.raises(TypeError):
        hash(record)
    field = next(iter(vars(record)))
    setattr(record, field, "changed")
    assert record != twin


class _Left(FrozenRecord):
    def __init__(self, x):
        object.__setattr__(self, "x", x)


class _Right(FrozenRecord):
    def __init__(self, x):
        object.__setattr__(self, "x", x)


def test_records_of_different_types_differ_on_equal_fields():
    assert FreeGroup(2) != CyclicFinite(2)
    assert _Left(1) != _Right(1) and _Left(1) == _Left(1)
    assert FreeGroup(2) == FreeGroup(2) != FreeGroup(3)
    assert ProductPower((2, 3)) != (2, 3)
    assert len({FreeGroup(2), CyclicFinite(2), FreeGroup(2)}) == 2


def test_records_repr_their_fields_in_order():
    assert repr(FreeProduct((FreeGroup(1), CyclicFinite(3)))) == (
        "FreeProduct(factors=(FreeGroup(rank=1), CyclicFinite(order=3)))")
    assert repr(CensusResult(ComponentSpectrum({2: 1, 0: 2}), None)) == (
        "CensusResult(spectrum=ComponentSpectrum(entries={0: 2, 2: 1}), basis=None)")
    assert repr(Tolerances()) == ("Tolerances(residual=1e-08, rank_rel=1e-08, trace=1e-06, "
                                  "genericity=0.0001, min_rank_gap=1000.0)")
    assert repr(Sample(None)) == "Sample(mats=None, witness_traces=[])"


def test_record_defaults():
    assert Tolerances(trace=1e-3) == Tolerances(1e-8, 1e-8, 1e-3, 1e-4, 1e3)
    assert list(Tolerances().to_dict()) == ["residual", "rank_rel", "trace", "genericity",
                                            "min_rank_gap"]
    assert ConstraintSystem(2, (3, 5)).sign == 1
    # each Sample gets its own default list
    first, second = Sample(None), Sample(None)
    first.witness_traces.append(1.0)
    assert second.witness_traces == []
