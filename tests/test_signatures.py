"""Every public reader of a mechanism takes the mechanism alone.

A ``ThresholdMechanism`` carries the instance it was solved on, so a
reader that also took an instance could be handed the wrong one.
"""

import dataclasses
import inspect

import pytest

import qsell

from conftest import qsell_records

READERS = (
    "revenue_direct",
    "revenue_virtual",
    "simulate",
    "check_feasibility",
    "ic_deviation_search",
    "obedience_check",
    "posterior_belief",
    "partition_summary",
    "win_weight",
    "payment",
    "allocate_many",
)


def _public_functions():
    return {
        name: getattr(qsell, name)
        for name in qsell.__all__
        if inspect.isfunction(getattr(qsell, name))
    }


def test_every_mechanism_reader_takes_the_mechanism_first_and_no_instance():
    functions = _public_functions()
    for name in READERS:
        params = list(inspect.signature(functions[name]).parameters)
        assert params[0] == "m", name
        assert "inst" not in params, name
    for name, fn in functions.items():
        params = inspect.signature(fn).parameters
        assert not {"inst", "m"} <= params.keys(), name


def test_a_mechanism_carries_its_instance():
    fields = {f.name for f in dataclasses.fields(qsell.ThresholdMechanism)}
    assert "inst" in fields and "quality" not in fields


def test_derived_facts_are_not_fields():
    # each is read off the fields it follows from, so no copy can drift from them
    derived = {
        qsell.GriddedDistribution: {"support_lo", "support_hi"},
        qsell.QualityModel: {"xi"},
        qsell.ThresholdMechanism: {"win_weight"},
        qsell.VirtualValueCurve: {"regular"},
    }
    for cls, names in derived.items():
        assert not names & {f.name for f in dataclasses.fields(cls)}, cls


def test_model_types_are_frozen(two_uniform):
    # each checks its invariants once, at construction, so none may change after
    records = qsell_records()
    assert len(records) == 19
    for cls in records:
        bare = cls.__new__(cls)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bare, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(bare, f.name)
    inst, m = two_uniform
    for record, name in ((m, "curves"), (inst, "buyers"), (inst.buyers[0], "grid")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    repriced = dataclasses.replace(m, curves=list(m.curves), payment=list(m.payment))
    assert type(repriced.curves) is tuple and type(repriced.payment) is tuple


def test_every_record_compiles_only_its_init():
    # a frozen dataclass compiles six methods at import, about 0.5 ms a class;
    # a record compiles one and takes the others from ``dist._Record``
    for cls in qsell_records():
        params = cls.__dataclass_params__
        assert issubclass(cls, qsell.dist._Record), cls
        assert not (params.init or params.repr or params.eq or params.frozen), cls
