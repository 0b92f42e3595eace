"""Every public reader of a mechanism takes the mechanism alone.

A ``ThresholdMechanism`` carries the instance it was solved on, so a
reader that also took an instance could be handed the wrong one.
"""

import dataclasses
import inspect

import qsell

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
    "allocate",
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
    for cls in (
        qsell.GriddedFunction,
        qsell.GriddedDistribution,
        qsell.QualityModel,
        qsell.ProblemInstance,
        qsell.VirtualValueCurve,
        qsell.ThresholdMechanism,
    ):
        assert cls.__dataclass_params__.frozen, cls
    _, m = two_uniform
    repriced = dataclasses.replace(m, curves=list(m.curves), payment=list(m.payment))
    assert type(repriced.curves) is tuple and type(repriced.payment) is tuple
