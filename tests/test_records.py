"""qsell's records behave as the frozen dataclasses they replace.

Each record is a ``dist._Record``: a dataclass whose ``__init__`` is
compiled once and whose equality, hash and repr are shared.  These tests
pin the constructor's calling rules, validation through
``dataclasses.replace``, and the shared methods.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import qsell
from qsell import dist
from qsell.errors import ValidationError

from conftest import qsell_records


def _grid_and_vals(m=5):
    grid = np.linspace(0.0, 1.0, m)
    return grid, grid**2


def test_positional_and_keyword_construction_agree():
    grid, vals = _grid_and_vals()
    a = qsell.GriddedFunction(grid, vals)
    assert a == qsell.GriddedFunction(grid=grid, vals=vals)
    assert a == qsell.GriddedFunction(grid, vals=vals)
    assert a.grid is grid and a.vals is vals  # __post_init__ keeps float arrays as given


def test_an_omitted_default_is_filled_in():
    d = qsell.make_uniform(0.0, 1.0, m=9)
    bare = qsell.GriddedDistribution(d.grid, d.pdf_vals, d.cdf_vals)
    assert bare.norm_factor == 1.0 and bare == d


def test_the_default_valuation_is_fresh_on_each_call():
    d = qsell.make_uniform(0.0, 1.0, m=9)
    qm = qsell.make_quality_model(d, 1.0, 0.0)
    a, b = qsell.ProblemInstance(buyers=(d,), quality=qm), qsell.ProblemInstance((d,), qm)
    assert a.valuation is not b.valuation
    assert a.valuation == b.valuation == qsell.LinearValuation()
    assert a == b


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g, v: qsell.GriddedFunction(g), "missing 1 required positional argument: 'vals'"),
        (lambda g, v: qsell.GriddedFunction(g, v, 3), "takes 3 positional arguments but 4"),
        (lambda g, v: qsell.GriddedFunction(g, v, grid=g), "multiple values for argument 'grid'"),
        (lambda g, v: qsell.GriddedFunction(g, v, step=1), "unexpected keyword argument 'step'"),
    ],
    ids=["missing", "extra", "repeated", "unknown-keyword"],
)
def test_a_bad_call_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call(*_grid_and_vals())


def test_replace_runs_the_validation():
    grid, vals = _grid_and_vals()
    f = qsell.GriddedFunction(grid, vals)
    with pytest.raises(ValidationError, match="vals must match the grid length"):
        dataclasses.replace(f, vals=vals[:-1])
    assert dataclasses.replace(f, vals=list(vals)) == f


def test_repr_shows_the_repr_fields(two_uniform):
    _, m = two_uniform
    text = repr(m)
    assert text.startswith("ThresholdMechanism(curves=(VirtualValueCurve(type_grid=array(")
    assert ", inst=ProblemInstance(buyers=" in text and ", payment=(GriddedFunction(" in text
    assert "tables=" not in text and "InterimTable" not in text
    price = qsell.ConstantPriceBaseline(0.5, 0.25, 0.125)
    assert repr(price) == "ConstantPriceBaseline(price=0.5, cutoff=0.25, revenue=0.125)"


def test_hash_is_the_compare_fields_hash():
    price = qsell.ConstantPriceBaseline(0.5, 0.25, 0.125)
    assert hash(price) == hash((0.5, 0.25, 0.125))
    linear = qsell.LinearValuation()
    assert hash(linear) == hash((linear.type_factor, linear.type_factor_deriv))
    assert len({linear, qsell.LinearValuation()}) == 1
    grid, vals = _grid_and_vals()
    with pytest.raises(TypeError, match="unhashable"):
        hash(qsell.GriddedFunction(grid, vals))
    table = dist.LevelTable.build(grid, vals, 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)


def test_norm_factor_is_left_out_of_equality():
    d = qsell.make_uniform(0.0, 1.0, m=9)
    assert dataclasses.replace(d, norm_factor=2.0) == d


def test_arrays_compare_by_value_nan_equal_to_nan():
    grid, vals = _grid_and_vals()
    vals[1] = np.nan
    a, b = qsell.GriddedFunction(grid, vals), qsell.GriddedFunction(grid.copy(), vals.copy())
    assert a == b and not a != b
    assert a != qsell.GriddedFunction(grid, np.where(np.isnan(vals), 0.0, vals))
    assert a.__eq__(qsell.ConstantPriceBaseline(0.5, 0.25, 0.125)) is NotImplemented


def test_every_signature_lists_the_fields():
    for cls in qsell_records():
        params = inspect.signature(cls).parameters
        assert list(params) == [f.name for f in dataclasses.fields(cls)], cls
    params = inspect.signature(qsell.GriddedDistribution).parameters
    assert params["norm_factor"].default == 1.0
    assert repr(inspect.signature(qsell.ProblemInstance).parameters["valuation"].default) == (
        "<factory>"
    )


def test_rebuilt_interim_tables_compare_equal(two_uniform):
    # a frozen dataclass's generated == raises here on the truth of an array
    inst, m = two_uniform
    a, b = (qsell.interim_tables(inst, m.curves) for _ in range(2))
    assert a[0] is not b[0] and a[0].I is not b[0].I
    assert a == b == m.tables
    assert dataclasses.replace(a[0], entry=-1.0) != a[0]


def test_asdict_reads_every_field():
    price = qsell.ConstantPriceBaseline(0.5, 0.25, 0.125)
    assert dataclasses.asdict(price) == {"price": 0.5, "cutoff": 0.25, "revenue": 0.125}
    assert dataclasses.is_dataclass(price)
