"""Mechanism construction: allocation, win weights, payments, serialization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsell
from conftest import bimodal_density, make_bimodal, node_psi
from qsell import dist, mechanism
from qsell.errors import (
    AssumptionViolationError,
    UndefinedPaymentError,
    ValidationError,
)


def _constant_quality(alpha=1.0, reserve=0.0, m=257):
    G = qsell.make_uniform(0.0, 1.0, m=m)
    return qsell.make_quality_model(G, alpha, reserve)


# ---------------------------------------------------------------------------
# quality model


def test_quality_model_xi():
    G = qsell.make_uniform(0.0, 1.0, m=101)
    qm = qsell.make_quality_model(
        G, lambda q: 1.0 + np.asarray(q, float), lambda q: np.asarray(q, float)
    )
    # xi = q / (1 + q)
    assert qm.xi.value_at(0.0) == pytest.approx(0.0)
    assert qm.xi.value_at(1.0) == pytest.approx(0.5)
    # xi is read off reserve and alpha: not a field, so no copy can disagree with them
    direct = qsell.QualityModel(G, qm.alpha, qm.reserve)
    assert direct == qm and np.array_equal(direct.xi.vals, qm.reserve.vals / qm.alpha.vals)
    with pytest.raises(TypeError):
        dataclasses.replace(qm, xi=qm.reserve)


def test_quality_model_rejects_nonpositive_alpha():
    G = qsell.make_uniform(0.0, 1.0, m=11)
    with pytest.raises(ValidationError):
        qsell.make_quality_model(G, 0.0, 0.0)
    with pytest.raises(ValidationError):
        qsell.make_quality_model(G, lambda q: np.asarray(q, float) - 0.5, 0.0)
    # NaN passes a "<= 0" test, and inf would make xi 0 or revenues inf/NaN
    with pytest.raises(ValidationError, match="alpha"):
        qsell.make_quality_model(G, np.nan, 0.0)
    with pytest.raises(ValidationError, match="alpha"):
        qsell.make_quality_model(G, np.inf, 0.0)
    reserve = np.where(G.grid > 0.5, np.inf, G.grid)
    with pytest.raises(ValidationError, match="reserve"):
        qsell.make_quality_model(G, 1.0, qsell.GriddedFunction(G.grid, reserve))
    with pytest.raises(ValidationError, match="reserve"):
        qsell.make_quality_model(G, 1.0, np.nan)


# ---------------------------------------------------------------------------
# every model type checks its own invariants when it is built


@pytest.fixture(scope="module")
def ramp():
    """Two 65-node uniform buyers, alpha = 1, reserve = q: revenue 0.6458."""
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=65), 1.0, lambda q: q)
    inst = qsell.ProblemInstance((qsell.make_uniform(0.0, 1.0, m=65),) * 2, qm)
    return qsell.build_optimal_mechanism(inst)


def _on(grid, vals):
    return qsell.GriddedFunction(grid, np.broadcast_to(vals, grid.shape))


def _with_alpha(m, alpha):
    """The ramp's quality model built directly, with this alpha table."""
    return qsell.QualityModel(m.inst.quality.G, alpha, m.inst.quality.reserve)


OTHER_65 = np.linspace(0.0, 2.0, 65)  # another grid of the quality grid's size


# Each builds a malformed object.  Unchecked, most of them give wrong
# numbers; the comments hold what the ramp instance reads without the checks.
@pytest.mark.parametrize(
    "build",
    [
        # revenue_direct 0.9959, against 0.8049 through make_quality_model
        pytest.param(
            lambda m: _with_alpha(m, _on(OTHER_65, 1.0 + OTHER_65)), id="alpha-other-grid"
        ),
        # revenue_direct -0.3542
        pytest.param(
            lambda m: _with_alpha(m, _on(m.inst.quality.G.grid, -1.0)), id="alpha-negative"
        ),
        # a numpy broadcast ValueError on the first read of xi
        pytest.param(
            lambda m: _with_alpha(m, _on(np.linspace(0.0, 1.0, 33), 1.0)), id="alpha-33-nodes"
        ),
        pytest.param(
            lambda m: qsell.ProblemInstance(m.inst.buyers, "nope"), id="quality-not-a-model"
        ),
        # revenue_direct 0.5 against 0.6458, with every verifier passing
        pytest.param(
            lambda m: dataclasses.replace(m, payment=[m.payment[0]]), id="one-payment-table"
        ),
        # accepted: a payment table's own grid was never read
        pytest.param(
            lambda m: dataclasses.replace(
                m, payment=[m.payment[0], _on(OTHER_65, m.payment[1].vals)]
            ),
            id="payment-other-grid",
        ),
        # n_buyers 4
        pytest.param(lambda m: dataclasses.replace(m, curves=m.curves * 2), id="four-curves"),
        # an IndexError
        pytest.param(
            lambda m: qsell.interim_tables(m.inst, m.curves[:1]), id="tables-of-one-curve"
        ),
        pytest.param(
            lambda m: dataclasses.replace(m.curves[0], phi_ironed=m.curves[0].phi_ironed[:-1]),
            id="short-phi-ironed",
        ),
        pytest.param(
            lambda m: dataclasses.replace(m.curves[0], ironed_intervals=[(70, 2)]),
            id="interval-off-the-grid",
        ),
    ],
)
def test_a_malformed_model_is_rejected_when_built(ramp, build):
    with pytest.raises(ValidationError):
        build(ramp)


def _zero_a_payment_table(m):
    m.payment[1].vals[:] = 0.0  # unchecked: revenue_direct 0.5 against 0.6458


def _add_an_interval(m):
    m.curves[0].ironed_intervals.append((70, 2))  # unchecked: kept, and regular reads False


@pytest.mark.parametrize(
    "write, error",
    [(_zero_a_payment_table, ValueError), (_add_an_interval, AttributeError)],
    ids=["payment-table", "ironed-intervals"],
)
def test_an_in_place_write_is_rejected(ramp, write, error):
    with pytest.raises(error):
        write(ramp)
    assert qsell.revenue_direct(ramp) == pytest.approx(0.6458, abs=1e-4)
    assert ramp.curves[0].regular


def _overwrite_a_threshold_curve(m):
    m.curves[0].phi_ironed[:] = 1.0  # unchecked: simulate gives buyer 0 every sale


@pytest.mark.parametrize(
    "write",
    [_overwrite_a_threshold_curve, _zero_a_payment_table],
    ids=["threshold-curve", "payment-table"],
)
def test_a_loaded_mechanism_rejects_an_in_place_write(ramp, write):
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(ramp)))
    m = qsell.mechanism_from_json_dict(doc, ramp.inst)
    with pytest.raises(ValueError):
        write(m)
    assert qsell.revenue_direct(m) == qsell.revenue_direct(ramp)
    assert qsell.simulate(m, 2_000, 5) == qsell.simulate(ramp, 2_000, 5)


def test_what_the_solve_allocates_is_read_only():
    d = qsell.make_uniform(0.0, 1.0, m=65)
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=33), 1.0, lambda q: q)
    m = qsell.build_optimal_mechanism(qsell.ProblemInstance((d, d), qm))
    levels = m.tables[0].levels
    arrays = [a for c in m.curves for a in (c.phi, c.phi_ironed)]
    arrays += [p.vals for p in m.payment]
    arrays += [a for t in m.tables for a in vars(t).values() if isinstance(a, np.ndarray)]
    arrays += [a for t in (levels.quality, *levels.mass) for a in vars(t).values()]
    assert len(arrays) == 4 + 2 + 16 + 12
    assert not any(a.flags.writeable for a in arrays)
    # arrays the caller still holds stay as they are
    assert d.grid.flags.writeable and m.curves[0].type_grid is d.grid
    psi = node_psi(d)
    assert qsell.iron(d, psi).phi is not psi and psi.flags.writeable


# ---------------------------------------------------------------------------
# allocation


def _winner(m, t_profile, q):
    """allocate_many on one profile: the buyer asked, -1 for no sale."""
    return int(qsell.allocate_many(m, [t_profile], [q])[0])


def test_allocate_matches_threshold_logic(two_uniform):
    inst, m = two_uniform
    # phi(t) = 2t - 1, xi == 0: ask the higher type iff its phi >= 0
    assert _winner(m, [0.8, 0.6], 0.5) == 0
    assert _winner(m, [0.6, 0.8], 0.5) == 1
    assert _winner(m, [0.4, 0.3], 0.5) == -1


def test_allocate_tie_goes_to_lowest_index(two_uniform):
    inst, m = two_uniform
    assert _winner(m, [0.7, 0.7], 0.2) == 0


def test_allocate_sells_at_equality():
    # xi == phi exactly: sale happens (weak inequality)
    qm = _constant_quality(reserve=0.0)
    d = qsell.make_uniform(0.0, 1.0, m=1025)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert _winner(m, [0.5], 0.3) == 0  # phi(0.5) = 0 == xi


def test_allocate_many_vectorized(two_uniform):
    inst, m = two_uniform
    T = np.array([[0.8, 0.6], [0.6, 0.8], [0.4, 0.3], [0.7, 0.7]])
    Q = np.array([0.5, 0.5, 0.5, 0.2])
    winners = qsell.allocate_many(m, T, Q)
    assert list(winners) == [0, 1, -1, 0]


def test_allocate_profile_length_checked(two_uniform):
    inst, m = two_uniform
    with pytest.raises(ValidationError, match="one column per buyer"):
        _winner(m, [0.5], 0.5)
    with pytest.raises(ValidationError, match="one column per buyer"):
        qsell.allocate_many(m, [0.5, 0.5], [0.5])  # a profile, not a row of profiles


def test_a_nan_type_is_rejected_not_read_as_a_level(two_uniform):
    # a NaN level would lose every comparison and hide buyer 1's win
    inst, m = two_uniform
    with pytest.raises(ValidationError, match="NaN"):
        qsell.allocate_many(m, [[np.nan, 0.9], [0.1, 0.9]], [0.5, 0.5])
    with pytest.raises(ValidationError, match="NaN"):
        _winner(m, [np.nan, 0.9], 0.5)
    with pytest.raises(ValidationError, match="NaN"):
        qsell.payment(m, 0, float("nan"))
    with pytest.raises(ValidationError, match="NaN"):
        qsell.win_weight(m, 0, float("nan"))
    for read in (m.curves[0].phi_at, m.curves[0].phi_ironed_at):
        with pytest.raises(ValidationError, match="NaN"):
            read([0.5, np.nan])


def test_curve_reads_clamp_outside_the_grid_and_give_floats(two_uniform):
    _, m = two_uniform
    c = m.curves[0]
    for read, vals in ((c.phi_at, c.phi), (c.phi_ironed_at, c.phi_ironed)):
        assert read(-1.0) == vals[0] and read(np.inf) == vals[-1]
        assert type(read(np.float64(0.3))) is float
        assert np.array_equal(read([-1.0, 2.0]), vals[[0, -1]])


# ---------------------------------------------------------------------------
# win weight: analytic oracles


def test_win_weight_single_buyer_posted_price(posted_price):
    inst, m = posted_price
    # R(t) = 1{phi(t) >= 0} = 1{t >= 1/2} for one uniform buyer, xi == 0
    assert qsell.win_weight(m, 0, 0.75) == pytest.approx(1.0, abs=1e-12)
    assert qsell.win_weight(m, 0, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_win_weight_two_uniform(two_uniform):
    inst, m = two_uniform
    # R(t) = t for t >= 1/2 (opponent below with prob t), 0 below
    for t in [0.5, 0.6, 0.8, 1.0]:
        got = qsell.win_weight(m, 0, t)
        assert got == pytest.approx(t, abs=1e-9), t
    assert qsell.win_weight(m, 0, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_win_weight_scales_with_alpha():
    # alpha == 2 doubles the weight: R = 2 * 1{t >= 1/2} for one buyer
    qm = _constant_quality(alpha=2.0)
    d = qsell.make_uniform(0.0, 1.0, m=1025)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert qsell.win_weight(m, 0, 0.8) == pytest.approx(2.0, abs=1e-12)


def test_win_weight_reserve_ramp():
    # r(q) = q, q uniform: R(t) = P(q <= phi(t)) = clamp(2t-1, 0, 1)
    G = qsell.make_uniform(0.0, 1.0, m=513)
    qm = qsell.make_quality_model(G, 1.0, lambda q: np.asarray(q, float))
    d = qsell.make_uniform(0.0, 1.0, m=1025)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    for t in [0.2, 0.5, 0.7, 0.9, 1.0]:
        want = float(np.clip(2 * t - 1, 0.0, 1.0))
        assert qsell.win_weight(m, 0, t) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# payments: analytic oracles


def test_payment_posted_price_is_constant(posted_price):
    inst, m = posted_price
    for t in np.linspace(0.5, 1.0, 7):
        assert qsell.payment(m, 0, float(t)) == (
            pytest.approx(0.5, abs=1e-9)
        )


def test_payment_undefined_below_threshold(posted_price):
    inst, m = posted_price
    with pytest.raises(UndefinedPaymentError):
        qsell.payment(m, 0, 0.25)


def test_payment_defined_at_the_bottom_type_when_every_type_wins():
    # reserve -2 lies below phi(0) = -1: the buyer is asked at every type,
    # never loses to the seller, and so pays nothing, the bottom type included
    qm = _constant_quality(reserve=-2.0)
    inst = qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=257),), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert m.tables[0].entry == 0.0
    for t in (0.0, 0.5, 1.0):
        assert qsell.payment(m, 0, t) == pytest.approx(0.0, abs=1e-12)


def test_payment_two_uniform_analytic(two_uniform):
    inst, m = two_uniform
    # p(t) = t/2 + 1/(8t): second-price value conditional on winning at reserve 1/2
    for t in [0.5, 0.7, 0.9, 1.0]:
        want = t / 2.0 + 1.0 / (8.0 * t)
        got = qsell.payment(m, 0, t)
        assert got == pytest.approx(want, abs=1e-6), t


def test_payment_tabulated_matches_formula(two_uniform):
    inst, m = two_uniform
    # the pointwise payment reads the mechanism's node table at nodes
    grid = inst.buyers[0].grid
    for k in [512, 700, 1024]:
        t = float(grid[k])
        assert qsell.payment(m, 0, t) == pytest.approx(
            m.payment[0].vals[k], abs=1e-12
        )


def test_payment_nan_exactly_where_never_winning(two_uniform):
    inst, m = two_uniform
    tab = qsell.interim_tables(inst, m.curves)[0]
    nan_mask = np.isnan(m.payment[0].vals)
    assert np.array_equal(nan_mask, tab.win[1].ravel()[tab.node_pos] <= 1e-12)


_BUYER_READS = [
    pytest.param(lambda m, i: qsell.win_weight(m, i, 0.8), id="win_weight"),
    pytest.param(lambda m, i: qsell.payment(m, i, 0.8), id="payment"),
    pytest.param(lambda m, i: qsell.posterior_belief(m, i, 0.8), id="posterior_belief"),
    pytest.param(lambda m, i: qsell.partition_summary(m, i), id="partition"),
]


@pytest.mark.parametrize("read", _BUYER_READS)
@pytest.mark.parametrize("end", ["below", "above"])
def test_a_buyer_index_outside_the_buyers_is_rejected(solved_suite, read, end):
    # -1 is not the last buyer: as buyer -1, the win weight counted the
    # last buyer's own mass as a rival's (0.512 where buyer 2 reads 0.64)
    _, m = solved_suite["three-v-shape"]
    read(m, 2)
    with pytest.raises(ValidationError, match="out of range"):
        read(m, -1 if end == "below" else m.n_buyers)


@pytest.mark.parametrize("read", _BUYER_READS)
def test_a_buyer_index_that_is_not_an_integer_is_rejected(solved_suite, read):
    _, m = solved_suite["three-v-shape"]
    read(m, np.int64(2))
    for i in (0.5, 2.0, "1"):
        with pytest.raises(ValidationError, match="buyer index must be an integer"):
            read(m, i)


def test_degenerate_mechanism_flagged():
    # reserve so high nobody ever wins: xi == 5 > phi_max == 1
    qm = _constant_quality(reserve=5.0)
    d = qsell.make_uniform(0.0, 1.0, m=257)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert m.degenerate
    assert m.tables[0].entry is None
    assert np.all(np.isnan(m.payment[0].vals))
    with pytest.raises(UndefinedPaymentError):
        qsell.payment(m, 0, 0.9)
    assert _winner(m, [1.0], 0.5) == -1


# ---------------------------------------------------------------------------
# general valuations


def _squared():
    return qsell.GeneralValuation(
        type_factor=lambda t: np.asarray(t, float) ** 2,
        type_factor_deriv=lambda t: 2.0 * np.asarray(t, float),
    )


def _power_instance():
    G = qsell.make_uniform(0.0, 1.0, m=257)
    qm = qsell.make_quality_model(G, lambda q: 1.0 + np.asarray(q, float), 1.0)
    d = qsell.make_uniform(1.0, 2.0, m=1025)
    return qsell.ProblemInstance(buyers=(d,), quality=qm, valuation=_squared())


def test_general_build_uses_effective_curve():
    inst = _power_instance()
    m = qsell.build_optimal_mechanism(inst)
    # w(t) = t^2 - 2t(1-F)/f = 3t^2 - 4t on [1,2] with F = t-1, f = 1
    t = inst.buyers[0].grid
    want = 3.0 * t**2 - 4.0 * t
    assert np.allclose(m.curves[0].phi_ironed, want, atol=1e-9)
    # the win weight is b' * opp * A, with b' = 2t read off the valuation
    tab = m.tables[0]
    assert np.array_equal(m.win_weight[0].vals, 2.0 * t * tab.win[0].ravel()[tab.node_pos])
    # b is not copied onto the mechanism or into its JSON
    doc = qsell.mechanism_to_json_dict(m)
    assert "valuation_kind" not in doc
    assert "type_factor" not in doc["buyers"][0]


def test_general_requires_type_factor():
    G = qsell.make_uniform(0.0, 1.0, m=65)
    qm = qsell.make_quality_model(G, 1.0, 0.0)
    d = qsell.make_uniform(0.0, 1.0, m=65)
    for val in (
        qsell.GeneralValuation(type_factor=lambda t: np.asarray(t, float)),
        qsell.GeneralValuation(type_factor_deriv=lambda t: np.ones_like(t)),
        object(),
    ):
        with pytest.raises(ValidationError):
            qsell.ProblemInstance(buyers=(d,), quality=qm, valuation=val)


def test_general_rejects_concave_value():
    # v = (1+q) * sqrt(t) is concave in t: the convexity check must trip
    G = qsell.make_uniform(0.0, 1.0, m=65)
    qm = qsell.make_quality_model(G, lambda q: 1.0 + np.asarray(q, float), 0.5)
    val = qsell.GeneralValuation(
        type_factor=lambda t: np.sqrt(np.asarray(t, float)),
        type_factor_deriv=lambda t: 0.5 / np.sqrt(np.asarray(t, float)),
    )
    d = qsell.make_uniform(1.0, 2.0, m=257)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm, valuation=val)
    with pytest.raises(AssumptionViolationError) as err:
        qsell.build_optimal_mechanism(inst)
    [(check, t, q)] = err.value.violations
    assert check == "convexity"
    assert 1.0 < t < 2.0 and np.isnan(q)


def test_linear_valuation_is_the_identity_type_factor():
    val = qsell.LinearValuation()
    t = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(val.type_factor(t), t)
    assert np.array_equal(val.type_factor_deriv(t), np.ones(5))
    assert val == qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=5),), quality=_constant_quality()
    ).valuation


def test_power_one_builds_the_linear_mechanism(solved_suite):
    # b(t) = t ** 1.0 is the linear form: same curves, tables and revenues
    inst, m = solved_suite["bimodal-inverse-v"]
    twin = dataclasses.replace(
        inst,
        valuation=qsell.GeneralValuation(
            type_factor=lambda t: np.asarray(t, float) ** 1.0,
            type_factor_deriv=lambda t: np.asarray(t, float) ** 0.0,
        ),
    )
    m2 = qsell.build_optimal_mechanism(twin)
    assert json.dumps(qsell.mechanism_to_json_dict(m2)) == json.dumps(
        qsell.mechanism_to_json_dict(m)
    )
    for tab, tab2 in zip(m.tables, m2.tables):
        assert np.array_equal(tab.t, tab2.t)
        assert np.array_equal(tab.pay, tab2.pay, equal_nan=True)
        assert np.array_equal(tab.win, tab2.win)
    assert qsell.revenue_direct(m2) == qsell.revenue_direct(m)
    assert qsell.revenue_virtual(m2) == qsell.revenue_virtual(m)


def _ironed_general_instance(n, m):
    """b = t^2 on a bimodal buyer over [0.5, 1.5], alpha = 1, xi = q."""
    d = qsell.make_from_density(
        0.5, 1.5, lambda x: bimodal_density(np.asarray(x, float) - 0.5), m=m
    )
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257), 1.0, lambda q: np.asarray(q, float)
    )
    return qsell.ProblemInstance(buyers=(d,) * n, quality=qm, valuation=_squared())


@pytest.mark.parametrize("n", [1, 2])
def test_ironed_general_instance_verifies_and_refines(n):
    # w = b - b'(1 - F)/f dips between the bumps, so it is ironed like phi
    revenue = {}
    for m in (257, 1025, 4097):
        inst = _ironed_general_instance(n, m)
        mech = qsell.build_optimal_mechanism(inst)
        revenue[m] = qsell.revenue_direct(mech)
        # the routes integrate the same pieces with the same rule
        assert abs(revenue[m] - qsell.revenue_virtual(mech)) <= 1e-12, m
    assert mech.curves[0].ironed_intervals
    assert qsell.check_feasibility(mech).ok
    assert qsell.ic_deviation_search(mech).max_regret <= 1e-4
    assert qsell.obedience_check(mech).min_surplus >= -1e-9
    # 4(m - 1) + 1 refinement: the revenue's change must shrink at least threefold
    assert abs(revenue[4097] - revenue[1025]) <= abs(revenue[1025] - revenue[257]) / 3.0


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_bitexact(two_uniform):
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    blob = json.dumps(doc, sort_keys=True)
    m2 = qsell.mechanism_from_json_dict(json.loads(blob), inst)
    blob2 = json.dumps(qsell.mechanism_to_json_dict(m2), sort_keys=True)
    assert blob == blob2
    assert np.array_equal(m2.curves[0].phi_ironed, m.curves[0].phi_ironed)
    assert np.array_equal(m2.win_weight[1].vals, m.win_weight[1].vals)
    assert np.array_equal(m2.payment[0].vals, m.payment[0].vals, equal_nan=True)
    # exported for readers: the first node with a payment, t = 1/2
    assert doc["buyers"][0]["active_from"] == 512
    assert doc["tiebreak"] == "lowest-index"


def test_mechanisms_compare_by_value(two_uniform):
    # == reads arrays by value, NaN payments equal to NaN: a JSON round
    # trip and a second solve compare equal, a changed payment or threshold
    # curve unequal, and no comparison raises.
    inst, m = two_uniform
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    m2 = qsell.mechanism_from_json_dict(doc, inst)
    assert np.isnan(m.payment[0].vals).any()
    assert m == m2 and m.curves[0] == m2.curves[0]
    assert qsell.build_optimal_mechanism(qsell.ProblemInstance(inst.buyers, inst.quality)) == m
    pay = m.payment[0].vals.copy()
    pay[-1] += 1e-9
    stated = qsell.GriddedFunction(m.payment[0].grid, pay)
    assert m != dataclasses.replace(m, payment=[stated, m.payment[1]])
    curve = dataclasses.replace(m.curves[0], phi_ironed=m.curves[0].phi_ironed + 1e-9)
    assert curve != m.curves[0] and m != dataclasses.replace(m, curves=[curve, m.curves[1]])


def test_json_derives_win_weight_and_regularity():
    # a document's win weights and regularity are written for readers:
    # ones that contradict its curves load as the solved mechanism, and
    # the writer states the derived values again
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=65), 1.0, 0.1)
    buyers = (make_bimodal(257), qsell.make_uniform(0.0, 1.0, m=129))
    inst = qsell.ProblemInstance(buyers=buyers, quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert [c.regular for c in m.curves] == [False, True]
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    forged = json.loads(json.dumps(doc))
    for entry in forged["buyers"]:
        entry["win_weight"] = [5.0] * len(entry["win_weight"])
        entry["regular"] = not entry["regular"]
    m2 = qsell.mechanism_from_json_dict(forged, inst)
    assert m2 == m
    assert [c.regular for c in m2.curves] == [False, True]
    assert json.loads(json.dumps(qsell.mechanism_to_json_dict(m2))) == doc
    del forged["buyers"][0]["win_weight"], forged["buyers"][1]["regular"]
    assert qsell.mechanism_from_json_dict(forged, inst) == m


def test_json_rejects_wrong_schema(two_uniform):
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    doc["schema_version"] = 999
    with pytest.raises(ValidationError):
        qsell.mechanism_from_json_dict(doc, inst)


def test_json_rejects_unsupported_tiebreak(two_uniform):
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    doc["tiebreak"] = "random"
    with pytest.raises(ValidationError):
        qsell.mechanism_from_json_dict(doc, inst)


def test_json_rejects_missing_quality(two_uniform):
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    del doc["quality"]
    with pytest.raises(ValidationError):
        qsell.mechanism_from_json_dict(doc, inst)


@pytest.mark.parametrize(
    "where, key, edit",
    [
        pytest.param("buyer", "payment", lambda v: v.__setitem__(700, "x"), id="payment-text"),
        pytest.param("buyer", "phi", lambda v: v.__setitem__(3, "x"), id="phi-text"),
        pytest.param("quality", "alpha", lambda v: v.__setitem__(3, "x"), id="alpha-text"),
        pytest.param("buyer", "ironed_intervals", lambda v: v.append([1]), id="interval-single"),
        pytest.param("buyer", "ironed_intervals", lambda v: v.append([0, 1025]), id="off-grid"),
        pytest.param("buyer", "ironed_intervals", lambda v: v.append([5, 3]), id="interval-back"),
        pytest.param("buyer", "phi", list.pop, id="phi-short"),
        pytest.param("buyer", "phi_ironed", list.pop, id="phi_ironed-short"),
        pytest.param("buyer", "payment", list.pop, id="payment-short"),
        # only the payment may be null (undefined)
        pytest.param("buyer", "type_grid", lambda v: v.__setitem__(40, None), id="type_grid-null"),
        pytest.param("buyer", "phi", lambda v: v.__setitem__(40, None), id="phi-null"),
        pytest.param("buyer", "phi_ironed", lambda v: v.__setitem__(40, None), id="phi_ironed-null"),
    ],
)
def test_json_rejects_malformed_fields(two_uniform, where, key, edit):
    inst, m = two_uniform
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    edit((doc["buyers"][1] if where == "buyer" else doc["quality"])[key])
    with pytest.raises(ValidationError):
        qsell.mechanism_from_json_dict(doc, inst)


def test_json_loads_documents_with_valuation_keys(two_uniform):
    # older writers added the valuation kind and per-buyer b and b' tables
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    old = json.loads(json.dumps(doc))
    old["valuation_kind"] = "general"
    for entry in old["buyers"]:
        entry["type_factor"] = entry["type_grid"]
        entry["type_factor_deriv"] = [1.0] * len(entry["type_grid"])
    m2 = qsell.mechanism_from_json_dict(old, inst)
    assert json.dumps(qsell.mechanism_to_json_dict(m2), sort_keys=True) == json.dumps(
        doc, sort_keys=True
    )


@pytest.mark.parametrize(
    "other",
    [
        pytest.param(
            lambda inst: dataclasses.replace(
                inst, buyers=(qsell.make_uniform(0.0, 1.0, m=129),) * 2
            ),
            id="type-grid",
        ),
        pytest.param(
            lambda inst: dataclasses.replace(inst, quality=_constant_quality(m=129)),
            id="quality-grid",
        ),
        pytest.param(
            lambda inst: dataclasses.replace(inst, quality=_constant_quality(reserve=0.1)),
            id="reserve",
        ),
    ],
)
def test_json_rejects_a_document_of_another_instance(two_uniform, other):
    inst, m = two_uniform
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    with pytest.raises(ValidationError):
        qsell.mechanism_from_json_dict(doc, other(inst))


def test_json_degenerate_flag_is_read_off_the_tables(two_uniform):
    inst, m = two_uniform
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    assert doc["degenerate"] is False
    doc["degenerate"] = True
    assert not qsell.mechanism_from_json_dict(doc, inst).degenerate


def test_csv_export(tmp_path, posted_price):
    inst, m = posted_price
    paths = qsell.write_mechanism_csv(m, lambda i: str(tmp_path / f"buyer_{i}.csv"))
    assert len(paths) == 1
    lines = (tmp_path / "buyer_0.csv").read_text().strip().splitlines()
    assert lines[0] == "t,phi,phi_ironed,win_weight,payment"
    assert len(lines) == 1 + inst.buyers[0].grid.size
    # undefined payments are empty fields
    first_row = lines[1].split(",")
    assert first_row[-1] == ""


def test_reloaded_mechanism_allocates_identically(two_uniform):
    inst, m = two_uniform
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    m2 = qsell.mechanism_from_json_dict(doc, inst)
    rng = np.random.Generator(np.random.PCG64(5))
    T = rng.random((2000, 2))
    Q = rng.random(2000)
    assert np.array_equal(qsell.allocate_many(m, T, Q), qsell.allocate_many(m2, T, Q))


# ---------------------------------------------------------------------------
# interim tables and jump handling


def test_interim_jump_points_present(two_uniform):
    inst, m = two_uniform
    tab = qsell.interim_tables(inst, m.curves)[0]
    # xi == 0 is an atom; the curve meets it at t = 1/2, a node: expect the
    # two pieces meeting there to read W from either side, jumping from 0
    # to 1/2, and a query at the node to read the piece above
    W, t = tab.win[1].ravel(), tab.t.ravel()
    pair = np.nonzero(np.abs(t - 0.5) < 1e-12)[0]
    assert pair.size == 2
    assert W[pair[0]] <= 1e-12
    assert W[pair[1]] == pytest.approx(0.5, abs=1e-3)
    assert pair[1] in tab.node_pos


def test_level_tables_match_the_kernels_in_every_tie_mode(solved_suite):
    # Each interim factor read off the level tables equals the kernel's
    # value under the tie rule (strict for rivals below i, weak above it,
    # weak on the quality side), and the product with every buyer strict
    # that i None reads, at every node level, the midpoints between them
    # and random levels inside and outside their range.
    rng = np.random.default_rng(11)
    for name, (inst, m) in solved_suite.items():
        qm, n = inst.quality, inst.n_buyers
        nodes = np.unique(np.concatenate([c.phi_ironed for c in m.curves] + [qm.xi.vals]))
        span = nodes[-1] - nodes[0] + 1.0
        c = np.concatenate((
            nodes,
            0.5 * (nodes[1:] + nodes[:-1]),
            rng.uniform(nodes[0] - 0.1 * span, nodes[-1] + 0.1 * span, 500),
        ))

        def mass(j, weak):
            return dist.sublevel_mass(inst.buyers[j], m.curves[j].phi_ironed, c, weak)

        levels = m.tables[0].levels
        nobody = np.prod([mass(j, False) for j in range(n)], axis=0)
        np.testing.assert_allclose(
            levels.opp(None, c), nobody, rtol=0.0, atol=1e-14, err_msg=name
        )
        ABC = dist.sublevel_integral(qm.G.grid, qm.xi.vals, qm.integrands, c, True)
        for i in range(n):
            opp = np.prod([mass(j, j > i) for j in range(n) if j != i] + [np.ones_like(c)], axis=0)
            got = np.vstack(levels.at(i, c))
            np.testing.assert_allclose(
                got, np.vstack((opp, ABC)), rtol=0.0, atol=1e-14, err_msg=name
            )


@pytest.mark.parametrize(
    "name, buyer, expected",
    [
        ("reserve-ramp", 0, 0.5),  # continuous entry where phi = 2t - 1 meets min xi = 0
        ("three-v-shape", 0, 0.5),
        ("three-v-shape", 1, 0.5),
        ("three-v-shape", 2, 0.5),
        ("mixed-decreasing", 0, 0.75),  # min xi = 1/2, the rival's phi starts far below
        ("posted-price", 0, 0.5),  # entry by a jump: xi == 0 is an atom
    ],
)
def test_table_records_the_entry_type(solved_suite, name, buyer, expected):
    _assert_entry(solved_suite[name][1].tables[buyer], expected)


def test_entry_waits_for_the_rivals_lowest_threshold():
    # The rival's phi = 2t - 1 on [0.6, 1] starts at 0.2, above min xi = 0,
    # so buyer 0 (phi = 2t - 1 on [0, 1]) first wins inside a cell at 0.6,
    # while the rival wins from its bottom type.
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257), 1.0, lambda q: np.asarray(q, float)
    )
    buyers = (qsell.make_uniform(0.0, 1.0, m=513), qsell.make_uniform(0.6, 1.0, m=257))
    tabs = qsell.build_optimal_mechanism(qsell.ProblemInstance(buyers, qm)).tables
    _assert_entry(tabs[0], 0.6)
    assert tabs[1].entry == 0.6


def _assert_entry(tab, expected):
    assert tab.entry == pytest.approx(expected, abs=1e-12)
    # W is zero at the entry (read from the piece below it) and positive
    # at every quadrature point above it
    W, t = tab.win[1].ravel(), tab.t.ravel()
    at = np.nonzero(t == tab.entry)[0]
    assert at.size and W[at[0]] == 0.0
    assert np.all(W[t > tab.entry] > 0.0)


def test_mechanism_shares_its_interim_tables(solved_suite):
    inst, m = solved_suite["bimodal-inverse-v"]
    fresh = qsell.interim_tables(inst, m.curves)
    assert len(m.tables) == len(fresh) == inst.n_buyers
    for kept, new in zip(m.tables, fresh):
        for f in dataclasses.fields(new):
            a, b = getattr(kept, f.name), getattr(new, f.name)
            same = np.array_equal(a, b, equal_nan=True) if isinstance(b, np.ndarray) else a == b
            assert same, f.name

    repriced = dataclasses.replace(m, payment=list(m.payment))
    assert repriced.tables is m.tables


def test_a_loaded_mechanism_builds_its_tables_once(solved_suite, monkeypatch):
    inst, m = solved_suite["bimodal-inverse-v"]
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(m)))
    build, calls = mechanism.interim_tables, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(mechanism, "interim_tables", counted)
    m2 = qsell.mechanism_from_json_dict(doc, inst)
    assert len(calls) == 1
    assert m2.inst is inst
    consumers = (
        qsell.check_feasibility,
        qsell.ic_deviation_search,
        qsell.obedience_check,
        qsell.revenue_direct,
        qsell.revenue_virtual,
    )
    for consumer in consumers:
        # by repr: a report may hold NaN (no deviation found)
        assert repr(consumer(m2)) == repr(consumer(m)), consumer.__name__
    assert len(calls) == 1


def test_win_weight_constant_on_ironed_plateau():
    # irregular buyer: R must be exactly constant across the plateau nodes
    G = qsell.make_uniform(0.0, 1.0, m=257)
    qm = qsell.make_quality_model(G, 1.0, lambda q: np.asarray(q, float))
    inst = qsell.ProblemInstance(buyers=(make_bimodal(1025),), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    lo, hi = m.curves[0].ironed_intervals[0]
    plateau_R = m.win_weight[0].vals[lo : hi + 1]
    assert np.max(plateau_R) - np.min(plateau_R) <= 1e-9


# ---------------------------------------------------------------------------
# property tests


@settings(deadline=None, max_examples=25)
@given(
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
)
def test_at_most_one_buyer_asked(t1, t2, q):
    inst, m = _ALLOC_FIXTURE
    buyer = _winner(m, [t1, t2], q)
    assert buyer in (-1, 0, 1)
    if buyer >= 0:
        # the asked buyer's level clears the reserve ratio and the opponent's
        lev = [m.curves[i].phi_ironed_at([t1, t2][i]) for i in range(2)]
        assert lev[buyer] >= m.inst.quality.xi.value_at(q) - 1e-12
        assert lev[buyer] >= max(lev) - 1e-12


def _make_alloc_fixture():
    G = qsell.make_uniform(0.0, 1.0, m=129)
    qm = qsell.make_quality_model(G, 1.0, lambda q: 0.5 * np.asarray(q, float))
    inst = qsell.ProblemInstance(
        buyers=(
            qsell.make_uniform(0.0, 1.0, m=257),
            qsell.make_uniform(0.2, 1.2, m=257),
        ),
        quality=qm,
    )
    return inst, qsell.build_optimal_mechanism(inst)


_ALLOC_FIXTURE = _make_alloc_fixture()
