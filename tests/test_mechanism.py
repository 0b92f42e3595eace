"""Mechanism construction: allocation, win weights, payments, serialization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsell
from qsell import dist
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
    assert qsell.xi_at(qm, 0.0) == pytest.approx(0.0)
    assert qsell.xi_at(qm, 1.0) == pytest.approx(0.5)


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
# allocation


def test_allocate_matches_threshold_logic(two_uniform):
    inst, m = two_uniform
    # phi(t) = 2t - 1, xi == 0: ask the higher type iff its phi >= 0
    sig = qsell.allocate(m, [0.8, 0.6], 0.5)
    assert sig.is_sale and sig.buyer == 0
    sig = qsell.allocate(m, [0.6, 0.8], 0.5)
    assert sig.buyer == 1
    sig = qsell.allocate(m, [0.4, 0.3], 0.5)
    assert not sig.is_sale and sig.buyer is None


def test_allocate_tie_goes_to_lowest_index(two_uniform):
    inst, m = two_uniform
    sig = qsell.allocate(m, [0.7, 0.7], 0.2)
    assert sig.buyer == 0


def test_allocate_sells_at_equality():
    # xi == phi exactly: sale happens (weak inequality)
    qm = _constant_quality(reserve=0.0)
    d = qsell.make_uniform(0.0, 1.0, m=1025)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    sig = qsell.allocate(m, [0.5], 0.3)  # phi(0.5) = 0 == xi
    assert sig.is_sale


def test_allocate_many_vectorized(two_uniform):
    inst, m = two_uniform
    T = np.array([[0.8, 0.6], [0.6, 0.8], [0.4, 0.3], [0.7, 0.7]])
    Q = np.array([0.5, 0.5, 0.5, 0.2])
    winners = qsell.allocate_many(m, T, Q)
    assert list(winners) == [0, 1, -1, 0]


def test_allocate_profile_length_checked(two_uniform):
    inst, m = two_uniform
    with pytest.raises(ValidationError):
        qsell.allocate(m, [0.5], 0.5)


# ---------------------------------------------------------------------------
# win weight: analytic oracles


def test_win_weight_single_buyer_posted_price(posted_price):
    inst, m = posted_price
    curves = m.curves
    # R(t) = 1{phi(t) >= 0} = 1{t >= 1/2} for one uniform buyer, xi == 0
    assert qsell.win_weight(inst, curves, 0, 0.75) == pytest.approx(1.0, abs=1e-12)
    assert qsell.win_weight(inst, curves, 0, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_win_weight_two_uniform(two_uniform):
    inst, m = two_uniform
    # R(t) = t for t >= 1/2 (opponent below with prob t), 0 below
    for t in [0.5, 0.6, 0.8, 1.0]:
        got = qsell.win_weight(inst, m.curves, 0, t)
        assert got == pytest.approx(t, abs=1e-9), t
    assert qsell.win_weight(inst, m.curves, 0, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_win_weight_scales_with_alpha():
    # alpha == 2 doubles the weight: R = 2 * 1{t >= 1/2} for one buyer
    qm = _constant_quality(alpha=2.0)
    d = qsell.make_uniform(0.0, 1.0, m=1025)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert qsell.win_weight(inst, m.curves, 0, 0.8) == pytest.approx(2.0, abs=1e-12)


def test_win_weight_reserve_ramp():
    # r(q) = q, q uniform: R(t) = P(q <= phi(t)) = clamp(2t-1, 0, 1)
    G = qsell.make_uniform(0.0, 1.0, m=513)
    qm = qsell.make_quality_model(G, 1.0, lambda q: np.asarray(q, float))
    d = qsell.make_uniform(0.0, 1.0, m=1025)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    for t in [0.2, 0.5, 0.7, 0.9, 1.0]:
        want = float(np.clip(2 * t - 1, 0.0, 1.0))
        assert qsell.win_weight(inst, m.curves, 0, t) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# payments: analytic oracles


def test_payment_posted_price_is_constant(posted_price):
    inst, m = posted_price
    for t in np.linspace(0.5, 1.0, 7):
        assert qsell.payment(inst, m, 0, float(t)) == (
            pytest.approx(0.5, abs=1e-9)
        )


def test_payment_undefined_below_threshold(posted_price):
    inst, m = posted_price
    with pytest.raises(UndefinedPaymentError):
        qsell.payment(inst, m, 0, 0.25)


def test_payment_two_uniform_analytic(two_uniform):
    inst, m = two_uniform
    # p(t) = t/2 + 1/(8t): second-price value conditional on winning at reserve 1/2
    for t in [0.5, 0.7, 0.9, 1.0]:
        want = t / 2.0 + 1.0 / (8.0 * t)
        got = qsell.payment(inst, m, 0, t)
        assert got == pytest.approx(want, abs=1e-6), t


def test_payment_tabulated_matches_formula(two_uniform):
    inst, m = two_uniform
    # the mechanism's interpolated payment agrees with the exact formula at nodes
    grid = inst.buyers[0].grid
    for k in [512, 700, 1024]:
        t = float(grid[k])
        assert m.payment_at(0, t) == pytest.approx(
            qsell.payment(inst, m, 0, t), abs=1e-12
        )


def test_payment_nan_exactly_where_never_winning(two_uniform):
    inst, m = two_uniform
    tab = qsell.interim_tables(inst, m.curves)[0]
    nan_mask = np.isnan(m.payment[0].vals)
    assert np.array_equal(nan_mask, tab.W <= 1e-12)


def test_degenerate_mechanism_flagged():
    # reserve so high nobody ever wins: xi == 5 > phi_max == 1
    qm = _constant_quality(reserve=5.0)
    d = qsell.make_uniform(0.0, 1.0, m=257)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    assert m.degenerate
    assert m.active_from == [-1]
    assert np.all(np.isnan(m.payment[0].vals))
    with pytest.raises(UndefinedPaymentError):
        m.payment_at(0, 0.9)
    sig = qsell.allocate(m, [1.0], 0.5)
    assert not sig.is_sale


# ---------------------------------------------------------------------------
# general valuations


def _power_instance():
    G = qsell.make_uniform(0.0, 1.0, m=257)
    qm = qsell.make_quality_model(G, lambda q: 1.0 + np.asarray(q, float), 1.0)
    val = qsell.GeneralValuation(
        value=lambda t, q: qm.alpha.value_at(q) * np.asarray(t, float) ** 2,
        deriv=lambda t, q: qm.alpha.value_at(q) * 2.0 * np.asarray(t, float),
        type_factor=lambda t: np.asarray(t, float) ** 2,
        type_factor_deriv=lambda t: 2.0 * np.asarray(t, float),
    )
    d = qsell.make_uniform(1.0, 2.0, m=1025)
    return qsell.ProblemInstance(buyers=(d,), quality=qm, valuation=val)


def test_general_build_uses_effective_curve():
    inst = _power_instance()
    m = qsell.build_optimal_mechanism(inst)
    # w(t) = t^2 - 2t(1-F)/f = 3t^2 - 4t on [1,2] with F = t-1, f = 1
    t = inst.buyers[0].grid
    want = 3.0 * t**2 - 4.0 * t
    assert np.allclose(m.curves[0].phi_ironed, want, atol=1e-9)
    assert m.valuation_kind == "general"
    assert m.type_factor is not None


def test_general_requires_type_factor():
    G = qsell.make_uniform(0.0, 1.0, m=65)
    qm = qsell.make_quality_model(G, 1.0, 0.0)
    val = qsell.GeneralValuation(
        value=lambda t, q: np.asarray(t, float),
        deriv=lambda t, q: np.ones_like(np.asarray(t, float)),
    )
    with pytest.raises(ValidationError):
        qsell.ProblemInstance(
            buyers=(qsell.make_uniform(0.0, 1.0, m=65),), quality=qm, valuation=val
        )


def test_general_rejects_concave_value():
    # v = (1+q) * sqrt(t) is concave in t: the convexity check must trip
    G = qsell.make_uniform(0.0, 1.0, m=65)
    qm = qsell.make_quality_model(G, lambda q: 1.0 + np.asarray(q, float), 0.5)
    val = qsell.GeneralValuation(
        value=lambda t, q: qm.alpha.value_at(q) * np.sqrt(np.asarray(t, float)),
        deriv=lambda t, q: qm.alpha.value_at(q) * 0.5 / np.sqrt(np.asarray(t, float)),
        type_factor=lambda t: np.sqrt(np.asarray(t, float)),
        type_factor_deriv=lambda t: 0.5 / np.sqrt(np.asarray(t, float)),
    )
    d = qsell.make_uniform(1.0, 2.0, m=257)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm, valuation=val)
    with pytest.raises(AssumptionViolationError):
        qsell.build_optimal_mechanism(inst)


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_bitexact(two_uniform):
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    blob = json.dumps(doc, sort_keys=True)
    m2 = qsell.mechanism_from_json_dict(json.loads(blob))
    blob2 = json.dumps(qsell.mechanism_to_json_dict(m2), sort_keys=True)
    assert blob == blob2
    assert np.array_equal(m2.curves[0].phi_ironed, m.curves[0].phi_ironed)
    assert np.array_equal(m2.win_weight[1].vals, m.win_weight[1].vals)
    assert np.array_equal(m2.payment[0].vals, m.payment[0].vals, equal_nan=True)
    assert m2.active_from == m.active_from
    assert m2.tiebreak == m.tiebreak


def test_json_rejects_wrong_schema(two_uniform):
    inst, m = two_uniform
    doc = qsell.mechanism_to_json_dict(m)
    doc["schema_version"] = 999
    with pytest.raises(ValidationError):
        qsell.mechanism_from_json_dict(doc)


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
    m2 = qsell.mechanism_from_json_dict(doc)
    rng = np.random.Generator(np.random.PCG64(5))
    T = rng.random((2000, 2))
    Q = rng.random(2000)
    assert np.array_equal(qsell.allocate_many(m, T, Q), qsell.allocate_many(m2, T, Q))


# ---------------------------------------------------------------------------
# interim tables and jump handling


def test_interim_jump_points_present(two_uniform):
    inst, m = two_uniform
    tab = qsell.interim_tables(inst, m.curves)[0]
    # xi == 0 is an atom; the curve crosses it at t = 1/2: expect a one-sided pair
    assert any(abs(lev) < 1e-12 for lev, _, _ in tab.crossings)
    # left and right limits at the entry point differ (W jumps from 0 to 1/2)
    j = np.searchsorted(tab.t_comb, 0.5, side="left")
    w_around = tab.W_comb[max(0, j - 1) : j + 3]
    assert np.min(w_around) <= 1e-12 and np.max(w_around) >= 0.45


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
    # W is zero at the entry (the left point of a pair at a jump) and
    # positive at every combined point above it
    at = np.nonzero(tab.t_comb == tab.entry)[0]
    assert at.size and tab.W_comb[at[0]] == 0.0
    assert np.all(tab.W_comb[tab.t_comb > tab.entry] > 0.0)


def test_mechanism_shares_its_interim_tables(solved_suite):
    inst, m = solved_suite["bimodal-inverse-v"]
    fresh = qsell.interim_tables(inst, m.curves)
    assert len(m.tables) == len(fresh) == inst.n_buyers
    for kept, new in zip(m.tables, fresh):
        for f in dataclasses.fields(new):
            a, b = getattr(kept, f.name), getattr(new, f.name)
            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, f.name

    repriced = dataclasses.replace(m, payment=list(m.payment))
    assert repriced.tables is m.tables

    # a JSON-loaded mechanism carries no tables and rebuilds them on demand
    m2 = qsell.mechanism_from_json_dict(json.loads(json.dumps(qsell.mechanism_to_json_dict(m))))
    assert m2.tables is None
    assert qsell.revenue_direct(inst, m2) == qsell.revenue_direct(inst, m)
    assert qsell.revenue_virtual(inst, m2) == qsell.revenue_virtual(inst, m)
    assert qsell.check_feasibility(inst, m2) == qsell.check_feasibility(inst, m)
    assert qsell.obedience_check(inst, m2) == qsell.obedience_check(inst, m)


def test_win_weight_constant_on_ironed_plateau():
    # irregular buyer: R must be exactly constant across the plateau nodes
    from conftest import make_bimodal

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
    sig = qsell.allocate(m, [t1, t2], q)
    assert sig.buyer in (None, 0, 1)
    if sig.buyer is not None:
        # the asked buyer's level clears the reserve ratio and the opponent's
        lev = [m.curves[i].phi_ironed_at([t1, t2][i]) for i in range(2)]
        assert lev[sig.buyer] >= qsell.xi_at(m.quality, q) - 1e-12
        assert lev[sig.buyer] >= max(lev) - 1e-12


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
