"""Virtual values, ironing, and the checks on a valuation's type factor."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsell
from qsell import mechanism, virtual
from qsell.errors import AssumptionViolationError, ValidationError
from conftest import (
    LEVEL_SHAPES,
    bench_instances,
    level_curve,
    load_bench_instance,
    make_bimodal,
    node_psi,
)


# ---------------------------------------------------------------------------
# virtual values: analytic oracles, read off the solved curve


def test_uniform_virtual_value():
    # F(t) = t on [0,1]: phi(t) = t - (1-t)/1 = 2t - 1
    curve = _threshold_curve(qsell.make_uniform(0.0, 1.0, m=1001), qsell.LinearValuation())
    assert curve.phi_at(0.5) == pytest.approx(0.0, abs=1e-12)
    assert curve.phi_at(1.0) == pytest.approx(1.0, abs=1e-12)
    t = np.array([0.2, 0.7])
    assert np.allclose(curve.phi_at(t), 2 * t - 1, atol=1e-12)
    assert curve.regular


def test_rising_density_virtual_value():
    # f(t) = 2t, F = t^2: phi = t - (1-t^2)/(2t) = (3t^2-1)/(2t)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        d = qsell.make_from_density(0.0, 1.0, lambda t: 2.0 * np.asarray(t, float), m=2001)
    curve = _threshold_curve(d, qsell.LinearValuation())
    assert curve.phi_at(0.5) == pytest.approx(-0.25, abs=1e-5)
    assert curve.phi_at(1.0) == pytest.approx(1.0, abs=1e-5)
    assert curve.regular


def test_shifted_uniform_virtual_value():
    # uniform on [1, 3]: phi(t) = t - (3 - t)/1 = 2t - 3
    curve = _threshold_curve(qsell.make_uniform(1.0, 3.0, m=1001), qsell.LinearValuation())
    assert curve.phi_at(2.0) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# ironing


def test_iron_identity_on_regular():
    d = qsell.make_uniform(0.0, 1.0, m=513)
    phi = node_psi(d)
    curve = qsell.iron(d, phi)
    assert curve.regular
    assert curve.ironed_intervals == ()
    assert np.array_equal(curve.phi_ironed, phi)


def test_iron_bimodal_single_plateau():
    d = make_bimodal(1025)
    phi = node_psi(d)
    assert np.diff(phi).min() < -virtual.MONOTONE_SLACK
    curve = qsell.iron(d, phi)
    assert not curve.regular
    assert len(curve.ironed_intervals) == 1
    lo, hi = curve.ironed_intervals[0]
    plateau = curve.phi_ironed[lo : hi + 1]
    # exactly constant inside
    assert np.max(np.abs(plateau - plateau[0])) == 0.0
    # exactly phi outside
    outside = np.ones(d.grid.size, dtype=bool)
    outside[lo : hi + 1] = False
    assert np.array_equal(curve.phi_ironed[outside], phi[outside])
    # monotone overall
    assert np.all(np.diff(curve.phi_ironed) >= -1e-9)


def test_iron_tent_plateau_is_exact():
    # uniform cdf on 5 nodes, psi = [0, 1, 0, 1, 2]: h rises to 1 on
    # [0, 1/4], falls back to 0 on [1/4, 1/2] and rises again, so the
    # plateau is 1/2 with contacts where h = 1/2, at w = 1/8 and 5/8
    d = qsell.make_uniform(0.0, 1.0, m=5)
    curve = qsell.iron(d, np.array([0.0, 1.0, 0.0, 1.0, 2.0]))
    assert curve.ironed_intervals == ((1, 2),)
    assert np.max(np.abs(curve.phi_ironed - [0.0, 0.5, 0.5, 1.0, 2.0])) <= 1e-12


def test_iron_idempotent():
    d = make_bimodal(1025)
    curve = qsell.iron(d, node_psi(d))
    again = qsell.iron(d, curve.phi_ironed)
    assert np.allclose(again.phi_ironed, curve.phi_ironed, atol=1e-9)
    assert again.ironed_intervals == ()


def test_iron_plateau_value_averages_raw_curve():
    # chord-slope plateau = F-conditional mean of the raw curve on the interval
    d = make_bimodal(1025)
    phi = node_psi(d)
    curve = qsell.iron(d, phi)
    lo, hi = curve.ironed_intervals[0]
    # conditional mean of phi over [t_lo, t_hi] under the type density
    seg = slice(lo, hi + 1)
    w = d.pdf_vals[seg]
    mean = np.trapezoid(phi[seg] * w, d.grid[seg]) / np.trapezoid(w, d.grid[seg])
    assert curve.phi_ironed[lo] == pytest.approx(mean, abs=2e-3)


def test_iron_mismatched_grid_rejected():
    d = qsell.make_uniform(0.0, 1.0, m=101)
    other = qsell.GriddedFunction(np.linspace(0, 1, 51), np.zeros(51))
    with pytest.raises(ValidationError):
        qsell.iron(d, other)


def test_iron_needs_psi_on_exactly_the_grid():
    # a grid 1e-12 off is np.allclose to d's, but not the same grid
    d = qsell.make_uniform(0.0, 1.0, m=101)
    psi = node_psi(d)
    assert qsell.iron(d, qsell.GriddedFunction(d.grid.copy(), psi)).phi.tolist() == psi.tolist()
    with pytest.raises(ValidationError, match="psi"):
        qsell.iron(d, qsell.GriddedFunction(d.grid + 1e-12, psi))


# ---------------------------------------------------------------------------
# threshold curves of separable valuations and the checks on b


def _threshold_curve(d, valuation):
    G = qsell.make_uniform(0.0, 1.0, m=65)
    qm = qsell.make_quality_model(G, lambda q: 1.0 + np.asarray(q, float), 0.0)
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm, valuation=valuation)
    return qsell.build_optimal_mechanism(inst).curves[0]


def _power(expo):
    return qsell.GeneralValuation(
        type_factor=lambda t: np.asarray(t, float) ** expo,
        type_factor_deriv=lambda t: expo * np.asarray(t, float) ** (expo - 1.0),
    )


def test_generalized_matches_linear_for_alpha_one():
    # b(t) = t: the threshold curve is phi itself, bit for bit
    d = qsell.make_uniform(0.0, 1.0, m=501)
    want = node_psi(d)
    assert np.array_equal(_threshold_curve(d, qsell.LinearValuation()).phi, want)
    assert np.array_equal(_threshold_curve(d, _power(1.0)).phi, want)


def test_generalized_power_form():
    # v = alpha(q) t^2 on t in [1,2], uniform types: w = b - b'(1-F)/f, and
    # w / b' = v/v_t - (1-F)/f does not depend on q
    d = qsell.make_uniform(1.0, 2.0, m=501)
    curve = _threshold_curve(d, _power(2.0))
    w = curve.phi_at(1.5)
    assert w == pytest.approx(1.5**2 - 2.0 * 1.5 * 0.5, abs=1e-9)
    assert w / 3.0 == pytest.approx(1.5 / 2.0 - (1.0 - 0.5) / 1.0, abs=1e-9)


def _violations(d, valuation):
    with pytest.raises(AssumptionViolationError) as err:
        _threshold_curve(d, valuation)
    return {v[0] for v in err.value.violations}


def test_nonpositive_derivative_rejected():
    d = qsell.make_uniform(0.0, 1.0, m=101)
    flat_start = qsell.GeneralValuation(
        type_factor=lambda t: np.asarray(t, float) ** 2,
        type_factor_deriv=lambda t: 2.0 * np.asarray(t, float),
    )
    assert _violations(d, flat_start) == {"positive-derivative"}


def test_non_finite_type_factor_rejected():
    d = qsell.make_uniform(1.0, 2.0, m=129)
    val = qsell.GeneralValuation(
        type_factor=lambda t: np.where(np.asarray(t) > 1.5, np.nan, np.asarray(t, float) ** 2),
        type_factor_deriv=lambda t: np.where(np.asarray(t) > 1.5, np.nan, 2.0 * np.asarray(t)),
    )
    assert _violations(d, val) == {"monotonicity", "convexity", "positive-derivative"}


def test_check_assumptions_passes_separable_convex():
    d = qsell.make_uniform(1.0, 2.0, m=257)
    curve = _threshold_curve(d, _power(2.0))
    assert curve.regular


def test_check_assumptions_flags_decreasing_value():
    d = qsell.make_uniform(0.0, 1.0, m=257)
    val = qsell.GeneralValuation(
        type_factor=lambda t: 1.0 - np.asarray(t, float),
        type_factor_deriv=lambda t: -np.ones_like(np.asarray(t, float)),
    )
    assert _violations(d, val) == {"monotonicity", "positive-derivative"}


# ---------------------------------------------------------------------------
# property tests


def _contact(F, psi, k0, k1, L):
    """Where h, linear from psi[k0] to psi[k1] on [F[k0], F[k1]], equals L."""
    rise = psi[k1] - psi[k0]
    frac = (L - psi[k0]) / rise if rise != 0.0 else 0.0
    return F[k0] + min(max(frac, 0.0), 1.0) * (F[k1] - F[k0])


def _h_integral(F, psi, a, b):
    """Exact integral over [a, b] of h, the linear interpolant of psi on F."""
    w = np.concatenate(([a], F[(F > a) & (F < b)], [b]))
    return float(np.trapezoid(np.interp(w, F, psi), w))


@settings(deadline=None, max_examples=40)
@given(vals=st.lists(st.floats(0.05, 5.0), min_size=8, max_size=40))
@example(vals=[1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
# phi falls by 1.03e-4 over the first cell, which the flat covers while
# touching H at every node it contains
@example(vals=[3.70703125, 2.8359375, 2.703125, 2.0, 1.4375, 1.421875,
               2.84375, 4.140625, 4.703125, 4.125])
def test_ironed_curve_is_monotone_and_below_nothing(vals):
    grid = np.linspace(0.0, 1.0, len(vals))
    d = qsell.make_from_table(grid, np.asarray(vals))
    phi = node_psi(d)
    curve = qsell.iron(d, phi)
    # a flat whose envelope sits within IRON_GAP_TOL of H is left alone, so
    # wobbles that shallow survive ironing: the monotonicity guarantee is
    # about IRON_GAP_TOL / cell width, not exact
    assert np.all(np.diff(curve.phi_ironed) >= -5e-6)
    # ironing only changes values inside declared intervals
    outside = np.ones(len(vals), dtype=bool)
    for lo, hi in curve.ironed_intervals:
        outside[lo : hi + 1] = False
    assert np.array_equal(curve.phi_ironed[outside], phi[outside])
    # each plateau L is the mean of h = phi(quantile(w)) between the
    # points a, b where h crosses L in the bracketing cells
    F, m = d.cdf_vals, len(vals)
    scale = max(1.0, float(np.max(np.abs(phi))))
    for lo, hi in curve.ironed_intervals:
        L = curve.phi_ironed[lo]
        a = 0.0 if lo == 0 else _contact(F, phi, lo - 1, lo, L)
        b = 1.0 if hi == m - 1 else _contact(F, phi, hi, hi + 1, L)
        assert abs(_h_integral(F, phi, a, b) - L * (b - a)) <= 1e-12 * scale


def _h_integral_by_cell(F, psi, a, b):
    """Exact integral over [a, b] of h, linear on each cell of positive width.

    A zero-width (tied) cell adds nothing, so h may jump where F ties.
    """
    total = 0.0
    for k in np.nonzero(np.diff(F) > 0.0)[0]:
        lo, hi = max(a, F[k]), min(b, F[k + 1])
        if hi > lo:
            h = np.interp([lo, hi], F[k : k + 2], psi[k : k + 2])
            total += 0.5 * (h[0] + h[1]) * (hi - lo)
    return total


@pytest.mark.parametrize(
    "cdf, psi",
    [
        # a tied cell: h jumps up from -2 to 3 at F = 5/9, and the
        # common tangent's root lies below every contact slope (_bridge's
        # ``lo is None`` exit)
        ([0, 3, 5, 5, 7, 9], [2.0, 0.0, -2.0, 3.0, -1.0, -3.0]),
        # no tie: the tangent from the first cell to the falling last one
        # has slope 2, the pair's largest contact slope, where g rounds to
        # -5.6e-17, so the root search runs past every slope (the
        # ``for ... else`` exit)
        ([0, 1, 3, 5], [0.0, 2.0, 3.0, 0.0]),
        # two nodes and one falling cell: both ends are lone nodes, and
        # the flat is the cell's chord
        ([0, 1], [1.0, -1.0]),
    ],
    ids=["tied-cdf-root-below", "root-above", "two-nodes"],
)
def test_ironing_where_the_bridge_extrapolates(cdf, psi):
    F = np.asarray(cdf, float) / cdf[-1]
    psi = np.asarray(psi)
    grid = np.linspace(0.0, 1.0, F.size)
    curve = qsell.iron(qsell.GriddedDistribution(grid, np.ones(F.size), F), psi)
    assert curve.ironed_intervals
    assert np.all(np.diff(curve.phi_ironed) >= -1e-12)
    outside = np.ones(F.size, dtype=bool)
    for lo, hi in curve.ironed_intervals:
        outside[lo : hi + 1] = False
        L = curve.phi_ironed[lo]
        a = 0.0 if lo == 0 else _contact(F, psi, lo - 1, lo, L)
        b = 1.0 if hi == F.size - 1 else _contact(F, psi, hi, hi + 1, L)
        assert abs(_h_integral_by_cell(F, psi, a, b) - L * (b - a)) <= 1e-12
    assert np.array_equal(curve.phi_ironed[outside], psi[outside])


@settings(deadline=None, max_examples=40)
@given(vals=st.lists(st.floats(0.05, 5.0), min_size=8, max_size=40))
def test_iron_idempotent_property(vals):
    grid = np.linspace(0.0, 1.0, len(vals))
    d = qsell.make_from_table(grid, np.asarray(vals))
    curve = qsell.iron(d, node_psi(d))
    again = qsell.iron(d, curve.phi_ironed)
    assert np.allclose(again.phi_ironed, curve.phi_ironed, atol=1e-7)


# ---------------------------------------------------------------------------
# the run chain against the cell chain it replaced


def _iron_by_cells(d, psi):
    """``iron`` as a monotone chain over every type cell: the reference for the run chain.

    It drops zero-width cells, so it is exact only where the cdf does not
    tie.  Returns (phi_ironed, ironed_intervals).
    """
    phi_ironed, intervals = psi.copy(), []
    if not np.any(np.diff(psi) < 0.0):
        return phi_ironed, ()
    F = d.cdf_vals
    dF = np.diff(F)
    H = np.concatenate(([0.0], np.cumsum(0.5 * (psi[1:] + psi[:-1]) * dF)))
    width = np.where(dF > 0.0, dF, 1.0)
    s = np.maximum(np.diff(psi), 0.0) / width
    chord = np.diff(H) / width
    lam_lo, lam_hi = np.where(s > 0.0, psi[:-1], chord), np.where(s > 0.0, psi[1:], chord)
    cells = [c for c, w in zip(zip(*(a.tolist() for a in (F[:-1], F[1:], H[:-1], H[1:], psi[:-1],
                                                           psi[1:], s, lam_lo, lam_hi))), dF) if w > 0.0]
    stack = []
    for c in cells:
        L = None
        while stack:
            L = virtual._bridge(stack[-1][0], c)
            if len(stack) > 1 and stack[-1][1] >= L:
                stack.pop()
            else:
                break
        stack.append((c, L))
    m = F.size
    for (ci, _), (cj, L) in zip(stack[:-1], stack[1:]):
        c0, a, _ = virtual._cell_support(ci, L)
        b = virtual._cell_support(cj, L)[1]
        if b <= a:
            continue
        lo = 0 if a <= F[0] else int(np.searchsorted(F, a, side="right"))
        hi = m - 1 if b >= F[-1] else int(np.searchsorted(F, b, side="left")) - 1
        if hi < lo:
            continue
        w = np.append(F[lo : hi + 1], F[lo:hi] + 0.5 * dF[lo:hi])
        half = dF[lo:hi] * (3.0 * psi[lo:hi] + psi[lo + 1 : hi + 1]) / 8.0
        if np.max(np.append(H[lo : hi + 1], H[lo:hi] + half) - (c0 + L * w)) <= virtual.IRON_GAP_TOL:
            continue
        phi_ironed[lo : hi + 1] = L
        intervals.append((lo, hi))
    return phi_ironed, tuple(intervals)


def _same_as_cells(d, psi):
    curve, (want, intervals) = qsell.iron(d, psi), _iron_by_cells(d, np.asarray(psi, dtype=float))
    assert np.array_equal(curve.phi_ironed, want)
    assert curve.ironed_intervals == intervals
    return bool(intervals)


def _on_cdf(F):
    return qsell.GriddedDistribution(np.linspace(0.0, 1.0, F.size), np.ones(F.size), F)


def _random_cdf(rng, m, tied=0.0):
    """A cdf on m nodes from random steps, a share ``tied`` of them zero."""
    steps = rng.uniform(0.05, 1.0, m - 1) * (rng.random(m - 1) >= tied)
    if not steps.any():
        steps[0] = 1.0
    F = np.concatenate(([0.0], np.cumsum(steps)))
    return F / F[-1]


def test_run_chain_matches_the_cell_chain_on_random_curves():
    rng = np.random.default_rng(20261020)
    ironed = 0
    for _ in range(3000):
        m = int(rng.integers(8, 61))
        x = np.linspace(0.0, 1.0, m)
        psi = [rng.normal(size=m), np.cumsum(rng.normal(0.1, 0.5, m)),
               np.sin(rng.uniform(3.0, 20.0) * x) + x][int(rng.integers(0, 3))]
        if rng.random() < 1.0 / 3.0:
            psi = np.round(psi, 1)  # equal neighbours: flat cells
        if rng.random() < 0.25:
            psi[0] = psi[1] + rng.uniform(0.01, 2.0)  # the first cell falls
        if rng.random() < 0.25:
            psi[-1] = psi[-2] - rng.uniform(0.01, 2.0)  # the last cell falls
        ironed += _same_as_cells(_on_cdf(_random_cdf(rng, m)), psi)
    assert ironed > 2500


@pytest.mark.parametrize("shape", LEVEL_SHAPES)
def test_run_chain_matches_the_cell_chain_on_level_shapes(shape):
    rng = np.random.default_rng(7)
    for m in (8, 33, 129, 513):
        for _ in range(4):
            _same_as_cells(_on_cdf(_random_cdf(rng, m)), level_curve(shape, rng, m))


def test_run_chain_matches_the_cell_chain_on_benchmark_buyers(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(mechanism, "iron", lambda d, psi: seen.append((d, psi)) or qsell.iron(d, psi))
    for instances in bench_instances().values():
        for inst in instances.values():
            mechanism._threshold_curves(load_bench_instance(inst, tmp_path))
    assert sum(_same_as_cells(d, psi) for d, psi in seen) >= 20


def test_the_bimodal_benchmark_buyer_is_ironed_in_a_few_bridges(monkeypatch, tmp_path):
    # The count: calls of virtual._bridge, the closed-form common tangent of
    # two cells, in one iron of mid-audit's 513-node bimodal buyer.  The cell
    # chain made 726; the run chain bridges its two runs once.
    inst = bench_instances()[("mid-audit", 1)]["bimodal-uniform-v-513"]
    d = load_bench_instance(inst, tmp_path).buyers[0]
    calls, bridge = [], virtual._bridge
    monkeypatch.setattr(virtual, "_bridge", lambda ci, cj: calls.append(ci) or bridge(ci, cj))
    curve = qsell.iron(d, node_psi(d))
    assert len(curve.ironed_intervals) == 1
    assert len(calls) <= 3


def test_ironing_a_tied_cdf_follows_the_hull():
    # h jumps down at F = 5/7 (psi -1 to -3 is a falling cell, then a tie
    # from -3 up to 1, then a fall): the lower hull of H has slope -1.4 up
    # to 5/7 and 0 after it, and the tied nodes 2 and 3 take one each
    F = np.array([0.0, 2.0, 5.0, 5.0, 7.0]) / 7.0
    curve = qsell.iron(_on_cdf(F), np.array([0.0, -1.0, -3.0, 1.0, -1.0]))
    assert np.allclose(curve.phi_ironed, [-1.4, -1.4, -1.4, 0.0, 0.0], rtol=0.0, atol=1e-15)
    assert curve.ironed_intervals == ((0, 2), (3, 4))


def test_a_shallow_drop_at_a_tie_is_ironed():
    # h drops by 1e-3 at F = 1e-3 between two cells rising at slope ~1000:
    # H bulges 1.3e-10 above the flat, under IRON_GAP_TOL, yet the flat is
    # kept; its level L has equal areas of h - L on both sides,
    # (1 - L)^2 / 1000 = (L - 0.999)^2 / 1001
    F = np.array([0.0, 1e-3, 1e-3, 2e-3, 1.0])
    curve = qsell.iron(_on_cdf(F), np.array([0.0, 1.0, 0.999, 2.0, 3.0]))
    r = math.sqrt(1000.0 / 1001.0)
    assert curve.ironed_intervals == ((1, 2),)
    assert curve.phi_ironed[1] == pytest.approx((1.0 + 0.999 * r) / (1.0 + r), abs=1e-12)


def test_ironing_random_tied_cdfs_is_monotone_and_exact():
    rng = np.random.default_rng(30)
    ironed = 0
    for _ in range(3000):
        m = int(rng.integers(4, 10))
        F = _random_cdf(rng, m, tied=0.35)
        psi = rng.integers(-3, 4, m).astype(float) if rng.random() < 0.5 else rng.normal(size=m)
        curve = qsell.iron(_on_cdf(F), psi)
        assert np.all(np.diff(curve.phi_ironed) >= -1e-12)
        outside = np.ones(m, dtype=bool)
        for lo, hi in curve.ironed_intervals:
            outside[lo : hi + 1] = False
            L = curve.phi_ironed[lo]
            assert np.all(curve.phi_ironed[lo : hi + 1] == L)
            # the plateau is the mean of h between its contacts, where h
            # crosses L in the cells bracketing it (at the tie itself when
            # that cell has zero width)
            a = 0.0 if lo == 0 else _contact(F, psi, lo - 1, lo, L)
            b = 1.0 if hi == m - 1 else _contact(F, psi, hi, hi + 1, L)
            assert abs(_h_integral_by_cell(F, psi, a, b) - L * (b - a)) <= 1e-12
        assert np.array_equal(curve.phi_ironed[outside], psi[outside])
        ironed += bool(curve.ironed_intervals)
    assert ironed > 2500
