"""Virtual values, ironing, and the checks on a valuation's type factor."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsell
from qsell.errors import AssumptionViolationError, ValidationError
from conftest import make_bimodal


# ---------------------------------------------------------------------------
# virtual values: analytic oracles


def test_uniform_virtual_value():
    # F(t) = t on [0,1]: phi(t) = t - (1-t)/1 = 2t - 1
    d = qsell.make_uniform(0.0, 1.0, m=1001)
    assert qsell.virtual_value(d, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert qsell.virtual_value(d, 1.0) == pytest.approx(1.0, abs=1e-12)
    t = np.array([0.2, 0.7])
    assert np.allclose(qsell.virtual_value(d, t), 2 * t - 1, atol=1e-12)
    assert qsell.is_regular(d)


def test_rising_density_virtual_value():
    # f(t) = 2t, F = t^2: phi = t - (1-t^2)/(2t) = (3t^2-1)/(2t)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        d = qsell.make_from_density(0.0, 1.0, lambda t: 2.0 * np.asarray(t, float), m=2001)
    assert qsell.virtual_value(d, 0.5) == pytest.approx(-0.25, abs=1e-5)
    assert qsell.virtual_value(d, 1.0) == pytest.approx(1.0, abs=1e-5)
    assert qsell.is_regular(d)


def test_shifted_uniform_virtual_value():
    # uniform on [1, 3]: phi(t) = t - (3 - t)/1 = 2t - 3
    d = qsell.make_uniform(1.0, 3.0, m=1001)
    assert qsell.virtual_value(d, 2.0) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# ironing


def test_iron_identity_on_regular():
    d = qsell.make_uniform(0.0, 1.0, m=513)
    phi = qsell.virtual_value_table(d)
    curve = qsell.iron(d, phi)
    assert curve.regular
    assert curve.ironed_intervals == ()
    assert np.array_equal(curve.phi_ironed, phi)


def test_iron_bimodal_single_plateau():
    d = make_bimodal(1025)
    phi = qsell.virtual_value_table(d)
    assert not qsell.is_regular(d)
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
    curve = qsell.iron(d, qsell.virtual_value_table(d))
    again = qsell.iron(d, curve.phi_ironed)
    assert np.allclose(again.phi_ironed, curve.phi_ironed, atol=1e-9)
    assert again.ironed_intervals == ()


def test_iron_plateau_value_averages_raw_curve():
    # chord-slope plateau = F-conditional mean of the raw curve on the interval
    d = make_bimodal(1025)
    phi = qsell.virtual_value_table(d)
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
    psi = qsell.virtual_value_table(d)
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
    want = qsell.virtual_value_table(d)
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
    phi = qsell.virtual_value_table(d)
    curve = qsell.iron(d, phi)
    # wobbles below the run-detection tolerance survive ironing, so the
    # monotonicity guarantee is tol/cell-width, not exact
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
    ],
    ids=["tied-cdf-root-below", "root-above"],
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
    curve = qsell.iron(d, qsell.virtual_value_table(d))
    again = qsell.iron(d, curve.phi_ironed)
    assert np.allclose(again.phi_ironed, curve.phi_ironed, atol=1e-7)
