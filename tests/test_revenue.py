"""Revenue accounting, simulation, and baseline benchmarks.

Oracles used here:

* Single uniform buyer on [0, 1] with zero retention value: the optimal
  policy asks the buyer iff t >= 1/2 at price 1/2, so expected revenue
  is 1/2 * 1/2 = 1/4.
* Two iid uniform buyers on [0, 1], zero retention: the classic optimal
  auction collects E[max(2t1 - 1, 2t2 - 1, 0)] where the max runs over
  kept terms only; integrating against the density 2x of max(t1, t2)
  over [1/2, 1] gives 5/12.
* Best constant price against two iid uniform buyers: revenue
  p * (1 - p^2) is maximized at p = 1/sqrt(3) with value 2/(3 sqrt(3)).
"""

import dataclasses
import math

import numpy as np
import pytest

import qsell
from conftest import make_bimodal


def _degenerate_instance():
    """Retention value so high the seller never sells."""
    buyer = qsell.make_uniform(0.0, 1.0, m=257)
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=129), alpha=1.0, reserve=5.0
    )
    return qsell.ProblemInstance(buyers=(buyer,), quality=quality)


# ---------------------------------------------------------------------------
# Revenue: two accounting routes against closed forms
# ---------------------------------------------------------------------------


def test_posted_price_revenue_both_routes(posted_price):
    inst, mech = posted_price
    assert qsell.revenue_direct(inst, mech) == pytest.approx(0.25, abs=1e-6)
    assert qsell.revenue_virtual(inst, mech) == pytest.approx(0.25, abs=1e-6)


def test_two_uniform_revenue_both_routes(two_uniform):
    inst, mech = two_uniform
    assert qsell.revenue_direct(inst, mech) == pytest.approx(5.0 / 12.0, abs=1e-6)
    assert qsell.revenue_virtual(inst, mech) == pytest.approx(5.0 / 12.0, abs=1e-6)


def test_direct_and_virtual_routes_agree_on_ramp(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    direct = qsell.revenue_direct(inst, mech)
    virtual = qsell.revenue_virtual(inst, mech)
    assert direct == pytest.approx(virtual, rel=1e-6)


@pytest.mark.parametrize("n_buyers", [1, 2])
def test_routes_agree_when_xi_crosses_and_touches_a_plateau_level(n_buyers):
    # The bimodal buyer's ironed plateau at level L carries probability
    # mass, so P(nobody clears xi(q)) jumps wherever xi meets L.  The
    # reserve table (alpha = 1, knots on quality nodes) makes xi rise
    # through L inside a cell, reach L at a node from above, leave it
    # upwards at the same node, fall through it inside a cell and rise
    # through it again: every one-sided branch of the direct route's
    # no-sale integral is exercised.
    buyer = make_bimodal(1025)
    vals = qsell.iron(buyer, qsell.virtual_value_table(buyer)).phi_ironed
    (L,) = np.unique(vals[:-1][vals[:-1] == vals[1:]])
    table = qsell.GriddedFunction(
        np.linspace(0.0, 1.0, 9),
        L + np.array([-0.2, 0.1, 0.3, 0.0, 0.2, -0.1, -0.3, 0.05, 0.1]),
    )
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=129), 1.0, table)
    xi = qm.xi.vals
    assert np.sum(xi == L) == 1 and np.sum((xi[:-1] - L) * (xi[1:] - L) < 0) == 3
    inst = qsell.ProblemInstance(buyers=(buyer,) * n_buyers, quality=qm)
    mech = qsell.build_optimal_mechanism(inst)
    direct = qsell.revenue_direct(inst, mech)
    assert direct == pytest.approx(qsell.revenue_virtual(inst, mech), abs=1e-4)


def test_degenerate_mechanism_revenue_is_retained_value():
    inst = _degenerate_instance()
    mech = qsell.build_optimal_mechanism(inst)
    assert mech.degenerate
    # The item is always kept, so both routes return E[reserve] = 5.
    assert qsell.revenue_direct(inst, mech) == pytest.approx(5.0, abs=1e-9)
    assert qsell.revenue_virtual(inst, mech) == pytest.approx(5.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def test_simulation_is_bit_identical_for_fixed_seed(two_uniform):
    inst, mech = two_uniform
    a = qsell.simulate(inst, mech, n_samples=2000, seed=7)
    b = qsell.simulate(inst, mech, n_samples=2000, seed=7)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_simulation_depends_on_seed(two_uniform):
    inst, mech = two_uniform
    a = qsell.simulate(inst, mech, n_samples=2000, seed=7)
    b = qsell.simulate(inst, mech, n_samples=2000, seed=8)
    assert a.revenue_mean != b.revenue_mean


@pytest.mark.parametrize("n_samples, seed", [(0, 7), (2000, -1)])
def test_simulation_rejects_bad_sample_count_and_seed(two_uniform, n_samples, seed):
    inst, mech = two_uniform
    with pytest.raises(qsell.ValidationError):
        qsell.simulate(inst, mech, n_samples=n_samples, seed=seed)


def test_simulation_matches_exact_revenue(two_uniform):
    inst, mech = two_uniform
    rep = qsell.simulate(inst, mech, n_samples=50_000, seed=11)
    exact = qsell.revenue_direct(inst, mech)
    assert abs(rep.revenue_mean - exact) < 4.0 * rep.revenue_stderr
    # P(sale) = P(max(t1, t2) >= 1/2) = 3/4; binomial four-sigma band.
    sale_se = math.sqrt(0.75 * 0.25 / rep.n_samples)
    assert abs(rep.sale_frequency - 0.75) < 4.0 * sale_se
    assert rep.obedience_violations == 0
    assert rep.n_samples == 50_000 and rep.seed == 11
    # No-sale entry first, then one entry per buyer; frequencies sum to 1.
    assert len(rep.allocation_frequency) == 3
    assert sum(rep.allocation_frequency) == pytest.approx(1.0, abs=1e-12)
    # Symmetric buyers should win about equally often (9/32 each).
    assert rep.allocation_frequency[1] == pytest.approx(
        rep.allocation_frequency[2], abs=0.02
    )
    # Winner utility is value minus payment, averaged over all samples;
    # a winning buyer pays at most her value, so both means are >= 0.
    assert all(u >= 0.0 for u in rep.per_buyer_utility_mean)
    assert rep.per_buyer_utility_mean[0] > 0.01


def test_simulation_on_degenerate_instance_never_sells():
    inst = _degenerate_instance()
    mech = qsell.build_optimal_mechanism(inst)
    rep = qsell.simulate(inst, mech, n_samples=500, seed=3)
    assert rep.sale_frequency == 0.0
    assert rep.allocation_frequency == (1.0, 0.0)
    assert rep.per_buyer_utility_mean == (0.0,)
    assert rep.revenue_mean == pytest.approx(5.0, abs=1e-12)
    assert rep.revenue_stderr == 0.0
    assert rep.obedience_violations == 0


# ---------------------------------------------------------------------------
# Quality-blind benchmark
# ---------------------------------------------------------------------------


def test_quality_blind_baseline_matches_optimal_when_quality_is_irrelevant(
    two_uniform,
):
    inst, mech = two_uniform
    base = qsell.myerson_baseline(inst)
    assert base.alpha_bar == pytest.approx(1.0, abs=1e-12)
    assert base.xi_bar == pytest.approx(0.0, abs=1e-12)
    assert base.revenue == pytest.approx(5.0 / 12.0, abs=1e-6)

    rng = np.random.default_rng(20240816)
    types = rng.uniform(0.0, 1.0, size=(10_000, 2))
    qs = rng.uniform(0.0, 1.0, size=10_000)
    ours = qsell.allocate_many(mech, types, qs)
    theirs = base.allocate_many(types)
    assert int(np.sum(ours != theirs)) == 0


def test_quality_blind_baseline_rejects_quality_dependent_curves(suite):
    with pytest.raises(qsell.ValidationError):
        qsell.myerson_baseline(suite["reserve-ramp"])
    with pytest.raises(qsell.ValidationError):
        qsell.myerson_baseline(suite["mixed-decreasing"])


# ---------------------------------------------------------------------------
# Constant-price benchmark
# ---------------------------------------------------------------------------


def test_best_constant_price_two_uniform(two_uniform):
    inst, mech = two_uniform
    base = qsell.best_constant_price(inst)
    assert base.price == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-3)
    assert base.revenue == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-5)
    # Adaptive pricing strictly beats any single price here.
    assert qsell.revenue_direct(inst, mech) > base.revenue + 0.01


def test_best_constant_price_single_buyer_equals_optimum(posted_price):
    inst, mech = posted_price
    base = qsell.best_constant_price(inst)
    # One uniform buyer, no quality dependence: a posted price of 1/2 is
    # already optimal, so the benchmark ties the mechanism.
    assert base.price == pytest.approx(0.5, abs=2e-3)
    assert base.revenue == pytest.approx(0.25, abs=1e-5)
    assert qsell.revenue_direct(inst, mech) >= base.revenue - 1e-9


@pytest.mark.parametrize(
    "reserve", [0.3, lambda q: q], ids=["constant-xi", "linear-xi-constant-alpha"]
)
def test_best_constant_price_reports_the_lowest_tied_cutoff(reserve):
    # With constant xi every cutoff pools all qualities into one
    # announcement; with constant alpha no announcement moves the buyers'
    # expected value.  Either way all cutoffs tie (the second only up to
    # rounding), and the lowest one must be reported.
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=65), 1.0, reserve)
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=129),) * 2, quality=qm
    )
    base = qsell.best_constant_price(inst)
    assert base.cutoff == float(np.min(qm.xi.vals)) - 1.0


def test_optimal_mechanism_dominates_constant_price(solved_suite):
    for name, (inst, mech) in solved_suite.items():
        base = qsell.best_constant_price(inst)
        assert qsell.revenue_direct(inst, mech) >= base.revenue - 1e-9, name


# ---------------------------------------------------------------------------
# Cross-check against the independent finite oracle
# ---------------------------------------------------------------------------


def test_ramp_revenue_matches_finite_oracle_at_200x200(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    exact = qsell.revenue_direct(inst, mech)

    # Midpoint discretization: 200 equiprobable type cells x 200 quality
    # cells of the same uniform model (alpha = 1, reserve(q) = q).
    k = 200
    cells = (np.arange(k) + 0.5) / k
    dinst = qsell.DiscreteInstance(
        type_grids=(cells,),
        type_probs=(np.full(k, 1.0 / k),),
        quality_vals=cells,
        quality_probs=np.full(k, 1.0 / k),
        alpha_vals=np.ones(k),
        reserve_vals=cells.copy(),
    )
    best, _ = qsell.brute_force_oracle(dinst)
    assert exact == pytest.approx(best, abs=1e-2)
