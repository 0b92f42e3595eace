"""Acceptance gate: eleven end-to-end criteria, one test per criterion.

Each test prints a single summary line (visible with ``pytest -v -s`` or
on failure) and asserts the published tolerance.  Closed-form targets:

* two iid uniform(0,1) buyers, zero reserve: revenue 5/12, payment curve
  p(t) = t/2 + 1/(8t) on the winning range;
* one uniform(0,1) buyer, zero reserve: a posted price of 1/2 earning 1/4;
* the quality-blind and constant-price benchmarks are independent
  implementations used as witnesses.
"""

import dataclasses
import time

import numpy as np
import pytest

import qsell
from qsell.dist import quantile

from conftest import build_suite, make_bimodal


def _line(num, text):
    print(f"criterion {num:02d}: {text}")


# ---------------------------------------------------------------------------
# independent pieces used by the criteria
# ---------------------------------------------------------------------------


# The criterion-8 oracle's own quantile grid (plus the cdf nodes),
# independent of how ``iron`` builds its envelope.
ORACLE_OMEGA_NODES = 2**14


def _jarvis_lower_hull(w, H):
    """Gift-wrapping lower hull of (w, H): an O(M^2) independent oracle."""
    idx = [0]
    cur = 0
    last = w.size - 1
    while cur != last:
        rest = np.arange(cur + 1, last + 1)
        slopes = (H[rest] - H[cur]) / (w[rest] - w[cur])
        nxt = rest[np.nonzero(slopes == slopes.min())[0][-1]]
        idx.append(int(nxt))
        cur = int(nxt)
    return np.asarray(idx, dtype=int)


def _ramp_discrete(n_types, n_quality):
    t = (np.arange(n_types) + 0.5) / n_types
    q = (np.arange(n_quality) + 0.5) / n_quality
    return qsell.DiscreteInstance(
        type_grids=(t, t.copy()),
        type_probs=(np.full(n_types, 1.0 / n_types), np.full(n_types, 1.0 / n_types)),
        quality_vals=q,
        quality_probs=np.full(n_quality, 1.0 / n_quality),
        alpha_vals=np.ones(n_quality),
        reserve_vals=q.copy(),
    )


def _with_payment(mech, i, new_vals):
    pay = list(mech.payment)
    pay[i] = qsell.GriddedFunction(grid=pay[i].grid, vals=np.asarray(new_vals, float))
    return dataclasses.replace(mech, payment=pay)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_quality_blind_reduction_two_uniform_buyers():
    t0 = time.perf_counter()
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=257), 1.0, 0.0)
    inst = qsell.ProblemInstance(
        buyers=(
            qsell.make_uniform(0.0, 1.0, m=1025),
            qsell.make_uniform(0.0, 1.0, m=1025),
        ),
        quality=qm,
    )
    mech = qsell.build_optimal_mechanism(inst)
    rev = qsell.revenue_direct(mech)
    assert rev == pytest.approx(5.0 / 12.0, abs=1e-4)

    base = qsell.myerson_baseline(inst)
    rng = np.random.Generator(np.random.PCG64(11))
    types = rng.uniform(0.0, 1.0, size=(100_000, 2))
    qs = rng.uniform(0.0, 1.0, size=100_000)
    mismatches = int(np.sum(
        qsell.allocate_many(mech, types, qs) != base.allocate_many(types)
    ))
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 10.0
    _line(1, f"revenue {rev:.6f} (target 5/12), 0/100000 allocation "
             f"mismatches vs independent benchmark, {elapsed:.2f}s")


def test_criterion_02_posted_price_reduction_single_buyer(posted_price):
    inst, mech = posted_price
    grid = mech.payment[0].grid
    pay = mech.payment[0].vals
    on = grid >= 0.5 - 1e-12
    assert np.all(np.isfinite(pay[on]))
    worst = float(np.max(np.abs(pay[on] - 0.5)))
    assert worst <= 1e-4
    rev = qsell.revenue_direct(mech)
    assert rev == pytest.approx(0.25, abs=1e-4)
    _line(2, f"payment flat at 0.5 (max dev {worst:.1e}), revenue {rev:.6f}")


def test_criterion_03_payment_curve_matches_analytic_oracle(two_uniform):
    inst, mech = two_uniform
    grid = mech.payment[0].grid
    pay = mech.payment[0].vals
    pts = np.linspace(0.5, 1.0, 50)
    got = np.interp(pts, grid, pay)
    want = pts / 2.0 + 1.0 / (8.0 * pts)
    worst = float(np.max(np.abs(got - want)))
    assert worst <= 1e-3
    assert np.interp(0.5, grid, pay) == pytest.approx(0.5, abs=1e-3)
    assert np.interp(1.0, grid, pay) == pytest.approx(0.625, abs=1e-3)
    _line(3, f"p(t) = t/2 + 1/(8t) at 50 points, max dev {worst:.1e}")


def test_criterion_04_two_revenue_routes_agree_across_suite():
    t0 = time.perf_counter()
    gaps = {}
    for name, inst in build_suite().items():
        mech = qsell.build_optimal_mechanism(inst)
        rd = qsell.revenue_direct(mech)
        rv = qsell.revenue_virtual(mech)
        gaps[name] = abs(rd - rv) / max(abs(rd), abs(rv), 1e-12)
    elapsed = time.perf_counter() - t0
    assert len(gaps) >= 6
    worst = max(gaps.values())
    assert worst <= 1e-12
    assert elapsed < 60.0
    _line(4, f"{len(gaps)} instances, worst relative gap {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_05_feasibility_certificates(solved_suite):
    worst = {"mono": 0.0, "env": 0.0, "bnd": 0.0, "prob": 0.0}
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.check_feasibility(mech)
        assert rep.monotonicity_violation <= 1e-6, name
        assert rep.envelope_residual <= 1e-6, name
        assert abs(rep.boundary_utility) <= 1e-6, name
        assert rep.probability_violation <= 1e-6, name
        assert rep.ok, name
        worst["mono"] = max(worst["mono"], rep.monotonicity_violation)
        worst["env"] = max(worst["env"], rep.envelope_residual)
        worst["bnd"] = max(worst["bnd"], abs(rep.boundary_utility))
        worst["prob"] = max(worst["prob"], rep.probability_violation)
    _line(5, "feasible on all instances; worst "
             + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_06_misreport_regret_and_negative_controls(solved_suite):
    worst = 0.0
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.ic_deviation_search(mech, n_grid=101)
        assert rep.max_regret <= 1e-3, name
        worst = max(worst, rep.max_regret)

    inst, mech = solved_suite["posted-price"]
    grid = mech.payment[0].grid
    discounted = _with_payment(mech, 0, mech.payment[0].vals - 0.1 * (grid > 0.9))
    r1 = qsell.ic_deviation_search(discounted, n_grid=101).max_regret
    extractive = _with_payment(mech, 0, grid.copy())
    r2 = qsell.ic_deviation_search(extractive, n_grid=101).max_regret
    assert r1 > 0.05 and r2 > 0.05
    _line(6, f"honest regret <= {worst:.1e}; broken mechanisms flagged "
             f"with regret {r1:.3f} and {r2:.3f}")


def test_criterion_07_asked_buyers_want_to_buy(solved_suite):
    worst_min, worst_marginal = 0.0, 0.0
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.obedience_check(mech)
        assert rep.min_surplus >= -1e-6, name
        worst_min = min(worst_min, rep.min_surplus)
        for entry in rep.marginal:
            if entry is None:
                continue
            _, surplus = entry
            assert abs(surplus) <= 1e-12, name
            worst_marginal = max(worst_marginal, abs(surplus))
    _line(7, f"min purchase surplus {worst_min:.1e}; "
             f"worst marginal-type surplus {worst_marginal:.1e}")


def test_criterion_08_ironing_matches_independent_envelope(solved_suite):
    inst, mech = solved_suite["bimodal-ramp"]
    d = inst.buyers[0]
    curve = mech.curves[0]
    assert not curve.regular
    assert len(curve.ironed_intervals) >= 1
    assert np.all(np.diff(curve.phi_ironed) >= -1e-12)

    flat = np.zeros(curve.type_grid.size, dtype=bool)
    for a, b in curve.ironed_intervals:
        seg = curve.phi_ironed[a : b + 1]
        assert float(np.ptp(seg)) <= 1e-9
        flat[a : b + 1] = True
    outside_dev = float(np.max(np.abs(curve.phi_ironed[~flat] - curve.phi[~flat])))
    assert outside_dev <= 1e-6

    # independent envelope: same integral transform, different hull algorithm
    omega = np.union1d(np.linspace(0.0, 1.0, ORACLE_OMEGA_NODES), d.cdf_vals)
    h = np.interp(quantile(d, omega), d.grid, curve.phi)
    H = np.concatenate(([0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(omega))))
    hull = _jarvis_lower_hull(omega, H)
    L = np.interp(omega, omega[hull], H[hull])
    assert np.all(H - L >= -1e-12)
    slopes = np.diff(H[hull]) / np.diff(omega[hull])
    assert np.all(np.diff(slopes) >= -1e-12)

    gap_at_node = (H - L)[np.searchsorted(omega, d.cdf_vals)]
    checked = 0
    for k in np.nonzero(gap_at_node > 1e-6)[0]:
        assert flat[k]
        seg = int(np.searchsorted(omega[hull], d.cdf_vals[k], side="right")) - 1
        seg = min(max(seg, 0), slopes.size - 1)
        assert curve.phi_ironed[k] == pytest.approx(slopes[seg], abs=1e-7)
        checked += 1
    assert checked > 0

    r_dev = 0.0
    for a, b in curve.ironed_intervals:
        r_dev = max(r_dev, float(np.ptp(mech.win_weight[0].vals[a : b + 1])))
    assert r_dev <= 1e-9
    _line(8, f"{len(curve.ironed_intervals)} flat segment(s); {checked} nodes "
             f"match the gift-wrapped envelope; outside dev {outside_dev:.1e}; "
             f"win-weight flatness {r_dev:.1e}")


def test_criterion_09_exhaustive_search_parity_on_discrete_instances():
    t0 = time.perf_counter()
    gaps = []
    for shape in [(5, 3), (9, 5)]:
        dinst = _ramp_discrete(*shape)
        rev = qsell.discrete_threshold_revenue(dinst)
        best, _alloc = qsell.brute_force_oracle(dinst)
        gaps.append(abs(rev - best))
        assert abs(rev - best) <= 1e-9, shape
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(9, f"2x5x3 gap {gaps[0]:.1e}, 2x9x5 gap {gaps[1]:.1e}, "
             f"{elapsed:.1f}s")


def test_criterion_10_acceptance_set_structure():
    G = qsell.make_uniform(0.0, 1.0, m=1001)
    ramp = qsell.make_quality_model(G, 1.0, lambda q: np.asarray(q, float))
    falling = qsell.make_quality_model(
        G, lambda q: 1.0 + np.asarray(q, float), 1.0
    )
    vee = qsell.make_quality_model(
        G, 1.0, lambda q: np.abs(np.asarray(q, float) - 0.5)
    )
    assert qsell.classify_structure(ramp) == "lower"
    assert qsell.classify_structure(falling) == "upper"
    assert qsell.classify_structure(vee) == "segments"

    s = qsell.acceptance_set(ramp, 0.6)
    assert s.intervals[0] == pytest.approx((0.0, 0.6), abs=1e-4)
    s = qsell.acceptance_set(falling, 0.6)  # 1/(1+q) <= 0.6 iff q >= 2/3
    assert s.intervals[0] == pytest.approx((2.0 / 3.0, 1.0), abs=1e-4)
    s = qsell.acceptance_set(vee, 0.2)
    assert s.intervals[0] == pytest.approx((0.3, 0.7), abs=1e-4)

    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),),
        quality=qsell.make_quality_model(
            qsell.make_uniform(0.0, 1.0, m=513), 1.0, lambda q: np.asarray(q, float)
        ),
    )
    mech = qsell.build_optimal_mechanism(inst)
    t = 0.75
    level = float(np.interp(t, mech.curves[0].type_grid, mech.curves[0].phi_ironed))
    accept = qsell.acceptance_set(inst.quality, level)
    post = qsell.posterior_belief(mech, 0, t)
    cell = float(np.max(np.diff(inst.quality.G.grid)))
    support = post.grid[post.vals > 1e-12]
    lo, hi = accept.intervals[0][0], accept.intervals[-1][1]
    assert abs(support.min() - lo) <= cell
    assert abs(support.max() - hi) <= cell
    _line(10, "three canonical shapes classified; boundaries at analytic "
              "inverses; posterior support == acceptance set within one cell")


def test_criterion_11_dominates_every_constant_price(solved_suite):
    margins = {}
    for name, (inst, mech) in solved_suite.items():
        rd = qsell.revenue_direct(mech)
        cp = qsell.best_constant_price(inst)
        assert rd >= cp.revenue - 1e-9, name
        margins[name] = rd - cp.revenue
    multi = {n: m for n, m in margins.items()
             if len(solved_suite[n][0].buyers) >= 2}
    best = max(multi, key=multi.get)
    assert multi[best] >= 0.01
    _line(11, f"optimal >= best constant price everywhere; "
              f"margin {multi[best]:.4f} on {best}")
