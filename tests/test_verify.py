"""Independent verification: feasibility, deviations, and the finite oracle.

Negative controls are hand-broken mechanisms with a known violation
size, so the checkers are tested both for acceptance of correct
mechanisms and for detection with roughly the planted magnitude:

* Lowering the payment by 0.1 on the top types only breaks the envelope
  identity by about 0.1 times the win probability, and types just below
  the discount window gain about 0.1 by over-reporting.
* Charging each winning type its full value (payment t on a posted-price
  instance) makes under-reporting to the lowest winning type worth
  1 - 1/2 = 0.5 to the top type.
* Raising every payment by 0.05 leaves allocation monotone but makes
  asked buyers near the threshold regret buying by about 0.05.
"""

import dataclasses

import numpy as np
import pytest

import qsell


def _with_payment(mech, i, new_vals):
    pay = list(mech.payment)
    pay[i] = qsell.GriddedFunction(grid=pay[i].grid, vals=np.asarray(new_vals, float))
    return dataclasses.replace(mech, payment=pay)


def _ramp_discrete(n_types, n_quality):
    """Midpoint-cell discretization of uniform types/quality with r(q)=q."""
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


def _oracle_allocation_value(dinst, alloc):
    """Independently price a cutoff allocation under the virtual objective."""
    phis = [
        qsell.discrete_virtual_values(g, p)
        for g, p in zip(dinst.type_grids, dinst.type_probs)
    ]
    total = float(np.sum(dinst.quality_probs * dinst.reserve_vals))
    for iq, (gq, aq, rq) in enumerate(
        zip(dinst.quality_probs, dinst.alpha_vals, dinst.reserve_vals)
    ):
        if dinst.n_buyers == 1:
            for k1 in range(dinst.type_grids[0].size):
                if k1 >= alloc.cutoffs[0][iq, 0]:
                    total += gq * dinst.type_probs[0][k1] * (aq * phis[0][k1] - rq)
            continue
        for k1 in range(dinst.type_grids[0].size):
            for k2 in range(dinst.type_grids[1].size):
                wins1 = k1 >= alloc.cutoffs[0][iq, k2]
                wins2 = k2 >= alloc.cutoffs[1][iq, k1]
                assert not (wins1 and wins2), "allocation must be disjoint"
                pr = dinst.type_probs[0][k1] * dinst.type_probs[1][k2]
                if wins1:
                    total += gq * pr * (aq * phis[0][k1] - rq)
                elif wins2:
                    total += gq * pr * (aq * phis[1][k2] - rq)
    return total


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def test_built_mechanisms_are_feasible(solved_suite):
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.check_feasibility(inst, mech)
        assert rep.ok, (name, rep)
        assert rep.monotonicity_violation <= 1e-6, name
        assert rep.envelope_residual <= 1e-6, name
        assert rep.boundary_utility <= 1e-6, name
        assert rep.probability_violation <= 1e-9, name


def test_feasibility_detects_underpaid_top_types(posted_price):
    inst, mech = posted_price
    grid = mech.payment[0].grid
    vals = mech.payment[0].vals - 0.1 * (grid > 0.9)
    broken = _with_payment(mech, 0, vals)
    rep = qsell.check_feasibility(inst, broken)
    assert not rep.ok
    # Envelope off by the discount times the win probability (one here).
    assert rep.envelope_residual == pytest.approx(0.1, abs=5e-3)


def test_feasibility_report_has_per_buyer_entries(two_uniform):
    inst, mech = two_uniform
    rep = qsell.check_feasibility(inst, mech)
    assert len(rep.per_buyer) == 2


# ---------------------------------------------------------------------------
# Misreport search
# ---------------------------------------------------------------------------


def test_ic_holds_on_built_mechanisms(solved_suite):
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.ic_deviation_search(inst, mech, n_grid=101)
        assert rep.max_regret <= 1e-3, (name, rep.max_regret)


def test_posted_price_misreports_are_payoff_equivalent(posted_price):
    inst, mech = posted_price
    rep = qsell.ic_deviation_search(inst, mech, n_grid=101)
    # Constant payment on the winning region: any winning report costs
    # the same 1/2, so regret is numerically zero.
    assert rep.max_regret <= 1e-9


def test_ic_detects_underpriced_top_reports(posted_price):
    inst, mech = posted_price
    grid = mech.payment[0].grid
    broken = _with_payment(mech, 0, mech.payment[0].vals - 0.1 * (grid > 0.9))
    rep = qsell.ic_deviation_search(inst, broken, n_grid=101)
    # Types just below 0.9 over-report into the discount window.
    assert rep.max_regret == pytest.approx(0.1, abs=5e-3)
    assert rep.worst_buyer == 0
    assert rep.worst_report > 0.9


def test_ic_detects_full_surplus_extraction(posted_price):
    inst, mech = posted_price
    grid = mech.payment[0].grid
    broken = _with_payment(mech, 0, grid.copy())  # pay your report
    rep = qsell.ic_deviation_search(inst, broken, n_grid=101)
    # The top type reports the lowest winning type and keeps 1 - 1/2.
    assert rep.max_regret == pytest.approx(0.5, abs=5e-3)
    assert rep.max_regret > 0.1


# ---------------------------------------------------------------------------
# Obedience
# ---------------------------------------------------------------------------


def test_asked_buyers_want_to_buy(solved_suite):
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.obedience_check(inst, mech)
        assert rep.min_surplus >= -1e-6, (name, rep.min_surplus)


@pytest.mark.parametrize("name", ["posted-price", "reserve-ramp"])
def test_marginal_buyer_is_indifferent(solved_suite, name):
    # posted-price enters by a jump in the win probability at t = 1/2,
    # reserve-ramp (r(q) = q) by a continuous crossing at the same type
    inst, mech = solved_suite[name]
    rep = qsell.obedience_check(inst, mech)
    entry, surplus = rep.marginal[0]
    assert entry == pytest.approx(0.5, abs=1e-12)
    assert surplus == pytest.approx(0.0, abs=1e-3)


def test_obedience_detects_overcharging(posted_price):
    inst, mech = posted_price
    broken = _with_payment(mech, 0, mech.payment[0].vals + 0.05)
    rep = qsell.obedience_check(inst, broken)
    assert rep.min_surplus == pytest.approx(-0.05, abs=1e-3)


def test_obedience_agrees_with_boundary_ir(solved_suite):
    # Non-negative posterior surplus should coincide with the boundary
    # utility check of feasibility on every solved instance.
    for name, (inst, mech) in solved_suite.items():
        feas = qsell.check_feasibility(inst, mech)
        obed = qsell.obedience_check(inst, mech)
        assert (obed.min_surplus >= -1e-6) == (feas.boundary_utility <= 1e-6), name


# ---------------------------------------------------------------------------
# Finite instances and virtual values
# ---------------------------------------------------------------------------


def test_discrete_virtual_values_two_point():
    phi = qsell.discrete_virtual_values(
        np.array([0.25, 0.75]), np.array([0.5, 0.5])
    )
    # phi_k = t_k - (t_{k+1} - t_k) (1 - F_k) / p_k, top type undistorted.
    assert phi == pytest.approx([0.25 - 0.5 * 0.5 / 0.5, 0.75])


def test_discrete_instance_validation():
    t = np.array([0.2, 0.8])
    p = np.array([0.5, 0.5])
    q = np.array([1.0])
    gq = np.array([1.0])
    good = dict(
        type_grids=(t,), type_probs=(p,), quality_vals=q, quality_probs=gq,
        alpha_vals=np.array([1.0]), reserve_vals=np.array([0.0]),
    )
    qsell.DiscreteInstance(**good)  # sanity: the base case constructs
    with pytest.raises(qsell.ValidationError):
        qsell.DiscreteInstance(**{**good, "type_probs": (np.array([0.5, 0.4]),)})
    with pytest.raises(qsell.ValidationError):
        qsell.DiscreteInstance(**{**good, "type_grids": (np.array([0.8, 0.2]),)})
    with pytest.raises(qsell.ValidationError):
        qsell.DiscreteInstance(**{**good, "alpha_vals": np.array([0.0])})
    with pytest.raises(qsell.ValidationError):
        qsell.DiscreteInstance(**{**good, "quality_probs": np.array([0.9])})


def test_discrete_threshold_requires_regular_types():
    # A thin middle atom makes the discrete virtual values dip.
    t = np.array([0.1, 0.5, 0.9])
    p = np.array([0.45, 0.1, 0.45])
    phi = qsell.discrete_virtual_values(t, p)
    assert np.any(np.diff(phi) < 0)
    dinst = qsell.DiscreteInstance(
        type_grids=(t,), type_probs=(p,),
        quality_vals=np.array([1.0]), quality_probs=np.array([1.0]),
        alpha_vals=np.array([1.0]), reserve_vals=np.array([0.0]),
    )
    with pytest.raises(qsell.ValidationError):
        qsell.discrete_threshold_revenue(dinst)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_two_point_posted_price():
    dinst = qsell.DiscreteInstance(
        type_grids=(np.array([0.25, 0.75]),),
        type_probs=(np.array([0.5, 0.5]),),
        quality_vals=np.array([1.0]),
        quality_probs=np.array([1.0]),
        alpha_vals=np.array([1.0]),
        reserve_vals=np.array([0.0]),
    )
    best, alloc = qsell.brute_force_oracle(dinst)
    # Posting 0.75 earns 0.375 and beats posting 0.25 (earning 0.25).
    assert best == pytest.approx(0.375, abs=1e-12)
    assert not alloc.never_sells
    assert alloc.cutoffs[0][0, 0] == 1  # only the top type buys
    assert _oracle_allocation_value(dinst, alloc) == pytest.approx(best, abs=1e-12)


def test_oracle_degenerate_reserve_never_sells():
    dinst = qsell.DiscreteInstance(
        type_grids=(np.array([0.25, 0.75]),),
        type_probs=(np.array([0.5, 0.5]),),
        quality_vals=np.array([0.0, 1.0]),
        quality_probs=np.array([0.5, 0.5]),
        alpha_vals=np.array([1.0, 1.0]),
        reserve_vals=np.array([4.0, 6.0]),
    )
    best, alloc = qsell.brute_force_oracle(dinst)
    assert alloc.never_sells
    assert best == pytest.approx(5.0, abs=1e-12)  # E[reserve]


@pytest.mark.parametrize("n_types,n_quality", [(5, 3), (9, 5), (13, 7)])
def test_oracle_matches_threshold_rule_at_three_resolutions(n_types, n_quality):
    dinst = _ramp_discrete(n_types, n_quality)
    best, alloc = qsell.brute_force_oracle(dinst)
    thr = qsell.discrete_threshold_revenue(dinst)
    assert abs(best - thr) <= 1e-9
    assert _oracle_allocation_value(dinst, alloc) == pytest.approx(best, abs=1e-9)


def test_oracle_matches_exhaustive_enumeration():
    """The two-buyer dynamic program equals raw enumeration on 2x2 grids."""
    import itertools

    def exhaustive(d):
        phis = [
            qsell.discrete_virtual_values(g, p)
            for g, p in zip(d.type_grids, d.type_probs)
        ]
        total = float(np.sum(d.quality_probs * d.reserve_vals))
        acc = 0.0
        for gq, aq, rq in zip(d.quality_probs, d.alpha_vals, d.reserve_vals):
            best_q = -np.inf
            for c1 in itertools.product(range(3), repeat=2):
                for c2 in itertools.product(range(3), repeat=2):
                    ok, val = True, 0.0
                    for k1 in range(2):
                        for k2 in range(2):
                            w1 = k1 >= c1[k2]
                            w2 = k2 >= c2[k1]
                            if w1 and w2:
                                ok = False
                                break
                            pr = d.type_probs[0][k1] * d.type_probs[1][k2]
                            if w1:
                                val += pr * (aq * phis[0][k1] - rq)
                            elif w2:
                                val += pr * (aq * phis[1][k2] - rq)
                        if not ok:
                            break
                    if ok:
                        best_q = max(best_q, val)
            acc += gq * best_q
        return total + acc

    rng = np.random.default_rng(20240816)
    trials = 0
    while trials < 12:
        t1 = np.sort(rng.uniform(0.0, 1.0, 2))
        t2 = np.sort(rng.uniform(0.0, 1.0, 2))
        if t1[1] - t1[0] < 1e-3 or t2[1] - t2[0] < 1e-3:
            continue
        dinst = qsell.DiscreteInstance(
            type_grids=(t1, t2),
            type_probs=(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))),
            quality_vals=np.sort(rng.uniform(0.0, 1.0, 2)),
            quality_probs=np.array([0.5, 0.5]),
            alpha_vals=rng.uniform(0.5, 2.0, 2),
            reserve_vals=rng.uniform(0.0, 0.8, 2),
        )
        best, alloc = qsell.brute_force_oracle(dinst)
        assert best == pytest.approx(exhaustive(dinst), abs=1e-12)
        assert _oracle_allocation_value(dinst, alloc) == pytest.approx(
            best, abs=1e-12
        )
        trials += 1


def test_oracle_size_guard():
    k = 4000
    t = (np.arange(k) + 0.5) / k
    dinst = qsell.DiscreteInstance(
        type_grids=(t, t.copy()),
        type_probs=(np.full(k, 1.0 / k), np.full(k, 1.0 / k)),
        quality_vals=np.array([1.0]),
        quality_probs=np.array([1.0]),
        alpha_vals=np.array([1.0]),
        reserve_vals=np.array([0.0]),
    )
    with pytest.raises(qsell.EnumerationSizeError) as exc:
        qsell.brute_force_oracle(dinst)
    assert exc.value.count == (k + 1) ** 2
    assert exc.value.limit == 10_000_000


def test_oracle_rejects_three_buyers():
    t = np.array([0.2, 0.8])
    p = np.array([0.5, 0.5])
    dinst = qsell.DiscreteInstance(
        type_grids=(t, t.copy(), t.copy()),
        type_probs=(p, p.copy(), p.copy()),
        quality_vals=np.array([1.0]),
        quality_probs=np.array([1.0]),
        alpha_vals=np.array([1.0]),
        reserve_vals=np.array([0.0]),
    )
    with pytest.raises(qsell.EnumerationSizeError):
        qsell.brute_force_oracle(dinst)
