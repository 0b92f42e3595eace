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
* A factor table of the win probability made to fall by 0.05, inside a
  piece or across a break, reads a largest fall of 0.05, and a piece
  that bulges between its ends reads its fall from the peak; one shifted
  down by 0.05 reads a probability violation of 0.05.
"""

import dataclasses

import numpy as np
import pytest

import qsell
from conftest import bimodal_density, make_bimodal, xi_meeting_the_plateau


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


def test_feasibility_reads_the_allocation_not_the_stored_win_weight():
    # A bimodal buyer's document with its ironing undone: phi_ironed = phi
    # and the payments rebuilt as that allocation's envelope payments,
    # while the stored win weights stay the ironed, monotone ones.  xi
    # starts below phi's peak before its dip (-0.007), so X falls there.
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=129), 1.0, lambda q: 0.3 * np.asarray(q, float) - 0.1
    )
    inst = qsell.ProblemInstance(buyers=(make_bimodal(257),), quality=qm)
    doc = qsell.mechanism_to_json_dict(qsell.build_optimal_mechanism(inst))
    buyer = doc["buyers"][0]
    assert buyer["ironed_intervals"]
    buyer["phi_ironed"], buyer["ironed_intervals"] = buyer["phi"], []
    unironed = qsell.mechanism_from_json_dict(doc, inst)
    tab = qsell.interim_tables(inst, unironed.curves)[0]
    buyer["payment"] = [None if np.isnan(p) else p for p in tab.pay[tab.node_pos].tolist()]
    rep = qsell.check_feasibility(inst, qsell.mechanism_from_json_dict(doc, inst))
    assert not rep.ok
    # X = P(xi <= phi) = (phi + 0.1) / 0.3 falls with phi; the largest
    # fall between neighbouring nodes is 4.8e-2 (the stored copy reads 0)
    assert rep.monotonicity_violation == pytest.approx(4.84e-2, abs=1e-4)


def _with_levels(mech, **changes):
    """The mechanism with its solve's level tables replaced."""
    levels = dataclasses.replace(mech.tables[0].levels, **changes)
    return dataclasses.replace(
        mech, tables=tuple(dataclasses.replace(t, levels=levels) for t in mech.tables)
    )


def test_feasibility_detects_a_corrupted_level_table(posted_price):
    # B doubled in the quality table: above xi == 0, an atom holding all
    # the mass, the win probability reads 2, which the certificate reads
    # off the tables and must see.
    inst, mech = posted_price
    q = mech.tables[0].levels.quality
    double_B = np.array([1.0, 2.0, 1.0])[:, None]
    bad_q = dataclasses.replace(
        q, **{f: getattr(q, f) * double_B for f in ("weak", "strict", "coef")}
    )
    broken = _with_levels(mech, quality=bad_q)
    assert qsell.check_feasibility(inst, mech).probability_violation == 0.0
    rep = qsell.check_feasibility(inst, broken)
    assert not rep.ok
    assert rep.probability_violation == pytest.approx(1.0, abs=1e-12)
    assert rep.per_buyer[0]["probability_violation"] == pytest.approx(1.0, abs=1e-12)


def _with_broken_mass(mech, **fields):
    """Buyer 0's mass table with the given fields replaced."""
    mass = mech.tables[0].levels.mass
    return _with_levels(mech, mass=(dataclasses.replace(mass[0], **fields),) + mass[1:])


@pytest.mark.parametrize("case", ["falling-piece", "bulging-piece", "strict-above-weak"])
def test_feasibility_flags_a_falling_factor(two_uniform, case):
    inst, mech = two_uniform
    mass = mech.tables[0].levels.mass[0]
    j = mass.breaks.size // 2
    coef, strict = mass.coef.copy(), mass.strict.copy()
    if case == "falling-piece":
        coef[1:, j] = (-0.05, 0.0)  # the piece falls linearly by 0.05
        drop = 0.05
    elif case == "bulging-piece":
        # the piece keeps its ends, c0 and c0 + r, but peaks at
        # x = (r + k) / (2k) and falls (k - r)^2 / (4k) from there
        r, k = coef[1, j] + coef[2, j], 0.2
        coef[1:, j] = (r + k, -k)
        drop = (k - r) ** 2 / (4 * k)
    else:
        strict[j] = mass.weak[j] + 0.05
        drop = 0.05
    rep = qsell.check_feasibility(inst, _with_broken_mass(mech, coef=coef, strict=strict))
    # buyer 0's mass is a factor of buyer 1's win probability only
    assert not rep.ok
    assert rep.largest_fall == pytest.approx(drop, abs=1e-12)
    assert rep.per_buyer[1]["largest_fall"] == pytest.approx(drop, abs=1e-12)
    assert rep.per_buyer[0]["largest_fall"] <= 1e-15


def test_feasibility_flags_a_factor_below_zero(two_uniform):
    # buyer 0's mass shifted down by 0.05 at every level: buyer 1's W is
    # still 0 at its lowest level, where the quality mass B is 0, so only
    # the factor's own floor shows the violation
    inst, mech = two_uniform
    mass = mech.tables[0].levels.mass[0]
    shift = np.array([0.05, 0.0, 0.0])[:, None]
    broken = _with_broken_mass(
        mech, coef=mass.coef - shift, strict=mass.strict - 0.05, weak=mass.weak - 0.05
    )
    rep = qsell.check_feasibility(inst, broken)
    assert not rep.ok
    assert rep.largest_fall <= 1e-15
    assert rep.per_buyer[1]["win_probability_range"][0] >= 0.0
    assert rep.per_buyer[1]["probability_violation"] == pytest.approx(0.05, abs=1e-12)
    assert rep.per_buyer[0]["probability_violation"] == 0.0


def test_feasibility_certificate_matches_a_dense_read(solved_suite):
    # W = opp * B read at 10 000 levels across each buyer's threshold
    # span, and at the levels of 10 000 sampled types, stays inside the
    # certified range and reaches both of its ends.
    rng = np.random.Generator(np.random.PCG64(20240816))
    for name, (inst, mech) in solved_suite.items():
        rep = qsell.check_feasibility(inst, mech)
        assert rep.probability_violation <= 1e-15, name
        assert rep.largest_fall <= 1e-15, name
        for i, (d, tab) in enumerate(zip(inst.buyers, mech.tables)):
            phi = mech.curves[i].phi_ironed
            (sampled,) = qsell.dist.quantile(d, rng.random(10_000), phi)
            c = np.concatenate((np.linspace(np.min(phi), np.max(phi), 10_000), sampled))
            opp, _, B, _ = tab.levels.at(i, c)
            W = opp * B
            lo, hi = rep.per_buyer[i]["win_probability_range"]
            assert abs(float(np.min(W)) - lo) <= 1e-15, (name, i)
            assert abs(float(np.max(W)) - hi) <= 1e-15, (name, i)
            assert max(0.0, float(np.max(W)) - 1.0, float(-np.min(W))) <= 1e-15, (name, i)


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
    assert surplus == pytest.approx(0.0, abs=1e-9)


def _one_quality_model(m, alpha, reserve):
    return qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=m), alpha, reserve)


def test_types_just_above_a_node_entry_keep_their_surplus():
    # The 7/12 canary (one uniform buyer, r(q) = q) on 257-node grids:
    # the entry t = 1/2 is a grid node where W is still zero, so the
    # payment between it and the next node comes from the entry's
    # right-hand limit, not from the next node's payment.
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=257),),
        quality=_one_quality_model(257, 1.0, lambda q: np.asarray(q, float)),
    )
    rep = qsell.obedience_check(inst, qsell.build_optimal_mechanism(inst))
    assert rep.min_surplus >= -1e-9


def test_entry_at_an_isolated_minimum_of_xi_is_indifferent():
    # alpha = 1 + q, r = q (1 + q): xi = q has its minimum at q = 0 with
    # no mass, so B = 0 at the entry t = 1/2, and the entry type pays the
    # limit b * A / B = alpha(0) / 2 of its expected item value.
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=257),),
        quality=_one_quality_model(
            257,
            lambda q: 1.0 + np.asarray(q, float),
            lambda q: np.asarray(q, float) * (1.0 + np.asarray(q, float)),
        ),
    )
    rep = qsell.obedience_check(inst, qsell.build_optimal_mechanism(inst))
    entry, surplus = rep.marginal[0]
    assert entry == pytest.approx(0.5, abs=1e-12)
    assert abs(surplus) <= 1e-9
    assert rep.min_surplus >= -1e-9


@pytest.mark.parametrize("n_buyers", [1, 2])
def test_stepped_reserve_leaves_no_profitable_misreport(n_buyers):
    # Each flat step of r is an atom of xi, so W jumps at every type whose
    # threshold reaches a step level; payments must jump there too rather
    # than blend the two one-sided values across a cell.
    m = 65
    q = np.linspace(0.0, 1.0, m)
    steps = np.array([0.0, 0.25, 0.5, 0.75])[np.searchsorted([0.25, 0.5, 0.75], q, side="right")]
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=m),) * n_buyers,
        quality=_one_quality_model(m, 1.0, qsell.GriddedFunction(q, steps)),
    )
    rep = qsell.ic_deviation_search(inst, qsell.build_optimal_mechanism(inst), n_grid=101)
    assert rep.max_regret <= 1e-4


def test_kink_between_type_nodes_leaves_no_ic_residue():
    # A bimodal buyer on [1, 2]: the threshold level passes xi's top value
    # 0.35 between the type nodes 1.1504 and 1.1523.  Payments read from a
    # trapezoid column gave IC regret 2.8e-2 (true type 1.15, report
    # 1.152) and obedience -7.8e-4 here.
    d = qsell.make_from_density(1.0, 2.0, lambda x: bimodal_density(np.asarray(x) - 1.0), m=513)
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257),
        lambda q: 1.0 + np.asarray(q, float),
        lambda q: 0.2 + 0.5 * np.asarray(q, float),
    )
    inst = qsell.ProblemInstance(buyers=(d,), quality=qm)
    mech = qsell.build_optimal_mechanism(inst)
    assert qsell.ic_deviation_search(inst, mech).max_regret <= 1e-12
    assert qsell.obedience_check(inst, mech).min_surplus >= 0.0


def _utility(inst, mech, i, t, r):
    """Interim utility of buyer i with linear value t reporting r."""
    opp, A, B, _ = mech.tables[i].levels.at(i, mech.curves[i].phi_ironed_at(r))
    return t * opp * A - opp * B * qsell.payment(inst, mech, i, r)


@pytest.mark.parametrize("n_buyers", [2, 3])
def test_types_at_the_ends_of_a_tied_plateau_gain_nothing_by_misreporting(n_buyers):
    # Identical bimodal buyers tie on their ironed plateau, so a type at a
    # node ending it is allocated with the tie split and must pay the flat
    # piece's end: the rising piece's payment after the node would give
    # buyer 1 of two at node 623 a 1.3e-2 gain for a report 1e-7 off,
    # between the points of the IC search grid.
    _, qm, _ = xi_meeting_the_plateau(513)
    buyer = make_bimodal(1025)
    inst = qsell.ProblemInstance(buyers=(buyer,) * n_buyers, quality=qm)
    mech = qsell.build_optimal_mechanism(inst)
    for i in range(n_buyers):
        assert mech.curves[i].ironed_intervals
        for ends in mech.curves[i].ironed_intervals:
            for t in buyer.grid[list(ends)]:
                truth = _utility(inst, mech, i, t, t)
                for r in (t - 1e-7, t + 1e-7):
                    assert _utility(inst, mech, i, t, r) - truth <= 1e-9, (i, t, r)


@pytest.mark.parametrize("n_grid", [0, 1])
def test_ic_search_needs_two_grid_points(posted_price, n_grid):
    inst, mech = posted_price
    with pytest.raises(qsell.ValidationError, match="n_grid"):
        qsell.ic_deviation_search(inst, mech, n_grid=n_grid)


def test_obedience_detects_overcharging(posted_price):
    inst, mech = posted_price
    broken = _with_payment(mech, 0, mech.payment[0].vals + 0.05)
    rep = qsell.obedience_check(inst, broken)
    assert rep.min_surplus == pytest.approx(-0.05, abs=1e-3)


def test_obedience_detects_an_overcharge_at_one_node():
    # One uniform buyer on 2 049 nodes with zero reserve is posted the
    # price 1/2.  Charging 0.05 more at the third node above the entry
    # leaves the type there, whose surplus was 3/2048, regretting its
    # purchase by about 0.0485; every point of the payment column is read,
    # so a fault at one node shows.
    m = 2049
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=m),),
        quality=_one_quality_model(257, 1.0, 0.0),
    )
    mech = qsell.build_optimal_mechanism(inst)
    vals = mech.payment[0].vals.copy()
    vals[(m - 1) // 2 + 3] += 0.05
    rep = qsell.obedience_check(inst, _with_payment(mech, 0, vals))
    assert rep.min_surplus <= -0.04


def test_a_jump_entry_leaves_no_obedience_surplus(posted_price):
    # The win probability jumps at the entry t = 1/2, where the solve's
    # payment gives U = I = 0, so the least surplus U / W is 0.
    inst, mech = posted_price
    assert abs(qsell.obedience_check(inst, mech).min_surplus) <= 1e-12


@pytest.mark.parametrize("buyer", [0, 1])
@pytest.mark.parametrize("node", [48, 50])
def test_a_missing_price_where_a_buyer_is_asked_reaches_every_reader(node, buyer):
    # Two uniform buyers on 65 nodes with zero reserve are asked from
    # t = 1/2 (node 32).  A NaN price at an asked node is charged as NaN,
    # so feasibility, obedience and the deviation search fail and the
    # revenue is NaN.  Node 48 (t = 0.75) is a point of the deviation
    # search's 101-point grid; node 50 (t = 0.78125) lies between two.
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=65), qsell.make_uniform(0.0, 1.0, m=65)),
        quality=_one_quality_model(65, 1.0, 0.0),
    )
    mech = qsell.build_optimal_mechanism(inst)
    vals = mech.payment[buyer].vals.copy()
    vals[node] = np.nan
    broken = _with_payment(mech, buyer, vals)
    assert not qsell.check_feasibility(inst, broken).ok
    assert np.isnan(qsell.obedience_check(inst, broken).min_surplus)
    assert np.isnan(qsell.revenue_direct(inst, broken))
    ic = qsell.ic_deviation_search(inst, broken)
    assert np.isnan(ic.max_regret)
    assert (ic.worst_buyer, ic.worst_true_type) == (buyer, node / 64)


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


@pytest.mark.parametrize(
    "top,revenue", [pytest.param(0.75, 0.375, id="strict"), pytest.param(0.5, 0.25, id="tie")]
)
def test_oracle_two_point_posted_price(top, revenue):
    dinst = qsell.DiscreteInstance(
        type_grids=(np.array([0.25, top]),),
        type_probs=(np.array([0.5, 0.5]),),
        quality_vals=np.array([1.0]),
        quality_probs=np.array([1.0]),
        alpha_vals=np.array([1.0]),
        reserve_vals=np.array([0.0]),
    )
    best, alloc = qsell.brute_force_oracle(dinst)
    # Posting 0.75 earns 0.375 and beats posting 0.25 (earning 0.25);
    # posting 0.5 ties with 0.25, and a tie sells to fewer types.
    assert best == pytest.approx(revenue, abs=1e-12)
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
