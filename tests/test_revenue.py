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
import itertools
import json
import math
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import qsell
from conftest import (
    bench_instances,
    load_bench_instance,
    make_bimodal,
    node_psi,
    traced_peak,
    xi_meeting_the_plateau,
)
from full_disclosure import full_disclosure_revenue
from second_price import second_price_revenue
from qsell import dist, mechanism, revenue
from qsell.mechanism import _payment_at


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
    assert qsell.revenue_direct(mech) == pytest.approx(0.25, abs=1e-6)
    assert qsell.revenue_virtual(mech) == pytest.approx(0.25, abs=1e-6)


def test_two_uniform_revenue_both_routes(two_uniform):
    inst, mech = two_uniform
    assert qsell.revenue_direct(mech) == pytest.approx(5.0 / 12.0, abs=1e-6)
    assert qsell.revenue_virtual(mech) == pytest.approx(5.0 / 12.0, abs=1e-6)


@pytest.mark.parametrize(
    "name, exact", [("two-uniform", 5.0 / 12.0), ("reserve-ramp", 7.0 / 12.0)]
)
def test_virtual_route_is_exact_on_uniform_grids(solved_suite, name, exact):
    # A uniform buyer's density is constant on every cell and its phi is
    # linear, so the cut quadrature leaves only rounding (trapezoids over
    # the nodes were 3.2e-7 and 1.6e-7 off).
    inst, mech = solved_suite[name]
    assert qsell.revenue_virtual(mech) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize(
    "name, bound", [("posted-price", 1e-9), ("reserve-ramp", 1e-9), ("bimodal-ramp", 1.07e-7)]
)
def test_full_disclosure_witness_reaches_the_one_buyer_revenue(solved_suite, name, bound):
    # For one buyer, posting the best price at each disclosed quality is
    # optimal, and the witness reads only the cdf and the quality tables:
    # no phi, no ironing, no interim table.  The bimodal buyer stays
    # 1.07e-7 above revenue_direct: its threshold curve is tabulated at the
    # nodes, not solved on the piecewise model the routes integrate, and
    # the bound holds the solve at what it reaches.
    inst, mech = solved_suite[name]
    gap = full_disclosure_revenue(inst.buyers[0], inst.quality) - qsell.revenue_direct(mech)
    assert -1e-9 <= gap <= bound


@pytest.mark.parametrize("name", ["posted-price", "reserve-ramp", "bimodal-ramp"])
def test_second_price_witness_is_the_posted_price_witness_for_one_buyer(solved_suite, name):
    inst, _ = solved_suite[name]
    buyer, qm = inst.buyers[0], inst.quality
    assert abs(second_price_revenue(buyer, qm, 1) - full_disclosure_revenue(buyer, qm)) <= 1e-12


def _iid(buyer, n):
    """n buyers like ``buyer``; 257 uniform quality nodes, alpha = 1 and r(q) = q."""
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257), 1.0, lambda q: np.asarray(q, dtype=float)
    )
    return qsell.ProblemInstance((buyer,) * n, qm)


def _second_price_gap(inst):
    """The second-price witness minus revenue_direct, for an instance of iid buyers."""
    assert all(d == inst.buyers[0] for d in inst.buyers)
    witness = second_price_revenue(inst.buyers[0], inst.quality, inst.n_buyers)
    return witness - qsell.revenue_direct(qsell.build_optimal_mechanism(inst))


@pytest.mark.parametrize("n", [2, 5, 20])
def test_second_price_witness_reaches_iid_uniform_revenue(n):
    # Uniform buyers are regular, so a second-price auction with the best
    # reserve at each disclosed quality is optimal; the witness reads only
    # the cdf and the quality tables.
    inst = _iid(qsell.make_uniform(0.0, 1.0, m=513), n)
    assert abs(_second_price_gap(inst)) <= 1e-9
    if n == 2:
        assert second_price_revenue(inst.buyers[0], inst.quality, 2) == pytest.approx(
            31.0 / 48.0, abs=1e-12
        )


def test_second_price_witness_reaches_the_mid_audit_iid_revenue(tmp_path):
    # seeds 1-3; only the linear reserve's slope changes with the seed
    specs = {json.dumps(spec.doc): spec for (workload, _), instances in bench_instances().items()
             if workload == "mid-audit" for spec in instances.values()}
    checked = 0
    for spec in specs.values():
        inst = load_bench_instance(spec, tmp_path)
        if all(d == inst.buyers[0] for d in inst.buyers):
            assert abs(_second_price_gap(inst)) <= 1e-9, spec.name
            checked += 1
    assert checked == 5  # five-twelfths, three-uniform-steps and three linear slopes


@pytest.mark.parametrize("n, bound", [(2, 4.8e-7), (3, 4.1e-7)])
def test_second_price_witness_on_iid_bimodal_buyers(n, bound):
    # Bimodal buyers are irregular, so the witness is only a mechanism of
    # the same model and should not beat the solve.  It does, by 4.79e-7
    # (n = 2) and 4.06e-7 (n = 3): the threshold curve is tabulated at the
    # nodes, not solved on the piecewise model the routes integrate.  The
    # bounds hold the solve at what it reaches.
    assert _second_price_gap(_iid(make_bimodal(513), n)) <= bound


def test_direct_and_virtual_routes_agree_on_ramp(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    direct = qsell.revenue_direct(mech)
    virtual = qsell.revenue_virtual(mech)
    assert direct == pytest.approx(virtual, rel=1e-6)


@pytest.mark.parametrize("n_buyers", [1, 2])
def test_routes_agree_when_xi_crosses_and_touches_a_plateau_level(n_buyers):
    # The bimodal buyer's ironed plateau at level L carries probability
    # mass, so P(nobody clears xi(q)) jumps wherever xi meets L: every
    # one-sided branch of the direct route's no-sale integral is exercised.
    buyer, qm, L = xi_meeting_the_plateau(129)
    xi = qm.xi.vals
    assert np.sum(xi == L) == 1 and np.sum((xi[:-1] - L) * (xi[1:] - L) < 0) == 3
    inst = qsell.ProblemInstance(buyers=(buyer,) * n_buyers, quality=qm)
    mech = qsell.build_optimal_mechanism(inst)
    direct = qsell.revenue_direct(mech)
    assert direct == pytest.approx(qsell.revenue_virtual(mech), abs=1e-4)


@pytest.mark.parametrize("n_buyers", [1, 2])
def test_tied_plateaus_refine_with_routes_agreeing_to_rounding(n_buyers):
    # Identical bimodal buyers tie on their ironed plateaus, and xi meets
    # the plateau level of the 1025-node buyer.  On 513 quality nodes the
    # two routes integrate the same pieces with the same rule, so they
    # agree to rounding on every type grid (trapezoid columns left 8.6e-6
    # and 1.7e-7 at 257 and 1025 nodes for one buyer), and the revenue's
    # change must shrink at least threefold from one 4(m - 1) + 1
    # refinement to the next.
    _, qm, _ = xi_meeting_the_plateau(513)
    revenue = {}
    for m in (257, 1025, 4097):
        inst = qsell.ProblemInstance(buyers=(make_bimodal(m),) * n_buyers, quality=qm)
        mech = qsell.build_optimal_mechanism(inst)
        assert mech.curves[0].ironed_intervals
        revenue[m] = qsell.revenue_direct(mech)
        assert abs(revenue[m] - qsell.revenue_virtual(mech)) <= 1e-12, m
    assert abs(revenue[4097] - revenue[1025]) <= abs(revenue[1025] - revenue[257]) / 3.0


def test_every_revenue_reader_reads_the_instance_the_mechanism_was_solved_on(two_uniform):
    # Two uniform buyers, reserve 0.3: sell when max(t1, t2) >= 0.65, so the
    # revenue is 0.3 + integral over [0.65, 1] of (2x - 1.3) * 2x dx.  Read
    # with the reserve-0 mechanism, the three routes gave 0.5434, 0.7167
    # and 0.4917.
    inst, _ = two_uniform
    reserved = dataclasses.replace(
        inst, quality=qsell.make_quality_model(inst.quality.G, 1.0, 0.3)
    )
    mech = qsell.build_optimal_mechanism(reserved)
    assert mech.inst is reserved
    direct = qsell.revenue_direct(mech)
    exact = 0.3 + (4.0 / 3.0 - 1.3) - (4.0 / 3.0 * 0.65**3 - 1.3 * 0.65**2)
    assert direct == pytest.approx(exact, abs=1e-9)
    assert abs(direct - qsell.revenue_virtual(mech)) <= 1e-12
    rep = qsell.simulate(mech, 20_000, 3)
    assert abs(rep.revenue_mean - direct) <= 5.0 * rep.revenue_stderr


def test_degenerate_mechanism_revenue_is_retained_value():
    inst = _degenerate_instance()
    mech = qsell.build_optimal_mechanism(inst)
    assert mech.degenerate
    # The item is always kept, so both routes return E[reserve] = 5.
    assert qsell.revenue_direct(mech) == pytest.approx(5.0, abs=1e-9)
    assert qsell.revenue_virtual(mech) == pytest.approx(5.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def test_simulation_is_bit_identical_for_fixed_seed(two_uniform):
    inst, mech = two_uniform
    a = qsell.simulate(mech, n_samples=2000, seed=7)
    b = qsell.simulate(mech, n_samples=2000, seed=7)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_simulation_depends_on_seed(two_uniform):
    inst, mech = two_uniform
    a = qsell.simulate(mech, n_samples=2000, seed=7)
    b = qsell.simulate(mech, n_samples=2000, seed=8)
    assert a.revenue_mean != b.revenue_mean


@pytest.mark.parametrize(
    "n_samples, seed", [(0, 7), (2000, -1), (1000.5, 1), (2000.0, 7), (2000, 7.5)]
)
def test_simulation_rejects_bad_sample_count_and_seed(two_uniform, n_samples, seed):
    inst, mech = two_uniform
    with pytest.raises(qsell.ValidationError):
        qsell.simulate(mech, n_samples=n_samples, seed=seed)


def test_simulation_matches_exact_revenue(two_uniform):
    inst, mech = two_uniform
    rep = qsell.simulate(mech, n_samples=50_000, seed=11)
    exact = qsell.revenue_direct(mech)
    assert abs(rep.revenue_mean - exact) < 4.0 * rep.revenue_stderr
    # P(sale) = P(max(t1, t2) >= 1/2) = 3/4; binomial four-sigma band.
    sale_se = math.sqrt(0.75 * 0.25 / rep.n_samples)
    assert abs(rep.sale_frequency - 0.75) < 4.0 * sale_se
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
    rep = qsell.simulate(mech, n_samples=500, seed=3)
    assert rep.sale_frequency == 0.0
    assert rep.allocation_frequency == (1.0, 0.0)
    assert rep.per_buyer_utility_mean == (0.0,)
    assert rep.revenue_mean == pytest.approx(5.0, abs=1e-12)
    assert rep.revenue_stderr == 0.0


def _simulate_by_interp(m, n_samples, seed):
    """The former sampling path, kept as the reference for ``simulate``.

    Every quantile and curve is its own np.interp, and the winner is the
    argmax of an (n_samples x n) level matrix.  Returns the allocation
    frequencies, the revenue mean and the per-buyer utility means.
    """
    inst = m.inst
    n, qm = inst.n_buyers, inst.quality
    children = np.random.SeedSequence(seed).spawn(n + 1)
    u = [np.random.Generator(np.random.PCG64(c)).random(n_samples) for c in children]
    types = np.column_stack(
        [np.interp(u[i], d.cdf_vals, d.grid) for i, d in enumerate(inst.buyers)]
    )
    q = np.interp(u[n], qm.G.cdf_vals, qm.G.grid)
    levels = np.column_stack(
        [np.interp(types[:, i], c.type_grid, c.phi_ironed) for i, c in enumerate(m.curves)]
    )
    winners = np.argmax(levels, axis=1)
    best = levels[np.arange(n_samples), winners]
    winners = np.where(best >= np.interp(q, qm.G.grid, qm.xi.vals), winners, -1)
    revenue = np.interp(q, qm.G.grid, qm.reserve.vals)
    freq, util = [float(np.mean(winners < 0))], []
    for i in range(n):
        mask = winners == i
        freq.append(float(np.mean(mask)))
        t = types[mask, i]
        pay = _payment_by_search(*m.columns[i], t)
        revenue[mask] = pay
        alpha = np.interp(q[mask], qm.G.grid, qm.alpha.vals)
        util.append(float(np.sum(inst.valuation.type_factor(t) * alpha - pay)) / n_samples)
    return freq, float(np.mean(revenue)), util


def _raw_index(tc, t):
    """The interval of each type t (clipped to the column) by one search of the points tc."""
    return np.clip(np.searchsorted(tc, t, side="right") - 1, 0, tc.size - 2)


def _index_by_search(tab, t):
    """The column interval each type t reads, by the flat-end rule as the points state it.

    The whole-column search's interval, stepped back by one where the
    type sits on the point after a node's entry that shares the entry's
    abscissa (the end of an asked flat piece).  The marks come from
    ``node_pos`` and the abscissae alone, not from ``tab.ends``.
    """
    tc, pos = tab.t, tab.node_pos[:-1]
    after_flat = np.zeros(tc.size, dtype=bool)
    after_flat[pos + 1] = tc[pos + 1] == tc[pos]
    t = np.clip(t, tc[0], tc[-1])
    k = _raw_index(tc, t)
    return k - (after_flat[k] & (tc[k] == t))


def _payment_by_search(tab, pay, t):
    """The payment column pay read at types t through one search of the whole column.

    The reference for ``_payment_at``: the interval from ``searchsorted``,
    the flat-end rule (``_index_by_search``), and the fraction from the
    interval's two ends.
    """
    tc = tab.t
    t = np.clip(t, tc[0], tc[-1])
    k = _index_by_search(tab, t)
    t0, t1 = tc[k], tc[k + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(t1 > t0, (t - t0) / (t1 - t0), 0.0)
    return pay[k] + (pay[k + 1] - pay[k]) * frac


def _tied_bimodal_pair():
    """Two identical bimodal buyers: their ironed plateaus tie exactly."""
    # xi runs from -0.5 to 0.5, so the plateau at about -0.31 sells.
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=129), 1.0, lambda q: np.asarray(q, float) - 0.5
    )
    inst = qsell.ProblemInstance(buyers=(make_bimodal(257),) * 2, quality=qm)
    return inst, qsell.build_optimal_mechanism(inst)


def test_simulation_matches_the_interp_reference(solved_suite):
    cases = {**solved_suite, "tied-bimodal-pair": _tied_bimodal_pair()}
    for name, (inst, mech) in cases.items():
        rep = qsell.simulate(mech, n_samples=50_000, seed=5)
        freq, mean, util = _simulate_by_interp(mech, 50_000, 5)
        assert list(rep.allocation_frequency) == freq, name
        assert abs(rep.revenue_mean - mean) <= 1e-12, name
        assert np.max(np.abs(np.subtract(rep.per_buyer_utility_mean, util))) <= 1e-12, name


@pytest.mark.parametrize("n_buyers", [2, 3])
def test_sampled_types_on_the_nodes_of_a_tied_plateau_pay_the_stated_price(monkeypatch, n_buyers):
    # Every draw is a cdf node value, so each sampled type and quality is a
    # node abscissa (fraction 0 of its cell), which seeded draws never hit.
    # For every buyer but the first, the node closing the tied plateau is
    # asked on a flat piece and pays that piece's end, not the start of the
    # rising piece after it; buyer 0 wins every tie, so its two coincide.
    _, qm, _ = xi_meeting_the_plateau(513)
    buyer = make_bimodal(1025)
    inst = qsell.ProblemInstance(buyers=(buyer,) * n_buyers, quality=qm)
    m = qsell.build_optimal_mechanism(inst)
    ((lo, hi),) = m.curves[0].ironed_intervals
    for tab in m.tables[1:]:
        p = tab.node_pos[hi]
        assert tab.t[p + 1] == buyer.grid[hi] and tab.pay[p] != tab.pay[p + 1]
    nodes = [lo - 1, lo, (lo + hi) // 2, hi, hi + 1, 900]
    q_nodes = [0, 128, 192, 384]  # xi = L - 0.2, L + 0.3, L, L - 0.3
    picks = np.array(list(itertools.product(*[nodes] * n_buyers, q_nodes)))
    draws = iter([buyer.cdf_vals[picks[:, i]] for i in range(n_buyers)]
                 + [qm.G.cdf_vals[picks[:, -1]]])  # in stream order: buyers, then quality

    class Draws:
        def __init__(self, bits):
            self.u = next(draws)

        def random(self, size):
            assert size == self.u.size
            return self.u.copy()

    monkeypatch.setattr(revenue.np.random, "Generator", Draws)
    rep = qsell.simulate(m, n_samples=len(picks), seed=0)

    types, q = buyer.grid[picks[:, :-1]], qm.G.grid[picks[:, -1]]
    winners = qsell.allocate_many(m, types, q)
    assert all(((winners == i) & (picks[:, i] == hi)).any() for i in range(1, n_buyers))
    charged, util = qm.reserve.vals[picks[:, -1]], []
    for i in range(n_buyers):
        won = winners == i
        stated = m.payment[i].vals[picks[won, i]]
        charged[won] = stated
        util.append(float(np.sum(types[won, i] * qm.alpha.vals[picks[won, -1]] - stated)) / len(picks))
        assert [qsell.payment(m, i, t) for t in types[won, i]] == stated.tolist()
    freq = [float(np.mean(winners == i)) for i in range(-1, n_buyers)]
    assert list(rep.allocation_frequency) == freq
    assert abs(rep.revenue_mean - float(np.mean(charged))) <= 1e-12
    assert np.max(np.abs(np.subtract(rep.per_buyer_utility_mean, util))) <= 1e-12


def _stepped_xi_pair():
    """A bimodal and a uniform buyer; xi steps through the bimodal plateau level."""
    buyer = make_bimodal(257)
    vals = qsell.iron(buyer, node_psi(buyer)).phi_ironed
    (L,) = np.unique(vals[:-1][vals[:-1] == vals[1:]])
    steps = qsell.GriddedFunction(
        np.linspace(0.0, 1.0, 8), L + np.array([-0.2, -0.2, 0.0, 0.0, 0.3, 0.3, 0.0, 0.0])
    )
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=129), 1.0, steps)
    inst = qsell.ProblemInstance(buyers=(buyer, qsell.make_uniform(0.0, 1.0, m=257)), quality=qm)
    return inst, qsell.build_optimal_mechanism(inst)


def _guided_queries(grid, tc):
    """Type cells k and fractions w that ``simulate`` can read a winner's type at.

    Every node (w = 0), every sub-bucket edge b / 8 and its neighbours,
    w just below 1 and w = 1 in every cell, and each column point's
    fraction of its cell with its neighbours, so that reads land on the
    column's points, duplicate abscissae included.
    """
    cells = grid.size - 1
    edges = np.arange(mechanism._GUIDE_STEPS) / mechanism._GUIDE_STEPS
    fracs = np.concatenate(
        (edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), [np.nextafter(1.0, 0.0), 1.0])
    )
    fracs = np.clip(fracs, 0.0, 1.0)
    k = np.repeat(np.arange(cells), fracs.size)
    w = np.tile(fracs, cells)
    kc = np.clip(np.searchsorted(grid, tc, side="right") - 1, 0, cells - 1)
    wc = (tc - grid[kc]) / np.diff(grid)[kc]
    for near in (wc, np.nextafter(wc, -1.0), np.nextafter(wc, 2.0)):
        k = np.concatenate((k, kc))
        w = np.concatenate((w, np.clip(near, 0.0, 1.0)))
    return k, w


def _guided_column_reads(tab, pay, grid, k, w):
    """A column's interval and payment at types read at (k, w) on grid, by guide and by search."""
    tc, steps = tab.t, mechanism._GUIDE_STEPS
    guide = mechanism._column_guide(tab, pay, grid)
    search = guide[-1]
    t = np.clip(dist._cell_read(grid, np.diff(grid), k, w), tc[0], tc[-1])
    bucket = (w * steps).astype(np.intp) + (steps + 1) * k  # w = 1 is a bucket of its own
    want = _index_by_search(tab, t)
    assert np.all(search[0][bucket] <= want)
    assert np.array_equal(dist._guided_index(tab.ends, t, search, bucket), want)
    assert np.array_equal(tab.ends.searchsorted(t, side="right"), want)
    guided = _payment_at(tab, pay, t, guide, (k, w))
    assert np.array_equal(guided, _payment_by_search(tab, pay, t), equal_nan=True)
    assert np.array_equal(_payment_at(tab, pay, t), guided, equal_nan=True)
    return search, bucket, t, want


def test_cell_guided_column_index_matches_searchsorted(solved_suite):
    # A winner's column interval comes from the guide entry of its type
    # cell and sub-bucket; it must be the whole-column search's, and so
    # must the payment read through it, flat-end rule and all.
    cases = {
        **solved_suite,
        "tied-bimodal-pair": _tied_bimodal_pair(),
        "stepped-xi": _stepped_xi_pair(),
    }
    hit_points = hit_flat_ends = 0
    for name, (inst, mech) in cases.items():
        for d, (tab, pay) in zip(inst.buyers, mech.columns):
            k, w = _guided_queries(d.grid, tab.t)
            *_, t, want = _guided_column_reads(tab, pay, d.grid, k, w)
            hit_points += int(np.count_nonzero(tab.t[want] == t))
            hit_flat_ends += int(np.count_nonzero(want != _raw_index(tab.t, t)))
    assert hit_points > 0 and hit_flat_ends > 0


def _synthetic_column(t, node_pos):
    """A column on points t whose nodes read ``node_pos``; the solve's helper builds its ends."""
    node_pos = np.asarray(node_pos)
    return SimpleNamespace(t=t, node_pos=node_pos, ends=mechanism._interval_ends(t, node_pos))


def test_guided_column_index_searches_a_bucket_of_many_points():
    # Thirty column points inside the first sub-bucket of a type cell: that
    # bucket spans them all, so its types are searched in full, and must
    # land where the whole-column search does.
    t = np.concatenate((np.linspace(0.0, 0.03, 31), [0.5, 0.5, 1.0]))
    tab = _synthetic_column(t, [0, 31, 33])  # a flat piece ends at 0.5, on point 31
    pay = np.random.default_rng(6).random(t.size)
    grid = np.array([0.0, 1.0])
    k, w = _guided_queries(grid, t)
    search, bucket, t, want = _guided_column_reads(tab, pay, grid, k, w)
    assert search[1] is not None and np.any(want - search[0][bucket] >= 2)
    assert np.any(want != _raw_index(tab.t, t))  # the flat end is read


@pytest.mark.parametrize(
    "points, node_pos, stepped",
    [
        # a flat end at 0.5 (point 2) followed by an interval of positive width
        pytest.param([0.0, 0.25, 0.5, 0.5, 0.75, 1.0], [0, 2, 5], True, id="flat-then-width"),
        # followed by a zero-width piece: the search lands past the end, and stays
        pytest.param([0.0, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0], [0, 2, 6], False, id="three-equal"),
        # the point after the flat end is the column's last
        pytest.param([0.0, 0.25, 0.5, 0.75, 1.0, 1.0], [0, 4, 5], False, id="end-at-last-point"),
        # three equal at the column's end: the clipped search lands after the end
        pytest.param([0.0, 0.25, 0.5, 1.0, 1.0, 1.0], [0, 3, 5], True, id="three-equal-at-end"),
    ],
)
def test_folded_interval_ends_read_as_the_flat_end_rule(points, node_pos, stepped):
    # Every column point, both of its float neighbours, types beyond both
    # ends and the guided reads of two type grids: the folded ends, guided
    # and not, must read where the search-then-step-back rule does.
    t = np.asarray(points)
    tab = _synthetic_column(t, node_pos)
    assert np.all(np.diff(tab.ends) >= 0.0) and tab.ends[-1] == np.inf
    pay = np.random.default_rng(7).random(t.size)
    pay[0] = np.nan  # below the entry
    queries = np.concatenate((t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), [-1.0, 2.0]))
    want = _index_by_search(tab, queries)
    assert np.array_equal(tab.ends.searchsorted(np.clip(queries, t[0], t[-1]), side="right"), want)
    assert bool(np.any(want != _raw_index(t, np.clip(queries, t[0], t[-1])))) == stepped
    reference = _payment_by_search(tab, pay, queries)
    assert np.array_equal(_payment_at(tab, pay, queries), reference, equal_nan=True)
    for grid in (np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])):
        _guided_column_reads(tab, pay, grid, *_guided_queries(grid, t))


def test_every_solved_column_has_sorted_interval_ends(solved_suite, tmp_path):
    tables = [tab for _, mech in solved_suite.values() for tab in mech.tables]
    for instances in bench_instances().values():
        for inst in instances.values():
            tables += qsell.build_optimal_mechanism(load_bench_instance(inst, tmp_path)).tables
    for tab in tables:
        assert tab.ends.size == tab.t.size - 1 and tab.ends[-1] == np.inf
        assert np.all(np.diff(tab.ends) >= 0.0)


def test_column_index_steps_stop_at_the_last_interval():
    # A query at the column's end reads its last interval, however far
    # below it the start lies; the step must not run off the column.
    tc = np.array([0.0, 0.5, 0.9, 0.95, 0.95, 1.0])
    t = np.array([1.0, 1.0, 1.0, 0.95, 0.95, 0.2])
    start = np.array([0, 3, 4, 0, 2, 0])
    want = np.clip(np.searchsorted(tc, t, side="right") - 1, 0, tc.size - 2)
    assert want.tolist() == [4, 4, 4, 4, 4, 0]
    nxt = np.append(tc[1:-1], np.inf)
    guide = dist._guide(start, want)
    assert np.array_equal(dist._guided_index(nxt, t, guide, np.arange(t.size)), want)


@pytest.mark.parametrize("workers", [1, None])
def test_simulation_block_boundaries_are_invisible(two_uniform, monkeypatch, workers):
    # Each block draws its stretch of every stream, so neither the block
    # size nor the number of threads may change a single bit of a report.
    if workers is not None:
        monkeypatch.setattr(revenue, "_usable_cores", lambda: workers)
    B, default = 1_000, revenue._SAMPLE_BLOCK
    for inst, mech in (two_uniform, _tied_bimodal_pair()):
        for n in (1, B - 1, B, B + 1, 3 * B + 7):
            reports = []
            for block in (B, 1, default):
                monkeypatch.setattr(revenue, "_SAMPLE_BLOCK", block)
                reports.append(dataclasses.asdict(qsell.simulate(mech, n, 4)))
            assert reports[0] == reports[1] == reports[2], n


# float.hex of every report field, as the whole-column payment search read them
_PINNED_REPORTS = {
    ("three-v-shape", 32_769, 2): {
        "n_samples": 32769,
        "seed": 2,
        "revenue_mean": "0x1.2a1d4419d6047p-1",
        "revenue_stderr": "0x1.0c31d44e07b84p-10",
        "per_buyer_utility_mean": [
            "0x1.46bab7d1279fbp-5", "0x1.46f8ffdfb893dp-5", "0x1.465f4ec656950p-5"
        ],
        "allocation_frequency": [
            "0x1.045df7441177ep-2", "0x1.febc0287faf01p-3",
            "0x1.fd6c0527f5b01p-3", "0x1.fb1c09c7ec702p-3",
        ],
    },
    ("three-v-shape", 200_000, 7): {
        "n_samples": 200000,
        "seed": 7,
        "revenue_mean": "0x1.2a3bab1e0603ap-1",
        "revenue_stderr": "0x1.b08c840163d0fp-12",
        "per_buyer_utility_mean": [
            "0x1.463291a533138p-5", "0x1.46758efc0244dp-5", "0x1.46447d0d6c1a8p-5"
        ],
        "allocation_frequency": [
            "0x1.047304039abf3p-2", "0x1.fd75e2046c765p-3",
            "0x1.fc2656abde3fcp-3", "0x1.fd7dbf487fcb9p-3",
        ],
    },
    ("bimodal-inverse-v", 32_769, 2): {
        "n_samples": 32769,
        "seed": 2,
        "revenue_mean": "0x1.0d53f47d2a885p+0",
        "revenue_stderr": "0x1.2c5d6ca74fa02p-9",
        "per_buyer_utility_mean": ["0x1.41fc4c6f3bb5bp-4", "0x1.8bd2e8048a55dp-4"],
        "allocation_frequency": [
            "0x1.661d33c59874dp-2", "0x1.732d19a5ccb46p-2", "0x1.26b5b2949ad6dp-2"
        ],
    },
    ("bimodal-inverse-v", 200_000, 7): {
        "n_samples": 200000,
        "seed": 7,
        "revenue_mean": "0x1.0d6b03e5cae3cp+0",
        "revenue_stderr": "0x1.e4ebff5c9ead1p-11",
        "per_buyer_utility_mean": ["0x1.43f2ccb360495p-4", "0x1.87a78095f7599p-4"],
        "allocation_frequency": [
            "0x1.689374bc6a7f0p-2", "0x1.757fb69984a0ep-2", "0x1.21ecd4aa10e02p-2"
        ],
    },
}


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    return value


@pytest.mark.parametrize("cores", [1, 4])
def test_simulation_reports_are_pinned_bit_for_bit(solved_suite, monkeypatch, cores):
    monkeypatch.setattr(revenue, "_usable_cores", lambda: cores)
    for (name, n, seed), want in _PINNED_REPORTS.items():
        inst, mech = solved_suite[name]
        report = dataclasses.asdict(qsell.simulate(mech, n, seed))
        assert {key: _hexed(v) for key, v in report.items()} == want, (name, n, seed)


def test_a_pinned_report_searches_stragglers_in_both_lookups(solved_suite, monkeypatch):
    # The pins cover the full searches too: bimodal-inverse-v's draws reach
    # cdf buckets and payment column buckets that start two or more
    # entries short of their answer.
    inst, mech = solved_suite["bimodal-inverse-v"]
    cdf_sizes = {d.grid.size - 1 for d in (*inst.buyers, inst.quality.G)}
    searched = {"cdf": 0, "column": 0}
    guided_index = dist._guided_index

    def counting(nxt, x, guide, bucket):
        k = guided_index(nxt, x, guide, bucket)
        searched["cdf" if nxt.size in cdf_sizes else "column"] += int(
            np.count_nonzero(k - guide[0][bucket] >= 2)
        )
        return k

    monkeypatch.setattr(dist, "_guided_index", counting)
    monkeypatch.setattr(revenue, "_usable_cores", lambda: 1)  # one thread counts
    qsell.simulate(mech, 32_769, 2)
    assert searched["cdf"] > 0 and searched["column"] > 0


def _within(seconds, fn):
    """fn()'s result, or the exception it raised; fails if fn runs past ``seconds``."""
    out = {}

    def call():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(seconds)
    assert not caller.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_simulation_threads_share_blocks_stop_and_raise(two_uniform, monkeypatch):
    inst, mech = two_uniform
    monkeypatch.setattr(revenue, "_SAMPLE_BLOCK", 1_000)
    monkeypatch.setattr(revenue, "_usable_cores", lambda: 1)
    serial = qsell.simulate(mech, 10_007, 3)
    # More threads than cores, switching as often as the interpreter allows:
    # a block run twice or skipped would change the report.
    monkeypatch.setattr(revenue, "_usable_cores", lambda: 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _within(60, lambda: qsell.simulate(mech, 10_007, 3)) == serial
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before

    class PaymentFailed(RuntimeError):
        pass

    def fail(*args, **kwargs):
        raise PaymentFailed("raised inside a block")

    monkeypatch.setattr(revenue, "_payment_at", fail)
    with pytest.raises(PaymentFailed, match="inside a block"):
        _within(60, lambda: qsell.simulate(mech, 10_007, 3))
    assert threading.active_count() == before


def test_a_mechanism_read_back_from_json_simulates_as_solved(two_uniform):
    inst, mech = two_uniform
    doc = json.loads(json.dumps(qsell.mechanism_to_json_dict(mech)))
    loaded = qsell.mechanism_from_json_dict(doc, inst)
    assert qsell.simulate(loaded, 1_000, 1) == qsell.simulate(mech, 1_000, 1)


def test_simulation_peak_memory(monkeypatch):
    # Three buyers and 200 000 samples, the largest simulate call of the
    # benchmark's coarse sweep.  Each thread holds one block's arrays, so
    # the peak grows with the threads, and two are pinned for a bound that
    # holds on any host: they read 7.8-8.2 MB over 50 calls (one reads 5.4 MB).
    # Two blocks at their peaks at once, on top of the report's arrays, stay
    # below 8.4 MB.
    monkeypatch.setattr(revenue, "_usable_cores", lambda: 2)
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=257), 1.0, lambda q: q)
    inst = qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=257),) * 3, quality=qm)
    mech = qsell.build_optimal_mechanism(inst)
    assert traced_peak(lambda: qsell.simulate(mech, 200_000, 7)) <= 8.5e6


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
    assert qsell.revenue_direct(mech) > base.revenue + 0.01


def test_best_constant_price_single_buyer_equals_optimum(posted_price):
    inst, mech = posted_price
    base = qsell.best_constant_price(inst)
    # One uniform buyer, no quality dependence: a posted price of 1/2 is
    # already optimal, so the benchmark ties the mechanism.
    assert base.price == pytest.approx(0.5, abs=2e-3)
    assert base.revenue == pytest.approx(0.25, abs=1e-5)
    assert qsell.revenue_direct(mech) >= base.revenue - 1e-9


def _tied_cutoff_instance(reserve):
    """Every cutoff ties: constant xi, or constant alpha (no cutoff moves the buyers' value)."""
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=65), 1.0, reserve)
    return qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=129),) * 2, quality=qm)


@pytest.mark.parametrize(
    "reserve", [0.3, lambda q: q], ids=["constant-xi", "linear-xi-constant-alpha"]
)
def test_best_constant_price_reports_the_lowest_tied_cutoff(reserve):
    # With constant xi every cutoff pools all qualities into one
    # announcement; with constant alpha no announcement moves the buyers'
    # expected value, so only the lowest cutoff is priced.  Either way all
    # cutoffs tie, and the lowest one must be reported.
    inst = _tied_cutoff_instance(reserve)
    base = qsell.best_constant_price(inst)
    assert base.cutoff == float(np.min(inst.quality.xi.vals)) - 1.0


def _constant_price_row(inst, prices, A1, B1, C1, A_tot, C_tot):
    """One cutoff's revenues as the per-cutoff loop computed them (reference)."""
    total = np.zeros_like(prices)
    for mass, alpha_mean, retained in (
        (B1, A1 / B1 if B1 > 1e-12 else 0.0, C1),
        (1.0 - B1, (A_tot - A1) / (1.0 - B1) if 1.0 - B1 > 1e-12 else 0.0, C_tot - C1),
    ):
        if mass <= 1e-12:
            continue
        prob_no_buyer = np.ones_like(prices)
        if alpha_mean > 0.0:
            for d in inst.buyers:
                tau = np.interp(
                    prices / alpha_mean, inst.valuation.type_factor(d.grid), d.grid,
                    left=d.grid[0], right=d.grid[-1] + 1.0,
                )
                f_tau = np.where(
                    tau > d.grid[-1],
                    1.0,
                    np.interp(np.clip(tau, d.grid[0], d.grid[-1]), d.grid, d.cdf_vals),
                )
                prob_no_buyer = prob_no_buyer * f_tau
        total += prices * (1.0 - prob_no_buyer) * mass + prob_no_buyer * retained
    return total


def _constant_price_setup(inst):
    """Cutoffs, their quality integrals and the coarse price grid, as the sweep builds them."""
    xi = inst.quality.xi.vals
    cutoffs = np.unique(np.concatenate((xi, [np.min(xi) - 1.0, np.max(xi) + 1.0])))
    qm = inst.quality
    A1, B1, C1 = qsell.dist.sublevel_integral(qm.G.grid, xi, qm.integrands, cutoffs, True)
    alpha_max = float(np.max(inst.quality.alpha.vals))
    p_hi = max(float(np.max(inst.valuation.type_factor(d.grid))) for d in inst.buyers) * alpha_max
    return cutoffs, A1, B1, C1, np.linspace(0.0, p_hi, qsell.revenue.CONSTANT_PRICE_GRID)


def _best_constant_price_by_loop(inst):
    """The per-cutoff loop the blocked sweep replaced, kept as its reference."""
    cutoffs, A1, B1, C1, prices = _constant_price_setup(inst)
    rtol = 1e-12

    def sweep(price_grid, best=None):
        top = np.empty(cutoffs.size)
        arg = np.empty(cutoffs.size, dtype=int)
        for k in range(cutoffs.size):
            revs = _constant_price_row(inst, price_grid, A1[k], B1[k], C1[k], A1[-1], C1[-1])
            arg[k] = int(np.argmax(revs))
            top[k] = revs[arg[k]]
        peak = float(np.max(top))
        if best is not None and peak <= best[2] + rtol * abs(best[2]):
            return best
        k = int(np.argmax(top >= peak - rtol * abs(peak)))
        return (float(price_grid[arg[k]]), float(cutoffs[k]), float(top[k]))

    best = sweep(prices)
    step = prices[1] - prices[0]
    return sweep(np.linspace(max(best[0] - step, 0.0), best[0] + step, 81), best)


def _fine_xi_instance():
    """A 1 025-node linear xi: 1 027 cutoffs, several row blocks per sweep."""
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=1025), lambda q: 1.0 + q, lambda q: 0.2 + 0.5 * q
    )
    return qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=257),) * 2, quality=qm)


def _thin_top_instance():
    """Quality at the density floor where xi is highest: announcement sides of mass <= 1e-12."""
    grid = np.linspace(0.0, 1.0, 129)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        G = qsell.make_from_table(grid, np.where(grid > 0.9, 0.0, 1.0))
    qm = qsell.make_quality_model(G, 1.0, lambda q: 0.1 + 0.5 * np.asarray(q, float))
    return qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=129),) * 2, quality=qm)


def _power_instance():
    """b = t ** 1.5: the lookup inverts a curved b on every side mean."""
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=65), lambda q: 1.0 + 0.5 * q, lambda q: 0.2 + 0.5 * q
    )
    buyers = (qsell.make_uniform(0.5, 1.5, m=129), qsell.make_uniform(0.0, 1.0, m=257))
    return qsell.ProblemInstance(buyers=buyers, quality=qm, valuation=_power_valuation(1.5))


def _constant_alpha_instance(G, alpha, reserve, valuation=None):
    """A constant alpha: every cutoff ties with the lowest, which alone is priced."""
    qm = qsell.make_quality_model(G, alpha, reserve)
    buyers = (qsell.make_uniform(0.5, 1.5, m=129), qsell.make_uniform(0.0, 1.0, m=257))
    return qsell.ProblemInstance(
        buyers=buyers, quality=qm, valuation=valuation or qsell.LinearValuation()
    )


def _skewed_quality():
    """A non-uniform table G whose mass is not exactly 1: side means of a constant
    alpha differ in their last bits from cutoff to cutoff."""
    grid = np.linspace(0.0, 1.0, 97)
    return qsell.make_from_table(grid, 0.3 + np.exp(-3.0 * grid) + grid**2)


def _power_valuation(k):
    return qsell.GeneralValuation(
        type_factor=lambda t: np.asarray(t, float) ** k,
        type_factor_deriv=lambda t: k * np.asarray(t, float) ** (k - 1.0),
    )


def _stepped_alpha_instance():
    """alpha and xi step together on four quality bands: a few distinct side means."""
    def band(q):
        return np.minimum(np.floor(4.0 * np.asarray(q, float)), 3.0).astype(int)

    def alpha(q):
        return 1.0 + band(q)

    xi = np.array([0.5, 0.2, 0.4, 0.3])
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=129), alpha, lambda q: xi[band(q)] * alpha(q)
    )
    return qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=129),) * 2, quality=qm)


@pytest.fixture(scope="module")
def constant_price_cases(suite):
    cases = dict(suite)
    cases["constant-xi"] = _tied_cutoff_instance(0.3)
    cases["linear-xi-constant-alpha"] = _tied_cutoff_instance(lambda q: q)
    cases["xi-1025"] = _fine_xi_instance()
    cases["thin-top"] = _thin_top_instance()
    cases["power-1.5"] = _power_instance()
    cases["stepped-alpha"] = _stepped_alpha_instance()
    cases["constant-alpha-skewed-G"] = _constant_alpha_instance(
        _skewed_quality(), 0.7, lambda q: 0.7 * (0.1 + 0.6 * np.asarray(q, float))
    )
    cases["constant-alpha-negative-reserve"] = _constant_alpha_instance(
        qsell.make_uniform(0.0, 1.0, m=129), 1.2, lambda q: -0.3 + 0.9 * np.asarray(q, float)
    )
    cases["constant-alpha-power-b"] = _constant_alpha_instance(
        qsell.make_uniform(0.0, 1.0, m=65), 1.3, lambda q: 0.4 * np.asarray(q, float),
        _power_valuation(1.5),
    )
    return cases


def test_constant_price_revenue_matrix_matches_the_rows(constant_price_cases):
    for name, inst in constant_price_cases.items():
        cutoffs, A1, B1, C1, prices = _constant_price_setup(inst)
        buyers = [(d, inst.valuation.type_factor(d.grid)) for d in inst.buyers]
        mass, retained, keys, means = revenue._constant_price_sides(A1, B1, C1, A1[-1], C1[-1])
        U, V = revenue._price_rows(buyers, prices, means)
        out = np.empty((3, cutoffs.size, prices.size))
        got = revenue._constant_price_block(U, V, keys, mass, retained, out)
        want = np.stack(
            [
                _constant_price_row(inst, prices, A1[k], B1[k], C1[k], A1[-1], C1[-1])
                for k in range(cutoffs.size)
            ]
        )
        assert np.array_equal(got, want), name


def test_best_constant_price_matches_the_per_cutoff_loop(constant_price_cases):
    for name, inst in constant_price_cases.items():
        base = qsell.best_constant_price(inst)
        assert (base.price, base.cutoff, base.revenue) == _best_constant_price_by_loop(inst), name


def _random_constant_price_instance(rng, constant_alpha=False):
    """1-3 buyers, linear or power b, smooth, stepped or (``constant_alpha``)
    constant alpha, a reserve that goes negative, and at times a density
    floor above q = 0.9, where xi is highest, so a side has mass <= 1e-12."""
    mq = int(rng.choice([33, 65, 129]))
    grid = np.linspace(0.0, 1.0, mq)
    pdf = rng.uniform(0.5, 2.0, mq)
    thin = rng.random() < 0.5
    if thin:
        pdf[grid > 0.9] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        G = qsell.make_from_table(grid, pdf)
    if constant_alpha:
        alpha = np.full(mq, rng.uniform(0.5, 2.0))
    elif rng.random() < 0.5:
        alpha = 1.0 + rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1.0, 6.0) * grid) ** 2
    else:
        alpha = rng.uniform(0.5, 2.0, 4)[np.minimum((4.0 * grid).astype(int), 3)]
    xi = rng.uniform(-0.3, 0.0) + rng.uniform(0.3, 1.0) * grid  # below 0 at q = 0
    if not thin:
        xi = xi + rng.uniform(0.0, 0.4) * np.cos(rng.uniform(2.0, 9.0) * grid)
    qm = qsell.make_quality_model(G, *(dist.GriddedFunction(grid, v) for v in (alpha, xi * alpha)))
    buyers = []
    for _ in range(int(rng.integers(1, 4))):
        lo = rng.uniform(0.0, 0.5)
        tgrid = np.linspace(lo, lo + rng.uniform(0.5, 1.5), int(rng.choice([17, 33, 65])))
        buyers.append(qsell.make_from_table(tgrid, rng.uniform(0.5, 2.0, tgrid.size)))
    valuation = qsell.LinearValuation()
    if rng.random() < 0.5:
        valuation = _power_valuation(rng.uniform(1.2, 2.0))
    return qsell.ProblemInstance(buyers=tuple(buyers), quality=qm, valuation=valuation)


@pytest.mark.parametrize("block", [64, 2_000, 8_192], ids=lambda b: f"block-{b}")
@pytest.mark.parametrize("seed", range(6))
def test_seeded_sweeps_match_the_per_cutoff_reference(monkeypatch, seed, block):
    # Every block the kernel returns is gathered into each sweep's matrix,
    # which must equal the reference rows bit for bit; a 64-entry block
    # is smaller than one row of either price grid.
    inst = _random_constant_price_instance(np.random.default_rng([20261020, seed]))
    grids, blocks = [], []
    kernel, price_rows = revenue._constant_price_block, revenue._price_rows

    def record_rows(buyers, prices, means):
        if not any(g is prices for g in grids):
            grids.append(prices)
        return price_rows(buyers, prices, means)

    def record_block(*args):
        blocks.append(kernel(*args).copy())
        return blocks[-1]

    monkeypatch.setattr(revenue, "_PRICE_BLOCK", block)
    monkeypatch.setattr(revenue, "_price_rows", record_rows)
    monkeypatch.setattr(revenue, "_constant_price_block", record_block)
    base = qsell.best_constant_price(inst)
    assert (base.price, base.cutoff, base.revenue) == _best_constant_price_by_loop(inst)
    cutoffs, A1, B1, C1, _ = _constant_price_setup(inst)
    assert [g.size for g in grids] == [revenue.CONSTANT_PRICE_GRID, 81]
    for prices in grids:
        got = np.concatenate([b for b in blocks if b.shape[1] == prices.size])
        want = np.stack(
            [
                _constant_price_row(inst, prices, A1[k], B1[k], C1[k], A1[-1], C1[-1])
                for k in range(cutoffs.size)
            ]
        )
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_constant_alpha_sweeps_match_the_per_cutoff_reference(seed):
    # the reference prices every cutoff; the sweep prices the lowest alone
    inst = _random_constant_price_instance(np.random.default_rng([20261022, seed]), True)
    base = qsell.best_constant_price(inst)
    assert (base.price, base.cutoff, base.revenue) == _best_constant_price_by_loop(inst)


@pytest.mark.parametrize(
    "case, min_means",
    [("linear-xi-constant-alpha", 1), ("thin-top", 2), ("constant-alpha-skewed-G", 2)],
)
def test_a_constant_alpha_sweep_prices_one_cutoff(
    constant_price_cases, monkeypatch, case, min_means
):
    # alpha is tested for constancy itself: on thin-top and the skewed G the
    # side means of a constant alpha differ in their last bits across cutoffs
    inst = constant_price_cases[case]
    cutoffs, A1, B1, C1, _ = _constant_price_setup(inst)
    assert revenue._constant_price_sides(A1, B1, C1, A1[-1], C1[-1])[3].size >= min_means
    assert cutoffs.size > 60
    calls = []
    kernel, price_rows = revenue._constant_price_block, revenue._price_rows

    def record_rows(buyers, prices, means):
        calls.append(("rows", prices.size, means.size))
        return price_rows(buyers, prices, means)

    def record_block(U, V, rows, mass, retained, out):
        calls.append(("block", U.shape[1], rows.shape[1]))
        return kernel(U, V, rows, mass, retained, out)

    monkeypatch.setattr(revenue, "_price_rows", record_rows)
    monkeypatch.setattr(revenue, "_constant_price_block", record_block)
    base = qsell.best_constant_price(inst)
    assert base.cutoff == cutoffs[0]
    assert calls == [
        ("rows", revenue.CONSTANT_PRICE_GRID, 1), ("block", revenue.CONSTANT_PRICE_GRID, 1),
        ("rows", 81, 1), ("block", 81, 1),
    ]


def test_no_buyer_chance_is_looked_up_once_per_side_mean(monkeypatch):
    # alpha is constant, so each sweep prices one cutoff, whose one seen
    # side holds the whole support, and looks the chance up once, for one row
    inst = _tied_cutoff_instance(lambda q: q)
    rows = []

    def record(buyers, x):
        rows.append(x.shape[0])
        return no_buyer_chance(buyers, x)

    no_buyer_chance = revenue._no_buyer_chance
    monkeypatch.setattr(revenue, "_no_buyer_chance", record)
    qsell.best_constant_price(inst)
    assert rows == [1, 1]


def _mid_audit_shaped_instance():
    """Constant alpha, a linear xi on 1 025 quality nodes and two 513-node uniform buyers."""
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=1025), 1.0, lambda q: 0.9 * q)
    return qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=513),) * 2, quality=qm)


def test_best_constant_price_peak_memory():
    # The blocked sweep holds a block of at most _PRICE_BLOCK entries with
    # its price rows; one (cutoffs x prices) matrix at 1 027 cutoffs would
    # take about 2 MB, and the smooth alpha's price rows twice as much.
    for inst in (_fine_xi_instance(), _mid_audit_shaped_instance()):
        assert traced_peak(lambda: qsell.best_constant_price(inst)) <= 1e6


def test_optimal_mechanism_dominates_constant_price(solved_suite):
    for name, (inst, mech) in solved_suite.items():
        base = qsell.best_constant_price(inst)
        assert qsell.revenue_direct(mech) >= base.revenue - 1e-9, name


# ---------------------------------------------------------------------------
# Cross-check against the independent finite oracle
# ---------------------------------------------------------------------------


def test_ramp_revenue_matches_finite_oracle_at_200x200(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    exact = qsell.revenue_direct(mech)

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
