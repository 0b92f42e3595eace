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
import json
import math
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import qsell
from conftest import make_bimodal, traced_peak, xi_meeting_the_plateau
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


def _payment_by_search(tab, pay, t):
    """The payment column pay read at types t through one search of the whole column.

    The reference for ``_payment_at``: the interval from ``searchsorted``,
    the flat-end rule, and the fraction from the interval's two ends.
    """
    tc = tab.t
    t = np.clip(t, tc[0], tc[-1])
    k = np.clip(np.searchsorted(tc, t, side="right") - 1, 0, tc.size - 2)
    t0 = tc[k]
    k -= tab.after_flat[k] & (t0 == t)
    t1 = tc[k + 1]
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


def _stepped_xi_pair():
    """A bimodal and a uniform buyer; xi steps through the bimodal plateau level."""
    buyer = make_bimodal(257)
    vals = qsell.iron(buyer, qsell.virtual_value_table(buyer)).phi_ironed
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
    nxt, search = guide[0], guide[-1]
    t = np.clip(dist._cell_read(grid, np.diff(grid), k, w), tc[0], tc[-1])
    bucket = (w * steps).astype(np.intp) + (steps + 1) * k  # w = 1 is a bucket of its own
    want = np.clip(np.searchsorted(tc, t, side="right") - 1, 0, tc.size - 2)
    assert np.all(search[0][bucket] <= want)
    assert np.array_equal(dist._guided_index(nxt, t, search, bucket), want)
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
            hit_flat_ends += int(np.count_nonzero(tab.after_flat[want] & (tab.t[want] == t)))
    assert hit_points > 0 and hit_flat_ends > 0


def test_guided_column_index_searches_a_bucket_of_many_points():
    # Thirty column points inside the first sub-bucket of a type cell: that
    # bucket spans them all, so its types are searched in full, and must
    # land where the whole-column search does.
    t = np.concatenate((np.linspace(0.0, 0.03, 31), [0.5, 0.5, 1.0]))
    after_flat = np.zeros(t.size, dtype=bool)
    after_flat[32] = True  # a flat piece ends at 0.5
    tab = SimpleNamespace(t=t, after_flat=after_flat)
    pay = np.random.default_rng(6).random(t.size)
    grid = np.array([0.0, 1.0])
    k, w = _guided_queries(grid, t)
    search, bucket, _, want = _guided_column_reads(tab, pay, grid, k, w)
    assert search[1] is not None and np.any(want - search[0][bucket] >= 2)


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
    """Every cutoff ties: constant xi, or constant alpha (ties up to rounding)."""
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=65), 1.0, reserve)
    return qsell.ProblemInstance(buyers=(qsell.make_uniform(0.0, 1.0, m=129),) * 2, quality=qm)


@pytest.mark.parametrize(
    "reserve", [0.3, lambda q: q], ids=["constant-xi", "linear-xi-constant-alpha"]
)
def test_best_constant_price_reports_the_lowest_tied_cutoff(reserve):
    # With constant xi every cutoff pools all qualities into one
    # announcement; with constant alpha no announcement moves the buyers'
    # expected value.  Either way all cutoffs tie (the second only up to
    # rounding), and the lowest one must be reported.
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
    power = qsell.GeneralValuation(
        type_factor=lambda t: np.asarray(t, float) ** 1.5,
        type_factor_deriv=lambda t: 1.5 * np.asarray(t, float) ** 0.5,
    )
    buyers = (qsell.make_uniform(0.5, 1.5, m=129), qsell.make_uniform(0.0, 1.0, m=257))
    return qsell.ProblemInstance(buyers=buyers, quality=qm, valuation=power)


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


def _random_constant_price_instance(rng):
    """1-3 buyers, linear or power b, smooth or stepped alpha, a reserve
    that goes negative, and at times a density floor above q = 0.9, where
    xi is highest, so a side has mass <= 1e-12."""
    mq = int(rng.choice([33, 65, 129]))
    grid = np.linspace(0.0, 1.0, mq)
    pdf = rng.uniform(0.5, 2.0, mq)
    thin = rng.random() < 0.5
    if thin:
        pdf[grid > 0.9] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        G = qsell.make_from_table(grid, pdf)
    if rng.random() < 0.5:
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
        k = rng.uniform(1.2, 2.0)
        valuation = qsell.GeneralValuation(
            type_factor=lambda t: np.asarray(t, float) ** k,
            type_factor_deriv=lambda t: k * np.asarray(t, float) ** (k - 1.0),
        )
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


def test_no_buyer_chance_is_looked_up_once_per_side_mean(monkeypatch):
    # alpha is constant, so every seen side of every cutoff has the same
    # mean, and each sweep looks the chance up once, for one row
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
