"""Acceptance sets, reserve-curve classification, and partition summaries.

Closed-form oracles: with quality uniform on [0, 1],

* xi(q) = q at level v gives the lower interval [0, v];
* xi(q) = 1 - q gives the upper interval [1 - v, 1];
* xi(q) = |q - 1/2| at level v < 1/2 gives [1/2 - v, 1/2 + v];
* xi(q) = 1/2 - |q - 1/2| at level v < 1/2 gives the two-segment set
  [0, v] u [1 - v, 1].

A brute-force membership scan on a dense grid serves as an independent
oracle for arbitrary shapes.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsell
from conftest import LEVEL_SHAPES, integrate, level_curve
from qsell import info

G = qsell.make_uniform(0.0, 1.0, m=1001)
QM_RAMP = qsell.make_quality_model(G, alpha=1.0, reserve=lambda q: q)
QM_FALL = qsell.make_quality_model(G, alpha=1.0 + 0.0, reserve=lambda q: 1.0 - q)
QM_DECR = qsell.make_quality_model(
    qsell.make_uniform(0.0, 1.0, m=1001),
    alpha=lambda q: 1.0 + q,
    reserve=1.0,
)
QM_V = qsell.make_quality_model(G, alpha=1.0, reserve=lambda q: np.abs(q - 0.5))
QM_INV_V = qsell.make_quality_model(
    G, alpha=1.0, reserve=lambda q: 0.5 - np.abs(q - 0.5)
)
QM_CONST = qsell.make_quality_model(G, alpha=1.0, reserve=0.25)


def _scan_oracle(qm, v, n=100_001):
    """Dense membership scan; returns bools on a fine quality grid."""
    qs = np.linspace(qm.xi.grid[0], qm.xi.grid[-1], n)
    return qs, np.interp(qs, qm.xi.grid, qm.xi.vals) <= v


# ---------------------------------------------------------------------------
# IntervalUnion
# ---------------------------------------------------------------------------


def test_interval_union_validation():
    qsell.IntervalUnion(intervals=((0.0, 0.25), (0.5, 1.0)))  # constructs
    with pytest.raises(qsell.ValidationError):
        qsell.IntervalUnion(intervals=((0.5, 0.25),))
    with pytest.raises(qsell.ValidationError):
        qsell.IntervalUnion(intervals=((0.0, 0.5), (0.4, 1.0)))


def test_interval_union_queries():
    s = qsell.IntervalUnion(intervals=((0.0, 0.3), (0.7, 1.0)))
    assert not s.is_empty
    assert s.measure == pytest.approx(0.6)
    assert s.contains(0.1) and s.contains(0.7) and not s.contains(0.5)
    assert qsell.IntervalUnion(intervals=()).is_empty


# ---------------------------------------------------------------------------
# acceptance_set
# ---------------------------------------------------------------------------


def test_acceptance_set_lower_interval():
    s = qsell.acceptance_set(QM_RAMP, 0.6)
    assert len(s.intervals) == 1
    assert s.intervals[0] == pytest.approx((0.0, 0.6), abs=1e-9)


def test_acceptance_set_upper_interval():
    s = qsell.acceptance_set(QM_FALL, 0.6)
    assert len(s.intervals) == 1
    assert s.intervals[0] == pytest.approx((0.4, 1.0), abs=1e-9)


def test_acceptance_set_middle_interval():
    s = qsell.acceptance_set(QM_V, 0.2)
    assert len(s.intervals) == 1
    assert s.intervals[0] == pytest.approx((0.3, 0.7), abs=1e-9)


def test_acceptance_set_two_segments():
    s = qsell.acceptance_set(QM_INV_V, 0.3)
    assert len(s.intervals) == 2
    assert s.intervals[0] == pytest.approx((0.0, 0.3), abs=1e-9)
    assert s.intervals[1] == pytest.approx((0.7, 1.0), abs=1e-9)


def test_acceptance_set_empty_and_full():
    assert qsell.acceptance_set(QM_CONST, 0.1).is_empty
    full = qsell.acceptance_set(QM_CONST, 0.5)
    assert full.intervals == ((0.0, 1.0),)


def test_a_nan_level_or_type_is_rejected(solved_suite):
    # a NaN level fails every comparison, so it read as the empty set
    with pytest.raises(qsell.ValidationError, match="NaN"):
        qsell.acceptance_set(QM_RAMP, float("nan"))
    _, mech = solved_suite["reserve-ramp"]
    with pytest.raises(qsell.ValidationError, match="NaN"):
        qsell.posterior_belief(mech, 0, float("nan"))
    with pytest.raises(qsell.ValidationError, match="NaN"):
        qsell.partition_summary(mech, 0, types=[0.5, float("nan")])


@pytest.mark.parametrize(
    "qm,v",
    [(QM_RAMP, 0.37), (QM_FALL, 0.11), (QM_V, 0.42), (QM_INV_V, 0.26)],
)
def test_acceptance_set_matches_dense_scan(qm, v):
    qs, member = _scan_oracle(qm, v)
    s = qsell.acceptance_set(qm, v)
    ours = np.array([s.contains(q, tol=2e-5) for q in qs])
    # disagreements may only occur right at interval boundaries
    bounds = np.array([e for ab in s.intervals for e in ab])
    bad = qs[ours != member]
    if bad.size:
        dist = np.min(np.abs(bad[:, None] - bounds[None, :]), axis=1)
        assert dist.max() < 5e-5


def _acceptance_by_node_walk(qgrid, xi, c):
    """The former node-by-node acceptance set, kept as a reference."""
    mask = xi <= c
    intervals = []
    k, n = 0, qgrid.size
    while k < n:
        if not mask[k]:
            k += 1
            continue
        if k == 0:
            left = float(qgrid[0])
        else:
            a, b = xi[k - 1], xi[k]
            frac = (a - c) / (a - b) if a != b else 0.0
            left = float(qgrid[k - 1] + frac * (qgrid[k] - qgrid[k - 1]))
        j = k
        while j + 1 < n and mask[j + 1]:
            j += 1
        if j == n - 1:
            right = float(qgrid[-1])
        else:
            a, b = xi[j], xi[j + 1]
            frac = (c - a) / (b - a) if b != a else 1.0
            right = float(qgrid[j] + frac * (qgrid[j + 1] - qgrid[j]))
        intervals.append((left, right))
        k = j + 1
    merged = intervals[:1]
    for a, b in intervals[1:]:
        if a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def test_acceptance_set_matches_node_walk_on_flats_at_the_level():
    # xi takes a few values with repeats, so the probed level c has flats
    # and isolated nodes exactly on it, at the first and last node too
    rng = np.random.default_rng(2024)
    seen = {"first": 0, "last": 0, "flat": 0, "several": 0}
    for _ in range(200):
        _check_acceptance_against_node_walk(rng, seen)
    assert min(seen.values()) >= 10


def _check_acceptance_against_node_walk(rng, seen):
    m = int(rng.integers(2, 40))
    qgrid = np.cumsum(rng.uniform(0.01, 1.0, m))
    qgrid = (qgrid - qgrid[0]) / (qgrid[-1] - qgrid[0])
    c = 0.3
    xi = rng.choice([c - 0.2, c, c + 0.1, c + 0.4, rng.uniform(0.0, 1.0)], size=m)
    xi[0], xi[-1] = rng.choice([c, c - 0.1, c + 0.2], size=2)
    qm = qsell.make_quality_model(
        qsell.make_from_table(qgrid, np.ones(m)), 1.0, qsell.GriddedFunction(qgrid, xi)
    )
    seen["first"] += xi[0] == c
    seen["last"] += xi[-1] == c
    seen["flat"] += np.any((xi[:-1] == c) & (xi[1:] == c))
    for v in (c, c - 0.2, c + 0.1, c + 0.05, c - 1.0, c + 1.0):
        got = qsell.acceptance_set(qm, v).intervals
        seen["several"] += v == c and len(got) > 1
        want = _acceptance_by_node_walk(qgrid, qm.xi.vals, v)
        assert len(got) == len(want)
        np.testing.assert_allclose(np.ravel(got), np.ravel(want), rtol=0.0, atol=1e-15)


def _acceptance_on(x, vals, c):
    """acceptance_set with xi = vals on quality grid x, checked against the node walk."""
    qm = qsell.make_quality_model(
        qsell.make_from_table(x, np.ones(x.size)), 1.0, qsell.GriddedFunction(x, vals)
    )
    got = qsell.acceptance_set(qm, c).intervals
    want = _acceptance_by_node_walk(x, qm.xi.vals, c)
    assert len(got) == len(want)
    np.testing.assert_allclose(np.ravel(got), np.ravel(want), rtol=0.0, atol=1e-15)
    return got


def test_acceptance_set_on_a_hand_built_curve():
    x = np.arange(9.0)
    vals = np.array([1.0, 1.0, 3.0, 0.0, 2.0, 2.0, 2.0, 4.0, 2.0])
    # a flat at c from the first node, left upwards at its last node
    got = _acceptance_on(x, vals, 1.0)
    assert got == pytest.approx([(0.0, 1.0), (2.0 + 2.0 / 3.0, 3.5)], abs=1e-15)
    # a crossing, a plateau reached from below and left upwards, and the
    # last node reached from above: a point interval on that node
    got = _acceptance_on(x, vals, 2.0)
    assert got == pytest.approx([(0.0, 1.5), (2.0 + 1.0 / 3.0, 6.0), (8.0, 8.0)], abs=1e-15)
    assert got[1][1] == 6.0 and got[2] == (8.0, 8.0)
    # c never met: the whole support, or nothing
    assert _acceptance_on(x, vals, 5.0) == ((0.0, 8.0),)
    assert _acceptance_on(x, vals, -1.0) == ()


def test_acceptance_set_at_touching_nodes():
    x = np.array([0.0, 0.5, 1.0, 2.0])
    vals = np.array([1.0, 0.0, 1.0, 1.0])
    # a node touching c from above on both sides: [q, q] on the node itself
    assert _acceptance_on(x, vals, 0.0) == ((0.5, 0.5),)
    # the first node and the final plateau sit on c: one interval over all
    assert _acceptance_on(x, vals, 1.0) == ((0.0, 2.0),)
    assert _acceptance_on(x, vals, 0.5) == pytest.approx([(0.25, 0.75)], abs=1e-15)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    shape=st.sampled_from(LEVEL_SHAPES),
    m=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_acceptance_set_matches_node_walk_on_random_curves(shape, m, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, m))
    x = (x - x[0]) / (x[-1] - x[0])
    vals = level_curve(shape, rng, m)
    for c in np.concatenate((rng.choice(vals, 3), rng.uniform(-1.0, 1.5, 3))):
        _acceptance_on(x, vals, float(c))


def _acceptance_by_level(qgrid, xi, c):
    """The former one-level acceptance set, kept as a bit-for-bit reference."""
    inside = xi <= c
    k = np.flatnonzero(inside[:-1] != inside[1:])
    a, b, x0, x1 = xi[k], xi[k + 1], qgrid[k], qgrid[k + 1]
    enter = inside[k + 1]
    frac = np.where(enter, (a - c) / (a - b), (c - a) / (b - a))
    t = np.where(enter & (b == c), x1, x0 + frac * (x1 - x0))
    starts = np.append(qgrid[:1] if inside[0] else [], t[enter])
    ends = np.append(t[~enter], qgrid[-1:] if inside[-1] else [])
    merged = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        if merged and a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def _assert_stacked_matches_one_level(qm, levels):
    got = info._acceptance_sets(qm, np.asarray(levels, dtype=float))
    assert len(got) == len(levels)
    for level, s in zip(levels, got):
        assert s.intervals == qsell.acceptance_set(qm, float(level)).intervals, level
        assert s.intervals == _acceptance_by_level(qm.xi.grid, qm.xi.vals, level), level


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    shape=st.sampled_from(LEVEL_SHAPES + ["stepped"]),
    m=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_acceptance_sets_equal_one_level_sets(shape, m, seed):
    # interval for interval and bit for bit: levels below and above xi,
    # at node values (on the flats of a stepped xi too) and between them,
    # in a shuffled order with repeats
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, m))
    x = (x - x[0]) / (x[-1] - x[0])
    if shape == "stepped":
        vals = np.repeat(rng.uniform(0.0, 1.0, m), rng.integers(1, 4, m))[:m]
    else:
        vals = level_curve(shape, rng, m)
    qm = qsell.make_quality_model(
        qsell.make_from_table(x, np.ones(m)), 1.0, qsell.GriddedFunction(x, vals)
    )
    xi = qm.xi.vals
    levels = np.concatenate((
        [xi.min() - 1.0, xi.min(), xi.max(), xi.max() + 1.0],
        rng.choice(xi, 4), rng.uniform(xi.min(), xi.max(), 4),
    ))
    rng.shuffle(levels)
    _assert_stacked_matches_one_level(qm, levels)
    _assert_stacked_matches_one_level(qm, levels[:1])
    assert info._acceptance_sets(qm, np.empty(0)) == []


@pytest.mark.parametrize("qm", [QM_RAMP, QM_FALL, QM_DECR, QM_V, QM_INV_V, QM_CONST])
def test_stacked_acceptance_sets_on_the_canonical_shapes(qm):
    # more levels than one block: the blocks keep every level's set in order
    levels = np.concatenate((np.linspace(-0.5, 1.5, 41), qm.xi.vals[::50]))
    _assert_stacked_matches_one_level(qm, np.tile(levels, info._LEVEL_BLOCK // levels.size + 2))
    with pytest.raises(qsell.ValidationError, match="NaN"):
        info._acceptance_sets(qm, np.array([0.5, np.nan]))


@given(
    v1=st.floats(-0.2, 0.7),
    v2=st.floats(-0.2, 0.7),
)
@settings(deadline=None, max_examples=40)
def test_acceptance_mass_monotone_in_level(v1, v2):
    lo, hi = min(v1, v2), max(v1, v2)
    g = qsell.GriddedFunction(QM_INV_V.G.grid, QM_INV_V.G.pdf_vals)

    def mass(v):
        s = qsell.acceptance_set(QM_INV_V, v)
        return sum(integrate(g, a, b) for a, b in s.intervals)

    assert mass(lo) <= mass(hi) + 1e-12


# ---------------------------------------------------------------------------
# classify_structure
# ---------------------------------------------------------------------------


def test_classification_of_canonical_shapes():
    assert qsell.classify_structure(QM_RAMP) == "lower"
    assert qsell.classify_structure(QM_DECR) == "upper"  # xi = 1/(1+q)
    assert qsell.classify_structure(QM_V) == "segments"
    assert qsell.classify_structure(QM_CONST) == "lower"


def test_lower_class_means_sets_anchor_at_bottom():
    for v in np.linspace(0.05, 0.95, 7):
        s = qsell.acceptance_set(QM_RAMP, float(v))
        assert len(s.intervals) == 1
        assert s.intervals[0][0] == pytest.approx(0.0, abs=1e-12)


def test_upper_class_means_sets_anchor_at_top():
    for v in np.linspace(0.55, 0.95, 5):
        s = qsell.acceptance_set(QM_DECR, float(v))
        assert len(s.intervals) == 1
        assert s.intervals[0][1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# partition_summary
# ---------------------------------------------------------------------------


def test_partition_rows_constant_reserve_full_or_empty(posted_price):
    inst, mech = posted_price
    rows = qsell.partition_summary(mech, 0, n_types=11)
    span = inst.quality.G.grid[-1] - inst.quality.G.grid[0]
    for row in rows:
        if row["segment_list"]:
            assert row["mass"] == pytest.approx(1.0, abs=1e-9)
            a, b = map(float, row["segment_list"].split(":"))
            assert b - a == pytest.approx(span, abs=1e-12)
        else:
            assert row["mass"] == 0.0
            assert math.isnan(row["posterior_mean"])


def test_partition_row_uniform_ramp(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    # phi(t) = 2t - 1 = 0.5 at t = 0.75: acceptance is [0, 0.5] so the
    # prior mass is 0.5 and the posterior mean quality is 0.25.
    rows = qsell.partition_summary(mech, 0, types=[0.75])
    row = rows[0]
    assert row["phi_bar"] == pytest.approx(0.5, abs=1e-9)
    assert row["mass"] == pytest.approx(0.5, abs=1e-9)
    assert row["posterior_mean"] == pytest.approx(0.25, abs=1e-9)
    assert row["segment_list"] == "0:0.5"


def test_partition_rows_match_acceptance_sets(solved_suite):
    # Mass and mean against trapezoid integrals of g and q * g over the
    # acceptance set's intervals, one interval at a time.
    for name, buyer in (("three-v-shape", 1), ("bimodal-inverse-v", 0)):
        inst, mech = solved_suite[name]
        G = inst.quality.G
        g = qsell.GriddedFunction(G.grid, G.pdf_vals)
        qg = qsell.GriddedFunction(G.grid, G.grid * G.pdf_vals)
        rows = qsell.partition_summary(mech, buyer, n_types=15)
        seen_segments = 0
        for row in rows:
            s = qsell.acceptance_set(inst.quality, row["phi_bar"])
            expect = ";".join(f"{a:.12g}:{b:.12g}" for a, b in s.intervals)
            assert row["segment_list"] == expect
            seen_segments = max(seen_segments, len(s.intervals))
            mass = sum(integrate(g, a, b) for a, b in s.intervals)
            assert row["mass"] == pytest.approx(mass, abs=1e-12)
            if mass > 1e-9:
                mean = sum(integrate(qg, a, b) for a, b in s.intervals) / mass
                assert row["posterior_mean"] == pytest.approx(mean, abs=1e-12)
        assert seen_segments >= 1


def test_partition_rows_two_segment_shape(solved_suite):
    inst, mech = solved_suite["bimodal-inverse-v"]
    rows = qsell.partition_summary(mech, 0, n_types=21)
    n_segments = [len(r["segment_list"].split(";")) if r["segment_list"] else 0
                  for r in rows]
    assert max(n_segments) == 2


def test_partition_summary_csv_roundtrip(tmp_path, solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    rows = qsell.partition_summary(mech, 0, n_types=9)
    path = tmp_path / "partition.csv"
    qsell.partition_summary_csv(rows, str(path))
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "type", "phi_bar", "segment_list", "mass", "posterior_mean",
        ]
        back = list(reader)
    assert len(back) == len(rows)
    for row, parsed in zip(rows, back):
        assert float(parsed["type"]) == pytest.approx(row["type"], abs=1e-12)
        assert float(parsed["mass"]) == pytest.approx(row["mass"], rel=1e-11)
        if math.isnan(row["posterior_mean"]):
            assert parsed["posterior_mean"] == ""
        else:
            assert float(parsed["posterior_mean"]) == pytest.approx(
                row["posterior_mean"], rel=1e-11
            )


# ---------------------------------------------------------------------------
# posterior_belief
# ---------------------------------------------------------------------------


def test_posterior_is_truncated_prior(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    post = qsell.posterior_belief(mech, 0, 0.75)
    # mass exactly one under trapezoid integration on its own grid
    assert np.trapezoid(post.vals, post.grid) == pytest.approx(1.0, abs=1e-9)
    # uniform prior truncated to [0, 0.5]: density 2 inside
    inside = (post.grid > 0.01) & (post.grid < 0.49)
    assert np.allclose(post.vals[inside], 2.0, atol=1e-6)
    assert post.grid[-1] <= 0.5 + 1e-6


@pytest.mark.parametrize("name, t", [("posted-price", 0.9), ("reserve-ramp", 0.75)])
def test_posterior_ignores_the_scale_of_alpha_and_reserve(solved_suite, name, t):
    # Scaling alpha and reserve together leaves xi, hence the mechanism's
    # allocation and every posterior, unchanged; only values and payments
    # scale.  The win-probability floor must not see the scale.
    inst, mech = solved_suite[name]
    qm = inst.quality
    scaled = qsell.ProblemInstance(
        buyers=inst.buyers,
        quality=qsell.make_quality_model(
            qm.G,
            qsell.GriddedFunction(qm.G.grid, 1e-13 * qm.alpha.vals),
            qsell.GriddedFunction(qm.G.grid, 1e-13 * qm.reserve.vals),
        ),
    )
    mech_s = qsell.build_optimal_mechanism(scaled)
    assert [t.entry for t in mech_s.tables] == [t.entry for t in mech.tables]
    want = qsell.posterior_belief(mech, 0, t)
    got = qsell.posterior_belief(mech_s, 0, t)
    np.testing.assert_allclose(got.grid, want.grid, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(got.vals, want.vals, rtol=1e-12, atol=0.0)


def test_posterior_no_information_equals_prior(posted_price):
    inst, mech = posted_price
    post = qsell.posterior_belief(mech, 0, 0.9)
    # constant reserve below the threshold reveals nothing
    assert np.allclose(
        np.interp(inst.quality.G.grid, post.grid, post.vals),
        inst.quality.G.pdf_vals,
        atol=1e-9,
    )


def test_posterior_two_segments_zero_in_gap(solved_suite):
    inst, mech = solved_suite["bimodal-inverse-v"]
    # pick a type whose threshold level cuts the inverse-V twice
    grid = mech.curves[0].type_grid
    levels = mech.curves[0].phi_ironed
    t = None
    for tt, lev in zip(grid, levels):
        s = qsell.acceptance_set(inst.quality, float(lev))
        if len(s.intervals) == 2:
            w = float(np.interp(tt, mech.win_weight[0].grid, mech.win_weight[0].vals))
            if w > 1e-6:
                t = float(tt)
                break
    assert t is not None
    post = qsell.posterior_belief(mech, 0, t)
    assert np.trapezoid(post.vals, post.grid) == pytest.approx(1.0, abs=1e-9)
    mid = np.interp(0.5, post.grid, post.vals)
    assert mid == pytest.approx(0.0, abs=1e-12)


def test_posterior_support_matches_acceptance_set(solved_suite):
    inst, mech = solved_suite["three-v-shape"]
    t = 0.9
    level = float(np.interp(t, mech.curves[0].type_grid, mech.curves[0].phi_ironed))
    s = qsell.acceptance_set(inst.quality, level)
    post = qsell.posterior_belief(mech, 0, t)
    cell = float(np.max(np.diff(inst.quality.G.grid)))
    support = post.grid[post.vals > 1e-12]
    assert support.min() >= s.intervals[0][0] - cell
    assert support.max() <= s.intervals[-1][1] + cell


def test_posterior_undefined_below_threshold(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    with pytest.raises(qsell.UndefinedPosteriorError):
        qsell.posterior_belief(mech, 0, 0.1)


def test_posterior_undefined_when_never_asked():
    buyer = qsell.make_uniform(0.0, 1.0, m=257)
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=129), alpha=1.0, reserve=5.0
    )
    inst = qsell.ProblemInstance(buyers=(buyer,), quality=quality)
    mech = qsell.build_optimal_mechanism(inst)
    with pytest.raises(qsell.UndefinedPosteriorError):
        qsell.posterior_belief(mech, 0, 0.99)
