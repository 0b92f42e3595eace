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
        return sum(qsell.integrate(g, a, b) for a, b in s.intervals)

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
    rows = qsell.partition_summary(inst, mech, 0, n_types=11)
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
    rows = qsell.partition_summary(inst, mech, 0, types=[0.75])
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
        rows = qsell.partition_summary(inst, mech, buyer, n_types=15)
        seen_segments = 0
        for row in rows:
            s = qsell.acceptance_set(inst.quality, row["phi_bar"])
            expect = ";".join(f"{a:.12g}:{b:.12g}" for a, b in s.intervals)
            assert row["segment_list"] == expect
            seen_segments = max(seen_segments, len(s.intervals))
            mass = sum(qsell.integrate(g, a, b) for a, b in s.intervals)
            assert row["mass"] == pytest.approx(mass, abs=1e-12)
            if mass > 1e-9:
                mean = sum(qsell.integrate(qg, a, b) for a, b in s.intervals) / mass
                assert row["posterior_mean"] == pytest.approx(mean, abs=1e-12)
        assert seen_segments >= 1


def test_partition_rows_two_segment_shape(solved_suite):
    inst, mech = solved_suite["bimodal-inverse-v"]
    rows = qsell.partition_summary(inst, mech, 0, n_types=21)
    n_segments = [len(r["segment_list"].split(";")) if r["segment_list"] else 0
                  for r in rows]
    assert max(n_segments) == 2


def test_partition_summary_csv_roundtrip(tmp_path, solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    rows = qsell.partition_summary(inst, mech, 0, n_types=9)
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
    post = qsell.posterior_belief(inst, mech, 0, 0.75)
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
    assert mech_s.active_from == mech.active_from
    want = qsell.posterior_belief(inst, mech, 0, t)
    got = qsell.posterior_belief(scaled, mech_s, 0, t)
    np.testing.assert_allclose(got.grid, want.grid, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(got.vals, want.vals, rtol=1e-12, atol=0.0)


def test_posterior_no_information_equals_prior(posted_price):
    inst, mech = posted_price
    post = qsell.posterior_belief(inst, mech, 0, 0.9)
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
    post = qsell.posterior_belief(inst, mech, 0, t)
    assert np.trapezoid(post.vals, post.grid) == pytest.approx(1.0, abs=1e-9)
    mid = np.interp(0.5, post.grid, post.vals)
    assert mid == pytest.approx(0.0, abs=1e-12)


def test_posterior_support_matches_acceptance_set(solved_suite):
    inst, mech = solved_suite["three-v-shape"]
    t = 0.9
    level = float(np.interp(t, mech.curves[0].type_grid, mech.curves[0].phi_ironed))
    s = qsell.acceptance_set(inst.quality, level)
    post = qsell.posterior_belief(inst, mech, 0, t)
    cell = float(np.max(np.diff(inst.quality.G.grid)))
    support = post.grid[post.vals > 1e-12]
    assert support.min() >= s.intervals[0][0] - cell
    assert support.max() <= s.intervals[-1][1] + cell


def test_posterior_undefined_below_threshold(solved_suite):
    inst, mech = solved_suite["reserve-ramp"]
    with pytest.raises(qsell.UndefinedPosteriorError):
        qsell.posterior_belief(inst, mech, 0, 0.1)


def test_posterior_undefined_when_never_asked():
    buyer = qsell.make_uniform(0.0, 1.0, m=257)
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=129), alpha=1.0, reserve=5.0
    )
    inst = qsell.ProblemInstance(buyers=(buyer,), quality=quality)
    mech = qsell.build_optimal_mechanism(inst)
    with pytest.raises(qsell.UndefinedPosteriorError):
        qsell.posterior_belief(inst, mech, 0, 0.99)
