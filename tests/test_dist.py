"""Grids, distributions, quadrature, and sublevel-set primitives."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsell
from conftest import LEVEL_SHAPES, integrate, level_curve, traced_peak
from qsell import dist
from qsell.errors import ValidationError


# ---------------------------------------------------------------------------
# construction and validation


def test_uniform_cdf_pdf_quantile():
    d = qsell.make_uniform(2.0, 5.0, m=301)
    assert d.grid[0] == 2.0 and d.grid[-1] == 5.0
    # analytic: F(x) = (x-2)/3, f = 1/3
    assert qsell.cdf(d, 3.5) == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(d.pdf_vals, 1.0 / 3.0, rtol=0.0, atol=1e-12)
    assert qsell.quantile(d, 0.25) == pytest.approx(2.75, abs=1e-12)
    # clamping outside the support
    assert qsell.cdf(d, 0.0) == 0.0
    assert qsell.cdf(d, 9.0) == 1.0


def test_density_normalization():
    # unnormalized f(x) = x on [0,2] has mass 2; construction renormalizes
    # f(0) = 0 is clamped up to the density floor, with a warning
    with pytest.warns(RuntimeWarning, match="clamped"):
        d = qsell.make_from_density(0.0, 2.0, lambda x: np.asarray(x, float), m=2001)
    assert d.norm_factor == pytest.approx(2.0, rel=1e-6)
    # F(x) = x^2/4
    assert qsell.cdf(d, 1.0) == pytest.approx(0.25, abs=1e-6)
    assert qsell.quantile(d, 0.25) == pytest.approx(1.0, abs=1e-5)


def test_negative_density_rejected():
    with pytest.raises(ValidationError):
        qsell.make_from_density(0.0, 1.0, lambda x: np.asarray(x, float) - 0.5, m=101)


def test_tiny_density_clamped_with_warning():
    with pytest.warns(RuntimeWarning):
        d = qsell.make_from_density(0.0, 1.0, lambda x: 2.0 * np.asarray(x, float), m=101)
    assert d.pdf_vals[0] == dist.EPS_DENSITY


@pytest.mark.parametrize(
    "pdf",
    [np.zeros(5), np.array([0.0, 1e-13, 0.0, 1e-13, 0.0]), np.array([1.0, 1e308, 1e308, 1.0, 1.0])],
    ids=["all-zero", "below-the-floor", "mass-overflows"],
)
def test_a_table_without_a_finite_positive_mass_is_rejected(pdf):
    # the raw mass is checked before any value is clamped, so no warning
    # comes first and the clamp cannot turn nothing into a uniform density
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="zero or infinite mass"):
            qsell.make_from_table(np.linspace(0.0, 1.0, 5), pdf)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_tables_must_be_finite(bad):
    grid, vals = np.linspace(0.0, 1.0, 5), np.ones(5)
    for build in (
        lambda: qsell.make_from_table(np.append(grid[:-1], bad), vals),
        lambda: qsell.make_from_table(grid, np.append(vals[:-1], bad)),
        lambda: qsell.make_from_density(0.0, 1.0, lambda x: np.where(x > 0.5, bad, 1.0), m=5),
        lambda: qsell.GriddedFunction(np.append(grid[:-1], bad), vals),
        lambda: dist.LevelTable.build(grid, np.append(vals[:-1], bad), vals),
    ):
        with pytest.raises(ValidationError, match="NaN|mass|negative"):
            build()
    # queries still read an end node outside the support, infinitely far too
    d = qsell.make_uniform(0.0, 1.0, m=5)
    assert qsell.cdf(d, [-np.inf, np.inf]).tolist() == [0.0, 1.0]


def test_table_distribution_roundtrip():
    grid = np.linspace(0.0, 1.0, 11)
    d = qsell.make_from_table(grid, np.full(11, 3.0))  # renormalized to uniform
    assert qsell.cdf(d, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert d.norm_factor == pytest.approx(3.0)


def test_gridded_function_validation():
    with pytest.raises(ValidationError):
        dist.GriddedFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))  # not increasing
    with pytest.raises(ValidationError):
        dist.GriddedFunction(np.array([0.0, 1.0]), np.zeros(3))  # length mismatch
    f = dist.GriddedFunction(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    assert f.value_at(0.5) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        f.value_at(float("nan"))


def test_integrate_partial_cells():
    d = qsell.make_uniform(0.0, 1.0, m=101)
    f = dist.GriddedFunction(d.grid, d.pdf_vals)
    # integral of the unit density over [0.252, 0.748], endpoints inside cells
    got = integrate(f, 0.252, 0.748)
    assert got == pytest.approx(0.496, abs=1e-12)
    with pytest.raises(ValidationError):
        integrate(f, 0.9, 0.1)
    with pytest.raises(ValidationError):
        integrate(f, -0.5, 0.5)


# ---------------------------------------------------------------------------
# sublevel primitives: oracle values computed by hand


def test_sublevel_mass_increasing_curve():
    # uniform types, curve(t) = 2t - 1: mass{curve <= c} = F((c+1)/2)
    d = qsell.make_uniform(0.0, 1.0, m=1001)
    curve = 2.0 * d.grid - 1.0
    for c in [-1.0, -0.5, 0.0, 0.3, 1.0]:
        want = np.clip((c + 1.0) / 2.0, 0.0, 1.0)
        got = dist.sublevel_mass(d, curve, c, include_equal=True)
        assert got == pytest.approx(want, abs=1e-12), c


def test_sublevel_mass_flat_cells_strict_vs_weak():
    # curve is 0 on [0, 0.5] then rises: the flat stretch is an atom at level 0
    d = qsell.make_uniform(0.0, 1.0, m=1001)
    curve = np.maximum(0.0, 2.0 * d.grid - 1.0)
    weak = dist.sublevel_mass(d, curve, 0.0, include_equal=True)
    strict = dist.sublevel_mass(d, curve, 0.0, include_equal=False)
    assert weak == pytest.approx(0.5, abs=1e-12)
    assert strict == pytest.approx(0.0, abs=1e-12)
    # just above the atom both coincide
    assert dist.sublevel_mass(d, curve, 1e-9, include_equal=False) == pytest.approx(
        0.5, abs=1e-6
    )


def test_sublevel_mass_decreasing_curve():
    # curve(t) = 1 - t falls; {curve <= c} = {t >= 1 - c}: mass = c for c in [0,1]
    d = qsell.make_uniform(0.0, 1.0, m=1001)
    curve = 1.0 - d.grid
    for c in [0.0, 0.25, 0.7, 1.0]:
        got = dist.sublevel_mass(d, curve, c, include_equal=True)
        assert got == pytest.approx(c, abs=1e-12)


def test_sublevel_integral_v_shape():
    # xi(q) = |q - 1/2| on a uniform grid, integrand == 1:
    # integral over {xi <= c} = length of [1/2 - c, 1/2 + c] = 2c for c <= 1/2
    grid = np.linspace(0.0, 1.0, 1001)
    xi = np.abs(grid - 0.5)
    ones = np.ones_like(grid)
    for c in [0.0, 0.1, 0.25, 0.5]:
        got = dist.sublevel_integral(grid, xi, ones, c, include_equal=True)
        assert got == pytest.approx(2.0 * c, abs=1e-9)
    # weighted integrand g(q) = q: integral of q over [1/2-c, 1/2+c] = 2c * 1/2
    got = dist.sublevel_integral(grid, xi, grid, 0.2, include_equal=True)
    assert got == pytest.approx(0.2, abs=1e-9)


def test_sublevel_integral_vector_levels():
    grid = np.linspace(0.0, 1.0, 101)
    xi = grid.copy()
    c = np.array([-1.0, 0.3, 0.6, 2.0])
    got = dist.sublevel_integral(grid, xi, np.ones_like(grid), c, include_equal=True)
    assert np.allclose(got, [0.0, 0.3, 0.6, 1.0], atol=1e-12)
    with pytest.raises(ValidationError):
        dist.sublevel_integral(grid, xi, np.ones_like(grid), [0.3, float("nan")])


def test_sublevel_tables_must_match_the_grid():
    grid = np.linspace(0.0, 1.0, 5)
    level = np.array([0.0, 1.0, 0.5, 2.0, 3.0])
    for lv, iv in (
        (level[:-1], 1.0),
        (level, np.ones(4)),
        (level, np.ones((3, 6))),
        (level, np.ones((2, 3, 5))),
    ):
        with pytest.raises(ValidationError):
            dist.sublevel_integral(grid, lv, iv, 0.5)
        with pytest.raises(ValidationError):
            dist.LevelTable.build(grid, lv, iv)


def test_a_nan_level_is_a_validation_error():
    grid = np.linspace(0.0, 1.0, 5)
    level = [0.0, 1.0, float("nan"), 2.0, 3.0]
    with pytest.raises(ValidationError):
        dist.sublevel_integral(grid, level, 1.0, 0.5)
    with pytest.raises(ValidationError):
        dist.LevelTable.build(grid, level, np.ones((2, 5)))


def test_falling_cell_at_its_upper_end_counts_once():
    # A falling cell whose upper end equals c lies wholly inside {level <= c};
    # its whole integral and its partial one must not both count.
    assert dist.sublevel_integral([0.0, 1.0], [1.0, 0.0], 1.0, 1.0) == 1.0
    assert dist.sublevel_integral([0.0, 1.0, 2.0], [2.0, 1.0, 0.0], 1.0, 1.0) == 1.0
    assert dist.sublevel_integral([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], 1.0, 1.0) == 2.0


# ---------------------------------------------------------------------------
# level tables against the dense (levels x cells) broadcast


def _dense_sublevel_integral(grid, level_vals, integrand_vals, c, include_equal):
    """Every query against every cell at once: O(k m) time and memory."""
    lv = np.asarray(level_vals, dtype=float)
    iv = np.asarray(integrand_vals, dtype=float)
    c_arr = np.atleast_1d(np.asarray(c, dtype=float))[:, None]
    a, b = lv[:-1][None, :], lv[1:][None, :]
    w0, w1 = iv[:-1][None, :], iv[1:][None, :]
    dq = np.diff(np.asarray(grid, dtype=float))[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.clip((c_arr - a) / (b - a), 0.0, 1.0)
    wlam = w0 + (w1 - w0) * lam
    sloped = np.where(
        b > a, 0.5 * lam * dq * (w0 + wlam), 0.5 * (1.0 - lam) * dq * (wlam + w1)
    )
    inside = (a <= c_arr) if include_equal else (a < c_arr)
    flat_part = np.where(inside, 0.5 * dq * (w0 + w1), 0.0)
    return np.where(a == b, flat_part, sloped).sum(axis=1)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    shape=st.sampled_from(LEVEL_SHAPES),
    m=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_sublevel_integral_matches_dense_oracle(shape, m, seed):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.01, 1.0, m)) / m
    lv = level_curve(shape, rng, m)
    iv = rng.uniform(-0.5, 2.0, m)
    span = lv.max() - lv.min() + 1.0
    c = np.concatenate(
        (
            lv,  # exact node levels
            [lv.min() - span, lv.max() + span, -np.inf, np.inf],
            rng.uniform(lv.min() - 0.1 * span, lv.max() + 0.1 * span, 16),
        )
    )
    stack = np.stack((iv, 1.0 - iv * grid, np.ones(m)))
    for include_equal in (True, False):
        want = _dense_sublevel_integral(grid, lv, iv, c, include_equal)
        got = dist.sublevel_integral(grid, lv, iv, c, include_equal)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        one_by_one = [dist.sublevel_integral(grid, lv, iv, float(x), include_equal) for x in c]
        np.testing.assert_allclose(one_by_one, got, rtol=0.0, atol=1e-12)

        # A stack of integrands: each row is the 1-D call, bit for bit.
        rows = dist.sublevel_integral(grid, lv, stack, c, include_equal)
        assert rows.shape == (3, c.size)
        for row, integrand in zip(rows, stack):
            assert np.array_equal(
                row, dist.sublevel_integral(grid, lv, integrand, c, include_equal)
            )
        at_one = dist.sublevel_integral(grid, lv, stack, float(c[-1]), include_equal)
        assert np.array_equal(at_one, rows[:, -1])

    # The level table of the stack reads the same values at both sides of
    # every break, at the midpoints between breaks, at random levels and
    # below and above the range.
    table = dist.LevelTable.build(grid, lv, stack)
    breaks = np.unique(lv)
    assert np.array_equal(table.breaks, breaks)
    probes = np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]), c))
    flags = rng.uniform(size=probes.size) < 0.5
    dense = {
        side: np.stack([_dense_sublevel_integral(grid, lv, row, probes, side) for row in stack])
        for side in (True, False)
    }
    for weak in (True, False, flags):
        want = np.where(weak, dense[True], dense[False])
        np.testing.assert_allclose(table.at(probes, weak), want, rtol=0.0, atol=1e-12)
    assert np.array_equal(table.at(float(breaks[0]), False), table.strict[:, 0])

    d = qsell.make_from_table(grid, rng.uniform(0.1, 2.0, m))
    mass_table = dist.LevelTable.build(d.cdf_vals, lv, 1.0)
    for include_equal in (True, False):
        np.testing.assert_allclose(
            mass_table.at(probes, include_equal),
            _dense_sublevel_integral(d.cdf_vals, lv, np.ones(m), probes, include_equal),
            rtol=0.0,
            atol=1e-12,
        )
        mass = dist.sublevel_mass(d, lv, c, include_equal)
        assert np.array_equal(
            mass, dist.sublevel_integral(d.cdf_vals, lv, 1.0, c, include_equal)
        )
        np.testing.assert_allclose(
            mass,
            _dense_sublevel_integral(d.cdf_vals, lv, np.ones(m), c, include_equal),
            rtol=0.0,
            atol=1e-12,
        )


def _at_by_broadcast(table, c, weak=True, pieces=False):
    """``LevelTable.at`` as a (pieces, k) broadcast, the reference for its point-major read.

    Each key's piece, left break and width stay (pieces, 1) against the
    (pieces, k) levels, and two full-size wheres pick the side at a break.
    """
    c = np.asarray(c, dtype=float)
    key = 0.5 * (c[:, :1] + c[:, -1:]) if pieces else c
    b = table.breaks
    j = np.searchsorted(b, key)
    lo = b[np.maximum(j - 1, 0)]
    width = np.append(1.0, np.append(np.diff(b), 1.0))[j]
    x = np.clip((c - lo) / width, 0.0, 1.0)
    c0, c1, c2 = table.coef[..., j]
    val = c0 + x * (c1 + x * c2)
    jb = np.minimum(j, b.size - 1)
    side = np.where(weak, table.weak[..., jb], table.strict[..., jb])
    return np.where(b[jb] == key, side, val)[()]


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    shape=st.sampled_from(LEVEL_SHAPES),
    m=st.integers(2, 80),
    k=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_table_reads_match_the_broadcast_reference_bit_for_bit(shape, m, k, seed):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.01, 1.0, m)) / m
    lv = level_curve(shape, rng, m)
    d = qsell.make_from_table(grid, rng.uniform(0.1, 2.0, m))
    stack = np.stack((rng.uniform(-0.5, 2.0, m), np.ones(m), rng.uniform(-1.0, 1.0, m)))
    breaks = np.unique(lv)
    span = breaks[-1] - breaks[0] + 1.0
    levels = np.concatenate((
        breaks,  # exactly at the breaks
        0.5 * (breaks[:-1] + breaks[1:]),
        [breaks[0] - span, breaks[-1] + span, -np.inf, np.inf],
        rng.uniform(breaks[0] - 0.1 * span, breaks[-1] + 0.1 * span, 9),
    ))
    # the curve cut at its own breaks: every piece ends on a break, and a
    # flat of the curve is a flat piece at a break
    _, cut, _, _ = dist.cut_quadrature(grid, lv, breaks, k)
    queries = [(float(x), False) for x in levels[:: max(1, levels.size // 5)]]
    queries += [(levels, False), (levels.reshape(-1, 1), False), (cut, True), (cut[:0], True)]
    tables = (dist.LevelTable.build(d.cdf_vals, lv, 1.0), dist.LevelTable.build(grid, lv, stack))
    for table in tables:
        for c, pieces in queries:
            for weak in (True, False, rng.uniform(size=np.shape(c)) < 0.5):
                got = table.at(c, weak, pieces)
                want = _at_by_broadcast(table, c, weak, pieces)
                assert np.shape(got) == np.shape(want) and type(got) is type(want)
                assert np.array_equal(got, want)
        nan_queries = (np.nan, False), (np.append(levels, np.nan), False)
        nan_queries += ((np.full((2, k), np.nan), True),)
        for c, pieces in nan_queries:
            with pytest.raises(ValidationError):
                table.at(c, True, pieces)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    shape=st.sampled_from(LEVEL_SHAPES),
    m=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_table_pieces_meet_their_breaks(shape, m, seed):
    # Each piece's quadratic starts at the weak value of its left break and
    # ends at the strict value of its right break (the ends that a read
    # with pieces=True takes from inside the piece); the pieces below and
    # above the breaks hold the strict value of the first break and the
    # weak value of the last.
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.01, 1.0, m)) / m
    lv = level_curve(shape, rng, m)
    stack = np.stack((rng.uniform(-0.5, 2.0, m), np.ones(m)))
    d = qsell.make_from_table(grid, rng.uniform(0.1, 2.0, m))
    for table in (
        dist.LevelTable.build(grid, lv, stack),
        dist.LevelTable.build(d.cdf_vals, lv, 1.0),
    ):
        c0, c1, c2 = table.coef
        np.testing.assert_allclose(c0[..., 1:], table.weak, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose((c0 + c1 + c2)[..., :-1], table.strict, rtol=0.0, atol=1e-12)
        assert np.all(c1[..., [0, -1]] == 0.0) and np.all(c2[..., [0, -1]] == 0.0)


def test_level_table_memory_stays_linear():
    # One 1 025-node quality table on |sin 7q|: a (levels x cells) build
    # would need over 15 MB.
    qm = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=1025), 1.0, lambda q: np.abs(np.sin(7.0 * q))
    )
    peak = traced_peak(lambda: dist.LevelTable.build(qm.G.grid, qm.xi.vals, qm.integrands))
    assert peak <= 3e6


# ---------------------------------------------------------------------------
# cdf cell lookup (the guide table behind quantile and simulate)


def _assert_cells_match(d, u):
    """The guide-table cell is clipped searchsorted's, and its reads are np.interp's.

    ``_cdf_cell`` gets u clamped to [0, 1], as ``quantile`` hands it on;
    ``quantile`` itself reads the raw u.
    """
    u = np.asarray(u, dtype=float)
    cdf, clamped = d.cdf_vals, np.clip(u, 0.0, 1.0)
    k, w = dist._cdf_cell(dist._cdf_guide(cdf), clamped)
    expect = np.clip(np.searchsorted(cdf, clamped, side="right") - 1, 0, cdf.size - 2)
    assert np.array_equal(k, expect)
    assert np.all((w >= 0.0) & (w <= 1.0))
    t = qsell.quantile(d, u)
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(d.grid))
    assert np.max(np.abs(t - np.interp(u, cdf, d.grid))) <= tol


def _exact_edges(m):
    """A distribution whose cdf nodes are exactly j / (m - 1): every node on a bucket edge."""
    grid = np.linspace(0.0, 1.0, m)
    return dist.GriddedDistribution(grid, np.ones(m), np.arange(m) / (m - 1))


def _eps_stretch(m):
    """Half the grid at the density floor: hundreds of cdf nodes share one bucket."""
    grid = np.linspace(0.0, 1.0, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return qsell.make_from_table(grid, np.where(np.abs(grid - 0.5) < 0.25, 0.0, 1.0))


_LOOKUP_DISTS = {
    "uniform-257": lambda: qsell.make_uniform(0.0, 1.0, m=257),
    "shifted-uniform-65": lambda: qsell.make_uniform(2.0, 5.0, m=65),
    "bimodal-1025": lambda: qsell.make_from_density(
        0.0, 1.0, lambda x: np.exp(-0.5 * ((x - 0.25) / 0.08) ** 2)
        + np.exp(-0.5 * ((x - 0.75) / 0.08) ** 2), m=1025,
    ),
    "tied-cdf": lambda: dist.GriddedDistribution(
        np.arange(6.0), np.ones(6), np.array([0.0, 0.2, 0.2, 0.2, 0.7, 1.0])
    ),
    "exact-edges-101": lambda: _exact_edges(101),
    "inexact-ends": lambda: dist.GriddedDistribution(
        np.arange(4.0), np.ones(4), np.array([1e-10, 0.3, 0.6, 1.0 - 1e-10])
    ),
    "eps-stretch-1025": lambda: _eps_stretch(1025),
}


@pytest.mark.parametrize("name", sorted(_LOOKUP_DISTS))
def test_cdf_cell_at_the_ends_and_at_every_node(name):
    d = _LOOKUP_DISTS[name]()
    cdf = d.cdf_vals
    # quantile accepts u within 1e-12 outside [0, 1]: those read the end cells
    ends = [0.0, 1.0, -1e-12, 1.0 + 1e-12, np.nextafter(1.0, 0.0)]
    _assert_cells_match(d, np.concatenate((ends, cdf)))
    # u at a node that starts a cell of positive width reads that node exactly
    starts = np.nonzero(np.diff(cdf) > 0.0)[0]
    assert np.array_equal(qsell.quantile(d, cdf[starts]), d.grid[starts])


def test_cdf_cell_with_many_cells_in_one_bucket():
    d = _eps_stretch(1025)
    cdf = d.cdf_vals
    M = cdf.size - 1
    assert np.max(np.bincount((cdf * M).astype(int))) > 200
    u = np.random.default_rng(3).random(20_000)
    near = np.concatenate((np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)))
    _assert_cells_match(d, np.clip(np.concatenate((u, near)), 0.0, 1.0))


@pytest.mark.parametrize("m", [50, 101, 1000])
def test_cdf_cell_just_below_each_bucket_edge(m):
    # int(u * M) can round a u just below j / M up to bucket j, which then
    # must not start past u's cell, here the cell that ends at j / M.  (M
    # is not a power of two, where u * M would be exact.)
    for d in (_exact_edges(m), qsell.make_uniform(0.0, 1.0, m=m)):
        M = m - 1
        edge = np.arange(1, M + 1) / M
        below = np.nextafter(edge, 0.0)
        assert np.any((below * M).astype(int) == np.arange(1, M + 1))
        _assert_cells_match(d, np.concatenate((below, edge, np.nextafter(edge, 2.0).clip(0, 1))))


@settings(deadline=None, max_examples=60)
@given(
    vals=st.lists(
        st.one_of(st.floats(0.05, 10.0), st.just(0.0), st.floats(1e-13, 1e-9)),
        min_size=2,
        max_size=40,
    ),
    tied=st.booleans(),
    ends=st.tuples(st.floats(-9e-10, 9e-10), st.floats(-9e-10, 9e-10)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cdf_ends_are_exact_and_cells_need_no_clamp(vals, tied, ends, seed):
    grid = np.linspace(0.0, 1.0, len(vals))
    vals = np.asarray(vals)
    vals[-1] = max(vals[-1], 1.0)  # some mass, whatever else is clamped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        d = qsell.make_from_table(grid, vals)  # zeros become density-floor stretches
    assert d.cdf_vals[0] == 0.0 and d.cdf_vals[-1] == 1.0
    if tied:  # a zero cell is a tie
        raw = np.concatenate(([0.0], np.cumsum(vals[1:])))
        raw /= raw[-1]
    else:
        raw = d.cdf_vals.copy()
    # ends moved off by up to 1e-9, the table still non-decreasing
    raw[0], raw[-1] = min(ends[0], raw[1]), max(1.0 + ends[1], raw[-2])
    given_cdf = raw.copy()
    e = dist.GriddedDistribution(grid, d.pdf_vals, raw)
    cdf = e.cdf_vals
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.array_equal(cdf[1:-1], given_cdf[1:-1])
    assert np.array_equal(raw, given_cdf)  # the caller's table is not written to

    # no clamp: random draws, every node and its float neighbours in [0, 1]
    u = np.concatenate((
        np.random.default_rng(seed).random(200),
        cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
    ))
    u = u[(u >= 0.0) & (u <= 1.0)]
    k, w = dist._cdf_cell(dist._cdf_guide(cdf), u)
    assert np.array_equal(k, np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, cdf.size - 2))
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_an_inexact_end_buyer_reads_like_its_exact_twin():
    exact = qsell.make_from_density(0.0, 1.0, lambda x: 1.0 + 2.0 * x, m=257)
    cdf = exact.cdf_vals.copy()
    cdf[0], cdf[-1] = 1e-10, 1.0 - 1e-10
    inexact = dist.GriddedDistribution(exact.grid, exact.pdf_vals, cdf)
    assert inexact == exact
    u = np.concatenate(([0.0, 1.0], exact.cdf_vals))
    assert np.array_equal(qsell.quantile(inexact, u), qsell.quantile(exact, u))
    for end in (0.0, 1.0):
        assert qsell.quantile(inexact, end) == qsell.quantile(exact, end)

    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=129), 1.0, lambda q: 0.4 * q)
    other = qsell.make_uniform(0.0, 1.0, m=129)
    reports = [
        qsell.simulate(
            qsell.build_optimal_mechanism(qsell.ProblemInstance(buyers=(b, other), quality=qm)),
            20_000,
            5,
        )
        for b in (inexact, exact)
    ]
    assert dataclasses.asdict(reports[0]) == dataclasses.asdict(reports[1])


# ---------------------------------------------------------------------------
# property tests


@settings(deadline=None, max_examples=50)
@given(
    vals=st.lists(st.floats(0.05, 10.0), min_size=3, max_size=24),
    c=st.floats(-2.0, 3.0),
)
def test_sublevel_mass_is_a_probability(vals, c):
    grid = np.linspace(0.0, 1.0, len(vals))
    d = qsell.make_from_table(grid, np.asarray(vals))
    curve = np.sort(np.asarray(vals))[: len(vals)]  # any values; use sorted for monotone
    curve = np.linspace(-1.0, 2.0, len(vals)) * curve / np.max(curve)
    weak = dist.sublevel_mass(d, curve, c, include_equal=True)
    strict = dist.sublevel_mass(d, curve, c, include_equal=False)
    assert -1e-12 <= strict <= weak <= 1.0 + 1e-12


@settings(deadline=None, max_examples=50)
@given(
    vals=st.lists(st.floats(0.05, 10.0), min_size=3, max_size=24),
    u=st.floats(0.0, 1.0),
)
def test_quantile_cdf_consistency(vals, u):
    grid = np.linspace(0.0, 1.0, len(vals))
    d = qsell.make_from_table(grid, np.asarray(vals))
    x = qsell.quantile(d, u)
    assert d.grid[0] - 1e-12 <= x <= d.grid[-1] + 1e-12
    assert qsell.cdf(d, x) == pytest.approx(u, abs=1e-9)


@settings(deadline=None, max_examples=50)
@given(
    vals=st.lists(
        st.one_of(st.floats(0.05, 10.0), st.just(0.0), st.floats(1e-13, 1e-9)),
        min_size=2,
        max_size=40,
    ),
    u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    nodes=st.booleans(),
)
def test_cdf_cell_matches_searchsorted(vals, u, nodes):
    grid = np.linspace(0.0, 1.0, len(vals))
    vals = np.asarray(vals)
    vals[0] = max(vals[0], 1.0)  # some mass, whatever else is clamped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        d = qsell.make_from_table(grid, vals)
    if nodes:
        u = u + d.cdf_vals.tolist()
    _assert_cells_match(d, u)


@settings(deadline=None, max_examples=30)
@given(c=st.floats(-0.5, 1.5), shift=st.floats(1e-6, 0.1))
def test_sublevel_mass_monotone_in_level(c, shift):
    d = qsell.make_uniform(0.0, 1.0, m=257)
    curve = np.minimum(d.grid, 0.7)  # has a flat stretch (atom at 0.7)
    lo = dist.sublevel_mass(d, curve, c, include_equal=True)
    hi = dist.sublevel_mass(d, curve, c + shift, include_equal=True)
    assert hi >= lo - 1e-12


def _random_curve(rng, m):
    """A curve on m increasing nodes whose values often repeat one of 8 levels."""
    x = np.cumsum(rng.uniform(0.1, 1.0, m))
    shared = rng.integers(0, 8, m) / 7.0
    vals = np.where(rng.uniform(size=m) < 0.5, shared, rng.uniform(0.0, 1.0, m))
    return x, vals


@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_mass=st.integers(0, 2))
def test_cut_quadrature_integrates_table_products_exactly(seed, n_mass):
    # One quadratic table (an integral over a sublevel set) times n_mass
    # linear ones (masses) is a polynomial of degree n_mass + 2 in the
    # abscissa on every piece, which n_mass + 3 Lobatto points integrate
    # exactly; so does the same rule on each of 8 equal parts of a piece.
    # Ties at the shared levels exercise the reads at the pieces' ends.
    rng = np.random.default_rng(seed)
    tables = []
    for j in range(n_mass + 1):
        grid, level = _random_curve(rng, int(rng.integers(2, 12)))
        if j == 0:
            tables.append(dist.LevelTable.build(grid, level, rng.uniform(0.0, 2.0, grid.size)))
        else:
            d = dist.make_from_table(grid, rng.uniform(0.2, 2.0, grid.size))
            tables.append(dist.LevelTable.build(d.cdf_vals, level, 1.0))
    x, vals = _random_curve(rng, int(rng.integers(2, 20)))
    k = n_mass + 3
    levels = np.concatenate([tb.breaks for tb in tables])
    t, c, weight, _ = dist.cut_quadrature(x, vals, levels, k)

    def integral(c, weight):
        return np.sum(weight * np.prod([tb.at(c, False, pieces=True) for tb in tables], axis=0))

    # the reference: the same rule on 8 equal parts of every piece, as pieces
    s, Q = dist.lobatto(k)
    part = np.arange(9) / 8.0

    def split(a):
        ends = a[:, :1] + (a[:, -1:] - a[:, :1]) * part
        ends[:, 0], ends[:, -1] = a[:, 0], a[:, -1]  # the piece's own ends, exactly
        lo, hi = ends[:, :-1].reshape(-1, 1), ends[:, 1:].reshape(-1, 1)
        out = lo + (hi - lo) * s
        out[:, -1] = hi[:, 0]
        return out

    t8, c8 = split(t), split(c)
    want = integral(c8, (t8[:, -1:] - t8[:, :1]) * Q[-1])
    assert integral(c, weight) == pytest.approx(want, rel=0.0, abs=1e-13)
