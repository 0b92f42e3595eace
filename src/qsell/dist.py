"""Gridded one-dimensional distributions and quadrature.

Every other module works with bounded, atomless distributions stored as
(grid, pdf, cdf) triples plus plain tabulated functions on the same kind
of grid.  The helpers here also provide the two sublevel-set primitives
the mechanism machinery is built on: the probability mass of
``{x : curve(x) <= c}`` under a distribution, and the integral of a
tabulated integrand over ``{q : level(q) <= c}``.  Both are read off a
``LevelTable``, the integral as an exact piecewise quadratic in the
level c, built in one pass over the cells: for an m-node curve it costs
O(m log m + P), where P counts the (sloped cell, piece) pairs, at most
breaks x monotone runs of the curve.  A stack of integrands over one
level curve shares the pass.
``cut_quadrature`` cuts a curve where it strictly crosses a level and
lays a Gauss-Lobatto rule on each piece, which integrates products of
tables along the curve exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "EPS_DENSITY",
    "GriddedFunction",
    "GriddedDistribution",
    "make_uniform",
    "make_from_density",
    "make_from_table",
    "constant_curve",
    "curve_from_callable",
    "cdf",
    "quantile",
    "sublevel_integral",
    "sublevel_mass",
    "lobatto",
    "cut_quadrature",
    "LevelTable",
]

EPS_DENSITY = 1e-12
_CDF_BUCKETS = 4  # cdf guide buckets per cell


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or an infinite value")
    return arr


def _check_grid(grid):
    if grid.size < 2:
        raise ValidationError("grid needs at least 2 nodes")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing")


def _same_grid(a, b):
    """True when a and b are the same grid, node for node; a shared array needs no compare."""
    return a is b or np.array_equal(a, b)


def _frozen(a):
    """a, made read-only: qsell allocated it and may share it between buyers."""
    a.flags.writeable = False
    return a


def _equal_fields(self, other):
    """Dataclass equality that compares numpy arrays by value, NaN equal to NaN."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(
        np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        for a, b in pairs
    )


@dataclass(frozen=True)
class GriddedFunction:
    """A function tabulated on a strictly increasing grid, interpolated linearly."""

    grid: np.ndarray
    vals: np.ndarray
    __eq__ = _equal_fields

    def __post_init__(self):
        grid = _as_float_array(self.grid, "grid")
        vals = np.asarray(self.vals, dtype=float)
        if vals.ndim != 1 or vals.size != grid.size:
            raise ValidationError("vals must match the grid length")
        _check_grid(grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "vals", vals)

    def value_at(self, x):
        """Evaluate by linear interpolation, clamping outside the grid span."""
        return _read(x, self.grid, self.vals)


@dataclass(frozen=True)
class GriddedDistribution:
    """Bounded distribution on [grid[0], grid[-1]] with gridded pdf/cdf.

    ``cdf_vals`` is the running trapezoid integral of ``pdf_vals``,
    renormalized; ends within 1e-9 of 0 and 1 are stored as exactly 0.0
    and 1.0, interior values as given, and every cdf read relies on that.
    ``norm_factor`` records the raw mass of the user-supplied density
    before renormalization.
    """

    grid: np.ndarray
    pdf_vals: np.ndarray
    cdf_vals: np.ndarray
    norm_factor: float = field(default=1.0, compare=False)
    __eq__ = _equal_fields

    def __post_init__(self):
        grid = _as_float_array(self.grid, "grid")
        _check_grid(grid)
        pdf_vals = _as_float_array(self.pdf_vals, "pdf_vals")
        cdf_vals = _as_float_array(self.cdf_vals, "cdf_vals")
        if pdf_vals.size != grid.size or cdf_vals.size != grid.size:
            raise ValidationError("pdf/cdf arrays must match the grid length")
        if np.any(pdf_vals < EPS_DENSITY):
            raise ValidationError(f"pdf values must be >= {EPS_DENSITY}")
        if abs(cdf_vals[0]) > 1e-9 or abs(cdf_vals[-1] - 1.0) > 1e-9:
            raise ValidationError("cdf must run from 0 to 1")
        cdf_vals = np.concatenate(([0.0], cdf_vals[1:-1], [1.0]))
        if np.any(np.diff(cdf_vals) < 0):
            raise ValidationError("cdf must be non-decreasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pdf_vals", pdf_vals)
        object.__setattr__(self, "cdf_vals", cdf_vals)


def _trapezoid_cdf(grid, pdf):
    return np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))


def _finalize(grid, raw_pdf):
    """Clamp, normalize and assemble a GriddedDistribution from raw samples.

    The raw density must be non-negative with a finite trapezoid mass of
    at least 1e-12 before any value is clamped.
    """
    if np.any(raw_pdf < 0):
        raise ValidationError("density is negative somewhere on the grid")
    with np.errstate(over="ignore"):
        raw_cdf = _trapezoid_cdf(grid, raw_pdf)
    if not (np.isfinite(raw_cdf[-1]) and raw_cdf[-1] >= 1e-12):
        raise ValidationError("density integrates to (numerically) zero or infinite mass")
    if np.any(raw_pdf < EPS_DENSITY):
        warnings.warn(
            "density values below 1e-12 were clamped up to keep the grid usable",
            RuntimeWarning,
            stacklevel=3,
        )
        raw_pdf = np.maximum(raw_pdf, EPS_DENSITY)
        raw_cdf = _trapezoid_cdf(grid, raw_pdf)
    mass = raw_cdf[-1]
    pdf_vals = raw_pdf / mass
    if np.any(pdf_vals < EPS_DENSITY):
        # normalization can push clamped values back under the floor
        pdf_vals = np.maximum(pdf_vals, EPS_DENSITY)
        cdf_vals = _trapezoid_cdf(grid, pdf_vals)
        cdf_vals = cdf_vals / cdf_vals[-1]
    else:
        cdf_vals = raw_cdf / mass
    return GriddedDistribution(grid, pdf_vals, cdf_vals, norm_factor=float(mass))


def _even_grid(lo, hi, m):
    """m evenly spaced nodes from lo to hi, both finite with lo < hi, m >= 2."""
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ValidationError("need finite lo < hi")
    if m < 2:
        raise ValidationError("need at least 2 grid nodes")
    return np.linspace(lo, hi, int(m))


def make_uniform(lo, hi, m=1024):
    """Uniform distribution on [lo, hi] tabulated on m nodes."""
    grid = _even_grid(lo, hi, m)
    raw = np.full(int(m), 1.0 / (hi - lo))
    return _finalize(grid, raw)


def make_from_density(lo, hi, density, m=1024):
    """Sample a density callable on m nodes over [lo, hi] and normalize it."""
    grid = _even_grid(lo, hi, m)
    raw = np.asarray(density(grid), dtype=float)
    if raw.shape != grid.shape:
        raw = np.array([float(density(x)) for x in grid])
    if np.any(np.isnan(raw)):
        raise ValidationError("density evaluated to NaN")
    return _finalize(grid, raw)


def make_from_table(grid, pdf_vals):
    """Build a distribution from explicitly tabulated density values."""
    grid = _as_float_array(grid, "grid")
    _check_grid(grid)
    raw = _as_float_array(pdf_vals, "pdf_vals")
    if raw.size != grid.size:
        raise ValidationError("pdf table must match the grid length")
    return _finalize(grid, raw)


def constant_curve(grid, value):
    grid = _as_float_array(grid, "grid")
    return GriddedFunction(grid, np.full(grid.size, float(value)))


def curve_from_callable(grid, fn):
    grid = _as_float_array(grid, "grid")
    vals = np.asarray(fn(grid), dtype=float)
    if vals.shape != grid.shape:
        vals = np.array([float(fn(x)) for x in grid])
    return GriddedFunction(grid, vals)


def _validated_query(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValidationError("query point is NaN")
    return x


def _read(x, grid, vals):
    """vals interpolated linearly on grid at x, the end values outside it.

    Raises ValidationError for a NaN query; a scalar x gives a float.
    """
    out = np.interp(_validated_query(x), grid, vals)
    return float(out) if out.ndim == 0 else out


def cdf(d, x):
    """F(x) by linear interpolation; queries outside the support clamp."""
    return _read(x, d.grid, d.cdf_vals)


def _guide(start, end):
    """Guide table (Chen & Asau, 1974) (start, far) of buckets answered in [start, end].

    ``far`` marks the buckets that span two or more intervals, None if none does.
    """
    far = end - start > 1
    return start, (far if far.any() else None)


def _guided_index(nxt, x, guide, bucket):
    """searchsorted(nxt, x, "right") for sorted nxt, through a ``_guide`` and each x's bucket.

    One vectorised step moves every bucket start up by one interval at
    most, and the few points of far buckets still short are searched.
    """
    start, far = guide
    k = start[bucket]
    k += nxt[k] <= x
    if far is not None:
        late = np.flatnonzero(far[bucket])
        late = late[nxt[k[late]] <= x[late]]
        k[late] = np.searchsorted(nxt, x[late], side="right")
    return k


def _cdf_guide(cdf):
    """What ``_cdf_cell`` reads of a tabulated cdf: (guide, nxt, width, cdf).

    The guide has K = 4 (m - 1) buckets, so that few hold a node: bucket
    j starts at the last node whose ``int(cdf * K)`` is below j, or at
    node 0, at or before the cell of each u with ``int(u * K) = j``, which
    is at or before the next bucket's start.  That node is never the last,
    whose ``int(cdf * K)`` is exactly K, as the cdf ends at exactly 1.
    """
    M, K = cdf.size - 1, _CDF_BUCKETS * (cdf.size - 1)
    start = np.maximum(np.searchsorted((cdf * K).astype(np.intp), np.arange(K + 1)) - 1, 0)
    nxt, width = np.append(cdf[1:-1], np.inf), np.diff(cdf)  # the cells' upper ends, inf last
    return _guide(start, np.append(start[1:], M - 1)), nxt, np.where(width > 0.0, width, 1.0), cdf


def _cdf_cell(guide, u):
    """Cell k and fraction w of each u on a tabulated cdf, through its ``_cdf_guide``.

    k is ``searchsorted(cdf, u, "right") - 1``, clipped to the m - 1
    cells; w is u's fraction of it, unclamped: for u in [0, 1], the cdf's
    exact ends keep u - cdf[k] rounded between 0 and the cell's width.
    """
    search, nxt, width, cdf = guide
    k = _guided_index(nxt, u, search, (u * (_CDF_BUCKETS * nxt.size)).astype(np.intp))
    w = cdf[k]
    np.subtract(u, w, out=w)
    w /= width[k]
    return k, w


def _cell_read(col, step, k, w):
    """Column col, tabulated on a grid, read linearly at fraction w of cells k.

    ``step`` is ``np.diff(col)``.  This is the one read behind
    ``quantile``: col[k] + (col[k + 1] - col[k]) * w, rounded the same
    way for any subset of the (k, w) pairs.
    """
    val = step[k]
    val *= w
    val += col[k]
    return val


def quantile(d, u):
    """Inverse cdf by linear interpolation; u up to 1e-12 outside [0, 1] is clamped, once."""
    u = _validated_query(u)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise ValidationError("quantile argument must lie in [0, 1]")
    k, w = _cdf_cell(_cdf_guide(d.cdf_vals), np.clip(u.ravel(), 0.0, 1.0))
    val = _cell_read(d.grid, np.diff(d.grid), k, w)
    return float(val[0]) if not u.shape else val.reshape(u.shape)


def sublevel_integral(grid, level_vals, integrand_vals, c, include_equal=True):
    """Integral of a tabulated integrand over the sublevel set {level <= c}.

    Both ``level_vals`` and ``integrand_vals`` are treated as piecewise
    linear on ``grid``; ``integrand_vals`` may also be a scalar, or a
    stack of p integrands of shape (p, m), which gives the result a
    leading axis of length p (each row is, bit for bit, the call with
    that integrand alone).  Partial cells are integrated exactly for
    the piecewise-linear model, so step-like level curves do not smear.
    With ``include_equal=False`` flat stretches sitting exactly at c are
    excluded (the strict sublevel set {level < c}).

    This is ``LevelTable.build`` read at c.  Vectorized over c; returns
    a scalar for scalar c and a 1-D integrand.  A NaN query is a
    validation error.
    """
    return LevelTable.build(grid, level_vals, integrand_vals).at(c, include_equal)


def _crossings(x, vals, levels):
    """Strict crossings of sorted levels inside a piecewise-linear curve's cells.

    Returns each crossing's cell, abscissa and level; a cell's crossings
    are one ``searchsorted`` range.
    """
    under = np.searchsorted(levels, vals, side="left")  # levels below each node
    upto = np.searchsorted(levels, vals, side="right")  # levels at or below it
    a, b = vals[:-1], vals[1:]
    rising = b > a
    lo_idx = np.where(rising, upto[:-1], upto[1:])
    count = np.maximum(np.where(rising, under[1:], under[:-1]) - lo_idx, 0)
    k = np.repeat(np.arange(a.size), count)
    first = np.cumsum(count) - count
    lev = levels[np.repeat(lo_idx - first, count) + np.arange(k.size)]
    frac = np.where(rising[k], (lev - a[k]) / (b[k] - a[k]), (a[k] - lev) / (a[k] - b[k]))
    return k, x[k] + frac * (x[k + 1] - x[k]), lev


@lru_cache(maxsize=None)
def lobatto(k):
    """The k-point Gauss-Lobatto rule on [0, 1], k >= 3: (nodes, Q), shared: read only.

    The nodes include both ends.  Row g of the (k, k) matrix Q integrates
    the polynomial through values at the nodes from 0 to node g, so its
    last row holds the rule's weights, exact for polynomials of degree
    2k - 3, and each row is exact for polynomials of degree k - 1.
    """
    P = np.polynomial.legendre.Legendre.basis(k - 1)
    x = np.concatenate(([-1.0], np.sort(P.deriv().roots().real), [1.0]))
    j = np.arange(1, k + 1)  # the monomials of degree j - 1 and their integrals from -1
    V, W = np.vander(x, k, increasing=True), (x[:, None] ** j - (-1.0) ** j) / j
    return 0.5 * (x + 1.0), 0.5 * np.linalg.solve(V.T, W.T).T


def cut_quadrature(x, vals, levels, k):
    """A k-point Gauss-Lobatto rule on each piece of a curve cut at levels.

    The cuts are the nodes of the piecewise-linear curve and every strict
    crossing of a level inside a cell, at the level it crosses (one
    interpolated back from the abscissa could land on the wrong side of
    a break).  No level lies inside a piece, so ``LevelTable`` lookups
    along the curve are polynomials there, which the rule integrates
    exactly up to degree 2k - 3 (``LevelTable.at`` reads them).  Returns
    ``(t, c, weight, cell)``: abscissae, levels and weights of shape
    (pieces, k), each piece's cuts at both ends, and each piece's grid cell.
    """
    k_c, t_c, lev_c = _crossings(x, vals, np.unique(levels))
    cell = np.concatenate((np.arange(x.size), k_c))
    t_all = np.concatenate((x, t_c))
    # within a cell its left node first, then the crossings in order
    order = np.lexsort((t_all, np.arange(cell.size) >= x.size, cell))
    t_cut, c_cut = t_all[order], np.concatenate((vals, lev_c))[order]
    s, Q = lobatto(k)
    dt, dc = np.diff(t_cut)[:, None], np.diff(c_cut)[:, None]
    t = t_cut[:-1, None] + dt * s
    c = c_cut[:-1, None] + dc * s
    t[:, -1], c[:, -1] = t_cut[1:], c_cut[1:]
    return t, c, dt * Q[-1], cell[order][:-1]


def _binsum(idx, vals, n):
    """Each row of vals (p, N) summed into n bins by idx, with one bincount."""
    p = vals.shape[0]
    bins = (np.arange(p)[:, None] * n + idx).ravel()
    out = np.bincount(bins, vals.ravel(), minlength=p * n).reshape(p, n)
    return out.astype(float, copy=False)  # integers when there is no entry


@dataclass(frozen=True, eq=False)
class LevelTable:
    """A sublevel integral as an exact piecewise quadratic in its level c.

    ``breaks`` are the level curve's sorted unique node values; ``weak``
    and ``strict`` the integral over {level <= c} and {level < c} there.
    Each open piece between breaks holds c0 + x * (c1 + x * c2) in its
    fraction x, which meets the weak value at its left break and the
    strict value at its right break; below and above the breaks the
    integral is constant.  A stacked integrand has a leading row axis.
    ``build``'s arrays are read-only, as buyers may share a table.
    """

    breaks: np.ndarray
    weak: np.ndarray
    strict: np.ndarray
    coef: np.ndarray  # (3, ..., pieces): c0, c1, c2; piece j ends at breaks[j]
    __eq__ = _equal_fields  # a rebuilt table equals the solve's

    @classmethod
    def build(cls, grid, level_vals, integrand_vals):
        """Tabulate the integral of an integrand over {level <= c}.

        Both tables are piecewise linear on ``grid``; the integrand may be
        a scalar, one row or a stack of rows, shape (p, m).  Each cell
        adds its whole integral from the break at its upper end onward,
        and a flat cell leaves the strict side at its own break.  Each
        sloped cell adds, to every piece it spans, its partial integral
        from its lower-level end: a quadratic in the piece's fraction.
        For m nodes this costs O(m log m + P), where P counts the (sloped
        cell, piece) pairs, at most breaks x monotone runs of the curve.
        Tables that do not match the grid, or a NaN or infinite level, are
        validation errors.
        """
        grid = _as_float_array(grid, "grid")
        lv = _as_float_array(level_vals, "level_vals")
        iv = np.asarray(integrand_vals, dtype=float)
        if lv.size != grid.size or iv.ndim > 2 or (iv.ndim and iv.shape[-1] != grid.size):
            raise ValidationError("level and integrand tables must match the grid length")
        w = np.broadcast_to(iv, iv.shape[:-1] + grid.shape).reshape(-1, grid.size)
        breaks, rank = np.unique(lv, return_inverse=True)
        n = breaks.size
        r_lo, r_hi = np.minimum(rank[:-1], rank[1:]), np.maximum(rank[:-1], rank[1:])
        dq = np.diff(grid)
        full = 0.5 * dq * (w[:, :-1] + w[:, 1:])

        # sloped cell k spans pieces r_lo + 1 .. r_hi; one (cell, piece) pair each
        count = r_hi - r_lo
        k = np.repeat(np.arange(count.size), count)
        piece = np.repeat(r_lo + 1 - (np.cumsum(count) - count), count) + np.arange(k.size)
        low = k + (rank[:-1] > rank[1:])[k]  # each pair's node at its cell's lower level
        w_lo = w[:, low]
        slope = w[:, 2 * k + 1 - low] - w_lo
        lo = breaks[r_lo[k]]
        span = breaks[r_hi[k]] - lo
        lam = (breaks[piece - 1] - lo) / span  # the cell's fraction at the piece's left break
        dlam = (breaks[piece] - breaks[piece - 1]) / span
        h = dq[k]
        # c0 = h lam (w_lo + slope lam / 2), c1 = h dlam (w_lo + slope lam),
        # c2 = h slope dlam^2 / 2, each rounded as written, summed by piece
        quad = np.empty((3,) + slope.shape)
        np.multiply(0.5 * slope, lam, out=quad[0])
        quad[0] += w_lo
        quad[0] *= h * lam
        np.multiply(slope, lam, out=quad[1])
        quad[1] += w_lo
        quad[1] *= h * dlam
        np.multiply(0.5 * h * slope, dlam, out=quad[2])
        quad[2] *= dlam
        coef = _binsum(piece, quad.reshape(3 * len(w), -1), n + 1).reshape(3, -1, n + 1)
        coef[0, :, 1:] += np.cumsum(_binsum(r_hi, full, n), axis=1)
        weak = coef[0, :, 1:]
        flat = count == 0
        strict = weak - _binsum(r_lo[flat], full[:, flat], n)
        shape = iv.shape[:-1]
        return cls(*map(_frozen, (
            breaks,
            weak.reshape(shape + (n,)),
            strict.reshape(shape + (n,)),
            coef.reshape((3,) + shape + (n + 1,)),
        )))

    def at(self, c, weak=True, pieces=False):
        """The quantity at levels c: its weak or strict value at a break.

        ``weak`` (a bool, or bools shaped like c) picks the side read at
        a break.  With ``pieces`` c holds the pieces of a cut curve,
        shape (pieces, k), with no break inside a piece (``cut_quadrature``):
        each reads the table piece holding its middle level, so its ends
        read the limits from inside it, and a flat piece at a break reads
        a side.  The read is point-major: one ``searchsorted`` per key (a
        level, or a piece's middle level), one gather and one Horner step
        over the flat points, and a side written only where a key sits on
        a break.  A NaN level is a validation error.
        """
        c = _validated_query(c)
        k = c.shape[-1] if pieces else 1  # points per key
        key = 0.5 * (c[:, 0] + c[:, -1]) if pieces else c.ravel()
        b = self.breaks
        j = b.searchsorted(key)  # the piece ending at the first break >= key
        jb = np.minimum(j, b.size - 1)
        hi, lo = b[jb], b[np.maximum(j - 1, 0)]
        width = hi - lo  # 0 only below and above the breaks, where c0 alone counts
        width[width == 0.0] = 1.0
        x = c.ravel() - lo.repeat(k)
        x /= width.repeat(k)
        np.minimum(np.maximum(x, 0.0, out=x), 1.0, out=x)  # the fraction, clipped to [0, 1]
        c0, c1, c2 = self.coef.take(j.repeat(k), axis=-1)
        val = c2 * x
        val += c1
        val *= x
        val += c0
        points = np.flatnonzero((hi == key).repeat(k))  # the points of keys on a break
        if points.size:
            side = np.ravel(weak)[points] if np.ndim(weak) else weak
            jb = jb[points // k]
            val[..., points] = np.where(side, self.weak[..., jb], self.strict[..., jb])
        return val.reshape(val.shape[:-1] + c.shape)[()]


def sublevel_mass(d, curve_vals, c, include_equal=True):
    """P(curve(X) <= c) for X ~ d, with the curve tabulated on d's grid.

    The cdf is treated as piecewise linear between nodes (consistent with
    ``cdf``).  ``include_equal`` controls whether flat stretches of the
    curve sitting exactly at level c contribute their probability mass,
    which is how ties at ironed plateaus get split between buyers.

    This is ``sublevel_integral`` of a unit integrand over the cdf
    values: a cell crossed at fraction lambda contributes lambda * dF.
    Vectorized over c; returns a scalar for scalar c.
    """
    cv = np.asarray(curve_vals, dtype=float)
    if cv.size != d.grid.size:
        raise ValidationError("curve table must match the distribution grid")
    return sublevel_integral(d.cdf_vals, cv, 1.0, c, include_equal)
