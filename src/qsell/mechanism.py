"""Threshold mechanisms for selling one item whose quality the seller observes.

Buyers privately know their types, the seller privately observes quality
q.  A mechanism asks at most one buyer to purchase at a type-dependent
price, or keeps the item.  The revenue-optimal rule implemented here is a
threshold comparison: buyer i is asked exactly when their (ironed)
virtual value clears every opponent's and the reserve ratio
xi(q) = reserve(q) / alpha(q).

Interim quantities (win probability, the alpha-weighted win weight, and
the envelope integral behind payments) reduce to one-dimensional sublevel
computations thanks to independence, tabulated once per solve as exact
functions of the threshold level.  Each type cell is cut wherever the
threshold curve meets a break of those tables, so every interim
quantity is a polynomial in the type on each piece, and the envelope
integral is exact up to rounding for the linear form.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import dist
from .errors import (
    AssumptionViolationError,
    UndefinedPaymentError,
    ValidationError,
)
from .virtual import VirtualValueCurve, iron

__all__ = [
    "WIN_PROB_FLOOR",
    "TIEBREAK_LOWEST_INDEX",
    "QualityModel",
    "make_quality_model",
    "LinearValuation",
    "GeneralValuation",
    "ProblemInstance",
    "Signal",
    "ThresholdMechanism",
    "xi_at",
    "allocate",
    "allocate_many",
    "win_weight",
    "payment",
    "build_optimal_mechanism",
    "interim_tables",
    "mechanism_to_json_dict",
    "mechanism_from_json_dict",
    "write_mechanism_csv",
]

WIN_PROB_FLOOR = 1e-12
TIEBREAK_LOWEST_INDEX = "lowest-index"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# model types


@dataclass(frozen=True)
class QualityModel:
    """Quality distribution plus its scaling and reserve curves.

    ``xi = reserve / alpha`` is the only channel through which quality
    enters allocation decisions, so it is tabulated once on G's grid.
    """

    G: dist.GriddedDistribution
    alpha: dist.GriddedFunction
    reserve: dist.GriddedFunction
    xi: dist.GriddedFunction

    @cached_property
    def integrands(self):
        """alpha * g, g and reserve * g stacked: the weights of A, B and C."""
        g = self.G.pdf_vals
        return np.stack((self.alpha.vals * g, g, self.reserve.vals * g))

    @cached_property
    def level_table(self):
        """A, B and C over {xi <= c} as one ``dist.LevelTable``, a row each."""
        return dist.LevelTable.build(self.G.grid, self.xi.vals, self.integrands)


def _curve_on(grid, curve, name):
    if isinstance(curve, dist.GriddedFunction):
        if curve.grid.size == grid.size and np.array_equal(curve.grid, grid):
            return curve
        return dist.GriddedFunction(grid, curve.value_at(grid))
    if callable(curve):
        return dist.curve_from_callable(grid, curve)
    if np.isscalar(curve):
        return dist.constant_curve(grid, float(curve))
    raise ValidationError(f"cannot interpret the {name} curve")


def make_quality_model(G, alpha, reserve):
    """Assemble a QualityModel; alpha/reserve may be scalars, callables or tables."""
    alpha_f = _curve_on(G.grid, alpha, "alpha")
    reserve_f = _curve_on(G.grid, reserve, "reserve")
    for name, curve in (("alpha", alpha_f), ("reserve", reserve_f)):
        if not np.all(np.isfinite(curve.vals)):
            raise ValidationError(f"{name} must be finite on the quality grid")
    if np.any(alpha_f.vals <= 0.0):
        raise ValidationError("alpha must be strictly positive on the quality grid")
    xi = dist.GriddedFunction(G.grid, reserve_f.vals / alpha_f.vals)
    return QualityModel(G=G, alpha=alpha_f, reserve=reserve_f, xi=xi)


@dataclass(frozen=True)
class GeneralValuation:
    """v(t, q) = type_factor(t) * alpha(q), with b = type_factor and b' its derivative.

    Separability keeps the ranking of buyers independent of q, which is
    what makes the threshold reduction work: a buyer is a linear buyer in
    s = b(t).  b must be increasing and convex with b' > 0 on every type
    grid; the solve checks this.
    """

    type_factor: Optional[Callable] = None
    type_factor_deriv: Optional[Callable] = None


def _identity(t):
    return np.asarray(t, dtype=float)


def _unit(t):
    return np.ones_like(np.asarray(t, dtype=float))


def LinearValuation():
    """v(t, q) = alpha(q) * t: the separable form with b(t) = t and b' = 1."""
    return GeneralValuation(type_factor=_identity, type_factor_deriv=_unit)


@dataclass(frozen=True)
class ProblemInstance:
    """Buyers' type distributions, the quality model, and the valuation form."""

    buyers: tuple
    quality: QualityModel
    valuation: GeneralValuation = field(default_factory=LinearValuation)

    def __post_init__(self):
        buyers = tuple(self.buyers)
        if not buyers:
            raise ValidationError("need at least one buyer")
        for b in buyers:
            if not isinstance(b, dist.GriddedDistribution):
                raise ValidationError("buyers must be GriddedDistribution objects")
        if not all(
            callable(getattr(self.valuation, name, None))
            for name in ("type_factor", "type_factor_deriv")
        ):
            raise ValidationError(
                "a valuation must supply type_factor and type_factor_deriv callables"
            )
        object.__setattr__(self, "buyers", buyers)

    @property
    def n_buyers(self):
        return len(self.buyers)


@dataclass(frozen=True)
class Signal:
    """Outcome of one experiment draw: ask one buyer, or keep the item."""

    buyer: Optional[int]

    @staticmethod
    def no_sale():
        return Signal(buyer=None)

    @staticmethod
    def ask(i):
        return Signal(buyer=int(i))

    @property
    def is_sale(self):
        return self.buyer is not None


@dataclass(frozen=True)
class ThresholdMechanism:
    """A solved mechanism: threshold curves plus tabulated interim data.

    ``payment[i]`` is buyer i's envelope payment tabulated on their type
    grid; it holds NaN where the interim win probability is at most 1e-12
    (payments are undefined there) but at an entry.  ``payment``, revenue,
    simulation and the verifiers all read it through the interim table's
    payment column, so they share one payment rule.  ``win_weight[i]`` is
    b' * X at the nodes, written out for readers; the verifiers read X.
    ``tables`` holds the per-buyer ``InterimTable`` objects, built once by
    the solve or the loader from the instance and the threshold curves;
    every consumer reads them.  Each table's ``entry`` is the lowest type
    at which that buyer is asked; ``degenerate`` (no buyer has one, so
    nobody ever wins) is a valid mechanism, not an error.  The tables do
    not depend on the payments, so ``dataclasses.replace`` with new ones
    keeps them valid, and the new node table is what the consumers read.
    """

    curves: list
    quality: QualityModel
    win_weight: list
    payment: list
    tables: tuple = field(compare=False, repr=False)

    @property
    def n_buyers(self):
        return len(self.curves)

    @property
    def degenerate(self):
        return all(t.entry is None for t in self.tables)


def _buyer(m, i):
    """i, checked to index one of m's buyers: 0 <= i < n, else ValidationError."""
    if not 0 <= i < m.n_buyers:
        raise ValidationError(f"buyer index {i} is out of range for {m.n_buyers} buyers")
    return i


def _require_grids(inst, curves, quality_grid):
    """Raise ValidationError unless quality_grid and the curves' type grids are inst's."""
    grids = [quality_grid] + [c.type_grid for c in curves]
    wanted = [inst.quality.G.grid] + [d.grid for d in inst.buyers]
    if len(grids) != len(wanted) or not all(map(np.array_equal, grids, wanted)):
        raise ValidationError("the mechanism is tabulated on other grids than the instance")


# ---------------------------------------------------------------------------
# pointwise operations


def xi_at(qm, q):
    """reserve(q) / alpha(q), interpolated on the quality grid."""
    return qm.xi.value_at(q)


def _winners(levels, xi, dtype=np.intp):
    """Winner per sample, -1 for no sale, from each buyer's threshold level.

    ``levels`` yields one fresh array of levels per buyer, in buyer
    order; each but the first is overwritten with the running maximum.
    The running leader changes only at a strictly higher level, so ties
    go to the lowest index, and the leader is asked when its level is at
    least xi, which ``xi()`` reads once the levels are spent.  The
    winners have the signed integer ``dtype``, which must hold -1 and
    every buyer index.
    """
    levels = iter(levels)
    best = next(levels)
    who = np.zeros(best.shape, dtype=dtype)
    for i, level in enumerate(levels, 1):
        # every index so far is below i, so the larger one leads: branch-free
        np.maximum(who, (level > best) * who.dtype.type(i), out=who)
        best = np.maximum(best, level, out=level)
    # -1 has every bit set: or-ing it in marks each sample that keeps the item
    return who | np.negative(~(best >= xi()), dtype=who.dtype)


def allocate_many(m, types, qualities):
    """Run the experiment at many profiles: winner index per sample, -1 for no sale.

    ``types`` has one row per sample and one column per buyer.  Ties on
    the threshold value go to the lowest buyer index; the item is sold at
    equality with xi(q).
    """
    types = np.asarray(types, dtype=float)
    levels = (c.phi_ironed_at(types[:, i]) for i, c in enumerate(m.curves))
    xi = xi_at(m.quality, qualities)
    return _winners(levels, lambda: xi)


def allocate(m, t_profile, q):
    """Run the experiment at one profile: ``allocate_many`` on one row, as a Signal."""
    t_profile = np.asarray(t_profile, dtype=float)
    if t_profile.size != m.n_buyers:
        raise ValidationError("profile length must match the number of buyers")
    winner = int(allocate_many(m, t_profile.reshape(1, -1), [q])[0])
    return Signal.ask(winner) if winner >= 0 else Signal.no_sale()


# ---------------------------------------------------------------------------
# interim quantities at threshold levels


@dataclass(frozen=True)
class InterimLevels:
    """Every factor of the interim quantities as a table in the level c.

    ``quality`` holds A, B and C (alpha * g, g and reserve * g over
    {xi <= c}), ``mass[j]`` buyer j's P(phi_ironed_j <= c).  Buyer i is
    asked exactly when the quality lies in {xi <= c} and every rival's
    threshold lies below c, so each interim quantity is a product of
    lookups.  A solve builds these tables once.
    """

    quality: dist.LevelTable
    mass: tuple

    @classmethod
    def build(cls, inst, curves):
        mass = tuple(
            dist.LevelTable.build(d.cdf_vals, c.phi_ironed, 1.0)
            for d, c in zip(inst.buyers, curves)
        )
        return cls(inst.quality.level_table, mass)

    def opp(self, i, c, pieces=False):
        """Product over the rivals j != i of their mass at c, under the tie rule.

        A rival j < i reads the strict side ({phi_j < c}), one j > i the
        weak side; with i None every buyer is a rival and reads the strict
        side: the chance that nobody's threshold reaches c.  ``pieces``
        reads c as the pieces of a cut curve (``LevelTable.at``).
        """
        out = np.ones(np.shape(c))[()]
        for j, mass in enumerate(self.mass):
            if j != i:
                out = out * mass.at(c, i is not None and j > i, pieces)
        return out

    def at(self, i, c, pieces=False):
        """(opp, A, B, C) of buyer i at levels c; the quality side is weak at a tie."""
        return (self.opp(i, c, pieces), *self.quality.at(c, True, pieces))


# ---------------------------------------------------------------------------
# interim tables


@dataclass(frozen=True)
class InterimTable:
    """Per-buyer interim quantities on the cut pieces of the type grid.

    Each type cell is cut where the threshold curve meets a level-table
    break at or above the lowest level at which the buyer can win, and
    each piece carries a Gauss-Lobatto rule.  Every column is flat, one
    entry per point, piece after piece, each piece's ends first and
    last: ``t`` and ``weight`` hold the rule's points and weights, ``f``
    the density of the point's cell, ``win`` (3, points) opp * A, opp * B
    and opp * C, read at each end from inside the piece, with the tie
    split on a flat piece at a break.  ``I`` holds the rent integral of
    b' * opp * A at every point and ``pay`` the envelope payment
    (b * opp * A - I) / W; ``t`` and ``pay`` are the payment column, read
    linearly.  It is NaN where W is at most 1e-12, except at ``entry``,
    the left end of the first piece that wins inside (None if none
    does), which carries the right-hand limit b * A / B.
    ``node_pos`` maps grid node k to the column entry a query at it
    reads: the right-hand one, but the end of the piece it closes where
    that piece is flat and asked, since the threshold level still sits on
    the flat there; ``after_flat`` marks the entry after each such end,
    which shares its abscissa, so a query there steps back to the end.
    ``levels`` holds the solve's level tables, shared by every buyer.
    """

    I: np.ndarray
    t: np.ndarray
    weight: np.ndarray
    f: np.ndarray
    win: np.ndarray
    pay: np.ndarray
    node_pos: np.ndarray
    after_flat: np.ndarray
    entry: Optional[float]
    levels: InterimLevels


def interim_tables(inst, curves):
    """Compute every buyer's interim table for the given threshold curves."""
    b_fn, bp_fn = inst.valuation.type_factor, inst.valuation.type_factor_deriv
    levels = InterimLevels.build(inst, curves)
    # n + 2 points: opp * A has degree n + 1, so Q gives the rent exactly,
    # and the rule integrates the routes (degree n + 2) exactly
    Q = dist.lobatto(inst.n_buyers + 2)[1]
    k = Q.shape[0]
    tables = []
    for i, d in enumerate(inst.buyers):
        # W = opp * B turns positive once the level passes both the lowest
        # reserve ratio and every rival's lowest threshold (each table's
        # first break): below c_entry B or a rival's mass is zero.
        rivals = [levels.quality] + [t for j, t in enumerate(levels.mass) if j != i]
        c_entry = max(t.breaks[0] for t in rivals)
        cuts = np.concatenate([t.breaks for t in rivals])
        t, c, weight, cell = dist.cut_quadrature(
            d.grid, curves[i].phi_ironed, cuts[cuts >= c_entry], k
        )
        opp, A, B, C = np.zeros((4,) + c.shape)
        on = np.maximum(c[:, 0], c[:, -1]) >= c_entry  # the pieces that can win
        opp[on], A[on], B[on], C[on] = levels.at(i, c[on], pieces=True)
        win = np.stack((opp * A, opp * B, opp * C))
        X, W, _ = win
        points = t.ravel()
        b, bp = (fn(points).reshape(t.shape) for fn in (b_fn, bp_fn))
        rent = np.concatenate(([0.0], np.cumsum(np.sum(weight * bp * X, axis=1))))
        I = rent[:-1, None] + (t[:, -1:] - t[:, :1]) * (bp * X) @ Q.T

        pay = np.full(t.shape, np.nan)
        np.divide(b * X - I, W, out=pay, where=W > WIN_PROB_FLOOR)
        entry = None
        live = np.nonzero(np.any(W[:, 1:-1] > 0.0, axis=1))[0]
        if live.size:
            p = live[0]
            entry = float(t[p, 0])
            # Where W is still zero at the entry, the payment is its
            # right-hand limit b * A / B.  When the entry level is an
            # isolated minimum of xi (B = 0 there), A and B both start
            # linearly on the quality table's first piece, and A / B tends
            # to the ratio of their slopes.
            if B[p, 0] > 0.0:
                ratio = A[p, 0] / B[p, 0]
            else:
                ratio = levels.quality.coef[1, 0, 1] / levels.quality.coef[1, 1, 1]
            if np.isnan(pay[p, 0]):
                pay[p, 0] = b[p, 0] * ratio

        node_pos = np.searchsorted(points, d.grid, side="right") - 1
        # a node closing an asked flat piece reads that piece's end, the
        # entry just before its right-hand one
        closes = np.zeros(t.size, dtype=bool)
        closes[k::k] = (c[:-1, 0] == c[:-1, -1]) & (W[:-1, -1] > WIN_PROB_FLOOR)
        node_pos -= closes[node_pos]
        pos = node_pos[:-1]
        after_flat = np.zeros(t.size, dtype=bool)
        after_flat[pos + 1] = points[pos + 1] == points[pos]
        # rows of points per piece end here: the table stores each column flat
        tables.append(
            InterimTable(
                I=I.ravel(),
                t=points,
                weight=weight.ravel(),
                f=(np.diff(d.cdf_vals) / np.diff(d.grid))[cell].repeat(k),
                win=win.reshape(3, -1),
                pay=pay.ravel(),
                node_pos=node_pos,
                after_flat=after_flat,
                entry=entry,
                levels=levels,
            )
        )
    return tuple(tables)


def _column(tab, curve, stated):
    """(tab, the payment column as the node table ``stated`` states it).

    A node table that differs from the solve's shifts the column by the
    difference, linear between nodes (none where either is undefined),
    and is written over the node positions.  The column keeps tab's
    points, so ``after_flat`` stays valid.
    """
    shift = np.nan_to_num(stated.vals - tab.pay[tab.node_pos])
    pay = tab.pay + np.interp(tab.t, curve.type_grid, shift)
    pay[tab.node_pos] = stated.vals
    return tab, pay


def _columns(m):
    """Each buyer's (interim table, stated payment column), as ``_column`` builds it."""
    return [
        _column(tab, curve, stated) for tab, curve, stated in zip(m.tables, m.curves, m.payment)
    ]


def win_weight(inst, m, i, t_i):
    """Derivative-weighted interim win probability of buyer i at type t_i.

    For the linear form this is the alpha-weighted win probability; it is
    the slope of the buyer's utility envelope and must be non-decreasing
    for the mechanism to be implementable.  It reads the level tables of
    the mechanism's interim tables.
    """
    opp, A, _, _ = m.tables[_buyer(m, i)].levels.at(i, m.curves[i].phi_ironed_at(t_i))
    return float(inst.valuation.type_factor_deriv(np.asarray([t_i]))[0] * opp * A)


def _charged(pay, W):
    """What a buyer is charged at payment pay and win probability W.

    A buyer is asked only where W exceeds ``WIN_PROB_FLOOR``, and pays
    nothing elsewhere, whatever the price there; where the buyer is
    asked the price is charged as it stands, so a NaN price stays NaN.
    """
    return np.where(W > WIN_PROB_FLOOR, pay, 0.0)


_GUIDE_STEPS = 8  # guide entries per type cell: sub-buckets int(w * 8)


def _column_guide(tab, grid):
    """A start for ``_column_index`` at each (type cell, sub-bucket) of ``grid``.

    Entry 8 k + j is the column index of the type read at fraction j / 8
    of cell k (``dist._cell_read``).  That read is non-decreasing in the
    fraction, so a type read at any w in [j / 8, 1] of cell k has a
    column index at or above it.  ``_guide_start`` gathers the entries.
    """
    cells = np.arange(grid.size - 1).repeat(_GUIDE_STEPS)
    frac = np.tile(np.arange(_GUIDE_STEPS) / _GUIDE_STEPS, grid.size - 1)
    return _column_index(tab.t, dist._cell_read(grid, cells, frac))


def _guide_start(guide, k, w):
    """The guide's start for types read at fractions w of cells k."""
    sub = (w * _GUIDE_STEPS).astype(np.intp)  # exact: the scale is a power of two
    np.minimum(sub, _GUIDE_STEPS - 1, out=sub)  # w = 1 takes the last sub-bucket
    sub += k * _GUIDE_STEPS
    return guide[sub]


def _column_index(tc, t, start=None):
    """searchsorted(tc, t, "right") - 1, clipped to the column's intervals.

    With ``start`` at or below each answer (a ``_guide_start``), each
    index steps forward from its start instead, one vectorised step at a
    time, and lands on the same index.
    """
    last = tc.size - 2
    if start is None:
        return np.clip(np.searchsorted(tc, t, side="right") - 1, 0, last)
    k = start.copy()
    step = tc[k + 1] <= t
    step &= k < last
    move = np.flatnonzero(step)
    while move.size:
        k[move] += 1
        move = move[k[move] < last]
        move = move[tc[k[move] + 1] <= t[move]]
    return k


def _payment_at(tab, pay, t, start=None):
    """The payment column pay on tab's points, interpolated at types t.

    A query at a cut reads the right-hand value, except at a node that
    closes an asked flat piece, which reads that piece's end (``node_pos``);
    below the entry, and for a buyer who never wins, the result is NaN.
    ``start`` is an optional lower bound on each query's column index
    (``_column_index``); it changes no result.
    """
    tc = tab.t
    t = np.clip(np.asarray(t, dtype=float), tc[0], tc[-1])
    k = _column_index(tc, t, start)
    # a query at a node reads its node_pos entry: where that is the end of
    # a flat piece, the entry after it shares its abscissa (so t0 stands)
    t0 = tc[k]
    k -= tab.after_flat[k] & (t0 == t)
    k1 = k + 1
    t1 = tc[k1]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(t1 > t0, (t - t0) / (t1 - t0), 0.0)
    p0 = pay[k]
    return p0 + (pay[k1] - p0) * frac


def payment(inst, m, i, t_i):
    """Envelope payment of buyer i at type t_i.

    Interim expected value minus accumulated information rents, divided
    by the interim win probability, as the solve tabulated it at the grid
    nodes and at the jump and entry points of the interim table.  At a
    jump and at the entry type it is the right-hand limit, but at a node
    closing a flat piece of the threshold curve it is that piece's end;
    below the entry it is undefined and raises; a NaN type raises
    ValidationError.
    """
    column = _column(m.tables[_buyer(m, i)], m.curves[i], m.payment[i])
    pay = float(_payment_at(*column, dist._validated_query(t_i)))
    if np.isnan(pay):
        raise UndefinedPaymentError(f"buyer {i} is not asked at type {t_i}")
    return pay


# ---------------------------------------------------------------------------
# building the optimal mechanism


def _check_type_factor(grid, b, bp):
    """Raise unless b is non-decreasing and convex with b' > 0 on a type grid.

    With alpha > 0 these are the checks on v = b * alpha in the type; a
    convex b keeps the win weight b' * opp * A monotone once w is ironed.
    Each violation is a (check, t, q) triple; q is NaN as b has none.  The
    comparisons are written so that a NaN fails them.
    """
    violations = []
    first = np.diff(b)
    if not np.all(first >= -1e-9):
        violations.append(("monotonicity", float(grid[int(np.argmin(first))]), float("nan")))
    second = np.diff(first / np.diff(grid))
    if not np.all(second >= -1e-7):
        violations.append(("convexity", float(grid[int(np.argmin(second)) + 1]), float("nan")))
    if not np.all(bp > 0.0):
        violations.append(("positive-derivative", float(grid[int(np.argmin(bp))]), float("nan")))
    if violations:
        raise AssumptionViolationError(
            "valuation type factor b is not increasing and convex on the type grid",
            violations,
        )


def _threshold_curves(inst):
    """Per-buyer ironed threshold curves w = b - b' * (1 - F) / f.

    A buyer with v = b(t) * alpha(q) is a linear buyer in s = b(t), and w
    is that buyer's virtual value, so it is ironed exactly like phi; for
    the linear form b(t) = t, w is phi.
    """
    b_fn, bp_fn = inst.valuation.type_factor, inst.valuation.type_factor_deriv
    curves = []
    for d in inst.buyers:
        b, bp = b_fn(d.grid), bp_fn(d.grid)
        _check_type_factor(d.grid, b, bp)
        curves.append(iron(d, b - bp * (1.0 - d.cdf_vals) / d.pdf_vals))
    return curves


def build_optimal_mechanism(inst):
    """Solve the instance: threshold curves, interim tables, win weights, payments.

    The interim tables stay on the returned mechanism for its consumers.
    Ironing is applied per buyer exactly when their threshold curve w is
    not monotone.  A mechanism in which nobody ever wins is returned as
    ``degenerate`` rather than treated as an error.
    """
    curves = _threshold_curves(inst)
    tables = interim_tables(inst, curves)

    bp_fn = inst.valuation.type_factor_deriv
    win_curves = [
        dist.GriddedFunction(d.grid, bp_fn(d.grid) * t.win[0][t.node_pos])
        for d, t in zip(inst.buyers, tables)
    ]
    pay_curves = [
        dist.GriddedFunction(d.grid, t.pay[t.node_pos])
        for d, t in zip(inst.buyers, tables)
    ]

    return ThresholdMechanism(
        curves=curves,
        quality=inst.quality,
        win_weight=win_curves,
        payment=pay_curves,
        tables=tables,
    )


# ---------------------------------------------------------------------------
# serialization


def _arr(x):
    return np.asarray(x, dtype=float).tolist()


def _quality_block(qm):
    """The quality model's arrays, keyed as in a mechanism document."""
    return {
        "grid": qm.G.grid,
        "g_pdf": qm.G.pdf_vals,
        "g_cdf": qm.G.cdf_vals,
        "alpha": qm.alpha.vals,
        "reserve": qm.reserve.vals,
    }


def mechanism_to_json_dict(m):
    buyers = []
    for i, c in enumerate(m.curves):
        pay = [None if np.isnan(v) else float(v) for v in m.payment[i].vals]
        buyers.append({
            "type_grid": _arr(c.type_grid),
            "phi": _arr(c.phi),
            "phi_ironed": _arr(c.phi_ironed),
            "ironed_intervals": [[int(a), int(b)] for a, b in c.ironed_intervals],
            "regular": bool(c.regular),
            "win_weight": _arr(m.win_weight[i].vals),
            "payment": pay,
            # the first node with a payment; written for readers, not read back
            "active_from": next((k for k, v in enumerate(pay) if v is not None), -1),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "threshold-mechanism",
        "tiebreak": TIEBREAK_LOWEST_INDEX,
        "degenerate": bool(m.degenerate),
        "buyers": buyers,
        "quality": {key: _arr(vals) for key, vals in _quality_block(m.quality).items()},
    }


def _index_pair(pair, size):
    """An ironed interval read back: two node indices lo <= hi below size."""
    lo, hi = (operator.index(k) for k in pair)
    if not 0 <= lo <= hi < size:
        raise ValidationError(f"ironed interval {list(pair)} is not a node range of the type grid")
    return lo, hi


def mechanism_from_json_dict(doc, inst):
    """Read ``mechanism_to_json_dict``'s document back against its instance.

    Raises ValidationError for a document it cannot honour: another
    schema, a tie-break rule other than lowest-index, or a missing or
    malformed field; ``payment`` is the one per-buyer array that may hold
    ``null`` (an undefined payment), every other one must hold finite
    numbers.  The type grids and the quality block must equal the
    instance's; the mechanism takes ``inst.quality`` and builds its
    interim tables once, here.  Keys it does not read (``degenerate``,
    ``active_from``, older writers' valuation fields) are ignored.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError("unsupported mechanism schema version")
    if doc.get("kind") != "threshold-mechanism":
        raise ValidationError("not a threshold mechanism document")
    if doc.get("tiebreak") != TIEBREAK_LOWEST_INDEX:
        raise ValidationError(
            f"unsupported tiebreak {doc.get('tiebreak')!r}; "
            f"only {TIEBREAK_LOWEST_INDEX!r} is implemented"
        )
    block = _quality_block(inst.quality)
    try:
        quality = {key: np.asarray(doc["quality"][key], dtype=float) for key in block}
        curves = []
        win_curves = []
        pay_curves = []
        for i, entry in enumerate(doc["buyers"]):
            tg = np.asarray(entry["type_grid"], dtype=float)
            cols = {
                key: np.asarray(entry[key], dtype=float)
                for key in ("phi", "phi_ironed", "win_weight")
            }
            for key, col in (("type_grid", tg), *cols.items()):
                if not np.all(np.isfinite(col)):
                    raise ValidationError(f"buyer {i}: {key} must hold finite numbers")
            cols["payment"] = np.array(
                [np.nan if v is None else float(v) for v in entry["payment"]]
            )
            for key, col in cols.items():
                if col.shape != tg.shape:
                    raise ValidationError(f"buyer {i}: {key} must match the type grid length")
            intervals = [_index_pair(p, tg.size) for p in entry["ironed_intervals"]]
            curves.append(
                VirtualValueCurve(
                    type_grid=tg,
                    phi=cols["phi"],
                    phi_ironed=cols["phi_ironed"],
                    ironed_intervals=intervals,
                    regular=bool(entry["regular"]),
                )
            )
            win_curves.append(dist.GriddedFunction(tg, cols["win_weight"]))
            pay_curves.append(dist.GriddedFunction(tg, cols["payment"]))
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed mechanism document: {exc!r}") from exc
    _require_grids(inst, curves, quality["grid"])
    for key, vals in block.items():
        if not np.array_equal(quality[key], vals):
            raise ValidationError(f"the document's quality {key} differs from the instance's")
    return ThresholdMechanism(
        curves=curves,
        quality=inst.quality,
        win_weight=win_curves,
        payment=pay_curves,
        tables=interim_tables(inst, curves),
    )


def write_mechanism_csv(m, path_for_buyer):
    """Write one CSV per buyer; path_for_buyer(i) names the file."""
    paths = []
    for i, c in enumerate(m.curves):
        path = path_for_buyer(i)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "phi", "phi_ironed", "win_weight", "payment"])
            pay = m.payment[i].vals
            for k in range(c.type_grid.size):
                writer.writerow(
                    [
                        f"{c.type_grid[k]:.12g}",
                        f"{c.phi[k]:.12g}",
                        f"{c.phi_ironed[k]:.12g}",
                        f"{m.win_weight[i].vals[k]:.12g}",
                        "" if np.isnan(pay[k]) else f"{pay[k]:.12g}",
                    ]
                )
        paths.append(path)
    return paths
