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
from dataclasses import field
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
    "ThresholdMechanism",
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


class QualityModel(dist._Record):
    """Quality distribution plus its scaling and reserve curves.

    ``xi = reserve / alpha`` is the only channel through which quality
    enters allocation decisions, so it is tabulated once on G's grid.
    Construction checks that alpha and reserve are finite tables on
    exactly that grid and that alpha > 0.
    """

    G: dist.GriddedDistribution
    alpha: dist.GriddedFunction
    reserve: dist.GriddedFunction

    def __post_init__(self):
        for name in ("alpha", "reserve"):
            curve = getattr(self, name)
            if not dist._same_grid(getattr(curve, "grid", None), self.G.grid):
                raise ValidationError(f"{name} must be tabulated on the quality grid")
            if not np.isfinite(curve.vals).all():
                raise ValidationError(f"{name} must be finite on the quality grid")
        if (self.alpha.vals <= 0.0).any():
            raise ValidationError("alpha must be strictly positive on the quality grid")

    @cached_property
    def xi(self):
        """reserve / alpha on G's grid."""
        return dist.GriddedFunction(self.G.grid, self.reserve.vals / self.alpha.vals)

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
        if dist._same_grid(curve.grid, grid):
            return curve
        return dist.GriddedFunction(grid, curve.value_at(grid))
    if callable(curve):
        return dist.curve_from_callable(grid, curve)
    if np.isscalar(curve):
        return dist.constant_curve(grid, float(curve))
    raise ValidationError(f"cannot interpret the {name} curve")


def make_quality_model(G, alpha, reserve):
    """Assemble a QualityModel; alpha/reserve may be scalars, callables or tables."""
    return QualityModel(G, _curve_on(G.grid, alpha, "alpha"), _curve_on(G.grid, reserve, "reserve"))


class GeneralValuation(dist._Record):
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


class ProblemInstance(dist._Record):
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
        if not isinstance(self.quality, QualityModel):
            raise ValidationError("quality must be a QualityModel")
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


class ThresholdMechanism(dist._Record):
    """A solved mechanism: threshold curves plus tabulated interim data.

    ``inst`` is the ``ProblemInstance`` it was solved on or read back
    against: every reader takes the mechanism alone and reads the buyers,
    the quality model and the valuation there.  ``payment[i]`` is buyer i's
    envelope payment tabulated on their type grid; it holds NaN where the
    interim win probability is at most 1e-12 (payments are undefined there)
    but at an entry.  ``payment``, revenue, simulation and the verifiers all
    read it through the interim table's payment column, so they share one
    payment rule.  ``win_weight[i]`` is b' * X at the nodes and
    ``columns[i]`` that column, both built on first use.  ``tables`` holds
    the per-buyer ``InterimTable`` objects, built once by the solve or the
    loader from ``inst`` and the threshold curves (a run of value-equal
    buyers holds one, see ``interim_tables``); every consumer reads them.
    Each table's ``entry`` is the lowest type at which that buyer is asked;
    ``degenerate`` (no buyer has one, so nobody ever wins) is a valid
    mechanism, not an error.  The tables do not depend on the payments, so
    ``dataclasses.replace`` with new ones keeps them valid, and the new node
    table is what the consumers read.  ``==`` compares the rest by value,
    NaN payments equal: a JSON round trip compares equal.  Construction
    checks for one curve, one payment table and one interim table per buyer,
    each curve and payment table on its buyer's type grid, and keeps
    ``curves`` and ``payment`` as tuples.
    """

    curves: tuple
    inst: ProblemInstance
    payment: tuple
    tables: tuple = field(compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "payment", tuple(self.payment))
        _on_type_grids(self.inst, [c.type_grid for c in self.curves], "threshold curve")
        _on_type_grids(self.inst, [p.grid for p in self.payment], "payment table")
        if len(self.tables) != self.n_buyers:
            raise ValidationError("need one interim table per buyer")

    @property
    def n_buyers(self):
        return self.inst.n_buyers

    @cached_property
    def win_weight(self):
        """Each buyer's b' * X at its grid nodes, as a GriddedFunction."""
        bp_fn = self.inst.valuation.type_factor_deriv
        return [
            dist.GriddedFunction(d.grid, bp_fn(d.grid) * t.win[0][t.node_pos])
            for d, t in zip(self.inst.buyers, self.tables)
        ]

    @cached_property
    def columns(self):
        """Each buyer's (interim table, stated payment column), as ``_column`` builds it.

        A buyer who shares the previous buyer's table and states an equal
        payment table shares its pair, which readers then read once.
        """
        columns = []
        for i, (tab, curve, stated) in enumerate(zip(self.tables, self.curves, self.payment)):
            prev = self.payment[i - 1]
            same = i and tab is self.tables[i - 1] and (stated is prev or stated == prev)
            columns.append(columns[-1] if same else _column(tab, curve, stated))
        return tuple(columns)

    @property
    def degenerate(self):
        return all(t.entry is None for t in self.tables)


def _on_type_grids(inst, grids, what):
    """Raise unless ``grids`` holds one grid per buyer of inst, each the same as theirs."""
    theirs = [d.grid for d in inst.buyers]
    if len(grids) != len(theirs) or not all(map(dist._same_grid, grids, theirs)):
        raise ValidationError(f"need one {what} per buyer, each on that buyer's type grid")


def _once_per_distinct(keys, build):
    """build(key) for each key, called once per distinct key (the same object or ``==``)."""
    built, out = [], []
    for key in keys:
        value = next((v for k, v in built if k is key or k == key), None)
        if value is None:
            value = build(key)
            built.append((key, value))
        out.append(value)
    return out


def _per_run(keys, fn):
    """[fn(i) for each index i of keys], called once per run of one key object and shared."""
    out = []
    for i, key in enumerate(keys):
        out.append(out[-1] if i and key is keys[i - 1] else fn(i))
    return out


def _integer(x, name):
    """x as an int, read through ``operator.index``; else ValidationError."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {x!r}") from None


def _buyer(m, i):
    """i, checked to index one of m's buyers: an integer 0 <= i < n, else ValidationError."""
    i = _integer(i, "buyer index")
    if not 0 <= i < m.n_buyers:
        raise ValidationError(f"buyer index {i} is out of range for {m.n_buyers} buyers")
    return i


# ---------------------------------------------------------------------------
# pointwise operations


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
    if types.ndim != 2 or types.shape[1] != m.n_buyers:
        raise ValidationError("types need one row per sample and one column per buyer")
    levels = (c.phi_ironed_at(types[:, i]) for i, c in enumerate(m.curves))
    xi = m.inst.quality.xi.value_at(qualities)
    return _winners(levels, lambda: xi)


# ---------------------------------------------------------------------------
# interim quantities at threshold levels


class InterimLevels(dist._Record):
    """Every factor of the interim quantities as a table in the level c.

    ``quality`` holds A, B and C (alpha * g, g and reserve * g over
    {xi <= c}), ``mass[j]`` buyer j's P(phi_ironed_j <= c).  Buyer i is
    asked exactly when the quality lies in {xi <= c} and every rival's
    threshold lies below c, so each interim quantity is a product of
    lookups.  A solve builds these tables once, and buyers with equal
    distributions and curves share one mass table.
    """

    quality: dist.LevelTable
    mass: tuple

    @classmethod
    def build(cls, inst, curves):
        def mass(pair):
            d, curve = pair
            return dist.LevelTable.build(d.cdf_vals, curve.phi_ironed, 1.0)

        pairs = zip(inst.buyers, curves)
        return cls(inst.quality.level_table, tuple(_once_per_distinct(pairs, mass)))

    def opp(self, i, c, pieces=False):
        """Product over the rivals j != i of their mass at c, under the tie rule.

        A rival j < i reads the strict side ({phi_j < c}), one j > i the
        weak side; with i None every buyer is a rival and reads the strict
        side: the chance that nobody's threshold reaches c.  ``pieces``
        reads c as the pieces of a cut curve (``LevelTable.at``).  Rivals
        in a row that share a table and a side share one read.
        """
        out, read = None, (None, None, None)
        for j, mass in enumerate(self.mass):
            if j != i:
                weak = i is not None and j > i
                if read[0] is not mass or read[1] != weak:
                    read = (mass, weak, mass.at(c, weak, pieces))
                out = read[2] if out is None else out * read[2]
        return np.ones(np.shape(c))[()] if out is None else out  # a lone buyer has no rival

    def at(self, i, c, pieces=False):
        """(opp, A, B, C) of buyer i at levels c; the quality side is weak at a tie."""
        return (self.opp(i, c, pieces), *self.quality.at(c, True, pieces))


# ---------------------------------------------------------------------------
# interim tables


class InterimTable(dist._Record):
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
    the flat there.  ``ends`` holds each interval's upper end, inf for
    the last, with that rule folded in (``_interval_ends``).
    ``levels`` holds the solve's level tables, shared by every buyer.
    Every array is read-only: a run of buyers may share one table.
    """

    I: np.ndarray
    t: np.ndarray
    weight: np.ndarray
    f: np.ndarray
    win: np.ndarray
    pay: np.ndarray
    node_pos: np.ndarray
    ends: np.ndarray
    entry: Optional[float]
    levels: InterimLevels


def interim_tables(inst, curves):
    """Compute every buyer's interim table for threshold curves, each on its buyer's type grid.

    Consecutive buyers with one mass table share one interim table if
    their curve has no flat cell: each multiplies the same rivals in the
    same order, and the tie rule reads no rival differently.
    """
    _on_type_grids(inst, [c.type_grid for c in curves], "threshold curve")
    b_fn, bp_fn = inst.valuation.type_factor, inst.valuation.type_factor_deriv
    levels = InterimLevels.build(inst, curves)
    # n + 2 points: opp * A has degree n + 1, so Q gives the rent exactly,
    # and the rule integrates the routes (degree n + 2) exactly
    Q = dist.lobatto(inst.n_buyers + 2)[1]
    k = Q.shape[0]
    tables = []
    for i, d in enumerate(inst.buyers):
        no_flat = (np.diff(curves[i].phi_ironed) > 0.0).all()
        if i and no_flat and levels.mass[i] is levels.mass[i - 1]:
            tables.append(tables[-1])
            continue
        # W = opp * B turns positive once the level passes both the lowest
        # reserve ratio and every rival's lowest threshold (each table's
        # first break): below c_entry B or a rival's mass is zero.
        rivals = [levels.quality] + [t for j, t in enumerate(levels.mass) if j != i]
        c_entry = max(t.breaks[0] for t in rivals)
        cuts = np.concatenate([t.breaks for t in rivals])
        t, c, weight, cell = dist.cut_quadrature(
            d.grid, curves[i].phi_ironed, cuts[cuts >= c_entry], k
        )
        # the pieces that can win read the tables (the quality side weak at
        # a tie, as in ``InterimLevels.at``); the others a zero piece at the end
        on = np.flatnonzero(np.maximum(c[:, 0], c[:, -1]) >= c_entry)
        c_on = c.take(on, axis=0)
        opp, ABC = levels.opp(i, c_on, pieces=True), levels.quality.at(c_on, True, pieces=True)
        win = np.zeros((3, on.size + 1, k))
        np.multiply(ABC, opp, out=win[:, :-1])
        slot = np.full(c.shape[0], on.size)
        slot[on] = np.arange(on.size)
        win = win.take(slot, axis=1)
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
            A_p, B_p = ABC[:2, slot[p], 0]
            if B_p > 0.0:
                ratio = A_p / B_p
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
        # rows of points per piece end here: the table stores each column flat
        f = (np.diff(d.cdf_vals) / np.diff(d.grid))[cell].repeat(k)
        arrays = (I.ravel(), points, weight.ravel(), f, win.reshape(3, -1), pay.ravel(), node_pos)
        ends = _interval_ends(points, node_pos)
        tables.append(InterimTable(*map(dist._frozen, (*arrays, ends)), entry, levels))
    return tuple(tables)


def _interval_ends(points, node_pos):
    """Each interval's upper end between a column's points, inf for the last.

    Where a node's entry shares its abscissa x with the next point but
    not with the one after, the zero-width interval between them ends
    just above x, so a search at x stops on the node's entry.
    """
    ends, pos = np.append(points[1:-1], np.inf), node_pos[:-1]
    x = points[pos]
    fold = pos[(ends[pos] == x) & (np.append(ends[1:], np.inf)[pos] > x)]
    ends[fold] = np.nextafter(points[fold], np.inf)
    return ends


def _column(tab, curve, stated):
    """(tab, the payment column as the node table ``stated`` states it).

    A node table that differs from the solve's shifts the column by the
    difference, linear between nodes (none where either is undefined),
    and is written over the node positions.  The column keeps tab's
    points, so ``ends`` stays valid.
    """
    shift = np.nan_to_num(stated.vals - tab.pay[tab.node_pos])
    pay = tab.pay + np.interp(tab.t, curve.type_grid, shift)
    pay[tab.node_pos] = stated.vals
    return tab, dist._frozen(pay)


def win_weight(m, i, t_i):
    """Derivative-weighted interim win probability of buyer i at type t_i.

    For the linear form this is the alpha-weighted win probability; it is
    the slope of the buyer's utility envelope and must be non-decreasing
    for the mechanism to be implementable.  It reads the level tables of
    the mechanism's interim tables.
    """
    opp, A, _, _ = m.tables[_buyer(m, i)].levels.at(i, m.curves[i].phi_ironed_at(t_i))
    return float(m.inst.valuation.type_factor_deriv(np.asarray([t_i]))[0] * opp * A)


def _charged(pay, W):
    """What a buyer is charged at payment pay and win probability W.

    A buyer is asked only where W exceeds ``WIN_PROB_FLOOR``, and pays
    nothing elsewhere, whatever the price there; where the buyer is
    asked the price is charged as it stands, so a NaN price stays NaN.
    """
    return np.where(W > WIN_PROB_FLOOR, pay, 0.0)


_GUIDE_STEPS = 16  # guide buckets per type cell: int(w * 16), w = 1 its own


def _column_guide(tab, pay, grid):
    """What a guided ``_payment_at`` reads of the column pay, for types read on ``grid``.

    (width, step, search): each column interval's width (1 where it has
    none), pay's rise across it, and a ``dist._guide`` to ``tab.ends``.
    With S = ``_GUIDE_STEPS``, its entry (S + 1) k + j holds the interval
    of the type read at fraction j / S of cell k, j = 0, ..., S.  That
    read never falls as the fraction rises, so one at w in
    [j / S, (j + 1) / S) lies between entries j and j + 1, and one at
    w = 1 in entry S.
    """
    S = _GUIDE_STEPS
    # dist._cell_read at every (cell, fraction), rounded as it rounds
    reads = np.diff(grid)[:, None] * (np.arange(S + 1) / S) + grid[:-1, None]
    start = tab.ends.searchsorted(reads, side="right")
    end = np.column_stack((start[:, 1:], start[:, S]))  # w = 1 is a bucket of its own
    width = np.diff(tab.t)
    return np.where(width > 0.0, width, 1.0), np.diff(pay), dist._guide(start.ravel(), end.ravel())


def _payment_at(tab, pay, t, guide=None, cell=None):
    """The payment column pay on tab's points, interpolated at types t.

    A query at a cut reads the right-hand value, except at a node that
    closes an asked flat piece, which reads that piece's end (``node_pos``);
    below the entry, and for a buyer who never wins, the result is NaN.
    Each query's interval comes from one search of ``tab.ends``, which
    holds that rule, and its width and payment rise from the column's
    points.  Given the column's ``_column_guide`` and each query's type
    cell and fraction, ``cell``, they come from the guide and its tables
    instead, to the same bits: the tables pay for themselves only over
    many queries.
    """
    tc = tab.t
    t = np.clip(np.asarray(t, dtype=float), tc[0], tc[-1])
    if guide is None:
        k = tab.ends.searchsorted(t, side="right")
        width = tc[k + 1] - tc[k]
        width, step = np.where(width > 0.0, width, 1.0), pay[k + 1] - pay[k]
    else:
        width, step, search = guide
        bucket = (cell[1] * _GUIDE_STEPS).astype(np.intp)  # exact: the scale is a power of two
        bucket += cell[0] * (_GUIDE_STEPS + 1)
        k = dist._guided_index(tab.ends, t, search, bucket)
        width, step = width[k], step[k]
    frac = t - tc[k]  # 0 on an interval of no width
    frac /= width
    step *= frac
    step += pay[k]
    return step


def payment(m, i, t_i):
    """Envelope payment of buyer i at type t_i.

    Interim expected value minus accumulated information rents, divided
    by the interim win probability, as the solve tabulated it at the grid
    nodes and at the jump and entry points of the interim table.  At a
    jump and at the entry type it is the right-hand limit, but at a node
    closing a flat piece of the threshold curve it is that piece's end;
    below the entry it is undefined and raises; a NaN type raises
    ValidationError.
    """
    pay = float(_payment_at(*m.columns[_buyer(m, i)], dist._validated_query(t_i)))
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
    the linear form b(t) = t, w is phi.  Buyers with equal distributions
    share one curve, checked and ironed once.
    """
    b_fn, bp_fn = inst.valuation.type_factor, inst.valuation.type_factor_deriv

    def curve(d):
        b, bp = b_fn(d.grid), bp_fn(d.grid)
        _check_type_factor(d.grid, b, bp)
        return iron(d, b - bp * (1.0 - d.cdf_vals) / d.pdf_vals)

    return _once_per_distinct(inst.buyers, curve)


def build_optimal_mechanism(inst):
    """Solve the instance: threshold curves, interim tables and payments.

    The instance and the interim tables stay on the returned mechanism.
    Ironing is applied per buyer exactly when their threshold curve w is
    not monotone.  A mechanism in which nobody ever wins is returned as
    ``degenerate`` rather than treated as an error.
    """
    curves = _threshold_curves(inst)
    tables = interim_tables(inst, curves)
    pay_curves = _per_run(tables, lambda i: dist.GriddedFunction(
        inst.buyers[i].grid, dist._frozen(tables[i].pay[tables[i].node_pos])
    ))

    return ThresholdMechanism(curves, inst, pay_curves, tables)


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
            # regular and win_weight are derived: written for readers, not read back
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
        "quality": {key: _arr(vals) for key, vals in _quality_block(m.inst.quality).items()},
    }


def mechanism_from_json_dict(doc, inst):
    """Read ``mechanism_to_json_dict``'s document back against its instance.

    It checks what is about the document: the schema, the kind, the
    lowest-index tie-break and a quality block equal to the instance's.
    The rest it parses into the model types, whose constructors check
    every array, and makes the curves and payments read-only; a ``null``
    payment is undefined (NaN).  A failed check or a missing or malformed
    field raises ValidationError.  The mechanism keeps ``inst`` and builds
    its interim tables once, here.  Keys it does not read, the derived
    ``degenerate``, ``regular``, ``win_weight`` and ``active_from`` and
    older writers' valuation fields, are ignored.
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
    try:
        for key, vals in _quality_block(inst.quality).items():
            if not np.array_equal(np.asarray(doc["quality"][key], dtype=float), vals):
                raise ValidationError(f"the document's quality {key} differs from the instance's")
        buyers, keys = doc["buyers"], ("type_grid", "phi", "phi_ironed", "ironed_intervals")
        curves = [VirtualValueCurve(*(b[key] for key in keys)) for b in buyers]
        pay = [dist.GriddedFunction(c.type_grid, b["payment"]) for c, b in zip(curves, buyers)]
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed mechanism document: {exc!r}") from exc
    for arr in [a for c in curves for a in (c.phi, c.phi_ironed)] + [p.vals for p in pay]:
        dist._frozen(arr)  # parsed here, so no caller holds them
    return ThresholdMechanism(curves, inst, pay, interim_tables(inst, curves))


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
