"""Threshold mechanisms for selling one item whose quality the seller observes.

Buyers privately know their types, the seller privately observes quality
q.  A mechanism asks at most one buyer to purchase at a type-dependent
price, or keeps the item.  The revenue-optimal rule implemented here is a
threshold comparison: buyer i is asked exactly when their (ironed)
virtual value clears every opponent's and the reserve ratio
xi(q) = reserve(q) / alpha(q).

Interim quantities (win probability, the alpha-weighted win weight, and
the envelope integral behind payments) reduce to one-dimensional sublevel
computations thanks to independence.  Where those quantities jump, at
atoms of the xi distribution or at opponents' ironed plateaus, integrals
are evaluated with explicit one-sided points so the tabulated payments
stay accurate near participation thresholds.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import dist
from .errors import (
    AssumptionViolationError,
    UndefinedPaymentError,
    ValidationError,
)
from .virtual import VirtualValueCurve, check_assumptions, iron, virtual_value_table

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
    "as_joint_valuation",
]

WIN_PROB_FLOOR = 1e-12
TIEBREAK_LOWEST_INDEX = "lowest-index"
SCHEMA_VERSION = 1
ATOM_TOL = 1e-14


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
class LinearValuation:
    """v(t, q) = alpha(q) * t."""

    kind: str = "linear"


@dataclass(frozen=True)
class GeneralValuation:
    """v(t, q) with an explicitly supplied type derivative.

    The engine builds mechanisms only for multiplicatively separable
    forms v(t, q) = type_factor(t) * alpha(q): separability keeps the
    ranking of buyers independent of q, which is what makes the
    threshold reduction work.  ``value`` and ``deriv`` are the joint
    callables used by the assumption checks; ``type_factor`` and its
    derivative are required by ``build_optimal_mechanism``.
    """

    value: Callable
    deriv: Callable
    type_factor: Optional[Callable] = None
    type_factor_deriv: Optional[Callable] = None
    kind: str = "general"


@dataclass(frozen=True)
class ProblemInstance:
    """Buyers' type distributions, the quality model, and the valuation form."""

    buyers: tuple
    quality: QualityModel
    valuation: object = field(default_factory=LinearValuation)

    def __post_init__(self):
        buyers = tuple(self.buyers)
        if not buyers:
            raise ValidationError("need at least one buyer")
        for b in buyers:
            if not isinstance(b, dist.GriddedDistribution):
                raise ValidationError("buyers must be GriddedDistribution objects")
        if self.valuation.kind == "general" and self.valuation.type_factor is None:
            raise ValidationError(
                "general valuations must supply type_factor (separable form)"
            )
        object.__setattr__(self, "buyers", buyers)

    @property
    def n_buyers(self):
        return len(self.buyers)


class _LinearJoint:
    """Joint (t, q) view of the linear form, for the assumption checks."""

    def __init__(self, qm):
        self._alpha = qm.alpha

    def value(self, t, q):
        return self._alpha.value_at(q) * np.asarray(t, dtype=float)

    def deriv(self, t, q):
        a = self._alpha.value_at(q)
        return np.full_like(np.asarray(t, dtype=float), a, dtype=float)


def as_joint_valuation(inst):
    """A value/deriv callable pair for either valuation kind."""
    if inst.valuation.kind == "linear":
        return _LinearJoint(inst.quality)
    return inst.valuation


def _type_factor_fns(inst):
    """(b, b') callables; identity and one for the linear form."""
    if inst.valuation.kind == "linear":
        return (lambda t: np.asarray(t, dtype=float),
                lambda t: np.ones_like(np.asarray(t, dtype=float)))
    return inst.valuation.type_factor, inst.valuation.type_factor_deriv


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

    ``payment[i]`` is tabulated on buyer i's type grid and holds NaN where
    the interim win probability is at most 1e-12 (payments are undefined
    there).  ``active_from[i]`` is the first grid index with positive win
    probability, or -1 when the buyer never wins.  ``degenerate`` is set
    when nobody ever wins; that is a valid mechanism, not an error.

    ``tables`` holds the per-buyer ``InterimTable`` objects the solve
    computed, so revenue, simulation, verification and pointwise payments
    reuse them instead of recomputing.  They depend only on the instance
    and the threshold curves, so ``dataclasses.replace`` with new payments
    keeps them valid.  They are not serialized: a mechanism loaded from
    JSON has ``tables=None`` and consumers rebuild them on demand.
    """

    curves: list
    quality: QualityModel
    win_weight: list
    payment: list
    tiebreak: str = TIEBREAK_LOWEST_INDEX
    valuation_kind: str = "linear"
    type_factor: Optional[list] = None
    type_factor_deriv: Optional[list] = None
    active_from: Optional[list] = None
    degenerate: bool = False
    tables: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def n_buyers(self):
        return len(self.curves)

    def payment_at(self, i, t):
        """Interpolated payment, clamped to the defined part of the grid.

        Raises UndefinedPaymentError when the buyer never wins at all.
        """
        if self.active_from is None or self.active_from[i] < 0:
            raise UndefinedPaymentError(f"buyer {i} never wins; no payment defined")
        k0 = self.active_from[i]
        grid = self.payment[i].grid[k0:]
        vals = self.payment[i].vals[k0:]
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(np.clip(t_arr, grid[0], grid[-1]), grid, vals)
        return float(out) if out.ndim == 0 else out

    def type_factor_at(self, i, t):
        if self.type_factor is None:
            return np.asarray(t, dtype=float)
        return self.type_factor[i].value_at(t)

    def value_of(self, i, t, q):
        """Realized value of buyer i with type t for quality q."""
        return self.type_factor_at(i, t) * self.quality.alpha.value_at(q)


# ---------------------------------------------------------------------------
# pointwise operations


def xi_at(qm, q):
    """reserve(q) / alpha(q), interpolated on the quality grid."""
    return qm.xi.value_at(q)


def allocate_many(m, types, qualities):
    """Run the experiment at many profiles: winner index per sample, -1 for no sale.

    ``types`` has one row per sample and one column per buyer.  Ties on
    the threshold value go to the lowest buyer index; the item is sold at
    equality with xi(q).
    """
    types = np.asarray(types, dtype=float)
    qualities = np.asarray(qualities, dtype=float)
    levels = np.column_stack(
        [m.curves[i].phi_ironed_at(types[:, i]) for i in range(m.n_buyers)]
    )
    winners = np.argmax(levels, axis=1)
    best = levels[np.arange(levels.shape[0]), winners]
    sold = best >= xi_at(m.quality, qualities)
    return np.where(sold, winners, -1)


def allocate(m, t_profile, q):
    """Run the experiment at one profile: ``allocate_many`` on one row, as a Signal."""
    t_profile = np.asarray(t_profile, dtype=float)
    if t_profile.size != m.n_buyers:
        raise ValidationError("profile length must match the number of buyers")
    winner = int(allocate_many(m, t_profile.reshape(1, -1), [q])[0])
    return Signal.ask(winner) if winner >= 0 else Signal.no_sale()


# ---------------------------------------------------------------------------
# interim quantities at threshold levels


def _quality_integrals(qm, c, include_equal):
    """(A, B, C): alpha * g, g, reserve * g over {xi <= c} (or {xi < c}), in one call."""
    return tuple(
        dist.sublevel_integral(qm.G.grid, qm.xi.vals, qm.integrands, c, include_equal)
    )


def _atom_levels(level_vals, mass):
    """Levels carrying positive probability mass (flat stretches of a curve).

    ``mass(v, include_equal)`` is the measure of {curve <= v}, or of
    {curve < v} when include_equal is False.
    """
    flat = level_vals[:-1] == level_vals[1:]
    if not np.any(flat):
        return []
    cand = np.unique(level_vals[:-1][flat])
    return [float(v) for v in cand[mass(cand, True) - mass(cand, False) > ATOM_TOL]]


def _opponent_product(inst, curves, i, c, mode):
    """Product over j != i of the mass of {curve_j <= c}.

    mode 'at' uses the mechanism's tie split (strict for j < i, weak for
    j > i); 'below'/'above' give the one-sided limits used at jumps.
    With i None the product runs over every buyer (one-sided modes only).
    """
    c_arr = np.atleast_1d(np.asarray(c, dtype=float))
    out = np.ones_like(c_arr)
    for j in range(inst.n_buyers):
        if j == i:
            continue
        include = j > i if mode == "at" else mode == "above"
        out = out * dist.sublevel_mass(
            inst.buyers[j], curves[j].phi_ironed, c_arr, include
        )
    return float(out[0]) if np.ndim(c) == 0 else out


def _interim_at(inst, curves, i, c, mode):
    """(opp, A, B, C) of buyer i at threshold levels c.

    Buyer i is asked exactly when the quality lies in {xi <= c} and every
    opponent's threshold lies below c, so each interim quantity is opp
    times a quality integral.  mode is as in ``_opponent_product``; the
    quality side is strict only for 'below'.
    """
    opp = _opponent_product(inst, curves, i, c, mode)
    return (opp, *_quality_integrals(inst.quality, c, mode != "below"))


def _win_probability(inst, curves, i, c):
    """opp * B of ``_interim_at(..., 'at')`` from one kernel row, not three."""
    qm = inst.quality
    B = dist.sublevel_integral(qm.G.grid, qm.xi.vals, qm.integrands[1], c, True)
    return _opponent_product(inst, curves, i, c, "at") * B


def _merge_one_sided(nodes, t_x, rank_x, *columns):
    """Merge grid nodes with one-sided points: (abscissae, node positions, columns).

    Rank 0 sorts before a node at the same abscissa and rank 2 after it,
    so the trapezoid rule treats each jump exactly.  Each column is a
    (node values, point values) pair.
    """
    t_all = np.concatenate((nodes, t_x))
    rank_all = np.concatenate((np.ones(nodes.size, dtype=int), rank_x))
    order = np.lexsort((rank_all, t_all))
    node_pos = np.nonzero(rank_all[order] == 1)[0]
    return t_all[order], node_pos, [np.concatenate(col)[order] for col in columns]


def _first_reach(grid, vals, level, side):
    """Smallest t where a non-decreasing curve reaches (>=) or exceeds (>) level.

    Returns None when the curve never does.  side='left' gives the >= point,
    side='right' the > point; they differ exactly across plateaus at level.
    """
    idx = int(np.searchsorted(vals, level, side=side))
    if idx == 0:
        return float(grid[0])
    if idx == vals.size:
        return None
    a, b = vals[idx - 1], vals[idx]
    frac = (level - a) / (b - a)
    return float(grid[idx - 1] + frac * (grid[idx] - grid[idx - 1]))


# ---------------------------------------------------------------------------
# interim tables


@dataclass(frozen=True)
class InterimTable:
    """Per-buyer interim quantities on the type grid plus augmented points.

    The ``*_comb`` arrays interleave the grid nodes with one-sided values
    at every level where the win weight jumps, and a knot at a continuous
    entry; integrating them with the trapezoid rule treats the jumps
    exactly.  ``node_pos`` maps grid node k to its position inside the
    combined arrays.  ``entry`` is the lowest type with positive win
    probability as a right-hand limit (W is zero there and positive
    above), or None when the buyer never wins.
    """

    opp: np.ndarray
    A: np.ndarray
    B: np.ndarray
    R: np.ndarray
    int_R: np.ndarray
    W: np.ndarray
    t_comb: np.ndarray
    opp_comb: np.ndarray
    A_comb: np.ndarray
    B_comb: np.ndarray
    C_comb: np.ndarray
    R_comb: np.ndarray
    W_comb: np.ndarray
    int_R_comb: np.ndarray
    f_comb: np.ndarray
    phiraw_comb: np.ndarray
    b_comb: np.ndarray
    node_pos: np.ndarray
    crossings: list
    entry: Optional[float]


def _buyer_atom_levels(inst, curves, i=None):
    """Levels where a buyer other than i has a threshold plateau carrying mass."""
    levels = set()
    for j, d in enumerate(inst.buyers):
        if j != i:
            vals = curves[j].phi_ironed
            levels.update(_atom_levels(vals, partial(dist.sublevel_mass, d, vals)))
    return levels


def _critical_levels(inst, curves, i):
    """Levels at which buyer i's interim quantities can jump."""
    qm = inst.quality
    levels = _atom_levels(qm.xi.vals, lambda v, inc: _quality_integrals(qm, v, inc)[1])
    return sorted(_buyer_atom_levels(inst, curves, i).union(levels))


def interim_tables(inst, curves):
    """Compute every buyer's interim table for the given threshold curves."""
    b_fn, bp_fn = _type_factor_fns(inst)
    tables = []
    for i, d in enumerate(inst.buyers):
        grid = d.grid
        vals = curves[i].phi_ironed
        bp = bp_fn(grid)

        opp, A, B, C = _interim_at(inst, curves, i, vals, "at")
        R = bp * opp * A
        W = opp * B

        # Collect one-sided evaluation points where R or W jumps.
        cross_pts = []  # (t, rank, level, mode)
        crossings = []
        critical = _critical_levels(inst, curves, i)
        for lev in critical:
            if lev > vals[-1]:
                continue
            t_lo = _first_reach(grid, vals, lev, "left")
            t_hi = _first_reach(grid, vals, lev, "right")
            if t_lo is None:
                continue
            # On a plateau the curve sits exactly at this level over [t_lo, t_hi].
            plateau = t_hi is not None and t_hi > t_lo
            if t_lo > grid[0]:
                upper = "at" if plateau else "above"
                cross_pts += [(t_lo, 0, lev, "below"), (t_lo, 2, lev, upper)]
            if plateau:
                cross_pts += [(t_hi, 0, lev, "at"), (t_hi, 2, lev, "above")]
                crossings.append((lev, t_lo, t_hi))
            elif t_lo > grid[0]:
                crossings.append((lev, t_lo, t_lo))

        # W = opp * B turns positive once the level passes both the lowest
        # reserve ratio and every opponent's lowest threshold: below c_entry
        # B or an opponent's mass is zero, above it no factor is (densities
        # are at least EPS_DENSITY).  At c_entry itself W is positive only on
        # an atom, and then a plateau of buyer i at c_entry already wins.
        c_entry = max(
            [inst.quality.xi.vals.min()]
            + [c.phi_ironed.min() for j, c in enumerate(curves) if j != i]
        )
        entry = _first_reach(grid, vals, c_entry, "right")
        if np.any(W[vals == c_entry] > 0.0):
            entry = _first_reach(grid, vals, c_entry, "left")
        elif entry is not None and entry > grid[0] and c_entry not in critical:
            # The rent integrand R kinks where W turns positive; a plain
            # trapezoid across that cell would accumulate rent as if R grew
            # from the cell's left edge, so pin the entry with a knot (R is
            # continuous there, no one-sided pair).  At a jump the pair
            # above already sits at the entry.
            cross_pts.append((entry, 0, c_entry, "at"))

        # One kernel call per one-sided mode evaluates every extra point.
        t_x, rank_x, lev_x, mode_x = (
            np.array([p[k] for p in cross_pts], dtype=dt)
            for k, dt in enumerate((float, int, float, str))
        )
        opp_x, A_x, B_x, C_x = (np.zeros(t_x.size) for _ in range(4))
        for mode in ("below", "at", "above"):
            sel = mode_x == mode
            if sel.any():
                opp_x[sel], A_x[sel], B_x[sel], C_x[sel] = _interim_at(
                    inst, curves, i, lev_x[sel], mode
                )
        bp_x = bp_fn(t_x) if t_x.size else t_x

        t_comb, node_pos, (opp_comb, A_comb, B_comb, C_comb, bp_comb) = _merge_one_sided(
            grid, t_x, rank_x, (opp, opp_x), (A, A_x), (B, B_x), (C, C_x), (bp, bp_x)
        )
        R_comb = bp_comb * opp_comb * A_comb
        W_comb = opp_comb * B_comb

        seg = 0.5 * (R_comb[1:] + R_comb[:-1]) * np.diff(t_comb)
        int_R_comb = np.concatenate(([0.0], np.cumsum(seg)))
        int_R = int_R_comb[node_pos]

        f_comb = dist.pdf(d, t_comb)
        phiraw_comb = np.interp(t_comb, grid, curves[i].phi)
        b_comb = b_fn(t_comb)

        tables.append(
            InterimTable(
                opp=opp,
                A=A,
                B=B,
                R=R,
                int_R=int_R,
                W=W,
                t_comb=t_comb,
                opp_comb=opp_comb,
                A_comb=A_comb,
                B_comb=B_comb,
                C_comb=C_comb,
                R_comb=R_comb,
                W_comb=W_comb,
                int_R_comb=int_R_comb,
                f_comb=f_comb,
                phiraw_comb=phiraw_comb,
                b_comb=b_comb,
                node_pos=node_pos,
                crossings=crossings,
                entry=entry,
            )
        )
    return tables


def win_weight(inst, curves, i, t_i):
    """Derivative-weighted interim win probability of buyer i at type t_i.

    For the linear form this is the alpha-weighted win probability; it is
    the slope of the buyer's utility envelope and must be non-decreasing
    for the mechanism to be implementable.
    """
    _b, bp_fn = _type_factor_fns(inst)
    c = float(np.interp(t_i, inst.buyers[i].grid, curves[i].phi_ironed))
    opp, A, _, _ = _interim_at(inst, curves, i, c, "at")
    return float(bp_fn(np.asarray([t_i]))[0] * opp * A)


def _envelope_integral_at(table, t):
    """Integral of the win weight from the bottom type up to t (jump-aware)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    idx = np.searchsorted(table.t_comb, t_arr, side="right") - 1
    idx = np.clip(idx, 0, table.t_comb.size - 2)
    t0 = table.t_comb[idx]
    r0 = table.R_comb[idx]
    r1 = table.R_comb[idx + 1]
    t1 = table.t_comb[idx + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(t1 > t0, (t_arr - t0) / (t1 - t0), 0.0)
    r_at = r0 + (r1 - r0) * frac
    out = table.int_R_comb[idx] + 0.5 * (r0 + r_at) * (t_arr - t0)
    return float(out[0]) if np.ndim(t) == 0 else out


def _tables_of(inst, m):
    """The mechanism's interim tables; rebuilt when it carries none (JSON loads)."""
    if m.tables is not None:
        return m.tables
    return interim_tables(inst, m.curves)


def payment(inst, m, i, t_i):
    """Envelope payment of buyer i at type t_i.

    Charges the interim expected value minus accumulated information
    rents, divided by the interim win probability; undefined (raises)
    where that probability is below 1e-12.  The envelope integral uses
    the mechanism's interim table.
    """
    b_fn, _ = _type_factor_fns(inst)
    d = inst.buyers[i]
    c = float(np.interp(t_i, d.grid, m.curves[i].phi_ironed))
    opp, A, B, _ = _interim_at(inst, m.curves, i, c, "at")
    W = opp * B
    if W <= WIN_PROB_FLOOR:
        raise UndefinedPaymentError(
            f"buyer {i} has zero win probability at type {t_i}"
        )
    value_term = float(b_fn(np.asarray([t_i]))[0]) * opp * A
    rent = _envelope_integral_at(_tables_of(inst, m)[i], t_i)
    return float((value_term - rent) / W)


# ---------------------------------------------------------------------------
# building the optimal mechanism


def _threshold_curves(inst):
    """Per-buyer threshold curves: ironed virtual values, or the general w."""
    if inst.valuation.kind == "linear":
        return [iron(d, virtual_value_table(d)) for d in inst.buyers]

    qm = inst.quality
    probe = qm.G.grid[:: max(1, qm.G.grid.size // 16)]
    curves = []
    b_fn, bp_fn = _type_factor_fns(inst)
    for d in inst.buyers:
        report = check_assumptions(inst.valuation, d, probe)
        if not report.ok:
            raise AssumptionViolationError(
                "general valuation fails its grid checks", report.violations
            )
        w = b_fn(d.grid) - bp_fn(d.grid) * (1.0 - d.cdf_vals) / d.pdf_vals
        if np.any(np.diff(w) < -1e-9):
            raise AssumptionViolationError(
                "effective virtual value is not monotone; "
                "ironing is not applied to general forms",
                [("virtual-monotonicity", float(d.grid[int(np.argmin(np.diff(w)))]), float("nan"))],
            )
        curves.append(
            VirtualValueCurve(
                type_grid=d.grid.copy(),
                phi=w,
                phi_ironed=w.copy(),
                ironed_intervals=[],
                regular=True,
            )
        )
    return curves


def build_optimal_mechanism(inst):
    """Solve the instance: threshold curves, interim tables, win weights, payments.

    The interim tables stay on the returned mechanism for its consumers.
    Ironing is applied per buyer exactly when their raw virtual value is
    not monotone.  A mechanism in which nobody ever wins is returned with
    ``degenerate=True`` rather than treated as an error.
    """
    curves = _threshold_curves(inst)
    tables = interim_tables(inst, curves)
    b_fn, _ = _type_factor_fns(inst)

    win_curves = []
    pay_curves = []
    active_from = []
    for i, d in enumerate(inst.buyers):
        tab = tables[i]
        win_curves.append(dist.GriddedFunction(d.grid, tab.R))
        defined = tab.W > WIN_PROB_FLOOR
        pay = np.full(d.grid.size, np.nan)
        b_nodes = b_fn(d.grid)
        np.divide(
            b_nodes * tab.opp * tab.A - tab.int_R,
            tab.W,
            out=pay,
            where=defined,
        )
        pay_curves.append(dist.GriddedFunction(d.grid, pay))
        active_from.append(int(np.argmax(defined)) if defined.any() else -1)

    tf = tfd = None
    if inst.valuation.kind == "general":
        b_fn, bp_fn = _type_factor_fns(inst)
        tf = [dist.GriddedFunction(d.grid, b_fn(d.grid)) for d in inst.buyers]
        tfd = [dist.GriddedFunction(d.grid, bp_fn(d.grid)) for d in inst.buyers]

    return ThresholdMechanism(
        curves=curves,
        quality=inst.quality,
        win_weight=win_curves,
        payment=pay_curves,
        tiebreak=TIEBREAK_LOWEST_INDEX,
        valuation_kind=inst.valuation.kind,
        type_factor=tf,
        type_factor_deriv=tfd,
        active_from=active_from,
        degenerate=all(a < 0 for a in active_from),
        tables=tuple(tables),
    )


# ---------------------------------------------------------------------------
# serialization


def _arr(x):
    return np.asarray(x, dtype=float).tolist()


def mechanism_to_json_dict(m):
    buyers = []
    for i, c in enumerate(m.curves):
        entry = {
            "type_grid": _arr(c.type_grid),
            "phi": _arr(c.phi),
            "phi_ironed": _arr(c.phi_ironed),
            "ironed_intervals": [[int(a), int(b)] for a, b in c.ironed_intervals],
            "regular": bool(c.regular),
            "win_weight": _arr(m.win_weight[i].vals),
            "payment": [
                None if np.isnan(v) else float(v) for v in m.payment[i].vals
            ],
            "active_from": int(m.active_from[i]),
        }
        if m.type_factor is not None:
            entry["type_factor"] = _arr(m.type_factor[i].vals)
            entry["type_factor_deriv"] = _arr(m.type_factor_deriv[i].vals)
        buyers.append(entry)
    qm = m.quality
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "threshold-mechanism",
        "tiebreak": m.tiebreak,
        "valuation_kind": m.valuation_kind,
        "degenerate": bool(m.degenerate),
        "buyers": buyers,
        "quality": {
            "grid": _arr(qm.G.grid),
            "g_pdf": _arr(qm.G.pdf_vals),
            "g_cdf": _arr(qm.G.cdf_vals),
            "alpha": _arr(qm.alpha.vals),
            "reserve": _arr(qm.reserve.vals),
        },
    }


def mechanism_from_json_dict(doc):
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError("unsupported mechanism schema version")
    if doc.get("kind") != "threshold-mechanism":
        raise ValidationError("not a threshold mechanism document")
    q = doc["quality"]
    grid = np.asarray(q["grid"], dtype=float)
    G = dist.GriddedDistribution(
        support_lo=float(grid[0]),
        support_hi=float(grid[-1]),
        grid=grid,
        pdf_vals=np.asarray(q["g_pdf"], dtype=float),
        cdf_vals=np.asarray(q["g_cdf"], dtype=float),
    )
    qm = make_quality_model(
        G,
        dist.GriddedFunction(grid, np.asarray(q["alpha"], dtype=float)),
        dist.GriddedFunction(grid, np.asarray(q["reserve"], dtype=float)),
    )
    curves = []
    win_curves = []
    pay_curves = []
    active = []
    tf = []
    tfd = []
    has_tf = False
    for entry in doc["buyers"]:
        tg = np.asarray(entry["type_grid"], dtype=float)
        curves.append(
            VirtualValueCurve(
                type_grid=tg,
                phi=np.asarray(entry["phi"], dtype=float),
                phi_ironed=np.asarray(entry["phi_ironed"], dtype=float),
                ironed_intervals=[tuple(p) for p in entry["ironed_intervals"]],
                regular=bool(entry["regular"]),
            )
        )
        win_curves.append(
            dist.GriddedFunction(tg, np.asarray(entry["win_weight"], dtype=float))
        )
        pay = np.array(
            [np.nan if v is None else float(v) for v in entry["payment"]]
        )
        pay_curves.append(dist.GriddedFunction(tg, pay))
        active.append(int(entry["active_from"]))
        if "type_factor" in entry:
            has_tf = True
            tf.append(dist.GriddedFunction(tg, np.asarray(entry["type_factor"], dtype=float)))
            tfd.append(
                dist.GriddedFunction(tg, np.asarray(entry["type_factor_deriv"], dtype=float))
            )
    return ThresholdMechanism(
        curves=curves,
        quality=qm,
        win_weight=win_curves,
        payment=pay_curves,
        tiebreak=doc["tiebreak"],
        valuation_kind=doc["valuation_kind"],
        type_factor=tf if has_tf else None,
        type_factor_deriv=tfd if has_tf else None,
        active_from=active,
        degenerate=bool(doc.get("degenerate", False)),
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
