"""Revenue accounting for threshold mechanisms.

Two independent routes compute expected revenue: the direct route sums
interim payments weighted by win probabilities plus the reserve value of
retained items; the virtual route integrates virtual surplus against the
allocation.  Agreement between the two is a strong end-to-end check and
is exposed as such.  A Monte-Carlo simulator and two benchmark sellers
(a quality-blind auction and the best constant posted price with a
binary disclosure) complete the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dist
from .errors import ValidationError
from .mechanism import (
    WIN_PROB_FLOOR,
    _buyer_atom_levels,
    _merge_one_sided,
    _opponent_product,
    _quality_integrals,
    _tables_of,
    _type_factor_fns,
    allocate_many,
)

__all__ = [
    "revenue_direct",
    "revenue_virtual",
    "simulate",
    "SimulationReport",
    "myerson_baseline",
    "QualityBlindBaseline",
    "best_constant_price",
    "ConstantPriceBaseline",
]


# ---------------------------------------------------------------------------
# expected revenue, direct route


def _no_sale_quality_integral(inst, curves):
    """Integral over quality of reserve * g * P(nobody clears xi(q)).

    The probability factor jumps where xi meets a level at which some
    buyer's threshold curve carries probability mass: it is the strict
    product below the level and the weak one at and above it.  Crossings
    inside cells and touches at nodes enter as one-sided points before
    the trapezoid rule is applied.
    """
    qm = inst.quality
    qgrid, xi, rg = qm.G.grid, qm.xi.vals, qm.integrands[2]
    levels = np.asarray(sorted(_buyer_atom_levels(inst, curves)), dtype=float)
    strict = _opponent_product(inst, curves, None, levels, "below")
    weak = _opponent_product(inst, curves, None, levels, "above")
    keep = weak - strict > 1e-14
    levels, strict, weak = levels[keep], strict[keep], weak[keep]

    # Every (level, cell) pair where xi crosses, leaves or reaches the
    # level, level-major; each fills a rank-0 slot, a rank-2 slot or both.
    lev, a, b = levels[:, None], xi[:-1], xi[1:]
    rise, fall = (a < lev) & (lev < b), (a > lev) & (lev > b)
    leave, reach = (a == lev) & (b > lev), (b == lev) & (a > lev)
    L, K = np.nonzero(rise | fall | leave | reach)
    rise, fall, leave, reach = rise[L, K], fall[L, K], leave[L, K], reach[L, K]
    a, b, lv = a[K], b[K], levels[L]
    frac = np.where(rise, (lv - a) / (b - a), (a - lv) / (a - b))
    q_star = qgrid[K] + frac * (qgrid[K + 1] - qgrid[K])
    node = K + reach
    crosses = rise | fall
    t = np.where(crosses, q_star, qgrid[node])
    rg_t = np.where(crosses, np.interp(q_star, qgrid, rg), rg[node])
    s, w = strict[L], weak[L]
    slots = np.stack((np.where(rise, s, w), np.where(fall, s, w)), axis=1)
    used = np.stack((~leave, ~reach), axis=1).ravel()
    t_x = np.repeat(t, 2)[used]
    rank_x = np.tile([0, 2], L.size)[used]
    v_x = (rg_t[:, None] * slots).ravel()[used]

    base_vals = rg * _opponent_product(inst, curves, None, xi, "below")
    t, _, (v,) = _merge_one_sided(qgrid, t_x, rank_x, (base_vals, v_x))
    return float(np.trapezoid(v, t))


def revenue_direct(inst, m):
    """Expected revenue as payments collected plus reserve value retained."""
    tables = _tables_of(inst, m)
    total = _no_sale_quality_integral(inst, m.curves)
    for i in range(inst.n_buyers):
        if m.active_from is None or m.active_from[i] < 0:
            continue
        tab = tables[i]
        pay = m.payment_at(i, tab.t_comb)
        integrand = np.where(
            tab.W_comb > WIN_PROB_FLOOR, pay * tab.W_comb * tab.f_comb, 0.0
        )
        total += float(np.trapezoid(integrand, tab.t_comb))
    return total


def revenue_virtual(inst, m):
    """Expected revenue as reserve value plus allocated virtual surplus.

    Uses the raw virtual value inside the integrand while the allocation
    ranks by the ironed one; over each ironed interval the two integrate
    identically against the type density, so the routes must agree.
    """
    qm = inst.quality
    total = float(np.trapezoid(qm.integrands[2], qm.G.grid))
    tables = _tables_of(inst, m)
    for i in range(inst.n_buyers):
        tab = tables[i]
        integrand = tab.f_comb * tab.opp_comb * (
            tab.phiraw_comb * tab.A_comb - tab.C_comb
        )
        total += float(np.trapezoid(integrand, tab.t_comb))
    return total


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimulationReport:
    """Empirical summary of running a mechanism on sampled profiles.

    ``allocation_frequency`` lists the no-sale frequency first, then one
    entry per buyer, and sums to 1.  ``per_buyer_utility_mean`` averages
    realized value minus payment over all samples (zero when not asked).
    """

    n_samples: int
    seed: int
    revenue_mean: float
    revenue_stderr: float
    per_buyer_utility_mean: tuple
    allocation_frequency: tuple
    obedience_violations: int

    @property
    def sale_frequency(self):
        return 1.0 - self.allocation_frequency[0]


def simulate(inst, m, n_samples, seed):
    """Monte-Carlo run of a mechanism; reproducible for a fixed seed.

    Types and quality are drawn by quantile transform from independent
    child streams of one seed sequence, so reports are bit-identical
    across runs with the same arguments.
    """
    if n_samples <= 0:
        raise ValidationError("n_samples must be positive")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    n = inst.n_buyers
    children = np.random.SeedSequence(seed).spawn(n + 1)
    types = np.column_stack(
        [
            dist.quantile(d, np.random.Generator(np.random.PCG64(children[i])).random(n_samples))
            for i, d in enumerate(inst.buyers)
        ]
    )
    qualities = dist.quantile(
        inst.quality.G,
        np.random.Generator(np.random.PCG64(children[n])).random(n_samples),
    )

    winners = allocate_many(m, types, qualities)
    revenue = inst.quality.reserve.value_at(qualities).copy()

    tables = _tables_of(inst, m)
    b_fn, _ = _type_factor_fns(inst)
    alloc_freq = [float(np.mean(winners < 0))]
    utility_mean = []
    violations = 0
    for i in range(n):
        mask = winners == i
        alloc_freq.append(float(np.mean(mask)))
        if not mask.any():
            utility_mean.append(0.0)
            continue
        t_won = types[mask, i]
        pay = m.payment_at(i, t_won)
        revenue[mask] = pay
        value = m.value_of(i, t_won, qualities[mask])
        utility_mean.append(float(np.sum(value - pay)) / n_samples)
        # expected surplus of an asked buyer, interpolated from grid nodes
        tab = tables[i]
        defined = tab.W > WIN_PROB_FLOOR
        grid = inst.buyers[i].grid
        with np.errstate(invalid="ignore", divide="ignore"):
            s_nodes = np.where(
                defined,
                b_fn(grid) * tab.A / np.where(defined, tab.B, 1.0)
                - m.payment[i].vals,
                np.nan,
            )
        g_def = grid[defined]
        s_def = s_nodes[defined]
        if g_def.size:
            s_won = np.interp(np.clip(t_won, g_def[0], g_def[-1]), g_def, s_def)
            violations += int(np.sum(s_won < -1e-9))

    mean = float(np.mean(revenue))
    se = float(np.std(revenue, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return SimulationReport(
        n_samples=int(n_samples),
        seed=int(seed),
        revenue_mean=mean,
        revenue_stderr=se,
        per_buyer_utility_mean=tuple(utility_mean),
        allocation_frequency=tuple(alloc_freq),
        obedience_violations=int(violations),
    )


# ---------------------------------------------------------------------------
# benchmark: quality-blind auction (no disclosure, constant quality curves)


@dataclass(frozen=True)
class QualityBlindBaseline:
    """Optimal auction computed as if quality were fixed at its known level.

    Valid only when alpha and reserve are constant, in which case
    revealing quality is worthless and this classic benchmark must agree
    with the threshold mechanism exactly.
    """

    type_grids: tuple
    phi_tables: tuple
    alpha_bar: float
    reserve_bar: float
    xi_bar: float
    revenue: float

    def allocate_many(self, types):
        types = np.asarray(types, dtype=float)
        levels = np.column_stack(
            [
                np.interp(
                    np.clip(types[:, i], g[0], g[-1]), g, p
                )
                for i, (g, p) in enumerate(zip(self.type_grids, self.phi_tables))
            ]
        )
        winners = np.argmax(levels, axis=1)
        best = levels[np.arange(levels.shape[0]), winners]
        return np.where(best >= self.xi_bar, winners, -1)


def myerson_baseline(inst):
    """Build the quality-blind benchmark from first principles.

    Deliberately shares no code with the mechanism construction: virtual
    values, the allocation rule, and the revenue quadrature are inlined
    here so the benchmark is an independent witness.  Requires constant
    alpha and reserve and regular buyers.
    """
    qm = inst.quality
    for name, curve in (("alpha", qm.alpha), ("reserve", qm.reserve)):
        if float(np.max(curve.vals) - np.min(curve.vals)) > 1e-12:
            raise ValidationError(
                f"quality-blind benchmark needs a constant {name} curve"
            )
    if inst.valuation.kind != "linear":
        raise ValidationError("quality-blind benchmark covers the linear form only")
    alpha_bar = float(qm.alpha.vals[0])
    reserve_bar = float(qm.reserve.vals[0])
    xi_bar = reserve_bar / alpha_bar

    grids = []
    phis = []
    for d in inst.buyers:
        phi = d.grid - (1.0 - d.cdf_vals) / d.pdf_vals
        if np.any(np.diff(phi) < -1e-9):
            raise ValidationError("quality-blind benchmark assumes regular buyers")
        grids.append(d.grid)
        phis.append(np.maximum.accumulate(phi))

    # revenue = reserve + sum_i E[ 1{i wins} * (alpha*phi_i - reserve) ]
    total = reserve_bar
    for i, d in enumerate(inst.buyers):
        phi = phis[i]
        opp = np.ones_like(phi)
        for j, dj in enumerate(inst.buyers):
            if j == i:
                continue
            tj = np.interp(
                phi, phis[j], dj.grid, left=dj.grid[0] - 1.0, right=dj.grid[-1]
            )
            Fj = np.where(
                tj < dj.grid[0],
                0.0,
                np.interp(tj, dj.grid, dj.cdf_vals),
            )
            opp = opp * Fj
        gain = alpha_bar * phi - reserve_bar
        integrand = np.where(phi >= xi_bar, d.pdf_vals * opp * gain, 0.0)
        t_pts = d.grid
        # insert the participation point to remove the kink error
        idx = int(np.searchsorted(phi, xi_bar, side="left"))
        if 0 < idx < phi.size:
            a, b = phi[idx - 1], phi[idx]
            if b > a:
                frac = (xi_bar - a) / (b - a)
                t_star = d.grid[idx - 1] + frac * (d.grid[idx] - d.grid[idx - 1])
                t_pts = np.insert(d.grid, idx, t_star)
                integrand = np.insert(integrand, idx, 0.0)
        total += float(np.trapezoid(integrand, t_pts))

    return QualityBlindBaseline(
        type_grids=tuple(grids),
        phi_tables=tuple(phis),
        alpha_bar=alpha_bar,
        reserve_bar=reserve_bar,
        xi_bar=xi_bar,
        revenue=total,
    )


# ---------------------------------------------------------------------------
# benchmark: best constant posted price with binary disclosure


@dataclass(frozen=True)
class ConstantPriceBaseline:
    """Best single posted price with a public pass/fail quality signal."""

    price: float
    cutoff: float
    revenue: float


_CUTOFF_TIE_RTOL = 1e-12


def _constant_price_revenue(inst, prices, A1, B1, C1, A_tot, C_tot):
    """Revenue of each posted price after announcing whether xi(q) <= cutoff.

    A1, B1 and C1 are the quality side's A, B and C at the cutoff; A_tot
    and C_tot are A and C over the whole quality support.
    """
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    b_fn, _ = _type_factor_fns(inst)
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
                b_vals = b_fn(d.grid)
                # smallest type whose expected value clears each price
                tau = np.interp(
                    prices / alpha_mean, b_vals, d.grid,
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


def best_constant_price(inst, n_price=241):
    """Grid-search the best constant posted price and binary disclosure cutoff.

    The search is exhaustive over quality-grid cutoffs and a price grid
    with one local refinement, so the reported revenue is a lower bound
    on what this restricted family can achieve; the family itself is
    incentive compatible, hence never better than the optimal mechanism.
    Cutoffs whose revenues agree to a relative 1e-12 count as tied, and
    the lowest tied cutoff is reported, so the choice does not hinge on
    rounding.
    """
    xi = inst.quality.xi.vals
    b_fn, _ = _type_factor_fns(inst)
    cutoffs = np.unique(np.concatenate((xi, [np.min(xi) - 1.0, np.max(xi) + 1.0])))
    A1, B1, C1 = _quality_integrals(inst.quality, cutoffs, True)
    # the last cutoff lies above xi everywhere: A and C over the whole support
    A_tot, C_tot = A1[-1], C1[-1]
    alpha_max = float(np.max(inst.quality.alpha.vals))
    p_hi = max(float(np.max(b_fn(d.grid))) for d in inst.buyers) * alpha_max
    prices = np.linspace(0.0, p_hi, n_price)

    def sweep(price_grid, best=None):
        top = np.empty(cutoffs.size)
        arg = np.empty(cutoffs.size, dtype=int)
        for k in range(cutoffs.size):
            revs = _constant_price_revenue(
                inst, price_grid, A1[k], B1[k], C1[k], A_tot, C_tot
            )
            arg[k] = int(np.argmax(revs))
            top[k] = revs[arg[k]]
        peak = float(np.max(top))
        if best is not None and peak <= best[2] + _CUTOFF_TIE_RTOL * abs(best[2]):
            return best
        k = int(np.argmax(top >= peak - _CUTOFF_TIE_RTOL * abs(peak)))
        return (float(price_grid[arg[k]]), float(cutoffs[k]), float(top[k]))

    best = sweep(prices)

    # one refinement pass around the best price
    step = prices[1] - prices[0] if n_price > 1 else 1.0
    fine = np.linspace(max(best[0] - step, 0.0), best[0] + step, 81)
    best = sweep(fine, best)

    return ConstantPriceBaseline(price=best[0], cutoff=best[1], revenue=best[2])
