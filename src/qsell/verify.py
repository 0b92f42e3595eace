"""Independent checks of a built mechanism.

Feasibility (monotone win weights, utility envelope, zero rent at the
bottom type), a grid search for profitable misreports or profitable
exit, an obedience check that asked buyers want to purchase, and an
exact discrete oracle for cross-checking expected revenue on small
finite instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dist, info
from .errors import EnumerationSizeError, UndefinedPosteriorError, ValidationError
from .mechanism import (
    WIN_PROB_FLOOR,
    _interim_at,
    _tables_of,
    _type_factor_fns,
    _win_probability,
    allocate_many,
)

__all__ = [
    "FeasibilityReport",
    "check_feasibility",
    "ICReport",
    "ic_deviation_search",
    "ObedienceReport",
    "obedience_check",
    "posterior_belief",
    "DiscreteInstance",
    "OracleAllocation",
    "discrete_virtual_values",
    "discrete_threshold_revenue",
    "brute_force_oracle",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 10_000_000


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst-case diagnostics over all buyers; ok means within tolerances."""

    ok: bool
    monotonicity_violation: float
    envelope_residual: float
    boundary_utility: float
    probability_violation: float
    per_buyer: tuple


def check_feasibility(inst, m, tol=1e-6, n_samples=10_000, seed=20240816):
    """Verify the implementability side of a mechanism.

    Checks that every win-weight curve is non-decreasing, that interim
    utility matches the integral of the win weight (the envelope
    identity), that the lowest type earns nothing, and that sampled
    interim win probabilities are genuine probabilities.
    """
    tables = _tables_of(inst, m)
    b_fn, _ = _type_factor_fns(inst)
    rng = np.random.Generator(np.random.PCG64(seed))

    mono = 0.0
    env = 0.0
    bound = 0.0
    prob = 0.0
    per_buyer = []
    for i, d in enumerate(inst.buyers):
        tab = tables[i]
        r_vals = m.win_weight[i].vals
        mono_i = max(0.0, float(-np.min(np.diff(r_vals))) if r_vals.size > 1 else 0.0)

        defined = tab.W > WIN_PROB_FLOOR
        pay = np.where(defined, m.payment[i].vals, 0.0)
        U = b_fn(d.grid) * tab.opp * tab.A - pay * tab.W
        env_i = float(np.max(np.abs(U - tab.int_R)))
        bound_i = float(abs(U[0]))

        u = rng.random(n_samples)
        t_samp = dist.quantile(d, u)
        c = np.interp(t_samp, d.grid, m.curves[i].phi_ironed)
        W_samp = _win_probability(inst, m.curves, i, c)
        prob_i = float(
            max(0.0, np.max(W_samp) - 1.0, np.max(-W_samp))
        )
        per_buyer.append(
            {
                "buyer": i,
                "monotonicity_violation": mono_i,
                "envelope_residual": env_i,
                "boundary_utility": bound_i,
                "probability_violation": prob_i,
            }
        )
        mono = max(mono, mono_i)
        env = max(env, env_i)
        bound = max(bound, bound_i)
        prob = max(prob, prob_i)

    ok = mono <= tol and env <= tol and bound <= tol and prob <= tol
    return FeasibilityReport(
        ok=ok,
        monotonicity_violation=mono,
        envelope_residual=env,
        boundary_utility=bound,
        probability_violation=prob,
        per_buyer=tuple(per_buyer),
    )


# ---------------------------------------------------------------------------
# incentive compatibility


@dataclass(frozen=True)
class ICReport:
    """Largest gain any type can get from misreporting or walking away."""

    max_regret: float
    worst_buyer: int
    worst_true_type: float
    worst_report: float
    per_buyer: tuple


def _utility_matrix(inst, m, i, true_types, reports):
    """Expected utility of each (true type, reported type) pair for buyer i."""
    b_fn, _ = _type_factor_fns(inst)
    d = inst.buyers[i]
    c = np.interp(reports, d.grid, m.curves[i].phi_ironed)
    opp, A, B, _ = _interim_at(inst, m.curves, i, c, "at")
    if m.active_from is not None and m.active_from[i] >= 0:
        pay = m.payment_at(i, reports)
    else:
        pay = np.zeros_like(reports)
    win_value = opp * A                      # multiplies b(true type)
    win_cost = opp * B * pay                 # independent of the true type
    return np.outer(b_fn(true_types), win_value) - win_cost[None, :]


def ic_deviation_search(inst, m, n_grid=101):
    """Search misreports (and exit) for profitable deviations.

    Utilities are computed exactly at every grid point from the interim
    quantities, and the best (type, report) pair is refined on an 11 x 11
    grid one step around it; regret is the best deviation gain found.  A
    broken mechanism shows up as a large positive regret, a sound one
    stays at numerical-noise level.
    """
    worst = (0.0, -1, float("nan"), float("nan"))
    per_buyer = []
    for i, d in enumerate(inst.buyers):
        lo, hi = d.grid[0], d.grid[-1]
        tt = np.linspace(lo, hi, n_grid)
        U = _utility_matrix(inst, m, i, tt, tt)
        truth = np.diag(U)
        regret_mat = U - truth[:, None]
        # walking away is always available
        exit_regret = float(np.max(-truth))
        k = int(np.argmax(regret_mat))
        r_i, c_i = divmod(k, n_grid)
        best = float(regret_mat[r_i, c_i])

        if n_grid > 2:
            step = (hi - lo) / (n_grid - 1)
            tt_f = np.linspace(
                max(lo, tt[r_i] - step), min(hi, tt[r_i] + step), 11
            )
            rr_f = np.linspace(
                max(lo, tt[c_i] - step), min(hi, tt[c_i] + step), 11
            )
            U_f = _utility_matrix(inst, m, i, tt_f, rr_f)
            truth_f = np.diag(_utility_matrix(inst, m, i, tt_f, tt_f))
            reg_f = U_f - truth_f[:, None]
            k_f = int(np.argmax(reg_f))
            rf, cf = divmod(k_f, 11)
            if float(reg_f[rf, cf]) > best:
                best = float(reg_f[rf, cf])
                r_t, r_r = float(tt_f[rf]), float(rr_f[cf])
            else:
                r_t, r_r = float(tt[r_i]), float(tt[c_i])
        else:
            r_t, r_r = float(tt[r_i]), float(tt[c_i])

        buyer_regret = max(best, exit_regret, 0.0)
        per_buyer.append(
            {
                "buyer": i,
                "misreport_regret": max(best, 0.0),
                "exit_regret": max(exit_regret, 0.0),
            }
        )
        if buyer_regret > worst[0]:
            if exit_regret >= best:
                worst = (buyer_regret, i, float(tt[int(np.argmin(truth))]), float("nan"))
            else:
                worst = (buyer_regret, i, r_t, r_r)

    return ICReport(
        max_regret=worst[0],
        worst_buyer=worst[1],
        worst_true_type=worst[2],
        worst_report=worst[3],
        per_buyer=tuple(per_buyer),
    )


# ---------------------------------------------------------------------------
# obedience


@dataclass(frozen=True)
class ObedienceReport:
    """Do asked buyers want to buy, and is the entry type close to indifferent?"""

    min_surplus: float
    marginal: tuple  # per buyer: (entry_type, surplus_just_above_entry) or None


def obedience_check(inst, m, n_check=512):
    """Expected surplus of an asked buyer must be non-negative at every type.

    Also reports the surplus just above each buyer's participation
    threshold, which should vanish for an optimal mechanism: the entry
    type pays exactly its expected value of the item.
    """
    b_fn, _ = _type_factor_fns(inst)
    tables = _tables_of(inst, m)
    min_s = np.inf
    marginal = []
    any_defined = False
    for i, d in enumerate(inst.buyers):
        if m.active_from is None or m.active_from[i] < 0:
            marginal.append(None)
            continue
        t_eval = np.linspace(d.grid[0], d.grid[-1], n_check)
        c = np.interp(t_eval, d.grid, m.curves[i].phi_ironed)
        opp, A, B, _ = _interim_at(inst, m.curves, i, c, "at")
        defined = opp * B > WIN_PROB_FLOOR
        if defined.any():
            any_defined = True
            s = (
                b_fn(t_eval[defined]) * A[defined] / B[defined]
                - m.payment_at(i, t_eval[defined])
            )
            min_s = min(min_s, float(np.min(s)))

        # entry point: the lowest type with positive win probability, as
        # the interim table records it.  Both the expected item value per
        # unit of win probability and the stored payment (NaN below entry)
        # are extended down to the entry point from the first two winning
        # nodes, so the reported surplus is the right-hand limit at the
        # marginal winning type.
        tab = tables[i]
        t_entry = tab.entry
        if t_entry is None:
            marginal.append(None)
            continue
        pay, pgrid = m.payment[i].vals, m.payment[i].grid
        kk = np.nonzero(np.isfinite(pay) & (pgrid >= t_entry - 1e-9))[0]
        if kk.size == 0:
            marginal.append((t_entry, float("nan")))
            continue
        kk = kk[:2]
        j = tab.node_pos[kk]
        surplus = tab.b_comb[j] * tab.A_comb[j] / tab.B_comb[j] - pay[kk]
        if kk.size == 2:
            (t0, t1), (s0, s1) = pgrid[kk], surplus
            surplus = [s0 + (s1 - s0) / (t1 - t0) * (t_entry - t0)]
        marginal.append((t_entry, float(surplus[0])))

    return ObedienceReport(
        min_surplus=float(min_s) if any_defined else 0.0,
        marginal=tuple(marginal),
    )


def posterior_belief(inst, m, i, t):
    """Posterior quality density of buyer i at type t given being asked.

    The prior truncated to the acceptance set and renormalized.  Raises
    UndefinedPosteriorError when the buyer is (almost) never asked at
    this type.  The returned grid carries near-zero-width shoulder
    points so that plain trapezoid integration reproduces mass one.
    """
    if m.active_from is None or m.active_from[i] < 0:
        raise UndefinedPosteriorError(f"buyer {i} is never asked")
    level = float(np.interp(t, m.curves[i].type_grid, m.curves[i].phi_ironed))
    if _win_probability(inst, m.curves, i, level) <= WIN_PROB_FLOOR:
        raise UndefinedPosteriorError(
            f"buyer {i} at type {t} is asked with probability ~0"
        )
    s = info.acceptance_set(m.quality, level)
    if s.is_empty:
        raise UndefinedPosteriorError(
            f"buyer {i} at type {t} has an empty acceptance set"
        )

    qm = m.quality
    qgrid = qm.G.grid
    gpdf = qm.G.pdf_vals
    span = float(qgrid[-1] - qgrid[0])
    delta = max(1e-12 * span, 1e-300)

    pts = []
    vals = []
    for a, b in s.intervals:
        if a > qgrid[0] + 1e-15:
            pts.append(a - delta)
            vals.append(0.0)
        inside = qgrid[(qgrid > a) & (qgrid < b)]
        seg_pts = np.concatenate(([a], inside, [b]))
        seg_vals = np.interp(seg_pts, qgrid, gpdf)
        pts.extend(seg_pts.tolist())
        vals.extend(seg_vals.tolist())
        if b < qgrid[-1] - 1e-15:
            pts.append(b + delta)
            vals.append(0.0)
    pts = np.asarray(pts)
    vals = np.asarray(vals)
    mass = float(np.trapezoid(vals, pts))
    if mass <= 1e-15:
        raise UndefinedPosteriorError(
            f"buyer {i} at type {t}: acceptance set carries no prior mass"
        )
    return dist.GriddedFunction(pts, vals / mass)


# ---------------------------------------------------------------------------
# discrete oracle


@dataclass(frozen=True)
class DiscreteInstance:
    """Fully finite instance: type atoms, quality atoms, curve values."""

    type_grids: tuple     # per buyer: increasing type values
    type_probs: tuple     # per buyer: probabilities summing to 1
    quality_vals: np.ndarray
    quality_probs: np.ndarray
    alpha_vals: np.ndarray
    reserve_vals: np.ndarray

    def __post_init__(self):
        tg = tuple(np.asarray(g, dtype=float) for g in self.type_grids)
        tp = tuple(np.asarray(p, dtype=float) for p in self.type_probs)
        object.__setattr__(self, "type_grids", tg)
        object.__setattr__(self, "type_probs", tp)
        object.__setattr__(self, "quality_vals", np.asarray(self.quality_vals, dtype=float))
        object.__setattr__(self, "quality_probs", np.asarray(self.quality_probs, dtype=float))
        object.__setattr__(self, "alpha_vals", np.asarray(self.alpha_vals, dtype=float))
        object.__setattr__(self, "reserve_vals", np.asarray(self.reserve_vals, dtype=float))
        if len(tg) != len(tp):
            raise ValidationError("type grids and probabilities must pair up")
        for g, p in zip(tg, tp):
            if g.size != p.size or g.size == 0:
                raise ValidationError("each buyer needs matching type values and probabilities")
            if np.any(np.diff(g) <= 0):
                raise ValidationError("type values must be strictly increasing")
            if np.any(p <= 0) or abs(float(np.sum(p)) - 1.0) > 1e-9:
                raise ValidationError("type probabilities must be positive and sum to 1")
        if abs(float(np.sum(self.quality_probs)) - 1.0) > 1e-9:
            raise ValidationError("quality probabilities must sum to 1")
        if np.any(self.alpha_vals <= 0):
            raise ValidationError("alpha must be strictly positive")

    @property
    def n_buyers(self):
        return len(self.type_grids)


def discrete_virtual_values(type_vals, type_probs):
    """Finite-support virtual values; the top type keeps its own value."""
    t = np.asarray(type_vals, dtype=float)
    p = np.asarray(type_probs, dtype=float)
    F = np.cumsum(p)
    phi = t.copy()
    if t.size > 1:
        phi[:-1] = t[:-1] - (t[1:] - t[:-1]) * (1.0 - F[:-1]) / p[:-1]
    return phi


def _guard(dinst):
    count = 1
    for g in dinst.type_grids:
        count *= g.size + 1
    if dinst.n_buyers > 2 or count > ENUMERATION_LIMIT:
        raise EnumerationSizeError(count=count, limit=ENUMERATION_LIMIT)
    return count


def discrete_threshold_revenue(dinst):
    """Expected revenue of the threshold rule on a finite instance.

    Requires every buyer's discrete virtual values to be non-decreasing;
    ironing is not applied here.
    """
    _guard(dinst)
    phis = []
    for g, p in zip(dinst.type_grids, dinst.type_probs):
        phi = discrete_virtual_values(g, p)
        if np.any(np.diff(phi) < -1e-12):
            raise ValidationError(
                "discrete threshold evaluation requires non-decreasing virtual values"
            )
        phis.append(phi)

    # joint distribution over profiles of (winner's virtual value, probability)
    if dinst.n_buyers == 1:
        best_phi = phis[0]
        prob = dinst.type_probs[0]
    else:
        p1, p2 = phis
        best_phi = np.maximum(p1[:, None], p2[None, :]).ravel()
        prob = np.outer(dinst.type_probs[0], dinst.type_probs[1]).ravel()

    total = float(np.sum(dinst.quality_probs * dinst.reserve_vals))
    for gq, aq, rq in zip(dinst.quality_probs, dinst.alpha_vals, dinst.reserve_vals):
        gain = aq * best_phi - rq
        sold = gain >= 0.0
        total += float(gq * np.sum(prob[sold] * gain[sold]))
    return total


def _best_suffix_argmax(weights):
    """Best (possibly empty) suffix sum starting at or after each index.

    Returns (sbest, abest): sbest[c] = max over c' >= c of sum_{k>=c'},
    with the empty suffix (value 0, start K) included, and abest[c] the
    start attaining it.  Ties pick the larger start (the smaller winning
    set).
    """
    K = weights.size
    S = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0]))
    sbest = np.empty(K + 1)
    abest = np.empty(K + 1, dtype=int)
    running, arg = 0.0, K
    for c in range(K, -1, -1):
        if S[c] > running:
            running, arg = S[c], c
        sbest[c] = running
        abest[c] = arg
    return sbest, abest


@dataclass(frozen=True)
class OracleAllocation:
    """Cutoff description of an allocation found by the finite oracle.

    ``cutoffs[i]`` has one row per quality level and one column per
    opponent type cell (a single column when buyer i has no opponent).
    Buyer i wins exactly when her own type index reaches the stored
    cutoff; a cutoff equal to her type count means she never wins there.
    """

    cutoffs: tuple
    type_counts: tuple

    @property
    def never_sells(self):
        return all(
            bool(np.all(cut == k))
            for cut, k in zip(self.cutoffs, self.type_counts)
        )


def _dp_two_buyers(u1, p1, u2, p2):
    """Exact best monotone disjoint allocation for one quality level.

    Buyer 1 takes a suffix of rows in each column, buyer 2 a suffix of
    columns in each remaining row; columns are scanned from the highest
    type down, the state being the smallest row cutoff used so far.
    Returns the optimal value and buyer 1's cutoff per column.
    """
    K1, K2 = p1.size, p2.size
    w1 = p1 * u1
    tail1 = np.concatenate((np.cumsum(w1[::-1])[::-1], [0.0]))  # tail1[c] = sum_{k1>=c}
    w2 = p2 * u2
    sbest2 = _best_suffix_argmax(w2)[0]  # sbest2[m+1]
    P1 = np.concatenate(([0.0], np.cumsum(p1)))  # P1[k] = sum of p1 below k

    NEG = -np.inf
    dp = np.full(K1 + 1, NEG)
    dp[K1] = 0.0  # before any column, no cutoff used
    cuts = np.arange(K1 + 1)
    par_theta = np.full((K2, K1 + 1), -1, dtype=int)
    par_cut = np.full((K2, K1 + 1), -1, dtype=int)
    for k2 in range(K2 - 1, -1, -1):
        col_gain = p2[k2] * tail1  # gain from buyer 1 at each cutoff choice
        new_dp = np.full(K1 + 1, NEG)
        for theta in range(K1 + 1):
            if dp[theta] == NEG:
                continue
            # rows in [c, theta) are finalized with m = k2 when c < theta
            fin = np.where(
                cuts < theta,
                sbest2[k2 + 1] * (P1[theta] - P1[np.minimum(cuts, theta)]),
                0.0,
            )
            vals = dp[theta] + col_gain + fin
            # cutoffs below theta move the state down to the cutoff
            lower = vals[:theta] > new_dp[:theta]
            if lower.any():
                idx = np.nonzero(lower)[0]
                new_dp[idx] = vals[idx]
                par_theta[k2, idx] = theta
                par_cut[k2, idx] = idx
            # cutoffs at or above theta keep the state at theta
            j = theta + int(np.argmax(vals[theta:]))
            if vals[j] > new_dp[theta]:
                new_dp[theta] = vals[j]
                par_theta[k2, theta] = theta
                par_cut[k2, theta] = j
        dp = new_dp
    # rows never taken by buyer 1 keep every column available (m = -1)
    final = dp + sbest2[0] * P1
    theta = int(np.argmax(final))
    value = float(final[theta])
    c_col = np.empty(K2, dtype=int)
    for k2 in range(K2):  # reverse of the processing order
        c_col[k2] = par_cut[k2, theta]
        theta = par_theta[k2, theta]
    return value, c_col


def brute_force_oracle(dinst):
    """Exact optimal expected revenue and allocation on a finite instance.

    Maximizes virtual surplus over all monotone, at-most-one-winner
    allocations, independently per quality level (the seller may
    condition freely on quality).  Limited to one or two buyers and
    guarded by the enumeration limit.
    """
    _guard(dinst)
    phis = [
        discrete_virtual_values(g, p)
        for g, p in zip(dinst.type_grids, dinst.type_probs)
    ]
    total = float(np.sum(dinst.quality_probs * dinst.reserve_vals))
    n_q = dinst.quality_vals.size
    if dinst.n_buyers == 1:
        K1 = dinst.type_grids[0].size
        cut1 = np.full((n_q, 1), K1, dtype=int)
        cutoffs = (cut1,)
        counts = (K1,)
    else:
        K1, K2 = dinst.type_grids[0].size, dinst.type_grids[1].size
        cut1 = np.full((n_q, K2), K1, dtype=int)
        cut2 = np.full((n_q, K1), K2, dtype=int)
        cutoffs = (cut1, cut2)
        counts = (K1, K2)
    for iq, (gq, aq, rq) in enumerate(
        zip(dinst.quality_probs, dinst.alpha_vals, dinst.reserve_vals)
    ):
        if dinst.n_buyers == 1:
            w = dinst.type_probs[0] * (aq * phis[0] - rq)
            suffix = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
            c = int(np.argmax(suffix[::-1]))  # ties prefer selling less
            c = suffix.size - 1 - c
            cut1[iq, 0] = c
            best = float(suffix[c])
        else:
            w2 = dinst.type_probs[1] * (aq * phis[1] - rq)
            best, c_col = _dp_two_buyers(
                aq * phis[0] - rq,
                dinst.type_probs[0],
                aq * phis[1] - rq,
                dinst.type_probs[1],
            )
            cut1[iq] = c_col
            _, abest = _best_suffix_argmax(w2)
            claims = c_col[None, :] <= np.arange(K1)[:, None]  # (k1, k2)
            has = claims.any(axis=1)
            last = np.where(has, K2 - 1 - np.argmax(claims[:, ::-1], axis=1), -1)
            cut2[iq] = abest[last + 1]
        total += float(gq * best)
    return total, OracleAllocation(cutoffs=cutoffs, type_counts=counts)
