"""Independent checks of a built mechanism.

Feasibility (monotone win weights, utility envelope, zero rent at the
bottom type), a grid search for profitable misreports or profitable
exit, an obedience check that asked buyers want to purchase, and an
exact discrete oracle for cross-checking expected revenue on small
finite instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dist, info
from .errors import EnumerationSizeError, UndefinedPosteriorError, ValidationError
from .mechanism import WIN_PROB_FLOOR, _buyer, _charged, _integer, _payment_at, _per_run

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
    largest_fall: float
    per_buyer: tuple


def _fall_and_floor(coef, strict, weak):
    """Largest fall of a level table between two levels, and its least value.

    The table runs through its pieces and breaks in level order: each
    piece from its start to its end, its slope c1 + 2 * c2 * x in the
    fraction x changing sign at most once, then the break's strict and
    weak values.  Those points, in order, hold every value the table
    turns at, so the largest fall is the largest drop below a running
    maximum over them.
    """
    c0, c1, c2 = coef
    inside = (c1 < 0.0) != (c1 + 2.0 * c2 < 0.0)
    turn = np.where(inside, -c1 / np.where(inside, 2.0 * c2, 1.0), 0.0)
    tail = c0[-1] + c1[-1] + c2[-1]
    path = np.stack(
        [
            c0,
            c0 + turn * (c1 + turn * c2),
            c0 + c1 + c2,
            np.append(strict, tail),
            np.append(weak, tail),
        ],
        axis=1,
    ).ravel()
    return float(np.max(np.maximum.accumulate(path) - path)), float(np.min(path))


def _utility_column(m, tab, pay):
    """W and the interim utility U = b * X - pay * W on one of m's payment columns.

    One entry per point ``tab.t``; pay is the column the node table
    states, charged by ``_charged``.
    """
    X, W, _ = tab.win
    return W, m.inst.valuation.type_factor(tab.t) * X - _charged(pay, W) * W


def check_feasibility(m, tol=1e-6):
    """Verify the implementability side of a mechanism.

    Checks that every win weight b' * X at the grid nodes
    (``m.win_weight``, read off the interim table) is non-decreasing,
    that interim utility matches the integral of the win weight (the
    envelope identity) at every point of the payment column, that the
    lowest type earns nothing, and that interim win probabilities are
    genuine probabilities.  The last is a certificate read off the
    level tables: buyer i's win probability W = opp * B is a product of factor tables,
    the quality table's B and each rival's mass.  When every factor is
    non-negative and non-decreasing, W over the buyer's types spans
    exactly W at the least and the greatest ironed threshold level, read
    under the tie rule.  ``largest_fall`` is the largest fall of any
    factor between two levels, and a negative factor value counts as a
    probability violation.  A run that shares a column (``m.columns``)
    shares a row.
    """
    levels, columns = m.tables[0].levels, m.columns
    q, mass = levels.quality, levels.mass
    quality_fall = _fall_and_floor(q.coef[:, 1], q.strict[1], q.weak[1])
    mass_falls = _per_run(
        mass, lambda j: _fall_and_floor(mass[j].coef, mass[j].strict, mass[j].weak)
    )

    per_buyer = []
    for i, (r, (tab, pay)) in enumerate(zip(m.win_weight, columns)):
        if i and columns[i] is columns[i - 1]:
            per_buyer.append({**per_buyer[-1], "buyer": i})
            continue
        # numpy folds keep a NaN; np.max returns the last of equal values,
        # so with 0.0 last a zero figure reads +0.0
        mono_i = float(np.max([-np.min(np.diff(r.vals)), 0.0])) if r.vals.size > 1 else 0.0

        _, U = _utility_column(m, tab, pay)
        env_i = float(np.max(np.abs(U - tab.I)))
        bound_i = float(abs(U[0]))

        factors = [quality_fall] + [f for j, f in enumerate(mass_falls) if j != i]
        fall_i = float(np.max([f for f, _ in factors]))
        floor_i = np.min([low for _, low in factors])
        phi = m.curves[i].phi_ironed
        opp, _, B, _ = tab.levels.at(i, np.array([np.min(phi), np.max(phi)]))
        w_lo, w_hi = (float(w) for w in opp * B)
        prob_i = float(np.max([w_hi - 1.0, -w_lo, -floor_i, 0.0]))
        per_buyer.append(
            {
                "buyer": i,
                "monotonicity_violation": mono_i,
                "envelope_residual": env_i,
                "boundary_utility": bound_i,
                "probability_violation": prob_i,
                "largest_fall": fall_i,
                "win_probability_range": (w_lo, w_hi),
            }
        )

    worst = {
        key: float(np.max([b[key] for b in per_buyer]))
        for key in ("monotonicity_violation", "envelope_residual", "boundary_utility",
                    "probability_violation", "largest_fall")
    }
    return FeasibilityReport(
        ok=all(v <= tol for v in worst.values()),
        per_buyer=tuple(per_buyer),
        **worst,
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


def _utility_matrix(m, i, column, true_types, reports):
    """Expected utility of each (true type, reported type) pair on buyer i's column."""
    b_fn = m.inst.valuation.type_factor
    opp, A, B, _ = column[0].levels.at(i, m.curves[i].phi_ironed_at(reports))
    W = opp * B
    win_value = opp * A                      # multiplies b(true type)
    win_cost = W * _charged(_payment_at(*column, reports), W)  # not of the true type
    return np.outer(b_fn(true_types), win_value) - win_cost[None, :]


def _best_misreport(m, i, column, tt, rr=None):
    """The most profitable report in rr (tt if None) for each true type in tt.

    Returns the largest gain with its true type and report, and the
    truthful utilities at tt.  One utility evaluation gives both: the
    truthful ones are the square grid's diagonal, or extra report columns.
    """
    square = rr is None
    rr = tt if square else rr
    U = _utility_matrix(m, i, column, tt, rr if square else np.concatenate((rr, tt)))
    truth = np.diag(U[:, -tt.size:])
    gain = U[:, : rr.size] - truth[:, None]
    r, c = divmod(int(np.argmax(gain)), rr.size)
    return float(gain[r, c]), float(tt[r]), float(rr[c]), truth


def ic_deviation_search(m, n_grid=101):
    """Search misreports (and exit) for profitable deviations.

    Utilities are computed exactly at every point of an n_grid-point type
    grid (n_grid >= 2) from the interim quantities, and the best (type,
    report) pair is refined on an 11 x 11 grid one step around it; regret
    is the best deviation gain found.  Walking away is also read at every
    point of the payment column (``_utility_column``), so a NaN price
    between the grid's types makes the regret NaN.  A broken mechanism
    shows up as a large positive regret, a sound one stays at
    numerical-noise level.  A run that shares a column (``m.columns``) is
    searched once.
    """
    n_grid = _integer(n_grid, "n_grid")
    if n_grid < 2:
        raise ValidationError(f"n_grid must be at least 2, got {n_grid}")
    regret, where = [0.0], [(-1, float("nan"), float("nan"))]
    per_buyer, columns = [], m.columns
    for i, (d, column) in enumerate(zip(m.inst.buyers, columns)):
        if i and column is columns[i - 1]:
            regret.append(regret[-1])
            where.append((i, *where[-1][1:]))
            per_buyer.append({**per_buyer[-1], "buyer": i})
            continue
        lo, hi = d.grid[0], d.grid[-1]
        tt = np.linspace(lo, hi, n_grid)
        best, r_t, r_r, truth = _best_misreport(m, i, column, tt)
        # walking away is always available: read on the grid and at every
        # point of the payment column; the first largest, so a NaN wins
        walk = np.concatenate((-truth, -_utility_column(m, *column)[1]))
        k = int(np.argmax(walk))
        exit_regret, exit_type = float(walk[k]), float(np.append(tt, column[0].t)[k])
        if n_grid > 2:
            step = (hi - lo) / (n_grid - 1)
            window = [np.linspace(max(lo, x - step), min(hi, x + step), 11) for x in (r_t, r_r)]
            fine = _best_misreport(m, i, column, *window)
            if fine[0] > best:
                best, r_t, r_r = fine[:3]

        regret.append(float(np.max([best, exit_regret, 0.0])))
        if exit_regret >= best or np.isnan(exit_regret):
            where.append((i, exit_type, float("nan")))
        else:
            where.append((i, r_t, r_r))
        per_buyer.append(
            {
                "buyer": i,
                "misreport_regret": float(np.max([best, 0.0])),
                "exit_regret": float(np.max([exit_regret, 0.0])),
            }
        )

    # the first largest regret, so a tie keeps the earlier buyer and a NaN wins
    k = int(np.argmax(regret))
    return ICReport(
        max_regret=regret[k],
        worst_buyer=where[k][0],
        worst_true_type=where[k][1],
        worst_report=where[k][2],
        per_buyer=tuple(per_buyer),
    )


# ---------------------------------------------------------------------------
# obedience


@dataclass(frozen=True)
class ObedienceReport:
    """Do asked buyers want to buy, and is the entry type close to indifferent?"""

    min_surplus: float
    marginal: tuple  # per buyer: (entry_type, surplus_just_above_entry) or None


def obedience_check(m):
    """Expected surplus of an asked buyer must be non-negative at every type.

    The payment is charged only on purchase, so an asked buyer's surplus
    is the interim utility over the win probability, U / W, read at every
    point of the payment column where W exceeds ``WIN_PROB_FLOOR``: the
    same U whose envelope ``check_feasibility`` checks.  Also reports the
    surplus at each buyer's entry type (the lowest type that is asked, as
    a right-hand limit), which should vanish for an optimal mechanism:
    the entry type pays exactly its expected value of the item: the
    surplus there is the solve's payment less the stated one.  A NaN
    payment where a buyer is asked makes ``min_surplus`` NaN; with no
    buyer asked anywhere it is 0.  A run that shares a column
    (``m.columns``) is read once.
    """
    surplus = [np.zeros(0)]
    marginal, columns = [], m.columns
    for i, (tab, pay) in enumerate(columns):
        if tab.entry is None:
            marginal.append(None)
            continue
        if i and columns[i] is columns[i - 1]:
            surplus.append(surplus[-1])
            marginal.append(marginal[-1])
            continue
        W, U = _utility_column(m, tab, pay)
        asked = W > WIN_PROB_FLOOR
        surplus.append(U[asked] / W[asked])
        solved, stated = (_payment_at(tab, p, tab.entry) for p in (tab.pay, pay))
        marginal.append((tab.entry, float(solved - stated)))

    surplus = np.concatenate(surplus)
    return ObedienceReport(
        min_surplus=float(np.min(surplus)) if surplus.size else 0.0,
        marginal=tuple(marginal),
    )


def posterior_belief(m, i, t):
    """Posterior quality density of buyer i at type t given being asked.

    The prior truncated to the acceptance set and renormalized.  Raises
    UndefinedPosteriorError when the buyer is (almost) never asked at
    this type.  The returned grid carries near-zero-width shoulder
    points so that plain trapezoid integration reproduces mass one.
    """
    tab = m.tables[_buyer(m, i)]
    if tab.entry is None:
        raise UndefinedPosteriorError(f"buyer {i} is never asked")
    level = m.curves[i].phi_ironed_at(t)
    opp, _, B, _ = tab.levels.at(i, level)
    if opp * B <= WIN_PROB_FLOOR:
        raise UndefinedPosteriorError(
            f"buyer {i} at type {t} is asked with probability ~0"
        )
    qm = m.inst.quality
    s = info.acceptance_set(qm, level)
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
        for name in ("quality_vals", "quality_probs", "alpha_vals", "reserve_vals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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
            sbest, abest = _best_suffix_argmax(dinst.type_probs[0] * (aq * phis[0] - rq))
            best, cut1[iq, 0] = float(sbest[0]), abest[0]
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
