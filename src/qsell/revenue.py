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

import os
import threading

import numpy as np

from . import dist
from .errors import ValidationError
from .mechanism import _charged, _column_guide, _integer, _payment_at, _per_run, _winners

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


def _no_sale_quality_integral(m):
    """Integral over quality of reserve * g * P(nobody clears xi(q)) under m.

    It reads m's level tables.  Nobody clears xi when every threshold
    lies strictly below it.  The quality cells are cut where xi meets a
    break of a buyer's mass table, so the integrand is a polynomial in q
    of degree n + 1 on each piece, which the n + 2 point rule integrates
    exactly.
    """
    qm, levels = m.inst.quality, m.tables[0].levels
    cuts = np.concatenate([t.breaks for t in levels.mass])
    q, c, weight, _ = dist.cut_quadrature(qm.G.grid, qm.xi.vals, cuts, m.n_buyers + 2)
    rg = np.interp(q, qm.G.grid, qm.integrands[2])
    return float(np.sum(weight * rg * levels.opp(None, c, pieces=True)))


def revenue_direct(m):
    """Expected revenue as payments collected plus reserve value retained.

    Payments are the mechanism's payment column, read at the interim
    table's quadrature points and charged where the buyer is asked
    (``_charged``): a NaN price there makes the revenue NaN.  A run that
    shares a column (``m.columns``) sums it once.
    """
    total, columns = _no_sale_quality_integral(m), m.columns
    for i, (tab, pay) in enumerate(columns):
        if not (i and columns[i] is columns[i - 1]):
            W = tab.win[1]
            collected = float(np.sum(tab.weight * tab.f * W * _charged(pay, W)))
        total += collected
    return total


def revenue_virtual(m):
    """Expected revenue as reserve value plus allocated virtual surplus.

    Buyer i's virtual surplus density is f * w * opp * A - f * opp * C
    with f * w = b * f - b' * (1 - F), the cdf F linear and the density f
    constant on each type cell; integrating the payments by parts gives
    the same, so the routes must agree.  A run that shares an interim
    table integrates it once.
    """
    qm, val, tables = m.inst.quality, m.inst.valuation, m.tables
    total = float(np.trapezoid(qm.integrands[2], qm.G.grid))
    for i, (d, tab) in enumerate(zip(m.inst.buyers, tables)):
        if not (i and tab is tables[i - 1]):
            X, _, Y = tab.win
            fw = tab.f * val.type_factor(tab.t)
            fw -= val.type_factor_deriv(tab.t) * (1.0 - dist.cdf(d, tab.t))
            allocated = float(np.sum(tab.weight * (fw * X - tab.f * Y)))
        total += allocated
    return total


# ---------------------------------------------------------------------------
# simulation

_SAMPLE_BLOCK = 32_768  # samples per block: a block's arrays stay cache-sized


class SimulationReport(dist._Record):
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

    @property
    def sale_frequency(self):
        return 1.0 - self.allocation_frequency[0]


def _usable_cores():
    """Cores this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(work, n_blocks):
    """Call work(b) for each block b < n_blocks, on one thread per usable core.

    The calling thread takes blocks too, and runs them all when there is
    one block or one core.  After a block raises, no thread starts
    another, and the first exception is raised here once all have stopped.
    """
    workers = min(n_blocks, _usable_cores())
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    errors = []

    def run():
        while not errors:
            with lock:
                b = next(blocks, None)
            if b is None:
                return
            try:
                work(b)
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers - 1)]
    for t in threads:
        t.start()
    run()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def simulate(m, n_samples, seed):
    """Monte-Carlo run of a mechanism; reproducible for a fixed seed.

    Types and quality are drawn from the mechanism's instance ``m.inst``
    by quantile transform, from independent child streams of one seed
    sequence.  The samples run in blocks of ``_SAMPLE_BLOCK``, on one
    thread per usable core; a block advances each stream to its first
    sample, so it draws exactly the stretch that one draw of the whole
    stream would, and reports are bit-identical whatever the block size
    or the number of cores.  Every read-only table is built once per
    call and shared by the blocks: each stream's cdf guide, the
    differences of every column read in a cell, and each buyer's payment
    tables and column guide, once for a run that shares them.  A stream's
    draws go through one cdf cell lookup, and each value is read at its
    cells k and fractions w only where it is used: xi and each buyer's
    threshold level at every sample, the reserve where the item is kept,
    a winner's type, alpha and payment at that buyer's wins.  The payment's column interval
    comes from the guide entry of the winner's cell and sub-bucket.
    """
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    if n_samples <= 0:
        raise ValidationError("n_samples must be positive")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    inst = m.inst
    qm, n = inst.quality, inst.n_buyers
    children = np.random.SeedSequence(seed).spawn(n + 1)
    dists = (*inst.buyers, qm.G)
    streams = _per_run(dists, lambda i: dist._cdf_guide(dists[i].cdf_vals))
    levels = [(c.phi_ironed, np.diff(c.phi_ironed)) for c in m.curves]
    grids = [(d.grid, np.diff(d.grid)) for d in inst.buyers]
    xi, reserve, alpha = ((c.vals, np.diff(c.vals)) for c in (qm.xi, qm.reserve, qm.alpha))
    columns = m.columns
    guides = _per_run(columns, lambda i: _column_guide(*columns[i], inst.buyers[i].grid))
    index_type = np.min_scalar_type(-n)  # the smallest that holds -1 and each buyer
    n_blocks = -(-n_samples // _SAMPLE_BLOCK)
    revenue = np.empty(n_samples)
    wins = np.zeros((n_blocks, n + 1), dtype=np.intp)
    surplus = [[np.empty(0)] * n_blocks for _ in range(n)]  # value - pay at each buyer's wins

    def block(b):
        lo = b * _SAMPLE_BLOCK
        hi = min(lo + _SAMPLE_BLOCK, n_samples)

        def cell(guide, child):
            bits = np.random.PCG64(child).advance(lo)  # one output per double
            return dist._cdf_cell(guide, np.random.Generator(bits).random(hi - lo))

        cells = [cell(guide, child) for guide, child in zip(streams, children)]
        kq, wq = cells.pop()
        # each level is read when the leader loop reaches it, and xi after
        # them all, so the block never holds these columns side by side
        reads = (dist._cell_read(*col, k, w) for col, (k, w) in zip(levels, cells))
        winners = _winners(reads, lambda: dist._cell_read(*xi, kq, wq), index_type)
        rev = revenue[lo:hi]

        def quality_at(col, idx):
            return dist._cell_read(*col, kq[idx], wq[idx])

        def sell(i, won):
            """Charge buyer i at the samples it wins; its reads die on return."""
            k, w = (a[won] for a in cells[i])
            t = dist._cell_read(*grids[i], k, w)
            pay = _payment_at(*columns[i], t, guides[i], (k, w))
            rev[won] = pay
            surplus[i][b] = inst.valuation.type_factor(t) * quality_at(alpha, won) - pay

        kept = np.flatnonzero(winners < 0)
        wins[b, 0] = kept.size
        rev[kept] = quality_at(reserve, kept)
        for i in range(n):
            won = np.flatnonzero(winners == i)
            wins[b, i + 1] = won.size
            if won.size:
                sell(i, won)

    _run_blocks(block, n_blocks)

    counts = wins.sum(axis=0)
    alloc_freq = [float(k) / n_samples for k in counts]
    utility_mean = [
        float(np.sum(np.concatenate(s))) / n_samples if k else 0.0
        for s, k in zip(surplus, counts[1:])
    ]
    mean = float(np.mean(revenue))
    se = float(np.std(revenue, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return SimulationReport(
        n_samples=int(n_samples),
        seed=int(seed),
        revenue_mean=mean,
        revenue_stderr=se,
        per_buyer_utility_mean=tuple(utility_mean),
        allocation_frequency=tuple(alloc_freq),
    )


# ---------------------------------------------------------------------------
# benchmark: quality-blind auction (no disclosure, constant quality curves)


class QualityBlindBaseline(dist._Record):
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
        tables = zip(self.type_grids, self.phi_tables)
        levels = np.column_stack([np.interp(types[:, i], g, p) for i, (g, p) in enumerate(tables)])
        winners = np.argmax(levels, axis=1)
        best = levels[np.arange(levels.shape[0]), winners]
        return np.where(best >= self.xi_bar, winners, -1)


def myerson_baseline(inst):
    """Build the quality-blind benchmark from first principles.

    Deliberately shares no code with the mechanism construction: virtual
    values, the allocation rule, and the revenue quadrature are inlined
    here so the benchmark is an independent witness.  Requires constant
    alpha and reserve, regular buyers and the linear form, read off the
    valuation's values: b(t) = t and b'(t) = 1 on every type grid.
    """
    qm = inst.quality
    for name, curve in (("alpha", qm.alpha), ("reserve", qm.reserve)):
        if float(np.max(curve.vals) - np.min(curve.vals)) > 1e-12:
            raise ValidationError(
                f"quality-blind benchmark needs a constant {name} curve"
            )
    for d in inst.buyers:
        b = np.asarray(inst.valuation.type_factor(d.grid), dtype=float)
        bp = np.asarray(inst.valuation.type_factor_deriv(d.grid), dtype=float)
        if np.max(np.abs(b - d.grid)) > 1e-12 or np.max(np.abs(bp - 1.0)) > 1e-12:
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


class ConstantPriceBaseline(dist._Record):
    """Best single posted price with a public pass/fail quality signal."""

    price: float
    cutoff: float
    revenue: float


_CUTOFF_TIE_RTOL = 1e-12
CONSTANT_PRICE_GRID = 241  # coarse price grid, refined once around its best point
_PRICE_BLOCK = 16_384  # entries per (sides x cutoffs x prices) block: bounds the sweep's memory


def _no_buyer_chance(buyers, x):
    """Chance that no buyer's type clears x, the price over the mean alpha, written over x.

    ``buyers`` pairs each buyer's distribution with b on its grid; x is a
    float array of any shape, returned.  A buyer buys when b(t) >= x, so
    each factor is F at the smallest type whose b clears x, and exactly 1
    where no type clears it (the cdf's exact end); the factors are
    multiplied in buyer order, in place.
    """
    prob = None
    for d, b_vals in buyers:
        # smallest type whose expected value clears each price, the top type above b's range
        f_tau = np.interp(np.interp(x, b_vals, d.grid), d.grid, d.cdf_vals)
        prob = f_tau if prob is None else np.multiply(prob, f_tau, out=prob)
    x[...] = prob
    return x


def _constant_price_sides(A1, B1, C1, A_tot, C_tot):
    """Each side's mass m, mean alpha and retained value r, by cutoff.

    A1, B1 and C1 hold the quality side's A, B and C at each cutoff, A_tot
    and C_tot over the whole support; row 0 is the side xi(q) <= cutoff.
    A side of mass at most 1e-12 is unseen: its m, mean alpha and r are 0.
    """
    mass, alpha_sum = np.stack((B1, 1.0 - B1)), np.stack((A1, A_tot - A1))
    seen = mass > 1e-12
    alpha_mean = np.where(seen, alpha_sum / np.where(seen, mass, 1.0), 0.0)
    retained = np.where(seen, np.stack((C1, C_tot - C1)), 0.0)
    return np.where(seen, mass, 0.0), alpha_mean, retained


def _constant_price_block(buyers, prices, alpha_mean, mass, retained):
    """Revenues, cutoffs by prices: p (1 - P0) m + P0 r on the low side plus the high side.

    ``alpha_mean``, ``mass`` and ``retained`` hold the two sides' rows,
    by cutoff.  P0, the chance that no buyer buys, is read at the price
    over the side's mean alpha, and at x = inf for a side whose mean is
    not positive, where it is exactly 1: such a side adds 0 m + 1 r, an
    exact 0 where it is unseen and r where it is seen but sells to nobody.
    The revenues keep the bits of the per-cutoff sum over the seen sides.
    """
    a = alpha_mean[:, :, None]
    x = np.full((2, a.shape[1], prices.size), np.inf)
    P0 = _no_buyer_chance(buyers, np.divide(prices, a, out=x, where=a > 0.0))
    side = prices * (1.0 - P0) * mass[:, :, None] + P0 * retained[:, :, None]
    return side[0] + side[1]


def best_constant_price(inst):
    """Grid-search the best constant posted price and binary disclosure cutoff.

    The search is exhaustive over quality-grid cutoffs and a price grid
    with one local refinement, so the reported revenue is a lower bound
    on what this restricted family can achieve; the family itself is
    incentive compatible, hence never better than the optimal mechanism.
    Cutoffs whose revenues agree to a relative 1e-12 count as tied, and
    the lowest tied cutoff is reported, so the choice does not hinge on
    rounding.  Each sweep runs blocks of cutoffs against the whole price
    grid, both sides of a block at most ``_PRICE_BLOCK`` entries.

    With a constant alpha (every ``alpha.vals`` equal) both sweeps price
    only the lowest cutoff, the announcement that discloses nothing: no
    announcement moves a buyer's value alpha b(t), so every cutoff earns
    p (1 - P0) + P0 C_tot in exact arithmetic and ties with the lowest,
    the one the tie rule reports.  Side means are no test of this: a
    constant alpha on a table whose mass is not exactly 1 gives means
    that differ in their last bits.
    """
    table = inst.quality.level_table
    buyers = [(d, inst.valuation.type_factor(d.grid)) for d in inst.buyers]
    # every distinct xi value, and one cutoff below and one above them all
    cutoffs = np.concatenate(([table.breaks[0] - 1.0], table.breaks, [table.breaks[-1] + 1.0]))
    alpha = inst.quality.alpha.vals
    if np.all(alpha == alpha[0]):
        cutoffs = cutoffs[:1]  # every cutoff ties with the lowest, which discloses nothing
    # the swept cutoffs, then one above xi everywhere: A and C over the whole support
    A1, B1, C1 = table.at(np.append(cutoffs, table.breaks[-1] + 1.0))
    mass, alpha_mean, retained = _constant_price_sides(A1[:-1], B1[:-1], C1[:-1], A1[-1], C1[-1])
    alpha_max = float(np.max(alpha))
    p_hi = max(float(np.max(b_vals)) for _, b_vals in buyers) * alpha_max
    prices = np.linspace(0.0, p_hi, CONSTANT_PRICE_GRID)

    def sweep(price_grid, best=None):
        top = np.empty(cutoffs.size)
        arg = np.empty(cutoffs.size, dtype=int)
        rows = max(1, _PRICE_BLOCK // (2 * price_grid.size))  # a cutoff prices both its sides
        for lo in range(0, cutoffs.size, rows):
            blk = slice(lo, lo + rows)
            revs = _constant_price_block(
                buyers, price_grid, alpha_mean[:, blk], mass[:, blk], retained[:, blk]
            )
            arg[blk] = np.argmax(revs, axis=1)
            top[blk] = revs[np.arange(revs.shape[0]), arg[blk]]
        peak = float(np.max(top))
        if best is not None and peak <= best[2] + _CUTOFF_TIE_RTOL * abs(best[2]):
            return best
        k = int(np.argmax(top >= peak - _CUTOFF_TIE_RTOL * abs(peak)))
        return (float(price_grid[arg[k]]), float(cutoffs[k]), float(top[k]))

    best = sweep(prices)

    # one refinement pass around the best price
    step = prices[1] - prices[0]
    fine = np.linspace(max(best[0] - step, 0.0), best[0] + step, 81)
    best = sweep(fine, best)

    return ConstantPriceBaseline(price=best[0], cutoff=best[1], revenue=best[2])
