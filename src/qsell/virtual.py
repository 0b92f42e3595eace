"""Virtual value curves and their ironing.

Ironing works in quantile space: h(w) = psi(quantile(w)) is linear on
every type cell, so its integral H is piecewise quadratic, and the lower
convex envelope of H is built exactly by a monotone chain over the runs
where psi does not fall, on which H is convex (where the cdf ties, h
jumps, and a drop ends a run).  On the type grid the ironed curve equals
the raw curve outside the flat segments of that envelope and is exactly
the envelope's slope inside them.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import dist
from .errors import ValidationError

__all__ = ["VirtualValueCurve", "iron"]

MONOTONE_SLACK = 1e-9
IRON_GAP_TOL = 1e-9


def _index_pair(pair, size):
    """An ironed interval: two node indices lo <= hi below size."""
    lo, hi = (operator.index(k) for k in pair)
    if not 0 <= lo <= hi < size:
        raise ValidationError(f"ironed interval {list(pair)} is not a node range of the type grid")
    return lo, hi


class VirtualValueCurve(dist._Record):
    """A buyer's (possibly ironed) virtual value curve on their type grid.

    ``ironed_intervals`` is a tuple of (lo_idx, hi_idx) index pairs into
    ``type_grid``; ``phi_ironed`` is constant on each of them and equal to
    ``phi`` everywhere else.  ``regular`` is read off both.  Construction
    checks for a 1-D grid without NaN, finite phi and phi_ironed of its
    length, and intervals that are node ranges.
    """

    type_grid: np.ndarray
    phi: np.ndarray
    phi_ironed: np.ndarray
    ironed_intervals: tuple

    def __post_init__(self):
        grid = dist._as_float_array(self.type_grid, "type_grid")
        object.__setattr__(self, "type_grid", grid)
        for name in ("phi", "phi_ironed"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.shape != grid.shape or not np.isfinite(vals).all():
                raise ValidationError(f"{name} must hold a finite number at each type grid node")
            object.__setattr__(self, name, vals)
        intervals = tuple(_index_pair(pair, grid.size) for pair in self.ironed_intervals)
        object.__setattr__(self, "ironed_intervals", intervals)

    @property
    def regular(self):
        """True when nothing is ironed and phi is non-decreasing, up to a 1e-9 slack."""
        return not self.ironed_intervals and bool(np.all(np.diff(self.phi) >= -MONOTONE_SLACK))

    def phi_at(self, t):
        return dist._read(t, self.type_grid, self.phi)

    def phi_ironed_at(self, t):
        return dist._read(t, self.type_grid, self.phi_ironed)


def _cell_support(cell, L):
    """min of H(w) - L*w over one type cell: (value, contact, d contact/dL).

    On a rising cell H is convex and the contact is where h = L, clamped
    to the cell; on any other cell the lower hull is the chord, so the
    contact is one of its ends.
    """
    f0, f1, H0, H1, h0, h1, s, _, _ = cell
    if s > 0.0 and h0 < L < h1:
        x = (L - h0) / s
        return H0 - L * f0 - 0.5 * x * (L - h0), f0 + x, 1.0 / s
    v0, v1 = H0 - L * f0, H1 - L * f1
    return (v0, f0, 0.0) if v0 <= v1 else (v1, f1, 0.0)


def _bridge(ci, cj):
    """Slope of the common lower tangent of cell ci and a later cell cj.

    g(L) = support_i(L) - support_j(L) rises with L and is quadratic
    between the slopes where a contact reaches a cell end, so the root is
    solved in closed form on the bracketing piece.
    """
    if ci[1] == cj[0] and ci[8] <= cj[7]:
        return ci[8]  # both touch the shared node
    lo = g_lo = None
    for P in sorted(ci[7:] + cj[7:]):
        g = _cell_support(ci, P)[0] - _cell_support(cj, P)[0]
        if g == 0.0:
            return P
        if g > 0.0:
            break
        lo, g_lo = P, g
    else:  # g is linear past every slope; cells that end together meet at any of them
        return lo - g_lo / (cj[1] - ci[1]) if cj[1] > ci[1] else lo
    if lo is None:
        return P - g / (cj[0] - ci[0]) if cj[0] > ci[0] else P
    mid = 0.5 * (lo + P)
    _, wi, ki = _cell_support(ci, mid)
    _, wj, kj = _cell_support(cj, mid)
    g1 = (wj - kj * (mid - lo)) - (wi - ki * (mid - lo))
    g2 = 0.5 * (kj - ki)
    den = g1 + math.sqrt(max(g1 * g1 - 4.0 * g2 * g_lo, 0.0))
    return min(lo - 2.0 * g_lo / den, P) if den > 0.0 else P


def _support(F, H, psi, rate, run, P):
    """min over the run (s, e) of H(w) - P*w at each slope of P: the
    contact is the node of slope P, inside the cell that brackets P, or an end."""
    s, e = run
    j = np.searchsorted(psi[s : e + 1], P) + s  # the first node of slope >= P
    node, k = np.minimum(j, e), np.minimum(np.maximum(j - 1, s), rate.size - 1)
    inner = H[k] - P * F[k] - 0.5 * (P - psi[k]) ** 2 / rate[k]
    return np.where((j > s) & (psi[node] > P), inner, H[node] - P * F[node])


def iron(d, psi):
    """Iron psi, a table on d's type grid or a GriddedFunction on exactly that grid.

    Returns a VirtualValueCurve whose ``phi`` is psi sampled on the grid
    and whose ``phi_ironed`` is the slope of the exact lower convex
    envelope of H(w) = integral of psi(quantile(u)) du at every node a
    flat segment covers.  The envelope is a monotone chain over the runs
    where psi does not fall, on which H is convex.  Each common tangent is
    solved in closed form on two contact cells, found by one vectorized
    bracket over both runs' node slopes when the runs are long.  Flats
    whose envelope sits no more than 1e-9 below H are left alone, unless
    they cover a tie of the cdf.  Both tables are new, and read-only.
    """
    if isinstance(psi, dist.GriddedFunction):
        if not dist._same_grid(psi.grid, d.grid):
            raise ValidationError("psi must be tabulated on the distribution's grid")
        psi_vals = psi.vals
    else:
        psi_vals = np.asarray(psi, dtype=float)
        if psi_vals.size != d.grid.size:
            raise ValidationError("psi table must match the distribution grid")
    phi_ironed = psi_vals.copy()
    intervals = []
    rise = np.diff(psi_vals)

    if np.any(rise < 0.0):
        F, m = d.cdf_vals, psi_vals.size
        dF = np.diff(F)
        H = np.concatenate(([0.0], np.cumsum(0.5 * (psi_vals[1:] + psi_vals[:-1]) * dF)))
        width = np.where(dF > 0.0, dF, 1.0)
        s = np.where(dF > 0.0, np.maximum(rise, 0.0) / width, 0.0)  # a tied cell is one point
        moves, chord = (s > 0.0) | (dF == 0.0), np.diff(H) / width
        # A cell: (F, F', H, H', h, h', slope of h if rising else 0,
        # lowest and highest slope at which its contact moves, or at which
        # a tied cell's one point is the contact as h jumps).
        table = np.stack((F[:-1], F[1:], H[:-1], H[1:], psi_vals[:-1], psi_vals[1:], s,
                          np.where(moves, psi_vals[:-1], chord), np.where(moves, psi_vals[1:], chord)))
        rate = np.where(s > 0.0, s, np.inf)
        zero = np.concatenate(([False], dF == 0.0, [False]))  # zero[k]: cell k - 1 is tied

        # Runs end where psi falls, a drop of h at a tie included.  A lone
        # node inside sits where H is concave, off the envelope.
        falls = np.flatnonzero(rise < 0.0)
        runs = [(a, b) for a, b in zip([0, *(falls + 1).tolist()], [*falls.tolist(), m - 1])
                if b > a or a in (0, m - 1)]

        def cell(run, k):
            """Cell k of a run.  A lone end node reads as its falling end
            cell, or as the node alone where h jumps beside that cell or
            where the grid has no other cell."""
            k = min(k, m - 2)
            if run[0] < run[1] or (m > 2 and not zero[k : k + 3].any()):
                return tuple(table[:, k].tolist())
            f, h, v = F[run[0]], H[run[0]], psi_vals[run[0]]
            return (f, f, h, h, v, v, 0.0, v, v)

        def tangent(A, B):
            (a0, a1), (b0, b1) = A, B
            i, j = max(a1 - 1, a0), b0
            if a1 - a0 + b1 - b0 > 8:
                # Over 8 cells: g(P) = support_A(P) - support_B(P) rises with
                # P, so bracket its root by the node slopes to start the step
                # at the contact cells.
                sa, sb = psi_vals[a0 : a1 + 1], psi_vals[b0 : b1 + 1]
                P = np.sort(np.concatenate((sa, sb)))
                g = _support(F, H, psi_vals, rate, A, P) - _support(F, H, psi_vals, rate, B, P)
                k = int(np.count_nonzero(g < 0.0))
                if k < P.size:
                    i = min(max(a0 - 1 + int(np.searchsorted(sa, P[k])), a0), i)
                if k:
                    j = max(min(b0 - 1 + int(np.searchsorted(sb, P[k - 1], "right")), b1 - 1), j)
            # Step A's cell back and B's on while the tangent leaves one at its far end.
            while True:
                ci, cj = cell(A, i), cell(B, j)
                L = _bridge(ci, cj)
                if i > a0 and L <= ci[7]:
                    i -= 1
                elif j < b1 - 1 and L >= cj[8]:
                    j += 1
                else:
                    return L, ci, cj

        # Monotone chain over runs: pop the top while the tangent into it
        # is at least as steep as the tangent from it to the new run.
        stack = [(runs[0], None, None, None)]
        for R in runs[1:]:
            L, ci, cj = tangent(stack[-1][0], R)
            while len(stack) > 1 and stack[-1][1] >= L:
                stack.pop()
                L, ci, cj = tangent(stack[-1][0], R)
            stack.append((R, L, ci, cj))

        ironed = np.zeros(m, dtype=bool)
        for (A, _, _, _), (B, L, ci, cj) in zip(stack[:-1], stack[1:]):
            c0, a, _ = _cell_support(ci, L)
            b = _cell_support(cj, L)[1]
            if b <= a:
                continue
            # Nodes past A's contact (a, L) and before B's (b, L) in (F, psi)
            # order, so a tied node at a contact joins when its psi lies past
            # L; an edge node belongs to the flat.
            fa, pa = F[A[0] : A[1] + 1], psi_vals[A[0] : A[1] + 1]
            fb, pb = F[B[0] : B[1] + 1], psi_vals[B[0] : B[1] + 1]
            up_to_a = np.count_nonzero((fa < a) | ((fa == a) & (pa <= L)))
            before_b = np.count_nonzero((fb < b) | ((fb == b) & (pb < L)))
            lo = 0 if a <= F[0] else A[0] + int(up_to_a)
            hi = m - 1 if b >= F[-1] else B[0] - 1 + int(before_b)
            if hi < lo:
                continue
            # H at those nodes and at the midpoints of the cells between
            # them: a falling end cell bulges above the flat only inside.  A
            # drop of h at a tie bulges H by next to nothing, however deep.
            w = np.append(F[lo : hi + 1], F[lo:hi] + 0.5 * dF[lo:hi])
            half = dF[lo:hi] * (3.0 * psi_vals[lo:hi] + psi_vals[lo + 1 : hi + 1]) / 8.0
            gap = np.max(np.append(H[lo : hi + 1], H[lo:hi] + half) - (c0 + L * w))
            if gap <= IRON_GAP_TOL and not zero[lo + 1 : hi + 1].any():
                continue
            phi_ironed[lo : hi + 1] = L
            ironed[lo : hi + 1] = True
            intervals.append((lo, hi))

        if zero.any():
            # H does not see the order inside a tied group: keep each group
            # rising between its end values (open at the grid's ends), then
            # read the intervals back as constant stretches of changed nodes.
            groups = zip(np.flatnonzero(zero[1:] & ~zero[:-1]), np.flatnonzero(zero[:-1] & ~zero[1:]))
            for k0, k1 in groups:
                v = phi_ironed[k0 : k1 + 1]
                fixed = np.clip(v, v[0] if k0 else -np.inf, v[-1] if k1 < m - 1 else np.inf)
                fixed = np.maximum.accumulate(fixed)
                ironed[k0 : k1 + 1] |= fixed != v
                v[:] = fixed
            new = ironed & np.concatenate(([True], (phi_ironed[1:] != phi_ironed[:-1]) | ~ironed[:-1]))
            end = ironed & np.concatenate((new[1:] | ~ironed[1:], [True]))
            intervals = list(zip(np.flatnonzero(new).tolist(), np.flatnonzero(end).tolist()))

    return VirtualValueCurve(
        type_grid=d.grid,
        phi=dist._frozen(psi_vals.copy()),
        phi_ironed=dist._frozen(phi_ironed),
        ironed_intervals=intervals,
    )
