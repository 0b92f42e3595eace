"""Virtual values, regularity detection, and ironing.

Ironing works in quantile space: h(w) = psi(quantile(w)) is linear on
every type cell, so its integral H is piecewise quadratic, and the lower
convex envelope of H is built exactly by a monotone chain over the cells.
On the type grid the ironed curve equals the raw curve outside the flat
segments of that envelope and is exactly the envelope's slope inside them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import dist
from .errors import ValidationError

__all__ = [
    "VirtualValueCurve",
    "virtual_value",
    "virtual_value_table",
    "is_regular",
    "iron",
]

MONOTONE_SLACK = 1e-9
IRON_GAP_TOL = 1e-9


def _index_pair(pair, size):
    """An ironed interval: two node indices lo <= hi below size."""
    lo, hi = (operator.index(k) for k in pair)
    if not 0 <= lo <= hi < size:
        raise ValidationError(f"ironed interval {list(pair)} is not a node range of the type grid")
    return lo, hi


@dataclass(frozen=True)
class VirtualValueCurve:
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
    __eq__ = dist._equal_fields

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


def virtual_value(d, t):
    """phi(t) = t - (1 - F(t)) / f(t) from the gridded cdf and pdf."""
    t_arr = np.asarray(t, dtype=float)
    out = t_arr - (1.0 - dist.cdf(d, t_arr)) / dist.pdf(d, t_arr)
    return float(out) if out.ndim == 0 else out


def virtual_value_table(d):
    """phi evaluated at every node of d's grid."""
    return d.grid - (1.0 - d.cdf_vals) / d.pdf_vals


def is_regular(d):
    """True when phi is non-decreasing on the grid, up to a 1e-9 slack."""
    return bool(np.all(np.diff(virtual_value_table(d)) >= -MONOTONE_SLACK))


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
    else:
        return lo - g_lo / (cj[1] - ci[1])
    if lo is None:
        return P - g / (cj[0] - ci[0])
    mid = 0.5 * (lo + P)
    _, wi, ki = _cell_support(ci, mid)
    _, wj, kj = _cell_support(cj, mid)
    g1 = (wj - kj * (mid - lo)) - (wi - ki * (mid - lo))
    g2 = 0.5 * (kj - ki)
    den = g1 + math.sqrt(max(g1 * g1 - 4.0 * g2 * g_lo, 0.0))
    return min(lo - 2.0 * g_lo / den, P) if den > 0.0 else P


def iron(d, psi):
    """Iron psi, a table on d's type grid or a GriddedFunction on exactly that grid.

    Returns a VirtualValueCurve whose ``phi`` is psi sampled on the grid
    and whose ``phi_ironed`` is the slope of the exact lower convex
    envelope of H(w) = integral of psi(quantile(u)) du at every node a
    flat segment covers.  Flats whose envelope sits no more than 1e-9
    below H are left alone.  Both tables are new, and read-only.
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

    if np.any(np.diff(psi_vals) < 0.0):
        F = d.cdf_vals
        dF = np.diff(F)
        H = np.concatenate(([0.0], np.cumsum(0.5 * (psi_vals[1:] + psi_vals[:-1]) * dF)))
        width = np.where(dF > 0.0, dF, 1.0)  # zero-width cells are dropped below
        s = np.maximum(np.diff(psi_vals), 0.0) / width
        chord = np.diff(H) / width
        lam_lo = np.where(s > 0.0, psi_vals[:-1], chord)
        lam_hi = np.where(s > 0.0, psi_vals[1:], chord)
        # A cell: (F, F', H, H', h, h', slope of h if rising else 0,
        # lowest and highest slope at which its contact moves).
        cells = list(zip(F[:-1].tolist(), F[1:].tolist(), H[:-1].tolist(), H[1:].tolist(),
                         psi_vals[:-1].tolist(), psi_vals[1:].tolist(), s.tolist(),
                         lam_lo.tolist(), lam_hi.tolist()))
        cells = [c for c, w in zip(cells, dF) if w > 0.0]

        # Monotone chain over cells: pop the top while the tangent into it
        # is at least as steep as the tangent from it to the new cell.
        stack = []
        for c in cells:
            L = None
            while stack:
                L = _bridge(stack[-1][0], c)
                if len(stack) > 1 and stack[-1][1] >= L:
                    stack.pop()
                else:
                    break
            stack.append((c, L))

        m = F.size
        for (ci, _), (cj, L) in zip(stack[:-1], stack[1:]):
            c0, a, _ = _cell_support(ci, L)
            b = _cell_support(cj, L)[1]
            if b <= a:
                continue
            # Nodes strictly inside the flat; an edge node belongs to it.
            lo = 0 if a <= F[0] else int(np.searchsorted(F, a, side="right"))
            hi = m - 1 if b >= F[-1] else int(np.searchsorted(F, b, side="left")) - 1
            if hi < lo:
                continue
            # H at those nodes and at the midpoints of the cells between
            # them: a falling end cell bulges above the flat only inside.
            w = np.append(F[lo : hi + 1], F[lo:hi] + 0.5 * dF[lo:hi])
            half = dF[lo:hi] * (3.0 * psi_vals[lo:hi] + psi_vals[lo + 1 : hi + 1]) / 8.0
            if np.max(np.append(H[lo : hi + 1], H[lo:hi] + half) - (c0 + L * w)) <= IRON_GAP_TOL:
                continue
            phi_ironed[lo : hi + 1] = L
            intervals.append((lo, hi))

    return VirtualValueCurve(
        type_grid=d.grid,
        phi=dist._frozen(psi_vals.copy()),
        phi_ironed=dist._frozen(phi_ironed),
        ironed_intervals=intervals,
    )
