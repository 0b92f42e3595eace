"""What a purchase recommendation reveals about quality.

Asking a buyer discloses exactly that the quality-adjusted reserve
xi(q) lies below the buyer's threshold level, so the buyer's posterior
over quality is the prior truncated to a sublevel set of xi.  This
module extracts those sets as interval unions, classifies the reserve
curve's shape, and sweeps winner types into a partition summary.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from . import dist
from .errors import ValidationError
from .mechanism import _buyer
from .virtual import MONOTONE_SLACK

__all__ = [
    "IntervalUnion",
    "acceptance_set",
    "classify_structure",
    "partition_summary",
    "partition_summary_csv",
]


class IntervalUnion(dist._Record):
    """Disjoint closed intervals, sorted by left endpoint."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if b < a:
                raise ValidationError("interval endpoints out of order")
        for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise ValidationError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def is_empty(self):
        return not self.intervals

    @property
    def measure(self):
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, q, tol=1e-12):
        q = float(q)
        return any(a - tol <= q <= b + tol for a, b in self.intervals)


_LEVEL_BLOCK = 256  # levels per (levels x cells) pass of _acceptance_sets


def acceptance_set(qm, v):
    """Qualities cleared for sale at threshold level v.

    The sublevel set {q : xi(q) <= v} of the quality support, with
    endpoints located by linear interpolation inside grid cells.
    Boundary points with xi(q) = v exactly are included, matching the
    weak inequality used by the allocation rule.  A NaN v raises
    ValidationError.  This is ``_acceptance_sets`` at one level.
    """
    return _acceptance_sets(qm, [v])[0]


def _acceptance_sets(qm, levels):
    """``acceptance_set`` at each level of a 1-D array, from one (levels x cells) pass.

    A level's interval ends alternate start, end along the grid: a grid
    end inside {xi <= c}, or the crossing on a boundary cell's line (a
    cell entering the set whose right node sits on c starts there).
    Only the merge of intervals that touch by rounding loops per level.
    Levels go _LEVEL_BLOCK at a time, which bounds the pass's memory.
    """
    qgrid, xi = qm.xi.grid, qm.xi.vals
    c = dist._validated_query(levels)
    if c.size > _LEVEL_BLOCK:
        blocks = range(0, c.size, _LEVEL_BLOCK)
        return [s for lo in blocks for s in _acceptance_sets(qm, c[lo:lo + _LEVEL_BLOCK])]
    inside = xi <= c[:, None]
    # an edge j sits before node j: 0 and m are the grid's ends, else cell j - 1
    row, j = np.nonzero(np.diff(inside, axis=1, prepend=False, append=False))
    edges = np.where(j == 0, qgrid[0], qgrid[-1])
    cell = (j > 0) & (j < xi.size)
    r, k = row[cell], j[cell] - 1
    a, b, x0, x1, ck = xi[k], xi[k + 1], qgrid[k], qgrid[k + 1], c[r]
    enter = inside[r, k + 1]
    frac = np.where(enter, (a - ck) / (a - b), (ck - a) / (b - a))
    edges[cell] = np.where(enter & (b == ck), x1, x0 + frac * (x1 - x0))
    bounds = np.searchsorted(row[::2], np.arange(c.size + 1)).tolist()
    starts, ends = edges[::2].tolist(), edges[1::2].tolist()
    sets = []
    for lo, hi in zip(bounds, bounds[1:]):
        merged = []
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            if merged and start <= merged[-1][1] + 1e-15:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        sets.append(IntervalUnion(intervals=tuple(merged)))
    return sets


def classify_structure(qm):
    """Shape class of the quality-adjusted reserve curve.

    "lower" when xi is non-decreasing (every acceptance set starts at
    the bottom of the support), "upper" when non-increasing, and
    "segments" otherwise.  A constant curve counts as "lower".
    """
    steps = np.diff(qm.xi.vals)
    if np.all(steps >= -MONOTONE_SLACK):
        return "lower"
    if np.all(steps <= MONOTONE_SLACK):
        return "upper"
    return "segments"


def partition_summary(m, i=0, types=None, n_types=21):
    """Sweep winner types and tabulate what acceptance reveals.

    One row per type: the threshold level, the acceptance set written
    as "lo:hi" segments, its prior mass, and the posterior mean quality
    (NaN when the type is never asked).  The rows read only buyer i's
    ironed threshold curve and the quality model (``_partition_rows``),
    none of the interim or payment tables.
    """
    return _partition_rows(m.curves[_buyer(m, i)], m.inst.quality, types, n_types)


def _partition_rows(curve, qm, types=None, n_types=21):
    """``partition_summary``'s rows from one threshold curve and a quality model.

    Mass and mean come from one stacked sublevel integral of g and q * g
    over every probed level, the sets from one ``_acceptance_sets`` pass.
    """
    if types is None:
        types = np.linspace(curve.type_grid[0], curve.type_grid[-1], n_types)
    types = np.asarray(types, dtype=float)
    levels = curve.phi_ironed_at(types)
    g = qm.G.pdf_vals
    masses, moments = dist.sublevel_integral(
        qm.G.grid, qm.xi.vals, np.stack((g, qm.G.grid * g)), levels, True
    )
    sets = _acceptance_sets(qm, levels)
    return [
        {
            "type": float(t),
            "phi_bar": float(level),
            "segment_list": ";".join(f"{a:.12g}:{b:.12g}" for a, b in s.intervals),
            "mass": float(mass),
            "posterior_mean": float(moment / mass) if mass > 1e-15 else math.nan,
        }
        for t, level, mass, moment, s in zip(types, levels, masses, moments, sets)
    ]


def partition_summary_csv(rows, path):
    """Write a partition summary to CSV (RFC-4180, 12-significant-digit floats)."""
    fields = ["type", "phi_bar", "segment_list", "mass", "posterior_mean"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("type", "phi_bar", "mass"):
                out[key] = f"{row[key]:.12g}"
            out["posterior_mean"] = (
                "" if math.isnan(row["posterior_mean"])
                else f"{row['posterior_mean']:.12g}"
            )
            writer.writerow(out)
    return path
