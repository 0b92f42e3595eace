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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class IntervalUnion:
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


def acceptance_set(qm, v):
    """Qualities cleared for sale at threshold level v.

    The sublevel set {q : xi(q) <= v} of the quality support, with
    endpoints located by linear interpolation inside grid cells.
    Boundary points with xi(q) = v exactly are included, matching the
    weak inequality used by the allocation rule.  A NaN v raises
    ValidationError.
    """
    qgrid, xi, c = qm.xi.grid, qm.xi.vals, float(dist._validated_query(v))
    # An interval starts in a cell that enters {xi <= c} (a > c >= b) and
    # ends in one that leaves it (a <= c < b), at the crossing on the
    # cell's line; an entry whose right node sits on c starts at that node
    # (the leaving formula gives the left node exactly).
    inside = xi <= c
    k = np.flatnonzero(inside[:-1] != inside[1:])
    a, b, x0, x1 = xi[k], xi[k + 1], qgrid[k], qgrid[k + 1]
    enter = inside[k + 1]
    frac = np.where(enter, (a - c) / (a - b), (c - a) / (b - a))
    t = np.where(enter & (b == c), x1, x0 + frac * (x1 - x0))
    starts = np.append(qgrid[:1] if inside[0] else [], t[enter])
    ends = np.append(t[~enter], qgrid[-1:] if inside[-1] else [])
    if not starts.size:
        return IntervalUnion(intervals=())
    intervals = [(float(a), float(b)) for a, b in zip(starts, ends)]

    # merge intervals that touch through numerical coincidence
    merged = [intervals[0]]
    for a, b in intervals[1:]:
        if a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return IntervalUnion(intervals=tuple(merged))


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
    (NaN when the type is never asked).  Mass and mean come from one
    stacked sublevel integral of g and q * g over every probed level.
    """
    curve = m.curves[_buyer(m, i)]
    if types is None:
        types = np.linspace(curve.type_grid[0], curve.type_grid[-1], n_types)
    types = np.asarray(types, dtype=float)
    levels = curve.phi_ironed_at(types)
    qm = m.inst.quality
    g = qm.G.pdf_vals
    masses, moments = dist.sublevel_integral(
        qm.G.grid, qm.xi.vals, np.stack((g, qm.G.grid * g)), levels, True
    )
    rows = []
    for t, level, mass, moment in zip(types, levels, masses, moments):
        s = acceptance_set(qm, level)
        rows.append(
            {
                "type": float(t),
                "phi_bar": float(level),
                "segment_list": ";".join(
                    f"{a:.12g}:{b:.12g}" for a, b in s.intervals
                ),
                "mass": float(mass),
                "posterior_mean": float(moment / mass) if mass > 1e-15 else math.nan,
            }
        )
    return rows


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
