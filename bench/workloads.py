"""Instance generators for the benchmark workloads.

Every workload is a list of operations, one CLI subcommand call on one
generated config each.  The configs are plain JSON documents in the
schema ``qsell.cli.load_instance`` reads; the program under test sees
nothing but these files.  The seed changes shape parameters only, never
which subcommands run on which grid sizes, so every seed carries the
same load mix.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1
SIM_SAMPLES = 200_000
CLOSED_FORM_TOL = 1e-4  # the acceptance gate's tolerance on 5/12, 1/4


@dataclass(frozen=True)
class Instance:
    """One generated config plus what the checker knows about it."""

    name: str
    doc: dict
    shape: str  # classify_structure's expected answer: lower / upper / segments
    exact: float | None = None  # closed-form optimal revenue, if known
    constant_quality: bool = False
    posted_price: float | None = None  # closed-form best constant price revenue


@dataclass(frozen=True)
class Op:
    """One subcommand call on one instance."""

    cmd: str
    inst: str
    args: tuple = ()

    @property
    def id(self):
        return f"{self.inst}:{self.cmd}"


@dataclass
class Workload:
    name: str
    instances: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)

    def add(self, inst, cmds):
        self.instances[inst.name] = inst
        for cmd in cmds:
            args = ("--samples", str(SIM_SAMPLES), "--seed", "7") if cmd == "simulate" else ()
            self.ops.append(Op(cmd, inst.name, args))


# ---------------------------------------------------------------------------
# config pieces


def _uniform(m):
    return {"family": "uniform", "lo": 0.0, "hi": 1.0, "m": int(m)}


def _table_dist(grid, pdf):
    return {"family": "table", "grid": grid.tolist(), "pdf": pdf.tolist()}


def _bimodal(m, c1=0.25, c2=0.75, s=0.08):
    """Two equal normal bumps: the virtual value dips between them."""
    x = np.linspace(0.0, 1.0, m)
    pdf = np.exp(-0.5 * ((x - c1) / s) ** 2) + np.exp(-0.5 * ((x - c2) / s) ** 2)
    return _table_dist(x, pdf)


def _rising(m, k):
    """Density proportional to 1 + k t: increasing, so regular."""
    x = np.linspace(0.0, 1.0, m)
    return _table_dist(x, 1.0 + k * x)


def _quality(mq, reserve, alpha=None):
    return {
        "distribution": _uniform(mq),
        "alpha": alpha or {"family": "constant", "value": 1.0},
        "reserve": reserve,
    }


def _const(v):
    return {"family": "constant", "value": float(v)}


def _linear(intercept, slope):
    return {"family": "linear", "intercept": float(intercept), "slope": float(slope)}


def _table_curve(mq, fn):
    q = np.linspace(0.0, 1.0, mq)
    return {"family": "table", "grid": q.tolist(), "values": fn(q).tolist()}


def _v_shape(mq, vertex, depth=0.0, scale=1.0):
    return _table_curve(mq, lambda q: depth + scale * np.abs(q - vertex))


def _steps(mq, edges, levels):
    """Piecewise-constant reserve: flat stretches put atoms into xi."""
    return _table_curve(mq, lambda q: np.asarray(levels)[np.searchsorted(edges, q, side="right")])


def _doc(buyers, quality):
    return {
        "schema_version": SCHEMA_VERSION,
        "buyers": [{"distribution": b} for b in buyers],
        "quality": quality,
    }


# ---------------------------------------------------------------------------
# closed-form canaries


def canary_seven_twelfths(m, mq):
    """One uniform buyer, r(q) = q: revenue 7/12."""
    return Instance(
        f"seven-twelfths-{m}",
        _doc([_uniform(m)], _quality(mq, _linear(0.0, 1.0))),
        shape="lower",
        exact=7.0 / 12.0,
    )


def canary_five_twelfths(m, mq):
    """Two uniform buyers, zero reserve: the classic auction, revenue 5/12."""
    return Instance(
        f"five-twelfths-{m}",
        _doc([_uniform(m), _uniform(m)], _quality(mq, _const(0.0))),
        shape="lower",
        exact=5.0 / 12.0,
        constant_quality=True,
    )


def canary_posted_price(m, mq):
    """One uniform buyer, zero reserve: posted price 1/2 earning 1/4."""
    return Instance(
        f"posted-price-{m}",
        _doc([_uniform(m)], _quality(mq, _const(0.0))),
        shape="lower",
        exact=0.25,
        constant_quality=True,
        posted_price=0.25,
    )


# ---------------------------------------------------------------------------
# workloads


def _grid(m, scale):
    return (m - 1) // scale + 1


def mid_audit(rng, scale):
    """The certification path: verify and compare on mid-size grids.

    The stepped and bimodal + V instances are fixed: they expose known
    defects (a route gap above 1e-4, negative obedience surplus) that
    must stay visible until the program fixes them.
    """
    w = Workload("mid-audit")
    m, mq = _grid(513, scale), _grid(1025, scale)
    slope = rng.uniform(0.8, 1.2)
    for inst in (
        canary_five_twelfths(m, mq),
        Instance(
            f"three-uniform-steps-{m}",
            _doc([_uniform(m)] * 3, _quality(mq, _steps(mq, [0.25, 0.5, 0.75], [0.0, 0.25, 0.5, 0.75]))),
            shape="lower",
        ),
        Instance(
            f"bimodal-uniform-v-{m}",
            _doc([_bimodal(m), _uniform(m)], _quality(mq, _v_shape(mq, 0.5))),
            shape="segments",
        ),
        Instance(
            f"two-uniform-linear-{m}",
            _doc([_uniform(m)] * 2, _quality(mq, _linear(0.0, slope))),
            shape="lower",
        ),
    ):
        w.add(inst, ["compare", "verify"])
    return w


SHAPES = ("up", "down", "v", "step", "sin")
BUYER_COUNTS = (1, 2, 3)
GRIDS = (65, 129, 257)


def coarse_strata(scale=1):
    """Fixed (buyers, grid, xi shape) strata: each shape meets every buyer
    count and every grid size exactly once, so all seeds share one mix."""
    return [
        (BUYER_COUNTS[r], _grid(GRIDS[(r + k) % 3], scale), shape)
        for k, shape in enumerate(SHAPES)
        for r in range(3)
    ]


def _coarse_buyer(rng, m):
    family = rng.choice(["uniform", "bimodal", "rising"])
    if family == "uniform":
        return _uniform(m)
    if family == "bimodal":
        return _bimodal(m, rng.uniform(0.2, 0.35), rng.uniform(0.65, 0.8), rng.uniform(0.06, 0.1))
    return _rising(m, rng.uniform(1.0, 3.0))


def _coarse_reserve(rng, shape, mq):
    if shape == "up":
        return _linear(rng.uniform(0.0, 0.2), rng.uniform(0.6, 1.0)), "lower"
    if shape == "down":
        return _linear(rng.uniform(0.7, 0.9), -rng.uniform(0.5, 0.7)), "upper"
    if shape == "v":
        return _v_shape(mq, rng.uniform(0.35, 0.65), rng.uniform(0.0, 0.1)), "segments"
    if shape == "step":
        edges = np.sort(rng.uniform(0.15, 0.85, size=3))
        levels = np.sort(rng.uniform(0.1, 0.8, size=4))
        return _steps(mq, edges, levels), "lower"
    freq = rng.uniform(1.5, 2.5) * math.pi  # |sin|
    phase = rng.uniform(0.0, math.pi)
    amp = rng.uniform(0.5, 0.8)
    return _table_curve(mq, lambda q: amp * np.abs(np.sin(freq * q + phase))), "segments"


def coarse_sweep(rng, scale):
    """Many small instances: per-call overhead, sampling and parsing dominate."""
    w = Workload("coarse-sweep")
    every = ["solve", "simulate", "verify", "compare", "info"]
    # Canaries first: the warm-up operation is the first one, and a fixed
    # instance keeps the seed out of the set-up time.
    mc = _grid(257, scale)
    for inst in (canary_seven_twelfths(mc, mc), canary_five_twelfths(mc, mc), canary_posted_price(mc, mc)):
        w.add(inst, every)
    for k, (n, m, shape) in enumerate(coarse_strata(scale)):
        reserve, expect = _coarse_reserve(rng, shape, m)
        buyers = [_coarse_buyer(rng, m) for _ in range(n)]
        w.add(Instance(f"sweep{k:02d}-{shape}-n{n}-m{m}", _doc(buyers, _quality(m, reserve)), expect), every)
    return w


WORKLOADS = {"mid-audit": mid_audit, "coarse-sweep": coarse_sweep}


def build(name, seed, scale=1):
    """The workload's instances and operation list for one seed.

    ``scale`` divides every grid's cell count; only the self-test shrinks.
    """
    return WORKLOADS[name](np.random.default_rng([seed, zlib.crc32(name.encode())]), scale)
