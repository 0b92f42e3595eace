"""Shared fixtures: the instance suite used across verification tests.

The suite spans one to three buyers, constant / increasing / decreasing /
V-shaped / inverse-V reserve-ratio curves, and regular as well as
irregular (bimodal) type distributions.
"""

import importlib.util
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import qsell
from qsell.cli import load_instance
from qsell.errors import ValidationError

# Property tests draw the same examples on every run, so the suite's
# verdict does not depend on the run; each test keeps its own settings.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

LEVEL_SHAPES = ["increasing", "decreasing", "v", "plateaued", "wiggly", "repeats"]
BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """``bench/<name>.py`` loaded by file path, as ``qsell_bench_<name>``; nothing is written."""
    spec = importlib.util.spec_from_file_location(f"qsell_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def bench_instances():
    """Every instance of benchmark seeds 1-3, by workload and seed."""
    workloads = load_bench("workloads")
    return {(name, seed): workloads.build(name, seed).instances
            for name in workloads.WORKLOADS for seed in (1, 2, 3)}


def load_bench_instance(inst, tmp_path):
    """A benchmark instance written as its config under tmp_path and loaded as the CLI loads it."""
    path = tmp_path / f"{inst.name}.json"
    path.write_text(json.dumps(inst.doc))
    return load_instance(str(path))


def node_psi(d):
    """The virtual value t - (1 - F(t)) / f(t) at each node of d's grid, from its node tables."""
    return d.grid - (1.0 - d.cdf_vals) / d.pdf_vals


def integrate(f, lo, hi):
    """Composite trapezoid integral of a GriddedFunction over [lo, hi].

    End cells are handled by interpolating the integrand at lo and hi, so
    the bounds need not be grid nodes.  lo > hi is a validation error.
    """
    if np.isnan(lo) or np.isnan(hi):
        raise ValidationError("integration bound is NaN")
    if lo > hi:
        raise ValidationError("integrate() needs lo <= hi")
    g0, g1 = f.grid[0], f.grid[-1]
    if lo < g0 - 1e-9 or hi > g1 + 1e-9:
        raise ValidationError("integration bounds outside the grid span")
    lo = min(max(lo, g0), g1)
    hi = min(max(hi, g0), g1)
    if lo == hi:
        return 0.0
    i0 = np.searchsorted(f.grid, lo, side="right")
    i1 = np.searchsorted(f.grid, hi, side="left")
    xs = np.concatenate(([lo], f.grid[i0:i1], [hi]))
    ys = np.concatenate(([f.value_at(lo)], f.vals[i0:i1], [f.value_at(hi)]))
    return float(np.trapezoid(ys, xs))


def bimodal_density(x, s=0.08):
    """Equal mixture of two normal bumps at 0.25 and 0.75 (irregular)."""
    x = np.asarray(x, dtype=float)
    z = 1.0 / (s * np.sqrt(2.0 * np.pi))
    return 0.5 * z * (
        np.exp(-0.5 * ((x - 0.25) / s) ** 2)
        + np.exp(-0.5 * ((x - 0.75) / s) ** 2)
    )


def make_bimodal(m=1025):
    return qsell.make_from_density(0.0, 1.0, bimodal_density, m=m)


def make_rising_density(m=1025):
    """f(t) = 2t on [0, 1]; density vanishes at 0 and is clamped there."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return qsell.make_from_density(0.0, 1.0, lambda t: 2.0 * np.asarray(t, float), m=m)


def traced_peak(fn):
    """Peak bytes tracemalloc sees allocated during a second call of fn().

    The first call in a process can import modules lazily (numpy.ma, about
    1 MB of module objects), which is no part of fn's working memory.
    """
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counted(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call's arguments."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def level_curve(shape, rng, m):
    """Node values of a level curve of one of ``LEVEL_SHAPES`` on m nodes."""
    x = np.linspace(0.0, 1.0, m)
    if shape == "increasing":
        return np.cumsum(rng.uniform(0.01, 1.0, m))
    if shape == "decreasing":
        return -np.cumsum(rng.uniform(0.01, 1.0, m))
    if shape == "v":
        return np.abs(x - rng.uniform(0.0, 1.0))
    if shape == "plateaued":
        return np.round(x * rng.integers(1, 6)) / 4.0
    if shape == "wiggly":
        return np.abs(np.sin(rng.uniform(3.0, 40.0) * x + rng.uniform(0.0, 3.0)))
    return np.round(rng.uniform(-1.0, 1.0, m), 1)  # random with repeats


def xi_meeting_the_plateau(mq):
    """The 1025-node bimodal buyer and a quality model whose xi meets its plateau level.

    The reserve table (alpha = 1, knots on quality nodes) makes xi rise
    through the plateau level L inside a cell, reach L at a node from
    above, leave it upwards at the same node, fall through it inside a
    cell and rise through it again.
    """
    buyer = make_bimodal(1025)
    vals = qsell.iron(buyer, node_psi(buyer)).phi_ironed
    (L,) = np.unique(vals[:-1][vals[:-1] == vals[1:]])
    table = qsell.GriddedFunction(
        np.linspace(0.0, 1.0, 9),
        L + np.array([-0.2, 0.1, 0.3, 0.0, 0.2, -0.1, -0.3, 0.05, 0.1]),
    )
    qm = qsell.make_quality_model(qsell.make_uniform(0.0, 1.0, m=mq), 1.0, table)
    return buyer, qm, L


def _uniform_quality(m=257):
    return qsell.make_uniform(0.0, 1.0, m=m)


def build_suite():
    """name -> ProblemInstance covering the shapes the checks must span."""
    suite = {}

    # 1 buyer, constant xi == 0, regular
    qm = qsell.make_quality_model(_uniform_quality(), 1.0, 0.0)
    suite["posted-price"] = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),), quality=qm
    )

    # 2 iid buyers, constant xi == 0, regular
    suite["two-uniform"] = qsell.ProblemInstance(
        buyers=(
            qsell.make_uniform(0.0, 1.0, m=1025),
            qsell.make_uniform(0.0, 1.0, m=1025),
        ),
        quality=qm,
    )

    # 1 buyer, increasing xi = q, regular
    qm_inc = qsell.make_quality_model(
        _uniform_quality(513), 1.0, lambda q: np.asarray(q, float)
    )
    suite["reserve-ramp"] = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),), quality=qm_inc
    )

    # 2 heterogeneous buyers, decreasing xi = 1/(1+q), regular
    qm_dec = qsell.make_quality_model(
        _uniform_quality(513), lambda q: 1.0 + np.asarray(q, float), 1.0
    )
    suite["mixed-decreasing"] = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025), make_rising_density(1025)),
        quality=qm_dec,
    )

    # 3 iid buyers, V-shaped xi = |q - 1/2|, regular
    qm_v = qsell.make_quality_model(
        _uniform_quality(513), 1.0, lambda q: np.abs(np.asarray(q, float) - 0.5)
    )
    suite["three-v-shape"] = qsell.ProblemInstance(
        buyers=tuple(qsell.make_uniform(0.0, 1.0, m=513) for _ in range(3)),
        quality=qm_v,
    )

    # 1 irregular (bimodal) buyer, increasing xi = q
    suite["bimodal-ramp"] = qsell.ProblemInstance(
        buyers=(make_bimodal(1025),), quality=qm_inc
    )

    # bimodal + uniform buyers, inverse-V xi (two-piece acceptance sets)
    qm_hat = qsell.make_quality_model(
        _uniform_quality(513),
        2.0,
        lambda q: 2.0 * (0.5 - np.abs(np.asarray(q, float) - 0.5)),
    )
    suite["bimodal-inverse-v"] = qsell.ProblemInstance(
        buyers=(make_bimodal(1025), qsell.make_uniform(0.0, 1.0, m=1025)),
        quality=qm_hat,
    )

    return suite


@pytest.fixture(scope="session")
def suite():
    return build_suite()


@pytest.fixture(scope="session")
def solved_suite(suite):
    return {name: (inst, qsell.build_optimal_mechanism(inst)) for name, inst in suite.items()}


@pytest.fixture(scope="session")
def two_uniform(solved_suite):
    return solved_suite["two-uniform"]


@pytest.fixture(scope="session")
def posted_price(solved_suite):
    return solved_suite["posted-price"]
