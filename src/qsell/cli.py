"""Command-line front end.

Subcommands: solve, simulate, verify, compare, info.  Instances are
described by schema-versioned JSON config files; outputs are JSON or
CSV.  Exit codes: 0 success, 2 unusable config, 3 modeling-assumption
violation, 4 verification outside tolerance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import dist
from .errors import AssumptionViolationError, EngineError, ValidationError
from .info import _partition_rows, classify_structure, partition_summary_csv
from .mechanism import (
    GeneralValuation,
    LinearValuation,
    ProblemInstance,
    _once_per_distinct,
    _threshold_curves,
    build_optimal_mechanism,
    make_quality_model,
    mechanism_to_json_dict,
    write_mechanism_csv,
)
from .revenue import (
    best_constant_price,
    myerson_baseline,
    revenue_direct,
    revenue_virtual,
    simulate,
)
from .verify import check_feasibility, ic_deviation_search, obedience_check

__all__ = ["main", "load_instance"]

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# config parsing


class ConfigError(ValueError):
    pass


def _build_distribution(spec, grid_override=None):
    family = spec.get("family")
    if family == "uniform":
        m = int(grid_override if grid_override is not None else spec.get("m", 1024))
        return dist.make_uniform(float(spec["lo"]), float(spec["hi"]), m=m)
    if family == "table":
        return dist.make_from_table(
            np.asarray(spec["grid"], dtype=float),
            np.asarray(spec["pdf"], dtype=float),
        )
    raise ConfigError(f"unknown distribution family: {family!r}")


class _Power(NamedTuple):
    """t -> coeff * t ** expo, compared by value (a lambda compares by identity)."""

    coeff: float
    expo: float

    def __call__(self, t):
        return self.coeff * np.asarray(t, dtype=float) ** self.expo


def _build_curve(spec):
    """Returns a scalar or callable usable by make_quality_model."""
    family = spec.get("family")
    if family == "constant":
        return float(spec["value"])
    if family == "linear":
        intercept = float(spec.get("intercept", 0.0))
        slope = float(spec.get("slope", 0.0))
        return lambda q: intercept + slope * np.asarray(q, dtype=float)
    if family == "power":
        return _Power(float(spec.get("coeff", 1.0)), float(spec["exponent"]))
    if family == "table":
        grid = np.asarray(spec["grid"], dtype=float)
        vals = np.asarray(spec["values"], dtype=float)
        return dist.GriddedFunction(grid, vals)
    raise ConfigError(f"unknown curve family: {family!r}")


def _build_valuation(spec):
    """v = b(t) * alpha(q): linear has b(t) = t, power has b(t) = t ** exponent."""
    kind = spec.get("kind", "linear")
    if kind == "linear":
        return LinearValuation()
    if kind == "power":
        expo = float(spec["exponent"])
        if expo <= 0.0:
            raise ConfigError("power valuations need a positive exponent")
        return GeneralValuation(
            type_factor=_Power(1.0, expo), type_factor_deriv=_Power(expo, expo - 1.0)
        )
    raise ConfigError(f"unknown valuation kind: {kind!r}")


def load_instance(path, grid_override=None):
    """Parse a config file into a ProblemInstance; raises ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    try:
        if doc.get("schema_version") != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version: {doc.get('schema_version')!r}"
            )
        # buyers whose specs are equal dicts share one distribution object
        buyers = tuple(_once_per_distinct(
            (b["distribution"] for b in doc["buyers"]),
            lambda spec: _build_distribution(spec, grid_override),
        ))
        if not buyers:
            raise ConfigError("config lists no buyers")
        qspec = doc["quality"]
        G = _build_distribution(qspec["distribution"], grid_override)
        qm = make_quality_model(
            G, _build_curve(qspec["alpha"]), _build_curve(qspec["reserve"])
        )
        valuation = _build_valuation(doc.get("valuation", {"kind": "linear"}))
        return ProblemInstance(buyers=buyers, quality=qm, valuation=valuation)
    except ConfigError:
        raise
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed config: {exc!r}") from exc


def _check_out_file(path, flag):
    """Reject an output file that could not be written, before any solve."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"{flag} must name a file in an existing directory, got {path}")


def _write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args):
    _check_out_file(args.out, "--out")
    if args.csv_dir and not os.path.isdir(args.csv_dir):
        raise ConfigError(f"--csv-dir must be an existing directory, got {args.csv_dir}")
    inst = load_instance(args.config, args.grid)
    m = build_optimal_mechanism(inst)
    rev_d = revenue_direct(m)
    rev_v = revenue_virtual(m)
    if args.out:
        _write_json(mechanism_to_json_dict(m), args.out)
    if args.csv_dir:
        write_mechanism_csv(m, lambda i: f"{args.csv_dir}/buyer_{i}.csv")
    print(f"buyers: {inst.n_buyers}")
    print(f"degenerate: {m.degenerate}")
    print(f"reserve_shape: {classify_structure(inst.quality)}")
    for i, (curve, tab) in enumerate(zip(m.curves, m.tables)):
        cutoff = "never" if tab.entry is None else f"{tab.entry:.6f}"
        ivs = ";".join(
            f"{curve.type_grid[a]:.6g}:{curve.type_grid[b]:.6g}"
            for a, b in curve.ironed_intervals
        )
        print(
            f"buyer {i}: regular {curve.regular}"
            f"  cutoff_type {cutoff}"
            f"  ironed_intervals [{ivs}]"
        )
    print(f"revenue_direct: {rev_d:.10f}")
    print(f"revenue_virtual: {rev_v:.10f}")
    if args.out:
        print(f"mechanism written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args):
    _check_out_file(args.out, "--out")
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    inst = load_instance(args.config, args.grid)
    m = build_optimal_mechanism(inst)
    report = simulate(m, n_samples=args.samples, seed=args.seed)
    if args.out:
        _write_json(dataclasses.asdict(report), args.out)
    print(f"samples: {report.n_samples}  seed: {report.seed}")
    print(f"revenue_mean: {report.revenue_mean:.10f} (se {report.revenue_stderr:.2e})")
    print(f"no_sale_frequency: {report.allocation_frequency[0]:.6f}")
    for i, (wf, um) in enumerate(
        zip(report.allocation_frequency[1:], report.per_buyer_utility_mean)
    ):
        print(f"buyer {i}: win_frequency {wf:.6f}  utility_mean {um:.6f}")
    return EXIT_OK


def _cmd_verify(args):
    if args.ic_grid < 2:
        raise ConfigError(f"--ic-grid must be at least 2, got {args.ic_grid}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be a finite number >= 0, got {args.tol}")
    inst = load_instance(args.config, args.grid)
    m = build_optimal_mechanism(inst)
    feas = check_feasibility(m, tol=args.tol)
    ic = ic_deviation_search(m, n_grid=args.ic_grid)
    obed = obedience_check(m)

    ic_tol = max(args.tol, 1e-3)
    checks = [
        (feas.monotonicity_violation <= args.tol,
         f"monotone win weights (violation {feas.monotonicity_violation:.3e})"),
        (feas.envelope_residual <= args.tol,
         f"utility envelope (residual {feas.envelope_residual:.3e})"),
        (feas.boundary_utility <= args.tol,
         f"zero rent at the bottom type (|U| {feas.boundary_utility:.3e})"),
        (feas.probability_violation <= args.tol and feas.largest_fall <= args.tol,
         f"win probabilities in [0,1] (violation {feas.probability_violation:.3e}, "
         f"largest fall {feas.largest_fall:.3e})"),
        (ic.max_regret <= ic_tol,
         f"no profitable misreport (regret {ic.max_regret:.3e})"),
        (obed.min_surplus >= -args.tol,
         f"asked buyers want to buy (min surplus {obed.min_surplus:.3e})"),
    ]
    for passed, text in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    ok = all(passed for passed, _ in checks)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_compare(args):
    _check_out_file(args.out, "--out")
    inst = load_instance(args.config, args.grid)
    rows = []

    t0 = time.perf_counter()
    m = build_optimal_mechanism(inst)
    rev = revenue_direct(m)
    rows.append(("optimal", rev, (time.perf_counter() - t0) * 1e3))

    t0 = time.perf_counter()
    rev_v = revenue_virtual(m)
    rows.append(("optimal-virtual-route", rev_v, (time.perf_counter() - t0) * 1e3))

    try:
        t0 = time.perf_counter()
        base = myerson_baseline(inst)
        rows.append(("quality-blind", base.revenue, (time.perf_counter() - t0) * 1e3))
    except ValidationError:
        pass  # benchmark needs constant quality curves

    t0 = time.perf_counter()
    cp = best_constant_price(inst)
    rows.append(("best-constant-price", cp.revenue, (time.perf_counter() - t0) * 1e3))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mechanism", "revenue", "runtime_ms"])
            for name, r, ms in rows:
                writer.writerow([name, f"{r:.12g}", f"{ms:.3f}"])
    for name, r, ms in rows:
        print(f"{name}: revenue {r:.10f} ({ms:.1f} ms)")
    return EXIT_OK


def _cmd_info(args):
    _check_out_file(args.out, "--out")
    types = None
    if args.types:
        try:
            types = np.asarray([float(x) for x in args.types.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--types must be comma-separated numbers: {exc}") from exc
        if not np.all(np.isfinite(types)):
            raise ConfigError(f"--types must be finite numbers, got {args.types}")
    if args.n_types < 1:
        raise ConfigError(f"--n-types must be at least 1, got {args.n_types}")
    inst = load_instance(args.config, args.grid)
    if not 0 <= args.buyer < inst.n_buyers:
        raise ConfigError(f"buyer index {args.buyer} out of range")
    lo, hi = inst.buyers[args.buyer].grid[[0, -1]]
    if types is not None and not np.all((lo <= types) & (types <= hi)):
        raise ConfigError(f"--types must lie in buyer {args.buyer}'s type support "
                          f"[{lo:g}, {hi:g}], got {args.types}")
    curve = _threshold_curves(inst)[args.buyer]  # no interim or payment table
    rows = _partition_rows(curve, inst.quality, types, args.n_types)
    if args.out:
        partition_summary_csv(rows, args.out)
    print(f"reserve_shape: {classify_structure(inst.quality)}")
    print(f"{'type':>12} {'phi_bar':>12} {'mass':>10} {'post_mean':>10}  segments")
    for row in rows:
        pm = row["posterior_mean"]
        pm_s = "n/a" if np.isnan(pm) else f"{pm:10.6f}"
        print(
            f"{row['type']:12.6f} {row['phi_bar']:12.6f} "
            f"{row['mass']:10.6f} {pm_s:>10}  {row['segment_list']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser():
    """The argument parser, built on the first call and shared after it.

    Each ``parse_args`` returns a fresh namespace, so no call sees the
    flags of another.
    """
    p = argparse.ArgumentParser(
        prog="qsell",
        description="Optimal selling of a quality-differentiated good by "
        "threshold mechanisms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="instance config JSON")
        sp.add_argument(
            "--grid",
            type=int,
            default=None,
            help="override grid size of uniform-family distributions",
        )

    sp = sub.add_parser("solve", help="build the optimal mechanism")
    common(sp)
    sp.add_argument("--out", help="write the mechanism as JSON")
    sp.add_argument("--csv-dir", help="write per-buyer CSV tables here")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("simulate", help="Monte-Carlo run of the mechanism")
    common(sp)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the report as JSON")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("verify", help="feasibility / deviation checks")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--ic-grid", type=int, default=101)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("compare", help="revenue against benchmark sellers")
    common(sp)
    sp.add_argument("--out", help="write the comparison as CSV")
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("info", help="acceptance-set structure per type")
    common(sp)
    sp.add_argument("--buyer", type=int, default=0)
    sp.add_argument("--types", help="comma-separated list of types to probe")
    sp.add_argument("--n-types", type=int, default=21)
    sp.add_argument("--out", help="write the summary as CSV")
    sp.set_defaults(fn=_cmd_info)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolationError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid, sample or type count too large to allocate
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
