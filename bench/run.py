"""Benchmark for qsell: workloads of CLI calls, checked outputs, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload mid-audit --seed 1 --seconds 30 --trace 0

One process is the only client, in a closed loop: each operation (one
subcommand call through ``qsell.cli.main`` on one generated config)
starts when the previous one returns.  A run sets up several times
(import qsell, generate and write the configs, one warm-up operation):
twice at the start, then again between operations whenever the last
set-up took at most ``SETUP_SHARE`` of the time since it ended, which
spreads the samples over the whole run.  It repeats whole passes over the operation list until
``--seconds`` have elapsed; the pass in progress at the deadline is
completed, so every pass holds the same operations.  Fixed reference
slices of work run before every operation; ``wall_ref``, a pass's time
over the mean time of its reference slices, cancels most of the host's
speed swings, which move raw seconds by 15-30 % from one minute to the
next.  For the same reason ``setup_s`` is the median set-up time
rescaled to a host on which one reference slice takes ``REF_SLICE_S``;
``setup_raw_s`` is the median as measured.  With ``--trace 1`` the run alternates an untraced and a traced
pass and reports per-layer metrics instead of end-to-end ones.

Every output is checked (see ``checks.py``).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, where
the metrics are the ones ``BENCHMARK.json`` names for the mode.  The
lines before it print every metric, gated or not, with its unit, sample
count and tail percentile, and a ``report:`` line records the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import mmap
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads
from trace import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SETUP_REPS = 2  # set-ups before the first pass
SETUP_SHARE = 0.15  # then again once the last one is this share of the time since it
REF_SHARE = 0.05  # reference slices before an op: this share of the previous op's time
REF_SLICE_S = 0.01  # nominal seconds of one reference slice, the scale of setup_s
SUBCOMMANDS = ("solve", "simulate", "verify", "compare", "info")
TAIL_SAMPLES = 10  # the tail percentile keeps this many samples beyond it


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# driving the program


def import_cli():
    """Import qsell afresh from the checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "qsell" or n.startswith("qsell.")]:
        del sys.modules[name]
    cli = importlib.import_module("qsell.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported qsell from {cli.__file__}, not from this checkout")
    return cli


def write_configs(workload, directory):
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inst in workload.instances.values():
        paths[inst.name] = directory / f"{inst.name}.json"
        with open(paths[inst.name], "w") as fh:
            json.dump(inst.doc, fh)
    return paths


def run_op(cli, op, path, tracer=None):
    """One subcommand call; exceptions become a failed outcome."""
    out, err = io.StringIO(), io.StringIO()
    argv = [op.cmd, "--config", str(path), *op.args]
    if tracer is not None:
        tracer.op_id, tracer.instance = op.id, op.inst
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the benchmark must go on and count it
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return checks.Outcome(op=op, code=code, stdout=out.getvalue(), seconds=seconds, error=error)


_REF_X = np.linspace(0.0, 1.0, 513)
_REF_PAGES = 1024


def reference_slice():
    """Seconds taken by a fixed piece of work that does not touch qsell.

    Its parts stand for what the operations spend their time on: an
    interpreter loop, a numpy broadcast over cache-sized arrays, and
    fresh pages the kernel must fault in (a mid-audit ``verify`` spends
    about 40 % of its time in the kernel doing that).  Timed before every
    operation, it gauges how fast the host runs at that moment.  Only
    the ratio to it is meant to be compared, and only on one host.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    x = _REF_X
    np.where(x[None, :] > x[:, None], x[None, :] * x[:, None], 0.0).sum(axis=1)
    with mmap.mmap(-1, _REF_PAGES * mmap.PAGESIZE) as pages:
        touched = np.frombuffer(pages, dtype=np.uint8)
        touched[:: mmap.PAGESIZE] = 1
        del touched
    return time.perf_counter() - start


@dataclass
class Pass:
    wall: float  # seconds spent in the operations themselves
    ref: float  # mean seconds of the reference slices interleaved with them
    outcomes: list


class Program:
    """The imported program and its configs, set up again and again."""

    def __init__(self, name, seed, scale, directory):
        self._spec = (name, seed, scale, directory)
        self.setup_times = []
        for _ in range(SETUP_REPS):
            self.setup()

    def setup(self):
        """Import qsell afresh, generate and write the configs, run one warm-up op."""
        name, seed, scale, directory = self._spec
        start = time.perf_counter()
        self.cli = import_cli()
        self.workload = workloads.build(name, seed, scale)
        self.paths = write_configs(self.workload, directory)
        warm = self.workload.ops[0]
        run_op(self.cli, warm, self.paths[warm.inst])
        self.last_setup = time.perf_counter()
        self.setup_times.append(self.last_setup - start)


def run_pass(program, checker, tracer=None):
    """One pass over the operation list with reference slices before each operation.

    The slices before an operation take at least REF_SHARE of the
    previous operation's time, so the host's speed is sampled evenly over
    the pass however long its operations are.  An untraced pass also sets
    the program up again as SETUP_SHARE says.
    """
    slices, outcomes = [], []
    for op in program.workload.ops:
        since = time.perf_counter() - program.last_setup
        if tracer is None and program.setup_times[-1] <= SETUP_SHARE * since:
            program.setup()
        due = REF_SHARE * (outcomes[-1].seconds if outcomes else 0.0)
        spent = 0.0
        while spent == 0.0 or spent < due:
            slices.append(reference_slice())
            spent += slices[-1]
        outcomes.append(checker.check(run_op(program.cli, op, program.paths[op.inst], tracer)))
    return Pass(sum(o.seconds for o in outcomes), statistics.mean(slices), outcomes)


# ---------------------------------------------------------------------------
# statistics and metrics


def timing(values):
    """Median, sample count and the highest percentile with TAIL_SAMPLES beyond it.

    The tail is left out while it would not lie above the median.
    """
    values = sorted(values)
    n = len(values)
    tail = None
    if n > 2 * TAIL_SAMPLES:
        k = n - TAIL_SAMPLES - 1
        tail = (round(100.0 * (k + 1) / n, 1), values[k])
    return {"value": statistics.median(values), "n": n, "tail": tail}


def end_to_end(setup_times, passes, outcomes, workload):
    scale = REF_SLICE_S / statistics.mean(p.ref for p in passes)
    metrics = {
        "setup_s": (timing([t * scale for t in setup_times]), "s"),
        "setup_raw_s": (timing(setup_times), "s"),
        "wall_s": (timing([p.wall for p in passes]), "s"),
        "wall_ref": (timing([p.wall / p.ref for p in passes]), "1"),
    }
    for cmd in SUBCOMMANDS:
        lat = [o.seconds for o in outcomes if o.op.cmd == cmd]
        if lat:
            metrics[f"{cmd}_s"] = (timing(lat), "s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = ({"value": rss, "n": 1, "tail": None}, "MB")
    for name, (value, unit) in checks.accuracy_metrics(workload, outcomes).items():
        if value is not None:
            metrics[name] = ({"value": value, "n": 1, "tail": None}, unit)
    failed = sum(o.failed for o in outcomes)
    metrics["ops_failed_frac"] = ({"value": failed / len(outcomes), "n": len(outcomes), "tail": None}, "1")
    return metrics


def _unit(key):
    if key.endswith("_s"):
        return "s"
    if key == "peak_mb":
        return "MB"
    if key in ("useful_ratio", "overhead_frac"):
        return "1"
    return "count"


def per_layer(tracer, n_traced, traced_walls, untraced_walls):
    """layer.function.key -> per-pass value, zero for layers that never ran."""
    agg = tracer.layer_metrics()
    out = {}
    for mod, names in LAYERS.items():
        for fn in names:
            for key, value in agg[f"{mod}.{fn}"].items():
                if key not in ("peak_mb", "useful_ratio"):
                    value /= n_traced
                out[f"{mod}.{fn}.{key}"] = (value, _unit(key))
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    out["trace.overhead_frac"] = (overhead, "1")
    return out


# ---------------------------------------------------------------------------
# environment


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def caches():
    """Cache level/type -> size as the kernel lists them for cpu0."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "caches": caches(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# entry point


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def gated_names(mode):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[mode]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsell" / "__init__.py").is_file():
        print(f"bench: no qsell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    directory = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, directory)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(args, directory):
    mode = "per_layer" if args.trace else "end_to_end"
    wanted = gated_names(mode)
    program = Program(args.workload, args.seed, args.scale, directory)
    workload = program.workload
    checker = checks.Checker(workload)

    passes, traced_passes = [], []
    tracer = Tracer()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(program, checker))
        if args.trace:
            with tracer:
                traced_passes.append(run_pass(program, checker, tracer))
    untraced = [o for p in passes for o in p.outcomes]
    traced = [o for p in traced_passes for o in p.outcomes]
    outcomes = untraced + traced

    metrics = end_to_end(program.setup_times, passes, untraced, workload)
    for name, (t, unit) in metrics.items():
        tail = f"  p{t['tail'][0]}={_fmt(t['tail'][1])}" if t["tail"] else ""
        print(f"{name:<22} {_fmt(t['value']):>12} {unit:<5} n={t['n']}{tail}")
    layers = {}
    if args.trace:
        layers = per_layer(
            tracer, len(traced_passes), [p.wall for p in traced_passes], [p.wall for p in passes]
        )
        for name, (value, unit) in sorted(layers.items()):
            print(f"{name:<44} {_fmt(value):>12} {unit}")
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for o in outcomes:
        if o.failed:
            print(f"FAILED {o.op.id}: {'; '.join(o.problems)}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(),
        "metrics": {k: {"unit": u, **t} for k, (t, u) in metrics.items()},
        "per_layer": {k: {"unit": u, "value": v} for k, (v, u) in layers.items()},
    }
    print("report: " + json.dumps(report))

    source = layers if args.trace else {k: (t["value"], u) for k, (t, u) in metrics.items()}
    missing = sorted(set(wanted) - set(source))
    if missing:
        raise BenchError(f"metrics not produced on {args.workload}: {', '.join(missing)}")
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(source[name][0]), "unit": source[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
