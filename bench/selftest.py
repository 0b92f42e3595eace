"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload for one pass (mid-audit shrunk to a quarter of its
grid cells) in both modes.  Asserts that every metric ``BENCHMARK.json``
names is emitted with its unit, that no operation fails, and that the
traced run saw a call of every layer function the workload's
subcommands reach, which shows the tracer's rebinding missed none.
Then feeds the output checker fabricated wrong outputs (a corrupted revenue line, exit
4 from ``solve``, an exception, output that changes between repetitions)
and asserts each is counted as a failed operation.  Exits 0 on success.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import checks
import run
import workloads
from trace import LAYERS

# Grid divisors: coarse-sweep's grids are already small, and halving them
# leaves 33-node grids whose Monte-Carlo bias exceeds the simulate check.
SCALES = {"mid-audit": 4, "coarse-sweep": 1}

# Layer functions a workload never reaches: mid-audit runs only verify and
# compare, so simulate and the info table stay idle there.  Every other
# function in LAYERS must be called.
IDLE = {
    "mid-audit": {"mechanism.allocate_many", "revenue.simulate",
                  "info.partition_summary", "info.acceptance_set"},
    "coarse-sweep": set(),
}


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--scale", str(SCALES[workload])])
    assert code == 0, f"{workload} trace {trace} exited {code}"
    lines = out.getvalue().splitlines()
    report = next(json.loads(ln[len("report: "):]) for ln in lines if ln.startswith("report: "))
    return json.loads(lines[-1]), report


def check_metrics_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            result, report = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            want = {m["name"]: m["unit"] for m in spec[mode]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} {mode}: {sorted(set(want) ^ set(got))}"
            assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], result
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                assert all(v != 0 for v in values.values()), values
            else:
                called = {f"{mod}.{fn}" for mod, names in LAYERS.items() for fn in names
                          if report["per_layer"][f"{mod}.{fn}.calls"]["value"] > 0}
                expected = {f"{mod}.{fn}" for mod, names in LAYERS.items()
                            for fn in names} - IDLE[workload]
                assert called == expected, f"{workload}: {sorted(called ^ expected)}"
            print(f"ok  {workload:<13} {mode:<10} {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def check_failures_counted():
    w = workloads.build("coarse-sweep", 3)
    canary = next(i for i in w.instances.values() if i.exact == 0.25)
    path = run.WORK / "selftest"
    paths = run.write_configs(w, path)
    cli = run.import_cli()
    ops = {op.cmd: op for op in w.ops if op.inst == canary.name}
    good = {cmd: run.run_op(cli, op, paths[op.inst]) for cmd, op in ops.items()}

    def verdict(cmd, **change):
        checker = checks.Checker(w)
        for c in ("solve", "compare"):  # references for the cross-checks
            checker.check(checks.Outcome(op=ops[c], code=0, stdout=good[c].stdout, seconds=0.0))
        fields = dict(op=ops[cmd], code=good[cmd].code, stdout=good[cmd].stdout, seconds=0.0)
        return checker.check(checks.Outcome(**{**fields, **change}))

    assert not verdict("solve").failed and not verdict("simulate").failed
    bad_revenue = good["solve"].stdout.replace("revenue_direct: 0.25", "revenue_direct: 0.26")
    cases = {
        "corrupted revenue line": verdict("solve", stdout=bad_revenue),
        "solve exits 4": verdict("solve", code=4),
        "verify exits 3": verdict("verify", code=3),
        "raised": verdict("info", code=None, error="RuntimeError: boom"),
        "missing compare row": verdict("compare", stdout="optimal: revenue 0.25\n"),
        "simulated mean off": verdict("simulate", stdout=good["simulate"].stdout.replace(
            "revenue_mean: 0.2", "revenue_mean: 0.3")),
    }
    checker = checks.Checker(w)
    first = checker.check(checks.Outcome(op=ops["info"], code=0, stdout=good["info"].stdout, seconds=0.0))
    cases["output changed between repetitions"] = checker.check(checks.Outcome(
        op=ops["info"], code=0, stdout=good["info"].stdout + "extra\n", seconds=0.0))
    assert not first.failed
    for name, outcome in cases.items():
        assert outcome.failed, f"not counted as failed: {name}"
        print(f"ok  counted as failed: {name} ({outcome.problems[0]})")


def main():
    try:
        check_metrics_emitted()
        check_failures_counted()
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
