"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/collect.py --workloads mid-audit coarse-sweep \\
        --seeds 1-10 --out bench/results/BENCH_seed.json --tag seed
    python3 bench/collect.py --workloads mid-audit coarse-sweep \\
        --seeds 1-10 --no-trace --compare-to bench/results/BENCH_seed.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
the run length ``BENCHMARK.json`` sets, then once more per workload with
``--trace 1``.  For every metric it prints the median, the quartiles and
the spread (interquartile distance over the median), and marks the gated
end-to-end metrics whose spread is not below a third of their bound.
With ``--compare-to`` it also sets each gated metric's median against the
same metric's median in an earlier output file and marks every change
for the worse by more than the bound.  Everything, environment included,
goes to ``--out``.  Exits 1 if an operation failed or anything is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = next(json.loads(ln[len("report: "):]) for ln in lines if ln.startswith("report: "))
    return json.loads(lines[-1]), report


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(q2) if q2 else None}


def worse_by(new, old, better):
    """Relative change of a median in the bad direction (negative: it improved)."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--compare-to", type=Path, help="an earlier output of this script")
    ap.add_argument("--tag", default="local")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare_to.read_text())["workloads"] if args.compare_to else {}
    doc = {"tag": args.tag, "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values, runs = {}, []
        for seed in args.seeds:
            result, report = run(workload, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "passes": report["passes"]})
            doc.setdefault("environment", report["environment"])
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary = {name: {"unit": report["metrics"][name]["unit"], "values": v, **spread(v)}
                   for name, v in values.items() if len(v) == len(args.seeds)}
        entry = {"runs": runs, "end_to_end": summary}
        before = earlier.get(workload, {}).get("end_to_end", {})
        for name, s in summary.items():
            note = ""
            if name in gated:
                bound = gated[name]["bound"]
                note = f"  bound {bound}"
                if (s["spread"] or 0.0) >= bound / 3:
                    note, ok = note + "  <-- spread not below bound/3", False
                if name in before:
                    worse = worse_by(s["median"], before[name]["median"], gated[name]["better"])
                    s["change_vs_earlier"] = worse
                    note += f"  worse by {worse:+.4f} vs earlier"
                    if worse > bound:
                        note, ok = note + "  <-- beyond bound", False
            shown = s["spread"] if s["spread"] is not None else float("nan")
            print(f"  {name:<22} median {s['median']:<12.6g} spread {shown:.4f}{note}")
        if not args.no_trace:
            result, report = run(workload, args.seeds[0], spec["run_seconds"], 1)
            ok &= result["correct"]
            entry["per_layer"] = {"seed": args.seeds[0], **report["per_layer"]}
        doc["workloads"][workload] = entry
    if args.compare_to:
        doc["compared_to"] = str(args.compare_to)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
