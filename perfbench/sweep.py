#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its run-to-run spread.

    python3 perfbench/sweep.py --workloads planted-dense,maxcut --seeds 1-10 \\
        --seconds 30 --out .perfbench/sweep.json

Each run is a separate process, one after another.  For every end-to-end
metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median;
it also records min/median/max solver iterations over all solves, and the
time and units of every operation of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="'a-b' or 'a,b,c'")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True, help="summary JSON file")
    args = ap.parse_args(argv)

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    summary = {}
    for name in args.workloads.split(","):
        runs, ops, iterations, failures = [], [], [], 0
        for seed in parse_seeds(args.seeds):
            detail = work / f"sweep-{name}-{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0", "--detail-out", str(detail)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"]
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            record = json.loads(detail.read_text())
            iterations += record["iterations"]
            ops.append([{k: op[k] for k in ("seed", "seconds", "units")}
                        for op in record["ops"]])
            detail.unlink()
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v:.5g}" for k, v in runs[-1].items()), flush=True)
        entry = {"seeds": args.seeds, "runs": len(runs), "failed_ops": failures,
                 "metrics": {k: summarise([r[k] for r in runs]) for k in runs[0]},
                 "ops": ops}
        if iterations:
            entry["iterations"] = {"min": min(iterations),
                                   "median": statistics.median(iterations),
                                   "max": max(iterations), "solves": len(iterations)}
        summary[name] = entry
        for k, s in entry["metrics"].items():
            print(f"{name} {k}: median {s['median']:.5g}, spread {s['spread']:.3f}",
                  flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
