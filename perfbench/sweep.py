#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

usage: python3 perfbench/sweep.py [--workloads A,B] [--seeds 0-9]
                                  [--seconds S] [--baseline OUT.json]

For every workload, runs ``run.py --trace 0`` once per seed, one run at a
time, and prints for each end-to-end metric the median over the seeds and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json. With ``--baseline`` it also makes
one traced run per workload at the first seed and writes every figure,
with the traced layer breakdown, to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int, report: Path | None):
    start = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if report is not None:
        cmd += ["--report", str(report)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = ",".join(w["name"] for w in spec["workloads"])
    parser.add_argument("--workloads", default=names)
    parser.add_argument("--seeds", type=seeds_arg, default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0, None) for seed in args.seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "longest_run_s": max(r["elapsed_s"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['attempted']} invocations, "
              f"{entry['failed']} failed, correct={entry['correct']}, "
              f"longest run {entry['longest_run_s']:.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread <= bound / 3
            steady &= ok
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": values,
            }
            print(f"  {name:<12} median {median:10.5g}  quartiles [{q1:.5g}, "
                  f"{q3:.5g}]  spread {spread:6.3f}  bound {bound}"
                  f"{'' if ok else '  NOT STEADY'}")
        if args.baseline:
            report = args.baseline.with_suffix(".trace.tmp")
            run(workload, args.seeds[0], args.seconds, 1, report)
            detail = json.loads(report.read_text(encoding="utf-8"))
            report.unlink()
            entry["traced"] = {
                "seed": args.seeds[0],
                "properties": detail["properties"],
                "layers": detail["layers"],
                "per_layer": {k: v["value"] for k, v in detail["metrics"].items()},
            }
        baseline["workloads"][workload] = entry
    if args.baseline:
        text = json.dumps(baseline, indent=1) + "\n"
        args.baseline.write_text(text, encoding="utf-8")
    print("steady" if steady else "NOT STEADY: a spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
