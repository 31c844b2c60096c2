"""Run every workload on several seeds and summarize the spread.

    python3 perfbench/figures.py [--seeds 1,2,...,10]

Calls run.py with --trace 0 once per (workload, seed), one run at a time, for
the workloads and run length in BENCHMARK.json.  Checks that every run is
correct, and prints per workload and end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next
to the bound, then the reference figures (CPU time, the tail percentile of
operation time and its sample count).  The raw results go to
perfbench/out/figures.json.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    seeds = [int(s) for s in ap.parse_args().seeds.split(",")]

    results: dict[str, list] = {}
    ok = True
    for workload in WORKLOADS:
        runs = results.setdefault(workload, [])
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            saved = HERE / "out" / f"{workload}-seed{seed}-trace0.json"
            line["reference"] = json.loads(saved.read_text())["reference"]
            runs.append(line)
            ok &= line["correct"]
            print(f"{workload} seed={seed} correct={line['correct']} failed={line['failed']}/{line['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                  flush=True)

    print()
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, runs in results.items():
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            print(f"| {workload} | {name} | {first['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} "
                  f"| {BOUNDS[name]} |")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"| {workload} | failed share | | {sorted(shares)} | | | | |")
    print()
    print("| workload | reference | median over seeds |")
    print("|---|---|---|")
    for workload, runs in results.items():
        for name in runs[0]["reference"]:
            values = [r["reference"][name] for r in runs if name in r["reference"]]
            print(f"| {workload} | {name} | {statistics.median(values):.4g} |")
    (HERE / "out" / "figures.json").write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
