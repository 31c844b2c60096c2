"""endolab benchmark: time to a verdict, cold, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter (round.py), one
after another until S seconds have passed; every round attempts the same
operations on the inputs the seed makes.  Prints each metric by name and unit,
reference figures, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over the rounds):
  setup_s       process start until endolab is imported and the inputs exist
  wall_s        time to the verdict over all of the round's operations
  check_p50_ms  median time of one operation, pooled over the rounds
  peak_rss_mb   peak RSS of the process doing the work (cli-suites: the
                largest child process)
Times are in reference seconds: each measured time is scaled by the speed
probe run next to it (round.py), so that the host's swings in speed cancel.
The unscaled wall time prints as a reference figure.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracing.PER_LAYER (medians over the traced rounds) and the tracing
overhead.  For cli-suites it also runs in-process rounds, which give the CLI
layer's import and per-process cost.

Exits 1 without a result if endolab's sources are missing or a round fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "check_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ENDOLAB_WORKERS", None)
    return env


def run_child(argv: list[str], started: float) -> tuple[dict, float]:
    """Run a Python child to completion; return its last stdout line as JSON
    and the monotonic clock reading just before it was spawned."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 5:
        raise BenchError("out of time before the round could finish")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def run_round(workload: str, seed: int, mode: str, started: float) -> dict:
    result, t_spawn = run_child(
        [str(HERE / "round.py"), "--workload", workload, "--seed", str(seed), "--mode", mode], started
    )
    result["setup_s"] = (result["t_ready"] - t_spawn) * result["setup_scale"]
    return result


def tail(durations: list[float]) -> tuple[float, float] | None:
    """The highest of a few standard percentiles with at least ten samples beyond it."""
    n = len(durations)
    if n < 40:
        return None
    ordered = sorted(durations)
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0):
        if n * (100 - pct) / 100 >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100))]
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    wl = WORKLOADS[workload]
    kinds = ["plain"]
    if trace:
        kinds += ["traced"] + (["inproc"] if wl.inproc else [])
    rounds: dict[str, list] = {k: [] for k in kinds}
    while True:
        for kind in kinds:
            rounds[kind].append(run_round(workload, seed, kind, started))
        if time.monotonic() - started >= seconds:
            break

    done = [r for kind in kinds for r in rounds[kind]]
    problems = sorted({p for r in done for p in r["problems"]})
    errors = sorted({e for r in done for e in r["errors"]})
    plain = rounds["plain"]
    durations = [d for r in plain for d in r["durations_s"]]
    med = lambda rs, key: statistics.median(r[key] for r in rs)  # noqa: E731
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": {k: len(v) for k, v in rounds.items()},
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "problems": problems[:20],
        "errors": errors[:20],
        "plain_rounds": [
            {k: r[k] for k in ("setup_s", "wall_s", "raw_wall_s", "probe_s", "cpu_s", "peak_rss_mb")}
            | {"check_p50_ms": statistics.median(r["durations_s"]) * 1000}
            for r in plain
        ],
        "reference": {
            "raw_wall_s": med(plain, "raw_wall_s"),
            "probe_ms": med(plain, "probe_s") * 1000,
            "cpu_s": med(plain, "cpu_s"),
            "checks_per_round": plain[0]["attempted"],
            "check_samples": len(durations),
        },
    }
    t = tail(durations)
    if t:
        summary["reference"][f"check_p{t[0]:g}_ms"] = t[1] * 1000
    if not trace:
        summary["metrics"] = {
            "setup_s": med(plain, "setup_s"),
            "wall_s": med(plain, "wall_s"),
            "check_p50_ms": statistics.median(durations) * 1000,
            "peak_rss_mb": med(plain, "peak_rss_mb"),
        }
        summary["units"] = E2E_UNITS
        return summary
    traced = rounds["traced"]
    # Self times in reference seconds, like wall_s: scaled by the round's median probe.
    layers = [
        {name: v * r["time_scale"] if name.endswith("_s") else v for name, v in tracing.per_layer(r["trace"]).items()}
        for r in traced
    ]
    metrics = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
    untraced = rounds["inproc" if wl.inproc else "plain"]
    metrics["trace.wall_s"] = med(traced, "wall_s")
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - med(untraced, "wall_s")
    # The CLI layer: `import endolab.cli` in a fresh interpreter, and what a
    # command costs as a child process over the same argv run in-process.
    # The library workloads never call the CLI, so both read 0 there.
    metrics["cli.import_s"] = metrics["cli.process_s"] = 0.0
    if wl.inproc:
        inproc = rounds["inproc"]
        metrics["cli.import_s"] = statistics.median(r["import_s"] * r["setup_scale"] for r in inproc)
        metrics["cli.process_s"] = (med(plain, "wall_s") - med(inproc, "wall_s")) / plain[0]["attempted"]
    summary["metrics"] = {name: metrics[name] for name in tracing.PER_LAYER}
    summary["units"] = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    summary["spans"] = traced[len(traced) // 2]["trace"]
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "endolab" / "__init__.py").is_file():
        print(f"error: no endolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # Byte-compile once up front, as an installed package would be, so no round pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "endolab")], check=True)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} rounds={summary['rounds']}")
    for name, value in summary["metrics"].items():
        print(f"{name} {value:.6g} {summary['units'][name]}")
    for name, value in summary["reference"].items():
        print(f"# reference {name} {value:.6g}")
    for line in summary["problems"] + summary["errors"]:
        print(f"# problem: {line}")
    metrics = {k: {"value": v, "unit": summary["units"][k]} for k, v in summary["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
