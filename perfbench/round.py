"""One cold round of a workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N --mode plain|traced|inproc

Imports endolab, makes the inputs, runs every operation once (timing each),
then checks the outcomes.  Prints one JSON line: the time the import took, the
monotonic clock reading when set-up ended, the timed part's wall and CPU time,
per-operation times, peak RSS, check problems and, in traced mode, the
aggregated spans.

Between operations the round runs a speed probe: a fixed piece of pure-Python
work that does not touch endolab.  On a shared host the speed of execution
swings by tens of percent within seconds and for minutes at a time, and it
stretches the probe and the operations next to it alike.  Every time is
therefore also given in reference seconds: the measured time times
REFERENCE_PROBE_S over the probe time measured around it.

`plain` is the measured form of every workload.  cli-suites runs its commands
as child processes there and through `cli.main` in-process in `inproc` and
`traced`; for the library workloads `inproc` is the same as `plain`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

import tracing
from workloads import FAILED, WORKLOADS

PROBE_EVERY_S = 0.05  # of operation time between two probe points
# The probe's time on an uncontended core of the host the reference figures
# were measured on (perfbench/README.md).  It only sets the scale of the
# reported times; comparisons between two commits do not depend on it.
REFERENCE_PROBE_S = 0.0015


def speed_probe() -> float:
    """Time a fixed mix of dict updates on tuple keys, int and Fraction
    arithmetic, about what the endolab layers spend their time on.  The
    collector is off, so that the probe never pays for scanning the program's
    heap."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 7
        acc ^= hash(key) + i * i // 3
    x = Fraction(1, 3)
    for i in range(1, 180):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
        x = Fraction(x.numerator % 100003, x.denominator % 100003 or 1)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def probe_point() -> list[float]:
    """Three probes; their median is the speed at this point, since one probe
    is a few milliseconds of a noisy speed."""
    return [speed_probe() for _ in range(3)]


def scale(durations: list[float], segments: list[int], probes: list[float]) -> list[float]:
    """Durations in reference seconds.  An operation between probe points k
    and k+1 ran at about their mean speed."""
    return [d * 2 * REFERENCE_PROBE_S / (probes[k] + probes[k + 1]) for d, k in zip(durations, segments)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "inproc"), default="plain")
    args = ap.parse_args()

    # One CPU for the round and its child processes, so that the probes
    # measure the speed of the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    workload.import_program()
    import_s = time.perf_counter() - t0
    inputs = workload.make_inputs(random.Random(args.seed))
    ops = workload.ops(inputs, args.mode)
    t_ready = time.monotonic()
    # Set-up is scaled by the host speed just after it.
    probes = [statistics.median(probe_point())]

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    durations, segments, outcomes, errors = [], [], [], []
    since_probe = probing = 0.0
    cpu0, times0 = time.process_time(), os.times()
    for index, (label, thunk) in enumerate(ops):
        start = time.perf_counter()
        try:
            outcome = thunk()
        except Exception as exc:  # a failed operation is counted, never fatal
            outcome = FAILED
            errors.append(f"{label}: {exc!r}")
        durations.append(time.perf_counter() - start)
        outcomes.append(outcome)
        segments.append(len(probes) - 1)
        since_probe += durations[-1]
        if since_probe >= PROBE_EVERY_S or index == len(ops) - 1:
            point = probe_point()
            probes.append(statistics.median(point))
            probing += sum(point)
            since_probe = 0.0
    times1 = os.times()
    cpu = time.process_time() - cpu0 - probing
    cpu += (times1.children_user - times0.children_user) + (times1.children_system - times0.children_system)
    who = resource.RUSAGE_CHILDREN if args.mode == "plain" and workload.inproc else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    snapshot = tracer.snapshot() if tracer else None

    scaled = scale(durations, segments, probes)
    problems = workload.check(inputs, outcomes)
    print(
        json.dumps(
            {
                "import_s": import_s,
                "t_ready": t_ready,
                "setup_scale": REFERENCE_PROBE_S / probes[0],
                "wall_s": sum(scaled),
                "raw_wall_s": sum(durations),
                "cpu_s": cpu,
                "durations_s": scaled,
                "probe_s": statistics.median(probes),
                "time_scale": REFERENCE_PROBE_S / statistics.median(probes),
                "attempted": len(ops),
                "failed": len(errors),
                "errors": errors[:20],
                "problems": problems[:20],
                "peak_rss_mb": peak_rss_mb,
                "trace": snapshot,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
