#!/usr/bin/env python3
"""Run every verification suite through the CLI at its acceptance parameters
(`endolab.cli.ACCEPTANCE`, the table tests/test_acceptance.py runs) and print
one pass/fail line per suite with the number of cases it checked and the
sha256 of its report: the JSON line without its newline, the form that
tests/test_acceptance.py pins in REPORT_SHA256.  Two checkouts give
byte-identical reports exactly when this script's lines agree but for the
times.

Usable without pytest, and without installing endolab: the script imports
endolab from its own checkout's `src`, and so do the suites it starts, so
two checkouts each run their own code.

    python3 scripts/run_acceptance.py
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from endolab.cli import ACCEPTANCE  # noqa: E402


def main() -> int:
    failures = 0
    # the suites import endolab from this checkout too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for suite, argv in ACCEPTANCE.items():
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "endolab.cli", "verify", suite, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        elapsed = time.time() - t0
        digest = hashlib.sha256(proc.stdout.removesuffix("\n").encode()).hexdigest()
        try:
            report = json.loads(proc.stdout)
            status = report["status"]
            checked = sum(c["checked"] for c in report["checks"].values())
        except (json.JSONDecodeError, KeyError):
            report, status, checked = None, f"error (exit {proc.returncode})", 0
        tag = "PASS" if proc.returncode == 0 else "FAIL"
        print(f"[{tag}] verify {suite:<12} {elapsed:7.1f}s  status={status}  checked={checked}  sha256={digest}")
        if proc.returncode != 0:
            failures += 1
            print(proc.stdout)
        if report is None:  # a suite that crashed wrote its traceback to stderr
            print(proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
