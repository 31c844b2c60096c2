"""Tests of the benchmark itself: every checker rejects a wrong answer, the
independent references agree with known values, the traced mode reports every
per-layer metric BENCHMARK.json names, and a checkout without the program
makes the benchmark fail without a result.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import FAILED, WORKLOADS, corrupted_identity  # noqa: E402

from endolab import quadspace, rootdata  # noqa: E402


def _outcomes(name, inputs):
    WORKLOADS[name].import_program()
    return [thunk() for _, thunk in WORKLOADS[name].ops(inputs, "inproc")]


# --- references ---------------------------------------------------------------------

def test_weyl_dimension_known_values():
    assert reference.weyl_dimension("B", (1, 0)) == 5  # SO(5) standard
    assert reference.weyl_dimension("B", (1, 1)) == 10  # adjoint of SO(5)
    assert reference.weyl_dimension("D", (1, 0, 0)) == 6  # SO(6) standard
    assert reference.weyl_dimension("D", (1, 1, 0)) == 15  # adjoint of SO(6)
    assert reference.weyl_dimension("B", (1, 1, 0)) == 21  # adjoint of SO(7)


def test_weyl_orders():
    assert reference.weyl_order("B", 3) == 48
    assert reference.weyl_order("D", 4) == 192
    assert reference.levi_weyl_order("D", 4, (2,), 2) == 2 * 4


def test_hilbert_odd_known_values():
    assert reference.hilbert_odd(3, 3, 3) == -1  # (3,3)_3 = (3,-1)_3 = (-1/3)
    assert reference.hilbert_odd(-1, 3, 3) == -1
    assert reference.hilbert_odd(-1, 5, 5) == 1  # -1 is a square mod 5
    assert reference.hilbert_odd(2, 7, 7) == 1  # 2 is a square mod 7
    assert reference.hilbert_odd(5, 7, 3) == 1  # both units


def test_local_shapes_and_exclusions():
    shapes = [args for _, group in reference.local_shapes() for _, args in group]
    assert len(shapes) == 852
    assert sum(reference.excluded(*args) for args in shapes) == 438


def test_evaluate_doubled_matches_direct_product():
    point = [(Fraction(1, 2), Fraction(0)), reference.circle(Fraction(1, 3))]
    terms = {(2, 0): 1, (0, -4): 3}
    z1, z2 = point
    want = reference.c_mul(reference.c_pow(z2, -2), (Fraction(3), Fraction(0)))
    got = reference.evaluate_doubled(terms, point)
    assert got == (z1[0] + want[0], z1[1] + want[1])


# --- the checkers reject wrong answers -------------------------------------------------

def test_kostant_checker_rejects_false_verdict_and_corrupted_weight():
    wl = WORKLOADS["kostant-formal"]
    cases = [c for c in wl.make_inputs(random.Random(1)) if c[1] == 2][:3]
    outcomes = _outcomes("kostant-formal", cases)
    assert outcomes == [True] * 3
    assert not [p for p in wl.check(cases, outcomes) if "identity fails" in p]
    assert any("identity fails" in p for p in wl.check(cases, [True, False, True]))
    assert corrupted_identity("B", 2, "M1", (1, 0)) is False


def test_kostant_checker_rejects_wrong_character_and_term_count(monkeypatch):
    wl = WORKLOADS["kostant-formal"]
    cases = [("B", 2, "M2", (1, 1))]
    real_character = rootdata.formal_character

    def padded(datum, lam):
        ch = real_character(datum, lam)
        return rootdata.Laurent(datum.rank, {**ch.terms, (99,) * datum.rank: 1})

    monkeypatch.setattr(rootdata, "formal_character", padded)
    assert any("Weyl dimension" in p for p in wl.check(cases, [True]))
    monkeypatch.undo()
    real_cohomology = rootdata.kostant_cohomology
    monkeypatch.setattr(rootdata, "kostant_cohomology", lambda *a: real_cohomology(*a)[:-1])
    assert any("Kostant terms" in p for p in wl.check(cases, [True]))


def test_arch_checker_rejects_wrong_verdicts_and_character(monkeypatch):
    wl = WORKLOADS["arch-eval"]
    draws, points = wl.make_inputs(random.Random(3))
    draws = [d for d in draws if d[1] == 7][:7]
    assert {d[2] for d in draws} == {"stated", "out_of_range"}
    outcomes = _outcomes("arch-eval", (draws, points))
    assert wl.check((draws, points), outcomes) == []
    flipped = [1 - f for f in outcomes]
    assert len(wl.check((draws, points), flipped)) == len(draws)
    real = rootdata.weyl_character
    monkeypatch.setattr(rootdata, "weyl_character", lambda *a: real(*a) + 1)
    assert len(wl.check((draws, points), outcomes)) == len(points)


def test_padic_checker_rejects_wrong_answers(monkeypatch):
    wl = WORKLOADS["padic-local"]
    forms, pairs, groups, _ = wl.make_inputs(random.Random(5))
    forms = [f for f in forms if len(f[0]) <= 2]
    inputs = (forms, pairs[:20], groups[:40], list(range(len(forms))))
    outcomes = _outcomes("padic-local", inputs)
    assert wl.check(inputs, outcomes) == []

    def problems_after(i, value):
        bad = list(outcomes)
        bad[i] = value
        return wl.check(inputs, bad)

    local, oracle = outcomes[0]
    assert any("oracle" in p for p in problems_after(0, (not local, oracle)))
    first_pair = len(forms)
    symbols = dict(outcomes[first_pair])
    odd = next(p for p in pairs[0][2] if p != 2)
    symbols[odd] = -symbols[odd]
    found = problems_after(first_pair, symbols)
    assert any("product formula" in p for p in found) and any("Serre" in p for p in found)

    first_shape = len(forms) + 20
    shapes = [args for _, group in groups[:40] for _, args in group]
    ex = next(i for i, a in enumerate(shapes) if reference.excluded(*a))
    ok = next(i for i, a in enumerate(shapes) if not reference.excluded(*a))
    assert any("excluded shape was computed" in p for p in problems_after(first_shape + ex, outcomes[first_shape + ok]))
    assert any("admissible shape raised" in p for p in problems_after(first_shape + ok, ("excluded", "x")))
    k, h = outcomes[first_shape + ok]
    assert any("k part" in p for p in problems_after(first_shape + ok, (k[:-1], h)))
    assert any("h part" in p for p in problems_after(first_shape + ok, (k, h + [[[9], [[0, 1]]]])))

    monkeypatch.setattr(quadspace, "is_quasi_split_local", lambda q, v: len(q.diag) <= 2)
    assert any("hyperbolic plane" in p for p in wl.check(inputs, outcomes))


def test_cli_checker_rejects_wrong_answers():
    wl = WORKLOADS["cli-suites"]
    calls = wl.make_inputs(random.Random(7))
    outcomes = _outcomes("cli-suites", calls)
    assert wl.check(calls, outcomes) == []
    assert outcomes[-1][0] == 2 and calls[-1] == ["endoscopy", "--d", "5"]

    def problems_after(i, value):
        bad = list(outcomes)
        bad[i] = value
        return wl.check(calls, bad)

    code, out = outcomes[0]
    assert problems_after(0, (1, out))
    assert any("differs" in p for p in problems_after(1, (code, out + " ")))
    assert problems_after(len(calls) - 1, (0, outcomes[-1][1]))
    q = next(i for i, argv in enumerate(calls) if argv[0] == "quadspace")
    report = json.loads(outcomes[q][1])
    key = next(iter(report["witnesses"][0]["hasse"]))
    report["witnesses"][0]["hasse"][key] *= -1
    flipped = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert any("Hasse" in p for p in problems_after(q, (0, flipped)))
    assert FAILED not in outcomes


# --- scaling by the speed probe ------------------------------------------------------

def test_scaling_cancels_host_speed_and_keeps_program_speed():
    import round as rnd

    durations, segments, probes = [0.2, 0.01, 0.5], [0, 0, 1], [0.002, 0.003, 0.002]
    base = rnd.scale(durations, segments, probes)
    assert base[0] == pytest.approx(0.2 * rnd.REFERENCE_PROBE_S / 0.0025)
    # A host half as fast stretches operations and probes alike: no change.
    slow_host = rnd.scale([2 * d for d in durations], segments, [2 * p for p in probes])
    assert slow_host == pytest.approx(base)
    # A program half as fast on the same host reads twice as long.
    slow_program = rnd.scale([2 * d for d in durations], segments, probes)
    assert slow_program == pytest.approx([2 * b for b in base])
    assert 0 < rnd.speed_probe() < 1


# --- the benchmark as a command --------------------------------------------------------

def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_traced_run_emits_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "arch-eval", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(tracing.PER_LAYER)
    assert result["metrics"]["exactnum.gaussian.ops"]["value"] > 0
    assert result["metrics"]["laurent.mul.calls"]["value"] == 0
    assert result["metrics"]["cli.import_s"]["value"] == 0  # a library workload never calls the CLI
    assert result["metrics"]["cli.process_s"]["value"] == 0


def test_traced_cli_run_measures_the_cli_layer():
    proc = _run(ROOT, "--workload", "cli-suites", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["cli.import_s"]["value"] > 0
    assert metrics["cli.process_s"]["value"] > 0  # a child process costs more than the same argv in-process
    assert metrics["cli.main.self_s"]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_bare_checkout_fails_without_result(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
