"""Acceptance gates.  Criteria 1-6 run their `endolab verify` suites in
process at the parameters of `cli.ACCEPTANCE`; a gate passes when every suite
reports pass having checked at least the listed number of cases of each
identity.  All comparisons are exact: the tolerance is zero.  Criterion 7 runs
negative controls that must fail.  Each gate prints one pass/fail line."""

import hashlib
import time
from fractions import Fraction

import pytest

from endolab import archcmp, dsconst
from endolab.cli import ACCEPTANCE, SUITES, build_parser, cmd_verify, main

# criterion -> {suite: {identity: minimum number of checked cases}}
GATES = {
    1: {"vanishing": {"N = 0": 1340, "M_i = 0": 920}},
    2: {"arch": {"comparison identity": 500, "vanishing region": 30}},
    3: {"satake": {"k(A) table": 414, "h independent of A": 165, "k_a base change": 6}},
    4: {
        "hilbert": {"product formula": 500, "existence criterion": 62, "existence, d = 0 mod 8": 3},
        "quasisplit": {"quasi-split against the oracle": 24021},
    },
    5: {
        "invariants": {"tau-k identity": 87, "to_EG image": 87},
        "signs": {"sun identity": 112, "Whittaker type II": 21, "parity lemma": 41},
        "waldspurger": {"raw against reduced": 200},
    },
    6: {
        "kostant": {"Kostant identity": 222, "truncated Kostant entries": 222},
        "characters": {"Weyl character formula": 74},
    },
}

# sha256 of each suite's report JSON, the stdout of `endolab verify SUITE` at
# its acceptance parameters.  A change that keeps every gate but alters what
# a report says shows here; a change meant to alter a report updates its row.
REPORT_SHA256 = {
    "vanishing": "a8fe5f59c3e50c78fc1e402f698b018eedde8b2b5837092a43b078dfff9f0c60",
    "arch": "0b5ed6b973d3c4c89c07b80a2260d7cd995b37d607e73f7c250b1f8241d074f9",
    "satake": "1b5fa4ec3112ae49b8f80315d5e5fffd6b96de5e6cb66ae009408fd78a6e84a7",
    "hilbert": "b1ed44a872d1e23db801cd3d0a623b48a8605bb515ce37dbddbd6281fd0eb9e0",
    "quasisplit": "504a65680a7d5f32ba3086e2f60b2df2cd779d70f11eaa549b19589460c46011",
    "invariants": "148b6164705efe34b096b5cd4fbe007720bba87817a349bd91c4ce7912a8e3f2",
    "signs": "42f761b3bb6f4f7f85e77dfa88160a75171e8fb315ea982c2f0a3977ca8c86ee",
    "waldspurger": "8eeab1be97d47c5a0626e7f452b4b5b1fdacac5d9f2554ce1b6942c45d62c462",
    "kostant": "89b6e51f5df6994f7b742a39eb283c3d52fb7b8f17fcb06d24d20b7632694b61",
    "characters": "4881c0f769b20e62a980c0b7ed6650373f4cea81de48eebceef84e296a447791",
}

# A gate beyond the acceptance parameters: the Kostant suite at rank 5 as
# (argv, minimum checked per identity, report sha256).
KOSTANT_RANK_5 = (
    ["--max-rank", "5", "--max-coord", "1"],
    {"Kostant identity": 120, "truncated Kostant entries": 120},
    "f234449bb7c28fe4e9e3c24448d4716e33122ac7043dfdb97d16d16bd13a8549",
)


# `verify arch` past the acceptance sweep, at d = 12 and 13 (D6 and B6,
# where W has 23,040 and 46,080 elements) with 3 samples per case and at
# d = 14 and 15 (D7 and B7, 322,560 and 645,120 elements) with 1, as
# d -> (samples, sha256 of its stdout); the reports of the plans built from
# the enumerated Weyl group (d = 12, 13) and from term lists (d = 14, 15),
# which the plans from Weyl's determinant must keep.
ARCH_BEYOND_SWEEP = {
    12: (3, "628a81cd4c8c7550812e40d053528e12ecbdc4612e059b1827fc14eee1be892d"),
    13: (3, "fb9e91208feb5ae580e858bde950d9611693dba9e879e90f220f40d6c33d996d"),
    14: (1, "b271c0be9f31b750cd3d1c168f3d3278e7d88b00b1912d5fa28dd88a0ee37b33"),
    15: (1, "3eb4068b602cc2f773ebdb3e35cba0aac0e5a151a55c935ce341f4f58653c920"),
}


def _run_suite(suite: str, argv: list, minimum: dict, sha256: str):
    """The suite's report and what is wrong with it: a status other than
    pass, another report sha256, or fewer checked cases than the minimum."""
    rep = cmd_verify(build_parser().parse_args(["verify", suite, *argv]))
    problems = []
    if rep.status != "pass":
        problems.append(f"{suite}: {rep.status} {rep.witnesses[:2]}")
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    if digest != sha256:
        problems.append(f"{suite}: report sha256 {digest}, pinned {sha256}")
    for identity, n in minimum.items():
        checked = rep.checks.get(identity, {}).get("checked", 0)
        if checked < n:
            problems.append(f"{suite} {identity}: {checked} cases checked, want >= {n}")
    return rep, problems


def _gate(criterion: int, name: str) -> dict:
    t0 = time.time()
    reports, problems = {}, []
    for suite, minimum in GATES[criterion].items():
        reports[suite], found = _run_suite(suite, ACCEPTANCE[suite], minimum, REPORT_SHA256[suite])
        problems += found
    counts = {f"{s} {i}": c["checked"] for s, r in reports.items() for i, c in r.checks.items()}
    status = "FAIL" if problems else "PASS"
    print(f"[{status}] criterion {criterion}: {name} ({time.time() - t0:.1f}s) {problems or counts}")
    assert not problems, problems
    return reports


def test_every_suite_has_acceptance_parameters_and_one_gate():
    gated = [suite for gate in GATES.values() for suite in gate]
    assert sorted(gated) == sorted(ACCEPTANCE) == sorted(SUITES) == sorted(REPORT_SHA256)


def test_criterion_1_vanishing_suite():
    """N = 0 for r >= 3 (odd) / r >= 4 (even) and M_i = 0 for r >= 5 / r >= 6,
    over every sign split and t in {0, 1}, 20 regular mu each."""
    _gate(1, "vanishing suite (M_i, N)")


def test_criterion_2_archimedean_comparisons():
    """d in {7, 8, 9, 10}, lambda = (3, 2, 1, 0, ...), 50 exact samples per
    case in the stated range plus 5 vanishing-region controls for M2 and M12."""
    _gate(2, "archimedean comparison suite")


def test_criterion_3_computation_at_p():
    """d in {7..10}, a in {1, 2, 3}, every admissible A and unramified local
    shape: kPart equals the closed k(A) table as formal q-polynomials and hPart
    is the same for every A.  The excluded shapes are counted as skipped."""
    rep = _gate(3, "computation-at-p suite")["satake"]
    assert rep.checks["k(A) table"]["skipped"] == {"(0, nontrivial)": 192, "(2, trivial)": 246}


def test_criterion_4_number_theory():
    """Hilbert product formula on 500 random pairs |a|, |b| <= 10^4; the
    existence criterion for 3 <= d <= 64 and the d = 0 mod 8 branch at
    d in {8, 16, 24}; quasi-split detection against the classification oracle
    on every form of dim <= 10 with entries in {+-1, +-p, +-2p}, p in {3, 5, 7}."""
    _gate(4, "number-theory suite")


def test_criterion_5_invariants():
    """tau-k identity on every refined datum with d <= 12; the sun identity on
    every case and A; type I/II Whittaker signs differing by (-1)^(m-);
    Waldspurger raw against reduced on 200 random configurations, m <= 6."""
    _gate(5, "invariant suite")


def test_criterion_6_kostant_suite():
    """The Kostant identity for B_m and D_m, m <= 4, all three standard Levis
    and all dominant lambda with coordinates <= 2; the truncated Kostant
    entries that verify arch evaluates, (M1, pi1), (M2, pi2) and (M12, pi1
    and pi2) at each lambda, equal the ones read off the Weyl numerator; and
    Weyl's character formula at each lambda, the character from
    Freudenthal's multiplicities times Weyl's denominator."""
    _gate(6, "Kostant and character suites")


def test_kostant_rank_five_gate():
    """The Kostant identity for B_m and D_m, m <= 5, all three standard Levis
    and all dominant lambda with coordinates <= 1, and the truncated Kostant
    entries at each lambda."""
    t0 = time.time()
    rep, problems = _run_suite("kostant", *KOSTANT_RANK_5)
    status = "FAIL" if problems else "PASS"
    print(f"[{status}] Kostant suite at rank 5 ({time.time() - t0:.1f}s) {problems or rep.checks}")
    assert not problems, problems


@pytest.mark.parametrize("d", sorted(ARCH_BEYOND_SWEEP))
def test_arch_beyond_the_sweep_is_pinned(capsys, d):
    """`verify arch --d 12|13 --samples 3` and `--d 14|15 --samples 1` pass
    with their pinned stdout."""
    samples, sha256 = ARCH_BEYOND_SWEEP[d]
    code = main(["verify", "arch", "--d", str(d), "--samples", str(samples)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (0, sha256)


def test_criterion_7_negative_controls():
    """Expected-fail fixtures: the r = 2 witness with M_i != 0, and an
    out-of-range archimedean sample violating the comparison identity."""
    t0 = time.time()
    M, N = dsconst.vanishing_quantities(2, 0, "odd", 2, [Fraction(1), Fraction(2)])
    witness_ok = M[0] == -4 and N == 0
    case = archcmp.ArchCase("M2", 7, (1, 0, 0))
    rep = archcmp.verify_identity(case, samples=3, seed=13, region="out_of_range")
    arch_ok = len(rep.failures) == 3  # all out-of-range samples must fail
    ok = witness_ok and arch_ok
    detail = f"M={M}, out-of-range failures={len(rep.failures)}/3"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 7: negative controls fail as predicted ({time.time() - t0:.1f}s) {detail}")
    assert ok, detail
