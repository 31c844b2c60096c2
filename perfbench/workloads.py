"""The benchmark's four workloads.

Each workload makes its inputs from a seeded `random.Random`, turns them into
a list of operations (label, thunk) that call endolab's public functions, and
checks the outcomes against `reference` and against properties the method must
have.  Only the operations are timed; checking happens after.

Every round of a workload attempts the same operations, so the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import reference

FAILED = object()  # outcome of an operation that raised


class Workload:
    name = ""
    modules: tuple[str, ...] = ()
    inproc = False  # has an in-process variant of a child-process workload

    def import_program(self):
        for m in self.modules:
            importlib.import_module(f"endolab.{m}")

    def make_inputs(self, rng):
        raise NotImplementedError

    def ops(self, inputs, mode: str) -> list:
        raise NotImplementedError

    def check(self, inputs, outcomes: list) -> list[str]:
        raise NotImplementedError


def _mod(name):
    return sys.modules[f"endolab.{name}"]


# --- kostant-formal ------------------------------------------------------------------

LEVIS = ("M1", "M2", "M12")
GL_SIZES = {"M1": (2,), "M2": (1,), "M12": (1, 1)}

# Rank-4 cases (Levi, weight) drawn by the seed: one B4 case and two D4 cases.
# Each band holds cases whose identity checks cost about the same, measured one
# case per fresh interpreter: B4 about 1.4 s, D4 about 0.4 s.  The B4 case sets
# the round's peak RSS, about 30-31 MB.  So the seed changes the inputs
# but hardly the amount of work or memory.
RANK4_BANDS = {
    "B": [("M1", (2, 0, 0, 0)), ("M12", (2, 0, 0, 0))],
    "D": [
        ("M1", (2, 2, 2, 2)), ("M1", (2, 1, 1, 1)), ("M1", (2, 1, 0, 0)), ("M1", (2, 1, 1, -1)),
        ("M2", (2, 2, 2, 1)), ("M2", (2, 2, 1, 0)), ("M2", (2, 2, 0, 0)),
        ("M12", (2, 2, 2, 1)), ("M12", (2, 2, 0, 0)), ("M12", (2, 1, 1, 1)), ("M12", (2, 1, 0, 0)),
    ],
}
RANK4_DRAWS = {"B": 1, "D": 2}


def dominant_weights(kind: str, m: int, max_coord: int) -> list[tuple[int, ...]]:
    """Dominant integral weights with coordinates bounded by max_coord:
    l_1 >= ... >= l_m >= 0 (type B), l_1 >= ... >= l_{m-1} >= |l_m| (type D)."""
    out = []
    for lam in itertools.product(range(-max_coord, max_coord + 1), repeat=m):
        head_ok = all(lam[i] >= lam[i + 1] for i in range(m - 2))
        if kind == "B":
            ok = head_ok and (m < 2 or lam[m - 2] >= lam[m - 1]) and lam[m - 1] >= 0
        else:
            ok = head_ok and (m < 2 or lam[m - 2] >= abs(lam[m - 1]))
        if ok:
            out.append(lam)
    return sorted(out, reverse=True)


class KostantFormal(Workload):
    name = "kostant-formal"
    modules = ("rootdata",)

    def make_inputs(self, rng):
        cases = [
            (kind, m, levi, lam)
            for kind in ("B", "D")
            for m in (2, 3)
            for levi in LEVIS
            for lam in dominant_weights(kind, m, 2)
        ]
        for kind, count in RANK4_DRAWS.items():
            cases += [(kind, 4, levi, lam) for levi, lam in rng.sample(RANK4_BANDS[kind], count)]
        return cases

    def ops(self, cases, mode):
        rd = _mod("rootdata")

        def op(kind, m, levi, lam):
            return lambda: rd.kostant_euler_identity(
                rd.RootDatum(kind, m), rd.standard_levi(levi, m), rd.Weight.from_ints(lam)
            )

        return [(f"kostant {k}{m} {levi} {lam}", op(k, m, levi, lam)) for k, m, levi, lam in cases]

    def check(self, cases, outcomes):
        rd = _mod("rootdata")
        problems = []
        for (kind, m, levi, lam), ok in zip(cases, outcomes):
            if ok is FAILED:
                continue
            if ok is not True:
                problems.append(f"identity fails on {kind}{m} {levi} {lam}")
            datum = rd.RootDatum(kind, m)
            entries = rd.kostant_cohomology(datum, rd.standard_levi(levi, m), rd.Weight.from_ints(lam))
            so_rank = m - sum(GL_SIZES[levi])
            want = reference.weyl_order(kind, m) // reference.levi_weyl_order(
                kind, m, GL_SIZES[levi], so_rank
            )
            if len(entries) != want:
                problems.append(f"{kind}{m} {levi} {lam}: {len(entries)} Kostant terms, want {want}")
        for kind, m, lam in sorted({(k, m, lam) for k, m, _, lam in cases if m <= 3}):
            ch = rd.formal_character(rd.RootDatum(kind, m), rd.Weight.from_ints(lam))
            if sum(ch.terms.values()) != reference.weyl_dimension(kind, lam):
                problems.append(f"dim ch {kind}{m} {lam} != Weyl dimension")
        for kind in ("B", "D"):
            for levi in LEVIS:
                lam = dominant_weights(kind, 3, 2)[0]
                if corrupted_identity(kind, 3, levi, lam):
                    problems.append(f"corrupted highest weight passes on {kind}3 {levi} {lam}")
        return problems


def corrupted_identity(kind, m, levi, lam) -> bool:
    """The Kostant identity with the degree-0 Levi highest weight raised by e_1
    (still Levi-dominant).  It must fail."""
    rd = _mod("rootdata")
    original = rd.kostant_cohomology

    def corrupted(datum, levi_blocks, weight):
        (deg, mu), *rest = original(datum, levi_blocks, weight)
        return [(deg, rd.Weight((mu.doubled[0] + 2,) + mu.doubled[1:]))] + rest

    rd.kostant_cohomology = corrupted
    try:
        return rd.kostant_euler_identity(
            rd.RootDatum(kind, m), rd.standard_levi(levi, m), rd.Weight.from_ints(lam)
        )
    finally:
        rd.kostant_cohomology = original


# --- arch-eval ------------------------------------------------------------------------

ARCH_CASES = [(levi, d) for d in (7, 8, 9, 10) for levi in (LEVIS if d % 2 else ("M1", "M12"))]
# Per case: this many seeded in-range samples, each with one vanishing-region
# control (verify_identity runs controls for M2 and M12 only), and one
# out-of-range sample.  One operation checks one sample and its control, which
# keeps the cheap controls from piling up at the bottom of check_p50_ms.
ARCH_SAMPLES = 5
CHARACTER_CHECKS = [("B", (2, 1)), ("B", (2, 1, 1)), ("D", (3, 2, 1)), ("D", (2, 1, -1))]


def acceptance_weight(m: int) -> tuple[int, ...]:
    return tuple(([3, 2, 1] + [0] * m)[:m])


def torus_sample(rng, kind: str, m: int):
    """A regular point: one split rational coordinate, the rest on the unit circle."""
    while True:
        split = Fraction(rng.choice((1, -1)) * rng.randint(2, 9), rng.randint(10, 19))
        point = [(split, Fraction(0))]
        point += [reference.circle(Fraction(rng.randint(1, 200), rng.randint(201, 400))) for _ in range(m - 1)]
        if not reference.on_root_wall(kind, point):
            return point


class ArchEval(Workload):
    name = "arch-eval"
    modules = ("archcmp",)

    def make_inputs(self, rng):
        draws = []
        for levi, d in ARCH_CASES:
            for _ in range(ARCH_SAMPLES):
                draws.append((levi, d, "stated", rng.randrange(2**31)))
            draws.append((levi, d, "out_of_range", rng.randrange(2**31)))
        points = [(kind, lam, torus_sample(rng, kind, len(lam))) for _ in range(2) for kind, lam in CHARACTER_CHECKS]
        return draws, points

    def ops(self, inputs, mode):
        ac = _mod("archcmp")

        def op(levi, d, region, seed):
            case = ac.ArchCase(levi, d, acceptance_weight(d // 2))
            if region == "stated":
                return lambda: len(ac.verify_identity(case, samples=1, seed=seed, vanishing_controls=1).failures)
            return lambda: len(ac.verify_identity(case, samples=1, seed=seed, region=region).failures)

        draws, _ = inputs
        return [(f"arch d={d} {levi} {region} seed={s}", op(levi, d, region, s)) for levi, d, region, s in draws]

    def check(self, inputs, outcomes):
        draws, points = inputs
        problems = []
        for (levi, d, region, seed), failures in zip(draws, outcomes):
            if failures is FAILED:
                continue
            want = 1 if region == "out_of_range" else 0
            if failures != want:
                problems.append(f"arch d={d} {levi} {region} seed={seed}: {failures} failures, want {want}")
        rd, en = _mod("rootdata"), _mod("exactnum")
        for kind, lam, point in points:
            datum = rd.RootDatum(kind, len(lam))
            pattern = (rd.SPLIT,) + (rd.COMPACT,) * (len(lam) - 1)
            gamma = rd.TorusPoint(tuple(en.GaussianRational(re, im) for re, im in point), pattern)
            value = rd.weyl_character(datum, rd.Weight.from_ints(lam), gamma)
            ch = rd.formal_character(datum, rd.Weight.from_ints(lam))
            if (value.re, value.im) != reference.evaluate_doubled(ch.terms, point):
                problems.append(f"weyl_character {kind}{len(lam)} {lam} at {point} != formal character")
        return problems


# --- padic-local ----------------------------------------------------------------------

QS_PRIMES = (3, 5, 7)
QS_MAX_DIM = 8
HILBERT_PAIRS = 400
HYPERBOLIC_SAMPLE = 300


class PadicLocal(Workload):
    name = "padic-local"
    modules = ("quadspace", "hecke")

    def make_inputs(self, rng):
        forms = [
            (entries, p)
            for p in QS_PRIMES
            for k in range(1, QS_MAX_DIM + 1)
            for entries in itertools.combinations_with_replacement((1, -1, p, -p, 2 * p, -2 * p), k)
        ]
        pairs = []
        for _ in range(HILBERT_PAIRS):
            a = rng.randint(-10000, 10000) or 3
            b = rng.randint(-10000, 10000) or 5
            pairs.append((a, b, sorted({2} | set(reference.prime_factors(a)) | set(reference.prime_factors(b)))))
        hyperbolic = sorted(rng.sample(range(len(forms)), HYPERBOLIC_SAMPLE))
        return forms, pairs, reference.local_shapes(), hyperbolic

    def ops(self, inputs, mode):
        qs, hk, en = _mod("quadspace"), _mod("hecke"), _mod("exactnum")
        forms, pairs, groups, _ = inputs

        def quasi_split(entries, p):
            def run():
                q = qs.QuadraticSpace.from_entries(entries)
                return qs.is_quasi_split_local(q, en.Place.finite(p)), qs.is_quasi_split_oracle(q, p)

            return run

        def symbols(a, b, places):
            def run():
                out = {0: en.hilbert_symbol(a, b, en.Place.real())}
                for p in places:
                    out[p] = en.hilbert_symbol(a, b, en.Place.finite(p))
                return out

            return run

        def transfer(args):
            def run():
                try:
                    k, h = hk.compute_fH_at_p(*args[:7], delta_plus_square=args[7], delta_minus_square=args[8])
                except en.ExactDomainError as exc:
                    return "excluded", str(exc)
                return k.serialize(), h.serialize()

            return run

        out = [(f"quasi-split {e} at {p}", quasi_split(e, p)) for e, p in forms]
        out += [(f"hilbert ({a},{b})", symbols(a, b, places)) for a, b, places in pairs]
        out += [(f"transfer {args}", transfer(args)) for _, shapes in groups for _, args in shapes]
        return out

    def check(self, inputs, outcomes):
        qs, en = _mod("quadspace"), _mod("exactnum")
        forms, pairs, groups, hyperbolic = inputs
        problems = []
        qs_out = outcomes[: len(forms)]
        hb_out = outcomes[len(forms) : len(forms) + len(pairs)]
        tr_out = iter(outcomes[len(forms) + len(pairs) :])
        for (entries, p), res in zip(forms, qs_out):
            if res is not FAILED and res[0] != res[1]:
                problems.append(f"quasi-split {entries} at {p}: closed formula {res[0]}, oracle {res[1]}")
        for i in hyperbolic:
            (entries, p), res = forms[i], qs_out[i]
            if res is FAILED:
                continue
            plus_h = qs.QuadraticSpace.from_entries(entries + (1, -1))
            if qs.is_quasi_split_local(plus_h, en.Place.finite(p)) != res[0]:
                problems.append(f"quasi-split {entries} at {p} changes with a hyperbolic plane")
        for (a, b, places), symbols in zip(pairs, hb_out):
            if symbols is FAILED:
                continue
            product = 1
            for v in symbols.values():
                product *= v
            if product != 1:
                problems.append(f"product formula fails for ({a},{b})")
            for p in places:
                if p != 2 and symbols[p] != reference.hilbert_odd(a, b, p):
                    problems.append(f"({a},{b})_{p} = {symbols[p]} disagrees with Serre's formula")
        for key, shapes in groups:
            h_parts = []
            for A, args in shapes:
                res = next(tr_out)
                if res is FAILED:
                    continue
                if reference.excluded(*args):
                    if res[0] != "excluded":
                        problems.append(f"{key} A={A}: excluded shape was computed")
                    continue
                if res[0] == "excluded":
                    problems.append(f"{key} A={A}: admissible shape raised {res[1]}")
                    continue
                if res[0] != reference.k_table(args[0], A, args[6]):
                    problems.append(f"{key} A={A}: k part differs from the table")
                h_parts.append(res[1])
            if any(h != h_parts[0] for h in h_parts):
                problems.append(f"{key}: h part depends on A")
        return problems


# --- cli-suites -----------------------------------------------------------------------

NEGATIVE = ["endoscopy", "--d", "5"]  # d < 7 is outside the domain: exit 2, status error


class CliSuites(Workload):
    name = "cli-suites"
    modules = ("cli",)
    inproc = True

    def make_inputs(self, rng):
        seed = lambda: str(rng.randrange(10**6))
        diag = [rng.choice((1, -1)) * rng.randint(1, 30) for _ in range(rng.randint(4, 7))]
        primes = rng.sample([3, 5, 7, 11, 13, 17, 19, 23], 2)
        commands = [
            ["verify", "signs"],
            ["verify", "waldspurger", "--seed", seed()],
            ["verify", "invariants"],
            ["verify", "hilbert", "--seed", seed()],
            ["verify", "vanishing", "--seed", seed(), "--trials", "5"],
            ["quadspace", "--diag=" + ",".join(map(str, diag))],
            ["endoscopy", "--d", "9", "--context", "global:%d,%d" % tuple(sorted(primes))],
            ["signs"],
            NEGATIVE,
        ]
        return [argv for argv in commands for _ in range(2)]

    def ops(self, calls, mode):
        if mode == "plain":
            return [(" ".join(argv), lambda argv=argv: _run_child(argv)) for argv in calls]
        cli = _mod("cli")

        def inproc(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            return code, out.getvalue()

        return [(" ".join(argv), lambda argv=argv: inproc(argv)) for argv in calls]

    def check(self, calls, outcomes):
        problems = []
        first = {}
        for argv, res in zip(calls, outcomes):
            if res is FAILED:
                continue
            code, stdout = res
            name = " ".join(argv)
            if first.setdefault(name, stdout) != stdout:
                problems.append(f"{name}: stdout differs between two calls")
            lines = stdout.strip().splitlines()
            try:
                report = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name}: no JSON report")
                continue
            want = (2, "error") if argv == NEGATIVE else (0, "pass")
            if (code, report.get("status")) != want:
                problems.append(f"{name}: exit {code} status {report.get('status')}, want {want}")
            if argv[0] == "quadspace":
                product = 1
                for v in report["witnesses"][0]["hasse"].values():
                    product *= v
                if product != 1:
                    problems.append(f"{name}: Hasse invariants multiply to {product}")
        return problems


def _run_child(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "endolab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (KostantFormal(), ArchEval(), PadicLocal(), CliSuites())}
