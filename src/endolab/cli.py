"""Command-line front end: invariant lookups, enumeration tables and the
verification harness with machine-readable reports.

Reports print to stdout as canonical JSON (sorted keys, fixed separators) and
are byte-identical across runs with the same parameters and seed; wall-clock
timing goes to stderr.  Exit codes: 0 pass, 1 verification failure, 2 usage or
input error.  A verify suite names the case it is computing in `Report.case`:
a failed check records that case as its witness, and an error report names it.
Each command imports the endolab modules it runs, and `import endolab.cli`
loads only `endolab.errors` and `endolab.value`.  So a command outside the
root-datum, Hecke and archimedean suites never loads those layers, and no
command loads `dataclasses` or `inspect`: the value types, `Report` among
them, are slotted classes on `endolab.value.Value`.  Every suite runs its
cases in one process, in a fixed order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import random
import sys
import time
from fractions import Fraction

from .errors import ExactDomainError, ResourceLimitError, SingularPointError
from .value import Value


class Report(Value, frozen=False):
    __slots__ = ("command", "parameters", "status", "witnesses", "seed", "checks", "timing", "case")

    def __init__(
        self,
        command: str,
        parameters: dict,
        status: str = "pass",
        witnesses: list | None = None,
        seed: int | None = None,
        checks: dict | None = None,
        timing: float | None = None,
        case: dict | None = None,
    ):
        self.command = command
        self.parameters = parameters
        self.status = status  # pass | fail | error
        self.witnesses = [] if witnesses is None else witnesses
        self.seed = seed
        self.checks = checks  # verify only: {identity: {checked, failed, skipped: {reason: n}}}
        self.timing = timing  # never serialized; printed to stderr
        self.case = {} if case is None else case  # verify only, never serialized: the case being computed

    def tally(self, identity: str, checked: int, failed: int = 0) -> None:
        counts = self.checks.get(identity)
        if counts is None:
            counts = self.checks[identity] = {"checked": 0, "failed": 0, "skipped": {}}
        counts["checked"] += checked
        counts["failed"] += failed

    def check(self, identity: str, ok: bool, witness: dict | None = None) -> None:
        """Count one checked case of the identity, failed unless ok.  A failure
        records the witness, by default the current case, unless it is already
        the last witness, as when two identities fail at one case."""
        self.tally(identity, 1, 0 if ok else 1)
        if not ok:
            witness = self.case if witness is None else witness
            if not self.witnesses or self.witnesses[-1] is not witness:
                self.witnesses.append(witness)

    def skip(self, identity: str, reason: str) -> None:
        self.tally(identity, 0)
        skipped = self.checks[identity]["skipped"]
        skipped[reason] = skipped.get(reason, 0) + 1

    def finish(self) -> "Report":
        """A verify report that checked no case is an error, not a pass."""
        if self.checks is not None and not any(c["checked"] for c in self.checks.values()):
            self.status = "error"
            self.witnesses.append({"error": "no case checked"})
        elif self.status == "pass" and self.witnesses:
            self.status = "fail"
        return self

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "witnesses": self.witnesses,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.checks is not None:
            payload["checks"] = self.checks
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _positive_int(text: str) -> int:
    """argparse type of a count flag: a count of 0 would check nothing."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _at_least(flag: str, value, low: int) -> None:
    """Range check of an integer flag: None, an optional suite parameter not
    given, is the default sweep; anything below `low` is an input error
    (exit 2), not an empty sweep."""
    if value is not None and value < low:
        raise ExactDomainError(f"--{flag} must be >= {low}, got {value}")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ExactDomainError(f"the denominator must not be zero, got {text.strip()!r}") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(t) for t in text.split(",") if t.strip()]


def _emit(report: Report) -> int:
    print(report.to_json())
    if report.timing is not None:
        print(f"# elapsed: {report.timing:.3f}s", file=sys.stderr)
    return {"pass": 0, "fail": 1, "error": 2}[report.status]


# --- quadspace ------------------------------------------------------------------


def cmd_quadspace(args) -> Report:
    from . import quadspace

    params = {"diag": args.diag, "gram": args.gram}
    rep = Report("quadspace", params)
    if args.diag is not None and args.gram is not None:
        raise ExactDomainError("give --diag or --gram, not both")
    if args.diag:
        q = quadspace.QuadraticSpace.from_entries(_parse_rational_list(args.diag))
    elif args.gram:
        rows = json.loads(args.gram)
        if not isinstance(rows, list) or not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
            raise ExactDomainError(f"the --gram matrix must be a square list of rows, got {args.gram}")
        gram = [[_parse_rational(str(c)) for c in row] for row in rows]
        q = quadspace.diagonalize(gram)
    else:
        raise ExactDomainError("need --diag or --gram")
    places = quadspace.relevant_places(q)
    delta = quadspace.discriminant(q)
    out = {
        "dim": q.dim,
        "signature": list(quadspace.signature(q)),
        "discriminant": delta.rep,
        "hasse": {},
        "quasi_split": {},
        "perfect": {},
    }
    for v in places:
        key = "real" if v.is_real else str(v.p)
        out["hasse"][key] = quadspace.hasse_invariant(q, v)
        out["quasi_split"][key] = quadspace.is_quasi_split_local(q, v)
        if not v.is_real and v.p != 2:
            out["perfect"][str(v.p)] = quadspace.is_perfect(q, v.p)
    if "2" in out["quasi_split"]:
        out["notes"] = ["quasi_split at 2 is formula-derived (Hensel oracle is the only independent check)"]
    rep.witnesses.append(out)
    rep.status = "pass"
    return rep


# --- endoscopy ------------------------------------------------------------------


def _parse_context(text: str):
    from . import endoscopy

    if text == "real":
        return endoscopy.RealCtx()
    if text.startswith("p:"):
        return endoscopy.LocalCtx(int(text[2:]))
    if text.startswith("global:"):
        support = tuple(int(t) for t in text[len("global:") :].split(",") if t)
        return endoscopy.GlobalCtx(support)
    if text == "global":
        return endoscopy.GlobalCtx(())
    raise ExactDomainError(f"unknown context {text!r}")


def cmd_endoscopy(args) -> Report:
    from . import endoscopy

    if args.d < 7:
        raise ExactDomainError("d must be >= 7")
    ctx = _parse_context(args.context)
    params = {"d": args.d, "delta": args.delta, "context": args.context, "levi": args.levi}
    rep = Report("endoscopy", params)
    rows = []
    if args.levi:
        for g in endoscopy.enumerate_G_endoscopy(args.levi, args.d, args.delta, ctx):
            h = endoscopy.to_EG(g)
            rows.append(
                {
                    "A": sorted(g.A),
                    "case": g.base.parity,
                    "dplus": g.base.d_plus,
                    "deltaplus": g.base.delta_plus.rep,
                    "dminus": g.base.d_minus,
                    "deltaminus": g.base.delta_minus.rep,
                    "out": endoscopy.g_out_group_size(g),
                    "induced_dplus": h.d_plus,
                    "induced_dminus": h.d_minus,
                    "tau_k_identity": endoscopy.tau_k_identity_check(args.levi, g, args.d),
                }
            )
    else:
        for h in endoscopy.enumerate_elliptic(args.d, args.delta, ctx):
            row = {
                "case": h.parity,
                "dplus": h.d_plus,
                "deltaplus": h.delta_plus.rep,
                "dminus": h.d_minus,
                "deltaminus": h.delta_minus.rep,
                "out": endoscopy.out_group_size(h),
                "iota": str(endoscopy.iota(args.d, h)),
            }
            if isinstance(ctx, (endoscopy.RealCtx, endoscopy.GlobalCtx)):
                row["cuspidal"] = endoscopy.endo_is_cuspidal_R(h)
            if isinstance(ctx, endoscopy.GlobalCtx):
                row["unramified"] = {
                    str(p): endoscopy.is_unramified_at_p(h, p)
                    for p in ctx.support
                    if p != 2
                }
            rows.append(row)
    if args.format == "tsv":
        if rows:
            cols = sorted(rows[0])
            print("\t".join(cols))
            for r in rows:
                print("\t".join(str(r[c]) for c in cols))
        rep.parameters["rows"] = len(rows)
    else:
        rep.witnesses = rows
    return rep


# --- signs table ----------------------------------------------------------------


def _sign_cases(m_minus_max: int):
    """The (levi, parity, m_minus, SignCase, A) rows of the sign tables, with
    m+ = 3 and m_minus up to m_minus_max."""
    from . import signs
    from .levi import admissible_A

    for levi in ("M1", "M2", "M12"):
        for parity in ("odd", "even"):
            if levi == "M2" and parity == "even":
                continue
            for mm in range(m_minus_max + 1):
                case = signs.SignCase(levi, parity, mm + 3, 3, mm)
                for A in admissible_A(levi):
                    yield levi, parity, mm, case, A


def cmd_signs(args) -> Report:
    from . import signs

    _at_least("m-minus-max", args.m_minus_max, 0)
    rep = Report("signs", {"m_minus_max": args.m_minus_max})
    lines = ["levi\tparity\tm_minus\tA\tdet_omega0\tsun\ttasho_ratio\tsun_identity"]
    for levi, parity, mm, case, A in _sign_cases(args.m_minus_max):
        row = [levi, parity, mm, "{" + ",".join(map(str, A)) + "}", signs.det_omega0(A, mm, levi)]
        row += [signs.sun(A), signs.tasho_ratio(case, A), signs.check_sun_identity(case, A)]
        lines.append("\t".join(map(str, row)))
    print("\n".join(lines))
    rep.parameters["rows"] = len(lines) - 1
    return rep


# --- verification suites ----------------------------------------------------------
#
# Each suite takes the report and its own parameters as keyword arguments; the
# defaults are the suite's, and None selects the suite's default sweep.  Before
# it computes a case it sets `rep.case` to the case's name, a JSON-able dict,
# so an error names that case; `rep.check` counts the case and records one
# witness per failing case, the case itself unless the check gives another.


def _suite_vanishing(rep: Report, *, case=None, r=None, t=None, trials=20, seed=7):
    from . import dsconst

    _at_least("r", r, 1)
    _at_least("t", t, 0)
    rng = random.Random(seed)
    for parity in [case] if case else ["odd", "even"]:
        n_from, m_from = (3, 5) if parity == "odd" else (4, 6)
        for rank in [r] if r is not None else ([3, 4, 5, 6, 7] if parity == "odd" else [4, 6]):
            if parity == "even" and rank % 2:
                continue
            for tail in [t] if t is not None else [0, 1]:
                for r_prime in range(rank + 1):
                    for _ in range(trials):
                        mags = rng.sample(range(1, 10 * (rank + tail) + 50), rank + tail)
                        den = rng.randint(1, 9)
                        mu = [
                            Fraction(mags[k] * rng.choice([-1, 1]), den)
                            for k in range(rank)
                        ] + [Fraction(mags[rank + j]) for j in range(tail)]
                        mu_text = [str(c) for c in mu]
                        rep.case = {"parity": parity, "r": rank, "t": tail, "split": r_prime, "mu": mu_text}
                        M, N = dsconst.vanishing_quantities(rank, tail, parity, r_prime, mu)
                        witness = {**rep.case, "M": M, "N": N}
                        if rank >= n_from:
                            rep.check("N = 0", N == 0, witness)
                        if rank >= m_from:
                            rep.check("M_i = 0", not any(M), witness)


def _default_lambda(d: int) -> tuple[int, ...]:
    m = d // 2
    return tuple(([3, 2, 1] + [0] * m)[:m])


def _suite_arch(rep: Report, *, d=None, case=None, lam=None, samples=50, seed=7):
    from . import archcmp

    _at_least("d", d, 7)
    rep.parameters["range"] = "stated"
    try:
        weight = tuple(int(c) for c in lam.split(",")) if lam else None
    except ValueError:
        raise ExactDomainError(f"--lambda takes comma-separated integers, got {lam!r}") from None
    dims = [d] if d is not None else [7, 8, 9, 10]
    if weight and d is None:
        # the weight fixes the rank d // 2: the default sweep keeps the d of that rank
        dims = [e for e in dims if e // 2 == len(weight)]
        if not dims:
            raise ExactDomainError(f"no d in 7..10 has rank {len(weight)}, the length of --lambda")
    for d in dims:
        lam = weight or _default_lambda(d)
        for levi in [case] if case else ["M1", "M2", "M12"]:
            if levi == "M2" and d % 2 == 0:
                continue
            rep.case = {"levi": levi, "d": d, "lambda": list(lam)}
            arch_case = archcmp.ArchCase(levi, d, lam)
            r = archcmp.verify_identity(arch_case, samples=samples, seed=seed, vanishing_controls=5)
            vanishing = sum(str(f["index"]).startswith("vanish") for f in r.failures)
            rep.tally("comparison identity", samples, len(r.failures) - vanishing)
            if r.controls:
                rep.tally("vanishing region", r.controls, vanishing)
            if r.failures:
                rep.witnesses.append({**rep.case, "failures": r.failures})


def _suite_satake(rep: Report, *, d=None, a=None):
    from . import hecke
    from .levi import admissible_A, gl_labels

    _at_least("d", d, 7)
    _at_least("a", a, 1)
    alist = [a] if a is not None else [1, 2, 3]
    for d in [d] if d is not None else [7, 8, 9, 10]:
        parity = "odd" if d % 2 else "even"
        m = d // 2
        for levi in ("M1", "M2", "M12"):
            d_so = d - 2 * len(gl_labels(levi))
            if d_so < 3:
                continue
            if parity == "odd":
                bases = [(dp, d_so + 1 - dp) for dp in range(1, d_so + 1, 2)]
                variants = [(True, True)]
            else:
                bases = [(dp, d_so - dp) for dp in range(0, d_so + 1, 2)]
                variants = [(True, True), (True, False), (False, True), (False, False)]
            for bp, bm in bases:
                for dps, dms in variants:
                    for a in alist:
                        shape = {"d": d, "levi": levi, "a": a, "base": [bp, bm]}
                        h_parts = []
                        for A in admissible_A(levi):
                            rep.case = {**shape, "A": list(A)}
                            mp = bp // 2 + len(A)
                            reason = hecke.excluded_shape(levi, parity, mp, m - mp, A, dps, dms)
                            if reason:
                                rep.skip("k(A) table", reason)
                                continue
                            k, h = hecke.compute_fH_at_p(
                                levi, parity, m, mp, m - mp, list(A), a,
                                delta_plus_square=dps, delta_minus_square=dms,
                            )
                            ok = k == hecke.expected_k_table(levi, A, a)
                            rep.check("k(A) table", ok, {**rep.case, "kind": "kPart mismatch"})
                            h_parts.append(h.serialize())
                        if len(h_parts) > 1:
                            ok = all(h == h_parts[0] for h in h_parts)
                            rep.check("h independent of A", ok, {**shape, "kind": "hPart depends on A"})
    for a in alist:
        for levi in ("M1", "M2"):
            rep.case = {"a": a, "levi": levi}
            ok = hecke.ka_base_change_relation(levi, a)["matches"]
            rep.check("k_a base change", ok, {**rep.case, "kind": "k_a relation"})


def _suite_signs(rep: Report):
    from . import signs

    for levi, parity, mm, case, A in _sign_cases(7):
        rep.case = {"levi": levi, "parity": parity, "mm": mm, "A": list(A)}
        rep.check("sun identity", signs.check_sun_identity(case, A))
    for m in (4, 6, 8):
        for mp in range(0, m + 1):
            rep.case = {"m": m, "m_plus": mp}
            case = signs.SignCase("G", "even", m, mp, m - mp, p=2 * m, q=0)
            s1 = signs.whittaker_comparison_sign(case, "I")
            s2 = signs.whittaker_comparison_sign(case, "II")
            ok = s2 == ((-1) ** (m - mp)) * s1
            rep.check("Whittaker type II", ok, {**rep.case, "kind": "type II relation"})
    # parity_lemma_holds reads only n = m - p: one check per n that 0 <= p <= m <= 40 reaches
    for n in range(41):
        rep.case = {"m": n, "p": 0}
        rep.check("parity lemma", signs.parity_lemma_holds(n, 0), {**rep.case, "kind": "parity lemma"})


def _suite_hilbert(rep: Report, *, pairs=500, seed=7):
    from . import quadspace
    from .exactnum import REAL, Place, factorize, hilbert_symbol

    rng = random.Random(seed)
    for _ in range(pairs):
        a = rng.randint(-10000, 10000) or 3
        b = rng.randint(-10000, 10000) or 5
        rep.case = {"a": a, "b": b}
        places = {2} | set(factorize(a)) | set(factorize(b))
        prod = hilbert_symbol(a, b, REAL)
        for p in sorted(places):
            prod *= hilbert_symbol(a, b, Place.finite(p))
        rep.check("product formula", prod == 1, {**rep.case, "kind": "product formula"})
    for d in range(3, 65):
        rep.case = {"d": d, "det": 1}
        ok = quadspace.exists_global_form(d, 1) == (d % 8 in (3, 4, 5, 6))
        rep.check("existence criterion", ok, {"d": d, "kind": "existence criterion"})
    # d = 0 mod 8 with discriminant 2: the branch the trivial discriminant misses
    for d in (8, 16, 24):
        rep.case = {"d": d, "det": 2}
        ok = quadspace.exists_global_form(d, 2)
        rep.check("existence, d = 0 mod 8", ok, {"d": d, "kind": "existence branch"})


def _suite_quasisplit(rep: Report):
    """Every diagonal form of dim <= 10 with entries in {+-1, +-p, +-2p}, at
    p = 3, 5, 7: the closed quasi-split test against the classification oracle."""
    from . import quadspace
    from .exactnum import Place

    for p in (3, 5, 7):
        place = Place.finite(p)
        for dim in range(1, 11):
            for entries in itertools.combinations_with_replacement((1, -1, p, -p, 2 * p, -2 * p), dim):
                rep.case = {"diag": [str(c) for c in entries], "p": p}
                q = quadspace.QuadraticSpace.from_entries(entries)
                ok = quadspace.is_quasi_split_local(q, place) == quadspace.is_quasi_split_oracle(q, p)
                rep.check("quasi-split against the oracle", ok)


def _weight_sweep(max_rank: int, max_coord: int) -> list:
    """(kind, m, the dominant weights with coordinates up to max_coord) for
    B_m and D_m, 2 <= m <= max_rank, in the order the suites run them.  Both
    flags are checked first: a rank above rootdata.MAX_WEYL_RANK, whose Weyl
    numerators list too many terms, is refused before any case runs."""
    from . import rootdata

    _at_least("max-rank", max_rank, 2)
    _at_least("max-coord", max_coord, 0)
    if max_rank > rootdata.MAX_WEYL_RANK:
        raise ExactDomainError(f"--max-rank must be <= {rootdata.MAX_WEYL_RANK}, got {max_rank}")
    return [(kind, m, _dominant_weights(kind, m, max_coord)) for kind in ("B", "D") for m in range(2, max_rank + 1)]


def _suite_kostant(rep: Report, *, max_rank=3, max_coord=2):
    from . import archcmp, rootdata

    for kind, m, lams in _weight_sweep(max_rank, max_coord):
        datum = rootdata.RootDatum(kind, m)
        for label in ("M2", "M1", "M12"):
            levi = rootdata.standard_levi(label, m)
            for lam in lams:
                rep.case = {"kind": kind, "m": m, "levi": label, "lambda": lam}
                ok = rootdata.kostant_euler_identity(datum, levi, rootdata.Weight.from_ints(lam))
                rep.check("Kostant identity", ok)
        covectors = {"pi1": rootdata.pi1_covector(m), "pi2": rootdata.pi2_covector(m)}
        tail = rootdata.levi_positive_roots(datum, rootdata.standard_levi("M12", m))
        for lam in lams:
            # {w(lam+rho): det w}, doubled, which the Kostant identity has cached, kept
            # where chi[2:] is regular dominant: the roots there are roots of every Levi
            numerator = rootdata.weyl_numerator(datum, rootdata.Weight.from_ints(lam))
            terms = [(chi, c) for chi, c in numerator.terms.items() if _positive_on(chi, tail)]
            for label, cutoffs in (("M1", ("pi1",)), ("M2", ("pi2",)), ("M12", ("pi1", "pi2"))):
                rep.case = {"kind": kind, "m": m, "levi": label, "lambda": lam}
                # archcmp's entries without Kostant's table: each chi regular dominant for the
                # Levi (w in W^M) with <chi, pi> > 0 at every cutoff, keyed to det w = (-1)^l(w),
                # and on M1 also its reversed head to -det w
                levi = rootdata.standard_levi(label, m)
                walls = [covectors[c] for c in cutoffs] + list(rootdata.levi_positive_roots(datum, levi))
                k, want = levi.so_start, {}
                for chi, c in terms:
                    if _positive_on(chi, walls):
                        want[(chi[:k], chi[k:], False)] = c
                        if label == "M1":
                            want[(chi[1::-1], chi[k:], False)] = -c
                ok = archcmp._kostant_entries(kind, m, label, lam, cutoffs) == want
                rep.check("truncated Kostant entries", ok, {**rep.case, "cutoffs": list(cutoffs)})


def _suite_characters(rep: Report, *, max_rank=3, max_coord=2):
    """Weyl's character formula, ch(lam) D = A_{lam+rho}, for B_m and D_m,
    2 <= m <= max_rank, and every dominant lam with coordinates up to
    max_coord: the character from Freudenthal's multiplicities times Weyl's
    denominator e^rho prod_{a>0} (1 - e^{-a}), one binomial at a time,
    against the Weyl numerator, the terms (det w, w(lam+rho)) of Weyl's
    determinant."""
    from . import rootdata

    for kind, m, lams in _weight_sweep(max_rank, max_coord):
        datum = rootdata.RootDatum(kind, m)
        r, roots = rootdata.rho(datum).doubled, rootdata._doubled(datum.positive_roots())
        for lam in lams:
            rep.case = {"kind": kind, "m": m, "lambda": lam}
            weight = rootdata.Weight.from_ints(lam)
            product = rootdata.formal_character(datum, weight).mul_binomials(r, roots)
            rep.check("Weyl character formula", product == rootdata.weyl_numerator(datum, weight))


def _positive_on(chi: tuple, vectors) -> bool:
    """Whether <chi, v> > 0 for every v."""
    return all(sum(map(operator.mul, chi, v)) > 0 for v in vectors)


def _dominant_weights(kind: str, m: int, max_coord: int) -> list:
    out = []

    def rec(prefix):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        hi = prefix[-1] if prefix else max_coord
        lo = 0
        if kind == "D" and len(prefix) == m - 1:
            lo = -hi
        for c in range(hi, lo - 1, -1):
            rec(prefix + [c])

    rec([])
    return out


def _suite_waldspurger(rep: Report, *, configs=200, seed=7):
    from . import signs

    rng = random.Random(seed)
    for _ in range(configs):
        m = rng.randint(1, 6)
        mm = rng.randint(0, m)
        ys = rng.sample(range(-199, 200), m)
        y = [Fraction(v, 200) for v in ys]
        eta = rng.choice([1, -1])
        rep.case = {"y": [str(v) for v in y], "m_minus": mm, "eta": eta}
        ok = signs.waldspurger_sign(y, mm, eta) == signs.waldspurger_sign_reduced(y, mm, eta)
        rep.check("raw against reduced", ok)


def _suite_invariants(rep: Report):
    from . import endoscopy

    ctx = endoscopy.RealCtx()
    for d in range(7, 13):
        delta = 1 if (d % 2 == 1 or (d // 2) % 2 == 0) else -1
        rep.case = {"d": d, "delta": delta}
        eg = {p.key() for p in endoscopy.enumerate_elliptic(d, delta, ctx)}
        for levi in ("M1", "M2", "M12"):
            rep.case = {"d": d, "levi": levi}
            for g in endoscopy.enumerate_G_endoscopy(levi, d, delta, ctx):
                rep.case = {"d": d, "levi": levi, "A": sorted(g.A), "base": [g.base.d_plus, g.base.d_minus]}
                rep.check("tau-k identity", endoscopy.tau_k_identity_check(levi, g, d))
                ok = endoscopy.to_EG(g).key() in eg
                rep.check("to_EG image", ok, {"d": d, "levi": levi, "kind": "to_EG image"})


SUITES = {
    "arch": _suite_arch,
    "vanishing": _suite_vanishing,
    "satake": _suite_satake,
    "signs": _suite_signs,
    "hilbert": _suite_hilbert,
    "quasisplit": _suite_quasisplit,
    "kostant": _suite_kostant,
    "characters": _suite_characters,
    "waldspurger": _suite_waldspurger,
    "invariants": _suite_invariants,
}

# The acceptance parameters of every suite, as `endolab verify SUITE ARGV...`;
# tests/test_acceptance.py and scripts/run_acceptance.py both run this table.
ACCEPTANCE = {
    "vanishing": ["--trials", "20", "--seed", "101"],
    "arch": ["--samples", "50", "--seed", "7"],
    "satake": [],
    "hilbert": ["--pairs", "500", "--seed", "404"],
    "quasisplit": [],
    "invariants": [],
    "signs": [],
    "waldspurger": ["--configs", "200", "--seed", "505"],
    "kostant": ["--max-rank", "4", "--max-coord", "2"],
    "characters": ["--max-rank", "4", "--max-coord", "2"],
}


def cmd_verify(args) -> Report:
    """Run one suite with the flags given on the command line bound to its
    keyword parameters; `parameters` lists the bound values."""
    if args.suite not in SUITES:
        raise ExactDomainError(f"unknown suite {args.suite!r}")
    suite = SUITES[args.suite]
    params = dict(suite.__kwdefaults__ or {})
    given = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "suite", "command") and v is not None
    }
    unknown = sorted(set(given) - set(params))
    params.update(given)
    rep = Report(
        f"verify {args.suite}",
        {k: v for k, v in params.items() if v is not None},
        seed=params.get("seed"),
        checks={},
    )
    try:
        if unknown:
            raise ExactDomainError(f"verify {args.suite} takes no parameter {', '.join(unknown)}")
        suite(rep, **params)
    except (ExactDomainError, SingularPointError, ResourceLimitError) as exc:
        # the report keeps the run's name, parameters and the counts so far,
        # and names the case the suite was computing, if any
        rep.status = "error"
        rep.witnesses.append({**rep.case, "error": str(exc)})
        return rep
    return rep.finish()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="endolab")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quadspace", help="invariants of a quadratic form")
    q.add_argument("--diag", help="comma-separated rational diagonal entries")
    q.add_argument("--gram", help="JSON matrix of rationals")
    q.set_defaults(func=cmd_quadspace)

    e = sub.add_parser("endoscopy", help="enumerate elliptic (refined) endoscopic data")
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--delta", type=int, default=1)
    e.add_argument("--context", default="real", help="real | p:PRIME | global:P1,P2,...")
    e.add_argument("--levi", choices=["M1", "M2", "M12"])
    e.add_argument("--format", choices=["json", "tsv"], default="json")
    e.set_defaults(func=cmd_endoscopy)

    s = sub.add_parser("signs", help="emit the (case, A) sign tables as TSV")
    s.add_argument("--m-minus-max", type=int, default=6, dest="m_minus_max")
    s.set_defaults(func=cmd_signs)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--d", type=int)
    v.add_argument("--case", help="Levi label (arch) or parity (vanishing)")
    v.add_argument("--lambda", dest="lam", help="comma-separated weight coordinates")
    v.add_argument("--samples", type=_positive_int)
    v.add_argument("--seed", type=int)
    v.add_argument("--r", type=int)
    v.add_argument("--t", type=int)
    v.add_argument("--a", type=int)
    v.add_argument("--trials", type=_positive_int)
    v.add_argument("--pairs", type=_positive_int)
    v.add_argument("--configs", type=_positive_int)
    v.add_argument("--max-rank", type=int, dest="max_rank")
    v.add_argument("--max-coord", type=int, dest="max_coord")
    v.set_defaults(func=cmd_verify)
    return ap


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite `--diag V` and `--gram V` as `--diag=V`, `--gram=V`: argparse
    takes a separate value that starts with a minus sign, such as
    -4,-16,3, for an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--diag", "--gram") and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.time()
    try:
        report = args.func(args)
    except (ExactDomainError, SingularPointError, ResourceLimitError, ValueError, json.JSONDecodeError) as exc:
        bad = Report(args.command, {}, status="error", witnesses=[{"error": str(exc)}])
        return _emit(bad)
    report.timing = time.time() - t0
    return _emit(report)


if __name__ == "__main__":
    sys.exit(main())
