"""Command-line front end: invariant lookups, enumeration tables and the
verification harness with machine-readable reports.

Reports print to stdout as canonical JSON (sorted keys, fixed separators) and
are byte-identical across runs with the same parameters and seed; wall-clock
timing goes to stderr.  Exit codes: 0 pass, 1 verification failure, 2 usage or
input error.  ENDOLAB_WORKERS > 1 fans independent verification cases out to a
process pool; results are merged by case key, so the report stays deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import archcmp, dsconst, endoscopy, hecke, quadspace, rootdata, signs
from .errors import ExactDomainError, ResourceLimitError, SingularPointError
from .exactnum import Place, factorize, hilbert_symbol


@dataclass
class Report:
    command: str
    parameters: dict
    status: str = "pass"  # pass | fail | error
    witnesses: list = field(default_factory=list)
    seed: int | None = None
    timing: float | None = None  # never serialized; printed to stderr

    def finish(self) -> "Report":
        if self.status == "pass" and self.witnesses:
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
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(t) for t in text.split(",") if t.strip()]


def _emit(report: Report) -> int:
    print(report.to_json())
    if report.timing is not None:
        print(f"# elapsed: {report.timing:.3f}s", file=sys.stderr)
    return {"pass": 0, "fail": 1, "error": 2}[report.status]


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("ENDOLAB_WORKERS", "1")))
    except ValueError:
        return 1


def _map_cases(fn, keys):
    """Map fn over case keys, in a process pool when ENDOLAB_WORKERS > 1; the
    output order always follows the sorted keys.  The pool never has more
    workers than CPUs or keys."""
    keys = list(keys)
    n = min(_workers(), os.cpu_count() or 1, len(keys))
    if n <= 1:
        return [fn(k) for k in keys]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, keys))


# --- quadspace ------------------------------------------------------------------


def cmd_quadspace(args) -> Report:
    params = {"diag": args.diag, "gram": args.gram}
    rep = Report("quadspace", params)
    if args.diag:
        q = quadspace.QuadraticSpace.from_entries(_parse_rational_list(args.diag))
    elif args.gram:
        rows = json.loads(args.gram)
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
            if isinstance(ctx, endoscopy.RealCtx):
                row["cuspidal"] = endoscopy.endo_is_cuspidal_R(h)
            if isinstance(ctx, endoscopy.GlobalCtx):
                row["cuspidal"] = endoscopy.endo_is_cuspidal_R(h)
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


def cmd_signs(args) -> Report:
    rep = Report("signs", {"m_minus_max": args.m_minus_max})
    lines = ["levi\tparity\tm_minus\tA\tdet_omega0\tsun\ttasho_ratio\tsun_identity"]
    for levi in ("M1", "M2", "M12"):
        a_sets = {"M1": [(), (1, 2)], "M2": [(), (1,)], "M12": [(), (1,), (2,), (1, 2)]}[levi]
        for parity in ("odd", "even"):
            if levi == "M2" and parity == "even":
                continue
            for mm in range(0, args.m_minus_max + 1):
                case = signs.SignCase(levi, parity, mm + 3, 3, mm)
                for A in a_sets:
                    lines.append(
                        "\t".join(
                            str(x)
                            for x in (
                                levi,
                                parity,
                                mm,
                                "{" + ",".join(map(str, A)) + "}",
                                signs.det_omega0(A, mm, levi),
                                signs.sun(A),
                                signs.tasho_ratio(case, A),
                                signs.check_sun_identity(case, A),
                            )
                        )
                    )
    print("\n".join(lines))
    rep.parameters["rows"] = len(lines) - 1
    return rep


# --- verification suites ----------------------------------------------------------


def _suite_vanishing(args, rep: Report):
    rng = random.Random(args.seed)
    parities = [args.case] if args.case else ["odd", "even"]
    for parity in parities:
        rs = [args.r] if args.r else ([3, 4, 5, 6, 7] if parity == "odd" else [4, 6])
        ts = [args.t] if args.t is not None else [0, 1]
        for r in rs:
            if parity == "even" and r % 2:
                continue
            for t in ts:
                for r_prime in range(r + 1):
                    for _ in range(args.trials):
                        mags = rng.sample(range(1, 10 * (r + t) + 50), r + t)
                        den = rng.randint(1, 9)
                        mu = [
                            Fraction(mags[k] * rng.choice([-1, 1]), den)
                            for k in range(r)
                        ] + [Fraction(mags[r + j]) for j in range(t)]
                        M, N = dsconst.vanishing_quantities(r, t, parity, r_prime, mu)
                        bad_n = N != 0 and r >= (3 if parity == "odd" else 4)
                        bad_m = any(v != 0 for v in M) and r >= (5 if parity == "odd" else 6)
                        if bad_n or bad_m:
                            rep.witnesses.append(
                                {
                                    "parity": parity,
                                    "r": r,
                                    "t": t,
                                    "split": r_prime,
                                    "mu": [str(c) for c in mu],
                                    "M": M,
                                    "N": N,
                                }
                            )


def _arch_case_runner(key):
    levi, d, lam, samples, seed = key
    case = archcmp.ArchCase(levi, d, lam)
    r = archcmp.verify_identity(case, samples=samples, seed=seed, vanishing_controls=3)
    return {"levi": levi, "d": d, "lambda": list(lam), "failures": r.failures}


def _default_lambda(d: int) -> tuple[int, ...]:
    m = d // 2
    base = [2, 1, 1] + [0] * max(0, m - 3)
    return tuple(base[:m])


def _suite_arch(args, rep: Report):
    rep.parameters["range"] = "stated"
    ds = [args.d] if args.d else [7, 8, 9, 10]
    keys = []
    for d in ds:
        levis = [args.case] if args.case else (["M1", "M2", "M12"] if d % 2 else ["M1", "M12"])
        lam = tuple(int(c) for c in args.lam.split(",")) if args.lam else _default_lambda(d)
        for levi in levis:
            if levi == "M2" and d % 2 == 0:
                continue
            keys.append((levi, d, lam, args.samples, args.seed))
    for result in _map_cases(_arch_case_runner, keys):
        if result["failures"]:
            rep.witnesses.append(result)


def _suite_satake(args, rep: Report):
    ds = [args.d] if args.d else [7, 8, 9, 10]
    alist = [args.a] if args.a else [1, 2, 3]
    for d in ds:
        parity = "odd" if d % 2 else "even"
        m = d // 2
        for levi, i in (("M1", 2), ("M2", 1), ("M12", 2)):
            d_so = d - 2 * i
            if d_so < 3:
                continue
            if parity == "odd":
                bases = [(dp, d_so + 1 - dp) for dp in range(1, d_so + 1, 2)]
                variants = [(True, True)]
            else:
                bases = [(dp, d_so - dp) for dp in range(0, d_so + 1, 2)]
                variants = [(True, True), (True, False), (False, True), (False, False)]
            a_sets = {"M1": [(), (1, 2)], "M2": [(), (1,)], "M12": [(), (1,), (2,), (1, 2)]}[levi]
            for bp, bm in bases:
                for dps, dms in variants:
                    for a in alist:
                        h_parts = []
                        for A in a_sets:
                            glp = len(A) if levi != "M1" else (2 if A else 0)
                            mp = bp // 2 + glp
                            mm = m - mp
                            try:
                                k, h = hecke.compute_fH_at_p(
                                    levi, parity, m, mp, mm, list(A), a,
                                    delta_plus_square=dps, delta_minus_square=dms,
                                )
                            except ExactDomainError:
                                continue
                            if k != hecke.expected_k_table(levi, A, a):
                                rep.witnesses.append(
                                    {"d": d, "levi": levi, "A": list(A), "a": a,
                                     "base": [bp, bm], "kind": "kPart mismatch"}
                                )
                            h_parts.append((A, h.serialize()))
                        if h_parts and any(h != h_parts[0][1] for _, h in h_parts):
                            rep.witnesses.append(
                                {"d": d, "levi": levi, "a": a, "base": [bp, bm],
                                 "kind": "hPart depends on A"}
                            )
        # base-change bookkeeping
        for a in alist:
            for levi in ("M1", "M2"):
                if not hecke.ka_base_change_relation(levi, a)["matches"]:
                    rep.witnesses.append({"a": a, "levi": levi, "kind": "k_a relation"})


def _suite_signs(args, rep: Report):
    for levi in ("M1", "M2", "M12"):
        a_sets = {"M1": [(), (1, 2)], "M2": [(), (1,)], "M12": [(), (1,), (2,), (1, 2)]}[levi]
        for parity in ("odd", "even"):
            if levi == "M2" and parity == "even":
                continue
            for mm in range(0, 7):
                case = signs.SignCase(levi, parity, mm + 3, 3, mm)
                for A in a_sets:
                    if not signs.check_sun_identity(case, A):
                        rep.witnesses.append({"levi": levi, "parity": parity, "mm": mm, "A": list(A)})
    for m in (4, 6, 8):
        for mp in range(0, m + 1):
            case = signs.SignCase("G", "even", m, mp, m - mp, p=2 * m, q=0)
            s1 = signs.whittaker_comparison_sign(case, "I")
            s2 = signs.whittaker_comparison_sign(case, "II")
            if s2 != ((-1) ** (m - mp)) * s1:
                rep.witnesses.append({"m": m, "m_plus": mp, "kind": "type II relation"})
    for m in range(41):
        for p in range(m + 1):
            if not signs.parity_lemma_holds(m, p):
                rep.witnesses.append({"m": m, "p": p, "kind": "parity lemma"})


def _suite_hilbert(args, rep: Report):
    rng = random.Random(args.seed)
    for _ in range(args.pairs):
        a = rng.randint(-10000, 10000) or 3
        b = rng.randint(-10000, 10000) or 5
        places = {2} | set(factorize(a)) | set(factorize(b))
        prod = hilbert_symbol(a, b, Place.real())
        for p in sorted(places):
            prod *= hilbert_symbol(a, b, Place.finite(p))
        if prod != 1:
            rep.witnesses.append({"a": a, "b": b, "kind": "product formula"})
    # quasi-split detection against the classification oracle
    entries = [1, -1]
    for p in (3, 5, 7):
        entries += [p, -p, 2 * p, -2 * p]
    rng2 = random.Random(args.seed + 1)
    for _ in range(200):
        dim = rng2.randint(1, 8)
        q = quadspace.QuadraticSpace.from_entries([rng2.choice(entries) for _ in range(dim)])
        for p in (3, 5, 7):
            if quadspace.is_quasi_split_local(q, Place.finite(p)) != quadspace.is_quasi_split_oracle(q, p):
                rep.witnesses.append({"diag": [str(c) for c in q.diag], "p": p})
    for d in range(3, 65):
        if quadspace.exists_global_form(d, 1) != (d % 8 in (3, 4, 5, 6)):
            rep.witnesses.append({"d": d, "kind": "existence criterion"})


def _suite_kostant(args, rep: Report):
    for kind in ("B", "D"):
        for m in range(2, args.max_rank + 1):
            datum = rootdata.RootDatum(kind, m)
            levis = {"M2": rootdata.levi_M2(m), "M1": rootdata.levi_M1(m), "M12": rootdata.levi_M12(m)}
            lams = _dominant_weights(kind, m, args.max_coord)
            for label, levi in levis.items():
                for lam in lams:
                    w = rootdata.Weight.from_ints(lam)
                    if not rootdata.kostant_euler_identity(datum, levi, w):
                        rep.witnesses.append({"kind": kind, "m": m, "levi": label, "lambda": lam})


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


def _suite_waldspurger(args, rep: Report):
    rng = random.Random(args.seed)
    for _ in range(args.configs):
        m = rng.randint(1, 6)
        mm = rng.randint(0, m)
        ys = rng.sample(range(-199, 200), m)
        y = [Fraction(v, 200) for v in ys]
        eta = rng.choice([1, -1])
        if signs.waldspurger_sign(y, mm, eta) != signs.waldspurger_sign_reduced(y, mm, eta):
            rep.witnesses.append({"y": [str(v) for v in y], "m_minus": mm, "eta": eta})


def _suite_invariants(args, rep: Report):
    ctx = endoscopy.RealCtx()
    for d in range(7, 13):
        delta = 1 if (d % 2 == 1 or (d // 2) % 2 == 0) else -1
        for levi in ("M1", "M2", "M12"):
            for g in endoscopy.enumerate_G_endoscopy(levi, d, delta, ctx):
                if not endoscopy.tau_k_identity_check(levi, g, d):
                    rep.witnesses.append(
                        {"d": d, "levi": levi, "A": sorted(g.A),
                         "base": [g.base.d_plus, g.base.d_minus]}
                    )
        eg = {p.key() for p in endoscopy.enumerate_elliptic(d, delta, ctx)}
        for levi in ("M1", "M2", "M12"):
            for g in endoscopy.enumerate_G_endoscopy(levi, d, delta, ctx):
                if endoscopy.to_EG(g).key() not in eg:
                    rep.witnesses.append({"d": d, "levi": levi, "kind": "to_EG image"})


SUITES = {
    "arch": _suite_arch,
    "vanishing": _suite_vanishing,
    "satake": _suite_satake,
    "signs": _suite_signs,
    "hilbert": _suite_hilbert,
    "kostant": _suite_kostant,
    "waldspurger": _suite_waldspurger,
    "invariants": _suite_invariants,
}


def cmd_verify(args) -> Report:
    if args.suite not in SUITES:
        raise ExactDomainError(f"unknown suite {args.suite!r}")
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "suite", "command") and v is not None
    }
    rep = Report(f"verify {args.suite}", params, seed=getattr(args, "seed", None))
    SUITES[args.suite](args, rep)
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
    v.add_argument("--samples", type=int, default=50)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--r", type=int)
    v.add_argument("--t", type=int)
    v.add_argument("--a", type=int)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--pairs", type=int, default=500)
    v.add_argument("--configs", type=int, default=200)
    v.add_argument("--max-rank", type=int, default=3, dest="max_rank")
    v.add_argument("--max-coord", type=int, default=2, dest="max_coord")
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
