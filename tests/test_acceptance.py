"""Acceptance suite: every criterion runs at its stated tolerance (exact
equality, tolerance zero, unless noted) and prints one pass/fail line."""

import random
import time
from fractions import Fraction

from endolab import archcmp, dsconst, endoscopy, hecke, quadspace, rootdata, signs
from endolab.cli import _dominant_weights
from endolab.errors import ExactDomainError
from endolab.exactnum import Place, factorize, hilbert_symbol


def _report(name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def _regular_mu(rng: random.Random, r: int, t: int) -> list[Fraction]:
    mags = rng.sample(range(1, 60 * (r + t) + 60), r + t)
    den = rng.randint(1, 9)
    out = [Fraction(mags[k] * rng.choice([-1, 1]), den) for k in range(r)]
    out += [Fraction(mags[r + j]) for j in range(t)]
    return out


def test_criterion_1_vanishing_suite():
    """Odd case r in 3..7, t in {0,1}, all sign splits, >= 20 regular mu:
    N = 0 exactly and M_i = 0 exactly for r >= 5; even case r in {4, 6}."""
    t0 = time.time()
    rng = random.Random(101)
    bad = []
    for r in (3, 4, 5, 6, 7):
        for t in (0, 1):
            for r_prime in range(r + 1):
                for _ in range(20):
                    mu = _regular_mu(rng, r, t)
                    M, N = dsconst.vanishing_quantities(r, t, "odd", r_prime, mu)
                    if N != 0:
                        bad.append(("odd", r, t, r_prime, "N", N))
                    if r >= 5 and any(v != 0 for v in M):
                        bad.append(("odd", r, t, r_prime, "M", M))
    for r in (4, 6):
        for r_prime in range(0, r + 1, 2):
            for _ in range(20):
                mu = _regular_mu(rng, r, 0)
                M, N = dsconst.vanishing_quantities(r, 0, "even", r_prime, mu)
                if N != 0:
                    bad.append(("even", r, 0, r_prime, "N", N))
                if r >= 6 and any(v != 0 for v in M):
                    bad.append(("even", r, 0, r_prime, "M", M))
    _report("criterion 1: vanishing suite (M_i, N)", not bad, time.time() - t0, str(bad[:3]))


def _acceptance_lambda(m: int) -> tuple[int, ...]:
    return tuple(([3, 2, 1] + [0] * m)[:m])


def test_criterion_2_archimedean_comparisons():
    """d in {7, 8, 9, 10}, lambda coordinates <= 3, >= 50 exact samples per
    stated range per case; identities hold exactly, vanishing regions included."""
    t0 = time.time()
    bad = []
    for d in (7, 8, 9, 10):
        levis = ["M1", "M2", "M12"] if d % 2 else ["M1", "M12"]
        lam = _acceptance_lambda(d // 2)
        for levi in levis:
            case = archcmp.ArchCase(levi, d, lam)
            rep = archcmp.verify_identity(case, samples=50, seed=7, vanishing_controls=5)
            if not rep.ok:
                bad.append((d, levi, rep.failures[:1]))
    _report("criterion 2: archimedean comparison suite", not bad, time.time() - t0, str(bad[:2]))


def test_criterion_3_computation_at_p():
    """d in {7..10}, a in {1,2,3}, all admissible A (and all unramified local
    discriminant shapes): kPart equals the closed k(A) table exactly as formal
    q-polynomials, and hPart is identical across A."""
    t0 = time.time()
    bad = []
    for d in (7, 8, 9, 10):
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
                    for a in (1, 2, 3):
                        h_seen = []
                        for A in a_sets:
                            glp = len(A) if levi != "M1" else (2 if A else 0)
                            mp = bp // 2 + glp
                            try:
                                k, h = hecke.compute_fH_at_p(
                                    levi, parity, m, mp, m - mp, list(A), a,
                                    delta_plus_square=dps, delta_minus_square=dms,
                                )
                            except ExactDomainError:
                                continue  # excluded parameter shape
                            if k != hecke.expected_k_table(levi, A, a):
                                bad.append((d, levi, A, a, (dps, dms), "kPart"))
                            h_seen.append(h.serialize())
                        if h_seen and any(h != h_seen[0] for h in h_seen):
                            bad.append((d, levi, a, (bp, bm), (dps, dms), "hPart varies"))
    _report("criterion 3: computation-at-p suite", not bad, time.time() - t0, str(bad[:2]))


def test_criterion_4_number_theory():
    """Hilbert product formula on 500 random pairs |a|,|b| <= 10^4; quasi-split
    detection agrees with the classification oracle on all forms of dim <= 10
    with entries in {+-1, +-p, +-2p} for p in {3,5,7}; the global existence
    criterion d mod 8 in {3,4,5,6} for 3 <= d <= 64 and the d = 0 mod 8
    nontrivial-discriminant branch at d in {8, 16, 24}."""
    t0 = time.time()
    rng = random.Random(404)
    bad = []
    for _ in range(500):
        a = rng.randint(-10000, 10000) or 3
        b = rng.randint(-10000, 10000) or 5
        prod = hilbert_symbol(a, b, Place.real())
        for p in {2} | set(factorize(a)) | set(factorize(b)):
            prod *= hilbert_symbol(a, b, Place.finite(p))
        if prod != 1:
            bad.append(("product formula", a, b))
    import itertools

    for p in (3, 5, 7):
        entries = [1, -1, p, -p, 2 * p, -2 * p]
        place = Place.finite(p)
        for dim in range(1, 11):
            for combo in itertools.combinations_with_replacement(entries, dim):
                q = quadspace.QuadraticSpace.from_entries(combo)
                if quadspace.is_quasi_split_local(q, place) != quadspace.is_quasi_split_oracle(q, p):
                    bad.append(("oracle", p, combo))
    for d in range(3, 65):
        if quadspace.exists_global_form(d, 1) != (d % 8 in (3, 4, 5, 6)):
            bad.append(("existence", d))
    for d in (8, 16, 24):
        if not quadspace.exists_global_form(d, 2):
            bad.append(("existence branch", d))
    _report("criterion 4: number-theory suite", not bad, time.time() - t0, str(bad[:3]))


def test_criterion_5_invariants():
    """tau-k identity on every refined datum for d <= 12; the sun identity on
    all cases and A; type I/II Whittaker differing by exactly (-1)^(m-);
    Waldspurger raw vs reduced on >= 200 random configurations, m <= 6."""
    t0 = time.time()
    bad = []
    ctx = endoscopy.RealCtx()
    for d in range(7, 13):
        delta = 1 if (d % 2 == 1 or (d // 2) % 2 == 0) else -1
        for levi in ("M1", "M2", "M12"):
            for g in endoscopy.enumerate_G_endoscopy(levi, d, delta, ctx):
                if not endoscopy.tau_k_identity_check(levi, g, d):
                    bad.append(("tau-k", d, levi, g.base.d_plus, g.base.d_minus))
    all_a = {"M1": [(), (1, 2)], "M2": [(), (1,)], "M12": [(), (1,), (2,), (1, 2)]}
    for levi in ("M1", "M2", "M12"):
        for parity in ("odd", "even"):
            if levi == "M2" and parity == "even":
                continue
            for mm in range(8):
                case = signs.SignCase(levi, parity, mm + 4, 4, mm)
                for A in all_a[levi]:
                    if not signs.check_sun_identity(case, A):
                        bad.append(("sun", levi, parity, mm, A))
    for m in (4, 6, 8):
        for mp in range(0, m + 1):
            case = signs.SignCase("G", "even", m, mp, m - mp, p=2 * m, q=0)
            if signs.whittaker_comparison_sign(case, "II") != (
                (-1) ** (m - mp)
            ) * signs.whittaker_comparison_sign(case, "I"):
                bad.append(("whittaker II", m, mp))
    rng = random.Random(505)
    for _ in range(200):
        m = rng.randint(1, 6)
        mm = rng.randint(0, m)
        y = [Fraction(v, 200) for v in rng.sample(range(-199, 200), m)]
        eta = rng.choice([1, -1])
        if signs.waldspurger_sign(y, mm, eta) != signs.waldspurger_sign_reduced(y, mm, eta):
            bad.append(("waldspurger", y, mm, eta))
    _report("criterion 5: invariant suite", not bad, time.time() - t0, str(bad[:3]))


def test_criterion_6_kostant_suite():
    """The Euler-characteristic Laurent identity for B_m and D_m, m <= 4, all
    three standard Levi patterns, all dominant lambda with coordinates <= 2;
    and the two truncation criteria agree for every Weyl element."""
    t0 = time.time()
    bad = []
    for kind in ("B", "D"):
        for m in (2, 3, 4):
            datum = rootdata.RootDatum(kind, m)
            for label in ("M1", "M2", "M12"):
                levi = rootdata.standard_levi(label, m)
                for lam_c in _dominant_weights(kind, m, 2):
                    lam = rootdata.Weight.from_ints(lam_c)
                    if not rootdata.kostant_euler_identity(datum, levi, lam):
                        bad.append(("euler", kind, m, label, lam_c))
    # truncation criterion equivalence for every omega
    for kind, m in (("B", 3), ("D", 4)):
        datum = rootdata.RootDatum(kind, m)
        r = rootdata.rho(datum)
        lam = rootdata.Weight.from_ints((2, 1) + (0,) * (m - 2))
        shifted = lam + r
        for pi in (rootdata.pi1_covector(m), rootdata.pi2_covector(m)):
            t_cut = -(r.pairing(pi))
            for w, _, _ in rootdata.weyl_table(kind, m):
                mu = w.act(shifted) - r
                via_t = mu.pairing(pi) > t_cut
                via_zero = w.act(shifted).pairing(pi) > 0
                if via_t != via_zero:
                    bad.append(("truncation", kind, m, w))
    _report("criterion 6: Kostant suite", not bad, time.time() - t0, str(bad[:3]))


def test_criterion_7_negative_controls():
    """Expected-fail fixtures: the r = 2 witness with M_i != 0, and an
    out-of-range archimedean sample violating the comparison identity."""
    t0 = time.time()
    M, N = dsconst.vanishing_quantities(2, 0, "odd", 2, [Fraction(1), Fraction(2)])
    witness_ok = M[0] == -4 and N == 0
    case = archcmp.ArchCase("M2", 7, (1, 0, 0))
    rep = archcmp.verify_identity(case, samples=3, seed=13, region="out_of_range")
    arch_ok = len(rep.failures) == 3  # all out-of-range samples must fail
    _report(
        "criterion 7: negative controls fail as predicted",
        witness_ok and arch_ok,
        time.time() - t0,
        f"M={M}, out-of-range failures={len(rep.failures)}/3",
    )
