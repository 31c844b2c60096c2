import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from endolab import archcmp, rootdata
from endolab.archcmp import (
    ArchCase,
    GammaSample,
    _epsilon_R,
    _sample_circles,
    identity_gap,
    sample_in_range,
    torus_point,
    verify_identity,
)
from endolab.cli import main
from endolab.dsconst import cone_constant_1d, cone_constant_2d
from endolab.errors import ExactDomainError, ResourceLimitError, SingularPointError
from endolab.exactnum import GaussianRational
from endolab.rootdata import (
    RootDatum,
    TorusPoint,
    Weight,
    WeylElement,
    levi_positive_roots,
    rho,
    root_value,
    standard_levi,
    weyl_denominator,
)
from test_rootdata import (
    RAW,
    alternant_terms,
    apply_weyl,
    half_coords,
    head_term_plan,
    plan_edges,
    term_plan,
    weyl_group,
    weyl_table,
    without_rho_shift,
)

ZERO = GaussianRational(0)


def test_case_validation():
    with pytest.raises(ExactDomainError):
        ArchCase("M2", 8, (0, 0, 0, 0))  # no R-elliptic elements
    with pytest.raises(ExactDomainError):
        ArchCase("M1", 6, (0, 0, 0))
    with pytest.raises(ExactDomainError):
        ArchCase("M1", 7, (0, 0))


@pytest.mark.parametrize(
    "levi,d,lam",
    [("M1", 7, (1, 2, 3)), ("M2", 7, (1, 2, 3)), ("M12", 7, (1, 2, 3)), ("M1", 8, (1, 1, 1, -2)), ("M12", 8, (2, 1, 0, -1))],
)
def test_case_rejects_non_dominant_weight(levi, d, lam):
    """Rejected up front, not deep inside Phi as a cone-wall input."""
    with pytest.raises(ExactDomainError, match="need a dominant integral highest weight"):
        ArchCase(levi, d, lam)
    ArchCase(levi, d, tuple(sorted(map(abs, lam), reverse=True)))


ARCH_CASES = [(levi, d) for d in (7, 8, 9, 10) for levi in ("M1", "M2", "M12") if d % 2 or levi != "M2"]


def _monomial(gamma, exponents):
    """prod_j z_j^{e_j} by GaussianRational powers, independent of evaluate_plan."""
    out = GaussianRational(1)
    for z, e in zip(gamma.coords, exponents):
        out = out * z**e
    return out


def _product_form_sum(case, gamma, coefficient):
    """sum_w eps(w) c(w) (w lam)(gamma) prod_{a in Phi(w)} a^-1(gamma), c(w) read
    from the doubled head of w(lam + rho), over the inversion sets of weyl_table."""
    datum = case.datum
    inv_vals = [_monomial(gamma, a).inverse() for a in datum.positive_roots()]
    shifted = (Weight.from_ints(case.lam) + rho(datum)).doubled
    total = ZERO
    for w, invset, eps in weyl_table(datum.kind, datum.rank):
        chi = w.act_tuple(shifted)
        term = _monomial(gamma, w.act_tuple(case.lam))
        for i in invset:
            term = term * inv_vals[i]
        total = total + (eps * coefficient(chi[0], chi[1])) * term
    return total


def _head_coefficient(chi_1, chi_2):
    return chi_1 - 3 * chi_2 + 1


def _roots_at(case, gamma, head_weights=None, kostant=(0, 0, 0, 0)):
    """The case's _arch_plan at gamma, its head roots weighted by
    head_weights (all 0 if None) and its Kostant roots (M1, M2, M12, M12 at
    omega_0) by kostant."""
    heads, plan = archcmp._arch_plan(case.datum.kind, case.m, case.lam)
    weights = [0] * len(heads) if head_weights is None else list(head_weights)
    return rootdata.evaluate_plan(plan, gamma.coords, weights + list(kostant))


def _character_sum_with(case, gamma, coefficient):
    """The case's character sum at gamma, each head (chi_1, chi_2)
    weighted by coefficient(chi_1, chi_2)."""
    heads, _ = archcmp._arch_plan(case.datum.kind, case.m, case.lam)
    return _roots_at(case, gamma, [coefficient(*head) for head in heads])


def _vanishes(case, sample) -> bool:
    """Whether the sample lies in a vanishing region: M2 with a < 0, M12 with ab < 0."""
    return case.levi == "M2" and sample.a < 0 or case.levi == "M12" and sample.a * sample.b < 0


def _cone_sum(case, sample, gamma, x, system):
    """(-1)^q(G) eps_R(gamma) times the character sum at gamma with the cone
    constants at x of the system."""
    sign = (-1 if case.q_G % 2 else 1) * _epsilon_R(case, sample)
    cone = archcmp._cone_weights(case.datum.kind, case.m, case.lam, case.levi, x, system)
    return _roots_at(case, gamma, [sign * c for c in cone])


def Phi_normalized(case, sample, gamma):
    """The normalized character sum (-1)^q(G) eps_R(gamma) sum_w eps(w)
    n(gamma, wB) (w lam)(gamma) prod a^-1(gamma), the head roots of the
    case's plan alone; exact zero off the identity component."""
    if _vanishes(case, sample):
        return ZERO
    return _cone_sum(case, sample, gamma, *archcmp._cone_args(case, sample))


def Phi_endos_normalized(case, sample, gamma):
    """The endoscopic variant for the odd case M12, built on the short root
    system +-e1, +-e2 but weighted by eps_R of the full system, the head
    roots of the case's plan alone; exact zero unless a, b > 0."""
    if case.levi != "M12" or case.parity != "odd":
        raise ExactDomainError("the endoscopic variant lives on odd-case M12")
    if sample.a < 0 or sample.b < 0:
        return ZERO
    x, _ = archcmp._cone_args(case, sample)
    return _cone_sum(case, sample, gamma, x, "A1xA1")


def L_M_normalized(case, sample, gamma):
    """The normalized Kostant-Weyl term, the Kostant roots of the case's
    plan alone."""
    return _roots_at(case, gamma, kostant=archcmp._kostant_weights(case, sample.b))


@pytest.mark.parametrize("levi,d", ARCH_CASES)
def test_gap_is_the_sides_combined(levi, d):
    """identity_gap, one evaluation with the weight table, is the
    combination of the three sides, each evaluated alone: Phi + 2q L_M on
    M1, Phi + q L_M on M2, 4q L_M - Phi - Phi_endos on M12, at stated and
    out-of-range samples, where it is nonzero."""
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    q = -1 if case.q_G % 2 else 1
    rng = random.Random(200 + d)
    gaps = []
    for region in ("stated", "stated", "out_of_range"):
        sample, gamma = sample_in_range(case, rng, region)
        phi, lm = Phi_normalized(case, sample, gamma), L_M_normalized(case, sample, gamma)
        if levi == "M12":
            want = 4 * q * lm - phi
            if d % 2:
                want = want - Phi_endos_normalized(case, sample, gamma)
        else:
            want = phi + (2 * q if levi == "M1" else q) * lm
        gaps.append(identity_gap(case, sample, gamma))
        assert gaps[-1] == want
    assert gaps[:2] == [ZERO, ZERO] and gaps[2] != ZERO


@pytest.mark.parametrize("levi,d", ARCH_CASES)
def test_character_sum_matches_product_form(levi, d):
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    _, gamma = sample_in_range(case, random.Random(d))
    assert _character_sum_with(case, gamma, _head_coefficient) == _product_form_sum(case, gamma, _head_coefficient)


# Edges of the plan of each (d, lambda), lambda = (3, 2, 1, 0, ...), and of
# its five groups built apart: the character sum, one root per head, and the
# Kostant traces of M1, M2 and M12 and the M12 term at omega_0 gamma.  The
# counts apart are those of term_plan over the enumerated term lists; the
# shared plan holds far fewer edges than their sum, and must not grow.  The
# rank-7 rows (d = 14, 15) were measured so once; a term_plan there takes
# seconds, so only the counts are checked.
PLAN_EDGES = {
    7: (78, (42, 21, 21, 18, 18)),
    8: (134, (85, 52, 46, 43, 43)),
    9: (173, (104, 60, 60, 54, 54)),
    10: (286, (199, 139, 131, 125, 125)),
    14: (1159, (963, 825, 813, 798, 798)),
    15: (1284, (1050, 889, 889, 868, 868)),
}
PLAN_CASES = [(levi, d) for d in PLAN_EDGES for levi in ("M1", "M2", "M12") if d % 2 or levi != "M2"]
CUTOFFS = {"M1": ("pi1",), "M2": ("pi2",), "M12": ("pi1", "pi2")}


def _one_hot(i, n):
    return [int(j == i) for j in range(n)]


def _kostant_groups(kind, m, lam):
    """The Kostant groups of _arch_plan in its order: the entries of M1, M2
    and M12, and the _at_omega0 entries of M12."""
    groups = [archcmp._kostant_entries(kind, m, label, lam, CUTOFFS[label]) for label in ("M1", "M2", "M12")]
    return groups + [archcmp._at_omega0(kind, groups[2])]


def _plans_apart(kind, m, lam):
    """The character-sum plan, one root per head, and the one-root plan of
    each Kostant group, each built alone by _alternant_plan."""
    datum = RootDatum(kind, m)
    r = rho(datum).doubled
    _, head_groups = rootdata.alternant_head_groups(datum, Weight.from_ints(lam))
    return [rootdata._alternant_plan(kind, head_groups, r)] + [
        rootdata._alternant_plan(kind, (group,), r) for group in _kostant_groups(kind, m, lam)
    ]


def _span(plan):
    """(lowest, highest exponent) of every coordinate of the plan."""
    hi = {j: h for j, _, h in plan.columns}
    return [(lo, hi.get(j, lo)) for j, lo in enumerate(plan.shift)]


@pytest.mark.parametrize("levi,d", PLAN_CASES)
def test_plans_match_term_plan_and_keep_their_edges(levi, d):
    """The case's plan has the PLAN_EDGES of its (d, lambda), fewer than its
    groups built apart, which have theirs; each coordinate spans what it
    spans in those plans.  Up to d = 10, every head root, evaluated on its
    own, against term_plan over the enumerated alternant terms of its head,
    and all heads with seeded weights, at seeded points of the case; the
    character-sum plan built apart has term_plan's shift, columns and
    edges."""
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    kind, m, lam = case.datum.kind, case.m, case.lam
    heads, plan = archcmp._arch_plan(kind, m, lam)
    apart = _plans_apart(kind, m, lam)
    edges, edges_apart = PLAN_EDGES[d]
    assert tuple(map(plan_edges, apart)) == edges_apart
    assert plan_edges(plan) == edges < sum(edges_apart)
    spans = list(zip(*map(_span, apart)))
    assert _span(plan) == [(min(lo for lo, _ in col), max(hi for _, hi in col)) for col in spans]
    if d > 10:
        return
    want = head_term_plan(case.datum, case.weight(), heads)
    assert (apart[0].shift, apart[0].columns) == (want.shift, want.columns)
    assert plan_edges(want) == edges_apart[0]
    rng = random.Random(d)
    for _ in range(3):
        coords = sample_in_range(case, rng)[1].coords
        for i in range(len(heads)):
            got = rootdata.evaluate_plan(plan, coords, _one_hot(i, len(plan.roots)))
            assert got == rootdata.evaluate_plan(want, coords, _one_hot(i, len(heads))), heads[i]
        weights = [rng.randint(-4, 4) for _ in heads]
        assert rootdata.evaluate_plan(plan, coords, weights + [0] * 4) == rootdata.evaluate_plan(want, coords, weights)


def _kostant_terms(kind, m, levi_label, lam, cutoffs):
    """The reference for archcmp._kostant_entries: Delta_M times the
    truncated Kostant trace as a list of (coefficient, exponents) terms,
    each entry's head monomials (on M1 x^a y^b and -x^(b-1) y^(a+1)) times
    the alternant terms of its SO-tail weight."""
    datum = RootDatum(kind, m)
    levi = standard_levi(levi_label, m)
    tail = RootDatum(kind, m - levi.so_start)
    pi = {"pi1": rootdata.pi1_covector(m), "pi2": rootdata.pi2_covector(m)}
    terms = []
    for deg, mu in rootdata.kostant_cohomology(datum, levi, Weight.from_ints(lam)):
        if all(rootdata.passes_truncation(datum, mu, pi[c]) for c in cutoffs):
            c = tuple(x // 2 for x in mu.doubled)
            sgn = -1 if deg % 2 else 1
            if levi_label == "M1":
                a, b = c[:2]
                heads = ((sgn, (a, b)), (-sgn, (b - 1, a + 1)))
            else:
                heads = ((sgn, c[: levi.so_start]),)
            for eps, so in alternant_terms(tail, Weight.from_ints(c[levi.so_start :])):
                terms += [(s * eps, head + so) for s, head in heads]
    return terms


def _omega0_shift(kind, m):
    """The M12 term at omega_0 gamma times the delta_P^(1/2) ratio, read at
    gamma as an exponent map: omega_0 inverts b (and z on D), and the ratio
    |b|^-(2m-3) on B, or b^-2(m-2) with z^-2(m-3) from the tail's Delta on
    D, shifts the inverted exponents."""
    if kind == "B":
        return lambda e: (e[0], -e[1] - (2 * m - 3)) + e[2:]
    return lambda e: (e[0], -e[1] - 2 * (m - 2), -e[2] - 2 * (m - 3)) + e[3:]


@lru_cache(maxsize=None)
def _kostant_term_plans(kind, m, lam):
    """term_plan over the enumerated terms of each Kostant group of
    _arch_plan, in its order, the omega_0 term by the exponent map."""
    wanted = [term_plan((_kostant_terms(kind, m, label, lam, CUTOFFS[label]),)) for label in ("M1", "M2", "M12")]
    terms = _kostant_terms(kind, m, "M12", lam, CUTOFFS["M12"])
    shift = _omega0_shift(kind, m)
    return wanted + [term_plan(([(c, shift(e)) for c, e in terms],))]


# The acceptance cases and, on D, weights with lambda_m != 0, where the
# tail alternant at z^-1 differs from the tail alternant.
KOSTANT_REFERENCE_CASES = [(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2])) for levi, d in ARCH_CASES] + [
    (levi, d, lam) for d, lam in ((8, (2, 1, 1, 1)), (8, (2, 1, 1, -1)), (10, (2, 1, 1, 1, 1))) for levi in ("M1", "M12")
]


@pytest.mark.parametrize("levi,d,lam", KOSTANT_REFERENCE_CASES)
def test_kostant_plans_are_the_term_plans(levi, d, lam):
    """Every Kostant root of the case's plan (the M1, M2 and M12 traces and
    the M12 term at omega_0 gamma), evaluated on its own, against term_plan
    over the enumerated terms of its group, the omega_0 term by the exponent
    map, at seeded points of the case; and each group's plan built apart
    has term_plan's shift and columns, as many nodes per level and edges."""
    case = ArchCase(levi, d, lam)
    kind, m = case.datum.kind, case.m
    heads, plan = archcmp._arch_plan(kind, m, lam)
    wanted = _kostant_term_plans(kind, m, lam)
    rng = random.Random(d)
    points = [sample_in_range(case, rng)[1].coords for _ in range(3)]
    for n, (apart, want) in enumerate(zip(_plans_apart(kind, m, lam)[1:], wanted, strict=True)):
        assert (apart.shift, apart.columns) == (want.shift, want.columns)
        assert [len(level) for level in apart.levels] == [len(level) for level in want.levels]
        assert plan_edges(apart) == plan_edges(want)
        weights = _one_hot(len(heads) + n, len(plan.roots))
        for coords in points:
            assert rootdata.evaluate_plan(plan, coords, weights) == rootdata.evaluate_plan(want, coords)


@pytest.mark.parametrize("levi,d", ARCH_CASES)
def test_cold_case_enumerates_no_weyl_group(monkeypatch, levi, d):
    """verify_identity with every plan and table cache cleared builds its
    plans, Kostant tables and weights without listing W: _alternant_images,
    which lists W for the Weyl numerator, is never called, and rootdata has
    no full Weyl table."""
    calls = []
    real = rootdata._alternant_images
    monkeypatch.setattr(rootdata, "_alternant_images", lambda kind, mu: calls.append(mu) or real(kind, mu))
    for cached in (archcmp._arch_plan, archcmp._cone_weights, rootdata._kostant_table):
        cached.cache_clear()
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    report = verify_identity(case, samples=2, seed=3, vanishing_controls=1)
    assert not report.failures, report.failures
    assert calls == [] and not hasattr(rootdata, "weyl_table")


CHAMBER_REPS = ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))


@pytest.mark.parametrize("levi,d", ARCH_CASES)
def test_cone_weights_are_the_cone_tables(levi, d):
    """The cached weight of every head against dsconst's tables: on M1 and M2
    the rank-1 constant at both x_sign, on chi_1 + chi_2 and on chi_1; on
    M12 the rank-2 constant at each of the 8 chamber reps for each of B2, D2
    and A1xA1, where a head on a cone wall raises as the table does."""
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    kind, m, lam = case.datum.kind, case.m, case.lam
    heads, _ = archcmp._arch_plan(kind, m, lam)
    if levi != "M12":
        for x_sign in (1, -1):
            read = (lambda c1, c2: c1 + c2) if levi == "M1" else (lambda c1, c2: c1)
            want = tuple(cone_constant_1d(x_sign, read(*head)) for head in heads)
            assert archcmp._cone_weights(kind, m, lam, levi, x_sign) == want
        return
    for system in ("B2", "D2", "A1xA1"):
        for rep in CHAMBER_REPS:
            try:
                want = tuple(cone_constant_2d(rep, head, system) for head in heads)
            except SingularPointError:
                with pytest.raises(SingularPointError):
                    archcmp._cone_weights(kind, m, lam, levi, rep, system)
                continue
            assert archcmp._cone_weights(kind, m, lam, levi, rep, system) == want


# sha256 of the exact [re_n, im_n, den] of Phi_normalized, L_M_normalized and,
# on odd M12, Phi_endos_normalized at three seeded stated-range samples per
# case, as the per-term GaussianRational evaluator computed them.  Both sides
# of each identity share evaluate_plan, so a change that cancels between
# them would pass the identity checks but not these.
PINNED_VALUES = {
    ("M1", 7): "eec130234d0763efc6dd4c559864e15754c698c2a17d756004c5ee5e5a9525df",
    ("M2", 7): "a8f80a461efe56880e496267a435c21106b828141584e59047dbb44c665f3c49",
    ("M12", 7): "868d36dff23614970218d38bfc07c8817d887e14240cd6ac9c13e252fc8b0064",
    ("M1", 8): "cc5d26e6d35ba05e388b031e6fe67770ce2344c8214049b4177a827abe300df3",
    ("M12", 8): "0e8d38beae179c9bcbb52ac9aeff83f4d8c44dc471e01c0d5fe9266e5881bdc4",
    ("M1", 9): "c0c9d2714c20a5c7ec0b5aac18a55268c65faaf8a4fcbae18fdc479b285f0f75",
    ("M2", 9): "a0d5319af4f7815b1ab454c8606a77ff96a3b87aaed50c15391b1127921cb949",
    ("M12", 9): "24026074b57ebf4add6eb40eb09c26e73d4e34a4282251dc7e95e2f8ddf261be",
    ("M1", 10): "53a8f1baeb47719f7d0f2a0625f97c8bbe722ba748d40591d058e2ea7c5f2d82",
    ("M12", 10): "bc05a4f70cf9319b27065b3787945a679ebdc08a0eb4e412a71a686f40d114cf",
}


@pytest.mark.parametrize("levi,d", ARCH_CASES)
def test_normalized_values_are_pinned(levi, d):
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    rng = random.Random(1000 + d)
    values = []
    for _ in range(3):
        sample, gamma = sample_in_range(case, rng)
        row = [Phi_normalized(case, sample, gamma), L_M_normalized(case, sample, gamma)]
        if levi == "M12" and d % 2:
            row.append(Phi_endos_normalized(case, sample, gamma))
        values.append([[z.re_n, z.im_n, z.den] for z in row])
    digest = hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()
    assert digest == PINNED_VALUES[(levi, d)]


def _omega0(case):
    """omega_0 of the M12 term: it inverts b, and on D also z, the first tail coordinate."""
    flips = 1 if case.parity == "odd" else 2
    return WeylElement((1,) + (-1,) * flips + (1,) * (case.m - 1 - flips), tuple(range(case.m)))


def _m12_points(case):
    """Seeded stated-range points of an M12 case, three with b in each of
    (-inf, -1), (-1, 0), (0, 1) and (1, inf)."""
    rng = random.Random(case.d)
    out = {}
    for _ in range(200):
        sample, gamma = sample_in_range(case, rng)
        points = out.setdefault((sample.b > 0, abs(sample.b) > 1), [])
        if len(points) < 3:
            points.append((sample, gamma))
        if sorted(map(len, out.values())) == [3, 3, 3, 3]:
            break
    assert sorted(map(len, out.values())) == [3, 3, 3, 3]
    return [p for points in out.values() for p in points]


def _sqrt_fraction(x: Fraction) -> Fraction:
    """Exact square root of a rational that is a perfect square."""
    if x < 0:
        raise ExactDomainError(f"{x} is negative")
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ExactDomainError(f"{x} is not a perfect square")
    return Fraction(rn, rd)


def test_sqrt_fraction():
    assert _sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(ExactDomainError):
        _sqrt_fraction(Fraction(2))


def _abs2(z: GaussianRational) -> GaussianRational:
    """|z|^2, a real Gaussian rational."""
    return z * z.conjugate()


def _delta_half_ratio(case, coords, coords_p) -> Fraction:
    """delta_P^(1/2)(gamma') / delta_P^(1/2)(gamma), an exact positive rational,
    from the coordinates of gamma and gamma', root by root.

    |alpha(gamma)|^2 = alpha(gamma) times its conjugate, so the product below
    is the 4th power of the ratio; _sqrt_fraction raises unless both roots
    are exact."""
    datum = case.datum
    levi_pos = set(levi_positive_roots(datum, standard_levi(case.levi, case.m)))
    ratio_4th = Fraction(1)
    for alpha in datum.positive_roots():
        if alpha not in levi_pos:
            ratio_4th *= (_abs2(root_value(coords_p, alpha)) / _abs2(root_value(coords, alpha))).re
    return _sqrt_fraction(_sqrt_fraction(ratio_4th))


@pytest.mark.parametrize("d", [7, 8, 9, 10])
def test_omega0_delta_half_ratio_is_a_monomial_in_b(d):
    """delta_P^(1/2)(omega_0 gamma) / delta_P^(1/2)(gamma), root by root, is
    sgn(b) b^-(2m-3) = |b|^-(2m-3) on B and b^-2(m-2) on D: the shift and
    sign that the omega_0 term list applies at gamma."""
    case = ArchCase("M12", d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    m = case.m
    for sample, gamma in _m12_points(case):
        b = sample.b
        if case.parity == "odd":
            closed = (1 if b > 0 else -1) * b ** -(2 * m - 3)
        else:
            closed = b ** -(2 * (m - 2))
        assert _delta_half_ratio(case, gamma.coords, apply_weyl(gamma, _omega0(case)).coords) == closed


@pytest.mark.parametrize("d", [8, 10])
def test_omega0_tail_denominator_is_z_power(d):
    """On D, omega_0 inverts z, and Delta_tail(omega_0 gamma) = z^2(m-3) Delta_tail(gamma)."""
    case = ArchCase("M12", d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    tail = RootDatum("D", case.m - 2).positive_roots()
    for _, gamma in _m12_points(case):
        at_omega0 = weyl_denominator(tail, apply_weyl(gamma, _omega0(case)).coords[2:])
        assert at_omega0 == gamma.coords[2] ** (2 * (case.m - 3)) * weyl_denominator(tail, gamma.coords[2:])


@pytest.mark.parametrize("d", [7, 8])
def test_m1_heads_without_the_1_over_x_shift_fail(monkeypatch, d):
    """Negative control: the M1 heads x^(a+1) y^b - x^b y^(a+1), the GL_2
    numerator before Delta_M cancels x - y, break the identity."""
    case = ArchCase("M1", d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    rng = random.Random(d)
    samples = [sample_in_range(case, rng) for _ in range(3)]
    assert all(identity_gap(case, s, gamma) == ZERO for s, gamma in samples)
    real = archcmp._kostant_entries

    def times_x(kind, m, levi_label, lam, cutoffs):
        entries = real(kind, m, levi_label, lam, cutoffs)
        return {((head[0] + 2,) + head[1:], tail, odd): c for (head, tail, odd), c in entries.items()}

    monkeypatch.setattr(archcmp, "_kostant_entries", times_x)
    archcmp._arch_plan.cache_clear()
    try:
        assert all(identity_gap(case, s, gamma) != ZERO for s, gamma in samples)
    finally:
        archcmp._arch_plan.cache_clear()


def test_omega0_without_the_d_parity_flip_fails(monkeypatch):
    """Negative control: the omega_0 entries on D with only b inverted, the
    tail alternant left as it is instead of its odd-flip sum with det w
    negated, which is z inverted, break the identity at a weight with
    lambda_m != 0 (at lambda_m = 0 both sums are equal)."""
    assert main(["verify", "arch", "--case", "M12", "--d", "8", "--lambda", "2,1,1,1"]) == 0
    real = archcmp._at_omega0
    monkeypatch.setattr(archcmp, "_at_omega0", lambda kind, entries: real("B", entries))
    archcmp._arch_plan.cache_clear()
    try:
        assert main(["verify", "arch", "--case", "M12", "--d", "8", "--lambda", "2,1,1,1"]) == 1
    finally:
        archcmp._arch_plan.cache_clear()


def test_character_sum_without_rho_shift_fails(monkeypatch):
    """Negative control: exponents w(lam+rho) with the -rho shift dropped."""
    case = ArchCase("M12", 8, (3, 2, 1, 0))
    _, gamma = sample_in_range(case, random.Random(8))
    expected = _product_form_sum(case, gamma, _head_coefficient)
    monkeypatch.setattr(archcmp, "_alternant_plan", without_rho_shift(rootdata._alternant_plan))
    archcmp._arch_plan.cache_clear()
    try:
        assert _character_sum_with(case, gamma, _head_coefficient) != expected
    finally:
        archcmp._arch_plan.cache_clear()


def _swapped(w):
    """K_M12 and K_M12 at omega_0 trade their weights."""
    return (w[0], w[1], w[3], w[2])


def _without_eta2(w):
    """K_M2 weighted -1, with eta_2 dropped."""
    return (w[0], -1, w[2], w[3])


def _omega0_negated(w):
    """K_M12 at omega_0 with the sign of its delta_P^(1/2) ratio flipped."""
    return (w[0], w[1], w[2], -w[3])


# The (b > 0, |b| > 1) regions of _m12_points where each mutated M12 weight
# table differs from the true one.  On even d both weights of K_M12 and its
# omega_0 term are 4q and eta_2 = 1, so the first two mutations change
# nothing there.
MUTATION_REGIONS = {
    (_swapped, "odd"): {(False, False), (False, True)},  # b < 0: the ratio sign is -1
    (_without_eta2, "odd"): {(True, False)},  # 0 < b < 1: eta_2 = -1
    (_swapped, "even"): set(),
    (_without_eta2, "even"): set(),
    (_omega0_negated, "odd"): {(False, False), (False, True), (True, False), (True, True)},
    (_omega0_negated, "even"): {(False, False), (False, True), (True, False), (True, True)},
}


@pytest.mark.parametrize("d", [7, 8, 9, 10])
@pytest.mark.parametrize("mutation", [_swapped, _without_eta2, _omega0_negated], ids=lambda f: f.__name__)
def test_m12_weight_table_mutations_fail(monkeypatch, d, mutation):
    """Negative control for the M12 row of the weight table: with the K_M12
    and omega_0 weights swapped, eta_2 dropped on K_M2, or the omega_0
    ratio sign flipped, identity_gap is nonzero at stated samples exactly
    in the b-regions where the mutated weights differ from the true ones."""
    case = ArchCase("M12", d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    points = _m12_points(case)
    assert all(identity_gap(case, sample, gamma) == ZERO for sample, gamma in points)
    real = archcmp._kostant_weights
    monkeypatch.setattr(archcmp, "_kostant_weights", lambda case, b: mutation(real(case, b)))
    broken = {(s.b > 0, abs(s.b) > 1) for s, gamma in points if identity_gap(case, s, gamma) != ZERO}
    assert broken == MUTATION_REGIONS[(mutation, case.parity)]
    for sample, gamma in points:
        if (sample.b > 0, abs(sample.b) > 1) in broken:
            assert identity_gap(case, sample, gamma) != ZERO


@pytest.mark.parametrize("d", [10, 11])
def test_partial_weights_are_sums_of_one_hot_roots(d):
    """evaluate_plan, which folds only the nodes that roots of nonzero
    weight reach, on the D5 and B5 plans: weights with zeros (one side
    alone, one Kostant root, seeded mixes) give sum w_i times the one-hot
    value of root i, and all-zero weights give ZERO.  A node that no root
    of nonzero weight reaches is not read: one whose edges name a child
    that does not exist changes nothing until its root is weighted."""
    case = ArchCase("M12", d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    heads, plan = archcmp._arch_plan(case.datum.kind, case.m, case.lam)
    n = len(plan.roots)
    rng = random.Random(d)
    coords = sample_in_range(case, rng)[1].coords
    one_hot = [rootdata.evaluate_plan(plan, coords, _one_hot(i, n)) for i in range(n)]
    assert ZERO not in one_hot[len(heads) :]
    vectors = [
        [rng.randint(-3, 3) for _ in heads] + [0] * 4,
        [0] * len(heads) + [2, -1, 0, 3],
        _one_hot(len(heads), n),
    ] + [[rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(n)] for _ in range(4)]
    for weights in vectors:
        want = sum((w * value for w, value in zip(weights, one_hot)), ZERO)
        assert rootdata.evaluate_plan(plan, coords, weights) == want
    assert rootdata.evaluate_plan(plan, coords, [0] * n) == ZERO
    dangling = len(plan.levels[1])
    levels = (plan.levels[0] + (((0, 1, dangling),),),) + plan.levels[1:]
    poisoned = rootdata.TermPlan(plan.shift, plan.columns, levels, plan.roots + ((1, len(plan.levels[0])),))
    assert rootdata.evaluate_plan(poisoned, coords, vectors[1] + [0]) == rootdata.evaluate_plan(plan, coords, vectors[1])
    with pytest.raises(IndexError):
        rootdata.evaluate_plan(poisoned, coords, [0] * n + [1])


@pytest.mark.parametrize("levi,d", [(levi, d) for levi, d in ARCH_CASES if levi != "M1"])
def test_vanishing_regions_evaluate_nothing(monkeypatch, levi, d):
    """In the vanishing regions, M2 with a < 0 and M12 with ab < 0, both
    character sums are zero by definition: identity_gap returns ZERO there
    without evaluating a plan, so the report's vanishing-region controls
    hold by definition.  A stated sample does evaluate."""

    def refuse(*args):
        raise AssertionError("evaluate_plan called")

    monkeypatch.setattr(archcmp, "evaluate_plan", refuse)
    monkeypatch.setattr(rootdata, "evaluate_plan", refuse)
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    rng = random.Random(d)
    for _ in range(5):
        sample, gamma = sample_in_range(case, rng, "vanishing")
        assert _vanishes(case, sample) and identity_gap(case, sample, gamma) == ZERO
    sample, gamma = sample_in_range(case, rng)
    with pytest.raises(AssertionError, match="evaluate_plan called"):
        identity_gap(case, sample, gamma)


@pytest.mark.parametrize("levi,lam", [("M1", (0, 0, 0)), ("M2", (1, 1, 0)), ("M12", (2, 1, 0))])
def test_identities_d7(levi, lam):
    case = ArchCase(levi, 7, lam)
    report = verify_identity(case, samples=4, seed=11, vanishing_controls=2)
    assert not report.failures, report.failures


@pytest.mark.parametrize("levi,lam", [("M1", (1, 1, 0, 0)), ("M12", (2, 1, 1, -1))])
def test_identities_d8(levi, lam):
    case = ArchCase(levi, 8, lam)
    report = verify_identity(case, samples=3, seed=5)
    assert not report.failures, report.failures


def test_identity_d9_m2():
    case = ArchCase("M2", 9, (2, 1, 0, 0))
    report = verify_identity(case, samples=2, seed=3)
    assert not report.failures, report.failures


def test_vanishing_regions():
    rng = random.Random(17)
    case = ArchCase("M2", 7, (1, 0, 0))
    s, gamma = sample_in_range(case, rng, "vanishing")
    assert s.a < 0 and Phi_normalized(case, s, gamma) == ZERO
    case12 = ArchCase("M12", 7, (1, 0, 0))
    s12, gamma12 = sample_in_range(case12, rng, "vanishing")
    assert s12.a * s12.b < 0
    assert Phi_normalized(case12, s12, gamma12) == ZERO
    assert Phi_endos_normalized(case12, s12, gamma12) == ZERO


def test_endos_zero_for_negative_pair():
    case = ArchCase("M12", 7, (0, 0, 0))
    s = GammaSample(Fraction(-1, 5), Fraction(-1, 2), (Fraction(1, 3),))
    gamma = torus_point(case, s)
    assert Phi_endos_normalized(case, s, gamma) == ZERO
    # but Phi itself is not forced to vanish there
    assert identity_gap(case, s, gamma) == ZERO


def _epsilon_R_endos(sample) -> int:
    """eps_R of the endoscopic system +-e1, +-e2: (-1) to the number of a, b
    in (0, 1)."""
    return -1 if sum(0 < v < 1 for v in (sample.a, sample.b)) % 2 else 1


def _symmetric(case, sample, gamma, other, expected_sign) -> bool:
    """Phi at the sample equals Phi at the other sample, and the eps_R
    eps_R_endos weighted endoscopic sums agree up to expected_sign.

    The statements concern the un-normalized sums, so the two normalized
    values are compared through the exact delta_P^(1/2)-ratio (the Levi
    factor Delta_M is invariant under both moves)."""
    other_gamma = torus_point(case, other)
    r = _delta_half_ratio(case, gamma.coords, other_gamma.coords)
    if Phi_normalized(case, sample, gamma) != r * Phi_normalized(case, other, other_gamma):
        return False
    w1 = _epsilon_R(case, sample) * _epsilon_R_endos(sample)
    w2 = _epsilon_R(case, other) * _epsilon_R_endos(other)
    e1 = Phi_endos_normalized(case, sample, gamma)
    e2 = Phi_endos_normalized(case, other, other_gamma)
    return w1 * e1 == (expected_sign * w2 * r) * e2


def test_symmetry_swap_and_invert():
    """The swap (a,b) -> (b,a) preserves Phi and negates the weighted
    endoscopic sum; inverting a -> 1/a preserves both."""
    rng = random.Random(23)
    case = ArchCase("M12", 7, (1, 1, 0))
    checked = 0
    while checked < 4:
        s, gamma = sample_in_range(case, rng)
        if s.a == s.b:
            continue
        assert s.a * s.b > 0
        assert _symmetric(case, s, gamma, GammaSample(s.b, s.a, s.circle_params), -1)
        assert _symmetric(case, s, gamma, GammaSample(1 / s.a, s.b, s.circle_params), 1)
        checked += 1


def test_singular_sample_rejected():
    case = ArchCase("M2", 7, (0, 0, 0))
    with pytest.raises(SingularPointError):
        torus_point(case, GammaSample(Fraction(1), None, (Fraction(1, 3), Fraction(1, 5))))


@pytest.mark.parametrize("levi,d", ARCH_CASES)
def test_torus_point_runs_once_per_draw(monkeypatch, levi, d):
    """verify_identity calls torus_point once per draw that reaches it: once
    per accepted sample, whose point identity_gap evaluates at, and once per
    rejected draw.  Every third call is rejected here as if on a root wall,
    which seeded draws in range hardly ever are.  No point is built twice."""
    calls, built, evaluated = [], [], []
    real_point, real_gap = archcmp.torus_point, archcmp.identity_gap

    def counted_point(case, sample):
        calls.append(sample)
        if len(calls) % 3 == 0:
            raise SingularPointError("rejected for the count")
        point = real_point(case, sample)
        built.append(point)
        return point

    def recorded_gap(case, sample, point):
        evaluated.append(point)
        return real_gap(case, sample, point)

    monkeypatch.setattr(archcmp, "torus_point", counted_point)
    monkeypatch.setattr(archcmp, "identity_gap", recorded_gap)
    case = ArchCase(levi, d, tuple(([3, 2, 1] + [0] * d)[: d // 2]))
    report = verify_identity(case, samples=5, seed=7, vanishing_controls=2)
    assert not report.failures, report.failures
    accepted = 5 + report.controls
    assert len(calls) == accepted + len(calls) // 3
    assert len(built) == len(evaluated) == accepted and all(p is q for p, q in zip(evaluated, built))


def test_out_of_range_mismatch_witness():
    # frozen negative control: the stated identity fails outside its range
    case = ArchCase("M2", 7, (1, 0, 0))
    report = verify_identity(case, samples=3, seed=13, region="out_of_range")
    assert report.failures, "identity unexpectedly held outside its range"


def test_reports_are_deterministic():
    case = ArchCase("M1", 7, (1, 0, 0))
    r1 = verify_identity(case, samples=3, seed=21)
    r2 = verify_identity(case, samples=3, seed=21)
    assert r1.failures == r2.failures and not r1.failures


def _on_root_wall(case, sample) -> bool:
    """Whether some positive root is 1 at the sample's point, its
    coordinates built here, the circle points by the Fraction formula, and
    every root read by root_value."""
    circles = tuple(GaussianRational((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in sample.circle_params)
    if case.levi == "M1":
        head = (GaussianRational(sample.a, sample.b), GaussianRational(sample.a, -sample.b))
    elif case.levi == "M2":
        head = (GaussianRational(sample.a),)
    else:
        head = (GaussianRational(sample.a), GaussianRational(sample.b))
    gamma = TorusPoint(head + circles, (RAW,) * len(head + circles))
    return any(root_value(gamma.coords, alpha) == 1 for alpha in case.datum.positive_roots())


def _raises_singular(case, sample) -> bool:
    try:
        torus_point(case, sample)
    except SingularPointError:
        return True
    return False


@pytest.mark.parametrize(
    "levi,d", [(levi, d) for d in range(7, 12) for levi in ("M1", "M2", "M12") if d % 2 or levi != "M2"]
)
def test_torus_point_regularity_matches_root_values(levi, d):
    """torus_point, comparing coordinates, raises exactly when some positive
    root is 1 at gamma: on seeded draws from small pools, where walls are
    common, and on each kind of wall: equal circle parameters (e_i - e_j),
    t and -t (e_i + e_j on compact coordinates), t = 0 and a = 1 (e_i, on B
    only), a = b and a = 1/b (e_1 -+ e_2 on M12), and the M1 pair on the
    unit circle (e_1 + e_2)."""
    case = ArchCase(levi, d, (0,) * (d // 2))
    n = case.m - 1 if levi == "M2" else case.m - 2
    b_ok = None if levi == "M2" else Fraction(1, 3)
    ts = [Fraction(p, q) for p, q in ((1, 3), (2, 7), (3, 4), (1, 5), (4, 9))][:n]
    on_b = case.datum.kind == "B"
    named = [
        (ts[:1] * 2 + ts[2:n], True),
        (ts[:1] + [-ts[0]] + ts[2:n], True),
        ([Fraction(0)] + ts[1:n], on_b),
    ]
    a_ok = Fraction(1, 2)
    expected = [(GammaSample(a_ok, b_ok, tuple(circ)), want) for circ, want in named if len(circ) == n]
    if levi == "M1":
        expected += [(GammaSample(Fraction(3, 5), Fraction(-4, 5), tuple(ts)), True)]
    else:
        expected += [(GammaSample(Fraction(1), b_ok, tuple(ts)), on_b)]
    if levi == "M12":
        expected += [(GammaSample(Fraction(1, 3), Fraction(1, 3), tuple(ts)), True)]
        expected += [(GammaSample(Fraction(1, 3), Fraction(3), tuple(ts)), True)]
    expected += [(GammaSample(a_ok, b_ok, tuple(ts)), False)]
    for sample, want in expected:
        assert _on_root_wall(case, sample) == want, sample
        assert _raises_singular(case, sample) == want, sample

    rng = random.Random(d)
    t_pool = [Fraction(p, q) for p, q in ((0, 1), (1, 1), (-1, 1), (1, 3), (-1, 3), (1, 2), (-1, 2), (2, 7))]
    a_pool = [Fraction(p, q) for p, q in ((1, 1), (-1, 1), (1, 2), (2, 1), (3, 5), (-3, 5), (1, 3))]
    b_pool = [Fraction(p, q) for p, q in ((4, 5), (-4, 5), (1, 2), (2, 1), (1, 3), (3, 1), (-1, 2))]
    seen = set()
    for _ in range(200):
        sample = GammaSample(
            rng.choice(a_pool),
            None if levi == "M2" else rng.choice(b_pool),
            tuple(rng.choice(t_pool) for _ in range(n)),
        )
        wall = _on_root_wall(case, sample)
        assert _raises_singular(case, sample) == wall, sample
        seen.add(wall)
    assert seen == {True, False}


def test_gamma_sample_regularity_enforced():
    case = ArchCase("M12", 7, (0, 0, 0))
    with pytest.raises((SingularPointError, ExactDomainError)):
        torus_point(case, GammaSample(Fraction(1, 2), None, (Fraction(1, 3),)))


def test_cone_equivalence_pairing_never_degenerate():
    # the restriction of w(lam+rho) to the split line is (chi_1+chi_2)/2 times
    # the generator and never vanishes, so membership of the positive ray is
    # exactly positivity of the pairing against e_1^v + e_2^v
    B3 = RootDatum("B", 3)
    lam = Weight.from_ints([2, 1, 0])
    r = rho(B3)
    for w in weyl_group(B3):
        chi = Weight(w.act_tuple((lam + r).doubled))
        chi_1, chi_2 = half_coords(chi)[:2]
        coeff = (chi_1 + chi_2) / 2
        assert coeff != 0
        assert (coeff > 0) == (chi.pairing_doubled((1, 1, 0)) > 0)


def test_sample_in_range_gives_up_after_rejected_draws():
    class Rejecting(random.Random):
        # every draw of a lands on a = 0, which the M1 range rejects
        def randint(self, lo, hi):
            return 0 if lo <= 0 <= hi else lo

    with pytest.raises(ResourceLimitError):
        sample_in_range(ArchCase("M1", 7, (0, 0, 0)), Rejecting(1))


def test_sample_circles_gives_up_after_duplicate_draws():
    class Constant(random.Random):
        # every draw is the same circle parameter 1/201
        def randint(self, lo, hi):
            return lo

    assert _sample_circles(Constant(1), 1) == (Fraction(1, 201),)
    with pytest.raises(ResourceLimitError):
        _sample_circles(Constant(1), 2)
