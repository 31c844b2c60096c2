"""Kostant-Weyl terms and normalized discrete-series character sums for the
standard Levis of SO(d-2, 2), and the exact verification of the archimedean
comparison identities.

Both sides of each identity are computed from disjoint inputs: the
Kostant-Weyl term from Kostant cohomology entries and weight truncation; the
character sum from the heads of the alternant and the rank <= 2 cone tables.
Their groups are interned in one plan per (kind, m, lambda), _arch_plan,
which stores the SO-tail alternants they have in common once, and a
sample's gap is one evaluate_plan call with one integer weight per root:
the cone constants on the heads, the Kostant-Weyl coefficients on the
Kostant groups.  The tests check each group's root against its own
term_plan reference.  All values are normalized by the same positive factor
delta_P^(1/2) Delta_M^(-1), so equality of the normalized values is equivalent
to the stated identities.  Normalized, the Kostant-Weyl term is a sum of
integer-coefficient monomials at gamma: Delta_M cancels the Levi Weyl
denominators, and on M12 the term at omega_0 gamma times its delta_P^(1/2)
ratio is read at gamma, with chi_2 negated and on D the tail's flip parity
changed, so no denominator and no second point is built.
The chamber position x = (log|a|, log|b|) is never computed with logarithms:
its cone is decided by exact comparisons of |a|, |b| against 1 and each other.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Optional

from .dsconst import cone_constant_1d, cone_constant_2d
from .errors import ExactDomainError, ResourceLimitError, SingularPointError
from .exactnum import ZERO, GaussianRational
from .rootdata import (
    COMPACT,
    PAIR_FIRST,
    PAIR_SECOND,
    SPLIT,
    RootDatum,
    TorusPoint,
    Weight,
    _alternant_plan,
    alternant_head_groups,
    circle_point,
    evaluate_plan,
    is_dominant,
    kostant_cohomology,
    passes_truncation,
    pi1_covector,
    pi2_covector,
    rho,
    standard_levi,
)
from .value import Value


class ArchCase(Value):
    """A comparison case: Levi in {M1, M2, M12}, ambient dimension d >= 7 and a
    dominant integral highest weight (the even case M2 has no elliptic
    elements and is rejected)."""

    __slots__ = ("levi", "d", "lam")

    def __init__(self, levi: str, d: int, lam: tuple[int, ...]):
        if levi not in ("M1", "M2", "M12"):
            raise ExactDomainError("Levi must be M1, M2 or M12")
        if d < 7:
            raise ExactDomainError("d must be >= 7")
        if levi == "M2" and d % 2 == 0:
            raise ExactDomainError("even-dimensional M2 has no R-elliptic elements")
        if len(lam) != d // 2:
            raise ExactDomainError("highest weight has wrong rank")
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lam", lam)
        if not is_dominant(self.datum, self.weight()):
            raise ExactDomainError("need a dominant integral highest weight")

    @property
    def parity(self) -> str:
        return "odd" if self.d % 2 else "even"

    @property
    def m(self) -> int:
        return self.d // 2

    @property
    def datum(self) -> RootDatum:
        return RootDatum("B" if self.d % 2 else "D", self.m)

    @property
    def q_G(self) -> int:
        return self.d - 2  # q(SO(d-2, 2)) = (d-2) 2 / 2

    def weight(self) -> Weight:
        return Weight.from_ints(self.lam)


class GammaSample(Value):
    """Exact torus point data: split coordinates a (and b), compact coordinates
    given by rational tangent-half-angle parameters."""

    __slots__ = ("a", "b", "circle_params")

    def __init__(self, a: Fraction, b: Optional[Fraction], circle_params: tuple[Fraction, ...]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "circle_params", circle_params)


def torus_point(case: ArchCase, sample: GammaSample) -> TorusPoint:
    """The regular point gamma of the sample, built once per draw by
    sample_in_range and passed to every evaluator; raises
    SingularPointError if gamma lies on a root wall, the only place
    regularity is decided."""
    z = tuple(circle_point(t) for t in sample.circle_params)
    if case.levi == "M1":
        if sample.b is None:
            raise ExactDomainError("case M1 needs both a and b")
        if len(z) != case.m - 2:
            raise ExactDomainError("wrong number of compact coordinates")
        first = GaussianRational(sample.a, sample.b)
        gamma = TorusPoint(
            (first, first.conjugate()) + z,
            (PAIR_FIRST, PAIR_SECOND) + (COMPACT,) * len(z),
        )
    elif case.levi == "M2":
        if len(z) != case.m - 1:
            raise ExactDomainError("wrong number of compact coordinates")
        gamma = TorusPoint((GaussianRational(sample.a),) + z, (SPLIT,) + (COMPACT,) * len(z))
    else:
        if sample.b is None:
            raise ExactDomainError("case M12 needs both a and b")
        if len(z) != case.m - 2:
            raise ExactDomainError("wrong number of compact coordinates")
        gamma = TorusPoint(
            (GaussianRational(sample.a), GaussianRational(sample.b)) + z,
            (SPLIT, SPLIT) + (COMPACT,) * len(z),
        )
    # A positive root e_i -+ e_j (i < j) is 1 at gamma exactly when
    # z_i = z_j^(+-1), and e_i on B when z_i = 1: compared as reduced
    # (re, im, den) triples of each z and its inverse, without a product
    # per root.
    zs = [(w.re_n, w.im_n, w.den) for w in gamma.coords]
    zs_inv = [(w.re_n, w.im_n, w.den) for w in (z.inverse() for z in gamma.coords)]
    for i, zi in enumerate(zs):
        for j in range(i + 1, len(zs)):
            if zi == zs[j] or zi == zs_inv[j]:
                sign = "-" if zi == zs[j] else "+"
                raise SingularPointError(f"gamma is singular at root e_{i + 1} {sign} e_{j + 1}")
        if case.datum.kind == "B" and zi == (1, 0, 1):
            raise SingularPointError(f"gamma is singular at root e_{i + 1}")
    return gamma


# --- the plan of both sides, per (kind, m, lambda) -----------------------------


def _kostant_entries(kind: str, m: int, levi_label: str, lam: tuple[int, ...], cutoffs: tuple[str, ...]) -> dict:
    """Delta_M times the truncated Kostant trace, sum over the truncated
    entries of (-1)^deg Delta_M ch_M(mu), as one group of _alternant_plan,
    with chi = w(lam+rho) = mu + rho, doubled.  The Levi characters share
    their denominators, GL_2's x - y on M1 and the SO tail's Delta, and
    Delta_M cancels them: on M2 and M12 it is the tail's Delta, so each
    entry is its head monomial times the alternant of the SO-tail weight,
    (chi[:so_start], chi[so_start:], even flips) with coefficient (-1)^deg,
    since the tail's rho is rho's tail; on M1 it is the tail's Delta times
    1 - y/x, which leaves the GL_2 numerator over x, with heads x^a y^b
    and -x^(b-1) y^(a+1), the second one the head (chi_2, chi_1)."""
    datum = RootDatum(kind, m)
    levi = standard_levi(levi_label, m)
    r = rho(datum)
    pi = {"pi1": pi1_covector(m), "pi2": pi2_covector(m)}
    entries = {}
    for deg, mu in kostant_cohomology(datum, levi, Weight.from_ints(lam)):
        if all(passes_truncation(datum, mu, pi[c]) for c in cutoffs):
            chi = (mu + r).doubled
            head, tail = chi[: levi.so_start], chi[levi.so_start :]
            sgn = -1 if deg % 2 else 1
            entries[(head, tail, False)] = sgn
            if levi_label == "M1":
                entries[(head[::-1], tail, False)] = -sgn
    return entries


def _at_omega0(kind: str, entries: dict) -> dict:
    """The _kostant_entries of the M12 term at omega_0 gamma times the
    delta_P^(1/2) ratio, as entries at gamma.  omega_0 inverts b (and z,
    the first tail coordinate, on D), so (omega_0 gamma)^((chi - rho) / 2)
    = gamma^((omega_0 chi - rho) / 2) b^(2 rho_2) (and z^(2 rho_3) on D),
    and the ratio cancels the powers of b and z: on B it is |b|^-(2m-3),
    sgn(b) b^-(2m-3), whose sign the caller applies; on D it is b^-2(m-2),
    and Delta_tail(gamma) / Delta_tail(omega_0 gamma) = z^-2(m-3).  So the head
    (chi_1, chi_2) becomes (chi_1, -chi_2), and on D the tail alternant
    with z inverted is the sum over the w of odd flips, det w negated."""
    flip = kind == "D"
    return {((chi_1, -chi_2), tail, flip): -c if flip else c for ((chi_1, chi_2), tail, _), c in entries.items()}


@lru_cache(maxsize=64)
def _arch_plan(kind: str, m: int, lam: tuple[int, ...]):
    """The heads (chi_1, chi_2) of chi = w(lam+rho), doubled, which is all
    the cone constants read, and the one plan of both sides of every
    comparison identity at (kind, m, lam).  Its roots, in order: one per
    head, the character sum's terms (eps(w), w(lam+rho)-rho) with that
    head; then the Kostant groups of M1 (cutoff pi1), M2 (pi2) and M12
    (pi1 and pi2), and the _at_omega0 entries of the M12 group.  The
    groups of the two sides are disjoint, but their SO-tail alternants are
    the same sub-polynomials, which the plan stores once."""
    datum = RootDatum(kind, m)
    heads, groups = alternant_head_groups(datum, Weight.from_ints(lam))
    m12 = _kostant_entries(kind, m, "M12", lam, ("pi1", "pi2"))
    kostant = (
        _kostant_entries(kind, m, "M1", lam, ("pi1",)),
        _kostant_entries(kind, m, "M2", lam, ("pi2",)),
        m12,
        _at_omega0(kind, m12),
    )
    return heads, _alternant_plan(kind, groups + kostant, rho(datum).doubled)


# --- the Kostant-Weyl terms ----------------------------------------------------


def _kostant_weights(case: ArchCase, b: Optional[Fraction]) -> tuple[int, int, int, int]:
    """The Kostant-Weyl term divided by the common factor delta_P^(1/2)
    Delta_M^(-1), as integer weights of the Kostant roots of _arch_plan
    (M1, M2, M12, M12 at omega_0), each a sum of integer-coefficient
    monomials at gamma.

    Cases M1/M2 are single truncated traces (M2 carries the factor 2); case
    M12 adds the conjugate-by-n_12 term at omega_0 gamma with the sign of
    its delta_P^(1/2) ratio and subtracts the intermediate M2 term with the
    sign eta_2.  Raises SingularPointError for b on a wall.
    """
    if case.levi == "M1":
        return (1, 0, 0, 0)
    if case.levi == "M2":
        return (0, 2, 0, 0)
    if b in (1, -1):
        raise SingularPointError("b on a wall")
    if case.parity == "odd":
        ratio_sign = 1 if b > 0 else -1
        eta2 = -1 if 0 < b < 1 else 1
    else:
        ratio_sign = eta2 = 1
    return (0, -eta2, 1, ratio_sign)


# --- the character sums ---------------------------------------------------------


@lru_cache(maxsize=256)
def _cone_weights(kind: str, m: int, lam: tuple[int, ...], levi: str, x, system: Optional[str] = None):
    """The cone constant of each head of _arch_plan, in its order: on M1
    and M2 the rank-1 constant at x = x_sign on chi_1 + chi_2 and on chi_1,
    on M12 the rank-2 constant of the system at the chamber rep x."""
    heads, _ = _arch_plan(kind, m, lam)
    if levi == "M1":
        return tuple(cone_constant_1d(x, chi_1 + chi_2) for chi_1, chi_2 in heads)
    if levi == "M2":
        return tuple(cone_constant_1d(x, chi_1) for chi_1, _ in heads)
    return tuple(cone_constant_2d(x, head, system) for head in heads)


def _cone_args(case: ArchCase, sample: GammaSample) -> tuple:
    """(x, system) of the cone constants in the character sum at the
    sample: on M1 and M2 x_sign, the sign of log|a + ib| or of log a, and
    no system; on M12 the chamber rep of x = (log|a|, log|b|) and the
    system B2 on odd d with a > 0, else D2."""
    a, b = sample.a, sample.b
    if case.levi == "M1":
        return (1 if a * a + b * b > 1 else -1), None
    if case.levi == "M2":
        return (1 if a > 1 else -1), None
    return _x_chamber_rep(abs(a), abs(b)), "B2" if case.parity == "odd" and a > 0 else "D2"


def _x_chamber_rep(abs_a: Fraction, abs_b: Fraction) -> tuple[int, int]:
    """An integer point in the cone of x = (log|a|, log|b|), decided by exact
    comparisons of |a|, |b|, |ab| and |a/b| against 1."""
    s1 = _sign(abs_a - 1)
    s2 = _sign(abs_b - 1)
    sdiff = _sign(abs_a - abs_b)
    ssum = _sign(abs_a * abs_b - 1)
    if 0 in (s1, s2, sdiff, ssum):
        raise SingularPointError("chamber position on a wall")
    for ref in ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)):
        if (
            _sign(ref[0]) == s1
            and _sign(ref[1]) == s2
            and _sign(ref[0] - ref[1]) == sdiff
            and _sign(ref[0] + ref[1]) == ssum
        ):
            return ref
    raise SingularPointError("chamber position on a wall")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _epsilon_R(case: ArchCase, sample: GammaSample) -> int:
    """(-1) to the number of positive real roots sending gamma into (0, 1);
    gamma is regular, so none sends it to 1."""
    a, b = sample.a, sample.b
    if case.levi == "M1":
        vals = [a * a + b * b]
    elif case.levi == "M2":
        vals = [a]
    elif case.parity == "odd":
        vals = [a, b, a * b, a / b]
    else:
        vals = [a * b, a / b]
    count = sum(1 for v in vals if 0 < v < 1)
    return -1 if count % 2 else 1


# --- identity verification ------------------------------------------------------


class ArchReport(Value, frozen=False):
    __slots__ = ("failures", "controls")

    def __init__(self, failures: list | None = None, controls: int = 0):
        self.failures = [] if failures is None else failures
        self.controls = controls  # vanishing-region samples checked


def _rng_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    den = rng.randint(7, 40)
    lo_n = int(lo * den) + 1
    hi_n = int(hi * den) - 1
    if hi_n < lo_n:
        return (lo + hi) / 2
    return Fraction(rng.randint(lo_n, hi_n), den)


# Draws are rejected off the region's box or on a root wall.  Over 300 draws
# per region of each of the ten (d, Levi) cases at most one rejection in a
# row occurs, so a thousand means the region has no regular point.  The same
# cap bounds duplicate circle parameters, drawn from 200 x 200 fractions.
MAX_REJECTED_DRAWS = 1000


def _sample_circles(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """count distinct circle parameters in (0, 1); raises ResourceLimitError
    after MAX_REJECTED_DRAWS duplicate draws."""
    out = []
    seen = set()
    rejected = 0
    while len(out) < count:
        t = Fraction(rng.randint(1, 200), rng.randint(201, 400))
        if t in seen:
            rejected += 1
            if rejected > MAX_REJECTED_DRAWS:
                raise ResourceLimitError(f"no new circle parameter after {MAX_REJECTED_DRAWS} duplicate draws")
            continue
        seen.add(t)
        out.append(t)
    return tuple(out)


def sample_in_range(case: ArchCase, rng: random.Random, region: str = "stated") -> tuple[GammaSample, TorusPoint]:
    """Draw an exact sample in the stated range of the case's comparison
    identity (or in a vanishing/out-of-range control region), with the point
    gamma that torus_point built when it accepted the draw.
    Raises ResourceLimitError after MAX_REJECTED_DRAWS rejected draws."""
    m = case.m
    n_circ = m - 1 if case.levi == "M2" else m - 2
    for _ in range(MAX_REJECTED_DRAWS + 1):
        circ = _sample_circles(rng, n_circ)
        if case.levi == "M1":
            a = _rng_fraction(rng, Fraction(-2, 3), Fraction(2, 3))
            b = rng.choice((1, -1)) * _rng_fraction(rng, Fraction(1, 40), Fraction(2, 3))
            if a * a + b * b >= 1 or a == 0 or b == 0:
                continue
            if region == "out_of_range":
                a, b = 1 + abs(a), b  # a^2 + b^2 > 1
            sample = GammaSample(a, b, circ)
        elif case.levi == "M2":
            a = _rng_fraction(rng, Fraction(1, 50), Fraction(49, 50))
            if region == "vanishing":
                a = -a
            elif region == "out_of_range":
                a = 1 / a
            sample = GammaSample(a, None, circ)
        else:
            sgn = rng.choice((1, -1))
            big_b = rng.choice((True, False))
            b = _rng_fraction(rng, Fraction(1, 3), Fraction(9, 10))
            if big_b:
                b = 1 / b
            bound = min(abs(b), 1 / abs(b))
            a = _rng_fraction(rng, Fraction(1, 50), bound)
            if a >= bound or a == 0:
                continue
            a, b = sgn * a, sgn * b
            if region == "vanishing":
                a = -a  # mixed signs
            elif region == "out_of_range":
                a, b = b, a  # |a| > |b|-side: x1 > -|x2|
            sample = GammaSample(a, b, circ)
        try:
            gamma = torus_point(case, sample)
        except (SingularPointError, ExactDomainError):
            continue
        return sample, gamma
    raise ResourceLimitError(f"no sample in the {region} region after {MAX_REJECTED_DRAWS} rejected draws")


def identity_gap(case: ArchCase, sample: GammaSample, gamma: TorusPoint) -> GaussianRational:
    """LHS - RHS of the case's comparison identity at the sample (zero = pass),
    evaluated at the point gamma that torus_point built for it: one
    evaluation of _arch_plan, each root with one integer weight.  With
    q = (-1)^q(G), Phi weights each head by q eps_R(gamma) times its cone
    constant, Phi_endos the same with the constants of A1xA1, L_M the
    Kostant roots by _kostant_weights, and the gap is Phi + 2q L_M on M1,
    Phi + q L_M on M2, and 4q L_M - Phi - Phi_endos on M12, Phi_endos only
    on odd d with a, b > 0.  In the vanishing regions, M2 with a < 0 and M12
    with ab < 0, both character sums are zero by definition, and so is the
    gap: no plan is evaluated there."""
    a, b = sample.a, sample.b
    if case.levi == "M2" and a < 0 or case.levi == "M12" and a * b < 0:
        return ZERO
    kind, m, lam = case.datum.kind, case.m, case.lam
    q_sign = -1 if case.q_G % 2 else 1
    kostant = _kostant_weights(case, b)
    x, system = _cone_args(case, sample)
    cone = _cone_weights(kind, m, lam, case.levi, x, system)
    if system == "B2":  # odd M12 with a, b > 0: Phi_endos adds the constants of A1xA1
        cone = map(add, cone, _cone_weights(kind, m, lam, "M12", x, "A1xA1"))
    head = q_sign * _epsilon_R(case, sample)
    if case.levi == "M12":
        head, scale = -head, 4 * q_sign
    else:
        scale = 2 * q_sign if case.levi == "M1" else q_sign
    _, plan = _arch_plan(kind, m, lam)
    return evaluate_plan(plan, gamma.coords, [head * c for c in cone] + [scale * k for k in kostant])


def verify_identity(
    case: ArchCase,
    samples: int,
    seed: int,
    region: str = "stated",
    vanishing_controls: int = 0,
) -> ArchReport:
    """Exact verification of the comparison identity on random samples in the
    stated range, plus optional vanishing-region controls."""
    rng = random.Random(seed)
    report = ArchReport()
    for k in range(samples):
        sample, gamma = sample_in_range(case, rng, region)
        gap = identity_gap(case, sample, gamma)
        if gap != ZERO:
            report.failures.append(
                {
                    "index": k,
                    "a": str(sample.a),
                    "b": str(sample.b) if sample.b is not None else None,
                    "circle": [str(t) for t in sample.circle_params],
                    "gap_re": str(gap.re),
                    "gap_im": str(gap.im),
                }
            )
    if case.levi in ("M2", "M12"):
        report.controls = vanishing_controls
        for k in range(vanishing_controls):
            sample, gamma = sample_in_range(case, rng, "vanishing")
            gap = identity_gap(case, sample, gamma)
            if gap != ZERO:
                report.failures.append({"index": f"vanish-{k}", "a": str(sample.a)})
    return report
