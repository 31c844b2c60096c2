"""Elliptic endoscopic data for special orthogonal groups and bi-elliptic
refinements for the standard Levis, with the attached invariants: outer
automorphism counts, Tamagawa numbers, the archimedean k-invariants, the
constants iota(G,H) and n^G_M, cuspidality and unramifiedness tests.

Data are represented purely by their parameters (d+, delta+, d-, delta-);
swap-equivalence classes keep the representative with the larger positive
part, so the trivial datum always carries s = +1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .errors import ExactDomainError
from .exactnum import (
    GLOBAL,
    REAL,
    REAL_CONTEXT,
    SquareClass,
    factorize,
    is_prime,
    padic_valuation,
    squareclass_of,
)
from .levi import admissible_A, excluded_factor, gl_labels
from .value import Value


class RealCtx(Value):
    __slots__ = ()


class LocalCtx(Value):
    __slots__ = ("p",)

    def __init__(self, p: int):
        object.__setattr__(self, "p", p)


class GlobalCtx(Value):
    __slots__ = ("support",)  # distinct primes allowed to ramify the discriminants

    def __init__(self, support: tuple[int, ...]):
        for p in support:
            if not is_prime(p):
                raise ExactDomainError(f"support entry {p} is not prime")
        if len(set(support)) != len(support):
            raise ExactDomainError(f"support {list(support)} repeats a prime")
        object.__setattr__(self, "support", support)


def _context_classes(ctx) -> list[SquareClass]:
    """All square classes of the context (global: squarefree, supported on ctx.support)."""
    if isinstance(ctx, RealCtx):
        return [squareclass_of(1, REAL_CONTEXT), squareclass_of(-1, REAL_CONTEXT)]
    if isinstance(ctx, LocalCtx):
        p = ctx.p
        if p == 2:
            reps = [u * 2 ** e for e in (0, 1) for u in (1, 3, 5, 7)]
        else:
            from .exactnum import smallest_nonresidue

            n = smallest_nonresidue(p)
            reps = [1, n, p, n * p]
        return [squareclass_of(r, p) for r in reps]
    if isinstance(ctx, GlobalCtx):
        out = []
        for sign in (1, -1):
            for k in range(len(ctx.support) + 1):
                for combo in itertools.combinations(ctx.support, k):
                    r = sign
                    for q in combo:
                        r *= q
                    out.append(squareclass_of(r, GLOBAL))
        return out
    raise ExactDomainError(f"unsupported context {ctx!r}")


def _delta_class(delta, ctx) -> SquareClass:
    """delta as a square class of the context (a SquareClass is kept as is); a
    global class must be unramified outside the support."""
    if isinstance(delta, SquareClass):
        return delta
    if isinstance(ctx, RealCtx):
        return squareclass_of(delta, REAL_CONTEXT)
    if isinstance(ctx, LocalCtx):
        return squareclass_of(delta, ctx.p)
    cls = squareclass_of(delta, GLOBAL)
    outside = [str(p) for p in factorize(cls.rep) if p not in ctx.support]
    if outside:
        raise ExactDomainError(
            f"delta {delta} is ramified at {', '.join(outside)}, outside the support {list(ctx.support)}"
        )
    return cls


class EndoParams(Value):
    """Parameters (d+, delta+, d-, delta-) of an elliptic endoscopic datum;
    deltas are trivial classes in the odd case."""

    __slots__ = ("parity", "d_plus", "d_minus", "delta_plus", "delta_minus")  # parity "odd" or "even"

    def __init__(self, parity: str, d_plus: int, d_minus: int, delta_plus: SquareClass, delta_minus: SquareClass):
        if parity not in ("odd", "even"):
            raise ExactDomainError("parity must be odd or even")
        if parity == "odd":
            if d_plus % 2 == 0 or d_minus % 2 == 0:
                raise ExactDomainError("odd case needs odd d+ and d-")
        else:
            if d_plus % 2 or d_minus % 2:
                raise ExactDomainError("even case needs even d+ and d-")
            for d, delta in ((d_plus, delta_plus), (d_minus, delta_minus)):
                reason = excluded_factor(d, delta.is_trivial)
                if reason:
                    raise ExactDomainError(f"{reason} is excluded")
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "d_plus", d_plus)
        object.__setattr__(self, "d_minus", d_minus)
        object.__setattr__(self, "delta_plus", delta_plus)
        object.__setattr__(self, "delta_minus", delta_minus)

    @property
    def d(self) -> int:
        return self.d_plus + self.d_minus - (1 if self.parity == "odd" else 0)

    @property
    def m_plus(self) -> int:
        return self.d_plus // 2

    @property
    def m_minus(self) -> int:
        return self.d_minus // 2

    def swap(self) -> "EndoParams":
        return EndoParams(self.parity, self.d_minus, self.d_plus, self.delta_minus, self.delta_plus)

    def key(self):
        return (self.d_plus, str(self.delta_plus.rep), self.d_minus, str(self.delta_minus.rep))


def _class_sort_key(c: SquareClass):
    return str(c.rep)


def _canonical_swap(params: EndoParams) -> EndoParams:
    other = params.swap()
    if (params.d_plus, _class_sort_key(params.delta_plus)) >= (other.d_plus, _class_sort_key(other.delta_plus)):
        return params
    return other


def enumerate_elliptic(d: int, delta, context) -> list[EndoParams]:
    """All elliptic endoscopic data for SO of a (d, delta) space, up to swap.

    Odd case: pairs of odd d+ + d- = d + 1 with trivial discriminants.  Even
    case: even d+ + d- = d with delta+ delta- = delta, excluding the values
    (2, trivial) and (0, nontrivial).  Global contexts need a prime support
    bound since the set of classes is infinite.
    """
    if d < 3:
        raise ExactDomainError("d must be >= 3")
    triv = _delta_class(1, context)
    out: dict = {}
    if d % 2 == 1:
        for d_plus in range(1, d + 1, 2):
            p = _canonical_swap(EndoParams("odd", d_plus, d + 1 - d_plus, triv, triv))
            out[p.key()] = p
        return sorted(out.values(), key=EndoParams.key)
    delta_cls = _delta_class(delta, context)
    for d_plus in range(0, d + 1, 2):
        for dp in _context_classes(context):
            dm = dp * delta_cls
            if excluded_factor(d_plus, dp.is_trivial) or excluded_factor(d - d_plus, dm.is_trivial):
                continue
            p = _canonical_swap(EndoParams("even", d_plus, d - d_plus, dp, dm))
            out[p.key()] = p
    return sorted(out.values(), key=EndoParams.key)


def out_group_size(params: EndoParams) -> int:
    """Order of the outer automorphism group of the datum: 1, 2 or 4."""
    if params.parity == "odd":
        return 2 if params.d_plus == params.d_minus else 1
    if params.d_plus * params.d_minus == 0:
        return 1
    if params.d_plus == params.d_minus and params.delta_plus == params.delta_minus:
        return 4
    return 2


class GEndoParams(Value):
    """A bi-elliptic refinement: positional subset A plus base parameters for the
    SO factor of the Levi."""

    __slots__ = ("levi", "A", "base")

    def __init__(self, levi: str, A: frozenset[int], base: EndoParams):
        if tuple(sorted(A)) not in admissible_A(levi):
            raise ExactDomainError(f"A = {set(A)} not admissible for {levi}")
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "base", base)

    @property
    def A_complement(self) -> frozenset[int]:
        return frozenset(gl_labels(self.levi)) - self.A


def to_EG(g: GEndoParams) -> EndoParams:
    """The induced elliptic datum for the ambient group: d+- grow by 2|A| / 2|A^c|."""
    b = g.base
    return _canonical_swap(
        EndoParams(
            b.parity,
            b.d_plus + 2 * len(g.A),
            b.d_minus + 2 * len(g.A_complement),
            b.delta_plus,
            b.delta_minus,
        )
    )


def enumerate_G_endoscopy(levi: str, d: int, delta, context) -> list[GEndoParams]:
    """Bi-elliptic refined data for the Levi, up to simultaneous swapping."""
    if levi == "G":
        raise ExactDomainError("use enumerate_elliptic for the full group")
    if d - 2 * len(gl_labels(levi)) < 3:
        raise ExactDomainError("Levi SO factor too small")
    out: dict = {}
    for A in map(frozenset, admissible_A(levi)):
        for base in _enumerate_base(levi, d, delta, context, A):
            g = GEndoParams(levi, A, base)
            gs = GEndoParams(levi, g.A_complement, base.swap())
            keep = min(
                (sorted(g.A), g.base.key(), g),
                (sorted(gs.A), gs.base.key(), gs),
                key=lambda t: (t[0], t[1]),
            )[2]
            out[(tuple(sorted(keep.A)), keep.base.key())] = keep
    return sorted(out.values(), key=lambda g: (tuple(sorted(g.A)), g.base.key()))


def _enumerate_base(levi: str, d: int, delta, context, A: frozenset[int]) -> Iterable[EndoParams]:
    """Base data for the Levi SO factor whose induced ambient data stay admissible."""
    d_so = d - 2 * len(gl_labels(levi))
    triv = _delta_class(1, context)
    nA, nAc = len(A), len(gl_labels(levi)) - len(A)
    if d % 2 == 1:
        for d_plus in range(1, d_so + 1, 2):
            yield EndoParams("odd", d_plus, d_so + 1 - d_plus, triv, triv)
        return
    delta_cls = _delta_class(delta, context)
    for d_plus in range(0, d_so + 1, 2):
        d_minus = d_so - d_plus
        for dp in _context_classes(context):
            dm = dp * delta_cls
            # the induced ambient parameters must avoid the excluded values too
            pairs = ((d_plus, dp), (d_minus, dm), (d_plus + 2 * nA, dp), (d_minus + 2 * nAc, dm))
            if not any(excluded_factor(n, c.is_trivial) for n, c in pairs):
                yield EndoParams("even", d_plus, d_minus, dp, dm)


def g_out_group_size(g: GEndoParams) -> int:
    """Order of the group of outer automorphisms compatible with the ambient datum."""
    if g.base.parity == "odd":
        return 1
    return 1 if g.base.d_plus * g.base.d_minus == 0 else 2


# --- invariants ---------------------------------------------------------------


def tamagawa(family: str, n: int, delta_trivial: bool = True) -> int:
    """Tamagawa number: 2 for special orthogonal groups of dimension >= 3 (and
    for the nonsplit two-dimensional ones), 1 for GL_j and the degenerate cases."""
    if family == "GL":
        return 1
    if family != "SO":
        raise ExactDomainError(f"unknown family {family!r}")
    if n >= 3:
        return 2
    if n == 2:
        return 1 if delta_trivial else 2
    return 1


def tamagawa_endo(params: EndoParams) -> int:
    return tamagawa("SO", params.d_plus, params.delta_plus.is_trivial) * tamagawa(
        "SO", params.d_minus, params.delta_minus.is_trivial
    )


def k_invariants(family: str, m: int) -> tuple[int, int]:
    """(k', k) = (|H^1(R, T_e)|, image count from the simply connected cover):
    (2^m, 2^(m-1)) for SO of absolute rank m >= 1, (1, 1) for GL_1, GL_2 and rank 0."""
    if family == "GL":
        return (1, 1)
    if family != "SO":
        raise ExactDomainError(f"unknown family {family!r}")
    if m < 0:
        raise ExactDomainError("rank must be >= 0")
    if m == 0:
        return (1, 1)
    return (2 ** m, 2 ** (m - 1))


def iota(d: int, h: EndoParams) -> Fraction:
    """iota(G, H) = tau(G) / (tau(H) |Out(H, s, eta)|)."""
    if h.d != d:
        raise ExactDomainError("datum does not belong to a group of this dimension")
    return Fraction(tamagawa("SO", d), tamagawa_endo(h) * out_group_size(h))


def so_is_cuspidal_R(d: int, delta_real: SquareClass) -> bool:
    """SO(d) over R is cuspidal (has an elliptic maximal torus) iff d is odd or
    the real discriminant equals (-1)^(d/2)."""
    if d <= 1:
        return True
    if d % 2 == 1:
        return True
    want = 1 if (d // 2) % 2 == 0 else -1
    return delta_real.rep == want


def endo_is_cuspidal_R(params: EndoParams) -> bool:
    """Both factors must be cuspidal over R (real classes required in even case)."""
    if params.parity == "odd":
        return True
    for d, delta in ((params.d_plus, params.delta_plus), (params.d_minus, params.delta_minus)):
        c = delta if delta.context == REAL_CONTEXT else delta.localize(REAL)
        if not so_is_cuspidal_R(d, c):
            return False
    return True


def is_unramified_at_p(params: EndoParams, p: int) -> bool:
    """Odd-case data are automatically unramified; even-case data are unramified
    at odd p iff both discriminants have even p-adic valuation."""
    if p == 2:
        raise ExactDomainError("unramifiedness test implemented at odd primes only")
    if params.parity == "odd":
        return True
    for delta in (params.delta_plus, params.delta_minus):
        if delta.context == REAL_CONTEXT:
            raise ExactDomainError("need global or p-adic discriminants")
        if delta.context == GLOBAL:
            val = padic_valuation(delta.as_rational(), p)
        else:
            if delta.context != p:
                raise ExactDomainError("discriminant lives at a different prime")
            val = delta.rep[0]
        if val % 2:
            return False
    return True


def tau_k_identity_check(levi: str, g: GEndoParams, d: int) -> bool:
    """tau(G)/tau(H) * tau(M')/tau(M) == k(H)/k(G) * k(M)/k(M')."""
    i = len(gl_labels(levi))
    h = to_EG(g)
    b = g.base
    tau_G = tamagawa("SO", d)
    tau_H = tamagawa_endo(h)
    tau_M = tamagawa("SO", d - 2 * i)  # GL factors contribute 1
    tau_Mp = tamagawa_endo(b)
    lhs = Fraction(tau_G, tau_H) * Fraction(tau_Mp, tau_M)
    k_G = k_invariants("SO", d // 2)[1]
    k_H = k_invariants("SO", h.d_plus // 2)[1] * k_invariants("SO", h.d_minus // 2)[1]
    k_M = k_invariants("SO", (d - 2 * i) // 2)[1]
    k_Mp = k_invariants("SO", b.d_plus // 2)[1] * k_invariants("SO", b.d_minus // 2)[1]
    rhs = Fraction(k_H, k_G) * Fraction(k_M, k_Mp)
    return lhs == rhs
