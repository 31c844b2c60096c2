"""Transfer-factor sign calculus: compact dimension q(SO(a,b)), the det(omega_0)
/ sun / tasho tables indexed by the positional subset A, the comparison signs
between the Borel-indexed and Whittaker normalizations, and Waldspurger's
explicit sign formula.

Everything here is a closed parity formula; no transfer factor is ever built
as a function of group elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import ExactDomainError, SingularPointError
from .exactnum import RationalLike, _as_fraction
from .levi import admissible_A
from .value import Value

class SignCase(Value):
    """Parameters of a sign comparison: the Levi, the ambient parity, the rank
    bookkeeping of the endoscopic datum and the signature data."""

    __slots__ = ("levi", "parity", "m", "m_plus", "m_minus", "p", "q", "delta_sign")

    def __init__(
        self,
        levi: str,
        parity: str,
        m: int,
        m_plus: int,
        m_minus: int,
        p: int = 0,
        q: int = 0,
        delta_sign: int = 1,
    ):
        if levi not in ("M1", "M2", "M12", "G"):
            raise ExactDomainError("unknown Levi label")
        if parity not in ("odd", "even"):
            raise ExactDomainError("parity must be odd or even")
        if m_plus + m_minus != m:
            raise ExactDomainError("ranks must add up")
        if delta_sign not in (1, -1):
            raise ExactDomainError("delta_sign must be +-1")
        for name, value in zip(self.__slots__, (levi, parity, m, m_plus, m_minus, p, q, delta_sign)):
            object.__setattr__(self, name, value)


def det_omega0(A: Sequence[int], m_minus: int, levi: str = "M12") -> int:
    """det of the chamber-comparison Weyl element: +1 for A in {{}, {1,2}},
    (-1)^(m-) for {1}, (-1)^(m-+1) for {2}."""
    A = frozenset(A)
    if tuple(sorted(A)) not in admissible_A(levi):
        raise ExactDomainError(f"A = {set(A)} not admissible for {levi}")
    if A in (frozenset(), frozenset({1, 2})):
        return 1
    if A == frozenset({1}):
        return -1 if m_minus % 2 else 1
    return 1 if m_minus % 2 else -1


def sun(A: Sequence[int]) -> int:
    """+1 for A in {{}, {2}}, -1 for {1} and {1,2}."""
    A = frozenset(A)
    if A in (frozenset(), frozenset({2})):
        return 1
    if A in (frozenset({1}), frozenset({1, 2})):
        return -1
    raise ExactDomainError(f"A = {set(A)} out of range")


def tasho(case: SignCase, A: Sequence[int]) -> int:
    """The archimedean normalization defect: tasho({}) = -1 in every case, and
    the ratios tasho(A)^-1 tasho({}) are -1 at {1,2} and (-1)^(m-+1) at singletons."""
    A = frozenset(A)
    if case.levi not in ("M1", "M2", "M12"):
        raise ExactDomainError("tasho needs a proper Levi")
    if tuple(sorted(A)) not in admissible_A(case.levi):
        raise ExactDomainError(f"A = {set(A)} not admissible for {case.levi}")
    if case.levi == "M2" and case.parity == "even":
        raise ExactDomainError("no archimedean comparison for the even case M2")
    if A == frozenset():
        return -1
    if A == frozenset({1, 2}):
        return 1
    return 1 if case.m_minus % 2 == 0 else -1  # (-1)^(m-) at singletons


def tasho_ratio(case: SignCase, A: Sequence[int]) -> int:
    """tasho(A)^-1 tasho({})."""
    return tasho(case, A) * tasho(case, frozenset())


def check_sun_identity(case: SignCase, A: Sequence[int]) -> bool:
    """sun(A) = tasho(A)^-1 tasho({}) det(omega_0)."""
    return sun(A) == tasho_ratio(case, A) * det_omega0(A, case.m_minus, case.levi)


def whittaker_comparison_sign(case: SignCase, whittaker_type: str = "I") -> int:
    """The sign between the Borel-indexed normalization and the Whittaker one.

    Odd case: (-1)^(ceil(m/2)+ceil(m+/2)+ceil((m-p)/2)) for delta > 0 and the
    floor variant for delta < 0, under the stated signature bounds.  Even case:
    (-1)^(floor(m-/2)) with the m+ = 1, q = 2 exception (-1)^(m-/2 - 1).
    The type-II variant (even m only) is the independent closed form
    (-1)^(ceil(m-/2)).
    """
    m, mp, mm, p, q = case.m, case.m_plus, case.m_minus, case.p, case.q
    if whittaker_type not in ("I", "II"):
        raise ExactDomainError("whittaker_type must be I or II")
    if p <= q:
        raise ExactDomainError("the comparison assumes p > q")
    if case.parity == "odd":
        if whittaker_type == "II":
            raise ExactDomainError("type II Whittaker data need m = d/2 even")
        if p + q != 2 * m + 1:
            raise ExactDomainError("signature does not match the dimension")
        if case.delta_sign != (1 if q % 2 == 0 else -1):
            raise ExactDomainError("discriminant sign incompatible with the signature")
        if q % 2 == 0:
            if q // 2 > math.ceil(mp / 2):
                raise ExactDomainError("signature bound violated")
        else:
            if (q - 1) // 2 > mp // 2:
                raise ExactDomainError("signature bound violated")
        if case.delta_sign > 0:
            e = math.ceil(m / 2) + math.ceil(mp / 2) + math.ceil((m - p) / 2)
        else:
            e = m // 2 + mp // 2 + math.ceil((m - p) / 2)
        return -1 if e % 2 else 1
    if p + q != 2 * m:
        raise ExactDomainError("signature does not match the dimension")
    if p % 2 or q % 2:
        raise ExactDomainError("even-case cuspidality forces even p and q")
    if m % 2 == 1:
        # not divisible by 4: bounds q/2 <= floor(m+/2) or the (m+, q) = (1, 2) case
        if not (q // 2 <= mp // 2 or (mp == 1 and q == 2)):
            raise ExactDomainError("signature bound violated")
        if whittaker_type == "II":
            raise ExactDomainError("type II Whittaker data need m = d/2 even")
        if mp == 1 and q == 2:
            return -1 if (mm // 2 - 1) % 2 else 1
        return -1 if (mm // 2) % 2 else 1
    if q // 2 > math.ceil(mp / 2):
        raise ExactDomainError("signature bound violated")
    if whittaker_type == "II":
        return -1 if math.ceil(mm / 2) % 2 else 1
    return -1 if (mm // 2) % 2 else 1


def waldspurger_sign(y: Sequence[RationalLike], m_minus: int, eta: int) -> int:
    """Waldspurger's explicit sign: prod_{i <= m-} sign(eta c_i (1 + y_i)
    prod_{k != i} (y_i - y_k)) for the real parts y of the torus coordinates.

    The definiteness pattern is the alternating one, c_i = (-1)^(i+1), which
    the reduced form `waldspurger_sign_reduced` assumes.  The pinning invariant eta = -1 picks the type-I Whittaker datum.
    """
    y = [_as_fraction(v) for v in y]
    m = len(y)
    if not 0 <= m_minus <= m:
        raise ExactDomainError("m- out of range")
    if eta not in (1, -1):
        raise ExactDomainError("eta must be +-1")
    if any(abs(v) >= 1 for v in y):
        raise ExactDomainError("real parts of unit-circle coordinates must lie in (-1, 1)")
    if len({v for v in y}) != m:
        raise SingularPointError("coincident real parts")
    sign = 1
    for i in range(m_minus):
        term = Fraction(eta * (-1) ** i) * (1 + y[i])  # c_i = (-1)^(i+1) in 1-based indexing
        for k in range(m):
            if k != i:
                term *= y[i] - y[k]
        if term == 0:
            raise SingularPointError("sign of zero")
        if term < 0:
            sign = -sign
    return sign


def waldspurger_sign_reduced(y: Sequence[RationalLike], m_minus: int, eta: int) -> int:
    """The reduced form sign(eta)^(m-) prod_{i <= m- < k} sign(y_i - y_k)."""
    y = [_as_fraction(v) for v in y]
    m = len(y)
    sign = 1 if eta == 1 or m_minus % 2 == 0 else -1
    for i in range(m_minus):
        for k in range(m_minus, m):
            if y[i] == y[k]:
                raise SingularPointError("coincident real parts")
            if y[i] < y[k]:
                sign = -sign
    return sign


def parity_lemma_holds(m: int, p: int) -> bool:
    """(m-p)(m+1-p)/2 = ceil((m-p)/2) mod 2, the parity simplification used in
    the signature bookkeeping."""
    lhs = ((m - p) * (m + 1 - p) // 2) % 2
    rhs = math.ceil((m - p) / 2) % 2
    return lhs == rhs
