"""Discrete-series constants: Herb's partition formula, one B/D/A1 factor
at a time, the explicit rank-2 cone tables, and the vanishing quantities
M_i, N attached to non-transferring Levis.

All partition sums drop the overall normalization constant (it is independent
of the subset A being summed over, and every verified claim is of the form
"this signed A-sum vanishes").
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ExactDomainError, ResourceLimitError, SingularPointError
from .exactnum import RationalLike, _as_fraction, _exact


def _sorting_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def c1(a: RationalLike) -> int:
    """Indicator a > 0."""
    return 1 if _exact(a) > 0 else 0


def c2B(a: RationalLike, b: RationalLike) -> int:
    """Indicator 0 < a < b or 0 < -b < a."""
    a, b = _exact(a), _exact(b)
    return 1 if (0 < a < b) or (0 < -b < a) else 0


@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """(sign, blocks) of every partition of the positions 0..n-1 into 2-blocks
    plus at most one singleton, the singleton p written (p, p).

    Built by its own expansion along the least position: pairing it with the
    k-th of the remaining positions puts k smaller ones after it, so the signs
    (-1)^k multiply to the sign of the permutation sorting the concatenated
    blocks, each block ascending.
    An order-preserving relabelling of the positions keeps both the blocks and
    the sign, so one table serves every support of size n.
    """
    if n > 14:
        raise ResourceLimitError("partition enumeration refused beyond 14 elements")
    out: list[tuple[int, tuple[tuple[int, int], ...]]] = []

    def rec(remaining: tuple[int, ...], acc: tuple[tuple[int, int], ...], sign: int, single: bool):
        if not remaining:
            out.append((sign, acc))
            return
        head, rest = remaining[0], remaining[1:]
        for k, partner in enumerate(rest):
            rec(rest[:k] + rest[k + 1 :], acc + ((head, partner),), -sign if k % 2 else sign, single)
        if not single:
            rec(rest, acc + ((head, head),), sign, True)

    rec(tuple(range(n)), (), 1, False)
    return tuple(out)


def _indicators(mu: Sequence[Fraction]) -> tuple[list[list[int]], list[list[int]]]:
    """The c2B and c2D indicators of a weight, each read once, as matrices over
    its coordinates: entry [i][j] for i < j is c2(mu_i, mu_j), and the
    diagonal entry [i][i] is c1(mu_i), the value of a singleton block.  The
    indicators are sign and order tests, so they read mu scaled to integers."""
    den = math.lcm(*(c.denominator for c in mu))
    mu = [c.numerator * (den // c.denominator) for c in mu]
    n = len(mu)
    b = [[0] * n for _ in range(n)]
    d = [[0] * n for _ in range(n)]
    for i, a in enumerate(mu):
        if a <= 0:  # c1, c2B and c2D all need mu_i > 0
            continue
        b[i][i] = d[i][i] = 1
        for j in range(i + 1, n):
            c = mu[j]
            b[i][j] = 1 if a < c or 0 < -c < a else 0
            d[i][j] = 1 if a > abs(c) else 0
    return b, d


def _block_sum(kind: str, support: tuple[int, ...], ind: tuple[list[list[int]], list[list[int]]]) -> int:
    """One factor's signed partition sum, from the weight's `_indicators`."""
    b, d = ind
    if kind == "A1":
        return b[support[0]][support[0]]
    if kind == "D" and len(support) % 2:
        raise ExactDomainError("D factor with odd support")
    rows = b if kind == "B" else d
    c = [[rows[s][t] for t in support] for s in support]
    total = 0
    for sign, blocks in _partition_table(len(support)):
        for p, q in blocks:
            if not c[p][q]:
                break
        else:
            total += sign
    return total


# --- explicit rank <= 2 cone tables ------------------------------------------

_RANK2_WEYL = [
    (s1, s2, swap)
    for s1 in (1, -1)
    for s2 in (1, -1)
    for swap in (False, True)
]


def _apply_rank2(elem, v):
    s1, s2, swap = elem
    a, b = v
    if swap:
        a, b = b, a
    return (s1 * a, s2 * b)


def cone_constant_2d(
    x: tuple[RationalLike, RationalLike],
    chi: tuple[RationalLike, RationalLike],
    system: str,
) -> int:
    """Discrete-series constant for the rank-2 real root systems, from the
    explicit cone tables; values in {0, 4} per system (sums across systems
    reach 8).

    system: "B2" (all of +-e_i, +-e1+-e2), "D2" (+-e1+-e2), "A1xA1" (+-e1, +-e2).
    The inputs are ints or Fractions, read as they are.
    """
    x = (_exact(x[0]), _exact(x[1]))
    chi = (_exact(chi[0]), _exact(chi[1]))
    if system == "A1xA1":
        if 0 in x or 0 in chi:
            raise SingularPointError("cone-wall input")
        return 4 if (x[0] * chi[0] < 0 and x[1] * chi[1] < 0) else 0
    if system == "D2":
        ux, vx = x[0] + x[1], x[0] - x[1]
        uc, vc = chi[0] + chi[1], chi[0] - chi[1]
        if 0 in (ux, vx, uc, vc):
            raise SingularPointError("cone-wall input")
        return 4 if (ux * uc < 0 and vx * vc < 0) else 0
    if system != "B2":
        raise ExactDomainError(f"unknown rank-2 system {system!r}")
    # full B2: transport x into the base chamber x1 < x2 < 0 by a Weyl element
    # acting diagonally, then read the c2B cone table there.
    if x[0] * x[1] * (x[0] - x[1]) * (x[0] + x[1]) == 0:
        raise SingularPointError("cone-wall input")
    if chi[0] * chi[1] * (chi[0] - chi[1]) * (chi[0] + chi[1]) == 0:
        raise SingularPointError("cone-wall input")
    for elem in _RANK2_WEYL:
        wx = _apply_rank2(elem, x)
        if wx[0] < wx[1] < 0:
            wchi = _apply_rank2(elem, chi)
            return 4 * c2B(wchi[0], wchi[1])
    raise SingularPointError("chamber position lies on a cone wall")


def cone_constant_1d(x: RationalLike, chi: RationalLike) -> int:
    """Rank-1 discrete-series constant 2 [x chi < 0]."""
    x, chi = _exact(x), _exact(chi)
    if x == 0 or chi == 0:
        raise SingularPointError("cone-wall input")
    return 2 if x * chi < 0 else 0


# --- the vanishing quantities M_i and N --------------------------------------


def _omega0_sign(A: tuple[int, ...], universe: Sequence[int]) -> int:
    """Sign of the permutation listing the complement of A (ascending) then A."""
    comp = [i for i in universe if i not in A]
    return _sorting_sign(comp + list(A))


@lru_cache(maxsize=128)
def _parts(lo: int, hi: int, even: bool) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(part, complement) for every subset of range(lo, hi), or, when `even`,
    for every even-size subset (of a range of even length, so the complement
    is even too)."""
    items = tuple(range(lo, hi))
    return tuple(
        (part, tuple(i for i in items if i not in part))
        for k in range(0, len(items) + 1, 2 if even else 1)
        for part in itertools.combinations(items, k)
    )


def vanishing_quantities(
    r: int,
    t: int,
    case: str,
    r_prime: int,
    mu: Sequence[RationalLike],
) -> tuple[list[int], int]:
    """The signed subset sums (M_1..M_r, N) over admissible sign-vector subsets A.

    r GL(1) coordinates split into r_prime positive ones and r - r_prime
    negative ones; t extra coordinates carry A1 factors whose contribution is
    constant in A.  The admissible A keep the negative parts even (odd case)
    or all four parts even (even case); each contributes its Herb partition sum
    with the signed weight epsilon_i(A) omega_0(A) (-1)^(...).
    """
    if case not in ("odd", "even"):
        raise ExactDomainError("case must be odd or even")
    if case == "even" and r % 2:
        raise ExactDomainError("the even case needs r even")
    if not (0 <= r_prime <= r):
        raise ExactDomainError("invalid sign split")
    mu = [_as_fraction(c) for c in mu]
    if len(mu) != r + t:
        raise ExactDomainError("mu must have r + t coordinates")
    mags = [abs(c) for c in mu[:r]]
    if 0 in mags or len(set(mags)) != r:
        raise ExactDomainError("mu must be regular (distinct nonzero magnitudes)")
    a1_factor = 1
    for j in range(t):
        a1_factor *= c1(mu[r + j])

    universe = range(r)
    M = [0] * r
    N = 0
    if (r - r_prime) % 2:
        return M, N  # no A leaves both negative parts even (nor, r being even, positive ones)
    # the whole ranges are the largest supports: refuse an oversized one before
    # listing 2^r subsets
    _partition_table(max(r_prime, r - r_prime))
    ind = _indicators(mu[:r])
    plus_kind = "B" if case == "odd" else "D"
    plus = _parts(0, r_prime, case == "even")
    minus = _parts(r_prime, r, True)
    # both families are closed under complement, so these are every block sum used
    plus_sums = {s: _block_sum(plus_kind, s, ind) for s, _ in plus}
    minus_sums = {s: _block_sum("D", s, ind) for s, _ in minus}
    for a_plus, ac_plus in plus:
        c_plus = plus_sums[a_plus] * plus_sums[ac_plus] * a1_factor
        if c_plus == 0:
            continue
        for a_minus, ac_minus in minus:
            cbar = c_plus * minus_sums[a_minus] * minus_sums[ac_minus]
            if cbar == 0:
                continue
            A = a_plus + a_minus
            k = len(A)
            if case == "odd":
                coef = -1 if (k + (k + 1) // 2) % 2 else 1
            else:
                coef = -1 if (k // 2) % 2 else 1
            w = _omega0_sign(A, universe) * coef * cbar
            N += w
            for i in universe:
                M[i] -= w
            for i in A:
                M[i] += 2 * w
    return M, N
