"""Quadratic spaces over Q and their local invariants.

Spaces are stored diagonalized; arbitrary symmetric Gram matrices enter through
`diagonalize`.  The discriminant follows the convention that carries an extra
(-1)^(d/2) in even dimension, so orthogonal sums of hyperbolic planes have
trivial discriminant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Sequence

from .errors import ExactDomainError
from .exactnum import (
    GLOBAL,
    REAL,
    Place,
    RationalLike,
    SquareClass,
    _as_fraction,
    _global_class,
    _hilbert_finite_cached,
    _local_class,
    _num_den,
    factorize,
    hilbert_symbol,
    squareclass_of,
    squarefree_part,
)
from .value import Value


class QuadraticSpace(Value):
    # num_den and disc derive from diag, so they are not part of eq, hash or
    # repr: the reduced (numerator, denominator) of each diagonal entry, which
    # the local invariants read, and the global discriminant, which
    # `discriminant` returns.
    __slots__ = ("diag", "num_den", "disc")

    def __init__(self, diag: Sequence[RationalLike]):
        diag = tuple(diag)
        if len(diag) < 1:
            raise ExactDomainError("quadratic space needs dimension >= 1")
        # an exact int is its own pair; bools, int subclasses and Fractions go
        # through `_num_den`, which refuses anything inexact
        num_den = tuple([(c, 1) if c.__class__ is int else _num_den(c) for c in diag])
        # (-1)^(d/2) det for d = 2 mod 4, else det; prod of num * den has the
        # square class of prod of num / den, and is 0 iff some entry is
        det = prod([n * d for n, d in num_den])
        if det == 0:
            raise ExactDomainError("degenerate diagonal entry")
        if len(num_den) % 4 == 2:
            det = -det
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "num_den", num_den)
        object.__setattr__(self, "disc", _global_class(squarefree_part(det)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.diag == other.diag
        return NotImplemented

    def __hash__(self):
        return hash((self.diag,))

    def __repr__(self):
        return f"QuadraticSpace(diag={self.diag!r})"

    @classmethod
    def from_entries(cls, entries: Sequence[RationalLike]) -> "QuadraticSpace":
        return cls(entries)

    @property
    def dim(self) -> int:
        return len(self.diag)


def diagonalize(gram: Sequence[Sequence[RationalLike]]) -> QuadraticSpace:
    """Diagonalize a nondegenerate symmetric matrix by symmetric row/column elimination."""
    n = len(gram)
    g = [[_as_fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise ExactDomainError("Gram matrix is not symmetric")
    diag = []
    for k in range(n):
        if g[k][k] == 0:
            j = next((j for j in range(k, n) if g[j][j] != 0), None)
            if j is not None:
                # swap basis vectors k and j
                for r in range(k, n):
                    g[k][r], g[j][r] = g[j][r], g[k][r]
                for r in range(k, n):
                    g[r][k], g[r][j] = g[r][j], g[r][k]
            else:
                j = next((j for j in range(k + 1, n) if g[k][j] != 0), None)
                if j is None:
                    raise ExactDomainError("degenerate Gram matrix")
                # e_k += e_j makes the diagonal entry 2*g[k][j] != 0
                for r in range(k, n):
                    g[k][r] = g[k][r] + g[j][r]
                for r in range(k, n):
                    g[r][k] = g[r][k] + g[r][j]
        pivot = g[k][k]
        for j in range(k + 1, n):
            if g[k][j] != 0:
                c = g[k][j] / pivot
                for r in range(k, n):
                    g[j][r] = g[j][r] - c * g[k][r]
                for r in range(k, n):
                    g[r][j] = g[r][j] - c * g[r][k]
        diag.append(pivot)
    return QuadraticSpace(diag)


def discriminant(q: QuadraticSpace) -> SquareClass:
    """det q for odd dimension, (-1)^(d/2) det q for even dimension, as a
    global square class; the space computes it once, when it is built."""
    return q.disc


def hasse_invariant(q: QuadraticSpace, v: Place) -> int:
    """prod_{i<j} (a_i, a_j)_v over a diagonalization; a local isometry invariant.

    At a finite place each symbol is read from the symbol cache, keyed by the
    entries' integer pairs."""
    eps = 1
    p = v.p
    if not p:  # the real place
        for a, b in combinations(q.diag, 2):
            eps *= hilbert_symbol(a, b, v)
        return eps
    symbol = _hilbert_finite_cached
    for (an, ad), (bn, bd) in combinations(q.num_den, 2):
        eps *= symbol(an, ad, bn, bd, p)
    return eps


def _closed_hasse(q: QuadraticSpace, v: Place) -> int:
    """The Hasse invariant at the finite place v in one pass over the local
    classes (v_i mod 2, u_i) of the diagonal (Serre, A Course in Arithmetic,
    III.1.2): with K = #{i : v_i odd} it is (-1)^(eps(p) C(K,2)) prod_i
    (u_i/p)^(K - v_i) at odd p, and (-1)^(C(E,2) + sum_i omega(u_i)(K - v_i))
    at p = 2, E = #{i : u_i = 3 mod 4}.  If `units` entries have (u_i/p) = -1
    (omega(u_i) = 1 at p = 2), n1 of them with v_i odd, the product over i is
    (-1)^(units K - n1).  The real place is refused."""
    p = v.p
    if not p:
        raise ExactDomainError("the closed Hasse invariant is defined at finite places only")
    local = _local_class
    k = units = n1 = e = 0
    if p == 2:
        for n, d in q.num_den:
            odd, u = local(n, d, 2)
            k += odd
            e += u >> 1 & 1  # u = 3 mod 4
            if u == 3 or u == 5:  # omega(u) = 1
                units += 1
                n1 += odd
        pairs = e * (e - 1) // 2
    else:
        for n, d in q.num_den:
            odd, u = local(n, d, p)
            k += odd
            if u != 1:  # the nonresidue class
                units += 1
                n1 += odd
        pairs = k * (k - 1) // 2 if p & 2 else 0  # eps(p) = 1 iff p = 3 mod 4
    return -1 if (pairs + units * k - n1) & 1 else 1


def signature(q: QuadraticSpace) -> tuple[int, int]:
    pos = sum(1 for n, _ in q.num_den if n > 0)
    return pos, q.dim - pos


def relevant_places(q: QuadraticSpace) -> list[Place]:
    """Real place plus primes dividing 2 * prod(diag); elsewhere all Hilbert symbols are +1."""
    primes = {2}
    for n, d in q.num_den:
        primes.update(factorize(n * d))
    return [REAL] + [Place.finite(p) for p in sorted(primes)]


def quasi_split_space(d: int, delta: SquareClass) -> QuadraticSpace:
    """The quasi-split space of dimension d and discriminant delta: hyperbolic
    planes plus a line (d odd) or the norm form of Q(sqrt(delta)) (d even)."""
    if d < 1:
        raise ExactDomainError("dimension must be >= 1")
    if delta.context != GLOBAL:
        raise ExactDomainError("need a global discriminant class")
    m = d // 2
    r = Fraction(delta.rep)
    if d % 2 == 1:
        entries = [Fraction(1), Fraction(-1)] * m + [(Fraction(-1) ** m) * r]
    else:
        entries = [Fraction(1), Fraction(-1)] * (m - 1) + [Fraction(1), -r]
    return QuadraticSpace(entries)


def is_quasi_split_local(q: QuadraticSpace, v: Place) -> bool:
    """Quasi-splitness of the space over Q_v, by the closed Hasse-invariant formulas
    at finite places and the signature table over R.  The form's Hasse
    invariant is `_closed_hasse`, one pass over its local classes, not the
    pairwise product of `hasse_invariant`, which the oracle uses."""
    d = len(q.diag)
    delta_rep = q.disc.rep
    p = v.p
    if p:
        return _closed_hasse(q, v) == _quasi_split_hasse(d, delta_rep, p)
    m = d // 2
    sig = signature(q)
    if d % 2 == 1:
        if (1 if delta_rep > 0 else -1) == (-1) ** m:
            return sig == (m + 1, m)
        return sig == (m, m + 1)
    if delta_rep < 0:
        return sig == (m + 1, m - 1)
    return sig == (m, m)


@lru_cache(maxsize=4096)
def _quasi_split_hasse(d: int, delta_rep: int, p: int) -> int:
    """The Hasse invariant at p of a quasi-split space of dimension d whose
    discriminant has the squarefree representative delta_rep, by the closed
    formula in the symbols (-1, -1)_p and (-1, +-delta)_p."""
    v = Place.finite(p)
    m = d // 2
    if d % 2 == 1:
        return hilbert_symbol(-1, -1, v) ** (m * (m - 1) // 2) * hilbert_symbol(-1, ((-1) ** m) * delta_rep, v) ** m
    return hilbert_symbol(-1, -1, v) ** ((m - 1) * (m - 2) // 2) * hilbert_symbol(-1, -delta_rep, v) ** (m - 1)


@lru_cache(maxsize=4096)
def _model_invariants(d: int, delta_rep: int, p: int) -> tuple[tuple[int, int], int]:
    """The local square class at p of the discriminant, as `_local_class`
    gives it, and the pairwise Hasse invariant at p of `quasi_split_space(d,
    delta)`, where delta has the squarefree representative delta_rep."""
    model = quasi_split_space(d, SquareClass(GLOBAL, delta_rep))
    return _local_class(model.disc.rep, 1, p), hasse_invariant(model, Place.finite(p))


def is_quasi_split_oracle(q: QuadraticSpace, p: int) -> bool:
    """Independent check over Q_p: compare (dim, disc, Hasse) with the explicit
    quasi-split model, which classifies quadratic forms over Q_p.  The model
    depends only on (dim, disc), so its invariants at p are cached; the
    form's own pairwise Hasse product is taken on every call."""
    v = Place.finite(p)
    delta_rep = q.disc.rep
    model_class, model_hasse = _model_invariants(len(q.diag), delta_rep, p)
    return _local_class(delta_rep, 1, p) == model_class and hasse_invariant(q, v) == model_hasse


def is_perfect(q: QuadraticSpace, p: int) -> bool:
    """Quasi-split at p with discriminant of even p-adic valuation (odd p only)."""
    from .exactnum import padic_valuation

    if p == 2:
        raise ExactDomainError("perfection is defined at odd primes only")
    Place.finite(p)  # validates primality
    delta = discriminant(q)
    return is_quasi_split_local(q, Place.finite(p)) and padic_valuation(delta.as_rational(), p) % 2 == 0


def exists_global_form(d: int, det: object) -> bool:
    """Whether a form of dimension d, Gram determinant class `det` and signature
    (d-2, 2) exists that is split (d odd) / quasi-split (d even) at every finite
    place, with the extra d = 0 mod 8 branch where only the group (not the
    space) is quasi-split at the finite places.

    `det` is the determinant of the Gram matrix as a square class; the twisted
    discriminant carrying the extra (-1)^(d/2) is derived internally.  For
    determinant 1 the answer is d = 3,4,5,6 mod 8; in the remaining even case
    d = 0 mod 8 a form exists iff the twisted discriminant is nontrivial
    (scaling at a finite place where it is a nonsquare repairs the Hasse
    product without moving the group).  The model's finite Hasse invariants
    are read with `_closed_hasse`, not the pairwise `hasse_invariant`.
    """
    if d < 3:
        raise ExactDomainError("dimension must be >= 3")
    if isinstance(det, SquareClass):
        if det.context != GLOBAL:
            raise ExactDomainError("need a global determinant class")
    else:
        det = squareclass_of(det, GLOBAL)
    if det.rep < 0:
        return False  # signature (d-2, 2) forces positive determinant
    delta = det
    if d % 2 == 0 and (d // 2) % 2 == 1:
        delta = delta * squareclass_of(-1, GLOBAL)
    model = quasi_split_space(d, delta)
    prod_fin = 1  # the d mod 8 table of `verify hilbert` checks this side independently
    for v in relevant_places(model):
        if not v.is_real:
            prod_fin *= _closed_hasse(model, v)
    # Signature (d-2, 2) forces the real Hasse invariant to be -1, and the
    # quasi-split local data are rigid, so the form glues iff prod_fin = -1.
    if prod_fin == -1:
        return True
    return d % 8 == 0 and not delta.is_trivial
