"""Multivariate Laurent polynomials with exact coefficients.

Used for the formal character identities (Weyl numerators, Kostant Euler
characteristics).  Exponent tuples are stored doubled so half-integral weights
like rho in type B stay integral.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import ExactDomainError


class Laurent:
    """dict-backed Laurent polynomial; keys are doubled exponent tuples."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c != 0:
                    self.terms[e] = self.terms.get(e, 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c != 0}

    @classmethod
    def monomial(cls, doubled_exp: tuple[int, ...], coeff=1) -> "Laurent":
        out = cls(len(doubled_exp))
        if coeff != 0:
            out.terms[tuple(doubled_exp)] = coeff
        return out

    @classmethod
    def one(cls, rank: int) -> "Laurent":
        return cls.monomial((0,) * rank)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Laurent(self.rank, out)

    def __neg__(self) -> "Laurent":
        return Laurent(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, (int, Fraction)):
            return Laurent(self.rank, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Laurent(self.rank, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def divide_exact(self, den: "Laurent") -> "Laurent":
        """Exact division; raises ExactDomainError if den does not divide self.

        Long division by the lex-leading term of den, in place on one dict.
        If self = q * den, the Newton polytope of self is the Minkowski sum of
        those of q and den, and trailing terms multiply in the lex order.  So
        every exponent of q lies in the box [min_i self - min_i den,
        max_i self - max_i den] and is lex-above min(self) - min(den).  The
        quotient exponents strictly decrease, so the loop ends within the box,
        and a quotient term outside these bounds proves a remainder.
        """
        if den.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        out = Laurent(self.rank)
        if self.is_zero():
            return out
        rem = dict(self.terms)
        quo = out.terms
        de = max(den.terms)
        dc = den.terms[de]
        shifts = [(tuple(map(sub, e, de)), c) for e, c in den.terms.items() if e != de]
        floor = tuple(map(sub, min(rem), min(den.terms)))
        box = [(min(n) - min(d), max(n) - max(d)) for n, d in zip(zip(*rem), zip(*den.terms))]
        while rem:
            ne = max(rem)
            nc = rem.pop(ne)
            qe = tuple(map(sub, ne, de))
            if qe < floor or not all(lo <= x <= hi for x, (lo, hi) in zip(qe, box)):
                raise ExactDomainError("Laurent division leaves a remainder")
            if type(nc) is int and type(dc) is int and nc % dc == 0:
                qc = nc // dc
            else:
                qc = Fraction(nc) / dc
                if qc.denominator == 1:
                    qc = qc.numerator
            quo[qe] = qc
            for s, c in shifts:
                e = tuple(map(add, ne, s))
                v = rem.get(e, 0) - qc * c
                if v:
                    rem[e] = v
                else:
                    rem.pop(e, None)
        return out

    def __repr__(self):
        if not self.terms:
            return "Laurent(0)"
        bits = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return "Laurent(" + " + ".join(bits) + ")"
