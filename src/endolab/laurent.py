"""Multivariate Laurent polynomials with exact coefficients.

Used for the formal character identities (Weyl numerators, Kostant Euler
characteristics).  Exponent tuples are stored doubled so half-integral weights
like rho in type B stay integral.

Internally each monomial of rank r is keyed by one int, the exponent vector
e packed as sum_i e_i * S^(r-1-i) with S = 2^W: balanced base-S digits, the
first coordinate most significant.  Every exponent must satisfy
|e_i| < S/2 = 2^15; one outside that range raises ResourceLimitError, at the
tuple boundary and in any product or quotient whose exponents could leave it.
In that range packing is linear (adding exponent vectors is one int `+`) and
monotone (int order is lex order on the vectors), so the lex-leading term of
a polynomial is the max of its keys.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExactDomainError, ResourceLimitError

W = 16
_HALF = 1 << (W - 1)
_MASK = (1 << W) - 1


def _pack(e: tuple) -> int:
    key = 0
    for x in e:
        if not -_HALF < x < _HALF:
            raise ResourceLimitError(f"exponent {x} outside the packed range |e| < {_HALF}")
        key = (key << W) + x
    return key


def _unpack(key: int, rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for i in range(rank - 1, -1, -1):
        d = ((key + _HALF) & _MASK) - _HALF
        out[i] = d
        key = (key - d) >> W
    return tuple(out)


class Laurent:
    """dict-backed Laurent polynomial in `rank` variables.

    Built from and read as doubled exponent tuples (`terms`); stored on packed
    int keys (see the module docstring).  `_span` bounds |e_i| over every
    exponent, so a product whose exponents could leave the packed range is
    refused before it is formed.
    """

    __slots__ = ("rank", "_packed", "_span")

    def __init__(self, rank: int, terms: dict | None = None):
        packed, span = {}, 0
        for e, c in (terms or {}).items():
            if len(e) != rank:
                raise ExactDomainError(f"exponent {e} has length {len(e)}, not the rank {rank}")
            if c != 0:
                packed[_pack(e)] = c
                span = max(span, max(map(abs, e), default=0))
        self.rank, self._packed, self._span = rank, packed, span

    @classmethod
    def _make(cls, rank: int, packed: dict, span: int) -> "Laurent":
        """Trust packed: every key in range, every coefficient nonzero."""
        out = object.__new__(cls)
        out.rank, out._packed, out._span = rank, packed, span
        return out

    @classmethod
    def monomial(cls, doubled_exp: tuple[int, ...], coeff=1) -> "Laurent":
        return cls(len(doubled_exp), {tuple(doubled_exp): coeff})

    @classmethod
    def one(cls, rank: int) -> "Laurent":
        return cls._make(rank, {0: 1}, 0)

    @classmethod
    def product_of_blocks(cls, rank: int, blocks) -> "Laurent":
        """The product of polynomials in disjoint coordinate blocks.

        blocks lists (offset, poly) by increasing offset; poly is placed on
        coordinates offset .. offset + poly.rank - 1.  No two blocks share a
        coordinate, so each choice of one term per block is its own monomial:
        the product is {k1 + k2: c1 * c2} with no coefficients to collect.
        """
        packed, span, end = {0: 1}, 0, 0
        for offset, poly in blocks:
            if offset < end or offset + poly.rank > rank:
                raise ExactDomainError("blocks overlap or do not fit the rank")
            end = offset + poly.rank
            shift = W * (rank - end)
            factor = [(k << shift, c) for k, c in poly._packed.items()]
            packed = {k1 + k2: c1 * c2 for k1, c1 in packed.items() for k2, c2 in factor}
            span = max(span, poly._span)
        return cls._make(rank, packed, span)

    @classmethod
    def linear_combination(cls, rank: int, pairs) -> "Laurent":
        """sum_j a_j * p_j over (a_j, p_j) in pairs, collected on one dict."""
        acc: dict = {}
        span = 0
        get = acc.get
        for a, p in pairs:
            if p.rank != rank:
                raise ExactDomainError(f"Laurent ranks differ: {rank} and {p.rank}")
            for k, c in p._packed.items():
                acc[k] = get(k, 0) + a * c
            span = max(span, p._span)
        return cls._make(rank, {k: c for k, c in acc.items() if c}, span)

    @property
    def terms(self) -> dict:
        """The coefficients keyed by doubled exponent tuples: a new dict."""
        rank = self.rank
        return {_unpack(k, rank): c for k, c in self._packed.items()}

    def is_zero(self) -> bool:
        return not self._packed

    def _check_rank(self, other: "Laurent"):
        if other.rank != self.rank:
            raise ExactDomainError(f"Laurent ranks differ: {self.rank} and {other.rank}")

    def __add__(self, other: "Laurent") -> "Laurent":
        self._check_rank(other)
        out = dict(self._packed)
        for k, c in other._packed.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return Laurent._make(self.rank, out, max(self._span, other._span))

    def __neg__(self) -> "Laurent":
        return Laurent._make(self.rank, {k: -c for k, c in self._packed.items()}, self._span)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Laurent(self.rank)
            return Laurent._make(self.rank, {k: c * other for k, c in self._packed.items()}, self._span)
        self._check_rank(other)
        span = self._span + other._span
        if span >= _HALF:
            raise ResourceLimitError(f"product exponents may reach {span}, outside |e| < {_HALF}")
        out: dict = {}
        get = out.get
        right = list(other._packed.items())
        for k1, c1 in self._packed.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return Laurent._make(self.rank, {k: c for k, c in out.items() if c}, span)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.rank == other.rank and self._packed == other._packed

    def __hash__(self):
        return hash((self.rank, frozenset(self._packed.items())))

    def divide_exact(self, den: "Laurent") -> "Laurent":
        """Exact division; raises ExactDomainError if den does not divide self.

        Long division by the lex-leading term of den, in place on one dict.
        If self = q * den, the Newton polytope of self is the Minkowski sum of
        those of q and den, and trailing terms multiply in the lex order.  So
        every exponent of q lies in the box [min_i self - min_i den,
        max_i self - max_i den] and is lex-above min(self) - min(den).  The
        quotient exponents strictly decrease, so the loop ends within the box,
        and a quotient term outside these bounds proves a remainder.

        On packed keys: with both spans summing below S/2 every difference
        of two exponents is in range, so the packed differences below are the
        vector differences and compare in lex order.  A quotient exponent in
        the box keeps every remainder exponent in the box of self.
        """
        self._check_rank(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self._span + den._span >= _HALF:
            raise ResourceLimitError("quotient exponents may leave the packed range")
        rank = self.rank
        if self.is_zero():
            return Laurent(rank)
        rem = dict(self._packed)
        quo: dict = {}
        de = max(den._packed)
        dc = den._packed[de]
        shifts = [(k - de, c) for k, c in den._packed.items() if k != de]
        floor = min(rem) - min(den._packed)
        num_cols = list(zip(*(_unpack(k, rank) for k in rem)))
        den_cols = list(zip(*(_unpack(k, rank) for k in den._packed)))
        box = [(min(n) - min(d), max(n) - max(d)) for n, d in zip(num_cols, den_cols)]
        while rem:
            ne = max(rem)
            nc = rem.pop(ne)
            qe = ne - de
            if qe < floor or not all(lo <= x <= hi for x, (lo, hi) in zip(_unpack(qe, rank), box)):
                raise ExactDomainError("Laurent division leaves a remainder")
            if type(nc) is int and type(dc) is int and nc % dc == 0:
                qc = nc // dc
            else:
                qc = Fraction(nc) / dc
                if qc.denominator == 1:
                    qc = qc.numerator
            quo[qe] = qc
            for s, c in shifts:
                k = ne + s
                v = rem.get(k, 0) - qc * c
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        span = max((max(-lo, hi) for lo, hi in box), default=0)
        return Laurent._make(rank, quo, span)

    def __repr__(self):
        if not self._packed:
            return "Laurent(0)"
        bits = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return "Laurent(" + " + ".join(bits) + ")"
