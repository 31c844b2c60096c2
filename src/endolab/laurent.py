"""Multivariate Laurent polynomials with exact coefficients.

Used for the formal character identities (Weyl numerators, Kostant Euler
characteristics).  Exponent tuples are stored doubled so half-integral weights
like rho in type B stay integral.

Internally each monomial of rank r is keyed by one int, the exponent vector
e packed as sum_i e_i * S^(r-1-i) with S = 2^W: balanced base-S digits, the
first coordinate most significant.  Every exponent must satisfy
|e_i| < S/2 = 2^15; one outside that range raises ResourceLimitError, at the
tuple boundary and in any product or quotient whose exponents could leave it.
In that range packing is linear and one-to-one (adding exponent vectors is
one int `+`), and int order is lex order on the vectors.

Every product and quotient the formal identities need is by a Weyl
denominator e^shift prod_a (1 - e^-a), so that is the only multiplication and
division here, one binomial at a time (`mul_binomials`, `divide_binomials`).
Multiplying p by (1 - e^-a) is one linear pass, r_k = p_k - p_{k+a}.  Dividing
is a suffix sum along each a-string {k + t a}: q_k = sum_{t >= 0} p_{k+ta},
and the division is exact iff every string of p sums to 0.
"""

from __future__ import annotations

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
    exponent, so a product or quotient whose exponents could leave the packed
    range is refused before it is formed.
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
    def sum_of_block_products(cls, rank: int, blocks, entries) -> "Laurent":
        """sum_j c_j prod_b p_jb over the entries (c_j, [p_j1, p_j2, ...]).

        blocks lists (offset, size) by increasing offset; p_jb has rank size and
        sits on coordinates offset .. offset + size - 1.  The blocks are
        disjoint, so each choice of one term per factor is its own monomial,
        and each entry's product, seeded with c_j, goes into one accumulator.
        """
        shifts, end = [], 0
        for offset, size in blocks:
            if offset < end or offset + size > rank:
                raise ExactDomainError("blocks overlap or do not fit the rank")
            end = offset + size
            shifts.append((size, W * (rank - end)))
        acc, span = {}, 0
        get = acc.get
        for c, factors in entries:
            if len(factors) != len(shifts):
                raise ExactDomainError(f"{len(factors)} factors on {len(shifts)} blocks")
            prod = [(0, c)]
            for (size, shift), p in zip(shifts, factors):
                if p.rank != size:
                    raise ExactDomainError(f"a rank {p.rank} factor on a block of size {size}")
                if p._span > span:
                    span = p._span
                prod = [(k1 + (k2 << shift), c1 * c2) for k1, c1 in prod for k2, c2 in p._packed.items()]
            for k, v in prod:
                acc[k] = get(k, 0) + v
        return cls._make(rank, {k: v for k, v in acc.items() if v}, span)

    @property
    def terms(self) -> dict:
        """The coefficients keyed by doubled exponent tuples: a new dict."""
        rank = self.rank
        return {_unpack(k, rank): c for k, c in self._packed.items()}

    def _binomials(self, shift, roots):
        """The packed shift, its largest |coordinate|, and per root a: packed
        a, the bit offset of its first nonzero coordinate i, a_i (0 for a = 0)
        and the largest |a_j| over j != i."""
        for v in (shift, *roots):
            if len(v) != self.rank:
                raise ExactDomainError(f"exponent {v} has length {len(v)}, not the rank {self.rank}")
        packed = []
        for a in roots:
            i, ai = next(((i, x) for i, x in enumerate(a) if x), (0, 0))
            rest = max((abs(x) for j, x in enumerate(a) if j != i), default=0)
            packed.append((_pack(a), W * (self.rank - 1 - i), ai, rest))
        return _pack(shift), max(map(abs, shift), default=0), packed

    def mul_binomials(self, shift, roots) -> "Laurent":
        """self * e^shift * prod_{a in roots} (1 - e^-a), shift and roots doubled."""
        s, s_span, packed = self._binomials(shift, roots)
        span = self._span + s_span + sum(max(map(abs, a), default=0) for a in roots)
        if span >= _HALF:
            raise ResourceLimitError(f"product exponents may reach {span}, outside |e| < {_HALF}")
        p = {k + s: c for k, c in self._packed.items()}
        for a, *_ in packed:
            out = dict(p)
            get = out.get
            for k, c in p.items():
                k -= a
                v = get(k, 0) - c
                if v:
                    out[k] = v
                else:
                    del out[k]
            p = out
        return Laurent._make(self.rank, p, span)

    def divide_binomials(self, shift, roots) -> "Laurent":
        """self / (e^shift * prod_{a in roots} (1 - e^-a)), shift and roots
        doubled; ExactDomainError if that leaves a remainder.

        e lies on the a-string with base e - floor(e_i / a_i) * a, i the first
        nonzero coordinate of a; e_i is read off the packed key, whose digits
        are all non-negative once S/2 is added to each.  Every string sum is
        checked before any quotient term is formed.  The quotient on a string
        is the suffix sum of its coefficients, which is 0 beyond both ends of
        its support, so its exponents stay between those of self.
        """
        s, s_span, packed = self._binomials(shift, roots)
        rank, span = self.rank, self._span
        if span + s_span >= _HALF:
            raise ResourceLimitError(f"quotient exponents may reach {span + s_span}, outside |e| < {_HALF}")
        offset = sum(_HALF << (W * j) for j in range(rank))
        p = self._packed
        for a, bits, ai, rest in packed:
            if not ai:
                raise ZeroDivisionError("division by 1 - e^0 = 0")
            # a base has |e_j| <= span + (span // |a_i| + 1) * |a_j| for j != i,
            # and packing is one-to-one only in range
            if span + (span // abs(ai) + 1) * rest >= _HALF:
                raise ResourceLimitError("string bases may leave the packed range")
            strings: dict = {}
            for k, c in p.items():
                t = ((((k + offset) >> bits) & _MASK) - _HALF) // ai
                strings.setdefault(k - t * a, []).append((t, c))
            if any(sum(c for _, c in string) for string in strings.values()):
                raise ExactDomainError("Laurent division leaves a remainder")
            q: dict = {}
            for base, string in strings.items():
                string.sort(reverse=True)
                run = 0
                for (t, c), (t_next, _) in zip(string, string[1:]):
                    run += c
                    if run:
                        for u in range(t_next + 1, t + 1):
                            q[base + u * a] = run
            p = q
        return Laurent._make(rank, {k - s: c for k, c in p.items()}, span + s_span)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.rank == other.rank and self._packed == other._packed

    def __hash__(self):
        return hash((self.rank, frozenset(self._packed.items())))

    def __repr__(self):
        if not self._packed:
            return "Laurent(0)"
        bits = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return "Laurent(" + " + ".join(bits) + ")"
