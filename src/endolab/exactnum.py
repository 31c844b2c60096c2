"""Exact arithmetic substrate: rationals, Gaussian rationals, square classes, local symbols.

Rationals are stdlib ``fractions.Fraction`` (canonical reduced form, arbitrary
precision).  Gaussian rationals are kept as integer triples (re, im, den) so
the hot evaluation loops avoid two Fraction normalizations per operation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

from .errors import ExactDomainError
from .value import Value

RationalLike = Union[int, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, int):  # before Fraction: isinstance(int, Fraction) is a slow ABC check
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise ExactDomainError(f"expected an exact rational, got {type(x).__name__}")


def _exact(x: RationalLike) -> RationalLike:
    """x unchanged if it is an int or a Fraction; ExactDomainError otherwise."""
    if isinstance(x, (int, Fraction)):  # int first: isinstance(int, Fraction) is a slow ABC check
        return x
    raise ExactDomainError(f"expected an exact rational, got {type(x).__name__}")


def _num_den(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, without building a Fraction."""
    if isinstance(x, int):  # before Fraction: isinstance(int, Fraction) is a slow ABC check
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise ExactDomainError(f"expected an exact rational, got {type(x).__name__}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=1024)
def _is_prime_cached(n: int) -> bool:
    """`is_prime`, memoized for `Place`, which every finite place runs through."""
    return is_prime(n)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (inputs here stay small)."""
    return dict(_factorize_cached(abs(n)))


@lru_cache(maxsize=65536)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    if n == 0:
        raise ExactDomainError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


@lru_cache(maxsize=65536)
def squarefree_part(n: int) -> int:
    """The canonical squarefree integer representing n modulo nonzero squares,
    memoized on n (a refusal of 0 is not cached)."""
    if n == 0:
        raise ExactDomainError("0 has no square class")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in _factorize_cached(abs(n)):
        if e % 2:
            out *= p
    return out


class GaussianRational:
    """Element of Q(i), stored as (re + im*i)/den with den > 0 and gcd(re, im, den) = 1."""

    __slots__ = ("re_n", "im_n", "den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:  # exact type: bools take the Fraction path
            self.re_n, self.im_n, self.den = re, im, 1
            return
        re = _as_fraction(re)
        im = _as_fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = gcd(gcd(abs(a), abs(b)), d)
        self.re_n = a // g
        self.im_n = b // g
        self.den = d // g

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussianRational":
        if d == 0:
            raise ZeroDivisionError("Gaussian rational with zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(abs(a), abs(b)), d)
        z = object.__new__(cls)
        z.re_n = a // g
        z.im_n = b // g
        z.den = d // g
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_n, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_n, self.den)

    def is_zero(self) -> bool:
        return self.re_n == 0 and self.im_n == 0

    def is_real(self) -> bool:
        return self.im_n == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re_n, -self.im_n, self.den)

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational._raw(
            self.re_n * other.den + other.re_n * self.den,
            self.im_n * other.den + other.im_n * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._raw(-self.re_n, -self.im_n, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational._raw(
            self.re_n * other.re_n - self.im_n * other.im_n,
            self.re_n * other.im_n + self.im_n * other.re_n,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re_n * self.re_n + self.im_n * self.im_n
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational._raw(self.re_n * self.den, -self.im_n * self.den, n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except ExactDomainError:
            return NotImplemented
        return (self.re_n, self.im_n, self.den) == (other.re_n, other.im_n, other.den)

    def __hash__(self):
        return hash((self.re_n, self.im_n, self.den))

    def __repr__(self):
        if self.im_n == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


ZERO = GaussianRational._raw(0, 0, 1)
ONE = GaussianRational._raw(1, 0, 1)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise ExactDomainError(f"cannot coerce {type(x).__name__} to GaussianRational")


class Place(Value):
    """A place of Q: the real place or a finite prime."""

    __slots__ = ("p",)  # 0 encodes the real place

    def __init__(self, p: int):
        if p != 0 and not _is_prime_cached(p):
            raise ExactDomainError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    @classmethod
    def real(cls) -> "Place":
        return cls(0)

    @classmethod
    def finite(cls, p: int) -> "Place":
        """The place at the prime p, one object per prime (`Place(p)` still
        refuses a p that is not prime, and a refusal is not cached)."""
        if p == 0:
            raise ExactDomainError("finite place needs a prime")
        return _finite_place(p)

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __repr__(self):
        return "Place(real)" if self.is_real else f"Place({self.p})"


@lru_cache(maxsize=1024)
def _finite_place(p: int) -> Place:
    return Place(p)


REAL = Place.real()


def padic_valuation(x: RationalLike, p: int) -> int:
    """v with x = p**v * u, u a p-adic unit.  Errors on x = 0."""
    if not is_prime(p):
        raise ExactDomainError(f"{p} is not prime")
    n, d = _num_den(x)
    if n == 0:
        raise ExactDomainError("0 has no p-adic valuation")
    return _split_p(n, d, p)[0]


def _split_p(n: int, d: int, p: int) -> tuple[int, int, int]:
    """(v, n', d') with n/d = p**v * n'/d' and p dividing neither n' nor d'; n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n, d


def legendre(a: RationalLike, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p; +1 iff a is a square mod p."""
    if not is_prime(p) or p == 2:
        raise ExactDomainError(f"{p} is not an odd prime")
    n, d = _num_den(a)
    if n % p == 0 or d % p == 0:
        raise ExactDomainError(f"{Fraction(n, d)} is not a p-adic unit at {p}")
    return _legendre_unit(n, d, p)


def _legendre_unit(n: int, d: int, p: int) -> int:
    """(n/d over p) for an odd prime p dividing neither n nor d."""
    return 1 if pow(n * pow(d, -1, p) % p, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    n = 2
    while legendre(n, p) == 1:
        n += 1
    return n


def _odd_unit_mod(n: int, d: int, m: int) -> int:
    """n/d mod m for a 2-adic unit n/d and m a power of 2."""
    return n * pow(d, -1, m) % m


def hilbert_symbol(a: RationalLike, b: RationalLike, v: Place) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a nonzero solution over Q_v."""
    an, ad = _num_den(a)
    bn, bd = _num_den(b)
    if an == 0 or bn == 0:
        raise ExactDomainError("Hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if (an < 0 and bn < 0) else 1
    return _hilbert_finite_cached(an, ad, bn, bd, v.p)


@lru_cache(maxsize=65536)
def _hilbert_finite_cached(an: int, ad: int, bn: int, bd: int, p: int) -> int:
    """(an/ad, bn/bd)_p, keyed on the reduced numerators and denominators."""
    alpha, un, ud = _split_p(an, ad, p)
    beta, wn, wd = _split_p(bn, bd, p)
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2 and _legendre_unit(un, ud, p) == -1:
            sign = -sign
        if alpha % 2 and _legendre_unit(wn, wd, p) == -1:
            sign = -sign
        return sign
    um8, wm8 = _odd_unit_mod(un, ud, 8), _odd_unit_mod(wn, wd, 8)
    eps_u = (um8 % 4 - 1) // 2
    eps_w = (wm8 % 4 - 1) // 2
    omega_u = 1 if um8 in (3, 5) else 0
    omega_w = 1 if wm8 in (3, 5) else 0
    e = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if e % 2 else 1


def hilbert_symbol_oracle(a: RationalLike, b: RationalLike, v: Place) -> int:
    """Brute-force Hilbert symbol: solvability of z^2 = a x^2 + b y^2 mod p^(2v+3), Hensel-lifted.

    The inputs are first reduced to their canonical square-class representatives
    (valuations 0 or 1 at p), so a primitive zero mod p^(2v+3) always has a
    coordinate where the gradient valuation is small enough for Hensel lifting.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise ExactDomainError("Hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    ra = squareclass_of(a, p).as_rational()
    rb = squareclass_of(b, p).as_rational()
    ia, ib = int(ra), int(rb)
    vmax = max(padic_valuation(ia, p), padic_valuation(ib, p))
    mod = p ** (2 * vmax + 3)
    sq = sorted({t * t % mod for t in range(mod)})
    sqset = set(sq)
    aset = {ia * t % mod for t in sq}
    bset = {ib * t % mod for t in sq}
    # A Q_p-point exists iff there is one with x, y or z a unit; scale that
    # coordinate to 1 and scan the other two.
    for t in aset:
        if (1 - t) % mod in bset:  # z = 1
            return 1
    for t in bset:
        if (ia + t) % mod in sqset:  # x = 1: z^2 - b y^2 = a
            return 1
    for t in aset:
        if (ib + t) % mod in sqset:  # y = 1: z^2 - a x^2 = b
            return 1
    return -1


# --- square classes ---------------------------------------------------------

GLOBAL = "Q"
REAL_CONTEXT = "R"
# a local context is just the prime p (an int)

Context = Union[str, int]


class SquareClass(Value):
    """Canonical representative of F^x / F^{x,2} for F = Q, R or Q_p.

    rep encodings:
      context "Q":  squarefree nonzero integer
      context "R":  +1 or -1
      context p:    (valuation mod 2, unit class); the unit class is 1 or the
                    smallest nonresidue for odd p, and 1/3/5/7 mod 8 for p = 2.
    """

    __slots__ = ("context", "rep")

    def __init__(self, context: Context, rep: object):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "rep", rep)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.context != other.context:
            raise ExactDomainError("square classes live in different contexts")
        if self.context == GLOBAL:
            return SquareClass(GLOBAL, squarefree_part(self.rep * other.rep))
        if self.context == REAL_CONTEXT:
            return SquareClass(REAL_CONTEXT, self.rep * other.rep)
        p = self.context
        e = (self.rep[0] + other.rep[0]) % 2
        u = self.rep[1] * other.rep[1]
        if p == 2:
            return SquareClass(2, (e, u % 8))
        return SquareClass(p, (e, 1 if legendre(u, p) == 1 else smallest_nonresidue(p)))

    @property
    def is_trivial(self) -> bool:
        if self.context == GLOBAL:
            return self.rep == 1
        if self.context == REAL_CONTEXT:
            return self.rep == 1
        return self.rep == (0, 1)

    def as_rational(self) -> Fraction:
        """A rational number realizing this class."""
        if self.context == GLOBAL or self.context == REAL_CONTEXT:
            return Fraction(self.rep)
        p = self.context
        return Fraction(p ** self.rep[0] * self.rep[1])

    def localize(self, v: Place) -> "SquareClass":
        if self.context != GLOBAL:
            raise ExactDomainError("only global classes can be localized")
        if v.is_real:
            return squareclass_of(self.rep, REAL_CONTEXT)
        return squareclass_of(self.rep, v.p)


@lru_cache(maxsize=4096)
def _global_class(rep: int) -> SquareClass:
    """The global square class of the squarefree integer rep, one object per
    rep, for the discriminants that every `QuadraticSpace` carries."""
    return SquareClass(GLOBAL, rep)


def squareclass_of(x: RationalLike, context: Context) -> SquareClass:
    """Canonical square class of a nonzero rational in the given context."""
    n, d = _num_den(x)
    if n == 0:
        raise ExactDomainError("0 has no square class")
    if context == GLOBAL:
        return SquareClass(GLOBAL, squarefree_part(n * d))
    if context == REAL_CONTEXT:
        return SquareClass(REAL_CONTEXT, 1 if n > 0 else -1)
    return SquareClass(context, _local_class(n, d, context))


@lru_cache(maxsize=65536)
def _local_class(n: int, d: int, p: int) -> tuple[int, int]:
    """The rep of n/d (reduced, n != 0) in Q_p^x / Q_p^x2, as `SquareClass` encodes it."""
    if not is_prime(p):
        raise ExactDomainError(f"{p} is not prime")
    e, n, d = _split_p(n, d, p)
    if p == 2:
        return e % 2, _odd_unit_mod(n, d, 8)
    return e % 2, 1 if _legendre_unit(n, d, p) == 1 else smallest_nonresidue(p)
