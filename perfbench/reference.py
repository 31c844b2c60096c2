"""Independent computations the benchmark checks the program against.

Nothing here imports endolab: each function re-derives a quantity from its
textbook definition, with plain integers and Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod


# --- type B/D root systems -------------------------------------------------------

def positive_coroot_pairings(kind: str, v) -> list:
    """<v, a^vee> over the positive roots a of type B/D: e_i +- e_j, and e_i
    (coroot 2 e_i) in type B."""
    m = len(v)
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            out += [v[i] - v[j], v[i] + v[j]]
    if kind == "B":
        out += [2 * c for c in v]
    return out


def rho(kind: str, m: int) -> list[Fraction]:
    shift = Fraction(1, 2) if kind == "B" else 0
    return [m - i + shift for i in range(1, m + 1)]


def weyl_dimension(kind: str, lam) -> int:
    """Weyl's dimension formula prod <lam + rho, a^vee> / <rho, a^vee>."""
    r = rho(kind, len(lam))
    shifted = [c + s for c, s in zip(lam, r)]
    num = prod(positive_coroot_pairings(kind, shifted))
    den = prod(positive_coroot_pairings(kind, r))
    dim = Fraction(num) / Fraction(den)
    if dim.denominator != 1:
        raise ValueError(f"non-integral dimension {dim}")
    return int(dim)


def weyl_order(kind: str, m: int) -> int:
    """|W(B_m)| = 2^m m!, |W(D_m)| = 2^(m-1) m! (1 for rank <= 1 in type D)."""
    if m == 0:
        return 1
    if kind == "B":
        return 2**m * factorial(m)
    return 2 ** (m - 1) * factorial(m)


def levi_weyl_order(kind: str, m: int, gl_sizes, so_rank: int) -> int:
    return prod(factorial(k) for k in gl_sizes) * weyl_order(kind, so_rank)


# --- Gaussian rationals as pairs of Fractions ---------------------------------------

def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def c_pow(x, k: int):
    if k < 0:
        return c_pow(c_inv(x), -k)
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = c_mul(out, x)
    return out


def circle(t: Fraction):
    """((1 - t^2) + 2 t i) / (1 + t^2), a rational point on the unit circle."""
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def evaluate_doubled(terms: dict, point) -> tuple[Fraction, Fraction]:
    """Evaluate sum c x^(e/2) (doubled exponent tuples) at a point of (Q(i)^x)^m."""
    re = im = Fraction(0)
    for exps, c in terms.items():
        value = (Fraction(c), Fraction(0))
        for z, e in zip(point, exps):
            if e % 2:
                raise ValueError("half-integral exponent in an integral character")
            value = c_mul(value, c_pow(z, e // 2))
        re += value[0]
        im += value[1]
    return re, im


def on_root_wall(kind: str, point) -> bool:
    """Whether some positive root takes the value 1 at the point."""
    one = (Fraction(1), Fraction(0))
    m = len(point)
    for i in range(m):
        for j in range(i + 1, m):
            if c_mul(point[i], c_inv(point[j])) == one or c_mul(point[i], point[j]) == one:
                return True
    return kind == "B" and any(z == one for z in point)


# --- Hilbert symbols -------------------------------------------------------------------

def prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def hilbert_odd(a: int, b: int, p: int) -> int:
    """(a, b)_p at an odd prime by Serre's formula (A Course in Arithmetic,
    ch. III, thm. 1): with a = p^alpha u, b = p^beta v,
    (a, b)_p = (-1)^(alpha beta eps(p)) (u/p)^beta (v/p)^alpha."""
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    eps = (p - 1) // 2
    sign = (-1) ** (alpha * beta * eps)
    return sign * _legendre(u, p) ** beta * _legendre(v, p) ** alpha


def _split(n: int, p: int) -> tuple[int, int]:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


# --- the unramified local shapes at p ------------------------------------------------

A_SETS = {"M1": [(), (1, 2)], "M2": [(), (1,)], "M12": [(), (1,), (2,), (1, 2)]}


def local_shapes():
    """Every unramified local shape of the transfer at p for d = 7..10 and
    a = 1, 2, 3, grouped so that the shapes of one group differ only in A:
    [((d, levi, base, squares, a), [(A, compute_fH_at_p arguments), ...]), ...]."""
    groups = []
    for d in (7, 8, 9, 10):
        parity = "odd" if d % 2 else "even"
        m = d // 2
        for levi, i in (("M1", 2), ("M2", 1), ("M12", 2)):
            d_so = d - 2 * i
            if d_so < 3:
                continue
            if parity == "odd":
                bases = [(dp, d_so + 1 - dp) for dp in range(1, d_so + 1, 2)]
                squares = [(True, True)]
            else:
                bases = [(dp, d_so - dp) for dp in range(0, d_so + 1, 2)]
                squares = [(True, True), (True, False), (False, True), (False, False)]
            for bp, bm in bases:
                for sq in squares:
                    for a in (1, 2, 3):
                        shapes = []
                        for A in A_SETS[levi]:
                            m_plus = bp // 2 + len(A)
                            shapes.append((A, (levi, parity, m, m_plus, m - m_plus, list(A), a, *sq)))
                        groups.append(((d, levi, (bp, bm), sq, a), shapes))
    return groups


def excluded(levi, parity, m, m_plus, m_minus, A, a, plus_square, minus_square) -> bool:
    """The excluded shapes: in the even case, an orthogonal factor (of H or of
    the Levi M') of rank 0 with a nontrivial discriminant, or of rank 1 with a
    trivial one."""
    if parity == "odd":
        return False
    gl_plus = len(A)
    gl_minus = (1 if levi == "M2" else 2) - len(A)
    for rank, square in (
        (m_plus, plus_square),
        (m_plus - gl_plus, plus_square),
        (m_minus, minus_square),
        (m_minus - gl_minus, minus_square),
    ):
        if (rank == 0 and not square) or (rank == 1 and square):
            return True
    return False


def k_table(levi: str, A, a: int) -> list:
    """The closed k(A) table, epsilon_i(A) (X_i^a + X_i^-a) on the GL block, in
    the program's serialized form [[exponents, [[0, coefficient]]], ...]."""
    A = set(A)
    if levi == "M12":
        coeff = {(e if i == 0 else 0, e if i == 1 else 0): (1 if i + 1 in A else -1)
                 for i in (0, 1) for e in (a, -a)}
    elif levi == "M1":
        sign = 1 if A == {1, 2} else -1
        coeff = {(a, 0): sign, (-a, 0): sign, (0, a): sign, (0, -a): sign}
    else:
        sign = 1 if A == {1} else -1
        coeff = {(a,): sign, (-a,): sign}
    return [[list(e), [[0, c]]] for e, c in sorted(coeff.items())]
