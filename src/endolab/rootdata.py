"""Standard type B/D root data, signed-permutation Weyl groups, Weyl characters,
Kostant cohomology entries and the weight truncations.

Nothing here walks W one WeylElement at a time: the Weyl numerator lists
the terms (det w, w mu) of Weyl's determinant by Leibniz's formula
(_alternant_images), the plans expand that determinant without listing them,
and Kostant's table enumerates only the coset representatives W^M.

Conventions: rank-m lattice Z^m with basis e_1..e_m.  Type B roots are
+-e_i +- e_j and +-e_i; type D drops the short roots.  The natural order takes
e_1-e_2, ..., e_{m-1}-e_m and e_m (type B) / e_{m-1}+e_m (type D) as simple
roots, so a root is positive iff its first nonzero coordinate is positive.
Weights carry doubled coordinates so rho stays integral in type B.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd
from operator import add, itemgetter, mul, sub
from typing import Sequence

from .errors import ExactDomainError, SingularPointError
from .exactnum import ONE, GaussianRational, RationalLike, _num_den
from .laurent import Laurent
from .value import Value

Root = tuple[int, ...]  # true (undoubled) coordinates; roots are integral
# verify kostant's largest --max-rank: _alternant_images lists W for the Weyl
# numerator, one term per element.  One B7 numerator (|W(B_7)| = 645,120)
# took 1.5 s and 174 MB peak RSS in a fresh process on a 2-vCPU x86-64 host;
# W(B_8) has 16 times as many elements.
MAX_WEYL_RANK = 7


class RootDatum(Value):
    __slots__ = ("kind", "rank")  # kind "B" or "D"

    def __init__(self, kind: str, rank: int):
        if kind not in ("B", "D"):
            raise ExactDomainError(f"unknown kind {kind!r}")
        if rank < 1:
            raise ExactDomainError("rank must be >= 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)

    def positive_roots(self) -> tuple[Root, ...]:
        return _positive_roots(self.kind, self.rank)


@lru_cache(maxsize=None)
def _positive_roots(kind: str, m: int) -> tuple[Root, ...]:
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            for sj in (-1, 1):
                v = [0] * m
                v[i], v[j] = 1, sj
                out.append(tuple(v))
    if kind == "B":
        for i in range(m):
            v = [0] * m
            v[i] = 1
            out.append(tuple(v))
    return tuple(out)


class Weight(Value):
    """Weight with doubled integer coordinates (true coordinates in (1/2)Z)."""

    __slots__ = ("doubled",)

    def __init__(self, doubled: tuple[int, ...]):
        object.__setattr__(self, "doubled", doubled)

    @classmethod
    def from_ints(cls, coords: Sequence[int]) -> "Weight":
        return cls(tuple(2 * c for c in coords))

    @property
    def rank(self) -> int:
        return len(self.doubled)

    @property
    def is_integral(self) -> bool:
        return all(c % 2 == 0 for c in self.doubled)

    def _same_rank(self, other: Sequence) -> None:
        if len(other) != self.rank:
            raise ExactDomainError(f"rank {self.rank} weight against a vector of length {len(other)}")

    def __add__(self, other: "Weight") -> "Weight":
        self._same_rank(other.doubled)
        return Weight(tuple(map(add, self.doubled, other.doubled)))

    def pairing_doubled(self, covector: Sequence[int]) -> int:
        """2 <self, covector> for an integral coweight given in e_i^v
        coordinates; enough for sign tests, avoids Fractions."""
        self._same_rank(covector)
        return sum(map(mul, self.doubled, covector))


@lru_cache(maxsize=None)
def rho(datum: RootDatum) -> Weight:
    m = datum.rank
    if datum.kind == "B":
        return Weight(tuple(2 * (m - i) + 1 for i in range(1, m + 1)))
    return Weight(tuple(2 * (m - i) for i in range(1, m + 1)))


class WeylElement(Value):
    """Signed permutation: e_j maps to signs[j] * e_{perm[j]} (0-based).

    `_pull` is the pull-back ((sign, source index), ...): coordinate k of w v
    is sign * v[source].  It is derived from the two fields, so it stays out
    of ``==``, ``hash`` and the repr."""

    __slots__ = ("signs", "perm", "_pull")

    def __init__(self, signs: tuple[int, ...], perm: tuple[int, ...]):
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "perm", perm)
        pull = [None] * len(perm)
        for j, k in enumerate(perm):
            pull[k] = (signs[j], j)
        object.__setattr__(self, "_pull", tuple(pull))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.signs, self.perm) == (other.signs, other.perm)
        return NotImplemented

    def __hash__(self):
        return hash((self.signs, self.perm))

    def __repr__(self):
        return f"WeylElement(signs={self.signs!r}, perm={self.perm!r})"

    @property
    def rank(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, m: int) -> "WeylElement":
        return cls((1,) * m, tuple(range(m)))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition self o other (apply other first)."""
        perm = tuple(self.perm[other.perm[j]] for j in range(self.rank))
        signs = tuple(other.signs[j] * self.signs[other.perm[j]] for j in range(self.rank))
        return WeylElement(signs, perm)

    def act_tuple(self, v: Sequence) -> tuple:
        return tuple([s * v[j] for s, j in self._pull])


# --- torus points and character evaluation ----------------------------------

SPLIT, COMPACT, PAIR_FIRST, PAIR_SECOND = ("split", "compact", "pair_first", "pair_second")


class TorusPoint(Value):
    """Exact torus point: split coordinates are nonzero rationals, compact ones
    Gaussian rationals on the unit circle; a conjugate pair of coordinates
    (pattern pair_first/pair_second) realizes a Res_{C/R} Gm factor."""

    __slots__ = ("coords", "pattern")

    def __init__(self, coords: tuple[GaussianRational, ...], pattern: tuple[str, ...]):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "pattern", pattern)
        if len(self.coords) != len(self.pattern):
            raise ExactDomainError("coords/pattern length mismatch")
        for z, kind in zip(self.coords, self.pattern):
            if z.is_zero():
                raise ExactDomainError("zero torus coordinate")
            if kind == SPLIT and not z.is_real():
                raise ExactDomainError("split coordinate must be rational")
            if kind == COMPACT and z.re_n * z.re_n + z.im_n * z.im_n != z.den * z.den:
                raise ExactDomainError("compact coordinate must have norm 1")
        for i, kind in enumerate(self.pattern):
            if kind == PAIR_FIRST:
                if i + 1 >= len(self.coords) or self.pattern[i + 1] != PAIR_SECOND:
                    raise ExactDomainError("dangling pair coordinate")
                if self.coords[i + 1] != self.coords[i].conjugate():
                    raise ExactDomainError("pair coordinates must be conjugate")


def circle_point(t: RationalLike) -> GaussianRational:
    """Rational tangent-half-angle point ((1-t^2) + 2t i)/(1+t^2) on the unit
    circle; at t = p/q it is ((q^2-p^2) + 2pq i)/(q^2+p^2), in ints."""
    p, q = _num_den(t)
    return GaussianRational._raw(q * q - p * p, 2 * p * q, q * q + p * p)


@lru_cache(maxsize=None)
def _permutation_signs(m: int) -> tuple:
    """(sign of p, p) for every permutation p of range(m)."""
    return tuple(
        (-1 if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else 1, p)
        for p in itertools.permutations(range(m))
    )


@lru_cache(maxsize=None)
def _sign_patterns(kind: str, m: int) -> tuple:
    """Over the sign patterns s in {1, -1}^m, in the order of
    itertools.product: whether W has the sign change s (on D, an even
    number of -1), and prod s for those it has, and its negative."""
    flips = [s.count(-1) for s in itertools.product((1, -1), repeat=m)]
    keep = tuple(kind == "B" or n % 2 == 0 for n in flips)
    dets = tuple(-1 if n % 2 else 1 for n, k in zip(flips, keep) if k)
    return keep, dets, tuple(-d for d in dets)


def _alternant_images(kind: str, mu: tuple[int, ...]) -> list:
    """(eps(w), w mu) for every w in W, mu doubled, without listing W: the
    terms of Weyl's determinant det[x_i^mu_j - x_i^-mu_j] on B, and on D of
    (det[x_i^mu_j + x_i^-mu_j] + det[x_i^mu_j - x_i^-mu_j]) / 2
    (Fulton-Harris, Lecture 24), by Leibniz's formula.  Per permutation p,
    prod_i (x_i^mu_p(i) -+ x_i^-mu_p(i)) expands over the sign patterns s,
    with eps(w) = det w = sign(p) prod s; on D the half sum keeps the
    patterns with an even number of flips, a flip of a zero coordinate
    included, which is an element of W of its own with the same image."""
    keep, dets, negated = _sign_patterns(kind, len(mu))
    out = []
    for sign, p in _permutation_signs(len(mu)):
        images = itertools.product(*[(mu[j], -mu[j]) for j in p])
        out += zip(dets if sign > 0 else negated, itertools.compress(images, keep))
    return out


def _shifted(datum: RootDatum, lam: Weight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lam + rho, rho), doubled, for a dominant integral lam."""
    if not lam.is_integral:
        raise ExactDomainError("character needs an integral weight")
    if not is_dominant(datum, lam):
        raise ExactDomainError("character needs a dominant weight")
    r = rho(datum).doubled
    return tuple(map(add, lam.doubled, r)), r


class TermPlan(Value):
    """Sums of integer-coefficient monomials prod_j z_j^{e_j}, one per root,
    stored as a trie over the coordinates that vary.

    Level k of the trie holds the distinct sub-polynomials in the k-th
    varying coordinate and those after it, each a tuple of edges
    (e - lo, s, child): the exponent of its own coordinate, less the lowest,
    an integer scalar and the index of a node of level k + 1 (the last level
    has edges (e - lo, s)).  A node is normalized before it is stored, its
    scalars coprime with the first one positive, so a sub-polynomial that
    recurs up to sign and scale is stored, and evaluated, once.  A root is
    (scalar, index of a level-0 node); (0, None) for a sum that is empty or
    cancels, and (scalar, None) when no coordinate varies.  shift holds the
    lowest exponent of every coordinate over all roots, columns the
    (coordinate, lowest, highest exponent) of the varying ones.
    _alternant_plan builds every plan, without a list of terms."""

    __slots__ = ("shift", "columns", "levels", "roots")

    def __init__(self, shift: tuple, columns: tuple, levels: tuple, roots: tuple):
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "roots", roots)


def _intern(table: dict, edges: list) -> tuple:
    """(g, index): the node of the edges, their scalars nonzero, is g times
    the node at index in table, stored there normalized, its scalars coprime
    with the first one positive; (0, None) for no edges."""
    if not edges:
        return 0, None
    g = gcd(*[edge[1] for edge in edges])
    if edges[0][1] < 0:
        g = -g
    key = tuple(edges) if g == 1 else tuple((f, s // g, *rest) for f, s, *rest in edges)
    return g, table.setdefault(key, len(table))


def _alternant_plan(kind: str, groups: Sequence[dict], r: tuple[int, ...]) -> TermPlan:
    """The plan with one root per group.  A group {(fixed, mu, odd): c} is
    the sum over its entries of c x^((v - r) / 2), all doubled, over the
    images v that take the fixed values on the leading coordinates and the
    terms (det w, w mu) of Weyl's determinant on the remaining ones,
    det[x_i^mu_j - x_i^-mu_j] on B and on D (det[x_i^mu_j + x_i^-mu_j] +-
    det[x_i^mu_j - x_i^-mu_j]) / 2, the w with an even number of flips, or
    an odd one if odd (Fulton-Harris, Lecture 24).

    Built level by level by Laplace expansion along the coordinates in
    order, without listing W or the terms: a fixed coordinate is one edge;
    otherwise coordinate k takes the n-th unused mu_j with a sign s, and
    the coefficient gains (-1)^n s; on D the last coordinate's s is the
    parity of the flips before it, also when mu_j is 0.  After coordinate
    k, what is left of the roots are combinations of states (fixed values
    left, unused mu_j, odd flips so far; on B the flips are not counted),
    each the sum over the ways to place them on coordinates k..; the
    sub-polynomial of each combination is found once up to scale and
    interned, so a sub-polynomial that recurs, in one group or in several,
    is stored once.  A column spans the values its coordinate takes in
    the terms, whether they cancel or not: the fixed values, +-max |mu_j|,
    and on D a last coordinate's mu_j with the sign of the entry's odd; a
    coordinate with one exponent adds no level."""
    m, parity = len(r), kind == "D"
    cols = []
    for k, rk in enumerate(r):
        values = set()
        for fixed, mu, odd in (state for group in groups for state in group):
            if k < len(fixed):
                values.add(fixed[k])
            elif parity and len(mu) == 1:
                values.add(-mu[0] if odd else mu[0])
            else:
                top = max(map(abs, mu))
                values.update((top, -top))
        cols.append(((min(values) - rk) // 2, (max(values) - rk) // 2))
    last = max((k for k, (lo, hi) in enumerate(cols) if lo != hi), default=-1)
    tables: list[dict] = [{} for _ in range(m)]
    found: list[dict] = [{} for _ in range(m)]

    def expand(k: int, combo) -> dict:
        """{exponent - lo: {state: coefficient}}: the expansion of the
        (state, coefficient) pairs of combo at coordinate k."""
        lo = cols[k][0]
        parts: dict = {}
        for (fixed, mu, odd), c in combo:
            if fixed:
                child = parts.setdefault((fixed[0] - r[k]) // 2 - lo, {})
                state = (fixed[1:], mu, odd)
                child[state] = child.get(state, 0) + c
                continue
            for n, v in enumerate(mu):
                rest = mu[:n] + mu[n + 1 :]
                for s in ((-1 if odd else 1,) if parity and not rest else (1, -1)):
                    child = parts.setdefault((s * v - r[k]) // 2 - lo, {})
                    state = ((), rest, parity and odd ^ (s < 0))
                    child[state] = child.get(state, 0) + (-c * s if n % 2 else c * s)
        return parts

    def node(k: int, combo: dict) -> tuple:
        """(g, index): combo's sub-polynomial over coordinates k.. is g
        times the node at index in the level of the first of them that
        varies, or the constant g (index None) if none does; (0, None) if
        it cancels."""
        combo = sorted((state, c) for state, c in combo.items() if c)
        if not combo:
            return 0, None
        if k == m:
            return sum(c for _, c in combo), None
        g = gcd(*[c for _, c in combo])
        if combo[0][1] < 0:
            g = -g
        key = tuple((state, c // g) for state, c in combo)
        if key not in found[k]:
            parts = sorted(expand(k, key).items())
            if cols[k][0] == cols[k][1]:
                found[k][key] = node(k + 1, parts[0][1])
            else:
                edges = [(f, *node(k + 1, child)) for f, child in parts]
                edges = [edge[:2] if k == last else edge for edge in edges if edge[1]]
                found[k][key] = _intern(tables[k], edges)
        h, index = found[k][key]
        return g * h, index

    roots = tuple(node(0, group) for group in groups)
    columns = tuple((k, lo, hi) for k, (lo, hi) in enumerate(cols) if lo != hi)
    levels = tuple(tuple(tables[k]) for k, _, _ in columns)
    return TermPlan(tuple(lo for lo, _ in cols), columns, levels, roots)


def alternant_head_groups(datum: RootDatum, lam: Weight) -> tuple[tuple, tuple]:
    """The heads (chi_1, chi_2), the distinct first two coordinates of
    w(lam+rho), doubled, and for each head the _alternant_plan group of the
    terms (eps(w), w(lam+rho)-rho) with that head: the first two steps of
    the Laplace expansion of Weyl's determinant fix the head, and its group
    holds what they leave, (head, unused mu_j, odd flips) with the sign of
    the steps.  The rank is at least 3."""
    if datum.rank < 3:
        raise ExactDomainError("an alternant plan by heads needs rank >= 3")
    mu, _ = _shifted(datum, lam)
    groups: dict = {}
    for (n1, v1), (n2, v2) in itertools.permutations(enumerate(mu), 2):
        rest = tuple(v for n, v in enumerate(mu) if n not in (n1, n2))
        sign = -1 if (n1 + n2 - (n2 > n1)) % 2 else 1  # mu_n2 is the (n2 - (n2 > n1))-th unused
        for s1, s2 in itertools.product((1, -1), repeat=2):
            head = (s1 * v1, s2 * v2)
            group = groups.setdefault(head, {})
            state = (head, rest, datum.kind == "D" and s1 != s2)
            group[state] = group.get(state, 0) + sign * s1 * s2
    return tuple(groups), tuple(groups.values())


def evaluate_plan(plan: TermPlan, coords: Sequence[GaussianRational], weights: Sequence[int] = (1,)) -> GaussianRational:
    """sum over the roots of weight * root at the point with these
    coordinates, without a gcd per operation.  Per coordinate z_j = n_j / d_j
    with n_j = a_j + i b_j a Gaussian integer.  For a varying coordinate
    with H_j = hi_j - lo_j, z_j^(e - lo_j) is the Gaussian integer
    n_j^(e - lo_j) d_j^(hi_j - e) over d_j^H_j.  The levels fold from the
    last coordinate to the first, one Gaussian-integer multiply-add per
    edge, over the shared denominator prod_j d_j^H_j.  The shift
    prod_j z_j^lo_j over every coordinate joins the fold as n_j^lo_j over
    d_j^lo_j, or for lo_j < 0 as (d_j conj n_j)^|lo_j| over
    (a_j^2 + b_j^2)^|lo_j|, and the sum is reduced once.  Only the nodes
    that a root of nonzero weight reaches are folded: they are collected
    level by level from those roots first, so a plan whose roots serve
    several sums costs, per call, only the part its weights use."""
    # reached[k]: the nodes of level k that the fold needs
    reached = [{index for w, (s, index) in zip(weights, plan.roots, strict=True) if w and s and index is not None}]
    for nodes in plan.levels[:-1]:
        live = set()
        for i in reached[-1]:
            live.update(map(itemgetter(2), nodes[i]))
        reached.append(live)
    sx, sy, den = 1, 0, 1  # the shift is (sx + i sy) / den; the fold's denominators join den
    for z, lo in zip(coords, plan.shift):
        if lo:
            a, b, d = z.re_n, z.im_n, z.den
            if lo < 0:
                a, b, d = d * a, -d * b, a * a + b * b
            for _ in range(abs(lo)):
                sx, sy = sx * a - sy * b, sx * b + sy * a
            den *= d ** abs(lo)
    vals = None
    for (j, lo, hi), nodes, live in zip(reversed(plan.columns), reversed(plan.levels), reversed(reached)):
        z = coords[j]
        a, b, d = z.re_n, z.im_n, z.den
        den *= d ** (hi - lo)
        row, x, y = [], 1, 0  # x + iy = n_j^(e - lo)
        for e in range(lo, hi + 1):
            row.append((x * d ** (hi - e), y * d ** (hi - e)))
            x, y = x * a - y * b, x * b + y * a
        out = {}
        for i in live:
            edges = nodes[i]
            re = im = 0
            if vals is None:
                for f, s in edges:
                    x, y = row[f]
                    re += s * x
                    im += s * y
            else:
                for f, s, child in edges:
                    x, y = row[f]
                    u, v = vals[child]
                    re += s * (x * u - y * v)
                    im += s * (x * v + y * u)
            out[i] = (re, im)
        vals = out
    re_sum = im_sum = 0
    for w, (s, index) in zip(weights, plan.roots, strict=True):
        if w and s:
            u, v = (1, 0) if index is None else vals[index]
            re_sum += w * s * u
            im_sum += w * s * v
    return GaussianRational._raw(re_sum * sx - im_sum * sy, re_sum * sy + im_sum * sx, den)


def root_value(coords: Sequence[GaussianRational], alpha: Sequence[int]) -> GaussianRational:
    """alpha(gamma) = prod_j z_j^{alpha_j} at the point with these
    coordinates; alpha is a root or its negative."""
    v = ONE
    for z, c in zip(coords, alpha):
        if c:
            v = v * z**c
    return v


def weyl_denominator(roots: Sequence[Root], coords: Sequence[GaussianRational]) -> GaussianRational:
    """prod_{a in roots} (1 - a^-1) at the point with these coordinates:
    Delta over the positive roots of a datum, Delta_M over those of a Levi.
    It is 0 on a root wall."""
    delta = ONE
    for alpha in roots:
        delta = delta * (ONE - root_value(coords, [-c for c in alpha]))
    return delta


def weyl_character(datum: RootDatum, lam: Weight, gamma: TorusPoint) -> GaussianRational:
    """Exact Weyl character value at a regular point:
    Delta(gamma)^{-1} sum_w eps(w) gamma^{w(lam+rho)-rho}; raises
    SingularPointError on a root wall.  This is the reference composition of
    the one-root alternant plan, weyl_denominator and evaluate_plan: only the
    tests and the benchmark's check call it, and only it calls
    weyl_denominator and root_value.  The archimedean evaluators share no
    part of it but _alternant_plan and evaluate_plan."""
    mu, r = _shifted(datum, lam)
    delta = weyl_denominator(datum.positive_roots(), gamma.coords)
    if delta.is_zero():
        raise SingularPointError("torus point lies on a root wall")
    return evaluate_plan(_alternant_plan(datum.kind, ({((), mu, False): 1},), r), gamma.coords) / delta


def is_dominant(datum: RootDatum, lam: Weight) -> bool:
    """Whether lam is dominant for datum; a weight of another rank is an
    ExactDomainError, never read on the coordinates the two share."""
    if lam.rank != datum.rank:
        raise ExactDomainError(f"rank {lam.rank} weight on a rank {datum.rank} root datum")
    return _dominant_coords(datum.kind, lam.doubled)


def _dominant_coords(kind: str, c: Sequence[int]) -> bool:
    """Whether the (doubled) coordinates c, len(c) >= 1, are dominant for
    the root datum of type kind and rank len(c)."""
    for i in range(len(c) - 1):
        if c[i] < c[i + 1]:
            return False
    if kind == "B":
        return c[-1] >= 0
    if len(c) >= 2:
        return c[-2] + c[-1] >= 0
    return True


# --- Levi patterns and Kostant's theorem -------------------------------------


class LeviBlocks(Value):
    """A standard Levi: GL blocks on leading coordinate intervals, then an SO tail.

    gl_blocks lists tuples of 0-based coordinate indices (each block a GL_k);
    the SO factor acts on coordinates so_start..m-1 with the ambient kind.
    """

    __slots__ = ("gl_blocks", "so_start")

    def __init__(self, gl_blocks: tuple[tuple[int, ...], ...], so_start: int):
        object.__setattr__(self, "gl_blocks", gl_blocks)
        object.__setattr__(self, "so_start", so_start)

    def validate(self, m: int):
        seen = []
        for b in self.gl_blocks:
            seen.extend(b)
        if seen != list(range(self.so_start)):
            raise ExactDomainError("GL blocks must tile the leading coordinates")
        if self.so_start > m:
            raise ExactDomainError("Levi does not fit the rank")


_STANDARD_LEVIS = {
    "G": LeviBlocks((), 0),  # the whole group as a Levi of itself
    "M1": LeviBlocks(((0, 1),), 2),  # GL_2 x SO(rank m-2)
    "M2": LeviBlocks(((0,),), 1),  # GL_1 x SO(rank m-1)
    "M12": LeviBlocks(((0,), (1,)), 2),  # GL_1 x GL_1 x SO(rank m-2)
}


def standard_levi(label: str, m: int) -> LeviBlocks:
    """The Levi of the label; its blocks are the same at every rank m."""
    if label not in _STANDARD_LEVIS:
        raise ExactDomainError(f"unknown Levi {label!r}")
    return _STANDARD_LEVIS[label]


def levi_positive_roots(datum: RootDatum, levi: LeviBlocks) -> tuple[Root, ...]:
    levi.validate(datum.rank)
    m = datum.rank
    out = []
    for block in levi.gl_blocks:
        for i in block:
            for j in block:
                if i < j:
                    v = [0] * m
                    v[i], v[j] = 1, -1
                    out.append(tuple(v))
    for a in _positive_roots(datum.kind, m - levi.so_start):
        v = [0] * levi.so_start + list(a)
        out.append(tuple(v))
    return tuple(out)


@lru_cache(maxsize=None)
def _kostant_table(datum: RootDatum, levi: LeviBlocks) -> list[tuple[int, WeylElement]]:
    """(l(w), w) for the minimal-length coset representatives W^M, by length:
    the w with w rho dominant for M, enumerated without listing W.  The GL
    coordinates take signed values of rho, strictly decreasing within each
    block; the SO tail takes the remaining |rho| values in decreasing order,
    all positive, except that on D the parity of the flips fixes the sign of
    the last tail coordinate, whatever its value.  w rho is regular, so
    l(w) = #{a > 0 : <a, w rho> < 0}, counted over the roots e_i -+ e_j
    (i < j), and e_i on B.

    The table is cached and shared: callers must not mutate it."""
    levi.validate(datum.rank)
    m, k = datum.rank, levi.so_start
    r = rho(datum).doubled
    out = []
    for head in itertools.permutations(range(m), k):
        tail = tuple(j for j in range(m) if j not in head)
        for signs in itertools.product((1, -1), repeat=k):
            odd = datum.kind == "D" and signs.count(-1) % 2
            if odd and not tail:
                continue
            v = [s * r[j] for s, j in zip(signs, head)] + [r[j] for j in tail]
            if any(v[i] <= v[j] for block in levi.gl_blocks for i, j in zip(block, block[1:])):
                continue
            image_signs = list(signs) + [1] * len(tail)
            if odd:
                v[-1], image_signs[-1] = -v[-1], -1
            w_signs, perm = [0] * m, [0] * m
            for i, j in enumerate(head + tail):
                w_signs[j], perm[j] = image_signs[i], i
            deg = sum((a < b) + (a < -b) for a, b in itertools.combinations(v, 2))
            if datum.kind == "B":
                deg += sum(c < 0 for c in v)
            out.append((deg, WeylElement(tuple(w_signs), tuple(perm))))
    return sorted(out, key=lambda t: t[0])


def levi_is_dominant(datum: RootDatum, levi: LeviBlocks, mu: Weight) -> bool:
    c = mu.doubled
    for block in levi.gl_blocks:
        for i, j in zip(block, block[1:]):
            if c[i] < c[j]:
                return False
    tail = c[levi.so_start:]
    return not tail or _dominant_coords(datum.kind, tail)


def kostant_cohomology(datum: RootDatum, levi: LeviBlocks, lam: Weight) -> list[tuple[int, Weight]]:
    """Entries (degree l(w), weight w(lam+rho)-rho), one per coset representative.

    Kostant's theorem: degree-k Lie-algebra cohomology of the nilradical on the
    irreducible of highest weight lam is the sum of the Levi irreducibles with
    these highest weights in degree k.
    """
    if not lam.is_integral or not is_dominant(datum, lam):
        raise ExactDomainError("need a dominant integral highest weight")
    r = rho(datum).doubled
    shifted = tuple(map(add, lam.doubled, r))
    entries = []
    for deg, w in _kostant_table(datum, levi):
        mu = Weight(tuple(map(sub, w.act_tuple(shifted), r)))
        if not levi_is_dominant(datum, levi, mu):
            raise ExactDomainError("Kostant weight failed Levi dominance")
        entries.append((deg, mu))
    return entries


def pi1_covector(m: int) -> tuple[int, ...]:
    """e_1^v + e_2^v."""
    return (1, 1) + (0,) * (m - 2)


def pi2_covector(m: int) -> tuple[int, ...]:
    """2 e_1^v."""
    return (2,) + (0,) * (m - 1)


def passes_truncation(datum: RootDatum, mu: Weight, covector: Sequence[int]) -> bool:
    """The weight truncation <mu, pi> > -<rho, pi> at the covector pi, the
    one filter of the truncated Kostant trace, compared doubled, as ints."""
    return mu.pairing_doubled(covector) > -rho(datum).pairing_doubled(covector)


# --- Weyl numerators, characters and the Kostant identity --------------------


@lru_cache(maxsize=1024)
def _weyl_numerator_cached(kind: str, m: int, doubled: tuple[int, ...]) -> Laurent:
    shifted = tuple(map(add, doubled, rho(RootDatum(kind, m)).doubled))
    return Laurent(m, {image: c for c, image in _alternant_images(kind, shifted)})


def weyl_numerator(datum: RootDatum, lam: Weight) -> Laurent:
    """sum_w eps(w) e^{w(lam+rho)} as a Laurent polynomial (doubled exponents)."""
    return _weyl_numerator_cached(datum.kind, datum.rank, lam.doubled)


def _doubled(roots: Sequence[Root]) -> list[tuple[int, ...]]:
    return [tuple(2 * c for c in a) for a in roots]


def _height(kind: str, x: Sequence[int]) -> int | None:
    """sum_i c_i when x = sum_i c_i a_i over the simple roots with every c_i
    a non-negative integer, else None; x in true (integral) coordinates.  On
    B, c_k is x_1 + ... + x_k; on D, a_{m-1} = e_{m-1} - e_m and
    a_m = e_{m-1} + e_m share the last two coordinates, which take
    (S_{m-1} - x_m) / 2 and S_m / 2, S_k = x_1 + ... + x_k; D_1 has no root."""
    c = list(itertools.accumulate(x))
    if kind == "D":
        if len(c) == 1:
            return None if c[0] else 0
        if c[-1] % 2:
            return None
        c[-2:] = [(c[-2] - x[-1]) // 2, c[-1] // 2]
    return sum(c) if min(c) >= 0 else None


def _weight_multiplicities(kind: str, lam: tuple[int, ...], r: tuple[int, ...]) -> dict:
    """{mu: multiplicity} over the weights of the irreducible of highest
    weight lam, all doubled, r the doubled rho, by Freudenthal's formula
    (Humphreys, Introduction to Lie Algebras, 22.3):
        m(mu) (|lam+r|^2 - |mu+r|^2) = 2 sum_{a>0} sum_{k>=1} m(mu+ka) (mu+ka, a)
    at each dominant mu, whose multiplicity its W-orbit shares.  The dominant
    weights are the dominant mu <= lam, each coordinate |mu_i| <= max |lam_i|
    of the parity of lam's, taken by increasing height of lam - mu: every
    mu + ka is W-conjugate to a dominant weight above mu, of smaller height,
    so its multiplicity is known.  The weights on an a-string form an
    unbroken interval, so each inner sum stops at the first mu + ka that is
    not a weight.  A division that leaves a remainder is an ExactDomainError."""
    top = max(map(abs, lam))
    heights = {}
    for mu in itertools.combinations_with_replacement(range(top, -1, -2), len(lam)):
        for mu in {mu, mu[:-1] + (-mu[-1],)} if kind == "D" else (mu,):
            h = _height(kind, [(a - b) // 2 for a, b in zip(lam, mu)])
            if h is not None:
                heights[mu] = h
    roots = _doubled(_positive_roots(kind, len(lam)))
    shifted = tuple(map(add, lam, r))
    top_norm = sum(map(mul, shifted, shifted))
    mult = {image: 1 for _, image in _alternant_images(kind, lam)}
    for mu in sorted(heights, key=heights.get)[1:]:  # lam, of height 0, first
        total = 0
        for a in roots:
            nu = tuple(map(add, mu, a))
            while n := mult.get(nu):
                total += n * sum(map(mul, nu, a))
                nu = tuple(map(add, nu, a))
        shifted = tuple(map(add, mu, r))
        gap = top_norm - sum(map(mul, shifted, shifted))
        if gap <= 0 or 2 * total % gap:
            raise ExactDomainError(f"Freudenthal's formula leaves no integral multiplicity at {mu}")
        for _, image in _alternant_images(kind, mu):
            mult[image] = 2 * total // gap
    return mult


def formal_character(datum: RootDatum, lam: Weight) -> Laurent:
    """ch(lam) as an exact Laurent polynomial (doubled exponents), by
    Freudenthal's formula; `verify characters` checks it against Weyl's."""
    if not is_dominant(datum, lam):
        raise ExactDomainError("need a dominant weight")
    return Laurent(datum.rank, _weight_multiplicities(datum.kind, lam.doubled, rho(datum).doubled))


@lru_cache(maxsize=1024)
def _gl_alternant(v: tuple[int, ...]) -> Laurent:
    """sum_{s in S_k} sgn(s) e^{s v}, v doubled and strictly decreasing: the
    GL_k character of highest weight v - rho_k times its Weyl denominator
    e^{rho_k} prod_{i<j} (1 - e^{-(e_i - e_j)}), by Weyl's formula.  A v
    that is not strictly decreasing is an ExactDomainError: its alternant
    is 0 or that of another v, up to sign.

    The result is cached and shared: callers must not mutate it."""
    if any(a <= b for a, b in zip(v, v[1:])):
        raise ExactDomainError(f"{v} is not strictly decreasing: a GL weight that is not dominant")
    return Laurent(len(v), {tuple([v[i] for i in p]): sign for sign, p in _permutation_signs(len(v))})


@lru_cache(maxsize=None)
def _levi_blocks(datum: RootDatum, levi: LeviBlocks) -> tuple[tuple, ...]:
    """(offset, size, rho restricted to the block), doubled, per block of the
    Levi: its GL blocks, then its SO tail if any.  On a GL_k block the
    restriction is rho_k plus a multiple of (1, ..., 1), which S_k fixes; on
    the tail it is the tail's own rho.

    The table is cached and shared: callers must not mutate it."""
    levi.validate(datum.rank)
    m, start, r = datum.rank, levi.so_start, rho(datum).doubled
    blocks = [(b[0], len(b)) for b in levi.gl_blocks] + ([(start, m - start)] if start < m else [])
    return tuple((offset, size, r[offset : offset + size]) for offset, size in blocks)


def kostant_euler_identity(datum: RootDatum, levi: LeviBlocks, lam: Weight) -> bool:
    """Exact Laurent identity verifying Kostant's theorem without differentials.

    Kostant's theorem gives
        sum_k (-1)^k ch H^k(n, V_lam) = ch(lam) * K,   K = prod_{a in Phi+ \\ Phi_M+} (1 - e^{-a}),
    a sum over the coset representatives w in W^M, one per coset W_M w (the w
    with w rho dominant for M), of (-1)^l(w) = eps(w) times the Levi character
    of w(lam+rho) - rho.  With D_M = e^rho prod_{a in Phi_M+} (1 - e^{-a}),
    D_M K is Weyl's denominator and ch(lam) D_M K = A_{lam+rho}, the Weyl
    numerator.  D_M is the product of the block denominators D_b, and by
    Weyl's formula for each block, the Levi character times D_M is the
    product of the blocks' alternants of (w(lam+rho))|b: on a GL_k block
    sum_{s in S_k} sgn(s) e^{s v}, on the SO tail its Weyl numerator (rho
    restricted to the tail is the tail's rho).  So the identity checked is
        sum_{w in W^M} eps(w) prod_b A^b_{(w(lam+rho))|b} = A_{lam+rho},
    the coset factorization W = W_M W^M with eps multiplicative: the product
    of the block alternants is the sum over W_M = prod_b W_b of
    eps(w_M) e^{w_M w(lam+rho)}.  No character and no nilradical factor is
    formed.  Each block alternant is formed once per key and cached, and the
    entries' products are folded into one accumulator by
    Laurent.sum_of_block_products.

    Each entry's weight must be integral, of the datum's rank and dominant
    for each GL block (its shifted block strictly decreasing), and its SO
    tail dominant, checked once per distinct tail in every call: a weight
    that fails is an ExactDomainError.
    """
    entries = kostant_cohomology(datum, levi, lam)
    kind, m, start = datum.kind, datum.rank, levi.so_start
    blocks = _levi_blocks(datum, levi)
    gl = blocks[: len(levi.gl_blocks)]
    tails: dict = {}

    def factors():
        for deg, mu in entries:
            d = mu.doubled
            if len(d) != m or any(x & 1 for x in d):
                raise ExactDomainError(f"{mu} is not an integral weight of rank {m}")
            chars = [_gl_alternant(tuple(map(add, d[o : o + n], shift))) for o, n, shift in gl]
            if start < m:
                tail = d[start:]
                if tail not in tails:
                    if not _dominant_coords(kind, tail):
                        raise ExactDomainError(f"{mu} is not dominant on the SO tail")
                    tails[tail] = _weyl_numerator_cached(kind, m - start, tail)
                chars.append(tails[tail])
            yield -1 if deg & 1 else 1, chars

    left = Laurent.sum_of_block_products(m, [(o, n) for o, n, _ in blocks], factors())
    return left == weyl_numerator(datum, lam)
