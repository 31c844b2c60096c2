"""Standard type B/D root data, signed-permutation Weyl groups, Weyl characters,
Kostant cohomology entries and the weight truncations.

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
from typing import Iterator, Sequence

from .errors import ExactDomainError, ResourceLimitError, SingularPointError
from .exactnum import ONE, GaussianRational, RationalLike, _num_den
from .laurent import Laurent
from .value import Value

Root = tuple[int, ...]  # true (undoubled) coordinates; roots are integral
MAX_WEYL_RANK = 8  # weyl_enumerate walks W up to this rank; |W(B_8)| = 10,321,920


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

    def __sub__(self, other: "Weight") -> "Weight":
        self._same_rank(other.doubled)
        return Weight(tuple(map(sub, self.doubled, other.doubled)))

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

    def act(self, w: Weight) -> Weight:
        return Weight(self.act_tuple(w.doubled))


def weyl_enumerate(datum: RootDatum) -> Iterator[WeylElement]:
    """All elements of the Weyl group, one at a time, so that memory does not
    grow with |W|: {+-1}^m x S_m for B, even sign count for D.  A rank above
    MAX_WEYL_RANK is refused at the call, before any element is made."""
    m = datum.rank
    if m > MAX_WEYL_RANK:
        raise ResourceLimitError(f"rank > {MAX_WEYL_RANK} enumeration refused")
    kind = datum.kind
    return (
        WeylElement(signs, perm)
        for perm in itertools.permutations(range(m))
        for signs in itertools.product((1, -1), repeat=m)
        if kind == "B" or signs.count(-1) % 2 == 0
    )


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


# --- formal characters (for the Euler-characteristic identity) ---------------


@lru_cache(maxsize=1024)
def _weyl_numerator_cached(kind: str, m: int, doubled: tuple[int, ...]) -> Laurent:
    shifted = tuple(map(add, doubled, rho(RootDatum(kind, m)).doubled))
    return Laurent(m, {image: c for c, image in _alternant_images(kind, shifted)})


def weyl_numerator(datum: RootDatum, lam: Weight) -> Laurent:
    """sum_w eps(w) e^{w(lam+rho)} as a Laurent polynomial (doubled exponents)."""
    return _weyl_numerator_cached(datum.kind, datum.rank, lam.doubled)


def _doubled(roots: Sequence[Root]) -> list[tuple[int, ...]]:
    return [tuple(2 * c for c in a) for a in roots]


@lru_cache(maxsize=1024)
def _formal_character_cached(kind: str, m: int, doubled: tuple[int, ...]) -> Laurent:
    """A_{lam+rho} / (e^rho prod_{a>0} (1 - e^-a)): the Weyl character formula,
    its denominator in product form by Weyl's denominator formula."""
    datum = RootDatum(kind, m)
    return _weyl_numerator_cached(kind, m, doubled).divide_binomials(
        rho(datum).doubled, _doubled(datum.positive_roots())
    )


def formal_character(datum: RootDatum, lam: Weight) -> Laurent:
    """ch(lam) by the Weyl character formula, as an exact Laurent polynomial.

    The result is cached and shared: callers must not mutate it."""
    if not is_dominant(datum, lam):
        raise ExactDomainError("need a dominant weight")
    return _formal_character_cached(datum.kind, datum.rank, lam.doubled)


@lru_cache(maxsize=1024)
def _gl_block_character(block_size: int, mu: tuple[int, ...]) -> Laurent:
    """Schur-type character of GL_k with highest weight mu, k <= 2 here.

    The result is cached and shared: callers must not mutate it."""
    if block_size == 1:
        return Laurent.monomial((2 * mu[0],))
    if block_size == 2:
        a, b = mu
        if a < b:  # the sum below would be silently empty
            raise ExactDomainError("GL_2 weight not dominant")
        # (x^{a+1} y^b - x^b y^{a+1}) / (x - y)
        return Laurent(2, {(2 * (a - i), 2 * (b + i)): 1 for i in range(a - b + 1)})
    raise ExactDomainError("GL blocks of size > 2 not supported")


@lru_cache(maxsize=None)
def _levi_block_denominators(datum: RootDatum, levi: LeviBlocks) -> tuple[tuple, ...]:
    """Per block of the Levi, its GL blocks and then its SO tail if any:
    (offset, size, shift, roots), doubled and restricted to the block's
    coordinates, with D_b = e^shift prod_{a in roots} (1 - e^-a).  Every
    root of levi_positive_roots lies in one block, so D_M = e^rho
    prod_{a in Phi_M+} (1 - e^-a) is the product of the D_b; rho restricted
    to the tail is the tail's own rho, so the tail's D_b is its Weyl
    denominator.

    The table is cached and shared: callers must not mutate it."""
    m, start = datum.rank, levi.so_start
    r, roots = rho(datum).doubled, _doubled(levi_positive_roots(datum, levi))
    blocks = [(b[0], len(b)) for b in levi.gl_blocks] + ([(start, m - start)] if start < m else [])
    out = []
    for offset, size in blocks:
        part = slice(offset, offset + size)
        out.append((offset, size, r[part], tuple(a[part] for a in roots if any(a[part]))))
    return tuple(out)


@lru_cache(maxsize=1024)
def _gl_block_factor(mu: tuple[int, ...], shift: tuple[int, ...], roots: tuple) -> Laurent:
    """The GL block character of mu (true coordinates) times its block
    denominator e^shift prod_{a in roots} (1 - e^-a).

    The result is cached and shared: callers must not mutate it."""
    return _gl_block_character(len(mu), mu).mul_binomials(shift, roots)


@lru_cache(maxsize=1024)
def _tail_block_factor(kind: str, doubled: tuple[int, ...], shift: tuple[int, ...], roots: tuple) -> Laurent:
    """The SO tail character of the doubled weight, by Weyl's formula (its
    division exact), times its block denominator e^shift
    prod_{a in roots} (1 - e^-a).

    The result is cached and shared: callers must not mutate it."""
    return formal_character(RootDatum(kind, len(doubled)), Weight(doubled)).mul_binomials(shift, roots)


def kostant_euler_identity(datum: RootDatum, levi: LeviBlocks, lam: Weight) -> bool:
    """Exact Laurent identity verifying Kostant's theorem without differentials.

    Kostant's theorem gives
        sum_k (-1)^k ch H^k(n, V_lam) = ch(lam) * K,   K = prod_{a in Phi+ \\ Phi_M+} (1 - e^{-a}).
    Let D_M = e^rho prod_{a in Phi_M+} (1 - e^{-a}), the Levi denominator shifted
    by the full rho.  Then D_M * K = A_rho = sum_w eps(w) e^{w rho} (Weyl's
    denominator formula) and ch(lam) * A_rho = A_{lam+rho} = weyl_numerator(lam)
    (Weyl's character formula).  Z[X^{+-1}] is a domain and D_M != 0, so
    multiplying by D_M gives the equivalent identity that is checked here:
        sum_k (-1)^k ch_M(mu_k) * D_M = A_{lam+rho}.
    Neither ch(lam) nor K is ever formed.  ch_M(mu_k) is the product of its
    block characters on disjoint coordinates, and D_M the product of the
    block denominators D_b (_levi_block_denominators), so the left side is
    sum_k (-1)^k prod_b ch_b(mu_k) D_b.  Each block factor ch_b D_b is
    formed once per key and cached, and the entries' products are folded
    into one accumulator by Laurent.sum_of_block_products.

    Each entry's weight must be integral, of the datum's rank and dominant
    for each GL block, and its SO tail dominant, checked once per distinct
    tail in every call: a weight that fails is an ExactDomainError.
    """
    entries = kostant_cohomology(datum, levi, lam)
    kind, m = datum.kind, datum.rank
    denominators = _levi_block_denominators(datum, levi)
    n_gl = len(levi.gl_blocks)
    gl, so = denominators[:n_gl], denominators[n_gl:]
    tails: dict = {}

    def factors():
        for deg, mu in entries:
            d = mu.doubled
            if len(d) != m or any(x & 1 for x in d):
                raise ExactDomainError(f"{mu} is not an integral weight of rank {m}")
            chars = [_gl_block_factor(tuple([x >> 1 for x in d[o : o + n]]), shift, roots) for o, n, shift, roots in gl]
            for o, _, shift, roots in so:
                tail = d[o:]
                if tail not in tails:
                    if not _dominant_coords(kind, tail):
                        raise ExactDomainError(f"{mu} is not dominant on the SO tail")
                    tails[tail] = _tail_block_factor(kind, tail, shift, roots)
                chars.append(tails[tail])
            yield -1 if deg & 1 else 1, chars

    blocks = [(o, n) for o, n, _, _ in denominators]
    return Laurent.sum_of_block_products(m, blocks, factors()) == weyl_numerator(datum, lam)
