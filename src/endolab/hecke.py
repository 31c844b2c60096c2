"""Unramified Hecke algebras as Weyl-invariant polynomials in X_1^(+-1)..X_m^(+-1):
Satake images of minuscule cocharacter functions, Satake-side constant terms,
base-change twisted transfer, and the explicit splitting k(A) + h of the
transferred test function at p.

An element is q^(q2/2) times a polynomial in the X_i^(+-1) with integer
coefficients: every element built here has one q-power shared by all its
terms, kept formal as the doubled exponent q2; specialization q -> p only
happens in reports.

A signed permutation acts on all exponent vectors of an element at once.  The
vectors are held as coordinate columns, and `_act_columns` builds each column
of the image from one column of the source: a column with sign +1 is reused
as it is, one with sign -1 is negated once.  The invariance check, the twisted
transfer (Frobenius norm, reindexing and sign pairing) and the split into the
GL and SO blocks all act this way.

The group theory behind `compute_fH_at_p` repeats across local shapes, so each
piece is derived once per key, in an `lru_cache` of at most `_CACHE_SIZE`
entries:

- the relative Weyl group of an `UnramifiedGroup`, keyed on the group and the
  parity of the degree;
- the minuscule orbit, as a tuple keyed on the relative group and mu;
- the subgroup answer of `RelativeWeylGroup.is_subgroup_of`, keyed on the two
  groups;
- the groups of H, of the Levi M' and of the GL and SO blocks, keyed on the
  few rank, parity and discriminant fields that each builder reads (the
  subset A only through its size, the degree a not at all);
- the per-shape objects of the transfer, each keyed on the ints and flags its
  builder reads: the ambient `UnramifiedGroup` on (kind, m, flips), iota^-1
  on (m, m+, m-, shuffle), the block split on (levi, A, m, m+), the
  `FrobTwist` on (a, group), the H sign vector on (m+, m-), and the doubled
  rho that `satake_minuscule` pairs with mu on (kind, rank).

Only these objects are cached, never a `HeckeElement` or a result of
`compute_fH_at_p`, and no check is skipped: the `LocalDatumAtP`
validation, the minuscule test, the subgroup test in `constant_term` and all
four invariance checks run on every call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from operator import add, mul, not_
from typing import Iterable, Optional, Sequence

from .errors import ExactDomainError
from .levi import admissible_A, excluded_factor, gl_labels
from .rootdata import RootDatum, WeylElement, rho
from .value import Value

# the most entries each cache below keeps
_CACHE_SIZE = 1024


class FrobTwist(Value):
    """Unramified degree and the order-<=2 Frobenius action on the cocharacter lattice."""

    __slots__ = ("a", "sigma")

    def __init__(self, a: int, sigma: WeylElement):
        if a < 1:
            raise ExactDomainError("degree must be >= 1")
        # sigma^2 sends e_j to signs[j] * signs[perm[j]] * e_perm[perm[j]]
        perm, signs = sigma.perm, sigma.signs
        if any(perm[k] != j or signs[k] != s for j, (s, k) in enumerate(zip(signs, perm))):
            raise ExactDomainError("sigma must square to the identity")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma", sigma)


class EndoSignVector(Value):
    """Sign vector s in {+-1}^m pairing cocharacters via <chi, s> = prod s_i^chi_i."""

    __slots__ = ("s",)

    def __init__(self, s: tuple[int, ...]):
        if any(v not in (1, -1) for v in s):
            raise ExactDomainError("entries must be +-1")
        object.__setattr__(self, "s", s)


# the most elements a walk of a relative Weyl group may yield
_WALK_CAP = 50000


class RelativeWeylGroup(Value):
    """A relative Weyl group acting on the exponent lattice, given by generators.

    The group keys the orbit and subgroup caches, so its hash is taken once,
    when it is built; `_hash` derives from the two fields and stays out of
    ``==`` and the repr."""

    __slots__ = ("rank", "gens", "_hash")

    def __init__(self, rank: int, gens: tuple[WeylElement, ...]):
        if any(g.rank != rank for g in gens):
            raise ExactDomainError("generator rank mismatch")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_hash", hash((rank, gens)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rank == other.rank and self.gens == other.gens
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RelativeWeylGroup(rank={self.rank!r}, gens={self.gens!r})"

    def _walk(self):
        """Every element once, breadth-first from the identity."""
        seen = {WeylElement.identity(self.rank)}
        yield from seen
        frontier = list(seen)
        while frontier:
            nxt = []
            for w in frontier:
                for g in self.gens:
                    z = g * w
                    if z not in seen:
                        seen.add(z)
                        if len(seen) > _WALK_CAP:
                            raise ExactDomainError("relative Weyl group too large")
                        yield z
                        nxt.append(z)
            frontier = nxt

    def is_subgroup_of(self, other: "RelativeWeylGroup") -> bool:
        """Walk the other group until every generator of this one has appeared;
        only a False answer walks the whole group.  The answer is cached per
        pair of groups."""
        if self.rank != other.rank:
            return False
        return _is_subgroup(self, other)


@lru_cache(maxsize=_CACHE_SIZE)
def _is_subgroup(small: RelativeWeylGroup, big: RelativeWeylGroup) -> bool:
    missing = set(small.gens)
    for w in big._walk():
        missing.discard(w)
        if not missing:
            return True
    return False


def _flip(m: int, i: int) -> WeylElement:
    signs = [1] * m
    signs[i] = -1
    return WeylElement(tuple(signs), tuple(range(m)))


def _transposition(m: int, i: int, j: int) -> WeylElement:
    perm = list(range(m))
    perm[i], perm[j] = perm[j], perm[i]
    return WeylElement((1,) * m, tuple(perm))


class UnramifiedGroup(Value):
    """An unramified special orthogonal group: type B/D of absolute rank m with
    Frobenius acting by sign flips at the listed coordinates."""

    __slots__ = ("kind", "rank", "flips")  # flips: 0-based coordinates flipped by Frobenius

    def __init__(self, kind: str, rank: int, flips: tuple[int, ...] = ()):
        if kind not in ("B", "D"):
            raise ExactDomainError("kind must be B or D")
        if kind == "B" and flips:
            raise ExactDomainError("odd orthogonal groups here are split")
        if rank < 1:
            raise ExactDomainError("rank must be >= 1")
        if len(flips) > 2 or sorted(set(flips)) != sorted(flips):
            raise ExactDomainError("at most two distinct flip coordinates")
        if any(not 0 <= i < rank for i in flips):
            raise ExactDomainError("flip coordinates must lie in 0..rank-1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "flips", flips)

    def sigma(self) -> WeylElement:
        m = self.rank
        signs = [1] * m
        for i in self.flips:
            signs[i] = -1
        return WeylElement(tuple(signs), tuple(range(m)))

    def relative_group(self, degree: int = 1) -> RelativeWeylGroup:
        """Relative Weyl group over the degree-a unramified extension: the full
        group when Frobenius^a acts trivially, else its centralizer."""
        if degree < 1:
            raise ExactDomainError("degree must be >= 1")
        return _relative_group(self, degree % 2)


@lru_cache(maxsize=_CACHE_SIZE)
def _relative_group(group: UnramifiedGroup, odd: int) -> RelativeWeylGroup:
    m, flips = group.rank, group.flips
    if group.kind == "B" or not flips or not odd:
        parity = "odd" if group.kind == "B" else "even"
        return RelativeWeylGroup(m, tuple(_so_factor_gens(m, 0, m, parity, True)))
    fixed = [i for i in range(m) if i not in flips]
    gens = [_transposition(m, i, j) for i, j in zip(fixed, fixed[1:])]
    if len(flips) == 2:
        gens.append(_transposition(m, flips[0], flips[1]))
        gens.append(_flip(m, flips[0]) * _flip(m, flips[1]))
    if fixed and flips:
        gens.append(_flip(m, fixed[-1]) * _flip(m, flips[-1]))
    elif len(fixed) >= 2:
        gens.append(_flip(m, fixed[-1]) * _flip(m, fixed[-2]))
    return RelativeWeylGroup(m, tuple(gens))


# A column is a list, not a tuple: CPython keeps freed tuples of up to 19
# items on free lists, where the column tuples of one padic-local round held
# about 0.1 MB (tracemalloc, Python 3.11).


def _columns(coeffs: dict[tuple[int, ...], int], rank: int) -> list[list[int]]:
    """The coordinate columns of the exponent vectors of coeffs, in its order:
    rank columns, also when there is no term for zip to transpose."""
    return list(map(list, zip(*coeffs))) if coeffs else [[] for _ in range(rank)]


def _rows(cols: Sequence[list[int]], count: int) -> Iterable[tuple[int, ...]]:
    """The count vectors whose coordinate columns are cols.  At rank 0 there are
    no columns, and zip(*cols) would yield no vector at all."""
    return zip(*cols) if cols else repeat((), count)


def _act_columns(g: WeylElement, cols: Sequence[list[int]]) -> list[list[int]]:
    """g applied to every vector whose coordinate columns are cols, as the
    columns of the images: column k is sign * cols[source] for the k-th entry
    (sign, source) of the pull-back, so a column with sign +1 is reused as it
    is and one with sign -1 is negated once."""
    return [cols[j] if s == 1 else [-x for x in cols[j]] for s, j in g._pull]


class HeckeElement(Value, frozen=False):
    """q^(q2/2) times a polynomial in X_1^(+-1)..X_m^(+-1) with integer
    coefficients, invariant under the recorded relative Weyl group; q2 is the
    doubled q-exponent shared by every term."""

    __slots__ = ("rank", "coeffs", "group", "q2")

    def __init__(self, rank: int, coeffs: dict[tuple[int, ...], int], group: RelativeWeylGroup, q2: int):
        self.rank = rank
        self.coeffs = {e: c for e, c in coeffs.items() if c}
        self.group = group
        self.q2 = q2

    def check_invariance(self) -> bool:
        """Every generator of the group maps each term to a term with the same
        coefficient.  Each generator acts on all exponent vectors at once;
        stops at the first generator that moves a term."""
        if not self.rank:  # the only generator of rank 0 is the identity
            return True
        coeffs = self.coeffs
        values = list(coeffs.values())
        cols = _columns(coeffs, self.rank)
        get = coeffs.get
        for g in self.group.gens:
            if list(map(get, zip(*_act_columns(g, cols)))) != values:
                return False
        return True

    def __eq__(self, other):
        """Equal terms at an equal q-power; an element with no terms is zero
        whatever its q2."""
        return (
            isinstance(other, HeckeElement)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
            and (self.q2 == other.q2 or not self.coeffs)
        )

    def scale(self, sign: int, q2: int) -> "HeckeElement":
        """sign * q^(q2/2) times this element."""
        return HeckeElement(
            self.rank, {e: sign * c for e, c in self.coeffs.items()}, self.group, self.q2 + q2
        )

    def serialize(self) -> list:
        """JSON form: list of (exponent vector, [[q2, integer coefficient]])."""
        return [[list(e), [[self.q2, self.coeffs[e]]]] for e in sorted(self.coeffs)]


def _is_minuscule(kind: str, dom: Sequence[int]) -> bool:
    """|<alpha, mu>| <= 1 for every root alpha, read off dom, the |mu_i| in
    decreasing order: a root +-e_i +- e_j pairs with mu to +-mu_i +- mu_j,
    whose largest absolute value is dom[0] + dom[1], and a short root +-e_i
    of type B to +-mu_i, at most dom[0] in absolute value."""
    if len(dom) >= 2 and dom[0] + dom[1] > 1:
        return False
    return kind == "D" or not dom or dom[0] <= 1


def satake_minuscule(group: UnramifiedGroup, mu: Sequence[int], degree: int = 1) -> HeckeElement:
    """Satake image of the characteristic function of K mu(pi) K over the
    degree-a unramified extension: q_a^<delta, mu_dom> times the relative-orbit sum.
    """
    m = group.rank
    mu = tuple(mu)
    if len(mu) != m:
        raise ExactDomainError("cocharacter rank mismatch")
    # the dominant representative of the absolute orbit: coordinates sorted by magnitude
    dom = sorted(map(abs, mu), reverse=True)
    if not _is_minuscule(group.kind, dom):
        raise ExactDomainError("cocharacter is not minuscule")
    rel = group.relative_group(degree)
    if degree % 2 and any(mu[i] for i in group.flips):
        raise ExactDomainError("cocharacter is not defined over the base field")
    orbit = _orbit(rel, mu)
    # the q-power pairs the half sum of all positive roots with dom
    q2 = degree * sum(map(mul, _rho_doubled(group.kind, m), dom))
    return HeckeElement(m, dict.fromkeys(orbit, 1), rel, q2)


@lru_cache(maxsize=_CACHE_SIZE)
def _rho_doubled(kind: str, rank: int) -> tuple[int, ...]:
    """The doubled coordinates of rho, the half sum of the positive roots."""
    return rho(RootDatum(kind, rank)).doubled


@lru_cache(maxsize=_CACHE_SIZE)
def _orbit(rel: RelativeWeylGroup, mu: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The orbit of mu under the relative group, breadth-first."""
    orbit = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for v in frontier:
            for g in rel.gens:
                w = g.act_tuple(v)
                if w not in orbit:
                    orbit.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(orbit)


def constant_term(f: HeckeElement, levi_group: RelativeWeylGroup) -> HeckeElement:
    """Satake-side constant term: the same polynomial retagged with the smaller
    invariance group (which must be a subgroup)."""
    if not levi_group.is_subgroup_of(f.group):
        raise ExactDomainError("Levi group is not a subgroup of the ambient group")
    return HeckeElement(f.rank, f.coeffs, levi_group, f.q2)


def twisted_transfer(
    f: HeckeElement,
    s: EndoSignVector,
    twist: FrobTwist,
    out_group: RelativeWeylGroup,
    reindex: Optional[WeylElement] = None,
) -> HeckeElement:
    """Base-change twisted transfer on Satake transforms:
    sum c_chi [chi] -> sum c_chi <iota^-1 chi, s> [iota^-1(chi + sigma chi + ... + sigma^(a-1) chi)].

    `reindex` is the admissible identification iota^-1 (a signed permutation of
    coordinates); it defaults to the identity.
    """
    m = f.rank
    if reindex is None:
        reindex = WeylElement.identity(m)
    if len(s.s) != m:
        raise ExactDomainError("sign vector rank mismatch")
    if not f.check_invariance():
        raise ExactDomainError("input is not invariant under its recorded group")
    coeffs = f.coeffs
    count = len(coeffs)
    cols = _columns(coeffs, m)
    total = cur = cols
    for _ in range(twist.a - 1):
        cur = _act_columns(twist.sigma, cur)
        total = [list(map(add, t, v)) for t, v in zip(total, cur)]
    norms = _rows(_act_columns(reindex, total), count)
    # <chi_h, s> = prod s_i^chi_h_i is -1 exactly when the coordinates of
    # chi_h = iota^-1 chi at which s is -1 have an odd sum
    minus = [col for col, si in zip(_act_columns(reindex, cols), s.s) if si == -1]
    sums = map(sum, zip(*minus)) if minus else repeat(0, count)
    out: dict[tuple[int, ...], int] = {}
    for norm_h, odd, c in zip(norms, sums, coeffs.values()):
        out[norm_h] = out.get(norm_h, 0) + (-c if odd & 1 else c)
    result = HeckeElement(m, out, out_group, f.q2)
    if not result.check_invariance():
        raise ExactDomainError("transfer output failed invariance under the target group")
    return result


# --- the explicit computation at p -------------------------------------------


def excluded_shape(
    levi: str,
    parity: str,
    m_plus: int,
    m_minus: int,
    A: Sequence[int],
    delta_plus_square: bool = True,
    delta_minus_square: bool = True,
) -> Optional[str]:
    """Why a local shape is excluded, or None when it is admissible.

    In the even case an orthogonal factor of H, or of the Levi M' inside it,
    may not have rank 0 with a nontrivial discriminant, "(0, nontrivial)", nor
    rank 1 with a trivial one, "(2, trivial)" (labels by dimension and
    discriminant).  The odd case excludes nothing."""
    if parity != "even":
        return None
    gl_minus = len(gl_labels(levi)) - len(A)
    for rank, square in (
        (m_plus, delta_plus_square),
        (m_plus - len(A), delta_plus_square),
        (m_minus, delta_minus_square),
        (m_minus - gl_minus, delta_minus_square),
    ):
        reason = excluded_factor(2 * rank, square)
        if reason:
            return reason
    return None


class LocalDatumAtP(Value):
    """Local shape of a refined endoscopic datum at an odd prime: the case label,
    ambient parity, the rank bookkeeping of the induced group H, the subset A,
    and whether the two discriminants are local squares (unramified means even
    valuation, so each is a square or a nonsquare unit)."""

    # levi is "M1", "M2" or "M12"; parity is that of the ambient dimension d
    __slots__ = ("levi", "parity", "m", "m_plus", "m_minus", "A", "delta_plus_square", "delta_minus_square")

    def __init__(
        self,
        levi: str,
        parity: str,
        m: int,
        m_plus: int,
        m_minus: int,
        A: frozenset[int],
        delta_plus_square: bool = True,
        delta_minus_square: bool = True,
    ):
        if levi not in ("M1", "M2", "M12"):
            raise ExactDomainError("case must be M1, M2 or M12")
        if parity not in ("odd", "even"):
            raise ExactDomainError("parity must be odd or even")
        if m_plus + m_minus != m:
            raise ExactDomainError("H ranks must add up to the ambient rank")
        if parity == "odd" and not (delta_plus_square and delta_minus_square):
            raise ExactDomainError("odd-case discriminants are trivial")
        if tuple(sorted(A)) not in admissible_A(levi):
            raise ExactDomainError("invalid subset A for this case")
        if len(A) > m_plus or len(gl_labels(levi)) - len(A) > m_minus:
            raise ExactDomainError("H too small for the GL block")
        reason = excluded_shape(levi, parity, m_plus, m_minus, A, delta_plus_square, delta_minus_square)
        if reason:
            raise ExactDomainError(f"{reason} is excluded")
        values = (levi, parity, m, m_plus, m_minus, A, delta_plus_square, delta_minus_square)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return 2 * self.m + (1 if self.parity == "odd" else 0)

    @property
    def gl_plus(self) -> int:
        return len(self.A)

    @property
    def gl_minus(self) -> int:
        return len(gl_labels(self.levi)) - len(self.A)

    @property
    def n_plus(self) -> int:
        return self.m_plus - self.gl_plus

    @property
    def n_minus(self) -> int:
        return self.m_minus - self.gl_minus


@lru_cache(maxsize=_CACHE_SIZE)
def _iota_inverse(m: int, mp: int, mm: int, shuffle: bool) -> WeylElement:
    """Admissible identification from ambient to H coordinates (0-based), for
    H ranks mp + mm = m.

    Without the shuffle: coordinates 1..m- land in the H- block after the H+
    block, the rest fill the H+ block.  When the minus discriminant is a local
    nonsquare and the plus part is nonzero (`_needs_shuffle`), the embedding of
    L-groups forces the shuffle sending m- to the last H+ slot and m to the
    last H- slot.
    """
    perm = [0] * m
    if shuffle:
        for k in range(m):
            if k <= mm - 2:
                perm[k] = mp + k
            elif k == mm - 1:
                perm[k] = mp - 1
            elif k <= m - 2:
                perm[k] = k - mm
            else:
                perm[k] = m - 1
    else:
        for k in range(m):
            perm[k] = mp + k if k < mm else k - mm
    return WeylElement((1,) * m, tuple(perm))


def _needs_shuffle(datum: LocalDatumAtP) -> bool:
    return (
        datum.parity == "even"
        and not datum.delta_minus_square
        and datum.m_plus > 0
    )


def _sigma_flips(datum: LocalDatumAtP) -> tuple[int, ...]:
    """Frobenius flip coordinates on the transferred ambient torus (0-based)."""
    if datum.parity == "odd":
        return ()
    dp, dm = datum.delta_plus_square, datum.delta_minus_square
    if dp and dm:
        return ()
    if dp != dm:
        return (datum.m - 1,)
    return (datum.m_minus - 1, datum.m - 1)


def ambient_group_at_p(datum: LocalDatumAtP) -> UnramifiedGroup:
    kind = "B" if datum.parity == "odd" else "D"
    return _unramified_group(kind, datum.m, _sigma_flips(datum))


@lru_cache(maxsize=_CACHE_SIZE)
def _unramified_group(kind: str, m: int, flips: tuple[int, ...]) -> UnramifiedGroup:
    return UnramifiedGroup(kind, m, flips)


def _so_factor_gens(total: int, start: int, size: int, parity: str, is_split: bool) -> list[WeylElement]:
    """Relative Weyl generators of an unramified SO factor on coordinates
    [start, start+size): full type B (odd), full type D (even split), and
    W(D)^sigma = type B of rank size-1 on the leading coordinates (even nonsplit)."""
    gens: list[WeylElement] = []
    if size == 0:
        return gens
    if parity == "odd":
        gens += [_transposition(total, i, i + 1) for i in range(start, start + size - 1)]
        gens.append(_flip(total, start + size - 1))
    elif is_split:
        gens += [_transposition(total, i, i + 1) for i in range(start, start + size - 1)]
        if size >= 2:
            gens.append(_flip(total, start + size - 1) * _flip(total, start + size - 2))
    else:
        gens += [_transposition(total, i, i + 1) for i in range(start, start + size - 2)]
        if size >= 2:
            gens.append(_flip(total, start + size - 2) * _flip(total, start + size - 1))
    return gens


def h_relative_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    """Relative Weyl group of H = SO(d+) x SO(d-) in H coordinates."""
    return _so_pair_group(
        0, datum.m_plus, 0, datum.m_minus, datum.parity, datum.delta_plus_square, datum.delta_minus_square
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _so_pair_group(
    gap_plus: int, n_plus: int, gap_minus: int, n_minus: int, parity: str, plus_split: bool, minus_split: bool
) -> RelativeWeylGroup:
    """Two SO factors of ranks n+ and n-, the first after gap_plus coordinates
    and the second after gap_minus more; no generator moves a gap coordinate."""
    m = gap_plus + n_plus + gap_minus + n_minus
    gens = _so_factor_gens(m, gap_plus, n_plus, parity, plus_split)
    gens += _so_factor_gens(m, gap_plus + n_plus + gap_minus, n_minus, parity, minus_split)
    return RelativeWeylGroup(m, tuple(gens))


@lru_cache(maxsize=_CACHE_SIZE)
def _block_split(levi: str, A: frozenset[int], m: int, m_plus: int) -> WeylElement:
    """The permutation of the m H coordinates that puts the GL slots first, in
    the order of the Levi's GL labels, and the SO slots after them in their
    own order (H+ slots, then H-).  A label in A takes the next H+ slot, any
    other label the next slot after the m_plus slots of the H+ block."""
    order = []
    plus_used = minus_used = 0
    for lab in gl_labels(levi):
        if lab in A:
            order.append(plus_used)
            plus_used += 1
        else:
            order.append(m_plus + minus_used)
            minus_used += 1
    order += [j for j in range(m) if j not in order]
    perm = [0] * m
    for k, j in enumerate(order):
        perm[j] = k
    return WeylElement((1,) * m, tuple(perm))


@lru_cache(maxsize=_CACHE_SIZE)
def _h_sign_vector(m_plus: int, m_minus: int) -> EndoSignVector:
    return EndoSignVector((1,) * m_plus + (-1,) * m_minus)


@lru_cache(maxsize=_CACHE_SIZE)
def _frob_twist(a: int, group: UnramifiedGroup) -> FrobTwist:
    return FrobTwist(a, group.sigma())


def compute_fH_at_p(
    levi: str,
    parity: str,
    m: int,
    m_plus: int,
    m_minus: int,
    A: Sequence[int],
    a: int,
    delta_plus_square: bool = True,
    delta_minus_square: bool = True,
) -> tuple[HeckeElement, HeckeElement]:
    """Transfer the minuscule test function to H, take the constant term along
    the Levi M', scale by p^(a(2-d)/2), and split as k(A) on the GL block plus
    an A-independent h on the SO block.

    Returns (kPart, hPart): kPart in the GL-block variables X_i ordered by the
    Levi's GL coordinates, hPart in the SO-block variables (H+ slots then H-)
    with any constant term absorbed into hPart.
    """
    datum = LocalDatumAtP(
        levi, parity, m, m_plus, m_minus, frozenset(A), delta_plus_square, delta_minus_square
    )
    group = ambient_group_at_p(datum)
    # the orbit sum does not depend on which Frobenius-fixed slot carries mu
    free = next(i for i in range(m) if i not in group.flips)
    minus_mu = [0] * m
    minus_mu[free] = -1
    f = satake_minuscule(group, minus_mu, degree=a)
    transferred = twisted_transfer(
        f,
        _h_sign_vector(m_plus, m_minus),
        _frob_twist(a, group),
        h_relative_group(datum),
        reindex=_iota_inverse(m, m_plus, m_minus, _needs_shuffle(datum)),
    )
    levi_rel = _levi_relative_group(datum)
    restricted = constant_term(transferred, levi_rel)
    scaled = restricted.scale(1, -a * (datum.d - 2))
    coeffs = scaled.coeffs
    count = len(coeffs)
    # a term with fewer than m - 1 zero coordinates lies on two coordinates
    if count and min(map(tuple.count, coeffs, repeat(0))) < m - 1:
        raise ExactDomainError("unexpected mixed monomial in the transfer")
    k_rank = len(gl_labels(levi))
    cols = _act_columns(_block_split(levi, datum.A, m, m_plus), _columns(coeffs, m))
    # each term has at most one nonzero coordinate: it lies on the GL block
    # when that coordinate is a GL slot, else on the SO block (the constant
    # term too), and its coordinates there determine it, so no two terms meet
    values = list(coeffs.values())
    k_rows = list(_rows(cols[:k_rank], count))
    on_gl = list(map(any, k_rows))
    k_coeffs = dict(compress(zip(k_rows, values), on_gl))
    h_coeffs = dict(compress(zip(_rows(cols[k_rank:], count), values), map(not_, on_gl)))
    k_group = _gl_block_group(datum.levi)
    h_group = _so_block_group(datum)
    k_part = HeckeElement(k_rank, k_coeffs, k_group, scaled.q2)
    h_part = HeckeElement(m - k_rank, h_coeffs, h_group, scaled.q2)
    if not k_part.check_invariance() or not h_part.check_invariance():
        raise ExactDomainError("split parts failed invariance")
    return k_part, h_part


def _levi_relative_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    """Relative Weyl group of M' inside H coordinates: permutations within the
    GL_2 block (case M1) times the relative groups of the smaller SO factors."""
    return _levi_group(
        datum.levi, datum.gl_plus, datum.n_plus, datum.gl_minus, datum.n_minus,
        datum.parity, datum.delta_plus_square, datum.delta_minus_square,
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _levi_group(
    levi: str, gl_plus: int, n_plus: int, gl_minus: int, n_minus: int,
    parity: str, plus_split: bool, minus_split: bool,
) -> RelativeWeylGroup:
    so = _so_pair_group(gl_plus, n_plus, gl_minus, n_minus, parity, plus_split, minus_split)
    if levi != "M1":
        return so
    # the GL_2 block leads the H+ slots when A = {1, 2}, else the H- slots
    s = 0 if gl_plus else n_plus
    return RelativeWeylGroup(so.rank, (_transposition(so.rank, s, s + 1),) + so.gens)


@lru_cache(maxsize=_CACHE_SIZE)
def _gl_block_group(levi: str) -> RelativeWeylGroup:
    if levi == "M1":
        return RelativeWeylGroup(2, (_transposition(2, 0, 1),))
    return RelativeWeylGroup(len(gl_labels(levi)), ())


def _so_block_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    return _so_pair_group(
        0, datum.n_plus, 0, datum.n_minus, datum.parity, datum.delta_plus_square, datum.delta_minus_square
    )


def expected_k_table(levi: str, A: Sequence[int], a: int) -> HeckeElement:
    """The closed k(A) table: epsilon_i(A) (X_i^a + X_i^-a) over the GL block."""
    A = frozenset(A)
    if levi == "M12":
        coeffs: dict[tuple[int, ...], int] = {}
        for i in (1, 2):
            c = 1 if i in A else -1
            for e in (a, -a):
                vec = [0, 0]
                vec[i - 1] = e
                coeffs[tuple(vec)] = c
        return HeckeElement(2, coeffs, RelativeWeylGroup(2, ()), 0)
    if levi == "M1":
        c = 1 if A == frozenset({1, 2}) else -1
        coeffs = {(a, 0): c, (-a, 0): c, (0, a): c, (0, -a): c}
        return HeckeElement(2, coeffs, RelativeWeylGroup(2, (_transposition(2, 0, 1),)), 0)
    if levi == "M2":
        c = 1 if A == frozenset({1}) else -1
        return HeckeElement(1, {(a,): c, (-a,): c}, RelativeWeylGroup(1, ()), 0)
    raise ExactDomainError(f"unknown case {levi!r}")


# --- base change on the GL block ----------------------------------------------


def phi_a(gl: str, a: int) -> HeckeElement:
    """Satake transform over the degree-a extension of the characteristic function
    of K mu(pi)^-1 K for the standard Siegel cocharacter mu."""
    if gl == "GL1":
        return HeckeElement(1, {(-1,): 1}, RelativeWeylGroup(1, ()), 0)
    if gl == "GL2":
        return HeckeElement(
            2,
            {(-1, 0): 1, (0, -1): 1},
            RelativeWeylGroup(2, (_transposition(2, 0, 1),)),
            a,  # q_a^(1/2) = q^(a/2)
        )
    raise ExactDomainError("gl must be GL1 or GL2")


def base_change_image(gl: str, a: int, source: HeckeElement) -> HeckeElement:
    """Base-change morphism on Satake transforms: the twisted transfer with
    trivial sign vector and trivial Frobenius action ([chi] -> [a chi])."""
    rank = source.rank
    s = EndoSignVector((1,) * rank)
    twist = FrobTwist(a, WeylElement.identity(rank))
    return twisted_transfer(source, s, twist, source.group)


def k_a_element(levi: str, a: int) -> HeckeElement:
    """The GL-block element k_a: -X_1^-a (cases M12/M2), -X_1^-a - X_2^-a (case M1)."""
    if levi in ("M12", "M2"):
        rank = 2 if levi == "M12" else 1
        vec = [0] * rank
        vec[0] = -a
        return HeckeElement(rank, {tuple(vec): -1}, RelativeWeylGroup(rank, ()), 0)
    if levi == "M1":
        return HeckeElement(
            2,
            {(-a, 0): -1, (0, -a): -1},
            RelativeWeylGroup(2, (_transposition(2, 0, 1),)),
            0,
        )
    raise ExactDomainError("case must be M1, M2 or M12")


def ka_base_change_relation(levi: str, a: int) -> dict:
    """Compare k_a with the base-change image of the Siegel-cocharacter function.

    For GL_1 (cases M12/M2): k_a = BC(-phi_a) exactly.  For GL_2 (case M1) the
    displayed k_a equals -p^(-a/2) BC(phi_a); the comparison reports the
    match and the doubled q-shift -a separately.
    """
    if levi in ("M2", "M12"):
        bc = base_change_image("GL1", a, phi_a("GL1", a))
        neg = bc.scale(-1, 0)
        ka = k_a_element("M2", a)
        return {"matches": neg == ka, "sign": -1, "q_shift_doubled": 0}
    bc = base_change_image("GL2", a, phi_a("GL2", a))
    ka = k_a_element("M1", a)
    shifted = bc.scale(-1, -a)
    return {"matches": shifted == ka, "sign": -1, "q_shift_doubled": -a}
