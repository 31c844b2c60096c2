import copy
import itertools
import math
import operator
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from endolab import rootdata
from endolab.cli import ACCEPTANCE, _dominant_weights
from endolab.cli import main as cli_main
from endolab.errors import ExactDomainError, SingularPointError
from endolab.exactnum import GaussianRational
from endolab.laurent import Laurent
from endolab.rootdata import (
    COMPACT,
    SPLIT,
    LeviBlocks,
    RootDatum,
    TorusPoint,
    Weight,
    WeylElement,
    _doubled,
    _gl_alternant,
    _kostant_table,
    _levi_blocks,
    circle_point,
    formal_character,
    kostant_cohomology,
    kostant_euler_identity,
    levi_is_dominant,
    levi_positive_roots,
    rho,
    standard_levi,
    weyl_character,
    weyl_numerator,
)

B2, B3 = RootDatum("B", 2), RootDatum("B", 3)
D3 = RootDatum("D", 3)
RAW = "raw"  # the pattern of a coordinate that is neither rational nor on the unit circle


def _is_positive(alpha) -> bool:
    for c in alpha:
        if c:
            return c > 0
    return False


def weyl_group(datum) -> list:
    """The reference enumeration of W: the signed permutations, on D those
    with an even number of flips, as WeylElements, signs varying fastest."""
    m = datum.rank
    return [
        WeylElement(signs, perm)
        for perm in itertools.permutations(range(m))
        for signs in itertools.product((1, -1), repeat=m)
        if datum.kind == "B" or signs.count(-1) % 2 == 0
    ]


def weyl_inverse(w) -> WeylElement:
    """w^-1: w sends e_j to s_j e_p(j), so w^-1 sends e_p(j) to s_j e_j."""
    signs, perm = [0] * w.rank, [0] * w.rank
    for j, (s, p) in enumerate(zip(w.signs, w.perm)):
        signs[p], perm[p] = s, j
    return WeylElement(tuple(signs), tuple(perm))


def half_coords(weight) -> tuple:
    """The true coordinates of a weight, its doubled ones halved, as Fractions."""
    return tuple(Fraction(c, 2) for c in weight.doubled)


def inversion_set(w, datum) -> tuple:
    """Phi(w) = Phi+ cap (-w Phi+) = positive roots made negative by w^{-1}:
    the definition the closed-form tables are checked against."""
    winv = weyl_inverse(w)
    return tuple(a for a in datum.positive_roots() if not _is_positive(winv.act_tuple(a)))


def length(w, datum) -> int:
    return len(inversion_set(w, datum))


def sign(w, datum) -> int:
    return -1 if length(w, datum) % 2 else 1


def apply_weyl(gamma, w):
    """The torus point w gamma: coordinate j, inverted where w flips it,
    moves to w's image of j.  A conjugate pair generally stops being a
    literal adjacent pair, so every coordinate is classified again."""
    coords = [None] * len(gamma.coords)
    for j, z in enumerate(gamma.coords):
        coords[w.perm[j]] = z if w.signs[j] == 1 else z.inverse()
    pattern = tuple(SPLIT if z.is_real() else COMPACT if z * z.conjugate() == 1 else RAW for z in coords)
    return TorusPoint(tuple(coords), pattern)


@lru_cache(maxsize=None)
def weyl_table(kind: str, m: int) -> tuple:
    """The reference Weyl table: cached (w, inversion root indices, sign)
    triples for the full group, in the order of weyl_group, read off the
    signed permutation.  With w^-1 e_k = s_k e_{p_k}, a positive root is in
    Phi(w) iff the leading coefficient of its w^-1-image is negative: for
    e_i + c e_j (i < j) that is s_i if p_i < p_j and s_j c otherwise; for
    e_i it is s_i.  inversion_set is the definition."""
    roots = []  # (i, j, c) for e_i + c e_j; j is None for e_i
    for a in RootDatum(kind, m).positive_roots():
        i, *rest = [k for k, c in enumerate(a) if c]
        roots.append((i, rest[0], a[rest[0]]) if rest else (i, None, 1))
    table = []
    for w in weyl_group(RootDatum(kind, m)):
        winv = weyl_inverse(w)
        s, p = winv.signs, winv.perm
        inv = tuple(
            n for n, (i, j, c) in enumerate(roots) if (s[i] if j is None or p[i] < p[j] else s[j] * c) < 0
        )
        table.append((w, inv, -1 if len(inv) % 2 else 1))
    return tuple(table)


def without_rho_shift(real):
    """The plan builder real(kind, groups, r) handed r = 0 for the rho it
    subtracts: exponents w(lam+rho) / 2, rounded down in type B, where they
    are half-integers."""
    return lambda kind, groups, r: real(kind, groups, (0,) * len(r))


def term_plan(groups) -> rootdata.TermPlan:
    """The reference for the plans of rootdata._alternant_plan: the plan
    with one root per group of (c, exponents) terms, the trie built from
    the list of terms, interned as the builder interns."""
    terms = [t for group in groups for t in group]
    cols = [(min(col), max(col)) for col in zip(*(e for _, e in terms))]
    columns = tuple((j, lo, hi) for j, (lo, hi) in enumerate(cols) if lo != hi)
    tables: list[dict] = [{} for _ in columns]
    last = len(columns) - 1

    def node(k: int, terms) -> tuple:
        """(g, index): the terms' sum over coordinates k.. is g times the
        node at index in level k; (0, None) if it cancels."""
        j, lo, _ = columns[k]
        parts: dict = {}
        if k == last:
            for c, e in terms:
                parts[e[j]] = parts.get(e[j], 0) + c
            edges = [(e - lo, s) for e, s in sorted(parts.items()) if s]
        else:
            for t in terms:
                parts.setdefault(t[1][j], []).append(t)
            edges = [(e - lo, *node(k + 1, sub)) for e, sub in sorted(parts.items())]
            edges = [edge for edge in edges if edge[1]]
        return rootdata._intern(tables[k], edges)

    roots = tuple(node(0, group) if columns and group else (sum(c for c, _ in group), None) for group in groups)
    levels = tuple(tuple(table) for table in tables)
    return rootdata.TermPlan(tuple(lo for lo, _ in cols), columns, levels, roots)


def evaluate_terms(terms, coords):
    """sum of c * prod_j z_j^{e_j} over (c, exponents) terms at the point
    with these coordinates: the one-root term_plan of the terms, evaluated
    with weight 1."""
    return rootdata.evaluate_plan(term_plan((terms,)), coords)


def alternant_terms(datum, lam) -> list:
    """(eps(w), w(lam+rho)-rho) for every w in W, from Leibniz's formula.
    The exponents are integers: w rho - rho = -sum of Phi(w) lies in the
    root lattice, and (w lam) prod_{a in Phi(w)} a^-1 = e^{w(lam+rho)-rho}."""
    r = rho(datum)
    images = rootdata._alternant_images(datum.kind, (lam + r).doubled)
    return [(c, tuple((v - rc) // 2 for v, rc in zip(image, r.doubled))) for c, image in images]


def test_group_sizes():
    """The reference group and Weyl's determinant both have |W| terms."""
    for datum, mu, order in ((B3, (5, 3, 1), 48), (RootDatum("D", 4), (6, 4, 2, 0), 192), (RootDatum("D", 1), (0,), 1)):
        assert len(weyl_group(datum)) == len(rootdata._alternant_images(datum.kind, mu)) == order


def test_group_laws_and_sign_homomorphism():
    rng = random.Random(1)
    elems = weyl_group(B2)
    for _ in range(50):
        w1, w2 = rng.choice(elems), rng.choice(elems)
        prod = w1 * w2
        assert prod in elems
        assert sign(prod, B2) == sign(w1, B2) * sign(w2, B2)
        assert w1 * weyl_inverse(w1) == weyl_inverse(w1) * w1 == WeylElement.identity(2)


def _act_loop(w, v) -> tuple:
    """w v coordinate by coordinate: e_j goes to signs[j] e_perm[j]."""
    out = [None] * len(w.perm)
    for j in range(len(w.perm)):
        out[w.perm[j]] = w.signs[j] * v[j]
    return tuple(out)


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_act_tuple_is_the_coordinate_loop(kind, m):
    """The pull-back reads every coordinate as the loop over e_j writes it, on
    every element of W(B_m) and W(D_m), and survives pickling and copies."""
    v = tuple(range(3, 3 + m))
    halves = tuple(Fraction(2 * j + 1, 2) for j in range(m))
    for w in weyl_group(RootDatum(kind, m)):
        assert w.act_tuple(v) == _act_loop(w, v)
        assert w.act_tuple(halves) == _act_loop(w, halves)
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert twin.act_tuple(v) == _act_loop(w, v)


def test_pull_back_stays_out_of_equality_hash_and_repr():
    w = WeylElement((1, -1, 1), (2, 0, 1))
    assert w._pull == ((-1, 1), (1, 2), (1, 0))
    assert w.act_tuple((5, 6, 7)) == (-6, 7, 5)
    assert repr(w) == "WeylElement(signs=(1, -1, 1), perm=(2, 0, 1))"
    assert hash(w) == hash(((1, -1, 1), (2, 0, 1)))
    twin = WeylElement((1, -1, 1), (2, 0, 1))
    object.__setattr__(twin, "_pull", ())
    assert twin == w and hash(twin) == hash(w) and repr(twin) == repr(w)


def test_rho():
    assert half_coords(rho(B2)) == (Fraction(3, 2), Fraction(1, 2))
    assert half_coords(rho(RootDatum("D", 2))) == (Fraction(1), Fraction(0))
    assert half_coords(rho(RootDatum("B", 1))) == (Fraction(1, 2),)


def test_inversion_sets():
    ident = WeylElement.identity(2)
    assert inversion_set(ident, B2) == ()
    s2 = WeylElement((1, -1), (0, 1))
    assert inversion_set(s2, B2) == ((0, 1),)
    longest = max(weyl_group(B3), key=lambda w: length(w, B3))
    assert length(longest, B3) == 9  # m^2


def test_weyl_character_standard_rep():
    B1 = RootDatum("B", 1)
    g = TorusPoint((GaussianRational(Fraction(5, 2)),), (SPLIT,))
    val = weyl_character(B1, Weight.from_ints([1]), g)
    assert val == GaussianRational(Fraction(5, 2) + 1 + Fraction(2, 5))


def test_weyl_character_trivial_and_invariance():
    gamma = TorusPoint(
        (GaussianRational(3), circle_point(Fraction(1, 3)), circle_point(Fraction(2, 7))),
        (SPLIT, COMPACT, COMPACT),
    )
    one = weyl_character(B3, Weight.from_ints([0, 0, 0]), gamma)
    assert one == GaussianRational(1)
    lam = Weight.from_ints([2, 1, 0])
    val = weyl_character(B3, lam, gamma)
    for w in random.Random(2).sample(weyl_group(B3), 6):
        assert weyl_character(B3, lam, apply_weyl(gamma, w)) == val


def test_circle_point_matches_fraction_formula():
    """circle_point(p/q), built from the ints q^2 - p^2, 2pq and q^2 + p^2,
    is ((1 - t^2) + 2t i) / (1 + t^2) computed in Fractions, as a reduced
    triple with a positive denominator, on the unit circle."""
    for t in {Fraction(p, q) for p in range(-13, 14) for q in range(1, 14)}:
        z = circle_point(t)
        den = 1 + t * t
        assert (z.re, z.im) == ((1 - t * t) / den, 2 * t / den)
        assert z.den > 0 and math.gcd(z.re_n, z.im_n, z.den) == 1
        assert z.re_n**2 + z.im_n**2 == z.den**2
    assert circle_point(0) == 1 and circle_point(3) == circle_point(Fraction(3))
    for bad in (0.5, "1/2"):
        with pytest.raises(ExactDomainError):
            circle_point(bad)


def test_compact_coordinate_norm_check():
    assert len(TorusPoint((circle_point(Fraction(-2, 9)),), (COMPACT,)).coords) == 1
    for z in (GaussianRational(Fraction(3, 5), Fraction(4, 7)), GaussianRational(2), circle_point(Fraction(1, 3)) * 3):
        with pytest.raises(ExactDomainError):
            TorusPoint((z,), (COMPACT,))


def test_weyl_character_singular():
    gamma = TorusPoint((GaussianRational(1), GaussianRational(2)), (SPLIT, SPLIT))
    with pytest.raises(SingularPointError):
        weyl_character(B2, Weight.from_ints([1, 0]), gamma)


def _monomial(gamma, exponents):
    """prod_j z_j^{e_j} by GaussianRational powers, independent of evaluate_plan."""
    out = GaussianRational(1)
    for z, e in zip(gamma.coords, exponents):
        out = out * z**e
    return out


def _product_form_character(datum, lam, gamma):
    """The Weyl character as sum_w eps(w) (w lam)(gamma) prod_{a in Phi(w)} a^-1(gamma)
    over the inversion sets of weyl_table, divided by prod_{a > 0} (1 - a^-1(gamma))."""
    inv_vals = [_monomial(gamma, a).inverse() for a in datum.positive_roots()]
    num = GaussianRational(0)
    for w, invset, eps in weyl_table(datum.kind, datum.rank):
        term = _monomial(gamma, w.act_tuple([c // 2 for c in lam.doubled]))
        for i in invset:
            term = term * inv_vals[i]
        num = num + eps * term
    den = GaussianRational(1)
    for v in inv_vals:
        den = den * (1 - v)
    return num / den


def _regular_points(datum, rng, count):
    """Seeded regular points, each also moved by a random Weyl element.  From
    rank 2 on, every other point starts with a conjugate pair (x, conj x),
    |x| != 1, as in case M1; the Weyl move leaves such coordinates of pattern RAW."""
    out = []
    elems = weyl_group(datum)
    m = datum.rank
    while len(out) < 2 * count:
        a = Fraction(rng.choice((1, -1)) * rng.randint(2, 9), rng.randint(10, 19))
        if m >= 2 and len(out) % 4:
            x = GaussianRational(a, Fraction(rng.randint(1, 9), rng.randint(10, 19)))
            head, pattern = [x, x.conjugate()], (rootdata.PAIR_FIRST, rootdata.PAIR_SECOND)
        else:
            head, pattern = [GaussianRational(a)], (SPLIT,)
        circle = [circle_point(Fraction(rng.randint(1, 99), rng.randint(100, 199))) for _ in range(m - len(head))]
        gamma = TorusPoint(tuple(head + circle), pattern + (COMPACT,) * len(circle))
        if any(_monomial(gamma, a) == 1 for a in datum.positive_roots()):
            continue
        out += [gamma, apply_weyl(gamma, rng.choice(elems))]
    return out


@pytest.mark.parametrize("kind,m", [(k, m) for k in "BD" for m in (1, 2, 3, 4)])
def test_weyl_character_matches_product_form(kind, m):
    datum = RootDatum(kind, m)
    rng = random.Random(100 * m + ord(kind))
    weights = _dominant_weights(kind, m, 3)
    points = _regular_points(datum, rng, 3)
    assert m == 1 or any(RAW in g.pattern for g in points)
    for lam_c in rng.sample(weights, min(len(weights), 6)):
        lam = Weight.from_ints(lam_c)
        for gamma in points:
            assert weyl_character(datum, lam, gamma) == _product_form_character(datum, lam, gamma), (lam_c, gamma)


@pytest.mark.parametrize("kind,m", [(k, m) for k in "BD" for m in (2, 3, 4)])
def test_weyl_character_without_rho_shift_fails(kind, m, monkeypatch):
    """Negative control: exponents w(lam+rho) with the -rho shift dropped
    (rounded down in type B, where they are half-integers)."""
    datum = RootDatum(kind, m)
    lam = Weight.from_ints((2, 1) + (0,) * (m - 2))
    gamma = _regular_points(datum, random.Random(m), 1)[0]
    assert weyl_character(datum, lam, gamma) == _product_form_character(datum, lam, gamma)

    monkeypatch.setattr(rootdata, "_alternant_plan", without_rho_shift(rootdata._alternant_plan))
    assert weyl_character(datum, lam, gamma) != _product_form_character(datum, lam, gamma)


def _gaussian_terms_sum(terms, gamma):
    """The reference for evaluate_terms: sum of c * prod_j z_j^{e_j}, one
    GaussianRational + or * per step, powers by repeated squaring."""
    total = GaussianRational(0)
    for c, exps in terms:
        term = GaussianRational(c)
        for z, e in zip(gamma.coords, exps):
            term = term * z**e
        total = total + term
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_evaluate_terms_matches_gaussian_reference(m):
    """At seeded points (from rank 2 on, M1 conjugate pairs (x, conj x) with
    |x| != 1 and the RAW coordinates a Weyl move leaves), on terms with
    exponents of both signs, coefficients other than +-1 and a constant
    column, and on the empty term list.  Then multi-root plans of those
    terms with weights 0, negative and other than +-1: the same terms times
    -3 (stored once, up to sign and scale), under another head monomial
    (the same nodes below the first coordinate), a group that cancels to
    zero, an empty group, and a plan in which no column varies."""
    rng = random.Random(10 + m)
    points = _regular_points(RootDatum("B", m), rng, 2)
    if m >= 2:
        pairs = [g for g in points if g.pattern[0] == rootdata.PAIR_FIRST]
        assert pairs and all(g.coords[0] * g.coords[0].conjugate() != 1 for g in pairs)
        assert any(RAW in g.pattern for g in points)
    coefficients = (-7, -3, -2, -1, 1, 2, 4, 9)
    head = (2,) + (0,) * (m - 1)
    for gamma in points:
        coords = gamma.coords
        assert evaluate_terms((), coords) == GaussianRational(0)
        for const in (0, -2, 3):  # the last column is constant
            for lo, hi in ((-5, 5), (1, 6), (-6, -1)):
                terms = [
                    (rng.choice(coefficients), tuple(rng.randint(lo, hi) for _ in range(m - 1)) + (const,))
                    for _ in range(15)
                ]
                terms.append((-terms[0][0], terms[0][1]))  # a term that cancels another
                got = evaluate_terms(terms, coords)
                assert got == _gaussian_terms_sum(terms, gamma), (gamma, terms)

                groups = [
                    terms,
                    [(-3 * c, e) for c, e in terms],
                    [(c, tuple(map(operator.add, e, head))) for c, e in terms],
                    terms + [(-c, e) for c, e in terms],
                    [],
                ]
                weights = (rng.choice(coefficients), 0, -2, 5, 3)
                plan = term_plan(groups)
                want = GaussianRational(0)
                for w, group in zip(weights, groups):
                    want = want + w * _gaussian_terms_sum(group, gamma)
                assert rootdata.evaluate_plan(plan, coords, weights) == want, (gamma, terms)
                assert rootdata.evaluate_plan(plan, coords, (0, 1, 0, 0, 0)) == _gaussian_terms_sum(groups[1], gamma)
                (g, node), (g3, node3) = plan.roots[:2]
                assert (g3, node3) == (-3 * g, node) and plan.roots[3:] == ((0, None), (0, None))
                if m >= 2:
                    alone = term_plan((terms,))
                    assert plan.levels[1:] == alone.levels[1:]
                    assert len(plan.levels[0]) == len(alone.levels[0]) + 1
        constant = [(2, (1,) * m), (-5, (1,) * m)]
        plan = term_plan((constant, [], constant[:1]))
        assert plan.levels == () and plan.roots == ((-3, None), (0, None), (2, None))
        assert rootdata.evaluate_plan(plan, coords, (2, 7, -1)) == _gaussian_terms_sum(constant * 2 + [(-2, (1,) * m)], gamma)


def test_character_sum_plan_shares_sub_polynomials():
    """The d = 10 character-sum plan (D5, lam = (3,2,1,0,0)), one root per
    head, stores at most a tenth as many edges as its terms have
    term x coordinate products."""
    lam = (3, 2, 1, 0, 0)
    heads, plan = alternant_plan(RootDatum("D", 5), Weight.from_ints(lam))
    terms = alternant_terms(RootDatum("D", 5), Weight.from_ints(lam))
    edges = sum(len(node) for level in plan.levels for node in level)
    assert len(terms) == 1920 and len(plan.roots) == len(heads)
    assert 10 * edges <= len(terms) * 5, edges


@pytest.mark.parametrize("kind,m", [("B", m) for m in range(1, 6)] + [("D", m) for m in range(2, 6)])
def test_weyl_table_matches_inversion_sets(kind, m):
    """The closed-form table against inversion_set, the act_root definition:
    the same elements in the same order, index tuples and signs."""
    datum = RootDatum(kind, m)
    index = {a: i for i, a in enumerate(datum.positive_roots())}
    want = []
    for w in weyl_group(datum):
        inv = tuple(index[a] for a in inversion_set(w, datum))
        want.append((w, inv, -1 if len(inv) % 2 else 1))
    assert weyl_table(kind, m) == tuple(want)


@pytest.mark.parametrize("kind,m", [(k, m) for k in "BD" for m in range(1, 7)])
def test_alternant_is_the_weyl_table_alternant(kind, m):
    """Weyl's determinant, expanded by Leibniz's formula, gives the signed
    images (eps(w), w(lam+rho)) of the reference table, as a multiset, also for
    weights whose last coordinates are 0 (on D mu_m = lam_m is then 0, and
    the flip of that coordinate is an element of W with the same image) or
    negative on D; alternant_terms shifts them by rho, and weyl_numerator
    is their sum."""
    datum = RootDatum(kind, m)
    r = rho(datum)
    weights = {(0,) * m, ((2, 1) + (0,) * m)[:m]}
    if kind == "D":
        weights.add((1,) * (m - 1) + (-1,))
    for lam_c in sorted(weights):
        lam = Weight.from_ints(lam_c)
        shifted = (lam + r).doubled
        want = Counter((eps, w.act_tuple(shifted)) for w, _, eps in weyl_table(kind, m))
        assert Counter(rootdata._alternant_images(kind, shifted)) == want, lam_c
        terms = Counter((eps, tuple((c - rc) // 2 for c, rc in zip(image, r.doubled))) for eps, image in want)
        assert Counter(alternant_terms(datum, lam)) == terms, lam_c
        if m <= 4:
            assert weyl_numerator(datum, lam).terms == {image: eps for eps, image in want}, lam_c


def plan_edges(plan):
    return sum(len(node) for level in plan.levels for node in level)


def alternant_plan(datum, lam):
    """The heads of alternant_head_groups and the character-sum plan of
    their groups alone, one root per head."""
    heads, groups = rootdata.alternant_head_groups(datum, lam)
    return heads, rootdata._alternant_plan(datum.kind, groups, rho(datum).doubled)


def head_term_plan(datum, lam, heads):
    """The reference for the character-sum plan of alternant_plan:
    term_plan over the alternant terms grouped by their head (chi_1, chi_2),
    one root per head in the order of heads, which must be the heads of the
    terms."""
    r = rho(datum).doubled
    groups: dict = {}
    for eps, e in alternant_terms(datum, lam):
        groups.setdefault((2 * e[0] + r[0], 2 * e[1] + r[1]), []).append((eps, e))
    assert len(heads) == len(groups) and set(heads) == set(groups)
    return term_plan([groups[head] for head in heads])


@pytest.mark.parametrize("kind,m", [(k, m) for k in "BD" for m in range(3, 7)])
def test_alternant_plan_is_the_term_plan(kind, m):
    """alternant_plan against term_plan over the alternant terms grouped by
    the head (chi_1, chi_2): the same heads, shift and columns, as many
    nodes per level and edges, and equal values at seeded regular points
    with seeded weights."""
    datum = RootDatum(kind, m)
    rng = random.Random(50 + m)
    points = _regular_points(datum, rng, 1)
    for lam_c in ((0,) * m, ((3, 2, 1) + (0,) * m)[:m], tuple(range(m, 0, -1))):
        lam = Weight.from_ints(lam_c)
        heads, plan = alternant_plan(datum, lam)
        want = head_term_plan(datum, lam, heads)
        assert (plan.shift, plan.columns) == (want.shift, want.columns)
        assert [len(level) for level in plan.levels] == [len(level) for level in want.levels]
        assert plan_edges(plan) == plan_edges(want), lam_c
        for gamma in points:
            weights = [rng.randint(-4, 4) for _ in heads]
            assert rootdata.evaluate_plan(plan, gamma.coords, weights) == rootdata.evaluate_plan(want, gamma.coords, weights)


@pytest.mark.parametrize("kind,m", [(k, m) for k in "BD" for m in range(1, 6)])
def test_one_group_plan_is_the_term_plan(kind, m):
    """The one-root plan weyl_character evaluates against term_plan over
    the alternant terms: the same shift and columns, as many nodes per
    level and edges, and equal values at seeded regular points; on D1 no
    column varies, and on D the last coordinate may be 0 or negative."""
    datum = RootDatum(kind, m)
    r = rho(datum).doubled
    points = _regular_points(datum, random.Random(70 + m), 1)
    weights = {(0,) * m, ((2, 1) + (0,) * m)[:m], tuple(range(m, 0, -1))}
    if kind == "D":
        weights.add((1,) * (m - 1) + (-1,))
    for lam_c in sorted(weights):
        lam = Weight.from_ints(lam_c)
        plan = rootdata._alternant_plan(kind, ({((), (lam + rho(datum)).doubled, False): 1},), r)
        want = term_plan((alternant_terms(datum, lam),))
        assert (plan.shift, plan.columns) == (want.shift, want.columns), lam_c
        assert [len(level) for level in plan.levels] == [len(level) for level in want.levels], lam_c
        assert plan_edges(plan) == plan_edges(want), lam_c
        for gamma in points:
            assert rootdata.evaluate_plan(plan, gamma.coords) == rootdata.evaluate_plan(want, gamma.coords), lam_c
    if (kind, m) == ("D", 1):
        assert plan.columns == () and plan.roots == ((1, None),)


def test_alternant_plan_domain():
    with pytest.raises(ExactDomainError, match="rank >= 3"):
        rootdata.alternant_head_groups(B2, Weight.from_ints((1, 0)))
    with pytest.raises(ExactDomainError, match="dominant"):
        rootdata.alternant_head_groups(B3, Weight.from_ints((0, 1, 0)))


@pytest.mark.parametrize("kind,m", [(k, m) for k in "BD" for m in range(1, 7)])
def test_kostant_table_is_the_weyl_table_filter(kind, m):
    """The W^M enumerated directly are the w of the reference table with
    Phi(w) inside the nilradical roots, with degree |Phi(w)|, by length,
    for every standard Levi that fits the rank."""
    datum = RootDatum(kind, m)
    pos = datum.positive_roots()
    for label in ("G", "M1", "M2", "M12"):
        levi = standard_levi(label, m)
        if levi.so_start > m:
            continue
        levi_pos = set(levi_positive_roots(datum, levi))
        want = {(len(inv), w) for w, inv, _ in weyl_table(kind, m) if levi_pos.isdisjoint(pos[i] for i in inv)}
        got = _kostant_table(datum, levi)
        assert len(got) == len(want) and set(got) == want, label
        assert [deg for deg, _ in got] == sorted(deg for deg, _ in got)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poincare(kind: str, m: int) -> list[int]:
    """sum_{w in W} t^l(w) as its coefficient list: prod_i (1 + t + ... +
    t^(d_i - 1)) over the degrees d_i of W, 2, 4, ..., 2m on B and 2, 4,
    ..., 2m - 2, m on D (Humphreys, Reflection Groups and Coxeter Groups,
    3.15); [1] at rank 0."""
    degrees = [2 * i for i in range(1, m + 1)] if kind == "B" else [2 * i for i in range(1, m)] + [m] * (m > 0)
    poly = [1]
    for d in degrees:
        poly = _poly_mul(poly, [1] * d)
    return poly


@pytest.mark.parametrize("kind", "BD")
def test_kostant_table_rank_seven_by_poincare_polynomial(kind):
    """At rank 7, where |W| is 645,120 on B, too many to list in a test:
    each degree is the length of its w, by its inversion set, and the
    degrees count as W(t) / W_M(t), since W^M x W_M -> W, (u, v) -> uv,
    is a bijection that adds lengths.  W_M is W(GL_2) x W(SO tail) on M1
    and W(SO tail) on the others."""
    m = 7
    datum = RootDatum(kind, m)
    for label, levi_poly in (
        ("G", _poincare(kind, m)),
        ("M1", _poly_mul([1, 1], _poincare(kind, m - 2))),
        ("M2", _poincare(kind, m - 1)),
        ("M12", _poincare(kind, m - 2)),
    ):
        got = _kostant_table(datum, standard_levi(label, m))
        assert len({w for _, w in got}) == len(got)
        assert all(deg == length(w, datum) for deg, w in got), label
        counts = [0] * (got[-1][0] + 1)
        for deg, _ in got:
            counts[deg] += 1
        assert _poly_mul(counts, levi_poly) == _poincare(kind, m), label


@pytest.mark.parametrize("kind,m", [("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4)])
def test_kostant_degrees_are_inversion_set_lengths(kind, m):
    datum = RootDatum(kind, m)
    r = rho(datum)
    for label in ("M1", "M2", "M12"):
        levi = standard_levi(label, m)
        for lam_c in _dominant_weights(kind, m, 1):
            lam = Weight.from_ints(lam_c)
            shifted = (lam + r).doubled
            want = [
                (length(w, datum), Weight(tuple(map(operator.sub, w.act_tuple(shifted), r.doubled))))
                for _, w in _kostant_table(datum, levi)
            ]
            assert kostant_cohomology(datum, levi, lam) == want, (kind, m, label, lam_c)


def test_kostant_reps_counts():
    reps = [w for _, w in _kostant_table(B2, standard_levi("M2", 2))]
    assert [length(w, B2) for w in reps] == [0, 1, 2, 3]
    assert _kostant_table(B2, standard_levi("G", 2)) == [(0, WeylElement.identity(2))]
    for datum, label in [(B3, "M1"), (B3, "M12"), (D3, "M2")]:
        levi = standard_levi(label, datum.rank)
        reps = [w for _, w in _kostant_table(datum, levi)]
        levi_pos = set(levi_positive_roots(datum, levi))
        levi_group = [
            w for w in weyl_group(datum) if set(inversion_set(w, datum)) <= levi_pos
        ]
        assert len(levi_group) * len(reps) == len(weyl_group(datum))
        prods = {(wm * wp).signs + (wm * wp).perm for wm in levi_group for wp in reps}
        assert len(prods) == len(weyl_group(datum))  # bijection


def test_kostant_cohomology_entries():
    lam = Weight.from_ints([0, 0, 0])
    entries = kostant_cohomology(B3, standard_levi("M1", 3), lam)
    assert len(entries) == len(_kostant_table(B3, standard_levi("M1", 3)))
    deg0 = [mu for deg, mu in entries if deg == 0]
    assert deg0 == [Weight.from_ints([0, 0, 0])]
    for deg, mu in entries:
        assert levi_is_dominant(B3, standard_levi("M1", 3), mu)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_levi_dominance_reads_the_so_tail_as_the_sub_datum(kind):
    """The SO tail of every weight with doubled coordinates in [-3, 3] is
    dominant for the Levi exactly when `is_dominant` says so on the root
    datum of the tail's rank, 1 to 3, after a dominant GL_2 block or none."""
    seen = set()
    for gl, prefix in ((LeviBlocks((), 0), ()), (LeviBlocks(((0, 1),), 2), (4, 2))):
        for r in (1, 2, 3):
            datum, sub = RootDatum(kind, gl.so_start + r), RootDatum(kind, r)
            for tail in itertools.product(range(-3, 4), repeat=r):
                dominant = rootdata.is_dominant(sub, Weight(tail))
                assert levi_is_dominant(datum, gl, Weight(prefix + tail)) == dominant, (kind, prefix, tail)
                seen.add((r, tail[-1] < 0, dominant))
    # a negative last coordinate: dominant for D (e.g. (1, -1) or (-1)), never for B
    assert ((1, True, True) in seen and (2, True, True) in seen) == (kind == "D")
    assert (3, True, False) in seen


@pytest.mark.parametrize("kind,m", [("B", 2), ("B", 3), ("D", 3)])
def test_kostant_euler_identity_small(kind, m):
    datum = RootDatum(kind, m)
    lams = [(0,) * m, (1,) + (0,) * (m - 1), (1, 1) + (0,) * (m - 2)]
    for label in ("M1", "M2", "M12"):
        for lam in lams:
            assert kostant_euler_identity(datum, standard_levi(label, m), Weight.from_ints(lam))


def _term(e, coeff=1) -> Laurent:
    """coeff x^e, e a doubled exponent tuple."""
    return Laurent(len(e), {tuple(e): coeff})


def _product(f, g) -> Laurent:
    """Schoolbook product of two Laurent polynomials of one rank, on the
    tuple boundary: the reference for Laurent.mul_binomials."""
    out, g_terms = {}, g.terms.items()
    for e1, c1 in f.terms.items():
        for e2, c2 in g_terms:
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Laurent(f.rank, out)


def _binomial_product(m, shift, roots) -> Laurent:
    """e^shift prod_a (1 - e^{-a}) by schoolbook products, roots undoubled."""
    out = _term(shift)
    for a in roots:
        out = _product(out, Laurent(m, {(0,) * m: 1, tuple(-2 * c for c in a): -1}))
    return out


def _gl_character(mu) -> Laurent:
    """The GL_k character of highest weight mu (true coordinates), k <= 2, in
    closed form: x^a on GL_1, sum_{i=0}^{a-b} x^(a-i) y^(b+i) on GL_2."""
    if len(mu) == 1:
        return _term((2 * mu[0],))
    a, b = mu
    assert a >= b, mu
    return Laurent(2, {(2 * (a - i), 2 * (b + i)): 1 for i in range(a - b + 1)})


@lru_cache(maxsize=None)
def _tail_character(kind, doubled) -> Laurent:
    """The SO tail character of the doubled weight, by Freudenthal's formula."""
    return formal_character(RootDatum(kind, len(doubled)), Weight(doubled))


def _kostant_euler_sum(datum, levi, lam) -> Laurent:
    """sum_k (-1)^k ch H^k(n, V_lam), undistributed: per entry, its GL block
    characters (closed form) times its SO tail character (Freudenthal), on
    disjoint coordinates, folded into one accumulator.  The second path of
    kostant_euler_identity, which folds the block alternants instead and
    forms no character."""
    entries = kostant_cohomology(datum, levi, lam)
    kind, m, start, gl = datum.kind, datum.rank, levi.so_start, levi.gl_blocks
    blocks = [(b[0], len(b)) for b in gl] + ([(start, m - start)] if start < m else [])

    def factors():
        for deg, mu in entries:
            d = mu.doubled
            assert len(d) == m and mu.is_integral
            chars = [_gl_character(tuple([d[i] // 2 for i in b])) for b in gl]
            if start < m:
                chars.append(_tail_character(kind, d[start:]))
            yield -1 if deg % 2 else 1, chars

    return Laurent.sum_of_block_products(m, blocks, factors())


def _undistributed_lhs(datum, levi, lam) -> Laurent:
    """The Euler sum times the full D_M, as the schoolbook product on the
    tuple boundary, one binomial at a time: p (1 - e^-a) = p - p e^-a."""
    r = rho(datum).doubled
    terms = {tuple(map(operator.add, e, r)): c for e, c in _kostant_euler_sum(datum, levi, lam).terms.items()}
    for a in levi_positive_roots(datum, levi):
        out = dict(terms)
        for e, c in terms.items():
            e = tuple(x - 2 * y for x, y in zip(e, a))
            out[e] = out.get(e, 0) - c
        terms = out
    return Laurent(datum.rank, terms)


def _recorded_folds(monkeypatch) -> list:
    """Patch Laurent.sum_of_block_products to record, per call, its blocks,
    its entries (c_j, [p_j1, ...]) and its result."""
    real = Laurent.sum_of_block_products
    calls = []

    def record(cls, rank, blocks, entries):
        entries = [(c, list(factors)) for c, factors in entries]
        out = real(rank, blocks, entries)
        calls.append((list(blocks), entries, out))
        return out

    monkeypatch.setattr(Laurent, "sum_of_block_products", classmethod(record))
    return calls


def _koszul_alternation(datum, levi) -> Laurent:
    """K = prod over nilradical roots of (1 - e^{-a})."""
    levi_pos = set(levi_positive_roots(datum, levi))
    nilradical = [a for a in datum.positive_roots() if a not in levi_pos]
    return _binomial_product(datum.rank, (0,) * datum.rank, nilradical)


def _all_levis(m):
    """Every standard Levi: GL blocks tiling 0..s-1 in order, then the SO tail."""
    for s in range(m + 1):
        for cuts in itertools.product((False, True), repeat=max(s - 1, 0)):
            blocks, start = [], 0
            for i, cut in enumerate(cuts, 1):
                if cut:
                    blocks.append(tuple(range(start, i)))
                    start = i
            if s:
                blocks.append(tuple(range(start, s)))
            yield LeviBlocks(tuple(blocks), s)


@pytest.mark.parametrize("kind,m", [("B", 2), ("B", 3), ("D", 2), ("D", 3)])
def test_kostant_identity_matches_unreduced_form(kind, m):
    # LHS * A_rho = A_{lam+rho} * K, the identity before D_M cancels K
    datum = RootDatum(kind, m)
    a_rho = weyl_numerator(datum, Weight((0,) * m))
    for label in ("M1", "M2", "M12"):
        levi = standard_levi(label, m)
        koszul = _koszul_alternation(datum, levi)
        for lam_c in _dominant_weights(kind, m, 2):
            lam = Weight.from_ints(lam_c)
            lhs = _product(_kostant_euler_sum(datum, levi, lam), a_rho)
            unreduced = lhs == _product(weyl_numerator(datum, lam), koszul)
            assert unreduced and kostant_euler_identity(datum, levi, lam), (kind, m, label, lam_c)


def _placed(m, offset, p) -> Laurent:
    """The Laurent polynomial p on coordinates offset .. of rank m."""
    pad = (0,) * (m - offset - p.rank)
    return Laurent(m, {(0,) * offset + e + pad: c for e, c in p.terms.items()})


def test_levi_denominator_times_koszul_is_weyl_denominator():
    # D_M, and its split over the Levi blocks whose alternants
    # kostant_euler_identity folds, against the schoolbook product: each
    # block's D_b, from its shift and its own positive roots (e_i - e_j on a
    # GL block, the tail datum's on the tail), the shift rho restricted to
    # the block and on the tail the tail's rho
    for kind in ("B", "D"):
        for m in (1, 2, 3, 4):
            datum = RootDatum(kind, m)
            r = rho(datum).doubled
            a_rho = weyl_numerator(datum, Weight((0,) * m))
            levis = list(_all_levis(m))
            assert len(levis) == 2 ** m
            for levi in levis:
                levi_roots = levi_positive_roots(datum, levi)
                d_m = _term((0,) * m).mul_binomials(r, _doubled(levi_roots))
                assert d_m == _binomial_product(m, r, levi_roots), (kind, m, levi)
                assert _product(d_m, _koszul_alternation(datum, levi)) == a_rho, (kind, m, levi)
                split = _term((0,) * m)
                blocks = _levi_blocks(datum, levi)
                assert [(o, n) for o, n, _ in blocks] == [(b[0], len(b)) for b in levi.gl_blocks] + (
                    [(levi.so_start, m - levi.so_start)] if levi.so_start < m else []
                )
                for offset, size, shift in blocks:
                    assert shift == r[offset : offset + size]
                    if offset < levi.so_start:
                        roots = _gl_roots(size)
                    else:
                        tail_datum = RootDatum(kind, size)
                        assert shift == rho(tail_datum).doubled
                        roots = tail_datum.positive_roots()
                    split = _product(split, _placed(m, offset, _binomial_product(size, shift, roots)))
                assert split == d_m, (kind, m, levi)


def _gl_roots(k):
    """The positive roots e_i - e_j, i < j, of GL_k."""
    return [tuple((x == i) - (x == j) for x in range(k)) for i, j in itertools.combinations(range(k), 2)]


def _identity_cases(max_rank, max_coord):
    for kind in ("B", "D"):
        for m in range(2, max_rank + 1):
            for label in ("M1", "M2", "M12"):
                for lam_c in _dominant_weights(kind, m, max_coord):
                    yield RootDatum(kind, m), standard_levi(label, m), Weight.from_ints(lam_c)


def test_distributed_left_side_is_the_undistributed_product(monkeypatch):
    """On every B/D case of rank 2-4 with max-coord 2, the left side that
    kostant_euler_identity folds from block factors equals the Euler sum
    times the full D_M, both sides of the identity hold, and the verdict is
    True."""
    folds = _recorded_folds(monkeypatch)
    n = 0
    for datum, levi, lam in _identity_cases(4, 2):
        assert kostant_euler_identity(datum, levi, lam), (datum, levi, lam)
        (_, _, lhs), = folds
        assert lhs == _undistributed_lhs(datum, levi, lam) == weyl_numerator(datum, lam), (datum, levi, lam)
        folds.clear()
        n += 1
    assert n == 222  # the Kostant identities of `verify kostant` at its acceptance parameters


def test_each_block_factor_is_character_times_block_denominator(monkeypatch):
    """Every entry the identity folds is (-1)^deg and, per block, the block
    character of the Kostant weight times the block's own Weyl denominator,
    built here from the GL_2 root e_i - e_j and the tail's root datum:
    e^rho|b (1 - e^-(e_i - e_j)) on GL_2, e^rho_i on GL_1, and e^rho_tail
    prod_{a in Phi_tail+} (1 - e^-a), which makes the tail factor its Weyl
    numerator.  A second call folds the same cached factor objects."""
    folds = _recorded_folds(monkeypatch)
    for datum, levi, lam in _identity_cases(4, 1):
        m, start, r = datum.rank, levi.so_start, rho(datum).doubled
        assert kostant_euler_identity(datum, levi, lam) and kostant_euler_identity(datum, levi, lam)
        (blocks, entries, _), (_, again, _) = folds
        folds.clear()
        tail_datum = RootDatum(datum.kind, m - start) if start < m else None
        assert blocks == [(b[0], len(b)) for b in levi.gl_blocks] + ([(start, m - start)] if tail_datum else [])
        cohomology = kostant_cohomology(datum, levi, lam)
        assert len(entries) == len(again) == len(cohomology)
        for (c, factors), (_, twice), (deg, mu) in zip(entries, again, cohomology):
            assert c == (-1) ** deg
            assert all(f is g for f, g in zip(factors, twice, strict=True))
            d = mu.doubled
            for b, f in zip(levi.gl_blocks, factors):
                gl_roots = [(1, -1)] if len(b) == 2 else []
                d_b = _binomial_product(len(b), tuple(r[i] for i in b), gl_roots)
                assert f == _product(_gl_character(tuple(d[i] // 2 for i in b)), d_b)
            if tail_datum:
                tail = Weight(d[start:])
                d_b = _binomial_product(tail_datum.rank, rho(tail_datum).doubled, tail_datum.positive_roots())
                assert factors[-1] == _product(formal_character(tail_datum, tail), d_b)
                assert factors[-1] == weyl_numerator(tail_datum, tail)


def _raised_degree_zero_weight(real):
    """kostant_cohomology with the degree-0 Levi highest weight raised by e_1;
    it stays Levi-dominant."""

    def corrupted(datum, levi, lam):
        (deg, mu), *rest = real(datum, levi, lam)
        return [(deg, Weight((mu.doubled[0] + 2,) + mu.doubled[1:]))] + rest

    return corrupted


def test_kostant_identity_rejects_corrupted_weight(monkeypatch):
    real = rootdata.kostant_cohomology
    corrupted = _raised_degree_zero_weight(real)
    cases = [(datum, label, lam_c) for datum in (B2, B3, D3) for label in ("M1", "M2", "M12")
             for lam_c in _dominant_weights(datum.kind, datum.rank, 1)]
    for datum, label, lam_c in cases:
        levi, lam = standard_levi(label, datum.rank), Weight.from_ints(lam_c)
        assert kostant_euler_identity(datum, levi, lam)
        monkeypatch.setattr(rootdata, "kostant_cohomology", corrupted)
        assert levi_is_dominant(datum, levi, rootdata.kostant_cohomology(datum, levi, lam)[0][1])
        assert not kostant_euler_identity(datum, levi, lam), (datum, label, lam_c)
        monkeypatch.setattr(rootdata, "kostant_cohomology", real)


@pytest.mark.parametrize("kind,label,lam_c", [("B", "M12", (1, 0, 0, 0, 0)), ("D", "M1", (2, 1, 1, 0, 0))])
def test_kostant_euler_identity_rank_five(kind, label, lam_c):
    datum = RootDatum(kind, 5)
    assert kostant_euler_identity(datum, standard_levi(label, 5), Weight.from_ints(lam_c))


def test_kostant_identity_rank_five_rejects_corrupted_weight(monkeypatch):
    datum, levi, lam = RootDatum("D", 5), standard_levi("M12", 5), Weight.from_ints((2, 1, 1, 0, 0))
    assert kostant_euler_identity(datum, levi, lam)
    monkeypatch.setattr(rootdata, "kostant_cohomology", _raised_degree_zero_weight(rootdata.kostant_cohomology))
    assert levi_is_dominant(datum, levi, rootdata.kostant_cohomology(datum, levi, lam)[0][1])
    assert not kostant_euler_identity(datum, levi, lam)


def levi_formal_character(datum, levi, mu) -> Laurent:
    """The reference for one term of _kostant_euler_sum: the formal
    character of the Levi irreducible with highest weight mu, the product of
    its GL block characters and its SO tail character, placed on their
    coordinates on the tuple boundary."""
    m, start = datum.rank, levi.so_start
    assert mu.is_integral
    c = [x // 2 for x in mu.doubled]
    parts = [(b, _gl_character(tuple(c[i] for i in b))) for b in levi.gl_blocks]
    if start < m:
        parts.append((tuple(range(start, m)), _tail_character(datum.kind, mu.doubled[start:])))
    terms = {(0,) * m: 1}
    for coords, poly in parts:
        out = {}
        for e, c1 in terms.items():
            for f, c2 in poly.terms.items():
                placed = list(e)
                for i, x in zip(coords, f):
                    placed[i] = x
                out[tuple(placed)] = c1 * c2
        terms = out
    return Laurent(m, terms)


def _euler_sum_reference(datum, levi, lam) -> Laurent:
    """sum over kostant_cohomology of (-1)^deg levi_formal_character."""
    acc = {}
    for deg, mu in kostant_cohomology(datum, levi, lam):
        for e, c in levi_formal_character(datum, levi, mu).terms.items():
            acc[e] = acc.get(e, 0) + (-c if deg % 2 else c)
    return Laurent(datum.rank, acc)


def _euler_sum_cases():
    for kind in ("B", "D"):
        for m in (2, 3):
            for label in ("M1", "M2", "M12"):
                for lam_c in _dominant_weights(kind, m, 2):
                    yield kind, m, label, lam_c
    for kind, m, lam_c in (("B", 2, (2, 1)), ("B", 3, (1, 1, 0)), ("D", 3, (2, 1, -1)), ("D", 4, (1, 1, 0, 0))):
        yield kind, m, "G", lam_c
    for label in ("M1", "M2", "M12"):
        for last in (1, -1):
            yield "D", 4, label, (2, 1, 1, last)


def test_kostant_euler_sum_matches_the_levi_characters():
    seen = Counter()
    for kind, m, label, lam_c in _euler_sum_cases():
        datum, levi, lam = RootDatum(kind, m), standard_levi(label, m), Weight.from_ints(lam_c)
        got = _kostant_euler_sum(datum, levi, lam)
        assert got == _euler_sum_reference(datum, levi, lam), (kind, m, label, lam_c)
        seen[label] += 1
    assert seen["G"] == 4 and min(seen[label] for label in ("M1", "M2", "M12")) > 30


def test_levi_character_of_the_whole_group_is_its_character():
    lam = Weight.from_ints((1, 1))
    levi = standard_levi("G", 2)
    assert levi_formal_character(B2, levi, lam) == formal_character(B2, lam)
    assert _kostant_euler_sum(B2, levi, lam) == formal_character(B2, lam)


@pytest.mark.parametrize(
    "datum,label,doubled",
    [
        (B3, "M12", (1, 0, 0)),  # not integral
        (B3, "M1", (0, 2, 0)),  # the GL_2 block has mu_1 < mu_2
        # non-dominant tails whose shifted weight is regular, so that the
        # tail's alternant is that of a dominant tail up to sign, not 0
        (B3, "M2", (0, 0, 4)),  # the B2 tail has mu_2 < mu_3
        (RootDatum("D", 4), "M1", (2, 2, 0, -4)),  # the D2 tail has mu_3 + mu_4 < 0
    ],
    ids=["non-integral", "gl2-block", "B-tail", "D-tail"],
)
def test_kostant_identity_refuses_an_entry_its_characters_cannot_take(monkeypatch, datum, label, doubled):
    """Each of the four checks of a Kostant entry's weight, read off its
    doubled coordinates: a weight that fails one, in the first entry or in
    the last, after a passing call has filled the alternant caches, is
    refused on every call, not summed as some other character or as none.
    A non-dominant tail is fed to the identity itself: its alternant is a
    nonzero Laurent polynomial, so only the identity's own tail check
    refuses it."""
    levi, lam = standard_levi(label, datum.rank), Weight((0,) * datum.rank)
    assert kostant_euler_identity(datum, levi, lam)
    tail = doubled[levi.so_start :]
    if not rootdata._dominant_coords(datum.kind, tail):
        assert rootdata._weyl_numerator_cached(datum.kind, len(tail), tail) != Laurent(len(tail))
    real = rootdata.kostant_cohomology
    for where in (0, -1):

        def corrupted(datum, levi, lam):
            entries = real(datum, levi, lam)
            entries[where] = (entries[where][0], Weight(doubled))
            return entries

        monkeypatch.setattr(rootdata, "kostant_cohomology", corrupted)
        for _ in range(2):
            with pytest.raises(ExactDomainError):
                kostant_euler_identity(datum, levi, lam)


def _unshifted_gl_blocks(real):
    """_levi_blocks with every GL block's shift 0: the GL alternant of mu
    instead of mu + rho."""

    def blocks(datum, levi):
        table = real(datum, levi)
        n = len(levi.gl_blocks)
        return tuple((o, size, (0,) * size) for o, size, _ in table[:n]) + table[n:]

    return blocks


def _reversed_gl2_term_positive(real):
    """_gl_alternant with the reversed term of a GL_2 block added, not subtracted."""

    def alternant(v):
        p = real(v)
        return Laurent(len(v), {e: abs(c) for e, c in p.terms.items()}) if len(v) == 2 else p

    return alternant


def _tail_with_ambient_rho(real, datum):
    """_weyl_numerator_cached with the ambient rho's leading coordinates in
    place of a tail's own rho; the ambient numerator as it is."""
    r = rho(datum).doubled

    def numerator(kind, n, doubled):
        if n == datum.rank:
            return real(kind, n, doubled)
        shift = map(operator.sub, r[:n], rho(RootDatum(kind, n)).doubled)
        return real(kind, n, tuple(map(operator.add, doubled, shift)))

    return numerator


def _gl_blocks_stay_dominant(datum, levi, lam):
    """Whether every Kostant entry is strictly decreasing on each GL block,
    so that its unshifted GL alternant is formed, not refused."""
    return all(
        all(mu.doubled[i] > mu.doubled[j] for b in levi.gl_blocks for i, j in zip(b, b[1:]))
        for _, mu in kostant_cohomology(datum, levi, lam)
    )


@pytest.mark.parametrize("mutation", ["gl-without-rho", "gl2-reversed-sign", "tail-ambient-rho"])
def test_kostant_identity_fails_on_a_wrong_block_alternant(monkeypatch, mutation):
    """Negative controls of the block alternants: the identity returns False
    on every B/D case of rank 2-4 with max-coord 1 that the mutation
    reaches, when a GL block's alternant is built from mu instead of
    mu + rho (the cases whose entries stay strictly decreasing on the GL
    blocks), when the reversed term of a GL_2 alternant has the sign +1
    (the M1 cases), or when a tail's alternant takes the ambient rho's
    leading coordinates instead of the tail's rho (the cases with a tail
    shorter than the datum)."""
    checked = Counter()
    for datum, levi, lam in _identity_cases(4, 1):
        if mutation == "gl-without-rho":
            if not _gl_blocks_stay_dominant(datum, levi, lam):
                continue
            monkeypatch.setattr(rootdata, "_levi_blocks", _unshifted_gl_blocks(rootdata._levi_blocks))
        elif mutation == "gl2-reversed-sign":
            if levi != standard_levi("M1", datum.rank):
                continue
            monkeypatch.setattr(rootdata, "_gl_alternant", _reversed_gl2_term_positive(rootdata._gl_alternant))
        else:
            if levi.so_start == datum.rank:
                continue
            monkeypatch.setattr(
                rootdata, "_weyl_numerator_cached", _tail_with_ambient_rho(rootdata._weyl_numerator_cached, datum)
            )
        assert kostant_euler_identity(datum, levi, lam) is False, (mutation, datum, levi, lam)
        monkeypatch.undo()
        assert kostant_euler_identity(datum, levi, lam), (datum, levi, lam)
        checked[levi] += 1
    labels = {standard_levi(label, 2): label for label in ("M1", "M2", "M12")}
    want = {
        "gl-without-rho": {"M2": 27, "M1": 3, "M12": 27},
        "gl2-reversed-sign": {"M1": 27},
        "tail-ambient-rho": {"M2": 27, "M1": 20, "M12": 20},
    }
    assert {labels[levi]: n for levi, n in checked.items()} == want[mutation]


def test_weyl_numerator_denominator_identity():
    # sum eps(w) e^{w(lam+rho)} = e^rho ch(lam) prod (1 - e^-a), formally, with
    # ch(lam) from Freudenthal's multiplicities and the denominator by
    # schoolbook products: integral and spin weights of rank 1-3, whose
    # dimension is Weyl's
    n = 0
    for kind in ("B", "D"):
        for m in (1, 2, 3):
            datum = RootDatum(kind, m)
            denominator = _binomial_product(m, rho(datum).doubled, datum.positive_roots())
            for half in (0, 1):
                for lam_c in _dominant_weights(kind, m, 2):
                    # a spin weight adds 1/2 to each |coordinate|
                    lam = Weight(tuple(2 * c + (-half if c < 0 else half) for c in lam_c))
                    ch = formal_character(datum, lam)
                    assert weyl_numerator(datum, lam) == _product(ch, denominator), (kind, m, lam)
                    assert sum(ch.terms.values()) == _weyl_dimension(datum, lam), (kind, m, lam)
                    n += 1
    assert n == 94


def _weyl_dimension(datum, lam) -> Fraction:
    """prod_{a>0} <lam + rho, a> / <rho, a>."""
    shifted = tuple(map(operator.add, lam.doubled, rho(datum).doubled))
    out = Fraction(1)
    for a in datum.positive_roots():
        out *= Fraction(sum(map(operator.mul, shifted, a)), sum(map(operator.mul, rho(datum).doubled, a)))
    return out


def test_verify_characters_fails_with_freudenthal_without_rho(monkeypatch, capsys):
    """Negative control of `verify characters`: Freudenthal's recursion with
    rho dropped.  The suite at its acceptance parameters does not pass, and
    case by case the mutated character times Weyl's denominator is not the
    Weyl numerator, or its recursion leaves a remainder, at every weight with
    more than one dominant weight: all but lam = 0 and the D vector weights
    e_1, whose characters are one W-orbit."""
    real = rootdata._weight_multiplicities

    def without_rho(kind, lam, r):
        return real(kind, lam, (0,) * len(r))

    monkeypatch.setattr(rootdata, "_weight_multiplicities", without_rho)
    assert cli_main(["verify", "characters", *ACCEPTANCE["characters"]]) != 0
    assert '"status":"pass"' not in capsys.readouterr().out
    outcomes = Counter()
    for kind in ("B", "D"):
        for m in (2, 3, 4):
            datum = RootDatum(kind, m)
            r, roots = rho(datum).doubled, _doubled(datum.positive_roots())
            for lam_c in _dominant_weights(kind, m, 2):
                lam = Weight.from_ints(lam_c)
                single = sum(rootdata._dominant_coords(kind, mu) for mu in real(kind, lam.doubled, r)) == 1
                try:
                    ok = formal_character(datum, lam).mul_binomials(r, roots) == weyl_numerator(datum, lam)
                except ExactDomainError:
                    ok = None
                assert (ok is True) == single, (kind, lam_c, ok)
                outcomes["single" if single else "wrong" if ok is False else "refused"] += 1
    assert outcomes == {"single": 9, "wrong": 29, "refused": 36}


def test_weight_invariants():
    w = Weight((3, 1))
    assert not w.is_integral
    assert half_coords(w) == (Fraction(3, 2), Fraction(1, 2))
    assert (w + w).is_integral
    assert w.pairing_doubled((1, 1)) == 4


def test_weight_of_the_wrong_rank_is_refused():
    # once truncated to the shared coordinates: B2's character of (2, 1), a
    # passing identity, and an IndexError for a rank-2 weight on B3
    long, short = Weight.from_ints((2, 1, 0)), Weight.from_ints((2, 1))
    with pytest.raises(ExactDomainError):
        rootdata.is_dominant(B2, long)
    with pytest.raises(ExactDomainError):
        formal_character(B2, long)
    with pytest.raises(ExactDomainError):
        kostant_euler_identity(B2, standard_levi("M2", 2), long)
    with pytest.raises(ExactDomainError):
        kostant_euler_identity(B3, standard_levi("M2", 3), short)
    with pytest.raises(ExactDomainError):
        kostant_cohomology(B3, standard_levi("M1", 3), short)


def test_weight_arithmetic_refuses_a_length_mismatch():
    w, v = Weight.from_ints((2, 1, 0)), Weight.from_ints((1, 1))
    for op in (lambda: w + v, lambda: v + w, lambda: w.pairing_doubled((1, 1)), lambda: w.pairing_doubled((1, 1, 0, 0))):
        with pytest.raises(ExactDomainError):
            op()
    assert w.pairing_doubled((1, 1, 0)) == 6 and w.pairing_doubled((2, 0, 0)) == 8
