import operator
import random
import time
from fractions import Fraction

import pytest

from endolab.errors import ExactDomainError, ResourceLimitError
from endolab.laurent import W, Laurent, _pack
from endolab.rootdata import _gl_block_character

LIMIT = 1 << (W - 1)  # every exponent satisfies |e| < LIMIT


def _product(f, g):
    """Schoolbook product on the tuple boundary: the reference for
    Laurent.mul_binomials."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Laurent(f.rank, out)


def _denominator(shift, roots):
    """e^shift prod_a (1 - e^-a) by schoolbook products."""
    rank = len(shift)
    out = Laurent.monomial(shift)
    for a in roots:
        out = _product(out, Laurent(rank, {(0,) * rank: 1, tuple(-c for c in a): -1}))
    return out


def _random_poly(rng, rank, n):
    exps = (tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(n))
    return Laurent(rank, {e: rng.randint(-4, 4) for e in exps})


def _random_roots(rng, rank, n):
    roots = (tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(n))
    return [a for a in roots if any(a)]


def test_rank_one_q_arithmetic():
    # rank one: Z[q^(1/2), q^(-1/2)] keyed by the doubled exponent
    q = Laurent.monomial((1,))  # q^(1/2)
    assert q.mul_binomials((1,), []) == Laurent.monomial((2,))
    assert Laurent.sum_of_block_products(1, [(0, 1)], [(1, [q]), (1, [q])]).terms == {(1,): 2}
    assert Laurent.sum_of_block_products(1, [(0, 1)], [(1, [q]), (-1, [q])]) == Laurent(1)
    # q^(1/2) (1 - q^-1) = q^(1/2) - q^(-1/2)
    assert q.mul_binomials((0,), [(2,)]) == Laurent(1, {(1,): 1, (-1,): -1})


def test_divide_exact_quotients():
    # x - 1 = x (1 - x^-1)
    x_minus_1 = ((1,), [(1,)])
    assert Laurent(1, {(2,): 1, (0,): -1}).divide_binomials(*x_minus_1) == Laurent(1, {(1,): 1, (0,): 1})
    assert Laurent(1).divide_binomials(*x_minus_1) == Laurent(1)
    halves = Laurent(1, {(1,): Fraction(1, 2), (0,): Fraction(-1, 2)})
    assert halves.divide_binomials(*x_minus_1) == Laurent.monomial((0,), Fraction(1, 2))
    # (x - y)(x^-1 + 2y^3) in two variables, x - y = x (1 - x^-1 y)
    x_minus_y = ((1, 0), [(1, -1)])
    q = Laurent(2, {(-1, 0): 1, (0, 3): 2})
    assert _product(q, _denominator(*x_minus_y)).divide_binomials(*x_minus_y) == q
    # a gap in the support: (1 - x^-5) / (1 - x^-1) = 1 + x^-1 + ... + x^-4
    assert Laurent(1, {(0,): 1, (-5,): -1}).divide_binomials((0,), [(1,)]) == Laurent(
        1, {(-i,): 1 for i in range(5)}
    )


def test_divide_exact_random_products():
    # multiply then divide round trips; ranks 4 and 5 pack more digits per key
    rng = random.Random(4)
    for rank in range(1, 6):
        for _ in range(40):
            q = _random_poly(rng, rank, rng.randint(0, 8))
            roots = _random_roots(rng, rank, rng.randint(0, 4))
            shift = tuple(rng.randint(-3, 3) for _ in range(rank))
            assert q.mul_binomials(shift, roots).divide_binomials(shift, roots) == q, (q, shift, roots)


def test_mul_binomials_matches_the_schoolbook_product():
    rng = random.Random(5)
    for rank in range(1, 6):
        for _ in range(30):
            p = _random_poly(rng, rank, rng.randint(0, 8))
            roots = _random_roots(rng, rank, rng.randint(0, 4))
            shift = tuple(rng.randint(-3, 3) for _ in range(rank))
            assert p.mul_binomials(shift, roots) == _product(p, _denominator(shift, roots)), (p, shift, roots)


@pytest.mark.parametrize(
    "num,den",
    [
        # 1 / (1 - x^-2): the quotient would run down the string forever
        (Laurent(1, {(0,): 1}), ((0,), [(2,)])),
        # one string sums to 0 and divides; the other, {(2, 0)}, does not
        (Laurent(2, {(0, 0): 1, (0, -4): -1, (2, 0): 1}), ((0, 0), [(0, 2)])),
        # x^0 and x^2 are congruent mod the packed root (0, 2), on different strings
        (Laurent(2, {(0, 0): 1, (2, 0): -1}), ((0, 0), [(0, 2)])),
    ],
)
def test_divide_exact_remainder_raises_fast(num, den):
    t0 = time.perf_counter()
    with pytest.raises(ExactDomainError):
        num.divide_binomials(*den)
    assert time.perf_counter() - t0 < 0.5


def test_binomial_strings_are_not_residues_of_the_packed_root():
    # _pack((2, 0)) = 2 * 2^16 is a multiple of _pack((0, 2)) = 2, so the two
    # keys of p share a residue mod the root while lying on different strings
    a = (0, 2)
    assert _pack((2, 0)) % _pack(a) == _pack((0, 0)) % _pack(a)
    p = Laurent(2, {(0, 0): 1, (2, 0): -1})
    t0 = time.perf_counter()
    assert p.mul_binomials((0, 0), [a]).divide_binomials((0, 0), [a]) == p
    far = Laurent(2, {(LIMIT - 5, 0): 1, (5 - LIMIT, 0): 3})
    assert far.mul_binomials((0, 0), [a]).divide_binomials((0, 0), [a]) == far
    assert time.perf_counter() - t0 < 0.5


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        Laurent.monomial((0,)).divide_binomials((0,), [(0,)])
    assert Laurent.monomial((0, 0)).mul_binomials((0, 0), [(0, 0)]) == Laurent(2)


def test_packed_int_order_is_lex_order():
    rng = random.Random(15)
    for rank in range(1, 6):
        vectors = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(200)]
        vectors += [tuple(rng.choice((-LIMIT + 1, -1, 0, 1, LIMIT - 1)) for _ in range(rank)) for _ in range(200)]
        assert sorted(vectors, key=_pack) == sorted(vectors), rank
        assert len({_pack(v) for v in vectors}) == len(set(vectors)), rank


def test_terms_round_trip():
    rng = random.Random(16)
    for rank in range(1, 6):
        terms = {tuple(rng.randint(-LIMIT + 1, LIMIT - 1) for _ in range(rank)): rng.randint(1, 9) for _ in range(30)}
        p = Laurent(rank, terms)
        assert p.terms == terms
        assert Laurent(rank, p.terms) == p
        assert max(p.terms) == max(terms)
    assert Laurent(2, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}
    assert repr(Laurent(2, {(0, 1): 2, (-1, 0): 1})) == "Laurent(1*x^(-1, 0) + 2*x^(0, 1))"


@pytest.mark.parametrize("exp", [(LIMIT,), (0, -LIMIT), (1, 2, 3, 4, 1 << 40)])
def test_exponent_outside_the_packed_range_is_refused(exp):
    with pytest.raises(ResourceLimitError):
        Laurent(len(exp), {exp: 1})
    with pytest.raises(ResourceLimitError):
        Laurent.monomial(exp)


def test_product_outside_the_packed_range_is_refused():
    big = Laurent.monomial((0, LIMIT // 2))
    with pytest.raises(ResourceLimitError):
        big.mul_binomials((0, LIMIT // 2), [])
    with pytest.raises(ResourceLimitError):
        Laurent.monomial((0, LIMIT - 2)).mul_binomials((0, 0), [(0, 1), (0, 1)])
    top = Laurent.monomial((0, LIMIT - 1))
    with pytest.raises(ResourceLimitError):
        top.divide_binomials((0, 1 - LIMIT), [])
    # the largest exponent in range still multiplies and divides
    edge = Laurent.monomial((0, LIMIT - 2)).mul_binomials((0, 1), [])
    assert edge.terms == {(0, LIMIT - 1): 1}
    assert edge.divide_binomials((0, 0), []) == edge
    assert Laurent.monomial((0, LIMIT - 3)).mul_binomials((0, 0), [(0, 2)]).divide_binomials((0, 0), [(0, 2)]) == (
        Laurent.monomial((0, LIMIT - 3))
    )


def test_string_bases_outside_the_packed_range_are_refused():
    # base = e - floor(e_0 / 2) * (2, 0, 2) reaches (0, 1, -32768) and
    # (0, 0, 32768), which pack to one int; the division refuses before that
    p = Laurent(3, {(16384, 1, -16384): 1, (-16384, 0, 16384): -1})
    with pytest.raises(ResourceLimitError):
        p.divide_binomials((0, 0, 0), [(2, 0, 2)])
    small = Laurent(3, {(4, 1, -4): 1, (-4, 0, 4): -1})
    assert small.mul_binomials((0, 0, 0), [(2, 0, 2)]).divide_binomials((0, 0, 0), [(2, 0, 2)]) == small


def test_exponent_length_must_be_the_rank():
    with pytest.raises(ExactDomainError):
        Laurent(2, {(1,): 1})
    with pytest.raises(ExactDomainError):
        Laurent(1, {(1, 0): 1})
    with pytest.raises(ExactDomainError):
        Laurent.monomial((0, 0)).mul_binomials((0,), [])
    with pytest.raises(ExactDomainError):
        Laurent.monomial((0, 0)).mul_binomials((0, 0), [(1, 0), (1,)])
    with pytest.raises(ExactDomainError):
        Laurent.monomial((0, 0)).divide_binomials((0, 0, 0), [])
    with pytest.raises(ExactDomainError):
        Laurent.monomial((0, 0)).divide_binomials((0, 0), [(1, 0, 0)])
    with pytest.raises(ExactDomainError):
        Laurent.sum_of_block_products(2, [(0, 2)], [(1, [Laurent.monomial((0, 0))]), (1, [Laurent.monomial((0, 0, 0))])])


def test_equality_and_hash_compare_the_rank():
    assert Laurent(1) != Laurent(2)
    assert Laurent.monomial((0,)) != Laurent.monomial((0, 0))
    assert len({Laurent.monomial((0,)), Laurent.monomial((0, 0)), Laurent(1, {(0,): 1})}) == 2
    p = Laurent(2, {(1, -1): 3, (0, 2): -1})
    q = Laurent.sum_of_block_products(2, [(0, 2)], [(1, [Laurent(2, {(0, 2): -1})]), (3, [Laurent.monomial((1, -1))])])
    assert p == q and hash(p) == hash(q)


def _blocks(rank, blocks, factors):
    """The product of one choice of factors, one per block."""
    return Laurent.sum_of_block_products(rank, blocks, [(1, factors)])


def test_sum_of_block_products_matches_the_product():
    f = Laurent(2, {(2, 0): 1, (1, 1): -2, (0, -3): 5})
    g = Laurent(1, {(1,): 1, (-1,): Fraction(1, 2)})
    blocks = _blocks(4, [(0, 2), (3, 1)], [f, g])
    embedded = Laurent(4, {a + (0,) + b: c * d for a, c in f.terms.items() for b, d in g.terms.items()})
    assert blocks == embedded
    assert blocks == _product(
        Laurent(4, {a + (0, 0): c for a, c in f.terms.items()}), Laurent(4, {(0, 0, 0) + b: d for b, d in g.terms.items()})
    )
    # the coefficient seeds the product
    assert Laurent.sum_of_block_products(4, [(0, 2), (3, 1)], [(Fraction(-2, 3), [f, g])]) == _product(
        blocks, Laurent.monomial((0, 0, 0, 0), Fraction(-2, 3))
    )
    # no blocks: the empty product, 1
    assert _blocks(3, [], []) == Laurent.monomial((0, 0, 0))
    # overlapping blocks, and a block past the rank
    with pytest.raises(ExactDomainError):
        _blocks(3, [(0, 2), (1, 1)], [f, g])
    with pytest.raises(ExactDomainError):
        _blocks(3, [(2, 2)], [f])
    # a factor whose rank is not its block's size, and a factor too few
    with pytest.raises(ExactDomainError):
        _blocks(3, [(0, 1), (1, 2)], [f, g])
    with pytest.raises(ExactDomainError):
        _blocks(4, [(0, 2), (3, 1)], [f])


def test_sum_of_block_products_matches_the_sum():
    f = Laurent(2, {(2, 0): 1, (1, 1): -2})
    g = Laurent(2, {(1, 1): -2, (0, 0): 4})
    whole = [(0, 2)]
    assert Laurent.sum_of_block_products(2, whole, [(1, [f]), (-1, [g])]) == Laurent(2, {(2, 0): 1, (0, 0): -4})
    assert Laurent.sum_of_block_products(2, whole, [(1, [f]), (-1, [f])]) == Laurent(2)
    assert Laurent.sum_of_block_products(2, whole, []) == Laurent(2)
    with pytest.raises(ExactDomainError):
        Laurent.sum_of_block_products(3, [(0, 3)], [(1, [f])])
    # products on split blocks, summed: (x + 1/x)(y - 1/y) - xy, x and y of
    # doubled exponent 1, cancels the xy term
    x = Laurent.monomial((1,))
    plus, minus = Laurent(1, {(1,): 1, (-1,): 1}), Laurent(1, {(1,): 1, (-1,): -1})
    got = Laurent.sum_of_block_products(2, [(0, 1), (1, 1)], [(1, [plus, minus]), (-1, [x, x])])
    assert got == Laurent(2, {(-1, 1): 1, (1, -1): -1, (-1, -1): -1})


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (3, 1), (2, -2), (-1, -4)])
def test_gl2_closed_form_is_the_weyl_quotient(a, b):
    # (x^{a+1} y^b - x^b y^{a+1}) / (x - y), with x - y = x (1 - x^-1 y), doubled
    num = Laurent(2, {(2 * (a + 1), 2 * b): 1, (2 * b, 2 * (a + 1)): -1})
    assert _gl_block_character(2, (a, b)) == num.divide_binomials((2, 0), [(2, -2)])
    assert sum(_gl_block_character(2, (a, b)).terms.values()) == a - b + 1


def test_gl2_closed_form_refuses_a_non_dominant_weight():
    # the closed form would be the empty sum, 0, without the check
    with pytest.raises(ExactDomainError):
        _gl_block_character(2, (0, 1))
    with pytest.raises(ExactDomainError):
        _gl_block_character(2, (1, 3))
