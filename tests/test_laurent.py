import random
import time
from fractions import Fraction

import pytest

from endolab.errors import ExactDomainError, ResourceLimitError
from endolab.laurent import W, Laurent, _pack

LIMIT = 1 << (W - 1)  # every exponent satisfies |e| < LIMIT


def test_rank_one_q_arithmetic():
    # rank one: Z[q^(1/2), q^(-1/2)] keyed by the doubled exponent
    q = Laurent.monomial((1,))  # q^(1/2)
    assert q * q == Laurent.monomial((2,))
    assert (q + q).terms == {(1,): 2}
    assert (q + (-q)).is_zero()


def test_divide_exact_quotients():
    x_minus_1 = Laurent(1, {(1,): 1, (0,): -1})
    assert Laurent(1, {(2,): 1, (0,): -1}).divide_exact(x_minus_1) == Laurent(1, {(1,): 1, (0,): 1})
    assert Laurent(1).divide_exact(x_minus_1).is_zero()
    halves = Laurent(1, {(1,): Fraction(1, 2), (0,): Fraction(-1, 2)})
    assert Laurent(1, {(1,): 1, (0,): -1}).divide_exact(halves) == Laurent.monomial((0,), 2)
    # (x - y)(x^-1 + 2y^3) in two variables
    x_minus_y = Laurent(2, {(1, 0): 1, (0, 1): -1})
    q = Laurent(2, {(-1, 0): 1, (0, 3): 2})
    assert (q * x_minus_y).divide_exact(x_minus_y) == q


def test_divide_exact_random_products():
    rng = random.Random(4)
    # ranks 4 and 5 pack more digits per key than the small ranks
    for low, high in ((1, 3), (4, 5)):
        for _ in range(40):
            rank = rng.randint(low, high)

            def poly(n):
                exps = (tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(n))
                return Laurent(rank, {e: rng.randint(-4, 4) for e in exps})

            q, den = poly(rng.randint(1, 8)), poly(rng.randint(1, 5))
            if den.is_zero():
                continue
            assert (q * den).divide_exact(den) == q


@pytest.mark.parametrize(
    "num,den",
    [
        # 1 / (x^2 - 1): the quotient would run down forever
        (Laurent(1, {(0,): 1}), Laurent(1, {(2,): 1, (0,): -1})),
        # (1 + x^-5) / (1 - y): every quotient term stays lex-above the
        # trailing bound, only the box in y stops it
        (Laurent(2, {(0, 0): 1, (-5, 0): 1}), Laurent(2, {(0, 0): 1, (0, 1): -1})),
        (Laurent(2, {(2, 0): 1, (0, 0): 1}), Laurent(2, {(1, 0): 1, (0, 1): -1})),
    ],
)
def test_divide_exact_remainder_raises_fast(num, den):
    t0 = time.perf_counter()
    with pytest.raises(ExactDomainError):
        num.divide_exact(den)
    assert time.perf_counter() - t0 < 0.5


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        Laurent.one(1).divide_exact(Laurent(1))


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
        big * big
    top, bottom = Laurent.monomial((0, LIMIT - 1)), Laurent.monomial((0, 1 - LIMIT))
    with pytest.raises(ResourceLimitError):
        top.divide_exact(bottom)
    # the largest exponent in range still multiplies and divides
    edge = Laurent.monomial((0, LIMIT - 2)) * Laurent.monomial((0, 1))
    assert edge.terms == {(0, LIMIT - 1): 1}
    assert edge.divide_exact(Laurent.one(2)) == edge


def test_exponent_length_must_be_the_rank():
    with pytest.raises(ExactDomainError):
        Laurent(2, {(1,): 1})
    with pytest.raises(ExactDomainError):
        Laurent(1, {(1, 0): 1})
    with pytest.raises(ExactDomainError):
        Laurent(2, {(1, 0): 1}) * Laurent(1, {(1,): 1})
    with pytest.raises(ExactDomainError):
        Laurent.one(2) + Laurent.one(3)
    with pytest.raises(ExactDomainError):
        Laurent.one(2).divide_exact(Laurent.one(1))


def test_equality_and_hash_compare_the_rank():
    assert Laurent(1) != Laurent(2)
    assert Laurent.one(1) != Laurent.one(2)
    assert len({Laurent.one(1), Laurent.one(2), Laurent.monomial((0,))}) == 2
    p = Laurent(2, {(1, -1): 3, (0, 2): -1})
    q = Laurent(2, {(0, 2): -1}) + Laurent.monomial((1, -1), 3)
    assert p == q and hash(p) == hash(q)


def test_product_of_blocks_matches_the_product():
    f = Laurent(2, {(2, 0): 1, (1, 1): -2, (0, -3): 5})
    g = Laurent(1, {(1,): 1, (-1,): Fraction(1, 2)})
    blocks = Laurent.product_of_blocks(4, [(0, f), (3, g)])
    embedded = Laurent(4, {a + (0,) + b: c * d for a, c in f.terms.items() for b, d in g.terms.items()})
    assert blocks == embedded
    assert blocks == Laurent(4, {a + (0, 0): c for a, c in f.terms.items()}) * Laurent(
        4, {(0, 0, 0) + b: d for b, d in g.terms.items()}
    )
    assert Laurent.product_of_blocks(3, []) == Laurent.one(3)
    with pytest.raises(ExactDomainError):
        Laurent.product_of_blocks(3, [(0, f), (1, g)])
    with pytest.raises(ExactDomainError):
        Laurent.product_of_blocks(3, [(2, f)])


def test_linear_combination_matches_the_sum():
    f = Laurent(2, {(2, 0): 1, (1, 1): -2})
    g = Laurent(2, {(1, 1): -2, (0, 0): 4})
    assert Laurent.linear_combination(2, [(1, f), (-1, g)]) == f - g
    assert Laurent.linear_combination(2, [(1, f), (-1, f)]).is_zero()
    with pytest.raises(ExactDomainError):
        Laurent.linear_combination(3, [(1, f)])
