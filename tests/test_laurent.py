import random
import time
from fractions import Fraction

import pytest

from endolab.errors import ExactDomainError
from endolab.laurent import Laurent


def test_rank_one_q_arithmetic():
    # the Hecke coefficients: Z[q^(1/2), q^(-1/2)] keyed by the doubled exponent
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
    for _ in range(40):
        rank = rng.randint(1, 3)

        def poly(n):
            return Laurent(rank, {tuple(rng.randint(-3, 3) for _ in range(rank)): rng.randint(-4, 4) for _ in range(n)})

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
