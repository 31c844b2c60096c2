import math
import random
from fractions import Fraction

import pytest

from endolab.dsconst import (
    HerbInput,
    ProductRootSystem,
    c1,
    c2B,
    c2D,
    cone_constant_1d,
    cone_constant_2d,
    herb_sum,
    herb_sum_direct,
    partitions_le2,
    partitions_prime,
    vanishing_quantities,
)
from endolab.errors import ExactDomainError, SingularPointError


def _count_le2(n):
    # pairings with at most one singleton: (n-1)!! for n even, n (n-2)!! for n odd
    if n == 0:
        return 1
    if n % 2 == 0:
        return math.prod(range(1, n, 2))
    return n * (math.prod(range(1, n - 1, 2)) if n > 1 else 1)


def test_partition_counts():
    assert [_count_le2(n) for n in range(7)] == [1, 1, 1, 3, 3, 15, 15]
    for n in range(8):
        assert len(partitions_le2(range(n))) == _count_le2(n)
    assert len(partitions_le2([4, 9])) == 1
    assert partitions_le2([])[0][1] == 1


def test_partitions_prime_counts():
    assert partitions_prime([]) == []
    assert len(partitions_prime([1, 2])) == 2
    assert len(partitions_prime([1, 2, 3, 4])) == 12
    with pytest.raises(ExactDomainError):
        partitions_prime([1, 2, 3])


def test_partition_signs():
    by_blocks = {p.blocks: s for p, s in partitions_le2([1, 2, 3])}
    assert by_blocks[((1, 2), (3,))] == 1
    assert by_blocks[((1, 3), (2,))] == -1
    assert by_blocks[((1,), (2, 3))] == 1
    primes = {(p.blocks, p.marked): s for p, s in partitions_prime([1, 2])}
    assert primes[(((1,), (2,)), (2,))] == 1
    assert primes[(((1,), (2,)), (1,))] == -1


def test_c_functions():
    assert c1(-1) == 0 and c1(Fraction(1, 9)) == 1
    assert c2B(1, 2) == 1
    assert c2B(Fraction(1, 2), Fraction(-1, 3)) == 1  # 0 < -b < a
    assert c2B(2, 1) == 0
    assert c2D(2, -1) == 1 and c2D(1, 2) == 0


def test_herb_empty_and_single():
    assert herb_sum(ProductRootSystem(()), HerbInput(None, ())) == 1
    sys1 = ProductRootSystem((("A1", (0,)),))
    assert herb_sum(sys1, HerbInput(None, (Fraction(2),))) == 1
    assert herb_sum(sys1, HerbInput(None, (Fraction(-2),))) == 0


def test_herb_factorization_cross_check():
    rng = random.Random(7)
    for _ in range(150):
        factors = []
        used = 0
        for kind, size in (("B", rng.choice([0, 1, 2, 3, 4])), ("D", rng.choice([0, 2])), ("A1", rng.choice([0, 1]))):
            if size:
                factors.append((kind, tuple(range(used, used + size))))
                used += size
        if not factors:
            continue
        sys_ = ProductRootSystem(tuple(factors))
        mags = rng.sample(range(1, 300), used)
        mu = tuple(Fraction(mags[k] * rng.choice([-1, 1]), 7) for k in range(used))
        inp = HerbInput(None, mu)
        assert herb_sum(sys_, inp) == herb_sum_direct(sys_, inp)


def test_herb_relabel_invariance():
    rng = random.Random(2)
    for _ in range(60):
        mu = tuple(Fraction(v * rng.choice([-1, 1]), 3) for v in rng.sample(range(1, 99), 4))
        base = herb_sum(ProductRootSystem((("B", (0, 1, 2, 3)),)), HerbInput(None, mu))
        # order-preserving relabeling: shift all indices by 2
        shifted = herb_sum(
            ProductRootSystem((("B", (2, 3, 4, 5)),)),
            HerbInput(None, (Fraction(9), Fraction(-8)) + mu),
        )
        assert base == shifted


CONE_REFS = {1: (2, 1), 2: (1, 2), 3: (-1, 2), 4: (-2, 1), 5: (-2, -1), 6: (-1, -2), 7: (1, -2), 8: (2, -1)}


def test_cone_tables_reference_chambers():
    x_V = (Fraction(-2), Fraction(-1))  # x1 < x2 < 0
    x_IV = (Fraction(-2), Fraction(1))  # x1 < -x2 < 0 < x2
    for c, ref in CONE_REFS.items():
        chi = (Fraction(ref[0]), Fraction(ref[1]))
        assert cone_constant_2d(x_V, chi, "B2") == (4 if c in (2, 8) else 0)
        assert cone_constant_2d(x_IV, chi, "B2") == (4 if c in (1, 7) else 0)
        assert cone_constant_2d(x_V, chi, "D2") == (4 if c in (1, 8) else 0)
        assert cone_constant_2d(x_IV, chi, "D2") == (4 if c in (1, 8) else 0)
        assert cone_constant_2d(x_V, chi, "A1xA1") == (4 if c in (1, 2) else 0)
        assert cone_constant_2d(x_IV, chi, "A1xA1") == (4 if c in (7, 8) else 0)


def test_cone_vs_herb_cross_check():
    rng = random.Random(4)
    x_V = (Fraction(-2), Fraction(-1))
    for _ in range(100):
        chi = (Fraction(rng.randint(-60, 60) or 7, 3), Fraction(rng.randint(-60, 60) or 11, 4))
        if chi[0] * chi[1] * (chi[0] - chi[1]) * (chi[0] + chi[1]) == 0:
            continue
        assert cone_constant_2d(x_V, chi, "B2") == 4 * herb_sum(
            ProductRootSystem((("B", (0, 1)),)), HerbInput(None, chi)
        )
        assert cone_constant_2d(x_V, chi, "D2") == 4 * herb_sum(
            ProductRootSystem((("D", (0, 1)),)), HerbInput(None, chi), "even"
        )


def test_cone_walls():
    with pytest.raises(SingularPointError):
        cone_constant_2d((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(2)), "B2")
    with pytest.raises(SingularPointError):
        cone_constant_2d((Fraction(-2), Fraction(-1)), (Fraction(1), Fraction(1)), "D2")
    with pytest.raises(SingularPointError):
        cone_constant_1d(Fraction(0), Fraction(1))
    assert cone_constant_1d(-1, Fraction(3)) == 2
    assert cone_constant_1d(1, Fraction(3)) == 0


def _random_regular_mu(rng, r, t=0):
    mags = rng.sample(range(1, 40 * (r + t) + 40), r + t)
    den = rng.randint(1, 9)
    return [Fraction(mags[k] * rng.choice([-1, 1]), den) for k in range(r)] + [
        Fraction(mags[r + j]) for j in range(t)
    ]


def test_vanishing_odd_quick():
    rng = random.Random(13)
    for r in (3, 4, 5):
        for r_prime in range(r + 1):
            for _ in range(4):
                mu = _random_regular_mu(rng, r)
                M, N = vanishing_quantities(r, 0, "odd", r_prime, mu)
                assert N == 0
                if r >= 5:
                    assert all(v == 0 for v in M)


def test_vanishing_even_quick():
    rng = random.Random(14)
    for r in (4, 6):
        for r_prime in (0, 2, r):
            for _ in range(3):
                mu = _random_regular_mu(rng, r)
                M, N = vanishing_quantities(r, 0, "even", r_prime, mu)
                assert N == 0
                if r >= 6:
                    assert all(v == 0 for v in M)


def test_vanishing_r2_witness():
    # M_i vanishing only starts at r = 5; at r = 2 it can be nonzero
    M, N = vanishing_quantities(2, 0, "odd", 2, [Fraction(1), Fraction(2)])
    assert M[0] == -4
    assert N == 0


def test_vanishing_with_a1_factors():
    rng = random.Random(15)
    mu = _random_regular_mu(rng, 3, t=1)
    M, N = vanishing_quantities(3, 1, "odd", 2, mu)
    assert N == 0


def test_t_dependence_sums():
    # for t >= 2: sum over B of (-1)^|B| and of upsilon_j(B) (-1)^|B| vanish
    import itertools

    for t in (2, 3, 4):
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(t), k) for k in range(t + 1)
        ))
        assert sum((-1) ** len(B) for B in subsets) == 0
        for j in range(t):
            assert sum(((1 if j in B else -1)) * (-1) ** len(B) for B in subsets) == 0
    # and for t = 1 the second sum does not vanish
    assert sum((1 if 0 in B else -1) * (-1) ** len(B) for B in [(), (0,)]) == -2


def test_vanishing_input_validation():
    with pytest.raises(ExactDomainError):
        vanishing_quantities(3, 0, "odd", 1, [Fraction(1), Fraction(1), Fraction(2)])
    with pytest.raises(ExactDomainError):
        vanishing_quantities(3, 0, "even", 1, [Fraction(1), Fraction(2), Fraction(3)])
