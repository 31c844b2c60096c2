import itertools
import math
import random
from fractions import Fraction

import pytest

from endolab import dsconst
from endolab.dsconst import c1, c2B, cone_constant_1d, cone_constant_2d, vanishing_quantities
from endolab.errors import ExactDomainError, ResourceLimitError, SingularPointError
from endolab.exactnum import _exact


def c2D(a, b):
    """Indicator a > |b|."""
    a, b = _exact(a), _exact(b)
    return 1 if a > abs(b) else 0


def _partition_sign(blocks):
    """Sign of the permutation sorting the block concatenation (blocks listed in
    the given enumeration order, each block ascending), by its inversions."""
    seq = [x for b in blocks for x in sorted(b)]
    return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1


def _partition_value(kind, blocks, mu):
    """The product of the c-indicators of a partition's blocks: c1 on a
    singleton, c2B (type B) or c2D (type D) on a pair."""
    prod = 1
    for block in blocks:
        if len(block) == 1:
            prod *= c1(mu[block[0]])
        else:
            s1, s2 = block
            prod *= c2B(mu[s1], mu[s2]) if kind == "B" else c2D(mu[s1], mu[s2])
    return prod


def partitions_le2(index_set):
    """All partitions of the set into 2-blocks plus at most one singleton, as
    (blocks, sign): the independent enumeration of the block sums."""
    out = []

    def rec(remaining, acc, used_singleton):
        if not remaining:
            blocks = tuple(sorted(acc))
            out.append((blocks, _partition_sign(blocks)))
            return
        head, rest = remaining[0], remaining[1:]
        for k, partner in enumerate(rest):
            rec(rest[:k] + rest[k + 1 :], acc + [(head, partner)], used_singleton)
        if not used_singleton:
            rec(rest, acc + [(head,)], True)

    rec(tuple(sorted(index_set)), [], False)
    return out


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


def test_partition_signs():
    by_blocks = dict(partitions_le2([1, 2, 3]))
    assert by_blocks[((1, 2), (3,))] == 1
    assert by_blocks[((1, 3), (2,))] == -1
    assert by_blocks[((1,), (2, 3))] == 1


def test_c_functions():
    assert c1(-1) == 0 and c1(Fraction(1, 9)) == 1
    assert c2B(1, 2) == 1
    assert c2B(Fraction(1, 2), Fraction(-1, 3)) == 1  # 0 < -b < a
    assert c2B(2, 1) == 0
    assert c2D(2, -1) == 1 and c2D(1, 2) == 0


def test_herb_empty_and_single():
    mu = (Fraction(2), Fraction(-2))
    ind = dsconst._indicators(mu)
    assert dsconst._block_sum("B", (), ind) == dsconst._block_sum("D", (), ind) == 1
    assert dsconst._block_sum("A1", (0,), ind) == dsconst._block_sum("B", (0,), ind) == 1
    assert dsconst._block_sum("A1", (1,), ind) == dsconst._block_sum("B", (1,), ind) == 0


def test_herb_factorization_cross_check():
    """A product system's Herb sum, one block sum per factor, against the
    enumeration over the product of every factor's partitions."""
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
        mags = rng.sample(range(1, 300), used)
        mu = tuple(Fraction(mags[k] * rng.choice([-1, 1]), 7) for k in range(used))
        ind = dsconst._indicators(mu)
        factored = math.prod(dsconst._block_sum(kind, support, ind) for kind, support in factors)
        direct = 0
        for combo in itertools.product(*(partitions_le2(support) for _, support in factors)):
            term = 1
            for (kind, _), (blocks, sign) in zip(factors, combo):
                term *= sign * _partition_value(kind, blocks, mu)
            direct += term
        assert factored == direct


def test_herb_relabel_invariance():
    rng = random.Random(2)
    for _ in range(60):
        mu = tuple(Fraction(v * rng.choice([-1, 1]), 3) for v in rng.sample(range(1, 99), 4))
        base = dsconst._block_sum("B", (0, 1, 2, 3), dsconst._indicators(mu))
        # order-preserving relabeling: shift all indices by 2
        shifted = dsconst._block_sum("B", (2, 3, 4, 5), dsconst._indicators((Fraction(9), Fraction(-8)) + mu))
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


INT_HEADS = [(a, b) for a in range(-7, 8) for b in range(-7, 8) if a * b * (a - b) * (a + b)]  # off every B2 wall


def test_cone_vs_herb_cross_check():
    """On Fraction heads, and on int heads at an int chamber rep, as the
    archimedean round passes them."""
    rng = random.Random(4)
    heads = [(Fraction(rng.randint(-60, 60) or 7, 3), Fraction(rng.randint(-60, 60) or 11, 4)) for _ in range(100)]
    cases = [((Fraction(-2), Fraction(-1)), chi) for chi in heads] + [((-2, -1), chi) for chi in INT_HEADS]
    for x_V, chi in cases:
        if chi[0] * chi[1] * (chi[0] - chi[1]) * (chi[0] + chi[1]) == 0:
            continue
        ind = dsconst._indicators(chi)
        assert cone_constant_2d(x_V, chi, "B2") == 4 * dsconst._block_sum("B", (0, 1), ind)
        assert cone_constant_2d(x_V, chi, "D2") == 4 * dsconst._block_sum("D", (0, 1), ind)


def test_cone_constants_int_and_fraction_agree():
    """The tables read int inputs as they are; Fractions of the same values
    give the same constants, on every chamber rep, system and int head."""
    for x in CONE_REFS.values():
        xf = tuple(map(Fraction, x))
        for chi in INT_HEADS:
            chif = tuple(map(Fraction, chi))
            for system in ("B2", "D2", "A1xA1"):
                assert cone_constant_2d(x, chi, system) == cone_constant_2d(xf, chif, system)
                assert cone_constant_2d(x, chif, system) == cone_constant_2d(xf, chi, system)
            assert cone_constant_1d(x[0], chi[0]) == cone_constant_1d(xf[0], chif[0])
    for a, b in INT_HEADS:
        assert c1(a) == c1(Fraction(a))
        assert c2B(a, b) == c2B(Fraction(a), Fraction(b))
        assert c2D(a, b) == c2D(Fraction(a), Fraction(b))


def test_cone_constants_refuse_inexact_inputs():
    for bad in (0.5, "1", None):
        with pytest.raises(ExactDomainError):
            c1(bad)
        with pytest.raises(ExactDomainError):
            c2B(1, bad)
        with pytest.raises(ExactDomainError):
            c2D(bad, 1)
        with pytest.raises(ExactDomainError):
            cone_constant_1d(bad, 1)
        with pytest.raises(ExactDomainError):
            cone_constant_1d(-1, bad)
        with pytest.raises(ExactDomainError):
            cone_constant_2d((-2, bad), (1, 3), "B2")
        with pytest.raises(ExactDomainError):
            cone_constant_2d((-2, -1), (bad, 3), "D2")


def test_cone_walls():
    with pytest.raises(SingularPointError):
        cone_constant_2d((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(2)), "B2")
    with pytest.raises(SingularPointError):
        cone_constant_2d((Fraction(-2), Fraction(-1)), (Fraction(1), Fraction(1)), "D2")
    with pytest.raises(SingularPointError):
        cone_constant_1d(Fraction(0), Fraction(1))
    assert cone_constant_1d(-1, Fraction(3)) == 2
    assert cone_constant_1d(1, Fraction(3)) == 0
    int_walls = [((-1, -1), (1, 3), "B2"), ((-2, 0), (1, 3), "B2"), ((-2, -1), (2, 2), "B2"), ((-2, -1), (0, 3), "B2")]
    int_walls += [((-2, 2), (1, 3), "D2"), ((-2, -1), (3, -3), "D2"), ((0, -1), (1, 3), "A1xA1"), ((-2, -1), (1, 0), "A1xA1")]
    for x, chi, system in int_walls:
        with pytest.raises(SingularPointError):
            cone_constant_2d(x, chi, system)
    for x, chi in ((0, 1), (1, 0)):
        with pytest.raises(SingularPointError):
            cone_constant_1d(x, chi)


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


# --- the block sums against the enumeration they replace ------------------------


def _block_sum_by_enumeration(kind, support, mu):
    """The former `_block_sum`: enumerate the support's partitions on every call
    and multiply the c-indicators of their blocks."""
    if kind == "A1":
        return c1(mu[support[0]])
    return sum(sign * _partition_value(kind, blocks, mu) for blocks, sign in partitions_le2(support))


def _vanishing_by_enumeration(r, t, case, r_prime, mu):
    """The former `vanishing_quantities` loop: all 2^r bit vectors, the
    admissibility test on each, and the block sums by enumeration."""
    a1_factor = math.prod(c1(mu[r + j]) for j in range(t))
    plus_kind = "B" if case == "odd" else "D"
    M, N = [0] * r, 0
    for bits in itertools.product((0, 1), repeat=r):
        A = tuple(i for i in range(r) if bits[i])
        a_plus = tuple(i for i in A if i < r_prime)
        a_minus = tuple(i for i in A if i >= r_prime)
        ac_plus = tuple(i for i in range(r_prime) if not bits[i])
        ac_minus = tuple(i for i in range(r_prime, r) if not bits[i])
        if len(a_minus) % 2 or len(ac_minus) % 2:
            continue
        if case == "even" and (len(a_plus) % 2 or len(ac_plus) % 2):
            continue
        cbar = a1_factor
        for kind, support in ((plus_kind, a_plus), (plus_kind, ac_plus), ("D", a_minus), ("D", ac_minus)):
            cbar *= _block_sum_by_enumeration(kind, support, mu)
        k = len(A)
        if case == "odd":
            coef = -1 if (k + (k + 1) // 2) % 2 else 1
        else:
            coef = -1 if (k // 2) % 2 else 1
        w = dsconst._omega0_sign(A, range(r)) * coef * cbar
        N += w
        for i in range(r):
            M[i] += w if bits[i] else -w
    return M, N


def _seeded_supports(seed):
    """(kind, support, mu): B supports of size 0-8, even D supports of size
    0-8 and A1 supports, scattered over twelve coordinates so that the table
    is relabelled through non-consecutive positions."""
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        mu = _random_regular_mu(rng, 12)
        for size in range(9):
            out.append(("B", tuple(sorted(rng.sample(range(12), size))), mu))
            if size % 2 == 0:
                out.append(("D", tuple(sorted(rng.sample(range(12), size))), mu))
        out.append(("A1", (rng.randrange(12),), mu))
    return out


def test_partition_table_matches_partitions_le2():
    for n in range(9):
        listed = sorted(
            (sign, tuple(b if len(b) == 2 else b * 2 for b in blocks))
            for blocks, sign in partitions_le2(range(n))
        )
        assert sorted(dsconst._partition_table(n)) == listed, n


def test_partition_table_refuses_beyond_14():
    with pytest.raises(ResourceLimitError, match="beyond 14 elements"):
        dsconst._partition_table(15)
    mu = tuple(Fraction(k + 1) for k in range(15))
    with pytest.raises(ResourceLimitError):
        dsconst._block_sum("B", tuple(range(15)), dsconst._indicators(mu))


def test_block_sums_match_enumeration():
    cases = _seeded_supports(21)
    assert {len(support) for kind, support, _ in cases if kind == "B"} == set(range(9))
    nonzero = 0
    for kind, support, mu in cases:
        got = dsconst._block_sum(kind, support, dsconst._indicators(mu))
        assert got == _block_sum_by_enumeration(kind, support, mu), (kind, support, mu)
        nonzero += got != 0
    assert nonzero > len(cases) // 4  # the comparison is not between zeros


def _vanishing_mu(rng, r, t, r_prime):
    """A regular weight on which many block sums are nonzero: the positive part
    ascending and the negative part descending (where every c2B, resp. c2D,
    is 1), with a few coordinates negated; the A1 tail is negative, making
    its factor 0, a quarter of the time."""
    mags = rng.sample(range(1, 40 * (r + t) + 40), r + t)
    head = sorted(mags[:r_prime]) + sorted(mags[r_prime:r], reverse=True)
    den = rng.randint(1, 9)
    mu = [Fraction(m * (-1 if rng.random() < 0.1 else 1), den) for m in head]
    return mu + [Fraction(m * (-1 if rng.random() < 0.25 else 1)) for m in mags[r:]]


@pytest.mark.parametrize("omega0", ["actual", "scrambled"])
def test_vanishing_quantities_match_enumeration(monkeypatch, omega0):
    """M and N vanish from r = 3 and 5 on, so equal results under the actual
    omega_0 sign compare mostly zeros; with a scrambled sign the sums stop
    cancelling, and equality then tests every admissible A and its weight."""
    if omega0 == "scrambled":
        monkeypatch.setattr(dsconst, "_omega0_sign", lambda A, universe: (-1) ** sum(A))
    rng = random.Random(22)
    nonzero = 0
    for case, ranks in (("odd", range(1, 8)), ("even", (2, 4, 6))):
        for r in ranks:
            for t in (0, 1):
                for r_prime in range(r + 1):
                    draws = [_vanishing_mu(rng, r, t, r_prime) for _ in range(2)]
                    for mu in draws + [_random_regular_mu(rng, r, t)]:
                        want = _vanishing_by_enumeration(r, t, case, r_prime, mu)
                        assert vanishing_quantities(r, t, case, r_prime, mu) == want, (case, r, t, r_prime, mu)
                        nonzero += any(want[0]) or want[1] != 0
    assert nonzero >= (50 if omega0 == "scrambled" else 20), nonzero


def test_block_sums_with_a_flipped_sign_disagree(monkeypatch):
    table = dsconst._partition_table

    def flipped(n):
        rows = list(table(n))
        if rows:
            sign, blocks = rows[0]
            rows[0] = (-sign, blocks)
        return tuple(rows)

    monkeypatch.setattr(dsconst, "_partition_table", flipped)
    cases = [c for c in _seeded_supports(23) if len(c[1]) >= 2]
    assert any(
        dsconst._block_sum(kind, support, dsconst._indicators(mu)) != _block_sum_by_enumeration(kind, support, mu)
        for kind, support, mu in cases
    )


def test_block_sums_with_c2D_for_c2B_disagree():
    disagree = 0
    for kind, support, mu in _seeded_supports(24):
        if kind == "B" and len(support) >= 2:
            _, d = dsconst._indicators(mu)
            disagree += dsconst._block_sum("B", support, (d, d)) != _block_sum_by_enumeration("B", support, mu)
    assert disagree
