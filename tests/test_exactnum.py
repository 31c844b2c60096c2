from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endolab.errors import ExactDomainError
from endolab.exactnum import (
    GLOBAL,
    ONE,
    REAL,
    REAL_CONTEXT,
    GaussianRational,
    Place,
    _as_fraction,
    _hilbert_finite_cached,
    _num_den,
    factorize,
    hilbert_symbol,
    hilbert_symbol_oracle,
    legendre,
    padic_valuation,
    smallest_nonresidue,
    squarefree_part,
    squareclass_of,
    ZERO,
)

nonzero_small = st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def test_padic_valuation_examples():
    assert padic_valuation(1, 7) == 0
    assert padic_valuation(50, 5) == 2
    assert padic_valuation(Fraction(3, 8), 2) == -3
    with pytest.raises(ExactDomainError):
        padic_valuation(0, 5)
    with pytest.raises(ExactDomainError):
        padic_valuation(4, 6)


def test_legendre_examples():
    assert legendre(1, 7) == 1
    assert legendre(2, 5) == -1
    assert legendre(4, 11) == 1
    with pytest.raises(ExactDomainError):
        legendre(10, 5)
    with pytest.raises(ExactDomainError):
        legendre(3, 2)


def test_hilbert_examples():
    assert hilbert_symbol(17, 1, REAL) == 1
    assert hilbert_symbol(Fraction(3, 2), 1, Place.finite(3)) == 1
    assert hilbert_symbol(-1, -1, REAL) == -1
    assert hilbert_symbol(2, 5, Place.finite(5)) == -1
    with pytest.raises(ExactDomainError):
        hilbert_symbol(0, 3, REAL)


@settings(max_examples=150, deadline=None)
@given(nonzero_small, nonzero_small, small_primes)
def test_hilbert_symmetry(a, b, p):
    v = Place.finite(p)
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
    assert hilbert_symbol(a, b, REAL) == hilbert_symbol(b, a, REAL)


@settings(max_examples=150, deadline=None)
@given(nonzero_small, nonzero_small, nonzero_small, small_primes)
def test_hilbert_bimultiplicative(a, a2, b, p):
    v = Place.finite(p)
    assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)


@settings(max_examples=150, deadline=None)
@given(nonzero_small, small_primes)
def test_hilbert_a_minus_a(a, p):
    assert hilbert_symbol(a, -a, Place.finite(p)) == 1
    assert hilbert_symbol(a, -a, REAL) == 1


@settings(max_examples=150, deadline=None)
@given(nonzero_small, nonzero_small)
def test_hilbert_product_formula(a, b):
    places = {2} | set(factorize(a)) | set(factorize(b))
    prod = hilbert_symbol(a, b, REAL)
    for p in places:
        prod *= hilbert_symbol(a, b, Place.finite(p))
    assert prod == 1
    # symbols at places away from 2ab are trivial
    spectator = next(p for p in (101, 103, 107, 109) if p not in places)
    assert hilbert_symbol(a, b, Place.finite(spectator)) == 1


@settings(max_examples=100, deadline=None)
@given(nonzero_small, nonzero_small, small_primes, st.integers(min_value=1, max_value=5))
def test_hilbert_square_class_dependence(a, b, p, s):
    v = Place.finite(p)
    assert hilbert_symbol(a * s * s, b, v) == hilbert_symbol(a, b, v)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_oracle_agreement(p):
    v = Place.finite(p)
    reps = [1, -1, 2, -2, p, -p, 2 * p, -2 * p] if p != 2 else [1, 3, 5, 7, -1, 2, -2, 10]
    for a in reps:
        for b in reps:
            assert hilbert_symbol(a, b, v) == hilbert_symbol_oracle(a, b, v), (a, b, p)


def test_hilbert_symbol_keys_on_reduced_rationals():
    places = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7)]
    pairs = [(3, -5), (-2, 7), (6, -1), (-10, -15), (Fraction(6, 4), 5), (Fraction(-9, 14), Fraction(2, 3))]
    for v in places:
        assert hilbert_symbol(Fraction(6, 4), 5, v) == hilbert_symbol(Fraction(3, 2), 5, v)
        for a, b in pairs:
            want = hilbert_symbol_oracle(a, b, v)
            assert hilbert_symbol(a, b, v) == want, (a, b, v)
            assert hilbert_symbol(Fraction(a), Fraction(b), v) == want, (a, b, v)
        for a, b in ((0, 3), (3, 0), (Fraction(0), Fraction(3)), (Fraction(0, 5), 2)):
            with pytest.raises(ExactDomainError):
                hilbert_symbol(a, b, v)
        for a, b in ((1.5, 2), (2, 3.0)):
            with pytest.raises(ExactDomainError):
                hilbert_symbol(a, b, v)
    # one cache entry per pair of reduced rationals, whatever their type
    _hilbert_finite_cached.cache_clear()
    v = Place.finite(3)
    symbols = {hilbert_symbol(a, b, v) for a, b in ((Fraction(6, 4), 5), (Fraction(3, 2), Fraction(5)))}
    assert len(symbols) == 1
    symbols.add(hilbert_symbol(6, 5, v))
    symbols.add(hilbert_symbol(Fraction(6), 5, v))
    info = _hilbert_finite_cached.cache_info()
    assert (info.currsize, info.hits) == (2, 2)


def test_squareclass_examples():
    assert squareclass_of(18, GLOBAL).rep == 2
    assert squareclass_of(-4, REAL_CONTEXT).rep == -1
    assert squareclass_of(75, 5).rep == (0, smallest_nonresidue(5))
    assert squareclass_of(Fraction(1, 2), 2).rep == (1, 1)


@settings(max_examples=100, deadline=None)
@given(nonzero_small, st.integers(min_value=1, max_value=12))
def test_squareclass_invariance(x, s):
    assert squareclass_of(x * s * s, GLOBAL) == squareclass_of(x, GLOBAL)
    for p in (2, 3, 5):
        assert squareclass_of(x * s * s, p) == squareclass_of(x, p)


@settings(max_examples=100, deadline=None)
@given(nonzero_small, nonzero_small)
def test_squareclass_group_law(x, y):
    cx, cy = squareclass_of(x, GLOBAL), squareclass_of(y, GLOBAL)
    assert cx * cy == squareclass_of(x * y, GLOBAL)
    assert (cx * cx).is_trivial
    assert cx * squareclass_of(1, GLOBAL) == cx


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(-4) == -1
    assert squarefree_part(1) == 1


def test_squarefree_part_matches_definition():
    """n over the largest square dividing it, on -500..500 without 0."""
    for n in range(-500, 501):
        if n:
            k = max(k for k in range(1, 23) if n % (k * k) == 0)
            assert squarefree_part(n) == n // (k * k), n
    with pytest.raises(ExactDomainError):
        squarefree_part(0)


gaussian = st.builds(
    GaussianRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@settings(max_examples=150, deadline=None)
@given(gaussian, gaussian)
def test_gaussian_field_ops(z, w):
    assert (z + w) - w == z
    assert z * w == w * z
    if not w.is_zero():
        assert (z * w) / w == z
    assert z.conjugate().conjugate() == z


@settings(max_examples=60, deadline=None)
@given(gaussian, st.integers(min_value=0, max_value=6))
def test_gaussian_powers(z, k):
    expected = GaussianRational(1)
    for _ in range(k):
        expected = expected * z
    assert z ** k == expected
    if not z.is_zero() and k:
        assert (z ** -k) * (z ** k) == GaussianRational(1)


@pytest.mark.parametrize(
    "re,im",
    [(0, 0), (0, 5), (-3, 0), (-7, -2), (6, -4), (10**30, -1), (True, False), (False, True), (True, -3)],
)
def test_gaussian_from_ints_matches_fraction_path(re, im):
    z = GaussianRational(re, im)
    ref = GaussianRational(Fraction(re), Fraction(im))
    assert (z.re_n, z.im_n, z.den) == (ref.re_n, ref.im_n, ref.den)
    assert type(z.re_n) is int and type(z.im_n) is int  # a bool is stored as 0 or 1
    assert hash(z) == hash(ref) and z == ref
    assert GaussianRational(re) == GaussianRational(Fraction(re))


def test_gaussian_constants():
    assert (ONE.re_n, ONE.im_n, ONE.den) == (1, 0, 1) and ONE == 1
    assert (ZERO.re_n, ZERO.im_n, ZERO.den) == (0, 0, 1) and ZERO.is_zero()
    z = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    assert z ** 0 == ONE and z * ONE == z and z + ZERO == z


class _Int(int):
    pass


class _Frac(Fraction):
    pass


def test_exact_rational_conversions_keep_bools_and_subclasses():
    """`_as_fraction` and `_num_den` test int before Fraction; bools and
    subclasses give the same values, and other types are still refused."""
    half = _Frac(3, 6)
    assert _as_fraction(True) == Fraction(1) and _as_fraction(False) == Fraction(0)
    assert _num_den(True) == (1, 1) and _num_den(False) == (0, 1)
    assert _as_fraction(_Int(-4)) == Fraction(-4) and type(_as_fraction(_Int(-4))) is Fraction
    assert _num_den(_Int(-4)) == (-4, 1)
    assert _as_fraction(half) is half and _num_den(half) == (1, 2)
    assert _as_fraction(7) == Fraction(7) and _num_den(7) == (7, 1)
    assert _as_fraction(Fraction(-6, 4)) == Fraction(-3, 2) and _num_den(Fraction(-6, 4)) == (-3, 2)
    for bad in (1.5, "3", Decimal("2")):
        with pytest.raises(ExactDomainError):
            _as_fraction(bad)
        with pytest.raises(ExactDomainError):
            _num_den(bad)


def test_place_primality_is_memoized_and_still_refuses_composites(monkeypatch):
    """`Place` runs trial division once per prime; composites, negatives and
    one are refused before and after primes are cached, and `Place.finite`
    returns one object per prime."""
    from endolab import exactnum

    exactnum._is_prime_cached.cache_clear()
    exactnum._finite_place.cache_clear()
    calls = []
    real = exactnum.is_prime
    monkeypatch.setattr(exactnum, "is_prime", lambda n: calls.append(n) or real(n))
    for _ in range(3):
        assert [Place.finite(p).p for p in (2, 3, 5, 7)] == [2, 3, 5, 7]
        assert Place(3) == Place.finite(3) and Place(0) == REAL
        assert Place.finite(3) is Place.finite(3) and Place(3) is not Place.finite(3)
        for bad in (1, 4, 9, 15, -3):
            with pytest.raises(ExactDomainError, match="is not prime"):
                Place(bad)
            with pytest.raises(ExactDomainError, match="is not prime"):
                Place.finite(bad)
    with pytest.raises(ExactDomainError, match="needs a prime"):
        Place.finite(0)
    assert sorted(calls) == [-3, 1, 2, 3, 4, 5, 7, 9, 15]
