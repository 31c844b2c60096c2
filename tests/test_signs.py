import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endolab.errors import ExactDomainError, SingularPointError
from endolab.levi import admissible_A
from endolab.signs import (
    SignCase,
    check_sun_identity,
    det_omega0,
    parity_lemma_holds,
    sun,
    tasho,
    tasho_ratio,
    waldspurger_sign,
    waldspurger_sign_reduced,
    whittaker_comparison_sign,
)

def test_det_omega0_table():
    assert det_omega0([], 3) == 1
    assert det_omega0([1, 2], 5) == 1
    assert det_omega0([1], 3) == -1
    assert det_omega0([1], 4) == 1
    assert det_omega0([2], 3) == 1
    assert det_omega0([2], 4) == -1
    with pytest.raises(ExactDomainError):
        det_omega0([1], 3, "M1")


def test_sun_table():
    assert sun([]) == 1 and sun([2]) == 1
    assert sun([1]) == -1 and sun([1, 2]) == -1


def test_tasho_values():
    for levi in ("M1", "M2", "M12"):
        for parity in ("odd", "even"):
            if levi == "M2" and parity == "even":
                continue
            for mm in range(6):
                case = SignCase(levi, parity, mm + 4, 4, mm)
                assert tasho(case, ()) == -1
                if levi == "M12":
                    assert tasho(case, (1, 2)) == 1
                    assert tasho(case, (1,)) == (-1) ** mm
                    assert tasho_ratio(case, (1,)) == (-1) ** (mm + 1)


def test_sun_identity_full_coverage():
    for levi in ("M1", "M2", "M12"):
        for parity in ("odd", "even"):
            if levi == "M2" and parity == "even":
                continue
            for mm in range(8):
                case = SignCase(levi, parity, mm + 4, 4, mm)
                for A in admissible_A(levi):
                    assert check_sun_identity(case, A), (levi, parity, mm, A)


def test_whittaker_odd_specializations():
    for m in range(3, 9):
        for mp in range(0, m + 1):
            mm = m - mp
            d = 2 * m + 1
            if math.ceil(mp / 2) >= 1:
                s = whittaker_comparison_sign(SignCase("G", "odd", m, mp, mm, p=d - 2, q=2, delta_sign=1))
                assert s == (-1) ** (1 + math.ceil(mp / 2))
            s = whittaker_comparison_sign(SignCase("G", "odd", m, mp, mm, p=d, q=0, delta_sign=1))
            assert s == (-1) ** math.ceil(mp / 2)
            s = whittaker_comparison_sign(SignCase("G", "odd", m, mp, mm, p=d - 1, q=1, delta_sign=-1))
            assert s == (-1) ** (mp // 2)


def test_whittaker_even_cases():
    for m in range(3, 9):
        for mp in range(0, m + 1):
            mm = m - mp
            d = 2 * m
            assert whittaker_comparison_sign(SignCase("G", "even", m, mp, mm, p=d, q=0)) == (-1) ** (mm // 2)
            if m % 2 == 1 and mp == 1:
                s = whittaker_comparison_sign(SignCase("G", "even", m, mp, mm, p=d - 2, q=2))
                assert s == (-1) ** (mm // 2 - 1)
            elif (m % 2 == 1 and mp // 2 >= 1) or (m % 2 == 0 and math.ceil(mp / 2) >= 1):
                s = whittaker_comparison_sign(SignCase("G", "even", m, mp, mm, p=d - 2, q=2))
                assert s == (-1) ** (mm // 2)


def test_whittaker_type_II_relation():
    for m in (4, 6, 8):
        for mp in range(0, m + 1):
            case = SignCase("G", "even", m, mp, m - mp, p=2 * m, q=0)
            sI = whittaker_comparison_sign(case, "I")
            sII = whittaker_comparison_sign(case, "II")
            assert sII == ((-1) ** (m - mp)) * sI


def test_whittaker_guards():
    with pytest.raises(ExactDomainError):
        whittaker_comparison_sign(SignCase("G", "odd", 4, 2, 2, p=2, q=7))
    with pytest.raises(ExactDomainError):
        whittaker_comparison_sign(SignCase("G", "odd", 4, 0, 4, p=5, q=4, delta_sign=1))
    with pytest.raises(ExactDomainError):
        whittaker_comparison_sign(SignCase("G", "odd", 5, 3, 2, p=7, q=4, delta_sign=1), "II")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_waldspurger_raw_equals_reduced(data):
    m = data.draw(st.integers(min_value=1, max_value=6))
    mm = data.draw(st.integers(min_value=0, max_value=m))
    nums = data.draw(
        st.lists(st.integers(min_value=-99, max_value=99), min_size=m, max_size=m, unique=True)
    )
    y = [Fraction(v, 100) for v in nums]
    eta = data.draw(st.sampled_from([1, -1]))
    assert waldspurger_sign(y, mm, eta) == waldspurger_sign_reduced(y, mm, eta)


def test_waldspurger_edges():
    assert waldspurger_sign([], 0, 1) == 1
    assert waldspurger_sign([Fraction(1, 2), Fraction(-1, 3)], 0, -1) == 1
    with pytest.raises(SingularPointError):
        waldspurger_sign([Fraction(1, 2), Fraction(1, 2)], 1, 1)
    with pytest.raises(ExactDomainError):
        waldspurger_sign([Fraction(3, 2)], 1, 1)


def test_parity_lemma():
    assert all(parity_lemma_holds(m, p) for m in range(41) for p in range(m + 1))
