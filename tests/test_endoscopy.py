from fractions import Fraction

import pytest

from endolab.endoscopy import (
    EndoParams,
    GlobalCtx,
    LocalCtx,
    RealCtx,
    endo_is_cuspidal_R,
    enumerate_G_endoscopy,
    enumerate_elliptic,
    g_out_group_size,
    iota,
    is_unramified_at_p,
    k_invariants,
    out_group_size,
    so_is_cuspidal_R,
    tamagawa,
    tau_k_identity_check,
    to_EG,
)
from endolab.errors import ExactDomainError
from endolab.exactnum import GLOBAL, REAL_CONTEXT, squareclass_of

R = RealCtx()
TRIV = squareclass_of(1, REAL_CONTEXT)
NEG = squareclass_of(-1, REAL_CONTEXT)


def test_hand_counts_real():
    assert len(enumerate_elliptic(7, 1, R)) == 2
    assert len(enumerate_elliptic(8, 1, R)) == 4
    assert len(enumerate_elliptic(9, 1, R)) == 3
    assert len(enumerate_elliptic(10, -1, R)) == 4


def test_odd_enumeration_content():
    pairs = {(p.d_plus, p.d_minus) for p in enumerate_elliptic(7, 1, R)}
    assert pairs == {(7, 1), (5, 3)}


def test_global_enumeration_with_support():
    ctx = GlobalCtx((3,))
    data = enumerate_elliptic(8, 1, ctx)
    # delta+ ranges over {+-1, +-3}; exclusions apply; swap classes are merged
    assert all(p.delta_plus.context == GLOBAL for p in data)
    assert len(data) == len({p.key() for p in data})
    assert any(not p.delta_plus.is_trivial for p in data)


def test_local_enumeration():
    data = enumerate_elliptic(8, 1, LocalCtx(5))
    assert all(p.delta_plus.context == 5 for p in data)
    swap_fixed = [p for p in data if p.d_plus == p.d_minus and p.delta_plus == p.delta_minus]
    assert all(out_group_size(p) == 4 for p in swap_fixed)


def test_excluded_values():
    with pytest.raises(ExactDomainError):
        EndoParams("even", 2, 6, TRIV, TRIV)
    with pytest.raises(ExactDomainError):
        EndoParams("even", 0, 8, NEG, NEG)
    with pytest.raises(ExactDomainError):
        EndoParams("odd", 4, 4, TRIV, TRIV)


def test_out_group_sizes():
    assert out_group_size(EndoParams("odd", 5, 3, TRIV, TRIV)) == 1
    assert out_group_size(EndoParams("odd", 5, 5, TRIV, TRIV)) == 2
    assert out_group_size(EndoParams("even", 8, 0, TRIV, TRIV)) == 1
    assert out_group_size(EndoParams("even", 4, 4, TRIV, TRIV)) == 4
    assert out_group_size(EndoParams("even", 6, 2, NEG, NEG)) == 2


def test_out_group_swap_invariance():
    for d, delta in ((7, 1), (8, 1), (9, 1), (10, -1)):
        for p in enumerate_elliptic(d, delta, R):
            assert out_group_size(p) == out_group_size(p.swap())


def test_tamagawa_and_k():
    assert tamagawa("SO", 7) == 2
    assert tamagawa("GL", 2) == 1
    assert tamagawa("GL", 1) == 1
    assert tamagawa("SO", 2, delta_trivial=False) == 2
    assert tamagawa("SO", 1) == 1
    assert k_invariants("SO", 3) == (8, 4)
    assert k_invariants("GL", 2) == (1, 1)
    assert k_invariants("SO", 1) == (2, 1)


def test_iota_values():
    assert iota(7, EndoParams("odd", 7, 1, TRIV, TRIV)) == 1
    assert iota(9, EndoParams("odd", 5, 5, TRIV, TRIV)) == Fraction(1, 4)
    assert iota(8, EndoParams("even", 8, 0, TRIV, TRIV)) == 1


def test_cuspidality():
    assert so_is_cuspidal_R(8, TRIV) and not so_is_cuspidal_R(8, NEG)
    assert so_is_cuspidal_R(6, NEG) and not so_is_cuspidal_R(6, TRIV)
    assert so_is_cuspidal_R(7, TRIV)
    assert endo_is_cuspidal_R(EndoParams("odd", 5, 3, TRIV, TRIV))
    assert not endo_is_cuspidal_R(EndoParams("even", 4, 4, NEG, TRIV))


def test_unramified():
    gq = lambda n: squareclass_of(n, GLOBAL)
    assert is_unramified_at_p(EndoParams("odd", 5, 3, gq(1), gq(1)), 5)
    assert not is_unramified_at_p(EndoParams("even", 4, 4, gq(5), gq(5)), 5)
    assert is_unramified_at_p(EndoParams("even", 4, 4, gq(3), gq(3)), 5)
    assert is_unramified_at_p(EndoParams("even", 4, 4, gq(75), gq(3)), 5)  # 75 ~ 3


def test_G_endoscopy_shapes():
    gm12 = enumerate_G_endoscopy("M12", 7, 1, R)
    assert len(gm12) == 4
    gm1 = enumerate_G_endoscopy("M1", 7, 1, R)
    assert all(len(g.A) in (0, 2) for g in gm1)
    gm2 = enumerate_G_endoscopy("M2", 7, 1, R)
    assert all(len(g.A) in (0, 1) for g in gm2)
    for g in gm12:
        assert g_out_group_size(g) == 1  # odd case
    even = enumerate_G_endoscopy("M12", 8, 1, R)
    for g in even:
        expected = 1 if g.base.d_plus * g.base.d_minus == 0 else 2
        assert g_out_group_size(g) == expected


def test_to_EG_lands_in_elliptic_image():
    for d, delta in ((7, 1), (8, 1), (9, 1), (10, -1), (11, 1), (12, 1)):
        image = {p.key() for p in enumerate_elliptic(d, delta, R)}
        for levi in ("M1", "M2", "M12"):
            for g in enumerate_G_endoscopy(levi, d, delta, R):
                h = to_EG(g)
                assert h.key() in image
                assert h.d_plus + h.d_minus == d + (1 if d % 2 else 0)


def test_tau_k_identity_sweep():
    for d in range(7, 13):
        delta = 1 if (d % 2 == 1 or (d // 2) % 2 == 0) else -1
        for levi in ("M1", "M2", "M12"):
            for g in enumerate_G_endoscopy(levi, d, delta, R):
                assert tau_k_identity_check(levi, g, d), (d, levi, g)
