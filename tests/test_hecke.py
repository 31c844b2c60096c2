import hashlib
import itertools
import json
import random
import re
from operator import mul

import pytest

from endolab import cli, hecke
from endolab.errors import ExactDomainError
from endolab.hecke import (
    EndoSignVector,
    FrobTwist,
    HeckeElement,
    LocalDatumAtP,
    RelativeWeylGroup,
    UnramifiedGroup,
    _act_columns,
    _columns,
    _flip,
    _gl_block_group,
    _block_split,
    _frob_twist,
    _h_sign_vector,
    _iota_inverse,
    _is_minuscule,
    _levi_relative_group,
    _needs_shuffle,
    _orbit,
    _rho_doubled,
    _rows,
    _so_block_group,
    _so_factor_gens,
    _transposition,
    ambient_group_at_p,
    base_change_image,
    compute_fH_at_p,
    constant_term,
    expected_k_table,
    h_relative_group,
    k_a_element,
    ka_base_change_relation,
    phi_a,
    satake_minuscule,
    twisted_transfer,
)
from endolab.levi import gl_labels
from endolab.rootdata import RootDatum, WeylElement, rho
from test_rootdata import weyl_group

TRIV1 = RelativeWeylGroup(1, ())
TRIV2 = RelativeWeylGroup(2, ())


def test_satake_minuscule_b3():
    g = UnramifiedGroup("B", 3)
    f = satake_minuscule(g, (1, 0, 0))
    assert set(f.coeffs) == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    }
    # q-prefactor q^(5/2): <delta, mu_dom> = 5/2 exactly
    assert f.q2 == 5 and all(c == 1 for c in f.coeffs.values())
    assert f.check_invariance()


def test_satake_minuscule_unit_and_errors():
    g = UnramifiedGroup("B", 3)
    f0 = satake_minuscule(g, (0, 0, 0))
    assert f0.coeffs == {(0, 0, 0): 1} and f0.q2 == 0
    with pytest.raises(ExactDomainError):
        satake_minuscule(g, (1, 1, 0))


def test_satake_relative_orbit_nonsplit():
    g = UnramifiedGroup("D", 4, flips=(3,))
    f1 = satake_minuscule(g, (1, 0, 0, 0), degree=1)
    assert len(f1.coeffs) == 6  # last coordinate missing from the relative orbit
    f2 = satake_minuscule(g, (1, 0, 0, 0), degree=2)
    assert len(f2.coeffs) == 8
    with pytest.raises(ExactDomainError):
        satake_minuscule(g, (0, 0, 0, 1), degree=1)  # not defined over the base


@pytest.mark.parametrize("degree", [0, -1])
def test_degree_below_one_is_refused(degree):
    """A degree a < 1 is refused as `FrobTwist` refuses it, before the cached
    relative group is read: the Satake image would otherwise carry q2 = 0 or
    -3 at a = 0 or -1."""
    g = UnramifiedGroup("B", 2)
    info = hecke._relative_group.cache_info()
    with pytest.raises(ExactDomainError, match="degree must be >= 1"):
        satake_minuscule(g, (1, 0), degree=degree)
    with pytest.raises(ExactDomainError, match="degree must be >= 1"):
        g.relative_group(degree)
    with pytest.raises(ExactDomainError, match="degree must be >= 1"):
        FrobTwist(degree, WeylElement.identity(2))
    assert hecke._relative_group.cache_info() == info
    assert satake_minuscule(g, (1, 0), degree=1).q2 == 3


def test_twisted_transfer_examples():
    x = HeckeElement(1, {(1,): 1}, TRIV1, 0)
    ident = WeylElement.identity(1)
    assert twisted_transfer(x, EndoSignVector((1,)), FrobTwist(1, ident), TRIV1) == x
    t2 = twisted_transfer(x, EndoSignVector((1,)), FrobTwist(2, ident), TRIV1)
    assert set(t2.coeffs) == {(2,)}
    t3 = twisted_transfer(x, EndoSignVector((-1,)), FrobTwist(3, ident), TRIV1)
    assert t3.coeffs[(3,)] == -1 and t3.q2 == 0


def test_twisted_transfer_iota_independence():
    # replacing the admissible identification iota by w_H o iota o w_G, with
    # w_G in the source relative Weyl group and w_H in the target one, leaves
    # the transfer fixed
    g = UnramifiedGroup("B", 3)
    f = satake_minuscule(g, (1, 0, 0), degree=2)
    datum = LocalDatumAtP("M12", "odd", 3, 2, 1, frozenset({1}))
    iota = _fresh_iota_inverse(datum)
    h_group = h_relative_group(datum)
    s_h = EndoSignVector((1, 1, -1))
    t = FrobTwist(2, WeylElement.identity(3))
    base = twisted_transfer(f, s_h, t, h_group, reindex=iota)
    for w_g in g.relative_group(2).gens:
        assert twisted_transfer(f, s_h, t, h_group, reindex=iota * w_g) == base
    for w_h in h_group.gens:
        assert twisted_transfer(f, s_h, t, h_group, reindex=w_h * iota) == base


def test_twisted_transfer_rejects_noninvariant_input():
    g = UnramifiedGroup("B", 2)
    lopsided = HeckeElement(2, {(1, 0): 1}, g.relative_group(), 0)
    with pytest.raises(ExactDomainError):
        twisted_transfer(lopsided, EndoSignVector((1, 1)), FrobTwist(1, WeylElement.identity(2)), TRIV2)


def test_constant_term_retags():
    g = UnramifiedGroup("B", 3)
    f = satake_minuscule(g, (1, 0, 0))
    small = RelativeWeylGroup(3, (_transposition(3, 0, 1),))
    ct = constant_term(f, small)
    assert ct.coeffs == f.coeffs  # all monomials retained
    smaller = RelativeWeylGroup(3, ())
    assert constant_term(ct, smaller).coeffs == f.coeffs  # functoriality
    big = g.relative_group()
    with pytest.raises(ExactDomainError):
        constant_term(
            HeckeElement(3, {(1, 0, 0): 1}, smaller, 0), big
        )


def _count_walks(monkeypatch) -> list:
    """Record how many elements each walk of a relative Weyl group yields."""
    walk = RelativeWeylGroup._walk
    sizes = []

    def counting(self):
        sizes.append(0)
        for w in walk(self):
            sizes[-1] += 1
            yield w

    monkeypatch.setattr(RelativeWeylGroup, "_walk", counting)
    return sizes


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_split_relative_group_generators(m):
    """The full W(B_m) and split W(D_m), as the SO factor over all m
    coordinates: the adjacent transpositions, then the last flip on B and
    the flip of the last two coordinates on D (none on D_1), in that order;
    on D also with flips over an even degree, where Frobenius acts trivially."""
    transpositions = [_transposition(m, i, i + 1) for i in range(m - 1)]
    want_b = tuple(transpositions + [_flip(m, m - 1)])
    want_d = tuple(transpositions + ([_flip(m, m - 1) * _flip(m, m - 2)] if m >= 2 else []))
    assert UnramifiedGroup("B", m).relative_group().gens == want_b
    assert UnramifiedGroup("D", m).relative_group().gens == want_d
    assert UnramifiedGroup("D", m, (0,)).relative_group(2).gens == want_d


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_is_subgroup_of(m, monkeypatch):
    hecke._is_subgroup.cache_clear()  # every answer below is walked afresh
    w_b = UnramifiedGroup("B", m).relative_group()
    w_d = UnramifiedGroup("D", m).relative_group()
    flip = RelativeWeylGroup(m, (_flip(m, 0),))
    full_b, full_d = frozenset(w_b._walk()), frozenset(w_d._walk())
    assert (len(full_b), len(full_d)) == (2 * len(full_d), len(full_d))
    sizes = _count_walks(monkeypatch)

    assert w_d.is_subgroup_of(w_b)
    assert sizes[-1] <= len(full_b)
    if m >= 3:  # the generators of W(D_m) appear before the walk of W(B_m) ends
        assert sizes[-1] < len(full_b)
    assert not flip.is_subgroup_of(w_d)
    assert sizes[-1] == len(full_d)  # False only after the whole walk
    assert flip.is_subgroup_of(w_b) and not w_b.is_subgroup_of(w_d)
    assert RelativeWeylGroup(m, ()).is_subgroup_of(w_d)
    walks = len(sizes)
    assert not w_d.is_subgroup_of(UnramifiedGroup("B", m + 1).relative_group())
    assert len(sizes) == walks  # a rank mismatch walks nothing

    for small, big, full in ((w_d, w_b, full_b), (flip, w_d, full_d), (flip, w_b, full_b), (w_b, w_d, full_d)):
        assert small.is_subgroup_of(big) == (set(small.gens) <= full), (small.gens, big.gens)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cached_subgroup_answer_is_per_pair(m):
    """Negative control: a cached True for W(D_m) in W(B_m) or in itself
    does not answer for another pair with the same small or the same big group."""
    w_b = UnramifiedGroup("B", m).relative_group()
    w_d = UnramifiedGroup("D", m).relative_group()
    flip = RelativeWeylGroup(m, (_flip(m, 0),))
    assert w_d.is_subgroup_of(w_b) and w_d.is_subgroup_of(w_d)
    assert w_d.is_subgroup_of(w_b) and w_d.is_subgroup_of(w_d)  # from the cache
    assert not flip.is_subgroup_of(w_d)
    assert not w_d.is_subgroup_of(flip)
    assert not w_b.is_subgroup_of(w_d)
    assert flip.is_subgroup_of(w_b)


def test_groups_reject_generators_and_flips_out_of_range():
    with pytest.raises(ExactDomainError, match="generator rank mismatch"):
        RelativeWeylGroup(2, (_flip(3, 0),))
    with pytest.raises(ExactDomainError, match="generator rank mismatch"):
        RelativeWeylGroup(3, (_transposition(3, 0, 1), _flip(2, 0)))
    for flips in ((-1,), (5,), (3,), (0, -3)):
        with pytest.raises(ExactDomainError, match="flip coordinates"):
            UnramifiedGroup("D", 3, flips)
    for kind in ("B", "D"):
        with pytest.raises(ExactDomainError, match="rank must be >= 1"):
            UnramifiedGroup(kind, 0)
    assert UnramifiedGroup("D", 3, (2,)).sigma() == _flip(3, 2)


def _pair(s: EndoSignVector, chi) -> int:
    """<chi, s> = prod s_i^chi_i for one cocharacter, term by term: the
    reference for the transfer's sign pairing over columns."""
    if len(chi) != len(s.s):
        raise ExactDomainError("cocharacter rank mismatch")
    sign = 1
    for si, e in zip(s.s, chi):
        if si == -1 and e % 2:
            sign = -sign
    return sign


def test_sign_vector_pairs_only_its_own_rank():
    s = EndoSignVector((1, -1))
    assert _pair(s, (1, 1)) == -1 and _pair(s, (3, 2)) == 1 and _pair(s, (0, -3)) == -1
    for chi in ((1, 1, 1), (1,), ()):
        with pytest.raises(ExactDomainError, match="cocharacter rank mismatch"):
            _pair(s, chi)
    x = HeckeElement(1, {(1,): 1}, TRIV1, 0)
    for bad in (EndoSignVector((1, -1)), EndoSignVector(())):
        with pytest.raises(ExactDomainError, match="sign vector rank mismatch"):
            twisted_transfer(x, bad, FrobTwist(1, WeylElement.identity(1)), TRIV1)
    with pytest.raises(ExactDomainError, match="entries must be"):
        EndoSignVector((1, 0))


def test_walk_refuses_a_group_past_the_cap(monkeypatch):
    monkeypatch.setattr(hecke, "_WALK_CAP", 7)
    assert len(frozenset(UnramifiedGroup("D", 2).relative_group()._walk())) == 4
    with pytest.raises(ExactDomainError, match="relative Weyl group too large"):
        frozenset(UnramifiedGroup("B", 2).relative_group()._walk())  # 8 elements


def test_compute_fH_table_spot_values():
    k, _ = compute_fH_at_p("M12", "odd", 3, 3, 0, [1, 2], 2)
    assert k == expected_k_table("M12", [1, 2], 2)
    k, _ = compute_fH_at_p("M1", "odd", 3, 1, 2, [], 1)
    assert k == expected_k_table("M1", [], 1)
    k, _ = compute_fH_at_p("M2", "odd", 3, 2, 1, [1], 3)
    assert k == expected_k_table("M2", [1], 3)


def test_compute_fH_h_independent_of_A():
    results = []
    for A in ((), (1,), (2,), (1, 2)):
        mp = 1 + len(A)  # base (3, 1) for d = 7
        k, h = compute_fH_at_p("M12", "odd", 3, mp, 3 - mp, list(A), 2)
        assert k == expected_k_table("M12", A, 2)
        results.append(h.serialize())
    assert all(r == results[0] for r in results)


def test_compute_fH_rejects_bad_params():
    with pytest.raises(ExactDomainError):
        compute_fH_at_p("M12", "odd", 3, 2, 2, [1], 1)  # ranks do not add up
    with pytest.raises(ExactDomainError):
        compute_fH_at_p("M1", "odd", 3, 3, 0, [1], 1)  # M1 cannot split the block
    with pytest.raises(ExactDomainError):
        # even case: rank-1 factor with square discriminant is the excluded (2,1)
        compute_fH_at_p("M12", "even", 4, 3, 1, [1, 2], 1, True, True)


def test_relative_orbit_gl_block_split():
    # the part of the minuscule orbit supported on the two GL coordinates is
    # exactly {+-e1, +-e2}, in both parities
    for kind, m in (("B", 4), ("D", 4)):
        g = UnramifiedGroup(kind, m)
        f = satake_minuscule(g, (1,) + (0,) * (m - 1))
        gl_part = {e for e in f.coeffs if any(e[:2]) and not any(e[2:])}
        assert gl_part == {(1, 0) + (0,) * (m - 2), (-1, 0) + (0,) * (m - 2),
                           (0, 1) + (0,) * (m - 2), (0, -1) + (0,) * (m - 2)}


def test_transfer_restrict_bracketings_agree():
    # restricting after transferring equals transferring straight into the
    # Levi-tagged algebra
    datum = LocalDatumAtP("M12", "odd", 3, 2, 1, frozenset({1}))
    g = ambient_group_at_p(datum)
    f = satake_minuscule(g, (-1, 0, 0), degree=2)
    s = EndoSignVector((1, 1, -1))
    twist = FrobTwist(2, g.sigma())
    iota = _fresh_iota_inverse(datum)
    levi_group = _levi_relative_group(datum)
    via_h = constant_term(
        twisted_transfer(f, s, twist, h_relative_group(datum), reindex=iota), levi_group
    )
    direct = twisted_transfer(f, s, twist, levi_group, reindex=iota)
    assert via_h.coeffs == direct.coeffs


def test_q_degree_bookkeeping():
    for d, kind in ((7, "B"), (9, "B"), (8, "D"), (10, "D")):
        m = d // 2
        g = UnramifiedGroup(kind, m)
        f = satake_minuscule(g, (1,) + (0,) * (m - 1), degree=2)
        assert f.q2 == 2 * (d - 2)


def test_base_change_and_k_a():
    assert ka_base_change_relation("M2", 1)["matches"]
    assert ka_base_change_relation("M2", 3)["matches"]
    assert ka_base_change_relation("M12", 2)["matches"]
    rel = ka_base_change_relation("M1", 2)
    assert rel["matches"] and rel["q_shift_doubled"] == -2
    bc = base_change_image("GL1", 1, phi_a("GL1", 1))
    assert set(bc.coeffs) == {(-1,)}
    u = HeckeElement(2, {(0, 0): 1}, TRIV2, 0)
    assert base_change_image("GL2", 3, u) == u
    assert set(k_a_element("M1", 2).coeffs) == {(-2, 0), (0, -2)}


def test_serialization_roundtrip():
    g = UnramifiedGroup("B", 2)
    f = satake_minuscule(g, (1, 0))
    data = f.serialize()
    json.dumps(data)  # JSON-safe
    assert data == [[[-1, 0], [[3, 1]]], [[0, -1], [[3, 1]]], [[0, 1], [[3, 1]]], [[1, 0], [[3, 1]]]]


# --- the whole sweep of local shapes ----------------------------------------------


def _local_shapes(ds=(7, 8, 9, 10)):
    """compute_fH_at_p arguments of every local shape of `verify satake`:
    d in ds (its acceptance sweep by default), a = 1, 2, 3, every base,
    discriminant pattern and subset A."""
    for d in ds:
        parity = "odd" if d % 2 else "even"
        m = d // 2
        for levi, gl, subsets in (("M1", 2, ((), (1, 2))), ("M2", 1, ((), (1,))), ("M12", 2, ((), (1,), (2,), (1, 2)))):
            d_so = d - 2 * gl
            if d_so < 3:
                continue
            if parity == "odd":
                bases, squares = range(1, d_so + 1, 2), [(True, True)]
            else:
                bases = range(0, d_so + 1, 2)
                squares = [(True, True), (True, False), (False, True), (False, False)]
            for bp in bases:
                for sq in squares:
                    for a in (1, 2, 3):
                        for A in subsets:
                            mp = bp // 2 + len(A)
                            yield (levi, parity, m, mp, m - mp, list(A), a, *sq)


@pytest.fixture(scope="module")
def sweep():
    """(arguments, (k, h) or the exclusion message) for every local shape."""
    out = []
    for args in _local_shapes():
        try:
            out.append((args, compute_fH_at_p(*args)))
        except ExactDomainError as exc:
            out.append((args, str(exc)))
    return out


def test_normalization_cancels_the_satake_q_power(sweep):
    """p^(a(2-d)/2) cancels q_a^<delta, mu_dom> exactly: every k and h part is
    at q^0."""
    parts = [part for _, res in sweep if not isinstance(res, str) for part in res]
    assert len(parts) == 2 * 414
    assert all(part.q2 == 0 for part in parts)


def test_sweep_serializations_are_pinned(sweep):
    """All 852 shapes serialize as they did with one q-Laurent coefficient per
    monomial (sha256 recorded before the change to integer coefficients)."""
    out = [res if isinstance(res, str) else [res[0].serialize(), res[1].serialize()] for _, res in sweep]
    assert (len(out), sum(not isinstance(r, str) for r in out)) == (852, 414)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "9b5889dce99933193b10f03dd5820f067d5ec430d3f056b5510138a5868fc34c"


def test_equality_compares_the_q_power():
    """Negative control: the k(A) table at another q-power is another element,
    so `k == expected_k_table(...)` checks the normalization too."""
    table = expected_k_table("M12", [1], 2)
    shifted = table.scale(1, 2)
    assert shifted.coeffs == table.coeffs and shifted.q2 == table.q2 + 2
    assert shifted != table
    assert shifted.serialize() != table.serialize()
    k, _ = compute_fH_at_p("M12", "odd", 3, 2, 1, [1], 2)
    assert k == table and k.scale(1, 2) != table and k.scale(-1, 0) != table
    # an element with no terms is zero whatever its q-power
    assert HeckeElement(1, {(1,): 0}, TRIV1, 0) == HeckeElement(1, {}, TRIV1, 4)


# --- the group-theoretic caches -------------------------------------------------------
# Fresh builds, without any cache: the builders as they read the whole local datum.


def _fresh_relative_group(group: UnramifiedGroup, degree: int) -> RelativeWeylGroup:
    m, flips = group.rank, group.flips
    if group.kind == "B" or not flips or degree % 2 == 0:
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


def _fresh_h_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    m, mp = datum.m, datum.m_plus
    gens = _so_factor_gens(m, 0, mp, datum.parity, datum.delta_plus_square)
    gens += _so_factor_gens(m, mp, datum.m_minus, datum.parity, datum.delta_minus_square)
    return RelativeWeylGroup(m, tuple(gens))


def _fresh_levi_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    m, mp = datum.m, datum.m_plus
    gens = []
    if datum.levi == "M1":
        s = 0 if datum.A else mp
        gens.append(_transposition(m, s, s + 1))
    gens += _so_factor_gens(m, datum.gl_plus, datum.n_plus, datum.parity, datum.delta_plus_square)
    gens += _so_factor_gens(m, mp + datum.gl_minus, datum.n_minus, datum.parity, datum.delta_minus_square)
    return RelativeWeylGroup(m, tuple(gens))


def _fresh_gl_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    if datum.levi == "M1":
        return RelativeWeylGroup(2, (_transposition(2, 0, 1),))
    return RelativeWeylGroup(len(gl_labels(datum.levi)), ())


def _fresh_so_group(datum: LocalDatumAtP) -> RelativeWeylGroup:
    rank = datum.m - len(gl_labels(datum.levi))
    gens = _so_factor_gens(rank, 0, datum.n_plus, datum.parity, datum.delta_plus_square)
    gens += _so_factor_gens(rank, datum.n_plus, datum.n_minus, datum.parity, datum.delta_minus_square)
    return RelativeWeylGroup(rank, tuple(gens))


def _fresh_iota_inverse(datum: LocalDatumAtP) -> WeylElement:
    m, mp, mm = datum.m, datum.m_plus, datum.m_minus
    perm = [0] * m
    if datum.parity == "even" and not datum.delta_minus_square and mp > 0:
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


def _fresh_block_split(datum: LocalDatumAtP) -> WeylElement:
    m, m_plus = datum.m, datum.m_plus
    order = []
    plus_used = minus_used = 0
    for lab in gl_labels(datum.levi):
        if lab in datum.A:
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


def _fresh_sign_vector(datum: LocalDatumAtP) -> EndoSignVector:
    return EndoSignVector((1,) * datum.m_plus + (-1,) * datum.m_minus)


def _fresh_ambient_group(datum: LocalDatumAtP) -> UnramifiedGroup:
    if datum.parity == "odd":
        return UnramifiedGroup("B", datum.m, ())
    dp, dm = datum.delta_plus_square, datum.delta_minus_square
    if dp and dm:
        flips = ()
    elif dp != dm:
        flips = (datum.m - 1,)
    else:
        flips = (datum.m_minus - 1, datum.m - 1)
    return UnramifiedGroup("D", datum.m, flips)


def _fresh_frob_twist(a: int, group: UnramifiedGroup) -> FrobTwist:
    signs = [1] * group.rank
    for i in group.flips:
        signs[i] = -1
    return FrobTwist(a, WeylElement(tuple(signs), tuple(range(group.rank))))


def _bfs_orbit(elements, mu: tuple) -> set:
    """The orbit of mu as its images under every element of the group."""
    return {w.act_tuple(mu) for w in elements}


def test_cached_builders_equal_fresh_builds():
    """On every admissible shape of `verify satake`, each cached group, orbit
    and subgroup answer equals a fresh build, and a second call hits the cache."""
    walks: dict = {}  # group -> its elements, by a breadth-first walk

    def elements(g):
        if g not in walks:
            walks[g] = frozenset(g._walk())
        return walks[g]

    admissible = 0
    for levi, parity, m, mp, mm, A, a, dps, dms in _local_shapes():
        try:
            datum = LocalDatumAtP(levi, parity, m, mp, mm, frozenset(A), dps, dms)
        except ExactDomainError:
            continue
        admissible += 1
        group = ambient_group_at_p(datum)
        rel = group.relative_group(a)
        assert rel == _fresh_relative_group(group, a)
        assert group.relative_group(a) is rel
        free = next(i for i in range(m) if i not in group.flips)
        mu = tuple(-1 if i == free else 0 for i in range(m))
        orbit = _orbit(rel, mu)
        assert isinstance(orbit, tuple) and len(set(orbit)) == len(orbit)
        assert set(orbit) == _bfs_orbit(elements(rel), mu)
        assert set(satake_minuscule(group, mu, degree=a).coeffs) == set(orbit)

        h = h_relative_group(datum)
        levi_group = _levi_relative_group(datum)
        assert h == _fresh_h_group(datum) and h_relative_group(datum) is h
        assert levi_group == _fresh_levi_group(datum)
        assert _gl_block_group(datum.levi) == _fresh_gl_group(datum)
        assert _so_block_group(datum) == _fresh_so_group(datum)
        assert levi_group.is_subgroup_of(h) == (set(levi_group.gens) <= elements(h)) is True
    assert admissible == 414


def test_per_key_builders_equal_the_per_datum_code():
    """On every admissible shape of d = 7..10 and a = 1..3, the objects that
    `compute_fH_at_p` reads from its per-key caches (iota^-1, the block
    split, the Frobenius twist, the H sign vector, the ambient group and the
    rho pairing) equal the per-datum constructions above, and a second call
    returns the cached object."""
    admissible = 0
    for levi, parity, m, mp, mm, A, a, dps, dms in _local_shapes():
        try:
            datum = LocalDatumAtP(levi, parity, m, mp, mm, frozenset(A), dps, dms)
        except ExactDomainError:
            continue
        admissible += 1
        group = ambient_group_at_p(datum)
        assert group == _fresh_ambient_group(datum) and ambient_group_at_p(datum) is group
        built = {
            "iota": (_iota_inverse, (m, mp, mm, _needs_shuffle(datum)), _fresh_iota_inverse(datum)),
            "split": (_block_split, (levi, datum.A, m, mp), _fresh_block_split(datum)),
            "twist": (_frob_twist, (a, group), _fresh_frob_twist(a, group)),
            "signs": (_h_sign_vector, (mp, mm), _fresh_sign_vector(datum)),
            "rho": (_rho_doubled, (group.kind, m), rho(RootDatum(group.kind, m)).doubled),
        }
        for name, (builder, key, fresh) in built.items():
            cached = builder(*key)
            assert cached == fresh, (name, datum)
            assert builder(*key) is cached, name
    assert admissible == 414


def test_caches_stay_bounded_under_verify_satake(capsys):
    """`verify satake` at its acceptance parameters fills every group-theoretic
    cache of the Hecke layer, each below its bound."""
    caches = {
        name: obj for name, obj in vars(hecke).items()
        if hasattr(obj, "cache_info") and obj.__module__ == hecke.__name__
    }
    assert sorted(caches) == [
        "_block_split", "_frob_twist", "_gl_block_group", "_h_sign_vector", "_iota_inverse", "_is_subgroup",
        "_levi_group", "_orbit", "_relative_group", "_rho_doubled", "_so_pair_group", "_unramified_group",
    ]
    for cache in caches.values():
        cache.cache_clear()
    assert cli.main(["verify", "satake", *cli.ACCEPTANCE["satake"]]) == 0
    capsys.readouterr()
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize is not None and 0 < info.currsize < info.maxsize, (name, info)


# --- the column kernel against the per-term path ----------------------------------------
# The per-term path acts with `act_tuple` on one exponent vector at a time and
# pairs one cocharacter at a time with `_pair`.


def _invariant_per_term(f: HeckeElement) -> bool:
    return all(f.coeffs.get(g.act_tuple(e)) == c for g in f.group.gens for e, c in f.coeffs.items())


def _transfer_per_term(f, s, twist, out_group, reindex):
    assert _invariant_per_term(f)
    out = {}
    for chi, c in f.coeffs.items():
        total = list(chi)
        cur = chi
        for _ in range(twist.a - 1):
            cur = twist.sigma.act_tuple(cur)
            total = [t + v for t, v in zip(total, cur)]
        norm_h = reindex.act_tuple(tuple(total))
        out[norm_h] = out.get(norm_h, 0) + _pair(s, reindex.act_tuple(chi)) * c
    result = HeckeElement(f.rank, out, out_group, f.q2)
    assert _invariant_per_term(result)
    return result


def _fH_per_term(levi, parity, m, m_plus, m_minus, A, a, dps=True, dms=True):
    """compute_fH_at_p with the transfer, the invariance checks and the split
    into the GL and SO blocks made term by term."""
    datum = LocalDatumAtP(levi, parity, m, m_plus, m_minus, frozenset(A), dps, dms)
    group = _fresh_ambient_group(datum)
    free = next(i for i in range(m) if i not in group.flips)
    f = satake_minuscule(group, tuple(-1 if i == free else 0 for i in range(m)), degree=a)
    transferred = _transfer_per_term(
        f, _fresh_sign_vector(datum), FrobTwist(a, group.sigma()), h_relative_group(datum), _fresh_iota_inverse(datum)
    )
    scaled = constant_term(transferred, _levi_relative_group(datum)).scale(1, -a * (datum.d - 2))
    gl_slots = {}  # GL label -> H slot: labels in A take the H+ slots, the others follow the H+ block
    for lab in gl_labels(levi):
        plus = lab in datum.A
        used = sum((slot < m_plus) == plus for slot in gl_slots.values())
        gl_slots[lab] = used if plus else m_plus + used
    gl_positions = {slot: lab for lab, slot in gl_slots.items()}
    so_positions = {j: n for n, j in enumerate(j for j in range(m) if j not in gl_positions)}
    k_coeffs, h_coeffs = {}, {}
    for e, c in scaled.coeffs.items():
        support = [j for j, v in enumerate(e) if v]
        if len(support) > 1:
            raise ExactDomainError("unexpected mixed monomial in the transfer")
        j = support[0] if support else None
        if j in gl_positions:
            ke = [0] * len(gl_slots)
            ke[gl_positions[j] - 1] = e[j]
            k_coeffs[tuple(ke)] = k_coeffs.get(tuple(ke), 0) + c
        else:
            he = [0] * len(so_positions)
            if j is not None:
                he[so_positions[j]] = e[j]
            h_coeffs[tuple(he)] = h_coeffs.get(tuple(he), 0) + c
    k = HeckeElement(len(gl_slots), k_coeffs, _gl_block_group(levi), scaled.q2)
    h = HeckeElement(len(so_positions), h_coeffs, _so_block_group(datum), scaled.q2)
    assert _invariant_per_term(k) and _invariant_per_term(h)
    return k, h


def test_column_kernel_equals_the_per_term_path():
    """On every shape that `verify satake` walks for d = 7..12 and a = 1..3,
    compute_fH_at_p gives the per-term path's k and h parts, with their ranks,
    groups and q-powers, and refuses the excluded shapes with the same reason."""
    computed = 0
    for args in _local_shapes(range(7, 13)):
        try:
            want = _fH_per_term(*args)
        except ExactDomainError as exc:
            with pytest.raises(ExactDomainError, match=re.escape(str(exc))):
                compute_fH_at_p(*args)
            continue
        got = compute_fH_at_p(*args)
        for part, ref in zip(got, want):
            assert (part.rank, part.coeffs, part.group, part.q2) == (ref.rank, ref.coeffs, ref.group, ref.q2), args
            assert part.serialize() == ref.serialize()
        computed += 1
    assert computed == 414 + 102 + 276  # the k(A) table checks of `verify satake` at d = 7..10, 11, 12


@pytest.mark.parametrize("where", ["GL and SO", "SO only", "GL only"])
def test_split_refuses_a_mixed_monomial(monkeypatch, where):
    """Negative control: a term with two nonzero coordinates, slipped into
    the constant term, is refused by the split wherever its two coordinates
    lie (the GL slots of M12 with A = {1, 2} are the first two H+ slots)."""
    args = ("M12", "odd", 4, 4, 0, [1, 2], 1)
    mixed = {"GL and SO": (1, 0, 1, 0), "SO only": (0, 0, 1, -1), "GL only": (1, 1, 0, 0)}[where]
    compute_fH_at_p(*args)
    real = hecke.constant_term

    def with_mixed_term(f, levi_group):
        out = real(f, levi_group)
        return HeckeElement(out.rank, {**out.coeffs, mixed: 1}, out.group, out.q2)

    monkeypatch.setattr(hecke, "constant_term", with_mixed_term)
    with pytest.raises(ExactDomainError, match="unexpected mixed monomial"):
        compute_fH_at_p(*args)


def _invariant_elements(sweep):
    """Invariant elements with nontrivial groups: the Satake images over the
    unramified groups of rank 1..5 at both degree parities, and the k and h
    parts of the acceptance sweep."""
    for kind, m in itertools.product("BD", range(1, 6)):
        flip_sets = [()] if kind == "B" else [(), (m - 1,)] + ([(m - 2, m - 1)] if m >= 2 else [])
        for flips in flip_sets:
            group = UnramifiedGroup(kind, m, flips)
            for degree in (1, 2):
                for free in (i for i in range(m) if i not in flips):
                    yield satake_minuscule(group, tuple(-1 if i == free else 0 for i in range(m)), degree)
    for _, res in sweep:
        if not isinstance(res, str):
            yield from res


def test_invariance_fails_on_one_moved_coefficient_for_each_generator(sweep):
    """Negative controls: for each generator on its own, an invariant element
    passes, and it fails once one coefficient is moved to an exponent that the
    generator moves and no term has, or, where the generator moves a term,
    once that term's coefficient changes; the per-term check agrees on each.
    An element with no terms is invariant at every rank."""
    moved_controls = changed_controls = 0
    for f in _invariant_elements(sweep):
        assert f.check_invariance() and _invariant_per_term(f)
        assert HeckeElement(f.rank, {}, f.group, f.q2).check_invariance()
        for g in f.group.gens:
            alone = RelativeWeylGroup(f.rank, (g,))
            assert HeckeElement(f.rank, f.coeffs, alone, f.q2).check_invariance()
            # g moves the unit vector e_j of a pull-back entry (sign, j) other than (1, k)
            j = next(j for k, (sign, j) in enumerate(g._pull) if (sign, j) != (1, k))
            e, c = next(iter(f.coeffs.items()))
            # every coordinate of a term is 0 or +-a with a <= 3, so 5 + e[j] is none of them
            to = tuple(x + 5 * (i == j) for i, x in enumerate(e))
            controls = [{**{x: v for x, v in f.coeffs.items() if x != e}, to: c}]
            moved_term = next((x for x in f.coeffs if g.act_tuple(x) != x), None)
            if moved_term is not None:
                controls.append({**f.coeffs, moved_term: f.coeffs[moved_term] + 1})
            for coeffs in controls:
                for group in (alone, f.group):
                    bad = HeckeElement(f.rank, coeffs, group, f.q2)
                    assert not bad.check_invariance() and not _invariant_per_term(bad), (coeffs, g)
            moved_controls += 1
            changed_controls += len(controls) - 1
    assert (moved_controls, changed_controls) == (1240, 1228)


def test_empty_and_rank_zero_elements_keep_their_terms():
    """zip(*columns) yields no vector at rank 0 and no column without terms,
    so both cases are guarded: an element with no terms is invariant at rank
    >= 1, and a rank-0 term survives the invariance check and the transfer."""
    for m in range(1, 6):
        group = UnramifiedGroup("B", m).relative_group()
        assert HeckeElement(m, {}, group, 0).check_invariance()
        assert _columns({}, m) == [[]] * m
        t = twisted_transfer(HeckeElement(m, {}, group, 0), EndoSignVector((-1,) * m), FrobTwist(2, _flip(m, 0)), group)
        assert t.coeffs == {}
    triv0 = RelativeWeylGroup(0, (WeylElement.identity(0),))
    x = HeckeElement(0, {(): 3}, triv0, 2)
    assert x.check_invariance() and _columns(x.coeffs, 0) == [] and list(_rows([], 2)) == [(), ()]
    t = twisted_transfer(x, EndoSignVector(()), FrobTwist(3, WeylElement.identity(0)), triv0)
    assert (t.coeffs, t.q2) == ({(): 3}, 2)


def test_act_columns_is_act_tuple_on_each_vector():
    """Column by column, a signed permutation maps every vector as act_tuple
    maps it alone; a column with sign +1 is the source column itself, and the
    source columns are never changed."""
    rng = random.Random(32)
    for m in range(1, 6):
        for w in itertools.islice(weyl_group(RootDatum("B", m)), 0, None, 11):
            vectors = list(dict.fromkeys(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(6)))
            cols = _columns(dict.fromkeys(vectors, 1), m)
            before = [list(c) for c in cols]
            images = _act_columns(w, cols)
            assert list(zip(*images)) == [w.act_tuple(v) for v in vectors]
            assert cols == before
            for image, (sign, j) in zip(images, w._pull):
                assert (image is cols[j]) == (sign == 1)


def test_frob_twist_refuses_sigma_that_does_not_square_to_one():
    """A 3-cycle and a transposition with unequal signs are refused; on every
    signed permutation of rank 1..3 the field test is sigma * sigma == 1."""
    for sigma in (WeylElement((1, 1, 1), (1, 2, 0)), WeylElement((1, -1), (1, 0))):
        with pytest.raises(ExactDomainError, match="sigma must square to the identity"):
            FrobTwist(1, sigma)
    for sigma in (WeylElement((-1, -1), (1, 0)), WeylElement((1, 1), (1, 0)), _flip(3, 1), WeylElement.identity(4)):
        assert FrobTwist(2, sigma).sigma is sigma
    for m in (1, 2, 3):
        for w in weyl_group(RootDatum("B", m)):
            try:
                FrobTwist(1, w)
                accepted = True
            except ExactDomainError:
                accepted = False
            assert accepted == (w * w == WeylElement.identity(m)), w


def test_minuscule_test_agrees_with_the_roots():
    """The minuscule test, read off the sorted |mu_i|, is |<alpha, mu>| <= 1
    over the positive roots, for every mu in {-2..2}^m, m = 1..4; a split
    group's Satake image exists exactly for those mu."""
    for kind, m in itertools.product("BD", range(1, 5)):
        roots = RootDatum(kind, m).positive_roots()
        group = UnramifiedGroup(kind, m)
        for mu in itertools.product(range(-2, 3), repeat=m):
            want = all(abs(sum(map(mul, alpha, mu))) <= 1 for alpha in roots)
            assert _is_minuscule(kind, sorted(map(abs, mu), reverse=True)) == want, (kind, mu)
            if want:
                assert satake_minuscule(group, mu).check_invariance()
            else:
                with pytest.raises(ExactDomainError, match="not minuscule"):
                    satake_minuscule(group, mu)


def test_relative_group_hash_is_that_of_its_fields():
    """The hash taken when the group is built is the hash of (rank, gens), and
    equality and the repr read the two fields only."""
    g = UnramifiedGroup("D", 4, (3,)).relative_group(1)
    twin = RelativeWeylGroup(g.rank, tuple(WeylElement(w.signs, w.perm) for w in g.gens))
    assert twin is not g and twin == g and hash(twin) == hash(g) == hash((g.rank, g.gens))
    assert RelativeWeylGroup(g.rank, g.gens[1:]) != g and RelativeWeylGroup(g.rank, g.gens) != g.gens
    assert repr(TRIV2) == "RelativeWeylGroup(rank=2, gens=())"
