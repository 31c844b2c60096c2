import itertools
import math
import random
from fractions import Fraction

import pytest

from endolab.errors import ExactDomainError
from endolab.exactnum import REAL, Place, _local_class, _num_den, hilbert_symbol
from endolab.quadspace import (
    QuadraticSpace,
    _closed_hasse,
    diagonalize,
    discriminant,
    exists_global_form,
    hasse_invariant,
    is_perfect,
    is_quasi_split_local,
    is_quasi_split_oracle,
    quasi_split_space,
    relevant_places,
    signature,
)
from endolab.exactnum import squareclass_of, smallest_nonresidue, GLOBAL, SquareClass


def test_diagonalize_identity():
    q = diagonalize([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert q.diag == (Fraction(1), Fraction(1), Fraction(1))


def test_diagonalize_hyperbolic_plane():
    q = diagonalize([[0, 1], [1, 0]])
    # isometric to diag(1, -1): trivial discriminant, trivial Hasse everywhere
    assert discriminant(q).is_trivial
    assert signature(q) == (1, 1)
    for v in relevant_places(q):
        assert hasse_invariant(q, v) == 1


def test_diagonalize_already_diagonal():
    q = diagonalize([[2, 0], [0, Fraction(-1, 3)]])
    assert q.diag == (Fraction(2), Fraction(-1, 3))


def test_diagonalize_degenerate():
    with pytest.raises(ExactDomainError):
        diagonalize([[1, 1], [1, 1]])
    with pytest.raises(ExactDomainError):
        diagonalize([[0, 1], [2, 0]])


def test_discriminant_examples():
    assert discriminant(QuadraticSpace.from_entries([1, -1])).is_trivial
    assert discriminant(QuadraticSpace.from_entries([Fraction(5)])).rep == 5
    assert discriminant(QuadraticSpace.from_entries([1, 1])).rep == -1


def test_signature_examples():
    assert signature(QuadraticSpace.from_entries([1, 1, -1])) == (2, 1)
    assert signature(QuadraticSpace.from_entries([-1])) == (0, 1)


def _random_congruence(rng, q):
    n = q.dim
    # random integral congruence transform of the Gram matrix
    while True:
        u = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = _det(u)
        if det != 0:
            break
    g = [[q.diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ugu = [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return ugu


def _det(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, n):
            f = Fraction(mat[r][c], mat[c][c])
            for k in range(c, n):
                mat[r][k] -= f * mat[c][k]
    return det


def test_invariants_under_congruence():
    # >= 100 random integral congruences per tested space
    rng = random.Random(5)
    spaces = [
        QuadraticSpace.from_entries(entries)
        for entries in ([1, -1, 2], [3, 5, -2, 1], [Fraction(1, 2), -3], [7, 7, -1, 2, 2])
    ]
    for q in spaces:
        for trial in range(100):
            q2 = diagonalize(_random_congruence(rng, q))
            assert discriminant(q2) == discriminant(q)
            places = set(relevant_places(q)) | set(relevant_places(q2))
            for v in places:
                assert hasse_invariant(q2, v) == hasse_invariant(q, v), (q.diag, q2.diag, v)


def test_hasse_product_formula():
    rng = random.Random(9)
    for trial in range(40):
        dim = rng.randint(1, 6)
        q = QuadraticSpace.from_entries(
            [Fraction(rng.choice([1, -1, 2, 3, -5, 7]), rng.choice([1, 2, 3])) for _ in range(dim)]
        )
        prod = 1
        for v in relevant_places(q):
            prod *= hasse_invariant(q, v)
        assert prod == 1


# Entry i of a test form is a local square-class representative times
# SQUARES[i]^2, so one class shows up as several rationals.
SQUARES = (Fraction(2), Fraction(3, 7), Fraction(5, 2), Fraction(1, 3), Fraction(7, 5))


def _class_reps(p: int) -> list[int]:
    units = [1, 3, 5, 7] if p == 2 else [1, smallest_nonresidue(p)]
    return [u * p**e for e in (0, 1) for u in units]


def _forms_by_class(p: int, max_dim: int = 5):
    reps = _class_reps(p)
    for dim in range(1, max_dim + 1):
        for combo in itertools.combinations_with_replacement(reps, dim):
            yield QuadraticSpace.from_entries([r * SQUARES[i] ** 2 for i, r in enumerate(combo)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hasse_by_multiplicities_matches_pairwise(p):
    """The one-pass Hasse invariant equals the pairwise product on every form
    of up to five entries drawn from the local square classes at p."""
    v = Place.finite(p)
    n_classes = 8 if p == 2 else 4
    assert len({_local_class(r, 1, p) for r in _class_reps(p)}) == n_classes
    forms = 0
    for q in _forms_by_class(p):
        assert _closed_hasse(q, v) == hasse_invariant(q, v), (q.diag, p)
        forms += 1
    assert forms == sum(math.comb(n_classes + k - 1, k) for k in range(1, 6))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_closed_hasse_matches_pairwise_on_random_fraction_forms(p):
    """Seeded random forms of dimension 1..9 with Fraction entries, whose
    numerators and denominators carry p, 2 and other primes."""
    v = Place.finite(p)
    rng = random.Random(1000 + p)
    signs = set()
    for _ in range(600):
        entries = [
            Fraction(
                rng.choice([1, -1]) * rng.randint(1, 60) * p ** rng.randint(0, 3),
                rng.randint(1, 40) * p ** rng.randint(0, 2),
            )
            for _ in range(rng.randint(1, 9))
        ]
        q = QuadraticSpace.from_entries(entries)
        eps = _closed_hasse(q, v)
        assert eps == hasse_invariant(q, v), (entries, p)
        signs.add(eps)
    assert signs == {1, -1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hasse_by_multiplicities_needs_the_self_pairing(p):
    """Negative control on the pair term of the one-pass formula, the sign
    from pairs of entries that are both 3 mod 4 (p = 2) or both of odd
    valuation (odd p): dropping (-1)^C(E,2) at p = 2 or (-1)^(eps(p) C(K,2))
    at p = 3, or wrongly keeping (-1)^C(K,2) at p = 5, where eps(5) = 0,
    changes the answer on some form of the sweep."""
    v = Place.finite(p)

    def mutated(q):
        classes = [_local_class(n, d, p) for n, d in q.num_den]
        count = sum(u % 4 == 3 for _, u in classes) if p == 2 else sum(odd for odd, _ in classes)
        return _closed_hasse(q, v) * (-1) ** math.comb(count, 2)

    assert any(mutated(q) != hasse_invariant(q, v) for q in _forms_by_class(p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_test_matches_oracle_on_fraction_entries(p):
    """Both sides off the int fast path: every entry is a Fraction, most with
    denominator != 1, and each class appears as several rationals."""
    v = Place.finite(p)
    verdicts = set()
    for q in _forms_by_class(p):
        assert all(type(c) is Fraction for c in q.diag)
        closed = is_quasi_split_local(q, v)
        assert closed == is_quasi_split_oracle(q, p), (q.diag, p)
        verdicts.add(closed)
    assert verdicts == {True, False}
    assert any(c.denominator != 1 for q in _forms_by_class(p, max_dim=2) for c in q.diag)


def test_hasse_from_counts_refuses_the_real_place(monkeypatch):
    """Local classes are defined at primes only: at the real place the one-pass
    formula raises, and it never reads the local class cache with p = 0."""
    from endolab import quadspace

    real_cache = quadspace._local_class
    places = []
    monkeypatch.setattr(quadspace, "_local_class", lambda n, d, p: places.append(p) or real_cache(n, d, p))
    for q in _pool_forms():
        with pytest.raises(ExactDomainError, match="finite places"):
            _closed_hasse(q, REAL)
    assert places == []
    # the finite place still goes through the (patched) cache
    q = QuadraticSpace.from_entries([3, 3, 6])
    assert _closed_hasse(q, Place.finite(3)) == hasse_invariant(q, Place.finite(3))
    assert places == [3, 3, 3]


def test_closed_test_and_oracle_take_separate_hasse_paths(monkeypatch):
    """The closed quasi-split test never calls the pairwise `hasse_invariant`;
    the classification oracle does, so the two stay independent."""
    from endolab import quadspace

    q = QuadraticSpace.from_entries([1, -3, 6, 2, -1])
    expected = is_quasi_split_oracle(q, 3)

    def refused(q, v):
        raise AssertionError("pairwise Hasse product called")

    monkeypatch.setattr(quadspace, "hasse_invariant", refused)
    assert is_quasi_split_local(q, Place.finite(3)) == expected
    with pytest.raises(AssertionError, match="pairwise"):
        is_quasi_split_oracle(q, 3)


def _twisted_product_class(entries):
    """The discriminant from scratch: (-1)^(d/2) times the product of the
    entries for even d, the product for odd d, as a global square class."""
    d = len(entries)
    prod = math.prod(Fraction(c) for c in entries)
    if d % 2 == 0:
        prod *= (-1) ** (d // 2)
    return squareclass_of(prod, GLOBAL)


def _quasisplit_sweep():
    """The forms of `verify quasisplit`: every diagonal form of dim <= 10 with
    entries in {+-1, +-p, +-2p}, with its prime p = 3, 5, 7."""
    for p in (3, 5, 7):
        for dim in range(1, 11):
            for entries in itertools.combinations_with_replacement((1, -1, p, -p, 2 * p, -2 * p), dim):
                yield entries, p


def test_stored_discriminant_is_the_twisted_product_of_the_entries():
    forms = 0
    for entries, _ in _quasisplit_sweep():
        assert discriminant(QuadraticSpace.from_entries(entries)) == _twisted_product_class(entries), entries
        forms += 1
    assert forms == 24021
    for q in _pool_forms():
        assert discriminant(q) == _twisted_product_class(q.diag), q.diag
    rng = random.Random(17)
    for trial in range(200):
        entries = [Fraction(rng.choice([1, -1, 2, -3, 5, -6, 7]), rng.randint(1, 12)) for _ in range(rng.randint(1, 9))]
        assert discriminant(QuadraticSpace.from_entries(entries)) == _twisted_product_class(entries), entries
    # zero diagonal entries take the e_k += e_j branch of the elimination
    gram = [[0, 1, 2, 0], [1, 0, 3, Fraction(1, 2)], [2, 3, 5, 0], [0, Fraction(1, 2), 0, 0]]
    q = diagonalize(gram)
    assert discriminant(q) == _twisted_product_class(q.diag)
    assert discriminant(q) == squareclass_of(_det(gram), GLOBAL)  # d = 4: no twist


def test_discriminant_is_computed_once_per_space(monkeypatch):
    """The space stores its discriminant when it is built; the closed test,
    the oracle, `is_perfect` and `discriminant` only read it."""
    from endolab import quadspace

    calls = []
    real = quadspace.squarefree_part
    monkeypatch.setattr(quadspace, "squarefree_part", lambda n: calls.append(n) or real(n))
    q = QuadraticSpace.from_entries([1, -3, 6, 2, -1, 7])
    assert len(calls) == 1
    for p in (3, 7):
        is_quasi_split_oracle(q, p)  # builds the models this test reads
    calls.clear()
    for p in (3, 7):
        assert discriminant(q) is discriminant(q)
        is_quasi_split_local(q, Place.finite(p))
        is_quasi_split_oracle(q, p)
        is_perfect(q, p)
    is_quasi_split_local(q, REAL)
    assert calls == []


def test_oracle_builds_one_model_per_dimension_discriminant_and_prime(monkeypatch):
    from endolab import quadspace

    built = []
    real = quadspace.quasi_split_space
    monkeypatch.setattr(quadspace, "quasi_split_space", lambda d, delta: built.append((d, delta.rep)) or real(d, delta))
    quadspace._model_invariants.cache_clear()
    keys = set()
    for entries, p in _quasisplit_sweep():
        if len(entries) <= 6:
            q = QuadraticSpace.from_entries(entries)
            assert is_quasi_split_oracle(q, p) == is_quasi_split_local(q, Place.finite(p)), (entries, p)
            keys.add((q.dim, discriminant(q).rep, p))
    assert len(built) == len(keys) < 200


def test_model_cache_keyed_without_the_prime_gives_wrong_answers(monkeypatch):
    """Negative control: the model's invariants reused across primes for the
    same (dim, disc) make the oracle disagree with the closed test."""
    from endolab import quadspace

    real = quadspace._model_invariants
    first = {}

    def keyed_without_p(d, delta_rep, p):
        return first.setdefault((d, delta_rep), real(d, delta_rep, p))

    monkeypatch.setattr(quadspace, "_model_invariants", keyed_without_p)
    wrong = 0
    for entries, p in _quasisplit_sweep():
        if len(entries) <= 4:
            q = QuadraticSpace.from_entries(entries)
            wrong += is_quasi_split_oracle(q, p) != is_quasi_split_local(q, Place.finite(p))
    assert wrong > 0


def test_closed_target_hasse_is_a_formula_cached_per_dimension_discriminant_and_prime(monkeypatch):
    """The closed test reads the Hasse value a quasi-split space must have from
    a cache keyed on (dim, disc rep, p), filled by the closed formula: it never
    builds the oracle's quasi-split model."""
    from endolab import quadspace

    def refused(d, delta):
        raise AssertionError("quasi-split model built")

    quadspace._quasi_split_hasse.cache_clear()
    monkeypatch.setattr(quadspace, "quasi_split_space", refused)
    keys = set()
    for entries, p in _quasisplit_sweep():
        if len(entries) <= 6:
            q = QuadraticSpace.from_entries(entries)
            is_quasi_split_local(q, Place.finite(p))
            keys.add((q.dim, discriminant(q).rep, p))
    info = quadspace._quasi_split_hasse.cache_info()
    assert info.misses == len(keys) < info.hits
    monkeypatch.undo()
    for d, rep, p in keys:
        model = quasi_split_space(d, SquareClass(GLOBAL, rep))
        assert quadspace._quasi_split_hasse(d, rep, p) == hasse_invariant(model, Place.finite(p)), (d, rep, p)


def test_quasi_split_signature_table():
    # d = 7, signature (4,3), delta = det = (+)(-)^3 < 0 = (-1)^3: quasi-split
    q = QuadraticSpace.from_entries([1, 1, 1, 1, -1, -1, -1])
    assert is_quasi_split_local(q, REAL)
    # d = 7, signature (5,2): excluded by the table
    q2 = QuadraticSpace.from_entries([1, 1, 1, 1, 1, -1, -1])
    assert not is_quasi_split_local(q2, REAL)


def test_quasi_split_oracle_agreement_sample():
    rng = random.Random(3)
    for p in (3, 5, 7):
        entries = [1, -1, p, -p, 2 * p, -2 * p]
        for trial in range(150):
            dim = rng.randint(1, 7)
            q = QuadraticSpace.from_entries([rng.choice(entries) for _ in range(dim)])
            assert is_quasi_split_local(q, Place.finite(p)) == is_quasi_split_oracle(q, p)


def test_quasi_split_formula_at_two_matches_classification():
    # the v = 2 criterion is formula-derived; the (dim, disc, Hasse)
    # classification still gives an independent consistency check there
    rng = random.Random(8)
    entries = [1, -1, 2, -2, 3, -3, 6, -6, 5]
    for trial in range(600):
        dim = rng.randint(1, 8)
        q = QuadraticSpace.from_entries([rng.choice(entries) for _ in range(dim)])
        assert is_quasi_split_local(q, Place.finite(2)) == is_quasi_split_oracle(q, 2)


def test_perfect():
    # hyperbolic sums are split with trivial discriminant: perfect at any odd p
    q = quasi_split_space(8, squareclass_of(1, GLOBAL))
    assert is_perfect(q, 3) and is_perfect(q, 5)
    # odd-valuation discriminant fails perfection
    q2 = quasi_split_space(6, squareclass_of(5, GLOBAL))
    assert not is_perfect(q2, 5)
    # quasi-split non-split even form with even-valuation discriminant is perfect
    q3 = quasi_split_space(6, squareclass_of(2, GLOBAL))
    assert is_perfect(q3, 5)
    with pytest.raises(ExactDomainError):
        is_perfect(q, 2)


def test_exists_global_form_table():
    for d in range(3, 65):
        assert exists_global_form(d, 1) == (d % 8 in (3, 4, 5, 6)), d
    assert exists_global_form(11, 1)
    assert not exists_global_form(7, 1)
    assert not exists_global_form(9, 1)
    for d in (8, 16, 24):
        assert exists_global_form(d, 2)
        assert exists_global_form(d, 3)
    assert not exists_global_form(3, -1)
    with pytest.raises(ExactDomainError):
        exists_global_form(2, 1)


def test_exists_global_form_takes_hasse_from_class_counts(monkeypatch):
    """The existence criterion takes the one-pass `_closed_hasse` and never
    calls the pairwise `hasse_invariant`, which the oracle and the
    `quadspace` command keep."""
    from endolab import quadspace

    def refused(q, v):
        raise AssertionError("pairwise Hasse product called")

    closed = []
    real_closed = quadspace._closed_hasse
    monkeypatch.setattr(quadspace, "_closed_hasse", lambda q, v: closed.append(v.p) or real_closed(q, v))
    monkeypatch.setattr(quadspace, "hasse_invariant", refused)
    for d in range(3, 65):
        assert exists_global_form(d, 1) == (d % 8 in (3, 4, 5, 6)), d
    for d in (8, 16, 24):
        assert exists_global_form(d, 2)
    assert 2 in closed and 0 not in closed
    with pytest.raises(AssertionError, match="pairwise"):
        is_quasi_split_oracle(QuadraticSpace.from_entries([1, -3, 6]), 3)


@pytest.mark.parametrize("delta", [1, 2, 3, -1])
def test_hasse_by_class_counts_matches_pairwise_on_quasi_split_models(delta):
    """The models `exists_global_form` builds: both Hasse products agree at
    every relevant finite place, for every dimension its callers reach."""
    for d in range(3, 65):
        model = quasi_split_space(d, squareclass_of(delta, GLOBAL))
        for v in relevant_places(model):
            if not v.is_real:
                assert _closed_hasse(model, v) == hasse_invariant(model, v), (d, v.p)


# negative and non-integral entries, with 2, 3 and 7 in numerators and denominators
PAIR_POOL = [Fraction(1, 2), Fraction(-5, 3), Fraction(14, 9), -6, 7, Fraction(-3, 10)]
PAIR_PLACES = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7)]


def _pool_forms():
    for dim in range(2, 6):
        for entries in itertools.combinations(PAIR_POOL, dim):
            yield QuadraticSpace.from_entries(entries)


def _symbol_product(q, v, skip=()):
    eps = 1
    for i, j in itertools.combinations(range(q.dim), 2):
        if (i, j) not in skip:
            eps *= hilbert_symbol(q.diag[i], q.diag[j], v)
    return eps


@pytest.mark.parametrize("v", PAIR_PLACES, ids=repr)
def test_hasse_invariant_is_the_pairwise_symbol_product(v):
    """At a finite place `hasse_invariant` reads the space's integer pairs and
    the symbol cache directly; at every place it must equal
    prod_{i<j} hilbert_symbol(a_i, a_j, v) on the Fractions."""
    forms = list(_pool_forms())
    assert len(forms) == 56
    for q in forms:
        assert hasse_invariant(q, v) == _symbol_product(q, v), (q.diag, v)


@pytest.mark.parametrize("v", PAIR_PLACES, ids=repr)
def test_pairwise_product_without_one_pair_disagrees(v):
    """Negative control: the same product with the pair (0, 1) dropped
    disagrees with `hasse_invariant` on some form at every place."""
    assert any(_symbol_product(q, v, skip={(0, 1)}) != hasse_invariant(q, v) for q in _pool_forms())


def test_space_keeps_reduced_integer_pairs_out_of_eq_hash_and_repr():
    from_ints = QuadraticSpace.from_entries([1, -2, 3])
    from_fracs = QuadraticSpace.from_entries([Fraction(2, 2), Fraction(-4, 2), Fraction(3)])
    assert from_ints == from_fracs and hash(from_ints) == hash(from_fracs)
    assert from_ints.disc == from_fracs.disc and list(map(str, from_ints.diag)) == list(map(str, from_fracs.diag))
    # from_entries keeps the entries as given
    assert repr(from_ints) == "QuadraticSpace(diag=(1, -2, 3))"
    assert repr(from_fracs) == "QuadraticSpace(diag=(Fraction(1, 1), Fraction(-2, 1), Fraction(3, 1)))"
    raw_ints, raw_fracs = QuadraticSpace((1, -2)), QuadraticSpace((Fraction(1), Fraction(-2)))
    assert raw_ints == raw_fracs and hash(raw_ints) == hash(raw_fracs)
    assert repr(raw_ints) == "QuadraticSpace(diag=(1, -2))"
    q = QuadraticSpace.from_entries([Fraction(6, 4), Fraction(-5, 3), 7])
    assert q.num_den == ((3, 2), (-5, 3), (7, 1))
    assert raw_ints.num_den == raw_fracs.num_den == ((1, 1), (-2, 1))
    assert raw_ints.disc == raw_fracs.disc == squareclass_of(2, GLOBAL)
    for entries in ([1, 0, 2], [Fraction(0)], (Fraction(3), Fraction(0, 5))):
        with pytest.raises(ExactDomainError, match="degenerate diagonal entry"):
            QuadraticSpace.from_entries(entries)
    with pytest.raises(ExactDomainError, match="degenerate diagonal entry"):
        QuadraticSpace((1, 0))


def test_space_from_a_list_is_the_space_from_the_tuple():
    from_list, from_tuple = QuadraticSpace([1, 2]), QuadraticSpace((1, 2))
    assert from_list.diag == (1, 2) and type(from_list.diag) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert repr(from_list) == "QuadraticSpace(diag=(1, 2))"
    assert len({from_list, from_tuple, QuadraticSpace.from_entries([1, 2])}) == 1
    assert QuadraticSpace([1, 2]) != QuadraticSpace([2, 1])


def test_space_pairs_off_the_int_fast_path():
    """Only an exact int becomes (c, 1) directly; bools, int subclasses and
    Fractions give the pairs `_num_den` gives, and inexact entries are refused."""

    class Int(int):
        pass

    q = QuadraticSpace((True, Int(-3), Fraction(10, 4), 5))
    assert q.num_den == ((1, 1), (-3, 1), (5, 2), (5, 1))
    assert q.num_den == tuple(_num_den(c) for c in q.diag)
    assert discriminant(q) == _twisted_product_class(q.diag)
    for bad in ([1.0, 2], [1, "2"], (Fraction(1, 2), 0.5)):
        with pytest.raises(ExactDomainError, match="exact rational"):
            QuadraticSpace(bad)
    with pytest.raises(ExactDomainError, match="dimension"):
        QuadraticSpace([])
