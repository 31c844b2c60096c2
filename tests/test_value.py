"""The value types: plain slotted classes on `endolab.value.Value` that keep
the behaviour callers rely on: frozen fields, equality and hashing within one
class, the `Cls(field=value, ...)` repr, and pickling and copies that restore
the slots past the frozen `__setattr__`."""

import copy
import pickle
from fractions import Fraction

import pytest

from endolab import archcmp, cli, endoscopy, exactnum, hecke, quadspace, rootdata, signs
from endolab.exactnum import GaussianRational, Place, SquareClass
from endolab.value import Value

TRIVIAL = SquareClass("Q", 1)
ENDO = endoscopy.EndoParams("odd", 5, 3, TRIVIAL, TRIVIAL)

FROZEN = [
    Place(5),
    SquareClass(5, (1, 2)),
    rootdata.RootDatum("B", 3),
    rootdata.Weight((2, 0, -4)),
    rootdata.WeylElement((1, -1, 1), (2, 0, 1)),
    rootdata.TorusPoint((GaussianRational(2), GaussianRational(Fraction(3, 5), Fraction(4, 5))), ("split", "compact")),
    rootdata.LeviBlocks(((0, 1),), 2),
    rootdata._alternant_plan("B", ({((), (3, 1), False): 1}, {}), (3, 1)),
    hecke.FrobTwist(2, rootdata.WeylElement((1, -1), (0, 1))),
    hecke.EndoSignVector((1, -1, 1)),
    hecke.RelativeWeylGroup(2, (rootdata.WeylElement((1, 1), (1, 0)),)),
    hecke.UnramifiedGroup("D", 3, (2,)),
    hecke.LocalDatumAtP("M12", "odd", 3, 2, 1, frozenset({1})),
    quadspace.QuadraticSpace((1, Fraction(-2, 3), 5)),
    archcmp.ArchCase("M1", 7, (3, 2, 1)),
    archcmp.GammaSample(Fraction(1, 3), None, (Fraction(1, 2),)),
    endoscopy.RealCtx(),
    endoscopy.LocalCtx(3),
    endoscopy.GlobalCtx((3, 5)),
    ENDO,
    endoscopy.GEndoParams("M12", frozenset({1}), ENDO),
    signs.SignCase("M12", "even", 4, 2, 2),
]
MUTABLE = [
    cli.Report("verify signs", {"m_minus_max": 1}),
    hecke.satake_minuscule(hecke.UnramifiedGroup("B", 2), (1, 0)),
    archcmp.ArchReport(),
]


def _name(obj):
    return type(obj).__name__


def test_every_value_type_is_covered():
    """25 types: the 22 frozen ones and the three mutable ones."""
    assert {type(o) for o in FROZEN + MUTABLE} == set(Value.__subclasses__())
    assert (len(FROZEN), len(MUTABLE)) == (22, 3)


@pytest.mark.parametrize("obj", FROZEN, ids=_name)
def test_frozen_fields_refuse_assignment(obj):
    assert not hasattr(obj, "__dict__")
    for name in type(obj).__slots__:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 0


@pytest.mark.parametrize("obj", FROZEN, ids=_name)
def test_frozen_types_survive_pickle_and_copy(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)
        assert all(getattr(twin, s) == getattr(obj, s) for s in type(obj).__slots__)


@pytest.mark.parametrize("obj", MUTABLE, ids=_name)
def test_mutable_types_assign_and_are_unhashable(obj):
    twin = copy.deepcopy(obj)
    assert twin == obj
    with pytest.raises(TypeError):
        hash(obj)
    name = type(obj).__slots__[0]
    setattr(twin, name, 99)
    assert getattr(twin, name) == 99 and twin != obj


def test_equality_is_within_one_class():
    assert endoscopy.LocalCtx(3) != Place(3) and Place(3) != endoscopy.LocalCtx(3)
    assert endoscopy.RealCtx() == endoscopy.RealCtx() and hash(endoscopy.RealCtx()) == hash(())
    assert endoscopy.RealCtx() != Place(0)
    assert rootdata.Weight((2, 4)) != (2, 4) and rootdata.Weight((2, 4)) == rootdata.Weight((2, 4))
    assert hecke.EndoSignVector((1, -1)) != rootdata.Weight((1, -1))
    # the hash is that of the field tuple, so sets of the int-only types iterate as before
    assert hash(rootdata.Weight((2, 4))) == hash(((2, 4),))
    assert hash(rootdata.WeylElement((1, -1), (1, 0))) == hash(((1, -1), (1, 0)))
    assert hash(Place(7)) == hash((7,))
    assert hash(rootdata.LeviBlocks(((0,),), 1)) == hash((((0,),), 1))


def test_quadratic_space_compares_the_diagonal_only():
    q = quadspace.QuadraticSpace((1, -2, 3))
    twin = quadspace.QuadraticSpace((1, -2, 3))
    object.__setattr__(twin, "num_den", ((9, 9),))
    object.__setattr__(twin, "disc", SquareClass("Q", 7))
    assert q == twin and hash(q) == hash(twin) == hash(((1, -2, 3),))
    assert repr(twin) == "QuadraticSpace(diag=(1, -2, 3))"
    assert q != quadspace.QuadraticSpace((1, -2, 5))


def test_reprs_name_every_field():
    assert repr(SquareClass("Q", -15)) == "SquareClass(context='Q', rep=-15)"
    assert repr(SquareClass(5, (1, 2))) == "SquareClass(context=5, rep=(1, 2))"
    assert repr(ENDO) == (
        "EndoParams(parity='odd', d_plus=5, d_minus=3, "
        "delta_plus=SquareClass(context='Q', rep=1), delta_minus=SquareClass(context='Q', rep=1))"
    )
    assert repr(signs.SignCase("M12", "even", 4, 2, 2)) == (
        "SignCase(levi='M12', parity='even', m=4, m_plus=2, m_minus=2, p=0, q=0, delta_sign=1)"
    )
    assert repr(endoscopy.RealCtx()) == "RealCtx()"
    assert repr(Place(5)) == "Place(5)" and repr(exactnum.REAL) == "Place(real)"
    assert repr(cli.Report("x", {})) == (
        "Report(command='x', parameters={}, status='pass', witnesses=[], seed=None, checks=None, timing=None, case={})"
    )


def test_mutable_defaults_are_fresh_per_object():
    a, b = cli.Report("x", {}), cli.Report("y", {})
    a.witnesses.append(1)
    a.case["m"] = 2
    assert (b.witnesses, b.case) == ([], {})
    r = archcmp.ArchReport()
    r.failures.append(0)
    assert archcmp.ArchReport().failures == []
