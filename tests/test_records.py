"""The contract of the eight immutable value records: positional
construction, equality by type and fields, hashing, the
``Name(field=value, ...)`` repr, frozen fields, and pickle/copy."""

import copy
import pickle

import pytest

from shiftlab import (
    BasisElement,
    InequalityReport,
    PrimeField,
    Ring,
    ShiftProfile,
    SymbolicBound,
    VerifyReport,
)
from shiftlab.golden import GoldenRow

# (type, field names in positional order, positional args, the repr)
CASES = [
    (Ring, ("names",), (("x", "y", "z"),), "Ring(x y z)"),
    (BasisElement, ("label", "mdeg"), ((1, 2), (1, 2, 3)),
     "BasisElement(label=(1, 2), mdeg=(1, 2, 3))"),
    (ShiftProfile, ("shifts",), ((0, 2, 3),), "ShiftProfile(shifts=(0, 2, 3))"),
    (VerifyReport, ("ok", "problem", "location"), (False, "row index out of range", (1, 0, 5)),
     "VerifyReport(ok=False, problem='row index out of range', location=(1, 0, 5))"),
    (InequalityReport, ("name", "params", "lhs", "rhs", "witnesses"),
     ("covering", {"alpha": (1, 0)}, None, 5, {"pair": ((1, 0), (0, 1))}),
     "InequalityReport(name='covering', params={'alpha': (1, 0)}, lhs=None, rhs=5, "
     "witnesses={'pair': ((1, 0), (0, 1))})"),
    (SymbolicBound, ("target", "terms"), (3, (1, 2)), "SymbolicBound(target=3, terms=(1, 2))"),
    (GoldenRow, ("name", "status", "detail"), ("ex2 betti", "pass", "1 5 8 5 1"),
     "GoldenRow(name='ex2 betti', status='pass', detail='1 5 8 5 1')"),
    (PrimeField, ("p",), (7,), "GF(7)"),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_positional_construction_and_repr(cls, fields, args, text):
    r = cls(*args)
    assert tuple(getattr(r, f) for f in fields) == args
    assert repr(r) == text


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_equality_is_by_type_and_fields(cls, fields, args, text):
    r = cls(*args)
    assert r == cls(*args) and not r != cls(*args)
    assert r != args and args != r
    assert all(r != c(*a) for c, _, a, _ in CASES if c is not cls)
    assert cls(*copy.deepcopy(args)) == r
    if cls is not Ring:  # Ring's one field is validated names
        alt = list(args)
        # a prime's field is a prime, a basis element's mdeg a multidegree
        # and a report's witnesses a dict
        alt[-1] = {PrimeField: 11, BasisElement: (1, 2, 4),
                   InequalityReport: {"pair": ()}}.get(cls, "different")
        assert cls(*alt) != r


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_hash_agrees_with_equality(cls, fields, args, text):
    r = cls(*args)
    if cls is InequalityReport:
        with pytest.raises(TypeError):  # its params and witnesses are dicts
            hash(r)
        return
    assert hash(r) == hash(cls(*copy.deepcopy(args)))
    assert len({r, cls(*args)}) == 1


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, fields, args, text):
    r = cls(*args)
    for f in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(r, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(r, f)
    assert tuple(getattr(r, f) for f in fields) == args


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, args, text):
    r = cls(*args)
    for back in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(back) is cls and back == r and repr(back) == text


def test_verify_report_defaults():
    r = VerifyReport(True)
    assert (r.ok, r.problem, r.location) == (True, None, None)
    assert r == VerifyReport(True, None, None)
    assert str(r) == "complex ok: d^2 = 0 and all entries homogeneous"


def test_each_inequality_report_gets_its_own_witnesses():
    a = InequalityReport("top", {"p": 2}, 3, 4)
    b = InequalityReport("top", {"p": 2}, 3, 4)
    assert a.witnesses == {} and a.witnesses is not b.witnesses
    a.witnesses["x"] = 1
    assert b.witnesses == {}
