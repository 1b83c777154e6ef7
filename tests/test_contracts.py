"""One check per input contract: every public entry point that takes an
integer index or a multidegree refuses a look-alike with the one error of
its rule, ContractError, a ValueError that is also a TypeError."""

import json
import random
import re
from enum import IntEnum

import pytest

from shiftlab import (
    BasisElement,
    ContractError,
    FreeComplex,
    MonomialIdeal,
    PrimeField,
    Ring,
    check_covering,
    check_general,
    check_multiple,
    check_range,
    complex_from_json,
    derive_symbolic_bounds,
    divides,
    dumps_complex,
    find_covering_pairs,
    format_monomial,
    general_windows,
    is_covering_pair,
    join,
    random_corpus,
    random_ideal,
    random_ideal_stream,
    restrict_complex,
    restrict_ideal,
    star_shift_bound,
    support,
    taylor_complex,
    total_degree,
)
import shiftlab.complexes
from shiftlab.golden import example2
from shiftlab.monomials import generators_below

RING2 = Ring(["x", "y"])
KOSZUL2 = MonomialIdeal(RING2, [(1, 0), (0, 1)])
ALPHA, BETA = (1, 0), (0, 1)  # a covering pair of KOSZUL2, each with one Betti entry at 1


class Small(IntEnum):
    TWO = 2


def _dump_with_basis_mdeg(v):
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    obj["modules"][2][0]["mdeg"] = list(v)
    return obj


# each takes one multidegree of RING2; the others it needs are valid
MDEG_ENTRY_POINTS = {
    "divides-left": lambda v: divides(v, (1, 1)),
    "divides-right": lambda v: divides((1, 1), v),
    "join-left": lambda v: join(v, (1, 1)),
    "join-right": lambda v: join((1, 1), v),
    "format_monomial": lambda v: format_monomial(v, RING2),
    "generators_below": lambda v: generators_below(KOSZUL2, v),
    "is_covering_pair": lambda v: is_covering_pair(KOSZUL2, ALPHA, v),
    "restrict_ideal": lambda v: restrict_ideal(KOSZUL2, v),
    "check_covering": lambda v: check_covering(KOSZUL2, v, BETA),
    "check_range": lambda v: check_range(KOSZUL2, ALPHA, v, 1),
    "restrict_complex": lambda v: restrict_complex(taylor_complex(KOSZUL2), v),
    "check_multiple": lambda v: check_multiple(KOSZUL2, [(v, 1), (BETA, 1)]),
    "complex_from_json": lambda v: complex_from_json(_dump_with_basis_mdeg(v)),
    "MonomialIdeal": lambda v: MonomialIdeal(RING2, [v]),
}

BAD_MDEGS = {
    "float": (2.0, 1),  # each was read as (2, 1), (1, 1) or (-1, 1) by some entry point
    "bool": (True, 1),
    "IntEnum": (Small.TWO, 1),
    "negative": (-1, 1),
    "length": (1, 1, 0),
}


@pytest.mark.parametrize("bad", BAD_MDEGS.values(), ids=BAD_MDEGS.keys())
@pytest.mark.parametrize("call", MDEG_ENTRY_POINTS.values(), ids=MDEG_ENTRY_POINTS.keys())
def test_multidegree_rule_at_every_entry_point(call, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert type(exc.value) is ContractError
    if len(bad) == 3:  # divides and join name the first argument's length first
        assert re.search("length mismatch: (2 vs 3|3 vs 2)$", str(exc.value))
    else:
        assert str(exc.value).endswith(f"exponents must be ints >= 0, got {bad!r}")


def test_a_named_multidegree_is_shown_once():
    with pytest.raises(ContractError, match=r"^generator exponents must be ints >= 0, got \(2\.0, 1\)$"):
        MonomialIdeal(RING2, [(1, 0), (2.0, 1)])
    with pytest.raises(ContractError, match=r"^dump basis mdegs \(1, 1, 0\): length mismatch: 2 vs 3$"):
        complex_from_json(_dump_with_basis_mdeg((1, 1, 0)))


def test_a_loaded_dump_checks_each_multidegree_once(monkeypatch):
    # the dump's own loop checks the lengths only; BasisElement checks the
    # values, once for each of the 32 basis elements of ex2's Taylor complex
    calls, real = [], shiftlab.complexes._check_mdeg
    monkeypatch.setattr(shiftlab.complexes, "_check_mdeg", lambda *a: calls.append(a) or real(*a))
    text = dumps_complex(taylor_complex(example2()))
    calls.clear()
    complex_from_json(json.loads(text))
    assert len(calls) == 32


@pytest.mark.parametrize("bad", [(0.5,), (True,), (-1,)], ids=repr)
def test_basis_element_checks_its_multidegree(bad):
    # a FreeComplex on such multidegrees was built, verified and restricted;
    # total_degree and support, which read the length off the argument too,
    # gave 0.5 and (0,) on the first two
    for call in (lambda v: BasisElement((), v), total_degree, support):
        with pytest.raises(ContractError, match=re.escape(f"exponents must be ints >= 0, got {bad!r}")):
            call(bad)
    with pytest.raises(ContractError):
        FreeComplex([[BasisElement((), (0,))], [BasisElement((0,), bad)]], [[], [[(0, 1)]]])


def test_valid_multidegrees_pass_every_entry_point():
    for name, call in MDEG_ENTRY_POINTS.items():
        if name != "complex_from_json":  # its basis mdeg below is the dump's own
            call(ALPHA if name in ("check_covering", "check_multiple") else BETA)
    assert complex_from_json(_dump_with_basis_mdeg((1, 1))).ranks() == (1, 2, 1)


def test_a_non_number_exponent_is_still_a_type_error():
    # Python's comparison once raised TypeError here; the rule's error is one too
    for call in (lambda: divides(("a", 1), (1, 1)), lambda: generators_below(KOSZUL2, (None, 1))):
        with pytest.raises(TypeError):
            call()


def _cover_index(x):
    return check_multiple(KOSZUL2, [(ALPHA, x), (BETA, 1)])


def _dump_entry(key, x):
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    obj["differentials"][1][0][key] = x
    return complex_from_json(obj)


# (parameter name, call taking one int)
INT_ENTRY_POINTS = {
    "check_range": ("a", lambda x: check_range(KOSZUL2, ALPHA, BETA, x)),
    "check_general-a": ("a", lambda x: check_general(KOSZUL2, x, 1)),
    "check_general-p": ("p", lambda x: check_general(KOSZUL2, 4, x)),
    "find_covering_pairs": ("at", lambda x: find_covering_pairs(KOSZUL2, at=x)),
    "general_windows": ("n", lambda x: general_windows(x, 8, 6)),
    "derive_symbolic_bounds": ("a", lambda x: derive_symbolic_bounds(7, 8, x)),
    "check_multiple": ("a", _cover_index),
    "random_ideal": ("m", lambda x: random_ideal(random.Random(1), 2, x, 2)),
    "random_ideal_stream": ("maxexp", lambda x: random_ideal_stream(1, 1, 2, 2, x)),
    "random_corpus": ("max_n", lambda x: random_corpus(1, 1, max_n=x)),
    "PrimeField": ("p", PrimeField),
    "star_shift_bound": ("a", lambda x: star_shift_bound(*[taylor_complex(KOSZUL2)] * 2, x)),
    "complex_from_json-col": ("col", lambda x: _dump_entry("col", x)),
    "complex_from_json-row": ("row", lambda x: _dump_entry("row", x)),
}

BAD_INTS = {"float": 2.0, "bool": True, "IntEnum": Small.TWO}


@pytest.mark.parametrize("bad", BAD_INTS.values(), ids=BAD_INTS.keys())
@pytest.mark.parametrize("name, call", INT_ENTRY_POINTS.values(), ids=INT_ENTRY_POINTS.keys())
def test_integer_rule_at_every_entry_point(name, call, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert type(exc.value) is ContractError
    assert f"{name} must be an int" in str(exc.value) and str(exc.value).endswith(f", got {bad!r}")
