import copy
import json
import pickle
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from shiftlab import (
    IdealSyntaxError,
    MonomialIdeal,
    Ring,
    contains_all_pure_powers,
    divides,
    format_ideal_text,
    format_monomial,
    height,
    ideal_from_json,
    ideal_to_json,
    is_covering_pair,
    join,
    loads_ideal,
    minimalize_generators,
    parse_monomial,
    restrict_ideal,
    support,
    total_degree,
)
from shiftlab.monomials import ascii_int, generators_below

RING7 = Ring("x y z u v w a".split())
RING2 = Ring(["x", "y"])


# --- parsing ---------------------------------------------------------------

def test_parse_paper_generator():
    assert parse_monomial("x^2*w^2*v^2", RING7) == (2, 0, 0, 0, 2, 2, 0)


def test_parse_single_variable():
    assert parse_monomial("x", RING2) == (1, 0)


def test_parse_trivial_monomial():
    assert parse_monomial("1", RING2) == (0, 0)


def test_parse_accumulates_repeats():
    assert parse_monomial("x*x^2*y", RING2) == (3, 1)


@pytest.mark.parametrize("bad", ["", "q^2", "x^0", "x^-1", "x^1.5", "x*", "x*1"])
def test_parse_rejects(bad):
    with pytest.raises(IdealSyntaxError):
        parse_monomial(bad, RING2)


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(["x", "x"])
    with pytest.raises(ValueError):
        Ring(["2x"])
    with pytest.raises(ValueError):
        Ring([])


# --- vector arithmetic -----------------------------------------------------

def test_divides_examples():
    assert divides((1, 0), (2, 3))
    assert not divides((2, 0), (1, 5))
    assert divides((2, 3), (2, 3))
    with pytest.raises(ValueError):
        divides((1,), (1, 2))


def test_join_examples():
    assert join((3, 2, 2, 2, 2, 0, 2), (2, 2, 3, 2, 2, 2, 0)) == (3, 2, 3, 2, 2, 2, 2)
    assert join((1, 2), (0, 0)) == (1, 2)
    assert join((5, 5, 5, 5, 0, 0, 0), (3, 3, 2, 2, 6, 5, 6)) == (5, 5, 5, 5, 6, 5, 6)


@pytest.mark.parametrize("call, message", [
    (lambda: divides((1, 0), (1, 0, 0)), "length mismatch: 2 vs 3"),
    (lambda: join((1, 0, 0), (1, 0)), "length mismatch: 3 vs 2"),
    (lambda: minimalize_generators([(1, 0), (1, 0, 0)]), "length mismatch: 2 vs 3"),
    (lambda: restrict_ideal(MonomialIdeal(RING2, [(1, 0)]), (1,)), "length mismatch: 2 vs 1"),
    (lambda: generators_below(MonomialIdeal(RING2, [(1, 0)]), (1, 0, 0)),
     "length mismatch: 2 vs 3"),
    (lambda: format_monomial((1, 0, 0), RING2), "length mismatch: 2 vs 3"),
    (lambda: MonomialIdeal(RING2, [(1, 0), (1,)]), "generator (1,): length mismatch: 2 vs 1"),
], ids=["divides", "join", "minimalize_generators", "restrict_ideal", "generators_below",
        "format_monomial", "MonomialIdeal"])
def test_length_mismatch_message(call, message):
    # one message names both lengths at every entry point
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_total_degree():
    assert total_degree((2, 0, 0, 0, 2, 2, 0)) == 6
    assert total_degree((0,) * 7 ) == 0
    # the degree-11 generator of the 5-generator example
    assert total_degree(parse_monomial("a^2*x^3*y^2*u^2*w^2", RING7)) == 11
    assert parse_monomial("a^2*x^3*y^2*u^2*w^2", RING7) == (3, 2, 0, 2, 0, 2, 2)


mdeg5 = st.lists(st.integers(0, 5), min_size=1, max_size=5).map(tuple)


@st.composite
def mdeg_pairs(draw):
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple)
    return draw(vec), draw(vec)


@given(mdeg_pairs())
def test_divides_antisymmetry(pair):
    a, b = pair
    assert (divides(a, b) and divides(b, a)) == (a == b)


@given(mdeg_pairs())
def test_join_is_least_upper_bound(pair):
    a, b = pair
    j = join(a, b)
    assert divides(a, j) and divides(b, j)
    assert join(a, b) == join(b, a)
    # any common upper bound dominates the join
    c = tuple(max(x, y) + 1 for x, y in zip(a, b))
    assert divides(j, c)


@given(mdeg5)
def test_parse_format_roundtrip(vec):
    ring = Ring([f"x{i}" for i in range(len(vec))])
    assert parse_monomial(format_monomial(vec, ring), ring) == vec


# --- minimal generators ----------------------------------------------------

def test_minimalize_examples():
    assert minimalize_generators([(2,), (3,)]) == [(2,)]
    assert minimalize_generators([(1, 0), (0, 1), (1, 1)]) == [(1, 0), (0, 1)]


def test_example1_generators_already_minimal(ex1):
    # brute-force divisibility over all ordered pairs
    gens = ex1.gens
    assert len(gens) == 12
    for g in gens:
        for h in gens:
            assert g == h or not divides(g, h)


@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple),
                min_size=1, max_size=8))
def test_minimalize_properties(vecs):
    out = minimalize_generators(vecs)
    for g in out:
        for h in out:
            assert g == h or not divides(h, g)
    for v in vecs:
        assert any(divides(g, tuple(v)) for g in out)


# few small vectors, so that duplicates and dominated vectors are common
_SMALL_VECS = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple)


@given(st.lists(st.one_of(_SMALL_VECS, _SMALL_VECS.map(list)), max_size=12))
def test_minimalize_matches_old_rule(old_minimalize, vecs):
    out = minimalize_generators(vecs)
    assert out == old_minimalize(vecs)
    assert all(type(g) is tuple for g in out)


@pytest.mark.parametrize("vecs", [[(1, 2), (1,)], [(1,), (2,), (1, 2)],
                                  [(0, 1), (0, 1), (1, 0, 0)], [(1, 1), (2, 2), ()]])
def test_minimalize_rejects_mixed_lengths(vecs):
    # whatever the order, and even where a vector of the other length would
    # be dominated or a duplicate
    for order in permutations(vecs):
        with pytest.raises(ValueError, match="length mismatch"):
            minimalize_generators(order)


def test_ideal_pickles_and_copies(ex2):
    for back in (pickle.loads(pickle.dumps(ex2)), copy.copy(ex2), copy.deepcopy(ex2)):
        assert type(back) is MonomialIdeal and back == ex2 and back.gens == ex2.gens
        with pytest.raises(AttributeError, match="cannot assign to field 'gens'"):
            back.gens = ()


def test_ideal_fields_cannot_be_assigned_or_deleted():
    I = MonomialIdeal(RING2, [(1, 0), (0, 1)])
    for name in ("ring", "gens"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(I, name, ())
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(I, name)
    assert I.gens == ((1, 0), (0, 1)) and I.ring == RING2


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        MonomialIdeal(RING2, [(0, 0)])


def test_zero_ideal_allowed():
    assert MonomialIdeal(RING2, []).is_zero


# --- restriction and covering ----------------------------------------------

def test_restrict_example1_alpha(ex1):
    alpha = (5, 5, 5, 5, 0, 0, 0)
    got = set(restrict_ideal(ex1, alpha).gens)
    expected = {
        parse_monomial(s, ex1.ring)
        for s in ("x^5", "y^5", "z^5", "u^5", "x^3*y^2*z^2", "u^2*y^2*z^3")
    }
    assert got == expected


def test_restrict_by_lcm_is_identity(ex2):
    from functools import reduce
    alpha = reduce(join, ex2.gens)
    assert restrict_ideal(ex2, alpha) == ex2


def test_restrict_by_zero_is_zero(ex2):
    assert restrict_ideal(ex2, ex2.ring.zero()).is_zero


def test_covering_pairs_from_both_examples(ex1, ex2):
    assert is_covering_pair(ex1, (5, 5, 5, 5, 0, 0, 0), (3, 3, 2, 2, 6, 5, 6))
    assert is_covering_pair(ex2, (3, 2, 2, 2, 2, 0, 2), (2, 2, 3, 2, 2, 2, 0))
    zero = ex2.ring.zero()
    assert not is_covering_pair(ex2, zero, zero)


@st.composite
def ideal_and_vectors(draw):
    """A small ideal and two vectors, in or out of its lcm lattice."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(vec.filter(any), max_size=6))
    return MonomialIdeal(Ring([f"x{i}" for i in range(n)]), gens), draw(vec), draw(vec)


@given(ideal_and_vectors())
def test_covering_pair_matches_definition(case):
    I, alpha, beta = case
    below = generators_below(I, alpha)
    assert below == sum(1 << i for i, g in enumerate(I.gens) if divides(g, alpha))
    assert is_covering_pair(I, alpha, beta) == all(
        divides(g, alpha) or divides(g, beta) for g in I.gens)


def test_covering_pair_zero_ideal():
    zero = MonomialIdeal(RING2, [])
    assert is_covering_pair(zero, (0, 0), (0, 0))
    assert generators_below(zero, (5, 5)) == 0


@pytest.mark.parametrize("alpha,beta", [((1, 1, 1), (1, 1)), ((1, 1), (1,)),
                                        ((), (1, 1))])
def test_covering_pair_wrong_length(alpha, beta):
    I = MonomialIdeal(RING2, [(1, 0), (0, 1)])
    bad = alpha if len(alpha) != 2 else beta
    message = f"^length mismatch: 2 vs {len(bad)}$"
    with pytest.raises(ValueError, match=message):
        is_covering_pair(I, alpha, beta)
    for routine in (generators_below, restrict_ideal):
        with pytest.raises(ValueError, match=message):
            routine(I, bad)


def test_ascii_int():
    assert ascii_int("042") == 42 and ascii_int("-7", signed=True) == -7
    for bad in ("", "-7", "+7", " 7", "7 ", "1_0", "\uff13", "0x1", "7.0"):
        with pytest.raises(ValueError):
            ascii_int(bad)
    for bad in ("-", "--1", "+1", "-\uff11", "- 1"):
        with pytest.raises(ValueError):
            ascii_int(bad, signed=True)


def test_covering_pair_union_generates(corpus, corpus_results):
    for rec in corpus_results["rows"][:60]:
        I, table = rec["ideal"], rec["table_q"]
        from shiftlab import find_covering_pairs

        for alpha, beta in find_covering_pairs(I, at=2, table=table)[:2]:
            union = set(restrict_ideal(I, alpha).gens) | set(
                restrict_ideal(I, beta).gens
            )
            assert union == set(I.gens)


@given(st.data())
def test_restrict_monotone(data):
    vecs = data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple),
        min_size=1, max_size=6))
    vecs = [v for v in vecs if any(v)]
    if not vecs:
        return
    I = MonomialIdeal(Ring(["x", "y", "z"]), vecs)
    alpha = tuple(data.draw(st.integers(0, 3)) for _ in range(3))
    beta = join(alpha, tuple(data.draw(st.integers(0, 3)) for _ in range(3)))
    small, big = restrict_ideal(I, alpha), restrict_ideal(I, beta)
    assert set(small.gens) <= set(big.gens) <= set(I.gens)


# --- height and pure powers -------------------------------------------------

def test_height_examples(ex2):
    assert height(ex2) == 2
    assert height(MonomialIdeal(RING2, [(5, 0)])) == 1
    assert height(MonomialIdeal(RING2, [(2, 0), (0, 3)])) == 2
    with pytest.raises(ValueError):
        height(MonomialIdeal(RING2, []))


def brute_force_height(I: MonomialIdeal) -> int:
    """Independent oracle: try every variable subset by increasing size."""
    if I.is_zero:
        raise ValueError("height of the zero ideal is undefined")
    sups = [set(support(g)) for g in I.gens]
    for k in range(1, I.ring.n + 1):
        for sub in combinations(range(I.ring.n), k):
            cover = set(sub)
            if all(cover & s for s in sups):
                return k
    raise AssertionError("unreachable: full variable set always covers")


def test_height_matches_brute_force(corpus):
    for I in corpus[:80]:
        assert height(I) == brute_force_height(I) <= I.ring.n


def test_contains_all_pure_powers(ex1, ex2):
    assert contains_all_pure_powers(ex1)
    assert not contains_all_pure_powers(ex2)  # no pure power of v
    assert contains_all_pure_powers(MonomialIdeal(RING2, [(2, 0), (0, 3)]))


def test_contains_all_pure_powers_matches_its_definition(corpus):
    # every variable x_v has a generator x_v^e, e >= 1, and no other variable
    verdicts = [contains_all_pure_powers(I) for I in corpus]
    for I, verdict in zip(corpus, verdicts):
        expected = all(any(g[v] and g.count(0) == I.ring.n - 1 for g in I.gens)
                       for v in range(I.ring.n))
        assert verdict == expected, I
    assert True in verdicts and False in verdicts


# --- file formats ------------------------------------------------------------

def test_text_roundtrip(ex1):
    assert loads_ideal(format_ideal_text(ex1)) == ex1


def test_json_roundtrip(ex2):
    assert ideal_from_json(json.loads(json.dumps(ideal_to_json(ex2)))) == ex2
    assert loads_ideal(json.dumps(ideal_to_json(ex2))) == ex2


def test_text_format_errors():
    with pytest.raises(IdealSyntaxError):
        loads_ideal("x^2\n")  # missing vars header
    with pytest.raises(IdealSyntaxError):
        loads_ideal("vars: x y\nq^2\n")
    with pytest.raises(IdealSyntaxError):
        loads_ideal("{not json")
    for text in [  # nothing is coerced, and one validation point covers both formats
        "vars: x x\nx\n",
        "vars: x y\n1\n",
        '{"vars": ["x", "y"], "gens": [[2.0, 1]]}',
        '{"vars": ["x", "y"], "gens": [[true, 0]]}',
        '{"vars": ["x", "y"], "gens": [[-1, 2]]}',
        '{"vars": ["x", "x"], "gens": [[1, 0]]}',
        '{"vars": "xy", "gens": [[1, 0]]}',
        '{"vars": ["x"], "gens": {}}',
        '{"vars": ["x\\n"], "gens": [[1]]}',
        '{"vars": ["x"], "gens": [[1' + "0" * 5000 + ']]}',
        "vars: x\nx^1_0\n",  # exponents are ASCII digits and nothing else
        "vars: x\nx^ 2\n",
        "vars: x\nx^+2\n",
        "vars: x\nx^\uff12\n",  # a full-width digit two
        "vars: x\nx^1" + "0" * 5000 + "\n",
    ]:
        with pytest.raises(IdealSyntaxError):
            loads_ideal(text)


def test_comments_and_blanks():
    I = loads_ideal("# header\n\nvars: x y  # trailing\n x \n# mid\ny\n")
    assert set(I.gens) == {(1, 0), (0, 1)}


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3)
    | st.sampled_from(["x", "y", "1", "", "x y"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vars", "gens", "x"]), inner, max_size=3),
    max_leaves=12,
)
_ideal_json = st.fixed_dictionaries({"vars": _json_values, "gens": _json_values})
_ideal_texts = st.text(alphabet="vars:xy_1^*-#{} \n02", max_size=30)


@given(st.one_of(
    _ideal_json.map(json.dumps),
    _json_values.map(json.dumps),
    _ideal_texts,
    _ideal_texts.map(lambda body: "vars: x y\n" + body),
))
def test_loaders_fuzz(text):
    """Any input ends in a parsed ideal or an IdealSyntaxError, nothing else."""
    try:
        I = loads_ideal(text)
    except IdealSyntaxError:
        return
    assert isinstance(I, MonomialIdeal)
