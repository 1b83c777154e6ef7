import copy
import hashlib
import heapq
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import (
    ContractError,
    MonomialIdeal,
    QQ,
    PrimeField,
    Ring,
    complex_from_json,
    complex_to_json,
    divides,
    dumps_complex,
    find_covering_pairs,
    is_minimal,
    join,
    lcm_lattice,
    load_ideal,
    minimalize,
    multigraded_betti,
    rank_exact,
    restrict_complex,
    restrict_ideal,
    scarf_complex,
    shifts_of_complex,
    star_shift_bound,
    taylor_complex,
    total_degree,
    verify_complex,
)
import shiftlab.betti
import shiftlab.complexes
from shiftlab.betti import _classify, _equal_masks, _lattice
from shiftlab.complexes import GENERATOR_CAP, BasisElement, CapExceededError, FreeComplex, _check_size
from shiftlab.fields import characteristic, eliminate
from test_betti import (WIDE, _low_rank_product, _one_degree_complex, check_against_the_tuple_engine, columns,
                        edge_ideal, minimal_requirements, packed_width, staircase, taylor_faces, unpacked_lattice,
                        w22)

RING2 = Ring(["x", "y"])
KOSZUL2 = MonomialIdeal(RING2, [(1, 0), (0, 1)])


def raw_ideal(ring, gens):
    """Test-only constructor bypassing minimality (for non-minimal inputs)."""
    I = object.__new__(MonomialIdeal)
    object.__setattr__(I, "ring", ring)
    object.__setattr__(I, "gens", tuple(tuple(g) for g in gens))
    return I


# --- Taylor ------------------------------------------------------------------

def test_taylor_principal():
    F = taylor_complex(MonomialIdeal(RING2, [(2, 0)]))
    assert F.ranks() == (1, 1)
    assert tuple(shifts_of_complex(F)) == (0, 2)


def test_taylor_koszul():
    F = taylor_complex(KOSZUL2)
    assert F.ranks() == (1, 2, 1)
    assert F.modules[2][0].mdeg == (1, 1)
    assert verify_complex(F).ok


def test_taylor_example2_ranks(ex2):
    F = taylor_complex(ex2)
    assert F.ranks() == (1, 5, 10, 10, 5, 1)
    assert verify_complex(F).ok


def test_taylor_zero_ideal():
    F = taylor_complex(MonomialIdeal(RING2, []))
    assert F.ranks() == (1,)


def test_taylor_cap(monkeypatch):
    # the Taylor complex takes no size option: its 2^m faces meet the one limit
    with pytest.raises(TypeError):
        taylor_complex(KOSZUL2, cap=1)
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 1)
    with pytest.raises(CapExceededError, match=r"^Taylor complex of 4 faces passes the limit 2\^1$"):
        taylor_complex(KOSZUL2)


def test_size_check_formats_its_message_only_when_it_raises(monkeypatch):
    # "{9}" names no argument, so formatting it would raise IndexError; a
    # count at the limit is admitted
    _check_size(1 << GENERATOR_CAP, "{9}")
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 2)
    with pytest.raises(CapExceededError, match=r"^5 faces of 3 pass the limit 2\^2$"):
        _check_size(5, "{} faces of {} pass", 3)


# --- the lcm lattice and its strata ------------------------------------------------

BENCH_IDEALS = Path(__file__).resolve().parent.parent / "bench" / "ideals"


def reference_face_lcms(I):
    """The per-mask recurrence: a mask's lcm joins its lowest generator to
    the lcm of the other members."""
    lcm = [I.ring.zero()] * (1 << I.m)
    for mask in range(1, 1 << I.m):
        low = mask & -mask
        lcm[mask] = join(lcm[mask ^ low], I.gens[low.bit_length() - 1])
    return lcm


def edge_ideals():
    """m = 0, n = 1, then 12 to 14 generators: exponents from 256 up, and a
    squarefree path."""
    path = Ring([f"x{i}" for i in range(14)])
    return [
        MonomialIdeal(RING2, []),
        MonomialIdeal(Ring(["x"]), [(300,)]),
        MonomialIdeal(RING2, [(256 + i, 268 - i) for i in range(12)]),
        MonomialIdeal(path, [tuple(int(j in (i, i + 1)) for j in range(14)) for i in range(13)]),
        MonomialIdeal(Ring(["x", "y", "z"]), [(256 + i, 300 - i, 7 * i % 5) for i in range(14)]),
    ]


def oracle_ideals(corpus, ex1, ex2):
    stress = [load_ideal(str(BENCH_IDEALS / f"{name}.ideal")) for name in ("S13", "S14")]
    return [*corpus, ex1, ex2, *stress]


def lattice_ideals(corpus, ex1, ex2):
    edges = edge_ideals()
    assert [I.m for I in edges] == [0, 1, 12, 13, 14]
    return [*oracle_ideals(corpus, ex1, ex2), *edges]


def reference_strata(I) -> dict:
    """alpha -> the sorted bitmasks of the generator subsets with lcm alpha."""
    strata = {}
    for mask, alpha in enumerate(reference_face_lcms(I)):
        strata.setdefault(alpha, []).append(mask)
    return strata


def test_lattice_matches_the_per_mask_recurrence(corpus, ex1, ex2):
    # G_alpha is the largest mask with lcm alpha, and size the number of them.
    # Multidegrees are packed W bytes a variable: W = 1 for the corpus, ex1,
    # ex2, S13, S14, the path and empty edge ideals and the 127 ideal of
    # WIDE, W = 2 for the other three edge ideals and the 128 and 32767
    # ideals, and W = 3 for the 32768 and x200 ideals and 9 for the last.
    wide = [MonomialIdeal(Ring(["x", "y", "z"]), gens) for _, gens, _ in WIDE]
    widths = Counter()
    for I in [*lattice_ideals(corpus, ex1, ex2), *wide]:
        expected = {alpha: (max(masks), len(masks)) for alpha, masks in reference_strata(I).items()}
        assert unpacked_lattice(I) == expected, I
        widths[packed_width(I)] += 1
    assert widths == {1: len(corpus) + 4 + 2 + 1, 2: 3 + 2, 3: 2, 9: 1}


@pytest.mark.parametrize("name", ["corpus", "ex1", "ex2", "S13", "S14", "rp2", "staircase", "staircase9", "W22",
                                  "edges", "E14"])
def test_packed_engine_matches_the_tuple_engine(name, corpus, ex1, ex2, rp2):
    # the packed lattice, in its order, and the Lyubeznik counts and pushes
    # equal those of the engine on exponent tuples (test_betti.py), which
    # adds the generators in the closure order it derives itself.  The order
    # moves a generator on ex1, S13, S14, staircase(20), W22, the path ideal
    # of edge_ideals and E14 (20 edges on 14 vertices), and would on
    # staircase(9), of 11 generators, were the gate lower
    named = {"corpus": corpus, "ex1": [ex1], "ex2": [ex2], "rp2": [rp2], "staircase": [staircase(20)],
             "staircase9": [staircase(9)], "W22": [w22()], "edges": edge_ideals(), "E14": [edge_ideal(14, 20)]}
    ideals = named.get(name) or [load_ideal(str(BENCH_IDEALS / f"{name}.ideal"))]
    for I in ideals:
        check_against_the_tuple_engine(I)


def test_taylor_faces_match_the_stratum(corpus, ex1, ex2):
    # at every alpha, cones and spheres included and those _classify leaves
    # to be built, the subsets of G_alpha that meet every minimal R_v are
    # the stratum
    built = 0
    for I in lattice_ideals(corpus, ex1, ex2):
        eq = _equal_masks(I)
        for alpha, faces in reference_strata(I).items():
            minimal = minimal_requirements(I, alpha, faces[-1])
            assert taylor_faces(faces[-1], minimal) == faces, (I, alpha)
            built += _classify(eq, alpha, faces[-1]) is None
    assert built > 0


# the complete intersection x_0, ..., x_5: its lattice doubles at every step
CI6 = MonomialIdeal(Ring([f"x{i}" for i in range(6)]),
                    [tuple(int(i == j) for j in range(6)) for i in range(6)])


def test_lattice_checks_the_cap(monkeypatch):
    # a step may double the lattice, so it is refused before one that could
    # pass 2^GENERATOR_CAP: 2^6 elements pass at 6, and at 5 the last step is
    # refused
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 6)
    assert len(_lattice(CI6)[0]) == 64
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 5)
    with pytest.raises(CapExceededError,
                       match=r"lcm lattice of 32 elements after 5 of 6 generators could pass the limit 2\^5"):
        _lattice(CI6)
    for build in (lcm_lattice, scarf_complex, multigraded_betti, find_covering_pairs):
        with pytest.raises(CapExceededError, match="could pass the limit"):
            build(CI6)


# --- Scarf -------------------------------------------------------------------

def test_scarf_koszul_is_full_taylor():
    S = scarf_complex(KOSZUL2)
    assert S.ranks() == (1, 2, 1)


def test_scarf_three_generators():
    I = MonomialIdeal(RING2, [(2, 0), (1, 1), (0, 2)])
    S = scarf_complex(I)
    assert S.ranks() == (1, 3, 2)
    assert verify_complex(S).ok
    # brute-force uniqueness oracle over all 7 nonempty subsets
    gens = I.gens
    lcms = {}
    for r in range(1, 4):
        for face in combinations(range(3), r):
            v = reduce(join, (gens[i] for i in face))
            lcms.setdefault(v, []).append(face)
    scarf_faces = {f for fs in lcms.values() if len(fs) == 1 for f in fs}
    got = {be.label for mod in S.modules[1:] for be in mod}
    assert got == scarf_faces
    assert {(0, 1), (1, 2)} <= scarf_faces and (0, 2) not in scarf_faces


def test_scarf_zero_ideal():
    assert scarf_complex(MonomialIdeal(RING2, [])).ranks() == (1,)


def test_scarf_subset_of_taylor_with_distinct_mdegs(ex2):
    S = scarf_complex(ex2)
    T = taylor_complex(ex2)
    for a in range(len(S.modules)):
        assert {be.label for be in S.modules[a]} <= {be.label for be in T.modules[a]}
    mdegs = [be.mdeg for mod in S.modules for be in mod]
    assert len(mdegs) == len(set(mdegs))


def reference_face_complex(I, scarf):
    """The exhaustive builder the grown Taylor faces and the lattice-read
    Scarf faces are checked against: every subset's lcm read off the
    per-mask recurrence, Scarf uniqueness counted over all 2^m of them, and
    a kept face whose facet is not kept refused."""
    lcm = reference_face_lcms(I)
    counts = Counter(lcm) if scarf else None
    modules, diffs = [], []
    below = {}  # bitmask -> index of the kept faces one size down
    for a in range(I.m + 1):
        level, cols, index = [], [], {}
        for face in combinations(range(I.m), a):
            fm = 0
            for i in face:
                fm |= 1 << i
            top = lcm[fm]
            if counts is not None and counts[top] != 1:
                continue
            col = []
            for k, i in enumerate(face):
                sub = fm ^ (1 << i)
                if sub not in below:
                    raise RuntimeError(
                        f"facet {face[:k] + face[k + 1:]} of kept face {face} is not kept"
                    )
                col.append((below[sub], (-1) ** k))
            index[fm] = len(level)
            level.append(BasisElement(face, top))
            cols.append(col)
        modules.append(level)
        diffs.append(cols if a else [])
        below = index
    return FreeComplex(modules, diffs)


def test_grown_faces_match_the_table_builder(corpus, ex1, ex2, rp2):
    # squarefree (the path, rp2) and heavy-exponent ideals as well as the corpus;
    # the oracle makes one tuple per entry, a builder one per row and sign
    for I in [*lattice_ideals(corpus, ex1, ex2), rp2]:
        for build, scarf in ((taylor_complex, False), (scarf_complex, True)):
            F, R = build(I), reference_face_complex(I, scarf)
            assert F.diffs == R.diffs and dumps_complex(F) == dumps_complex(R), I
            for a in range(1, len(F.modules)):
                assert len({id(e) for col in F.diffs[a] for e in col}) <= 2 * len(F.modules[a - 1])


def test_every_facet_of_a_scarf_face_is_a_scarf_face(corpus, ex1, ex2, rp2):
    for I in [*lattice_ideals(corpus, ex1, ex2), rp2]:
        S = scarf_complex(I)
        for a in range(1, len(S.modules)):
            below = {be.label for be in S.modules[a - 1]}
            for be in S.modules[a]:
                face = be.label
                assert all(face[:k] + face[k + 1:] in below for k in range(a)), (I, face)


def test_face_complex_refuses_a_missing_facet():
    # {0, 1} over a level that lacks {1}: the boundary term must not be dropped
    zero = (0, 0)
    levels = [[(0, (), zero)], [(0b01, (0,), (1, 0))], [(0b11, (0, 1), (1, 1))]]
    with pytest.raises(ValueError, match="a size-2 face has no facet 0b10 one size down"):
        shiftlab.complexes._face_complex(levels)
    levels[1].append((0b10, (1,), (0, 1)))
    F = shiftlab.complexes._face_complex(levels)
    assert F.diffs[2] == (((1, 1), (0, -1)),)  # drop 0: row of {1}, +1; drop 1: row of {0}, -1
    assert dumps_complex(F) == dumps_complex(taylor_complex(KOSZUL2))


# --- restriction ---------------------------------------------------------------

def test_restrict_by_join_is_identity(ex2):
    F = taylor_complex(ex2)
    top = reduce(join, (be.mdeg for mod in F.modules for be in mod))
    R = restrict_complex(F, top)
    assert R.ranks() == F.ranks()
    assert R.diffs[2] == F.diffs[2]


def test_restrict_taylor_example2_alpha1(ex2):
    alpha = (3, 2, 2, 2, 2, 0, 2)
    F = taylor_complex(ex2)
    R = restrict_complex(F, alpha)
    assert verify_complex(R).ok
    # filter oracle: exactly the faces whose lcm divides alpha survive
    for a in range(len(F.modules)):
        kept = [be.label for be in F.modules[a] if divides(be.mdeg, alpha)]
        got = [be.label for be in R.modules[a]] if a < len(R.modules) else []
        assert got == kept


def test_restrict_minimal_resolution_is_minimal(ex2):
    alpha = (3, 2, 2, 2, 2, 0, 2)
    M = minimalize(taylor_complex(ex2))
    R = restrict_complex(M, alpha)
    assert verify_complex(R).ok and is_minimal(R)
    # and it is a minimal resolution of the restricted ideal
    expected = multigraded_betti(restrict_ideal(ex2, alpha)).totals()
    assert R.ranks() == expected


def test_restrict_minimal_resolution_example1(ex1, ex1_table):
    # slicing the full 4096-face minimal resolution below alpha lands on a
    # minimal resolution of the restricted ideal, of projective dimension 4
    alpha = (5, 5, 5, 5, 0, 0, 0)
    M = minimalize(taylor_complex(ex1))
    assert M.ranks() == ex1_table.totals()
    R = restrict_complex(M, alpha)
    assert is_minimal(R) and verify_complex(R).ok
    assert len(R.ranks()) - 1 == 4
    assert R.ranks() == multigraded_betti(restrict_ideal(ex1, alpha)).totals()


def restrict_oracle(F, alpha):
    """restrict_complex before its index: every basis element is tested
    against alpha, then the kept columns' rows are remapped; (modules, diffs)
    with trailing empty modules dropped."""
    keep = [[j for j, be in enumerate(mod) if all(map(le, be.mdeg, alpha))]
            for mod in F.modules]
    modules = [tuple(mod[j] for j in level) for mod, level in zip(F.modules, keep)]
    diffs = [()]
    for a in range(1, len(keep)):
        remap = {j: i for i, j in enumerate(keep[a - 1])}
        diffs.append(tuple(tuple((remap[row], coeff) for row, coeff in F.diffs[a][j])
                           for j in keep[a]))
    while len(modules) > 1 and not modules[-1]:
        modules.pop()
        diffs.pop()
    return tuple(modules), tuple(diffs)


def assert_restricts_like_oracle(F, alphas) -> dict:
    """Returns id -> entry over the distinct entry objects of the
    restrictions; holding the entries keeps their ids from being reused."""
    entries = {}
    for alpha in alphas:
        R = restrict_complex(F, alpha)
        assert (R.modules, R.diffs) == restrict_oracle(F, alpha), alpha
        entries.update((id(e), e) for level in R.diffs for col in level for e in col)
    return entries


def entry_table_size(F) -> int:
    """The sum over a of |module a-1| times the number of coefficients of
    d_a, told apart by type and value: at most this many distinct entries
    stand in all restrictions of F."""
    return sum(len(F.modules[a - 1]) * len({(type(c), c) for col in F.diffs[a] for _, c in col})
               for a in range(1, len(F.modules)))


def probe_alphas(I, F):
    """Every lcm-lattice element of I, then off the lattice: the zero vector,
    the join of the basis multidegrees, the join plus one in each slot, and
    the join with one slot one below each nonzero exponent that occurs
    there (a negative exponent is no multidegree)."""
    mdegs = [be.mdeg for mod in F.modules for be in mod]
    top = reduce(join, mdegs)
    alphas = [*lcm_lattice(I), I.ring.zero(), top]
    for v in range(len(top)):
        alphas.append(top[:v] + (top[v] + 1,) + top[v + 1:])
        alphas += [top[:v] + (e - 1,) + top[v + 1:] for e in sorted({d[v] for d in mdegs}) if e]
    return alphas


def built_complex(I, kind):
    T = taylor_complex(I)
    if kind == "taylor":
        return T
    return minimalize(T, QQ if kind == "minimal_qq" else PrimeField(32003))


@pytest.mark.parametrize("name, kind", [
    *((name, kind) for name in ("ex1", "ex2") for kind in ("taylor", "minimal_qq", "minimal_gf")),
    ("S14", "minimal_qq"),
    ("S14", "minimal_gf"),
])
def test_restrict_matches_the_filter_oracle(ex1, ex2, name, kind):
    examples = {"ex1": ex1, "ex2": ex2}
    I = examples[name] if name in examples else load_ideal(str(BENCH_IDEALS / f"{name}.ideal"))
    F = built_complex(I, kind)
    assert len(assert_restricts_like_oracle(F, probe_alphas(I, F))) <= entry_table_size(F)


def test_restrict_matches_the_filter_oracle_on_corpus_pairs(restriction_results):
    assert len(restriction_results) == 100
    for rec in restriction_results:
        assert_restricts_like_oracle(rec["min_full"], [rec["alpha"]])


@pytest.mark.parametrize("mdegs, diffs, alphas", [
    ([[]], [[]], [(), (0,), (3, 1)]),
    ([[], []], [[], []], [(2,)]),
    ([[3, 0], [], [0, 1], [1, 2]], [[], [], [[], []], [[(0, 1)], [(0, 1), (1, -1)]]], [(0,), (1,), (2,), (3,)]),
    ([[0], [2, 3], [1]], [[], [[(0, 1)], [(0, 1)]], [[]]], [(0,), (1,), (2,), (3,)]),
    ([[2], [1], [3]], [[], [[]], [[(0, 1)]]], [(0,), (1,), (2,), (3,)]),
], ids=["no-basis", "no-basis-two-modules", "empty-middle", "middle-dropped", "module-0-dropped"])
def test_restrict_matches_the_filter_oracle_at_span_edges(mdegs, diffs, alphas):
    """Complexes whose modules sit oddly in the index's one bit space: no
    basis element at all (no multidegree length, so any alpha is read at
    its own length), an empty middle module, and elements kept above a
    module whose every element is dropped (a middle one, or module 0, under
    an entry-less column)."""
    F = line_complex(mdegs, diffs)
    assert_restricts_like_oracle(F, alphas)
    assert (F._index[0] is None) == (F.ranks() == (0,))


@pytest.mark.parametrize("name", ["ex1", "S14"])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_restriction_lemma_over_the_whole_lattice(ex1, name, field):
    """Below every lcm-lattice element alpha, the minimal resolution of S/I
    restricts to a minimal resolution of S/I_alpha, I_alpha the generators
    that divide alpha: its ranks are the Betti totals of I_alpha."""
    I = ex1 if name == "ex1" else load_ideal(str(BENCH_IDEALS / f"{name}.ideal"))
    M = minimalize(taylor_complex(I), field)
    for alpha in lcm_lattice(I):
        totals = multigraded_betti(restrict_ideal(I, alpha), field).totals()
        assert restrict_complex(M, alpha).ranks() == totals, alpha


def test_restrict_indexes_a_complex_once(ex1, monkeypatch):
    # the bench resolve pin: ex1's minimal resolution below its 1251 lattice elements
    build, calls = shiftlab.complexes._restriction_index, []
    monkeypatch.setattr(shiftlab.complexes, "_restriction_index",
                        lambda modules, diffs: calls.append(modules) or build(modules, diffs))
    M = minimalize(taylor_complex(ex1), QQ)
    restricted = [restrict_complex(M, alpha) for alpha in lcm_lattice(ex1)]
    assert len(restricted) == 1251
    assert sum(sum(R.ranks()) for R in restricted) == 67684
    assert calls == [M.modules]


def test_restriction_keeps_each_coefficient_object_type():
    # 1 and Fraction(1) are equal and hash alike, so a table of entries keyed
    # by value alone would turn one into the other; row 0 (x^2) drops below x
    F = line_complex([[2, 0, 0], [1, 1]],
                     [[], [[(1, 1), (2, Fraction(1))], [(1, Fraction(1)), (2, 1)]]])
    for alpha in ((1,), (2,)):
        R = restrict_complex(F, alpha)
        assert (R.modules, R.diffs) == restrict_oracle(F, alpha)
        assert [[type(c) for _, c in col] for col in R.diffs[1]] == [[int, Fraction], [Fraction, int]]
    # a row above its column is dropped while the column stays
    G = line_complex([[0, 2], [1]], [[], [[(0, 1), (1, Fraction(1))]]])
    with pytest.raises(ValueError, match="^restriction not closed: input complex is not homogeneous$"):
        restrict_complex(G, (1,))


def test_free_complex_modules_cannot_be_reassigned(ex2):
    # restrict_complex indexes F.modules on its first call, so they stay put
    F = taylor_complex(ex2)
    modules = F.modules
    restrict_complex(F, ex2.ring.zero())
    with pytest.raises(AttributeError, match="modules"):
        F.modules = minimalize(F).modules
    assert F.modules is modules
    assert_restricts_like_oracle(F, probe_alphas(ex2, F))


def test_free_complex_pickles_and_copies_without_its_index(ex2):
    # nor the column rule's scan: both are kept on first use, never carried
    alpha = (3, 2, 2, 2, 2, 0, 2)
    F = minimalize(taylor_complex(ex2))
    before = pickle.dumps(F)
    R = restrict_complex(F, alpha)
    assert verify_complex(F).ok and F._index is not None and F._scan is not None
    assert pickle.dumps(F) == before
    for back in (pickle.loads(before), copy.copy(F), copy.deepcopy(F)):
        assert (back.modules, back.diffs) == (F.modules, F.diffs)
        assert back._index is None and back._scan is None
        S = restrict_complex(back, alpha)
        assert (S.modules, S.diffs) == (R.modules, R.diffs)
    with pytest.raises(TypeError):
        F.modules[1][0] = F.modules[1][1]


def assert_immutable_all_the_way_down(F):
    assert type(F.modules) is tuple and all(type(mod) is tuple for mod in F.modules)
    assert type(F.diffs) is tuple
    assert all(type(level) is tuple and all(type(col) is tuple for col in level)
               for level in F.diffs)
    for name in ("modules", "diffs", "_index", "_scan"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(F, name, ())
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(F, name)


def test_copies_are_equal_and_immutable_all_the_way_down(ex2):
    # the columns are tuples, so a copy may share them or not: only its
    # fields and their immutability matter
    F = taylor_complex(ex2)
    assert_immutable_all_the_way_down(F)
    for back in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
        assert (back.modules, back.diffs) == (F.modules, F.diffs)
        assert_immutable_all_the_way_down(back)


BUILDERS = ["taylor", "scarf", "minimal_qq", "restricted", "loaded"]


def _built(ex2, kind) -> FreeComplex:
    T = taylor_complex(ex2)
    return {"taylor": lambda: T, "scarf": lambda: scarf_complex(ex2),
            "minimal_qq": lambda: minimalize(T),
            "restricted": lambda: restrict_complex(T, (3, 2, 2, 2, 2, 0, 2)),
            "loaded": lambda: complex_from_json(json.loads(dumps_complex(T)))}[kind]()


@pytest.mark.parametrize("kind", BUILDERS)
def test_every_builder_makes_an_immutable_complex(ex2, kind):
    F = _built(ex2, kind)
    assert_immutable_all_the_way_down(F)
    with pytest.raises(AttributeError):
        F.diffs[1][0].append((0, 1))


@pytest.mark.parametrize("kind", BUILDERS)
def test_every_builder_emits_tuple_entries(ex2, kind):
    # the constructor keeps the (row, coeff) entries it is given without a
    # per-entry check, so each builder must hand it tuples
    F = _built(ex2, kind)
    entries = [entry for level in F.diffs for col in level for entry in col]
    assert entries and all(type(entry) is tuple and len(entry) == 2 for entry in entries)


def test_assigned_diffs_no_longer_pass_for_a_complex():
    # once, F.diffs = ... succeeded: verify_complex then called 5 columns on
    # 2 basis elements ok, and minimalize and is_minimal raised IndexError
    F = taylor_complex(KOSZUL2)
    with pytest.raises(AttributeError, match="cannot assign to field 'diffs'"):
        F.diffs = (F.diffs[0], F.diffs[1] + ((), (), ()), F.diffs[2])
    with pytest.raises(AttributeError, match="cannot delete field 'modules'"):
        del F.modules
    assert F.ranks() == (1, 2, 1) and [len(d) for d in F.diffs] == [0, 2, 1]
    assert verify_complex(F).ok and minimalize(F).ranks() == (1, 2, 1) and is_minimal(F)


# --- verification ----------------------------------------------------------------

def with_entry(F, a, j, k, entry):
    """F with entry k of column j of d_a replaced, built through the constructor."""
    col = F.diffs[a][j]
    level = F.diffs[a][:j] + (col[:k] + (entry,) + col[k + 1:],) + F.diffs[a][j + 1:]
    return FreeComplex(F.modules, F.diffs[:a] + (level,) + F.diffs[a + 1:])


def test_verify_detects_sign_flip(ex2):
    F = taylor_complex(ex2)
    assert verify_complex(F).ok
    row, coeff = F.diffs[2][3][0]
    F = with_entry(F, 2, 3, 0, (row, -coeff))
    rep = verify_complex(F)
    assert not rep.ok and rep.location[0] in (2, 3)


def taylor_with_stray_row(ex2):
    """ex2's Taylor complex with the first entry of the edge (0, 1) pointed at
    a generator outside the edge whose multidegree does not divide the
    edge's lcm: no monomial makes that entry homogeneous."""
    F = taylor_complex(ex2)
    edge = F.modules[2][0]
    assert edge.label == (0, 1)
    stray = next(
        i for i, g in enumerate(ex2.gens)
        if i not in edge.label and not divides(g, edge.mdeg)
    )
    assert F.modules[1][stray].label == (stray,)
    return with_entry(F, 2, 0, 0, (stray, F.diffs[2][0][0][1])), stray


def test_verify_detects_homogeneity_break(ex2):
    F, stray = taylor_with_stray_row(ex2)
    rep = verify_complex(F)
    assert not rep.ok and "homogene" in rep.problem
    assert rep.location == (2, 0, stray)


@pytest.mark.parametrize("row", [2, -1])
def test_verify_detects_row_out_of_range(row):
    F = taylor_complex(KOSZUL2)
    F = with_entry(F, 2, 0, 1, (row, F.diffs[2][0][1][1]))
    rep = verify_complex(F)
    assert not rep.ok and rep.problem == "row index out of range"
    assert rep.location == (2, 0, row)


@pytest.mark.parametrize("row", [-1, 2, 1.0, True], ids=repr)
def test_minimalize_and_is_minimal_refuse_a_row_out_of_range(row):
    # module 1 of KOSZUL2's Taylor complex has 2 elements: -1 and 2 are no
    # index of it, nor are 1.0 and True, though each equals 1
    F = taylor_complex(KOSZUL2)
    F = with_entry(F, 2, 0, 1, (row, F.diffs[2][0][1][1]))
    message = rf"^level 2 column 0 has row {re.escape(repr(row))}, not an int in range\(2\)$"
    for field in (QQ, PrimeField(3)):
        with pytest.raises(ContractError, match=message):
            minimalize(F, field)
    with pytest.raises(ContractError, match=message):
        is_minimal(F)


def test_minimalize_refuses_a_negative_row():
    # d1(f) = 1 * row -1, with f and e1 of multidegree x: minimalize once
    # cancelled f through below[-1] = e1, kept e1 and returned ranks (2,),
    # which changed the homology; is_minimal read row -1 as e1 too
    F = line_complex([[0, 1], [1]], [[], [[(-1, 1)]]])
    rep = verify_complex(F)
    assert (rep.ok, rep.problem, rep.location) == (False, "row index out of range", (1, 0, -1))
    for routine in (minimalize, is_minimal):
        with pytest.raises(ContractError, match=r"^level 1 column 0 has row -1, not an int in range\(2\)$"):
            routine(F)


@pytest.mark.parametrize("row", [True, 1.0, [1], -1, 2], ids=repr)
def test_every_reader_of_rows_keeps_the_row_rule(row):
    # d1(f) = 1 * row r, with e0, e1 of multidegree 1, x and f of x.  True
    # once verified as row 1, 1.0 raised a bare TypeError and [1] an
    # unhashable-type one from the column scan; the dump wrote true and -1,
    # which its loader refuses, and an IndexError at 2; restriction kept True
    # and 1.0 and called -1 and 2 not homogeneous
    F = line_complex([[0, 1], [1]], [[], [[(row, 1)]]])
    rep = verify_complex(F)
    problem = "row index out of range" if type(row) is int else "row is not an int"
    assert (rep.ok, rep.problem, rep.location) == (False, problem, (1, 0, row))
    assert str(rep) == f"complex INVALID at (1, 0, {row!r}): {problem}"
    message = rf"^level 1 column 0 has row {re.escape(repr(row))}, not an int in range\(2\)$"
    for routine in (dumps_complex, complex_to_json, lambda F: restrict_complex(F, (1,)),
                    minimalize, is_minimal):
        with pytest.raises(ContractError, match=message):
            routine(F)


def test_a_repeat_is_reported_before_a_row_that_is_no_int():
    # the column scan never hashes a row that is not an int, and still finds
    # a repeat in another column first
    F = line_complex([[0, 1], [1, 1]], [[], [[([1], 1)], [(0, 1), (0, -1)]]])
    rep = verify_complex(F)
    assert (rep.ok, rep.problem, rep.location) == (False, "column repeats a row", (1, 1, 0))
    G = line_complex([[0, 1], [1, 1]], [[], [[(True, 1)], [(1, 1)]]])
    rep = verify_complex(G)
    assert (rep.ok, rep.problem, rep.location) == (False, "row is not an int", (1, 0, True))


def verify_oracle(F, p=0):
    """verify_complex before its row multidegrees were hoisted: divides per
    entry, d∘d by indexing; the checks and their order are the same.  A
    repeated row is looked for entry by entry, against the rows before it."""
    for a in range(1, len(F.modules)):
        for j, col in enumerate(F.diffs[a]):
            rows = [row for row, _ in col]
            for k, row in enumerate(rows):
                if row in rows[:k]:
                    return (False, "column repeats a row", (a, j, row))
    for a in range(1, len(F.modules)):
        for j, col in enumerate(F.diffs[a]):
            for row, _ in col:
                if not 0 <= row < len(F.modules[a - 1]):
                    return (False, "row index out of range", (a, j, row))
                if not divides(F.modules[a - 1][row].mdeg, F.modules[a][j].mdeg):
                    return (False, "entry multidegree breaks homogeneity", (a, j, row))
    for a in range(2, len(F.modules)):
        for j in range(len(F.modules[a])):
            acc = {}
            for row, coeff in F.diffs[a][j]:
                for row2, coeff2 in F.diffs[a - 1][row]:
                    acc[row2] = acc.get(row2, 0) + coeff * coeff2
            for row2, total in acc.items():
                if (total % p if p else total) != 0:
                    return (False, "d∘d has a nonzero entry", (a, j, row2))
    return (True, None, None)


def test_verify_matches_oracle_on_every_single_entry_change(ex2):
    """Each entry of ex2's Taylor complex in turn gets its sign flipped, its
    row moved to the next row, a row one past the end, or 3 added to its
    coefficient; the report is the oracle's every time, over QQ and over
    GF(3).  Adding 3 changes nothing mod 3, so over GF(3) that complex
    verifies: d∘d has nonzero sums that are 0 mod 3."""
    F = taylor_complex(ex2)
    for a in range(1, len(F.modules)):
        n = len(F.modules[a - 1])
        for j, col in enumerate(F.diffs[a]):
            for k, (row, coeff) in enumerate(col):
                for entry in ((row, -coeff), ((row + 1) % n, coeff), (n, coeff), (row, coeff + 3)):
                    G = with_entry(F, a, j, k, entry)
                    for field, p in ((QQ, 0), (PrimeField(3), 3)):
                        rep = verify_complex(G, field)
                        assert (rep.ok, rep.problem, rep.location) == verify_oracle(G, p)
                    if entry == (row, coeff + 3):
                        assert verify_complex(G, PrimeField(3)).ok and not verify_complex(G, QQ).ok
    assert verify_complex(F).ok


@pytest.mark.parametrize("e, width", [(127, 1), (128, 2), (255, 2), (256, 2), (32767, 2), (32768, 3)])
@pytest.mark.parametrize("v", [0, 2, 4])
def test_verify_finds_a_homogeneity_break_at_packed_field_edges(e, width, v):
    """verify_complex packs every multidegree of a complex into W-byte fields
    with a guard bit atop each, W set by its largest exponent e.  Column 0
    holds rows equal to it, with 0 at v or e at every other variable, so
    a field that borrowed from its neighbour would show; column 1 holds the
    same rows and one that passes it by 1 at v alone (the first, a middle or
    the last of 5 variables).  The report names that row, as the tuple
    oracle does."""
    n = 5
    top = tuple(e - 1 if u == v else e for u in range(n))
    rows = [top, tuple(0 if u == v else e for u in range(n)), tuple(e - 1 if u == v else 0 for u in range(n)),
            tuple(e if u == v else 0 for u in range(n))]
    modules = [[BasisElement((i,), m) for i, m in enumerate(rows)],
               [BasisElement(("ok",), top), BasisElement(("break",), top)]]
    F = FreeComplex(modules, [[], [[(0, 1), (1, 1), (2, -1)], [(0, 1), (1, 1), (2, -1), (3, 1)]]])
    assert shiftlab.complexes._pack([be.mdeg for mod in modules for be in mod], n)[2] == width
    rep = verify_complex(F)
    assert (rep.ok, rep.problem, rep.location) == verify_oracle(F)
    assert (rep.ok, rep.problem, rep.location) == (False, "entry multidegree breaks homogeneity", (1, 1, 3))
    clean = FreeComplex(modules[:1] + [modules[1][:1]], [[], [F.diffs[1][0]]])
    assert verify_complex(clean).ok


def mixed_length_complex():
    return FreeComplex([[BasisElement((), (0, 0))], [BasisElement((0,), (1, 0, 0))]],
                       [[], [[(0, 1)]]])


def test_verify_rejects_a_row_of_another_length():
    # the complex is refused when it is built, before verify_complex runs
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        verify_complex(mixed_length_complex())


@pytest.mark.parametrize("mdegs, message", [
    ([[(0, 0)], [(1, 0, 0)]], "2 vs 3"),
    ([[(0, 0, 0)], [(1, 0, 0), (0, 1)]], "2 vs 3"),
    ([[(0,), (1, 1)]], "1 vs 2"),
    ([[], [(1, 1, 1)], [], [(1, 1)], [(1,)]], "1 vs 2"),
])
def test_free_complex_rejects_basis_multidegrees_of_two_lengths(mdegs, message):
    modules = [[BasisElement((a, j), m) for j, m in enumerate(mod)]
               for a, mod in enumerate(mdegs)]
    diffs = [[[] for _ in mod] if a else [] for a, mod in enumerate(modules)]
    with pytest.raises(ValueError, match=f"^length mismatch: {message}$"):
        FreeComplex(modules, diffs)


@pytest.mark.parametrize("mdegs, diffs, ranks, shifts", [
    ([[0], [], []], [[], [], []], (1,), (0,)),
    ([[], []], [[], []], (0,), (0,)),
    ([[0], [], [1], []], [[], [], [[]], []], (1, 0, 1), (0, 0, 1)),
])
def test_free_complex_drops_trailing_empty_modules(mdegs, diffs, ranks, shifts):
    F = line_complex(mdegs, diffs)
    assert F.ranks() == ranks and len(F.diffs) == len(ranks)
    assert shifts_of_complex(F).shifts == shifts


def test_complex_from_json_drops_trailing_empty_modules():
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    obj["modules"] += [[], []]
    obj["differentials"] += [[], []]
    assert complex_from_json(obj).ranks() == (1, 2, 1)


@st.composite
def small_complexes(draw):
    """Modules of basis elements in one or two variables, with multidegrees
    mostly of one length, and differentials with rows in and out of range."""
    n = draw(st.integers(1, 2))
    mdeg = st.lists(st.integers(0, 2), min_size=n, max_size=n + 1).map(tuple)
    mdegs = draw(st.lists(st.lists(mdeg, max_size=3), min_size=1, max_size=4))
    modules = [[BasisElement((a, j), m) for j, m in enumerate(mod)]
               for a, mod in enumerate(mdegs)]
    diffs = [[]]
    for a in range(1, len(modules)):
        entry = st.tuples(st.integers(-1, len(modules[a - 1])), st.integers(-2, 2))
        diffs.append([draw(st.lists(entry, max_size=3)) for _ in modules[a]])
    return modules, diffs


@given(small_complexes(), st.sampled_from([0, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_verify_raises_no_value_error_on_a_built_complex(case, p):
    try:
        F = FreeComplex(*case)
    except ValueError as exc:
        assert str(exc).startswith("length mismatch")
        return
    rep = verify_complex(F, PrimeField(p) if p else QQ)
    assert (rep.ok, rep.problem, rep.location) == verify_oracle(F, p)


@pytest.mark.parametrize("alpha", [(1, 0), (1, 0, 0)])
def test_restrict_rejects_basis_elements_of_two_lengths(alpha):
    # zip would truncate the second element's (1, 0, 0) and keep it below (1, 0)
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        restrict_complex(mixed_length_complex(), alpha)


def test_restrict_rejects_non_homogeneous_input(ex2):
    F, _ = taylor_with_stray_row(ex2)
    with pytest.raises(ValueError, match="not closed"):
        restrict_complex(F, F.modules[2][0].mdeg)


@pytest.mark.parametrize("extra", [(0,), (9, 9), None])
def test_restrict_rejects_wrong_length(ex2, extra):
    # zip alone would truncate: ex2's top lcm plus a slot would keep every face
    F = taylor_complex(ex2)
    top = reduce(join, (be.mdeg for mod in F.modules for be in mod))
    alpha = top[:-1] if extra is None else top + extra
    with pytest.raises(ValueError, match=f"length mismatch: 7 vs {len(alpha)}"):
        restrict_complex(F, alpha)


# --- minimalization ----------------------------------------------------------------

def test_minimalize_example2_gives_betti_ranks(ex2):
    M = minimalize(taylor_complex(ex2))
    assert M.ranks() == (1, 5, 8, 5, 1)
    assert is_minimal(M) and verify_complex(M).ok


def test_minimalize_koszul_unchanged():
    F = taylor_complex(KOSZUL2)
    M = minimalize(F)
    assert M.ranks() == (1, 2, 1)
    assert [be.label for mod in M.modules for be in mod] == [
        be.label for mod in F.modules for be in mod
    ]


def test_minimalize_nonminimal_two_generators():
    I = raw_ideal(Ring(["x"]), [(2,), (3,)])
    F = taylor_complex(I)
    assert F.ranks() == (1, 2, 1)
    M = minimalize(F)
    assert M.ranks() == (1, 1)
    assert tuple(shifts_of_complex(M)) == (0, 2)


def test_minimalize_idempotent(ex2):
    M = minimalize(taylor_complex(ex2))
    assert minimalize(M).ranks() == M.ranks()


def test_minimalize_prime_field(ex2):
    gf = PrimeField(32003)
    M = minimalize(taylor_complex(ex2), gf)
    assert M.ranks() == (1, 5, 8, 5, 1)
    assert is_minimal(M) and verify_complex(M, gf).ok
    # without the field, the integer composition correctly looks nonzero
    assert not verify_complex(M).ok


def test_is_minimal_cases(ex2):
    assert is_minimal(taylor_complex(KOSZUL2))
    assert not is_minimal(taylor_complex(ex2))
    assert is_minimal(minimalize(taylor_complex(ex2)))


# --- shifts and the star bound -----------------------------------------------------

def test_shifts_of_minimal_example2(ex2):
    M = minimalize(taylor_complex(ex2))
    assert tuple(shifts_of_complex(M)) == (0, 11, 13, 15, 16)


def test_shifts_of_koszul():
    assert tuple(shifts_of_complex(taylor_complex(KOSZUL2))) == (0, 1, 2)


def test_taylor_top_shift_is_lcm_degree(ex2):
    F = taylor_complex(ex2)
    top = total_degree(reduce(join, ex2.gens))
    assert shifts_of_complex(F)[5] == top == 16


def test_star_shift_bound_trivial():
    F = taylor_complex(KOSZUL2)
    assert star_shift_bound(F, F, 0) == 0
    assert star_shift_bound(F, F, 5) is None
    assert star_shift_bound(F, F, -1) is None  # no split i + j = a with i, j >= 0
    assert star_shift_bound(F, F, 2) == max(2 + 0, 1 + 1)


def test_star_shift_bound_example1(ex1, ex1_table):
    alpha, beta = (5, 5, 5, 5, 0, 0, 0), (3, 3, 2, 2, 6, 5, 6)
    Fa = minimalize(taylor_complex(restrict_ideal(ex1, alpha)))
    Fb = minimalize(taylor_complex(restrict_ideal(ex1, beta)))
    bound = star_shift_bound(Fa, Fb, 7)
    t = ex1_table.shift_profile()
    assert bound is not None
    assert t[7] <= bound <= max(t[2] + t[5], t[3] + t[4])


# --- the coefficient contract: ints, or over QQ also Fractions -------------------------

R1 = Ring(["x"])


def line_complex(mdegs, diffs):
    """A complex on R1 with one basis element per multidegree (x^k as (k,))."""
    modules = [[BasisElement((a, j), (k,)) for j, k in enumerate(level)]
               for a, level in enumerate(mdegs)]
    return FreeComplex(modules, diffs)


def coeff_types(F):
    return {type(c) for level in F.diffs for col in level for _, c in col}


def test_verify_rejects_fraction_over_prime_field():
    # d∘d = 1 * (1/2): nonzero over QQ; 1/2 is no GF(3) coefficient (it was
    # once read as int(1/2) = 0 and the complex passed)
    F = line_complex([[0], [1], [1]], [[], [[(0, Fraction(1, 2))]], [[(0, 1)]]])
    assert not verify_complex(F, QQ).ok
    with pytest.raises(TypeError, match="characteristic 3"):
        verify_complex(F, PrimeField(3))


def test_minimalize_rejects_fraction_over_prime_field():
    F = line_complex([[0], [0]], [[], [[(0, Fraction(1, 2))]]])
    assert minimalize(F, QQ).ranks() == (0,)
    with pytest.raises(TypeError, match="Fraction"):
        minimalize(F, PrimeField(3))


@pytest.mark.parametrize("coeff", [1.0, 0.5, True], ids=repr)
@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
def test_float_and_bool_coefficients_raise(coeff, field):
    F = line_complex([[0], [0]], [[], [[(0, coeff)]]])
    for routine in (minimalize, verify_complex):
        with pytest.raises(TypeError, match=type(coeff).__name__):
            routine(F, field)


def non_unit_pivot_complex():
    """d1(f0) = 2e0 + x e1, d1(f1) = 4e0 + 2x e1, d2(h) = 2f0 - f1."""
    return line_complex(
        [[1, 0], [1, 1], [1]],
        [[], [[(0, 2), (1, 1)], [(0, 4), (1, 2)]], [[(0, 2), (1, -1)]]],
    )


def fraction_pivot_complex():
    """d1(f0) = 2e0 + x e1, d1(f1) = e0."""
    return line_complex([[1, 0], [1, 1]], [[], [[(0, 2), (1, 1)], [(0, 1)]]])


def test_minimalize_non_unit_pivot():
    # the first pivot is the equal-degree entry 2, which no corpus ideal reaches
    F = non_unit_pivot_complex()
    assert verify_complex(F, QQ).ok
    M = minimalize(F, QQ)  # cancels (e0, f0) with Fraction(1, 2), then (f1, h)
    assert M.ranks() == (1,) and [be.label for be in M.modules[0]] == [(0, 1)]
    assert verify_complex(M, QQ).ok and is_minimal(M)
    gf2 = PrimeField(2)
    M2 = minimalize(F, gf2)  # 2 and 4 vanish; only (f1, h) cancels
    assert M2.ranks() == (2, 1) and M2.diffs[1] == (((1, 1),),)
    assert verify_complex(M2, gf2).ok and is_minimal(M2)
    assert coeff_types(M2) == {int}


def test_minimalize_non_unit_pivot_leaves_fraction():
    # cancelling (e0, f0) leaves d1(f1) = -1/2 x e1, which survives a dump
    # round trip
    F = fraction_pivot_complex()
    M = minimalize(F, QQ)
    assert M.diffs[1] == (((0, Fraction(-1, 2)),),) and coeff_types(M) == {Fraction}
    assert complex_from_json(json.loads(dumps_complex(M))).diffs == M.diffs
    M2 = minimalize(F, PrimeField(2))
    assert M2.ranks() == (1, 1) and M2.diffs[1] == (((0, 1),),)


# --- the heap oracle of minimalize ----------------------------------------------------

def heap_minimalize(F, field=QQ):
    """minimalize as it was before its one pass per level over the rows: a
    heap of the unit entries, popped smallest (row, column) first, skipping
    stale ones and pushing the units each elimination leaves in the changed
    columns.  Returns the complex and its pivots in the order popped, each
    as (level, row, column, created), where created says the unit was not
    in the level's first heap.  F must keep the row and column rules."""
    p = characteristic(field)
    dead = [set() for _ in F.modules]
    cols = [[]]
    pivots = []
    for a in range(1, len(F.modules)):
        gone, below, here = dead[a - 1], F.modules[a - 1], F.modules[a]
        level, rows, heap = [{} for _ in here], {}, []
        for f, col in enumerate(F.diffs[a]):
            for g, coeff in col:
                c = coeff % p if p else coeff
                if c and g not in gone:
                    level[f][g] = c
                    rows.setdefault(g, set()).add(f)
                    if below[g].mdeg == here[f].mdeg:
                        heap.append((g, f))
        first = set(heap)
        heapq.heapify(heap)
        while heap:
            g, f = heapq.heappop(heap)
            if g not in level[f]:
                continue
            pivots.append((a, g, f, (g, f) not in first))
            pivot, level[f] = level[f], {}
            for g2 in pivot:
                rows[g2].discard(f)
            changed = eliminate(pivot, g, level, rows, p)
            for g2 in pivot:
                mdeg = below[g2].mdeg
                for f2 in changed:
                    if here[f2].mdeg == mdeg:
                        heapq.heappush(heap, (g2, f2))
            dead[a].add(f)
            gone.add(g)
        cols.append(level)
    modules, diffs, index = [], [], {}
    for a, mod in enumerate(F.modules):
        alive = [j for j in range(len(mod)) if j not in dead[a]]
        modules.append([mod[j] for j in alive])
        diffs.append([tuple([(index[g], cols[a][j][g]) for g in sorted(cols[a][j])])
                      for j in alive] if a else [])
        index = {j: i for i, j in enumerate(alive)}
    return FreeComplex(modules, diffs), pivots


def created_unit_complex():
    """d1(f0) = e0 + e1 and d1(f1) = e0 + x e2, with e2 of multidegree 1 and
    the rest of multidegree x.  Row 1's one unit is in column f0, the pivot
    column of row 0, whose elimination makes d1(f1) = -e1 + x e2: row 1 is
    left with the unit that step created."""
    return line_complex([[1, 1, 0], [1, 1]], [[], [[(0, 1), (1, 1)], [(0, 1), (2, 1)]]])


def assert_minimalize_matches_heap_oracle(F, field) -> list:
    """minimalize(F, field) equals the heap oracle's complex, coefficient
    types included (1 == Fraction(1)), and within each level the oracle's
    pivots come in strictly increasing row order.  Returns those pivots."""
    M = minimalize(F, field)
    O, pivots = heap_minimalize(F, field)
    assert (M.modules, M.diffs) == (O.modules, O.diffs)
    types = lambda F: [[[type(c) for _, c in col] for col in level] for level in F.diffs]
    assert types(M) == types(O)
    for a in range(1, len(F.modules)):
        rows = [g for level, g, _, _ in pivots if level == a]
        assert rows == sorted(set(rows)), (a, rows)
    return pivots


GF2, GF3, GF32003 = PrimeField(2), PrimeField(3), PrimeField(32003)


def heap_oracle_inputs(name, corpus, ex1, ex2, rp2):
    """(complex, field) pairs of one group of the heap-oracle test."""
    fields = (QQ, GF2, GF3, GF32003)
    if name == "corpus":
        return [(taylor_complex(I), field) for I in corpus for field in fields]
    if name in ("ex1", "ex2", "S13", "S14"):
        I = {"ex1": ex1, "ex2": ex2}.get(name) or load_ideal(str(BENCH_IDEALS / f"{name}.ideal"))
        T = taylor_complex(I)
        return [(T, field) for field in (fields if name in ("ex1", "ex2") else (QQ, GF32003))]
    if name == "rp2":
        return [(taylor_complex(rp2), field) for field in (QQ, GF2)]
    if name == "scarf":
        return [(scarf_complex(I), field) for I in (*corpus, ex1, ex2) for field in (QQ, GF2)]
    if name == "restricted":
        # ex2 below every lattice element, ex1 and each corpus ideal below a seeded one
        rng, pairs = random.Random(20261020), [(ex2, alpha) for alpha in lcm_lattice(ex2)]
        pairs += [(I, rng.choice(lattice)) for I in (ex1, *corpus) if (lattice := lcm_lattice(I))]
        return [(restrict_complex(taylor_complex(I), alpha), field)
                for I, alpha in pairs for field in (QQ, GF2)]
    if name == "one_degree":
        # the matrices of test_betti.py's test_rank_matches_dense_oracle
        pairs = []
        for field in fields:
            rng = random.Random(20261018)
            for _ in range(400):
                M = _low_rank_product(rng, (0, 0, 0, 2, -3, 4, 6, 32003, -64006))
                pairs.append((_one_degree_complex(columns(M), len(M)), field))
        return pairs
    hand_built = (non_unit_pivot_complex(), fraction_pivot_complex(), created_unit_complex())
    return [(F, field) for F in hand_built for field in fields]


# group -> (the heap oracle's pivots, those on units an elimination created),
# summed over the group's complexes and fields.  A Scarf complex is minimal
# already: no facet of a Scarf face has its lcm.
HEAP_ORACLE_PIVOTS = {
    "corpus": (28380, 1924), "ex1": (6608, 440), "ex2": (24, 0), "S13": (8066, 458),
    "S14": (16212, 408), "rp2": (991, 152), "scarf": (0, 0), "restricted": (1222, 58),
    "one_degree": (3860, 361), "hand_built": (19, 4),
}


@pytest.mark.parametrize("name", HEAP_ORACLE_PIVOTS)
def test_minimalize_matches_the_heap_oracle(name, corpus, ex1, ex2, rp2):
    # one pass over the rows of each level in increasing order makes the
    # heap's pivots in the heap's order, so the output is the same complex.
    # The pivots on created units show that the docstring's argument is
    # exercised, not only its base case.
    pivots = [pivot for F, field in heap_oracle_inputs(name, corpus, ex1, ex2, rp2)
              for pivot in assert_minimalize_matches_heap_oracle(F, field)]
    assert (len(pivots), sum(pivot[3] for pivot in pivots)) == HEAP_ORACLE_PIVOTS[name]


@pytest.mark.parametrize("field", [QQ, GF2, GF32003], ids=str)
def test_minimalize_cancels_a_unit_that_an_elimination_creates(field):
    F = created_unit_complex()
    assert verify_complex(F, field).ok
    assert heap_minimalize(F, field)[1] == [(1, 0, 0, False), (1, 1, 1, True)]
    assert_minimalize_matches_heap_oracle(F, field)
    M = minimalize(F, field)
    assert M.ranks() == (1,) and [be.label for be in M.modules[0]] == [(0, 2)]
    assert M.diffs == ((),) and is_minimal(M) and verify_complex(M, field).ok


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
def test_repeated_row_is_refused_or_reported(field):
    # d1(f) = e - e, homology (1, 1): minimalize once kept only the -1,
    # cancelled (e, f) and returned the zero complex, and verify passed it
    F = line_complex([[0], [0]], [[], [[(0, 1), (0, -1)]]])
    for call in (lambda: minimalize(F, field), lambda: rank_exact(F.diffs[1], field)):
        with pytest.raises(ValueError, match="^column 0 repeats row 0$"):
            call()
    rep = verify_complex(F, field)
    assert (rep.ok, rep.problem, rep.location) == (False, "column repeats a row", (1, 0, 0))
    # a bad coefficient one level up is still raised, not left behind the report
    G = line_complex([[0], [0], [0]], [[], [[(0, 1), (0, -1)]], [[(0, 0.5)]]])
    with pytest.raises(TypeError, match="float"):
        verify_complex(G, field)


def test_column_rule_scans_a_complex_once(ex1, monkeypatch):
    # two minimalize calls and a verify read one scan of the Taylor columns;
    # rank_exact and complex_from_json scan the raw columns they are given,
    # and dumps_complex reads the row rule off the one scan of Mq
    scan, calls = shiftlab.complexes._column_scan, []
    for module in (shiftlab.complexes, shiftlab.betti):
        monkeypatch.setattr(module, "_column_scan", lambda levels: calls.append(levels) or scan(levels))
    gf = PrimeField(32003)
    T = taylor_complex(ex1)
    Mq, Mp = minimalize(T, QQ), minimalize(T, gf)
    assert verify_complex(T).ok and verify_complex(T, gf).ok
    assert len(calls) == 1 and calls[0] is T.diffs
    assert Mq.ranks() == Mp.ranks()
    assert rank_exact(T.diffs[2], QQ) == rank_exact(T.diffs[2], gf) == 11  # exact at module 1
    assert complex_from_json(json.loads(dumps_complex(Mq))).diffs == Mq.diffs
    assert len(calls) == 5 and calls[3] is Mq.diffs
    dumps_complex(Mq)
    assert len(calls) == 5


def test_dump_with_two_entries_for_one_col_and_row_is_refused():
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    level = obj["differentials"][1]
    assert (level[0]["col"], level[0]["row"]) == (0, 0)
    level.append({**level[0], "coeff": "-1"})
    with pytest.raises(ValueError, match="^column 0 repeats row 0$"):
        complex_from_json(obj)


# --- dump format ---------------------------------------------------------------------

def test_loaded_taylor_complex_shares_its_entries(ex1):
    T = taylor_complex(ex1)
    back = complex_from_json(json.loads(dumps_complex(T)))
    assert (back.modules, back.diffs) == (T.modules, T.diffs)
    ids = lambda F: {id(e) for level in F.diffs for col in level for e in col}
    assert len(ids(back)) <= len(ids(T)) <= 2 * sum(T.ranks())


def test_complex_json_roundtrip(ex2):
    M = minimalize(taylor_complex(ex2))
    back = complex_from_json(json.loads(dumps_complex(M)))
    assert back.ranks() == M.ranks()
    assert verify_complex(back).ok and is_minimal(back)
    assert [be.mdeg for be in back.modules[2]] == [be.mdeg for be in M.modules[2]]


@pytest.mark.parametrize(
    "field, value",
    [("mdeg", [0, 1]), ("mdeg", 5), ("row", 5), ("row", -1), ("col", -1),
     # bools, floats and strings are no indices, even where they equal the right int
     ("row", True), ("col", False), ("row", 1.0), ("col", 0.0), ("row", "1"), ("col", None),
     # nor are they exponents: each of these equals [1, 0] under ==
     ("mdeg", [True, 0.0]), ("mdeg", [1.0, 0])]
)
def test_complex_from_json_checks_entry_mdeg(field, value):
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    entry = obj["differentials"][2][0]
    assert entry["mdeg"] == [1, 0] and (entry["col"], entry["row"]) == (0, 1)
    # column (1, 1) minus row y = (0, 1)
    entry[field] = value
    with pytest.raises(ValueError, match="column - row|must be an int"):
        complex_from_json(obj)


@pytest.mark.parametrize(
    "key, value",
    [("mdeg", d) for d in ([1, 1, 7], [1], [-1, 1], [1.0, 1], [True, 1], ["1", 1], 5, None, "11")]
    # a label must be a list: a string is not split into characters
    + [("label", v) for v in ("ab", 5, None, {"0": 1})],
    # the mdeg cases keep the ids they had when they were the only inputs
    ids=[f"mdeg{i}" for i in range(6)] + ["5", "None", "11"]
    + ["label-ab", "label-5", "label-None", "label-dict"],
)
def test_complex_from_json_checks_basis_mdeg(key, value):
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    assert obj["modules"][2][0] == {"label": [0, 1], "mdeg": [1, 1]}
    obj["modules"][2][0][key] = value
    with pytest.raises(ValueError, match="basis mdegs"):
        complex_from_json(obj)


@pytest.mark.parametrize(
    "coeff",
    [0.1, 1, True, None, "1_0", "1e3", " 2 ", "+1", "1/0", "1/00", "1/-2", "1.5",
     "\uff12", "2\n", ""],
    ids=repr,
)
def test_complex_from_json_checks_coeff(coeff):
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    assert obj["differentials"][2][0]["coeff"] == "1"
    obj["differentials"][2][0]["coeff"] = coeff
    with pytest.raises(ValueError, match="coeff"):
        complex_from_json(obj)


def _extra_level(obj):
    obj["differentials"].append([])


def _drop_coeff(obj):
    del obj["differentials"][2][0]["coeff"]


def _drop_col(obj):
    del obj["differentials"][2][0]["col"]


def _int_modules(obj):
    obj["modules"] = 5


def _no_modules(obj):
    obj["modules"], obj["differentials"] = [], []


@pytest.mark.parametrize(
    "mutate, match",
    [(_extra_level, "equal length"),  # was IndexError on modules[3]
     (_drop_coeff, "coeff None"),  # was KeyError
     (_drop_col, "col must be an int"),  # was KeyError
     (_int_modules, "lists of objects"),  # was TypeError
     (_no_modules, "module 0")],  # was a complex of length -1
    ids=["differentials-too-long", "no-coeff", "no-col", "modules-int", "no-modules"],
)
def test_complex_from_json_malformed_raises_value_error(mutate, match):
    obj = json.loads(dumps_complex(taylor_complex(KOSZUL2)))
    assert len(obj["modules"]) == len(obj["differentials"]) == 3
    mutate(obj)
    with pytest.raises(ValueError, match=match):
        complex_from_json(obj)


def test_free_complex_validates_shape():
    with pytest.raises(ValueError):
        FreeComplex([[]], [])
    with pytest.raises(ValueError, match="module 0"):
        FreeComplex([], [])
    # one column too many or too few at level 1, and an entry in the unused
    # diffs[0]: each is refused when the complex is built, before any routine
    # indexes past a module or drops a column
    T = taylor_complex(KOSZUL2)
    for a, diffs in ((1, [[], [*T.diffs[1], [(0, 1)]], T.diffs[2]]),
                     (1, [[], T.diffs[1][:1], T.diffs[2]]),
                     (0, [[[(0, 1)]], T.diffs[1], T.diffs[2]])):
        with pytest.raises(ValueError, match=rf"diffs\[{a}\] has"):
            FreeComplex(T.modules, diffs)
    assert FreeComplex(T.modules, T.diffs).diffs == T.diffs


def test_free_complex_column_counts_cannot_change():
    # a level of diffs is a tuple: a column appended after the shape check
    # once passed verify_complex and made minimalize raise IndexError
    F = taylor_complex(KOSZUL2)
    with pytest.raises(AttributeError, match="append"):
        F.diffs[1].append([(0, 1)])
    with pytest.raises(TypeError):
        F.diffs[1] = [*F.diffs[1], [(0, 1)]]
    assert F.ranks() == (1, 2, 1) and [len(d) for d in F.diffs] == [0, 2, 1]
    assert verify_complex(F).ok and minimalize(F).ranks() == (1, 2, 1)


# sha256 of dumps_complex for each construction of the worked examples.  They
# pin face order, labels, signs and the dumped entry multidegrees byte for byte.
CONSTRUCTION_DIGESTS = {
    ("ex1", "taylor"): "ead9954b99194462d507f147c8a0c377d85dbee277ea312d0a1f0e339d2b2a68",
    ("ex1", "scarf"): "ec0428851a711f555465b2a971ec10952fa9a39084ce2363a3c7523c3b9a47e3",
    ("ex1", "minimal_qq"): "1611e2bb2051bff5a158a6307d197fc91e01eab35881e91f1181ce7a4bd2f165",
    ("ex1", "minimal_gf"): "474d23d36ae9a9950866f2d14f93bfd89cb928be6cf66d9bed7c1195d9ca7414",
    ("ex2", "taylor"): "4ed1ec5076e4ba3df0fad399588e5f9c7fdc3b38f84ab4fb4e2038e534fd6b19",
    ("ex2", "scarf"): "da6d836db7cd6f0f600348f183db70dda41d0579bb276327325537502eac358a",
    ("ex2", "minimal_qq"): "5ecdf0f3e1d129e80acddde0da803556183ba36e7a06a4755fbda96afde5776e",
    ("ex2", "minimal_gf"): "c13640b75fa984627a8255ea0f6cf1ecacfd0be8732716914e08c8f4883590f7",
}


def test_construction_digests(ex1, ex2):
    for name, I in (("ex1", ex1), ("ex2", ex2)):
        taylor = taylor_complex(I)
        built = {
            "taylor": taylor,
            "scarf": scarf_complex(I),
            "minimal_qq": minimalize(taylor, QQ),
            "minimal_gf": minimalize(taylor, PrimeField(32003)),
        }
        for kind, F in built.items():
            digest = hashlib.sha256(dumps_complex(F).encode()).hexdigest()
            assert digest == CONSTRUCTION_DIGESTS[(name, kind)], (name, kind)


# sha256 of dumps_complex of the minimalized Taylor complex of the pinned
# 13-generator stress ideal: 8192 faces, far more cancellations than ex1
S13_MINIMAL_DIGESTS = {
    "qq": "597f932802ea1e15254f041a674f59af30b58cefae119de53b4e344a9516ed08",
    "gf": "432ad21fabafe840c2e62cefe2d27a54551db93852385889e1e26a2e7dcab0d1",
}


def test_s13_minimal_digests():
    I = load_ideal(str(Path(__file__).resolve().parent.parent / "bench" / "ideals" / "S13.ideal"))
    taylor = taylor_complex(I)
    for key, field in (("qq", QQ), ("gf", PrimeField(32003))):
        digest = hashlib.sha256(dumps_complex(minimalize(taylor, field)).encode()).hexdigest()
        assert digest == S13_MINIMAL_DIGESTS[key], key


# the same for the pinned 14-generator stress ideal, the Taylor complex the
# bench resolve workload minimalizes: 16384 faces and 8106 pivots a field
S14_MINIMAL_DIGESTS = {
    "qq": "7cac3cfef0acae6367422e7e9655f523d8859fba86787b2e04fdcecdb75888fe",
    "gf": "8a5174d482221cac54dbb9d9b78b7f99fcc478a2dcbc3780f90f98a66dd8c939",
}


def test_s14_minimal_digests():
    taylor = taylor_complex(load_ideal(str(BENCH_IDEALS / "S14.ideal")))
    assert verify_complex(taylor).ok
    for key, field in (("qq", QQ), ("gf", PrimeField(32003))):
        digest = hashlib.sha256(dumps_complex(minimalize(taylor, field)).encode()).hexdigest()
        assert digest == S14_MINIMAL_DIGESTS[key], key
