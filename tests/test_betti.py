import random
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import shiftlab.betti
from shiftlab import (
    BasisElement,
    BettiTable,
    FreeComplex,
    MonomialIdeal,
    PrimeField,
    QQ,
    Ring,
    betti_records,
    divides,
    find_covering_pairs,
    format_betti_grid,
    is_minimal,
    join,
    lcm_lattice,
    load_ideal,
    minimalize,
    multigraded_betti,
    projdim,
    rank_exact,
    restrict_ideal,
    scarf_is_resolution,
    shifts,
    taylor_complex,
    total_degree,
    verify_complex,
)
from shiftlab.betti import (_classify, _equal_masks, _lattice, _lyubeznik_faces, _lyubeznik_pushes,
                            _relabel, _rooting)
from shiftlab.complexes import CapExceededError

RING2 = Ring(["x", "y"])
KOSZUL2 = MonomialIdeal(RING2, [(1, 0), (0, 1)])


# --- exact rank ---------------------------------------------------------------

def columns(M) -> list[list[tuple]]:
    """The columns of the dense matrix M (a list of equal-length rows) in
    rank_exact's format, zero entries included, so that every entry reaches
    rank_exact's checks."""
    assert len({len(row) for row in M}) <= 1, "ragged rows"
    return [[(i, row[j]) for i, row in enumerate(M)] for j in range(len(M[0]) if M else 0)]


def test_rank_identity():
    assert rank_exact(columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_matrix():
    assert rank_exact(columns([[0, 0], [0, 0]])) == 0
    assert rank_exact(columns([])) == 0
    assert rank_exact([[], []]) == 0  # two columns with no entries


def test_rank_dependent_rows():
    assert rank_exact(columns([[1, 2], [2, 4]])) == 1
    assert rank_exact(iter(columns([[1, 2], [0, 4]]))) == 2  # read once, then checked and ranked


def test_rank_prime_field():
    gf2 = PrimeField(2)
    assert rank_exact(columns([[1, 1], [1, 1]]), gf2) == 1
    assert rank_exact(columns([[2, 0], [0, 1]]), gf2) == 1  # 2 vanishes mod 2
    assert rank_exact(columns([[2, 0], [0, 1]]), QQ) == 2


def test_rank_fractions():
    # over QQ a Fraction column is read as it is: the matrix times 6 has the
    # same rank.  Over GF(p) it is refused, not cleared or truncated.
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rank_exact(columns(M), QQ) == rank_exact(columns([[int(6 * x) for x in row] for row in M]), QQ) == 1
    assert rank_exact(columns([[Fraction(1, 2), 0], [0, Fraction(-2, 3)]]), QQ) == 2
    with pytest.raises(TypeError, match="characteristic 3 must be int, not Fraction"):
        rank_exact(columns(M), PrimeField(3))


def test_rank_repeated_row_is_rejected():
    # a dict of the column would keep the -1 alone and give rank 2
    for field in (QQ, PrimeField(3)):
        with pytest.raises(ValueError, match="column 0 repeats row 0"):
            rank_exact([[(0, 1), (0, -1)], [(1, 1)]], field)


def _rank_by_fraction_elimination(M) -> int:
    """Plain Gaussian elimination over Fractions: the rank oracle."""
    A = [[Fraction(x) for x in row] for row in M]
    m, n = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            f = A[i][c] / A[r][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
    return r


# Dense elimination, the rank engine before the sparse one; kept here as the
# oracle that rank_exact is checked against, in both fields.  Both work on
# their argument in place.

def _rank_bareiss(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Every subtraction step divides exactly by the previous pivot, so the
    working entries stay integers (they are minors of the input matrix).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rowr = rows[r]
        for i in range(r + 1, m):
            rowi = rows[i]
            ric = rowi[c]
            for j in range(c + 1, n):
                rowi[j] = (pv * rowi[j] - ric * rowr[j]) // prev
            rowi[c] = 0
        prev = pv
        r += 1
        if r == m:
            break
    return r


def _rank_modp(rows: list[list[int]], p: int) -> int:
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c] % p, -1, p)
        rowr = [x * inv % p for x in rows[r]]
        rows[r] = rowr
        for i in range(r + 1, m):
            f = rows[i][c] % p
            if f:
                rowi = rows[i]
                for j in range(c, n):
                    rowi[j] = (rowi[j] - f * rowr[j]) % p
        r += 1
        if r == m:
            break
    return r


def dense_rank(M, field=QQ) -> int:
    """The dense oracle's rank of M over field; M is left alone."""
    rows = [list(r) for r in M]
    if isinstance(field, PrimeField):
        return _rank_modp(rows, field.p)
    return _rank_bareiss(rows)


def column_orders(cols, rng) -> list[list]:
    """cols as given, reversed and shuffled by rng: rank_exact takes the live
    columns in turn, so its pivots follow the column order."""
    shuffled = list(cols)
    rng.shuffle(shuffled)
    return [list(cols), cols[::-1], shuffled]


def _low_rank_product(rng, entries):
    """An m x n integer matrix A·B through an inner size k, so the rank is
    often below both dimensions."""
    m, n, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
    A = [[rng.choice(entries) for _ in range(k)] for _ in range(m)]
    B = [[rng.choice(entries) for _ in range(n)] for _ in range(k)]
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


def test_rank_random_vs_rational_elimination():
    import random

    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert rank_exact(columns(M)) == _rank_by_fraction_elimination(M)


def test_rank_int_and_fraction_entries_agree():
    # low-rank products with many zeros, so that pivots grow, columns are
    # skipped and the rank is often below both dimensions; over QQ the same
    # matrix with Fraction entries has the same rank in every column order,
    # and over GF(3) it is refused
    import random

    rng, order_rng = random.Random(11), random.Random(12)
    for _ in range(150):
        M = _low_rank_product(rng, (0, 0, 0, 1, -1, 2, -3))
        rank = _rank_by_fraction_elimination(M)
        fractions = columns([[Fraction(x) for x in row] for row in M])
        for cols in column_orders(columns(M), order_rng) + column_orders(fractions, order_rng):
            assert rank_exact(cols) == rank, (M, cols)
        with pytest.raises(TypeError):
            rank_exact(fractions, PrimeField(3))


def _one_degree_complex(d1, nrows: int) -> FreeComplex:
    """The two-term complex with differential d1 (columns) whose basis
    elements all have multidegree 1, so every nonzero entry is a pivot for
    minimalize."""
    rows = [BasisElement((0, i), (0,)) for i in range(nrows)]
    basis = [BasisElement((1, j), (0,)) for j in range(len(d1))]
    return FreeComplex([rows, basis], [[], d1])


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)], ids=str)
def test_rank_matches_dense_oracle(field):
    # no ±1 among the factors' entries, so over QQ most pivots are not units
    # and take the Fraction(1, v) inverse; 32003 and -64006 put entries >= p
    # and negative multiples of p into the products.  rank_exact and
    # minimalize share one elimination step: both must match the oracle,
    # rank_exact in every column order.
    import random

    rng, order_rng = random.Random(20261018), random.Random(20261019)
    for _ in range(400):
        M = _low_rank_product(rng, (0, 0, 0, 2, -3, 4, 6, 32003, -64006))
        rank, d1 = dense_rank(M, field), columns(M)
        for cols in column_orders(d1, order_rng):
            assert rank_exact(cols, field) == rank, (M, cols)
        F = _one_degree_complex(d1, len(M))
        Mn = minimalize(F, field)
        assert sum(F.ranks()) - sum(Mn.ranks()) == 2 * rank, M
        assert verify_complex(Mn, field).ok and is_minimal(Mn), M


def test_rank_mixed_entries_are_rejected():
    # each of these used to be coerced: the 1/2 and the 0.5 went through
    # int() to 0 over GF(3), and over QQ the 0.5 was read as a Fraction.
    # Over QQ an int and Fraction matrix is read exactly.
    for M in ([[Fraction(1, 2), 0], [0, 1]], [[Fraction(1, 3), Fraction(2, 3)], [1, 2]],
              [[Fraction(1, 2)]], [[0.5]], [[1, 0.0]], [[True, 0], [0, 1]]):
        exact = {type(x) for row in M for x in row} <= {int, Fraction}
        for field in (QQ, PrimeField(3)):
            if exact and field == QQ:
                assert rank_exact(columns(M), field) == _rank_by_fraction_elimination(M)
                continue
            with pytest.raises(TypeError, match="must be (Fraction or )?int"):
                rank_exact(columns(M), field)


def test_rank_leaves_its_argument_alone():
    for M, field in (
        ([[2, 4, 0], [1, 2, 3], [0, 0, 5]], QQ),
        ([[2, 4, 0], [1, 2, 3], [0, 0, 5]], PrimeField(3)),
        ([[-1, 1, 0], [0, -1, 1], [1, 0, -1]], QQ),
    ):
        cols = columns(M)
        before = [list(col) for col in cols]
        rank_exact(cols, field)
        assert cols == before
    cols = columns([[Fraction(1, 2), 1], [1, 2]])
    before = [list(col) for col in cols]
    assert rank_exact(cols) == 1 and cols == before
    with pytest.raises(TypeError):
        rank_exact(cols, PrimeField(3))
    assert cols == before


# --- lcm lattice ---------------------------------------------------------------

def test_lattice_koszul():
    assert set(lcm_lattice(KOSZUL2)) == {(1, 0), (0, 1), (1, 1)}


def test_lattice_contains_covering_multidegrees(ex2):
    lat = set(lcm_lattice(ex2))
    assert (3, 2, 2, 2, 2, 0, 2) in lat and (2, 2, 3, 2, 2, 2, 0) in lat


def test_lattice_principal():
    assert lcm_lattice(MonomialIdeal(RING2, [(2, 1)])) == [(2, 1)]


def test_lattice_cap(monkeypatch):
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 1)
    with pytest.raises(CapExceededError, match=r"lcm lattice of 2 elements after 1 of 2"):
        lcm_lattice(KOSZUL2)
    # from 12 generators on the cap counts the generators added in the
    # closure order: after 6 of E14's the lattice has 36 elements, where the
    # first 6 given ones have 64
    I = edge_ideal(14, 20)
    added = [I.gens[i] for i in closure_order(I)[:6]]
    assert len(tuple_lattice(MonomialIdeal(I.ring, added))) == 36
    assert len(tuple_lattice(MonomialIdeal(I.ring, I.gens[:6]))) == 64
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 6)
    with pytest.raises(CapExceededError, match=r"lcm lattice of 36 elements after 6 of 20 generators"):
        lcm_lattice(I)


# The engine before multidegrees were packed, kept as the oracle of the
# packed one: the lattice on exponent tuples, one key at a time while it had
# at most TUPLE_SMALL_LATTICE elements and one exponent column per variable
# past that, and the Lyubeznik count with a tuple join per push.
TUPLE_SMALL_LATTICE = 6


def closure_order(I) -> list[int]:
    """The order _lattice adds the generators in: the given one below 12
    generators, and from 12 on by decreasing sum_v g_v * c_v, with c_v the
    sum of the x_v exponents over all generators, ties in the given order."""
    if I.m < 12:
        return list(range(I.m))
    columns = [sum(g[v] for g in I.gens) for v in range(I.ring.n)]
    overlap = [sum(e * c for e, c in zip(g, columns)) for g in I.gens]
    return sorted(range(I.m), key=lambda i: (-overlap[i], i))


def tuple_lattice(I) -> dict:
    """alpha -> (G_alpha, size) on exponent tuples, 0 included, with the
    generators added in closure_order, each keeping its own bit."""
    lattice = {I.ring.zero(): (0, 1)}
    for i in closure_order(I):
        g, bit = I.gens[i], 1 << i
        if len(lattice) <= TUPLE_SMALL_LATTICE:
            for key, (mask, size) in list(lattice.items()):
                top = tuple([x if x >= e else e for x, e in zip(key, g)])
                had, count = lattice.get(top, (0, 0))
                lattice[top] = (had | mask | bit, count + size)
            continue
        old = list(lattice.values())
        joined = zip(*[[x if x >= e else e for x in col] if e else col
                       for col, e in zip(zip(*lattice), g)])
        for top, (mask, size) in zip(joined, old):
            had, count = lattice.get(top, (0, 0))
            lattice[top] = (had | mask | bit, count + size)
    return lattice


def tuple_lyubeznik_pushes(I, lattice: dict) -> dict:
    """_lyubeznik_pushes on a tuple_lattice, with a tuple join per push and
    each count a tuple (n_0, ..., n_m) of the faces by size."""
    zero, gens = I.ring.zero(), I.gens
    count = {zero: (1,) + (0,) * I.m}
    pushes = {}
    for beta in sorted(lattice):
        if (n := count.get(beta)) is None:
            continue
        low = lattice[beta][0]
        reach = (low & -low or 1 << len(gens)) - 1
        out = []
        while reach:
            bit = reach & -reach
            reach ^= bit
            alpha = tuple([x if x >= e else e for x, e in zip(beta, gens[bit.bit_length() - 1])])
            if lattice[alpha][0] & (bit - 1):
                continue
            had = count.get(alpha, (0,) * (I.m + 1))
            count[alpha] = (had[0], *[x + y for x, y in zip(had[1:], n)])  # one generator more
            out.append((alpha, bit))
        pushes[beta] = n, out
    return pushes


def face_sizes(n: int, m: int) -> tuple:
    """(n_0, ..., n_m): the faces by size in one _lyubeznik_pushes count,
    field s of m + 1 bits holding n_s."""
    return tuple(n >> (m + 1) * s & (1 << m + 1) - 1 for s in range(m + 1))


def unpacked_lattice(I) -> dict:
    """_lattice(I) with its keys unpacked to tuples, in its order."""
    lattice, _, _, unpack = _lattice(I)
    return {unpack(key): value for key, value in lattice.items()}


def unpacked_pushes(I) -> dict:
    """_lyubeznik_pushes on _lattice(I), with every multidegree unpacked to
    a tuple and every count to its faces by size, in its order."""
    lattice, gens, guards, unpack = _lattice(I)
    tuples = {key: unpack(key) for key in lattice}
    pushes = _lyubeznik_pushes(lattice, gens, guards)
    return {tuples[beta]: (face_sizes(n, I.m), [(tuples[alpha], bit) for alpha, bit in out])
            for beta, (n, out) in pushes.items()}


def check_against_the_tuple_engine(I):
    # the same lattice in the same order, and the same Lyubeznik counts and
    # pushes
    lattice = tuple_lattice(I)
    assert list(unpacked_lattice(I).items()) == list(lattice.items()), I
    assert lcm_lattice(I) == sorted(alpha for alpha, (mask, _) in lattice.items() if mask)
    assert unpacked_pushes(I) == tuple_lyubeznik_pushes(I, lattice), I


# exponents that need 1, 2, 3 and 9 bytes a variable once packed: W = 2
# past 127, W = 3 past 32767, W = 9 for 2^64 + 1; both sides of the first
# two boundaries, where the guard bit moves
WIDE = [
    ("127", [(127, 1, 0), (0, 127, 2), (3, 0, 127), (126, 127, 1)], 1),
    ("128", [(128, 1, 0), (0, 127, 2), (3, 0, 128), (127, 128, 1)], 2),
    ("32767", [(32767, 1, 0), (0, 32767, 2), (3, 0, 32767), (32766, 32767, 1)], 2),
    ("32768", [(32768, 1, 0), (0, 32767, 2), (3, 0, 32768), (32767, 32768, 1)], 3),
    ("x200", [(200, 3, 0), (5, 300, 0), (0, 2, 70000), (130, 0, 9)], 3),
    ("2^64+1", [(2**64 + 1, 1, 0), (0, 5, 2), (3, 0, 2**20), (2**64, 7, 7), (1, 2**64 + 1, 1)], 9),
]
# and n = 1, the zero ideal and a principal ideal
PACKED = [(name, Ring(["x", "y", "z"]), gens, w) for name, gens, w in WIDE] + [
    ("n1", Ring(["x"]), [(5,)], 1),
    ("n1-wide", Ring(["x"]), [(2**40,)], 6),
    ("zero", RING2, [], 1),
    ("principal", Ring(["x", "y", "z"]), [(2, 0, 300)], 2),
]


def packed_width(I) -> int:
    """W, the bytes a variable takes once packed."""
    return max((e for g in I.gens for e in g), default=0).bit_length() // 8 + 1


@pytest.mark.parametrize("name, ring, gens, w", PACKED, ids=[name for name, *_ in PACKED])
def test_packing_widths_and_edge_cases(name, ring, gens, w):
    # the packed generators are the big-endian W-byte fields of their
    # exponents; the engine agrees with the tuple one, and each Betti table
    # with the minimalized Taylor complex, in three fields
    I = MonomialIdeal(ring, gens)
    assert packed_width(I) == w
    assert _lattice(I)[1] == [int.from_bytes(b"".join(e.to_bytes(w, "big") for e in g), "big")
                              for g in I.gens]
    check_against_the_tuple_engine(I)
    T = taylor_complex(I)
    for field in (QQ, PrimeField(2), PrimeField(32003)):
        minimal = minimalize(T, field)
        assert Counter((a, be.mdeg) for a, mod in enumerate(minimal.modules) for be in mod) == \
            multigraded_betti(I, field).entries, (name, field)


# --- Betti tables ----------------------------------------------------------------

def test_koszul_table_exact():
    tab = multigraded_betti(KOSZUL2)
    assert tab.entries == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1,
        (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }


def test_example2_totals_both_fields(ex2):
    assert multigraded_betti(ex2, QQ).totals() == (1, 5, 8, 5, 1)
    assert multigraded_betti(ex2, PrimeField(32003)).totals() == (1, 5, 8, 5, 1)


def test_table_basic_invariants(ex1_table, ex2_table, ex1, ex2):
    for tab, I in ((ex1_table, ex1), (ex2_table, ex2)):
        zero = I.ring.zero()
        assert tab.entries[(0, zero)] == 1
        assert sum(r for (a, _), r in tab.entries.items() if a == 0) == 1
        assert sum(r for (a, _), r in tab.entries.items() if a == 1) == I.m
        lat = set(lcm_lattice(I))
        for (a, mdeg), r in tab.entries.items():
            assert r >= 1 and a <= I.m
            assert a == 0 or mdeg in lat


def test_zero_ideal_table():
    tab = multigraded_betti(MonomialIdeal(RING2, []))
    assert tab.entries == {(0, (0, 0)): 1}
    assert tuple(tab.shift_profile()) == (0,)
    assert tab.projdim == 0


def test_betti_refuses_a_non_field_for_every_ideal(ex2):
    # the field is checked before the lattice is walked, so an ideal whose
    # strands are all read off unbuilt, such as (xy, yz), and the zero ideal
    # refuse it as ex2 does, and so do the callers of the Betti table
    R3 = Ring(["x", "y", "z"])
    read_off = MonomialIdeal(R3, [(1, 1, 0), (0, 1, 1)])
    for I in (read_off, MonomialIdeal(R3, []), ex2):
        for field in ("nonsense", 7, None):
            with pytest.raises(TypeError, match="not a coefficient field"):
                multigraded_betti(I, field)
    with pytest.raises(TypeError, match="not a coefficient field"):
        shifts(read_off, 7)
    with pytest.raises(TypeError, match="not a coefficient field"):
        find_covering_pairs(read_off, at=1, field="bad")
    assert multigraded_betti(read_off, PrimeField(2)).totals() == (1, 2, 1)


def test_strand_euler_characteristic(ex2):
    # alternating sums per strand must match both ways
    tab = multigraded_betti(ex2)
    gens = ex2.gens
    sizes = {}
    for r in range(len(gens) + 1):
        for face in combinations(range(len(gens)), r):
            v = reduce(join, (gens[i] for i in face), ex2.ring.zero())
            sizes.setdefault(v, []).append(r)
    for alpha, rs in sizes.items():
        lhs = sum((-1) ** a * tab.entries.get((a, alpha), 0) for a in range(len(gens) + 1))
        rhs = sum((-1) ** r for r in rs)
        assert lhs == rhs


@pytest.mark.parametrize("name", ["corpus", "S13", "S14", "E14"])
def test_lyubeznik_counts_give_each_strand_its_euler_characteristic(name, corpus):
    # the counts by size of _lyubeznik_pushes give the Euler characteristic
    # sum (-1)^s n_s of the Lyubeznik strand at every lattice element, which
    # the order of the generators cannot move, and so the alternating sum of
    # the table's entries there.  That checks the counts, the strands read
    # off them and _classify's verdicts, but not rank_exact: in the sum of
    # (-1)^s (n_s - r_s - r_(s+1)) over s the ranks cancel
    ideals = {"corpus": corpus, "E14": [edge_ideal(14, 20)]}.get(name) or [
        load_ideal(str(STRESS / f"{name}.ideal"))]
    fields = (PrimeField(32003),) if name == "E14" else (QQ, PrimeField(32003))
    for I in ideals:
        lattice, gens, guards, unpack = _lattice(I)
        pushes = _lyubeznik_pushes(lattice, gens, guards)
        counts = {unpack(key): face_sizes(pushes[key][0], I.m) if key in pushes else () for key in lattice}
        for field in fields:
            euler = Counter()
            for (a, alpha), r in multigraded_betti(I, field).entries.items():
                euler[alpha] += (-1) ** a * r
            assert euler.keys() <= counts.keys(), (I, field)
            for alpha, by_size in counts.items():
                assert sum((-1) ** s * n for s, n in enumerate(by_size)) == euler[alpha], (I, field, alpha)


def dense_strand_matrices(faces: list[int]):
    """The strand oracle: (by_size, mats) as strand_matrices gives them, but
    with mats[s] the dense 0/±1 matrix, one row per size-(s-1) face and one
    column per size-s face, built by its own facet loop.  Dropping the k-th
    smallest member of a face has sign (-1)^k; a facet that is not a face
    one size down has no row."""
    by_size = defaultdict(list)
    for mask in faces:
        by_size[mask.bit_count()].append(mask)
    mats = {}
    for s, level in by_size.items():
        below = by_size.get(s - 1)
        if not below:
            continue
        rowidx = {mask: i for i, mask in enumerate(below)}
        mat = [[0] * len(level) for _ in below]
        for j, face in enumerate(level):
            members = [i for i in range(face.bit_length()) if face >> i & 1]
            for k, i in enumerate(members):
                row = rowidx.get(face & ~(1 << i))
                if row is not None:
                    mat[row][j] = (-1) ** k
        mats[s] = mat
    return dict(by_size), mats


def minimal_requirements(I, alpha, top) -> list[int]:
    """The inclusion-minimal R_v = {i in top : g_i[v] = alpha_v}, v in supp
    alpha, each read generator by generator."""
    reqs = {sum(1 << i for i, g in enumerate(I.gens) if top >> i & 1 and g[v] == a)
            for v, a in enumerate(alpha) if a}
    return [r for r in reqs if not any(s != r and s & r == s for s in reqs)]


def taylor_faces(top: int, minimal: list[int]) -> list[int]:
    """The Taylor strand as sorted bitmasks: the subsets of top that meet
    every mask in minimal.  A branch takes the first mask its chosen members
    miss, and branches on which of its undecided members is the smallest
    chosen one (the smaller ones are left out); once every mask is met, all
    subsets of the undecided members are emitted.  Each face comes from one
    branch, and every branch that is not cut emits at least one face.  The
    chosen members only grow along a branch, so a mask met stays met and
    each branch resumes the scan where its parent stopped."""
    faces: list[int] = []
    stack = [(0, top, 0)]  # (chosen, undecided, index of the first mask not known met)
    while stack:
        chosen, free, k = stack.pop()
        while k < len(minimal) and minimal[k] & chosen:
            k += 1
        if k == len(minimal):
            sub = free
            while True:
                faces.append(chosen | sub)
                if not sub:
                    break
                sub = (sub - 1) & free
            continue
        unmet, rest = minimal[k], minimal[k] & free
        while rest:
            low = rest & -rest
            rest ^= low
            stack.append((chosen | low, free & ~(unmet & ((low << 1) - 1)), k + 1))
    faces.sort()
    return faces


def _all_taylor_entries(I, field) -> dict:
    """The Betti table's entries from the Taylor strand at every lcm of
    generators, each built by the dense oracle and ranked by dense
    elimination: no K^alpha, no skipped strand, no shared code with the
    engine's strands."""
    strata = defaultdict(list)
    for mask in range(1 << I.m):
        gens = (g for i, g in enumerate(I.gens) if mask >> i & 1)
        strata[reduce(join, gens, I.ring.zero())].append(mask)
    entries = {}
    for alpha, faces in strata.items():
        by_size, mats = dense_strand_matrices(faces)
        ranks = {s: dense_rank(mat, field) for s, mat in mats.items()}
        for s, level in by_size.items():
            if beta := len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0):
                entries[(s, alpha)] = beta
    return entries


@st.composite
def tied_ideals(draw):
    """Small ideals with exponents <= 3, so that many generators tie at the
    top exponent of a variable and many strands are skipped."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple).filter(any)
    return MonomialIdeal(Ring("abcd"[:n]), draw(st.lists(vec, max_size=7)))


@settings(max_examples=150, deadline=None)
@given(tied_ideals())
# strands of even size that are no cone and carry homology: xz, yz, xy has
# four faces and b_2 = 2 at xyz
@example(MonomialIdeal(Ring("abc"), [(1, 0, 1), (0, 1, 1), (1, 1, 0)]))
@example(MonomialIdeal(Ring("abcd"), [(0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0)]))
def test_betti_matches_all_taylor_loop(I):
    for field in (QQ, PrimeField(2)):
        assert multigraded_betti(I, field).entries == _all_taylor_entries(I, field)


def rooted_faces(I) -> dict:
    """alpha -> the sorted bitmasks of the Lyubeznik faces with lcm alpha,
    by brute force over all 2^m generator subsets.  {i_1 < ... < i_k} is a
    face when, for every t, no g_j with j < i_t divides lcm(g_{i_t}, ...,
    g_{i_k}); g_{i_t} divides it, so the first generator that does is
    g_{i_t}.  The empty face is the one face of lcm 0."""
    lcms = [I.ring.zero()]
    for mask in range(1, 1 << I.m):
        low = mask & -mask
        lcms.append(join(lcms[mask ^ low], I.gens[low.bit_length() - 1]))
    first = {}
    for alpha in lcms:
        if alpha not in first:
            first[alpha] = next((j for j, g in enumerate(I.gens) if divides(g, alpha)), None)
    faces = defaultdict(list)
    for mask in range(1 << I.m):
        tail, rooted = mask, True
        while tail and rooted:
            low = tail & -tail
            rooted = first[lcms[tail]] == low.bit_length() - 1
            tail ^= low
        if rooted:
            faces[lcms[mask]].append(mask)
    return dict(faces)


def check_lyubeznik_faces(I):
    # the pushes reach the lcms of the rooted subsets in sorted order and
    # count them, and the faces grown along them to every lattice element
    # are those subsets
    (lattice, gens, guards, unpack), rooted = _lattice(I), rooted_faces(I)
    tuples = {key: unpack(key) for key in lattice}
    pushes = _lyubeznik_pushes(lattice, gens, guards)
    assert [tuples[beta] for beta in pushes] == sorted(rooted), I
    assert {tuples[beta]: face_sizes(n, I.m) for beta, (n, _) in pushes.items()} == {
        alpha: tuple(map(Counter(map(int.bit_count, faces)).__getitem__, range(I.m + 1)))
        for alpha, faces in rooted.items()}, I
    grown = {tuples[alpha]: sorted(faces) for alpha, faces in _lyubeznik_faces(pushes, set(lattice)).items()}
    assert grown == rooted, I
    # a simplicial complex, each face rooted at min G of its lcm
    every = {face for faces in grown.values() for face in faces}
    tops = {tuples[key]: mask for key, (mask, _) in lattice.items()}
    for alpha, faces in grown.items():
        top = tops[alpha]
        for face in faces:
            assert all(face ^ 1 << i in every for i in range(I.m) if face >> i & 1), (I, face)
            assert face & -face == top & -top, (I, face)
    # growing faces to fewer elements leaves the faces at those
    part = set(sorted(lattice)[1::3])
    assert {tuples[key]: sorted(faces) for key, faces in _lyubeznik_faces(pushes, part).items()} == {
        tuples[key]: rooted[tuples[key]] for key in part if tuples[key] in rooted}, I


@settings(max_examples=100, deadline=None)
@given(tied_ideals())
def test_lyubeznik_faces_match_the_definition(I):
    check_lyubeznik_faces(I)


def test_lyubeznik_faces_match_the_definition_on_the_corpus(corpus, ex2):
    for I in [*corpus, ex2]:  # m <= 8, so 2^m subsets each
        check_lyubeznik_faces(I)


def check_rooting(I, field=QQ, faces=True) -> bool | None:
    """Check the order multigraded_betti roots its Lyubeznik strands in, and
    its relabelling, against the reordered ideal, and with faces its
    Lyubeznik faces against rooted_faces (2^m subsets); whether it
    relabelled, None when no stratum was left to the counts.  The order is
    rebuilt here from its definition, bit by bit: the generators by how
    many strata of three or more faces have them in G_alpha, most first,
    ties in the given order."""
    calls = []
    with mock.patch.object(shiftlab.betti, "_rooting",
                           lambda *args: calls.append((args, _rooting(*args))) or calls[-1][1]):
        multigraded_betti(I, field)
    if not calls:
        return None
    [((lattice, m), chosen)] = calls
    assert m == I.m
    tops = [top for top, size in lattice.values() if size >= 3]
    order = sorted(range(m), key=lambda i: -sum(top >> i & 1 for top in tops))
    assert chosen == (None if order == list(range(m)) else order), I
    # the relabelled lattice is, key for key, that of the reordered ideal,
    # whose pushes and faces check_lyubeznik_faces compares with rooted_faces
    J = MonomialIdeal(I.ring, [I.gens[i] for i in order])
    assert _relabel(*_lattice(I)[:2], order) == _lattice(J)[:2], I
    if faces:
        check_lyubeznik_faces(J)
    return chosen is not None


@settings(max_examples=100, deadline=None)
@given(tied_ideals())
def test_rooting_matches_the_reordered_ideal(I):
    check_rooting(I)


def test_rooting_matches_the_reordered_ideal_on_the_corpus(corpus, ex1, ex2):
    verdicts = Counter(check_rooting(I) for I in [*corpus, ex2])
    # 88 of them leave a stratum to the counts (87 corpus ideals and ex2);
    # the order is the given order in 2 and moves a generator in the other 86
    assert verdicts == {None: 413, True: 86, False: 2}
    # m <= 8 there, so the second of _relabel's two lookup tables is empty;
    # ex1, S13 and S14 fill both
    stress = [load_ideal(str(STRESS / f"{name}.ideal")) for name in ("S13", "S14")]
    assert [check_rooting(I) for I in [ex1, *stress]] == [True] * 3


@pytest.mark.parametrize("lanes", [3, 4], ids=["W22", "E18"])
def test_rooting_scores_past_two_bytes(lanes):
    # _rooting sums the scores of 8 generators at once, one byte of G_alpha
    # at a time: W22 (m = 22) takes three bytes and the edge ideal on 18
    # vertices (m = 26) four, against two at most on the other ideals
    # check_rooting reads.  On both the rooting order moves a generator.
    I = w22() if lanes == 3 else edge_ideal(18, 26)
    assert (I.m + 7) // 8 == lanes
    assert check_rooting(I, PrimeField(32003), faces=False)


@pytest.mark.parametrize("tables", [3, 4], ids=["W22", "E18"])
def test_relabel_past_two_tables(tables):
    # past 16 generators each further lookup table takes one more pass: W22
    # (m = 22) needs three and the edge ideal on 18 vertices (m = 26) four.
    # The relabelled lattice is, key for key, that of the reordered ideal.
    I = w22() if tables == 3 else edge_ideal(18, 26)
    assert (I.m + 7) // 8 == tables
    order = list(range(I.m))
    random.Random(3).shuffle(order)
    J = MonomialIdeal(I.ring, [I.gens[i] for i in order])
    assert _relabel(*_lattice(I)[:2], order) == _lattice(J)[:2]


STRESS = Path(__file__).resolve().parent.parent / "bench" / "ideals"


@pytest.mark.parametrize("name, built, ranked", [("S13", 2, 2), ("S14", 21, 26)],
                         ids=["S13", "S14"])
def test_only_unclassified_strands_are_built(name, built, ranked, monkeypatch):
    # S13 and S14 have 285 and 353 strata (alpha = 0 included); every other
    # one is read off as a cone or a sphere, or off its Lyubeznik faces when
    # they all have one size, and must not be built.  Each built strand is
    # ranked one level at a time, through rank_exact, which is where
    # bench/tracing.py counts it.  A level is ranked only when it and the
    # level below hold faces, so the counts follow the rooted order.  Before
    # the counts by size, 10 and 33 strands were built, with 4 and 28 rank
    # calls.
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (shiftlab.betti.strand_matrices, shiftlab.betti.rank_exact):
        monkeypatch.setattr(shiftlab.betti, fn.__name__, counted(fn))
    multigraded_betti(load_ideal(str(STRESS / f"{name}.ideal")), QQ)
    assert calls == {"strand_matrices": built, "rank_exact": ranked}


@pytest.mark.parametrize("name", ["KOSZUL2", "principal", "ex2", "ex1", "S13", "S14"])
def test_small_strata_are_read_off_their_size(name, ex1, ex2, monkeypatch):
    # a stratum of one or two faces is read off the size _lattice carries:
    # eq is built for the first stratum of three or more faces, so at most
    # once per Betti call and never when there is none (KOSZUL2 and a
    # principal ideal).  _classify reads only those strata, each at most
    # once and in lattice order: every one up to the first it leaves to be
    # built, and after it only those whose Lyubeznik faces are not all of
    # one size.  Before the counts by size it read all 4, 365, 143 and 182;
    # with the lattice built in the given order, 4, 56, 26 and 50.
    ideals = {"KOSZUL2": KOSZUL2, "principal": MonomialIdeal(RING2, [(2, 1)]), "ex1": ex1, "ex2": ex2}
    I = ideals[name] if name in ideals else load_ideal(str(STRESS / f"{name}.ideal"))
    tables, classified = [], []
    equal_masks, classify = shiftlab.betti._equal_masks, shiftlab.betti._classify
    monkeypatch.setattr(shiftlab.betti, "_equal_masks", lambda I: tables.append(I) or equal_masks(I))
    monkeypatch.setattr(shiftlab.betti, "_classify",
                        lambda eq, alpha, top: classified.append(alpha) or classify(eq, alpha, top))
    large = [alpha for alpha, (_, size) in unpacked_lattice(I).items() if size >= 3]
    assert bool(large) == (name not in ("KOSZUL2", "principal"))
    for field in (QQ, PrimeField(2)):
        tables.clear()
        classified.clear()
        multigraded_betti(I, field)
        assert tables == ([I] if large else [])
        seen = set(classified)
        assert classified == [alpha for alpha in large if alpha in seen]
        assert len(classified) == {"ex2": 4, "ex1": 59, "S13": 17, "S14": 55}.get(name, 0)


@pytest.mark.parametrize("p, totals", [(0, (1, 10, 15, 6)), (3, (1, 10, 15, 6)),
                                       (2, (1, 10, 15, 7, 1))])
def test_rp2_betti_depends_on_the_field(rp2, p, totals):
    # the Stanley-Reisner ideal of RP^2 has 2-torsion: over GF(2) its top
    # strand carries one more Betti number in each of degrees 3 and 4, which
    # only rank_exact can see, so the classifier must leave it unread
    field = PrimeField(p) if p else QQ
    table = multigraded_betti(rp2, field)
    assert table.totals() == totals
    minimal = minimalize(taylor_complex(rp2), field)
    assert verify_complex(minimal, field).ok and is_minimal(minimal)
    assert Counter((a, be.mdeg) for a, mod in enumerate(minimal.modules) for be in mod) == table.entries
    top = (1,) * 6
    faces = [mask for mask in range(1 << rp2.m)
             if reduce(join, (g for i, g in enumerate(rp2.gens) if mask >> i & 1), rp2.ring.zero()) == top]
    assert verdict_of(_equal_masks(rp2), top, faces) is None


def verdict_of(eq, alpha, faces):
    """_classify's verdict on a stratum given as its sorted faces: CONE, the
    k of a sphere, or None where the strand must be built."""
    return _classify(eq, alpha, faces[-1])


def w22():
    """W22: 22 generators in 8 variables, whose 2^22 subsets have 2972
    distinct lcms.  The first 22 minimal generators of 60 distinct seeded
    exponent vectors."""
    rng, vectors = random.Random(1), set()
    while len(vectors) < 60:
        vectors.add(tuple(rng.randint(0, 6) for _ in range(8)))
    ring = Ring([f"x{i}" for i in range(8)])
    return MonomialIdeal(ring, MonomialIdeal(ring, vectors).gens[:22])


def edge_ideal(n: int, m: int) -> MonomialIdeal:
    """A seeded random edge ideal: m distinct edges (min, max) drawn by
    rng.sample(range(n), 2), rng = random.Random(1), one generator x_i*x_j
    per edge in sorted edge order."""
    rng, edges = random.Random(1), set()
    while len(edges) < m:
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    ring = Ring([f"x{k}" for k in range(n)])
    return MonomialIdeal(ring, [tuple(int(k in edge) for k in range(n)) for edge in sorted(edges)])


@pytest.mark.parametrize("n, m, field, totals", [
    (12, 18, QQ, (1, 18, 85, 223, 348, 336, 208, 82, 19, 2)),
    (14, 20, PrimeField(32003), (1, 20, 116, 359, 673, 836, 734, 467, 212, 65, 12, 1)),
], ids=["E12-QQ", "E14-GF"])
def test_edge_ideal_totals(n, m, field, totals):
    # totals pinned from the engine at af7d60d, which ranked the smaller of
    # the Taylor strand and K^alpha(I)
    assert multigraded_betti(edge_ideal(n, m), field).totals() == totals


def staircase(k: int, last: int | None = None) -> MonomialIdeal:
    """x*y^i*z^(k-i) for i = 0..k, then y^k*z^last (last = k by default).
    At alpha = (1, k, last) the minimal R_v overlap, so _classify leaves the
    strand to be built.  For last = k every {0} u S u {k} with S in
    {1..k-1} is a Lyubeznik face there in the given order: 2^(k-1) faces
    and more, where K^alpha(I) has at most 2^3."""
    ring = Ring(["x", "y", "z"])
    return MonomialIdeal(ring, [(1, i, k - i) for i in range(k + 1)] + [(0, k, k if last is None else last)])


def test_betti_table_ignores_generator_order(corpus, ex1, rp2):
    # the lattice masks, the Lyubeznik faces and every built strand depend on
    # the order of the generators; the table must not
    rng = random.Random(2)

    def permuted(I):
        gens = list(I.gens)
        rng.shuffle(gens)
        return MonomialIdeal(I.ring, gens)

    named = [load_ideal(str(STRESS / f"{name}.ideal")) for name in ("S13", "S14")]
    named += [ex1, rp2, edge_ideal(12, 18), staircase(11)]
    cases = [(I, [permuted(I)]) for I in corpus]
    cases += [(I, [permuted(I) for _ in range(3)]) for I in named]
    assert all(J.gens != I.gens for I, perms in cases[-len(named):] for J in perms)
    for field in (QQ, PrimeField(2), PrimeField(32003)):
        for I, perms in cases:
            table = multigraded_betti(I, field)
            assert all(multigraded_betti(J, field) == table for J in perms), (I, field)
    gf = PrimeField(32003)
    for I in (edge_ideal(14, 20), edge_ideal(16, 22), w22()):
        assert multigraded_betti(permuted(I), gf) == multigraded_betti(I, gf), I


@pytest.mark.parametrize("name, faces, built, koszul", [
    ("S13", 4, 2, 0), ("S14", 77, 21, 0), ("ex1", 72, 24, 0), ("E14", 1933, 450, 0),
    ("W22", 171, 44, 0), ("corpus", 262, 77, 0), ("staircase", 8, 1, 1)])
def test_faces_to_rank_in_the_rooted_order(name, faces, built, koszul, corpus, ex1, monkeypatch):
    # the count the face limit reads, summed over the ranked alpha of
    # min(Lyubeznik faces, 2^|supp alpha|) in the rooted order, then the
    # ranked alpha and those of them that take K^alpha(I); a stratum whose
    # Lyubeznik faces have one size is read off its count and adds nothing.
    # In the given order the faces are 32, 225, 169, 26578, 1614 and 600
    # (one K^alpha on the corpus).  The order is no bound: it ranks more
    # faces on six corpus ideals.  At alpha = (1, 20, 10) of the staircase
    # with y^20*z^10 in place of y^20*z^20, K^alpha(I), counted as 2^3
    # faces, still stands in for the 513 of the Lyubeznik strand.
    ideals = {"ex1": [ex1], "E14": [edge_ideal(14, 20)], "W22": [w22()], "corpus": corpus,
              "staircase": [staircase(20, 10)]}
    counts = Counter()
    check, matrices, koszul_faces = (shiftlab.betti._check_size, shiftlab.betti.strand_matrices,
                                     shiftlab.betti._koszul_faces)
    monkeypatch.setattr(shiftlab.betti, "_check_size",
                        lambda count, *args: counts.update(faces=count) or check(count, *args))
    monkeypatch.setattr(shiftlab.betti, "strand_matrices",
                        lambda faces: counts.update(["built"]) or matrices(faces))
    monkeypatch.setattr(shiftlab.betti, "_koszul_faces",
                        lambda *args: counts.update(["koszul"]) or koszul_faces(*args))
    for I in ideals.get(name) or [load_ideal(str(STRESS / f"{name}.ideal"))]:
        multigraded_betti(I, PrimeField(32003))
    assert (counts["faces"], counts["built"], counts["koszul"]) == (faces, built, koszul)


@pytest.mark.parametrize("k, totals", [(11, (1, 13, 12)), (20, (1, 22, 21))])
def test_staircase_strands_stay_within_two_to_the_n(k, totals, monkeypatch):
    # totals pinned from the engine at af7d60d, which ranked the smaller of
    # the Taylor strand and K^alpha(I) in about 2 ms; y^k*z^(k // 2) in place
    # of y^k*z^k leaves them as they are.  In the given order the Lyubeznik
    # strand at alpha = (1, k, last) has 2^(last - 1) faces and more, of
    # several sizes.  In the rooted order those of staircase(k) have one
    # size, so its count gives the entry and no strand is built; with
    # y^k*z^(k // 2) the strand is still ranked, as K^alpha(I).  No strand
    # the engine ranks may exceed 2^n = 8 faces.
    real, koszul_faces = shiftlab.betti.strand_matrices, shiftlab.betti._koszul_faces
    sizes, alphas = [], []
    monkeypatch.setattr(shiftlab.betti, "strand_matrices",
                        lambda faces: sizes.append(len(faces)) or real(faces))
    monkeypatch.setattr(shiftlab.betti, "_koszul_faces",
                        lambda gens, alpha: alphas.append(alpha) or koszul_faces(gens, alpha))
    for last in (k, k // 2):
        I = staircase(k, last)
        by_size = unpacked_pushes(I)[(1, k, last)][0]
        assert sum(by_size) >= 2 ** (last - 1) and sum(map(bool, by_size)) > 1
        sizes.clear()
        alphas.clear()
        start = time.perf_counter()
        assert multigraded_betti(I, QQ).totals() == totals
        assert time.perf_counter() - start < 2
        if last == k:
            assert sizes == alphas == []
        else:
            assert alphas == [(1, k, last)]
            assert sizes and max(sizes) <= 8
        # nor are the 2^(last - 1) faces grown on the way: faces travel only
        # towards an alpha whose Lyubeznik strand is ranked (growing them all
        # traces about 34 MB for staircase(20), against 0.1 MB)
        tracemalloc.start()
        try:
            multigraded_betti(I, QQ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_betti_memory_follows_the_lattice():
    # a table of all 2^22 subset lcms traced about 600 MB; the join closure
    # holds the lattice and one strand at a time
    I = w22()
    assert I.m == 22
    tracemalloc.start()
    try:
        table = multigraded_betti(I, PrimeField(32003))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.totals() == (1, 22, 106, 211, 205, 98, 20, 1)
    assert peak < 8 << 20


# --- shifts and projective dimension ----------------------------------------------

def test_shifts_example2(ex2_table):
    prof = ex2_table.shift_profile()
    assert tuple(prof) == (0, 11, 13, 15, 16)
    assert prof.projdim == 4


def test_shifts_koszul():
    assert tuple(shifts(KOSZUL2)) == (0, 1, 2)


def test_example1_projdim(ex1_table):
    assert ex1_table.projdim == 7


def test_projdim_of_example1_restrictions(ex1):
    assert projdim(restrict_ideal(ex1, (5, 5, 5, 5, 0, 0, 0))) == 4
    # recomputed from the literal definition; agrees with the recorded value 5
    assert projdim(restrict_ideal(ex1, (3, 3, 2, 2, 6, 5, 6))) == 5


def test_t1_is_max_generator_degree(ex1, ex2):
    for I in (ex1, ex2):
        assert shifts(I)[1] == max(total_degree(g) for g in I.gens)


def test_scarf_resolution_flag(ex2):
    # Koszul complexes are generic; the 5-generator example is not
    assert scarf_is_resolution(KOSZUL2)
    assert not scarf_is_resolution(ex2)


# --- renderings ---------------------------------------------------------------------

def test_grid_and_records(ex2_table):
    grid = format_betti_grid(ex2_table)
    assert "total:" in grid and "8" in grid
    recs = betti_records(ex2_table)
    assert {"a": 0, "mdeg": [0] * 7, "rank": 1} in recs
    assert sum(r["rank"] for r in recs if r["a"] == 2) == 8


def test_grid_prints_only_the_rows_that_hold_an_entry(ex2_table):
    # ex2 has no entry with d - a in 1..4, so those rows are left out
    assert format_betti_grid(ex2_table).splitlines() == [
        "           0     1     2     3     4",
        "    0:     1     .     .     .     .",
        "    5:     .     2     .     .     .",
        "    6:     .     2     .     .     .",
        "    7:     .     .     1     .     .",
        "    8:     .     .     1     .     .",
        "    9:     .     .     2     1     .",
        "   10:     .     1     1     .     .",
        "   11:     .     .     3     1     .",
        "   12:     .     .     .     3     1",
        "total:     1     5     8     5     1",
    ]


def test_an_empty_table_is_refused():
    # b_0 = 1 in every table of S/I, so an empty one is no Betti table; it
    # once got as far as format_betti_grid and totals(), which raised
    # "max() arg is an empty sequence"
    for entries in ({}, []):
        with pytest.raises(ValueError, match="b_0 = 1"):
            BettiTable(RING2, entries)


def test_grid_columns_fit_cells_of_six_digits_and_more():
    # every column is as wide as the widest cell, total or header plus one,
    # 6 at least, so cells of six or more digits stay apart
    table = BettiTable(RING2, {(0, (0, 0)): 1, (1, (1, 0)): 123456, (2, (1, 1)): 654321})
    assert format_betti_grid(table).splitlines() == [
        "            0      1      2",
        "    0:      1 123456 654321",
        "total:      1 123456 654321",
    ]
    # a five-digit cell keeps the width of 6
    table = BettiTable(RING2, {(0, (0, 0)): 1, (1, (2, 0)): 12345})
    assert format_betti_grid(table).splitlines() == [
        "           0     1",
        "    0:     1     .",
        "    1:     . 12345",
        "total:     1 12345",
    ]


def test_grid_of_wide_exponents():
    # one row per d - a that holds an entry, not one per d - a up to 70427
    wide = MonomialIdeal(Ring(["x", "y", "z"]),
                         [(200, 3, 0), (5, 300, 0), (0, 2, 70000), (130, 0, 9)])
    lines = format_betti_grid(multigraded_betti(wide, QQ)).splitlines()
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "0", "138", "202", "210", "304", "437", "498", "506",
        "70001", "70130", "70303", "70427", "total"]
    assert lines[-2] == "70427:     .     .     .     1"
    # a label of seven characters widens the label column of every line
    lines = format_betti_grid(multigraded_betti(MonomialIdeal(RING2, [(200000, 0), (0, 1)]),
                                                QQ)).splitlines()
    assert lines == ["            0     1     2",
                     "     0:     1     1     .",
                     "199999:     .     1     1",
                     " total:     1     2     1"]
