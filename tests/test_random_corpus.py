"""Property suites over the seeded 500-ideal corpus (n <= 6, m <= 8, exp <= 4)."""

from collections import defaultdict
from functools import reduce
from operator import le, or_
from pathlib import Path

import pytest

import shiftlab.betti
from shiftlab import (
    PrimeField,
    QQ,
    check_consecutive,
    check_covering,
    check_multiple,
    check_range,
    check_subadditivity_profile,
    check_top,
    divides,
    find_covering_pairs,
    join,
    load_ideal,
    minimalize,
    multigraded_betti,
    rank_exact,
    taylor_complex,
    total_degree,
)
from shiftlab.betti import CONE, _equal_masks, _koszul_faces, _lattice, strand_matrices
from test_betti import dense_rank, dense_strand_matrices, minimal_requirements, taylor_faces, verdict_of
from test_complexes import edge_ideals

PAIR_BUDGET = 5  # covering pairs checked per ideal (deterministic: first sorted)


def test_corpus_size(corpus):
    assert len(corpus) >= 500
    for I in corpus:
        assert I.ring.n <= 6 and I.m <= 8
        assert all(e <= 4 for g in I.gens for e in g)


def test_oracle_equivalence_rationals(corpus_results):
    for rec in corpus_results["rows"]:
        assert rec["min_msets_q"] == rec["table_msets_q"], rec["ideal"]


def test_oracle_equivalence_prime_field(corpus_results):
    for rec in corpus_results["rows"]:
        assert rec["min_msets_p"] == rec["table_msets_p"], rec["ideal"]


def test_every_constructed_complex_verifies(corpus_results):
    for rec in corpus_results["rows"]:
        assert rec["taylor_ok"] and rec["scarf_ok"], rec["ideal"]
        assert rec["min_ok_q"] and rec["min_ok_p"], rec["ideal"]


# sha256 of the concatenated dumps_complex of every corpus ideal's minimalized
# Taylor complex, per field.  The oracle tests above compare multidegree
# multisets; these pin labels, order and coefficients byte for byte.  GF(2)
# is where non-unit entries over QQ vanish.
CORPUS_MINIMAL_DIGESTS = {
    "qq": "b0d94c394c945b3c3268531d1f93bd7d9172790852550d5cb59a7d54c84b5abb",
    "gf": "95ee27df213d68b8205597ff9427bfe97cc3a32cae7eaa309c6f3c3a708b7eba",
    "gf2": "bc5668eebc5f87c43f9d2b659779172cd1b852c0fe9d4f893315903101da612e",
}


def test_corpus_minimal_digests(corpus_results):
    assert corpus_results["digests"] == CORPUS_MINIMAL_DIGESTS


def test_minimalize_keeps_int_coefficients(corpus_results):
    # every corpus pivot is a unit, so neither field ever leaves the ints
    for rec in corpus_results["rows"]:
        assert rec["min_coeff_types"] <= {int}, rec["ideal"]


# --- three-way oracle: Taylor strand vs upper Koszul complex vs minimalized Taylor,
# each strand rank also checked against dense elimination

GF = PrimeField(32003)
S13 = Path(__file__).resolve().parent.parent / "bench" / "ideals" / "S13.ideal"


def _taylor_strata(I) -> dict:
    """alpha -> the generator-subset bitmasks whose lcm is alpha."""
    lcms = [I.ring.zero()]
    for mask in range(1, 1 << I.m):
        low = mask & -mask
        lcms.append(join(lcms[mask ^ low], I.gens[low.bit_length() - 1]))
    strata = defaultdict(list)
    for mask, alpha in enumerate(lcms):
        strata[alpha].append(mask)
    return strata


def _koszul_by_definition(I, alpha) -> list[int]:
    """K^alpha(I) = {squarefree tau <= alpha : x^(alpha - tau) in I}, one
    membership test per subset of supp(alpha), as variable bitmasks."""
    supp = sum(1 << i for i, e in enumerate(alpha) if e)
    faces = []
    for tau in range(supp + 1):
        if tau & ~supp:
            continue
        rest = tuple(e - (tau >> i & 1) for i, e in enumerate(alpha))
        if any(divides(g, rest) for g in I.gens):
            faces.append(tau)
    return faces


def _homology(faces, fields, memo, dense=True) -> list[dict]:
    """Per field, {s: dim} of the homology at face size s of the complex on
    these faces, with each rank checked against the dense oracle's matrix
    and elimination unless dense is false.  It depends on the face list
    alone, so memo keeps it by that list (the fields stay the same for one
    memo)."""
    key = tuple(faces)
    if key not in memo:
        by_size, mats = strand_matrices(faces)
        oracle = dense_strand_matrices(faces)[1] if dense else None
        memo[key] = []
        for field in fields:
            ranks = {s: rank_exact(mat, field) for s, mat in mats.items()}
            assert not dense or ranks == {s: dense_rank(mat, field) for s, mat in oracle.items()}, faces
            dims = {s: len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0)
                    for s, level in by_size.items()}
            memo[key].append({s: d for s, d in dims.items() if d})
    return memo[key]


def _tables_from_both_strands(I, fields, memo=None) -> list[dict]:
    """One (a, alpha) -> rank table per field, from the Taylor strand at
    every alpha of the lcm lattice, checking that K^alpha(I) has the same
    homology one degree down."""
    memo = {} if memo is None else memo
    tables = [{} for _ in fields]
    for alpha, masks in _taylor_strata(I).items():
        taylor = _homology(masks, fields, memo)
        if any(alpha):
            koszul = _homology(_koszul_faces(I.gens, alpha), fields, memo)
            assert [{s + 1: d for s, d in h.items()} for h in koszul] == taylor, (I, alpha)
        for table, homology in zip(tables, taylor):
            table.update(((a, alpha), d) for a, d in homology.items())
    return tables


def test_oracle_three_way_taylor_koszul_minimal(corpus_results):
    memo = {}  # shared by the corpus: many ideals repeat the same small complexes
    for rec in corpus_results["rows"]:
        minimal = [
            {(a, mdeg): r for a, ms in rec[key].items() for mdeg, r in ms.items()}
            for key in ("min_msets_q", "min_msets_p")
        ]
        assert _tables_from_both_strands(rec["ideal"], (QQ, GF), memo) == minimal, rec["ideal"]


def test_koszul_faces_match_definition(corpus, ex2):
    for I in corpus[:40] + [ex2]:
        for alpha in _taylor_strata(I):
            assert _koszul_faces(I.gens, alpha) == _koszul_by_definition(I, alpha), (I, alpha)


def _stress_or_example(name, ex1, ex2):
    return {"ex1": ex1, "ex2": ex2}.get(name) or load_ideal(str(S13.with_name(f"{name}.ideal")))


@pytest.mark.parametrize("name", ["ex1", "ex2", "S13"])
def test_taylor_and_koszul_strands_agree(name, ex1, ex2):
    I = _stress_or_example(name, ex1, ex2)
    fields = (GF,) if name == "S13" else (QQ, GF)
    expected = [multigraded_betti(I, field).entries for field in fields]
    assert _tables_from_both_strands(I, fields) == expected


@pytest.mark.parametrize("name", ["corpus", "S13", "S14", "rp2"])
def test_strand_columns_match_the_dense_oracle(name, corpus, ex1, ex2, rp2, monkeypatch):
    # every Lyubeznik strand the engine builds: its columns, made
    # dense, equal the oracle's matrix entry for entry, signs included (a
    # wrong sign can leave a rank over QQ unchanged)
    built, real = [], shiftlab.betti.strand_matrices
    monkeypatch.setattr(shiftlab.betti, "strand_matrices",
                        lambda faces: built.append(faces) or real(faces))
    for I in [rp2] if name == "rp2" else _ideals(name, corpus, ex1, ex2):
        multigraded_betti(I, QQ)
    assert built
    for faces in built:
        by_size, mats = real(faces)
        oracle_by_size, oracle = dense_strand_matrices(faces)
        assert by_size == oracle_by_size and mats.keys() == oracle.keys(), faces
        for s, cols in mats.items():
            assert len(cols) == len(by_size[s]), (faces, s)
            dense = [[0] * len(cols) for _ in by_size[s - 1]]
            for j, col in enumerate(cols):
                for row, coeff in col:
                    assert dense[row][j] == 0, (faces, s, j)  # one entry per row and column
                    dense[row][j] = coeff
            assert dense == oracle[s], (faces, s)


@pytest.mark.parametrize("name", ["corpus", "S13", "S14", "ex1", "rp2", "edges"])
def test_lyubeznik_strands_match_taylor_and_koszul(name, corpus, ex1, ex2, rp2, monkeypatch):
    # at every alpha where the engine ranks the Lyubeznik strand, it is a
    # subcomplex of the Taylor strand with the same homology, and K^alpha(I)
    # has it one face size down, over QQ, GF(2) and GF(32003).  Ranks are
    # checked against dense elimination except on S14 and the edge ideals,
    # whose Taylor strands and K^alpha are too large for it.  The faces are
    # grown in the order the engine roots them in, and read back here as
    # sets of the given generators.
    built, grown, orders = [], [], []
    faces_of, relabel = shiftlab.betti._lyubeznik_faces, shiftlab.betti._relabel
    monkeypatch.setattr(shiftlab.betti, "_lyubeznik_faces",
                        lambda pushes, wanted: grown.append(faces_of(pushes, wanted)) or grown[-1])
    monkeypatch.setattr(shiftlab.betti, "_relabel",
                        lambda lattice, gens, order: orders.append(order) or relabel(lattice, gens, order))
    ideals = {"rp2": [rp2], "edges": edge_ideals()}.get(name) or _ideals(name, corpus, ex1, ex2)
    relabelled = 0
    for I in ideals:
        multigraded_betti(I, QQ)
        if grown:  # keyed by packed multidegrees
            lattice, _, _, unpack = _lattice(I)
            relabelled += bool(orders)
            order = orders.pop() if orders else range(I.m)  # bit j of a face is generator order[j]
            for key, faces in grown.pop().items():
                faces = [sum(1 << i for j, i in enumerate(order) if face >> j & 1) for face in faces]
                built.append((I, unpack(key), lattice[key][0], faces))
    # the order moves a generator on 85 corpus ideals, S13, S14, ex1 and the
    # path ideal; RP^2's generators all score alike
    assert built and relabelled == {"corpus": 85, "rp2": 0}.get(name, 1)
    fields, memo, dense = (QQ, PrimeField(2), GF), {}, name not in ("S14", "edges")
    for I, alpha, top, faces in built:
        taylor = taylor_faces(top, minimal_requirements(I, alpha, top))
        assert set(faces) <= set(taylor), (I, alpha)
        homology = _homology(faces, fields, memo, dense)
        assert homology == _homology(taylor, fields, memo, dense), (I, alpha)
        # K^alpha(I) reads only alpha and the generators <= alpha, and only on
        # supp alpha; read there, the path ideal's 330 built alpha give 64
        # complexes, up to 15397 faces each
        supp = [v for v, e in enumerate(alpha) if e]
        gens = [[g[v] for v in supp] for g in I.gens if all(map(le, g, alpha))]
        koszul = _homology(_koszul_faces(gens, [alpha[v] for v in supp]), fields, memo, dense)
        assert [{s + 1: d for s, d in h.items()} for h in koszul] == homology, (I, alpha)


@pytest.mark.parametrize("name, non_units", [("corpus", 0), ("ex1", 0), ("ex2", 0), ("S13", 0),
                                             ("S14", 0), ("rp2", 1)])
def test_rank_pivots_over_qq_are_units(name, non_units, corpus, ex1, ex2, rp2, monkeypatch):
    # over QQ rank_exact pivots on a ±1 entry whenever its column has one; on
    # these ideals every column has one, so every elimination is unimodular
    # and the rank is the same mod every prime, except for the one non-unit
    # pivot of RP^2, whose table over GF(2) differs
    pivots, real = [], shiftlab.betti.eliminate
    monkeypatch.setattr(shiftlab.betti, "eliminate",
                        lambda piv, c, *rest: pivots.append(piv[c]) or real(piv, c, *rest))
    for I in [rp2] if name == "rp2" else _ideals(name, corpus, ex1, ex2):
        multigraded_betti(I, QQ)
    assert pivots
    assert sum(v not in (1, -1) for v in pivots) == non_units


def _verdicts(I) -> list[tuple]:
    """(alpha, stratum, verdict of _classify) at every alpha of the lcm lattice."""
    eq = _equal_masks(I)
    return [(alpha, faces, verdict_of(eq, alpha, faces)) for alpha, faces in _taylor_strata(I).items()]


def _ideals(name, corpus, ex1, ex2) -> list:
    return corpus if name == "corpus" else [_stress_or_example(name, ex1, ex2)]


@pytest.mark.parametrize("name", ["corpus", "ex1", "ex2", "S13", "S14"])
def test_skipped_strands_are_acyclic(name, corpus, ex1, ex2):
    # the third side of the oracle for what the engine never builds: at each
    # alpha read as a cone the Taylor strand and K^alpha(I) both have zero
    # (reduced) homology, also over GF(2) where non-units vanish.  Ranks are
    # by rank_exact, checked against dense elimination by _homology except on
    # S14, whose cones reach 3864 faces: dense elimination would take minutes.
    fields, memo, cones = (QQ, GF, PrimeField(2)), {}, 0
    for I in _ideals(name, corpus, ex1, ex2):
        for alpha, faces, verdict in _verdicts(I):
            if verdict == CONE:
                cones += 1
                for strand in (faces, _koszul_faces(I.gens, alpha)):
                    assert _homology(strand, fields, memo, name != "S14") == [{}] * 3, (I, alpha)
    assert cones > 0


@pytest.mark.parametrize("name", ["corpus", "ex1", "ex2", "S13", "S14"])
def test_sphere_strands_have_one_betti_number(name, corpus, ex1, ex2):
    # at each alpha read as a sphere with k blocks, the Taylor strand's only
    # homology is one copy of the field at face size k, and K^alpha(I)'s (for
    # alpha != 0) one at face size k - 1, over every field tested
    fields, memo, spheres = (QQ, GF, PrimeField(2)), {}, 0
    for I in _ideals(name, corpus, ex1, ex2):
        for alpha, faces, verdict in _verdicts(I):
            if verdict is not None and verdict != CONE:
                spheres += 1
                assert _homology(faces, fields, memo) == [{verdict: 1}] * 3, (I, alpha)
                if any(alpha):
                    koszul = _homology(_koszul_faces(I.gens, alpha), fields, memo)
                    assert koszul == [{verdict - 1: 1}] * 3, (I, alpha)
    assert spheres > 0


def _verdict_from_stratum(faces) -> int | None:
    """The classifier's verdict read from the stratum alone: CONE when some
    generator of the top face is in no minimal face, k when the minimal faces
    are the transversals of k blocks partitioning the top face, else None."""
    stratum, top = set(faces), max(faces)
    bits = [1 << i for i in range(top.bit_length()) if top >> i & 1]
    # every face between a face and the top one has lcm alpha, so a face is
    # minimal when dropping any one member leaves the stratum
    assert all(f | b in stratum for f in faces for b in bits), faces
    minimal = [f for f in faces if not any(f & b and f ^ b in stratum for b in bits)]
    if reduce(or_, minimal) != top:
        return CONE
    # in a product of blocks, two generators share a block iff no minimal
    # face holds both
    blocks = {b | sum(c for c in bits if not any(f & b and f & c for f in minimal)) for b in bits}
    transversals = {0}
    for block in blocks:
        transversals = {f | b for f in transversals for b in bits if b & block}
    disjoint = sum(map(int.bit_count, blocks)) == top.bit_count()
    return len(blocks) if disjoint and transversals == set(minimal) else None


@pytest.mark.parametrize("name", ["corpus", "ex1", "ex2", "S13", "S14"])
def test_cone_test_fires_iff_a_generator_is_in_no_minimal_face(name, corpus, ex1, ex2):
    fired = 0
    for I in _ideals(name, corpus, ex1, ex2):
        for alpha, faces, verdict in _verdicts(I):
            cone = _verdict_from_stratum(faces) == CONE
            assert (verdict == CONE) == cone, (I, alpha)
            assert not cone or len(faces) % 2 == 0, (I, alpha)
            fired += cone
    assert fired > 0


@pytest.mark.parametrize("name", ["corpus", "ex1", "ex2", "S13", "S14"])
def test_sphere_verdict_iff_the_minimal_faces_are_a_product_of_blocks(name, corpus, ex1, ex2):
    # the verdict on every stratum, cones included; a sphere's stratum has
    # the odd size prod(2^|B| - 1) over its blocks B
    seen = {"sphere": 0, "built": 0}
    for I in _ideals(name, corpus, ex1, ex2):
        for alpha, faces, verdict in _verdicts(I):
            assert verdict == _verdict_from_stratum(faces), (I, alpha)
            if verdict is None:
                seen["built"] += 1
            elif verdict != CONE:
                seen["sphere"] += 1
                assert len(faces) % 2 == 1, (I, alpha)
    assert seen["sphere"] > 0 and (seen["built"] > 0 or name == "ex2"), seen


def test_proven_consecutive_and_top(corpus_results):
    for rec in corpus_results["rows"]:
        I, prof = rec["ideal"], rec["profile"]
        assert all(r.holds for r in check_consecutive(I, profile=prof)), I
        if prof.projdim >= 1:
            assert check_top(I, profile=prof).holds, I


def test_proven_covering_and_multiple_on_discovered_pairs(corpus_results):
    checked = 0
    for rec in corpus_results["rows"]:
        I, prof, table = rec["ideal"], rec["profile"], rec["table_q"]
        pairs = find_covering_pairs(I, at=2, table=table)[:PAIR_BUDGET]
        for alpha, beta in pairs:
            reports = check_covering(I, alpha, beta, profile=prof)
            assert all(r.holds for r in reports), (I, alpha, beta)
            rep = check_multiple(I, [(alpha, 2), (beta, 2)], table=table)
            assert rep.holds, (I, alpha, beta)
            checked += 1
    assert checked > 50  # the corpus does produce plenty of real instances


def test_range_agrees_with_covering(corpus_results):
    seen = 0
    for rec in corpus_results["rows"]:
        if seen >= 40:
            break
        I, prof, table = rec["ideal"], rec["profile"], rec["table_q"]
        pairs = find_covering_pairs(I, at=2, table=table)[:1]
        for alpha, beta in pairs:
            cov = {
                r.params["a"]: r
                for r in check_covering(I, alpha, beta, profile=prof)
                if r.name == "covering-shift"
            }
            for a in range(prof.projdim + 1):
                rng_rep = check_range(I, alpha, beta, a, profile=prof)
                assert rng_rep.rhs == cov[a].rhs
                assert rng_rep.holds
            seen += 1
    assert seen >= 20


def test_taylor_and_scarf_profiles_subadditive(corpus_results):
    for rec in corpus_results["rows"]:
        for key in ("taylor_profile", "scarf_profile"):
            reports = check_subadditivity_profile(rec[key])
            assert all(r.holds for r in reports), (rec["ideal"], key)
        assert rec["scarf_in_taylor"], rec["ideal"]


def test_minimal_shifts_subadditive_on_corpus(corpus_results):
    # the open question: no counterexamples in this box
    for rec in corpus_results["rows"]:
        assert all(r.holds for r in check_subadditivity_profile(rec["profile"]))


def test_betti_table_shape_invariants(corpus_results):
    for rec in corpus_results["rows"]:
        I, table = rec["ideal"], rec["table_q"]
        zero = I.ring.zero()
        assert table.entries[(0, zero)] == 1
        assert sum(r for (a, _), r in table.entries.items() if a == 0) == 1
        assert sum(r for (a, _), r in table.entries.items() if a == 1) == I.m
        assert all(a <= I.m for (a, _) in table.entries)
        assert rec["profile"][1] == max(total_degree(g) for g in I.gens)


def test_height_at_most_projdim(corpus_results):
    from shiftlab import height

    for rec in corpus_results["rows"]:
        I = rec["ideal"]
        assert height(I) <= rec["table_q"].projdim <= I.ring.n


def test_restriction_lemma_tables(restriction_results):
    assert len(restriction_results) == 100
    for rec in restriction_results:
        assert rec["table_restricted"].entries == rec["slice_of_full"], (
            rec["ideal"],
            rec["alpha"],
        )


def test_restriction_of_minimal_resolution_is_minimal(restriction_results):
    for rec in restriction_results:
        assert rec["restriction_minimal"] and rec["restriction_verified"], (
            rec["ideal"],
            rec["alpha"],
        )
        assert rec["restriction_ranks"] == rec["table_restricted"].totals()


def test_minimalize_idempotent_on_sample(corpus_results):
    for rec in corpus_results["rows"][:40]:
        M = minimalize(taylor_complex(rec["ideal"]))
        assert minimalize(M).ranks() == M.ranks()
