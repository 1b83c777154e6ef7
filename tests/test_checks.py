import hashlib
import json
import re
import signal
from collections import Counter
from contextlib import contextmanager
from itertools import combinations_with_replacement, product
from operator import le
from pathlib import Path

import pytest

import shiftlab.checks
from shiftlab import (
    BettiTable,
    CoveringPairError,
    MonomialIdeal,
    PrimeField,
    QQ,
    Ring,
    ShiftProfile,
    check_consecutive,
    check_covering,
    check_general,
    check_multiple,
    check_range,
    check_subadditivity_profile,
    check_top,
    derive_symbolic_bounds,
    divides,
    find_covering_pairs,
    general_windows,
    lcm_lattice,
    load_ideal,
    multigraded_betti,
    restrict_ideal,
)
from shiftlab.checks import (
    InequalityReport,
    SymbolicBound,
    _expansions,
    _minimal,
    _shift_at,
    _symbolic_le,
    _unions,
)
from shiftlab.golden import EX1_ALPHA, EX1_BETA, EX2_COVER_A, EX2_COVER_B

RING2 = Ring(["x", "y"])
KOSZUL2 = MonomialIdeal(RING2, [(1, 0), (0, 1)])

BENCH_IDEALS = Path(__file__).resolve().parent.parent / "bench" / "ideals"

EX2_A = (3, 2, 2, 2, 2, 0, 2)
EX2_B = (2, 2, 3, 2, 2, 2, 0)


@pytest.fixture(scope="module")
def zero_dim_7_8():
    """Zero-dimensional fixture satisfying the window-bound hypotheses:
    n=7, m=8 (pure cubes plus one mixed generator), a=6 forces p=4."""
    ring = Ring([f"x{i}" for i in range(1, 8)])
    gens = [tuple(3 if i == j else 0 for i in range(7)) for j in range(7)]
    gens.append((2, 2, 0, 0, 0, 0, 0))
    return MonomialIdeal(ring, gens)


# --- profile checks ---------------------------------------------------------

def test_profile_example2_all_hold(ex2_table):
    reports = check_subadditivity_profile(ex2_table.shift_profile())
    assert reports and all(r.holds for r in reports)
    four = [r for r in reports if r.params == {"a": 2, "b": 2}]
    assert four[0].lhs == 16 and four[0].rhs == 26


def test_profile_synthetic_violation():
    reports = check_subadditivity_profile(ShiftProfile((0, 2, 3, 7)))
    bad = [r for r in reports if not r.holds]
    assert len(bad) == 1 and bad[0].params == {"a": 1, "b": 2}
    assert bad[0].lhs == 7 and bad[0].rhs == 5


def test_profile_trivial():
    assert check_subadditivity_profile(ShiftProfile((0,))) == []
    assert check_subadditivity_profile(ShiftProfile((0, 3))) == []


def test_reports_self_consistent(ex2):
    for r in check_subadditivity_profile(ShiftProfile((0, 2, 3, 7, 9))):
        assert r.holds == (r.lhs <= r.rhs)
    for r in check_consecutive(ex2):
        assert r.holds == (r.lhs <= r.rhs)


# --- consecutive / top --------------------------------------------------------

def test_consecutive_example2(ex2, ex2_table):
    reports = check_consecutive(ex2, profile=ex2_table.shift_profile())
    assert [(r.lhs, r.rhs) for r in reports] == [(11, 11), (13, 22), (15, 24), (16, 26)]
    assert all(r.holds for r in reports)


def test_consecutive_koszul_tight():
    reports = check_consecutive(KOSZUL2)
    assert reports[-1].lhs == 2 and reports[-1].rhs == 2 and reports[-1].holds


def test_top_example2(ex2, ex2_table):
    r = check_top(ex2, profile=ex2_table.shift_profile())
    assert (r.lhs, r.rhs, r.holds) == (16, 26, True)


def test_top_koszul():
    r = check_top(KOSZUL2)
    assert (r.lhs, r.rhs) == (2, 2)


def test_top_zero_ideal_rejected():
    with pytest.raises(ValueError):
        check_top(MonomialIdeal(RING2, []))


# --- covering / range ----------------------------------------------------------

def test_covering_example2(ex2, ex2_table):
    reports = check_covering(ex2, EX2_A, EX2_B, profile=ex2_table.shift_profile())
    assert all(r.holds for r in reports)
    pd = reports[0]
    assert pd.name == "covering-projdim" and pd.params == {"p": 2, "q": 2}
    assert pd.lhs == 4 and pd.rhs == 4


def test_covering_example1(ex1, ex1_table):
    prof = ex1_table.shift_profile()
    reports = check_covering(
        ex1, (5, 5, 5, 5, 0, 0, 0), (3, 3, 2, 2, 6, 5, 6), profile=prof
    )
    assert all(r.holds for r in reports)
    top = [r for r in reports if r.params.get("a") == 7][0]
    assert top.lhs == prof[7]
    assert top.rhs == max(prof[2] + prof[5], prof[3] + prof[4])
    assert set(top.witnesses["splits"]) <= {(2, 5), (3, 4), (4, 3), (5, 2)}


def test_covering_rejects_non_pair(ex2):
    with pytest.raises(CoveringPairError):
        check_covering(ex2, ex2.ring.zero(), ex2.ring.zero())


def test_covering_degenerate_pair(ex2, ex2_table):
    from functools import reduce
    from shiftlab import join

    top = reduce(join, ex2.gens)
    reports = check_covering(ex2, top, top, profile=ex2_table.shift_profile())
    assert all(r.holds for r in reports)


def restricted_projdims(I, alpha, beta):
    """p and q straight from the definition: the projective dimensions of two
    more Betti tables, of the ideals restricted below alpha and beta.  The
    oracle for the covering checks, which read both from the table of I."""
    return {"p": multigraded_betti(restrict_ideal(I, alpha)).projdim,
            "q": multigraded_betti(restrict_ideal(I, beta)).projdim}


def test_covering_p_q_match_restricted_tables(corpus_results, ex1, ex1_table):
    # the pairs the benchmark's corpus workload checks: the first three found
    cases = [(rec["ideal"], rec["profile"], pair) for rec in corpus_results["rows"]
             for pair in find_covering_pairs(rec["ideal"])[:3]]
    cases.append((ex1, ex1_table.shift_profile(), (EX1_ALPHA, EX1_BETA)))
    assert len(cases) == 1329
    for I, prof, (alpha, beta) in cases:
        report = check_covering(I, alpha, beta, profile=prof)[0]
        assert report.params == restricted_projdims(I, alpha, beta), (I, alpha, beta)
        assert check_range(I, alpha, beta, 0, profile=prof).params["p"] == report.params["p"]


def test_covering_profile_from_the_same_table(ex2, ex2_table):
    prof = ex2_table.shift_profile()
    assert check_covering(ex2, EX2_A, EX2_B) == check_covering(ex2, EX2_A, EX2_B, profile=prof)
    for a in range(prof.projdim + 1):
        assert check_range(ex2, EX2_A, EX2_B, a) == check_range(ex2, EX2_A, EX2_B, a,
                                                                profile=prof)


def reference_splits(t, a, lo, hi):
    """The split loop as first written: every i in [max(lo, 0), hi], skipping
    those where either index falls outside the profile, read through
    t.projdim and t[i].  The oracle for _best_splits."""
    best, splits = None, []
    for i in range(max(lo, 0), hi + 1):
        j = a - i
        if j < 0 or i > t.projdim or j > t.projdim:
            continue
        v = t[i] + t[j]
        if best is None or v > best:
            best, splits = v, [(i, j)]
        elif v == best:
            splits.append((i, j))
    return best, splits


def reference_holds(lhs, rhs):
    return lhs is None or (rhs is not None and lhs <= rhs)


def reference_dict(name, params, lhs, rhs, witnesses) -> dict:
    """A report's to_dict() built without InequalityReport: the verdict from
    reference_holds, tuples made lists by a JSON round trip."""
    return json.loads(json.dumps({"name": name, "params": params, "lhs": lhs, "rhs": rhs,
                                  "holds": reference_holds(lhs, rhs), "witnesses": witnesses}))


def reference_covering_dicts(table, t, alpha, beta) -> tuple[list, list]:
    """The to_dict() of check_covering's reports and of check_range's at
    every a in [0, p + q], built with two passes for p and q (one per
    multidegree) and reference_splits."""
    p, q = (max(a for a, mu in table.entries if all(map(le, mu, v))) for v in (alpha, beta))
    cover = {"alpha": alpha, "beta": beta}
    covering = [reference_dict("covering-projdim", {"p": p, "q": q}, t.projdim, p + q, cover)]
    for a in range(t.projdim + 1):
        rhs, splits = reference_splits(t, a, a - q, min(p, a))
        covering.append(reference_dict("covering-shift", {"a": a, "p": p, "q": q}, t[a], rhs,
                                       {**cover, "splits": splits}))
    ranges = []
    for a in range(p + q + 1):
        s = p + q - a
        rhs, splits = reference_splits(t, a, p - s, p)
        lhs = t[a] if a <= t.projdim else None
        ranges.append(reference_dict("range", {"a": a, "p": p, "q": q, "s": s}, lhs, rhs,
                                     {**cover, "splits": splits}))
    return covering, ranges


def test_holds_follows_the_sides():
    # the verdict is read off lhs and rhs, so no report can print 5 <= 4 -> ok
    assert not InequalityReport("top", {"p": 2}, 5, 4).holds
    assert str(InequalityReport("top", {"p": 2}, 5, 4)) == "top [p=2]: 5 <= 4 -> VIOLATION"
    assert InequalityReport("range", {}, 4, 4).holds
    assert InequalityReport("range", {}, None, 4).holds  # the module vanishes
    assert InequalityReport("range", {}, None, None).holds
    assert not InequalityReport("range", {}, 3, None).holds
    # a verdict passed where the witnesses go is refused, not stored
    for witnesses in (True, False, [], "splits"):
        with pytest.raises(TypeError, match="witnesses must be a dict or None"):
            InequalityReport("top", {"p": 2}, 5, 4, witnesses)


def test_covering_and_range_match_the_reference_loops(corpus_results, ex1, ex1_table, ex2, ex2_table):
    # the first three pairs of every corpus ideal, ex1 and ex2, each checked
    # with and without table= and profile=; on ex2 also against profiles
    # shorter and longer than its own, whose splits fall off either end
    cases = [(rec["ideal"], rec["table_q"]) for rec in corpus_results["rows"]]
    cases += [(ex1, ex1_table), (ex2, ex2_table)]
    checked = 0
    for I, table in cases:
        own = table.shift_profile()
        profiles = [own, ShiftProfile((0,)), ShiftProfile((0, 3)),
                    ShiftProfile(tuple(range(0, 24, 3)))] if I is ex2 else [own]
        for alpha, beta in find_covering_pairs(I)[:3]:
            for t in profiles:
                covering, ranges = reference_covering_dicts(table, t, alpha, beta)
                for kw in ({"table": table, "profile": t}, {"profile": t}, {"table": table}, {})[
                        :4 if t is own else 2]:
                    got = [r.to_dict() for r in check_covering(I, alpha, beta, **kw)]
                    assert got == covering, (I, alpha, beta, kw)
                    got = [check_range(I, alpha, beta, a, **kw).to_dict() for a in range(len(ranges))]
                    assert got == ranges, (I, alpha, beta, kw)
                    checked += 1
    assert checked == 4 * (1328 + 3 + 3) + 3 * 3 * 2


def test_covering_and_range_take_a_table(ex1, ex1_table, ex2, ex2_table):
    gf = PrimeField(32003)
    cases = [(ex1, ex1_table, EX1_ALPHA, EX1_BETA, QQ), (ex2, ex2_table, EX2_A, EX2_B, QQ),
             (ex2, multigraded_betti(ex2, gf), EX2_A, EX2_B, gf)]
    for I, table, alpha, beta, field in cases:
        reports = check_covering(I, alpha, beta, field)
        assert check_covering(I, alpha, beta, field, table=table) == reports
        for a in range(reports[0].params["p"] + reports[0].params["q"] + 1):
            assert (check_range(I, alpha, beta, a, field, table=table)
                    == check_range(I, alpha, beta, a, field))


@pytest.mark.parametrize("caller", ["covering", "range", "multiple", "find_pairs"])
def test_a_table_of_another_ideal_is_refused(caller, ex1_table, ex2, ex2_table):
    # ex1's table is over another ring; that of ex2 restricted below EX2_A is
    # over ex2's ring but misses some of its generators.  Taken as ex2's,
    # ex1's made check_covering report 7 <= 4, a false violation.
    alpha, beta = find_covering_pairs(ex2)[0]
    call = {
        "covering": lambda t: check_covering(ex2, alpha, beta, table=t),
        "range": lambda t: check_range(ex2, alpha, beta, 2, table=t),
        "multiple": lambda t: check_multiple(ex2, [(EX2_A, 2), (EX2_B, 2)], table=t),
        "find_pairs": lambda t: find_covering_pairs(ex2, at=2, table=t),
    }[caller]
    call(ex2_table)
    restricted = multigraded_betti(restrict_ideal(ex2, EX2_A))
    # nor is a table whose entries at index 0 and 1 are not b_0 = 1 at 0 and
    # b_1 = 1 at each generator
    zero, entries = ex2.ring.zero(), ex2_table.entries
    no_b0 = {k: r for k, r in entries.items() if k != (0, zero)}
    for table, message in ((ex1_table, "table= is over"), (restricted, "not a Betti table"),
                           *((BettiTable(ex2.ring, bad), "entries at index 0 and 1") for bad in (
                               no_b0, {**no_b0, (0, zero): 2}, {**entries, (0, EX2_A): 1},
                               {**entries, (1, ex2.gens[0]): 2}))):
        with pytest.raises(ValueError, match=message):
            call(table)


def test_a_given_table_does_not_waive_the_field(zero_dim_7_8):
    # a check that takes table= or profile= refuses a non-field as one that
    # computes the table does; (xy, yz) once gave a covering pair and four
    # reports that hold over field="bad", and consecutive, top, general and
    # the lattice search once ran over it too
    R3 = Ring(["x", "y", "z"])
    I = MonomialIdeal(R3, [(1, 1, 0), (0, 1, 1)])
    T = multigraded_betti(I)
    P, Z = T.shift_profile(), multigraded_betti(zero_dim_7_8).shift_profile()
    a, b = (0, 1, 1), (1, 1, 0)
    assert find_covering_pairs(I, at=1, table=T) == [(a, b)] == find_covering_pairs(I)[:1]
    assert len(check_covering(I, a, b, table=T)) == 4
    assert check_general(zero_dim_7_8, 6, 4, profile=Z).holds
    calls = [lambda f: find_covering_pairs(I, at=1, field=f, table=T),
             lambda f: find_covering_pairs(I, field=f),
             lambda f: check_covering(I, a, b, field=f, table=T),
             lambda f: check_range(I, a, b, 1, field=f, table=T),
             lambda f: check_multiple(I, [(a, 1), (b, 1)], field=f, table=T),
             lambda f: check_consecutive(I, f, profile=P),
             lambda f: check_top(I, f, profile=P),
             lambda f: check_general(zero_dim_7_8, 6, 4, f, profile=Z)]
    for call in calls:
        for field in ("bad", 7, None):
            with pytest.raises(TypeError, match="not a coefficient field"):
                call(field)
    # the lattice search builds no table, so one given there is refused
    with pytest.raises(ValueError, match="table= is read only with at="):
        find_covering_pairs(I, table=T)


def test_a_table_without_b0_is_refused(ex2, ex2_table):
    # taken as ex2's, this table once gave a report with q = 0 at beta = 0
    top = tuple(map(max, zip(*ex2.gens)))
    zero = ex2.ring.zero()
    no_b0 = BettiTable(ex2.ring, {k: r for k, r in ex2_table.entries.items() if k != (0, zero)})
    with pytest.raises(ValueError, match="entries at index 0 and 1 are not b_0 = 1 at 0"):
        check_covering(ex2, top, zero, table=no_b0)


def test_range_matches_covering(ex2, ex2_table):
    prof = ex2_table.shift_profile()
    cov = {r.params["a"]: r for r in check_covering(ex2, EX2_A, EX2_B, profile=prof)
           if r.name == "covering-shift"}
    for a in range(prof.projdim + 1):
        rng = check_range(ex2, EX2_A, EX2_B, a, profile=prof)
        assert rng.rhs == cov[a].rhs
        assert rng.params["s"] == rng.params["p"] + rng.params["q"] - a
        assert rng.holds


def test_range_single_split(ex2, ex2_table):
    prof = ex2_table.shift_profile()
    r = check_range(ex2, EX2_A, EX2_B, 4, profile=prof)
    # a = p + q: s = 0, the window is {p}
    assert r.params["s"] == 0
    assert r.rhs == prof[2] + prof[2]
    for a in (5, -1):  # -1 once read t_p through Python's negative indexing
        with pytest.raises(ValueError, match="outside"):
            check_range(ex2, EX2_A, EX2_B, a, profile=prof)


def test_shift_at_negative_index_is_none():
    t = ShiftProfile((0, 2, 3))
    assert [_shift_at(t, a) for a in (-1, 0, 2, 3)] == [None, 0, 3, None]


# --- the zero-dimensional window bound --------------------------------------------

def test_general_fixture_holds(zero_dim_7_8):
    r = check_general(zero_dim_7_8, 6, 4)
    assert r.holds
    assert r.params["window"] == (2, 3)
    assert r.witnesses["alpha"] == (3, 3, 3, 3, 0, 0, 0)
    # beta is the lcm of the remaining generators
    assert r.witnesses["beta"] == (2, 2, 0, 0, 3, 3, 3)


def test_general_window_degenerate():
    ring = Ring([f"x{i}" for i in range(1, 9)])
    gens = [tuple(3 if i == j else 0 for i in range(8)) for j in range(8)]
    gens.append((2, 2, 0, 0, 0, 0, 0, 0))
    I = MonomialIdeal(ring, gens)  # n=8, m=9
    r = check_general(I, 7, 5)
    lo, hi = r.params["window"]
    assert lo == hi == 3
    assert r.holds


def test_general_preconditions_fail_example1(ex1):
    with pytest.raises(ValueError, match="exceeds 2n-6"):
        check_general(ex1, 6, 4)


def test_general_preconditions_listed(zero_dim_7_8):
    with pytest.raises(ValueError, match="outside"):
        check_general(zero_dim_7_8, 6, 2)
    with pytest.raises(ValueError, match="below"):
        check_general(zero_dim_7_8, 5, 4)
    # every failed hypothesis is named, the p-range one last
    with pytest.raises(ValueError) as exc:
        check_general(zero_dim_7_8, 5, 9)
    assert str(exc.value) == "a=5 is below (m+4)/2=6.0; p=9 outside [5, 3]"
    # without x7^3 the ideal is not zero-dimensional; n, m, a and p still fit
    I = MonomialIdeal(zero_dim_7_8.ring, [g for g in zero_dim_7_8.gens if g[6] == 0])
    with pytest.raises(ValueError) as exc:
        check_general(I, 6, 4)
    assert str(exc.value) == "some variable has no pure-power generator (dim S/I > 0)"


# --- multi-cover -------------------------------------------------------------------

def test_multiple_example2(ex2, ex2_table):
    r = check_multiple(ex2, [(EX2_A, 2), (EX2_B, 2)], table=ex2_table)
    assert (r.lhs, r.rhs, r.holds) == (16, 26, True)


def test_multiple_single_cover_tight():
    tab = multigraded_betti(KOSZUL2)
    r = check_multiple(KOSZUL2, [((1, 1), 2)], table=tab)
    assert r.lhs == r.rhs == 2 and r.holds


def test_multiple_rejects_an_empty_cover_list(ex2, ex2_table):
    with pytest.raises(ValueError, match="empty cover list"):
        check_multiple(ex2, [], table=ex2_table)


def test_multiple_rejects_bad_support(ex2, ex2_table):
    with pytest.raises(ValueError, match="support"):
        check_multiple(ex2, [((9, 9, 9, 9, 9, 9, 9), 2)], table=ex2_table)


@pytest.mark.parametrize("cover", [(EX2_A, 2.9), (EX2_A, "2"), (EX2_A, True),
                                   ((3.0, 2, 2, 2, 2, 0, 2), 2)], ids=repr)
def test_multiple_rejects_coerced_cover(ex2, ex2_table, cover):
    with pytest.raises(ValueError, match="must be (an int|ints)"):
        check_multiple(ex2, [cover, (EX2_B, 2)], table=ex2_table)


def test_multiple_rejects_non_cover(ex2, ex2_table):
    # the message names the first generator, in generator order, left uncovered
    first = next(g for g in ex2.gens if not divides(g, EX2_A))
    with pytest.raises(CoveringPairError, match=f"generator {re.escape(str(first))} is below none"):
        check_multiple(ex2, [(EX2_A, 2)], table=ex2_table)


# --- covering pair search ------------------------------------------------------------

def test_find_pairs_example2(ex2, ex2_table):
    pairs = find_covering_pairs(ex2, at=2, table=ex2_table)
    assert tuple(sorted((EX2_A, EX2_B))) in pairs


def brute_force_covering_pairs(I, candidates):
    """The pair-by-pair search, straight from the definition: the oracle that
    the bitset search in find_covering_pairs is checked against.  Which
    generators divide a candidate is asked once per candidate, so a pair
    covers I when the two sets hold every generator."""
    below = {c: frozenset(i for i, g in enumerate(I.gens) if divides(g, c)) for c in candidates}
    every = frozenset(range(I.m))
    return [(a, b) for a, b in combinations_with_replacement(candidates, 2) if below[a] | below[b] == every]


def assert_search_matches_oracle(I, table):
    assert find_covering_pairs(I) == brute_force_covering_pairs(I, lcm_lattice(I))
    for a in range(table.projdim + 2):  # one index past projdim: no candidates
        assert find_covering_pairs(I, at=a, table=table) == brute_force_covering_pairs(
            I, table.support_at(a)), a


def test_find_pairs_matches_oracle_example2(ex2, ex2_table):
    assert_search_matches_oracle(ex2, ex2_table)


def test_find_pairs_matches_oracle_corpus(corpus_results):
    for rec in corpus_results["rows"]:
        assert_search_matches_oracle(rec["ideal"], rec["table_q"])


def test_find_pairs_matches_oracle_on_large_lattices(ex1, ex1_table):
    # ex1 (1251 lattice elements, 16179 pairs) and S13 (284 elements) hold
    # many candidates in each generator's bitset
    S13 = load_ideal(str(BENCH_IDEALS / "S13.ideal"))
    for I, table in ((ex1, ex1_table), (S13, multigraded_betti(S13))):
        assert_search_matches_oracle(I, table)


def test_find_pairs_example1_pinned(ex1):
    # the count and digest the search gave before the bitset search
    pairs = find_covering_pairs(ex1)
    text = "\n".join(map(repr, pairs)).encode()
    assert len(pairs) == 16179
    assert hashlib.sha256(text).hexdigest() == (
        "a242dfb4354bb49adda02c3a3185b8c0b6229e73cd1deb94fd96b27990fbd9f1")


def test_find_pairs_zero_ideal():
    zero = MonomialIdeal(RING2, [])
    assert find_covering_pairs(zero) == []


def test_find_pairs_principal():
    I = MonomialIdeal(RING2, [(2, 1)])
    assert find_covering_pairs(I) == [((2, 1), (2, 1))]


def test_find_pairs_example1_needs_user_vector(ex1):
    # alpha is the lcm of the four pure powers, but beta is no lcm of
    # generators (no generator has y-exponent 3), so the lattice search
    # cannot discover the recorded pair; direct validation accepts it
    alpha, beta = (5, 5, 5, 5, 0, 0, 0), (3, 3, 2, 2, 6, 5, 6)
    lattice = set(lcm_lattice(ex1))
    assert alpha in lattice and beta not in lattice
    from shiftlab import is_covering_pair

    assert is_covering_pair(ex1, alpha, beta)


# --- symbolic bounds ------------------------------------------------------------------

# the (n, m, a) grid of the benchmark's symbolic sweep
SYMBOLIC_GRID = [(n, m, a) for n in (7, 8, 9) for m in range(4, 2 * n - 5) for a in range(2, n + 1)]


def brute_force_windows(n, m, a):
    """The window splits straight from the hypotheses, tested for every p < a - 1."""
    out = {}
    for p in range(a - 1):
        if m > 2 * n - 6 or 2 * a < m + 4 or a > n or not m - a + 2 <= p <= a - 2:
            continue
        lo, hi = p - (m - a), min(p, a // 2)
        splits = sorted(
            {tuple(sorted((i, a - i))) for i in range(max(lo, 1), hi + 1) if a - i >= 1})
        if splits:
            out[p] = splits
    return out


def brute_force_expansions(ms):
    """Closure of a sorted term tuple under t_b -> t_{b-1} + t_1, one rewrite at a time."""
    seen, frontier = {ms}, [ms]
    while frontier:
        cur = frontier.pop()
        for k, b in enumerate(cur):
            if b >= 2:
                nxt = tuple(sorted(cur[:k] + cur[k + 1:] + (b - 1, 1)))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def brute_force_contains(big, small):
    cb, cs = Counter(big), Counter(small)
    return all(cb[k] >= v for k, v in cs.items())


def brute_force_max_union(multisets):
    acc = Counter()
    for ms in multisets:
        acc |= Counter(ms)
    return tuple(sorted(acc.elements()))


def brute_force_candidates(splits):
    return {brute_force_max_union(choice)
            for choice in product(*(brute_force_expansions(s) for s in splits))}


def brute_force_minimal(candidates):
    return {c for c in candidates
            if not any(o != c and brute_force_contains(c, o) for o in candidates)}


def backtracking_symbolic_le(small, big):
    """_symbolic_le before its greedy: each small term, largest first, tries
    every big term j <= b it could absorb with b - j copies of t_1, and
    backtracks on failure.  The oracle for the greedy matching."""
    avail = Counter(big)

    def match(terms):
        if not terms:
            return True
        b, rest = terms[0], terms[1:]
        for j in sorted(set(avail), reverse=True):
            k = b - j
            if j < 1 or k < 0 or avail[j] == 0:
                continue
            need_ones = k + (1 if j == 1 else 0)
            if j != 1 and avail[1] < k:
                continue
            if j == 1 and avail[1] < need_ones:
                continue
            avail[j] -= 1
            avail[1] -= k
            if match(rest):
                avail[j] += 1
                avail[1] += k
                return True
            avail[j] += 1
            avail[1] += k
        return False

    return match(tuple(sorted(small, reverse=True)))


def brute_force_symbolic_bounds(n, m, a):
    """The closure on sorted term tuples, with the minimal filter pair by pair:
    the oracle that the count-vector closure in derive_symbolic_bounds is
    checked against."""
    bounds = {(1, a - 1)}
    for splits in brute_force_windows(n, m, a).values():
        kept = brute_force_minimal(brute_force_candidates(splits))
        for cand in kept:
            if not any(o != cand and backtracking_symbolic_le(o, cand)
                       and not backtracking_symbolic_le(cand, o) for o in kept):
                bounds.add(cand)
    return [SymbolicBound(a, b) for b in sorted(bounds)]


def product_unions(splits, a):
    """Every choice of one expansion per split at once (itertools.product),
    then the entrywise max of each: the oracle for the one-split-at-a-time
    fold in _unions."""
    zero = (0,) * (a - 1)  # lets a one-split window take a max too
    return {tuple(map(max, zero, *choice))
            for choice in product(*(_expansions(s, a) for s in splits))}


@contextmanager
def alarm(seconds, message):
    """Raise TimeoutError when the block runs longer than ``seconds``."""
    def timeout(signum, frame):
        raise TimeoutError(message)

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_symbolic_matches_oracle_on_sweep():
    for n, m, a in SYMBOLIC_GRID:
        assert general_windows(n, m, a) == brute_force_windows(n, m, a), (n, m, a)
        assert derive_symbolic_bounds(n, m, a) == brute_force_symbolic_bounds(n, m, a), (n, m, a)


def count_vector(ms, a):
    v = [0] * (a - 1)
    for i in ms:
        v[i - 1] += 1
    return tuple(v)


def test_symbolic_closure_steps_match_oracle():
    # the output alone would not show a broken minimal filter: the
    # domination pass that follows also drops every non-minimal union
    for n, m, a in SYMBOLIC_GRID:
        for splits in general_windows(n, m, a).values():
            for s in splits:
                assert _expansions(s, a) == {
                    count_vector(e, a) for e in brute_force_expansions(s)}, (a, s)
            candidates = brute_force_candidates(splits)
            minima = _minimal({count_vector(c, a) for c in candidates})
            assert set(minima) == {count_vector(c, a) for c in brute_force_minimal(candidates)}


def test_symbolic_fold_matches_product():
    for n, m, a in SYMBOLIC_GRID + [(11, 16, 11)]:
        for splits in general_windows(n, m, a).values():
            assert _unions(splits, a) == product_unions(splits, a), (n, m, a, splits)


def test_symbolic_le_greedy_matches_backtracking():
    # every pair of multisets of the terms t_1..t_6 with at most 4 terms
    multisets = [ms for k in range(5) for ms in combinations_with_replacement(range(1, 7), k)]
    assert len(multisets) ** 2 == 44100
    differ = [(small, big) for small in multisets for big in multisets
              if _symbolic_le(small, big) != backtracking_symbolic_le(small, big)]
    assert differ == []


def test_symbolic_12_18_12_pinned():
    # the product of every choice of expansions took about 35 s here; the
    # fold takes about a second, and the alarm turns a regression into a failure
    with alarm(10, "derive_symbolic_bounds(12, 18, 12) took more than 10 s"):
        bounds = derive_symbolic_bounds(12, 18, 12)
    text = "\n".join(map(str, bounds)).encode()
    assert len(bounds) == 48
    assert hashlib.sha256(text).hexdigest() == (
        "a29c814364a4371060dc261fdbadecbcbd21cad6250e322a1f238b2f7b0a3201")


def test_windows_match_oracle_off_grid():
    # negative and degenerate parameters, and both ends of every p range
    for n in range(-1, 13):
        for m in range(-3, 2 * n + 1):
            for a in range(-2, n + 3):
                assert general_windows(n, m, a) == brute_force_windows(n, m, a), (n, m, a)


def test_symbolic_golden_a6():
    assert [str(b) for b in derive_symbolic_bounds(7, 8, 6)] == [
        "t_6 <= t_1 + t_2 + t_3",
        "t_6 <= t_1 + t_5",
        "t_6 <= t_2 + t_3 + t_3 + t_4",
    ]


def test_symbolic_golden_a7():
    for n in range(7, 21):
        m = min(2 * n - 6, 10)
        bounds = {str(b) for b in derive_symbolic_bounds(n, m, 7)}
        assert "t_7 <= t_1 + t_2 + t_4" in bounds, (n, m)


def test_symbolic_trivial_a2():
    bounds = {str(b) for b in derive_symbolic_bounds(2, 2, 2)}
    assert bounds == {"t_2 <= t_1 + t_1"}


def test_symbolic_windows_empty_when_hypotheses_fail():
    assert general_windows(7, 12, 6) == {}  # m > 2n-6
    assert general_windows(6, 6, 7) == {}  # a > n
    bounds = {str(b) for b in derive_symbolic_bounds(6, 6, 7)}
    assert bounds == {"t_7 <= t_1 + t_6"}


def test_symbolic_huge_a_fails_fast():
    # a > n fails for every p, so no p may be visited; a loop over them
    # would take minutes, and the alarm turns that into a failure
    with alarm(5, "derive_symbolic_bounds(7, 8, 10**9) visited every p"):
        bounds = derive_symbolic_bounds(7, 8, 10**9)
    assert [str(b) for b in bounds] == ["t_1000000000 <= t_1 + t_999999999"]


@pytest.mark.parametrize("nma", [(7.5, 8, 6), (True, 8, 2), (7, 8, 6.0), (7, 8, "6"),
                                 (7, False, 6), (7, 8, None)], ids=repr)
def test_symbolic_rejects_non_int(nma):
    with pytest.raises(ValueError, match="must be an int"):
        general_windows(*nma)
    with pytest.raises(ValueError, match="must be an int"):
        derive_symbolic_bounds(*nma)


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
def test_index_parameters_must_be_ints(ex2, zero_dim_7_8, monkeypatch, bad):
    # check_range once ran True as a = 1, 2.0 raised TypeError inside range,
    # and find_covering_pairs read at=True as 1; no table is built first
    tables = []
    monkeypatch.setattr(shiftlab.checks, "multigraded_betti",
                        lambda *args, **kw: tables.append(args))
    for call, name in [
        (lambda: check_range(ex2, EX2_COVER_A, EX2_COVER_B, bad), "a"),
        (lambda: check_general(zero_dim_7_8, bad, 4), "a"),
        (lambda: check_general(zero_dim_7_8, 6, bad), "p"),
        (lambda: find_covering_pairs(ex2, at=bad), "at"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {bad!r}")):
            call()
    assert tables == []


def test_symbolic_bounds_evaluate(zero_dim_7_8):
    from shiftlab import shifts

    prof = shifts(zero_dim_7_8)
    for bound in derive_symbolic_bounds(7, 8, 6):
        rep = bound.evaluate(prof)
        assert rep.holds, str(bound)


@pytest.mark.parametrize("a", [1, 0, -1])
def test_symbolic_bounds_need_a_at_least_two(a):
    with pytest.raises(ValueError, match="need a >= 2"):
        derive_symbolic_bounds(8, 9, a)
