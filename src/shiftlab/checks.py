"""Executable inequality checks on maximal-shift profiles.

Each check builds InequalityReport records: the instance parameters, both
sides of the inequality and the multidegrees or index splits that witness
the bound.  A report derives ``holds`` from its two sides, so no verdict is
written by hand.  The consecutive, top, covering, range, general and
multiple checks are proved facts, and ``PROVEN`` names their reports: a
failed one on valid input signals an implementation bug, not mathematics.
Only subadditivity is an open question.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import ge, le, or_

from .betti import multigraded_betti, shifts
from .complexes import ShiftProfile, _lattice
from .fields import QQ, characteristic
from .monomials import (
    MonomialIdeal,
    _check_ints,
    _check_mdeg,
    _Record,
    _set,
    contains_all_pure_powers,
    generators_below,
    is_covering_pair,
    join,
    pure_power_exponents,
    support,
)


# the names of the proved checks' reports: a failed one on valid input is a bug
PROVEN = frozenset({"consecutive", "top", "covering-projdim", "covering-shift", "range",
                    "general", "multiple"})


class CoveringPairError(ValueError):
    """The supplied multidegrees do not cover the ideal."""


class InequalityReport(_Record):
    """One instance of a check: its ``name`` and ``params``, both sides of
    the inequality (None where the module vanishes) and the ``witnesses`` of
    the bound (a new empty dict when not given, TypeError when neither a
    dict nor None).  ``holds`` is read off the sides: true when ``lhs`` is
    None (nothing to bound), false when only ``rhs`` is, else lhs <= rhs."""

    __slots__ = ("name", "params", "lhs", "rhs", "witnesses")

    def __init__(self, name: str, params: dict, lhs: int | None, rhs: int | None,
                 witnesses: dict | None = None):
        if witnesses is None:
            witnesses = {}
        elif not isinstance(witnesses, dict):
            raise TypeError(f"witnesses must be a dict or None, not {witnesses!r}")
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "witnesses", witnesses)

    @property
    def holds(self) -> bool:
        return self.lhs is None or (self.rhs is not None and self.lhs <= self.rhs)

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, (tuple, list)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            return v

        return {
            "name": self.name,
            "params": clean(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "witnesses": clean(self.witnesses),
        }

    def __str__(self):
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        verdict = "ok" if self.holds else "VIOLATION"
        return f"{self.name} [{ps}]: {self.lhs} <= {self.rhs} -> {verdict}"


def _shift_at(t: ShiftProfile, a: int) -> int | None:
    """t_a, or None when a is negative or past the projective dimension
    (module a vanishes)."""
    s = t.shifts
    return s[a] if 0 <= a < len(s) else None


def check_subadditivity_profile(t: ShiftProfile) -> list[InequalityReport]:
    """t_{a+b} <= t_a + t_b for all a <= b with a, b >= 1 and a+b <= p.

    This is the open question for minimal resolutions; violations are
    reported, never raised.
    """
    s, out = t.shifts, []
    pd = len(s) - 1
    for a in range(1, pd + 1):
        for b in range(a, pd - a + 1):
            out.append(InequalityReport("subadditivity", {"a": a, "b": b}, s[a + b], s[a] + s[b]))
    return out


def check_consecutive(I: MonomialIdeal, field=QQ, *, profile=None) -> list[InequalityReport]:
    """t_a(I) <= t_{a-1}(I) + t_1(I) for a = 1..p (a proved fact)."""
    s = _profile_of(I, field, profile).shifts
    return [InequalityReport("consecutive", {"a": a}, s[a], s[a - 1] + s[1])
            for a in range(1, len(s))]


def check_top(I: MonomialIdeal, field=QQ, *, profile=None) -> InequalityReport:
    """t_p(I) <= t_{p-1}(I) + t_1(I) at the projective dimension p."""
    s = _profile_of(I, field, profile).shifts
    p = len(s) - 1
    if p == 0:
        raise ValueError("zero ideal: no top shift to bound")
    return InequalityReport("top", {"p": p}, s[p], s[p - 1] + s[1])


def _table_of(I: MonomialIdeal, field, table):
    """The Betti table of I over field: ``table`` when given, else computed.
    A field other than QQ or a PrimeField raises TypeError first, table or
    not.  A given table must be one of S/I, over I's ring and with no
    entries at index 0 and 1 but b_0 = 1 at 0 and b_1 = 1 at each generator
    (else ValueError).  That does not pin the field, which the caller
    vouches for."""
    characteristic(field)
    if table is None:
        return multigraded_betti(I, field)
    if table.ring != I.ring:
        raise ValueError(f"table= is over {table.ring}, the ideal over {I.ring}")
    low = {(0, I.ring.zero()): 1, **{(1, g): 1 for g in I.gens}}  # b_0 and b_1 of S/I
    if {k: r for k, r in table.entries.items() if k[0] < 2} != low:
        raise ValueError("table= is not a Betti table of this ideal: its entries at index 0 "
                         "and 1 are not b_0 = 1 at 0 and b_1 = 1 at each generator")
    return table


def _profile_of(I: MonomialIdeal, field, profile) -> ShiftProfile:
    """The shift profile of I over field: ``profile`` when given, else
    computed.  A field other than QQ or a PrimeField raises TypeError
    first, profile or not; a given profile is the caller's to vouch for."""
    characteristic(field)
    return shifts(I, field) if profile is None else profile


def _covering_pair(I, alpha, beta, field, profile, table):
    """Validate a covering pair for the checks that take one: returns
    (alpha, beta, p, q, t) with alpha, beta as tuples, p and q the projective
    dimensions of S/I restricted below them, and t the given profile or else
    that of I.  One Betti table of I (the given one, or else computed here)
    serves all three: by the restriction lemma, S/I restricted below alpha
    has the Betti numbers of S/I at the multidegrees <= alpha, and none
    elsewhere.  p and q are found in one pass over the entries, each
    multidegree compared only at an index past the largest found so far;
    both start at 0, the index of b_0 at multidegree 0, which is <= both."""
    alpha, beta = tuple(alpha), tuple(beta)
    if not is_covering_pair(I, alpha, beta):
        raise CoveringPairError(f"({alpha}, {beta}) is not a covering pair")
    table = _table_of(I, field, table)
    p = q = 0
    for a, mu in table.entries:
        if a > p and all(map(le, mu, alpha)):
            p = a
        if a > q and all(map(le, mu, beta)):
            q = a
    t = profile if profile is not None else table.shift_profile()
    return alpha, beta, p, q, t


def _best_splits(s: tuple, a: int, lo: int, hi: int):
    """max of t_i + t_{a-i} over i in [lo, hi], over the splits where both
    indices lie in the shift tuple s = (t_0, ..., t_p); returns (value or
    None, all arg-max splits).  Those are the i in
    [max(lo, 0, a - p), min(hi, p, a)], so no other i is visited."""
    pd = len(s) - 1
    best = None
    splits = []
    for i in range(max(lo, 0, a - pd), min(hi, pd, a) + 1):
        v = s[i] + s[a - i]
        if best is None or v > best:
            best, splits = v, [(i, a - i)]
        elif v == best:
            splits.append((i, a - i))
    return best, splits


def check_covering(
    I: MonomialIdeal, alpha, beta, field=QQ, *, profile=None, table=None
) -> list[InequalityReport]:
    """The covering-pair bounds: projdim S/I <= p + q, and for every
    a <= projdim S/I, t_a(I) <= max{t_i(I) + t_j(I) : i+j = a, i <= p, j <= q},
    where p and q are the projective dimensions of S/I restricted below
    alpha and beta.  ``table``, if given, must be the Betti table of I
    over ``field``."""
    alpha, beta, p, q, t = _covering_pair(I, alpha, beta, field, profile, table)
    s = t.shifts
    pd = len(s) - 1
    reports = [InequalityReport("covering-projdim", {"p": p, "q": q}, pd, p + q,
                                {"alpha": alpha, "beta": beta})]
    for a, lhs in enumerate(s):
        rhs, splits = _best_splits(s, a, a - q, min(p, a))
        reports.append(InequalityReport("covering-shift", {"a": a, "p": p, "q": q}, lhs, rhs,
                                        {"alpha": alpha, "beta": beta, "splits": splits}))
    return reports


def check_range(
    I: MonomialIdeal, alpha, beta, a: int, field=QQ, *, profile=None, table=None
) -> InequalityReport:
    """The window form of the covering bound: with s = p + q - a,
    t_a(I) <= max{t_i(I) + t_{a-i}(I) : p - s <= i <= p}.  ``table`` is as
    in check_covering."""
    _check_ints(("a", a))
    alpha, beta, p, q, t = _covering_pair(I, alpha, beta, field, profile, table)
    if not 0 <= a <= p + q:
        raise ValueError(f"a={a} is outside [0, p+q={p + q}]")
    s = p + q - a
    rhs, splits = _best_splits(t.shifts, a, p - s, p)
    return InequalityReport("range", {"a": a, "p": p, "q": q, "s": s}, _shift_at(t, a), rhs,
                            {"alpha": alpha, "beta": beta, "splits": splits})


def _window_problems(n: int, m: int, a: int) -> list[str]:
    """The failed hypotheses of the zero-dimensional bound that do not involve p."""
    return [problem for bad, problem in (
        (m > 2 * n - 6, f"m={m} exceeds 2n-6={2 * n - 6}"),
        (2 * a < m + 4, f"a={a} is below (m+4)/2={(m + 4) / 2}"),
        (a > n, f"a={a} exceeds n={n}"),
    ) if bad]


def _window(m: int, a: int, p: int) -> tuple[int, int]:
    """The split window [p - (m - a), min(p, a // 2)] of the zero-dimensional bound."""
    return p - (m - a), min(p, a // 2)


def check_general(
    I: MonomialIdeal, a: int, p: int, field=QQ, *, profile=None
) -> InequalityReport:
    """The zero-dimensional window bound.

    Requires every variable to carry a pure-power generator, m <= 2n - 6,
    (m+4)/2 <= a <= n and m - a + 2 <= p <= a - 2.  The covering pair is
    built the canonical way: alpha keeps the pure powers of the first p
    variables, beta is the lcm of the remaining generators.  The bound is
    min{t_1 + t_{a-1}, max{t_i + t_{a-i} : p - (m-a) <= i <= min(p, a//2)}}.
    """
    _check_ints(("a", a), ("p", p))
    m, n = I.m, I.ring.n
    problems = []
    if not contains_all_pure_powers(I):
        problems.append("some variable has no pure-power generator (dim S/I > 0)")
    problems += _window_problems(n, m, a)
    if not m - a + 2 <= p <= a - 2:
        problems.append(f"p={p} outside [{m - a + 2}, {a - 2}]")
    if problems:
        raise ValueError("; ".join(problems))
    lo, hi = _window(m, a, p)
    pure = pure_power_exponents(I)
    alpha = tuple(pure[i] if i < p else 0 for i in range(n))
    rest = [g for g in I.gens if not (len(support(g)) == 1 and support(g)[0] < p)]
    beta = reduce(join, rest, I.ring.zero())
    t = _profile_of(I, field, profile)
    inner, splits = _best_splits(t.shifts, a, lo, hi)
    tail = _shift_at(t, a - 1)
    side = None if tail is None else t[1] + tail
    options = [v for v in (side, inner) if v is not None]
    rhs = min(options) if options else None
    return InequalityReport(
        "general", {"a": a, "p": p, "m": m, "n": n, "window": (lo, hi)}, _shift_at(t, a), rhs,
        {"alpha": alpha, "beta": beta, "splits": splits, "consecutive_side": side})


def check_multiple(
    I: MonomialIdeal, covers, field=QQ, *, table=None
) -> InequalityReport:
    """t_{a_1 + ... + a_r}(I) <= t_{a_1}(I) + ... + t_{a_r}(I) for
    multidegrees alpha_i of nonzero Betti entries at a_i whose restrictions
    jointly cover I."""
    covers = [(tuple(alpha), a) for alpha, a in covers]
    for alpha, a in covers:
        _check_mdeg(alpha, I.ring.n)
        _check_ints(("a", a))
    if not covers:
        raise ValueError("empty cover list")
    tab = _table_of(I, field, table)
    for alpha, a in covers:
        if (a, alpha) not in tab.entries:
            raise ValueError(f"({a}, {alpha}) is not a Betti support point")
    missing = ((1 << I.m) - 1) & ~reduce(
        or_, (generators_below(I, alpha) for alpha, _ in covers))
    if missing:
        g = I.gens[(missing & -missing).bit_length() - 1]
        raise CoveringPairError(f"generator {g} is below none of the cover multidegrees")
    t = tab.shift_profile()
    total = sum(a for _, a in covers)
    return InequalityReport(
        "multiple", {"indices": tuple(a for _, a in covers), "total": total},
        _shift_at(t, total), sum(t[a] for _, a in covers),
        {"alphas": tuple(alpha for alpha, _ in covers)})


def find_covering_pairs(I: MonomialIdeal, at: int | None = None, field=QQ, *,
                        table=None) -> list[tuple[tuple, tuple]]:
    """All unordered candidate pairs (alpha, beta) that cover I.

    Candidates default to the whole lcm lattice; with ``at`` given they are
    the Betti-support multidegrees at that homological index.  Pairs come
    back lexicographically sorted; user-chosen vectors outside the lattice
    can always be validated directly with is_covering_pair.

    Each candidate carries the bitmask of the generators below it, read off
    the lattice's join closure (or, for Betti-support candidates, computed
    once each); a pair covers I when the partner's mask holds every
    generator the first one misses.  Turned around, each generator k has
    the bitset of the candidates above it, and a candidate's partners are
    the AND of those bitsets over the generators it misses, cut to the
    candidates from it on; their set bits are read in order.  ``table`` is
    as in check_covering, and read only with ``at`` (else ValueError); the
    field is checked either way.
    """
    if at is None:
        characteristic(field)
        if table is not None:
            raise ValueError("table= is read only with at=: the lattice search builds no table")
        lattice, _, _, unpack = _lattice(I)
        keys = sorted(lattice)[1:]  # past 0, the lcm of the empty subset alone
        candidates, masks = list(map(unpack, keys)), [lattice[key][0] for key in keys]
    else:
        _check_ints(("at", at))
        candidates = _table_of(I, field, table).support_at(at)
        masks = [generators_below(I, c) for c in candidates]
    if not candidates:
        return []
    holders = [0] * I.m  # bit j of holders[k]: candidate j is above generator k
    for j, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            holders[low.bit_length() - 1] |= 1 << j
            mask ^= low
    everyone, full = (1 << len(candidates)) - 1, (1 << I.m) - 1
    pairs = []
    for i, (a, mask) in enumerate(zip(candidates, masks)):
        partners, need = everyone, full & ~mask
        while need and partners:
            low = need & -need
            partners &= holders[low.bit_length() - 1]
            need ^= low
        partners >>= i  # bit j: candidate i + j
        while partners:
            low = partners & -partners
            pairs.append((a, candidates[i + low.bit_length() - 1]))
            partners ^= low
    return pairs


# ---------------------------------------------------------------------------
# symbolic bound expansion


class SymbolicBound(_Record):
    """An inequality t_target <= sum of t_i over ``terms`` (sorted indices)."""

    __slots__ = ("target", "terms")

    def __init__(self, target: int, terms: tuple[int, ...]):
        _set(self, "target", target)
        _set(self, "terms", terms)

    def __str__(self):
        rhs = " + ".join(f"t_{i}" for i in self.terms)
        return f"t_{self.target} <= {rhs}"

    def evaluate(self, t: ShiftProfile) -> InequalityReport:
        parts = [_shift_at(t, i) for i in self.terms]
        return InequalityReport("symbolic", {"target": self.target, "terms": self.terms},
                                _shift_at(t, self.target), None if None in parts else sum(parts))


def _expansions(split: tuple[int, ...], a: int) -> set[tuple[int, ...]]:
    """Closure of a split of t_a under replacing some t_b by t_{b-1} + t_1,
    as count vectors (entry i - 1 counts the copies of t_i, 1 <= i < a): each
    term b ends as one t_c with 1 <= c <= b plus b - c copies of t_1."""
    out = set()
    for cs in product(*(range(1, b + 1) for b in split)):
        v = [0] * (a - 1)
        v[0] = a - sum(cs)
        for c in cs:
            v[c - 1] += 1
        out.add(tuple(v))
    return out


def _unions(splits, a: int) -> set[tuple[int, ...]]:
    """The unions (entrywise max) of one expansion per split, as count
    vectors.  The splits are folded in one at a time, so each step keeps only
    the distinct unions so far instead of every choice of expansions."""
    unions = {(0,) * (a - 1)}
    for expansions in [_expansions(s, a) for s in splits]:
        unions = {tuple(map(max, u, e)) for u in unions for e in expansions}
    return unions


def _minimal(vectors) -> list[tuple[int, ...]]:
    """The minimal count vectors under entrywise <=.  A vector that contains a
    different one has a larger total, so by increasing total each vector is
    tested against the minima kept so far, not against every other vector."""
    minima: list[tuple[int, ...]] = []
    for v in sorted(vectors, key=sum):
        if not any(all(map(ge, v, w)) for w in minima):
            minima.append(v)
    return minima


def _symbolic_le(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Whether sum of t_i over ``small`` provably bounds below the sum over
    ``big``: each small term b must absorb a disjoint chunk of ``big`` of
    the shape {j} + (b - j) copies of t_1 with 1 <= j <= b (the consecutive
    rewrite), and leftover big terms are harmless since shifts are
    nonnegative.  Matching b to a big term j >= 2 saves j copies of t_1 over
    paying for b in copies of t_1 alone, so small <= big iff some matching
    of big terms j >= 2 to distinct small terms b >= j has
    sum(small) - (sum of the matched j) <= the number of t_1 in big.

    The greedy finds the largest matched sum.  The sets of big terms that
    can be matched at once are the independent sets of a transversal
    matroid, so taking the terms by descending weight j, each one kept when
    it can still be matched, is optimal.  The neighbourhoods are nested (a
    small term >= j is >= every smaller j), so j can be matched iff the
    largest unmatched small term is >= j, and which one takes it does not
    matter."""
    small = sorted(small, reverse=True)
    k = saved = 0
    for j in sorted(big, reverse=True):
        if j < 2:
            break
        if k < len(small) and small[k] >= j:
            saved += j
            k += 1
    return sum(small) - saved <= big.count(1)


def general_windows(n: int, m: int, a: int) -> dict[int, list[tuple[int, int]]]:
    """For each admissible p, the list of unordered index splits (i, a-i)
    appearing in the zero-dimensional window bound; empty when the
    hypotheses fail for every p.  n, m and a must be ints (``ValueError``
    otherwise; a ``bool`` is not an int here)."""
    _check_ints(("n", n), ("m", m), ("a", a))
    if _window_problems(n, m, a):
        return {}
    out: dict[int, list[tuple[int, int]]] = {}
    # p >= 1 for any split; hi <= a // 2 keeps each split ordered and distinct
    for p in range(max(1, m - a + 2), a - 1):
        lo, hi = _window(m, a, p)
        splits = [(i, a - i) for i in range(max(lo, 1), hi + 1)]
        if splits:
            out[p] = splits
    return out


def derive_symbolic_bounds(n: int, m: int, a: int) -> list[SymbolicBound]:
    """Close the known inequalities into fully expanded sum bounds on t_a.

    The consecutive rewrite t_b <= t_{b-1} + t_1 always yields
    t_a <= t_1 + t_{a-1}.  Whenever the zero-dimensional window hypotheses
    hold for some p, every multiset that dominates an expansion of each
    window split is a valid bound; per window, the minimal ones among the
    unions of one expansion per split are kept, then those that another
    kept bound dominates through the consecutive rewrite are dropped.
    Multisets are count vectors: the union takes the entrywise max,
    containment is entrywise >=, and a candidate is kept unless it contains
    a kept one of smaller total.  All reported term indices are strictly
    below a.  n, m and a must be ints, as in ``general_windows``.
    """
    windows = general_windows(n, m, a)
    if a < 2:
        raise ValueError("need a >= 2 for a nontrivial bound")
    bounds: set[tuple[int, ...]] = {(1, a - 1)}
    for splits in windows.values():
        # keep each window's own minimal consequences; a sharper bound from a
        # narrower window does not erase the wider window's weaker one
        kept = [tuple(i for i, c in enumerate(v, 1) for _ in range(c))
                for v in _minimal(_unions(splits, a))]
        for cand in kept:
            dominated = any(
                other != cand
                and _symbolic_le(other, cand)
                and not _symbolic_le(cand, other)
                for other in kept
            )
            if not dominated:
                bounds.add(cand)
    return [SymbolicBound(a, b) for b in sorted(bounds)]
