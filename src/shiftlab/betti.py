"""Exact Betti numbers of S/I via fixed-multidegree strand homology.

Every Betti multidegree of S/I is the lcm of a set of generators, so the
engine groups the subsets by lcm (_face_lcms, the 2^m table) and at each
alpha takes the homology of one of two chain complexes with bitmask faces:

- the Taylor strand: one face per generator subset whose lcm is exactly
  alpha; its homology at face size a is b_{a,alpha}(S/I).  It has up to 2^m
  faces.
- the upper Koszul complex K^alpha(I) = {squarefree tau <= alpha :
  x^(alpha - tau) in I}, faces being variable subsets.  For a >= 1,
  b_{a,alpha}(S/I) = dim H~_{a-2}(K^alpha(I)) (Miller-Sturmfels,
  Combinatorial Commutative Algebra, Thm 1.34), so its reduced homology at
  face size s is b_{s+1,alpha}.  It has at most 2^|supp alpha| faces.

K^alpha(I) is used whenever 2^|supp alpha| is below the Taylor strand's size
(never at alpha = 0, whose Taylor strand is the empty face alone).
Both complexes are cut from a full simplex by keeping some faces, and a
boundary term survives exactly when the facet is kept, so strand_matrices
and one rank loop serve both kinds and both fields.  rank_exact takes int
entries only (strands are 0/±1) and clears each pivot with fields.eliminate,
the sparse step that minimalize cancels with too, over QQ and GF(p) alike.

Many strands are cones and are skipped before either complex is built.  The
Taylor strand at alpha != 0 is the set of subsets of G_alpha, the generators
<= alpha, that meet every R_v = {i in G_alpha : g_i[v] = alpha_v}, v in
supp alpha.  If a generator i of G_alpha is in no inclusion-minimal R_v, it
is in no minimal face, and sigma -> sigma xor {i} pairs the faces by ±1
boundary entries: an acyclic matching by generator toggles, as in discrete
Morse theory for cellular resolutions (Batzies-Welker, J. reine angew. Math.
543, 2002), read on the lcm lattice (Gasharov-Peeva-Welker, Math. Res. Lett.
6, 1999).  The strand is then the cone of an identity map, acyclic over every
field, and b_{.,alpha} = 0; K^alpha(I) has the same homology.  Only strands
of even size can pair off, so only those are tested, and a 2-face strand is
always a pair.  This builds 128 of S13's 285 strands and 184 of S14's 353
(bench/ideals), and cuts the rank calls from 485 to 52 and from 619 to 171.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .complexes import GENERATOR_CAP, ShiftProfile, _check_cap, scarf_complex
from .fields import QQ, characteristic, eliminate
from .monomials import MonomialIdeal, join, total_degree


def rank_exact(M: list[list[int]], field=QQ) -> int:
    """Exact rank of an integer matrix over the rationals or over GF(p).

    Every entry must be of type int (bool, float and Fraction raise
    TypeError); over GF(p) the entries are read mod p.  One sparse
    elimination serves both fields.  It pivots on the lightest live row, in
    the column with the fewest live entries among that row's units (±1 over
    QQ, any nonzero over GF(p)), or among all its entries when it has no
    unit, and clears that column with ``fields.eliminate``.  The argument is
    never modified.
    """
    p = characteristic(field)
    nonzero = itemgetter(1)
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = defaultdict(set)
    for i, r in enumerate(M):
        if not {int}.issuperset(map(type, r)):
            raise TypeError(f"rank_exact takes int entries only; row {i} has {set(map(type, r))}")
        entries = filter(nonzero, enumerate(r))
        row = {j: y for j, x in entries if (y := x % p)} if p else dict(entries)
        if row:
            rows[i] = row
            for j in row:
                cols[j].add(i)
    ncols = len(cols)  # the rank is at most this: fill-in opens no new column
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    rank = 0
    while rows:
        n, i = heappop(heap)
        piv = rows.get(i)
        if piv is None or len(piv) != n:
            continue  # a stale heap entry
        del rows[i]
        rank += 1
        if not rows or rank == ncols:
            break
        for j in piv:
            cols[j].discard(i)
        units = piv if p else [j for j, x in piv.items() if x == 1 or x == -1]
        c = min(units or piv, key=lambda j: len(cols[j]))
        for k in eliminate(piv, c, rows, cols, p):
            if size := len(rows[k]):
                heappush(heap, (size, k))
            else:
                del rows[k]
    return rank


LCM_BLOCK = 12  # generators in the low block of _face_lcms: 2^12 rows per column


def _face_lcms(I: MonomialIdeal, cap: int) -> list[tuple]:
    """lcm of every generator subset, indexed by bitmask (lcm[0] = 0-vector).

    The subsets of the first LCM_BLOCK generators are built one exponent
    column per variable: generator i doubles each column, the new half being
    the old one clamped from below by its exponent, and one zip turns the
    columns into rows.  Each subset h of the later generators then appends
    one block of rows: the low columns clamped by the lcm of h (the row
    h << LCM_BLOCK, already built), zipped.  Beside the table the build holds
    at most 2n columns of 2^LCM_BLOCK rows, whatever m is."""
    _check_cap(I, cap)
    low, high = I.gens[:LCM_BLOCK], I.gens[LCM_BLOCK:]
    cols = [[0] for _ in range(I.ring.n)]
    for g in low:
        for col, e in zip(cols, g):
            col += [x if x >= e else e for x in col] if e else col
    lcm = list(zip(*cols))
    for h in range(1, 1 << len(high)):
        bit = h & -h
        top = join(lcm[(h ^ bit) << LCM_BLOCK], high[bit.bit_length() - 1])
        lcm += zip(*[[x if x >= e else e for x in col] if e else col
                     for col, e in zip(cols, top)])
    return lcm


def lcm_lattice(I: MonomialIdeal, cap: int = GENERATOR_CAP) -> list[tuple]:
    """All distinct lcms of nonempty generator subsets, sorted lexicographically."""
    return sorted(set(_face_lcms(I, cap)[1:]))


class BettiTable:
    """Multigraded Betti numbers of S/I: (a, multidegree) -> rank >= 1."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries: dict):
        self.ring = ring
        self.entries = dict(entries)

    @property
    def projdim(self) -> int:
        return max(a for a, _ in self.entries)

    def totals(self) -> tuple[int, ...]:
        """Betti numbers summed over multidegrees: (b_0, b_1, ..., b_p)."""
        out = [0] * (self.projdim + 1)
        for (a, _), r in self.entries.items():
            out[a] += r
        return tuple(out)

    def coarse(self) -> dict[tuple[int, int], int]:
        """Project to total degree: (a, d) -> sum of ranks."""
        out: dict[tuple[int, int], int] = defaultdict(int)
        for (a, mdeg), r in self.entries.items():
            out[(a, total_degree(mdeg))] += r
        return dict(out)

    def support_at(self, a: int) -> list[tuple]:
        return sorted(mdeg for (i, mdeg) in self.entries if i == a)

    def shift_profile(self) -> ShiftProfile:
        shifts = [0] * (self.projdim + 1)
        for (a, mdeg), _ in self.entries.items():
            shifts[a] = max(shifts[a], total_degree(mdeg))
        return ShiftProfile(tuple(shifts))

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable(totals={self.totals()})"


def strand_matrices(faces: list[int]):
    """Boundary matrices of one strand (a Taylor strand or an upper Koszul
    complex; see the module docstring).

    faces are bitmasks; returns (by_size, mats) with by_size[s] the size-s
    faces in the order given and mats[s] the 0/±1 boundary matrix from size
    s into size s-1, built only when both sides are nonempty.  A facet is
    kept iff it is a face one size down.  The sign of dropping the k-th
    smallest member is (-1)^k with k counted from 0.
    """
    by_size: dict[int, list[int]] = defaultdict(list)
    for mask in faces:
        by_size[mask.bit_count()].append(mask)
    mats: dict[int, list[list[int]]] = {}
    for s, level in by_size.items():
        below = by_size.get(s - 1)
        if not below:
            continue
        rowidx = {mask: i for i, mask in enumerate(below)}
        mat = [[0] * len(level) for _ in below]
        for j, fmask in enumerate(level):
            k = 0
            rest = fmask
            while rest:
                low = rest & -rest
                row = rowidx.get(fmask ^ low)
                if row is not None:
                    mat[row][j] = -1 if k & 1 else 1
                k += 1
                rest ^= low
        mats[s] = mat
    return dict(by_size), mats


def _koszul_faces(gens, alpha: tuple) -> list[int]:
    """Faces of K^alpha(I) as sorted variable bitmasks: the union of the
    down-sets of {i : g_i < alpha_i} over the generators g <= alpha."""
    tops = {
        sum(1 << i for i, (e, a) in enumerate(zip(g, alpha)) if e < a)
        for g in gens
        if all(e <= a for e, a in zip(g, alpha))
    }
    faces: set[int] = set()
    for top in tops:
        sub = top
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    return sorted(faces)


def _is_cone(gens, alpha: tuple, faces: list[int]) -> bool:
    """Whether the Taylor strand at alpha != 0, given as its faces in
    increasing order, is a cone (see the module docstring): some generator
    of G_alpha = faces[-1] is in no inclusion-minimal R_v.  A 2-face strand,
    {G_alpha - {i}, G_alpha}, is one without the test.  The R_v are built
    from the bits of G_alpha only here, so a strand that is not tested costs
    nothing."""
    if len(faces) == 2:
        return True
    top = faces[-1]
    members = [(1 << i, gens[i]) for i in range(top.bit_length()) if top >> i & 1]
    reqs = {sum(bit for bit, g in members if g[v] == a) for v, a in enumerate(alpha) if a}
    covered = 0
    for r in reqs:
        if not any(s != r and s & r == s for s in reqs):
            covered |= r
    return covered != top


def multigraded_betti(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> BettiTable:
    """Betti table of S/I: homology dimensions of every lcm-lattice strand.

    A strand that is a cone (``_is_cone``; see the module docstring) has no
    homology and is skipped unbuilt.  At every other alpha the smaller of
    the Taylor strand and K^alpha(I) is used; with shift 0 for Taylor and 1
    for Koszul, the face-size-s homology n_s - rank(d_s) - rank(d_{s+1}) is
    b_{s+shift,alpha}.  Strands are independent; they are walked in
    lexicographic multidegree order so the output is reproducible.
    """
    strata: dict[tuple, list[int]] = defaultdict(list)
    for mask, top in enumerate(_face_lcms(I, cap)):
        strata[top].append(mask)
    entries: dict[tuple, int] = {}
    for alpha in sorted(strata):
        faces, shift = strata[alpha], 0
        if not len(faces) & 1 and _is_cone(I.gens, alpha, faces):
            continue
        if (1 << sum(1 for e in alpha if e)) < len(faces):
            faces, shift = _koszul_faces(I.gens, alpha), 1
        by_size, mats = strand_matrices(faces)
        ranks = {s: rank_exact(mat, field) for s, mat in mats.items()}
        for s, level in by_size.items():
            beta = len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            if beta:
                entries[(s + shift, alpha)] = beta
    return BettiTable(I.ring, entries)


def shifts(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> ShiftProfile:
    """Maximal shifts t_a(I) of the minimal resolution of S/I (t_0 = 0)."""
    return multigraded_betti(I, field, cap).shift_profile()


def projdim(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> int:
    return multigraded_betti(I, field, cap).projdim


def scarf_is_resolution(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> bool:
    """Whether the Scarf complex is already the minimal resolution of S/I
    (its ranks match the Betti numbers; true for generic ideals)."""
    ranks = scarf_complex(I, cap).ranks()
    totals = multigraded_betti(I, field, cap).totals()
    return tuple(ranks) == tuple(totals)


# ---------------------------------------------------------------------------
# renderings


def format_betti_grid(table: BettiTable) -> str:
    """Macaulay2-style grid: column a, row d - a, cell = coarse rank."""
    coarse = table.coarse()
    p = table.projdim
    depth = max(d - a for a, d in coarse)
    header = "      " + "".join(f"{a:>6}" for a in range(p + 1))
    lines = [header]
    for r in range(depth + 1):
        cells = [coarse.get((a, r + a), "") or "." for a in range(p + 1)]
        lines.append(f"{r:>5}:" + "".join(f"{c:>6}" for c in cells))
    lines.append("total:" + "".join(f"{t:>6}" for t in table.totals()))
    return "\n".join(lines)


def betti_records(table: BettiTable) -> list[dict]:
    """JSON-friendly records, one per nonzero multigraded entry."""
    return [
        {"a": a, "mdeg": list(mdeg), "rank": r}
        for (a, mdeg), r in sorted(table.entries.items())
    ]
