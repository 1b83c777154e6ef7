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

Most strands are read off without building either complex.  The Taylor
strand at alpha is the set of subsets of G_alpha, the generators <= alpha,
that meet every R_v = {i in G_alpha : g_i[v] = alpha_v}, v in supp alpha
(Gasharov-Peeva-Welker's lcm-lattice reading, Math. Res. Lett. 6, 1999); a
subset meets every R_v iff it meets the inclusion-minimal ones.  With one
table eq[v][e], the generators whose x_v exponent is e, built per call in
n*m steps, R_v = G_alpha & eq[v][alpha_v].  Let U be the union of the
minimal R_v.

- U != G_alpha: a generator i outside U is in no minimal R_v, and
  sigma -> sigma xor {i} pairs the faces by ±1 boundary entries (an acyclic
  matching by generator toggles, as in Batzies-Welker, J. reine angew. Math.
  543, 2002).  The strand is the cone of an identity map, acyclic over
  every field, and b_{.,alpha} = 0.
- The minimal R_v are pairwise disjoint and cover G_alpha in k blocks
  B_1..B_k: the faces are the products of nonempty subsets of the blocks,
  and the strand is the tensor product of the chain complexes of k full
  simplices.  Equivalently it is the relative complex (Delta_{G_alpha},
  union_i Delta_{G_alpha - B_i}) of the Taylor strand formula
  (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), whose
  cover has nerve the boundary of the (k-1)-simplex.  Either way it is a
  sphere: b_{k,alpha} = 1 and every other b_{.,alpha} is 0, over every
  field.  A 1-face stratum is the case of singleton blocks, and alpha = 0
  the case k = 0.
- Otherwise the strand is built: the smaller of the Taylor strand and
  K^alpha(I), then strand_matrices and rank_exact.

A cone has an even number of faces and a sphere an odd one, the product of
the 2^|B_i| - 1.  Over QQ the 500-ideal test corpus builds 211 of its 7982
strands and makes 474 rank calls; S13 builds 10 of its 285 strands and S14
33 of its 353 (bench/ideals), with 25 and 115 rank calls.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import itemgetter, or_

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


def _equal_masks(I: MonomialIdeal) -> list[dict[int, int]]:
    """eq[v][e]: the bitmask of the generators whose x_v exponent is e."""
    eq: list[dict[int, int]] = [{} for _ in range(I.ring.n)]
    for i, g in enumerate(I.gens):
        for masks, e in zip(eq, g):
            masks[e] = masks.get(e, 0) | 1 << i
    return eq


CONE = -1  # _classify's verdict for a strand with no homology


def _classify(eq: list[dict[int, int]], alpha: tuple, faces: list[int]) -> int | None:
    """Read the Taylor strand at alpha, given as its faces in increasing
    order, off its minimal R_v (see the module docstring): CONE, the k of a
    sphere (b_{k,alpha} = 1 and no other), or None when it must be built.
    A 1-face stratum is the sphere whose blocks are all singletons (alpha = 0
    included, with k = 0), and a 2-face stratum {G_alpha - {i}, G_alpha} the
    cone on i, so neither reads the R_v."""
    top = faces[-1]
    if len(faces) < 3:
        return top.bit_count() if len(faces) == 1 else CONE
    reqs = sorted({top & masks[a] for masks, a in zip(eq, alpha) if a}, key=int.bit_count)
    minimal: list[int] = []
    for r in reqs:  # by size, so a strict subset of r is met before r
        if not any(s & r == s for s in minimal):
            minimal.append(r)
    if reduce(or_, minimal) != top:
        return CONE
    return len(minimal) if sum(map(int.bit_count, minimal)) == top.bit_count() else None


def multigraded_betti(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> BettiTable:
    """Betti table of S/I: homology dimensions of every lcm-lattice strand.

    ``_classify`` reads every cone and sphere strand off its minimal R_v
    (see the module docstring), unbuilt.  At every other alpha the smaller of
    the Taylor strand and K^alpha(I) is used; with shift 0 for Taylor and 1
    for Koszul, the face-size-s homology n_s - rank(d_s) - rank(d_{s+1}) is
    b_{s+shift,alpha}.  Strands are independent; they are walked in
    lexicographic multidegree order so the output is reproducible.
    """
    strata: dict[tuple, list[int]] = defaultdict(list)
    for mask, top in enumerate(_face_lcms(I, cap)):
        strata[top].append(mask)
    eq = _equal_masks(I)
    entries: dict[tuple, int] = {}
    for alpha in sorted(strata):
        faces, shift = strata[alpha], 0
        k = _classify(eq, alpha, faces)
        if k is not None:
            if k != CONE:
                entries[(k, alpha)] = 1
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
