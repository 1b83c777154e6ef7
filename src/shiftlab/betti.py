"""Exact Betti numbers of S/I via fixed-multidegree strand homology.

Every Betti multidegree of S/I is the lcm of a set of generators
(Gasharov-Peeva-Welker, Math. Res. Lett. 6, 1999), so the engine walks the
lcm lattice.  complexes._lattice builds it by join closure, one generator
at a time, and carries at each alpha the bitmask G_alpha of the generators
<= alpha and the number of generator subsets whose lcm is alpha; time and
memory follow the lattice, not the 2^m subsets.  At each alpha the engine
takes the homology of one of two chain complexes with bitmask faces:

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
reads both off complexes._columns, the Taylor complex's facet rule, as ±1
columns, and one rank loop serves both kinds and both fields: rank_exact
clears each pivot with fields.eliminate, as minimalize does.

Most strands are read off without building either complex.  The Taylor
strand at alpha is the set of subsets of G_alpha that meet every
R_v = {i in G_alpha : g_i[v] = alpha_v}, v in supp alpha (the lcm-lattice
reading of Gasharov-Peeva-Welker); a subset meets every R_v iff it meets
the inclusion-minimal ones.  With one table eq[v][e], the generators whose
x_v exponent is e, built per call in n*m steps, R_v = G_alpha &
eq[v][alpha_v].  Let U be the union of the minimal R_v.

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
  K^alpha(I), then strand_matrices and rank_exact.  The choice reads the
  carried size, and only a Taylor strand that is built is enumerated
  (_taylor_faces), from the minimal R_v.

A cone has an even number of faces and a sphere an odd one, the product of
the 2^|B_i| - 1.  A stratum of one face is the sphere of singleton blocks,
and one of two faces, {G_alpha - {i}, G_alpha}, the cone on i, so both are
classified from the carried size alone.  Over QQ the 500-ideal test corpus
builds 211 of its 7982 strands and makes 474 rank calls; S13 builds 10 of
its 285 strands and S14 33 of its 353 (bench/ideals), with 25 and 115 rank
calls.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_

from .complexes import GENERATOR_CAP, ShiftProfile, _columns, _lattice, scarf_complex
from .fields import QQ, characteristic, eliminate
from .monomials import MonomialIdeal, total_degree


def rank_exact(M, field=QQ) -> int:
    """Exact rank over the rationals or over GF(p) of a matrix given by its
    columns in the ``FreeComplex.diffs`` format, a sequence of (row, coeff)
    pairs each.  A row repeated in a column raises ValueError; every coeff
    must be of type int (bool, float and Fraction raise TypeError), read mod
    p over GF(p).  One sparse elimination serves both fields.  It pivots on
    the lightest live column, in the row with the fewest live entries among
    that column's units (±1 over QQ, any nonzero over GF(p)), or among all
    its entries when it has none, and clears that row with
    ``fields.eliminate``.  The argument is never modified.
    """
    p = characteristic(field)
    lines: dict[int, dict[int, int]] = {}
    index: dict[int, set[int]] = defaultdict(set)
    for j, col in enumerate(M):
        if len(line := dict(col)) != len(col):
            raise ValueError(f"rank_exact: column {j} repeats a row")
        if not {int}.issuperset(kinds := set(map(type, line.values()))):
            raise TypeError(f"rank_exact takes int entries only; column {j} has {kinds}")
        if line := {r: y for r, x in line.items() if (y := x % p if p else x)}:
            lines[j] = line
            for r in line:
                index[r].add(j)
    nrows = len(index)  # the rank is at most this: fill-in opens no new row
    heap = [(len(line), j) for j, line in lines.items()]
    heapify(heap)
    rank = 0
    while lines:
        n, j = heappop(heap)
        piv = lines.get(j)
        if piv is None or len(piv) != n:
            continue  # a stale heap entry
        del lines[j]
        rank += 1
        if not lines or rank == nrows:
            break
        for r in piv:
            index[r].discard(j)
        units = piv if p else [r for r, x in piv.items() if x == 1 or x == -1]
        c = min(units or piv, key=lambda r: len(index[r]))
        for k in eliminate(piv, c, lines, index, p):
            if size := len(lines[k]):
                heappush(heap, (size, k))
            else:
                del lines[k]
    return rank


def lcm_lattice(I: MonomialIdeal, cap: int = GENERATOR_CAP) -> list[tuple]:
    """All distinct lcms of nonempty generator subsets, sorted lexicographically."""
    return sorted(alpha for alpha, (mask, _) in _lattice(I, cap).items() if mask)


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
    """Boundary columns of one strand (a Taylor strand or an upper Koszul
    complex; see the module docstring).

    faces are bitmasks; returns (by_size, mats) with by_size[s] the size-s
    faces in the order given and mats[s] the columns (complexes._columns) of
    the boundary from size s into size s-1, built only when both sides are
    nonempty.  A facet that is not a face one size down is absent.
    """
    by_size: dict[int, list[int]] = defaultdict(list)
    for mask in faces:
        by_size[mask.bit_count()].append(mask)
    mats = {}
    for s, level in by_size.items():
        if below := by_size.get(s - 1):
            mats[s] = _columns(level, dict(zip(below, range(len(below)))))
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


def _classify(eq: list[dict[int, int]], alpha: tuple, top: int, size: int) -> int | list[int]:
    """Read the Taylor strand at alpha off its minimal R_v (see the module
    docstring).  Its faces are the subsets of top = G_alpha that meet every
    R_v, and size counts them.  Returns CONE, the k of a sphere
    (b_{k,alpha} = 1 and no other), or, when the strand must be built, the
    minimal R_v themselves, smallest first.
    A 1-face stratum is the sphere whose blocks are all singletons (alpha = 0
    included, with k = 0), and a 2-face stratum {G_alpha - {i}, G_alpha} the
    cone on i, so neither reads the R_v."""
    if size < 3:
        return top.bit_count() if size == 1 else CONE
    reqs = sorted({top & masks[a] for masks, a in zip(eq, alpha) if a}, key=int.bit_count)
    minimal: list[int] = []
    for r in reqs:  # by size, so a strict subset of r is met before r
        if not any(s & r == s for s in minimal):
            minimal.append(r)
    if reduce(or_, minimal) != top:
        return CONE
    return len(minimal) if sum(map(int.bit_count, minimal)) == top.bit_count() else minimal


def _taylor_faces(top: int, minimal: list[int]) -> list[int]:
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


def multigraded_betti(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> BettiTable:
    """Betti table of S/I: homology dimensions of every lcm-lattice strand.

    ``_classify`` reads every cone and sphere strand off its minimal R_v
    (see the module docstring), unbuilt.  At every other alpha the smaller of
    the Taylor strand and K^alpha(I) is used; with shift 0 for Taylor and 1
    for Koszul, the face-size-s homology n_s - rank(d_s) - rank(d_{s+1}) is
    b_{s+shift,alpha}.  Strands are independent; they are walked in
    lexicographic multidegree order so the output is reproducible.
    """
    lattice = _lattice(I, cap)
    eq = _equal_masks(I)
    entries: dict[tuple, int] = {}
    for alpha, (top, size) in sorted(lattice.items()):
        verdict = _classify(eq, alpha, top, size)
        if isinstance(verdict, int):
            if verdict != CONE:
                entries[(verdict, alpha)] = 1
            continue
        if (1 << sum(1 for e in alpha if e)) < size:
            faces, shift = _koszul_faces(I.gens, alpha), 1
        else:
            faces, shift = _taylor_faces(top, verdict), 0
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
