"""Exact Betti numbers of S/I via fixed-multidegree strand homology.

Every Betti multidegree of S/I is the lcm of a set of generators
(Gasharov-Peeva-Welker, Math. Res. Lett. 6, 1999), so the engine walks the
lcm lattice.  complexes._lattice builds it by join closure, one generator
at a time, and carries at each alpha the bitmask G_alpha of the generators
<= alpha and the number of generator subsets whose lcm is alpha; time and
memory follow the lattice, not the 2^m subsets.  From 12 generators on it
adds them by decreasing exponent overlap with the others, which keeps the
early lattices small; each keeps its own bit, so only the lattice's
insertion order moves.
Inside the engine every multidegree is one packed int, a W-byte field per
variable whose top bit, the guard bit, is 0 (see _lattice); the lattice
and _lyubeznik_pushes join with one SWAR max written out in their loops,
no call per pair, and sorted ints are sorted tuples.  Tuples are made only
where a multidegree leaves the engine: the table keys written, the alpha
that _classify reads (strata of three or more faces) and _koszul_faces
reads with its support, the Scarf basis, lcm_lattice and the
covering-pair candidates.

Most strands are read off without building anything.  The Taylor strand at
alpha, the generator subsets whose lcm is exactly alpha, is the set of
subsets of G_alpha that meet every R_v = {i in G_alpha : g_i[v] = alpha_v},
v in supp alpha (the lcm-lattice reading of Gasharov-Peeva-Welker); a
subset meets every R_v iff it meets the inclusion-minimal ones.  With one
table eq[v][e], the generators whose x_v exponent is e, built in n*m
steps, R_v = G_alpha & eq[v][alpha_v].  Let U be the union of the
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
- Otherwise the strand is read off its Lyubeznik counts when its faces
  have one size, or else built and ranked: the Lyubeznik strand at alpha,
  or K^alpha(I) where that is smaller (below).

A cone has an even number of faces and a sphere an odd one, the product of
the 2^|B_i| - 1.  A stratum of one face is the sphere of singleton blocks,
and one of two faces, {G_alpha - {i}, G_alpha}, the cone on i, so both are
classified from the carried size alone, and eq is built only for the first
stratum of three or more faces (most corpus strata have one or two).  The
verdicts are read in that order: the size, then the minimal R_v and their
union U, found in one pass over the R_v by size (_classify).  _classify
reads the strata of three or more faces in lattice order only until the
first it leaves to be built; every later one is left open for the
Lyubeznik counts below, and goes to _classify only if they cannot read it.

The Lyubeznik complex L (Lyubeznik, "A new explicit finite free resolution
of ideals generated by monomials in an R-sequence", JPAA 51, 1988) is the
set of generator subsets {i_1 < ... < i_k} such that, for every t, no g_j
with j < i_t divides lcm(g_{i_t}, ..., g_{i_k}).  It is a simplicial
subcomplex of the Taylor complex and still resolves S/I, so
Tor_a(S/I, k)_alpha is the homology at face size a of its strand at alpha:
the faces of L with lcm exactly alpha, with the Taylor boundary cut to
them.  Taking t = 1, the smallest member of such a face is min G_alpha,
and dropping it leaves a face of lcm beta with min G_beta greater than it
and beta v g_i = alpha.  So the faces at alpha are, over those beta, the
faces at beta with i = min G_alpha added, plus {i} itself when g_i = alpha
(beta = 0, whose one face is the empty one).  _lyubeznik_pushes counts
them up the whole lattice by this rule, in sorted order, so the count
reads the lattice and the generator order alone.  It counts them by size,
in one int per alpha, the sum of n_s * 2^((m+1)s): field s, m + 1 bits
wide, holds the n_s faces of size s, and no field carries into the next
since a stratum has at most 2^m faces.  A push shifts beta's count one
field up.  The counts are made only once some stratum must be built.

A strand whose faces all have one size s has no boundary, so its homology
is b_{s,alpha} = n_s; with no faces it has none.  So each open or built
stratum whose count has one nonzero field, or none, is read off it, with
no face grown and no rank call; only the other open strata go to _classify,
and only the other built ones are ranked.  The counts also give each
strand's Euler characteristic, sum (-1)^s n_s, which the table's entries
at alpha must have (the tests check it at every alpha; the ranks cancel in
it, so it checks the counts and the read-offs, not rank_exact).

A Lyubeznik strand can still have about 2^m faces: on x*y^i*z^(20-i),
i = 0..20, and y^20*z^20 it has over 2^19 at alpha = (1, 20, 20) in the
given order (one face in the rooted order below), and with y^20*z^10 in
place of y^20*z^20 it has 513 at (1, 20, 10) in both orders.  The
upper Koszul complex K^alpha(I) = {squarefree tau <= alpha :
x^(alpha - tau) in I}, faces being variable subsets, has at most
2^|supp alpha|, and for a >= 1 b_{a,alpha}(S/I) = dim H~_{a-2}(K^alpha(I))
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), so its
homology at face size s is b_{s+1,alpha}.  Each built stratum carries its
count beside 2^|supp alpha|, and the choice is made there: the Lyubeznik
strand is ranked where the count is at most that, and K^alpha(I)
elsewhere, so no strand has more than 2^n faces.  _lyubeznik_faces then
grows the faces of the Lyubeznik strands to be ranked, and only the faces
that lie in them.

L depends on the generator order, a choice Novik reads as a rooting map
("Lyubeznik's resolution and rooted complexes", J. Algebraic Combin. 16,
2002): a face survives when no earlier generator divides the lcm of its
tail, so generators below many lcms should come first.  Once some alpha
is to be built, _rooting scores each generator by how many strata of three
or more faces hold it in G_alpha (the open ones are not classified yet, so
it reads them all), eight generators at a time in 24-bit lanes of one sum,
and sorts them most first, ties in the given order.  _relabel always
rewrites the lattice's G_alpha and the packed generators in that order,
once, before the pushes are counted; the given order is one more
permutation.  The order cannot change a table: L resolves S/I in every
order, so each strand has the homology Tor_a(S/I, k)_alpha whatever the
order, and the entries stay keyed by alpha.  Classification, K^alpha and
the other readers of _lattice (scarf_complex, lcm_lattice, the covering
pairs) keep the given order.  What the order moves is the number of faces,
and so which strata are read off their counts and how many faces the face
limit reads; it is a heuristic, not a bound on the faces ranked.

strand_matrices reads each strand off complexes._columns, the Taylor
complex's facet rule, as ±1 columns, and one rank loop serves both kinds
and both fields: rank_exact clears each pivot with fields.eliminate, as
minimalize does.  Over QQ the 500-ideal test corpus builds 77 of its 7982
strands, all Lyubeznik, with 262 faces, and makes 85 rank calls; S13 builds
2 of its 285 strands and S14 21 of its 353 (bench/ideals), all Lyubeznik,
with 2 and 26 rank calls.  _classify runs 17 and 55 times on them.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress

from .complexes import (ShiftProfile, _check_columns, _check_size, _column_scan, _columns,
                        _facet_index, _lattice, scarf_complex)
from .fields import QQ, characteristic, eliminate
from .monomials import MonomialIdeal


def rank_exact(M, field=QQ) -> int:
    """Exact rank over the rationals or over GF(p) of a matrix given by its
    columns in the ``FreeComplex.diffs`` format, a sequence of (row, coeff)
    pairs each.  Columns keep the column rule (complexes._repeated_row), or
    ContractError: no row twice, each coeff an int (or over QQ a Fraction), read mod
    p over GF(p).  One sparse elimination serves both fields.  It takes the
    live columns in turn and pivots on the column's first ±1 entry over QQ
    (any entry when it has none) and on any entry over GF(p), and clears
    that row with ``fields.eliminate``.  The argument is never modified.
    """
    p = characteristic(field)
    lines: dict[int, dict] = {}
    index: dict[int, set[int]] = defaultdict(set)
    M = tuple(M)
    _check_columns(_column_scan((M,)), p)
    for j, col in enumerate(M):
        if line := {r: y for r, x in col if (y := x % p if p else x)}:
            lines[j] = line
            for r in line:
                index[r].add(j)
    rank = 0
    while lines:
        j, piv = lines.popitem()
        rank += 1
        for r in piv:
            index[r].discard(j)
        c = next((r for r, x in piv.items() if p or x == 1 or x == -1), next(iter(piv)))
        for k in eliminate(piv, c, lines, index, p):
            if not lines[k]:
                del lines[k]
    return rank


def lcm_lattice(I: MonomialIdeal) -> list[tuple]:
    """All distinct lcms of nonempty generator subsets, sorted lexicographically."""
    lattice, _, _, unpack = _lattice(I)
    return list(map(unpack, sorted(lattice)[1:]))  # past 0, the lcm of the empty subset alone


class BettiTable:
    """Multigraded Betti numbers of S/I: (a, multidegree) -> rank >= 1."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries: dict):
        if not entries:
            raise ValueError("a Betti table of S/I has b_0 = 1, so it has entries")
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
            out[(a, sum(mdeg))] += r
        return dict(out)

    def support_at(self, a: int) -> list[tuple]:
        return sorted(mdeg for (i, mdeg) in self.entries if i == a)

    def shift_profile(self) -> ShiftProfile:
        shifts = [0] * (self.projdim + 1)
        for a, mdeg in self.entries:
            if (d := sum(mdeg)) > shifts[a]:
                shifts[a] = d
        return ShiftProfile(tuple(shifts))

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable(totals={self.totals()})"


def strand_matrices(faces: list[int]):
    """Boundary columns of one strand (a Lyubeznik strand or an upper
    Koszul complex; see the module docstring).

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
            mats[s] = _columns(level, _facet_index(below))
    return dict(by_size), mats


def _equal_masks(I: MonomialIdeal) -> list[dict[int, int]]:
    """eq[v][e]: the bitmask of the generators whose x_v exponent is e."""
    eq: list[dict[int, int]] = [{} for _ in range(I.ring.n)]
    for i, g in enumerate(I.gens):
        for masks, e in zip(eq, g):
            masks[e] = masks.get(e, 0) | 1 << i
    return eq


CONE = -1  # _classify's verdict for a strand with no homology


def _classify(eq: list[dict[int, int]], alpha: tuple, top: int) -> int | None:
    """Read the Taylor strand at alpha off its minimal R_v (see the module
    docstring).  Its faces are the subsets of top = G_alpha that meet every
    R_v.  Returns CONE, the k of a sphere (b_{k,alpha} = 1 and no other), or
    None when the strand must be built.  One pass over the R_v, smallest
    first, keeps the minimal ones and their union, the cover: an R_v (never
    empty) disjoint from the cover is minimal outright, and only one that
    meets it is compared with the kept sets.  A cone unless the cover is
    G_alpha, else a sphere when no minimal R_v met it.  An R_v equal to a
    kept one meets the cover and contains it, so it is skipped with no set
    to drop it.  The reading holds at every alpha, 0 included;
    multigraded_betti calls it on strata of three or more faces."""
    minimal, cover, met = [], 0, False
    requirements = map(top.__and__, map(dict.__getitem__, compress(eq, alpha), filter(None, alpha)))
    for r in sorted(requirements, key=int.bit_count):
        if r & cover:  # a kept subset of r is met before r, being no larger
            for s in minimal:
                if s & r == s:
                    break
            else:
                met = True
                minimal.append(r)
                cover |= r
            continue
        minimal.append(r)
        cover |= r
    if cover != top:
        return CONE
    return None if met else len(minimal)


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


def _lyubeznik_pushes(lattice: dict, gens: list, guards: int) -> dict:
    """beta -> (the Lyubeznik faces with lcm beta counted by size, the pushes
    (alpha, 1 << i) out of beta), in sorted order, for every element reached.

    The count is one int, the sum of n_s << (m + 1)s over the face sizes s,
    so field s, m + 1 bits wide, holds n_s; a stratum has at most 2^m faces,
    so no field carries into the next, and the total is the count mod
    2^(m + 1) - 1.  A face at alpha is i = min G_alpha added to a face at
    some beta with min G_beta > i and beta v g_i = alpha (see the module
    docstring), and whether i may be added reads only beta and i.  So the
    faces are the paths from 0 along the pushes, counted here in sorted
    order, a linear extension of <=: from each beta along each i < min G_beta
    (every i from beta = 0) with min G_(beta v g_i) = i, one SWAR max per
    pair, adding beta's count shifted one field up.  The count reads the
    lattice and the order alone.  Elements are packed: lattice, gens and the
    guard bits of the max come from _lattice."""
    s = (guards & -guards).bit_length() - 1  # the lowest guard bit: 8W - 1
    width = len(gens) + 1
    count = {0: 1}  # the empty face, the one face of lcm 0, of size 0
    pushes = {}
    for beta in sorted(lattice):
        if (n := count.get(beta)) is None:
            continue
        up = n << width  # beta's faces with one generator added
        low = lattice[beta][0]
        reach = (low & -low or 1 << len(gens)) - 1  # the i < min G_beta: all of them at beta = 0
        out = []
        while reach:
            bit = reach & -reach
            reach ^= bit
            g = gens[bit.bit_length() - 1]
            alpha = g ^ ((beta ^ g) & ((ge := ((beta | guards) - g) & guards) - (ge >> s)))
            if lattice[alpha][0] & (bit - 1):
                continue  # an earlier generator divides alpha: i is not min G_alpha
            count[alpha] = count.get(alpha, 0) + up
            out.append((alpha, bit))
        pushes[beta] = n, out
    return pushes


def _lyubeznik_faces(pushes: dict, wanted: set) -> dict[tuple, list[int]]:
    """alpha -> the bitmasks of the Lyubeznik faces with lcm alpha, for each
    alpha in wanted that is reached, grown along _lyubeznik_pushes.  Faces
    travel only along pushes into elements from which some wanted alpha is
    reached.  The pushes out of beta read only beta, so each face there
    extends to a distinct face at that alpha, and beta holds no more faces
    than it.  Each push extends all of beta's faces in one list
    comprehension.  With nothing wanted no push is walked."""
    if not wanted:
        return {}
    useful = set(wanted)
    for beta, (_, out) in reversed(pushes.items()):
        for alpha, _ in out:
            if alpha in useful:
                useful.add(beta)
                break
    grown: dict[tuple, list[int]] = {}
    faces: dict[tuple, list[int]] = {}
    for beta, (_, out) in pushes.items():
        if beta not in useful:
            continue
        here = faces.pop(beta, [0])  # only 0 gets no push; its one face is the empty one
        if beta in wanted:
            grown[beta] = here
        for alpha, bit in out:
            if alpha in useful:
                faces.setdefault(alpha, []).extend([f | bit for f in here])
    return grown


def _subset_sums(bits: list[int]) -> list[int]:
    """table[s]: the sum of bits[j] over the bits j of s, for s < 2^len(bits),
    built by doubling."""
    table = [0]
    for bit in bits:
        table += [t + bit for t in table]
    return table


_LANES = _subset_sums([1 << 24 * j for j in range(8)])  # _LANES[b]: bit j of the byte b at bit 24j


def _rooting(lattice: dict, m: int) -> list[int]:
    """The generator order the Lyubeznik strands are rooted in: the m
    generators by how many strata of three or more faces have them in
    G_alpha, most first, ties in the given order.  The scores are summed a
    byte of generators at a time: _LANES spreads the byte's 8 bits into
    24-bit lanes, and one sum over the strata adds 8 scores at once.  A
    score is at most |L| <= 2^22, so no lane carries into the next."""
    tops = [top for top, size in lattice.values() if size >= 3]
    score = []
    for shift in range(0, m, 8):
        lanes = sum([_LANES[top >> shift & 255] for top in tops])
        score += [lanes >> 24 * j & 0xFFFFFF for j in range(min(8, m - shift))]
    return sorted(range(m), key=score.__getitem__, reverse=True)  # stable, so ties keep their order


def _relabel(lattice: dict, gens: list, order: list[int]) -> tuple[dict, list]:
    """The lattice and packed generators (_lattice) of the ideal whose j-th
    generator is g_order[j]: its keys and sizes, with each G_alpha mapped
    bit by bit, a byte at a time, through one _subset_sums table per 8
    generators, two at least.  One comprehension reads the first two
    tables, and each further one (past 16 generators) takes one more pass.
    The given order is one more permutation."""
    moved = [0] * len(order)
    for j, i in enumerate(order):
        moved[i] = 1 << j
    low, high, *rest = [_subset_sums(moved[start:start + 8]) for start in range(0, max(len(order), 16), 8)]
    relabelled = {key: (low[top & 255] | high[top >> 8 & 255], size) for key, (top, size) in lattice.items()}
    for shift, table in zip(range(16, len(order), 8), rest):
        relabelled = {key: (out | table[top >> shift & 255], size)
                      for (key, (out, size)), (top, _) in zip(relabelled.items(), lattice.values())}
    return relabelled, [gens[i] for i in order]


def multigraded_betti(I: MonomialIdeal, field=QQ) -> BettiTable:
    """Betti table of S/I: homology dimensions of every lcm-lattice strand.

    A stratum of one or two faces is read off its carried size.  In lattice
    order ``_classify`` reads each larger cone and sphere strand off its R_v
    (see the module docstring), unbuilt, until the first stratum it leaves
    to be built; the eq table it reads is built only when a stratum needs
    it.  If there is none, the table is complete.  Else the lattice is
    always relabelled into the generator order _rooting picks from the
    strata of three or more faces, the Lyubeznik faces are counted by size
    in it, and every stratum from that one on whose faces all have one size
    s, or that has none, is read off: b_{s,alpha} = n_s.  ``_classify``
    reads the other strata left open, and the rest are built, each with its
    count n and k = 2^|supp alpha|: the Lyubeznik strand is ranked when
    n <= k, else K^alpha(I), which has at most k faces.  The faces are
    enumerated only for the strands ranked, if those have at most 2^22
    faces in all, the sum of min(n, k) (else _check_size raises).  With
    shift 0 for Lyubeznik and 1 for Koszul, the face-size-s homology
    n_s - rank(d_s) - rank(d_{s+1}) is b_{s+shift,alpha}.  A field other
    than QQ or a PrimeField raises TypeError first, for every ideal.
    """
    characteristic(field)
    lattice, gens, guards, unpack = _lattice(I)
    eq = None  # built for the first stratum of three or more faces
    entries: dict[tuple, int] = {}
    strata = {}  # packed alpha -> (alpha, G_alpha, or None once classified), from the first to build on
    for key, (top, size) in lattice.items():
        if size == 2:  # {G_alpha - {i}, G_alpha}: the cone on i
            continue
        alpha = unpack(key)
        if size == 1:  # the sphere of singleton blocks
            entries[(top.bit_count(), alpha)] = 1
        elif strata:  # left open: the counts may read it off
            strata[key] = alpha, top
        elif (verdict := _classify(eq := eq or _equal_masks(I), alpha, top)) is None:
            strata[key] = alpha, None
        elif verdict != CONE:
            entries[(verdict, alpha)] = 1
    if not strata:
        return BettiTable(I.ring, entries)
    lattice, gens = _relabel(lattice, gens, _rooting(lattice, I.m))
    pushes = _lyubeznik_pushes(lattice, gens, guards)
    width = I.m + 1
    built = {}  # packed alpha -> (alpha, its Lyubeznik face count, 2^|supp alpha|: K^alpha(I)'s most)
    for key, (alpha, top) in strata.items():
        n = pushes.get(key, (0,))[0]
        s = max(n.bit_length() - 1, 0) // width  # the largest face size
        if not n & (1 << s * width) - 1:  # faces of size s alone, or none: no boundary
            if n:
                entries[(s, alpha)] = n >> s * width
        elif top is None or (verdict := _classify(eq, alpha, top)) is None:
            # n mod 2^width - 1 is the sum of its fields, as 2^width is 1 mod this
            built[key] = alpha, n % ((1 << width) - 1), 1 << sum(map(bool, alpha))
        elif verdict != CONE:
            entries[(verdict, alpha)] = 1
    _check_size(sum(min(n, k) for _, n, k in built.values()), "{} strand faces to rank pass")
    lyubeznik = _lyubeznik_faces(pushes, {key for key, (_, n, k) in built.items() if n <= k})
    for key, (alpha, _, _) in built.items():
        if key in lyubeznik:
            faces, shift = lyubeznik[key], 0
        else:
            faces, shift = _koszul_faces(I.gens, alpha), 1
        by_size, mats = strand_matrices(faces)
        ranks = {s: rank_exact(mat, field) for s, mat in mats.items()}
        for s, level in by_size.items():
            if beta := len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0):
                entries[(s + shift, alpha)] = beta
    return BettiTable(I.ring, entries)


def shifts(I: MonomialIdeal, field=QQ) -> ShiftProfile:
    """Maximal shifts t_a(I) of the minimal resolution of S/I (t_0 = 0)."""
    return multigraded_betti(I, field).shift_profile()


def projdim(I: MonomialIdeal, field=QQ) -> int:
    return multigraded_betti(I, field).projdim


def scarf_is_resolution(I: MonomialIdeal, field=QQ) -> bool:
    """Whether the Scarf complex is already the minimal resolution of S/I
    (its ranks match the Betti numbers; true for generic ideals)."""
    return scarf_complex(I).ranks() == multigraded_betti(I, field).totals()


# ---------------------------------------------------------------------------
# renderings


def format_betti_grid(table: BettiTable) -> str:
    """Macaulay2-style grid: column a, row d - a, cell = coarse rank.  Only
    the rows that hold an entry are printed, under labels as wide as the
    widest of them.  The number columns share one width, 6 or one more than
    the widest cell, total or header."""
    coarse = table.coarse()
    cols = range(table.projdim + 1)
    lines = [("", cols)]
    lines += [(f"{r}:", [coarse.get((a, r + a), ".") for a in cols]) for r in sorted({d - a for a, d in coarse})]
    lines.append(("total:", table.totals()))
    w = max(len(label) for label, _ in lines)
    c = max(6, 1 + max(len(str(x)) for _, cells in lines for x in cells))
    return "\n".join(label.rjust(w) + "".join(f"{x:>{c}}" for x in cells) for label, cells in lines)


def betti_records(table: BettiTable) -> list[dict]:
    """JSON-friendly records, one per nonzero multigraded entry."""
    return [
        {"a": a, "mdeg": list(mdeg), "rank": r}
        for (a, mdeg), r in sorted(table.entries.items())
    ]
