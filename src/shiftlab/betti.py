"""Exact Betti numbers of S/I via fixed-multidegree strand homology.

Tensoring the Taylor complex with the base field splits it by multidegree:
the strand at alpha has one basis vector per generator subset whose lcm is
exactly alpha, and a boundary term survives only when dropping a generator
keeps the lcm.  The a-th homology dimension of that strand is the Betti
number b_{a,alpha}(S/I), computed from two exact matrix ranks.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd

from .complexes import GENERATOR_CAP, ShiftProfile, _face_lcms, scarf_complex
from .fields import PrimeField, QQ
from .monomials import MonomialIdeal, total_degree


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


def rank_exact(M: list[list], field=QQ) -> int:
    """Exact rank of a matrix over the rationals (Bareiss) or over GF(p)."""
    rows = [list(r) for r in M]
    if not rows or not rows[0]:
        return 0
    if isinstance(field, PrimeField):
        return _rank_modp([[int(x) for x in r] for r in rows], field.p)
    cleared = []
    for r in rows:
        fr = [Fraction(x) for x in r]
        scale = 1
        for x in fr:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        cleared.append([int(x * scale) for x in fr])
    return _rank_bareiss(cleared)


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


def strand_matrices(masks: list[int], alpha: tuple, lcm: list[tuple]):
    """Boundary matrices of one strand.

    masks are the face bitmasks with lcm exactly alpha; returns
    (by_size, mats) with by_size[a] the size-a masks (ascending) and
    mats[a] the 0/±1 boundary matrix from size a into size a-1, built only
    when both sides are nonempty.  The sign of dropping the k-th smallest
    member is (-1)^k with k counted from 0.
    """
    by_size: dict[int, list[int]] = defaultdict(list)
    for mask in masks:
        by_size[mask.bit_count()].append(mask)
    mats: dict[int, list[list[int]]] = {}
    for a, level in by_size.items():
        below = by_size.get(a - 1)
        if not below:
            continue
        rowidx = {mask: i for i, mask in enumerate(below)}
        mat = [[0] * len(level) for _ in below]
        for j, fmask in enumerate(level):
            k = 0
            rest = fmask
            while rest:
                low = rest & -rest
                sub = fmask ^ low
                if lcm[sub] == alpha:
                    mat[rowidx[sub]][j] = -1 if k & 1 else 1
                k += 1
                rest ^= low
        mats[a] = mat
    return dict(by_size), mats


def multigraded_betti(I: MonomialIdeal, field=QQ, cap: int = GENERATOR_CAP) -> BettiTable:
    """Betti table of S/I: homology dimensions of every lcm-lattice strand.

    b_{a,alpha} = n_a - rank(d_a) - rank(d_{a+1}) on the strand at alpha.
    Strands are independent; they are walked in lexicographic multidegree
    order so the output is reproducible.
    """
    lcm = _face_lcms(I, cap)
    strata: dict[tuple, list[int]] = defaultdict(list)
    for mask in range(1 << I.m):
        strata[lcm[mask]].append(mask)
    entries: dict[tuple, int] = {}
    for alpha in sorted(strata):
        by_size, mats = strand_matrices(strata[alpha], alpha, lcm)
        ranks = {a: rank_exact(mat, field) for a, mat in mats.items()}
        for a, level in by_size.items():
            beta = len(level) - ranks.get(a, 0) - ranks.get(a + 1, 0)
            if beta:
                entries[(a, alpha)] = beta
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
