"""Multigraded free chain complexes over a polynomial ring.

A complex stores, per homological degree a, a tuple of basis elements
(label + multidegree) and, for a >= 1, a sparse differential into degree
a-1.  Differentials are column-major: ``diffs[a][j]`` is the tuple of
``(row, coeff)`` entries of basis element j of module a.  Multigraded
homogeneity pins an entry's monomial to x^(mdeg(column) - mdeg(row)), so
it is read off the basis and never stored; homogeneity is also what keeps
single-term sparse entries closed under all the operations here.  Taylor
faces grow past their last member, Scarf faces come off the lcm lattice
(_lattice), and _face_complex assembles both; no 2^m table is built.  Their
columns, and the Betti strands', come from _columns, the one facet rule.
The lattice keeps its multidegrees packed, one int each with a W-byte
field per variable and a 0 guard bit atop each field, joined by one SWAR
max; _lattice hands out the packing with it, and the Scarf basis unpacks
to tuples only the multidegrees of its faces.

A complex cannot change, so its entries may be shared, and the builders of
large complexes hand out one ``(row, coeff)`` tuple per distinct entry, not
one per place it occurs.  _columns gives each row of a face level its two
signed entries, which every column dropping that facet reuses;
restrict_complex reads every restriction of a complex off one table of
entries kept with its index; and complex_from_json shares equal entries of
a dump.  Only minimalize, whose minimal output is small, makes one per
entry.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from operator import itemgetter, le, mul

from .fields import QQ, characteristic, eliminate
from .monomials import (ContractError, MonomialIdeal, _check_ints, _check_mdeg, _Frozen,
                        _length_mismatch, _Record, _set)

GENERATOR_CAP = 22  # the one size limit, 2^22: Taylor faces, lattice elements, strand faces ranked
CLOSURE_ORDER_FROM = 12  # _lattice adds the generators by exponent overlap from this many on


class CapExceededError(RuntimeError):
    """Over 2^GENERATOR_CAP Taylor faces, lattice elements or strand faces to rank."""


def _check_size(count: int, what: str, *args) -> None:
    """The one size limit: a count above 2^GENERATOR_CAP raises CapExceededError,
    whose message, what.format(count, *args), is made only then."""
    if count > 1 << GENERATOR_CAP:
        raise CapExceededError(f"{what.format(count, *args)} the limit 2^{GENERATOR_CAP}")


class BasisElement(_Record):
    """One free summand: a label (face tuple or opaque id) and its multidegree,
    checked here, where a complex's multidegrees are made (and then reused)."""

    __slots__ = ("label", "mdeg")

    def __init__(self, label: tuple, mdeg: tuple):
        _check_mdeg(mdeg, len(mdeg))
        _set(self, "label", label)
        _set(self, "mdeg", mdeg)

    @property
    def degree(self) -> int:
        return sum(self.mdeg)


class ShiftProfile(_Record):
    """Maximal shifts (t_0, ..., t_p): t_a is the largest total degree of a
    basis element in homological degree a, and p is the index of the last
    nonzero module."""

    __slots__ = ("shifts",)

    def __init__(self, shifts: tuple[int, ...]):
        _set(self, "shifts", shifts)

    @property
    def projdim(self) -> int:
        return len(self.shifts) - 1

    def __getitem__(self, a: int) -> int:
        return self.shifts[a]

    def __len__(self) -> int:
        return len(self.shifts)

    def __iter__(self):
        return iter(self.shifts)

    def __str__(self):
        return " ".join(str(t) for t in self.shifts)


class FreeComplex(_Frozen):
    """Finite complex of multigraded free modules with sparse differentials.

    The constructor is the one place the shape of a complex is checked:
    module 0, one differential slot per module (``diffs[0]`` empty), one
    column per basis element, and basis multidegrees of one length (else
    ``length mismatch: n vs k``, the two shortest).  It drops trailing empty
    modules (module 0 stays) and stores each column as a tuple (a tuple is
    kept, not copied).  The rows the entries name are checked once per
    complex, with the column rule, in the scan kept on it (``_scan``):
    minimalize, is_minimal, restrict_complex and complex_to_json raise on a
    row that is no index of the module one level down (_check_rows);
    verify_complex reports one from its own pass.

    A complex is immutable all the way down: ``modules`` is a tuple of
    tuples of immutable basis elements, ``diffs`` a tuple of tuples of
    column tuples of ``(row, coeff)`` entries, and no field can be assigned
    or deleted.  So the shape stays as checked, and what is kept on the
    complex on first use never goes stale: the index restrict_complex reads
    (``_index``) and the scan the column and row rules read (``_scan``).  The
    entries are kept as given, unchecked (a Taylor complex on 14 generators
    has 114688), so they must be tuples, as every builder makes them: a list
    entry would stay mutable.  Being immutable, one entry tuple may stand in
    many columns and in many complexes: entries are shared between the
    columns of a complex and between the restrictions of one complex (see
    the module docstring).  Pickle and copy carry the modules and columns
    only.
    """

    __slots__ = ("modules", "diffs", "_index", "_scan")

    def __init__(self, modules, diffs):
        if not modules:
            raise ValueError("a complex needs module 0")
        if len(diffs) != len(modules):
            raise ValueError("need one differential slot per module (diffs[0] unused)")
        modules = tuple(tuple(mod) for mod in modules)
        for a, (mod, d) in enumerate(zip(modules, diffs)):
            if len(d) != (len(mod) if a else 0):
                want = f"one per basis element of module {a}" if a else "none"
                raise ValueError(f"diffs[{a}] has {len(d)} columns; it needs {want}")
        lengths = {len(be.mdeg) for mod in modules for be in mod}
        if len(lengths) > 1:
            _length_mismatch(*sorted(lengths)[:2])
        top = len(modules)
        while top > 1 and not modules[top - 1]:
            top -= 1
        _set(self, "modules", modules[:top])
        _set(self, "diffs", tuple(tuple(map(tuple, d)) for d in diffs[:top]))
        _set(self, "_index", None)
        _set(self, "_scan", None)

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(mod) for mod in self.modules)

    def __repr__(self):
        return f"FreeComplex(ranks={self.ranks()})"

    def __reduce__(self):
        return FreeComplex, (self.modules, self.diffs)


def _lattice(I: MonomialIdeal) -> tuple:
    """The lcm lattice by join closure, 0 included, with its packing:
    (lattice, gens, guards, unpack).  lattice maps packed alpha -> (G_alpha,
    size), with G_alpha the bitmask of the generators <= alpha and size the
    number of generator subsets whose lcm is alpha; gens are the generators
    packed, guards the guard bits H of the join below, and unpack(key) the
    tuple of one.  Keys stay packed: callers unpack only what leaves the
    engine.

    A packed multidegree is one int with a W-byte field per variable,
    variable 0 most significant, where W = e.bit_length() // 8 + 1 for the
    largest generator exponent e, so the top bit of every field, its guard
    bit, is 0 in every packed value.  Packing is monotone and lexicographic:
    sorted ints are sorted tuples.  For W = 1 packing a generator is
    int.from_bytes(bytes(g)) and unpacking tuple(key.to_bytes()), one C
    call each; wider fields are packed by bytes and unpacked by shifts.
    The join is one SWAR max, written out where it is taken (here and in
    betti._lyubeznik_pushes): with H the guard bits and s = 8W - 1, the
    place of H's lowest bit, ge = ((x | H) - y) & H holds the guard bit of
    each field where x is at least y (no field borrows from the next), and
    x v y = y ^ ((x ^ y) & (ge - (ge >> s))) takes from x the fields that
    ge - (ge >> s) fills.

    Generator i joins every element found from the generators added before
    it: the subsets holding i and lcm alpha' are those with i added to the
    subsets of lcm alpha, over the alpha that g_i joins to alpha'.  So the
    sizes add, and G_alpha' is the union of those G_alpha with bit i (the
    lcm of the earlier generators <= alpha' is one such alpha).  Every
    element found is in the final lattice, so time and memory follow it,
    not 2^m.  A step at most doubles it, so _check_size refuses it from over
    2^(GENERATOR_CAP - 1), which the first GENERATOR_CAP steps cannot pass.

    A step takes one join per element found so far, sum_i |L_(i-1)| in all,
    so the order the generators are added in matters, though each keeps its
    own bit i and the lattice is the same mapping in every order; only its
    insertion order moves.  From CLOSURE_ORDER_FROM generators on, they are
    added by decreasing overlap sum_v g_v * c_v with the column sums c_v of
    the exponents (a stable sort: ties in the given order), so generators
    that share much exponent with the others go first.  On the ideals
    measured that keeps the early lattices small: a seeded edge ideal of 26
    edges on 18 vertices takes 46974 joins against 222447 in the given
    order, S14 1121 against 1259.  Below the gate the sort costs more than
    it saves: _lattice in this order over the given one, over 20 random
    ideals each (two runs), took 1.15, 1.06-1.07, 0.97-1.02, 0.91 and 0.94
    of the time at m = 6, 8, 10, 12 and 14 (n = 6, exponents up to 5), and
    1.21, 1.12-1.17, 0.98-1.04, 0.97-0.98 and 0.94 for squarefree ideals in
    10 variables."""
    n, m = I.ring.n, I.m
    w = (max(map(max, I.gens)) if I.gens else 0).bit_length() // 8 + 1
    s = 8 * w - 1
    guards = int.from_bytes((1 << s).to_bytes(w, "big") * n, "big")
    if w == 1:
        gens = [int.from_bytes(bytes(g), "big") for g in I.gens]
        unpack = lambda key: tuple(key.to_bytes(n, "big"))
    else:
        gens = [int.from_bytes(b"".join([e.to_bytes(w, "big") for e in g]), "big") for g in I.gens]
        unpack = lambda key: tuple([key >> k & (1 << s) - 1 for k in range(8 * w * (n - 1), -1, -8 * w)])
    order = range(m)
    if m >= CLOSURE_ORDER_FROM:
        columns = [sum(col) for col in zip(*I.gens)]
        order = sorted(order, key=lambda i: sum(map(mul, I.gens[i], columns)), reverse=True)

    lattice = {0: (0, 1)}
    for step, i in enumerate(order):
        if step >= GENERATOR_CAP:  # before this step the lattice has at most 2^step elements
            _check_size(2 * len(lattice), "lcm lattice of {1} elements after {2} of {3} generators "
                        "could pass", len(lattice), step, m)
        g, bit = gens[i], 1 << i
        for key, (mask, size) in list(lattice.items()):
            top = g ^ ((key ^ g) & ((ge := ((key | guards) - g) & guards) - (ge >> s)))
            had, count = lattice.get(top, (0, 0))
            lattice[top] = (had | mask | bit, count + size)
    return lattice, gens, guards, unpack


def _facet_index(masks) -> dict[int, tuple]:
    """The facets _columns reads: the j-th bitmask of masks -> the two
    entries ((j, 1), (j, -1)) of row j, which every column shares."""
    return {mask: ((j, 1), (j, -1)) for j, mask in enumerate(masks)}


def _columns(level, index: dict) -> list[tuple[tuple[int, int], ...]]:
    """One boundary column per face bitmask in level: the entry (j, (-1)^k)
    of dropping its k-th smallest member (k from 0), smallest first, over
    the facets that index (_facet_index) holds; k's parity picks which of
    the facet's two entries."""
    cols = []
    for mask in level:
        col, k, rest = [], 0, mask
        while rest:
            low = rest & -rest
            if (pair := index.get(mask ^ low)) is not None:
                col.append(pair[k])
            k, rest = k ^ 1, rest ^ low
        cols.append(tuple(col))
    return cols


def _face_complex(levels) -> FreeComplex:
    """The Taylor differential on the faces of levels, read once: the s-th
    holds the (bitmask, sorted members, mdeg) of each size-s face in order.
    Columns come from _columns; a missing facet raises ValueError."""
    modules, diffs, index = [], [], {}
    for s, level in enumerate(levels):
        masks = [mask for mask, _, _ in level]
        cols = _columns(masks, index)
        for (mask, face, _), col in zip(level, cols):
            if len(col) < s:
                facet = next(f for i in face if (f := mask ^ 1 << i) not in index)
                raise ValueError(f"a size-{s} face has no facet {facet:#b} one size down")
        modules.append([BasisElement(face, mdeg) for _, face, mdeg in level])
        diffs.append(cols if s else [])
        index = _facet_index(masks)
    return FreeComplex(modules, diffs)


def taylor_complex(I: MonomialIdeal) -> FreeComplex:
    """The Taylor complex of I: module a has one basis element per a-subset
    of the generators, with multidegree the lcm of its members.

    The boundary of a face drops one member at a time: the term for the
    k-th smallest index carries sign (-1)^(k-1) and monomial
    lcm(F)/lcm(F minus that member).  The result resolves S/I.  Each face
    grows by every generator i past its last member, with lcm the join of
    its own with g_i, taken once per distinct pair (1259 joins for S14),
    after its 2^m faces pass _check_size."""
    _check_size(1 << I.m, "Taylor complex of {} faces passes")

    def levels():  # one at a time, so the assembler holds no more than two
        level, joined = [(0, (), I.ring.zero())], {}
        while level:
            yield level
            grown = []
            for mask, face, top in level:
                for i in range(face[-1] + 1 if face else 0, I.m):
                    lcm = joined.get((top, i))
                    if lcm is None:
                        lcm = joined[top, i] = tuple(x if x >= e else e for x, e in zip(top, I.gens[i]))
                    grown.append((mask | 1 << i, face + (i,), lcm))
            level = grown
    return _face_complex(levels())


def scarf_complex(I: MonomialIdeal) -> FreeComplex:
    """The Scarf complex: the Taylor faces whose lcm no other subset attains,
    with the Taylor differential restricted to them, each size in
    lexicographic order.  They are the lattice elements alpha of stratum
    size 1, each with face G_alpha: the one subset with lcm alpha lies in
    G_alpha, so G_alpha has lcm alpha too and is that subset.  A facet of a
    Scarf face is Scarf, so _face_complex finds every boundary term."""
    levels = [[] for _ in range(I.m + 1)]
    lattice, _, _, unpack = _lattice(I)
    for key, (mask, size) in lattice.items():
        if size == 1:
            face = tuple(i for i in range(I.m) if mask >> i & 1)
            levels[mask.bit_count()].append((mask, face, unpack(key)))
    return _face_complex(sorted(level, key=itemgetter(1)) for level in levels)


_BITS = bytes.maketrans(b"01", b"\0\1")  # bin() digits -> 0/1 flags for compress


def _restriction_index(modules: tuple, diffs: tuple) -> tuple:
    """(n, levels, codes) for restrict_complex: n is the length of every
    basis multidegree (None if there are none); levels[a][v] the pair (E, P)
    of module a and variable v, with E the sorted distinct exponents of x_v
    and P[i] the bitmask of the basis elements whose x_v exponent is at most
    E[i - 1] (P[0] = 0); and codes[a] the columns of d_a (none for a = 0)
    with each entry (row, c) held as (row, entries), where entries[i] is the
    entry (i, c).  That entry table has one list per coefficient of d_a,
    keyed by type and value, so that 1 and Fraction(1) stay apart, and one
    tuple in it per row of module a-1."""
    n = next((len(be.mdeg) for mod in modules for be in mod), None)
    levels = []
    for mod in modules:
        by_exp = [{} for _ in range(n or 0)]
        for j, be in enumerate(mod):
            bit = 1 << j
            for groups, e in zip(by_exp, be.mdeg):
                groups[e] = groups.get(e, 0) | bit
        level = []
        for groups in by_exp:
            exps, prefix = sorted(groups), [0]
            for e in exps:
                prefix.append(prefix[-1] | groups[e])
            level.append((exps, prefix))
        levels.append(level)
    codes = [()]
    for below, cols in zip(modules, diffs[1:]):
        table, coded = {}, []
        for col in cols:
            code = []
            for row, c in col:
                if (entries := table.get(key := (type(c), c))) is None:
                    entries = table[key] = [(i, c) for i in range(len(below))]
                code.append((row, entries))
            coded.append(tuple(code))
        codes.append(coded)
    return n, levels, codes


def restrict_complex(F: FreeComplex, alpha: tuple) -> FreeComplex:
    """The subcomplex on basis elements with multidegree <= alpha.

    Homogeneity makes this closed: any entry of a retained column points at
    a row of smaller multidegree, which is retained too.  Restriction of a
    minimal complex is minimal (no entries are created).

    The first call on F checks its rows (_check_rows: else ContractError)
    and indexes it (see _restriction_index), and keeps the index on F; F
    cannot change, so the index never goes stale.  Each call
    then finds a module's kept elements, in basis order, as the AND over the
    variables v of the prefix masks P[bisect_right(E, alpha[v])], and takes
    each kept entry (row, c), renumbered to (i, c), from the index's entry
    table: every restriction of F shares those tuples, and each keeps the
    coefficient objects of F's type.  The build costs more than testing
    every element once, so this pays off on a complex restricted many times.
    """
    if F._index is None:
        _check_rows(F)
        _set(F, "_index", _restriction_index(F.modules, F.diffs))
    n, levels, codes = F._index
    _check_mdeg(alpha, len(alpha) if n is None else n)
    modules, diffs, remap = [], [], None
    for a, (mod, level) in enumerate(zip(F.modules, levels)):
        mask = (1 << len(mod)) - 1
        for (exps, prefix), x in zip(level, alpha):
            mask &= prefix[bisect_right(exps, x)]
            if not mask:
                break
        flags = bin(mask)[:1:-1].encode().translate(_BITS)
        modules.append(tuple(compress(mod, flags)))
        try:
            diffs.append([tuple([entries[remap[row]] for row, entries in col])
                          for col in compress(codes[a], flags)] if a else [])
        except KeyError:
            raise ValueError(
                "restriction not closed: input complex is not homogeneous"
            ) from None
        remap = dict(zip(compress(range(len(mod)), flags), range(len(mod))))
    return FreeComplex(modules, diffs)


class VerifyReport(_Record):
    """The verdict of verify_complex: ``ok``, or the first ``problem`` found
    and its ``location`` (level, column, row)."""

    __slots__ = ("ok", "problem", "location")

    def __init__(self, ok: bool, problem: str | None = None, location: tuple | None = None):
        _set(self, "ok", ok)
        _set(self, "problem", problem)
        _set(self, "location", location)

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "complex ok: d^2 = 0 and all entries homogeneous"
        return f"complex INVALID at {self.location}: {self.problem}"


def _column_scan(levels) -> tuple[frozenset, tuple | None]:
    """What the column rule reads of levels of columns in the
    ``FreeComplex.diffs`` format, in one pass whatever the field: the set of
    coefficient types, and the (level, column, row) of the first row that a
    column repeats, or None."""
    types = frozenset({type(c) for cols in levels for col in cols for _, c in col})
    for a, cols in enumerate(levels):
        if sum(map(len, map(dict, cols))) != sum(map(len, cols)):  # a dict keeps one entry per row
            j, col = next((j, col) for j, col in enumerate(cols) if len(dict(col)) != len(col))
            return types, (a, j, next(r for k, (r, _) in enumerate(col) if r in dict(col[:k])))
    return types, None


def _scanned(F: FreeComplex) -> tuple:
    """What the column and row rules read of F, made on first use and kept
    on F (F cannot change), so each complex is scanned once: the
    _column_scan of its columns, and the (level, column, row) of the first
    entry of a d_a whose row is no index of module a-1, or None.  The row
    rule is read first, and the column scan never hashes a row that is not
    an int: each stands for itself, a repeat of nothing."""
    if F._scan is None:
        strays = [(a, j, row) for a, n in enumerate(map(len, F.modules[:-1]), 1)
                  for j, col in enumerate(F.diffs[a])
                  for row, _ in col if type(row) is not int or not 0 <= row < n]
        diffs = F.diffs
        if any(type(row) is not int for _, _, row in strays):
            diffs = [[[(r if type(r) is int else object(), c) for r, c in col] for col in level]
                     for level in diffs]
        _set(F, "_scan", (_column_scan(diffs), strays[0] if strays else None))
    return F._scan


def _check_rows(F: FreeComplex) -> None:
    """The row rule of a complex, read off its scan (_scanned): each row of
    d_a an int in range(len(module a-1)), else ContractError naming the
    level, column and row."""
    if at := _scanned(F)[1]:
        raise ContractError("level %d column %d has row %r, not an int in range(%d)"
                            % (*at, len(F.modules[at[0] - 1])))


def _repeated_row(scan: tuple, p: int) -> tuple | None:
    """The one column rule of every boundary matrix, read off a _column_scan
    of its columns: each coeff an int, or over QQ (p = 0) an int or a
    Fraction, else ContractError; and each row once in a column.  Returns a
    repeat's (level, column, row), or None if none."""
    types, at = scan
    allowed = {int} if p else {int, Fraction}
    if bad := types - allowed:
        names = lambda types: " or ".join(sorted(t.__name__ for t in types))
        raise ContractError(f"coefficients in characteristic {p} must be {names(allowed)}, not {names(bad)}")
    return at


def _check_columns(scan: tuple, p: int) -> None:
    """The column rule (_repeated_row) as an error: a repeat raises ContractError."""
    if at := _repeated_row(scan, p):
        raise ContractError("column %d repeats row %d" % at[1:])


def verify_complex(F: FreeComplex, field=QQ) -> VerifyReport:
    """Check the column rule (_repeated_row), the row rule (_check_rows),
    multigraded homogeneity of every entry and that consecutive
    differentials compose to zero.  Failures are reported, not raised, a
    repeated row first, then in entry order a row that is not an int, out
    of range or not homogeneous; a coefficient outside the column rule
    raises ContractError, whatever else is wrong.

    Pass the complex's coefficient field: over GF(p) d∘d only vanishes mod p.
    """
    p = characteristic(field)
    scan, stray = _scanned(F)  # stray: the first row off the row rule, else None and no row is
    if at := _repeated_row(scan, p):
        return VerifyReport(False, "column repeats a row", at)
    for a in range(1, len(F.modules)):
        below = [be.mdeg for be in F.modules[a - 1]]
        for j, (col, be) in enumerate(zip(F.diffs[a], F.modules[a])):
            top = be.mdeg
            for row, _ in col:
                if stray and (type(row) is not int or not 0 <= row < len(below)):
                    problem = "row index out of range" if type(row) is int else "row is not an int"
                    return VerifyReport(False, problem, (a, j, row))
                # divides(below[row], top), inlined: FreeComplex checked the lengths
                if not all(map(le, below[row], top)):
                    return VerifyReport(
                        False, "entry multidegree breaks homogeneity", (a, j, row)
                    )
    for a in range(2, len(F.modules)):
        prev = F.diffs[a - 1]
        for j, col in enumerate(F.diffs[a]):
            # every d∘d term landing on row2 carries the monomial
            # x^(mdeg(j) - mdeg(row2)), so the row alone keys the sum
            acc: dict[int, object] = {}
            get = acc.get
            for row, coeff in col:
                for row2, coeff2 in prev[row]:
                    acc[row2] = get(row2, 0) + coeff * coeff2
            for row2, total in acc.items():
                if (total % p if p else total) != 0:
                    return VerifyReport(
                        False, "d∘d has a nonzero entry", (a, j, row2)
                    )
    return VerifyReport(True)


def is_minimal(F: FreeComplex) -> bool:
    """Minimal means no nonzero entry joins a row and column of equal
    multidegree.  The rows must keep the row rule (_check_rows), else
    ContractError."""
    _check_rows(F)
    return not any(
        coeff != 0 and F.modules[a - 1][row].mdeg == F.modules[a][j].mdeg
        for a in range(1, len(F.modules))
        for j, col in enumerate(F.diffs[a])
        for row, coeff in col
    )


def shifts_of_complex(F: FreeComplex) -> ShiftProfile:
    """Maximal total degree per module, up to the last nonzero one (the last
    module of F: FreeComplex drops trailing empty modules)."""
    return ShiftProfile(tuple(max((be.degree for be in mod), default=0) for mod in F.modules))


def minimalize(F: FreeComplex, field=QQ) -> FreeComplex:
    """Cancel invertible differential entries until none remain.

    A pivot is an entry whose column and row basis elements share a
    multidegree (so its monomial is 1) with nonzero coefficient.
    Cancelling it splits off a trivial two-term summand: fields.eliminate,
    the step rank_exact clears its pivots with too, runs the classic update
    M[g',f'] -= M[g,f']*M[g',f]/M[g,f] on the pivot's level, the pivot
    column f leaves module a and the pivot row g leaves module a-1.  Levels
    are cancelled in increasing a, each on a sparse matrix built when its
    turn comes: rows already cancelled as columns one level down are left
    out of it, and the finished level below just omits g from the output.
    Homology is unchanged; on a resolution the output is minimal, so its
    ranks are the Betti numbers.

    F must be homogeneous, as every builder makes it and verify_complex
    checks.  Each level is then one pass over its rows in increasing order,
    pivoting at row g on its smallest column f of equal multidegree, if
    any.  That leaves no pivot behind, because a pivot made by cancelling
    (g, f) sits at some (g2, f2) with mdeg(g2) <= mdeg(f) = mdeg(g) <=
    mdeg(f2), all equal, so (g2, f) was a pivot too and g2 > g.

    The pivots follow (level, row, column) order, which makes the output
    deterministic; surviving basis elements keep their input labels.  The
    rows must keep the row rule (_check_rows) and the columns the column
    rule (_repeated_row), else ContractError; over GF(p) coefficients are
    read mod p.  Over QQ only a non-unit pivot c brings in a Fraction, as
    Fraction(1, c).
    """
    p = characteristic(field)
    _check_rows(F)
    _check_columns(_scanned(F)[0], p)
    dead = [set() for _ in F.modules]  # the cancelled elements of each module
    cols = [[]]  # cols[a][f]: the live entries {row: coeff} of column f of d_a
    for a in range(1, len(F.modules)):
        gone, below, here = dead[a - 1], F.modules[a - 1], [be.mdeg for be in F.modules[a]]
        level, rows = [{} for _ in here], {}
        for f, col in enumerate(F.diffs[a]):
            for g, coeff in col:
                c = coeff % p if p else coeff
                if c and g not in gone:
                    level[f][g] = c
                    rows.setdefault(g, set()).add(f)
        for g in sorted(rows):  # no pivot is left behind: see the docstring
            if (f := min((j for j in rows[g] if here[j] == below[g].mdeg), default=None)) is None:
                continue
            pivot, level[f] = level[f], {}
            for g2 in pivot:
                rows[g2].discard(f)
            eliminate(pivot, g, level, rows, p)
            dead[a].add(f)
            gone.add(g)
        cols.append(level)

    modules, diffs, index = [], [], {}
    for a, mod in enumerate(F.modules):
        alive = [j for j in range(len(mod)) if j not in dead[a]]
        modules.append([mod[j] for j in alive])
        diffs.append([tuple([(index[g], cols[a][j][g]) for g in sorted(cols[a][j])])
                      for j in alive] if a else [])
        index = {j: i for i, j in enumerate(alive)}  # new index of each survivor
    return FreeComplex(modules, diffs)


def star_shift_bound(Fa: FreeComplex, Fb: FreeComplex, a: int) -> int | None:
    """Best degree bound for homological degree a of the pairing of two
    complexes: max of t_i(Fa) + t_j(Fb) over splits i + j = a.  Only the
    basis-level bound is computed (a paired basis element's multidegree is
    the join of its factors, so its degree is at most the sum).  Returns
    None when no split exists (a negative or beyond both lengths)."""
    _check_ints(("a", a))
    ta = shifts_of_complex(Fa)
    tb = shifts_of_complex(Fb)
    lo = max(0, a - tb.projdim)
    hi = min(ta.projdim, a)
    if lo > hi:
        return None
    return max(ta[i] + tb[a - i] for i in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# JSON dump format (used by the CLI `dump` subcommand and golden tests); the
# "mdeg" of each differential entry is column - row, and loading checks it
# along with the shape ("modules" and "differentials" lists of equal length,
# of lists of objects), the entry's "col" and "row" (ints in range), the basis
# labels (lists), the basis multidegrees (lists of non-negative ints, all of
# one length), each "coeff" (a string n or n/d in ASCII digits, d nonzero)
# and each column (no row twice); a missing key fails the check of its value

_COEFF_RE = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")


def _entry_mdeg(modules: list, a: int, j: int, row: int) -> list:
    return [x - y for x, y in zip(modules[a][j].mdeg, modules[a - 1][row].mdeg)]


def complex_to_json(F: FreeComplex) -> dict:
    """The dump of F; its rows must keep the row rule (_check_rows), else ContractError."""
    _check_rows(F)
    return {
        "modules": [
            [{"label": list(be.label), "mdeg": list(be.mdeg)} for be in mod]
            for mod in F.modules
        ],
        "differentials": [
            [
                {"col": j, "row": row, "coeff": str(coeff),
                 "mdeg": _entry_mdeg(F.modules, a, j, row)}
                for j, col in enumerate(level)
                for row, coeff in col
            ]
            for a, level in enumerate(F.diffs)
        ],
    }


def _lists_of_objects(x) -> bool:
    return type(x) is list and all(type(y) is list and all(type(z) is dict for z in y) for y in x)


def complex_from_json(obj: dict) -> FreeComplex:
    """Load a dump made by ``complex_to_json``; a malformed one raises ``ValueError``."""
    if not (type(obj) is dict and _lists_of_objects(obj.get("modules"))
            and _lists_of_objects(obj.get("differentials"))
            and len(obj["modules"]) == len(obj["differentials"])):
        raise ValueError('dump needs "modules" and "differentials", lists of equal length '
                         "of lists of objects")
    basis = [be for mod in obj["modules"] for be in mod]
    if any(type(be.get("label")) is not list or type(be.get("mdeg")) is not list for be in basis):
        raise ValueError("dump basis labels and basis mdegs must be lists")
    for be in basis:  # the lengths here; BasisElement checks the values
        if (k := len(be["mdeg"])) != (n := len(basis[0]["mdeg"])):
            _length_mismatch(n, k, f"dump basis mdegs {tuple(be['mdeg'])}: ")
    try:
        modules = [
            [BasisElement(tuple(be["label"]), tuple(be["mdeg"])) for be in mod]
            for mod in obj["modules"]
        ]
    except ContractError as exc:
        raise ContractError(f"dump basis mdegs {exc}") from None
    diffs, shared = [], {}  # shared: (row, coeff text) -> its one entry
    for a, level in enumerate(obj["differentials"]):
        cols = [[] for _ in modules[a]] if a else []
        for ent in level:
            j, row, mdeg, text = ent.get("col"), ent.get("row"), ent.get("mdeg"), ent.get("coeff")
            try:
                _check_ints(("col", j, 0, len(cols) - 1), ("row", row, 0, len(modules[a - 1]) - 1))
                if type(mdeg) is not list or mdeg != _entry_mdeg(modules, a, j, row):
                    raise ValueError("mdeg must be a list of ints equal to column - row")
                _check_ints(*(("mdeg entry", e) for e in mdeg))
                if type(text) is not str or not _COEFF_RE.fullmatch(text):
                    raise ValueError(f"coeff {text!r} is not n or n/d")
            except ValueError as exc:
                raise type(exc)(f"dump entry {(a, j, row)}: {exc}") from None
            if (entry := shared.get((row, text))) is None:
                coeff = Fraction(text)
                entry = shared[row, text] = (row, int(coeff) if coeff.denominator == 1 else coeff)
            cols[j].append(entry)
        diffs.append(cols)
    _check_columns(_column_scan(diffs), 0)
    return FreeComplex(modules, diffs)


def dumps_complex(F: FreeComplex) -> str:
    return json.dumps(complex_to_json(F), sort_keys=True)
