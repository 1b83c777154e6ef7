"""Exponent-vector arithmetic and monomial ideals.

A multidegree is a plain tuple of non-negative ints, one slot per ring
variable in declaration order.  Everything here is exact integer work:
divisibility is componentwise <=, the lcm of monomials is the
componentwise max of their exponent vectors.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from operator import attrgetter, le
from typing import Iterable, NoReturn, Sequence

Multidegree = tuple[int, ...]

_DIGITS = "[0-9]+"
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FACTOR_RE = re.compile(rf"({_NAME_RE.pattern})(?:\^({_DIGITS}))?")


def ascii_int(text: str, signed: bool = False) -> int:
    """The int written in ASCII digits, with one leading ``-`` if ``signed``.

    This is the one digit rule of every numeric input: exponents in the
    ideal text format, CLI options and vectors, and field primes.  int()
    alone also reads '1_0', ' 2', '+2' and full-width digits.
    """
    if not re.fullmatch(("-?" if signed else "") + _DIGITS, text):
        raise ValueError(f"{text!r} is not ASCII digits")
    return int(text)


class ContractError(ValueError, TypeError):
    """The error of every input contract (integers, multidegrees, columns):
    a ValueError, and a TypeError as Python's comparisons raised for some."""


def _length_mismatch(n: int, k: int, prefix: str = "") -> NoReturn:
    """Raise the one error of every length check on multidegrees."""
    raise ContractError(f"{prefix}length mismatch: {n} vs {k}")


def _check_ints(*specs) -> None:
    """The one integer rule, for each (name, x) or (name, x, lo, hi) spec:
    ``type(x) is int`` (so no bool, IntEnum member or float), and
    lo <= x <= hi where given (hi None: no upper bound), else ContractError."""
    for name, x, *bounds in specs:
        lo, hi = bounds or (None, None)
        if type(x) is not int or lo is not None and x < lo or hi is not None and x > hi:
            bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
            raise ContractError(f"{name} must be an int{bound}, got {x!r}")


def _check_mdeg(v, n: int, name: str = "") -> None:
    """The one multidegree rule: n plain ints >= 0 (see _check_ints), else
    ContractError, with _length_mismatch's message for a wrong length.  A
    name, such as "generator", leads the message."""
    if len(v) != n:
        _length_mismatch(n, len(v), f"{name} {tuple(v)}: " if name else "")
    if not all(type(e) is int and e >= 0 for e in v):
        raise ContractError(f"{name} exponents must be ints >= 0, got {tuple(v)!r}".lstrip())


class IdealSyntaxError(ValueError):
    """Raised for malformed monomial text or ideal files."""


_set = object.__setattr__  # how an immutable object's __init__ writes its fields


class _Frozen:
    """Base of every value whose constructor checks it: the records, the
    ideals, the complexes and the fields.

    The constructor writes each slot with ``_set``; after it, no field can be
    assigned or deleted, so a value stays as its constructor checked it.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """Base of the immutable value records (Ring, BasisElement, ShiftProfile,
    VerifyReport, InequalityReport, SymbolicBound, GoldenRow, PrimeField).

    A subclass lists its fields in ``__slots__``, in positional order, and
    its ``__init__`` takes them in that order and writes each with ``_set``.
    Two records are equal when they have the same type and equal fields, and
    they hash by their fields; repr is ``Name(field=value, ...)``; pickle and
    copy rebuild a record by calling its type on its fields, so through its
    constructor's checks.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields read in one C call: the value of a lone field, else a tuple
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Ring(_Record):
    """An ordered list of variable names; fixes the slot order of all vectors."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("ring needs at least one variable")
        seen = set()
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        _set(self, "names", names)

    @property
    def n(self) -> int:
        return len(self.names)

    def zero(self) -> Multidegree:
        return (0,) * len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __repr__(self):
        return f"Ring({' '.join(self.names)})"


def parse_monomial(text: str, ring: Ring) -> Multidegree:
    """Parse ``x^2*w^2*v^2``-style text into an exponent vector.

    Factors are ``var`` or ``var^k`` with k >= 1 written in ASCII digits,
    joined by ``*``; the bare string ``1`` is the trivial monomial.  Repeated
    variables accumulate.
    """
    text = text.strip()
    if not text:
        raise IdealSyntaxError("empty monomial")
    if text == "1":
        return ring.zero()
    exps = [0] * ring.n
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise IdealSyntaxError(f"empty factor in {text!r}")
        m = _FACTOR_RE.fullmatch(factor)
        if not m:
            raise IdealSyntaxError(
                f"malformed factor {factor!r} (expected var or var^k, k in ASCII digits)"
            )
        name, exp_text = m.groups()
        if name not in ring.names:
            raise IdealSyntaxError(f"unknown variable {name!r}")
        try:
            k = 1 if exp_text is None else int(exp_text)
        except ValueError:  # past int()'s limit on digits
            raise IdealSyntaxError(f"exponent too long in {factor!r}") from None
        if k < 1:
            raise IdealSyntaxError(f"exponent must be >= 1 in {factor!r}")
        exps[ring.index(name)] += k
    return tuple(exps)


def format_monomial(mdeg: Multidegree, ring: Ring) -> str:
    """Inverse of parse_monomial; the zero vector prints as ``1``."""
    _check_mdeg(mdeg, ring.n)
    parts = []
    for name, e in zip(ring.names, mdeg):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def divides(a: Multidegree, b: Multidegree) -> bool:
    """x^a divides x^b, i.e. a <= b componentwise."""
    _check_mdeg(a, len(a))
    _check_mdeg(b, len(a))
    return all(x <= y for x, y in zip(a, b))


def join(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise max; the exponent vector of lcm(x^a, x^b)."""
    _check_mdeg(a, len(a))
    _check_mdeg(b, len(a))
    return tuple(x if x >= y else y for x, y in zip(a, b))


def total_degree(a: Multidegree) -> int:
    _check_mdeg(a, len(a))
    return sum(a)


def support(a: Multidegree) -> tuple[int, ...]:
    """Indices of the variables that occur in the monomial."""
    _check_mdeg(a, len(a))
    return tuple(i for i, e in enumerate(a) if e)


def minimalize_generators(gens: Iterable[Multidegree]) -> list[Multidegree]:
    """Keep only the <=-minimal vectors, deduplicated, in first-seen order.
    Vectors of different lengths raise ``ValueError``."""
    gens = list(dict.fromkeys(tuple(g) for g in gens))
    for g in gens:
        if len(g) != len(gens[0]):
            _length_mismatch(len(gens[0]), len(g))
    # after deduplication, h is not g exactly when h != g
    return [g for g in gens if not any(h is not g and all(map(le, h, g)) for h in gens)]


class MonomialIdeal(_Frozen):
    """A monomial ideal, stored as its minimal generating exponent vectors.

    Construction validates and minimalizes the generators (first-seen input
    order of the survivors is kept, since downstream face indices and signs
    are tied to generator order).  The unit ideal is rejected; the zero
    ideal (no generators) is fine.  Instances are immutable.
    """

    __slots__ = ("ring", "gens")

    def __init__(self, ring: Ring, gens: Iterable[Sequence[int]]):
        vecs = []
        for g in gens:
            v = tuple(g)
            _check_mdeg(v, ring.n, "generator")
            if not any(v):
                raise ValueError("unit ideal rejected (generator 1)")
            vecs.append(v)
        _set(self, "ring", ring)
        _set(self, "gens", tuple(minimalize_generators(vecs)))

    def __reduce__(self):
        # pickle and copy rebuild the ideal through the validating constructor
        return MonomialIdeal, (self.ring, self.gens)

    @property
    def m(self) -> int:
        return len(self.gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and set(self.gens) == set(other.gens)
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.gens)))

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal(0) in {self.ring}"
        gens = ", ".join(format_monomial(g, self.ring) for g in self.gens)
        return f"MonomialIdeal({gens})"


def restrict_ideal(I: MonomialIdeal, alpha: Multidegree) -> MonomialIdeal:
    """The subideal generated by every monomial of I whose exponent vector
    is <= alpha; equals the span of the generators below alpha, since any
    monomial of I below alpha is divisible by such a generator."""
    mask = generators_below(I, alpha)
    return MonomialIdeal(I.ring, [g for i, g in enumerate(I.gens) if mask >> i & 1])


def generators_below(I: MonomialIdeal, alpha: Multidegree) -> int:
    """Bitmask of the minimal generators <= alpha: bit i is I.gens[i]."""
    _check_mdeg(alpha, I.ring.n)
    mask = 0
    for i, g in enumerate(I.gens):
        if all(map(le, g, alpha)):
            mask |= 1 << i
    return mask


def is_covering_pair(I: MonomialIdeal, alpha: Multidegree, beta: Multidegree) -> bool:
    """True iff I equals the sum of its restrictions below alpha and beta,
    i.e. every minimal generator is <= alpha or <= beta."""
    _check_mdeg(alpha, I.ring.n)
    _check_mdeg(beta, I.ring.n)
    return all(all(map(le, g, alpha)) or all(map(le, g, beta)) for g in I.gens)


def height(I: MonomialIdeal) -> int:
    """Codimension of I: the minimum number of variables meeting the support
    of every minimal generator (minimum vertex cover of the support
    hypergraph; the minimal primes of a monomial ideal are variable-generated).

    Exhaustive branch-and-bound; fine at desk scale (m, n <= 20).
    """
    if I.is_zero:
        raise ValueError("height of the zero ideal is undefined")
    supports = sorted(
        {frozenset(support(g)) for g in I.gens}, key=lambda s: (len(s), sorted(s))
    )
    # dropping supersets is safe: hitting a subset hits the superset too
    supports = [
        s for s in supports if not any(t < s for t in supports)
    ]
    best = I.ring.n

    def descend(chosen: set, todo: list):
        nonlocal best
        todo = [s for s in todo if not s & chosen]
        if not todo:
            best = min(best, len(chosen))
            return
        if len(chosen) + 1 >= best:
            return
        for v in sorted(todo[0]):
            descend(chosen | {v}, todo[1:])

    descend(set(), supports)
    return best


def contains_all_pure_powers(I: MonomialIdeal) -> bool:
    """True iff every variable has a pure-power generator (dim S/I = 0)."""
    return len(pure_power_exponents(I)) == I.ring.n


def pure_power_exponents(I: MonomialIdeal) -> dict[int, int]:
    """Map variable index -> exponent of its pure-power generator, where one exists."""
    out = {}
    for g in I.gens:
        s = support(g)
        if len(s) == 1:
            out[s[0]] = g[s[0]]
    return out


# ---------------------------------------------------------------------------
# ideal files: a tiny text format and a JSON equivalent


@contextmanager
def _malformed_as_syntax_error():
    """Both loaders build their Ring and MonomialIdeal inside this block, so a
    bad variable list or generator surfaces as the IdealSyntaxError of
    malformed input rather than a bare ValueError."""
    try:
        yield
    except ValueError as exc:
        raise IdealSyntaxError(str(exc)) from None


def parse_ideal_text(text: str) -> MonomialIdeal:
    """Parse the ideal text format::

        # comment
        vars: x y z u v w a
        x^2*w^2*v^2
        x^5

    Line 1 (ignoring comments/blanks) declares the variables; every further
    non-comment line is one monomial in parse_monomial syntax.
    """
    ring = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            if not line.startswith("vars:"):
                raise IdealSyntaxError(f"line {lineno}: expected 'vars:' header")
            with _malformed_as_syntax_error():
                ring = Ring(line[len("vars:"):].split())
            continue
        try:
            gens.append(parse_monomial(line, ring))
        except IdealSyntaxError as exc:
            raise IdealSyntaxError(f"line {lineno}: {exc}") from None
    if ring is None:
        raise IdealSyntaxError("missing 'vars:' header")
    with _malformed_as_syntax_error():
        return MonomialIdeal(ring, gens)


def format_ideal_text(I: MonomialIdeal) -> str:
    lines = ["vars: " + " ".join(I.ring.names)]
    lines += [format_monomial(g, I.ring) for g in I.gens]
    return "\n".join(lines) + "\n"


def ideal_from_json(obj: dict) -> MonomialIdeal:
    """Build an ideal from ``{"vars": [...], "gens": [[exponents], ...]}``."""
    try:
        names, gens = obj["vars"], obj["gens"]
        if not (isinstance(names, list) and isinstance(gens, list)
                and all(isinstance(g, list) for g in gens)):
            raise IdealSyntaxError("bad ideal JSON: vars, gens and each generator must be lists")
        with _malformed_as_syntax_error():
            return MonomialIdeal(Ring(names), gens)
    except (KeyError, TypeError) as exc:
        raise IdealSyntaxError(f"bad ideal JSON: {exc}") from None


def ideal_to_json(I: MonomialIdeal) -> dict:
    return {"vars": list(I.ring.names), "gens": [list(g) for g in I.gens]}


def loads_ideal(text: str) -> MonomialIdeal:
    """Parse either format: JSON if the text starts with ``{``, else text."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an int literal too long to read, or nesting too deep
            raise IdealSyntaxError(f"bad JSON: {exc}") from None
        return ideal_from_json(obj)
    return parse_ideal_text(text)


def load_ideal(path) -> MonomialIdeal:
    """Read an ideal file in either format; text that is not UTF-8 is malformed."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise IdealSyntaxError(f"not UTF-8: {exc}") from None
    return loads_ideal(text)
