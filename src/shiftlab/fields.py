"""Coefficient fields for exact linear algebra: the rationals and GF(p).

A field object is immutable and only names its characteristic; GF(p) is a
record, so pickle and copy check p again.  The exact routines read it through
``characteristic`` and do their int arithmetic, mod p over GF(p), in
``eliminate``, the one pivot step that ``rank_exact`` and ``minimalize`` share.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .monomials import _check_ints, _Frozen, _Record, _set, ascii_int


def _is_prime(p: int) -> bool:
    """Trial division up to isqrt(p): below PrimeField's bound of 2**31 that
    is at most 46340 divisors, about 4 ms on a 2-core Xeon VM."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


class Rationals(_Frozen):
    """The rationals: coefficients are ints, or Fractions where needed."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(_Record):
    """Coefficients modulo a prime p < 2**31, stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        _check_ints(("p", p, 2, 2**31 - 1))
        if not _is_prime(p):
            raise ValueError(f"not a prime below 2**31: {p!r}")
        _set(self, "p", p)

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def characteristic(field) -> int:
    """0 for QQ, p for GF(p); any other object raises TypeError."""
    if isinstance(field, PrimeField):
        return field.p
    if isinstance(field, Rationals):
        return 0
    raise TypeError(f"not a coefficient field: {field!r}")


def eliminate(pivot: dict, c, lines, index: dict, p: int) -> set:
    """Clear position c from every line in ``index[c]`` with the pivot line.

    Lines are sparse dicts {position: coefficient} and ``index[j]`` holds the
    keys of the lines with an entry at j; the caller has taken the pivot out
    of both.  The one inverse rule: pow(v, -1, p) over GF(p), and over QQ
    (p = 0) v itself for v = ±1, else Fraction(1, v).  A pivot line that
    holds only c (most of minimalize's) adds nothing to the lines it
    clears, so each just loses its entry at c, with no inverse taken.  Pops
    c from ``pivot`` and ``index``; returns the keys of the changed lines,
    some maybe empty.
    """
    v = pivot.pop(c)
    changed = index.pop(c)
    if not pivot:
        for k in changed:
            del lines[k][c]
        return changed
    inv = pow(v, -1, p) if p else v if v in (1, -1) else Fraction(1, v)
    for k in changed:
        line = lines[k]
        f = line.pop(c) * inv
        if p:
            f %= p
        for j, x in pivot.items():
            y = line.get(j, 0) - f * x
            if p:
                y %= p
            if y:
                if j not in line:
                    index[j].add(k)
                line[j] = y
            else:
                del line[j]
                index[j].discard(k)
    return changed


def field_from_spec(spec: str):
    """Parse a field choice: ``q`` for rationals, ``p:<prime>`` for GF(p)."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rationals"):
        return QQ
    if s.startswith("p:"):
        try:
            p = ascii_int(s[2:])
        except ValueError:
            raise ValueError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'p:<prime>')")
