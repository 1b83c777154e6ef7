"""Seeded random monomial ideals for property suites and conjecture probing."""

from __future__ import annotations

import random
from operator import le

from .monomials import MonomialIdeal, Ring, _check_ints

_VAR_POOL = "abcdefghijklmnopqrstuvwxyz"
_RETRIES = 200  # draws per ideal before random_ideal returns None


def _check_draw(n, m, maxexp, count=0) -> None:
    """The draw contract, checked before any draw: 1 <= n <= 26 (the variable
    pool), m >= 0, maxexp >= 1 and count >= 0, all ints.  With maxexp = 0 or
    n < 1 every draw is the zero vector and the antichain loop never ends."""
    _check_ints(("n", n, 1, len(_VAR_POOL)), ("m", m, 0, None), ("maxexp", maxexp, 1, None),
                ("count", count, 0, None))


def random_ideal(rng: random.Random, n: int, m: int, maxexp: int) -> MonomialIdeal | None:
    """One ideal with exactly m minimal generators in n variables, exponents
    in [0, maxexp], or None when _RETRIES (200) draws never produce an
    m-element antichain (e.g. m larger than the box allows).

    Each draw is m nonzero vectors; it is kept when minimalizing them keeps
    all m, that is, when they are distinct and pairwise incomparable.  The
    test stops at the first duplicate or the first ordered pair g <= h, so a
    rejected draw costs no full minimalization.

    Each exponent is ``r = rng.getrandbits(k)`` with ``k = (maxexp +
    1).bit_length()``, drawn again while ``r > maxexp``.  That is
    ``Random._randbelow_with_getrandbits(maxexp + 1)``, the rule behind
    ``randrange(maxexp + 1)`` and ``randint(0, maxexp)`` (CPython 3.10 to
    3.13), written inline so no Python function is called per exponent; it
    takes the same words, so seeds give the same ideals as before.  A subclass of
    ``random.Random`` that overrides ``random()`` but not ``getrandbits()``
    has a ``randrange`` built on ``random()``, so its stream differs here."""
    _check_draw(n, m, maxexp)
    ring = Ring(_VAR_POOL[:n])
    bits, k = rng.getrandbits, (maxexp + 1).bit_length()
    for _ in range(_RETRIES):
        vecs = []
        while len(vecs) < m:
            v = []
            for _ in range(n):
                r = bits(k)
                while r > maxexp:
                    r = bits(k)
                v.append(r)
            v = tuple(v)
            if any(v):
                vecs.append(v)
        if len(set(vecs)) == m and not any(
            g is not h and all(map(le, g, h)) for g in vecs for h in vecs
        ):
            return MonomialIdeal(ring, vecs)
    return None


def random_ideal_stream(seed: int, count: int, n: int, m: int, maxexp: int):
    """Deterministic stream of (index, ideal-or-None); one rng drives all draws.
    Bad parameters raise ValueError here, before the stream is iterated."""
    _check_draw(n, m, maxexp, count)
    rng = random.Random(seed)
    return ((index, random_ideal(rng, n, m, maxexp)) for index in range(count))


def random_corpus(seed: int, count: int, max_n: int = 6, max_m: int = 8, maxexp: int = 4):
    """A mixed-size corpus: n is drawn from [2, max_n], then m from
    [1, max_m], or from [1, min(max_m, 5)] when n = 2 (5 is the width of the
    2-variable box only at the default maxexp = 4).  No other (n, m) is
    capped: one whose box has no m-antichain, or whose antichains are rarely
    drawn, returns None from ``random_ideal`` after its 200 draws and is
    redrawn, and m = 1 always succeeds, so the loop ends.  count >= 0,
    2 <= max_n <= 26, max_m >= 1 and maxexp >= 1 must be ints; they are
    checked before any draw and raise ``ValueError`` otherwise."""
    _check_ints(("count", count, 0, None), ("max_n", max_n, 2, len(_VAR_POOL)),
                ("max_m", max_m, 1, None), ("maxexp", maxexp, 1, None))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        cap = min(max_m, 5 if n == 2 else max_m)
        m = rng.randint(1, cap)
        ideal = random_ideal(rng, n, m, maxexp)
        if ideal is not None:
            out.append(ideal)
    return out
