"""Seeded random monomial ideals for property suites and conjecture probing."""

from __future__ import annotations

import random

from .monomials import MonomialIdeal, Ring, minimalize_generators

_VAR_POOL = "abcdefghijklmnopqrstuvwxyz"


def _check_draw(n, m, maxexp, retries, count=0) -> None:
    """The draw contract, checked before any draw: 1 <= n <= 26 (the variable
    pool), m >= 0, maxexp >= 1, retries >= 1 and count >= 0, all ints.  With
    maxexp = 0 or n < 1 every draw is the zero vector and the antichain loop
    never ends."""
    for name, value, lo, hi in (("n", n, 1, len(_VAR_POOL)), ("m", m, 0, None),
                                ("maxexp", maxexp, 1, None), ("retries", retries, 1, None),
                                ("count", count, 0, None)):
        if type(value) is not int or value < lo or (hi is not None and value > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise ValueError(f"{name} must be an int {bound}, got {value!r}")


def random_ideal(
    rng: random.Random, n: int, m: int, maxexp: int, retries: int = 200
) -> MonomialIdeal | None:
    """One ideal with exactly m minimal generators in n variables, exponents
    in [0, maxexp], or None when ``retries`` draws never produce an
    m-element antichain (e.g. m larger than the box allows)."""
    _check_draw(n, m, maxexp, retries)
    ring = Ring(_VAR_POOL[:n])
    for _ in range(retries):
        vecs = []
        while len(vecs) < m:
            v = tuple(rng.randint(0, maxexp) for _ in range(n))
            if any(v):
                vecs.append(v)
        if len(minimalize_generators(vecs)) == m:
            return MonomialIdeal(ring, vecs)
    return None


def random_ideal_stream(
    seed: int, count: int, n: int, m: int, maxexp: int, retries: int = 200
):
    """Deterministic stream of (index, ideal-or-None); one rng drives all draws.
    Bad parameters raise ValueError here, before the stream is iterated."""
    _check_draw(n, m, maxexp, retries, count)
    rng = random.Random(seed)
    return ((index, random_ideal(rng, n, m, maxexp, retries)) for index in range(count))


def random_corpus(seed: int, count: int, max_n: int = 6, max_m: int = 8, maxexp: int = 4):
    """A mixed-size corpus: n and m are drawn per instance (m kept feasible
    for the box so the antichain retry loop terminates)."""
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
