import hashlib
import random
from types import SimpleNamespace

import pytest

from shiftlab import MonomialIdeal, Ring
from shiftlab import randomgen
from shiftlab.randomgen import random_corpus, random_ideal, random_ideal_stream


class NoDraws(random.Random):
    """An rng that fails the test on any draw, so that a contract check
    placed after the first draw shows up as an error, not as a hang."""

    def random(self):
        raise AssertionError("drew before validating")

    def getrandbits(self, k):
        raise AssertionError("drew before validating")


BAD = [
    dict(n=3, m=2, maxexp=0),  # every draw is the zero vector: the loop never ended
    dict(n=0, m=2, maxexp=2),
    dict(n=-1, m=2, maxexp=2),
    dict(n=27, m=2, maxexp=2),  # past the 26-letter variable pool
    dict(n=3, m=-1, maxexp=2),
    dict(n=3.0, m=2, maxexp=2),
    dict(n=3, m=True, maxexp=2),
]


@pytest.mark.parametrize("kwargs", BAD, ids=repr)
def test_random_ideal_rejects_before_drawing(kwargs):
    with pytest.raises(ValueError, match="must be an int"):
        random_ideal(NoDraws(), **kwargs)


@pytest.mark.parametrize("kwargs", BAD + [dict(n=3, m=2, maxexp=2, count=-2)], ids=repr)
def test_random_stream_rejects_when_called(kwargs):
    # raised by the call itself: the stream is never iterated, so never drawn from
    kwargs = {"count": 1, **kwargs}
    with pytest.raises(ValueError, match="must be an int"):
        random_ideal_stream(1, **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(count=2.5),  # was rounded up to 3 ideals by the draw loop
    dict(count=True),  # was 1 ideal
    dict(count=-1),
    dict(count=2, max_n=1),
    dict(count=2, max_n=27),
    dict(count=2, max_n=4.0),
    dict(count=2, max_m=0),
    dict(count=2, max_m=False),
    dict(count=2, maxexp=0),
    dict(count=2, maxexp="4"),
], ids=repr)
def test_random_corpus_rejects_before_drawing(kwargs, monkeypatch):
    # the corpus makes its own rng from the seed: hand it one that fails on any draw
    monkeypatch.setattr(randomgen, "random", SimpleNamespace(Random=NoDraws))
    with pytest.raises(ValueError, match="must be an int"):
        random_corpus(1, **kwargs)


def test_random_corpus_valid_edges():
    assert random_corpus(1, 0) == []
    # the smallest bounds the check accepts still draw, and as before
    corpus = random_corpus(1, 3, max_n=2, max_m=1, maxexp=1)
    assert [I.gens for I in corpus] == [((1, 0),), ((1, 1),), ((1, 0),)]


def test_random_valid_edges():
    assert random_ideal(random.Random(1), 26, 2, 1).ring.n == 26
    zero = random_ideal(NoDraws(), 3, 0, 1)  # m = 0 needs no draw
    assert zero is not None and zero.is_zero
    assert list(random_ideal_stream(1, 0, 3, 2, 2)) == []


def test_random_draws_pinned():
    # valid inputs consume the rng as they always did: the corpus and the
    # random ledger depend on it
    assert [I.gens for _, I in random_ideal_stream(5, 3, 3, 3, 2)] == [
        ((2, 1, 2), (1, 2, 2), (2, 2, 0)),
        ((2, 1, 0), (1, 1, 2), (2, 0, 1)),
        ((0, 0, 2), (2, 1, 1), (1, 2, 1)),
    ]
    rng = random.Random(1)
    assert random_ideal(rng, 2, 4, 1) is None  # no 4-antichain in a 2x2 box
    assert rng.random() == 0.02982978171882844


# --- the draw against the rule it replaced -----------------------------------

def _old_random_ideal(minimalize, rng, n, m, maxexp, retries=200):
    # the retry loop before the early-exit test: a full minimalization per draw
    ring = Ring(randomgen._VAR_POOL[:n])
    for _ in range(retries):
        vecs = []
        while len(vecs) < m:
            v = tuple(rng.randint(0, maxexp) for _ in range(n))
            if any(v):
                vecs.append(v)
        if len(minimalize(vecs)) == m:
            return MonomialIdeal(ring, vecs)
    return None


# (n, m, maxexp): feasible boxes, and boxes with no m-antichain, which use up
# every retry and return None.  Each exponent takes getrandbits(k) words,
# k = (maxexp + 1).bit_length(), until one is <= maxexp: maxexp = 3 and 7
# reject half the words (k = 3, 4), maxexp = 1000 takes k = 10
DRAW_GRID = [(1, 1, 1), (1, 2, 3), (2, 2, 1), (2, 4, 1), (2, 3, 2), (3, 0, 1), (3, 3, 1),
             (3, 4, 1), (3, 5, 2), (4, 6, 1), (4, 7, 3), (6, 8, 4), (8, 5, 6),
             (5, 6, 3), (4, 3, 7), (3, 3, 1000), (26, 2, 1)]


@pytest.mark.parametrize("seed", range(4))
def test_random_ideal_matches_old_rule(old_minimalize, seed):
    nones = 0
    for n, m, maxexp in DRAW_GRID:
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):  # later draws start from a used rng
            new = random_ideal(new_rng, n, m, maxexp)
            old = _old_random_ideal(old_minimalize, old_rng, n, m, maxexp)
            assert getattr(new, "gens", None) == getattr(old, "gens", None), (n, m, maxexp)
            assert new_rng.getstate() == old_rng.getstate(), (n, m, maxexp)
            nones += new is None
    assert nones >= 3 * 3  # (1, 2, 3), (2, 4, 1) and (3, 4, 1) never succeed


def test_random_corpus_pinned(corpus):
    # sha256 of the generators of random_corpus(20260810, 500), the conftest corpus
    text = repr([I.gens for I in corpus])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "13488bdc460dbfe932debde5ae5b0630a81ab9094f0561b3215b1b42e0e09c9f")


def test_demo_corpus_pinned():
    # the corpus of demos/random_search.py; maxexp = 3 draws getrandbits(3) and
    # rejects every word >= 4, half of them
    corpus = random_corpus(7, 200, max_n=5, max_m=6, maxexp=3)
    text = repr([I.gens for I in corpus])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "17cba82e7c8a94d581c8ec6c2b567bb9a540f7df66ef5bf30893d0ad7bc8ecae")
