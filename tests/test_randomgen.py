import random

import pytest

from shiftlab.randomgen import random_ideal, random_ideal_stream


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
    dict(n=3, m=2, maxexp=2, retries=0),
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
