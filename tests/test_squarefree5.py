"""Every squarefree monomial ideal in five variables, as an exhaustive oracle.

They are the 7579 nonempty antichains of nonempty subsets of {1..5}: the
Dedekind number M(5) = 7581, less the empty antichain and {empty set}.  By
Hochster's formula their Betti numbers are the homology of induced
subcomplexes on at most five vertices, none of which has torsion, so the
tables must agree in every characteristic.
"""

from collections import Counter

import pytest

from shiftlab import (
    MonomialIdeal,
    PrimeField,
    QQ,
    Ring,
    check_subadditivity_profile,
    minimalize,
    multigraded_betti,
    taylor_complex,
)

RING5 = Ring("abcde")
GF2 = PrimeField(2)


def antichains(subsets: list[int]) -> list[list[int]]:
    """Every antichain of the given bitmasks, the empty one included: each
    subset is taken or not, and taken only when comparable to none taken."""
    out = []

    def grow(start: int, chosen: list[int]) -> None:
        out.append(list(chosen))
        for k in range(start, len(subsets)):
            s = subsets[k]
            if all(s & c not in (s, c) for c in chosen):
                chosen.append(s)
                grow(k + 1, chosen)
                chosen.pop()

    grow(0, [])
    return out


@pytest.fixture(scope="module")
def squarefree5():
    return [MonomialIdeal(RING5, [tuple(s >> v & 1 for v in range(5)) for s in chain])
            for chain in antichains(list(range(1, 32))) if chain]


def test_there_are_7579(squarefree5):
    assert len(squarefree5) == 7579
    assert len(set(squarefree5)) == 7579
    assert max(I.m for I in squarefree5) == 10


def test_tables_agree_with_each_other_and_with_taylor(squarefree5):
    # QQ and GF(2) give one table, the multidegrees of the minimalized Taylor
    # complex over GF(2), and no violation of t_{a+b} <= t_a + t_b
    for I in squarefree5:
        table = multigraded_betti(I, QQ)
        assert multigraded_betti(I, GF2).entries == table.entries, I
        minimal = minimalize(taylor_complex(I), GF2)
        assert Counter((a, be.mdeg) for a, mod in enumerate(minimal.modules)
                       for be in mod) == table.entries, I
        assert all(r.holds for r in check_subadditivity_profile(table.shift_profile())), I
