"""The primality test behind PrimeField, checked against deterministic
Miller-Rabin, the bounds PrimeField puts on its prime, that a field
cannot change once built, and the pivot step eliminate against the general
update it shortcuts."""

import copy
import random
from fractions import Fraction

import pytest

from shiftlab import QQ, PrimeField
from shiftlab.fields import _is_prime, characteristic, eliminate, field_from_spec


def miller_rabin(p):
    """_is_prime before trial division: deterministic Miller-Rabin with the
    bases 2, 3, 5 and 7, valid for p < 3_215_031_751.  The oracle."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def test_trial_division_matches_miller_rabin_up_to_200000():
    assert [p for p in range(200001) if _is_prime(p) != miller_rabin(p)] == []


def test_carmichael_numbers_are_composite():
    # Fermat liars to every coprime base; (6k+1)(12k+1)(18k+1) with all three
    # factors prime is one (Chernick), and so is each of the listed ones
    listed = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041]
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 120)
                if all(miller_rabin(f) for f in (6 * k + 1, 12 * k + 1, 18 * k + 1))]
    chernick = [n for n in chernick if n < 2**31]
    assert chernick[:3] == [1729, 294409, 56052361] and len(chernick) > 5
    for n in listed + chernick:
        assert pow(2, n - 1, n) == 1
        assert not _is_prime(n) and not miller_rabin(n), n


def test_trial_division_matches_miller_rabin_near_2_31():
    near = range(2**31 - 2000, 2**31)
    primes = [p for p in near if miller_rabin(p)]
    assert primes[-1] == 2**31 - 1
    assert [p for p in near if _is_prime(p) != miller_rabin(p)] == []
    # products of two primes just below isqrt(2**31): the last divisor tried
    roots = [p for p in range(46000, 46341) if miller_rabin(p)][-4:]
    semiprimes = [p * q for p in roots for q in roots if p <= q]
    assert max(semiprimes) < 2**31
    assert not any(_is_prime(n) or miller_rabin(n) for n in semiprimes)


def test_prime_field_bounds():
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    assert PrimeField(2).p == 2
    for bad in (-3, 0, 1, 4, 561, 2**31, 2**61 - 1, True, 3.0):
        with pytest.raises(ValueError, match="not a prime below 2|p must be an int"):
            PrimeField(bad)


def test_fields_cannot_be_changed():
    # once, PrimeField(7).p = 8 succeeded, and Betti then ran over "GF(8)"
    gf = PrimeField(7)
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        gf.p = 8
    with pytest.raises(AttributeError, match="cannot delete field 'p'"):
        del gf.p
    assert gf == PrimeField(7) and repr(gf) == "GF(7)" and characteristic(gf) == 7
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        QQ.p = 3
    assert not hasattr(QQ, "p") and characteristic(QQ) == 0


def test_only_fields_have_a_characteristic():
    with pytest.raises(TypeError, match="not a coefficient field"):
        characteristic(object())


def test_field_spec_is_q_or_a_prime():
    assert field_from_spec(" QQ ") is QQ and field_from_spec("p:7") == PrimeField(7)
    with pytest.raises(ValueError, match="unknown field spec 'r'"):
        field_from_spec("r")


def general_rule(pivot, c, lines, index, p):
    """eliminate with no shortcut: every line in index[c] takes f times the
    pivot line off, f its entry at c over the pivot's, whatever the pivot
    line holds besides c.  The inverse rule is eliminate's."""
    v = pivot.pop(c)
    inv = pow(v, -1, p) if p else v if v in (1, -1) else Fraction(1, v)
    changed = index.pop(c)
    for k in changed:
        line = lines[k]
        f = line.pop(c) * inv % p if p else line.pop(c) * inv
        for j, x in pivot.items():
            y = (line.get(j, 0) - f * x) % p if p else line.get(j, 0) - f * x
            if y:
                if j not in line:
                    index[j].add(k)
                line[j] = y
            else:
                del line[j]
                index[j].discard(k)
    return changed


def typed(lines):
    return {k: {j: (type(x), x) for j, x in line.items()} for k, line in lines.items()}


def assert_eliminate_is_the_general_rule(pivot, c, lines, p):
    index = {j: set() for j in {*pivot, *(j for line in lines.values() for j in line)}}
    for k, line in lines.items():
        for j in line:
            index[j].add(k)
    state = (pivot, lines, index)
    fast, slow = copy.deepcopy(state), copy.deepcopy(state)
    changed = eliminate(fast[0], c, fast[1], fast[2], p)
    assert changed == general_rule(slow[0], c, slow[1], slow[2], p) == {k for k in lines if c in lines[k]}
    assert (fast[0], typed(fast[1]), fast[2]) == (slow[0], typed(slow[1]), slow[2])
    return fast[1], fast[2]


@pytest.mark.parametrize("p", [0, 3], ids=["QQ", "GF(3)"])
def test_a_one_entry_pivot_only_drops_its_position(p):
    # the pivot line holds only position 2: each line holding 2 loses it and
    # keeps its other entries, coefficient objects included
    two = 2 if p else Fraction(2)
    lines = {0: {2: 1, 0: two, 5: 1}, 1: {2: two}, 3: {0: 1, 5: two}, 4: {2: 1, 1: 1}}
    after, index = assert_eliminate_is_the_general_rule({2: two}, 2, lines, p)
    assert after == {0: {0: two, 5: 1}, 1: {}, 3: {0: 1, 5: two}, 4: {1: 1}}
    assert type(after[0][0]) is type(two) and index == {0: {0, 3}, 5: {0, 3}, 1: {4}}


@pytest.mark.parametrize("p", [0, 3], ids=["QQ", "GF(3)"])
def test_eliminate_matches_the_general_rule_on_random_lines(p):
    rng = random.Random(20261022)
    values = [1, 2] if p else [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
    ones = 0
    for _ in range(400):
        lines = {k: {j: rng.choice(values) for j in rng.sample(range(6), rng.randrange(4))}
                 for k in rng.sample(range(8), rng.randrange(1, 6))}
        c = rng.randrange(6)
        pivot = {c: rng.choice(values)}
        if rng.random() < 0.5:
            pivot.update((j, rng.choice(values)) for j in rng.sample(range(6), 2) if j != c)
        ones += len(pivot) == 1
        lines = {k: line for k, line in lines.items() if c in line or rng.random() < 0.5}
        assert_eliminate_is_the_general_rule(pivot, c, lines, p)
    assert ones > 150
