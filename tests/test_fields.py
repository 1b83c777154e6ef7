"""The primality test behind PrimeField, checked against deterministic
Miller-Rabin, the bounds PrimeField puts on its prime, and that a field
cannot change once built."""

import pytest

from shiftlab import QQ, PrimeField
from shiftlab.fields import _is_prime, characteristic, field_from_spec


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
