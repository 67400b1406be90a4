import pytest

from dyngcd.arith_core import (
    crt_pair,
    factorize,
    lcm_checked,
    sieve_primes,
)


def test_sieve_primes():
    assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(2).tolist() == [2]
    assert sieve_primes(1).tolist() == []


def test_factorize():
    f = factorize(360)
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.prime_set() == (2, 3, 5)
    assert factorize(1).factors == ()
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_large_prime():
    # appears as an orbit factor later; trial division must get it right
    assert factorize(45833).factors == ((45833, 1),)


def test_lcm_checked():
    assert lcm_checked(6, 4) == 12
    assert lcm_checked(1, 9) == 9
    assert lcm_checked(2**63, 2) == 2**63
    # past the 64-bit ceiling the overflow is reported, not raised
    assert lcm_checked(2**40, 3**30) is None


# CRT over non-coprime moduli is the backbone of the progression merging

def test_crt_pair_coprime():
    r, m = crt_pair(2, 3, 3, 5)
    assert (r, m) == (8, 15)


def test_crt_pair_overlapping():
    assert crt_pair(2, 4, 6, 8) == (6, 8)
    assert crt_pair(1, 4, 2, 8) is None
    assert crt_pair(0, 6, 3, 4) is None


def test_crt_pair_solution_is_valid():
    for a, ma, b, mb in [(1, 6, 4, 9), (5, 12, 11, 18), (0, 7, 3, 5)]:
        sol = crt_pair(a, ma, b, mb)
        if sol is None:
            continue
        r, m = sol
        assert r % ma == a % ma
        assert r % mb == b % mb
        assert 0 <= r < m
