import pytest

from harmonic_census import (
    DomainError,
    PrimeModulus,
    divisors,
    find_primitive_root,
    is_prime,
    multiplicative_order,
    primes_up_to,
)

import oracles


def test_is_prime_small():
    assert is_prime(7)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(2) and is_prime(3)
    assert not is_prime(561)  # Carmichael number
    assert is_prime(2**31 - 1)
    with pytest.raises(DomainError):
        is_prime(0)


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(5000))
    for n in range(1, 5000):
        assert is_prime(n) == (n in sieve)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]
    with pytest.raises(DomainError):
        divisors(0)


def test_divisors_match_trial_division():
    for n in range(1, 5001):
        assert divisors(n) == oracles.divisors_trial(n)
    for n in (2**31 - 2, 1470268800, 19999998):
        assert divisors(n) == oracles.divisors_trial(n)


def test_divisors_pairing():
    for n in range(1, 500):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % k == 0 for k in ds)
        assert sorted(n // k for k in ds) == ds


def test_prime_modulus():
    m = PrimeModulus(11)
    with pytest.raises(DomainError):
        PrimeModulus(9)
    with pytest.raises(DomainError):
        PrimeModulus(2**31 + 11)


def test_find_primitive_root_examples():
    assert find_primitive_root(PrimeModulus(2)).g == 1
    assert find_primitive_root(PrimeModulus(5)).g == 2
    # 2 has order 3 mod 7, 3 has order 6
    assert multiplicative_order(2, PrimeModulus(7)) == 3
    assert find_primitive_root(PrimeModulus(7)).g == 3


def test_find_primitive_root_cached():
    first = find_primitive_root(PrimeModulus(1009))
    assert find_primitive_root(PrimeModulus(1009)) is first
    assert first.g == 11


def test_primitive_root_order_for_all_primes_to_10000():
    for N in primes_up_to(10**4):
        m = PrimeModulus(N)
        root = find_primitive_root(m)
        assert multiplicative_order(root.g, m) == N - 1


def test_multiplicative_order_examples():
    m7 = PrimeModulus(7)
    assert multiplicative_order(1, m7) == 1
    assert multiplicative_order(2, m7) == 3
    assert multiplicative_order(6, m7) == 2  # 6 = -1 mod 7
    with pytest.raises(DomainError):
        multiplicative_order(0, m7)
    with pytest.raises(DomainError):
        multiplicative_order(14, m7)


def test_lagrange_order_divides_group_order():
    for N in primes_up_to(997):
        m = PrimeModulus(N)
        for u in range(1, N):
            assert (N - 1) % multiplicative_order(u, m) == 0
