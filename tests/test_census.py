import math
import random
import time
from fractions import Fraction

import pytest

from harmonic_census import (
    DomainError,
    PrimeModulus,
    alpha,
    beta,
    count_harmonic_frames,
    count_unordered_dft,
    enumerate_orbits,
    full_census,
    gamma,
    growth_ratio,
    primes_up_to,
)

import oracles


def test_beta_examples(m7, m13):
    assert beta(m7, 3, 3) == Fraction(2)  # (N-1)/3
    assert beta(m7, 3, 2) == Fraction(3)  # (N-1)/2
    # N=13, d=4: beta_4 = 12/4 = 3, beta_2 = (12*10)/(4*2) - 3 = 12
    assert beta(m13, 4, 4) == Fraction(3)
    assert beta(m13, 4, 2) == Fraction(12)


def test_beta_zero_extension():
    # N=11, d=4: the b=4 term vanishes since 4 does not divide 10
    m11 = PrimeModulus(11)
    assert beta(m11, 4, 2) == Fraction(10 * 8, 4 * 2)


def test_beta_preconditions(m7):
    with pytest.raises(DomainError):
        beta(m7, 3, 1)
    with pytest.raises(DomainError):
        beta(m7, 3, 4)  # 4 divides neither 3 nor 2
    with pytest.raises(DomainError):
        beta(PrimeModulus(11), 3, 3)  # 3 does not divide 10


def test_gamma_examples(m7, m13):
    assert gamma(m7, 3, 1) == 5
    assert gamma(m7, 3, 2) == 1
    assert gamma(m7, 3, 3) == 1
    assert gamma(PrimeModulus(11), 4, 2) == 2
    assert gamma(m13, 4, 2) == 2


def test_count_examples(m5, m13):
    assert count_harmonic_frames(m5, 2) == 3
    assert count_harmonic_frames(m5, 3) == 3
    assert count_harmonic_frames(m13, 4) == 62


def test_count_special_cases(m5, m7):
    assert count_harmonic_frames(m5, 1) == 2
    assert count_harmonic_frames(m5, 5) == 1
    assert count_harmonic_frames(PrimeModulus(2), 1) == 2
    assert count_harmonic_frames(PrimeModulus(2), 2) == 1
    # the recursion agrees with the documented constants at the boundary
    assert full_census(m7, 1).total == 2
    assert full_census(m7, 7).total == 1
    with pytest.raises(DomainError):
        count_harmonic_frames(m5, 0)
    with pytest.raises(DomainError):
        count_harmonic_frames(m5, 6)


def test_census_mass_balance_and_keys(m13):
    for d in range(1, 14):
        cen = full_census(m13, d)
        assert sum(g * (13 - 1) // c for c, g in cen.gamma.items()) == math.comb(13, d)
        assert cen.total == sum(cen.gamma.values())
        assert sum(cen.beta.values()) == math.comb(13, d)
        for c in cen.gamma:
            assert 12 % c == 0
            assert d % c == 0 or (d - 1) % c == 0


def test_census_against_enumeration():
    for N in (2, 3, 5, 7, 11, 13):
        m = PrimeModulus(N)
        for d in range(1, N + 1):
            cen = full_census(m, d)
            hist: dict[int, int] = {}
            for rec in enumerate_orbits(m, d):
                hist[rec.stab_order] = hist.get(rec.stab_order, 0) + 1
            assert {c: g for c, g in cen.gamma.items() if g} == hist


def test_closed_form_d2_d3():
    for N in primes_up_to(997):
        if N >= 3:
            assert count_harmonic_frames(PrimeModulus(N), 2) == (N + 1) // 2
        if N >= 5:
            expected = (
                (N * N - 2 * N + 7) // 6
                if N % 3 == 1
                else (N * N - 2 * N + 3) // 6
            )
            assert count_harmonic_frames(PrimeModulus(N), 3) == expected


def test_count_against_necklaces():
    for N in primes_up_to(399):
        if N < 3:
            continue
        m = PrimeModulus(N)
        for d in range(2, N):
            neck = oracles.subset_orbit_count_via_necklaces(N, d)
            assert count_harmonic_frames(m, d) == neck


@pytest.mark.parametrize("N", [2**31 - 1, 1470268801, 19999999])
def test_count_against_necklaces_near_range_edge(N):
    m = PrimeModulus(N)
    for d in range(2, 13):
        neck = oracles.subset_orbit_count_via_necklaces(N, d)
        assert count_harmonic_frames(m, d) == neck


def test_census_at_range_edge_is_fast():
    # the recursion visits only divisors of N-1; a loop over the multiples
    # of c below N would take far longer than this bound at N = 2^31 - 1
    m = PrimeModulus(2**31 - 1)
    start = time.perf_counter()
    for d in range(2, 9):
        cen = full_census(m, d)
        assert cen.total == count_harmonic_frames(m, d)
    assert time.perf_counter() - start < 2.0


def test_alpha_equals_gamma():
    for N in (3, 5, 7, 11, 13):
        m = PrimeModulus(N)
        for d in range(2, N):
            cen = full_census(m, d)
            for c, g in cen.gamma.items():
                a = alpha(m, d, c)
                assert a.denominator == 1
                assert int(a) == g
            assert oracles.count_harmonic_frames_alpha(m, d) == cen.total


def test_alpha_preconditions(m7):
    with pytest.raises(DomainError):
        alpha(m7, 1, 2)
    with pytest.raises(DomainError):
        alpha(m7, 3, 4)


def test_count_unordered_dft_examples(m5, m7):
    assert count_unordered_dft(m5, 3) == 15
    assert count_unordered_dft(PrimeModulus(2), 2) == 2
    assert count_unordered_dft(m7, 2) == 7
    assert count_unordered_dft(m5, 1) == 2
    assert count_unordered_dft(PrimeModulus(3), 1) == 2


def test_count_unordered_dft_against_oracle_small():
    for N in (2, 3, 5, 7):
        m = PrimeModulus(N)
        for d in range(1, N + 1):
            formula = count_unordered_dft(m, d)
            assert formula == oracles.pi1_orbit_count_via_subsets(N, d)
            raw = oracles.pi1_orbit_count_raw(N, d)
            assert raw is not None and raw == formula


def test_growth_ratio(m5, m7):
    assert growth_ratio(m7, 3) == pytest.approx(7 / (49 / 6))
    assert growth_ratio(m5, 2) == pytest.approx(1.2)
    assert growth_ratio(PrimeModulus(997), 3) == pytest.approx(
        ((997**2 - 2 * 997 + 7) / 6) / (997**2 / 6)
    )
    with pytest.raises(DomainError):
        growth_ratio(m5, 1)
    with pytest.raises(DomainError):
        growth_ratio(m5, 5)


def test_mass_balance_random_pairs():
    rng = random.Random(20240601)
    primes = [p for p in primes_up_to(499) if p >= 3]
    for _ in range(200):
        N = rng.choice(primes)
        d = rng.randint(1, N)
        cen = full_census(PrimeModulus(N), d)
        assert sum(
            Fraction(g * (N - 1), c) for c, g in cen.gamma.items()
        ) == math.comb(N, d)
