import math
import random
import re
import time
from fractions import Fraction

import pytest

import harmonic_census.census as census_mod
from harmonic_census import (
    ContractViolationError,
    DomainError,
    PrimeModulus,
    count_harmonic_frames,
    count_unordered_dft,
    full_census,
)
from harmonic_census.cli import main

import oracles
from oracles import alpha, enumerate_orbits, growth_ratio, primes_up_to


def test_beta_examples(m7, m13):
    assert full_census(m7, 3).beta[3] == Fraction(2)  # (N-1)/3
    assert full_census(m7, 3).beta[2] == Fraction(3)  # (N-1)/2
    # N=13, d=4: beta_4 = 12/4 = 3, beta_2 = (12*10)/(4*2) - 3 = 12
    assert full_census(m13, 4).beta[4] == Fraction(3)
    assert full_census(m13, 4).beta[2] == Fraction(12)
    assert type(full_census(m13, 4).beta[2]) is int


def test_beta_zero_extension():
    # N=11, d=4: the b=4 term vanishes since 4 does not divide 10
    m11 = PrimeModulus(11)
    assert full_census(m11, 4).beta[2] == Fraction(10 * 8, 4 * 2)


def test_beta_preconditions(m7):
    # only the c dividing N-1 and one of d and d-1 get a beta: at N=7, d=3
    # not 4, which divides neither 3 nor 2; at N=11 not 3, which does not
    # divide 10
    assert set(full_census(m7, 3).beta) == {1, 2, 3}
    assert set(full_census(PrimeModulus(11), 3).beta) == {1, 2}


def test_gamma_examples(m7, m13):
    assert full_census(m7, 3).gamma[1] == 5
    assert full_census(m7, 3).gamma[2] == 1
    assert full_census(m7, 3).gamma[3] == 1
    assert full_census(PrimeModulus(11), 4).gamma[2] == 2
    assert full_census(m13, 4).gamma[2] == 2


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
        assert all(type(v) is int for v in cen.beta.values())
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
    # the recursion visits only divisors of gcd(N-1, d) or gcd(N-1, d-1),
    # with one binomial each; a product of q factors per divisor would take
    # far longer than this bound at d >= N - 2 and N = 2^31 - 1
    N = 2**31 - 1
    m = PrimeModulus(N)
    ds = [*range(2, 9), 616, N - 2, N - 1, N]
    start = time.perf_counter()
    totals = {}
    for d in ds:
        totals[d] = full_census(m, d).total
        assert totals[d] == count_harmonic_frames(m, d)
    assert time.perf_counter() - start < 2.0
    for d in (616, N - 2):
        assert totals[d] == oracles.subset_orbit_count_via_necklaces(N, d)
    assert (totals[N - 1], totals[N]) == (2, 1)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_census_of_complements_at_range_edge(d):
    # m . (Z_N - S) = Z_N - m . S: the d-orbits and the (N-d)-orbits
    # correspond, with equal stabilizers
    N = 2**31 - 1
    m = PrimeModulus(N)
    assert full_census(m, d).gamma == full_census(m, N - d).gamma


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
            if d >= 2:  # N (N-2)...(N-d+1) is N!/((N-d)! (N-1))
                assert formula * (N - 1) == math.perm(N, d)
            raw = oracles.pi1_orbit_count_raw(N, d)
            assert raw is not None and raw == formula


def test_count_unordered_dft_preconditions(m7):
    for d in (0, 8):
        with pytest.raises(DomainError, match="need 1 <= d <= N"):
            count_unordered_dft(m7, d)


@pytest.mark.parametrize("N,d", [(1000003, 3), (2**31 - 1, 8)])
def test_count_unordered_dft_at_range_edge(N, d):
    # the product costs O(d) multiplications, not O(N)
    start = time.perf_counter()
    got = count_unordered_dft(PrimeModulus(N), d)
    assert time.perf_counter() - start < 1.0
    assert got == N * math.prod(N - k for k in range(2, d))
    assert got * (N - 1) == math.perm(N, d)


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


# One planted fault per integrality check of full_census; each test fails
# when its check is deleted, and `count` then exits 5 with one stderr line.


def _count_fails(capsys, N, d, message):
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        full_census(PrimeModulus(N), d)
    code = main(["count", "--N", str(N), "--d", str(d)])
    out, err = capsys.readouterr()
    assert (code, out) == (5, "")
    assert err == f"error: internal contract violated: {message}\n"


def test_gamma_c_must_be_integral(monkeypatch, capsys):
    # without c = 4, beta_2 at (13, 4) keeps the 3 sets fixed by the
    # order-4 subgroup: C(6, 2) = 15 where 12 is right
    divisors = census_mod.divisors
    monkeypatch.setattr(census_mod, "divisors", lambda n: [c for c in divisors(n) if c != 4])
    _count_fails(capsys, 13, 4, "gamma_2(13,4) = 30/12 is not integral")


def test_gamma_1_must_be_a_nonnegative_integer(monkeypatch, capsys):
    # with no c > 1, beta_1 at (7, 3) is all C(7, 3) = 35 subsets, where
    # the 5 fixed by units of order 2 and 3 are not in free orbits
    monkeypatch.setattr(census_mod, "divisors", lambda n: [1])
    _count_fails(capsys, 7, 3, "gamma_1(7,3) = 35/6 is not a nonnegative integer")
