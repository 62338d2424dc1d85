import json
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from harmonic_census import (
    ContractViolationError,
    CyclotomicInt,
    DomainError,
    GeneratorSet,
    PrimeModulus,
    build_frame,
    export_frame,
    gram,
    root_power,
    verify_funtf,
)
from harmonic_census.number_theory import is_prime

import oracles

M2 = PrimeModulus(2)
M3 = PrimeModulus(3)
M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def test_build_frame_entries():
    f = build_frame(GeneratorSet(M3, (0, 1)))
    assert f.exponents.tolist() == [[0, 0, 0], [0, 1, 2]]
    assert f.entry(1, 2) == root_power(M3, 2)
    # column 0 is all ones for any generator choice
    f = build_frame(GeneratorSet(M5, (1, 2, 3, 4)))
    assert all(f.entry(k, 0) == root_power(M5, 0) for k in range(4))
    # generator 4, column 2: w^(2*4 mod 7) = w
    f = build_frame(GeneratorSet(M7, (1, 2, 4)))
    assert f.exponents[2, 2] == 1


def test_verify_funtf_examples():
    rep = verify_funtf(build_frame(GeneratorSet(M3, (0, 1))))
    assert rep.ok and rep.frame_bound == Fraction(3, 2)
    rep = verify_funtf(build_frame(GeneratorSet(M5, (1, 3))))
    assert rep.unit_norm and rep.tight and rep.frame_bound == Fraction(5, 2)


def test_row_orthogonality_directly():
    # <row 0, row 1> for (N=3, [0,1]) is 1 + w + w^2 = 0
    f = build_frame(GeneratorSet(M3, (0, 1)))
    acc = CyclotomicInt.zero(M3)
    for m in range(3):
        acc = acc + oracles.multiply(f.entry(0, m), oracles.conjugate(f.entry(1, m)))
    assert acc.is_zero


def _tightness_sets():
    rng = random.Random(99)
    primes = [5, 7, 11, 13, 31, 97]
    for _ in range(25):
        N = rng.choice(primes)
        m = PrimeModulus(N)
        d = rng.randint(1, min(N, 9))
        yield GeneratorSet(m, tuple(rng.sample(range(N), d)))


def test_tightness_random_samples():
    for s in _tightness_sets():
        assert verify_funtf(build_frame(s)).ok


def _edge_sets():
    """d = 1 and d = N at small and mid primes."""
    for N in (2, 3, 5, 13, 97):
        for elems in ((0,), (1,), (N - 1,), tuple(range(N))):
            yield GeneratorSet(PrimeModulus(N), elems)


def test_unit_norm_against_count_matrix():
    """The exponent test e + (-e) = 0 mod N agrees with the N x N count
    matrix of the column squared norms."""
    for s in [*_tightness_sets(), *_edge_sets()]:
        f = build_frame(s)
        assert verify_funtf(f).unit_norm
        assert oracles.unit_norm_by_counts(f)


def test_row_gram_against_count_tensor():
    """The distinct-generator test agrees with the d x d x N count tensor of
    Phi Phi^*, on tight frames and on one with a repeated generator."""
    for s in [*_tightness_sets(), *_edge_sets()]:
        f = build_frame(s)
        assert verify_funtf(f).tight
        assert oracles.row_gram_by_counts(f)
    f = build_frame(GeneratorSet(M5, (1, 2)))
    f.generators = SimpleNamespace(modulus=M5, elems=(1, 6), d=2)  # 6 = 1 mod 5
    assert not verify_funtf(f).tight
    assert not oracles.row_gram_by_counts(f)


def test_gram_entries_and_labels():
    g = gram(build_frame(GeneratorSet(M5, (1, 4))))
    assert g.entry(0, 0).to_complex() == pytest.approx(1.0)
    expected = 2 * math.cos(2 * math.pi / 5) / 2
    assert g.entry(0, 1).to_complex().real == pytest.approx(expected)
    assert abs(g.entry(0, 1).to_complex().imag) < 1e-12

    g = gram(build_frame(GeneratorSet(M7, (1, 2, 4))))
    assert g.label(0, 1) == (1, 2, 4)
    assert g.label(0, 3) == (3, 5, 6)
    assert g.label(2, 2) == (0, 0, 0)


def test_gram_circulant_and_label_criterion():
    cases = [(M5, (1, 2)), (M5, (1, 4)), (M7, (0, 1, 6)), (M7, (1, 2, 4))]
    for m, elems in cases:
        g = gram(build_frame(GeneratorSet(m, elems)))
        N = m.N
        for j in range(N):
            for k in range(N):
                assert g.entry(j, k) == g.entry(0, (k - j) % N)
                for jp in range(N):
                    for kp in range(N):
                        same_entry = g.entry(j, k) == g.entry(jp, kp)
                        same_label = g.label(j, k) == g.label(jp, kp)
                        assert same_entry == same_label


def test_gram_against_direct_inner_products():
    s = GeneratorSet(M7, (1, 2, 4))
    f = build_frame(s)
    g = gram(f)
    for j in range(7):
        for k in range(7):
            direct = CyclotomicInt.zero(M7)
            for l in range(3):
                direct = direct + oracles.multiply(
                    f.entry(l, k), oracles.conjugate(f.entry(l, j))
                )
            assert direct == g.entry(j, k).numerator
            assert g.entry(j, k).denominator == 3


GRAM_CASES = [
    (N, d)
    for N in range(2, 62)
    if is_prime(N)
    for d in sorted({1, 2, 3, N // 2, N - 1, N})
    if 1 <= d <= N
] + [(97, 6), (1009, 6), (1741, 6)]


@pytest.mark.parametrize("N,d", GRAM_CASES)
def test_gram_against_coefficient_oracle(N, d):
    """Every difference numerator and label against the N x N coefficients
    from the column inner products; circulant rows (all rows up to N = 128,
    rows 0, 1, N//2 and N-1 beyond); equal entries <=> equal labels."""
    s = GeneratorSet(PrimeModulus(N), tuple(random.Random(N * 101 + d).sample(range(N), d)))
    f = build_frame(s)
    g = gram(f)
    assert g.denominator == d
    coeffs = oracles.gram_coefficients(f)
    for t in range(N):
        assert g.difference_numerator(t).coeffs == tuple(coeffs[t].tolist())
        assert g.difference_label(t) == tuple(sorted(t * x % N for x in s.elems))

    t = np.arange(N)
    for j in range(N) if N <= 128 else (0, 1, N // 2, N - 1):
        assert np.array_equal(oracles.gram_coefficients(f, j), coeffs[(t - j) % N])

    # the partitions of the differences by entry and by label coincide
    labels = np.array([g.difference_label(t) for t in range(N)])
    _, by_entry = np.unique(coeffs, axis=0, return_inverse=True)
    _, by_label = np.unique(labels, axis=0, return_inverse=True)
    by_entry, by_label = by_entry.ravel(), by_label.ravel()
    classes = len(set(zip(by_entry.tolist(), by_label.tolist())))
    assert classes == by_entry.max() + 1 == by_label.max() + 1


@pytest.mark.parametrize("N", [7, 1009])
def test_gram_rejects_inconsistent_frame(N):
    f = build_frame(GeneratorSet(PrimeModulus(N), (1, 2, 4)))
    E = f.exponents.copy()
    E[1, 3] = (E[1, 3] + 1) % N
    f.exponents = E
    with pytest.raises(ContractViolationError):
        gram(f)


def test_gram_memory_is_linear():
    s = GeneratorSet(PrimeModulus(1741), tuple(random.Random(6).sample(range(1741), 6)))
    tracemalloc.start()
    try:
        gram(build_frame(s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_export_json():
    f = build_frame(GeneratorSet(M3, (0, 1)))
    payload = export_frame(f, "json")
    obj = json.loads(payload)
    assert list(obj.keys()) == ["N", "d", "generators", "exponents", "real", "imag"]
    assert obj["exponents"] == [[0, 0, 0], [0, 1, 2]]
    assert obj["generators"] == [0, 1]
    s = 1 / math.sqrt(2)
    assert obj["real"][0] == pytest.approx([s, s, s], abs=1e-9)
    # byte-stable
    assert export_frame(f, "json") == payload


def test_export_csv():
    f = build_frame(GeneratorSet(M2, (0, 1)))
    lines = export_frame(f, "csv").decode().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0].startswith("0.707106781187")
    assert lines[1].split(",")[1].startswith("-0.707106781187")


def test_export_floating_matches_exact():
    f = build_frame(GeneratorSet(M7, (1, 2, 4)))
    obj = json.loads(export_frame(f, "json"))
    scale = 1 / math.sqrt(3)
    for k in range(3):
        for m in range(7):
            exact = f.entry(k, m).to_complex() * scale
            assert abs(exact.real - obj["real"][k][m]) < 1e-10
            assert abs(exact.imag - obj["imag"][k][m]) < 1e-10


def test_export_unknown_format():
    f = build_frame(GeneratorSet(M3, (0, 1)))
    with pytest.raises(DomainError):
        export_frame(f, "xml")
