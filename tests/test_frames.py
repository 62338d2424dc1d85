import cmath
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
    DomainError,
    GeneratorSet,
    PrimeModulus,
    build_frame,
    export_frame,
    gram,
    verify_funtf,
)
from harmonic_census.frames import _root_texts
from harmonic_census.number_theory import is_prime

import oracles
from oracles import exponent_counts

M2 = PrimeModulus(2)
M3 = PrimeModulus(3)
M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def test_build_frame_entries():
    f = build_frame(GeneratorSet(M3, (0, 1)))
    assert f.exponents.tolist() == [[0, 0, 0], [0, 1, 2]]
    assert f.exponents[1, 2] == 2
    # column 0 is all ones for any generator choice
    f = build_frame(GeneratorSet(M5, (1, 2, 3, 4)))
    assert not f.exponents[:, 0].any()
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
    E = f.exponents
    assert not exponent_counts((E[0] - E[1]) % 3, 3).any()


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
    """verify_funtf reports unit norms without a check, since every column
    of every integer exponent matrix has squared norm sum_k w^e w^(-e) = d.
    The N x N count matrix of the column squared norms agrees: on frames,
    on the six matrices of _tampered_exponents and on random integer
    matrices with entries in [0, N)."""
    rng = random.Random(81)
    for s in [*_tightness_sets(), *_edge_sets()]:
        f = build_frame(s)
        assert verify_funtf(f).unit_norm
        assert oracles.unit_norm_by_counts(f)
        E = f.exponents
        tampered = [M for _, M, _ in _tampered_exponents(E, rng)]
        randoms = [np.array([[rng.randrange(f.N) for _ in E[0]] for _ in E]) for _ in range(3)]
        for M in tampered + randoms:
            f.exponents = M
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
    assert g.denominator == 2
    assert g.difference_numerator(0).coeffs == (2, 0, 0, 0, 0)  # entry 1
    # entry (0, 1) is (w + w^4) / 2 = cos(2 pi / 5)
    coeffs = g.difference_numerator(1).coeffs
    value = sum(c * cmath.exp(2j * cmath.pi * k / 5) for k, c in enumerate(coeffs)) / 2
    assert value.real == pytest.approx(math.cos(2 * math.pi / 5))
    assert abs(value.imag) < 1e-12

    g = gram(build_frame(GeneratorSet(M7, (1, 2, 4))))
    assert g.difference_label(1) == (1, 2, 4)
    assert g.difference_label(3) == (3, 5, 6)
    assert g.difference_label(0) == (0, 0, 0)


def test_gram_circulant_and_label_criterion():
    cases = [(M5, (1, 2)), (M5, (1, 4)), (M7, (0, 1, 6)), (M7, (1, 2, 4))]
    for m, elems in cases:
        f = build_frame(GeneratorSet(m, elems))
        g = gram(f)
        N = m.N
        row0 = oracles.gram_coefficients(f)
        for j in range(N):
            row = oracles.gram_coefficients(f, j)
            for k in range(N):
                assert np.array_equal(row[k], row0[(k - j) % N])
                assert g.difference_numerator(k - j).coeffs == tuple(row[k].tolist())
        for t in range(N):
            for u in range(N):
                same_entry = g.difference_numerator(t) == g.difference_numerator(u)
                same_label = g.difference_label(t) == g.difference_label(u)
                assert same_entry == same_label


def test_gram_against_direct_inner_products():
    s = GeneratorSet(M7, (1, 2, 4))
    f = build_frame(s)
    g = gram(f)
    assert g.denominator == 3
    E = f.exponents
    for j in range(7):
        for k in range(7):
            # sum_l w^(E[l, k]) conj(w^(E[l, j])) = sum_l w^(E[l, k] - E[l, j])
            direct = exponent_counts((E[:, k] - E[:, j]) % 7, 7)
            assert g.difference_numerator(k - j).coeffs == tuple(direct.tolist())


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


def _tampered_exponents(E: np.ndarray, rng: random.Random):
    """(name, exponents, accepted) for the untouched frame and five edits."""
    d, N = E.shape
    c = rng.randrange(1, N)
    k, m = rng.randrange(d), rng.randrange(1, N)
    yield "untouched", E, True
    yield "global phase", (E + c) % N, True  # same Gram matrix
    row = E.copy()
    row[k] = (row[k] + c) % N  # a diagonal unitary applied to the frame
    yield "row phase", row, True
    entry = E.copy()
    entry[k, m] = (entry[k, m] + c) % N
    yield "one entry", entry, False
    col0 = E.copy()
    col0[:, 0] = (col0[:, 0] + c) % N
    yield "column 0", col0, False
    m1, m2 = rng.sample(range(N), 2)
    swapped = E.copy()
    swapped[:, [m1, m2]] = swapped[:, [m2, m1]]
    yield "swapped columns", swapped, False


@pytest.mark.parametrize("N", [7, 13, 131])
def test_gram_row_zero_check_matches_all_rows(N):
    """gram checks Gram row 0 only; it raises exactly when the check on
    every row (oracles.gram_all_rows) fails, also past N = 128."""
    rng = random.Random(N)
    for d in (2, 5, N - 1, N):
        f = build_frame(GeneratorSet(PrimeModulus(N), tuple(rng.sample(range(N), d))))
        for name, E, accepted in _tampered_exponents(f.exponents, rng):
            f.exponents = E
            assert oracles.gram_all_rows(f) == accepted, (d, name)
            if accepted:
                gram(f)
            else:
                with pytest.raises(ContractViolationError):
                    gram(f)


def test_gram_memory_is_linear():
    for N, d in ((1741, 6), (127, 127)):
        s = GeneratorSet(PrimeModulus(N), tuple(random.Random(d).sample(range(N), d)))
        tracemalloc.start()
        try:
            gram(build_frame(s))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (N, d)


def test_export_json():
    f = build_frame(GeneratorSet(M3, (0, 1)))
    payload = b"".join(export_frame(f, "json"))
    obj = json.loads(payload)
    assert list(obj.keys()) == ["N", "d", "generators", "exponents", "real", "imag"]
    assert obj["exponents"] == [[0, 0, 0], [0, 1, 2]]
    assert obj["generators"] == [0, 1]
    s = 1 / math.sqrt(2)
    assert obj["real"][0] == pytest.approx([s, s, s], abs=1e-9)
    # byte-stable
    assert b"".join(export_frame(f, "json")) == payload


def test_export_csv():
    f = build_frame(GeneratorSet(M2, (0, 1)))
    lines = b"".join(export_frame(f, "csv")).decode().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0].startswith("0.707106781187")
    assert lines[1].split(",")[1].startswith("-0.707106781187")


def test_export_floating_matches_exact():
    f = build_frame(GeneratorSet(M7, (1, 2, 4)))
    obj = json.loads(b"".join(export_frame(f, "json")))
    scale = 1 / math.sqrt(3)
    for k in range(3):
        for m in range(7):
            exact = cmath.exp(2j * cmath.pi * int(f.exponents[k, m]) / 7) * scale
            assert abs(exact.real - obj["real"][k][m]) < 1e-10
            assert abs(exact.imag - obj["imag"][k][m]) < 1e-10


EXPORT_CASES = [(N, d) for N in (97, 1009, 1999) for d in (1, 3, 16)]
EXPORT_CASES += [(97, 96), (97, 97), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (211, 211)]


@pytest.mark.parametrize("N,d", EXPORT_CASES)
def test_export_against_entrywise_reference(N, d):
    """Every format byte for byte against per-entry floats and json.dumps,
    per-cell formatting or per-exponent alignment, at N past the golden
    cases."""
    gens = tuple(random.Random(N * 31 + d).sample(range(N), d))
    f = build_frame(GeneratorSet(PrimeModulus(N), gens))
    for fmt in ("json", "csv", "table"):
        got = b"".join(export_frame(f, fmt))
        assert got == oracles.export_frame_entries(f, fmt)


def test_export_unknown_format():
    f = build_frame(GeneratorSet(M3, (0, 1)))
    with pytest.raises(DomainError):
        export_frame(f, "xml")


def test_table_export_formats_no_root(capsys, monkeypatch):
    """The table holds exponents only, so neither export_frame nor the frame
    command builds the root texts for it."""
    from harmonic_census import frames
    from harmonic_census.cli import main

    def refuse(N, d):
        raise AssertionError("root texts built for the table")

    monkeypatch.setattr(frames, "_root_texts", refuse)
    f = build_frame(GeneratorSet(M7, (1, 2, 4)))
    want = oracles.export_frame_entries(f, "table")
    assert b"".join(export_frame(f, "table")) == want
    assert main(["frame", "--N", "7", "--gens", "1,2,4", "--format", "table"]) == 0
    assert capsys.readouterr().out == want.decode()


def test_root_texts_are_reprs_of_the_rounded_parts():
    """One f"{x:.12g}" per part of each root w^k / sqrt(d) is the repr of
    that part rounded to 12 significant digits (0.0 for a zero), which
    json.dumps writes, at every prime N < 2000."""

    def rounded(x: float) -> float:
        v = float(f"{x:.12g}")
        return 0.0 if v == 0.0 else v

    for N in filter(is_prime, range(2, 2000)):
        roots = [1, -1] if N == 2 else [cmath.exp(2j * cmath.pi * k / N) for k in range(N)]
        for d in (1, 2, 3, 7, 16):
            scaled = [z * (1.0 / math.sqrt(d)) for z in roots]
            real = [repr(rounded(z.real)) for z in scaled]
            imag = [repr(rounded(z.imag)) for z in scaled]
            assert _root_texts(N, d) == (real, imag), (N, d)


def test_export_streams_its_rows():
    """The blocks are made as they are read: beside the N-entry text tables
    only one row's text is held.  Consuming a json frame at (99991, 10),
    37 MB of output, peaks below 64 MB traced."""
    f = build_frame(GeneratorSet(PrimeModulus(99991), tuple(range(1, 11))))
    tracemalloc.start()
    try:
        size = sum(map(len, export_frame(f, "json")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == 37113027
    assert peak < 64 * 10**6, peak
