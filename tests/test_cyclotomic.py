import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_census import (
    CyclotomicInt,
    ModulusMismatchError,
    PrimeModulus,
    ScaledCyclotomic,
    root_power,
)

from oracles import conjugate, multiply

M3 = PrimeModulus(3)
M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def test_root_power_examples():
    one = root_power(M5, 0)
    assert one.coeffs == (1, 0, 0, 0, 0)
    assert root_power(M5, 7) == root_power(M5, 2)
    # w^2 at N=3 reduces to -1 - w
    assert root_power(M3, 2).coeffs == (-1, -1, 0)


def test_canonical_form_pins_last_coefficient():
    x = CyclotomicInt(M5, (4, 1, 0, 2, 3))
    assert x.coeffs[-1] == 0
    assert x.coeffs == (1, -2, -3, -1, 0)
    # idempotent: rebuilding from canonical coefficients changes nothing
    assert CyclotomicInt(M5, x.coeffs).coeffs == x.coeffs


def test_add_examples():
    w, w2 = root_power(M3, 1), root_power(M3, 2)
    assert (w + w2).coeffs == (-1, 0, 0)
    total = root_power(M7, 0)
    for k in range(1, 7):
        total = total + root_power(M7, k)
    assert total.is_zero


def test_multiply_examples():
    assert multiply(root_power(M5, 1), root_power(M5, 4)) == root_power(M5, 0)
    w = root_power(M7, 1)
    acc = root_power(M7, 0)
    for _ in range(7):
        acc = multiply(acc, w)
    assert acc == root_power(M7, 0)  # w^7 = 1
    assert multiply(acc, w) == w


def test_is_zero():
    assert CyclotomicInt.zero(M5).is_zero
    assert not (root_power(M5, 1) - root_power(M5, 2)).is_zero
    full = CyclotomicInt(M5, (1, 1, 1, 1, 1))
    assert full.is_zero


def test_conjugate_and_scale():
    x = root_power(M5, 2)
    assert conjugate(x) == root_power(M5, 3)
    assert x.scale(3).coeffs == tuple(3 * c for c in x.coeffs)


def test_to_complex():
    assert root_power(M5, 0).to_complex() == pytest.approx(1.0)
    pair = root_power(M5, 1) + root_power(M5, 4)
    assert pair.to_complex().real == pytest.approx(2 * cmath.cos(2 * cmath.pi / 5).real)
    assert abs(pair.to_complex().imag) < 1e-12
    assert pair.to_complex().real == pytest.approx(0.6180339887, abs=1e-9)


def test_zero_test_matches_float_view():
    # canonical zero evaluates to exactly 0; near-misses do not
    q = CyclotomicInt(M7, (1000,) * 7)
    assert q.is_zero
    assert abs(q.to_complex()) < 1e-9
    assert abs((q + root_power(M7, 3)).to_complex()) > 0.1


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatchError):
        root_power(M5, 1) + root_power(M7, 1)
    with pytest.raises(ModulusMismatchError):
        multiply(root_power(M5, 1), root_power(M7, 1))


small_coeff = st.integers(min_value=-50, max_value=50)


@st.composite
def cyclotomic(draw, modulus):
    return CyclotomicInt(
        modulus, tuple(draw(small_coeff) for _ in range(modulus.N))
    )


@given(a=cyclotomic(M7), b=cyclotomic(M7), c=cyclotomic(M7))
@settings(max_examples=150)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
    assert a + (-a) == CyclotomicInt.zero(M7)


@given(
    s=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    t=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_root_sum_equality_oracle(s, t):
    """Sums of at most N-1 distinct roots of unity are equal exactly when
    the exponent sets are equal."""
    sum_s = CyclotomicInt.zero(M7)
    for e in s:
        sum_s = sum_s + root_power(M7, e)
    sum_t = CyclotomicInt.zero(M7)
    for e in t:
        sum_t = sum_t + root_power(M7, e)
    assert (sum_s == sum_t) == (s == t)


def test_scaled_cyclotomic():
    half = ScaledCyclotomic(root_power(M5, 1).scale(2), 2)
    assert half == ScaledCyclotomic(root_power(M5, 1), 1)
    assert half != ScaledCyclotomic(root_power(M5, 2), 1)
    assert hash(half) == hash(ScaledCyclotomic(root_power(M5, 1), 1))
    assert half.to_complex() == pytest.approx(root_power(M5, 1).to_complex())
    with pytest.raises(Exception):
        ScaledCyclotomic(root_power(M5, 1), 0)
