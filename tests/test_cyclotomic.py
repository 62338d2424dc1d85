import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_census import CyclotomicInt, DomainError, PrimeModulus

from oracles import exponent_counts

M3 = PrimeModulus(3)
M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def _root_sum(exponents, N: int) -> tuple[int, ...]:
    return tuple(exponent_counts(np.array(sorted(exponents), dtype=np.int64), N).tolist())


def test_coefficient_vector_has_length_N():
    for coeffs in ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6)):
        with pytest.raises(DomainError, match="coefficient vector has length"):
            CyclotomicInt(M5, coeffs)


def test_canonical_form_pins_last_coefficient():
    x = CyclotomicInt(M5, (4, 1, 0, 2, 3))
    assert x.coeffs[-1] == 0
    assert x.coeffs == (1, -2, -3, -1, 0)
    # idempotent: rebuilding from canonical coefficients changes nothing
    assert CyclotomicInt(M5, x.coeffs).coeffs == x.coeffs
    # w^2 at N=3 reduces to -1 - w
    assert CyclotomicInt(M3, (0, 0, 1)).coeffs == (-1, -1, 0)


def test_add_examples():
    # w + w^2 = -1 at N=3
    assert _root_sum((1, 2), 3) == (-1, 0, 0)
    assert _root_sum(range(7), 7) == (0,) * 7


def test_is_zero():
    assert CyclotomicInt(M5, (0,) * 5).coeffs == (0,) * 5
    assert _root_sum((1,), 5) != _root_sum((2,), 5)
    # 1 + w + ... + w^4 = 0
    assert CyclotomicInt(M5, (1, 1, 1, 1, 1)).coeffs == (0,) * 5
    assert CyclotomicInt(M7, (1000,) * 7).coeffs == (0,) * 7


@given(
    s=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    t=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_root_sum_equality_oracle(s, t):
    """Sums of at most N-1 distinct roots of unity are equal exactly when
    the exponent sets are equal."""
    assert (_root_sum(s, 7) == _root_sum(t, 7)) == (s == t)
