"""Exact integer arithmetic with N-th roots of unity, N prime.

An element of Z[w], w = e^(2*pi*i/N), is stored as its coefficient vector
(c_0, ..., c_{N-1}) meaning sum c_k w^k.  Since N is prime, the minimal
polynomial of w is 1 + z + ... + z^{N-1}, so two coefficient vectors denote
the same number exactly when they differ by a constant vector.  We pick the
representative with c_{N-1} = 0 (subtract c_{N-1} from every entry); this is
unique, costs O(N), and turns equality of sums of roots of unity into plain
tuple equality.  In particular a sum of at most N-1 distinct roots is zero
only if it is empty, which is what makes every "exact" verdict in this
package a genuine proof rather than a tolerance check.

The module also provides vectorized helpers operating on numpy integer
arrays whose last axis is a coefficient vector.  These carry the same
canonical-form semantics and exist purely so that the bulk paths stay
exact without paying Python-object overhead per entry: one Gram numerator
per label row in `frames.GramMatrix`, the angle multisets in
`equivalence`, and, in the test oracles, the d x d x N row Gram, the N x N
Gram and unit-norm coefficient matrices and the unitary reconstruction.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModulusMismatchError
from .number_theory import PrimeModulus


def _canonical(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    last = coeffs[-1]
    if last == 0:
        return coeffs
    return tuple(c - last for c in coeffs)


@dataclass(frozen=True)
class CyclotomicInt:
    """An exact element of Z[w] in canonical form (last coefficient 0)."""

    modulus: PrimeModulus
    coeffs: tuple[int, ...]

    def __post_init__(self):
        N = self.modulus.N
        if len(self.coeffs) != N:
            raise DomainError(
                f"coefficient vector has length {len(self.coeffs)}, expected {N}"
            )
        object.__setattr__(self, "coeffs", _canonical(tuple(self.coeffs)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> "CyclotomicInt":
        return cls(modulus, (0,) * modulus.N)

    @classmethod
    def one(cls, modulus: PrimeModulus) -> "CyclotomicInt":
        return root_power(modulus, 0)

    @classmethod
    def from_integer(cls, modulus: PrimeModulus, value: int) -> "CyclotomicInt":
        coeffs = [0] * modulus.N
        coeffs[0] = value
        return cls(modulus, tuple(coeffs))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CyclotomicInt") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatchError(
                f"mixed moduli {self.modulus.N} and {other.modulus.N}"
            )

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return self + (-other)

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        N = self.modulus.N
        out = [0] * N
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    k = i + j
                    out[k - N if k >= N else k] += a * b
        return CyclotomicInt(self.modulus, tuple(out))

    def scale(self, k: int) -> "CyclotomicInt":
        """Multiply by an ordinary integer."""
        return CyclotomicInt(self.modulus, tuple(k * a for a in self.coeffs))

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation, w^k -> w^{N-k}."""
        N = self.modulus.N
        out = [0] * N
        for k, a in enumerate(self.coeffs):
            out[(-k) % N] = a
        return CyclotomicInt(self.modulus, tuple(out))

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_complex(self) -> complex:
        """Floating-point view, sum of coeffs[k] * e^(2*pi*i*k/N)."""
        N = self.modulus.N
        return sum(
            c * cmath.exp(2j * cmath.pi * k / N)
            for k, c in enumerate(self.coeffs)
            if c
        ) or complex(0.0)

    def __repr__(self) -> str:
        return f"CyclotomicInt(N={self.modulus.N}, coeffs={self.coeffs})"


def root_power(modulus: PrimeModulus, e: int) -> CyclotomicInt:
    """The root of unity w^(e mod N)."""
    N = modulus.N
    coeffs = [0] * N
    coeffs[e % N] = 1
    return CyclotomicInt(modulus, tuple(coeffs))


def is_zero(a: CyclotomicInt) -> bool:
    """Exact zero test; decides equality of sums of roots of unity."""
    return a.is_zero


@dataclass(frozen=True)
class ScaledCyclotomic:
    """An exact element of (1/denominator) * Z[w].

    Used for Gram entries (denominator d), symmetry element entries
    (denominator 1) and, in the test oracles, reconstructed unitaries
    (denominator N).  No reduction is performed; equality cross-multiplies
    the two exact numerators.
    """

    numerator: CyclotomicInt
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise DomainError(f"denominator must be positive, got {self.denominator}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaledCyclotomic):
            return NotImplemented
        return self.numerator.scale(other.denominator) == other.numerator.scale(
            self.denominator
        )

    def __hash__(self) -> int:
        # hash on the floating view is unsafe; use the exact reduced pair
        from math import gcd

        g = gcd(self.denominator, *(c for c in self.numerator.coeffs if c)) or 1
        return hash(
            (
                tuple(c // g for c in self.numerator.coeffs),
                self.denominator // g,
            )
        )

    def to_complex(self) -> complex:
        return self.numerator.to_complex() / self.denominator


# -- vectorized canonical-form helpers --------------------------------------
#
# Arrays of shape (..., N) of int64 coefficients, same semantics as
# CyclotomicInt.coeffs.  Magnitudes stay far below 2^63 everywhere these are
# used (counts bounded by N, products by N^3); the callers assert bounds.


def canonicalize_array(coeffs: np.ndarray) -> np.ndarray:
    """Subtract the last coefficient along the final axis (in place safe:
    returns a new array)."""
    return coeffs - coeffs[..., -1:]


def exponent_counts(exponents: np.ndarray, N: int) -> np.ndarray:
    """Coefficient tensor of sums of single roots.

    exponents has shape (..., M): each row lists M exponents, and the result
    of shape (..., N) is the canonical coefficient vector of sum_j w^(e_j).
    """
    flat = exponents.reshape(-1, exponents.shape[-1])
    rows = flat.shape[0]
    offsets = np.arange(rows, dtype=np.int64)[:, None] * N
    counts = np.bincount((flat + offsets).ravel(), minlength=rows * N)
    counts = counts.reshape(*exponents.shape[:-1], N).astype(np.int64)
    return canonicalize_array(counts)
