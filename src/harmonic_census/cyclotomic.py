"""Elements of Z[w], w = e^(2*pi*i/N), N prime, as canonical coefficient
vectors.

An element is stored as its coefficient vector (c_0, ..., c_{N-1}) meaning
sum c_k w^k.  Since N is prime, the minimal polynomial of w is
1 + z + ... + z^{N-1}, so two coefficient vectors denote the same number
exactly when they differ by a constant vector.  We pick the representative
with c_{N-1} = 0 (subtract c_{N-1} from every entry); this is unique, costs
O(N), and turns equality of sums of roots of unity into plain tuple
equality.  In particular a sum of at most N-1 distinct roots is zero only if
it is empty.

`exponent_counts` builds these vectors in bulk, on numpy integer arrays
whose last axis is a coefficient vector: one Gram numerator per label in
`frames.GramMatrix` and, in the test oracles, the angle multisets, the
d x d x N row Gram, the N x N Gram and unit-norm coefficient matrices and
the unitary reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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


# -- vectorized canonical-form helpers --------------------------------------
#
# Arrays of shape (..., N) of int64 coefficients, same semantics as
# CyclotomicInt.coeffs.  Each count of `exponent_counts` is at most the row
# length, which is at most N < 2^31, so canonical entries stay far below
# 2^63.


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
