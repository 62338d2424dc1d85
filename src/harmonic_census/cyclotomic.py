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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .number_theory import PrimeModulus


@dataclass(frozen=True)
class CyclotomicInt:
    """An exact element of Z[w] in canonical form (last coefficient 0)."""

    modulus: PrimeModulus
    coeffs: tuple[int, ...]

    def __post_init__(self):
        N, coeffs = self.modulus.N, tuple(self.coeffs)
        if len(coeffs) != N:
            raise DomainError(f"coefficient vector has length {len(coeffs)}, expected {N}")
        last = coeffs[-1]
        object.__setattr__(self, "coeffs", tuple(c - last for c in coeffs) if last else coeffs)
