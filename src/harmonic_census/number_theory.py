"""Modular arithmetic over Z_N for prime N.

Everything downstream (orbit enumeration, counting recursions, cyclotomic
reduction) leans on N being prime, so primality is checked deterministically
at construction time and never assumed.  The multiplicative group Z_N^x is
cyclic of order N-1; we pick the smallest primitive root as the canonical
generator so that every derived object (subgroups of units, symmetry
generators) is reproducible run to run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ContractViolationError, DomainError

# Supported modulus range: every intermediate product m * n with m, n < N
# must fit comfortably in a 64-bit signed integer.
MAX_MODULUS = 2**31

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers the full supported range with a wide margin).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n < 2^64."""
    if n < 1:
        raise DomainError(f"is_prime requires n >= 1, got {n}")
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


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


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
        if not is_prime(self.N):
            raise DomainError(f"modulus must be prime, got {self.N}")


@dataclass(frozen=True)
class PrimitiveRoot:
    """A unit g whose powers exhaust Z_N^x."""

    g: int
    modulus: PrimeModulus

    def __post_init__(self):
        N = self.modulus.N
        if not (1 <= self.g <= N - 1):
            raise DomainError(f"primitive root {self.g} out of range for N={N}")
        if multiplicative_order(self.g, self.modulus) != N - 1:
            raise DomainError(f"{self.g} is not a primitive root mod {N}")


def multiplicative_order(m: int, modulus: PrimeModulus) -> int:
    """Smallest c >= 1 with m^c = 1 mod N.  Divides N - 1."""
    N = modulus.N
    if m % N == 0:
        raise DomainError(f"{m} is not a unit mod {N}")
    m %= N
    for c in divisors(N - 1):
        if pow(m, c, N) == 1:
            return c
    raise ContractViolationError(f"no order found for {m} mod {N}")  # pragma: no cover


def _smallest_primitive_root(N: int) -> int:
    if N == 2:
        return 1
    factors = [p for p, _ in _factorisation(N - 1)]
    for g in range(2, N):
        if all(pow(g, (N - 1) // p, N) != 1 for p in factors):
            return g
    raise ContractViolationError(f"no primitive root mod {N}")  # pragma: no cover


@functools.lru_cache(maxsize=1024)
def find_primitive_root(modulus: PrimeModulus) -> PrimitiveRoot:
    """The smallest primitive root mod N (any choice would do; the smallest
    one makes every downstream object deterministic).  Found and validated
    once per modulus; later calls return the same frozen object."""
    return PrimitiveRoot(_smallest_primitive_root(modulus.N), modulus)
