"""Modular arithmetic over Z_N for prime N, and the unit group's action on
generator sets, in plain ints.

Everything downstream (orbit enumeration, counting recursions, cyclotomic
reduction) leans on N being prime, so primality is checked deterministically
at construction time and never assumed.  The multiplicative group Z_N^x is
cyclic of order N-1; we pick the smallest primitive root as the canonical
generator so that every derived object (subgroups of units, symmetry
generators) is reproducible run to run.

A generator set is an unordered d-subset [n_1, ..., n_d] of Z_N, stored as a
strictly increasing tuple.  The unit group Z_N^x acts by coordinatewise
multiplication, m . [n] = [m n_1, ..., m n_d], and the orbits of this action
are exactly the unitary-equivalence classes of the frames built in
`frames`.  This module holds what `count`, `equivalent` and `symmetry` need
of that action (the set itself, the units mapping one set onto another, the
order-c unit subgroup and the subset count C(N, d)) and imports no numpy;
the enumeration of the orbits is in `orbits`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ContractViolationError,
    DomainError,
    ModulusMismatchError,
    check_dimension,
    check_printable,
)

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

    @cached_property
    def primitive_root(self) -> int:
        """find_primitive_root of this modulus, searched on first use and
        kept on the object."""
        return find_primitive_root(self)


def find_primitive_root(modulus: PrimeModulus) -> int:
    """The smallest primitive root g mod N (any choice would do; the smallest
    one makes every downstream object deterministic).  g is primitive by the
    definition the search tests: g^((N-1)/p) != 1 for every prime p | N-1.
    The search takes about 1.3 ms at its worst below 2^31 (N = 2147483579)
    and factors N-1 each time, so the library reads the root through
    PrimeModulus.primitive_root, which searches once per modulus object.
    The orbit and symmetry code checks every subgroup it builds from g
    exactly."""
    N = modulus.N
    if N == 2:
        return 1
    factors = [p for p, _ in _factorisation(N - 1)]
    for g in range(2, N):
        if all(pow(g, (N - 1) // p, N) != 1 for p in factors):
            return g
    raise ContractViolationError(f"no primitive root mod {N}")  # pragma: no cover


@dataclass(frozen=True)
class GeneratorSet:
    """An unordered d-subset of Z_N, held sorted ascending.

    Input elements are integers (numpy's too, stored as int), reduced mod N,
    and must be distinct after reduction.
    """

    modulus: PrimeModulus
    elems: tuple[int, ...]

    def __post_init__(self):
        N = self.modulus.N
        try:
            reduced = tuple(sorted(operator.index(e) % N for e in self.elems))
        except TypeError as exc:
            raise DomainError(f"generator elements must be integers: {self.elems}") from exc
        if len(set(reduced)) != len(reduced):
            raise DomainError(f"generator elements not distinct mod {N}: {self.elems}")
        check_dimension(N, len(reduced))
        object.__setattr__(self, "elems", reduced)

    @property
    def d(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __repr__(self) -> str:
        return f"GeneratorSet(N={self.modulus.N}, {list(self.elems)})"


def multipliers(a: GeneratorSet, b: GeneratorSet) -> tuple[int, ...]:
    """All units m with m . b = a as sets, sorted; empty when there are none.
    Such an m maps the smallest nonzero y0 of b to some nonzero x of a, so
    only the at most d multipliers x y0^-1 are tried, with one modular
    inverse.  Every unit fixes a set whose nonzero part is empty or all of
    Z_N^x ({0}, the simplex and the basis), sets of different sizes have no
    such m, and sets over different moduli raise ModulusMismatchError."""
    N = a.modulus.N
    if b.modulus.N != N:
        raise ModulusMismatchError(f"mixed moduli {N} and {b.modulus.N}")
    nonzero = b.elems[1:] if b.elems[0] == 0 else b.elems
    if len(nonzero) in (0, N - 1) or a.d != b.d:
        return tuple(range(1, N)) if a.elems == b.elems else ()
    target = set(a.elems)
    y0_inv = pow(nonzero[0], -1, N)
    candidates = sorted(x * y0_inv % N for x in a.elems if x)
    return tuple(m for m in candidates if all(m * y % N in target for y in b.elems))


def stabilizer(s: GeneratorSet) -> tuple[int, ...]:
    """All units fixing s as a set, sorted; always contains 1."""
    return multipliers(s, s)


def unit_subgroup(modulus: PrimeModulus, c: int) -> tuple[int, ...]:
    """The unique subgroup of Z_N^x of order c (requires c | N-1), sorted."""
    N = modulus.N
    if c < 1 or (N - 1) % c != 0:
        raise DomainError(f"no subgroup of order {c} in a group of order {N - 1}")
    if c == 1:
        return (1,)
    if c == N - 1:
        return tuple(range(1, N))  # all of Z_N^x
    h = pow(modulus.primitive_root, (N - 1) // c, N)
    return tuple(sorted(pow(h, j, N) for j in range(c)))


# the default budget of an enumeration, in the C(N, d) subsets it covers
DEFAULT_MAX_SUBSETS = 10**7


def subset_count(N: int, d: int) -> int:
    """C(N, d), refused with BudgetExceededError when too long to print;
    C(N, d) >= 2^min(d, N-d), so a huge d is refused before it is computed."""
    check_printable(f"C({N},{d})", min_bits=min(d, N - d) + 1)
    total = math.comb(N, d)
    check_printable(f"C({N},{d})", total)
    return total
