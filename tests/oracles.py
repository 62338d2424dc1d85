"""Independent brute-force oracles used to cross-validate the library.

Everything here is deliberately written against the definitions only, with
no reuse of the package's enumeration or counting paths: plain dict/set
orbit chasing for subset orbits, all N-1 multipliers for a lex-min image,
raw streaming over ordered tuples for the scaling action, and the classical
necklace count for the number of subset orbits.  Slow but obviously
correct; nothing in the package is trusted beyond basic types.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, permutations

import numpy as np


def subset_orbit_census(N: int, d: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Map lex-min representative -> (orbit size, stabilizer order), by
    exhaustive orbit chasing over all C(N, d) subsets."""
    seen: set[tuple[int, ...]] = set()
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    for sub in combinations(range(N), d):
        if sub in seen:
            continue
        orbit = {tuple(sorted((m * x) % N for x in sub)) for m in range(1, N)}
        seen |= orbit
        stab = sum(
            1
            for m in range(1, N)
            if tuple(sorted((m * x) % N for x in sub)) == sub
        )
        out[min(orbit)] = (len(orbit), stab)
    return out


def lexmin_image(N: int, elems: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest m . elems over every unit m."""
    return min(tuple(sorted((m * x) % N for x in elems)) for m in range(1, N))


def necklace_count(n: int, k: int) -> int:
    """Binary necklaces of length n with k ones, up to rotation:
    (1/n) sum_{j | gcd(n, k)} phi(j) C(n/j, k/j)."""
    g = math.gcd(n, k)
    total = 0
    for j in range(1, g + 1):
        if g % j == 0:
            phi = sum(1 for i in range(1, j + 1) if math.gcd(i, j) == 1)
            total += phi * math.comb(n // j, k // j)
    assert total % n == 0
    return total // n


def subset_orbit_count_via_necklaces(N: int, d: int) -> int:
    """Number of d-subset orbits of Z_N under the units, for prime N.

    The units are cyclic of order N-1, so through the discrete log a set of
    nonzero elements is a binary necklace of length N-1; 0 is fixed, so the
    sets with and without 0 give Neck(N-1, d-1) + Neck(N-1, d)."""
    return necklace_count(N - 1, d) + necklace_count(N - 1, d - 1)


def pi1_orbit_count_raw(N: int, d: int, budget: int = 10**7) -> int | None:
    """Number of scaling orbits of ordered distinct d-tuples, by streaming
    every tuple and counting those that are the lexicographic minimum of
    their own orbit.  Returns None when the tuple count exceeds budget."""
    total = math.factorial(N) // math.factorial(N - d)
    if total > budget:
        return None
    if N == 2 or d == 1:
        orbits = {
            frozenset(tuple((m * x) % N for x in t) for m in range(1, N))
            for t in permutations(range(N), d)
        }
        return len(orbits)

    weights = np.array([N ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    flat = chain.from_iterable(permutations(range(N), d))
    remaining = total
    chunk_rows = 1 << 17
    count = 0
    while remaining:
        rows = min(chunk_rows, remaining)
        T = np.fromiter(flat, dtype=np.int64, count=rows * d).reshape(rows, d)
        remaining -= rows
        key0 = T @ weights
        is_canon = np.ones(rows, dtype=bool)
        for m in range(2, N):
            km = ((m * T) % N) @ weights
            # ties are impossible for d >= 2: a scaled tuple with a nonzero
            # coordinate equals the original only for m = 1
            assert not np.any(km == key0)
            is_canon &= key0 <= km
        count += int(is_canon.sum())
    return count


def pi1_orbit_count_via_subsets(N: int, d: int) -> int:
    """Scaling-orbit count of ordered tuples, reduced to unordered subsets:
    the tuples over one subset orbit of stabilizer order c split into d!/c
    tuple orbits (tuple stabilizers are trivial for d >= 2).  d = 1 is
    counted directly."""
    if d == 1:
        orbits = {
            frozenset((m * x) % N for m in range(1, N)) for x in range(N)
        }
        return len(orbits)
    census = subset_orbit_census(N, d)
    total = 0
    for _, (_, stab) in census.items():
        assert math.factorial(d) % stab == 0
        total += math.factorial(d) // stab
    return total
