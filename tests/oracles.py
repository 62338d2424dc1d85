"""Independent brute-force oracles used to cross-validate the library.

Everything here is deliberately written against the definitions only, with
no reuse of the package's enumeration, counting or symmetry paths: plain
dict/set orbit chasing for subset orbits, all N-1 multipliers for a
stabilizer, a lex-min image (and the at most d images x^-1 . S that
the representative lemma leaves to try, each sorted and compared for every
candidate of a chunk in scan_every_column), the unit action m . S, the units
mapping one set onto another or an equivalence witness, per-entry floats
for a frame export, every ordered tuple generated for the scaling
action, the classical necklace count for the number of subset orbits,
an orbit-level recursion in Fractions (alpha) for the census by stabilizer
order, trial division for divisors and for the order of a unit, Z[w]
coefficient vectors counted here in bulk (exponent_counts), N x N
coefficient matrices from the frame's column inner products for Gram
entries and unit norms, every row of the circulant Gram check, the
d x d x N coefficient tensor for the row Gram, both d x N frame matrices
for an equivalence witness, every label t . S for the label-preserving
multipliers, each relation of the symmetry generators checked on its own,
backtracking over Gram labels plus exact unitary reconstruction for
symmetry groups, every unit with x^c = 1 for the stabilizers and coset
blocks of the orbit records and texts, a sieve for the primes up to a
bound, and Miller-Rabin to the twelve prime bases up to 37 as the
primality reference.  Slow but obviously correct; nothing in the package
is trusted beyond basic types (frame exponents and Gram labels, which the
tests check against t . S).  Harnesses also drive the library over
every orbit: enumerate_orbits lists the chunks of orbits.orbit_chunks as
one record per orbit, for the tests that check orbits one at a time;
enumerate_text and scan_text format those chunks as the output of the
`enumerate` and `scan` commands, one orbit at a time in Python, against the
CLI's numpy rendering; count_json, verify_json, equivalent_json and
symmetry_json build the json of the other commands as dicts, which
json_text writes with json.dumps, against the CLI's templates;
growth_ratio sets the library's orbit count against its leading-order
term; and are_equivalent runs on all pairs of sets, tallied against the
angle multisets.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, permutations
from typing import Iterator

import numpy as np

from harmonic_census import (
    BudgetExceededError,
    CyclotomicInt,
    DomainError,
    FrameMatrix,
    GeneratorSet,
    GramMatrix,
    PrimeModulus,
    Witness,
    are_equivalent,
    build_frame,
    count_harmonic_frames,
    full_census,
    full_symmetry_group,
    gram,
)
from harmonic_census import orbits
from harmonic_census.equivalence import CERT_ORBIT_MISMATCH
from harmonic_census.orbits import KIND_BLOCKS, KIND_ZERO_BLOCKS
from harmonic_census.symmetry import exceptional_orders

AUTOMORPHISM_CAP = 500_000


# -- exact Z[w] coefficient vectors, in bulk ---------------------------------
#
# Arrays of shape (..., N) of int64 coefficients: the last axis is the
# coefficient vector (c_0, ..., c_{N-1}) of sum c_k w^k, in the canonical
# form of CyclotomicInt.coeffs (last coefficient 0).  Each count of
# `exponent_counts` is at most the row length, which is at most N < 2^31, so
# canonical entries stay far below 2^63.


def canonicalize_array(coeffs: np.ndarray) -> np.ndarray:
    """Subtract the last coefficient along the final axis, as a new array."""
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


def stabilizer_scan(N: int, elems: tuple[int, ...]) -> tuple[int, ...]:
    """Every unit m with m . elems = elems, by trying all N-1 of them."""
    base = set(elems)
    return tuple(m for m in range(1, N) if all((m * x) % N in base for x in elems))


def lexmin_image(N: int, elems: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest m . elems over every unit m."""
    return min(tuple(sorted((m * x) % N for x in elems)) for m in range(1, N))


def scan_every_column(
    rows: np.ndarray, N: int, inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The orbit scan of a chunk of candidates with no tie lemma: for every
    multiplier column j past the element 1, every row still kept is mapped
    by x^-1 (x its j-th element), sorted and compared with itself.  A row
    is dropped when an image is lex-smaller; x fixes it when the image is
    the row.  Returns the kept rows and their fixed elements, as
    orbits._scan_candidates does; all rows share their head."""
    one = int(rows[0, 0] == 0)  # column holding the element 1
    fixes = np.zeros(rows.shape, dtype=bool)
    fixes[:, one] = True
    for j in range(one + 1, rows.shape[1]):
        img = np.sort(rows * inverse[rows[:, j]][:, None] % N, axis=1)
        differs = img != rows
        first = differs.argmax(axis=1)
        at = np.arange(len(rows))
        moved = differs[at, first]
        keep = ~moved | (img[at, first] > rows[at, first])
        rows, fixes = rows[keep], fixes[keep]
        fixes[:, j] = ~moved[keep]
    return rows, fixes


def act(m: int, s: GeneratorSet) -> GeneratorSet:
    """m . [n] = [m n_1, ..., m n_d], re-sorted."""
    N = s.modulus.N
    if m % N == 0:
        raise DomainError(f"{m} is not a unit mod {N}")
    return GeneratorSet(s.modulus, tuple((m * x) % N for x in s.elems))


def canonical_rep(s: GeneratorSet) -> GeneratorSet:
    """Lexicographically smallest member of the orbit of s.  It contains 1,
    so only the images x^-1 . s for nonzero x in s are tried (lexmin_image
    tries every unit); s = {0} is its own orbit."""
    N = s.modulus.N
    inverses = [pow(x, -1, N) for x in s.elems if x]
    images = [tuple(sorted(u * y % N for y in s.elems)) for u in inverses]
    return GeneratorSet(s.modulus, min(images, default=s.elems))


def multiplier_scan(N: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Every unit m with m . b = a as sets, by trying all N-1 of them."""
    target = sorted(a)
    return tuple(m for m in range(1, N) if sorted((m * x) % N for x in b) == target)


def witness_multiplier(N: int, a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """Smallest unit m with m . b = a as sets, scanning every m; None if
    there is none."""
    return next(iter(multiplier_scan(N, a, b)), None)


def divisors_trial(n: int) -> list[int]:
    """All divisors of n >= 1 in increasing order, by trial division up to
    sqrt(n)."""
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def multiplicative_order(m: int, modulus: PrimeModulus) -> int:
    """Smallest c >= 1 with m^c = 1 mod N, tried over the divisors of N-1
    by trial division."""
    N = modulus.N
    if m % N == 0:
        raise DomainError(f"{m} is not a unit mod {N}")
    m %= N
    return next(c for c in divisors_trial(N - 1) if pow(m, c, N) == 1)


# the twelve primes up to 37: Miller-Rabin to all of them decides every
# n < 3.3 * 10^24, far past the 2^32 the library's three bases cover
TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the Miller-Rabin round to base a: with
    n - 1 = 2^r t, t odd, a^t = 1 or a^(2^i t) = -1 mod n for some i < r.
    A base divisible by n is passed, as it decides nothing."""
    if a % n == 0:
        return True
    t, r = n - 1, 0
    while t % 2 == 0:
        t, r = t // 2, r + 1
    x = pow(a, t, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_reference(n: int, bases: tuple[int, ...] = TWELVE_BASES) -> bool:
    """Miller-Rabin to the given bases, by default TWELVE_BASES."""
    if n < 4:
        return n in (2, 3)
    return n % 2 == 1 and all(strong_probable_prime(n, a) for a in bases)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


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


def _ordered_tuples(
    N: int, d: int, T: np.ndarray, rows: int = 1 << 16
) -> Iterator[np.ndarray]:
    """Every ordered d-tuple of distinct residues mod N that extends a row of
    T, in blocks of at most about rows tuples: each row is extended, in
    turn, by every residue it does not hold."""
    if T.shape[1] == d:
        yield T
        return
    step = max(1, rows // (N - T.shape[1]))
    for lo in range(0, len(T), step):
        part = T[lo : lo + step]
        free = np.ones((len(part), N), dtype=bool)
        free[np.arange(len(part))[:, None], part] = False
        row, x = np.nonzero(free)
        yield from _ordered_tuples(N, d, np.column_stack((part[row], x)), rows)


def pi1_orbit_count_raw(N: int, d: int, budget: int = 10**7) -> int | None:
    """Number of scaling orbits of ordered distinct d-tuples, by generating
    every tuple and counting those that are the lexicographic minimum of
    their own orbit: each multiplier m = 2..N-1 drops the tuples that its
    image undercuts.  Returns None when the tuple count exceeds budget."""
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
    generated = count = 0
    for T in _ordered_tuples(N, d, np.empty((1, 0), dtype=np.int64)):
        generated += len(T)
        key0 = T @ weights
        for m in range(2, N):
            km = ((m * T) % N) @ weights
            # ties are impossible for d >= 2: a scaled tuple with a nonzero
            # coordinate equals the original only for m = 1
            assert not np.any(km == key0)
            keep = key0 < km
            T, key0 = T[keep], key0[keep]
        count += len(T)
    assert generated == total
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


# -- the orbit-level census recursion ----------------------------------------


def _target(N: int, d: int, c: int) -> int:
    """The one of d and d-1 that c divides, for a block order c > 1 that
    divides N-1."""
    if c <= 1:
        raise DomainError(f"block recursion needs c > 1, got c={c}")
    if (N - 1) % c != 0:
        raise DomainError(f"c={c} does not divide N-1={N - 1}")
    if d % c == 0:
        return d
    if (d - 1) % c == 0:
        return d - 1
    raise DomainError(f"c={c} divides neither d={d} nor d-1={d - 1}")


def _alphas(N: int, target: int, divs: list[int]) -> dict[int, Fraction]:
    """alpha_c for every c > 1 in divs (the divisors of N-1, ascending) with
    c | target, from the largest c down; target >= 1."""
    out: dict[int, Fraction] = {}
    for c in reversed(divs):
        if c == 1 or target % c:
            continue
        q = target // c
        num = 1
        for i in range(1, q):
            num *= N - 1 - i * c
        first = Fraction(num, c ** (q - 1) * math.factorial(q))
        sub = sum(
            (Fraction(N - 1, b) * a for b, a in out.items() if b % c == 0),
            Fraction(0),
        )
        out[c] = first - Fraction(c, N - 1) * sub
    return out


def _nontrivial_alphas(N: int, d: int) -> dict[int, Fraction]:
    divs = divisors_trial(N - 1)
    return {**_alphas(N, d, divs), **_alphas(N, d - 1, divs)}


def _alpha_1(N: int, d: int, alphas: dict[int, Fraction]) -> Fraction:
    total = Fraction(math.comb(N, d), N - 1)
    for c, a in alphas.items():
        total -= a / c
    return total


def alpha(modulus: PrimeModulus, d: int, c: int) -> Fraction:
    """The number of orbits of stabilizer order c, by a recursion at orbit
    level in Fractions, coded independently of the library's census.

    For c > 1 it counts orbits of stabilizer order c directly; alpha(1)
    balances against C(N, d).  Defined for d >= 2 (the c > 1 cases need at
    least one block).
    """
    N = modulus.N
    if d < 2:
        raise DomainError(f"alpha recursion needs d >= 2, got d={d}")
    if c == 1:
        return _alpha_1(N, d, _nontrivial_alphas(N, d))
    return _alphas(N, _target(N, d, c), divisors_trial(N - 1))[c]


def count_harmonic_frames_alpha(modulus: PrimeModulus, d: int) -> Fraction:
    """Total orbit count summed from the alpha recursion, over every c | N-1
    with c | d or c | d-1 (1 < d < N)."""
    N = modulus.N
    orders = [c for c in divisors_trial(N - 1) if d % c == 0 or (d - 1) % c == 0]
    return sum((alpha(modulus, d, c) for c in orders), Fraction(0))


def growth_ratio(modulus: PrimeModulus, d: int) -> float:
    """The library's count / (N^(d-1) / d!), the orbit count against its
    leading-order growth term.  Approaches 1 from below as N grows at fixed
    d."""
    N = modulus.N
    if not 1 < d < N:
        raise DomainError(f"growth diagnostic needs 1 < d < N, got d={d}, N={N}")
    return count_harmonic_frames(modulus, d) * math.factorial(d) / N ** (d - 1)


# -- block forms -------------------------------------------------------------


def roots_of_unity_mod(N: int, c: int) -> tuple[int, ...]:
    """H = {x : x^c = 1 mod N}, found by trying every unit: for c dividing
    N-1, the subgroup of order c of the units mod the prime N."""
    return tuple(x for x in range(1, N) if pow(x, c, N) == 1)


def coset_leaders(N: int, elems: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The smallest member of each coset x H, x a nonzero element of elems,
    with H = roots_of_unity_mod(N, c)."""
    H = roots_of_unity_mod(N, c)
    return tuple(sorted({min(x * h % N for h in H) for x in elems if x}))


def primitive_root_independence_check(
    modulus: PrimeModulus, c: int, n1: int, g1: int, g2: int
) -> bool:
    """Whether the coset {n1 * g^(j(N-1)/c)} is the same for both primitive
    roots g1 and g2.  Always true: either subgroup of order c is the full
    solution set of x^c = 1."""
    N = modulus.N
    if (N - 1) % c != 0:
        raise DomainError(f"{c} does not divide N-1 = {N - 1}")
    if n1 % N == 0:
        raise DomainError("n1 must be nonzero mod N")
    for g in (g1, g2):
        if len({pow(g, k, N) for k in range(N - 1)}) != N - 1:
            raise DomainError(f"{g} is not a primitive root mod {N}")
    step = (N - 1) // c
    set1 = {(n1 * pow(g1, j * step, N)) % N for j in range(c)}
    set2 = {(n1 * pow(g2, j * step, N)) % N for j in range(c)}
    return set1 == set2


# -- the library's orbits, one record each -----------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: canonical representative, size (N-1)/c, stabilizer, and
    the block form of the representative: its nonzero elements are the
    cosets x H of the stabilizer H, one per block leader x (the smallest
    element of its coset), and 0 rides along when kind says so."""

    rep: GeneratorSet
    size: int
    stab_order: int
    stabilizer: tuple[int, ...]
    block_leaders: tuple[int, ...]

    @property
    def kind(self) -> str:
        return KIND_ZERO_BLOCKS if self.rep.elems[0] == 0 else KIND_BLOCKS


def enumerate_orbits(
    modulus: PrimeModulus, d: int, *, max_subsets: int | None = None
) -> list[OrbitRecord]:
    """The orbits of orbits.orbit_chunks, looked up on the module so that a
    patched orbit_chunks is used, as a list of records.  Each stabilizer is
    the order-c unit subgroup, which the chunk check proved equal to the
    elements the scan found fixed."""
    N = modulus.N
    subgroups: dict[int, tuple[int, ...]] = {}
    records = []
    for reps, c, masks in orbits.orbit_chunks(modulus, d, max_subsets=max_subsets):
        skip = int(reps[0, 0] == 0)  # one head per chunk
        for i, (row, order) in enumerate(zip(reps.tolist(), c.tolist())):
            if order not in subgroups:
                subgroups[order] = roots_of_unity_mod(N, order)
            rep, stab = GeneratorSet(modulus, tuple(row)), subgroups[order]
            # at c = 1 the leaders are the nonzero elements
            leaders = tuple(row[skip:] if order == 1 else compress(row, masks[i].tolist()))
            records.append(OrbitRecord(rep, (N - 1) // order, order, stab, leaders))
    return records


def enumerate_text(N: int, d: int, fmt: str, chunks) -> str:
    """The output of `enumerate` for the chunks of orbits.orbit_chunks,
    formatted one orbit at a time in Python: each line joined from texts,
    the representative, then a fragment that depends only on c and the kind
    (memoized), then the block leaders, which at c = 1 are the nonzero
    elements."""
    sep = "|" if fmt == "csv" else ","
    head, tail = {
        "json": (f'{{"N":{N},"d":{d},"generators":[', "]}}"),
        "csv": ("", ""),
        "table": ("rep=[", "]"),
    }[fmt]

    def join(xs) -> str:
        return sep.join(map(str, xs))

    def middle(c: int, kind: str) -> str:
        size, stab = (N - 1) // c, join(roots_of_unity_mod(N, c))
        if fmt == "json":
            return (
                f'],"size":{size},"stab_order":{c},"stabilizer":[{stab}],'
                f'"structured_form":{{"kind":"{kind}","c":{c},"block_leaders":['
            )
        if fmt == "csv":
            return f",{size},{c},{stab},{kind},"
        return f"] size={size} c={c} stabilizer=[{stab}] kind={kind} leaders=["

    lines = []
    if fmt == "csv":
        lines.append("generators,size,stab_order,stabilizer,kind,block_leaders")
    middles: dict[tuple[int, str], str] = {}
    for reps, c, leaders in chunks:
        zero = reps[0, 0] == 0  # one head per chunk
        kind = KIND_ZERO_BLOCKS if zero else KIND_BLOCKS
        skip = 2 if zero else 0  # the text "0" and its separator
        for i, (row, order) in enumerate(zip(reps.tolist(), c.tolist())):
            gens = join(row)
            if (order, kind) not in middles:
                middles[order, kind] = middle(order, kind)
            if order == 1:
                lead = gens[skip:]
            else:
                lead = join(compress(row, leaders[i].tolist()))
            lines.append(head + gens + middles[order, kind] + lead + tail)
    return "\n".join(lines) + "\n"


def scan_text(N: int, d: int, fmt: str, chunks) -> str:
    """The output of `scan` for the chunks of orbits.orbit_chunks, built one
    orbit at a time in Python: a tuple per row, whose orders come from
    exceptional_orders on the chunk's first representative (all rows of a
    chunk share their head) or are N*c, then a dict per json row and one
    json.dumps of the whole (json_text); csv is the table."""
    rows = []
    for reps, c, _ in chunks:
        exception = exceptional_orders(N, reps[0].tolist())
        for rep, order in zip(reps.tolist(), c.tolist()):
            rows.append((rep, order, *(exception or (N * order, N * order, None))))
    counterexamples = [rep for rep, _, sub, full, _ in rows if full != sub]
    if fmt == "json":
        records = [
            {
                "rep": rep,
                "c": c,
                "subgroup_order": json_int(sub),
                "full_group_order": json_int(full),
                "conjecture_holds": full == sub,
                "note": note,
            }
            for rep, c, sub, full, note in rows
        ]
        obj = {"N": N, "d": d, "rows": records, "counterexamples": counterexamples}
        return json_text(obj)
    lines = [f"N={N} d={d} orbits={len(rows)}"]
    for rep, c, sub, full, _ in rows:
        mark = "holds=yes" if full == sub else "holds=NO  <-- counterexample"
        lines.append(f"rep=[{','.join(map(str, rep))}] c={c} subgroup={sub} full={full} {mark}")
    return "\n".join(lines) + "\n"


# -- the json of the small commands, as dicts --------------------------------


def json_int(v: int) -> int | str:
    """v, or its decimal string when a double cannot hold it."""
    return v if abs(v) < 2**53 else str(v)


def json_text(obj) -> str:
    """The compact json.dumps of obj and a newline: a command's json output."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def count_json(modulus: PrimeModulus, d: int) -> dict:
    """The json of `count` as a dict: the census by stabilizer order, and a
    note at d = 1 and d = N only."""
    N, census = modulus.N, full_census(modulus, d)
    rows = [
        {
            "c": c,
            "beta": json_int(census.beta[c]),
            "gamma": json_int(census.gamma[c]),
            "orbit_size": json_int(census.orbit_size(c)),
        }
        for c in sorted(census.gamma)
    ]
    obj = {"N": N, "d": d, "total": json_int(census.total), "rows": rows}
    if d == 1:
        obj["note"] = "d=1: two orbits, one of them the degenerate single-vector frame"
    elif d == N:
        obj["note"] = "d=N: a single orbit"
    return obj


def verify_json(modulus: PrimeModulus, d: int) -> dict:
    """The json of `verify` as a dict: the census against the stabilizer
    orders of every orbit of orbits.orbit_chunks, counted one orbit at a
    time."""
    N, census = modulus.N, full_census(modulus, d)
    hist: dict[int, int] = {}
    for _, c, _ in orbits.orbit_chunks(modulus, d):
        for order in c.tolist():
            hist[order] = hist.get(order, 0) + 1
    counts = [
        (c, census.gamma.get(c, 0), hist.get(c, 0))
        for c in sorted(set(census.gamma) | set(hist))
    ]
    total = sum(hist.values())
    return {
        "N": N,
        "d": d,
        "total_formula": json_int(census.total),
        "total_bruteforce": total,
        "match": census.total == total and all(f == b for _, f, b in counts),
        "rows": [
            {"c": c, "formula": json_int(f), "bruteforce": b, "match": f == b}
            for c, f, b in counts
        ],
    }


def equivalent_json(a: GeneratorSet, b: GeneratorSet) -> dict:
    """The json of `equivalent` as a dict: the witness, or the certificate."""
    verdict = are_equivalent(a, b)
    if not verdict.equivalent:
        return {"equivalent": False, "certificate": verdict.certificate}
    w = verdict.witness
    return {"equivalent": True, "m0": w.m0, "coordinate_perm": list(w.coordinate_perm)}


def symmetry_json(s: GeneratorSet) -> dict:
    """The json of `symmetry` as a dict, from full_symmetry_group."""
    report = full_symmetry_group(s)
    return {
        "N": s.modulus.N,
        "generators": list(s.elems),
        "stabilizer_order": report.stabilizer_order,
        "subgroup_order": json_int(report.subgroup_order),
        "full_group_order": json_int(report.full_group_order),
        "conjecture_holds": report.conjecture_holds,
        "generators_found": list(report.generators_found),
        "note": report.note,
    }


# -- equivalence across all orbits -------------------------------------------

CERT_ANGLE_MISMATCH = "angle-multiset-mismatch"


def angle_multiset(s: GeneratorSet) -> tuple[CyclotomicInt, ...]:
    """The multiset {sum_k w^(m n_k) : m = 1..N-1}, canonicalized and sorted
    by coefficient vector.  Invariant under the unit-group action."""
    N = s.modulus.N
    gens = np.array(s.elems, dtype=np.int64)
    m = np.arange(1, N, dtype=np.int64)
    coeffs = exponent_counts((m[:, None] * gens[None, :]) % N, N)
    rows = sorted(tuple(int(c) for c in row) for row in coeffs)
    return tuple(CyclotomicInt(s.modulus, row) for row in rows)


@dataclass(frozen=True)
class CrossValidationReport:
    """Pairs of orbits separated by the angle multisets count as
    angle-multiset-mismatch; the rest, logged in collisions, as
    orbit-mismatch.  Collisions are legitimate: the invariant is only
    necessary."""

    n_orbits: int
    cross_pairs_checked: int
    collisions: tuple[tuple[GeneratorSet, GeneratorSet], ...]
    certificates: dict[str, int]


def cross_validate_equivalence(modulus: PrimeModulus, d: int) -> CrossValidationReport:
    """are_equivalent on every pair of orbit representatives, which must be
    inequivalent, with their angle multisets compared, and on every pair
    within an orbit, which must be equivalent with a verified witness.
    The orbits come from subset_orbit_census."""
    N = modulus.N
    reps = [GeneratorSet(modulus, r) for r in sorted(subset_orbit_census(N, d))]
    angles = [angle_multiset(r) for r in reps]

    collisions = []
    certificates = {CERT_ANGLE_MISMATCH: 0, CERT_ORBIT_MISMATCH: 0}
    pairs = list(combinations(range(len(reps)), 2))
    for i, j in pairs:
        assert not are_equivalent(reps[i], reps[j]).equivalent
        if angles[i] != angles[j]:
            certificates[CERT_ANGLE_MISMATCH] += 1
        else:
            certificates[CERT_ORBIT_MISMATCH] += 1
            collisions.append((reps[i], reps[j]))
    for rep in reps:
        members = sorted({tuple(sorted(m * x % N for x in rep)) for m in range(1, N)})
        sets = [GeneratorSet(modulus, e) for e in members]
        assert all(are_equivalent(a, b).equivalent for a, b in combinations(sets, 2))
    return CrossValidationReport(len(reps), len(pairs), tuple(collisions), certificates)


# -- frames, Gram matrices and witnesses on the full matrices -----------------


def gram_coefficients(frame: FrameMatrix, j: int = 0) -> np.ndarray:
    """Row j of the Gram matrix as an (N, N) array: row k is the canonical
    coefficient vector of <phi_k, phi_j> = sum_l w^(E[l, k] - E[l, j]), the
    unscaled entry (j, k), from the column inner products."""
    E = frame.exponents
    return exponent_counts((E.T - E.T[j]) % frame.N, frame.N)


def gram_all_rows(frame: FrameMatrix) -> bool:
    """The circulant Gram check on every row j, with no cut in N: column k
    minus column j of the exponents equals the label row (k - j) . [n] mod N
    for every j and k.  One (N, d) comparison per row."""
    N = frame.N
    gens = np.array(frame.generators.elems, dtype=np.int64)
    t = np.arange(N, dtype=np.int64)
    label_rows = (t[:, None] * gens[None, :]) % N  # (N, d): t . [n]
    cols = frame.exponents.T
    return all(
        np.array_equal((cols - cols[j]) % N, label_rows[(t - j) % N]) for j in range(N)
    )


def row_gram_by_counts(frame: FrameMatrix) -> bool:
    """Phi Phi^* = N I_d, compared as the (d, d, N) canonical coefficient
    tensor of (Phi Phi^*)[k, l] = sum_m w^(m (n_k - n_l))."""
    N, d = frame.N, frame.d
    gens = np.array(frame.generators.elems, dtype=np.int64)
    diff = (gens[:, None] - gens[None, :]) % N  # (d, d)
    exps = (diff[:, :, None] * np.arange(N, dtype=np.int64)) % N  # (d, d, N)
    expected = np.zeros((d, d, N), dtype=np.int64)
    expected[np.arange(d), np.arange(d), 0] = N
    return bool(np.array_equal(exponent_counts(exps, N), canonicalize_array(expected)))


def unit_norm_by_counts(frame: FrameMatrix) -> bool:
    """Every unscaled column has squared norm d, compared as the N x N
    canonical coefficient matrix of sum_k w^(m n_k) conj(w^(m n_k))."""
    N, E = frame.N, frame.exponents
    col_coeffs = exponent_counts((E + (-E) % N).T % N, N)
    want_norm = np.zeros((N, N), dtype=np.int64)
    want_norm[:, 0] = frame.d
    return bool(np.array_equal(col_coeffs, canonicalize_array(want_norm)))


def verify_witness_frames(a: GeneratorSet, b: GeneratorSet, witness: Witness) -> bool:
    """The witness identity entrywise on both frame matrices:
    B[perm[k], m*m0 mod N] == A[k, m] for all k, m."""
    N = a.modulus.N
    fa, fb = build_frame(a), build_frame(b)
    perm = np.array(witness.coordinate_perm, dtype=np.int64)
    cols = (witness.m0 * np.arange(N, dtype=np.int64)) % N
    transformed = fb.exponents[perm][:, cols]
    return bool(np.array_equal(transformed, fa.exponents))


def export_frame_entries(frame: FrameMatrix, format: str) -> bytes:
    """export_frame entry by entry: each of the 2 d N floats of w^e / sqrt(d)
    from its own cmath.exp (w = -1 at N = 2), rounded to 12 significant
    digits, then json.dumps of the whole object, or a per-cell f-string for
    csv; the table right-aligns each exponent m n_k mod N on its own."""
    N = frame.N
    if format == "table":
        gens = list(frame.generators.elems)
        head = [
            f"N={N} d={frame.d} generators={str(gens).replace(' ', '')} normalization=1/sqrt(d)",
            "exponent matrix (entry (k,m) = m*n_k mod N):",
        ]
        rows = ["  " + " ".join(str(m * n % N).rjust(3) for m in range(N)) for n in gens]
        return ("\n".join(head + rows) + "\n").encode("utf-8")
    scale = 1.0 / math.sqrt(frame.d)

    def rounded(x: float) -> float:
        v = float(f"{x:.12g}")
        return 0.0 if v == 0.0 else v

    def entry(e: int) -> tuple[float, float]:
        z = (-1 if e else 1) if N == 2 else cmath.exp(2j * cmath.pi * e / N)
        return rounded((z * scale).real), rounded((z * scale).imag)

    entries = [[entry(e) for e in row] for row in frame.exponents.tolist()]
    if format == "json":
        obj = {
            "N": N,
            "d": frame.d,
            "generators": list(frame.generators.elems),
            "exponents": frame.exponents.tolist(),
            "real": [[re for re, _ in row] for row in entries],
            "imag": [[im for _, im in row] for row in entries],
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
    lines = [
        ",".join(f"{re:.12g}{'-' if im < 0 else '+'}{abs(im):.12g}i" for re, im in row)
        for row in entries
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- symmetry groups by search -----------------------------------------------


def gram_automorphisms(g: GramMatrix, *, max_N: int = 31) -> list[tuple[int, ...]]:
    """All column permutations preserving the difference labels, found by
    backtracking: sigma(i) - sigma(0) must land in the label class of i, and
    every earlier difference constrains the extension.  Always contains the
    N cyclic shifts.  Label classes are negation-symmetric, so preserving
    differences one way preserves them both ways; both are checked anyway.
    Refuses N > max_N, and label structures whose group is all of S_N.
    """
    N = g.N
    if N > max_N:
        raise BudgetExceededError(
            f"Gram automorphism search for N={N} exceeds limit {max_N}",
            required=N,
            budget=max_N,
        )
    label_ids: dict[tuple, int] = {}
    cls = [label_ids.setdefault(g.difference_label(t), len(label_ids)) for t in range(N)]
    same = [[tp for tp in range(N) if cls[tp] == cls[t]] for t in range(N)]
    if N > 2 and len(set(cls[1:])) == 1:
        raise BudgetExceededError(
            "all off-diagonal labels coincide; the automorphism group is all "
            f"of S_{N} and is not enumerated",
            required=math.factorial(N),
            budget=AUTOMORPHISM_CAP,
        )

    out: list[tuple[int, ...]] = []
    sigma = [0] * N
    used = [False] * N

    def extend(i: int) -> None:
        if i == N:
            out.append(tuple(sigma))
            if len(out) > AUTOMORPHISM_CAP:
                raise BudgetExceededError(
                    "automorphism group larger than cap",
                    required=-1,
                    budget=AUTOMORPHISM_CAP,
                )
            return
        for delta in same[i]:
            cand = (sigma[0] + delta) % N
            if used[cand]:
                continue
            ok = True
            for j in range(1, i):
                if (
                    cls[(cand - sigma[j]) % N] != cls[(i - j) % N]
                    or cls[(sigma[j] - cand) % N] != cls[(j - i) % N]
                ):
                    ok = False
                    break
            if ok:
                sigma[i] = cand
                used[cand] = True
                extend(i + 1)
                used[cand] = False

    for s0 in range(N):
        sigma[0] = s0
        used[s0] = True
        extend(1)
        used[s0] = False
    out.sort()
    return out


def label_multipliers(s: GeneratorSet) -> tuple[int, ...]:
    """The units a that keep every Gram label, sorted(t S) = sorted(a t S)
    for all t in Z_N, from the (N-1, N, d) array of all labels."""
    N = s.modulus.N
    t = np.arange(N, dtype=np.int64)
    labels = np.sort(t[:, None] * np.array(s.elems, dtype=np.int64) % N, axis=1)
    units = t[1:]
    keep = (labels[units[:, None] * t % N] == labels).all(axis=(1, 2))
    return tuple(units[keep].tolist())


def generator_relations_hold(s: GeneratorSet, h: int, c: int, stab: list[int]) -> bool:
    """The three checks of the symmetry generators, one by one: h maps S
    into itself (so Q is a slot permutation), h^c fixes every element of S
    (Q^c = I), and h^0, ..., h^(c-1) are the units of stab."""
    N, elems = s.modulus.N, set(s.elems)
    maps_into = all(h * x % N in elems for x in elems)
    order_c = all(pow(h, c, N) * x % N == x for x in elems)
    return maps_into and order_c and sorted(pow(h, k, N) for k in range(c)) == stab


def verify_permutations(frame: FrameMatrix, sigmas: np.ndarray) -> np.ndarray:
    """For each candidate column permutation, reconstruct the unique unitary
    candidate U = (1/N) Phi P_sigma Phi^* and test, exactly,
    U Phi = Phi P_sigma and U U^* = I.  Returns a boolean vector."""
    if len(sigmas) > 128:  # bound the (S, d, N, N) work tensors
        return np.concatenate(
            [
                verify_permutations(frame, sigmas[i : i + 128])
                for i in range(0, len(sigmas), 128)
            ]
        )
    N, d = frame.N, frame.d
    E = frame.exponents
    gens = np.array(frame.generators.elems, dtype=np.int64)
    S = len(sigmas)
    T = np.arange(N, dtype=np.int64)

    # N U[i,j] = sum_m w^(sigma(m) n_i - m n_j)
    A = (sigmas[:, None, :] * gens[None, :, None]) % N  # (S, d, N): sigma(m) n_i
    EX = (A[:, :, None, :] - E[None, None, :, :]) % N  # (S, d, d, N) over m
    Uc = exponent_counts(EX, N)  # (S, d, d, N), canonical

    # (N U) Phi: coefficient at t of sum_j (N U)[i,j] w^(m n_j)
    IDX = (T[None, None, :] - E[:, :, None]) % N  # (d, N, N): [j, m, t]
    lhs = np.zeros((S, d, N, N), dtype=np.int64)
    for j in range(d):
        lhs += Uc[:, :, j, :][:, :, IDX[j]]
    lhs = canonicalize_array(lhs)
    rhs = exponent_counts(A[..., None], N) * N  # N * one-hot(sigma(m) n_i)
    ok = (lhs == rhs).all(axis=(1, 2, 3))

    # (N U)(N U)^*: coefficient t of sum_j U[i,j] conj(U[k,j])
    W = np.empty((S, d, d, N), dtype=np.int64)
    for t in range(N):
        shifted = np.take(Uc, (T - t) % N, axis=3)
        W[:, :, :, t] = np.einsum("siju,skju->sik", Uc, shifted)
    W = canonicalize_array(W)
    expected = np.zeros((d, d, N), dtype=np.int64)
    expected[np.arange(d), np.arange(d), 0] = N * N
    expected = canonicalize_array(expected)
    ok &= (W == expected[None]).all(axis=(1, 2, 3))
    return ok


def symmetry_permutations(frame: FrameMatrix, *, max_N: int = 31) -> set[tuple[int, ...]]:
    """The full symmetry group as column permutations: the Gram
    automorphisms that an exact unitary realizes."""
    candidates = gram_automorphisms(gram(frame), max_N=max_N)
    keep = verify_permutations(frame, np.array(candidates, dtype=np.int64))
    return {sig for sig, ok in zip(candidates, keep) if ok}


@dataclass(frozen=True)
class ReconstructedElement:
    """The exact unitary (1/denominator) * dense, dense[i, j] a coefficient
    vector in Z[w]."""

    column_perm: tuple[int, ...]
    dense: np.ndarray
    denominator: int


def reconstructed_element(frame: FrameMatrix, sigma: tuple[int, ...]) -> ReconstructedElement:
    """The exact unitary (1/N) Phi P_sigma Phi^*."""
    N = frame.N
    gens = np.array(frame.generators.elems, dtype=np.int64)
    sig = np.array(sigma, dtype=np.int64)
    A = (sig[None, :] * gens[:, None]) % N  # (d, N)
    EX = (A[:, None, :] - frame.exponents[None, :, :]) % N  # (d, d, N)
    return ReconstructedElement(tuple(sigma), exponent_counts(EX, N), N)
