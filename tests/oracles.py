"""Independent brute-force oracles used to cross-validate the library.

Everything here is deliberately written against the definitions only, with
no reuse of the package's enumeration, counting or symmetry paths: plain
dict/set orbit chasing for subset orbits, all N-1 multipliers for a
stabilizer, a lex-min image or an equivalence witness, raw streaming over
ordered tuples for the scaling action, the classical necklace count for the number of subset
orbits, trial division for divisors, N x N coefficient matrices from the
frame's column inner products for Gram entries and unit norms, the
d x d x N coefficient tensor for the row Gram, both d x N frame matrices
for an equivalence witness, every label t . S for the label-preserving
multipliers, backtracking over Gram labels plus exact unitary
reconstruction for symmetry groups, every unit with x^c = 1 for coset
blocks, and schoolbook products for Z[w].  Slow but obviously correct;
nothing in the package is trusted beyond basic types (frame exponents, Gram
labels, which the tests check against t . S, and the exact cyclotomic
coefficient helpers).  Two harnesses also drive the library over every
orbit: the total of its alpha recursion, and are_equivalent on all pairs of
sets, tallied against the angle multisets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np

from harmonic_census import (
    BudgetExceededError,
    CyclotomicInt,
    DomainError,
    FrameMatrix,
    GeneratorSet,
    GramMatrix,
    ModulusMismatchError,
    PrimeModulus,
    ScaledCyclotomic,
    SymmetryElement,
    Witness,
    alpha,
    are_equivalent,
    build_frame,
    gram,
)
from harmonic_census.cyclotomic import canonicalize_array, exponent_counts
from harmonic_census.equivalence import CERT_ORBIT_MISMATCH

AUTOMORPHISM_CAP = 500_000


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


def witness_multiplier(N: int, a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """Smallest unit m with m . b = a as sets, scanning every m; None if
    there is none."""
    target = sorted(a)
    return next(
        (m for m in range(1, N) if sorted((m * x) % N for x in b) == target), None
    )


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


def count_harmonic_frames_alpha(modulus: PrimeModulus, d: int) -> Fraction:
    """Total orbit count summed from the library's alpha recursion, over
    every c | N-1 with c | d or c | d-1 (1 < d < N)."""
    N = modulus.N
    orders = [c for c in divisors_trial(N - 1) if d % c == 0 or (d - 1) % c == 0]
    return sum((alpha(modulus, d, c) for c in orders), Fraction(0))


# -- block forms -------------------------------------------------------------


def coset_leaders(N: int, elems: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The smallest member of each coset x H, x a nonzero element of elems,
    with H = {x : x^c = 1 mod N} found by trying every unit."""
    H = [x for x in range(1, N) if pow(x, c, N) == 1]
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


# -- exact cyclotomic products -----------------------------------------------


def multiply(a: CyclotomicInt, b: CyclotomicInt) -> CyclotomicInt:
    """a * b in Z[w], by the schoolbook product of coefficient vectors."""
    if a.modulus != b.modulus:
        raise ModulusMismatchError(f"mixed moduli {a.modulus.N} and {b.modulus.N}")
    N = a.modulus.N
    out = [0] * N
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[(i + j) % N] += x * y
    return CyclotomicInt(a.modulus, tuple(out))


def conjugate(a: CyclotomicInt) -> CyclotomicInt:
    """Complex conjugation, w^k -> w^(N-k)."""
    return CyclotomicInt(a.modulus, a.coeffs[:1] + a.coeffs[:0:-1])


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

    modulus: PrimeModulus
    column_perm: tuple[int, ...]
    dense: np.ndarray
    denominator: int

    def entry(self, i: int, j: int) -> ScaledCyclotomic:
        coeffs = tuple(int(c) for c in self.dense[i, j])
        return ScaledCyclotomic(CyclotomicInt(self.modulus, coeffs), self.denominator)


def element_entry(e: SymmetryElement, i: int, j: int) -> ScaledCyclotomic:
    """Entry (i, j) of the monomial unitary of a symmetry element: w^expo[i]
    in column src[i], zero elsewhere."""
    coeffs = [0] * e.modulus.N
    if e.src[i] == j:
        coeffs[e.expo[i]] = 1
    return ScaledCyclotomic(CyclotomicInt(e.modulus, tuple(coeffs)), 1)


def reconstructed_element(frame: FrameMatrix, sigma: tuple[int, ...]) -> ReconstructedElement:
    """The exact unitary (1/N) Phi P_sigma Phi^*."""
    N = frame.N
    gens = np.array(frame.generators.elems, dtype=np.int64)
    sig = np.array(sigma, dtype=np.int64)
    A = (sig[None, :] * gens[:, None]) % N  # (d, N)
    EX = (A[:, None, :] - frame.exponents[None, :, :]) % N  # (d, d, N)
    return ReconstructedElement(frame.modulus, tuple(sigma), exponent_counts(EX, N), N)
