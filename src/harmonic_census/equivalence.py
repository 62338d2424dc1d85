"""Deciding unitary equivalence of two frames of the same prime order.

Two frames are unitarily equivalent exactly when their generator sets lie in
the same orbit of the unit-group action, so the decision procedure is
canonical-representative equality.  For equivalent pairs a constructive
witness is produced: a column re-indexing m -> m * m0 together with a
coordinate permutation of the d slots, whose application to one frame
reproduces the other entrywise.  Entry (k, m) of a frame is w^(m n_k), so
that identity holds for every column m iff it holds at m = 1; the witness
is re-verified exactly on the d generators, m0 * b[perm[k]] = a[k] mod N,
before it is returned, and no frame matrix is built.  The check on both
d x N frame matrices lives in the test oracles.

For inequivalent pairs are_equivalent returns the certificate tag
orbit-mismatch: the canonical representatives differ.  It computes no
further invariant, which would add O(N d) work to every decision.  The
multiset of unscaled inner products against the all-ones vector,
{ sum_k w^(m n_k) : m = 1, ..., N-1 },
is a unitary invariant that usually separates orbits, and
cross_validate_equivalence tallies, for each pair of distinct orbits,
whether it does (angle-multiset-mismatch) or the multisets collide
(orbit-mismatch).  It is only a necessary condition, so a collision is
logged, never treated as equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import CyclotomicInt, exponent_counts
from .errors import ContractViolationError, ModulusMismatchError
from .orbits import GeneratorSet, act, canonical_rep, enumerate_orbits

CERT_ORBIT_MISMATCH = "orbit-mismatch"
CERT_ANGLE_MISMATCH = "angle-multiset-mismatch"


@dataclass(frozen=True)
class Witness:
    """Re-indexing multiplier m0 and slot permutation sigma2: frame B with
    columns re-indexed by m -> m*m0 and rows permuted by sigma2 equals
    frame A."""

    m0: int
    coordinate_perm: tuple[int, ...]


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    witness: Witness | None = None
    certificate: str | None = None


def angle_multiset(s: GeneratorSet) -> tuple[CyclotomicInt, ...]:
    """The multiset {sum_k w^(m n_k) : m = 1..N-1}, canonicalized and sorted
    by coefficient vector.  Invariant under the unit-group action."""
    N = s.modulus.N
    gens = np.array(s.elems, dtype=np.int64)
    m = np.arange(1, N, dtype=np.int64)
    coeffs = exponent_counts((m[:, None] * gens[None, :]) % N, N)
    rows = sorted(tuple(int(c) for c in row) for row in coeffs)
    return tuple(CyclotomicInt(s.modulus, row) for row in rows)


def verify_witness(a: GeneratorSet, b: GeneratorSet, witness: Witness) -> bool:
    """Exact check of the witness identity B[perm[k], m*m0 mod N] == A[k, m]
    for all k, m, on the generators: m0 * b[perm[k]] == a[k] (mod N)."""
    N, perm = a.modulus.N, witness.coordinate_perm
    return len(perm) == a.d and all(
        (witness.m0 * b.elems[p] - x) % N == 0 for p, x in zip(perm, a.elems)
    )


def are_equivalent(a: GeneratorSet, b: GeneratorSet) -> EquivalenceVerdict:
    """Orbit-identity decision.  Equivalent pairs carry a constructive
    witness, verified exactly; inequivalent pairs always carry the
    certificate orbit-mismatch (the angle-multiset certificate is tallied
    only by cross_validate_equivalence)."""
    if a.modulus != b.modulus:
        raise ModulusMismatchError(
            f"mixed moduli {a.modulus.N} and {b.modulus.N}"
        )
    if a.d != b.d:
        raise ModulusMismatchError(f"mixed dimensions {a.d} and {b.d}")
    N = a.modulus.N
    if canonical_rep(a) != canonical_rep(b):
        return EquivalenceVerdict(equivalent=False, certificate=CERT_ORBIT_MISMATCH)

    # m . b = a sends some nonzero y in b to the smallest nonzero a0 in a,
    # so m = a0 / y; {0} is fixed by every unit and takes m0 = 1
    a0 = next((x for x in a.elems if x), None)
    m0 = 1
    if a0 is not None:
        m0 = min(
            m
            for m in (a0 * pow(y, -1, N) % N for y in b.elems if y)
            if tuple(sorted(m * x % N for x in b.elems)) == a.elems
        )
    m0_inv = pow(m0, -1, N)
    position = {x: k for k, x in enumerate(b.elems)}
    perm = tuple(position[(x * m0_inv) % N] for x in a.elems)
    witness = Witness(m0=m0, coordinate_perm=perm)
    if not verify_witness(a, b, witness):
        raise ContractViolationError(f"witness {witness} failed for {a}, {b}")
    return EquivalenceVerdict(equivalent=True, witness=witness)


@dataclass(frozen=True)
class CrossValidationReport:
    """Pairwise certification of all orbits at one (N, d).

    Cross pairs separated by the angle invariant carry the
    angle-multiset-mismatch certificate; pairs whose angle multisets collide
    fall back to orbit-mismatch and are logged in collisions.  Collisions
    are legitimate (the invariant is only necessary) and are recorded, never
    escalated.
    """

    n_orbits: int
    cross_pairs_checked: int
    within_pairs_checked: int
    collisions: tuple[tuple[GeneratorSet, GeneratorSet], ...]
    certificates: dict[str, int]


def cross_validate_equivalence(
    modulus, d: int, *, max_subsets: int | None = None
) -> CrossValidationReport:
    """For every pair of orbit representatives assert inequivalence and
    compare angle multisets; for every pair within an orbit verify the
    constructive witness.  Witness failures raise; collisions are logged."""
    records = enumerate_orbits(modulus, d, max_subsets=max_subsets)
    reps = [r.rep for r in records]
    angles = [angle_multiset(r) for r in reps]

    collisions = []
    cross_pairs = 0
    certificates = {CERT_ANGLE_MISMATCH: 0, CERT_ORBIT_MISMATCH: 0}
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            cross_pairs += 1
            verdict = are_equivalent(reps[i], reps[j])
            if verdict.equivalent:
                raise ContractViolationError(
                    f"distinct representatives {reps[i]}, {reps[j]} judged equivalent"
                )
            if angles[i] != angles[j]:
                certificates[CERT_ANGLE_MISMATCH] += 1
            else:
                certificates[CERT_ORBIT_MISMATCH] += 1
                collisions.append((reps[i], reps[j]))

    within_pairs = 0
    N = modulus.N
    for rec in records:
        members = sorted({act(m, rec.rep).elems for m in range(1, N)})
        sets = [GeneratorSet(modulus, e) for e in members]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                within_pairs += 1
                verdict = are_equivalent(sets[i], sets[j])
                if not verdict.equivalent:
                    raise ContractViolationError(
                        f"orbit members {sets[i]}, {sets[j]} judged inequivalent"
                    )

    return CrossValidationReport(
        n_orbits=len(reps),
        cross_pairs_checked=cross_pairs,
        within_pairs_checked=within_pairs,
        collisions=tuple(collisions),
        certificates=certificates,
    )
