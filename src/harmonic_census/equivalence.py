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
further invariant, which would add O(N d) work to every decision; the test
oracles tally how often the angle multiset, a necessary condition only,
separates the orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, ModulusMismatchError
from .orbits import GeneratorSet, canonical_rep

CERT_ORBIT_MISMATCH = "orbit-mismatch"


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
    certificate orbit-mismatch."""
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
