"""Deciding unitary equivalence of two frames of the same prime order.

Two frames are unitarily equivalent exactly when their generator sets lie in
the same orbit of the unit-group action, that is when some unit maps one set
onto the other, so the decision procedure is one multiplier search,
`number_theory.multipliers`, over at most d candidates.  A set against
itself needs no search: 1 is the smallest unit fixing any set, so its
witness is m0 = 1 with the identity permutation, at a cost that does not
grow with N, where the search lists all N-1 units for {0}, the simplex and
the basis.  For equivalent pairs a constructive witness is produced: a
column re-indexing m -> m * m0, m0 the smallest such unit, together with a
coordinate permutation of the d slots, whose application to one frame
reproduces the other entrywise.  Entry (k, m) of a frame is w^(m n_k), so
that identity holds for every column m iff it holds at m = 1, on the d
generators: m0 * b[perm[k]] = a[k] mod N.  That holds by construction, since
`multipliers` checked m0 . b = a exactly (or a = b and m0 = 1) and perm[k]
is the slot of a[k] * m0^-1 in b, and no frame matrix is built.
The tests check the identity entrywise on both d x N frame matrices, with
the test oracles, for the witnesses of every ordered pair in whole orbits.

For inequivalent pairs are_equivalent returns the certificate tag
orbit-mismatch: no unit maps b onto a.  It computes no further invariant,
which would add O(N d) work to every decision; the test oracles tally how
often the angle multiset, a necessary condition only, separates the orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModulusMismatchError
from .number_theory import GeneratorSet, multipliers

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


def are_equivalent(a: GeneratorSet, b: GeneratorSet) -> EquivalenceVerdict:
    """Orbit-identity decision.  Equivalent pairs carry a constructive
    witness, exact by construction; inequivalent pairs always carry the
    certificate orbit-mismatch.  A set against itself (same modulus, same
    elements) runs no search: its witness is m0 = 1, the smallest unit
    multipliers(a, a) would list, and the identity permutation."""
    # multipliers raises ModulusMismatchError on mixed moduli
    units = (1,) if a == b else multipliers(a, b)
    if a.d != b.d:
        raise ModulusMismatchError(f"mixed dimensions {a.d} and {b.d}")
    if not units:
        return EquivalenceVerdict(equivalent=False, certificate=CERT_ORBIT_MISMATCH)

    N, m0 = a.modulus.N, units[0]
    m0_inv = pow(m0, -1, N)
    position = {x: k for k, x in enumerate(b.elems)}
    perm = tuple(position[(x * m0_inv) % N] for x in a.elems)
    witness = Witness(m0=m0, coordinate_perm=perm)
    return EquivalenceVerdict(equivalent=True, witness=witness)
