"""Symmetry groups of prime-order frames, in closed form and verified exactly.

U is a symmetry when U Phi = Phi P_sigma for a column permutation sigma.  A
tight frame is fixed up to a unitary by its Gram matrix, so for distinct
columns sigma is realized, by a unique unitary, iff it preserves the Gram.
The Gram entry of difference t is (1/d) sum_k w^(t n_k); the only rational
relation among w^0, ..., w^(N-1) is that they sum to zero, so two entries are
equal iff their labels, the multisets t S, are equal.

Guaranteed subgroup.  D = diag(w^(n_1), ..., w^(n_d)) induces m -> m+1.
With c = |Stab(S)|, h = g^((N-1)/c) generates Stab(S) and permutes the
generators; that slot permutation Q induces m -> hm, and Q D Q^{-1} = D^h.
<D, Q> realizes exactly the maps m -> a m + b with a in Stab(S), order N*c.

Full group.  The Gram-preserving permutations contain the N-cycle, so they
form a transitive group of prime degree, which by Burnside's theorem
(Dixon & Mortimer, Permutation Groups, Cor. 3.5B) is 2-transitive or lies
in AGL(1, N).  There m -> a m + b preserves the Gram iff the labels
G(t) = sum_k w^(t n_k) satisfy G(a t) = G(t); G(a .) is the Fourier
transform of the indicator of a S, so by Fourier inversion a S = S: a lies
in Stab(S) and the full group is <D, Q>.  A 2-transitive group makes all
off-diagonal Gram entries equal, so G is constant off 0 and S is {0} (N
copies of one vector: trivial group), all units (the regular simplex) or
Z_N (a scaled orthogonal basis); the last two have all N! permutations.

Nothing is searched.  Entry (k, m) of the frame is w^(m n_k), so each
relation of D and Q holds on every column iff it holds on the generators
(m = 1), where it is checked exactly.  Column permutations are listed lazily
from the pairs (a, b), so nothing of size N is built, and full_symmetry_group
costs O(d^2): one computation of Stab(S).  For the simplex and the basis
Stab(S) is every unit and is not computed; their check costs O(N).  Both
orders are N*c, so they depend on S only through c, except for the three
sets above, which exceptional_orders names; the CLI's scan takes c from the
enumeration, one row text per c, and asks exceptional_orders only about the
sets every unit fixes (c = N-1) and, for its exit code, the last orbit.  The order N! of
the simplex and the basis is computed only up to N = FACTORIAL_MAX_N, and
is refused by errors.check_printable when it has more digits than the
interpreter's int-to-str limit; past either bound neither group of these
two sets is reported.  The label pass over every t and a backtracking search
with exact unitary reconstruction check all this in tests/oracles.py.  See
also Vale & Waldron, "The symmetry group of a finite frame" (2010).

Complements.  Z_N - S has the stabilizer of S (orbits.orbit_chunks
enumerates d > N/2 that way) and gives the Naimark complement of the frame
of S, which has the same symmetry group (Vale & Waldron).  So S and Z_N - S
are reported with equal orders, with one exception: {0}, N copies of one
vector, is reported with the trivial group, while its complement, the
simplex, has all N! permutations.  That report is kept as it is.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .errors import BudgetExceededError, ContractViolationError, check_printable
from .number_theory import GeneratorSet, stabilizer

# the largest N whose N! has at most 4300 digits, the default limit of
# Python's int-to-str conversion; 1553 is the largest prime below it
FACTORIAL_MAX_N = 1558


class _Listing(Sequence):
    """A read-only sequence of n items, each computed on access."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        j = range(self._n)[i]  # IndexError past the end; a range for a slice
        return tuple(map(self._item, j)) if isinstance(j, range) else self._item(j)


class AffinePermutations(_Listing):
    """The permutations m -> a m + b of Z_N, a in multipliers and b in Z_N,
    in lexicographic order."""

    def __init__(self, N: int, multipliers: Sequence[int]):
        self.N, self.multipliers = N, tuple(sorted(multipliers))
        super().__init__(N * len(self.multipliers), self._permutation)

    def _permutation(self, i: int) -> tuple[int, ...]:
        # (b, a + b, ...): by b, then by (a + b) mod N
        N, mults = self.N, self.multipliers
        b, j = divmod(i, len(mults))
        a = mults[(bisect.bisect_left(mults, N - b) + j) % len(mults)]
        return tuple((a * m + b) % N for m in range(N))


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """The symmetry group of one set, built whole by full_symmetry_group.
    subgroup_* describes <D, Q>, full_* the whole group (full_permutations
    is None for all N! permutations).  Permutations are listed in
    lexicographic order.  conjecture_holds compares the two orders, so it
    cannot disagree with them; a False is a finding, not an error."""

    generators_found: tuple[dict, ...]
    stabilizer_order: int
    subgroup_order: int
    subgroup_permutations: Sequence[tuple[int, ...]]
    full_group_order: int
    full_permutations: Sequence[tuple[int, ...]] | None
    note: str | None

    @property
    def conjecture_holds(self) -> bool:
        return self.full_group_order == self.subgroup_order


def _check_generators(s: GeneratorSet, h: int, c: int, stab: list[int]) -> list[int]:
    """Check exactly that h^1, ..., h^c are the c units of stab = Stab(S),
    each checked exactly by `multipliers`: O(c + d).  Then h is in Stab(S),
    so h maps S onto itself, which defines the slot permutation Q with
    n_q[k] = h n_k and Q D Q^{-1} = D^h.  The c powers are distinct and one
    is 1; h^k = 1 for k < c would repeat h as h^(k+1), so h^c = 1 and
    Q^c = I.  Checked on the generators, these relations hold on every
    column; D holds as m n_k + n_k = (m + 1) n_k.  Returns Q."""
    N = s.modulus.N
    if sorted(pow(h, k, N) for k in range(1, c + 1)) != stab:
        raise ContractViolationError(f"D, Q or their relations fail for {s}")
    slot = {x: k for k, x in enumerate(s.elems)}
    return [slot[h * x % N] for x in s.elems]


def _every_permutation(N: int, elems: Sequence[int]) -> bool:
    """True when N > 2 and all off-diagonal Gram labels coincide, so that
    every column permutation preserves the Gram: S is {0}, all units (the
    regular simplex) or Z_N (the basis).  At N = 2, S_2 is AGL(1, 2)."""
    return N > 2 and sum(1 for x in elems if x) in (0, N - 1)


def _symmetric_group_order(N: int) -> int:
    """N!, refused past FACTORIAL_MAX_N and when it has more digits than
    the live int-to-str limit (PYTHONINTMAXSTRDIGITS; 0 means none) lets
    the CLI print."""
    if N > FACTORIAL_MAX_N:
        raise BudgetExceededError(
            f"the order {N}! of S_{N} has more than 4300 digits and is not "
            f"computed past N = {FACTORIAL_MAX_N}",
            required=N,
            budget=FACTORIAL_MAX_N,
        )
    order = math.factorial(N)
    check_printable(f"the order {N}! of S_{N}", order)
    return order


def exceptional_orders(N: int, elems: Sequence[int]) -> tuple[int, int, str] | None:
    """The order of <D, Q>, the order of the full group and a note for the
    sets whose full group is not <D, Q> of order N*c: {0} (N copies of one
    vector, both trivial) and, for N > 2, the simplex and the basis (every
    unit fixes them, so N*(N-1), and all N! permutations, refused past
    FACTORIAL_MAX_N).  None for every other set of Z_N."""
    if not any(elems):
        return 1, 1, "degenerate frame {0}: N copies of one vector"
    if not _every_permutation(N, elems):
        return None
    family = "scaled orthogonal basis" if 0 in elems else "regular simplex"
    note = (
        f"all off-diagonal Gram entries equal ({family}); "
        "the symmetry group is all column permutations"
    )
    return N * (N - 1), _symmetric_group_order(N), note


def gram_automorphisms(s: GeneratorSet) -> AffinePermutations:
    """The Gram-preserving column permutations of the frame of s: the maps
    m -> a m + b whose a keeps every label, that is a in Stab(S), in
    lexicographic order.  For {0}, the simplex and the basis every
    permutation does, and S_N is not listed."""
    N = s.modulus.N
    if _every_permutation(N, s.elems):
        raise BudgetExceededError(
            "all off-diagonal labels coincide; the automorphism group is all "
            f"of S_{N} and is not listed",
            required=_symmetric_group_order(N),
            budget=N * (N - 1),
        )
    return AffinePermutations(N, stabilizer(s))


def full_symmetry_group(s: GeneratorSet) -> SymmetryReport:
    """<D, Q> and the full group of s, from one Stab(S).  For S = {0} all
    columns coincide: D = Q = I, both groups are trivial and c = N-1.
    Otherwise <D, Q> = {m -> a m + b : a in Stab(S)} has order N*c, with D,
    Q (only when c > 1) and their relations checked exactly.  By the module
    docstring the full group is the Gram automorphisms, <D, Q> itself, but
    for the simplex and the basis: there Stab(S) is every unit and the full
    group is all N! permutations, refused past FACTORIAL_MAX_N before any
    other work."""
    N, elems = s.modulus.N, s.elems
    exception = exceptional_orders(N, elems)
    D = {"kind": "diagonal", "exponents": list(elems)}
    if not any(elems):
        one = _Listing(1, lambda i: tuple(range(N)))
        return SymmetryReport((D,), N - 1, 1, one, 1, one, exception[2])
    if exception:  # the simplex or the basis: every unit fixes S
        stab, full = AffinePermutations(N, range(1, N)), None
    else:
        stab = full = gram_automorphisms(s)
    _, full_order, note = exception or (None, len(full), None)
    c = len(stab.multipliers)
    h = pow(s.modulus.primitive_root, (N - 1) // c, N)
    q = _check_generators(s, h, c, list(stab.multipliers))
    Q = {"kind": "block_perm", "slot_perm": q, "unit": h}
    return SymmetryReport((D, Q) if c > 1 else (D,), c, N * c, stab, full_order, full, note)
