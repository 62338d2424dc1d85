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

Nothing is searched.  D, Q and their relations are checked exactly;
gram_automorphisms finds the label-preserving multipliers directly, and
full_symmetry_group checks that they contain Stab(S) and reports whether
they equal it.  Groups are listed lazily from the pairs (a, b).  A
backtracking search with exact unitary reconstruction checks all of this in
tests/oracles.py.  See also Vale & Waldron, "The symmetry group of a finite
frame" (2010).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CyclotomicInt, ScaledCyclotomic
from .errors import BudgetExceededError, ContractViolationError
from .frames import build_frame
from .number_theory import PrimeModulus, find_primitive_root
from .orbits import GeneratorSet, enumerate_orbits, stabilizer

SYMMETRY_MAX_N = 31  # the largest N full_symmetry_group accepts

KIND_DIAGONAL = "diagonal_power"
KIND_BLOCK_PERM = "block_perm_power"
KIND_PRODUCT = "product"


@dataclass(frozen=True)
class SymmetryElement:
    """The unitary realizing m -> a m + b: the monomial matrix whose row k
    has the single entry w^expo[k] in column src[k].  kind and power name it
    as D^b (a = 1), Q^power (b = 0) or a product."""

    modulus: PrimeModulus
    kind: str
    power: int | None
    column_perm: tuple[int, ...]
    src: tuple[int, ...]
    expo: tuple[int, ...]

    def entry(self, i: int, j: int) -> ScaledCyclotomic:
        coeffs = [0] * self.modulus.N
        if self.src[i] == j:
            coeffs[self.expo[i]] = 1
        return ScaledCyclotomic(CyclotomicInt(self.modulus, tuple(coeffs)), 1)


class _Listing(Sequence):
    """A read-only sequence of n items, each computed on access."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return self._item(i % self._n)


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


@dataclass(eq=False)
class SymmetryReport:
    """subgroup_* describes <D, Q>, full_* the whole group (full_permutations
    is None for all N! permutations).  Permutations are listed in
    lexicographic order, elements by (src, expo).  conjecture_holds compares
    the two orders; a False is a finding, not an error."""

    generators_found: tuple[dict, ...]
    stabilizer_order: int
    subgroup_order: int
    subgroup_permutations: Sequence[tuple[int, ...]]
    elements: Sequence[SymmetryElement]
    full_group_order: int | None = None
    full_permutations: Sequence[tuple[int, ...]] | None = None
    conjecture_holds: bool | None = None
    note: str | None = None


def _check_generators(s: GeneratorSet, h: int, c: int, stab: list[int]) -> list[int]:
    """Check exactly, on the exponent matrix E[k, m] = m n_k mod N, that D
    advances every column by one, that h maps S onto itself and so defines
    Q, that Q^k induces m -> h^k m for k = 1..c, that Q^c = I, and that the
    powers of h are Stab(S).  Returns Q as a slot permutation."""
    N, d = s.modulus.N, s.d
    E = build_frame(s).exponents
    gens = np.array(s.elems, dtype=np.int64)
    m, ident = np.arange(N, dtype=np.int64), np.arange(d)
    ok = np.array_equal((E + gens[:, None]) % N, E[:, (m + 1) % N])
    q = ident
    if c > 1:
        slot = np.full(N, -1, dtype=np.int64)
        slot[gens] = ident
        q = slot[h * gens % N]
        ok = ok and bool((q >= 0).all())
        P = [q]  # slot permutations of Q^1, ..., Q^c
        while len(P) < c:
            P.append(q[P[-1]])
        hk = np.array([pow(h, k, N) for k in range(1, c + 1)], dtype=np.int64)
        moved = E[:, hk[:, None] * m % N].transpose(1, 0, 2)
        # at Q^1 this reads n_q[k] = h n_k for every slot k: Q D Q^{-1} = D^h
        ok = ok and np.array_equal(E[np.stack(P)], moved)
        ok = ok and np.array_equal(P[-1], ident)
    if not ok or sorted(pow(h, k, N) for k in range(c)) != stab:
        raise ContractViolationError(f"D, Q or their relations fail for {s}")
    return q.tolist()


def guaranteed_subgroup(s: GeneratorSet) -> SymmetryReport:
    """The subgroup <D, Q> = {m -> a m + b : a in Stab(S)} of order N*c,
    with D, Q (only when c > 1) and their relations verified exactly.  For
    S = {0} all columns coincide, D = Q = I and the group is trivial."""
    N = s.modulus.N
    stab = sorted(stabilizer(s))
    c = len(stab)
    if set(s.elems) == {0}:
        identity = tuple(range(N))
        return SymmetryReport(
            generators_found=({"kind": "diagonal", "exponents": [0]},),
            stabilizer_order=c,
            subgroup_order=1,
            subgroup_permutations=(identity,),
            elements=(
                SymmetryElement(s.modulus, KIND_DIAGONAL, 0, identity, (0,), (0,)),
            ),
            note="degenerate generator set {0}: D = Q = I",
        )

    h = pow(find_primitive_root(s.modulus).g, (N - 1) // c, N)
    q = _check_generators(s, h, c, stab)
    generators = [{"kind": "diagonal", "exponents": list(s.elems)}]
    if c > 1:
        generators.append({"kind": "block_perm", "slot_perm": q, "unit": h})
    log_h = {pow(h, k, N): k for k in range(1, c + 1)}
    slot = {x: k for k, x in enumerate(s.elems)}
    by_src = sorted(stab, key=lambda a: [slot[a * x % N] for x in s.elems])
    first_inv = pow(next(x for x in s.elems if x), -1, N)

    def element(i: int) -> SymmetryElement:
        # by src (fixed by a), then by expo, which orders the shifts b by
        # b * n mod N for the first nonzero generator n
        k, t = divmod(i, N)
        a, b = by_src[k], t * first_inv % N
        kind, power = KIND_PRODUCT, None
        if a == 1:
            kind, power = KIND_DIAGONAL, b
        elif b == 0:
            kind, power = KIND_BLOCK_PERM, log_h[a]
        return SymmetryElement(
            s.modulus,
            kind,
            power,
            column_perm=tuple((a * m + b) % N for m in range(N)),
            src=tuple(slot[a * x % N] for x in s.elems),
            expo=tuple(b * x % N for x in s.elems),
        )

    return SymmetryReport(
        generators_found=tuple(generators),
        stabilizer_order=c,
        subgroup_order=N * c,
        subgroup_permutations=AffinePermutations(N, stab),
        elements=_Listing(N * c, element),
    )


def gram_automorphisms(s: GeneratorSet) -> AffinePermutations:
    """The column permutations preserving the Gram matrix of the frame of
    s: the maps m -> a m + b whose multiplier a preserves every label, in
    lexicographic order.  When all off-diagonal labels coincide every
    permutation preserves them, and S_N is not listed."""
    N = s.modulus.N
    t = np.arange(N, dtype=np.int64)
    labels = np.sort(t[:, None] * np.array(s.elems, dtype=np.int64) % N, axis=1)
    if N > 2 and (labels[1:] == labels[1]).all():
        raise BudgetExceededError(
            "all off-diagonal labels coincide; the automorphism group is all "
            f"of S_{N} and is not listed",
            required=math.factorial(N),
            budget=N * (N - 1),
        )
    units = t[1:]
    keep = (labels[units[:, None] * t % N] == labels).all(axis=(1, 2))
    return AffinePermutations(N, units[keep].tolist())


def full_symmetry_group(s: GeneratorSet) -> SymmetryReport:
    """<D, Q> and the full group: the Gram automorphisms, which by the module
    docstring are <D, Q> itself but for {0} (trivial) and the simplex and
    the basis (N!).  Refuses N > SYMMETRY_MAX_N."""
    N = s.modulus.N
    if N > SYMMETRY_MAX_N:
        raise BudgetExceededError(
            f"symmetry group for N={N} exceeds limit {SYMMETRY_MAX_N}",
            required=N,
            budget=SYMMETRY_MAX_N,
        )
    report = guaranteed_subgroup(s)
    nonzero = sum(1 for x in s.elems if x)
    if nonzero == 0:
        report.full_group_order = 1
        report.full_permutations = (tuple(range(N)),)
        report.note = "degenerate frame {0}: N copies of one vector"
    elif N > 2 and nonzero == N - 1:
        report.full_group_order = math.factorial(N)
        family = "scaled orthogonal basis" if 0 in s.elems else "regular simplex"
        report.note = (
            f"all off-diagonal Gram entries equal ({family}); "
            "the symmetry group is all column permutations"
        )
    else:
        autos = gram_automorphisms(s)
        stab = report.subgroup_permutations.multipliers
        if not set(stab) <= set(autos.multipliers):
            raise ContractViolationError(
                f"guaranteed subgroup not contained in full group for {s}"
            )
        report.full_group_order = len(autos)
        report.full_permutations = autos
    report.conjecture_holds = report.full_group_order == report.subgroup_order
    return report


@dataclass(frozen=True, eq=False)
class ScanRow:
    rep: GeneratorSet
    stabilizer_order: int
    subgroup_order: int
    full_group_order: int
    conjecture_holds: bool
    note: str | None = None


@dataclass(frozen=True, eq=False)
class ScanReport:
    modulus: PrimeModulus
    d: int
    rows: tuple[ScanRow, ...]

    @property
    def counterexamples(self) -> tuple[ScanRow, ...]:
        return tuple(r for r in self.rows if not r.conjecture_holds)


def conjecture_scan(
    modulus: PrimeModulus,
    d: int,
    *,
    max_subsets: int | None = None,
) -> ScanReport:
    """Compare the full group with <D, Q> for every orbit representative, in
    enumeration order; a False row is a counterexample, never suppressed.
    max_subsets is the enumeration budget of enumerate_orbits, and N is
    capped by SYMMETRY_MAX_N as in full_symmetry_group."""
    rows = []
    for rec in enumerate_orbits(modulus, d, max_subsets=max_subsets):
        r = full_symmetry_group(rec.rep)
        rows.append(
            ScanRow(
                rep=rec.rep,
                stabilizer_order=r.stabilizer_order,
                subgroup_order=r.subgroup_order,
                full_group_order=r.full_group_order,
                conjecture_holds=r.conjecture_holds,
                note=r.note,
            )
        )
    return ScanReport(modulus=modulus, d=d, rows=tuple(rows))
