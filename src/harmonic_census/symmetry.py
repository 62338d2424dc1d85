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
(m = 1), where it is checked exactly.  Groups, elements and column
permutations are listed lazily from the pairs (a, b), so nothing of size N
is built and all of it costs O(d^2).  The order N! of the simplex and the
basis is computed only up to N = FACTORIAL_MAX_N, and only while it has
no more digits than the interpreter's int-to-str limit.  The label pass over
every t and a backtracking search with exact unitary reconstruction check
all this in tests/oracles.py.  See also Vale & Waldron, "The symmetry
group of a finite frame" (2010).
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .errors import BudgetExceededError, ContractViolationError
from .number_theory import PrimeModulus, find_primitive_root
from .orbits import GeneratorSet, enumerate_orbits, stabilizer

# the largest N whose N! has at most 4300 digits, the default limit of
# Python's int-to-str conversion; 1553 is the largest prime below it
FACTORIAL_MAX_N = 1558

KIND_DIAGONAL = "diagonal_power"
KIND_BLOCK_PERM = "block_perm_power"
KIND_PRODUCT = "product"


class _Listing(Sequence):
    """A read-only sequence of n items, each computed on access."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        j = range(self._n)[i]  # IndexError past the end; a range for a slice
        return tuple(map(self._item, j)) if isinstance(j, range) else self._item(j)


@dataclass(frozen=True)
class SymmetryElement:
    """The unitary realizing m -> a m + b: the monomial matrix whose row k
    has the single entry w^expo[k] in column src[k].  kind and power name it
    as D^b (a = 1), Q^power (b = 0) or a product."""

    modulus: PrimeModulus
    kind: str
    power: int | None
    a: int
    b: int
    src: tuple[int, ...]
    expo: tuple[int, ...]

    @property
    def column_perm(self) -> Sequence[int]:
        """m -> a m + b, listed lazily over m = 0, ..., N-1."""
        N, a, b = self.modulus.N, self.a, self.b
        return _Listing(N, lambda m: (a * m + b) % N)


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
    """Check exactly, on the generators and so on every column, that h maps
    S onto itself, which defines the slot permutation Q with n_q[k] = h n_k
    and Q D Q^{-1} = D^h, that Q^c = I (h^c n_k = n_k), and that the powers
    of h are Stab(S): O(c + d).  D holds as m n_k + n_k = (m + 1) n_k.
    Returns Q."""
    N = s.modulus.N
    slot = {x: k for k, x in enumerate(s.elems)}
    q = [slot.get(h * x % N, -1) for x in s.elems]  # -1: h x is not in S
    hc = pow(h, c, N)
    powers = sorted(pow(h, k, N) for k in range(c))
    if -1 in q or any(hc * x % N != x for x in s.elems) or powers != stab:
        raise ContractViolationError(f"D, Q or their relations fail for {s}")
    return q


def guaranteed_subgroup(s: GeneratorSet) -> SymmetryReport:
    """The subgroup <D, Q> = {m -> a m + b : a in Stab(S)} of order N*c,
    with D, Q (only when c > 1) and their relations verified exactly.  For
    S = {0} all columns coincide, D = Q = I, the group is trivial; c = N-1."""
    N = s.modulus.N
    if not any(s.elems):
        return SymmetryReport(
            generators_found=({"kind": "diagonal", "exponents": [0]},),
            stabilizer_order=N - 1,
            subgroup_order=1,
            subgroup_permutations=_Listing(1, lambda i: tuple(range(N))),
            elements=(SymmetryElement(s.modulus, KIND_DIAGONAL, 0, 1, 0, (0,), (0,)),),
            note="degenerate generator set {0}: D = Q = I",
        )

    stab = sorted(stabilizer(s))
    c = len(stab)
    h = pow(find_primitive_root(s.modulus).g, (N - 1) // c, N)
    q = _check_generators(s, h, c, stab)
    generators = [{"kind": "diagonal", "exponents": list(s.elems)}]
    if c > 1:
        generators.append({"kind": "block_perm", "slot_perm": q, "unit": h})
    log_h = {pow(h, k, N): k for k in range(1, c + 1)}
    slot = {x: k for k, x in enumerate(s.elems)}
    # src starts with slot[a 0] = 0 when 0 is in S, then slot[a x0] for the
    # first nonzero generator x0, which differs for each a
    x0 = next(x for x in s.elems if x)
    by_src = sorted(stab, key=lambda a: slot[a * x0 % N])
    first_inv = pow(x0, -1, N)

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
        src = tuple(slot[a * x % N] for x in s.elems)
        expo = tuple(b * x % N for x in s.elems)
        return SymmetryElement(s.modulus, kind, power, a, b, src, expo)

    return SymmetryReport(
        generators_found=tuple(generators),
        stabilizer_order=c,
        subgroup_order=N * c,
        subgroup_permutations=AffinePermutations(N, stab),
        elements=_Listing(N * c, element),
    )


def _every_permutation(s: GeneratorSet) -> bool:
    """True when N > 2 and all off-diagonal Gram labels coincide, so that
    every column permutation preserves the Gram: S is {0}, all units (the
    regular simplex) or Z_N (the basis).  At N = 2, S_2 is AGL(1, 2)."""
    N = s.modulus.N
    return N > 2 and sum(1 for x in s.elems if x) in (0, N - 1)


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
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^(3 limit) < 10^limit, so only a longer order needs the exact test
    if limit and order.bit_length() > 3 * limit and order >= 10**limit:
        raise BudgetExceededError(
            f"the order {N}! of S_{N} has more than {limit} digits, the "
            "int-to-str limit of this interpreter",
            required=limit + 1,
            budget=limit,
        )
    return order


def gram_automorphisms(s: GeneratorSet) -> AffinePermutations:
    """The Gram-preserving column permutations of the frame of s: the maps
    m -> a m + b whose a keeps every label, that is a in Stab(S), in
    lexicographic order.  For {0}, the simplex and the basis every
    permutation does, and S_N is not listed."""
    N = s.modulus.N
    if _every_permutation(s):
        raise BudgetExceededError(
            "all off-diagonal labels coincide; the automorphism group is all "
            f"of S_{N} and is not listed",
            required=_symmetric_group_order(N),
            budget=N * (N - 1),
        )
    return AffinePermutations(N, stabilizer(s))


def full_symmetry_group(s: GeneratorSet) -> SymmetryReport:
    """<D, Q> and the full group: the Gram automorphisms, which by the module
    docstring are <D, Q> itself but for {0} (trivial) and the simplex and
    the basis (N!, refused before any other work past FACTORIAL_MAX_N)."""
    N = s.modulus.N
    simplex_or_basis = any(s.elems) and _every_permutation(s)
    order = _symmetric_group_order(N) if simplex_or_basis else None
    report = guaranteed_subgroup(s)
    if not any(s.elems):
        report.full_group_order = 1
        report.full_permutations = report.subgroup_permutations
        report.note = "degenerate frame {0}: N copies of one vector"
    elif simplex_or_basis:
        report.full_group_order = order
        family = "scaled orthogonal basis" if 0 in s.elems else "regular simplex"
        report.note = (
            f"all off-diagonal Gram entries equal ({family}); "
            "the symmetry group is all column permutations"
        )
    else:
        autos = gram_automorphisms(s)
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
    max_subsets is the enumeration budget of enumerate_orbits, and each row
    costs O(d^2).  At d >= N - 1 the orbits include the simplex or the
    basis, so past FACTORIAL_MAX_N the scan is refused before enumerating."""
    if d >= modulus.N - 1 > 1:
        _symmetric_group_order(modulus.N)
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
