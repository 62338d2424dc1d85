"""The unit-group action on unordered d-subsets of Z_N.

A generator set is an unordered d-subset [n_1, ..., n_d] of Z_N, stored as a
strictly increasing tuple.  The unit group Z_N^x acts by coordinatewise
multiplication, m . [n] = [m n_1, ..., m n_d], and the orbits of this action
are exactly the unitary-equivalence classes of the frames built in
`frames`.  Each orbit has size (N-1)/c where c is the order of the
stabilizer, c divides d or d-1, and the stabilized sets decompose into
multiplicative cosets of the order-c subgroup of units (an optional 0 rides
along untouched).

Orbit enumeration rests on one lemma.  For any nonzero x in a set S the
image x^-1 . S contains 1, so the lexicographically smallest member of an
orbit (its representative) has 1 as its smallest nonzero element, and only
the C(N-1, d-1) candidates {0, 1} u U and {1} u U, with U a subset of
{2, ..., N-1}, need a visit.  A unit m maps a candidate T to a set that
contains 1 exactly when m = x^-1 for a nonzero x in T, so T is a
representative iff T <= x^-1 . T for those at most d-1 multipliers, and the
multipliers with x^-1 . T = T make up its whole stabilizer (x fixes T iff
x^-1 does).  Candidates are tested in chunks, one numpy pass over sorted
rows per multiplier column.  Those containing 0 come first, each group in
combination order, so the records come out sorted by representative with no
visited-set memory.  The single set with no nonzero element, {0}, is its
own orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, ContractViolationError, DomainError
from .number_theory import PrimeModulus, find_primitive_root

DEFAULT_MAX_SUBSETS = 10**7

_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class GeneratorSet:
    """An unordered d-subset of Z_N, held sorted ascending.

    Input elements are reduced mod N and must be distinct after reduction.
    """

    modulus: PrimeModulus
    elems: tuple[int, ...]

    def __post_init__(self):
        N = self.modulus.N
        reduced = tuple(sorted(e % N for e in self.elems))
        if len(set(reduced)) != len(reduced):
            raise DomainError(f"generator elements not distinct mod {N}: {self.elems}")
        if not 1 <= len(reduced) <= N:
            raise DomainError(f"need 1 <= d <= N, got d={len(reduced)}, N={N}")
        object.__setattr__(self, "elems", reduced)

    @property
    def d(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __repr__(self) -> str:
        return f"GeneratorSet(N={self.modulus.N}, {list(self.elems)})"


def act(m: int, s: GeneratorSet) -> GeneratorSet:
    """m . [n] = [m n_1, ..., m n_d], re-sorted."""
    N = s.modulus.N
    if m % N == 0:
        raise DomainError(f"{m} is not a unit mod {N}")
    return GeneratorSet(s.modulus, tuple((m * x) % N for x in s.elems))


def stabilizer(s: GeneratorSet) -> tuple[int, ...]:
    """All units fixing s as a set, sorted; always contains 1.  A unit m
    fixing s maps the smallest nonzero x0 of s to some nonzero y of s, so
    only the at most d multipliers y x0^-1 are tried; s = {0} is fixed by
    every unit."""
    N = s.modulus.N
    nonzero = [x for x in s.elems if x]
    if not nonzero:
        return tuple(range(1, N))
    base = set(s.elems)
    x0_inv = pow(nonzero[0], -1, N)
    candidates = sorted(y * x0_inv % N for y in nonzero)
    return tuple(m for m in candidates if all(m * x % N in base for x in s.elems))


def canonical_rep(s: GeneratorSet) -> GeneratorSet:
    """Lexicographically smallest member of the orbit of s.  By the lemma in
    the module docstring it contains 1, so only the images x^-1 . s for
    nonzero x in s are tried; s = {0} is its own orbit."""
    N = s.modulus.N
    images = [
        tuple(sorted(pow(x, -1, N) * y % N for y in s.elems)) for x in s.elems if x
    ]
    return GeneratorSet(s.modulus, min(images, default=s.elems))


KIND_BLOCKS = "blocks_divide_d"
KIND_ZERO_BLOCKS = "zero_plus_blocks_divide_d_minus_1"


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


def unit_subgroup(modulus: PrimeModulus, c: int) -> tuple[int, ...]:
    """The unique subgroup of Z_N^x of order c (requires c | N-1), sorted."""
    N = modulus.N
    if c < 1 or (N - 1) % c != 0:
        raise DomainError(f"no subgroup of order {c} in a group of order {N - 1}")
    g = find_primitive_root(modulus).g
    h = pow(g, (N - 1) // c, N)
    return tuple(sorted(pow(h, j, N) for j in range(c)))


# -- orbit enumeration -------------------------------------------------------


def _candidate_chunks(N: int, d: int, chunk_rows: int) -> Iterator[np.ndarray]:
    """The sorted d-subsets whose smallest nonzero element is 1: first
    {0, 1} u U, then {1} u U, with U running over the subsets of
    {2, ..., N-1} in combination order."""
    for head in ((0, 1), (1,)):
        k = d - len(head)
        if k < 0:
            continue
        flat = chain.from_iterable(combinations(range(2, N), k))
        remaining = math.comb(N - 2, k)
        while remaining:
            rows = min(chunk_rows, remaining)
            tail = np.fromiter(flat, dtype=np.int64, count=rows * k).reshape(rows, k)
            lead = np.broadcast_to(np.array(head, dtype=np.int64), (rows, len(head)))
            yield np.hstack([lead, tail])
            remaining -= rows


def _scan_candidates(
    rows: np.ndarray, N: int, inverse: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the rows that are lexicographically no larger than x^-1 . row
    for every nonzero x in the row.  Returns the kept rows and a boolean
    mask of the same shape marking the x with x^-1 . row == row, which are
    exactly the stabilizer.  All rows of one chunk share their head."""
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


def _record(
    modulus: PrimeModulus,
    rep: tuple[int, ...],
    stab: tuple[int, ...],
    subgroups: dict[int, tuple[int, ...]],
) -> OrbitRecord:
    """The record of rep with stabilizer stab, its block leaders read off
    stab: x is a leader iff x <= x h mod N for every h in stab.  Checked
    exactly: stab is the order-c unit subgroup (memoized in subgroups, one
    per c), and the leaders' cosets, with 0 when rep holds it, give rep."""
    N = modulus.N
    c = len(stab)
    if (N - 1) % c != 0:
        raise ContractViolationError(f"stabilizer order {c} does not divide {N - 1}")
    if c not in subgroups:
        subgroups[c] = unit_subgroup(modulus, c)
    if stab != subgroups[c]:
        raise ContractViolationError(
            f"stabilizer {stab} of {rep} is not the unit subgroup of order {c}"
        )
    nonzero = rep[1:] if rep[0] == 0 else rep
    leaders = nonzero  # at c = 1 each coset is one element
    if c > 1:
        leaders = tuple(x for x in nonzero if all(x <= x * h % N for h in stab))
        if tuple(sorted(x * h % N for x in leaders for h in stab)) != nonzero:
            raise ContractViolationError(f"block expansion does not reproduce {rep}")
    return OrbitRecord(GeneratorSet(modulus, rep), (N - 1) // c, c, stab, leaders)


def enumerate_orbits(
    modulus: PrimeModulus,
    d: int,
    *,
    max_subsets: int | None = None,
) -> list[OrbitRecord]:
    """All orbits of unordered d-subsets under the unit-group action, sorted
    by representative.  Visits the C(N-1, d-1) sets whose smallest nonzero
    element is 1, in chunks of _CHUNK_ROWS candidates.  The budget, by
    default DEFAULT_MAX_SUBSETS, is counted in subsets covered, C(N, d)."""
    N = modulus.N
    if not 1 <= d <= N:
        raise DomainError(f"need 1 <= d <= N, got d={d}, N={N}")
    budget = DEFAULT_MAX_SUBSETS if max_subsets is None else max_subsets
    total = math.comb(N, d)
    if total > budget:
        raise BudgetExceededError(
            f"C({N},{d}) = {total} subsets exceeds budget {budget}",
            required=total,
            budget=budget,
        )

    # {0} is the one set with no nonzero element; every unit fixes it
    subgroups: dict[int, tuple[int, ...]] = {}
    records = [_record(modulus, (0,), tuple(range(1, N)), subgroups)] if d == 1 else []
    # x^-1 mod N by lookup; d = 1 runs no multiplier pass, so N may be large
    inverse = None if d == 1 else np.array([0] + [pow(x, -1, N) for x in range(1, N)])
    for chunk in _candidate_chunks(N, d, _CHUNK_ROWS):
        reps, fixes = _scan_candidates(chunk, N, inverse)
        for row, mask in zip(reps.tolist(), fixes.tolist()):
            stab = tuple(x for x, fixed in zip(row, mask) if fixed)
            records.append(_record(modulus, tuple(row), stab, subgroups))

    covered = sum(r.size for r in records)
    if covered != total:
        raise ContractViolationError(
            f"orbit sizes sum to {covered}, expected C({N},{d}) = {total}"
        )
    return records
