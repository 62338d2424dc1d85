"""Enumeration, in numpy, of the orbits of the unit-group action on
unordered d-subsets of Z_N.

The action itself is in `number_theory`, in plain ints: the generator sets
(a d-subset [n_1, ..., n_d] of Z_N, acted on by m . [n] = [m n_1, ...,
m n_d]), the units mapping one set onto another, the order-c unit subgroup
and the count C(N, d).  The orbits are exactly the unitary-equivalence
classes of the frames built in `frames`.  Each orbit has size (N-1)/c where
c is the order of the stabilizer, c divides d or d-1, and the stabilized
sets decompose into multiplicative cosets of the order-c subgroup of units
(an optional 0 rides along untouched).  numpy is imported here and in
`frames`, and the CLI loads this module only for enumerate, verify and
scan.

Orbit enumeration rests on two lemmas.  For any nonzero x in a set S the
image x^-1 . S contains 1, so the lexicographically smallest member of an
orbit (its representative) has 1 as its smallest nonzero element: it is
{0, 1} u U or {1} u U, with U a subset of {2, ..., N-1}.  And if the
representative T has nonzero part (1, t2, ...), then
min(y x^-1, x y^-1) mod N >= t2 for all distinct nonzero x, y in T:
otherwise x^-1 . T or y^-1 . T has the same head, contains 1 and has a
second nonzero element below t2, so it is lex-smaller than T.  The pair
(1, t2) gives t2^-1 >= t2.  At d <= N/2 the candidates are grown element by
element under this pairwise rule, which visits 146,635 sets for the 87,671
orbits at (31, 7) in place of all C(30, 6) = 593,775.  The rule only
narrows the candidates, and each is still tested in full.  A unit m maps a
candidate T to a set that contains 1 exactly when m = x^-1 for a nonzero x
in T, so T is a representative iff T <= x^-1 . T for those at most d-1
multipliers, and the multipliers with x^-1 . T = T make up its whole
stabilizer (x fixes T iff x^-1 does).  Candidates are tested in chunks, one
numpy pass over sorted rows per multiplier column.  Those containing 0 come
first, each group in combination order, so the orbits come out sorted by
representative with no visited-set memory.

Above N/2 no candidate is visited: the d-orbits are mapped from the
(N-d)-orbits by complement.  Complement commutes with the action,
m . (Z_N - S) = Z_N - m . S, so S -> Z_N - S maps the orbits of one size
one-to-one onto those of the other, and m fixes S iff it fixes Z_N - S:
both have the same stabilizer, and gamma_c(N, d) = gamma_c(N, N-d).
(Z_N - S selects the other rows of the character table: its frame is the
Naimark complement of the frame of S.)  Among sets of one size complement
reverses lex order, as the smallest element of the symmetric difference
lies in the smaller set; so the representative of the d-orbit of Z_N - T
is Z_N - L, with L the lex-max image m . T.  So one pipeline runs at
k = min(d, N-d): the k-orbits T are grown, scanned and checked as above,
and above N/2 each is mapped across with the same table of inverses.  L
never contains 1 (_lex_max), and m . T contains 1 exactly when m^-1 lies
in T, so only the N-1-j units m with m^-1 outside T are tried, j the
number of nonzero elements of T, in place of all N-1.  The L are sorted
descending.

At k <= 1 nothing is searched or mapped: the orbits are the runs
{lo, ..., lo+d-1} with lo = 0 and 1, or lo = 0 alone at d = N.  Every
unit fixes {0}, the units and Z_N, so each is its own orbit with c = N-1.
The other runs have c = 1: at d = 1 the orbit of {1} is the N-1 units as
singletons, and at d = N-1 the orbit of Z_N - {N-1} is the N-1 sets that
miss one unit.

orbit_chunks yields the orbits as numpy chunks: the representatives, the
stabilizer order c of each and the mask of its block leaders.  Each chunk
that a search or the complement map made is checked in numpy
(_check_chunk): c divides N-1; the fixed elements are the order-c unit
subgroup; and the leaders' cosets under that subgroup give back the row.
The runs of the closed form are yielded as they are.  After the last chunk
the orbit sizes must sum to C(N, d).  The CLI's enumerate, verify and scan
read the chunks directly, and build no per-orbit object.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ContractViolationError, check_budget, check_dimension
from .number_theory import (
    DEFAULT_MAX_SUBSETS,
    GeneratorSet,  # noqa: F401 -- benchmarks/run.py reads orbits.GeneratorSet
    PrimeModulus,
    subset_count,
    unit_subgroup,
)

# a chunk holds at most _CHUNK_ROWS candidates and _CHUNK_ENTRIES entries,
# 8 MiB per int64 array; the row cap alone binds for d <= 16
_CHUNK_ROWS = 1 << 16
_CHUNK_ENTRIES = 1 << 20


# the block form of a representative: its nonzero elements are the cosets
# x H of its stabilizer H, one per block leader x (the smallest element of
# its coset), and 0 rides along in the second kind
KIND_BLOCKS = "blocks_divide_d"
KIND_ZERO_BLOCKS = "zero_plus_blocks_divide_d_minus_1"


def _subgroup_array(modulus: PrimeModulus, c: int) -> np.ndarray:
    """unit_subgroup as a numpy array; at c = N-1 a range, with no Python
    int per element."""
    N = modulus.N
    return np.arange(1, N) if c == N - 1 else np.array(unit_subgroup(modulus, c))


# -- orbit enumeration -------------------------------------------------------


def _allowed(x: np.ndarray, t2: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """One boolean row over Z_N per entry of x: the e whose ratio r = e x^-1
    has min(r, r^-1) >= t2, so that e and x may both lie in a representative
    with second nonzero element t2.  0 is never allowed."""
    units = np.arange(len(inverse))
    low = np.minimum(units, inverse)  # min(r, r^-1) for each r
    return low[units * inverse[x][:, None] % len(inverse)] >= t2[:, None]


def _pruned_rows(
    prefix: np.ndarray,
    may: np.ndarray,
    t2: np.ndarray | None,
    d: int,
    inverse: np.ndarray,
    block: int,
) -> Iterator[np.ndarray]:
    """Every extension of the prefix rows to d elements that the pairwise
    rule allows, in combination order, as blocks of rows.  may marks the
    elements each prefix can still take, all above its last; t2 is None
    while the second nonzero element is being chosen.  np.nonzero lists
    the children in row-major order, which is combination order.  At most
    block children are extended at once, so a level's mask holds at most
    block * N entries, and a prefix is cut when too few elements remain to
    reach d."""
    N = may.shape[1]
    width = prefix.shape[1] + 1
    if width == d:  # the last element: at most block * N rows, no mask
        parent, last = np.nonzero(may)
        yield np.concatenate((prefix[parent], last[:, None]), axis=1)
        return
    step = max(1, block // N)  # parents per pass: at most max(block, N) children
    for first in range(0, len(may), step):
        parent, last = np.nonzero(may[first : first + step])
        parent += first
        for lo in range(0, len(parent), block):
            at, c = parent[lo : lo + block], last[lo : lo + block]
            rows = np.concatenate((prefix[at], c[:, None]), axis=1)
            if t2 is None:  # c is t2, so the pair (1, e) joins the rule
                t = c
                child = _allowed(np.ones_like(c), t, inverse)
            else:
                t = t2[at]
                child = may[at]
            child &= _allowed(c, t, inverse) & (np.arange(N) > c[:, None])
            keep = child.sum(axis=1) >= d - width  # enough left to reach d
            rows, child, t = rows[keep], child[keep], t[keep]
            yield from _pruned_rows(rows, child, t, d, inverse, block)


def _rechunk(blocks: Iterator[np.ndarray], chunk_rows: int) -> Iterator[np.ndarray]:
    """The rows of blocks, in order, regrouped into chunks of chunk_rows rows
    (the last may be shorter)."""
    held, count = [], 0
    for block in blocks:
        held.append(block)
        count += len(block)
        if count >= chunk_rows:
            joined = np.concatenate(held)
            full = count - count % chunk_rows
            held, count = [joined[full:].copy()], count - full
            for lo in range(0, full, chunk_rows):
                yield joined[lo : lo + chunk_rows]
            del joined  # free before the next chunk is gathered
    if count:
        yield np.concatenate(held)


def _candidate_chunks(N: int, d: int, inverse: np.ndarray) -> Iterator[np.ndarray]:
    """Candidates for the representatives at d <= N/2, in chunks of at most
    _CHUNK_ROWS rows and _CHUNK_ENTRIES entries that share their head:
    first the sets {0, 1} u U, then {1} u U, with U running over subsets of
    {2, ..., N-1} in combination order, and only the sets whose nonzero part
    (1, t2, ...) meets the pairwise rule min(y x^-1, x y^-1) mod N >= t2.
    They are grown in blocks small enough that the masks of all d levels
    together hold at most _CHUNK_ENTRIES entries."""
    for head in ((0, 1), (1,)):
        prefix = np.array([head], dtype=np.int64)
        if len(head) == d:  # {0, 1} at d = 2
            yield prefix
        else:
            units = np.arange(N)
            # t2 needs t2^-1 >= t2: the rule on the pair (1, t2)
            may = ((units >= 2) & (inverse >= units))[None, :]
            block = max(1, _CHUNK_ENTRIES // (N * d))
            rows = _pruned_rows(prefix, may, None, d, inverse, block)
            yield from _rechunk(rows, min(_CHUNK_ROWS, max(1, _CHUNK_ENTRIES // d)))


def _scan_candidates(
    rows: np.ndarray, N: int, inverse: np.ndarray
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


def _check_chunk(
    modulus: PrimeModulus, rows: np.ndarray, fixes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The stabilizer order c of each scanned row (its number of fixed
    elements) and the mask of its block leaders, checked exactly: c divides
    N-1, and the fixed elements are the order-c unit subgroup H, built once
    per distinct c in the chunk.  x is a leader iff x <= x h mod N for every
    h in H, and the leaders' cosets x H give back the nonzero part of the
    row.  All rows share their head."""
    N = modulus.N
    c = fixes.sum(axis=1)
    nonzero = rows[:, int(rows[0, 0] == 0) :]
    leaders = rows != 0  # at c = 1 each coset is one element
    for order in np.flatnonzero(np.bincount(c)).tolist():  # c <= d bins
        at = c == order
        block = rows[at]
        if math.gcd(order, N - 1) != order:
            raise ContractViolationError(
                f"stabilizer order {order} of {block[0].tolist()} does not divide {N - 1}"
            )
        H = _subgroup_array(modulus, order)
        bad = (block[fixes[at]].reshape(len(block), order) != H).any(axis=1)
        if bad.any():
            raise ContractViolationError(
                f"the elements fixing {block[bad.argmax()].tolist()} are not the "
                f"unit subgroup of order {order}"
            )
        if order == 1:
            continue
        lead = leaders[at]
        for h in H[1:].tolist():
            lead &= block <= block * h % N
        leaders[at] = lead
        bad = lead.sum(axis=1) * order != nonzero.shape[1]
        if not bad.any():
            cosets = block[lead].reshape(len(block), -1, 1) * H % N
            cosets = np.sort(cosets.reshape(len(block), -1), axis=1)
            bad = (cosets != nonzero[at]).any(axis=1)
        if bad.any():
            raise ContractViolationError(
                f"block expansion does not reproduce {block[bad.argmax()].tolist()}"
            )
    return c, leaders


def _lex_max(reps: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """For each row T, the tuple-lex-max of its images m . T, sorted.  T has
    fewer than N-1 nonzero elements, so some image does not contain 1, and
    it beats every image that does at their first nonzero entry: the max
    never contains 1.  m . T contains 1 iff m^-1 lies in T, so the N-1-k
    units m with m^-1 not among the last k entries of T are tried, where k
    is the fewest nonzero entries of any row; inverse is the table of x^-1
    mod N, so N is its length.  The rows of a chunk share their head, so
    every row has k nonzero entries and only the units that can win are
    tried; a row with one more also tries one unit whose image contains 1.
    The images are computed in int32 when every product m x < N^2 fits
    one, which takes about a third less time than int64.  The max is found
    column by column of the sorted images, among the images that tie so
    far, and only in the rows where more than one still ties: after the
    first column that is at most a third of them.  The rows are taken in
    blocks whose masks
    over Z_N and images hold at most _CHUNK_ENTRIES entries, or one row's."""
    N, width = len(inverse), reps.shape[1]
    k = width - int((reps[:, 0] == 0).any())  # only the first entry can be 0
    dtype = np.int32 if N * N < 1 << 31 else np.int64
    best = np.empty_like(reps)
    rows = max(1, _CHUNK_ENTRIES // (N * width))
    for lo in range(0, len(reps), rows):
        block = reps[lo : lo + rows].astype(dtype, copy=False)
        outside = np.ones((len(block), N), dtype=bool)
        outside[:, 0] = False
        outside[np.arange(len(block))[:, None], inverse[block[:, width - k :]]] = False
        units = np.flatnonzero(outside).astype(dtype) % N  # row by row, ascending
        units = units.reshape(len(block), N - 1 - k, 1)
        img = np.sort(block[:, None] * units % N, axis=2)
        tied = np.ones(img.shape[:2], dtype=bool)
        live = np.arange(len(img))  # the rows whose max image may still tie
        for j in range(width):
            c = np.where(tied[live], img[live, :, j], -1)
            tied[live] = t = c == c.max(axis=1, keepdims=True)
            live = live[t.sum(axis=1) > 1]
        best[lo : lo + rows] = img[np.arange(len(img)), tied.argmax(axis=1)]
    return best


def _complements(
    modulus: PrimeModulus, d: int, chunks: Iterator[tuple], inverse: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The d-orbits for N/2 < d < N-1 as (rows, fixes) chunks, mapped by
    complement from the checked (N-d)-orbit chunks (T, c, leaders) (module
    docstring): each representative is Z_N - L, with L the lex-max image of
    T (_lex_max, which reads the table inverse), and has T's stabilizer
    order c.  The L of all orbits are held and sorted descending, one row
    of N-d entries per orbit, so the representatives come out ascending.
    The chunks are cut where 0 leaves the rows, so they share their head,
    and their N-wide masks hold at most _CHUNK_ENTRIES entries.  fixes
    marks each row's members of the order-c unit subgroup, which
    _check_chunk then tests: a row that is not a union of its cosets, or
    lacks 1, fails there."""
    N = modulus.N
    low, orders = map(np.concatenate, zip(*[(_lex_max(T, inverse), c) for T, c, _ in chunks]))
    at = np.lexsort(low.T[::-1])[::-1]
    step = min(_CHUNK_ROWS, max(1, _CHUNK_ENTRIES // N))
    # the L without 0 come first, and their complements hold 0
    cuts = np.union1d(range(0, len(at), step), [np.count_nonzero(low[:, 0]), len(at)])
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        keep = np.ones((hi - lo, N), dtype=bool)
        keep[np.arange(hi - lo)[:, None], low[at[lo:hi]]] = False
        rows, c = np.nonzero(keep)[1].reshape(hi - lo, d), orders[at[lo:hi]]
        fixes = np.zeros(rows.shape, dtype=bool)
        for order in np.unique(c).tolist():
            fixes[c == order] = np.isin(rows[c == order], _subgroup_array(modulus, order))
        yield rows, fixes


def _runs(N: int, d: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The orbits at min(d, N-d) <= 1 in closed form (module docstring), one
    chunk each: the runs range(lo, lo + d) with lo = 0 and 1, or lo = 0 alone
    at d = N.  A run that ends at 1 or N is {0}, the units or Z_N, with
    c = N-1 and 1 as its one block leader ({0} has none); every other run
    has c = 1, and each nonzero element leads its own block."""
    for lo in range(1 + (d < N)):
        row, whole = np.arange(lo, lo + d)[None], lo + d in (1, N)
        yield row, np.array([N - 1 if whole else 1]), row == 1 if whole else row != 0
        del row  # before the next row is made


def orbit_chunks(
    modulus: PrimeModulus,
    d: int,
    *,
    max_subsets: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All orbits of unordered d-subsets under the unit-group action, sorted
    by representative, as chunks (reps, c, leaders): the representatives as
    rows, the stabilizer order of each, and the mask of its block leaders.
    With k = min(d, N-d), at k <= 1 it yields the runs of the closed form
    (_runs).  Otherwise it builds the table of x^-1 mod N once, visits the
    k-sets whose smallest nonzero element is 1 that meet the pairwise rule
    of the module docstring, in chunks of at most _CHUNK_ROWS candidates
    and _CHUNK_ENTRIES entries, so that a chunk's memory is bounded at every
    d, and scans and checks them (_check_chunk).  At d > N/2 it maps those
    chunks across by complement (_complements), with the same table, and
    checks the mapped chunks again.  The budget, by default
    DEFAULT_MAX_SUBSETS, counts max(C(N, d), N): the subsets covered, or at
    d = N the N entries of the one row, since C(N, N) = 1.  It is checked
    before the first chunk.  It also bounds what _complements sorts, N-d
    entries per orbit: about C(N, d)(N-d)/(N-1) in all, under half of
    C(N, d).  After the last chunk the orbit sizes (N-1)/c must sum to
    C(N, d)."""
    N = modulus.N
    check_dimension(N, d)
    budget = DEFAULT_MAX_SUBSETS if max_subsets is None else max_subsets
    total = subset_count(N, d)
    # C(N, d) >= N for 1 <= d <= N-1; at d = N the one row is N entries wide
    what, unit = (f"C({N},{d})", "subsets") if d < N else (f"the row Z_{N}", "entries")
    check_budget(what, max(total, N), unit, budget)

    k = min(d, N - d)
    if k <= 1:
        chunks = _runs(N, d)
    else:  # x^-1 mod N by lookup
        inverse = np.array([0] + [pow(x, -1, N) for x in range(1, N)])
        scanned = (_scan_candidates(r, N, inverse) for r in _candidate_chunks(N, k, inverse))
        chunks = ((T, *_check_chunk(modulus, T, f)) for T, f in scanned if len(T))
        if k < d:  # each mapped chunk is checked again
            mapped = _complements(modulus, d, chunks, inverse)
            chunks = ((R, *_check_chunk(modulus, R, f)) for R, f in mapped)
    covered = 0
    for chunk in chunks:
        covered += int(((N - 1) // chunk[1]).sum())
        yield chunk
        del chunk  # before the next chunk is made

    if covered != total:
        raise ContractViolationError(
            f"orbit sizes sum to {covered}, expected C({N},{d}) = {total}"
        )
