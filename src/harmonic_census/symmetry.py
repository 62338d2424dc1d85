"""Symmetry groups of prime-order frames, exact throughout.

A unitary U belongs to Sym(Phi) when U Phi = Phi as a vector set, which for
a frame with distinct columns is the same as U Phi_M = Phi_M P for a column
permutation matrix P.  Two constructions are provided.

Guaranteed subgroup.  The diagonal matrix D = diag(w^(n_1), ..., w^(n_d))
always satisfies D Phi_M = Phi_M P_shift (it advances every column index by
one).  When the generator set has a stabilizer of order c > 1, multiplying
by the unit h = g^((N-1)/c) permutes the generators themselves, and the
corresponding d x d slot permutation Q satisfies Q Phi_M = Phi_M P_(m -> hm)
with Q D Q^{-1} = D^h.  The group generated by D and Q is enumerated by
closure over exact monomial matrices and every element is verified
entrywise; its order is N*c for every generator set other than {0}.

Full group by brute force.  Since the Gram matrix determines a frame up to
a unitary, a column permutation sigma is realized by some unitary exactly
when it preserves the Gram entrywise, and preservation is decided by the
difference labels (equal entries <=> equal labels).  Candidates are found by
backtracking on the label constraint, then each candidate is checked the
long way: the only possible unitary is U = (1/N) Phi P_sigma Phi^*
(pseudo-inverse of a tight frame), and U Phi = Phi P_sigma together with
U U^* = I are evaluated in exact integer cyclotomic arithmetic.  Whether the
full group equals the guaranteed subgroup is reported per orbit, never
assumed; representatives where it fails are surfaced as counterexample
records.

Three degenerate families have collapsing labels and are handled by closed
form instead of search: {0} (a single repeated vector, trivial symmetry),
the set of all units (the regular simplex, symmetric under all N!
permutations), and all of Z_N (a scaled orthogonal basis, likewise N!).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cyclotomic import (
    CyclotomicInt,
    ScaledCyclotomic,
    canonicalize_array,
    exponent_counts,
)
from .errors import BudgetExceededError, ContractViolationError
from .frames import FrameMatrix, GramMatrix, build_frame, gram
from .number_theory import PrimeModulus, find_primitive_root
from .orbits import GeneratorSet, enumerate_orbits, stabilizer

DEFAULT_SYMMETRY_MAX_N = 31
_AUTOMORPHISM_CAP = 500_000

KIND_DIAGONAL = "diagonal_power"
KIND_BLOCK_PERM = "block_perm_power"
KIND_PRODUCT = "product"


# -- exact monomial matrices -------------------------------------------------


@dataclass(frozen=True)
class _Monomial:
    """d x d matrix whose row k has single entry w^expo[k] in column src[k]."""

    src: tuple[int, ...]
    expo: tuple[int, ...]


def _mono_identity(d: int) -> _Monomial:
    return _Monomial(tuple(range(d)), (0,) * d)


def _mono_mul(a: _Monomial, b: _Monomial, N: int) -> _Monomial:
    src = tuple(b.src[j] for j in a.src)
    expo = tuple((a.expo[k] + b.expo[a.src[k]]) % N for k in range(len(a.src)))
    return _Monomial(src, expo)


def _mono_pow(a: _Monomial, k: int, N: int) -> _Monomial:
    out = _mono_identity(len(a.src))
    for _ in range(k):
        out = _mono_mul(out, a, N)
    return out


def _mono_column_perm(mono: _Monomial, frame: FrameMatrix) -> tuple[int, ...]:
    """The column permutation sigma with M Phi = Phi P_sigma, derived and
    verified exactly: column m of M Phi has entry exponents
    expo[k] + m n_(src[k]), which must equal some column sigma(m) of Phi."""
    N = frame.N
    E = frame.exponents
    col_index = {tuple(int(x) for x in E[:, m]): m for m in range(N)}
    sigma = []
    for m in range(N):
        v = tuple(
            (mono.expo[k] + int(E[mono.src[k], m])) % N for k in range(frame.d)
        )
        target = col_index.get(v)
        if target is None:
            raise ContractViolationError(
                f"monomial {mono} does not map frame columns to columns"
            )
        sigma.append(target)
    if len(set(sigma)) != N:
        raise ContractViolationError(f"monomial {mono} induces a non-bijection")
    return tuple(sigma)


def _mono_check_unitary(mono: _Monomial, N: int) -> None:
    """(M M*)[k,k'] = w^(e_k - e_k') when src[k] = src[k'], else 0; exact."""
    d = len(mono.src)
    if sorted(mono.src) != list(range(d)):
        raise ContractViolationError(f"monomial {mono} is not invertible")
    for k in range(d):
        for kp in range(d):
            if k != kp and mono.src[k] == mono.src[kp]:
                raise ContractViolationError(f"monomial {mono} not unitary")
            if k == kp and (mono.expo[k] - mono.expo[kp]) % N != 0:
                raise ContractViolationError(f"monomial {mono} not unitary")


class SymmetryElement:
    """One symmetry unitary: its column permutation and exact matrix.

    Monomial elements (the guaranteed subgroup) have denominator 1;
    reconstructed elements carry denominator N.
    """

    def __init__(
        self,
        modulus: PrimeModulus,
        kind: str,
        power: int | None,
        column_perm: tuple[int, ...],
        *,
        monomial: _Monomial | None = None,
        dense: np.ndarray | None = None,
        denominator: int = 1,
    ):
        self.modulus = modulus
        self.kind = kind
        self.power = power
        self.column_perm = column_perm
        self._monomial = monomial
        self._dense = dense
        self.denominator = denominator

    @property
    def d(self) -> int:
        if self._monomial is not None:
            return len(self._monomial.src)
        return self._dense.shape[0]

    def entry(self, i: int, j: int) -> ScaledCyclotomic:
        N = self.modulus.N
        if self._monomial is not None:
            coeffs = [0] * N
            if self._monomial.src[i] == j:
                coeffs[self._monomial.expo[i]] = 1
            return ScaledCyclotomic(CyclotomicInt(self.modulus, tuple(coeffs)), 1)
        return ScaledCyclotomic(
            CyclotomicInt(self.modulus, tuple(int(c) for c in self._dense[i, j])),
            self.denominator,
        )

    @property
    def matrix(self) -> list[list[ScaledCyclotomic]]:
        return [[self.entry(i, j) for j in range(self.d)] for i in range(self.d)]

    def __repr__(self) -> str:
        return (
            f"SymmetryElement(kind={self.kind}, power={self.power}, "
            f"perm={self.column_perm})"
        )


@dataclass(eq=False)
class SymmetryReport:
    """Symmetry findings for one generator set.

    subgroup_* describes the closure of the guaranteed generators; full_*
    is filled in by the brute-force search (None until then).
    conjecture_holds compares the two orders and is reporting, not an
    assertion: a False here is a finding, surfaced by conjecture_scan.
    """

    generators_found: tuple[dict, ...]
    stabilizer_order: int
    subgroup_order: int
    subgroup_permutations: tuple[tuple[int, ...], ...]
    elements: tuple[SymmetryElement, ...]
    full_group_order: int | None = None
    full_permutations: tuple[tuple[int, ...], ...] | None = None
    conjecture_holds: bool | None = None
    note: str | None = None


def _classify(mono: _Monomial, gens: tuple[int, ...], q_mono: _Monomial | None, c: int, N: int) -> tuple[str, int | None]:
    d = len(gens)
    identity_src = tuple(range(d))
    if mono.src == identity_src:
        for k in range(N):
            if all(mono.expo[i] == (k * gens[i]) % N for i in range(d)):
                return KIND_DIAGONAL, k
        return KIND_PRODUCT, None
    if all(e == 0 for e in mono.expo) and q_mono is not None:
        for b in range(1, c + 1):
            if _mono_pow(q_mono, b, N) == mono:
                return KIND_BLOCK_PERM, b
        return KIND_PRODUCT, None
    return KIND_PRODUCT, None


def guaranteed_subgroup(s: GeneratorSet) -> SymmetryReport:
    """Build and exhaustively verify the subgroup generated by the diagonal
    matrix D and (when the stabilizer is nontrivial) the slot permutation Q.

    All verification is exact: every closure element must map frame columns
    to frame columns bijectively and be unitary; the generator relations
    (D^k pairs with the k-step column shift, Q^k with multiplication by h^k,
    Q D Q^{-1} = D^h) are checked rather than assumed, and for every set
    other than {0} the closure order must come out as N * c.
    """
    modulus = s.modulus
    N = modulus.N
    d = s.d
    gens = s.elems
    c = len(stabilizer(s))

    if set(gens) == {0}:
        # the frame is N copies of one vector and D = Q = I; column matching
        # is meaningless (all columns coincide), so report the trivial group
        element = SymmetryElement(
            modulus, KIND_DIAGONAL, 0, tuple(range(N)), monomial=_mono_identity(d)
        )
        return SymmetryReport(
            generators_found=({"kind": "diagonal", "exponents": [0]},),
            stabilizer_order=c,
            subgroup_order=1,
            subgroup_permutations=(tuple(range(N)),),
            elements=(element,),
            note="degenerate generator set {0}: D = Q = I",
        )

    frame = build_frame(s)
    D = _Monomial(tuple(range(d)), gens)
    desc_d = {"kind": "diagonal", "exponents": list(gens)}
    shift = tuple((m + 1) % N for m in range(N))
    power = _mono_identity(d)
    expected = tuple(range(N))
    for k in range(N):
        sigma = _mono_column_perm(power, frame)
        if sigma != expected:
            raise ContractViolationError(
                f"D^{k} induces column permutation {sigma}, expected shift"
            )
        power = _mono_mul(power, D, N)
        expected = tuple(shift[m] for m in expected)

    Q = None
    desc_q = None
    generators = [D]
    if c > 1:
        g = find_primitive_root(modulus).g
        h = pow(g, (N - 1) // c, N)
        position = {x: k for k, x in enumerate(gens)}
        Q = _Monomial(tuple(position[(h * x) % N] for x in gens), (0,) * d)
        desc_q = {"kind": "block_perm", "slot_perm": list(Q.src), "unit": h}
        hk = h
        for k in range(1, c + 1):
            sigma = _mono_column_perm(_mono_pow(Q, k, N), frame)
            if sigma != tuple((hk * m) % N for m in range(N)):
                raise ContractViolationError(
                    f"Q^{k} does not induce multiplication by h^{k}"
                )
            hk = (hk * h) % N
        conj = _mono_mul(_mono_mul(Q, D, N), _mono_pow(Q, c - 1, N), N)
        d_to_h = _Monomial(tuple(range(d)), tuple((h * x) % N for x in gens))
        if conj != d_to_h:
            raise ContractViolationError("relation Q D Q^{-1} = D^h failed")
        generators.append(Q)

    # closure under multiplication, breadth first
    elements = {_mono_identity(d)}
    frontier = list(elements)
    while frontier:
        new = []
        for a in frontier:
            for gmono in generators:
                prod = _mono_mul(a, gmono, N)
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
        frontier = new

    perms = []
    sym_elements = []
    for mono in sorted(elements, key=lambda m: (m.src, m.expo)):
        _mono_check_unitary(mono, N)
        sigma = _mono_column_perm(mono, frame)
        kind, pwr = _classify(mono, gens, Q, c, N)
        perms.append(sigma)
        sym_elements.append(
            SymmetryElement(modulus, kind, pwr, sigma, monomial=mono, denominator=1)
        )

    order = len(elements)
    if set(gens) != {0} and order != N * c:
        raise ContractViolationError(
            f"guaranteed subgroup of {s} has order {order}, expected {N * c}"
        )

    return SymmetryReport(
        generators_found=(desc_d,) + ((desc_q,) if desc_q else ()),
        stabilizer_order=c,
        subgroup_order=order,
        subgroup_permutations=tuple(sorted(perms)),
        elements=tuple(sym_elements),
    )


# -- Gram automorphisms and the full group -----------------------------------


def gram_automorphisms(
    g: GramMatrix, *, max_N: int = DEFAULT_SYMMETRY_MAX_N
) -> list[tuple[int, ...]]:
    """All column permutations preserving the difference labels, found by
    backtracking: sigma(i) - sigma(0) must land in the label class of i, and
    every earlier difference constrains the extension.  Always contains the
    N cyclic shifts.  Label classes are negation-symmetric, so preserving
    differences one way preserves them both ways; both are checked anyway.
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
            budget=_AUTOMORPHISM_CAP,
        )

    out: list[tuple[int, ...]] = []
    sigma = [0] * N
    used = [False] * N

    def extend(i: int) -> None:
        if i == N:
            out.append(tuple(sigma))
            if len(out) > _AUTOMORPHISM_CAP:
                raise BudgetExceededError(
                    "automorphism group larger than cap",
                    required=-1,
                    budget=_AUTOMORPHISM_CAP,
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


def _verify_permutations(frame: FrameMatrix, sigmas: np.ndarray) -> np.ndarray:
    """For each candidate column permutation, reconstruct the unique unitary
    candidate U = (1/N) Phi P_sigma Phi^* and test, exactly,
    U Phi = Phi P_sigma and U U^* = I.  Returns a boolean vector."""
    if len(sigmas) > 128:  # bound the (S, d, N, N) work tensors
        return np.concatenate(
            [
                _verify_permutations(frame, sigmas[i : i + 128])
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


def reconstructed_element(frame: FrameMatrix, sigma: tuple[int, ...]) -> SymmetryElement:
    """The exact unitary (1/N) Phi P_sigma Phi^* as a SymmetryElement."""
    N = frame.N
    gens = np.array(frame.generators.elems, dtype=np.int64)
    sig = np.array(sigma, dtype=np.int64)
    A = (sig[None, :] * gens[:, None]) % N  # (d, N)
    EX = (A[:, None, :] - frame.exponents[None, :, :]) % N  # (d, d, N)
    dense = exponent_counts(EX, N)
    return SymmetryElement(
        frame.modulus,
        KIND_PRODUCT,
        None,
        tuple(sigma),
        dense=dense,
        denominator=N,
    )


def _degenerate_family(s: GeneratorSet) -> str | None:
    N = s.modulus.N
    nonzero = [x for x in s.elems if x != 0]
    if not nonzero:
        return "zero"
    if N > 2 and len(nonzero) == N - 1:
        return "basis" if 0 in s.elems else "simplex"
    return None


def full_symmetry_group(
    s: GeneratorSet, *, max_N: int = DEFAULT_SYMMETRY_MAX_N
) -> SymmetryReport:
    """Brute-force the full symmetry group and compare with the guaranteed
    subgroup.  The three label-degenerate families are resolved by closed
    form (see module docstring); everything else goes through the Gram
    automorphism search plus exact reconstruction."""
    N = s.modulus.N
    if N > max_N:
        raise BudgetExceededError(
            f"symmetry brute force for N={N} exceeds limit {max_N}",
            required=N,
            budget=max_N,
        )
    report = guaranteed_subgroup(s)
    family = _degenerate_family(s)
    if family == "zero":
        # single repeated vector: only the identity fixes it
        report.full_group_order = 1
        report.full_permutations = (tuple(range(N)),)
        report.conjecture_holds = report.subgroup_order == 1
        report.note = "degenerate frame {0}: N copies of one vector"
        return report
    if family in ("simplex", "basis"):
        # all off-diagonal Gram entries equal: every permutation of the
        # columns preserves the Gram and lifts to a unitary
        report.full_group_order = math.factorial(N)
        report.full_permutations = None
        report.conjecture_holds = report.subgroup_order == math.factorial(N)
        report.note = (
            "all off-diagonal Gram entries equal "
            f"({'regular simplex' if family == 'simplex' else 'scaled orthogonal basis'}); "
            "the symmetry group is all column permutations"
        )
        return report

    frame = build_frame(s)
    candidates = gram_automorphisms(gram(frame), max_N=max_N)
    keep = _verify_permutations(frame, np.array(candidates, dtype=np.int64))
    kept = tuple(sig for sig, ok in zip(candidates, keep) if ok)

    subgroup = set(report.subgroup_permutations)
    if not subgroup <= set(kept):
        raise ContractViolationError(
            f"guaranteed subgroup not contained in full group for {s}"
        )
    if report.stabilizer_order == 1 and len(kept) != N:
        raise ContractViolationError(
            f"trivial-stabilizer frame {s} has full group of order {len(kept)}, "
            f"expected {N}"
        )
    report.full_group_order = len(kept)
    report.full_permutations = kept
    report.conjecture_holds = len(kept) == report.subgroup_order
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
    max_N: int = DEFAULT_SYMMETRY_MAX_N,
    threads: int | None = None,
) -> ScanReport:
    """Run the full-group construction on every orbit representative and
    tabulate whether it matches the guaranteed subgroup.  A False row is a
    counterexample record; it is reported, never suppressed.  Representatives
    are processed independently (possibly by a thread pool) and the rows keep
    enumeration order, so the report is deterministic for any worker count."""
    records = enumerate_orbits(modulus, d, max_subsets=max_subsets)
    workers = (os.cpu_count() or 1) if threads is None else max(1, threads)

    def scan_one(rec) -> ScanRow:
        report = full_symmetry_group(rec.rep, max_N=max_N)
        return ScanRow(
            rep=rec.rep,
            stabilizer_order=report.stabilizer_order,
            subgroup_order=report.subgroup_order,
            full_group_order=report.full_group_order,
            conjecture_holds=bool(report.conjecture_holds),
            note=report.note,
        )

    if workers == 1 or len(records) <= 1:
        rows = [scan_one(rec) for rec in records]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(scan_one, records))
    return ScanReport(modulus=modulus, d=d, rows=tuple(rows))
