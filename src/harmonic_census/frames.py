"""Frame matrices built from generator sets, and their exact verification.

A generator set [n_1, ..., n_d] in Z_N selects d rows of the N x N
character table of Z_N; reading off columns gives N vectors
phi_m = (1/sqrt(d)) (w^(m n_1), ..., w^(m n_d)),  m = 0, ..., N-1,
which always form a unit-norm tight frame for C^d with frame bound N/d.

Everything exact is done on the UNSCALED matrix Phi with entries w^(m n_k):
the tight-frame identity becomes Phi Phi^* = N I_d entrywise in Z[w], which
is decidable, while the 1/sqrt(d) factor is irrational and therefore kept as
a symbolic tag, applied only in floating-point exports.

The Gram matrix Phi^* Phi is circulant with entries
(1/d) sum_l w^(n_l (k-j)); each diagonal carries the difference label
sorted((k-j) . [n]), and two entries are equal exactly when their labels
coincide.  The numerator of an entry is the count vector of its label, and
two count vectors denote the same element of Z[w] only if they differ by a
constant vector c; both sum to d, so c N = 0 and c = 0.  `GramMatrix`
therefore stores just the N label rows, O(N d), and counts a numerator
from its row on demand.  The same argument reduces the unit-norm identity
to d congruences per column.  Each off-diagonal row-Gram entry sums all N
roots once, so the row-Gram identity reduces to the generators being
distinct mod N.  `symmetry` reads no labels: the label at t = 1 is S
itself, so the multipliers that keep every label are exactly Stab(S).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CyclotomicInt, ScaledCyclotomic, exponent_counts, root_power
from .errors import ContractViolationError, DomainError
from .orbits import GeneratorSet

NORMALIZATION_TAG = "1/sqrt(d)"


class FrameMatrix:
    """The d x N unscaled frame matrix; entry (k, m) is w^(m n_k).

    Exponents are stored as a read-only integer matrix; cyclotomic entries
    are materialized on demand.  Rows are indexed by generator position
    (generators sorted ascending), columns by m = 0, ..., N-1.
    """

    normalization = NORMALIZATION_TAG

    def __init__(self, generators: GeneratorSet):
        self.generators = generators
        self.modulus = generators.modulus
        N = self.modulus.N
        gens = np.array(generators.elems, dtype=np.int64)
        exps = np.outer(gens, np.arange(N, dtype=np.int64)) % N
        exps.setflags(write=False)
        self.exponents = exps

    @property
    def d(self) -> int:
        return self.generators.d

    @property
    def N(self) -> int:
        return self.modulus.N

    def entry(self, k: int, m: int) -> CyclotomicInt:
        return root_power(self.modulus, int(self.exponents[k, m]))

    def __repr__(self) -> str:
        return f"FrameMatrix(N={self.N}, generators={list(self.generators.elems)})"


def build_frame(s: GeneratorSet) -> FrameMatrix:
    return FrameMatrix(s)


@dataclass(frozen=True)
class FuntfReport:
    """Outcome of the exact tight-frame verification.

    unit_norm: every unscaled column has squared norm exactly d.
    tight: Phi Phi^* = N I_d entrywise in Z[w].
    frame_bound: the implied bound N/d, exact.
    """

    unit_norm: bool
    tight: bool
    frame_bound: Fraction

    @property
    def ok(self) -> bool:
        return self.unit_norm and self.tight


def verify_funtf(f: FrameMatrix) -> FuntfReport:
    """Check the tight-frame identities in exact cyclotomic arithmetic.

    A False anywhere signals an implementation bug, never a property of the
    input: every generator set yields a tight frame.
    """
    N, d = f.N, f.d
    E = f.exponents

    # column squared norms: sum_k w^(m n_k) * conj(w^(m n_k)), conj(w^e) =
    # w^(-e).  Its count vector and [d, 0, ..., 0] both sum to d, so they
    # denote the same number only if equal: every e + (-e) must be 0 mod N.
    unit_norm = bool(((E + (-E) % N) % N == 0).all())

    # row Gram: (Phi Phi^*)[k, l] = sum_m w^(m (n_k - n_l)).  On the
    # diagonal that is N.  Off it, for n_k != n_l mod N, m -> m (n_k - n_l)
    # permutes Z_N and the sum is 1 + w + ... + w^(N-1) = 0; for n_k = n_l
    # it would be N.  So Phi Phi^* = N I_d iff the d generators are distinct
    # mod N: d (d - 1) / 2 congruences, here compared as one set.
    tight = len({x % N for x in f.generators.elems}) == d

    return FuntfReport(unit_norm=unit_norm, tight=tight, frame_bound=Fraction(N, d))


class GramMatrix:
    """Circulant Gram matrix of a frame, as its N difference labels.

    entry(j, k) = (1/d) sum_l w^(n_l (k-j)) and label(j, k) is the sorted
    tuple of (k-j) . [n]; the all-zeros label marks the diagonal.  Only the
    (N, d) array of sorted label rows t . [n] is stored, which makes the
    matrix circulant by construction; a numerator is counted from its label
    row on demand, so equal labels give equal entries, and the module
    docstring shows the converse.  The constructor checks, in O(N d) per
    row, that the column exponent differences of the frame reproduce the
    label rows: on every row up to N = 128, on rows 0, 1, N//2 and N-1
    beyond.  The N x N coefficient re-derivation from the column inner
    products and the equal-entry check live in the tests
    (`oracles.gram_coefficients`).
    """

    def __init__(self, frame: FrameMatrix):
        self.generators = frame.generators
        self.modulus = frame.modulus
        N = frame.N
        gens = np.array(frame.generators.elems, dtype=np.int64)
        t = np.arange(N, dtype=np.int64)
        label_rows = (t[:, None] * gens[None, :]) % N  # (N, d): t . [n]
        self.denominator = frame.d

        # <phi_k, phi_j> = sum_l w^(E[l, k] - E[l, j]); equal exponent rows
        # give equal coefficient rows
        cols = frame.exponents.T
        rows = t if N <= 128 else t[[0, 1, N // 2, N - 1]]
        got = (cols[None, :, :] - cols[rows, None, :]) % N  # (rows, N, d)
        if not np.array_equal(got, label_rows[(t - rows[:, None]) % N]):
            raise ContractViolationError("Gram matrix is not circulant")

        label_rows.sort(axis=1)
        label_rows.setflags(write=False)
        self._label_rows = label_rows

    @property
    def N(self) -> int:
        return self.modulus.N

    def entry(self, j: int, k: int) -> ScaledCyclotomic:
        return ScaledCyclotomic(self.difference_numerator(k - j), self.denominator)

    def label(self, j: int, k: int) -> tuple[int, ...]:
        return self.difference_label(k - j)

    def difference_numerator(self, t: int) -> CyclotomicInt:
        counts = exponent_counts(self._label_rows[t % self.N], self.N)
        return CyclotomicInt(self.modulus, tuple(counts.tolist()))

    def difference_label(self, t: int) -> tuple[int, ...]:
        return tuple(self._label_rows[t % self.N].tolist())


def gram(f: FrameMatrix) -> GramMatrix:
    return GramMatrix(f)


def _round12(x: float) -> float:
    v = float(f"{x:.12g}")
    return 0.0 if v == 0.0 else v


def _complex_entries(f: FrameMatrix) -> tuple[list[list[float]], list[list[float]]]:
    """The entries w^(m n_k) / sqrt(d), rounded, looked up by exponent in one
    table of the N roots of unity.  Each root is a single cmath.exp; through
    CyclotomicInt.to_complex, w^(N-1), stored as -(1 + w + ... + w^(N-2)),
    would sum N-1 floats and lose digits."""
    N, scale = f.N, 1.0 / math.sqrt(f.d)
    # w = -1 at N = 2, where cmath.exp(1j * pi) keeps an imaginary 1.2e-16
    roots = [1, -1] if N == 2 else [cmath.exp(2j * cmath.pi * k / N) for k in range(N)]
    re = [_round12((z * scale).real) for z in roots]
    im = [_round12((z * scale).imag) for z in roots]
    rows = f.exponents.tolist()
    return [[re[e] for e in r] for r in rows], [[im[e] for e in r] for r in rows]


def export_frame(f: FrameMatrix, format: str) -> bytes:
    """Serialize a frame; byte-stable across runs.

    json: N, d, generators, the exact exponent matrix, and 1/sqrt(d)-scaled
    floating entries rounded to 12 significant digits.
    csv: d rows x N columns of "re+imi" cells.
    """
    if format == "json":
        real, imag = _complex_entries(f)
        obj = {
            "N": f.N,
            "d": f.d,
            "generators": list(f.generators.elems),
            "exponents": f.exponents.tolist(),
            "real": real,
            "imag": imag,
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
    if format == "csv":
        real, imag = _complex_entries(f)
        lines = []
        for re_row, im_row in zip(real, imag):
            cells = []
            for re, im in zip(re_row, im_row):
                sign = "-" if im < 0 else "+"
                cells.append(f"{re:.12g}{sign}{abs(im):.12g}i")
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise DomainError(f"unsupported export format {format!r}")
