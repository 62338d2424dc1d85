"""Frame matrices built from generator sets, and their exact verification.

A generator set [n_1, ..., n_d] in Z_N selects d rows of the N x N
character table of Z_N; reading off columns gives N vectors
phi_m = (1/sqrt(d)) (w^(m n_1), ..., w^(m n_d)),  m = 0, ..., N-1,
which always form a unit-norm tight frame for C^d with frame bound N/d.

Everything exact is done on the UNSCALED matrix Phi with entries w^(m n_k):
the tight-frame identity becomes Phi Phi^* = N I_d entrywise in Z[w], which
is decidable, while the 1/sqrt(d) factor is irrational and therefore left
out of the matrix: the json and csv exports apply it in floating point, and
the table names it in its header.

The Gram matrix Phi^* Phi is circulant with entries
(1/d) sum_l w^(n_l (k-j)); each diagonal carries the difference label
sorted((k-j) . [n]), and two entries are equal exactly when their labels
coincide.  The numerator of an entry is the count vector of its label, and
two count vectors denote the same element of Z[w] only if they differ by a
constant vector c; both sum to d, so c N = 0 and c = 0.  `GramMatrix`
therefore stores only the generators, sorts a label on demand in O(d log d)
and counts a numerator from its label with one bincount.  Gram row 0 fixes
every other row: if column k minus column 0 of the exponents is k . [n] for
every k, then column k minus column j is (k - j) . [n], so the constructor
checks row 0 alone, in O(N d) for every N.  Every column has squared norm
sum_k w^e w^(-e) = d whatever its exponents, so the unit-norm identity
needs no check.  Each off-diagonal row-Gram entry sums all N roots once, so
the row-Gram identity reduces to the generators being distinct mod N.
`symmetry` reads no labels: the label at t = 1 is S itself, so the
multipliers that keep every label are exactly Stab(S).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator

import numpy as np

from .cyclotomic import CyclotomicInt
from .errors import ContractViolationError, DomainError
from .number_theory import GeneratorSet


class FrameMatrix:
    """The d x N unscaled frame matrix; entry (k, m) is w^(m n_k).

    Exponents are stored as a read-only integer matrix.  Rows are indexed
    by generator position (generators sorted ascending), columns by
    m = 0, ..., N-1.
    """

    def __init__(self, generators: GeneratorSet):
        self.generators = generators
        self.modulus = generators.modulus
        self.exponents = np.outer(generators.elems, np.arange(self.N, dtype=np.int64)) % self.N
        self.exponents.setflags(write=False)

    @property
    def d(self) -> int:
        return self.generators.d

    @property
    def N(self) -> int:
        return self.modulus.N

    def __repr__(self) -> str:
        return f"FrameMatrix(N={self.N}, generators={list(self.generators.elems)})"


def build_frame(s: GeneratorSet) -> FrameMatrix:
    return FrameMatrix(s)


@dataclass(frozen=True)
class FuntfReport:
    """Outcome of the exact tight-frame verification.

    unit_norm: every unscaled column has squared norm exactly d, which
        holds for every exponent matrix, so it is always True.
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
    """Check Phi Phi^* = N I_d exactly, as the generators being distinct
    mod N; the unit norms hold for any exponents and are reported, not
    computed.

    A False signals an implementation bug, never a property of the input:
    every generator set yields a tight frame.
    """
    # row Gram: (Phi Phi^*)[k, l] = sum_m w^(m (n_k - n_l)).  On the
    # diagonal that is N.  Off it, for n_k != n_l mod N, m -> m (n_k - n_l)
    # permutes Z_N and the sum is 1 + w + ... + w^(N-1) = 0; for n_k = n_l
    # it would be N.  So Phi Phi^* = N I_d iff the d generators are distinct
    # mod N: d (d - 1) / 2 congruences, here compared as one set.
    tight = len({x % f.N for x in f.generators.elems}) == f.d

    # column squared norms: sum_k w^(m n_k) conj(w^(m n_k)) = sum_k w^e w^(-e)
    # = d for every integer exponent e, so every column of every exponent
    # matrix, even a tampered one, has squared norm d: nothing to compute
    return FuntfReport(unit_norm=True, tight=tight, frame_bound=Fraction(f.N, f.d))


class GramMatrix:
    """Circulant Gram matrix of a frame, held as its generators [n].

    Entry (j, k) is (1/d) sum_l w^(n_l t) with t = k - j: its numerator is
    difference_numerator(t) over `denominator`, and its label
    difference_label(t) is the sorted tuple t . [n]; the all-zeros label
    marks the diagonal.  A label is sorted from [n] on demand, which makes
    the matrix circulant by construction, and a numerator counts its label,
    so equal labels give equal entries; the module docstring shows the
    converse.  The constructor checks Gram row 0, that column k minus column
    0 of the frame exponents is k . [n] mod N for every k, which implies
    every other row.  The N x N coefficient re-derivation from the column
    inner products, the all-rows check and the equal-entry check live in
    the tests (`oracles.gram_coefficients`, `oracles.gram_all_rows`).
    """

    def __init__(self, frame: FrameMatrix):
        self.generators = frame.generators
        self.modulus = frame.modulus
        self.denominator = frame.d
        N, E, gens = frame.N, frame.exponents, frame.generators.elems
        # <phi_k, phi_0> = sum_l w^(E[l, k] - E[l, 0])
        if not np.array_equal((E - E[:, :1]) % N, np.outer(gens, np.arange(N)) % N):
            raise ContractViolationError("Gram matrix is not circulant")

    @property
    def N(self) -> int:
        return self.modulus.N

    def difference_numerator(self, t: int) -> CyclotomicInt:
        counts = np.bincount(self.difference_label(t), minlength=self.N)
        return CyclotomicInt(self.modulus, tuple(counts.tolist()))

    def difference_label(self, t: int) -> tuple[int, ...]:
        return tuple(sorted(t * x % self.N for x in self.generators.elems))


def gram(f: FrameMatrix) -> GramMatrix:
    return GramMatrix(f)


def _root_texts(N: int, d: int) -> tuple[list[str], list[str]]:
    """The real and the imaginary parts of w^k / sqrt(d), k = 0, ..., N-1,
    rounded to 12 significant digits, as the texts json.dumps writes for
    those floats.  Each root is a single cmath.exp of its exponent, not a
    float sum over a coefficient vector: w^(N-1), stored canonically as
    -(1 + w + ... + w^(N-2)), would sum N-1 floats and lose digits.  Each
    part is formatted once, as f"{x:.12g}": at |x| <= 1 that decimal of at
    most 12 digits is already the shortest repr of the float it rounds to,
    in the same notation, since two decimals of at most 15 digits are never
    the same double; only a whole number (0, -0 or +-1) lacks repr's ".0"."""
    scale = 1.0 / math.sqrt(d)
    # w = -1 at N = 2, where cmath.exp(1j * pi) keeps an imaginary 1.2e-16
    roots = [1, -1] if N == 2 else (cmath.exp(2j * cmath.pi * k / N) for k in range(N))
    scaled = [z * scale for z in roots]
    whole = {"-0": "0.0", "0": "0.0", "1": "1.0", "-1": "-1.0"}
    real = [whole.get(t, t) for t in [f"{z.real:.12g}" for z in scaled]]
    return real, [whole.get(t, t) for t in [f"{z.imag:.12g}" for z in scaled]]


def export_frame(f: FrameMatrix, format: str) -> Iterator[bytes]:
    """Serialize a frame as byte blocks, a header and then one per matrix
    row, made as they are read; byte-stable across runs.

    json: N, d, generators, the exact exponent matrix, and 1/sqrt(d)-scaled
    floating entries rounded to 12 significant digits.
    csv: d rows x N columns of "re+imi" cells.
    table: a header naming the normalization 1/sqrt(d), then the exponent
    matrix, each exponent right-aligned in 3 columns.
    Only the N residues and the N roots w^k / sqrt(d) occur, so each is
    formatted once (_root_texts, for json and csv only; a cell drops its
    parts' ".0"), and each row joins those texts by exponent.  Every check
    runs on the call, before the first block.
    """
    if format not in ("json", "csv", "table"):
        raise DomainError(f"unsupported export format {format!r}")

    def joined(texts: list[str], first: str, sep="],[", end="", by=",") -> Iterator[bytes]:
        # an object array indexed by the row makes no N-entry list of ints
        # and joins in about half the time of a map over row.tolist()
        table = np.array(texts, dtype=object)
        del texts  # csv and the table pass their list in alone: it goes here
        for k, row in enumerate(f.exponents):
            yield f"{sep if k else first}{by.join(table[row].tolist())}{end}".encode()

    gens = ",".join(map(str, f.generators.elems))
    if format == "table":
        head = f"N={f.N} d={f.d} generators=[{gens}] normalization=1/sqrt(d)\n"
        head += "exponent matrix (entry (k,m) = m*n_k mod N):\n"
        rows = joined([f"{m:>3}" for m in range(f.N)], "  ", "  ", "\n", " ")
        return chain((head.encode(),), rows)
    real, imag = _root_texts(f.N, f.d)
    if format == "csv":
        real, imag = ([t.removesuffix(".0") for t in texts] for texts in (real, imag))
        cells = [f"{re}{im if im[0] == '-' else '+' + im}i" for re, im in zip(real, imag)]
        return joined(cells, "", "", "\n")
    head = f'{{"N":{f.N},"d":{f.d},"generators":[{gens}],"exponents":[['
    opens = ("", ']],"real":[[', ']],"imag":[[')
    blocks = map(joined, (list(map(str, range(f.N))), real, imag), opens)
    return chain((head.encode(),), *blocks, (b"]]}\n",))
