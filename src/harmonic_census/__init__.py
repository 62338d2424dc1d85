"""Exact enumeration, counting, and symmetry analysis of prime-order
harmonic frames.  The brute-force oracles that check every closed form live
with the tests, in tests/oracles.py."""

from .census import (
    Census,
    count_harmonic_frames,
    count_unordered_dft,
    full_census,
)
from .cyclotomic import CyclotomicInt
from .equivalence import EquivalenceVerdict, Witness, are_equivalent
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    DomainError,
    HarmonicCensusError,
    ModulusMismatchError,
)
from .frames import (
    FrameMatrix,
    FuntfReport,
    GramMatrix,
    build_frame,
    export_frame,
    gram,
    verify_funtf,
)
from .number_theory import (
    PrimeModulus,
    divisors,
    find_primitive_root,
    is_prime,
)
from .orbits import (
    DEFAULT_MAX_SUBSETS,
    GeneratorSet,
    multipliers,
    orbit_chunks,
    stabilizer,
    unit_subgroup,
)
from .symmetry import (
    SymmetryReport,
    full_symmetry_group,
    gram_automorphisms,
)

__version__ = "0.1.0"
