"""Exact enumeration, counting, and symmetry analysis of prime-order
harmonic frames.  The brute-force oracles that check every closed form live
with the tests, in tests/oracles.py."""

from .census import (
    Census,
    alpha,
    beta,
    count_harmonic_frames,
    count_unordered_dft,
    full_census,
    gamma,
    growth_ratio,
)
from .cyclotomic import CyclotomicInt, ScaledCyclotomic, root_power
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
    PrimitiveRoot,
    divisors,
    find_primitive_root,
    is_prime,
    multiplicative_order,
    primes_up_to,
)
from .orbits import (
    DEFAULT_MAX_SUBSETS,
    GeneratorSet,
    OrbitRecord,
    act,
    canonical_rep,
    enumerate_orbits,
    stabilizer,
    unit_subgroup,
)
from .symmetry import (
    ScanReport,
    ScanRow,
    SymmetryElement,
    SymmetryReport,
    conjecture_scan,
    full_symmetry_group,
    gram_automorphisms,
    guaranteed_subgroup,
)

__version__ = "0.1.0"
