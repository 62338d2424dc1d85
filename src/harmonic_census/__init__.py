"""Exact enumeration, counting, and symmetry analysis of prime-order
harmonic frames, with brute-force oracles cross-validating every closed
form."""

from .census import (
    Census,
    alpha,
    beta,
    count_harmonic_frames,
    count_harmonic_frames_alpha,
    count_unordered_dft,
    full_census,
    gamma,
    growth_ratio,
)
from .cyclotomic import CyclotomicInt, ScaledCyclotomic, is_zero, root_power
from .equivalence import (
    CrossValidationReport,
    EquivalenceVerdict,
    Witness,
    angle_multiset,
    are_equivalent,
    cross_validate_equivalence,
)
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
    StructuredForm,
    act,
    canonical_rep,
    coset_blocks,
    enumerate_orbits,
    primitive_root_independence_check,
    stabilizer,
    structured_form,
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
