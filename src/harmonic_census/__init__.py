"""Exact enumeration, counting, and symmetry analysis of prime-order
harmonic frames.  The brute-force oracles that check every closed form live
with the tests, in tests/oracles.py.

The names below are imported with the package and need no numpy.  Those of
_NUMPY_NAMES, and the modules that hold them, are imported on first access
(PEP 562), so that `import harmonic_census` and the CLI's count, equivalent
and symmetry commands never load numpy."""

import importlib

from .census import (
    Census,
    count_harmonic_frames,
    count_unordered_dft,
    full_census,
)
from .equivalence import EquivalenceVerdict, Witness, are_equivalent
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    DomainError,
    HarmonicCensusError,
    ModulusMismatchError,
)
from .number_theory import (
    DEFAULT_MAX_SUBSETS,
    GeneratorSet,
    PrimeModulus,
    divisors,
    find_primitive_root,
    is_prime,
    multipliers,
    stabilizer,
    unit_subgroup,
)
from .symmetry import (
    SymmetryReport,
    full_symmetry_group,
    gram_automorphisms,
)

__version__ = "0.1.0"

# name: the module that holds it, which imports numpy; cyclotomic needs none
# but stays lazy, since only frames and the tests use it
_NUMPY_NAMES = {
    "CyclotomicInt": "cyclotomic",
    "FrameMatrix": "frames",
    "FuntfReport": "frames",
    "GramMatrix": "frames",
    "build_frame": "frames",
    "export_frame": "frames",
    "gram": "frames",
    "verify_funtf": "frames",
    "orbit_chunks": "orbits",
}


def __getattr__(name: str):
    if name in _NUMPY_NAMES.values():  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _NUMPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_NUMPY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMPY_NAMES, *_NUMPY_NAMES.values()})
