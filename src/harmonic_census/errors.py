"""Exception hierarchy shared by all modules."""

from __future__ import annotations

import sys


class HarmonicCensusError(Exception):
    """Base class for all library errors."""


class DomainError(HarmonicCensusError, ValueError):
    """An argument is outside the mathematical domain of the operation
    (non-prime modulus, dimension out of range, zero where a unit is
    required, and so on)."""


class ModulusMismatchError(HarmonicCensusError, ValueError):
    """Two values that must share a modulus (or a dimension) do not."""


class ContractViolationError(HarmonicCensusError, AssertionError):
    """An internal identity that is guaranteed by theorem failed to hold.
    This always signals an implementation bug, never bad input."""


class BudgetExceededError(HarmonicCensusError, RuntimeError):
    """A brute-force enumeration would exceed its configured budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


def check_dimension(N: int, d: int) -> None:
    """Raise DomainError unless 1 <= d <= N: a frame of prime order N has
    between 1 and N of the N distinct characters as its generators."""
    if not 1 <= d <= N:
        raise DomainError(f"need 1 <= d <= N, got d={d}, N={N}")


def check_budget(what: str, required: int, unit: str, budget: int) -> None:
    """Raise BudgetExceededError when the work an operation needs, required
    units of what, exceeds its budget."""
    if required > budget:
        raise BudgetExceededError(
            f"{what} = {required} {unit} exceeds budget {budget}",
            required=required,
            budget=budget,
        )


def check_printable(what: str, value: int = 0, *, min_bits: int = 0) -> None:
    """Raise BudgetExceededError when an integer has more decimal digits
    than the live int-to-str limit (PYTHONINTMAXSTRDIGITS; 0 means none)
    lets str() print.  An integer too costly to compute is passed as a lower
    bound min_bits on its bit length instead.  2^(3 limit) < 10^limit <
    2^(4 limit), so only a bit length in between needs the exact test."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = max(value.bit_length(), min_bits)
    if limit and bits > 3 * limit and (bits > 4 * limit or value >= 10**limit):
        raise BudgetExceededError(
            f"{what} has more than {limit} digits, the int-to-str limit of "
            "this interpreter",
            required=limit + 1,
            budget=limit,
        )
