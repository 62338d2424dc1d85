"""Exact orbit counting by recursion over stabilizer orders.

For prime N and a d-subset orbit census, write gamma_c for the number of
orbits whose stabilizer has order c (orbit size (N-1)/c) and beta_c for the
cumulative number of subsets those orbits contain, so gamma_c =
c * beta_c / (N-1).  A subset with stabilizer of order c splits into
multiplicative cosets of the order-c unit subgroup, so choosing q of the
(N-1)/c cosets gives every subset expressible in that block shape; since a
subset with a larger stabilizer of order b (c | b) is also expressible in
c-blocks, the recursion runs backwards over the divisor lattice:

    beta_c = C((N-1)/c, q) - sum_{c<b, c|b, b|gcd(N-1, t)} beta_b

with t = d and q = d/c when c | d, and t = d-1, q = (d-1)/c when c | d-1
(the two cases are exclusive for c > 1).  Only b | N-1 appear: for any
other b no unit of order b exists, so beta_b = 0.  A census thus costs
O(tau(g)^2) int operations and one binomial per divisor of g = gcd(N-1, t),
after a trial division up to sqrt(g).  For 2 <= d <= N-2, g <= d; only
d = 1 (t = 0), N-1 and N factor N-1 itself.  beta_1 and gamma_1 follow from
mass balance against C(N, d).

A second, independently coded recursion computes the same counts directly
at orbit level (alpha, in Fractions over the divisors of N-1); the two are
asserted equal in the test suite.  Any non-integral gamma aborts loudly
instead of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolationError, DomainError
from .number_theory import PrimeModulus, divisors


def _target(N: int, d: int, c: int) -> int:
    """The one of d and d-1 that c divides, for a block order c > 1 that
    divides N-1."""
    if c <= 1:
        raise DomainError(f"block recursion needs c > 1, got c={c}")
    if (N - 1) % c != 0:
        raise DomainError(f"c={c} does not divide N-1={N - 1}")
    if d % c == 0:
        return d
    if (d - 1) % c == 0:
        return d - 1
    raise DomainError(f"c={c} divides neither d={d} nor d-1={d - 1}")


def _betas(N: int, target: int) -> dict[int, int]:
    """beta_c for every c > 1 dividing gcd(N-1, target), keyed by c in
    descending order.  Each beta_c subtracts the beta_b already computed for
    the multiples b of c."""
    out: dict[int, int] = {}
    for c in reversed(divisors(math.gcd(N - 1, target))[1:]):
        first = math.comb((N - 1) // c, target // c)
        out[c] = first - sum(v for b, v in out.items() if b % c == 0)
    return out


def beta(modulus: PrimeModulus, d: int, c: int) -> int:
    """beta_c for dimension d (c > 1, c | N-1, c | d or c | d-1)."""
    N = modulus.N
    return _betas(N, _target(N, d, c))[c]


def _gamma(N: int, d: int, c: int, beta_c: int) -> int:
    value, rem = divmod(c * beta_c, N - 1)
    if rem:
        raise ContractViolationError(
            f"gamma_{c}({N},{d}) = {c * beta_c}/{N - 1} is not integral"
        )
    return value


def gamma(modulus: PrimeModulus, d: int, c: int) -> int:
    """gamma_c, the number of orbits of size (N-1)/c; exact integer."""
    if c == 1:
        return full_census(modulus, d).gamma[1]
    return _gamma(modulus.N, d, c, beta(modulus, d, c))


@dataclass(frozen=True)
class Census:
    """Per-stabilizer-order orbit counts for one (N, d) pair.

    beta[1] is C(N, d) less the other beta_c, so sum_c beta_c = C(N, d).
    """

    modulus: PrimeModulus
    d: int
    beta: dict[int, int]
    gamma: dict[int, int]
    total: int

    def orbit_size(self, c: int) -> int:
        return (self.modulus.N - 1) // c


def full_census(modulus: PrimeModulus, d: int) -> Census:
    """Census for all admissible stabilizer orders, with mass balance
    against C(N, d) asserted exactly."""
    N = modulus.N
    if not 1 <= d <= N:
        raise DomainError(f"need 1 <= d <= N, got d={d}, N={N}")
    subsets = math.comb(N, d)
    # c > 1 divides N-1 and one of d and d-1, ascending
    betas = dict(sorted({**_betas(N, d), **_betas(N, d - 1)}.items()))
    gammas = {c: _gamma(N, d, c, v) for c, v in betas.items()}
    beta_1 = subsets - sum(betas.values())
    gamma_1, rem = divmod(beta_1, N - 1)
    if rem or gamma_1 < 0:
        raise ContractViolationError(
            f"gamma_1({N},{d}) = {beta_1}/{N - 1} is not a nonnegative integer"
        )
    gammas = {1: gamma_1, **gammas}
    betas = {1: beta_1, **betas}
    mass = sum(g * ((N - 1) // c) for c, g in gammas.items())
    if mass != subsets:
        raise ContractViolationError(f"census mass {mass} != C({N},{d}) = {subsets}")
    return Census(
        modulus=modulus,
        d=d,
        beta=betas,
        gamma=gammas,
        total=sum(gammas.values()),
    )


def count_harmonic_frames(modulus: PrimeModulus, d: int) -> int:
    """Number of d-subset orbits, i.e. of inequivalent harmonic frames: 2 at
    d = 1 ([0] and the orbit of any nonzero singleton) and 1 at d = N."""
    return full_census(modulus, d).total


def count_unordered_dft(modulus: PrimeModulus, d: int) -> int:
    """Number of orbits of ordered distinct d-tuples under unit scaling
    (frames counted as unordered vector sets, before unitary equivalence).

    Two closed forms exist for d >= 2, N > 2: the product
    N (N-2)(N-3)...(N-d+1) and N! / ((N-d)! (N-1)), the latter taken as
    perm(N, d) / (N-1); both cost O(d) products and must agree.
    """
    N = modulus.N
    if not 1 <= d <= N:
        raise DomainError(f"need 1 <= d <= N, got d={d}, N={N}")
    if d == 1 or (d == 2 and N == 2):
        return 2
    product = N
    for k in range(2, d):
        product *= N - k
    ratio = math.perm(N, d) // (N - 1)
    if product != ratio:
        raise ContractViolationError(
            f"ordered-count forms disagree: {product} vs {ratio}"
        )
    return product


def growth_ratio(modulus: PrimeModulus, d: int) -> float:
    """count / (N^(d-1) / d!), the orbit count against its leading-order
    growth term.  Approaches 1 from below as N grows at fixed d."""
    N = modulus.N
    if not 1 < d < N:
        raise DomainError(f"growth diagnostic needs 1 < d < N, got d={d}, N={N}")
    count = count_harmonic_frames(modulus, d)
    return count * math.factorial(d) / N ** (d - 1)


# -- independent orbit-level recursion ---------------------------------------


def _alphas(N: int, target: int, divs: list[int]) -> dict[int, Fraction]:
    """alpha_c for every c > 1 in divs (the divisors of N-1, ascending) with
    c | target, from the largest c down; target >= 1."""
    out: dict[int, Fraction] = {}
    for c in reversed(divs):
        if c == 1 or target % c:
            continue
        q = target // c
        num = 1
        for i in range(1, q):
            num *= N - 1 - i * c
        first = Fraction(num, c ** (q - 1) * math.factorial(q))
        sub = sum(
            (Fraction(N - 1, b) * a for b, a in out.items() if b % c == 0),
            Fraction(0),
        )
        out[c] = first - Fraction(c, N - 1) * sub
    return out


def _nontrivial_alphas(N: int, d: int) -> dict[int, Fraction]:
    divs = divisors(N - 1)
    return {**_alphas(N, d, divs), **_alphas(N, d - 1, divs)}


def _alpha_1(N: int, d: int, alphas: dict[int, Fraction]) -> Fraction:
    total = Fraction(math.comb(N, d), N - 1)
    for c, a in alphas.items():
        total -= a / c
    return total


def alpha(modulus: PrimeModulus, d: int, c: int) -> Fraction:
    """The orbit-count recursion coded independently of beta/gamma.

    For c > 1 it counts orbits of stabilizer order c directly; alpha(1)
    balances against C(N, d).  Defined for d >= 2 (the c > 1 cases need at
    least one block).  Asserting alpha_c == gamma_c is part of the test
    contract, not of this function.
    """
    N = modulus.N
    if d < 2:
        raise DomainError(f"alpha recursion needs d >= 2, got d={d}")
    if c == 1:
        return _alpha_1(N, d, _nontrivial_alphas(N, d))
    return _alphas(N, _target(N, d, c), divisors(N - 1))[c]
