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
d = 1 (t = 0), N-1 and N factor N-1 itself.  beta_1 is C(N, d) less the
other beta_c, so mass balance against C(N, d) holds by construction, and
gamma_1 = beta_1 / (N-1).

full_census is the one path to these numbers.  Any non-integral gamma
aborts loudly instead of rounding; the tests check the census against an
independently coded orbit-level recursion, brute-force orbit counts and
the mass balance itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError, check_dimension
from .number_theory import PrimeModulus, divisors


def _betas(N: int, target: int) -> dict[int, int]:
    """beta_c for every c > 1 dividing gcd(N-1, target), keyed by c in
    descending order.  Each beta_c subtracts the beta_b already computed for
    the multiples b of c."""
    out: dict[int, int] = {}
    for c in reversed(divisors(math.gcd(N - 1, target))[1:]):
        first = math.comb((N - 1) // c, target // c)
        out[c] = first - sum(v for b, v in out.items() if b % c == 0)
    return out


def _gamma(N: int, d: int, c: int, beta_c: int) -> int:
    value, rem = divmod(c * beta_c, N - 1)
    if rem:
        raise ContractViolationError(
            f"gamma_{c}({N},{d}) = {c * beta_c}/{N - 1} is not integral"
        )
    return value


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
    """Census for all admissible stabilizer orders.  beta_1 is C(N, d) less
    the other beta_c, and each gamma_c (N-1)/c is beta_c once gamma_c is
    integral, so the orbits cover C(N, d) by construction; only the
    integrality, and gamma_1 >= 0, are checked."""
    N = modulus.N
    check_dimension(N, d)
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
    return Census(
        modulus=modulus,
        d=d,
        beta={1: beta_1, **betas},
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

    For d >= 2 it is the product N (N-2)(N-3)...(N-d+1), O(d) products;
    this is N! / ((N-d)! (N-1)) with the factor N-1 cancelled.
    """
    N = modulus.N
    check_dimension(N, d)
    if d == 1:
        return 2
    product = N
    for k in range(2, d):
        product *= N - k
    return product
