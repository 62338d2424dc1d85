"""Seeded op lists for the four workloads.

A workload is an endless sequence of rounds.  Every round of a workload has
the same composition, and only the inputs drawn inside each stratum depend
on the seed and the round index, so two runs with different seeds measure
the same mix of work.  run.py runs whole rounds.

Costs are heavy-tailed (a count at N = 2e7 costs a thousand times one at
N = 1e3), so a round does not draw magnitudes independently: it places one
draw in each of K equal strata of the log range, at the stratum's centre
plus a small seeded jitter.  Independent draws would let the luck of the
largest few decide a run's throughput.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import checkers as ref

WORKLOADS = ("census-sweep", "orbit-verify", "frame-certify", "symmetry")

JITTER = 0.1  # share of one stratum


@dataclass(frozen=True)
class Op:
    """One client request.  argv set: a CLI command run through cli.main;
    argv None: a direct library call named by `name`."""

    name: str
    N: int
    d: int
    argv: tuple[str, ...] | None = None
    gens: tuple[int, ...] = ()
    other: tuple[int, ...] = ()
    sample_t: tuple[int, ...] = field(default=(), compare=False)


def log_strata(lo: float, hi: float, k: int, rng: random.Random) -> list[float]:
    """k magnitudes, one per equal stratum of [log lo, log hi], ascending."""
    a, b = math.log(lo), math.log(hi)
    return [
        math.exp(a + (b - a) * (i + 0.5 + JITTER * (rng.random() - 0.5)) / k)
        for i in range(k)
    ]


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def cli_op(name: str, N: int, d: int, *args: str, **kw) -> Op:
    return Op(name, N, d, argv=(name, "--N", str(N), *args, "--format", "json"), **kw)


# -- census-sweep --------------------------------------------------------------

CENSUS_RANGE = (1_000, 20_000_000)
CENSUS_PRIMES_PER_ROUND = 30
CENSUS_DS = range(2, 9)
# N mod 840 decides which of c = 3..8 divide N-1, and so how many O(N/c)
# loops the seven counts of one prime run.  Stratum i always draws its prime
# from one fixed class, so a round's mix of cheap and dear primes does not
# depend on the seed; a stride of 41 through the classes spreads the strata
# over them.  Below 840*100 a step of 840 would move N too far, so small
# strata fix only N mod 24 (c = 3, 4, 8).
_UNITS = {m: [r for r in range(m) if math.gcd(r, m) == 1] for m in (24, 840)}


def census_class(i: int, x: float) -> tuple[int, int]:
    m = 840 if x > 840 * 100 else 24
    units = _UNITS[m]
    return m, units[(i * 41) % len(units)]


class CensusSweep:
    """count --N p --d k for k = 2..8; primes log-uniform, each used once,
    the seven counts of one prime back to back."""

    def __init__(self, seed: int):
        self.seed = seed
        self.used: set[int] = set()

    def _prime(self, x: float, m: int, cls: int) -> int:
        p = int(x) + (cls - int(x)) % m
        while p in self.used or not ref.is_prime(p):
            p += m
        self.used.add(p)
        return p

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"census-sweep/{self.seed}/{r}")
        ops = []
        for i, x in enumerate(log_strata(*CENSUS_RANGE, CENSUS_PRIMES_PER_ROUND, rng)):
            p = self._prime(x, *census_class(i, x))
            ops.extend(cli_op("count", p, d, "--d", str(d)) for d in CENSUS_DS)
        return ops


# -- orbit-verify --------------------------------------------------------------

ORBIT_PRIMES = [p for p in range(11, 64) if ref.is_prime(p)]
ORBIT_SUBSETS = (1_000, 100_000)
# the top of the range, C(N, d) up to 5e5, is represented by three fixed
# pairs; drawing it at random would decide most of a round's cost by luck
ORBIT_HEAVY = ((31, 5), (53, 4), (29, 6))
ORBIT_SMALL_REPEAT = 20_000
# (N, d) pairs past the int64 subset-key limit of the seed's enumerator; they
# are run as known-defect probes outside the timed ops (see README.md)
KNOWN_DEFECT_PAIRS = ((67, 2), (101, 3), (127, 2), (131, 2))


def orbit_pairs() -> list[tuple[int, int]]:
    """Every (N, d) with 11 <= N <= 61 prime, 2 <= d <= N/2 and
    1e3 <= C(N, d) < 1e5, then the heavy pairs; d > N/2 would repeat the
    same orbit counts through complements."""
    lo, hi = ORBIT_SUBSETS
    light = [(N, d) for N in ORBIT_PRIMES for d in range(2, N // 2 + 1) if lo <= math.comb(N, d) < hi]
    return sorted(light, key=lambda nd: (math.comb(*nd), nd)) + list(ORBIT_HEAVY)


class OrbitVerify:
    """enumerate then verify for every pair of orbit_pairs(), the pairs
    with C(N, d) < 2e4 twice.  The pairs are a whole population, not a
    sample, so the seed only sets their order; the heavy pairs close each
    round in a fixed order, so the memory high-water mark they set does not
    depend on how the seed shuffled the rest."""

    def __init__(self, seed: int):
        self.seed = seed
        light = [p for p in orbit_pairs() if p not in ORBIT_HEAVY]
        self.light = light + [(N, d) for N, d in light if math.comb(N, d) < ORBIT_SMALL_REPEAT]

    def round(self, r: int) -> list[Op]:
        pairs = list(self.light)
        random.Random(f"orbit-verify/{self.seed}/{r}").shuffle(pairs)
        ops = []
        for N, d in pairs + list(ORBIT_HEAVY):
            ops.append(cli_op("enumerate", N, d, "--d", str(d)))
            ops.append(cli_op("verify", N, d, "--d", str(d)))
        return ops


# -- frame-certify -------------------------------------------------------------

FRAME_RANGE = (97, 2_000)
FRAME_DIMS = (3, 16)
FRAME_PRIMES_PER_ROUND = 10
GRAM_SAMPLES = 16


class FrameCertify:
    """frame export, verify_funtf, gram, and two equivalence decisions per
    seeded generator set S: S against u*S and S against an independent T.

    Each prime carries two sets of dimensions d and 19 - d (d drawn from
    3..16): export cost grows with d, so the pair costs the same whatever d
    the seed picks."""

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"frame-certify/{self.seed}/{r}")
        dlo, dhi = FRAME_DIMS
        sets = 2 * FRAME_PRIMES_PER_ROUND
        ops = []
        for i, x in enumerate(log_strata(*FRAME_RANGE, FRAME_PRIMES_PER_ROUND, rng)):
            N = ref.next_prime(int(x))
            d = rng.randint(dlo, dhi)
            for k, dim in enumerate((d, dlo + dhi - d)):
                # the witness search scans m = 1, 2, ... up to 1/u, so 1/u
                # is spread over (0, N) in fixed strata, one per set
                t = (7 * (2 * i + k)) % sets
                inv = int(N * (t + 0.5 + JITTER * (rng.random() - 0.5)) / sets)
                ops.extend(self._set_ops(N, dim, pow(max(inv, 2), -1, N), rng))
        return ops

    @staticmethod
    def _set_ops(N: int, d: int, unit: int, rng: random.Random) -> list[Op]:
        S = tuple(sorted(rng.sample(range(N), d)))
        uS = tuple(sorted(unit * x % N for x in S))
        T = tuple(sorted(rng.sample(range(N), d)))
        sample = (0, 1, N - 1) + tuple(rng.sample(range(2, N - 1), GRAM_SAMPLES - 3))
        ops = [
            cli_op("frame", N, d, "--gens", _csv(S), gens=S),
            Op("verify_funtf", N, d, gens=S),
            Op("gram", N, d, gens=S, sample_t=sample),
        ]
        for B in (uS, T):
            ops.append(cli_op("equivalent", N, d, "--a", _csv(S), "--b", _csv(B), gens=S, other=B))
        return ops


# -- symmetry ------------------------------------------------------------------

SYMMETRY_PRIMES = [p for p in range(5, 32) if ref.is_prime(p)]
SYMMETRY_LIGHT_N = 23
SYMMETRY_LIGHT_REPEATS = 2
SCAN_CASES = ((7, 6), (11, 4), (13, 6))


def symmetry_strata() -> list[tuple[int, int]]:
    return [(N, c) for N in SYMMETRY_PRIMES for c in ref.divisors_of(N - 1)]


def coset_union(N: int, c: int, k: int, zero: bool, rng: random.Random) -> tuple[int, ...]:
    """k random cosets of the order-c unit subgroup, plus 0 if asked; the
    stabilizer order is then c or a multiple of it."""
    H = ref.unit_subgroup(N, c)
    cosets = sorted({tuple(sorted(x * h % N for h in H)) for x in range(1, N)})
    elems = {x for coset in rng.sample(cosets, k) for x in coset}
    return tuple(sorted(elems | ({0} if zero else set())))


class Symmetry:
    """symmetry --N p --gens S for coset unions covering every (N, c) with
    c | N-1 at primes 5..31, plus a few scan ops.  Uniform subsets would be
    almost all c = 1.

    Strata with N <= 23 are drawn twice per round: the number of cosets is
    drawn once from the lower and once from the upper half of the counts
    that keep at most (N-1)/2 elements (so never the simplex unless
    c = N-1), 0 is added to one of the two, and the cosets are seeded.
    Strata at N = 29 and 31 cost up to seconds each, so they take one coset
    (two for c = 1) and no 0: every coset of one subgroup lies in one
    orbit, so their cost is the same for every seed.  c = N-1 is the
    simplex, or the basis with 0.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"symmetry/{self.seed}/{r}")
        ops = []
        for N, c in symmetry_strata():
            k_min = 2 if c == 1 else 1
            if N > SYMMETRY_LIGHT_N:
                draws = [(k_min, False)]
            else:
                span = max(k_min, (N - 1) // 2 // c) - k_min + 1
                parity = rng.randrange(2)
                draws = [(k_min + int((j + rng.random()) * span / SYMMETRY_LIGHT_REPEATS),
                          (j + parity) % 2 == 0)
                         for j in range(SYMMETRY_LIGHT_REPEATS)]
            for k, zero in draws:
                S = coset_union(N, c, k, zero, rng)
                ops.append(cli_op("symmetry", N, len(S), "--gens", _csv(S), gens=S))
        ops.extend(cli_op("scan", N, d, "--d", str(d)) for N, d in SCAN_CASES)
        rng.shuffle(ops)
        return ops


# untimed ops run once before measuring, so lazy set-up (first numpy calls,
# first argparse parser) is not charged to the first op of the workload
WARMUP = (
    cli_op("count", 7, 3, "--d", "3"),
    cli_op("verify", 7, 3, "--d", "3"),
    cli_op("frame", 7, 2, "--gens", "1,2", gens=(1, 2)),
    Op("gram", 7, 2, gens=(1, 2), sample_t=(0, 1)),
    Op("verify_funtf", 7, 2, gens=(1, 2)),
    cli_op("equivalent", 7, 2, "--a", "1,2", "--b", "2,4", gens=(1, 2), other=(2, 4)),
    cli_op("symmetry", 7, 3, "--gens", "1,2,4", gens=(1, 2, 4)),
)


def make(workload: str, seed: int):
    return {
        "census-sweep": CensusSweep,
        "orbit-verify": OrbitVerify,
        "frame-certify": FrameCertify,
        "symmetry": Symmetry,
    }[workload](seed)
