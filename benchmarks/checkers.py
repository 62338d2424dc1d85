"""Independent references and output checkers for the benchmark.

Nothing here imports harmonic_census.  Every reference is recomputed from
first principles so that a wrong answer from the library cannot also be the
expected answer:

* orbit counts come from the necklace form.  Taking discrete logs base a
  primitive root turns the unit action on a d-subset S of Z_N into rotation
  of a binary word of length n = N-1 with k ones (k = d, or d-1 when 0 is in
  S).  An orbit with stabilizer order c is a necklace of exact period n/c,
  so gamma_c = L(n/c, k/c) summed over both k, where L counts aperiodic
  necklaces (Lyndon words) by Moebius inversion; the total is
  Neck(n, d) + Neck(n, d-1).
* orbit members, stabilizers, coset blocks and equivalence witnesses are
  re-derived by direct multiplication mod N.
* symmetry-group orders use the affine closed form: N*c for every set
  except the simplex and the basis, whose group is all N! permutations.

Each check_* function raises CheckError with a reason when an output is
wrong and returns a small dict of facts (counts) when it is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class CheckError(Exception):
    """An output disagreed with the benchmark's own reference."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


# -- number theory, independently coded --------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors_of(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [x * p**i for x in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def moebius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def primitive_root(N: int) -> int:
    if N == 2:
        return 1
    primes = [p for p, _ in factorize(N - 1)]
    return next(
        g for g in range(2, N) if all(pow(g, (N - 1) // p, N) != 1 for p in primes)
    )


def unit_subgroup(N: int, c: int) -> list[int]:
    """The order-c subgroup of Z_N^x, by powers of an element of order c."""
    h = pow(primitive_root(N), (N - 1) // c, N)
    return sorted(pow(h, j, N) for j in range(c))


# -- necklace counts ---------------------------------------------------------


def necklaces(n: int, k: int) -> int:
    """Binary necklaces of length n with k ones."""
    if k < 0 or k > n:
        return 0
    g = math.gcd(n, k)
    total = sum(euler_phi(j) * math.comb(n // j, k // j) for j in divisors_of(g))
    return total // n


def lyndon(p: int, j: int) -> int:
    """Aperiodic binary necklaces of length p with j ones."""
    if j < 0 or j > p:
        return 0
    g = math.gcd(p, j)
    total = sum(moebius(e) * math.comb(p // e, j // e) for e in divisors_of(g))
    return total // p


@lru_cache(maxsize=4096)
def orbit_counts(N: int, d: int) -> dict[int, int]:
    """gamma_c for every stabilizer order c with at least one orbit."""
    n = N - 1
    out: dict[int, int] = {}
    for c in divisors_of(n):
        g = sum(lyndon(n // c, k // c) for k in (d, d - 1) if 0 <= k <= n and k % c == 0)
        if g:
            out[c] = g
    total = sum(out.values())
    if total != necklaces(n, d) + necklaces(n, d - 1):
        raise AssertionError(f"necklace forms disagree at N={N} d={d}")
    if sum(g * (n // c) for c, g in out.items()) != math.comb(N, d):
        raise AssertionError(f"necklace mass balance fails at N={N} d={d}")
    return out


def stabilizer_order(N: int, elems) -> int:
    base = set(elems)
    return sum(1 for m in range(1, N) if all(m * x % N in base for x in base))


def is_simplex_or_basis(N: int, elems) -> bool:
    return N > 2 and sum(1 for x in elems if x % N) == N - 1


def symmetry_orders(N: int, elems) -> tuple[int, int, int]:
    """(c, guaranteed subgroup order, full group order) by closed form."""
    c = stabilizer_order(N, elems)
    full = math.factorial(N) if is_simplex_or_basis(N, elems) else N * c
    return c, N * c, full


# -- output parsing helpers --------------------------------------------------


def _int(v) -> int:
    """JSON integers above 2^53 arrive as decimal strings."""
    require(isinstance(v, (int, str)) and not isinstance(v, bool), f"not an integer: {v!r}")
    return int(v)


def _fraction(v) -> Fraction:
    if isinstance(v, str) and "/" in v:
        a, b = v.split("/")
        return Fraction(int(a), int(b))
    return Fraction(_int(v))


def _one_json(out: bytes) -> dict:
    text = out.decode("utf-8")
    require(text.endswith("\n") and text.count("\n") == 1, "expected one JSON line")
    return json.loads(text)


def _sorted_set(N: int, elems) -> tuple[int, ...]:
    return tuple(sorted({x % N for x in elems}))


# -- checks, one per op kind -------------------------------------------------


def check_count(N: int, d: int, rc: int, out: bytes) -> dict:
    require(rc == 0, f"count exit code {rc}")
    obj = _one_json(out)
    ref = orbit_counts(N, d)
    require((obj["N"], obj["d"]) == (N, d), "count echoes wrong (N, d)")
    require(_int(obj["total"]) == sum(ref.values()), f"count total {obj['total']} != necklace form")
    seen = {}
    for row in obj["rows"]:
        c, g = _int(row["c"]), _int(row["gamma"])
        require((N - 1) % c == 0, f"order {c} does not divide N-1")
        require(g == ref.get(c, 0), f"gamma_{c} = {g}, necklace form gives {ref.get(c, 0)}")
        require(_int(row["orbit_size"]) == (N - 1) // c, f"orbit size wrong for c={c}")
        require(_fraction(row["beta"]) == g * Fraction(N - 1, c), f"beta_{c} != gamma*(N-1)/c")
        seen[c] = g
    require(all(c in seen for c in ref), f"count omits orders {sorted(set(ref) - set(seen))}")
    return {}


def check_enumerate(N: int, d: int, rc: int, out: bytes) -> dict:
    require(rc == 0, f"enumerate exit code {rc}")
    lines = out.decode("utf-8").splitlines()
    recs = [json.loads(x) for x in lines]
    ref = orbit_counts(N, d)
    require(len(recs) == sum(ref.values()), f"{len(recs)} orbits, necklace form gives {sum(ref.values())}")
    require(N ** d < 2**62, "reference key would overflow")
    reps = np.array([r["generators"] for r in recs], dtype=np.int64).reshape(len(recs), d)
    require(bool(((reps >= 0) & (reps < N)).all()), "generator out of range")
    require(bool((np.diff(reps, axis=1) > 0).all()), "representative not strictly increasing")
    weights = N ** np.arange(d - 1, -1, -1, dtype=np.int64)
    key0 = reps @ weights
    require(len(np.unique(key0)) == len(recs), "duplicate representatives")
    stab = np.zeros((len(recs), N), dtype=bool)
    stab[:, 1] = True
    for m in range(2, N):
        km = np.sort(reps * m % N, axis=1) @ weights
        require(bool((km >= key0).all()), f"a representative is not lex-min (unit {m})")
        stab[:, m] = km == key0
    hist: dict[int, int] = {}
    total = 0
    for r, mask in zip(recs, stab):
        members = [int(m) for m in np.nonzero(mask)[0]]
        c = len(members)
        require(r["N"] == N and r["d"] == d, "record echoes wrong (N, d)")
        require(r["stab_order"] == c and r["stabilizer"] == members, f"wrong stabilizer for {r['generators']}")
        require(r["size"] * c == N - 1, f"size*stab != N-1 for {r['generators']}")
        sf = r["structured_form"]
        require(sf["c"] == c, "structured form has the wrong c")
        has_zero = r["generators"][0] == 0
        require(sf["kind"].startswith("zero") == has_zero, "structured form has the wrong kind")
        H = unit_subgroup(N, c)
        expanded = {x * h % N for x in sf["block_leaders"] for h in H} | ({0} if has_zero else set())
        require(sorted(expanded) == r["generators"] and len(sf["block_leaders"]) * c + has_zero == d,
                "block leaders do not expand to the representative")
        hist[c] = hist.get(c, 0) + 1
        total += r["size"]
    require(total == math.comb(N, d), "orbit sizes do not sum to C(N, d)")
    require(hist == ref, f"stabilizer histogram {hist} != necklace form {ref}")
    return {"orbits": len(recs)}


def check_verify(N: int, d: int, rc: int, out: bytes) -> dict:
    require(rc == 0, f"verify exit code {rc}")
    obj = _one_json(out)
    ref = orbit_counts(N, d)
    total = sum(ref.values())
    require(obj["match"] is True, "verify reports a mismatch")
    require(_int(obj["total_formula"]) == total and obj["total_bruteforce"] == total,
            "verify totals disagree with the necklace form")
    rows = {r["c"]: r for r in obj["rows"]}
    require(all(c in rows for c in ref), "verify omits an order")
    for c, r in rows.items():
        require(_int(r["formula"]) == ref.get(c, 0) and r["bruteforce"] == ref.get(c, 0) and r["match"],
                f"verify row c={c} disagrees with the necklace form")
    return {}


def frame_exponents(N: int, elems) -> np.ndarray:
    gens = np.array(_sorted_set(N, elems), dtype=np.int64)
    return np.outer(gens, np.arange(N, dtype=np.int64)) % N


def check_frame(N: int, gens, rc: int, out: bytes) -> dict:
    require(rc == 0, f"frame exit code {rc}")
    obj = _one_json(out)
    elems = _sorted_set(N, gens)
    d = len(elems)
    require(obj["N"] == N and obj["d"] == d and tuple(obj["generators"]) == elems, "frame header wrong")
    E = frame_exponents(N, elems)
    require(np.array_equal(np.array(obj["exponents"], dtype=np.int64), E), "exponents != m*n_k mod N")
    angle = 2 * math.pi * E / N
    scale = 1 / math.sqrt(d)
    real, imag = np.array(obj["real"], dtype=float), np.array(obj["imag"], dtype=float)
    require(real.shape == E.shape and imag.shape == E.shape, "float export has the wrong shape")
    require(np.abs(real - scale * np.cos(angle)).max() < 1e-9, "real parts wrong")
    require(np.abs(imag - scale * np.sin(angle)).max() < 1e-9, "imaginary parts wrong")
    return {}


def check_funtf(N: int, gens, report) -> dict:
    d = len(_sorted_set(N, gens))
    require(report.unit_norm is True and report.tight is True and report.ok is True,
            "verify_funtf rejects a harmonic frame")
    require(report.frame_bound == Fraction(N, d), "frame bound != N/d")
    return {}


def check_gram(N: int, gens, g, sample_t) -> dict:
    """Every difference label, and the exact entry numerators at sample_t."""
    elems = _sorted_set(N, gens)
    d = len(elems)
    require(g.denominator == d, "Gram denominator != d")
    for t in range(N):
        want = tuple(sorted(t * x % N for x in elems))
        require(tuple(g.difference_label(t)) == want, f"difference label wrong at t={t}")
    for t in sample_t:
        counts = np.bincount([t * x % N for x in elems], minlength=N)
        want = tuple(int(v) for v in counts - counts[-1])
        require(tuple(g.difference_numerator(t).coeffs) == want, f"Gram numerator wrong at t={t}")
    return {}


def in_same_orbit(N: int, a, b) -> bool:
    target = _sorted_set(N, a)
    return any(tuple(sorted(m * x % N for x in b)) == target for m in range(1, N))


def check_equivalent(N: int, a, b, rc: int, out: bytes) -> dict:
    obj = _one_json(out)
    if not in_same_orbit(N, a, b):
        require(rc == 1 and obj["equivalent"] is False, "inequivalent sets reported equivalent")
        require(isinstance(obj.get("certificate"), str) and obj["certificate"], "no certificate")
        return {"witnesses": 0}
    require(rc == 0 and obj["equivalent"] is True, "equivalent sets reported inequivalent")
    m0, perm = obj["m0"], obj["coordinate_perm"]
    A, B = frame_exponents(N, a), frame_exponents(N, b)
    require(sorted(perm) == list(range(len(perm))) and 0 < m0 < N, "malformed witness")
    cols = m0 * np.arange(N, dtype=np.int64) % N
    require(np.array_equal(B[np.array(perm)][:, cols], A), "witness fails on the exponent matrices")
    return {"witnesses": 1}


def check_symmetry(N: int, gens, rc: int, out: bytes) -> dict:
    require(rc == 0, f"symmetry exit code {rc}")
    obj = _one_json(out)
    elems = _sorted_set(N, gens)
    c, sub, full = symmetry_orders(N, elems)
    require(tuple(obj["generators"]) == elems, "symmetry echoes wrong generators")
    require(obj["stabilizer_order"] == c, f"stabilizer order {obj['stabilizer_order']} != {c}")
    require(_int(obj["subgroup_order"]) == sub, f"subgroup order != N*c = {sub}")
    require(_int(obj["full_group_order"]) == full, f"full group order != {full}")
    require(obj["conjecture_holds"] is (full == sub), "conjecture verdict wrong")
    return {"c": c}


def check_scan(N: int, d: int, rc: int, out: bytes) -> dict:
    obj = _one_json(out)
    ref = orbit_counts(N, d)
    require(len(obj["rows"]) == sum(ref.values()), "scan row count != necklace form")
    hist: dict[int, int] = {}
    special = []
    for row in obj["rows"]:
        rep = row["rep"]
        require(len(rep) == d, "scan row has the wrong size")
        c, sub, full = symmetry_orders(N, rep)
        require(row["c"] == c and _int(row["subgroup_order"]) == sub and _int(row["full_group_order"]) == full,
                f"scan row {rep} has wrong orders")
        require(row["conjecture_holds"] is (sub == full), f"scan verdict wrong for {rep}")
        if sub != full:
            special.append(rep)
        hist[c] = hist.get(c, 0) + 1
    require(hist == ref, "scan stabilizer histogram != necklace form")
    require(obj["counterexamples"] == special, "counterexample list wrong")
    require(rc == (4 if special else 0), f"scan exit code {rc}, simplex/basis rows {len(special)}")
    return {}
