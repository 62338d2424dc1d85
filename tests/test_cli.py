import cmath
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_census import ContractViolationError, cli, number_theory, orbits, symmetry
from harmonic_census.cli import main
from harmonic_census.number_theory import is_prime

import oracles


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--N", "7", "--d", "3")
    assert code == 0
    assert out.startswith("N=7 d=3 total=7\n")
    assert out.endswith("\n")


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--N", "7", "--d", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == 7
    rows = {r["c"]: r for r in obj["rows"]}
    assert rows[2]["beta"] == 3 and rows[3]["beta"] == 2
    assert rows[1]["gamma"] == 5


def test_count_requires_prime(capsys):
    code, _, err = run(capsys, "count", "--N", "9", "--d", "2")
    assert code == 2
    assert "N must be prime" in err


@pytest.mark.parametrize("N,d", [("2147483659", "0"), ("4294967296", "2")])
def test_modulus_past_range(capsys, N, d):
    # the range is checked before d and before primality (4294967296 = 2^32)
    code, out, err = run(capsys, "count", "--N", N, "--d", d)
    assert code == 2 and out == ""
    assert err == f"error: modulus {N} exceeds supported range < 2^31\n"


def test_one_primality_test_per_command(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        number_theory, "is_prime", lambda n: calls.append(n) or is_prime(n)
    )
    assert not hasattr(cli, "is_prime")
    for argv in (
        ["count", "--N", "7", "--d", "3"],
        ["equivalent", "--N", "13", "--a", "1,2", "--b", "2,4"],
        ["frame", "--N", "5", "--gens", "1,2", "--format", "csv"],
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == [int(argv[2])]


def test_count_d_range(capsys):
    code, _, err = run(capsys, "count", "--N", "7", "--d", "8")
    assert code == 2


@pytest.mark.parametrize("N", [1000003, 1470268801])
def test_count_d1_large_N(capsys, N):
    # d = 1 recurses on target 0, which every divisor of N-1 divides
    # (1470268800 has 1536 divisors)
    code, out, _ = run(capsys, "count", "--N", str(N), "--d", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["total"] == 2


def test_enumerate_records(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--N", "5", "--d", "2", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["generators"] for r in records] == [[0, 1], [1, 2], [1, 4]]
    assert records[2]["size"] == 2 and records[2]["stab_order"] == 2


def test_enumerate_json_lines_against_oracle_records(capsys):
    # each line is rendered from digit cells; it must be the compact
    # json.dumps of the record, here built from the brute-force orbit census
    for N in (2, 3, 5, 7, 11, 13):
        for d in range(1, N + 1):
            code, out, _ = run(
                capsys, "enumerate", "--N", str(N), "--d", str(d), "--format", "json"
            )
            census = oracles.subset_orbit_census(N, d)
            want = []
            for rep, (size, c) in sorted(census.items()):
                kind = "blocks_divide_d"
                if rep[0] == 0:
                    kind = "zero_plus_blocks_divide_d_minus_1"
                leaders = list(oracles.coset_leaders(N, rep, c))
                record = {
                    "N": N,
                    "d": d,
                    "generators": list(rep),
                    "size": size,
                    "stab_order": c,
                    "stabilizer": [x for x in range(1, N) if pow(x, c, N) == 1],
                    "structured_form": {"kind": kind, "c": c, "block_leaders": leaders},
                }
                want.append(json.dumps(record, separators=(",", ":")))
            assert code == 0 and out.splitlines() == want


FORMATTER_CASES = [
    (N, d)
    for N in oracles.primes_up_to(31)
    for d in range(1, N + 1)
    if math.comb(N, d) <= 10**5
] + [(29, 6), (31, 7), (23, 12), (101, 2), (1009, 2)]


@pytest.mark.parametrize("N,d", FORMATTER_CASES)
def test_enumerate_matches_per_orbit_formatter(capsys, monkeypatch, N, d):
    # the numpy rendering of enumerate and scan against the per-orbit Python
    # formatters, byte for byte, on the same chunks; (101, 2) and (1009, 2)
    # cross 1 to 4 digits, and the cases hold {0} (d = 1), the simplex
    # (d = N-1), the basis (d = N) and N = 2, as at (2, 1), (2, 2), (3, 3),
    # (5, 1), (7, 6) and (7, 7)
    chunks = list(orbits.orbit_chunks(number_theory.PrimeModulus(N), d))
    monkeypatch.setattr(orbits, "orbit_chunks", lambda *args, **kw: iter(chunks))
    counterexample = N > 3 and d >= N - 1  # the simplex or the basis: N! > N(N-1)
    for command, text, want_code in (
        ("enumerate", oracles.enumerate_text, 0),
        ("scan", oracles.scan_text, 4 if counterexample else 0),
    ):
        for fmt in ("json", "csv", "table"):
            code, out, err = run(capsys, command, "--N", str(N), "--d", str(d), "--format", fmt)
            assert (code, err) == (want_code, "")
            assert out == text(N, d, fmt, chunks)


@pytest.mark.parametrize("N,d", [(2, 1), (7, 1), (7, 3), (7, 6), (7, 7), (13, 6)])
def test_wide_rows_match_per_orbit_formatter(capsys, monkeypatch, N, d):
    # with 1-byte blocks every row is wider than a block, so each is
    # written alone, in pieces: the same bytes as the block rendering
    chunks = list(orbits.orbit_chunks(number_theory.PrimeModulus(N), d))
    monkeypatch.setattr(orbits, "orbit_chunks", lambda *args, **kw: iter(chunks))
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1)
    for command, text in (("enumerate", oracles.enumerate_text), ("scan", oracles.scan_text)):
        for fmt in ("json", "csv", "table"):
            _, out, err = run(capsys, command, "--N", str(N), "--d", str(d), "--format", fmt)
            assert err == "" and out == text(N, d, fmt, chunks)


@pytest.mark.parametrize(
    "argv, want",
    [
        ("verify --N 9999991 --d 1 --format json", '"total_bruteforce":2,"match":true,'),
        ("enumerate --N 1000003 --d 1", "rep=[0] size=1 c=1000002 stabilizer=[1,2,3,"),
    ],
)
def test_d1_at_large_N(capsys, argv, want):
    # {0} is fixed by all of Z_N^x: verify needs no stabilizer, and
    # enumerate prints 1..N-1 without computing N-1 modular powers
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv.split())
    assert time.perf_counter() - start < 5.0
    assert code == 0 and want in out
    if argv.startswith("enumerate"):
        zero, one = out.splitlines()
        assert zero.endswith(",1000002] kind=zero_plus_blocks_divide_d_minus_1 leaders=[]")
        assert one == (
            "rep=[1] size=1000002 c=1 stabilizer=[1] kind=blocks_divide_d leaders=[1]"
        )


def test_enumerate_roundtrip_to_frame(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--N", "7", "--d", "3", "--format", "json"
    )
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        gens = ",".join(str(x) for x in rec["generators"])
        code2, out2, _ = run(
            capsys,
            "frame",
            "--N",
            str(rec["N"]),
            "--gens",
            gens,
            "--format",
            "json",
        )
        assert code2 == 0
        frame = json.loads(out2)
        assert frame["generators"] == rec["generators"]


def test_verify_match(capsys):
    code, out, _ = run(capsys, "verify", "--N", "11", "--d", "4")
    assert code == 0
    assert "formula_total=34" in out
    assert "match=yes" in out


def test_verify_13_4(capsys):
    code, out, _ = run(capsys, "verify", "--N", "13", "--d", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total_formula"] == 62 and obj["match"] is True


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "enumerate", "--N", "23", "--d", "11", "--max-subsets", "1000"
    )
    assert code == 3
    assert "budget" in err


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("HC_MAX_SUBSETS", "10")
    code, _, err = run(capsys, "enumerate", "--N", "13", "--d", "4")
    assert code == 3
    # explicit flag beats the environment
    code, out, _ = run(
        capsys, "enumerate", "--N", "13", "--d", "4", "--max-subsets", "1000"
    )
    assert code == 0


def test_verify_past_int64_key_limit(capsys):
    code, out, _ = run(capsys, "verify", "--N", "101", "--d", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["total_bruteforce"] == obj["total_formula"]


def test_contract_violation_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ContractViolationError("orbit sizes sum to 1")

    monkeypatch.setattr(cli, "full_census", broken)
    code, out, err = run(capsys, "verify", "--N", "7", "--d", "3")
    assert code == 5
    assert out == ""
    assert err == "error: internal contract violated: orbit sizes sum to 1\n"


def test_equivalent_exit_codes(capsys):
    code, out, _ = run(
        capsys, "equivalent", "--N", "5", "--a", "1,2", "--b", "2,4",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["equivalent"] is True and obj["m0"] == 3

    code, out, _ = run(
        capsys, "equivalent", "--N", "5", "--a", "1,2", "--b", "1,4",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["certificate"] == "orbit-mismatch"


@pytest.mark.parametrize("b,want", [("2,4,10", 0), ("2,4,11", 1)])
def test_equivalent_at_range_edge(capsys, b, want):
    # the witness is checked on the d generators; no d x N frame is built
    start = time.perf_counter()
    code, out, _ = run(capsys, "equivalent", "--N", "2147483647", "--a", "1,2,5", "--b", b)
    assert time.perf_counter() - start < 1.0
    assert code == want
    assert out.startswith("equivalent m0=1073741824 " if want == 0 else "inequivalent ")


def test_equivalent_to_itself_at_range_edge(capsys):
    # every unit fixes {0}; a set against itself lists none of them
    start = time.perf_counter()
    code, out, _ = run(capsys, "equivalent", "--N", "2147483647", "--a", "0", "--b", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.startswith("equivalent m0=1 coordinate_perm=[0]\n")


P = 2**31 - 1


@pytest.mark.parametrize(
    "argv, want",
    [
        (f"symmetry --N {P} --gens 1,2,3", f" c=1 subgroup_order={P} full_order={P} "),
        (f"symmetry --N {P} --gens 0", f" c={P - 1} subgroup_order=1 full_order=1 "),
        (f"symmetry --N {P} --gens 1,{P - 1}", f" c=2 subgroup_order={2 * P} full_order="),
        ("scan --N 37 --d 2", "N=37 d=2 orbits=19\n"),
    ],
)
def test_symmetry_at_range_edge(capsys, argv, want):
    # the group is read off Stab(S) and the d generators; nothing of size N
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv.split())
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and want in out
    assert "conjecture_holds=True" in out or argv.startswith("scan")
    assert elapsed < 1.0 and peak < 2**20


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_budget_counts_the_row_at_d_equal_N(capsys, command):
    # C(N, N) = 1, but the one row Z_N holds N entries; refused before any
    # table of size N is built
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--N", str(P), "--d", str(P))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == f"error: the row Z_{P} = {P} entries exceeds budget 10000000\n"
    argv = [command, "--N", "13", "--d", "13", "--max-subsets"]
    assert run(capsys, *argv, "13")[0] == 0
    code, _, err = run(capsys, *argv, "12")
    assert code == 3 and err == "error: the row Z_13 = 13 entries exceeds budget 12\n"
    # above N/2 the refusal still names C(N, d) with the d asked for
    code, _, err = run(capsys, command, "--N", "31", "--d", "24", "--max-subsets", "1000")
    assert code == 3
    assert err == "error: C(31,24) = 2629575 subsets exceeds budget 1000\n"


@pytest.mark.parametrize("d", [1000002, 1000003])
def test_verify_simplex_and_basis_at_large_N(capsys, d):
    # d = N-1 maps the two 1-orbits across, and d = N is Z_N itself; each
    # row of N entries is built and checked in O(N)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--N", "1000003", "--d", str(d))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and f"N=1000003 d={d} formula_total={1000004 - d} " in out


def test_verify_frees_each_row_before_the_next(capsys):
    """At d = N-1 the two orbits are rows of N-1 entries, and each is freed
    before the next is made: in-process verify at N = 999983 peaks under
    1.5 * 8 * N bytes, one row of int64 and its leader mask."""
    N = 999_983
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--N", str(N), "--d", str(N - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and f"N={N} d={N - 1} formula_total=2 bruteforce_total=2 " in out
    assert peak < 1.5 * 8 * N, peak


def test_enumerate_at_large_N_holds_one_row_and_its_table():
    """enumerate at d = N-1 writes two rows of N-1 entries through the
    digit table (N x 7 bytes), which is built a block of residues at a time,
    and frees each row before the next is made: in-process at N = 999983
    it peaks under 3.3 * 8 * N bytes, with the output sent to os.devnull.
    The c = N-1 stabilizer is an N-entry array as well."""
    N = 999_983
    assert main(["enumerate", "--N", "7", "--d", "3", "--out", os.devnull]) == 0  # imports
    tracemalloc.start()
    try:
        code = main(["enumerate", "--N", str(N), "--d", str(N - 1), "--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3.3 * 8 * N, peak / (8 * N)


@pytest.mark.parametrize("d", [616, P - 2, P - 1, P])
def test_count_at_range_edge(capsys, d):
    # one binomial per divisor of gcd(N-1, d) or gcd(N-1, d-1)
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--N", str(P), "--d", str(d))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    if d >= P - 1:
        assert out.startswith(f"N={P} d={d} total={P - d + 1}\n")


@pytest.mark.parametrize(
    "limit, argv",
    [
        (4300, f"count --N {P} --d 617"),  # the first d with C(N, d) too long
        (4300, f"count --N {P} --d 700"),
        (4300, f"count --N {P} --d 1000000"),  # refused before C(N, d)
        (640, f"count --N {P} --d 100 --format json"),
        (4300, f"enumerate --N {P} --d 2000"),
        (4300, f"verify --N {P} --d 2000"),
        (4300, f"verify --N {P} --d 100000"),
        (4300, "scan --N 20011 --d 10000"),
        (4300, "enumerate --N 20011 --d 5000"),
    ],
)
def test_numbers_too_long_to_print_refused(capsys, limit, argv):
    # C(N, d) bounds every number count prints and is in the budget message
    # of enumerate, verify and scan
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(saved)
    assert elapsed < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    _, _, N, _, d, *_ = argv.split()
    assert err.startswith(f"error: C({N},{d}) has more than {limit} digits")


@pytest.mark.parametrize(
    "N, gens, argv",
    [
        (1999, range(1999), "symmetry --N 1999 --gens {}"),  # the basis
        (1999, range(1, 1999), "symmetry --N 1999 --gens {}"),  # the simplex
        (1999, (), "scan --N 1999 --d 1999"),
        (1999, (), "scan --N 1999 --d 1998"),
        (20011, (), "scan --N 20011 --d 20011"),
        (1000003, (), "scan --N 1000003 --d 1000003"),
    ],
)
def test_simplex_and_basis_refused_past_factorial_bound(capsys, N, gens, argv):
    # N! has more than 4300 digits; refused before any O(N^2) work
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.format(",".join(map(str, gens))).split())
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert f"the order {N}! of S_{N} has more than 4300 digits" in err


def test_simplex_and_basis_at_factorial_bound(capsys):
    N = 1553  # the largest prime with N! of at most 4300 digits
    fact = 1
    for k in range(2, N + 1):
        fact *= k
    for gens in (range(N), range(1, N)):
        argv = ["symmetry", "--N", str(N), "--gens", ",".join(map(str, gens))]
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--format", "json")
        # every unit fixes both sets: Stab(S) takes no search
        assert time.perf_counter() - start < 0.05
        obj = json.loads(out)
        assert code == 0
        assert (obj["stabilizer_order"], obj["subgroup_order"]) == (N - 1, N * (N - 1))
        assert obj["full_group_order"] == str(fact)
        assert obj["conjecture_holds"] is False
    code, out, _ = run(capsys, "scan", "--N", str(N), "--d", str(N))
    assert code == 4 and f" full={fact} holds=NO" in out


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ["symmetry", "--N", "1009", "--gens", ",".join(map(str, range(1009)))],
        ["scan", "--N", "1009", "--d", "1009"],
    ],
)
def test_factorial_refused_past_int_to_str_limit(argv, fmt):
    # 1009! has 2,595 digits: printable by default, not under a 640 limit
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_census", *argv, "--format", fmt],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: the order 1009! of S_1009 has more than 640")


def test_frame_budget(capsys):
    # d x N entries against the enumeration budget, before any allocation
    start = time.perf_counter()
    code, out, err = run(capsys, "frame", "--N", "2147483647", "--gens", "1,2")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert "frame of 2 x 2147483647 = 4294967294 entries exceeds budget 10000000" in err
    argv = ["frame", "--N", "13", "--gens", "1,2,4", "--max-subsets"]
    assert run(capsys, *argv, "39")[0] == 0  # 3 x 13 entries
    assert run(capsys, *argv, "38")[0] == 3


def test_malformed_generators(capsys):
    code, _, err = run(capsys, "equivalent", "--N", "5", "--a", "1,x", "--b", "1,2")
    assert code == 2
    # 6 = 1 mod 5: duplicate after reduction
    code, _, err = run(capsys, "frame", "--N", "5", "--gens", "1,6")
    assert code == 2


def test_generators_normalized_on_ingestion(capsys):
    # any residue representatives are accepted and echoed back normalized; a
    # list that starts with "-" must be joined to its option by "="
    cases = ((["5", "--gens", "7,1"], [1, 2]), (["7", "--gens=-1,12,0"], [0, 5, 6]))
    for gens, want in cases:
        code, out, _ = run(capsys, "frame", "--N", *gens, "--format", "json")
        assert code == 0
        assert json.loads(out)["generators"] == want


def test_symmetry_command(capsys):
    code, out, _ = run(
        capsys, "symmetry", "--N", "5", "--gens", "1,2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["subgroup_order"] == 5 and obj["full_group_order"] == 5
    assert obj["conjecture_holds"] is True


def test_scan_exit_codes(capsys):
    code, out, _ = run(capsys, "scan", "--N", "7", "--d", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 7 and obj["counterexamples"] == []

    code, out, _ = run(capsys, "scan", "--N", "5", "--d", "4", "--format", "json")
    assert code == 4
    obj = json.loads(out)
    assert obj["counterexamples"] == [[1, 2, 3, 4]]


# sha256 of `scan --format json` stdout where the golden cases (N <= 37,
# C(N, d) <= 3000) do not reach, as printed when each row was built from
# full_symmetry_group of its representative
@pytest.mark.parametrize(
    "N, d, digest",
    [
        (29, 6, "ddf6b17bed5caf5ae627b012048bfd5e32c95008e76fa7907d14983e6191f5dd"),
        (31, 5, "25b4a20d5bac3709782f80182ffc4ae166000421929e1334a55412bef3e18270"),
        (53, 4, "d16306bd38ba05276b69697f3076372a019e11acbb9a890688b13a7916e9a852"),
        (41, 41, "65eb8e505e9bb92de6adffb6554c00b2d0fd5810da2ff478fed0ef51dd6f36ed"),
    ],
)
def test_scan_digests(capsys, N, d, digest):
    code, out, _ = run(capsys, "scan", "--N", str(N), "--d", str(d), "--format", "json")
    assert code == (4 if d == N else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("N, d", [(7, 6), (7, 7), (1553, 1552), (1553, 1553)])
def test_scan_computes_the_last_orbits_factorial_once(capsys, monkeypatch, N, d):
    # the exit code and the last orbit's row both need N! of the simplex or
    # the basis
    calls = []
    factorial = symmetry._symmetric_group_order
    monkeypatch.setattr(
        symmetry, "_symmetric_group_order", lambda n: calls.append(n) or factorial(n)
    )
    code, out, _ = run(capsys, "scan", "--N", str(N), "--d", str(d), "--format", "json")
    assert code == 4 and calls == [N]
    assert int(json.loads(out)["rows"][-1]["full_group_order"]) == math.factorial(N)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_scan_reports_a_corrupt_chunk(capsys, monkeypatch, fmt):
    # the scan stops marking 1 as fixing the first row of each chunk; the
    # chunk check, not the scan command, must catch it
    scan = orbits._scan_candidates

    def corrupt(rows, N, inverse):
        reps, fixes = scan(rows, N, inverse)
        fixes[0, int(reps[0, 0] == 0)] = False
        return reps, fixes

    monkeypatch.setattr(orbits, "_scan_candidates", corrupt)
    code, out, err = run(capsys, "scan", "--N", "13", "--d", "6", "--format", fmt)
    assert code == 5 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal contract violated: stabilizer order 0 of [0, 1,")


def test_frame_csv(capsys):
    code, out, _ = run(
        capsys, "frame", "--N", "2", "--gens", "0,1", "--format", "csv"
    )
    assert code == 0
    row2 = out.splitlines()[1]
    assert row2.split(",")[1].startswith("-0.707106781187")


def test_frame_export_matches_cmath(capsys):
    # w^(N-1), stored as -(1 + w + ... + w^(N-2)), is exported as exactly
    # as every other power
    code, out, _ = run(capsys, "frame", "--N", "67", "--gens", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    for m in range(67):
        z = cmath.exp(2j * cmath.pi * m / 67)
        assert obj["real"][0][m] == float(f"{z.real:.12g}")
        assert obj["imag"][0][m] == float(f"{z.imag:.12g}")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "count", "--N", "7", "--d", "3", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["total"] == 7


@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_output_file_unwritable(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run(capsys, "count", "--N", "7", "--d", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["enumerate", "verify", "scan"])
def test_first_chunk_errors_come_before_the_out_path(tmp_path, capsys, monkeypatch, command):
    # the budget and the first chunk's check run before the --out path is
    # opened, so their exit code wins over the path's usage error
    target = tmp_path / "missing" / "out.txt"
    argv = [command, "--N", "7", "--d", "3", "--out", str(target)]
    code, out, err = run(capsys, *argv, "--max-subsets", "1")
    assert (code, out, err.count("\n")) == (3, "", 1) and "budget" in err
    # 2 has order 3 mod 7, not 6: the first chunk's stabilizers fail their check
    monkeypatch.setattr(number_theory, "find_primitive_root", lambda modulus: 2)
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (5, "", 1)
    assert err.startswith("error: internal contract violated: ")
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # a raised budget can admit a frame larger than memory; the allocation's
    # MemoryError is one stderr line and exit 3, and --out is left unmade
    from harmonic_census import frames

    def no_memory(self, s):
        raise MemoryError

    monkeypatch.setattr(frames.FrameMatrix, "__init__", no_memory)
    target = tmp_path / "frame.json"
    argv = ["frame", "--N", "7", "--gens", "1", "--format", "json", "--out", str(target)]
    code, out, err = run(capsys, *argv, "--max-subsets", "100000000000")
    assert (code, out) == (3, "")
    assert err == "error: out of memory before the budget was reached\n"
    assert list(tmp_path.iterdir()) == []


def _stdio_env(buffered: bool) -> dict:
    # block-buffered stdout keeps a failed write for the flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


def test_help_to_a_file_leaves_stdout_alone(capsys):
    buf = io.StringIO()
    cli.build_parser().print_help(buf)
    assert buf.getvalue().startswith("usage: ")
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--N", "7", "--d", "3"],
        ["frame", "--N", "5", "--gens", "1,2", "--format", "json"],
        ["verify", "--N", "7", "--d", "3"],
        ["--help"],
        ["count", "--help"],
    ],
)
def test_stdout_full_is_a_usage_error(argv, buffered):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "harmonic_census", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_stdio_env(buffered),
            timeout=60,
        )
    # one line, and no "Exception ignored" from the flush at exit
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize(
    "argv,taken",
    [
        # some 5 MB of json lines, far more than a pipe holds
        (["enumerate", "--N", "31", "--d", "7", "--format", "json"], 10),
        # a few bytes, written after the reader has gone
        (["count", "--N", "7", "--d", "3"], 0),
    ],
)
def test_stdout_reader_gone_is_a_usage_error(argv, taken, buffered):
    proc = subprocess.Popen(
        [sys.executable, "-m", "harmonic_census", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_stdio_env(buffered),
    )
    assert len(proc.stdout.read(taken)) == taken
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "scan"])
def test_stdout_short_writes_are_resumed(capsys, monkeypatch, command):
    class Trickle(io.BytesIO):
        def write(self, b):  # stores at most 7 bytes a call, as a pipe may
            return super().write(bytes(b[:7]))

    argv = [command, "--N", "11", "--d", "4", "--format", "json"]
    code, want, _ = run(capsys, *argv)
    sink = Trickle()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-8"))
    assert main(argv) == code == 0
    assert sink.getvalue().decode() == want


def test_wrong_primitive_root_never_answers_silently(capsys, monkeypatch):
    # 2 has order 3 mod 7, not 6.  Every subgroup built from g is checked
    # exactly, so a wrong g is a contract violation, never a wrong answer
    want = run(capsys, "symmetry", "--N", "7", "--gens", "1,2,4")
    monkeypatch.setattr(number_theory, "find_primitive_root", lambda modulus: 2)
    for command in ("enumerate", "verify", "scan"):
        code, out, err = run(capsys, command, "--N", "7", "--d", "3")
        assert (code, out) == (5, "")
        assert err == (
            "error: internal contract violated: the elements fixing [0, 1, 6] "
            "are not the unit subgroup of order 2\n"
        )
    for gens in ("1,6", "0,1,6"):
        code, out, err = run(capsys, "symmetry", "--N", "7", "--gens", gens)
        assert (code, out) == (5, "")
        assert err.startswith("error: internal contract violated: D, Q or their relations")
        assert err.count("\n") == 1
    # h = 2^(6/3) = 4 does generate the order-3 subgroup, and the generator
    # check accepts it
    assert run(capsys, "symmetry", "--N", "7", "--gens", "1,2,4") == want


def test_primitive_root_searched_once_per_run(capsys, monkeypatch):
    # the chunk check and the renderer each build the order-2 subgroup from
    # the root, which the modulus keeps after the first search
    calls = []
    search = number_theory.find_primitive_root
    monkeypatch.setattr(
        number_theory, "find_primitive_root", lambda m: calls.append(m.N) or search(m)
    )
    code, out, err = run(capsys, "enumerate", "--N", "61", "--d", "2", "--format", "json")
    assert (code, err, out.count("\n")) == (0, "", 31)
    assert calls == [61]


@pytest.mark.parametrize("command", ["enumerate", "scan"])
@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("to_file", [False, True])
def test_late_contract_failure_after_written_blocks(
    capsys, monkeypatch, tmp_path, to_file, fmt, command
):
    # the orbit-size sum is checked after the last chunk, so a failure there
    # comes after every chunk's block was written to stdout: exit 5, one
    # stderr line, and every line but scan's closing json text written.
    # --out renames its temporary file only on success, so no file is left
    # at the target and none beside it
    argv = [command, "--N", "13", "--d", "6", "--format", fmt]
    code, want, _ = run(capsys, *argv)
    assert code == 0 and want.count("rep" if command == "scan" else "\n") == 146
    monkeypatch.setattr(orbits, "_CHUNK_ROWS", 64)  # 338 candidates, six chunks
    real = orbits.subset_count
    monkeypatch.setattr(orbits, "subset_count", lambda N, d: real(N, d) + 1)
    target = tmp_path / "orbits.json"
    code, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert code == 5
    assert err == (
        "error: internal contract violated: orbit sizes sum to 1716, "
        "expected C(13,6) = 1717\n"
    )
    assert out == ("" if to_file else want.split('],"counterexamples"')[0])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_scan_rows_checked_against_census(capsys, monkeypatch, fmt):
    # the table's first line prints the census total before any row, and the
    # rows written are checked against it after the last chunk
    argv = ["scan", "--N", "13", "--d", "6", "--format", fmt]
    want = run(capsys, *argv)[1]
    real = cli.full_census
    monkeypatch.setattr(
        cli, "full_census", lambda m, d: types.SimpleNamespace(total=real(m, d).total + 1)
    )
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert err == "error: internal contract violated: scan wrote 146 rows for 147 orbits\n"
    if fmt == "json":
        assert out == want.split('],"counterexamples"')[0]
    else:
        assert out == want.replace("orbits=146", "orbits=147", 1)


def test_output_file_replaced_only_on_success(tmp_path, capsys, monkeypatch):
    # --out replaces an existing file once the run succeeds; a run that
    # fails leaves it as it was, with no temporary file beside it
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    argv = ["enumerate", "--N", "7", "--d", "3"]
    want = run(capsys, *argv)[1]
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == want
    monkeypatch.setattr(number_theory, "find_primitive_root", lambda modulus: 2)
    code, out, err = run(capsys, "enumerate", "--N", "7", "--d", "4", "--out", str(target))
    assert (code, out) == (5, "") and err.count("\n") == 1
    assert target.read_text() == want
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_output_to_a_device_is_written_directly(capsys):
    # a path that is not a regular file is opened as it is, never replaced
    code, out, err = run(capsys, "enumerate", "--N", "7", "--d", "3", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
    assert not os.path.isfile(os.devnull)


def test_big_integers_as_strings(capsys):
    code, out, _ = run(capsys, "count", "--N", "499", "--d", "11", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert isinstance(obj["total"], str)
    assert int(obj["total"]) > 2**53


def test_output_determinism(capsys):
    runs = [run(capsys, "verify", "--N", "13", "--d", "4")[1] for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_no_command(capsys):
    assert main([]) == 2


# options argparse reads but the plain path declines, and values it declines
# or must convert exactly as argparse does
_ODD_OPTIONS = ["-h", "--help", "--he", "--form", "--N=7", "--", "--d"]
_VALUES = [
    "7", "13", "3", "1,2", "json", "csv", "table", "o.txt",
    "-5", "-1,2", "", "٣", "+7", "7_0", "xml", "1e3", "1, 2",
]


@st.composite
def _argvs(draw):
    """A command, or a word that is none, then option and value pairs: the
    command's options in any order, all or a leading part of them, at times
    with one or two more from them or from _ODD_OPTIONS (repeats, help,
    abbreviations), each value from _VALUES or one the option takes, and at
    times one more lone token."""
    command = draw(st.sampled_from([*cli.COMMANDS, "cnt", "-h"]))
    options = list(cli._parser().commands.get(command, ["--N", "--d"]))
    names = draw(st.permutations(options))
    if draw(st.booleans()):
        names = names[: draw(st.integers(0, len(names)))]
    if draw(st.booleans()):
        names += draw(st.lists(st.sampled_from(options + _ODD_OPTIONS), min_size=1, max_size=2))
    argv = [command]
    for name in draw(st.permutations(names)):
        valid = "json" if name == "--format" else "7"  # half of the values
        argv += [name, draw(st.just(valid) | st.sampled_from(_VALUES))]
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(_ODD_OPTIONS + _VALUES)))
    return argv


def test_plain_path_is_parse_args():
    parser = cli._parser()
    accepted = []

    @settings(max_examples=1000, deadline=None)
    @given(_argvs())
    def check(argv):
        args = cli._plain_args(parser.commands, argv)
        if args is not None:
            assert vars(args) == vars(parser.parse_args(argv))
            accepted.append(args.command)

    check()
    assert set(accepted) == set(cli.COMMANDS)


def test_main_returns_every_exit_code(capsys, monkeypatch, tmp_path):
    # help, argparse's usage errors and every other outcome come back as
    # main's result, never as SystemExit; --out o.txt writes to tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HC_MAX_SUBSETS", raising=False)

    @settings(max_examples=300, deadline=None)
    @given(_argvs())
    def check(argv):
        code = main(argv)
        capsys.readouterr()
        assert type(code) is int and 0 <= code <= 5

    check()


def test_values_that_look_like_options(capsys):
    assert main(["symmetry", "--N", "7", "--gens", "-1,2"]) == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, "symmetry", "--N", "7", "--gens=-1,2", "--format", "json")
    assert code == 0 and json.loads(out)["generators"] == [2, 6]


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument; a plain command line
    # never reaches argparse, and every other form gives the same bytes
    def parse_args(self, args=None, namespace=None):
        raise AssertionError(f"plain command line {args} sent to argparse")

    want = run(capsys, "count", "--N", "67", "--d", "5")
    with monkeypatch.context() as m:
        m.setattr(sys, "argv", ["harmonic-census", "count", "--N", "67", "--d", "5"])
        m.setattr(cli._Parser, "parse_args", parse_args)
        assert (main(), *capsys.readouterr()) == want
    monkeypatch.setattr(sys, "argv", ["harmonic-census", "count", "--N=67", "--d=5"])
    assert (main(), *capsys.readouterr()) == want


# -- json from templates, against the dict oracles -----------------------------


def _prime_below(n: int) -> int:
    while not oracles.is_prime_reference(n):
        n -= 1
    return n


def _join(xs) -> str:
    return ",".join(map(str, xs))


def _json_dict(argv: list[str]) -> dict:
    """The json of a count, verify, equivalent or symmetry command line,
    built as a dict by the oracles."""
    options = dict(zip(argv[1::2], argv[2::2]))
    m = number_theory.PrimeModulus(int(options["--N"]))

    def gens(key: str) -> number_theory.GeneratorSet:
        return number_theory.GeneratorSet(m, tuple(map(int, options[key].split(","))))

    if argv[0] == "count":
        return oracles.count_json(m, int(options["--d"]))
    if argv[0] == "verify":
        return oracles.verify_json(m, int(options["--d"]))
    if argv[0] == "equivalent":
        return oracles.equivalent_json(gens("--a"), gens("--b"))
    return oracles.symmetry_json(gens("--gens"))


_SIMPLEX_31 = _join(range(1, 31))


@pytest.mark.parametrize(
    "argv, want_code",
    [
        *((f"count --N {P} --d {d}", 0) for d in (1, 2, 5, 616, P - 1, P)),
        ("verify --N 13 --d 4", 0),
        ("verify --N 31 --d 24", 0),
        (f"equivalent --N {P} --a 1,2,5 --b 2,4,10", 0),
        (f"equivalent --N {P} --a 1,2,5 --b 2,4,11", 1),
        (f"equivalent --N {P} --a 1,2,5 --b 1,2,5", 0),
        (f"equivalent --N {P} --a 0 --b 0", 0),
        ("symmetry --N 31 --gens 0", 0),
        (f"symmetry --N {P} --gens 0", 0),
        (f"symmetry --N 31 --gens {_SIMPLEX_31}", 0),
        (f"symmetry --N 31 --gens 0,{_SIMPLEX_31}", 0),
        ("symmetry --N 31 --gens 1,5,25", 0),  # the subgroup of order 3
        ("symmetry --N 31 --gens 0,1,2,5,10,19,25", 0),  # 0 and two of its cosets
        ("symmetry --N 13 --gens 1,3,9", 0),
        (f"symmetry --N {P} --gens 1,{P - 1}", 0),
        (f"symmetry --N {P} --gens 1,2,5", 0),
        ("scan --N 7 --d 6", 4),
        ("scan --N 13 --d 6", 0),
    ],
)
def test_json_against_dict_oracle(capsys, argv, want_code):
    # every json output is written from templates: the same bytes as the
    # dict written by json.dumps, big integers quoted (C(N, 616) at
    # N = 2^31-1, 31!) and the notes and the counterexample list included
    argv = argv.split()
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (want_code, "")
    if argv[0] == "scan":
        N, d = int(argv[2]), int(argv[4])
        chunks = orbits.orbit_chunks(number_theory.PrimeModulus(N), d)
        assert out == oracles.scan_text(N, d, "json", chunks)
    else:
        obj = _json_dict(argv)
        assert out == oracles.json_text(obj) and json.loads(out) == obj


@st.composite
def _json_argvs(draw):
    """count, equivalent or symmetry at a random prime N < 2^31, with d
    near either end and the generator sets drawn to match: random sets,
    images of one set under a unit, and coset unions of a small subgroup,
    at times with 0."""
    N = draw(st.sampled_from(oracles.primes_up_to(60)) | st.integers(61, P).map(_prime_below))
    command = draw(st.sampled_from(["count", "equivalent", "symmetry"]))
    if command == "count":
        d = draw(st.integers(1, min(N, 40)) | st.integers(max(1, N - 40), N))
        return ["count", "--N", str(N), "--d", str(d)]
    d = draw(st.integers(1, min(N, 8)))
    elems = draw(st.lists(st.integers(0, N - 1), min_size=d, max_size=d, unique=True))
    if command == "symmetry":
        c = draw(st.sampled_from([c for c in range(2, 7) if (N - 1) % c == 0] or [1]))
        h = pow(number_theory.PrimeModulus(N).primitive_root, (N - 1) // c, N)
        if draw(st.booleans()):  # the cosets x H of the order-c subgroup H
            cosets = {x * pow(h, k, N) % N for x in elems if x for k in range(c)}
            elems = sorted(cosets | ({0} & set(elems))) or [0]
        return ["symmetry", "--N", str(N), "--gens", _join(elems)]
    if draw(st.booleans()):  # b = m . a, an equivalent pair
        m = draw(st.integers(1, N - 1))
        other = draw(st.permutations([x * m % N for x in elems]))
    else:
        other = draw(st.lists(st.integers(0, N - 1), min_size=d, max_size=d, unique=True))
    return ["equivalent", "--N", str(N), "--a", _join(elems), "--b", _join(other)]


def test_json_against_dict_oracle_at_random_primes(capsys):
    # the draws reach both verdicts, quoted totals, notes and the generator Q
    marks = ('"equivalent":true', '"equivalent":false', '"total":"', '"note":"', '"block_perm"')
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(_json_argvs())
    def check(argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        obj = _json_dict(argv)
        assert (code, err) == (int(obj.get("equivalent") is False), "")
        assert out == oracles.json_text(obj) and json.loads(out) == obj
        seen.update(mark for mark in marks if mark in out)

    check()
    assert seen == set(marks)
