import cmath
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from harmonic_census import ContractViolationError, cli
from harmonic_census.cli import main


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


@pytest.mark.parametrize(
    "N, gens, argv",
    [
        (1999, range(1999), "symmetry --N 1999 --gens {}"),  # the basis
        (1999, range(1, 1999), "symmetry --N 1999 --gens {}"),  # the simplex
        (1999, (), "scan --N 1999 --d 1999"),
        (1999, (), "scan --N 1999 --d 1998"),
        (20011, (), "scan --N 20011 --d 20011"),  # enumerating takes seconds
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
        code, out, _ = run(capsys, *argv, "--format", "json")
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
    # any residue representatives are accepted and echoed back normalized
    code, out, _ = run(
        capsys, "frame", "--N", "5", "--gens", "7,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["generators"] == [1, 2]


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


def test_big_integers_as_strings(capsys):
    code, out, _ = run(capsys, "count", "--N", "499", "--d", "11", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert isinstance(obj["total"], str)
    assert int(obj["total"]) > 2**53


def test_output_determinism(capsys):
    runs = [
        run(capsys, "verify", "--N", "13", "--d", "4", "--threads", t)[1]
        for t in ("1", "4")
    ]
    assert runs[0] == runs[1]
    again = run(capsys, "verify", "--N", "13", "--d", "4", "--threads", "1")[1]
    assert again == runs[0]


def test_seed_check(capsys):
    code, out, _ = run(capsys, "--seed-check")
    assert code == 0
    assert "21/21 passed" in out


def test_no_command(capsys):
    assert main([]) == 2
