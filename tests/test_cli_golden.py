"""Byte-level golden test of the CLI.

Every case runs `cli.main` in-process.  The sha256 of its argv, its
HC_MAX_SUBSETS setting, exit code, stdout, stderr and `--out` file, cut to
16 hex digits, must equal the digest recorded for it, in case order, in
`cli_golden.json`.  The cases cover every command in every
format at the primes N <= 37, the usage and budget errors (including which
error wins when several apply), `--out`, the refusal of the deleted
`--threads` and `--seed-check` flags, and the help text of the program and
of each command.

Regenerate the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py

which prints every case whose digest changes before it writes the file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from harmonic_census.cli import main

DATA = Path(__file__).with_name("cli_golden.json")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
FORMATS = ("json", "csv", "table")
OUT = "{out}"  # replaced by a temporary file; its content joins stdout
ENUM_LIMIT = 3000  # enumerate, verify and scan every d with C(N, d) <= this
COMMANDS = ("count", "enumerate", "verify", "frame", "equivalent", "symmetry", "scan")


def _gens(elems) -> str:
    return ",".join(str(x) for x in elems)


def _sample(N: int, d: int, seed: int) -> list[int]:
    return sorted(random.Random(seed * 10007 + N * 101 + d).sample(range(N), d))


def _formats(*argv: str) -> list[list[str]]:
    return [[*argv, "--format", fmt] for fmt in FORMATS]


def _command_cases() -> dict[str, list[list[str]]]:
    groups: dict[str, list[list[str]]] = {cmd: [] for cmd in COMMANDS}
    for N in PRIMES:
        n = str(N)
        for d in range(1, N + 1):
            groups["count"] += _formats("count", "--N", n, "--d", str(d))
            s = _sample(N, d, 1)
            groups["frame"] += _formats("frame", "--N", n, "--gens", _gens(s))
            groups["symmetry"] += _formats("symmetry", "--N", n, "--gens", _gens(s))
            if math.comb(N, d) <= ENUM_LIMIT:
                for cmd in ("enumerate", "verify", "scan"):
                    groups[cmd] += _formats(cmd, "--N", n, "--d", str(d))
        for d in sorted({1, 2, 3, N // 2, N - 1, N} & set(range(1, N + 1))):
            a, b = _sample(N, d, 2), _sample(N, d, 3)
            m = N - 1 if N > 2 else 1
            image = [(m * x) % N for x in a]
            for other in (image, b):
                groups["equivalent"] += _formats(
                    "equivalent", "--N", n, "--a", _gens(a), "--b", _gens(other)
                )
    # the (N, d) pairs above the enumeration budget of 10^7 subsets
    for N, d in ((29, 14), (31, 15), (37, 18)):
        for cmd in ("enumerate", "verify", "scan"):
            groups[cmd].append([cmd, "--N", str(N), "--d", str(d)])
    # residues outside 0..N-1 are reduced and echoed normalized; a list that
    # starts with "-" must be joined to its option by "="
    for cmd in ("frame", "symmetry"):
        groups[cmd] += _formats(cmd, "--N", "5", "--gens", "7,1")
        groups[cmd] += _formats(cmd, "--N", "7", "--gens=-1,12,0")
    groups["equivalent"] += _formats(
        "equivalent", "--N", "5", "--a", "6,-3", "--b", "2,4"
    )
    return groups


# (HC_MAX_SUBSETS or None, argv)
_ERROR_CASES: list[tuple[str | None, list[str]]] = [
    (None, []),
    # the deleted --seed-check flag is a usage error
    (None, ["--seed-check"]),
    (None, ["--seed-check", "count", "--N", "9", "--d", "2"]),
    (None, ["count", "--N", "7"]),
    (None, ["count", "--N", "seven", "--d", "3"]),
    (None, ["count", "--N", "7", "--d", "3", "--format", "xml"]),
    (None, ["bogus", "--N", "7"]),
    # N must be prime
    *[(None, ["count", "--N", n, "--d", "1"]) for n in ("-7", "0", "1", "4", "9")],
    (None, ["count", "--N", "91", "--d", "1"]),
    *[(None, [cmd, "--N", "9", "--d", "2"]) for cmd in ("enumerate", "verify", "scan")],
    (None, ["frame", "--N", "8", "--gens", "1"]),
    (None, ["symmetry", "--N", "8", "--gens", "1"]),
    (None, ["equivalent", "--N", "8", "--a", "1", "--b", "3"]),
    # d out of range, checked after N
    *[
        (None, [cmd, "--N", n, "--d", d])
        for cmd in ("count", "enumerate", "verify", "scan")
        for n, d in (("7", "0"), ("7", "8"), ("7", "-1"), ("9", "0"), ("2", "3"))
    ],
    # generator lists: malformed, missing, empty, duplicate, size mismatch
    (None, ["frame", "--N", "8", "--gens", "x"]),
    (None, ["frame", "--N", "7", "--gens", "x"]),
    (None, ["frame", "--N", "7", "--gens", "1,,2"]),
    (None, ["frame", "--N", "7"]),
    (None, ["frame", "--N", "8"]),
    (None, ["frame", "--N", "7", "--gens", ""]),
    (None, ["frame", "--N", "5", "--gens", "1,6"]),
    (None, ["frame", "--N", "3", "--gens", "0,1,2,3"]),
    (None, ["symmetry", "--N", "8", "--gens", "x"]),
    (None, ["symmetry", "--N", "7"]),
    (None, ["symmetry", "--N", "7", "--gens", ""]),
    (None, ["symmetry", "--N", "5", "--gens", "2,7"]),
    (None, ["equivalent", "--N", "5", "--a", "1,x", "--b", "1,2"]),
    (None, ["equivalent", "--N", "5", "--a", "1,2", "--b", "y"]),
    (None, ["equivalent", "--N", "5", "--a", "x", "--b", "y"]),
    (None, ["equivalent", "--N", "9", "--a", "x", "--b", "1"]),
    (None, ["equivalent", "--N", "9", "--a", "1", "--b", "y"]),
    (None, ["equivalent", "--N", "5", "--a", "", "--b", "1"]),
    (None, ["equivalent", "--N", "5", "--a", "1", "--b", ""]),
    (None, ["equivalent", "--N", "9", "--a", "", "--b", "1"]),
    (None, ["equivalent", "--N", "5", "--a", "1,2", "--b", "1,2,3"]),
    (None, ["equivalent", "--N", "5", "--a", "1,6", "--b", "1,2"]),
    (None, ["equivalent", "--N", "5", "--a", "1,2", "--b", "3,8"]),
    (None, ["equivalent", "--N", "5", "--a", "1,2"]),
    # symmetry and scan at N > 31, bounded only by the enumeration budget
    (None, ["symmetry", "--N", "37", "--gens", "1,2"]),
    (None, ["symmetry", "--N", "41", "--gens", "0"]),
    (None, ["scan", "--N", "37", "--d", "2"]),
    # the enumeration budget, from the flag and from the environment
    (None, ["enumerate", "--N", "23", "--d", "11", "--max-subsets", "1000"]),
    (None, ["verify", "--N", "13", "--d", "4", "--max-subsets", "714"]),
    (None, ["verify", "--N", "13", "--d", "4", "--max-subsets", "715"]),
    (None, ["scan", "--N", "11", "--d", "5", "--max-subsets", "10"]),
    (None, ["enumerate", "--N", "7", "--d", "3", "--max-subsets", "-1"]),
    (None, ["enumerate", "--N", "7", "--d", "3", "--max-subsets", "0"]),
    (None, ["count", "--N", "7", "--d", "3", "--max-subsets", "1"]),
    ("10", ["enumerate", "--N", "13", "--d", "4"]),
    ("10", ["enumerate", "--N", "13", "--d", "4", "--max-subsets", "1000"]),
    ("10", ["count", "--N", "13", "--d", "4"]),
    ("10", ["frame", "--N", "13", "--gens", "1,2,4"]),
    ("35", ["verify", "--N", "7", "--d", "3"]),
    ("34", ["scan", "--N", "7", "--d", "3"]),
    *[
        ("abc", [cmd, "--N", "7", *rest])
        for cmd, rest in (
            ("count", ["--d", "3"]),
            ("enumerate", ["--d", "3"]),
            ("verify", ["--d", "3"]),
            ("scan", ["--d", "3"]),
            ("frame", ["--gens", "1,2"]),
            ("symmetry", ["--gens", "1,2"]),
            ("equivalent", ["--a", "1,2", "--b", "2,4"]),
        )
    ],
    ("abc", ["enumerate", "--N", "7", "--d", "3", "--max-subsets", "100"]),
    ("abc", ["count", "--N", "9", "--d", "3"]),
    ("abc", ["count", "--N", "7", "--d", "9"]),
    ("abc", ["frame", "--N", "7", "--gens", "x"]),
    ("abc", ["frame", "--N", "7"]),
    ("abc", ["equivalent", "--N", "7", "--a", "1", "--b", "x"]),
    ("", ["count", "--N", "7", "--d", "3"]),
    (" 12 ", ["enumerate", "--N", "5", "--d", "2"]),
    # the deleted --threads option is a usage error
    *[
        (None, [cmd, "--N", "13", "--d", "4", "--threads", t])
        for cmd in ("enumerate", "verify", "scan")
        for t in ("1", "4")
    ],
    (None, ["count", "--N", "7", "--d", "3", "--threads", "0"]),
    (None, ["frame", "--N", "7", "--gens", "1,2", "--threads", "-1"]),
    # --out writes the payload to a file and nothing to stdout
    (None, ["count", "--N", "7", "--d", "3", "--format", "json", "--out", OUT]),
    (None, ["frame", "--N", "5", "--gens", "1,2", "--format", "csv", "--out", OUT]),
    (None, ["scan", "--N", "5", "--d", "4", "--out", OUT]),
    (None, ["verify", "--N", "9", "--d", "2", "--out", OUT]),
]


def golden_cases() -> dict[str, list[tuple[str | None, list[str]]]]:
    groups = {k: [(None, argv) for argv in v] for k, v in _command_cases().items()}
    groups["errors"] = _ERROR_CASES
    groups["help"] = [
        (None, argv) for argv in (["--help"], ["-h"], *([c, "--help"] for c in COMMANDS))
    ]
    return groups


def run_case(env: str | None, argv: list[str], out_path: Path) -> str:
    """The digest of one invocation."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        # argparse wraps its usage lines to the terminal width
        mp.setenv("COLUMNS", "80")
        if env is None:
            mp.delenv("HC_MAX_SUBSETS", raising=False)
        else:
            mp.setenv("HC_MAX_SUBSETS", env)
        out_path.unlink(missing_ok=True)
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([str(out_path) if a == OUT else a for a in argv])
    stdout.flush()
    written = out_path.read_text("utf-8") if out_path.exists() else None
    out = stdout.buffer.getvalue().decode("utf-8")
    record = [env, argv, code, out, stderr.getvalue(), written]
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()[:16]


def _digests(group: str, out_path: Path) -> list[str]:
    return [run_case(env, argv, out_path) for env, argv in golden_cases()[group]]


@pytest.mark.parametrize("group", list(golden_cases()))
def test_cli_output_matches_golden(group, tmp_path):
    expected = json.loads(DATA.read_text())[group]
    got = _digests(group, tmp_path / "out")
    assert len(got) == len(expected)
    cases = golden_cases()[group]
    changed = [cases[i] for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {g: _digests(g, Path(tmp) / "out") for g in golden_cases()}
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    changed = 0
    for group, cases in golden_cases().items():
        before = old.get(group, [])
        for i, (env, argv) in enumerate(cases):
            if i >= len(before) or before[i] != data[group][i]:
                changed += 1
                print(f"changed: {group} HC_MAX_SUBSETS={env} {' '.join(argv)}")
    DATA.write_text(json.dumps(data, indent=0) + "\n")
    print(f"wrote {sum(map(len, data.values()))} digests to {DATA}, {changed} changed")
