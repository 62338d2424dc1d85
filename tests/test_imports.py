"""numpy is loaded only by the commands that enumerate or build frames.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already."""

import json
import subprocess
import sys

from harmonic_census.cli import main

# every name the package exported when it imported all of its modules
# eagerly, and those modules, which it bound as attributes
PACKAGE_NAMES = [
    "BudgetExceededError", "Census", "ContractViolationError", "CyclotomicInt",
    "DEFAULT_MAX_SUBSETS", "DomainError", "EquivalenceVerdict", "FrameMatrix",
    "FuntfReport", "GeneratorSet", "GramMatrix", "HarmonicCensusError",
    "ModulusMismatchError", "PrimeModulus", "SymmetryReport", "Witness",
    "are_equivalent", "build_frame", "count_harmonic_frames",
    "count_unordered_dft", "divisors", "export_frame", "find_primitive_root",
    "full_census", "full_symmetry_group", "gram", "gram_automorphisms",
    "is_prime", "multipliers", "orbit_chunks", "stabilizer", "unit_subgroup",
    "verify_funtf", "__version__",
    "census", "cyclotomic", "equivalence", "errors", "frames", "number_theory",
    "orbits", "symmetry",
]  # fmt: skip

PURE_RUNS = [
    [command, *args, "--format", fmt]
    for command, *args in (
        ["count", "--N", "67", "--d", "5"],
        ["equivalent", "--N", "13", "--a", "1,3,9", "--b", "2,6,5"],
        ["symmetry", "--N", "13", "--gens", "1,3,9"],
    )
    for fmt in ("json", "csv", "table")
] + [
    ["equivalent", "--N", "13", "--a", "1,3,9", "--b", "1,2,4"],  # exit 1
    ["count", "--N", "15", "--d", "2"],  # exit 2: N is not prime
    ["equivalent", "--N", "13", "--a", "1,3", "--b", "2,2"],  # exit 2: a repeat
    ["count", "--N", "2147483647", "--d", "1000"],  # exit 3: C(N, d) too long
    ["symmetry", "--N", "1999", "--gens", ",".join(map(str, range(1, 1999)))],  # 1999!
]
NUMPY_RUNS = [
    ["enumerate", "--N", "13", "--d", "5", "--format", "json"],
    ["enumerate", "--N", "13", "--d", "9", "--format", "csv"],
    ["verify", "--N", "13", "--d", "4"],
    ["scan", "--N", "11", "--d", "3", "--format", "json"],
    ["frame", "--N", "7", "--gens", "1,2,4", "--format", "csv"],
]

CHILD = """
import io, json, sys
from contextlib import redirect_stderr
from harmonic_census import cli

def run(argv):
    out, err = io.BytesIO(), io.StringIO()
    saved = sys.stdout
    sys.stdout = wrapper = io.TextIOWrapper(out, encoding="utf-8")
    try:
        with redirect_stderr(err):
            code = cli.main(argv)
        wrapper.flush()
    finally:
        sys.stdout = saved
    text = out.getvalue().decode()
    wrapper.detach()
    return [code, text, err.getvalue()]

pure, numpy_runs = json.loads(sys.argv[1])
result = {"pure": [run(argv) for argv in pure], "loaded": "numpy" in sys.modules}
result["numpy"] = [run(argv) for argv in numpy_runs]
print(json.dumps(result))
"""


def _child(code: str, *args: str):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_count_equivalent_symmetry_load_no_numpy(capsys):
    # the commands answer as they do here, where numpy is loaded; the
    # enumerating ones still answer after them in the same process
    got = _child(CHILD, json.dumps([PURE_RUNS, NUMPY_RUNS]))
    assert got["loaded"] is False
    want = {"pure": [], "numpy": []}
    for key, runs in (("pure", PURE_RUNS), ("numpy", NUMPY_RUNS)):
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            want[key].append([code, captured.out, captured.err])
    assert [code for code, _, _ in want["pure"]] == [0] * 9 + [1, 2, 2, 3, 3]
    assert [code for code, _, _ in want["numpy"]] == [0] * 5
    assert got["pure"] == want["pure"]
    assert got["numpy"] == want["numpy"]


def test_package_names_resolve():
    # each name resolves as an attribute and through from-import, to one
    # object, and is listed by dir(); only the names whose modules use
    # numpy load it, on first access
    got = _child(
        """
import json, sys
import harmonic_census as hc
names = json.loads(sys.argv[1])
out = {"after_import": "numpy" in sys.modules, "missing_from_dir": []}
out["eager"] = [n for n in names if n in vars(hc)]
for n in names:
    ns = {}
    exec(f"from harmonic_census import {n}", ns)
    assert ns[n] is getattr(hc, n), n
    if n not in dir(hc):
        out["missing_from_dir"].append(n)
try:
    hc.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["after_all"] = "numpy" in sys.modules
print(json.dumps(out))
""",
        json.dumps(PACKAGE_NAMES),
    )
    assert got["after_import"] is False
    assert got["missing_from_dir"] == []
    lazy = {"CyclotomicInt", "FrameMatrix", "FuntfReport", "GramMatrix", "build_frame",
            "export_frame", "gram", "verify_funtf", "orbit_chunks", "cyclotomic",
            "frames", "orbits"}  # fmt: skip
    assert set(PACKAGE_NAMES) - set(got["eager"]) == lazy
    assert got["unknown"] == "module 'harmonic_census' has no attribute 'no_such_name'"
    assert got["after_all"] is True


def test_cyclotomic_loads_no_numpy():
    # Z[w] elements are pure-int tuples; the bulk coefficient arrays are
    # the tests' own (oracles.exponent_counts)
    got = _child(
        """
import json, sys
from harmonic_census.cyclotomic import CyclotomicInt
from harmonic_census.number_theory import PrimeModulus
x = CyclotomicInt(PrimeModulus(5), (4, 1, 0, 2, 3))
print(json.dumps({"coeffs": x.coeffs, "numpy": "numpy" in sys.modules}))
"""
    )
    assert got == {"coeffs": [1, -2, -3, -1, 0], "numpy": False}
