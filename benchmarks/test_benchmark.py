"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest benchmarks/test_benchmark.py -q

They check that every output checker rejects a planted wrong answer, that
the traced run's counts repeat exactly for one seed, that a span opened on
a pool thread is charged to the waiting client span, and that the harness
refuses to run without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checkers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

LIB = run.load_library()


def _cli_output(op):
    (rc, out), _ = run._run_cli(LIB, op.argv)
    return rc, out


def _edit_json(out: bytes, edit) -> bytes:
    obj = json.loads(out)
    edit(obj)
    return (json.dumps(obj) + "\n").encode()


def _rejects(check, *args) -> None:
    with pytest.raises(checkers.CheckError):
        check(*args)


# -- references ------------------------------------------------------------------


def test_necklace_form_matches_small_brute_force():
    from itertools import combinations

    for N in (5, 7, 11, 13):
        for d in range(2, N - 1):
            orbits = {}
            for S in combinations(range(N), d):
                rep = min(tuple(sorted(m * x % N for x in S)) for m in range(1, N))
                orbits[rep] = checkers.stabilizer_order(N, rep)
            hist = {}
            for c in orbits.values():
                hist[c] = hist.get(c, 0) + 1
            assert checkers.orbit_counts(N, d) == hist, (N, d)


# -- each checker accepts the right answer and rejects a planted wrong one ---------


def test_count_checker():
    op = workloads.cli_op("count", 1009, 4, "--d", "4")
    rc, out = _cli_output(op)
    checkers.check_count(1009, 4, rc, out)

    def bump_total(o):
        o["total"] += 1

    def bump_gamma(o):
        o["rows"][-1]["gamma"] += 1

    _rejects(checkers.check_count, 1009, 4, rc, _edit_json(out, bump_total))
    _rejects(checkers.check_count, 1009, 4, rc, _edit_json(out, bump_gamma))
    _rejects(checkers.check_count, 1009, 4, 1, out)


def test_enumerate_checker():
    rc, out = _cli_output(workloads.cli_op("enumerate", 13, 4, "--d", "4"))
    checkers.check_enumerate(13, 4, rc, out)
    lines = out.decode().splitlines()
    dropped = ("\n".join(lines[1:]) + "\n").encode()
    _rejects(checkers.check_enumerate, 13, 4, rc, dropped)
    rec = json.loads(lines[0])
    rec["generators"] = sorted(x * 2 % 13 for x in rec["generators"])  # same orbit, not lex-min
    not_min = ("\n".join([json.dumps(rec)] + lines[1:]) + "\n").encode()
    _rejects(checkers.check_enumerate, 13, 4, rc, not_min)
    rec = json.loads(lines[-1])
    rec["stab_order"] += 1
    bad_stab = ("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n").encode()
    _rejects(checkers.check_enumerate, 13, 4, rc, bad_stab)


def test_verify_checker():
    rc, out = _cli_output(workloads.cli_op("verify", 13, 4, "--d", "4"))
    checkers.check_verify(13, 4, rc, out)

    def lie(o):
        o["total_bruteforce"] -= 1
        o["total_formula"] -= 1

    _rejects(checkers.check_verify, 13, 4, rc, _edit_json(out, lie))


def test_frame_checkers():
    S = (0, 3, 7, 50)
    rc, out = _cli_output(workloads.cli_op("frame", 97, 4, "--gens", "0,3,7,50"))
    checkers.check_frame(97, S, rc, out)

    def bad_exponent(o):
        o["exponents"][1][2] = (o["exponents"][1][2] + 1) % 97

    def bad_float(o):
        o["real"][2][5] += 1e-6

    _rejects(checkers.check_frame, 97, S, rc, _edit_json(out, bad_exponent))
    _rejects(checkers.check_frame, 97, S, rc, _edit_json(out, bad_float))

    report, _ = run._run_lib(LIB, workloads.Op("verify_funtf", 97, 4, gens=S))
    checkers.check_funtf(97, S, report)
    from dataclasses import replace

    _rejects(checkers.check_funtf, 97, S, replace(report, tight=False))

    g, _ = run._run_lib(LIB, workloads.Op("gram", 97, 4, gens=S))
    checkers.check_gram(97, S, g, (0, 1, 5))
    _rejects(checkers.check_gram, 97, (0, 3, 7, 51), g, (0, 1, 5))


def test_equivalent_checker():
    a, b, t = (1, 3, 20), (2, 6, 40), (1, 2, 20)
    rc, out = _cli_output(workloads.cli_op("equivalent", 97, 3, "--a", "1,3,20", "--b", "2,6,40"))
    assert checkers.check_equivalent(97, a, b, rc, out) == {"witnesses": 1}

    def bad_witness(o):
        o["m0"] = o["m0"] % 96 + 1

    _rejects(checkers.check_equivalent, 97, a, b, rc, _edit_json(out, bad_witness))
    rc2, out2 = _cli_output(workloads.cli_op("equivalent", 97, 3, "--a", "1,3,20", "--b", "1,2,20"))
    checkers.check_equivalent(97, a, t, rc2, out2)
    _rejects(checkers.check_equivalent, 97, a, b, rc2, out2)


def test_symmetry_checker():
    S = (0, 1, 2, 4)  # {1, 2, 4} is the order-3 subgroup mod 7, plus 0
    rc, out = _cli_output(workloads.cli_op("symmetry", 7, 4, "--gens", "0,1,2,4"))
    assert checkers.check_symmetry(7, S, rc, out) == {"c": 3}

    def bad_full(o):
        o["full_group_order"] = 2 * o["full_group_order"]

    _rejects(checkers.check_symmetry, 7, S, rc, _edit_json(out, bad_full))
    rc, out = _cli_output(workloads.cli_op("symmetry", 7, 6, "--gens", "1,2,3,4,5,6"))
    checkers.check_symmetry(7, (1, 2, 3, 4, 5, 6), rc, out)  # simplex: full group 7!


def test_scan_checker():
    rc, out = _cli_output(workloads.cli_op("scan", 7, 6, "--d", "6"))
    assert rc == 4
    checkers.check_scan(7, 6, rc, out)
    _rejects(checkers.check_scan, 7, 6, 0, out)

    def hide(o):
        o["counterexamples"] = []

    _rejects(checkers.check_scan, 7, 6, rc, _edit_json(out, hide))
    rc, out = _cli_output(workloads.cli_op("scan", 11, 4, "--d", "4"))
    checkers.check_scan(11, 4, rc, out)
    _rejects(checkers.check_scan, 11, 4, 4, out)


# -- tracing -----------------------------------------------------------------------


def test_pool_span_is_charged_to_waiting_client_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.05)

    leaf_t = tracer.wrap("cyclotomic", leaf)

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(leaf_t) for _ in range(2)]:
                f.result()
        time.sleep(0.05)

    tracer.wrap("symmetry", parent)()
    m = tracer.layer_metrics()
    assert m["cyclotomic.calls"] == 2 and m["symmetry.calls"] == 1
    # two 50 ms leaves overlap, so the parent loses about 50 ms, not 100 ms
    assert 0.04 < m["symmetry.self_s"] < 0.09, m
    assert 0.09 < m["cyclotomic.self_s"] < 0.15, m


def _traced_counts(workload: str, n_ops: int) -> dict:
    ops = workloads.make(workload, 7).round(0)[:n_ops]
    tracer = Tracer()
    tracer.install(LIB)
    try:
        for op in ops:
            _, reason, _, _ = run.run_op(LIB, op)
            assert reason is None, reason
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith("self_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_in_process(workload):
    first = _traced_counts(workload, 12)
    assert first == _traced_counts(workload, 12)
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


def test_traced_run_counts_repeat_exactly():
    """Two --trace 1 runs with one seed give identical counts, pool threads
    included (the symmetry workload runs scan through a thread pool)."""
    counted = ("calls", "orbits_emitted", "candidates", "kept", "subgroup_elements",
               "coeff_bytes", "bytes_out", "witnesses")

    def counts():
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "symmetry",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0
        return {k: v["value"] for k, v in res["metrics"].items() if k.rsplit(".", 1)[-1] in counted}

    first = counts()
    assert first["symmetry.candidates"] > 0 and first["cli.bytes_out"] > 0
    assert first == counts()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "census-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
