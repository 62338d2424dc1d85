#!/usr/bin/env python3
"""harmonic-census benchmark.

    python3 benchmarks/run.py --workload census-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy.  One single-threaded client drives the
library in a closed loop (each op is issued when the previous one returns);
most ops are CLI commands run in-process through harmonic_census.cli.main,
and every output is checked against the benchmark's own references
(checkers.py).  The library keeps its default worker count.

--trace 0 times whole rounds of the workload for about --seconds and reports
the end-to-end metrics.  --trace 1 runs round 0 twice, each in a fresh
process, once plain and once with per-layer spans installed (tracing.py),
and reports the per-layer metrics and the tracing overhead.

The last line of stdout is the result object; the line before it records
the environment.  Exit code 0 whenever a result is printed (failed ops show
in it), 2 if the library cannot be found or imported.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checkers  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, PACKAGE, Tracer  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 7
SETUP_CODE = (
    "import time; t = time.perf_counter(); import harmonic_census.cli; "
    "print(time.perf_counter() - t)"
)


class LibraryMissing(Exception):
    pass


def load_library() -> dict:
    """Import every layer from ./src and return {layer: module}."""
    pkg_dir = os.path.join(SRC, PACKAGE)
    if not os.path.isfile(os.path.join(pkg_dir, "cli.py")):
        raise LibraryMissing(f"{pkg_dir} not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import importlib

    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != pkg_dir:
        raise LibraryMissing(f"imported {PACKAGE} from {origin}, expected {pkg_dir}")
    return modules


# -- running one op ------------------------------------------------------------


def _run_cli(lib: dict, argv) -> tuple[tuple[int, bytes], float]:
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    saved = sys.stdout
    sys.stdout = out
    t0 = time.perf_counter()
    try:
        rc = lib["cli"].main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        dt = time.perf_counter() - t0
        sys.stdout = saved
        out.flush()
        data = buf.getvalue()
        out.detach()
    return (rc, data), dt


def _run_lib(lib: dict, op: workloads.Op):
    t0 = time.perf_counter()
    modulus = lib["number_theory"].PrimeModulus(op.N)
    frame = lib["frames"].build_frame(lib["orbits"].GeneratorSet(modulus, op.gens))
    result = getattr(lib["frames"], op.name)(frame)
    return result, time.perf_counter() - t0


CHECKS = {
    "count": lambda op, r: checkers.check_count(op.N, op.d, *r),
    "enumerate": lambda op, r: checkers.check_enumerate(op.N, op.d, *r),
    "verify": lambda op, r: checkers.check_verify(op.N, op.d, *r),
    "frame": lambda op, r: checkers.check_frame(op.N, op.gens, *r),
    "verify_funtf": lambda op, r: checkers.check_funtf(op.N, op.gens, r),
    "gram": lambda op, r: checkers.check_gram(op.N, op.gens, r, op.sample_t),
    "equivalent": lambda op, r: checkers.check_equivalent(op.N, op.gens, op.other, *r),
    "symmetry": lambda op, r: checkers.check_symmetry(op.N, op.gens, *r),
    "scan": lambda op, r: checkers.check_scan(op.N, op.d, *r),
}


def run_op(lib: dict, op: workloads.Op) -> tuple[float, str | None, dict, int]:
    """Run and check one op: (seconds, failure reason or None, facts, bytes out)."""
    t0 = time.perf_counter()
    try:
        if op.argv is not None:
            result, dt = _run_cli(lib, op.argv)
            nbytes = len(result[1])
        else:
            result, dt = _run_lib(lib, op)
            nbytes = 0
    except Exception as exc:  # the op raised: a failure, not a harness crash
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", {}, 0
    try:
        facts = CHECKS[op.name](op, result)
    except (checkers.CheckError, AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:  # a malformed answer is a failed op
        return dt, f"{type(exc).__name__}: {exc}", {}, nbytes
    return dt, None, facts, nbytes


# -- machine-speed calibration ----------------------------------------------------
#
# On a shared machine the speed of a core drifts by 10-20 % over minutes, far
# more than the bounds the benchmark must hold.  Between ops the client times
# a fixed reference kernel (a pure-Python loop and a numpy pass over 2 MiB,
# the two kinds of work the library does) about every CALIBRATE_EVERY
# seconds.  Each op's latency is scaled by CALIBRATION_REF over the median
# kernel time within CALIBRATION_WINDOW seconds of the op, so the reported
# figures are latencies on a machine where the kernel takes CALIBRATION_REF
# seconds: its median on the 2-core machine the benchmark was tuned on.
# The raw figures and the kernel times are recorded in env.

CALIBRATE_EVERY = 0.05
CALIBRATION_WINDOW = 0.5
CALIBRATION_REF = 2.85e-3
# 2 MiB, past the L2 cache; preallocated, so the kernel's time does not
# depend on the allocator state the library's ops leave behind
_KERNEL_ARRAY = np.arange(1 << 18, dtype=np.int64)
_KERNEL_TMP = np.empty_like(_KERNEL_ARRAY)


def calibration_kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(16_000):
        acc += i * i % 7
    np.add(_KERNEL_ARRAY, acc, out=_KERNEL_TMP)
    np.remainder(_KERNEL_TMP, 1009, out=_KERNEL_TMP)
    np.bincount(_KERNEL_TMP, minlength=1009)
    return time.perf_counter() - t0


def normalized(spans: list[tuple[float, float]], samples: list[tuple[float, float]]) -> list[float]:
    """Scale each op's (start, seconds) by the machine speed around it."""
    times = [t for t, _ in samples]
    out = []
    for start, dt in spans:
        lo = bisect.bisect_left(times, start - CALIBRATION_WINDOW)
        hi = bisect.bisect_right(times, start + dt + CALIBRATION_WINDOW)
        local = statistics.median(k for _, k in samples[lo:hi]) if hi > lo else None
        out.append(dt * CALIBRATION_REF / (local or CALIBRATION_REF))
    return out


def warm_up(lib: dict) -> None:
    for op in workloads.WARMUP:
        run_op(lib, op)


def run_rounds(lib: dict, workload: str, seed: int, seconds: float | None, rounds: int | None) -> dict:
    """Run whole rounds: a fixed number, or as many as fill `seconds` best
    judging by the first round (at least one, and at least MIN_OPS ops)."""
    gen = workloads.make(workload, seed)
    spans, ok, failures, mix, c_hist = [], [], [], Counter(), Counter()
    samples = [(time.perf_counter(), calibration_kernel())]
    bytes_out = 0
    start = time.perf_counter()
    r = 0
    while rounds is None or r < rounds:
        for op in gen.round(r):
            t_op = time.perf_counter()
            dt, reason, facts, nbytes = run_op(lib, op)
            spans.append((t_op, dt))
            ok.append(reason is None)
            mix[op.name] += 1
            bytes_out += nbytes
            if reason is None:
                if "c" in facts:
                    c_hist[facts["c"]] += 1
            else:
                failures.append(f"{' '.join(op.argv) if op.argv else op.name}: {reason}")
            if time.perf_counter() - samples[-1][0] >= CALIBRATE_EVERY:
                samples.append((time.perf_counter(), calibration_kernel()))
        r += 1
        if rounds is None:
            per_round = time.perf_counter() - start
            rounds = max(round(seconds / per_round), math.ceil(MIN_OPS / sum(mix.values())), 1)
    samples.append((time.perf_counter(), calibration_kernel()))
    scaled = normalized(spans, samples)
    kernel = [k for _, k in samples]
    raw = [dt for _, dt in spans]
    return {  # the percentiles fall back to every op when none was correct
        "correct": sum(ok),
        "latencies": [x for x, good in zip(scaled, ok) if good] or scaled,
        "op_seconds": sum(scaled),
        "raw_latencies": [x for x, good in zip(raw, ok) if good] or raw,
        "raw_op_seconds": sum(raw),
        "kernel_median_s": statistics.median(kernel),
        "kernel_samples": len(kernel),
        "failures": failures,
        "attempted": sum(mix.values()),
        "rounds": r,
        "mix": dict(mix),
        "c_hist": {str(c): n for c, n in sorted(c_hist.items())},
        "bytes_out": bytes_out,
        "wall_s": time.perf_counter() - start,
    }


# -- metrics -------------------------------------------------------------------


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, so one op caught by a noisy moment cannot move it the
    way it moves a single order statistic."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid)), cdf)
    return float(np.diff(edges) @ x)


def end_to_end(res: dict) -> tuple[dict, dict]:
    lat, op_s = res["latencies"], res["op_seconds"]
    p50 = hd_quantile(lat, 0.5)
    p90 = hd_quantile(lat, 0.9)
    metrics = {
        "ops_per_s": {"value": res["correct"] / op_s, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }
    raw = res["raw_latencies"]
    samples = {
        "latency_samples": len(lat),
        "samples_above_p90": sum(1 for x in lat if x > p90),
        "op_seconds": op_s,
        "calibration_kernel_median_s": res["kernel_median_s"],
        "calibration_samples": res["kernel_samples"],
        "raw": {
            "ops_per_s": res["correct"] / res["raw_op_seconds"],
            "op_p50_ms": 1e3 * hd_quantile(raw, 0.5),
            "op_p90_ms": 1e3 * hd_quantile(raw, 0.9),
        },
    }
    return metrics, samples


def setup_seconds(repeats: int) -> float:
    """Median time a fresh interpreter takes to import harmonic_census.cli.
    One untimed import first, so bytecode caching is not measured."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(out.stdout.strip()))
    return statistics.median(times)


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):  # never look outside the checkout
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "program_workers": os.cpu_count(),  # the library's default pool size
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- the two modes ---------------------------------------------------------------


def _probe_known_defects(lib: dict) -> list[dict]:
    out = []
    for N, d in workloads.KNOWN_DEFECT_PAIRS:
        for name in ("enumerate", "verify"):
            op = workloads.cli_op(name, N, d, "--d", str(d))
            _, reason, _, _ = run_op(lib, op)
            out.append({"op": f"{name} {N} {d}", "ok": reason is None, "reason": reason})
    return out


def _child(args, mode: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--child", mode]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=80)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{mode} child exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    lib = load_library()
    if args.child == "probe":
        print(json.dumps(_probe_known_defects(lib)))
        return 0
    warm_up(lib)
    tracer = Tracer()
    if args.child == "traced":
        tracer.install(lib)
    res = run_rounds(lib, args.workload, args.seed, None, rounds=1)
    tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["cli.bytes_out"] = res["bytes_out"]
    print(json.dumps({
        "op_seconds": res["op_seconds"], "ops": res["correct"],
        "attempted": res["attempted"], "failures": res["failures"], "layers": layers,
        "functions": {k: [tracer.calls[k], tracer.self_s[k]] for k in tracer.calls},
    }))
    return 0


def per_layer(plain: dict, traced: dict) -> dict:
    lay = traced["layers"]
    unit = {"self_s": "s", "calls": "count"}
    metrics = {}
    for layer in LAYERS:
        for kind in ("self_s", "calls"):
            metrics[f"{layer}.{kind}"] = {"value": lay.get(f"{layer}.{kind}", 0), "unit": unit[kind]}

    def ratio(a, b):
        return a / b if b else 0.0

    enum = traced["functions"].get("orbits.enumerate_orbits", [0, 0.0])
    extra = {
        "census.counts_per_s": (ratio(lay.get("census.calls", 0), lay.get("census.self_s", 0)), "1/s"),
        "orbits.orbits_emitted": (lay.get("orbits.orbits_emitted", 0), "count"),
        "orbits.orbits_per_s": (ratio(lay.get("orbits.orbits_emitted", 0), enum[1]), "1/s"),
        "cyclotomic.coeff_bytes": (lay.get("cyclotomic.coeff_bytes", 0), "B"),
        "equivalence.witnesses": (lay.get("equivalence.witnesses", 0), "count"),
        "symmetry.candidates": (lay.get("symmetry.candidates", 0), "count"),
        "symmetry.kept": (lay.get("symmetry.kept", 0), "count"),
        "symmetry.kept_ratio": (ratio(lay.get("symmetry.kept", 0), lay.get("symmetry.candidates", 0)), "share"),
        "symmetry.subgroup_elements": (lay.get("symmetry.subgroup_elements", 0), "count"),
        "cli.bytes_out": (lay.get("cli.bytes_out", 0), "B"),
        "trace.overhead_share": (
            1 - ratio(traced["ops"], traced["op_seconds"]) / ratio(plain["ops"], plain["op_seconds"]),
            "share",
        ),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("plain", "traced", "probe"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        lib = load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args)
    if args.trace:
        plain, traced = _child(args, "plain"), _child(args, "traced")
        failures = plain["failures"] + traced["failures"]
        attempted = plain["attempted"] + traced["attempted"]
        metrics = per_layer(plain, traced)
        env.update(ops=traced["attempted"], trace_functions=traced["functions"])
    else:
        setup = setup_seconds(SETUP_REPEATS)
        warm_up(lib)
        res = run_rounds(lib, args.workload, args.seed, args.seconds, rounds=None)
        failures, attempted = res["failures"], res["attempted"]
        metrics, samples = end_to_end(res)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        env.update(samples, rounds=res["rounds"], ops=attempted, op_mix=res["mix"],
                   wall_s=res["wall_s"], setup_repeats=SETUP_REPEATS)
        if res["c_hist"]:
            env["stabilizer_order_share"] = {
                c: n / sum(res["c_hist"].values()) for c, n in res["c_hist"].items()}
        if args.workload == "orbit-verify":
            probes = _child(args, "probe")
            env["known_defect_probes"] = probes
            env["known_defect_fail_share"] = sum(not p["ok"] for p in probes) / len(probes)
    env["fail_share"] = len(failures) / attempted
    env["failures"] = failures[:20]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
