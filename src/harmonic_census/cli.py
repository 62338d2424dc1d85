"""Command-line front end: counting, enumeration, frame export, equivalence
decisions, and symmetry analysis with stable machine-readable output.

Exit codes: 0 success (or equivalent frames), 1 mismatch or inequivalence,
2 usage error, 3 a budget exceeded, 4 symmetry-conjecture
counterexample discovered (notable, not fatal), 5 internal contract
violated (a library bug, reported on one stderr line).

All output is UTF-8 with newline-terminated records, and identical
invocations produce byte-identical output regardless of --threads.
Integers too large for a double are emitted as decimal strings in JSON.
The HC_MAX_SUBSETS environment variable overrides the default budget, which
counts the C(N, d) subsets an enumeration covers and the d x N entries of a
frame; an explicit --max-subsets beats both.  Exit 3 also reports an N! too
long to print.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .census import count_harmonic_frames, count_unordered_dft, full_census
from .equivalence import are_equivalent
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    DomainError,
    ModulusMismatchError,
)
from .frames import build_frame, export_frame
from .number_theory import PrimeModulus, is_prime
from .orbits import DEFAULT_MAX_SUBSETS, GeneratorSet, enumerate_orbits
from .symmetry import conjecture_scan, full_symmetry_group

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_CONTRACT = 5

_JSON_SAFE_BOUND = 2**53


def _json_int(v: int):
    return v if abs(v) < _JSON_SAFE_BOUND else str(v)


def _fraction_json(fr: Fraction):
    if fr.denominator == 1:
        return _json_int(int(fr))
    return f"{fr.numerator}/{fr.denominator}"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _parse_gens(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"malformed generator list {text!r}")


def _join(xs, sep: str = ",") -> str:
    return sep.join(str(x) for x in xs)


def _emit(payload: list[str] | bytes, path: str | None) -> None:
    """Write a command's output lines, or its exported bytes, to stdout or
    to path."""
    if isinstance(payload, list):
        payload = ("\n".join(payload) + "\n").encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def _checked_modulus(args: argparse.Namespace) -> PrimeModulus:
    """The modulus N, which must be prime; for the commands that take a
    dimension d, also 1 <= d <= N."""
    if args.N < 2 or not is_prime(args.N):
        raise DomainError("N must be prime")
    d = getattr(args, "d", None)
    if d is not None and not 1 <= d <= args.N:
        raise DomainError(f"need 1 <= d <= N, got d={d}")
    return PrimeModulus(args.N)


# -- commands ----------------------------------------------------------------
# Each takes the parsed arguments and the checked modulus and returns its
# output, as lines or as exported bytes, with the exit code.

Output = tuple[list[str] | bytes, int]


def cmd_count(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    N, d = modulus.N, args.d
    census = full_census(modulus, d)
    # the census total is also 2 for d = 1 and 1 for d = N, the documented
    # special cases of count_harmonic_frames
    note = None
    if d == 1:
        note = "d=1: two orbits, one of them the degenerate single-vector frame"
    elif d == N:
        note = "d=N: a single orbit"
    orders = sorted(census.gamma)
    if args.output_format == "json":
        rows = [
            {
                "c": c,
                "beta": _fraction_json(census.beta[c]),
                "gamma": _json_int(census.gamma[c]),
                "orbit_size": census.orbit_size(c),
            }
            for c in orders
        ]
        obj = {"N": N, "d": d, "total": _json_int(census.total), "rows": rows}
        if note:
            obj["note"] = note
        return [_dumps(obj)], EXIT_OK
    if args.output_format == "csv":
        lines = ["N,d,c,beta,gamma,orbit_size"]
        for c in orders:
            lines.append(
                f"{N},{d},{c},{census.beta[c]},{census.gamma[c]},{census.orbit_size(c)}"
            )
        return lines, EXIT_OK
    lines = [f"N={N} d={d} total={census.total}"]
    lines.append(f"{'c':>8} {'beta':>16} {'gamma':>16} {'orbit_size':>12}")
    for c in orders:
        lines.append(
            f"{c:>8} {str(census.beta[c]):>16} {census.gamma[c]:>16} "
            f"{census.orbit_size(c):>12}"
        )
    if note:
        lines.append(f"note: {note}")
    return lines, EXIT_OK


def _record_json(N: int, d: int, rec) -> dict:
    return {
        "N": N,
        "d": d,
        "generators": list(rec.rep.elems),
        "size": rec.size,
        "stab_order": rec.stab_order,
        "stabilizer": list(rec.stabilizer),
        "structured_form": {
            "kind": rec.kind,
            "c": rec.stab_order,
            "block_leaders": list(rec.block_leaders),
        },
    }


def cmd_enumerate(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    records = enumerate_orbits(modulus, args.d, max_subsets=args.max_subsets)
    lines = []
    if args.output_format == "csv":
        lines.append("generators,size,stab_order,stabilizer,kind,block_leaders")
    for rec in records:
        if args.output_format == "json":
            lines.append(_dumps(_record_json(modulus.N, args.d, rec)))
        elif args.output_format == "csv":
            lines.append(
                f"{_join(rec.rep.elems, '|')},{rec.size},{rec.stab_order},"
                f"{_join(rec.stabilizer, '|')},{rec.kind},"
                f"{_join(rec.block_leaders, '|')}"
            )
        else:
            lines.append(
                f"rep=[{_join(rec.rep.elems)}] size={rec.size} c={rec.stab_order} "
                f"stabilizer=[{_join(rec.stabilizer)}] kind={rec.kind} "
                f"leaders=[{_join(rec.block_leaders)}]"
            )
    return lines, EXIT_OK


def cmd_verify(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    N, d = modulus.N, args.d
    census = full_census(modulus, d)
    records = enumerate_orbits(modulus, d, max_subsets=args.max_subsets)
    hist: dict[int, int] = {}
    for rec in records:
        hist[rec.stab_order] = hist.get(rec.stab_order, 0) + 1
    orders = sorted(set(census.gamma) | set(hist))
    rows = []
    all_match = True
    for c in orders:
        formula = census.gamma.get(c, 0)
        brute = hist.get(c, 0)
        match = formula == brute
        all_match &= match
        rows.append({"c": c, "formula": formula, "bruteforce": brute, "match": match})
    all_match &= census.total == len(records)
    code = EXIT_OK if all_match else EXIT_MISMATCH

    if args.output_format == "json":
        for r in rows:
            r["formula"] = _json_int(r["formula"])
        obj = {
            "N": N,
            "d": d,
            "total_formula": _json_int(census.total),
            "total_bruteforce": len(records),
            "match": all_match,
            "rows": rows,
        }
        return [_dumps(obj)], code
    lines = [
        f"N={N} d={d} formula_total={census.total} "
        f"bruteforce_total={len(records)} match={'yes' if all_match else 'NO'}"
    ]
    lines.append(f"{'c':>8} {'formula':>16} {'bruteforce':>16} {'match':>8}")
    for r in rows:
        lines.append(
            f"{r['c']:>8} {r['formula']:>16} {r['bruteforce']:>16} "
            f"{'yes' if r['match'] else 'NO':>8}"
        )
    return lines, code


def cmd_frame(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    if not args.gens:
        raise DomainError("frame requires --gens")
    s = GeneratorSet(modulus, args.gens)
    entries = s.d * modulus.N
    if entries > args.max_subsets:
        raise BudgetExceededError(
            f"frame of {s.d} x {modulus.N} = {entries} entries exceeds budget "
            f"{args.max_subsets}",
            required=entries,
            budget=args.max_subsets,
        )
    f = build_frame(s)
    if args.output_format in ("json", "csv"):
        return export_frame(f, args.output_format), EXIT_OK
    lines = [
        f"N={f.N} d={f.d} generators=[{_join(s.elems)}] "
        f"normalization={f.normalization}"
    ]
    lines.append("exponent matrix (entry (k,m) = m*n_k mod N):")
    for k in range(f.d):
        lines.append("  " + " ".join(f"{int(e):>3}" for e in f.exponents[k]))
    return lines, EXIT_OK


def cmd_equivalent(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    if not args.a or not args.b:
        raise DomainError("equivalent requires --a and --b")
    a = GeneratorSet(modulus, args.a)
    b = GeneratorSet(modulus, args.b)
    if a.d != b.d:
        raise DomainError(f"generator lists have different sizes {a.d} and {b.d}")
    verdict = are_equivalent(a, b)
    code = EXIT_OK if verdict.equivalent else EXIT_MISMATCH
    if args.output_format == "json":
        if verdict.equivalent:
            obj = {
                "equivalent": True,
                "m0": verdict.witness.m0,
                "coordinate_perm": list(verdict.witness.coordinate_perm),
            }
        else:
            obj = {"equivalent": False, "certificate": verdict.certificate}
        return [_dumps(obj)], code
    if verdict.equivalent:
        w = verdict.witness
        line = f"equivalent m0={w.m0} coordinate_perm=[{_join(w.coordinate_perm)}]"
    else:
        line = f"inequivalent certificate={verdict.certificate}"
    return [line], code


def _symmetry_json(s: GeneratorSet, report) -> dict:
    return {
        "N": s.modulus.N,
        "generators": list(s.elems),
        "stabilizer_order": report.stabilizer_order,
        "subgroup_order": _json_int(report.subgroup_order),
        "full_group_order": (
            None
            if report.full_group_order is None
            else _json_int(report.full_group_order)
        ),
        "conjecture_holds": report.conjecture_holds,
        "generators_found": list(report.generators_found),
        "note": report.note,
    }


def cmd_symmetry(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    if not args.gens:
        raise DomainError("symmetry requires --gens")
    s = GeneratorSet(modulus, args.gens)
    report = full_symmetry_group(s)
    if args.output_format == "json":
        return [_dumps(_symmetry_json(s, report))], EXIT_OK
    lines = [
        f"N={modulus.N} generators=[{_join(s.elems)}] "
        f"c={report.stabilizer_order} subgroup_order={report.subgroup_order} "
        f"full_order={report.full_group_order} "
        f"conjecture_holds={report.conjecture_holds}"
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    return lines, EXIT_OK


def cmd_scan(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    N, d = modulus.N, args.d
    report = conjecture_scan(modulus, d, max_subsets=args.max_subsets)
    code = EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK
    if args.output_format == "json":
        rows = [
            {
                "rep": list(r.rep.elems),
                "c": r.stabilizer_order,
                "subgroup_order": _json_int(r.subgroup_order),
                "full_group_order": _json_int(r.full_group_order),
                "conjecture_holds": r.conjecture_holds,
                "note": r.note,
            }
            for r in report.rows
        ]
        counterexamples = [list(r.rep.elems) for r in report.counterexamples]
        obj = {"N": N, "d": d, "rows": rows, "counterexamples": counterexamples}
        return [_dumps(obj)], code
    lines = [f"N={N} d={d} orbits={len(report.rows)}"]
    for r in report.rows:
        mark = "" if r.conjecture_holds else "  <-- counterexample"
        lines.append(
            f"rep=[{_join(r.rep.elems)}] c={r.stabilizer_order} "
            f"subgroup={r.subgroup_order} full={r.full_group_order} "
            f"holds={'yes' if r.conjecture_holds else 'NO'}{mark}"
        )
    return lines, code


# -- built-in reference checks ------------------------------------------------


def seed_check() -> int:
    """Re-derive the worked reference values and exit nonzero on mismatch."""
    checks: list[tuple[str, bool]] = []

    def check(desc: str, cond: bool) -> None:
        checks.append((desc, cond))

    m5, m7 = PrimeModulus(5), PrimeModulus(7)
    check("count(5,2) == 3", count_harmonic_frames(m5, 2) == 3)
    check("count(5,3) == 3", count_harmonic_frames(m5, 3) == 3)
    check("count(7,3) == 7", count_harmonic_frames(m7, 3) == 7)
    c73 = full_census(m7, 3)
    check("census(7,3) gamma", c73.gamma == {1: 5, 2: 1, 3: 1})
    check("census(7,3) beta", (c73.beta[2], c73.beta[3]) == (3, 2))
    for N in (7, 13, 19, 31):
        cen = full_census(PrimeModulus(N), 3)
        check(
            f"worked example N={N} d=3",
            cen.beta[3] == Fraction(N - 1, 3)
            and cen.beta[2] == Fraction(N - 1, 2)
            and cen.gamma[3] == 1
            and cen.gamma[2] == 1
            and cen.gamma[1] == (N * N - 2 * N - 5) // 6,
        )
    for N in (3, 5, 11, 97, 9973):
        check(
            f"d=2 closed form N={N}",
            count_harmonic_frames(PrimeModulus(N), 2) == (N + 1) // 2,
        )
    for N, expected in ((7, 7), (13, 25), (5, 3), (11, 17)):
        check(
            f"d=3 closed form N={N}",
            count_harmonic_frames(PrimeModulus(N), 3) == expected,
        )
    check("ordered count (5,3) == 15", count_unordered_dft(m5, 3) == 15)
    check("ordered count (2,2) == 2", count_unordered_dft(PrimeModulus(2), 2) == 2)
    check("ordered count (7,2) == 7", count_unordered_dft(m7, 2) == 7)

    failed = [desc for desc, ok in checks if not ok]
    for desc, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {desc}")
    print(f"seed-check: {len(checks) - len(failed)}/{len(checks)} passed")
    return EXIT_OK if not failed else EXIT_MISMATCH


# -- argument plumbing --------------------------------------------------------


def _add_common(sp, *, d=False, gens=False, ab=False):
    sp.add_argument("--N", type=int, required=True, help="prime modulus")
    if d:
        sp.add_argument("--d", type=int, required=True, help="dimension")
    if gens:
        sp.add_argument("--gens", type=str, help="comma-separated generators")
    if ab:
        sp.add_argument("--a", type=str, required=True, help="first generator list")
        sp.add_argument("--b", type=str, required=True, help="second generator list")
    sp.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="table",
        dest="output_format",
    )
    sp.add_argument("--out", type=str, default=None, help="write output to file")
    sp.add_argument("--max-subsets", type=int, default=None)
    sp.add_argument(
        "--threads", type=int, default=None, help="accepted for compatibility; no effect"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-census",
        description=(
            "Exact counting, enumeration, construction, and symmetry analysis "
            "of prime-order harmonic frames."
        ),
    )
    parser.add_argument("--seed-check", action="store_true", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")
    _add_common(sub.add_parser("count", help="closed-form orbit census"), d=True)
    _add_common(sub.add_parser("enumerate", help="brute-force orbit listing"), d=True)
    _add_common(
        sub.add_parser("verify", help="formula vs brute-force cross-check"), d=True
    )
    _add_common(sub.add_parser("frame", help="construct and export a frame"), gens=True)
    _add_common(
        sub.add_parser("equivalent", help="decide unitary equivalence"), ab=True
    )
    _add_common(
        sub.add_parser("symmetry", help="symmetry group of one frame"), gens=True
    )
    _add_common(sub.add_parser("scan", help="conjecture scan over all orbits"), d=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call (not at import) and reused:
    parse_args leaves it unchanged."""
    return build_parser()


def _resolve_budget(args: argparse.Namespace) -> int:
    if args.max_subsets is not None:
        return args.max_subsets
    env = os.environ.get("HC_MAX_SUBSETS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"HC_MAX_SUBSETS={env!r} is not an integer")
    return DEFAULT_MAX_SUBSETS


_DISPATCH = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "frame": cmd_frame,
    "equivalent": cmd_equivalent,
    "symmetry": cmd_symmetry,
    "scan": cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed_check:
        return seed_check()
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # the errors are checked in this order: generator lists, budget, N
        # and d, then the command's own.  A list may hold any residues;
        # GeneratorSet reduces them mod N, sorts them and rejects
        # duplicates, and outputs echo that normalized form.
        for name in ("gens", "a", "b"):
            if getattr(args, name, None):
                setattr(args, name, _parse_gens(getattr(args, name)))
        args.max_subsets = _resolve_budget(args)
        payload, code = _DISPATCH[args.command](args, _checked_modulus(args))
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, ModulusMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolationError as exc:
        print(f"error: internal contract violated: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    _emit(payload, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
