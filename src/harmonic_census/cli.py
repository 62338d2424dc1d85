"""Command-line front end: counting, enumeration, frame export, equivalence
decisions, and symmetry analysis with stable machine-readable output.

Exit codes: 0 success (or equivalent frames), 1 mismatch or inequivalence,
2 usage error (including output that stdout or the --out path cannot take
in full, reported on one stderr line; help text goes through the same
check), 3 a budget exceeded, or memory run out under a budget raised
past what memory holds (one "error: out of memory" line on stderr), 4
symmetry-conjecture counterexample discovered (notable, not fatal), 5
internal contract violated (a library bug, reported on one stderr line).
main returns every code and raises no SystemExit: 0 after help and 2 after
a usage error that argparse writes.  stdout is complete only on exits 0, 1
and 4: enumerate and scan write each checked chunk's lines as they go, so
a contract failure found after the last chunk leaves earlier lines written.
frame streams its rows too, one block per matrix row, with every check
made before the first byte, so only running out of memory (exit 3) can
cut its output short.
--out writes a temporary file beside the path and renames it over the path
only on success.

All output is UTF-8 with newline-terminated records, and identical
invocations produce byte-identical output.
--format csv writes csv for count, enumerate and frame; verify, equivalent,
symmetry and scan print their table for it.
Every JSON output is written from templates, f-strings filled straight from
the census, verdict, report or chunk, with no dict or list built to be
serialized; json.dumps only quotes the note strings (and equivalent's
certificate tag).  Integers too large for a double are written as quoted
decimal strings (_num).
The HC_MAX_SUBSETS environment variable overrides the default budget, which
counts the C(N, d) subsets an enumeration covers, or at d = N the N entries
of its one row Z_N (C(N, N) = 1), and the d x N entries of a frame; an
explicit --max-subsets beats both.  Exit 3 also reports a number
too long to print, one with more digits than the interpreter's int-to-str
limit: C(N, d) for count, enumerate, verify and scan, or an N!.

enumerate, verify and scan read the orbits as the checked numpy chunks of
orbits.orbit_chunks and build no per-orbit object.  enumerate and scan
render each chunk's lines in numpy through one renderer (_enumerate_blocks),
which takes the text of each: scan's rows hold c, read off the chunk, and
both group orders, N*c but for the sets that symmetry.exceptional_orders
names.  numpy, `orbits` and `frames` are imported inside the functions that
use them, so count, equivalent and symmetry run without loading numpy.

A plain command line, a command and then each option string in full with
its value, is read from the command's own options (_plain_args); argparse
reads every other form and writes every help, usage and error text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
from itertools import chain
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator

from .census import full_census
from .equivalence import are_equivalent
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    DomainError,
    ModulusMismatchError,
    check_budget,
)
from .number_theory import DEFAULT_MAX_SUBSETS, GeneratorSet, PrimeModulus, subset_count
from .symmetry import exceptional_orders, full_symmetry_group

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_CONTRACT = 5

_JSON_SAFE_BOUND = 2**53
# enumerate renders blocks of rows whose byte matrix holds about this many
# bytes; 1 MiB blocks were no faster and left a higher peak RSS over a long
# run of small commands
_BLOCK_BYTES = 1 << 16


def _num(v: int) -> str:
    """v as JSON: its decimal text, quoted when a double cannot hold it."""
    return str(v) if -_JSON_SAFE_BOUND < v < _JSON_SAFE_BOUND else f'"{v}"'


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _string(text: str | None) -> str:
    """A note or a certificate as JSON: quoted by json.dumps, or null."""
    return "null" if text is None else json.dumps(text)


def _parse_gens(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"malformed generator list {text!r}")


def _join(xs, sep: str = ",") -> str:
    return sep.join(map(str, xs))


def _table(head: tuple, widths: tuple, rows) -> list[str]:
    """A header row and then rows, each value right-aligned to its width."""
    line = " ".join(f"{{!s:>{w}}}" for w in widths)
    return [line.format(*row) for row in [head, *rows]]


def _emit(payload: list[str] | bytes | Iterator, path: str | None) -> None:
    """Write a command's output to stdout or to path: its lines, its help
    text, or an iterator of bytes-like blocks, each written as it comes.  A
    stream or path that cannot take them all is a usage error.  A command's
    own errors come first: enumerate and scan make and check their first
    chunk in _orbit_chunks, and frame its generators, budget and format,
    before they return their blocks.
    path is written through a temporary file beside it, renamed
    over it on success, so a run that fails leaves no file there; a path
    that exists and is not a regular file (a device or a pipe) is written
    directly.  stdout may store only part of a write once a pipe's reader
    has gone, so each block is written until all is out.  On failure its
    descriptor is pointed at os.devnull, so the interpreter's flush at exit
    has nothing left to fail on (the SIGPIPE note in the signal module
    docs)."""
    if isinstance(payload, list):
        payload = ("\n".join(payload) + "\n").encode("utf-8")
    blocks = (payload,) if isinstance(payload, bytes) else payload
    try:
        if path is not None:
            _write_file(path, blocks)
            return
        out = sys.stdout.buffer
        for block in blocks:
            view = memoryview(block)
            while view:
                view = view[out.write(view) :]
        out.flush()
    except OSError as exc:
        if path is None:  # an in-memory stdout has no descriptor
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        where = "stdout" if path is None else path
        raise DomainError(f"cannot write {where}: {exc.strerror or exc}") from exc


def _write_file(path: str, blocks: Iterable) -> None:
    """Write the blocks to a temporary file beside path's target (a symlink
    is followed) and rename it over the target, removing it on any failure;
    a target that exists and is not a regular file is written directly."""
    real = os.path.realpath(path)
    direct = os.path.exists(real) and not os.path.isfile(real)
    tmp = path if direct else f"{real}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for block in blocks:
                fh.write(block)
        if not direct:
            os.replace(tmp, real)
    except BaseException:
        if not direct:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


class _Parser(argparse.ArgumentParser):
    """Sends its help text to stdout through _emit, so help that stdout
    cannot take is a usage error like any other output; subparsers are made
    of the same class.  build_parser gives the top parser each command's
    options by option string (commands), which _plain_args reads."""

    commands: dict[str, dict[str, argparse.Action]]

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        _emit(self.format_help().encode("utf-8"), None)


def _checked_modulus(args: argparse.Namespace) -> PrimeModulus:
    """The modulus N, which must be a prime below 2^31; for the commands
    that take a dimension d, also 1 <= d <= N."""
    modulus = PrimeModulus(args.N)
    d = getattr(args, "d", None)
    if d is not None and not 1 <= d <= args.N:
        raise DomainError(f"need 1 <= d <= N, got d={d}")
    return modulus


# -- commands ----------------------------------------------------------------
# Each takes the parsed arguments and the checked modulus and returns its
# output, as lines or as bytes-like blocks made as they are written, with
# the exit code.

Output = tuple[list[str] | Iterator, int]


def cmd_count(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    N, d = modulus.N, args.d
    subset_count(N, d)  # bounds every number printed below
    census = full_census(modulus, d)
    note = None
    if d == 1:
        note = "d=1: two orbits, one of them the degenerate single-vector frame"
    elif d == N:
        note = "d=N: a single orbit"
    head = ("c", "beta", "gamma", "orbit_size")
    rows = [
        (c, census.beta[c], census.gamma[c], census.orbit_size(c))
        for c in sorted(census.gamma)
    ]
    if args.output_format == "json":
        records = ",".join(
            f'{{"c":{c},"beta":{_num(b)},"gamma":{_num(g)},"orbit_size":{_num(o)}}}'
            for c, b, g, o in rows
        )
        tail = f',"note":{_string(note)}' if note else ""
        total = _num(census.total)
        return [f'{{"N":{N},"d":{d},"total":{total},"rows":[{records}]{tail}}}'], EXIT_OK
    if args.output_format == "csv":
        lines = [_join(("N", "d", *head))]
        return lines + [_join((N, d, *row)) for row in rows], EXIT_OK
    lines = [f"N={N} d={d} total={census.total}", *_table(head, (8, 16, 16, 12), rows)]
    if note:
        lines.append(f"note: {note}")
    return lines, EXIT_OK


def _digit_table(N: int, sep: str) -> np.ndarray:
    """One row of uint8 cells per residue 0..N-1: the separator byte, then
    its decimal digits, left-padded with 0 bytes, which no output text
    holds, so a rendered block drops every 0 byte.  Built one digit column
    at a time from int32 values, _BLOCK_BYTES residues at a time, so that
    no temporary is N wide; the residues below 10^k are a prefix, so the
    padding is cleared by slices."""
    import numpy as np

    width = len(str(N - 1))
    table = np.zeros((N, width + 1), dtype=np.uint8)
    table[:, 0] = ord(sep)
    for lo in range(0, N, _BLOCK_BYTES):
        rows = table[lo : lo + _BLOCK_BYTES]
        values = np.arange(lo, lo + len(rows), dtype=np.int32)  # N < 2^31
        for k in range(width, 0, -1):
            rows[:, k] = values % 10 + ord("0")
            values //= 10
    for k in range(1, width):
        table[: 10 ** (width - k), k] = 0
    return table


def _group(table: np.ndarray, values: np.ndarray) -> Iterator[np.ndarray]:
    """The values as text through the digit table, separated, in pieces of
    about _BLOCK_BYTES: the separator in front of the first is cleared."""
    step = max(1, _BLOCK_BYTES // table.shape[1])
    for lo in range(0, len(values), step):
        cells = table[values[lo : lo + step]]
        if lo == 0:
            cells[0, 0] = 0
        yield cells[cells != 0]


def _orbit_chunks(modulus: PrimeModulus, d: int, budget: int) -> Iterator:
    """orbit_chunks with its first chunk made, so that the budget and the
    first chunk's check come before the command's own checks and output:
    the one place that orders these errors before a byte is written or the
    --out path is opened.  The chain keeps its arguments to the end, so the
    first chunk goes in through an iterator, which lets go of it once
    exhausted, and is freed before the next chunk is made."""
    from .orbits import orbit_chunks

    chunks = orbit_chunks(modulus, d, max_subsets=budget)
    return chain(iter([next(chunks)]), chunks)


def _enumerate_blocks(
    modulus: PrimeModulus, chunks: Iterator, sep: str, before: str, head: str,
    middle: Callable[[int, int, np.ndarray], Iterable], tail: str, leaders: bool, joint: str = "",
) -> Generator[np.ndarray | bytes, None, int]:
    """The text before, then one line per orbit of the checked chunks, as
    byte blocks made per chunk, so the lines of every chunk checked so far
    are written before the next is scanned; returns the number of lines.  A
    line is the joint (none before the first line), the head, the
    representative, a middle text that depends only on c and on whether the
    chunk's head is 0 (middle(c, zero, digit table) gives it in pieces), the
    block leaders if asked (at c = 1 the nonzero elements) and the tail.
    Each block of rows is one (rows, width) uint8 matrix, with no loop over
    orbits: the head, the digit-table cells of the representative, the
    middle (one padded row per c in the chunk), the cells masked by the
    leaders and the tail, written without its 0 bytes.  The block holds
    about _BLOCK_BYTES; a row wider than that is written alone, in pieces."""
    import numpy as np

    table = _digit_table(modulus.N, sep)  # the budget, which bounds N, is checked
    w = table.shape[1]
    head_row, tail_row = (np.frombuffer(t.encode(), np.uint8) for t in (joint + head, tail))
    yield before.encode()
    lines = 0
    for reps, c, lead in chunks:
        d, zero = reps.shape[1], int(reps[0, 0] == 0)  # one head per chunk
        # c = N-1 is the one row of its chunk; bincount would take N bins
        orders = (np.flatnonzero(np.bincount(c)) if len(c) > 1 else c).tolist()
        if w * (2 * d + orders[-1]) > _BLOCK_BYTES:
            for i, (row, order, mask) in enumerate(zip(reps, c.tolist(), lead)):
                first = head_row[0 if lines + i else len(joint) :]  # no joint before line 1
                yield from chain((first,), _group(table, row), middle(order, zero, table))
                yield from chain(_group(table, row[mask]) if leaders else (), (tail_row,))
            lines += len(reps)
            del reps, c, lead, row, mask  # freed before the next chunk is made
            continue
        texts = [b"".join(middle(order, zero, table)) for order in orders]
        width = max(map(len, texts))
        padded = b"".join(text.ljust(width, b"\0") for text in texts)
        middles = np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), -1)
        at = np.searchsorted(orders, c)
        # the columns: head | representative | middle | leaders | tail
        rep_at, mid_at = len(head_row), len(head_row) + d * w
        lead_at = mid_at + middles.shape[1]
        tail_at = lead_at + d * w * leaders
        step = max(1, _BLOCK_BYTES // (tail_at + len(tail_row)))
        for lo in range(0, len(reps), step):
            cells = table[reps[lo : lo + step]]
            n = len(cells)
            block = np.empty((n, tail_at + len(tail_row)), dtype=np.uint8)
            block[:, :rep_at] = head_row
            block[:, rep_at:mid_at] = cells.reshape(n, -1)
            block[:, mid_at:lead_at] = middles[at[lo : lo + step]]
            block[:, tail_at:] = tail_row
            # no separator before the first element, nor before the first
            # leader: 1, in column 1 after a 0, and none in {0}; no joint
            # before the first line
            block[:, rep_at] = 0
            if leaders:
                block[:, lead_at:tail_at] = (cells * lead[lo : lo + step, :, None]).reshape(n, -1)
                if d > zero:
                    block[:, lead_at + zero * w] = 0
            if lines + lo == 0:
                block[0, : len(joint)] = 0
            yield block[block != 0]
        lines += len(reps)
        del reps, c, lead, at, cells, block  # freed before the next chunk is made
    return lines


def cmd_enumerate(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    """One line per orbit, as byte blocks that _emit writes as they come
    (_enumerate_blocks): the representative, its size, c, stabilizer and
    kind, and the block leaders."""
    from .orbits import KIND_BLOCKS, KIND_ZERO_BLOCKS, _subgroup_array

    N, d, fmt = modulus.N, args.d, args.output_format
    chunks = _orbit_chunks(modulus, d, args.max_subsets)
    before, head, tail = {
        "json": ("", f'{{"N":{N},"d":{d},"generators":[', "]}}\n"),
        "csv": ("generators,size,stab_order,stabilizer,kind,block_leaders\n", "", "\n"),
        "table": ("", "rep=[", "]\n"),
    }[fmt]

    def middle(c: int, zero: int, table: np.ndarray) -> Iterable:
        """The text from the representative to the leaders."""
        size, kind = (N - 1) // c, KIND_ZERO_BLOCKS if zero else KIND_BLOCKS
        if fmt == "json":
            pre = f'],"size":{size},"stab_order":{c},"stabilizer":['
            post = f'],"structured_form":{{"kind":"{kind}","c":{c},"block_leaders":['
        elif fmt == "csv":
            pre, post = f",{size},{c},", f",{kind},"
        else:
            pre, post = f"] size={size} c={c} stabilizer=[", f"] kind={kind} leaders=["
        H = _subgroup_array(modulus, c)
        return chain((pre.encode(),), _group(table, H), (post.encode(),))

    sep = "|" if fmt == "csv" else ","
    return _enumerate_blocks(modulus, chunks, sep, before, head, middle, tail, True), EXIT_OK


def cmd_verify(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    import numpy as np

    N, d = modulus.N, args.d
    hist: dict[int, int] = {}
    for _, c, _ in _orbit_chunks(modulus, d, args.max_subsets):
        del _  # the leaders mask, freed before the next chunk is made
        if len(c) > 1:
            counts = np.bincount(c)
            orders = np.flatnonzero(counts)
            found = zip(orders.tolist(), counts[orders].tolist())
        else:  # c = N-1 is the one row of its chunk; bincount would take N bins
            found = [(int(c[0]), 1)]
        for order, count in found:
            hist[order] = hist.get(order, 0) + count
    orbits = sum(hist.values())
    census = full_census(modulus, d)
    rows = [
        (c, census.gamma.get(c, 0), hist.get(c, 0))
        for c in sorted(set(census.gamma) | set(hist))
    ]
    all_match = census.total == orbits and all(f == b for _, f, b in rows)
    code = EXIT_OK if all_match else EXIT_MISMATCH
    if args.output_format == "json":
        records = ",".join(
            f'{{"c":{c},"formula":{_num(f)},"bruteforce":{b},"match":{_bool(f == b)}}}'
            for c, f, b in rows
        )
        return [
            f'{{"N":{N},"d":{d},"total_formula":{_num(census.total)},'
            f'"total_bruteforce":{orbits},"match":{_bool(all_match)},"rows":[{records}]}}'
        ], code
    lines = [
        f"N={N} d={d} formula_total={census.total} "
        f"bruteforce_total={orbits} match={'yes' if all_match else 'NO'}"
    ]
    head = ("c", "formula", "bruteforce", "match")
    marked = [(c, f, b, "yes" if f == b else "NO") for c, f, b in rows]
    return lines + _table(head, (8, 16, 16, 8), marked), code


def cmd_frame(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    """Checks the generators and the budget; frames.export_frame writes
    every format."""
    from .frames import build_frame, export_frame

    if not args.gens:
        raise DomainError("frame requires --gens")
    s = GeneratorSet(modulus, args.gens)
    check_budget(f"frame of {s.d} x {modulus.N}", s.d * modulus.N, "entries", args.max_subsets)
    return export_frame(build_frame(s), args.output_format), EXIT_OK


def cmd_equivalent(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    if not args.a or not args.b:
        raise DomainError("equivalent requires --a and --b")
    a = GeneratorSet(modulus, args.a)
    b = GeneratorSet(modulus, args.b)
    if a.d != b.d:
        raise DomainError(f"generator lists have different sizes {a.d} and {b.d}")
    verdict = are_equivalent(a, b)
    code = EXIT_OK if verdict.equivalent else EXIT_MISMATCH
    w, json_out = verdict.witness, args.output_format == "json"
    if verdict.equivalent and json_out:
        line = f'{{"equivalent":true,"m0":{w.m0},"coordinate_perm":[{_join(w.coordinate_perm)}]}}'
    elif verdict.equivalent:
        line = f"equivalent m0={w.m0} coordinate_perm=[{_join(w.coordinate_perm)}]"
    elif json_out:
        line = f'{{"equivalent":false,"certificate":{_string(verdict.certificate)}}}'
    else:
        line = f"inequivalent certificate={verdict.certificate}"
    return [line], code


def _generator_json(g: dict) -> str:
    """One generator of a symmetry report: D by its exponents, or Q by its
    slot permutation and unit."""
    if g["kind"] == "diagonal":
        return f'{{"kind":"diagonal","exponents":[{_join(g["exponents"])}]}}'
    return f'{{"kind":"block_perm","slot_perm":[{_join(g["slot_perm"])}],"unit":{g["unit"]}}}'


def cmd_symmetry(args: argparse.Namespace, modulus: PrimeModulus) -> Output:
    if not args.gens:
        raise DomainError("symmetry requires --gens")
    s = GeneratorSet(modulus, args.gens)
    report = full_symmetry_group(s)
    if args.output_format == "json":
        found = ",".join(map(_generator_json, report.generators_found))
        return [
            f'{{"N":{modulus.N},"generators":[{_join(s.elems)}],'
            f'"stabilizer_order":{report.stabilizer_order},'
            f'"subgroup_order":{_num(report.subgroup_order)},'
            f'"full_group_order":{_num(report.full_group_order)},'
            f'"conjecture_holds":{_bool(report.conjecture_holds)},'
            f'"generators_found":[{found}],"note":{_string(report.note)}}}'
        ], EXIT_OK
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
    """One row per orbit, in enumeration order, as byte blocks from
    _enumerate_blocks: the orders of <D, Q> and of the full group are N*c,
    with c read off the chunk, but for the sets of exceptional_orders.  Every
    unit fixes those, so c = N-1, and a set every unit fixes is {0}, the
    units or Z_N, which d and whether it holds 0 tell apart.  Only the
    simplex and the basis can have a larger full group, a counterexample,
    listed and never suppressed (exit 4): for N > 2 and d >= N-1 the last
    orbit is range(N-d, N), one of the two, and no other (N, d) has either.
    Past FACTORIAL_MAX_N their N! is refused (exit 3), after the budget.  The
    orbit count of the table's first line is the census total, which the
    rows written must match."""
    N, d, fmt = modulus.N, args.d, args.output_format
    chunks = _orbit_chunks(modulus, d, args.max_subsets)
    last = exceptional_orders(N, range(N - d, N))
    counterexample = bool(last) and last[0] != last[1]
    total = full_census(modulus, d).total

    def middle(c: int, zero: int, table: np.ndarray) -> Iterable:
        """The text after the representative; the last orbit's orders are
        last, so its N! is computed once."""
        elems = range(1 - zero, d + 1 - zero)
        exception = c == N - 1 and (
            last if elems == range(N - d, N) else exceptional_orders(N, elems)
        )
        sub, full, note = exception or (N * c, N * c, None)
        if fmt == "json":
            return (
                f'],"c":{c},"subgroup_order":{_num(sub)},"full_group_order":{_num(full)},'
                f'"conjecture_holds":{_bool(full == sub)},"note":{_string(note)}}}'.encode(),
            )
        mark = "holds=yes" if full == sub else "holds=NO  <-- counterexample"
        return (f"] c={c} subgroup={sub} full={full} {mark}\n".encode(),)

    def blocks() -> Iterator:
        if fmt == "json":
            before, head, joint = f'{{"N":{N},"d":{d},"rows":[', '{"rep":[', ","
        else:
            before, head, joint = f"N={N} d={d} orbits={total}\n", "rep=[", ""
        rows = yield from _enumerate_blocks(
            modulus, chunks, ",", before, head, middle, "", False, joint
        )
        if rows != total:
            raise ContractViolationError(f"scan wrote {rows} rows for {total} orbits")
        if fmt == "json":
            listed = f"[{_join(range(N - d, N))}]" if counterexample else ""
            yield f'],"counterexamples":[{listed}]}}\n'.encode()

    return blocks(), EXIT_COUNTEREXAMPLE if counterexample else EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, takes: str) -> dict[str, argparse.Action]:
    """The options of every command, with those its input needs: takes is
    "d" for --d, "gens" for --gens or "ab" for --a and --b.  Returns the
    actions by their one option string, for _plain_args."""
    add = sp.add_argument
    actions = [add("--N", type=int, required=True, help="prime modulus")]
    if takes == "d":
        actions.append(add("--d", type=int, required=True, help="dimension"))
    elif takes == "gens":
        actions.append(add("--gens", type=str, help="comma-separated generators"))
    else:
        actions.append(add("--a", type=str, required=True, help="first generator list"))
        actions.append(add("--b", type=str, required=True, help="second generator list"))
    actions.append(
        add("--format", choices=("json", "csv", "table"), default="table", dest="output_format")
    )
    actions.append(add("--out", type=str, default=None, help="write output to file"))
    actions.append(add("--max-subsets", type=int, default=None))
    return {action.option_strings[0]: action for action in actions}


# name: (handler, help text, the input options of _add_common)
COMMANDS = {
    "count": (cmd_count, "closed-form orbit census", "d"),
    "enumerate": (cmd_enumerate, "brute-force orbit listing", "d"),
    "verify": (cmd_verify, "formula vs brute-force cross-check", "d"),
    "frame": (cmd_frame, "construct and export a frame", "gens"),
    "equivalent": (cmd_equivalent, "decide unitary equivalence", "ab"),
    "symmetry": (cmd_symmetry, "symmetry group of one frame", "gens"),
    "scan": (cmd_scan, "conjecture scan over all orbits", "d"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="harmonic-census",
        description=(
            "Exact counting, enumeration, construction, and symmetry analysis "
            "of prime-order harmonic frames."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    parser.commands = {
        name: _add_common(sub.add_parser(name, help=text), takes)
        for name, (_, text, takes) in COMMANDS.items()
    }
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call (not at import) and reused:
    parse_args leaves it unchanged."""
    return build_parser()


def _plain_args(
    commands: dict[str, dict[str, argparse.Action]], argv: list[str]
) -> argparse.Namespace | None:
    """The Namespace that parse_args makes of a plain command line, built
    from the command's own actions: a command name, then pairs of one of its
    option strings, exactly, and a value that does not start with "-", no
    option twice, each value of its action's type and in its choices, and
    every required option given; an absent option takes its default.  None
    for every other argv (help, abbreviations, --opt=value, "--", repeats,
    errors), which parse_args reads, so argparse writes every usage, help
    and error text."""
    options = commands.get(argv[0]) if argv and len(argv) % 2 else None
    if options is None:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2:  # an option given twice
        return None
    args = argparse.Namespace(command=argv[0])
    for option, action in options.items():
        text = given.pop(option, None)
        if text is None:
            if action.required:
                return None
            value = action.default
        elif text.startswith("-"):
            return None
        else:
            try:
                value = action.type(text) if action.type else text
            except ValueError:
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(args, action.dest, value)
    return None if given else args  # what is left is no option of the command


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


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # help is written while parsing, so a stdout that cannot take it
        # fails in here
        try:
            args = _plain_args(parser.commands, argv) or parser.parse_args(argv)
        except SystemExit as exc:  # argparse wrote its help or usage error
            return exc.code
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        # the errors are checked in this order: generator lists, budget, N
        # and d, the command's own, then the --out path.  A list may hold
        # any residues; GeneratorSet reduces them mod N, sorts them and
        # rejects duplicates, and outputs echo that normalized form.
        for name in ("gens", "a", "b"):
            if getattr(args, name, None):
                setattr(args, name, _parse_gens(getattr(args, name)))
        args.max_subsets = _resolve_budget(args)
        payload, code = COMMANDS[args.command][0](args, _checked_modulus(args))
        _emit(payload, args.out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory before the budget was reached", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, ModulusMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolationError as exc:
        print(f"error: internal contract violated: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    return code


if __name__ == "__main__":
    sys.exit(main())
