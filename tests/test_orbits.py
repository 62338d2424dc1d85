import collections
import itertools
import json
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from harmonic_census import (
    BudgetExceededError,
    ContractViolationError,
    DomainError,
    GeneratorSet,
    PrimeModulus,
    build_frame,
    count_unordered_dft,
    export_frame,
    full_census,
    full_symmetry_group,
    multipliers,
    orbit_chunks,
    stabilizer,
    unit_subgroup,
)
from harmonic_census.orbits import (
    KIND_BLOCKS,
    KIND_ZERO_BLOCKS,
    _candidate_chunks,
    _check_chunk,
    _lex_max,
    _ratio_table,
    _scan_candidates,
)

import oracles
from oracles import OrbitRecord, act, canonical_rep, enumerate_orbits


def test_generator_set_normalization():
    m5 = PrimeModulus(5)
    s = GeneratorSet(m5, (7, 1))  # 7 reduces to 2
    assert s.elems == (1, 2)
    with pytest.raises(DomainError):
        GeneratorSet(m5, (1, 6))  # 6 = 1 mod 5, duplicate
    with pytest.raises(DomainError):
        GeneratorSet(m5, ())


def test_generator_set_elements_are_python_ints(m7):
    """A row of an orbit chunk holds numpy ints; the set stores Python ints,
    so its frame exports to json and its symmetry group is computed.  An
    element that is not an integer is refused, not truncated."""
    reps, _, _ = next(orbit_chunks(m7, 3))
    s = GeneratorSet(m7, reps[0])
    assert s.elems == (0, 1, 2) and all(type(x) is int for x in s.elems)
    exported = b"".join(export_frame(build_frame(s), "json"))
    assert json.loads(exported)["generators"] == [0, 1, 2]
    assert full_symmetry_group(s).stabilizer_order == 1
    for elems in ((1.5, 2), (2.0, 3), (np.float64(1), 2), ("1", 2), 5):
        with pytest.raises(DomainError, match="must be integers"):
            GeneratorSet(m7, elems)


def test_act_examples(m5, m7):
    assert act(2, GeneratorSet(m5, (1, 2))).elems == (2, 4)
    s = GeneratorSet(m7, (0, 2, 5))
    assert act(1, s) == s
    assert act(3, GeneratorSet(m7, (1, 2, 4))).elems == (3, 5, 6)
    with pytest.raises(DomainError):
        act(0, s)


def test_action_axioms():
    rng = random.Random(7)
    for N in (5, 13, 97):
        m = PrimeModulus(N)
        for _ in range(40):
            d = rng.randint(1, min(N, 6))
            s = GeneratorSet(m, tuple(rng.sample(range(N), d)))
            a, b = rng.randint(1, N - 1), rng.randint(1, N - 1)
            assert act(a, act(b, s)) == act((a * b) % N, s)
            assert act(1, s) == s


def test_stabilizer_examples(m5, m7):
    assert stabilizer(GeneratorSet(m5, (1, 4))) == (1, 4)
    assert stabilizer(GeneratorSet(m7, (1, 2, 4))) == (1, 2, 4)
    assert stabilizer(GeneratorSet(m5, (1, 2))) == (1,)


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13])
def test_stabilizer_against_unit_scan(N):
    m = PrimeModulus(N)
    for d in range(1, N + 1):
        for elems in itertools.combinations(range(N), d):
            s = GeneratorSet(m, elems)
            assert stabilizer(s) == oracles.stabilizer_scan(N, elems)


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11])
def test_multipliers_against_unit_scan(N):
    """Every unit m with m . b = a, against all N-1 units, over pairs in one
    orbit, in different orbits, with {0}, {1, ..., N-1} and {0, ..., N-1},
    and of different sizes."""
    m = PrimeModulus(N)
    rng = random.Random(N)
    sets = [GeneratorSet(m, (0,)), GeneratorSet(m, tuple(range(N)))]
    sets.append(GeneratorSet(m, tuple(range(1, N))))
    for d in [*range(1, N + 1)] * 2:
        s = GeneratorSet(m, tuple(rng.sample(range(N), d)))
        sets += [s, act(rng.randint(1, N - 1), s)]
    split = set()  # same-size pairs, by whether some unit maps b onto a
    for a in sets:
        for b in sets:
            units = multipliers(a, b)
            assert units == oracles.multiplier_scan(N, a.elems, b.elems)
            if a.d == b.d:
                split.add(bool(units))
    assert split == {True, False}


def test_stabilizer_is_cyclic_subgroup(m13):
    for elems in [(1, 5, 8, 12), (0, 1, 12), (1, 3, 9)]:
        s = GeneratorSet(m13, elems)
        stab = stabilizer(s)
        N = 13
        assert 1 in stab
        # closed under multiplication and generated by a single element
        assert all((a * b) % N in stab for a in stab for b in stab)
        assert any(
            {pow(g, k, N) for k in range(len(stab))} == set(stab) for g in stab
        )


def test_canonical_rep_examples(m5, m7):
    assert canonical_rep(GeneratorSet(m5, (2, 4))).elems == (1, 2)
    assert canonical_rep(GeneratorSet(m5, (0, 3))).elems == (0, 1)
    assert canonical_rep(GeneratorSet(m7, (3, 5, 6))).elems == (1, 2, 4)


def test_canonical_rep_idempotent_and_orbit_constant(m13):
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randint(1, 6)
        s = GeneratorSet(m13, tuple(rng.sample(range(13), d)))
        rep = canonical_rep(s)
        assert canonical_rep(rep) == rep
        for m in range(1, 13):
            assert canonical_rep(act(m, s)) == rep


def test_canonical_rep_against_all_multipliers():
    for N in (2, 3, 5, 7, 11, 13):
        m = PrimeModulus(N)
        for d in range(1, N + 1):
            for sub in itertools.combinations(range(N), d):
                rep = canonical_rep(GeneratorSet(m, sub))
                assert rep.elems == oracles.lexmin_image(N, sub)


def _block_form(m, elems, stab=None):
    """The record that enumeration would build for elems, checked as a
    one-row chunk whose fixes mask marks stab (by default the stabilizer)."""
    if stab is None:
        stab = stabilizer(GeneratorSet(m, elems))
    rows = np.array([elems], dtype=np.int64)
    c, leaders = _check_chunk(m, rows, np.isin(rows, stab))
    c, leaders = int(c[0]), tuple(rows[leaders].tolist())
    stab = unit_subgroup(m, c)
    return OrbitRecord(GeneratorSet(m, elems), (m.N - 1) // c, c, stab, leaders)


def _expand(N, rec):
    """The leaders' cosets under the order-c subgroup, plus 0 for the
    zero kind, as a sorted tuple with multiplicity."""
    H = [x for x in range(1, N) if pow(x, rec.stab_order, N) == 1]
    zero = [0] if rec.kind == KIND_ZERO_BLOCKS else []
    return tuple(sorted(zero + [x * h % N for x in rec.block_leaders for h in H]))


def test_structured_form_examples(m5, m7):
    f = _block_form(m7, (1, 2, 4))
    assert (f.kind, f.stab_order, f.block_leaders) == (KIND_BLOCKS, 3, (1,))
    f = _block_form(m7, (0, 1, 6))
    assert (f.kind, f.stab_order, f.block_leaders) == (KIND_ZERO_BLOCKS, 2, (1,))
    f = _block_form(m5, (1, 2, 3, 4))
    assert (f.kind, f.stab_order) == (KIND_BLOCKS, 4)
    assert f.block_leaders == (1,)


def test_structured_form_trivial_stabilizer(m5):
    f = _block_form(m5, (0, 1))
    assert (f.kind, f.stab_order, f.block_leaders) == (KIND_ZERO_BLOCKS, 1, (1,))
    f = _block_form(m5, (1, 2))
    assert (f.kind, f.stab_order, f.block_leaders) == (KIND_BLOCKS, 1, (1, 2))


def test_structured_form_expansion_roundtrip(m13):
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 8)
        s = GeneratorSet(m13, tuple(rng.sample(range(13), d)))
        # scanned rows hold 1, so x^-1 . s, for x its smallest nonzero element
        s = act(pow(next(x for x in s if x), -1, 13), s)
        assert _expand(13, _block_form(m13, s.elems)) == s.elems


def test_structured_form_from_record_stabilizer(m7, m13):
    for d in range(1, 14):
        for rec in enumerate_orbits(m13, d):
            if rec.rep.elems != (0,):  # no nonzero element: never scanned
                assert rec == _block_form(m13, rec.rep.elems)
    # a mask marks elements of the row only, and 1, 2, 4 fix {1, 2, 4}
    for wrong in ((1, 2), (1, 4)):
        with pytest.raises(ContractViolationError, match="unit subgroup of order 2"):
            _block_form(m7, (1, 2, 4), wrong)
    # {1, 3} . {1, 2} gives back {1, 2, 3, 6}, but {1, 3} is no subgroup
    with pytest.raises(ContractViolationError, match=r"fixing \[1, 2, 3, 6\] are not"):
        _block_form(m7, (1, 2, 3, 6), (1, 3))


# One planted fault per check of a scanned chunk; each test fails when its
# check is deleted.


def test_check_chunk_order_divides_N_minus_1(m7):
    rows = np.array([[0, 1, 2, 5, 6], [0, 1, 2, 3, 4]])
    fixes = np.array([[0, 1, 0, 0, 1], [0, 1, 1, 1, 1]], dtype=bool)
    with pytest.raises(ContractViolationError, match=r"4 of \[0, 1, 2, 3, 4\] does not"):
        _check_chunk(m7, rows, fixes)
    fixes[1] = [0, 1, 0, 0, 0]
    c, _ = _check_chunk(m7, rows, fixes)
    assert c.tolist() == [2, 1]


def test_check_chunk_fixed_elements_are_subgroup(m13):
    # 1 and 12 are the order-2 subgroup; 1 and 5 are not
    rows = np.array([[1, 5, 8, 12], [1, 5, 8, 12]])
    fixes = np.array([[1, 0, 0, 1], [1, 1, 0, 0]], dtype=bool)
    with pytest.raises(ContractViolationError, match=r"fixing \[1, 5, 8, 12\] are not"):
        _check_chunk(m13, rows, fixes)


def test_check_chunk_cosets_rebuild_row(m7, m13):
    # {1, 6} is the order-2 subgroup, but {1, 2, 3, 6} is not a union of
    # its cosets {1, 6}, {2, 5}, {3, 4}
    rows = np.array([[1, 2, 5, 6], [1, 2, 3, 6]])
    fixes = np.array([[1, 0, 0, 1], [1, 0, 0, 1]], dtype=bool)
    with pytest.raises(ContractViolationError, match=r"not reproduce \[1, 2, 3, 6\]"):
        _check_chunk(m7, rows, fixes)
    c, leaders = _check_chunk(m7, rows[:1], fixes[:1])
    assert c.tolist() == [2] and rows[:1][leaders].tolist() == [1, 2]
    # two leaders, 1 and 2, as 8 nonzero elements need, but the row holds
    # 6 and 7 in place of 3 and 10 from the coset 2 . {1, 5, 8, 12}
    rows = np.array([[0, 1, 2, 5, 6, 7, 8, 11, 12]])
    fixes = np.isin(rows, (1, 5, 8, 12))
    with pytest.raises(ContractViolationError, match="block expansion"):
        _check_chunk(m13, rows, fixes)


def test_check_chunk_one_fixed_element_is_1(m7):
    # each second row has c = 1, but the one element it fixes is not 1; the
    # rows with c = 1 are checked only through the column holding 1
    for rows, wrong in (([[1, 2, 4], [1, 3, 5]], [0, 1, 0]), ([[0, 1, 2], [0, 1, 3]], [1, 0, 0])):
        rows = np.array(rows)
        fixes = rows == 1
        assert _check_chunk(m7, rows, fixes)[0].tolist() == [1, 1]
        fixes[1] = wrong
        message = re.escape(f"fixing {rows[1].tolist()} are not")
        with pytest.raises(ContractViolationError, match=message):
            _check_chunk(m7, rows, fixes)


def test_orbit_chunks_preconditions(m7):
    for d in (0, 8):
        with pytest.raises(DomainError, match="need 1 <= d <= N"):
            next(orbit_chunks(m7, d))


def test_dimension_message_is_shared(m7):
    """Every entry point that takes a dimension refuses it out of range with
    the same whole message."""
    for d, call in (
        (0, lambda: GeneratorSet(m7, ())),
        (0, lambda: full_census(m7, 0)),
        (8, lambda: count_unordered_dft(m7, 8)),
        (0, lambda: next(orbit_chunks(m7, 0))),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"need 1 <= d <= N, got d={d}, N=7"


def test_orbit_chunk_memory_is_bounded_at_large_d():
    """At d = N-2 a chunk of _CHUNK_ROWS rows would be N-2 entries wide; the
    entry cap on the complement masks and on the images of the 2-orbits
    keeps each whole enumeration's peak under 100 MiB.  4463 is the largest
    prime the default budget admits at d = N-2."""
    for N in (251, 4463):
        tracemalloc.start()
        try:
            orbits = sum(len(reps) for reps, _, _ in orbit_chunks(PrimeModulus(N), N - 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert orbits == full_census(PrimeModulus(N), N - 2).total
        assert peak < 100 << 20


def test_closed_forms_at_scale():
    """At min(d, N-d) <= 1 the orbits are runs yielded in closed form, with
    no candidate, image or complement mask, and each chunk is freed before
    the next is made: at N = 999983, read by a consumer that keeps no
    chunk, each of d = N-1 and d = N peaks under 1.5 * 8 * N bytes, one row
    of int64, and d = N-1 takes well under 0.1 s.  Each row, c and leader
    mask is the closed form's."""
    N = 999_983
    m = PrimeModulus(N)
    for d, want in (
        (N - 1, [(0, N - 2, 1), (1, N - 1, N - 1)]),
        (N, [(0, N - 1, N - 1)]),
    ):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            collections.deque(orbit_chunks(m, d), maxlen=0)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * N, (d, peak)
        if d == N - 1:
            assert seconds < 0.1
        got = []
        for reps, c, leaders in orbit_chunks(m, d):
            assert reps.shape == (1, d) and len(c) == 1
            (row,), (lead,) = reps, leaders
            lo, hi = int(row[0]), int(row[-1])
            assert np.array_equal(row, np.arange(lo, hi + 1))
            # {0, ..., N-2} has c = 1, so each nonzero element leads a block
            want_lead = np.arange(1, N - 1) if c[0] == 1 else [1]
            assert np.array_equal(row[lead], want_lead)
            got.append((lo, hi, int(c[0])))
        assert got == want


def test_orbit_chunk_memory_is_bounded_at_half_d():
    """At d <= N/2 the candidates are grown prefix by prefix, each level in
    blocks, and each chunk is freed before the next is gathered, so the
    whole enumeration at (23, 11) peaks under 40 MiB."""
    tracemalloc.start()
    try:
        orbits = sum(len(reps) for reps, _, _ in orbit_chunks(PrimeModulus(23), 11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orbits == full_census(PrimeModulus(23), 11).total
    assert peak < 40 << 20


def _meets_pair_rule(N, elems):
    """min(y x^-1, x y^-1) mod N >= t2 for all distinct nonzero x, y, where
    the nonzero part is (1, t2, ...)."""
    nonzero = [x for x in elems if x]
    if len(nonzero) < 2:
        return True
    t2 = nonzero[1]
    return all(
        min(y * pow(x, -1, N) % N, x * pow(y, -1, N) % N) >= t2
        for x, y in itertools.combinations(nonzero, 2)
    )


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13, 17, 19])
def test_representatives_meet_pair_rule(N):
    """The pruning rule against brute force, independent of the generator:
    every lex-min representative found by orbit chasing starts its nonzero
    part with 1 and meets the pairwise rule, at every d."""
    for d in range(2, N + 1):
        for rep in oracles.subset_orbit_census(N, d):
            assert [x for x in rep if x][0] == 1
            assert _meets_pair_rule(N, rep), (N, d, rep)


def _candidates_visited(monkeypatch, N, d):
    """The rows _candidate_chunks yields for orbit_chunks at (N, d), and the
    number of orbits."""
    import harmonic_census.orbits as orbits_mod

    source, visited = orbits_mod._candidate_chunks, [0]

    def counted(*args):
        for chunk in source(*args):
            visited[0] += len(chunk)
            yield chunk

    monkeypatch.setattr(orbits_mod, "_candidate_chunks", counted)
    orbits = sum(len(reps) for reps, _, _ in orbit_chunks(PrimeModulus(N), d))
    return visited[0], orbits


@pytest.mark.parametrize(
    "N, d, visited, orbits",
    [(31, 7, 146_635, 87_671), (61, 5, 111_267, 99_161), (29, 6, 25_198, 16_978)],
)
def test_pruned_candidates_per_orbit(monkeypatch, N, d, visited, orbits):
    """At d <= N/2 the rule leaves at most two candidates per orbit, where
    the C(N-1, d-1) sets with smallest nonzero element 1 are about d."""
    assert _candidates_visited(monkeypatch, N, d) == (visited, orbits)
    assert visited <= 2 * orbits < math.comb(N - 1, d - 1)


def test_candidates_above_half_are_those_of_the_complement(monkeypatch):
    """At d > N/2 the orbits are mapped from the (N-d)-orbits, so (13, 8)
    visits exactly the pruned candidates of (13, 5), for the same 109
    orbits."""
    visited, orbits = _candidates_visited(monkeypatch, 13, 5)
    assert _candidates_visited(monkeypatch, 13, 8) == (visited, orbits)
    assert orbits == 109 and visited < math.comb(12, 4)


def _inverse_table(N):
    """x^-1 mod N at each unit x, as _lex_max reads it; 0 at 0."""
    return np.array([0] + [pow(x, -1, N) for x in range(1, N)])


@pytest.mark.parametrize("N", [3, 5, 13, 389])
def test_ratio_table_against_pow(N):
    """ratio[x, e] = min(e x^-1, x e^-1) mod N in plain ints, 0 wherever x
    or e is 0, in the smallest int dtype that holds N.  389 is the largest
    N the default budget admits at k = 3, the only k that reads the
    table."""
    inv = [0] + [pow(x, -1, N) for x in range(1, N)]
    want = [
        [min(e * inv[x] % N, x * inv[e] % N) if x and e else 0 for e in range(N)]
        for x in range(N)
    ]
    ratio = _ratio_table(np.array(inv))
    assert ratio.tolist() == want
    assert ratio.dtype == np.min_scalar_type(N)


def _scan_cases():
    """Every prime N <= 23 at every 2 <= d <= N/2, among them (23, 11),
    which has the most tied images per row in range; (31, 7), where ties
    are common; and the largest N the default budget admits at k = 2 and
    k = 3, 4463 and 389, with 4001 beside the first."""
    small = [(N, d) for N in oracles.primes_up_to(23) for d in range(2, N // 2 + 1)]
    return small + [(31, 7), (4001, 2), (4463, 2), (389, 3)]


@pytest.mark.parametrize("N, d", _scan_cases())
def test_scan_against_every_column_oracle(N, d):
    """On every chunk of candidates, the scan that sorts only the images
    that can tie keeps the rows, and marks the fixed elements, of the scan
    that sorts every image."""
    inverse = _inverse_table(N)
    for rows in _candidate_chunks(N, d, inverse):
        kept, fixes = _scan_candidates(rows, N, inverse)
        want_kept, want_fixes = oracles.scan_every_column(rows, N, inverse)
        assert np.array_equal(kept, want_kept), (N, d)
        assert np.array_equal(fixes, want_fixes), (N, d)


@pytest.mark.parametrize("N", [N for N in oracles.primes_up_to(19) if N >= 7])
def test_untied_images_are_larger(N):
    """The tie lemma in plain ints, at every 3 <= d <= N/2: for every
    candidate T with nonzero part (1, t2, ...) and every nonzero x != 1 in
    T with t2 x not in T, the sorted image x^-1 . T is lex-larger than T,
    so the scan may skip it."""
    inverse = _inverse_table(N)
    skipped = 0
    for d in range(3, N // 2 + 1):
        for rows in _candidate_chunks(N, d, inverse):
            for T in map(tuple, rows.tolist()):
                members, nonzero = set(T), [x for x in T if x]
                for x in nonzero[1:]:
                    if nonzero[1] * x % N not in members:
                        assert tuple(sorted(pow(x, -1, N) * y % N for y in T)) > T
                        skipped += 1
    assert skipped


@pytest.mark.parametrize("k", [10, 11])
def test_lex_max_against_all_images(k):
    """53^10 < 2^63 <= 53^11: an image of 10 values is one int64 key, one of
    11 takes a key per value.  Against the max over all 52 units, which
    never contains 1."""
    rng = random.Random(k)
    reps = np.array([sorted(rng.sample(range(53), k)) for _ in range(30)])
    want = [
        max(tuple(sorted(m * x % 53 for x in row)) for m in range(1, 53))
        for row in reps.tolist()
    ]
    assert not any(1 in image for image in want)
    assert list(map(tuple, _lex_max(reps, _inverse_table(53)).tolist())) == want


@pytest.mark.parametrize("N", oracles.primes_up_to(19))
def test_lex_max_against_all_units_above_half(N):
    """Every N/2 < d < N-1, where the complement map runs: on each chunk of
    (N-d)-orbits, as the map passes them, the max over the units that can
    win is the max over all N-1."""
    inverse = _inverse_table(N)
    for d in range(N // 2 + 1, N - 1):
        for reps, _, _ in orbit_chunks(PrimeModulus(N), N - d):
            want = [
                max(tuple(sorted(m * x % N for x in row)) for m in range(1, N))
                for row in reps.tolist()
            ]
            assert list(map(tuple, _lex_max(reps, inverse).tolist())) == want, (N, d)


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13])
def test_complements_against_oracle(N):
    """Every N/2 < d <= N: the rows and c of orbit_chunks, in order, are the
    oracle's, and every chunk shares its head."""
    m = PrimeModulus(N)
    for d in range(N // 2 + 1, N + 1):
        got = []
        for reps, c, _ in orbit_chunks(m, d):
            assert len({row[0] for row in reps.tolist()}) == 1
            got += zip(map(tuple, reps.tolist()), c.tolist())
        oracle = oracles.subset_orbit_census(N, d)
        assert got == [(rep, oracle[rep][1]) for rep in sorted(oracle)]


def test_complement_without_multiplier_search_exits_5(monkeypatch, capsys):
    """A map that takes Z_N - T itself, with no search for the lex-max image
    of T, gives rows without 1, so none of their elements is marked fixed;
    _check_chunk refuses the order 0 and verify answers nothing."""
    import harmonic_census.orbits as orbits_mod
    from harmonic_census import cli

    monkeypatch.setattr(orbits_mod, "_lex_max", lambda reps, inverse: reps)
    code = cli.main(["verify", "--N", "13", "--d", "9"])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal contract violated: stabilizer order 0 of")


def test_rule_that_drops_a_representative_exits_5(monkeypatch, capsys):
    """A rule that rejects every set with t2 = 2, the first t2 that passes
    at (13, 4), drops true representatives such as {0, 1, 2, 3}; the
    orbit-size sum catches it and verify answers nothing."""
    import harmonic_census.orbits as orbits_mod
    from harmonic_census import cli

    assert (0, 1, 2, 3) in oracles.subset_orbit_census(13, 4)
    rule = orbits_mod._allowed

    def drop_t2_of_2(x, t2, inverse):
        return rule(x, t2, inverse) & (t2 != 2)[:, None]

    monkeypatch.setattr(orbits_mod, "_allowed", drop_t2_of_2)
    code = cli.main(["verify", "--N", "13", "--d", "4"])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal contract violated: orbit sizes sum to")


def test_orbit_sizes_cover_all_subsets(m13, monkeypatch):
    import harmonic_census.orbits as orbits_mod

    scan = orbits_mod._scan_candidates

    def drop_last(rows, N, inverse):
        reps, fixes = scan(rows, N, inverse)
        return reps[:-1], fixes[:-1]

    monkeypatch.setattr(orbits_mod, "_scan_candidates", drop_last)
    # at d = 9 the dropped 4-orbit is missed by the one sum, over the complements
    for d in (4, 9):
        with pytest.raises(ContractViolationError, match="orbit sizes sum to"):
            enumerate_orbits(m13, d)


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13])
def test_block_leaders_against_coset_minima(N):
    """Every record at every d: the leaders are the minima of the cosets of
    {x : x^c = 1}, and with 0 for the zero kind they expand to the rep."""
    m = PrimeModulus(N)
    for d in range(1, N + 1):
        for rec in enumerate_orbits(m, d):
            elems = rec.rep.elems
            assert rec.block_leaders == oracles.coset_leaders(N, elems, rec.stab_order)
            assert rec.kind == (KIND_ZERO_BLOCKS if 0 in elems else KIND_BLOCKS)
            assert _expand(N, rec) == elems


def test_block_coarsening(m13):
    """A set splitting into blocks for the order-b subgroup also splits into
    blocks for every order c dividing b."""
    for d in (4, 5, 7, 13):
        for rec in enumerate_orbits(m13, d):
            b = rec.stab_order
            for c in (c for c in range(1, b + 1) if b % c == 0):
                leaders = oracles.coset_leaders(13, rec.rep.elems, c)
                H = unit_subgroup(m13, c)
                expanded = {(x * h) % 13 for x in leaders for h in H}
                nonzero = {x for x in rec.rep.elems if x != 0}
                assert expanded == nonzero
                assert len(leaders) * c == len(nonzero)


def test_unit_subgroup(m7, m13):
    assert unit_subgroup(m7, 3) == (1, 2, 4)
    assert unit_subgroup(m7, 6) == (1, 2, 3, 4, 5, 6)
    assert unit_subgroup(m13, 4) == (1, 5, 8, 12)
    with pytest.raises(DomainError):
        unit_subgroup(m7, 4)


def test_primitive_root_independence(m5, m7, m13):
    assert oracles.primitive_root_independence_check(m7, 3, 1, 3, 5)
    assert oracles.primitive_root_independence_check(m5, 2, 2, 2, 3)
    assert oracles.primitive_root_independence_check(m13, 4, 1, 2, 6)
    with pytest.raises(DomainError):
        oracles.primitive_root_independence_check(m7, 3, 1, 2, 3)  # 2 not primitive
    with pytest.raises(DomainError):
        oracles.primitive_root_independence_check(m7, 4, 1, 3, 5)  # 4 does not divide 6
    with pytest.raises(DomainError):
        oracles.primitive_root_independence_check(m7, 3, 0, 3, 5)


def test_primitive_root_independence_exhaustive(m13):
    prim = [g for g in range(1, 13) if len({pow(g, k, 13) for k in range(12)}) == 12]
    for c in (2, 3, 4, 6, 12):
        for n1 in range(1, 13):
            for g1 in prim:
                for g2 in prim:
                    assert oracles.primitive_root_independence_check(m13, c, n1, g1, g2)


def test_enumerate_orbits_examples(m5, m7):
    recs = enumerate_orbits(m5, 2)
    assert [(r.rep.elems, r.size, r.stab_order) for r in recs] == [
        ((0, 1), 4, 1),
        ((1, 2), 4, 1),
        ((1, 4), 2, 2),
    ]
    assert len(enumerate_orbits(m7, 3)) == 7
    assert len(enumerate_orbits(m5, 5)) == 1


def test_enumerate_orbits_against_independent_oracle():
    for N in (2, 3, 5, 7, 11):
        m = PrimeModulus(N)
        for d in range(1, N + 1):
            recs = enumerate_orbits(m, d)
            oracle = oracles.subset_orbit_census(N, d)
            assert len(recs) == len(oracle)
            for rec in recs:
                size, stab = oracle[rec.rep.elems]
                assert rec.size == size
                assert rec.stab_order == stab
                assert rec.size * rec.stab_order == N - 1
                assert stabilizer(rec.rep) == rec.stabilizer
                assert canonical_rep(rec.rep) == rec.rep


def test_enumerate_orbits_exhaustive_against_oracle():
    """Every prime N <= 13 and every d, including {0} at d = 1 and the
    whole of Z_N at d = N: the records, in order, are the oracle's."""
    for N in (2, 3, 5, 7, 11, 13):
        m = PrimeModulus(N)
        for d in range(1, N + 1):
            got = [(r.rep.elems, r.size, r.stab_order) for r in enumerate_orbits(m, d)]
            oracle = oracles.subset_orbit_census(N, d)
            assert got == [(rep, *oracle[rep]) for rep in sorted(oracle)]


def test_enumerate_orbits_past_int64_key_limit():
    """N > 64, where packing a subset into an int64 bit-key would wrap."""
    for N, d in ((67, 2), (101, 3), (127, 2), (131, 2)):
        m = PrimeModulus(N)
        recs = enumerate_orbits(m, d)
        census = full_census(m, d)
        assert len(recs) == census.total
        hist = {}
        for r in recs:
            hist[r.stab_order] = hist.get(r.stab_order, 0) + 1
        assert hist == {c: g for c, g in census.gamma.items() if g}
        for r in recs:
            assert canonical_rep(r.rep) == r.rep
            assert stabilizer(r.rep) == r.stabilizer


def test_enumerate_orbits_structure(m13):
    for d in (1, 4, 6, 12, 13):
        recs = enumerate_orbits(m13, d)
        reps = [r.rep.elems for r in recs]
        assert reps == sorted(reps)
        assert sum(r.size for r in recs) == math.comb(13, d)
        for r in recs:
            assert r.stab_order % 1 == 0
            assert 12 % r.stab_order == 0
            assert d % r.stab_order == 0 or (d - 1) % r.stab_order == 0


def test_enumerate_budget():
    m = PrimeModulus(31)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_orbits(m, 15, max_subsets=10**6)
    assert exc.value.required == math.comb(31, 15)


def test_enumerate_chunk_size_invariant(m13, monkeypatch, capsys):
    import harmonic_census.orbits as orbits_mod
    from harmonic_census import cli

    # each (N, d) is enumerated once per chunk size; the nine command and
    # format runs of a pair replay its chunks
    chunks, replays = orbits_mod.orbit_chunks, {}

    def replay(modulus, d, **kw):
        key = modulus.N, d, orbits_mod._CHUNK_ROWS, orbits_mod._CHUNK_ENTRIES
        if key not in replays:
            replays[key] = list(chunks(modulus, d, **kw))
        return iter(replays[key])

    monkeypatch.setattr(orbits_mod, "orbit_chunks", replay)

    def cli_outputs():
        out = {}
        for N, d in ((13, 1), (13, 6), (13, 13), (17, 8), (19, 7), (19, 12), (2, 1)):
            for cmd in ("enumerate", "verify", "scan"):
                for fmt in ("json", "csv", "table"):
                    code = cli.main([cmd, "--N", str(N), "--d", str(d), "--format", fmt])
                    out[cmd, N, d, fmt] = code, capsys.readouterr().out
        return out

    base, base_out = enumerate_orbits(m13, 6), cli_outputs()
    # entry caps of 40 and 1 leave 40 // d rows and the floor of one row.
    # enumerate renders blocks of about cli._BLOCK_BYTES: at 1 each row is
    # written in pieces of one cell, at 64 each row alone (in pieces when it
    # is wider) and at 1000 a few rows per block
    for rows, entries, block in (
        (1, 1 << 20, 1 << 20),
        (64, 1 << 20, 1000),
        (1 << 16, 40, 64),
        (1 << 16, 1, 1),
        (1 << 16, 1 << 20, 1000),
    ):
        monkeypatch.setattr(orbits_mod, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(orbits_mod, "_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
        assert enumerate_orbits(m13, 6) == base
        assert cli_outputs() == base_out


def test_enumerate_large_smoke():
    # a mid-size case exercising multiple chunks with default settings
    m = PrimeModulus(19)
    recs = enumerate_orbits(m, 4)
    assert sum(r.size for r in recs) == math.comb(19, 4)
    hist = {}
    for r in recs:
        hist[r.stab_order] = hist.get(r.stab_order, 0) + 1
    oracle = oracles.subset_orbit_census(19, 4)
    ohist = {}
    for size, stab in oracle.values():
        ohist[stab] = ohist.get(stab, 0) + 1
    assert hist == ohist
