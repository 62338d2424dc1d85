import itertools
import math
import random

import pytest

from harmonic_census import (
    BudgetExceededError,
    ContractViolationError,
    DomainError,
    GeneratorSet,
    PrimeModulus,
    act,
    canonical_rep,
    enumerate_orbits,
    full_census,
    stabilizer,
    unit_subgroup,
)
from harmonic_census.orbits import KIND_BLOCKS, KIND_ZERO_BLOCKS, _record

import oracles


def test_generator_set_normalization():
    m5 = PrimeModulus(5)
    s = GeneratorSet(m5, (7, 1))  # 7 reduces to 2
    assert s.elems == (1, 2)
    with pytest.raises(DomainError):
        GeneratorSet(m5, (1, 6))  # 6 = 1 mod 5, duplicate
    with pytest.raises(DomainError):
        GeneratorSet(m5, ())


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
    """The record that enumeration would build for elems, with its
    stabilizer computed unless given."""
    if stab is None:
        stab = stabilizer(GeneratorSet(m, elems))
    return _record(m, elems, stab, {})


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
        assert _expand(13, _block_form(m13, s.elems)) == s.elems


def test_structured_form_from_record_stabilizer(m7, m13):
    for d in range(1, 14):
        for rec in enumerate_orbits(m13, d):
            assert rec == _block_form(m13, rec.rep.elems)
    for wrong in ((1, 6), (1, 3, 5)):
        with pytest.raises(ContractViolationError):
            _block_form(m7, (1, 2, 4), wrong)
    # {1, 3} . {1, 2} gives back {1, 2, 3, 6}, but {1, 3} is no subgroup
    with pytest.raises(ContractViolationError):
        _block_form(m7, (1, 2, 3, 6), (1, 3))


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


def test_enumerate_chunk_size_invariant(m13, monkeypatch):
    import harmonic_census.orbits as orbits_mod

    base = enumerate_orbits(m13, 6)
    for rows in (1, 64):
        monkeypatch.setattr(orbits_mod, "_CHUNK_ROWS", rows)
        assert enumerate_orbits(m13, 6) == base


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
