import random

import pytest

from harmonic_census import (
    CyclotomicInt,
    GeneratorSet,
    ModulusMismatchError,
    PrimeModulus,
    Witness,
    act,
    are_equivalent,
    enumerate_orbits,
)
from harmonic_census.equivalence import CERT_ORBIT_MISMATCH, verify_witness

import oracles
from oracles import CERT_ANGLE_MISMATCH, angle_multiset, cross_validate_equivalence

M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def test_equivalent_examples():
    v = are_equivalent(GeneratorSet(M5, (1, 2)), GeneratorSet(M5, (2, 4)))
    assert v.equivalent and v.witness.m0 == 3

    v = are_equivalent(GeneratorSet(M5, (1, 2)), GeneratorSet(M5, (1, 4)))
    assert not v.equivalent and v.certificate == CERT_ORBIT_MISMATCH

    v = are_equivalent(GeneratorSet(M7, (1, 2, 4)), GeneratorSet(M7, (3, 5, 6)))
    assert v.equivalent and v.witness.m0 == 3


def test_witness_smallest_unit():
    a, b = GeneratorSet(M7, (1, 2, 4)), GeneratorSet(M7, (1, 2, 4))
    v = are_equivalent(a, b)
    assert v.witness.m0 == 1  # reflexive pairs use the identity unit


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13])
def test_witness_is_full_scan_minimum(N):
    """The witness tries only m = a0 / y (a0 the smallest nonzero element of
    a, y nonzero in b); it must still be the smallest unit of all N-1."""
    m = PrimeModulus(N)
    for d in range(1, N + 1):
        for rec in enumerate_orbits(m, d):
            orbit = sorted({act(u, rec.rep).elems for u in range(1, N)})
            for ea in orbit:
                for eb in orbit:
                    v = are_equivalent(GeneratorSet(m, ea), GeneratorSet(m, eb))
                    assert v.witness.m0 == oracles.witness_multiplier(N, ea, eb)


def test_witness_verified_exactly():
    rng = random.Random(5)
    m13 = PrimeModulus(13)
    for _ in range(30):
        d = rng.randint(1, 6)
        a = GeneratorSet(m13, tuple(rng.sample(range(13), d)))
        b = act(rng.randint(1, 12), a)
        v = are_equivalent(a, b)
        assert v.equivalent
        assert verify_witness(a, b, v.witness)


@pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13])
def test_witness_check_matches_frame_oracle(N):
    """The congruences on the generators accept and reject exactly what the
    entrywise check on both frame matrices does: every ordered pair in one
    orbit per d, and up to three tampered witnesses per pair."""
    m = PrimeModulus(N)
    for d in range(1, N + 1):
        rep = enumerate_orbits(m, d)[-1].rep
        orbit = [GeneratorSet(m, e) for e in sorted({act(u, rep).elems for u in range(1, N)})]
        for a in orbit:
            for b in orbit:
                w = are_equivalent(a, b).witness
                assert verify_witness(a, b, w)
                assert oracles.verify_witness_frames(a, b, w)
                perm = w.coordinate_perm
                tampered = [Witness(w.m0, perm[:-1])]
                if N > 2 and any(a.elems):
                    tampered.append(Witness(w.m0 % (N - 1) + 1, perm))
                if d >= 2:
                    tampered.append(Witness(w.m0, (perm[1], perm[0], *perm[2:])))
                for bad in tampered:
                    assert not verify_witness(a, b, bad)
                    assert not oracles.verify_witness_frames(a, b, bad)


def test_equivalence_relation_properties():
    rng = random.Random(17)
    m11 = PrimeModulus(11)
    sets = [
        GeneratorSet(m11, tuple(rng.sample(range(11), 3))) for _ in range(12)
    ]
    for s in sets:
        assert are_equivalent(s, s).equivalent
    for x in sets:
        for y in sets:
            fwd = are_equivalent(x, y)
            back = are_equivalent(y, x)
            assert fwd.equivalent == back.equivalent
            if fwd.equivalent:
                # the two witnesses are inverse re-indexings
                assert (fwd.witness.m0 * back.witness.m0) % 11 == 1 or (
                    fwd.witness.m0 == back.witness.m0 == 1
                )
    for x in sets:
        for y in sets:
            for z in sets:
                if (
                    are_equivalent(x, y).equivalent
                    and are_equivalent(y, z).equivalent
                ):
                    assert are_equivalent(x, z).equivalent


def test_verdict_matches_independent_pairwise_search():
    rng = random.Random(41)
    m13 = PrimeModulus(13)
    for _ in range(60):
        d = rng.randint(1, 5)
        a = GeneratorSet(m13, tuple(rng.sample(range(13), d)))
        b = GeneratorSet(m13, tuple(rng.sample(range(13), d)))
        expected = any(act(m, b) == a for m in range(1, 13))
        assert are_equivalent(a, b).equivalent == expected


def test_mismatch_errors():
    with pytest.raises(ModulusMismatchError):
        are_equivalent(GeneratorSet(M5, (1, 2)), GeneratorSet(M7, (1, 2)))
    with pytest.raises(ModulusMismatchError):
        are_equivalent(GeneratorSet(M5, (1, 2)), GeneratorSet(M5, (1, 2, 3)))


def test_angle_multiset_full_dimension():
    s = GeneratorSet(M5, (0, 1, 2, 3, 4))
    assert all(a == CyclotomicInt.zero(M5) for a in angle_multiset(s))


def test_angle_multiset_example():
    from harmonic_census import root_power

    angles = angle_multiset(GeneratorSet(M5, (1, 4)))
    pair_14 = root_power(M5, 1) + root_power(M5, 4)
    pair_23 = root_power(M5, 2) + root_power(M5, 3)
    assert sorted(angles, key=lambda a: a.coeffs) == sorted(
        [pair_14, pair_14, pair_23, pair_23], key=lambda a: a.coeffs
    )


def test_angle_multiset_action_invariance():
    rng = random.Random(23)
    m13 = PrimeModulus(13)
    for _ in range(20):
        d = rng.randint(1, 6)
        s = GeneratorSet(m13, tuple(rng.sample(range(13), d)))
        base = angle_multiset(s)
        for m in range(1, 13):
            assert angle_multiset(act(m, s)) == base


def test_cross_validate():
    rep = cross_validate_equivalence(M7, 3)
    assert rep.n_orbits == 7
    assert rep.cross_pairs_checked == 21
    assert rep.certificates[CERT_ANGLE_MISMATCH] + rep.certificates[
        CERT_ORBIT_MISMATCH
    ] == 21

    rep = cross_validate_equivalence(M5, 2)
    assert rep.n_orbits == 3
    assert not rep.collisions

    rep = cross_validate_equivalence(PrimeModulus(11), 2)
    assert rep.n_orbits == 6
