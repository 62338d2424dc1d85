import json
import math
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from harmonic_census import (
    BudgetExceededError,
    ContractViolationError,
    GeneratorSet,
    PrimeModulus,
    build_frame,
    count_harmonic_frames,
    full_symmetry_group,
    gram,
    gram_automorphisms,
    stabilizer,
)
from harmonic_census.cli import main
from harmonic_census.symmetry import _check_generators

import oracles
from oracles import enumerate_orbits

M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def test_guaranteed_subgroup_examples():
    r = full_symmetry_group(GeneratorSet(M5, (1, 2)))
    assert (r.stabilizer_order, r.subgroup_order) == (1, 5)
    r = full_symmetry_group(GeneratorSet(M5, (1, 4)))
    assert (r.stabilizer_order, r.subgroup_order) == (2, 10)
    r = full_symmetry_group(GeneratorSet(M7, (1, 2, 4)))
    assert (r.stabilizer_order, r.subgroup_order) == (3, 21)


def test_guaranteed_subgroup_element_kinds():
    r = full_symmetry_group(GeneratorSet(M5, (1, 4)))
    assert len(r.subgroup_permutations) == 10
    # generator descriptions name both generators; Q swaps the two slots
    assert r.generators_found[0] == {"kind": "diagonal", "exponents": [1, 4]}
    assert r.generators_found[1]["kind"] == "block_perm"
    assert r.generators_found[1]["slot_perm"] == [1, 0]


def test_guaranteed_subgroup_matrices_exact():
    """D = diag(w^(n_k)) and the slot permutation Q move the frame's columns
    m to m + 1 and to h m, exactly, on the exponents of w."""
    for m, elems in ((M5, (1, 4)), (M7, (1, 2, 4)), (PrimeModulus(13), (0, 1, 3, 9))):
        N, s = m.N, GeneratorSet(m, elems)
        D, Q = full_symmetry_group(s).generators_found
        E, cols = build_frame(s).exponents, np.arange(N)
        assert np.array_equal((E + np.array(D["exponents"])[:, None]) % N, E[:, (cols + 1) % N])
        assert np.array_equal(E[Q["slot_perm"]], E[:, Q["unit"] * cols % N])


def test_degenerate_zero_set():
    r = full_symmetry_group(GeneratorSet(M5, (0,)))
    assert r.subgroup_order == 1
    assert r.stabilizer_order == 4
    full = full_symmetry_group(GeneratorSet(M5, (0,)))
    assert full.full_group_order == 1
    assert full.conjecture_holds is True
    # every permutation preserves the Gram; S_N is refused, not listed
    with pytest.raises(BudgetExceededError) as exc:
        gram_automorphisms(GeneratorSet(M5, (0,)))
    assert (exc.value.required, exc.value.budget) == (120, 20)
    with pytest.raises(BudgetExceededError) as exc:
        gram_automorphisms(GeneratorSet(PrimeModulus(2**31 - 1), (0,)))
    assert exc.value.required == 2**31 - 1
    # at N = 2, S_2 is AGL(1, 2) and is listed for every set
    m2 = PrimeModulus(2)
    for elems in ((0,), (1,), (0, 1)):
        assert list(gram_automorphisms(GeneratorSet(m2, elems))) == [(0, 1), (1, 0)]


def test_zero_set_report():
    """{0} is N copies of one vector: both groups are the identity, listed
    once and shared, and nothing of size N is built at the top of the range.
    The report is frozen and its verdict is computed from the two orders."""
    r = full_symmetry_group(GeneratorSet(M5, (0,)))
    assert r.subgroup_order == r.full_group_order == 1
    assert list(r.subgroup_permutations) == [(0, 1, 2, 3, 4)]
    assert r.full_permutations is r.subgroup_permutations
    for name in ("note", "full_group_order", "conjecture_holds"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    start = time.perf_counter()
    r = full_symmetry_group(GeneratorSet(PrimeModulus(2**31 - 1), (0,)))
    assert r.subgroup_order == r.full_group_order == 1
    assert len(r.subgroup_permutations) == len(r.full_permutations) == 1
    assert time.perf_counter() - start < 1


def test_gram_automorphisms_trivial_stabilizer():
    autos = oracles.gram_automorphisms(gram(build_frame(GeneratorSet(M5, (1, 2)))))
    assert len(autos) == 5
    shifts = sorted(tuple((m + b) % 5 for m in range(5)) for b in range(5))
    assert autos == shifts


def test_gram_automorphisms_pm_structure():
    autos = oracles.gram_automorphisms(gram(build_frame(GeneratorSet(M5, (1, 4)))))
    assert len(autos) == 10
    expected = sorted(
        tuple((sign * j + b) % 5 for j in range(5))
        for sign in (1, -1)
        for b in range(5)
    )
    assert autos == expected


def test_gram_automorphisms_fix_diagonal():
    g = gram(build_frame(GeneratorSet(M7, (1, 2, 4))))
    for sigma in oracles.gram_automorphisms(g):
        for j in range(7):
            for k in range(7):
                assert g.difference_label(sigma[k] - sigma[j]) == g.difference_label(k - j)


def test_gram_automorphism_budget():
    with pytest.raises(BudgetExceededError):
        oracles.gram_automorphisms(
            gram(build_frame(GeneratorSet(PrimeModulus(37), (1, 2)))), max_N=31
        )
    # degenerate label structure is refused rather than enumerated
    with pytest.raises(BudgetExceededError):
        oracles.gram_automorphisms(gram(build_frame(GeneratorSet(M5, (1, 2, 3, 4)))))


def test_full_symmetry_group_examples():
    r = full_symmetry_group(GeneratorSet(M5, (1, 2)))
    assert r.full_group_order == 5 and r.conjecture_holds
    r = full_symmetry_group(GeneratorSet(M5, (1, 4)))
    assert r.full_group_order == 10 and r.conjecture_holds
    r = full_symmetry_group(GeneratorSet(M7, (0, 1, 6)))
    assert r.subgroup_order == 14
    assert r.full_group_order == 14


def test_full_group_closure_and_containment():
    for elems, m in [((1, 2), M5), ((1, 4), M5), ((0, 1, 6), M7), ((1, 2, 4), M7)]:
        r = full_symmetry_group(GeneratorSet(m, elems))
        N = m.N
        perms = set(r.full_permutations)
        assert set(r.subgroup_permutations) <= perms
        for a in perms:
            inv = tuple(sorted(range(N), key=lambda j: a[j]))
            assert inv in perms
            for b in perms:
                assert tuple(a[b[j]] for j in range(N)) in perms
        # necessity: realized permutations preserve the Gram labels
        g = gram(build_frame(GeneratorSet(m, elems)))
        assert perms <= set(oracles.gram_automorphisms(g))


def test_corollary_trivial_stabilizer_gives_shifts():
    for N, d in [(5, 2), (7, 3), (11, 2)]:
        m = PrimeModulus(N)
        for rec in enumerate_orbits(m, d):
            if rec.stab_order != 1:
                continue
            r = full_symmetry_group(rec.rep)
            assert r.full_group_order == N
            shifts = {tuple((j + b) % N for j in range(N)) for b in range(N)}
            assert set(r.full_permutations) == shifts


def test_simplex_counterexample():
    """The all-units set is a regular simplex; every permutation lifts to a
    unitary, so the guaranteed subgroup is strictly smaller.  Cross-check
    the closed form against exhaustive verification at N=5."""
    r = full_symmetry_group(GeneratorSet(M5, (1, 2, 3, 4)))
    assert r.subgroup_order == 20
    assert r.full_group_order == 120
    assert r.conjecture_holds is False

    frame = build_frame(GeneratorSet(M5, (1, 2, 3, 4)))
    every = np.array(list(permutations(range(5))), dtype=np.int64)
    assert int(oracles.verify_permutations(frame, every).sum()) == 120


def test_full_dimension_closed_form():
    r = full_symmetry_group(GeneratorSet(M5, (0, 1, 2, 3, 4)))
    assert r.subgroup_order == 20
    assert r.full_group_order == 120
    # exhaustive cross-check at N=3: all 6 permutations are symmetries
    m3 = PrimeModulus(3)
    frame = build_frame(GeneratorSet(m3, (0, 1, 2)))
    every = np.array(list(permutations(range(3))), dtype=np.int64)
    assert int(oracles.verify_permutations(frame, every).sum()) == 6


def test_full_group_equals_exhaustive_search_at_n7():
    """The closed form must agree with filtering all 5040 permutations
    through the exact reconstruction check."""
    every = np.array(list(permutations(range(7))), dtype=np.int64)
    for elems in [(1, 2), (0, 1, 6), (1, 2, 4), (0, 1, 2, 4)]:
        s = GeneratorSet(M7, elems)
        frame = build_frame(s)
        keep = oracles.verify_permutations(frame, every)
        exhaustive = {
            tuple(sig) for sig, ok in zip(every.tolist(), keep) if ok
        }
        r = full_symmetry_group(s)
        assert set(r.full_permutations) == exhaustive
        assert r.full_group_order == len(exhaustive)


def test_verify_permutations_rejects_non_symmetries():
    frame = build_frame(GeneratorSet(M5, (1, 2)))
    every = np.array(list(permutations(range(5))), dtype=np.int64)
    keep = oracles.verify_permutations(frame, every)
    assert int(keep.sum()) == 5


def test_reconstructed_element_identity():
    frame = build_frame(GeneratorSet(M5, (1, 2)))
    ident = oracles.reconstructed_element(frame, tuple(range(5)))
    assert ident.denominator == 5
    assert ident.dense[0, 0].tolist() == [5, 0, 0, 0, 0]  # 5 / 5 = 1
    assert not ident.dense[0, 1].any()


def _scan(capsys, N: int, d: int) -> tuple[int, dict]:
    code = main(["scan", "--N", str(N), "--d", str(d), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_conjecture_scan(capsys):
    code, report = _scan(capsys, 7, 3)
    assert code == 0 and len(report["rows"]) == 7
    assert not report["counterexamples"]
    assert all(r["conjecture_holds"] for r in report["rows"])

    assert len(_scan(capsys, 5, 2)[1]["rows"]) == 3
    assert len(_scan(capsys, 11, 2)[1]["rows"]) == 6

    code, report = _scan(capsys, 5, 4)
    assert code == 4
    assert [r["conjecture_holds"] for r in report["rows"]] == [True, False]
    assert report["counterexamples"] == [[1, 2, 3, 4]]


def _check_against_search(s: GeneratorSet, max_N: int = 31) -> None:
    """The closed form against the brute-force oracles: the multipliers that
    keep every label, and the Gram automorphisms by backtracking, each
    realized by an exact unitary reconstruction."""
    N = s.modulus.N
    assert oracles.label_multipliers(s) == stabilizer(s)
    r = full_symmetry_group(s)
    frame = build_frame(s)
    c = len(stabilizer(s))
    assert r.stabilizer_order == c
    assert r.subgroup_order == len(r.subgroup_permutations) == N * c
    subgroup = set(r.subgroup_permutations)
    assert len(subgroup) == N * c
    nonzero = sum(1 for x in s.elems if x)
    if N > 2 and nonzero == N - 1:
        # simplex or basis: the labels coincide and every permutation lifts
        with pytest.raises(BudgetExceededError):
            oracles.gram_automorphisms(gram(frame), max_N=max_N)
        with pytest.raises(BudgetExceededError):
            gram_automorphisms(s)
        assert r.full_group_order == math.factorial(N)
        assert r.full_permutations is None
        assert oracles.verify_permutations(frame, np.array(sorted(subgroup))).all()
        if N <= 7:
            every = np.array(list(permutations(range(N))), dtype=np.int64)
            assert oracles.verify_permutations(frame, every).all()
        return
    autos = gram_automorphisms(s)
    assert list(autos) == oracles.gram_automorphisms(gram(frame), max_N=max_N)
    search = oracles.symmetry_permutations(frame, max_N=max_N)
    assert set(r.full_permutations) == search
    assert subgroup == search
    assert r.full_group_order == len(r.full_permutations) == len(search)
    assert r.conjecture_holds is True


@pytest.mark.parametrize(
    "N, ds",
    [(N, range(1, N + 1)) for N in (2, 3, 5, 7, 11, 13)] + [(17, range(2, 6))],
)
def test_closed_form_matches_search_oracle(N, ds):
    m = PrimeModulus(N)
    for d in ds:
        for rec in enumerate_orbits(m, d):
            if set(rec.rep.elems) == {0}:
                # N copies of one vector, see test_zero_set_report
                assert oracles.label_multipliers(rec.rep) == stabilizer(rec.rep)
                continue
            _check_against_search(rec.rep)


def test_closed_form_past_default_cap():
    for N, elems in [(37, (1, 10, 26)), (37, (0, 1, 6, 31, 36)), (41, (1, 2, 3))]:
        _check_against_search(GeneratorSet(PrimeModulus(N), elems), max_N=N)


def test_listings_are_lazy_and_ordered():
    s = GeneratorSet(PrimeModulus(13), (0, 1, 3, 9))  # c = 3
    r = full_symmetry_group(s)
    perms = r.subgroup_permutations
    assert len(perms) == 39
    assert list(perms) == sorted(perms)
    assert perms[-1] == perms[38]
    with pytest.raises(IndexError):
        perms[39]


def test_generator_checks_reject_a_wrong_unit():
    s = GeneratorSet(M7, (1, 2, 4))
    stab = sorted(stabilizer(s))
    assert _check_generators(s, 2, 3, stab) == [1, 2, 0]
    for h in (1, 3, 6):  # h = 1 misses Stab(S); 3 and 6 do not fix S
        with pytest.raises(ContractViolationError):
            _check_generators(s, h, 3, stab)


def test_generator_check_matches_three_part_oracle():
    """_check_generators compares h^1, ..., h^c with Stab(S) and nothing
    else; it raises exactly when the three separate checks of
    oracles.generator_relations_hold reject, for every S with a nonzero
    element and every unit h at every prime N <= 13.  The oracle accepts
    the phi(c) generators of the cyclic Stab(S), and no other unit."""
    pairs = accepted = generators = 0
    for N in (2, 3, 5, 7, 11, 13):
        m = PrimeModulus(N)
        for d in range(1, N + 1):
            for elems in combinations(range(N), d):
                if not any(elems):
                    continue
                s = GeneratorSet(m, elems)
                stab = sorted(stabilizer(s))
                generators += sum(math.gcd(k, len(stab)) == 1 for k in range(len(stab)))
                for h in range(1, N):
                    pairs += 1
                    if oracles.generator_relations_hold(s, h, len(stab), stab):
                        accepted += 1
                        q = _check_generators(s, h, len(stab), stab)
                        assert [s.elems[k] for k in q] == [h * x % N for x in elems]
                    else:
                        with pytest.raises(ContractViolationError):
                            _check_generators(s, h, len(stab), stab)
    assert pairs == 119_630 and accepted == generators


def test_elements_at_range_edge():
    N = 2**31 - 1
    r = full_symmetry_group(GeneratorSet(PrimeModulus(N), (1, N - 1)))  # c = 2
    assert (r.stabilizer_order, r.full_group_order) == (2, 2 * N)
    assert len(r.subgroup_permutations) == len(r.full_permutations) == 2 * N
    assert r.full_permutations.multipliers == (1, N - 1)


def test_scan_n17_d5_is_fast(capsys):
    start = time.perf_counter()
    code, report = _scan(capsys, 17, 5)
    elapsed = time.perf_counter() - start
    assert len(report["rows"]) == count_harmonic_frames(PrimeModulus(17), 5)
    assert code == 0 and not report["counterexamples"]
    assert elapsed < 2.0, elapsed  # the search it replaces took about 2 s
