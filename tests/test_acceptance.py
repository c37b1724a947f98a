"""Acceptance gate: one test per contracted behavior, with pinned budgets.

Each test is independent and seeded; a -v run gives one pass/fail line per
item.  Runtime budgets are asserted inside the tests that carry one.
"""

import random
import time
from math import comb

from artifact import (
    GF,
    QQ,
    ZZ,
    ConnComplex,
    FinPoset,
    Matrix,
    boxtimes_generator_tests,
    classify,
    compose_maps,
    dk,
    enumerate_shuffles,
    ez_map,
    factor_cof_trivfib,
    factor_trivcof_fib,
    free_module,
    homology,
    homology_at,
    is_exact,
    lift_square,
    mapping_cone,
    nerve,
    nor,
    nor_tensor_compare,
    rlp_generator_check,
    ring_ops,
    shuffle_product,
    simplex_set,
    sphere,
    tensor,
    verify_nerve_contraction,
)
from artifact.deltacat import MonotoneMap
from artifact.simplicial import dk_transition

from oracles import (
    brute_homology_dim,
    posets_with_least_element,
    random_chain_map,
    random_cofibration,
    random_complex,
    random_lifting_square,
    random_trivial_cofibration,
)


def test_01_transition_matrix_of_the_level_two_inclusion_is_pinned():
    """For every unit-rank complex the (0,1) inclusion acts by the displayed
    two-by-four block matrix, bit-exactly, in under a second."""
    started = time.perf_counter()
    eta = MonotoneMap(1, 2, (0, 1))
    for ring in (ZZ, GF(5)):
        ops = ring_ops(ring)
        scalars = [ops.canon(v) for v in range(-3, 4)]
        cases = [(d1, ops.zero) for d1 in scalars] + [(ops.zero, d2) for d2 in scalars]
        for d1, d2 in cases:
            x = ConnComplex(
                ring,
                (1, 1, 1),
                {1: Matrix(ring, 1, 1, ((d1,),)), 2: Matrix(ring, 1, 1, ((d2,),))},
            )
            expected = Matrix(
                ring,
                2,
                4,
                (
                    (ops.one, ops.zero, ops.neg(d1), ops.zero),
                    (ops.zero, ops.one, ops.zero, d2),
                ),
            )
            assert dk_transition(x, eta) == expected
            assert dk(x, 2).face(2, 2) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_cell_and_shuffle_counts_are_binomial():
    for n in range(5):
        u = simplex_set(n, 5)
        for m in range(6):
            assert u.cell_count(m) == comb(n + m + 1, n)
    for p in range(9):
        for q in range(9 - p):
            assert len(enumerate_shuffles(p, q)) == comb(p + q, p)


def test_03_nerves_of_pointed_posets_are_acyclic_with_exact_contraction():
    """Exhaustive over isomorphism classes of posets with a least element on
    at most four points: integral homology collapses to a single Z and the
    prefix homotopy certifies the contraction, within thirty seconds."""
    started = time.perf_counter()
    tables = [posets_with_least_element(n) for n in range(1, 5)]
    assert [len(t) for t in tables] == [1, 1, 2, 5]
    for group in tables:
        for leq in group:
            p = FinPoset(tuple(range(len(leq))), leq)
            hs = homology(nor(free_module(nerve(p, 4), ZZ)).complex)
            assert hs[0].free_rank == 1 and hs[0].torsion == ()
            assert all(hs[d].is_zero for d in range(1, 4))
            assert verify_nerve_contraction(p, 4, ZZ).verified
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_04_normalization_of_the_interval_is_pinned_over_three_rings():
    for ring in (ZZ, QQ, GF(5)):
        ops = ring_ops(ring)
        res = nor(free_module(simplex_set(1, 2), ring))
        assert res.complex.ranks == (2, 1, 0)
        assert res.complex.diff(1) == Matrix(
            ring, 2, 1, ((ops.one,), (ops.neg(ops.one),))
        )


def test_05_normalization_inverts_the_degreewise_sum_functor():
    """nor(dk(X)) returns X on the nose for 200 random complexes."""
    rng = random.Random(20250501)
    for ring in (ZZ, GF(2)):
        for _ in range(100):
            x = random_complex(rng, ring, max_top=3, max_rank=3, bound=3)
            back = nor(dk(x, x.top)).complex
            assert back == x


def test_06_comparison_map_suite_on_one_hundred_random_pairs():
    """d^2 = 0 on the shuffle product, the tensor product and the cone of
    the comparison map, which are built without that check; the comparison
    map is a chain map with exact cone, and both routes agree in homology
    with torsion, in under a minute."""
    started = time.perf_counter()
    rng = random.Random(20250502)
    for _ in range(100):
        x = random_complex(rng, ZZ, max_top=2, max_rank=2)
        y = random_complex(rng, ZZ, max_top=2, max_rank=2)
        s = shuffle_product(x, y).underlying
        nabla = ez_map(x, y)
        for c in (s, tensor(x, y), mapping_cone(nabla)):
            for n in range(2, c.top + 1):
                assert (c.diff(n - 1) @ c.diff(n)).is_zero
        for n in range(1, s.top + 1):
            assert nabla.target.diff(n) @ nabla.component(n) == (
                nabla.component(n - 1) @ nabla.source.diff(n)
            )
        assert is_exact(mapping_cone(nabla))
        assert homology(tensor(x, y)) == homology(s)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_07_normalized_tensor_agrees_with_shuffle_product_to_horizon_four():
    rng = random.Random(20250503)
    for ring in (ZZ, GF(2)):
        for _ in range(25):
            x = random_complex(rng, ring, max_top=2, max_rank=2)
            y = random_complex(rng, ring, max_top=2, max_rank=2)
            report = nor_tensor_compare(dk(x, 4), dk(y, 4))
            assert report.horizon == 4
            assert report.ranks_match, (x.ranks, y.ranks)
            assert report.homology_matches, (x.ranks, y.ranks)


def test_08_both_factorizations_compose_exactly_with_exact_classes():
    rng = random.Random(20250504)
    rings = [ZZ] * 40 + [QQ] * 20 + [GF(2)] * 20 + [GF(5)] * 20
    for ring in rings:
        f = random_chain_map(rng, ring)
        left, right = factor_trivcof_fib(f)
        assert compose_maps(right, left) == f
        assert classify(left).trivial_cofibration
        assert classify(right).fibration
        left, right = factor_cof_trivfib(f)
        assert compose_maps(right, left) == f
        assert classify(left).cofibration
        assert classify(right).trivial_fibration


def test_09_lifting_squares_from_factorizations_are_solved():
    rng = random.Random(20250505)
    rings = [ZZ] * 20 + [QQ] * 15 + [GF(3)] * 15
    for ring in rings:
        f, g, top, bottom = random_lifting_square(rng, ring)
        lift = lift_square(f, g, top, bottom)
        assert compose_maps(lift, f) == top
        assert compose_maps(g, lift) == bottom
        span = max(lift.source.top, lift.target.top)
        for n in range(1, span + 1):
            assert lift.target.diff(n) @ lift.component(n) == (
                lift.component(n - 1) @ lift.source.diff(n)
            )


def test_10_generator_lifting_checks_match_the_classifier():
    rng = random.Random(20250506)
    rings = [ZZ] * 40 + [QQ] * 20 + [GF(2)] * 20 + [GF(5)] * 20
    for ring in rings:
        f = random_chain_map(rng, ring)
        mc = classify(f)
        rep = rlp_generator_check(f, max(f.source.top, f.target.top) + 1)
        assert rep.certifies_trivial_fibration == mc.trivial_fibration
        assert rep.certifies_fibration == mc.fibration


def test_11_shuffle_with_generators_preserves_trivial_cofibrations():
    rng = random.Random(20250507)
    for _ in range(25):
        mu = random_cofibration(rng, ZZ)
        for n in (1, 2, 3):
            disk_class, _ = boxtimes_generator_tests(mu, n)
            assert disk_class.cofibration and disk_class.weak_equivalence
    for _ in range(25):
        mu = random_trivial_cofibration(rng, ZZ)
        _, unit_class = boxtimes_generator_tests(mu, 1)
        assert unit_class.cofibration and unit_class.weak_equivalence


def test_12_homology_matches_the_subspace_enumeration_oracle():
    rng = random.Random(20250508)
    for p in (2, 3):
        ring = GF(p)
        checked = 0
        for _ in range(60):
            x = random_complex(rng, ring, max_top=3, max_rank=2)
            if sum(x.ranks) > 6:
                continue
            checked += 1
            for d in range(x.top + 1):
                d_in = x.diff(d + 1)
                d_out = x.diff(d)
                brute = brute_homology_dim(
                    (d_in.rows, d_in.cols, [list(r) for r in d_in.entries]),
                    (d_out.rows, d_out.cols, [list(r) for r in d_out.entries]),
                    p,
                )
                group = homology_at(d_in, d_out)
                assert group.torsion == ()
                assert group.free_rank == brute
        assert checked >= 25
