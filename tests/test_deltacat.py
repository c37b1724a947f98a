import itertools

import pytest

from artifact import disk
from artifact.deltacat import (
    MonotoneMap,
    Shuffle,
    compose,
    degeneracy,
    degeneracy_set,
    enumerate_jointly_monic_pairs,
    enumerate_shuffles,
    enumerate_surjections,
    epi_mono_factorize,
    face,
    identity_map,
    monotone_from_json,
    monotone_to_json,
    pair_of_shuffle,
    shuffle_count,
    shuffle_of_pair,
    surjection_with_degeneracy_set,
)
from artifact.errors import DomainError, ShapeError
from artifact.simplicial import dk_blocks, dk_transition

from oracles import brute_monotone_maps, brute_shuffles, brute_surjections


def test_monotone_map_validates_values():
    f = MonotoneMap(2, 1, (0, 0, 1))
    assert f(0) == 0 and f(2) == 1
    assert f.is_surjective and not f.is_injective
    with pytest.raises(ValueError):
        MonotoneMap(2, 1, (0, 1, 0))  # not monotone
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (0, 2))  # out of range
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (0,))  # wrong length


def test_a_monotone_map_stores_its_values_as_a_tuple():
    listed = MonotoneMap(1, 1, [0, 1])
    assert listed == MonotoneMap(1, 1, (0, 1)) == identity_map(1)
    assert type(listed.values) is tuple and hash(listed) == hash(identity_map(1))
    assert dk_transition(disk(1), listed) == dk_transition(disk(1), identity_map(1))
    assert Shuffle(1, 1, [2, 1]) == Shuffle(1, 1, (2, 1))


def test_faces_and_degeneracies_are_the_generating_maps():
    assert face(2, 1).values == (0, 2)
    assert face(2, 0).values == (1, 2)
    assert face(2, 2).values == (0, 1)
    assert degeneracy(2, 1).values == (0, 1, 1, 2)
    assert degeneracy(0, 0).values == (0, 0)
    with pytest.raises(IndexError):
        face(2, 3)
    with pytest.raises(IndexError):
        face(2, -1)
    with pytest.raises(IndexError):
        degeneracy(1, 2)


def test_simplicial_identities_on_generators():
    # delta_j delta_i = delta_i delta_{j-1} for i < j
    for n in range(1, 4):
        for j in range(n + 2):
            for i in range(j):
                left = compose(face(n + 1, j), face(n, i))
                right = compose(face(n + 1, i), face(n, j - 1))
                assert left == right
    # sigma_j sigma_i = sigma_i sigma_{j+1} for i <= j
    for n in range(3):
        for i in range(n + 1):
            for j in range(i, n + 1):
                left = compose(degeneracy(n, i), degeneracy(n + 1, j + 1))
                right = compose(degeneracy(n, j), degeneracy(n + 1, i))
                assert left == right


def test_compose_checks_endpoints():
    with pytest.raises(ShapeError):
        compose(face(2, 0), face(2, 0))
    assert compose(identity_map(2), face(2, 1)) == face(2, 1)


def test_epi_mono_factorization_over_all_small_maps():
    for n in range(4):
        for k in range(4):
            for values in brute_monotone_maps(n, k):
                f = MonotoneMap(n, k, values)
                mono, epi = epi_mono_factorize(f)
                assert epi.is_surjective and mono.is_injective
                assert compose(mono, epi) == f


def test_surjection_enumeration_matches_brute_force_and_is_descending():
    for n in range(5):
        for k in range(5):
            got = enumerate_surjections(n, k)
            assert {f.values for f in got} == brute_surjections(n, k)
            values = [f.values for f in got]
            assert values == sorted(values, reverse=True)


def test_surjection_order_is_pinned_at_low_levels():
    assert [f.values for f in enumerate_surjections(2, 1)] == [(0, 1, 1), (0, 0, 1)]
    assert [f.values for f in enumerate_surjections(3, 1)] == [
        (0, 1, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 1),
    ]
    assert [f.values for f in enumerate_surjections(3, 2)] == [
        (0, 1, 2, 2),
        (0, 1, 1, 2),
        (0, 0, 1, 2),
    ]


def test_enumerations_return_fresh_lists():
    surj = enumerate_surjections(3, 2)
    expect = [f.values for f in surj]
    surj.clear()
    assert [f.values for f in enumerate_surjections(3, 2)] == expect
    pairs = enumerate_jointly_monic_pairs(3, 2, 2)
    expect_pairs = list(pairs)
    pairs.reverse()
    pairs.append(pairs[0])
    assert enumerate_jointly_monic_pairs(3, 2, 2) == expect_pairs


def test_degeneracy_sets_invert_the_repeat_positions():
    f = MonotoneMap(3, 1, (0, 0, 1, 1))
    assert degeneracy_set(f) == (0, 2)
    assert surjection_with_degeneracy_set(3, (0, 2)) == f
    with pytest.raises(DomainError):
        degeneracy_set(MonotoneMap(1, 2, (0, 2)))
    for n in range(5):
        for k in range(n + 1):
            for f in enumerate_surjections(n, k):
                assert surjection_with_degeneracy_set(n, degeneracy_set(f)) == f


def test_jointly_monic_pairs_have_disjoint_degeneracy_sets():
    pairs = enumerate_jointly_monic_pairs(2, 5, 5)
    assert [(f.values, g.values) for f, g in pairs] == [
        ((0, 0, 0), (0, 1, 2)),
        ((0, 1, 1), (0, 0, 1)),
        ((0, 1, 1), (0, 1, 2)),
        ((0, 0, 1), (0, 1, 1)),
        ((0, 0, 1), (0, 1, 2)),
        ((0, 1, 2), (0, 0, 0)),
        ((0, 1, 2), (0, 1, 1)),
        ((0, 1, 2), (0, 0, 1)),
        ((0, 1, 2), (0, 1, 2)),
    ]
    for n in range(4):
        pairs = enumerate_jointly_monic_pairs(n, 3, 3)
        seen = set()
        for f, g in pairs:
            assert not set(degeneracy_set(f)) & set(degeneracy_set(g))
            seen.add((f.values, g.values))
        # brute force: all surjection pairs that are jointly injective
        expect = set()
        for k in range(min(n, 3) + 1):
            for l in range(min(n, 3) + 1):
                for fv in brute_surjections(n, k):
                    for gv in brute_surjections(n, l):
                        joint = list(zip(fv, gv))
                        if len(set(joint)) == len(joint):
                            expect.add((fv, gv))
        assert seen == expect


def test_negative_sizes_enumerate_nothing():
    assert enumerate_surjections(-1, 0) == enumerate_surjections(2, -1) == []
    assert enumerate_jointly_monic_pairs(-1, 1, 1) == enumerate_jointly_monic_pairs(2, 2, -1) == []
    assert dk_blocks(-1) == []


def test_pair_order_respects_target_size_then_descending_values():
    pairs = enumerate_jointly_monic_pairs(3, 3, 3)
    keys = [
        (f.target_top, tuple(-v for v in f.values), g.target_top, tuple(-v for v in g.values))
        for f, g in pairs
    ]
    assert keys == sorted(keys)


def test_shuffle_validation_and_sign():
    nu = Shuffle(2, 1, (1, 3, 2))
    assert nu.sign() == -1
    assert Shuffle(2, 1, (1, 2, 3)).sign() == 1
    with pytest.raises(ValueError):
        Shuffle(2, 1, (3, 1, 2))  # first block not increasing
    with pytest.raises(ValueError):
        Shuffle(2, 1, (1, 1, 2))  # not a permutation


def test_shuffle_enumeration_matches_brute_force_with_signs():
    for p in range(5):
        for q in range(5 - p):
            got = enumerate_shuffles(p, q)
            assert len(got) == shuffle_count(p, q)
            table = brute_shuffles(p, q)
            zero_indexed = {
                tuple(v - 1 for v in nu.perm): nu.sign() for nu in got
            }
            assert zero_indexed == table


def test_shuffle_pair_correspondence_round_trips():
    for n in range(5):
        for nu in (s for p in range(n + 1) for s in enumerate_shuffles(p, n - p)):
            f, g = pair_of_shuffle(nu)
            assert shuffle_of_pair(f, g) == nu
        for f, g in enumerate_jointly_monic_pairs(n, n, n):
            if f.target_top + g.target_top == n:
                nu = shuffle_of_pair(f, g)
                assert pair_of_shuffle(nu) == (f, g)


def test_shuffle_of_pair_rejects_bad_input():
    with pytest.raises(DomainError):
        shuffle_of_pair(MonotoneMap(2, 1, (0, 1, 1)), MonotoneMap(2, 2, (0, 1, 2)))
    with pytest.raises(DomainError):
        shuffle_of_pair(MonotoneMap(2, 1, (0, 1, 1)), MonotoneMap(2, 1, (0, 1, 1)))
    with pytest.raises(ShapeError):
        shuffle_of_pair(MonotoneMap(1, 1, (0, 1)), MonotoneMap(2, 1, (0, 0, 1)))


def test_pinned_degree_two_shuffle_signs():
    sigma_1 = MonotoneMap(2, 1, (0, 1, 1))
    sigma_0 = MonotoneMap(2, 1, (0, 0, 1))
    assert shuffle_of_pair(sigma_1, sigma_0).sign() == 1
    assert shuffle_of_pair(sigma_0, sigma_1).sign() == -1


def test_monotone_json_round_trip():
    f = MonotoneMap(2, 1, (0, 0, 1))
    assert monotone_from_json(monotone_to_json(f)) == f
    with pytest.raises(ValueError):
        monotone_from_json({"source": 1, "target": 1})
    with pytest.raises(ValueError):
        monotone_from_json({"source": 1, "target": 1, "values": [0, "x"]})
    # JSON true and false are not naturals, and every key is known
    for bad in (
        {"source": 1, "target": 1, "values": [0, True]},
        {"source": True, "target": 1, "values": [0, 1]},
        {"source": 1, "target": True, "values": [0, 1]},
        {"source": 1, "target": 1, "values": [0, 1], "extra": 0},
    ):
        with pytest.raises(ValueError):
            monotone_from_json(bad)
