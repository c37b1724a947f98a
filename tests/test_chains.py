import random

import pytest

from artifact import (
    GF,
    QQ,
    ZZ,
    ChainMap,
    ConnComplex,
    Matrix,
    classify,
    complex_from_json,
    complex_to_json,
    compose_maps,
    disk,
    factor_cof_trivfib,
    factor_trivcof_fib,
    homology,
    identity,
    identity_chain_map,
    is_exact,
    lift_square,
    map_from_json,
    map_to_json,
    mapping_cone,
    rlp_generator_check,
    sphere,
    tensor,
    tensor_blocks,
    tensor_map,
    zeros,
)
from artifact.errors import (
    ClassError,
    DomainError,
    NotAComplex,
    RingError,
    ShapeError,
    SquareError,
)

from oracles import (
    null_homotopic_map,
    random_chain_map,
    random_complex,
    random_lifting_square,
)


def zmat(rows, cols, entries):
    return Matrix(ZZ, rows, cols, tuple(tuple(row) for row in entries))


def collapse_summand():
    """S(0) + D(1) -> S(0), killing the exact disk summand."""
    c = ConnComplex(ZZ, (2, 1), {1: zmat(2, 1, [[0], [1]])})
    return ChainMap(c, sphere(0), {0: zmat(1, 2, [[1, 0]])})


def test_complex_constructor_guards():
    with pytest.raises(NotAComplex):
        ConnComplex(ZZ, (1, 1, 1), {1: zmat(1, 1, [[1]]), 2: zmat(1, 1, [[1]])})
    with pytest.raises(ShapeError):
        ConnComplex(ZZ, (1, 2), {1: zmat(1, 1, [[1]])})
    with pytest.raises(RingError):
        ConnComplex(ZZ, (1, 1), {1: Matrix(QQ, 1, 1, ((1,),))})
    with pytest.raises(ValueError):
        ConnComplex(ZZ, (), {})
    with pytest.raises(ValueError):
        ConnComplex(ZZ, (1, -1), {})
    with pytest.raises(ValueError):
        ConnComplex(ZZ, (1,), {3: zmat(1, 1, [[0]])})


def test_complex_zero_extends_beyond_top():
    x = sphere(1)
    assert x.rank(5) == 0
    assert x.diff(3).rows == 0 and x.diff(3).cols == 0
    assert x.diff(1).rows == 0 and x.diff(1).cols == 1


def test_chain_map_requires_commuting_components():
    d2 = disk(2)
    with pytest.raises(NotAComplex):
        ChainMap(d2, d2, {1: identity(ZZ, 1), 2: zeros(ZZ, 1, 1)})
    f = ChainMap(d2, d2, {1: identity(ZZ, 1), 2: identity(ZZ, 1)})
    assert f == identity_chain_map(d2)
    assert f.component(7).rows == 0


def test_sphere_and_disk_shapes_and_homology():
    assert sphere(0).ranks == (1,)
    assert sphere(2).ranks == (0, 0, 1)
    assert disk(1).ranks == (1, 1)
    assert disk(3, QQ).diff(3) == identity(QQ, 1)
    with pytest.raises(DomainError):
        sphere(-1)
    with pytest.raises(DomainError):
        disk(0)
    hs = homology(sphere(2))
    assert [h.free_rank for h in hs] == [0, 0, 1]
    assert is_exact(disk(4))


def test_compose_and_identity_maps():
    x = sphere(1)
    f = identity_chain_map(x)
    assert compose_maps(f, f) == f
    with pytest.raises(ShapeError):
        compose_maps(f, identity_chain_map(sphere(2)))


# ---------------------------------------------------------------------------
# tensor product


def test_tensor_block_layout_orders_by_left_degree():
    x = ConnComplex(ZZ, (1, 1), {1: zmat(1, 1, [[2]])})
    layout = tensor_blocks(x, x)
    assert layout[1] == ((0, 1, 0, 1), (1, 0, 1, 1))
    assert layout[2] == ((1, 1, 0, 1),)


def test_tensor_of_spheres_concentrates_in_total_degree():
    t = tensor(sphere(1), sphere(1))
    assert t.ranks == (0, 0, 1)
    assert is_exact(tensor(disk(1), sphere(1)))


def test_tensor_with_torsion_matches_by_hand():
    x = ConnComplex(ZZ, (1, 1), {1: zmat(1, 1, [[2]])})
    t = tensor(x, x)
    assert t.ranks == (1, 2, 1)
    assert t.diff(1).entries == ((2, 2),)
    assert t.diff(2).entries == ((2,), (-2,))
    hs = homology(t)
    assert [(h.free_rank, h.torsion) for h in hs] == [(0, (2,)), (0, (2,)), (0, ())]


def test_tensor_map_respects_identity_and_composition():
    rng = random.Random(3)
    for _ in range(10):
        x = random_complex(rng, ZZ, max_top=2, max_rank=2)
        y = random_complex(rng, ZZ, max_top=2, max_rank=2)
        assert tensor_map(identity_chain_map(x), identity_chain_map(y)) == (
            identity_chain_map(tensor(x, y))
        )
        f = random_chain_map(rng, ZZ)
        g = random_chain_map(rng, ZZ)
        ff = compose_maps(f, identity_chain_map(f.source))
        assert tensor_map(ff, g).source == tensor(f.source, g.source)


def test_tensor_ring_mismatch():
    with pytest.raises(RingError):
        tensor(sphere(1), sphere(1, QQ))


# ---------------------------------------------------------------------------
# mapping cone and classification


def test_mapping_cone_of_identity_is_exact():
    cone = mapping_cone(identity_chain_map(sphere(0)))
    assert cone.ranks == (1, 1)
    assert is_exact(cone)


def test_mapping_cone_shifts_the_source():
    f = ChainMap(sphere(1), ConnComplex(ZZ, (0,)), {})
    cone = mapping_cone(f)
    assert cone.ranks == (0, 0, 1)
    assert [h.free_rank for h in homology(cone)] == [0, 0, 1]


def test_classify_pinned_examples():
    s1, d2 = sphere(1), disk(2)
    iota = ChainMap(s1, d2, {1: identity(ZZ, 1)})
    mc = classify(iota)
    assert (mc.fibration, mc.cofibration, mc.weak_equivalence) == (False, True, False)
    assert not mc.trivial_cofibration and not mc.trivial_fibration

    ident = classify(identity_chain_map(s1))
    assert ident.trivial_fibration and ident.trivial_cofibration

    # doubling is injective but has torsion cokernel: no class over Z
    dbl = ChainMap(s1, s1, {1: zmat(1, 1, [[2]])})
    mcd = classify(dbl)
    assert not mcd.cofibration and not mcd.fibration and not mcd.weak_equivalence
    # over Q the same map is an isomorphism
    dbl_q = ChainMap(sphere(1, QQ), sphere(1, QQ), {1: Matrix(QQ, 1, 1, ((2,),))})
    mcq = classify(dbl_q)
    assert mcq.trivial_fibration and mcq.trivial_cofibration

    # collapsing S(0) + D(1) onto S(0): trivial fibration, not a cofibration
    mcp = classify(collapse_summand())
    assert mcp.trivial_fibration and not mcp.cofibration


def test_homology_and_classify_take_one_smith_decomposition_per_matrix(monkeypatch):
    import artifact.chains as chains

    rng = random.Random(71)
    complexes = [random_complex(rng, ZZ, max_top=3) for _ in range(5)]
    maps = [random_chain_map(rng, ZZ) for _ in range(5)]
    calls = []
    snf = chains.smith_normal_form
    monkeypatch.setattr(chains, "smith_normal_form", lambda a: calls.append(a) or snf(a))

    def forbidden(*args):
        raise AssertionError("homology and classify need no kernel basis or solve")

    monkeypatch.setattr(chains, "kernel_basis", forbidden)
    monkeypatch.setattr(chains, "solve", forbidden)
    for x in complexes:
        calls.clear()
        homology(x)
        assert len(calls) == x.top + 1
    for f in maps:
        calls.clear()
        classify(f)
        components = max(f.source.top, f.target.top) + 1
        assert len(calls) == components + mapping_cone(f).top + 1


# ---------------------------------------------------------------------------
# factorizations


def test_factor_sphere_to_zero_through_a_disk():
    f = ChainMap(sphere(1), ConnComplex(ZZ, (0,)), {})
    left, right = factor_cof_trivfib(f)
    assert compose_maps(right, left) == f
    assert left.target.ranks == (0, 1, 1)
    assert left.target.diff(2).entries == ((1,),)
    assert classify(left).cofibration
    assert classify(right).trivial_fibration

    left2, right2 = factor_trivcof_fib(f)
    assert compose_maps(right2, left2) == f
    assert left2.target.ranks == (0, 1)
    assert classify(left2).trivial_cofibration
    assert classify(right2).fibration


def test_factor_identity_point_adds_one_collapsing_cell():
    f = identity_chain_map(sphere(0))
    left, right = factor_cof_trivfib(f)
    assert compose_maps(right, left) == f
    assert left.target.ranks == (2, 1)
    assert left.target.diff(1).entries == ((-1,), (1,))
    assert right.component(0).entries == ((1, 1),)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)])
def test_factorizations_compose_and_classify_on_random_maps(ring):
    rng = random.Random(101)
    for _ in range(15):
        f = random_chain_map(rng, ring)
        left, right = factor_trivcof_fib(f)
        assert compose_maps(right, left) == f
        assert classify(left).trivial_cofibration
        assert classify(right).fibration
        left, right = factor_cof_trivfib(f)
        assert compose_maps(right, left) == f
        assert classify(left).cofibration
        assert classify(right).trivial_fibration


def test_factor_rejects_ring_mismatch():
    f = ChainMap(sphere(1), ConnComplex(ZZ, (0,)), {})
    g = ChainMap(sphere(1, QQ), ConnComplex(QQ, (0,)), {})
    with pytest.raises(ShapeError):
        compose_maps(f, g)


# ---------------------------------------------------------------------------
# lifting


def test_lift_square_solves_a_pinned_square():
    # f: 0 -> S(0) against the collapse of an added disk; the lift must
    # hit the surviving generator
    zero = ConnComplex(ZZ, (0,))
    s0 = sphere(0)
    g = collapse_summand()
    f = ChainMap(zero, s0, {})
    top = ChainMap(zero, g.source, {})
    bottom = identity_chain_map(s0)
    lift = lift_square(f, g, top, bottom)
    assert compose_maps(lift, f) == top
    assert compose_maps(g, lift) == bottom
    assert lift.component(0).entries[0] == (1,)


def test_lift_square_on_generated_squares():
    rng = random.Random(5)
    for ring in (ZZ, GF(3), QQ):
        for _ in range(8):
            f, g, top, bottom = random_lifting_square(rng, ring)
            lift = lift_square(f, g, top, bottom)
            assert compose_maps(lift, f) == top
            assert compose_maps(g, lift) == bottom
            # the lift is itself a chain map by construction of ChainMap


def test_lift_square_rejects_bad_squares():
    zero = ConnComplex(ZZ, (0,))
    s0, s1 = sphere(0), sphere(1)
    g = collapse_summand()
    f = ChainMap(zero, s0, {})
    with pytest.raises(ShapeError):
        lift_square(f, g, ChainMap(zero, s1, {}), identity_chain_map(s0))
    # non-commuting square: flip the bottom sign
    into = ChainMap(s0, g.source, {0: zmat(2, 1, [[1], [0]])})
    minus = ChainMap(s0, s0, {0: zmat(1, 1, [[-1]])})
    with pytest.raises(SquareError):
        lift_square(identity_chain_map(s0), g, into, minus)
    # f not a cofibration over Z: doubling has torsion cokernel
    dbl = ChainMap(s0, s0, {0: zmat(1, 1, [[2]])})
    twice_in = ChainMap(s0, g.source, {0: zmat(2, 1, [[2], [0]])})
    with pytest.raises(ClassError):
        lift_square(dbl, g, twice_in, identity_chain_map(s0))
    # g not a trivial fibration: doubling in degree one
    not_tf = ChainMap(s1, s1, {1: zmat(1, 1, [[2]])})
    with pytest.raises(ClassError):
        lift_square(
            ChainMap(zero, s1, {}),
            not_tf,
            ChainMap(zero, s1, {}),
            ChainMap(s1, s1, {1: zmat(1, 1, [[2]])}),
        )


# ---------------------------------------------------------------------------
# generator lifting checks


def test_rlp_report_on_pinned_maps():
    s1 = sphere(1)
    rep = rlp_generator_check(identity_chain_map(s1), 2)
    assert rep.certifies_trivial_fibration and rep.certifies_fibration
    rep = rlp_generator_check(collapse_summand(), 2)
    assert rep.certifies_trivial_fibration
    iota = ChainMap(s1, disk(2), {1: identity(ZZ, 1)})
    rep = rlp_generator_check(iota, 3)
    assert not rep.certifies_trivial_fibration and not rep.certifies_fibration
    # max_n = 0 checks only the point generator
    rep = rlp_generator_check(identity_chain_map(s1), 0)
    assert rep.sphere_to_disk == () and rep.zero_to_disk == ()
    assert rep.point_surjection


def test_rlp_matches_classifier_on_random_maps():
    rng = random.Random(17)
    for ring in (ZZ, GF(2)):
        for _ in range(20):
            f = random_chain_map(rng, ring)
            mc = classify(f)
            rep = rlp_generator_check(f, max(f.source.top, f.target.top) + 1)
            assert rep.certifies_trivial_fibration == mc.trivial_fibration
            assert rep.certifies_fibration == mc.fibration


def test_null_homotopic_maps_are_chain_maps():
    rng = random.Random(29)
    for _ in range(10):
        x = random_complex(rng, ZZ)
        y = random_complex(rng, ZZ)
        f = null_homotopic_map(rng, ZZ, x, y)
        assert f.source == x and f.target == y


# ---------------------------------------------------------------------------
# JSON


def test_complex_json_round_trip():
    x = ConnComplex(ZZ, (1, 2, 1), {1: zmat(1, 2, [[2, 0]]), 2: zmat(2, 1, [[0], [3]])})
    assert complex_from_json(complex_to_json(x)) == x
    obj = complex_to_json(x)
    assert set(obj) == {"ring", "top", "ranks", "diffs"}
    assert "1" in obj["diffs"]


def test_complex_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        complex_from_json({"ring": "Z", "top": 0})
    with pytest.raises(ValueError):
        complex_from_json({"ring": "Z", "top": 1, "ranks": [1], "diffs": {}})
    bad = {
        "ring": "Z",
        "top": 2,
        "ranks": [1, 1, 1],
        "diffs": {
            "1": {"rows": 1, "cols": 1, "entries": [[1]]},
            "2": {"rows": 1, "cols": 1, "entries": [[1]]},
        },
    }
    with pytest.raises(NotAComplex):
        complex_from_json(bad)


def test_map_json_round_trip():
    f = ChainMap(sphere(1), disk(2), {1: identity(ZZ, 1)})
    assert map_from_json(map_to_json(f)) == f
    rng = random.Random(31)
    for _ in range(5):
        g = random_chain_map(rng, QQ)
        assert map_from_json(map_to_json(g)) == g
