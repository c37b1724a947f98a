import json
import random
from collections import Counter
from math import comb

import pytest

from artifact import (
    GF,
    QQ,
    ZZ,
    ChainMap,
    ConnComplex,
    FinPoset,
    FinSimplicialSet,
    Matrix,
    SimplicialMap,
    SimplicialModule,
    boundary_simplex_set,
    chain_poset,
    check_simplicial_identities,
    classify,
    compose_maps,
    compose_simplicial,
    copower,
    coproduct,
    cylinder,
    degenerate_part,
    direct_sum_sm,
    disk,
    dk,
    dk_map,
    free_module,
    hcat,
    homology,
    identity,
    identity_chain_map,
    identity_simplicial_map,
    least_element,
    module_from_json,
    module_to_json,
    moore,
    nerve,
    nor,
    nor_map,
    poset_from_json,
    poset_to_json,
    product,
    ring_ops,
    simplex_set,
    solve,
    sphere,
    tensor_sm,
    verify_nerve_contraction,
)
from artifact.cli import change_ring
from artifact.deltacat import MonotoneMap, degeneracy, face
from artifact.errors import DomainError, NotSimplicial, RingError, ShapeError
from artifact.simplicial import dk_blocks, dk_transition

from oracles import (
    dense,
    dense_dk_map,
    dense_dk_transition,
    degeneracy_violating_module,
    iso_simplicial,
    non_simplicial_module,
    random_chain_map,
    random_complex,
    same_as_dense,
    zero_rank_map,
)


# ---------------------------------------------------------------------------
# simplicial sets


def test_simplex_cells_are_weakly_increasing_tuples_in_lex_order():
    d1 = simplex_set(1, 2)
    assert d1.cells[2] == ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
    assert simplex_set(0, 4).cells == tuple(((0,) * (m + 1),) for m in range(5))
    for n in range(5):
        u = simplex_set(n, 5)
        for m in range(6):
            assert u.cell_count(m) == comb(n + m + 1, n)


def test_faces_drop_and_degeneracies_duplicate_coordinates():
    d1 = simplex_set(1, 2)
    cells2 = d1.cells[2]
    cells1 = d1.cells[1]
    i_011 = cells2.index((0, 1, 1))
    assert cells1[d1.face_map(2, 1)[i_011]] == (0, 1)
    assert cells1[d1.face_map(2, 0)[i_011]] == (1, 1)
    i_01 = cells1.index((0, 1))
    assert cells2[d1.degen_map(1, 0)[i_01]] == (0, 0, 1)
    assert cells2[d1.degen_map(1, 1)[i_01]] == (0, 1, 1)


def test_simplicial_set_validates_relations_eagerly():
    # s0 sends both vertices to the one edge, so d0 s0(w) = v breaks d0 s0 = id
    with pytest.raises(NotSimplicial):
        FinSimplicialSet(1, [["v", "w"], ["e"]], [[(0,), (1,)]], [[(0, 0)]])
    # malformed shapes fail before the relation check
    with pytest.raises(ValueError):
        FinSimplicialSet(1, [["v", "w"], ["e"]], [[(0,), (1,)]], [[(0,)]])


def test_boundary_simplex_counts():
    b1 = boundary_simplex_set(1, 3)
    assert [b1.cell_count(m) for m in range(4)] == [2, 2, 2, 2]
    b2 = boundary_simplex_set(2, 1)
    assert b2.cell_count(0) == 3 and b2.cell_count(1) == 6
    with pytest.raises(DomainError):
        boundary_simplex_set(0, 2)


def test_boundary_of_interval_is_two_points():
    two_points = coproduct(simplex_set(0, 3), simplex_set(0, 3))
    assert iso_simplicial(boundary_simplex_set(1, 3), two_points)


def test_nerve_of_a_chain_is_the_simplex():
    for n in range(4):
        assert nerve(chain_poset(n), 3) == simplex_set(n, 3)


def test_nerve_of_an_antichain_has_only_degenerate_chains():
    p = FinPoset(("x", "y"), [[True, False], [False, True]])
    nv = nerve(p, 3)
    assert [nv.cell_count(m) for m in range(4)] == [2, 2, 2, 2]
    assert least_element(p) is None
    assert least_element(chain_poset(2)) == 0


def test_nerve_preserves_products():
    square = FinPoset(
        tuple((i, j) for i in range(2) for j in range(2)),
        [
            [a[0] <= b[0] and a[1] <= b[1] for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
            for a in ((0, 0), (0, 1), (1, 0), (1, 1))
        ],
    )
    interval = simplex_set(1, 2)
    assert iso_simplicial(nerve(square, 2), product(interval, interval))


def test_product_and_coproduct_counts():
    interval = simplex_set(1, 3)
    point = simplex_set(0, 3)
    assert product(interval, interval).cell_count(1) == 9
    assert iso_simplicial(product(point, interval), interval)
    both = coproduct(point, point)
    assert [both.cell_count(m) for m in range(4)] == [2, 2, 2, 2]
    with pytest.raises(ShapeError):
        product(simplex_set(1, 2), simplex_set(1, 3))


def test_poset_validation():
    with pytest.raises(DomainError):
        FinPoset((0, 1), [[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(DomainError):
        FinPoset((0,), [[False]])  # not reflexive
    with pytest.raises(DomainError):
        FinPoset(
            (0, 1, 2),
            [
                [True, True, False],
                [False, True, True],
                [False, False, True],
            ],
        )  # not transitive


# ---------------------------------------------------------------------------
# free modules and identity checking


def test_free_module_ranks_and_matrices():
    m = free_module(simplex_set(1, 3), ZZ)
    assert m.ranks == (2, 3, 4, 5)
    assert m.face(1, 0).entries == ((1, 0, 0), (0, 1, 1))
    assert m.face(1, 1).entries == ((1, 1, 0), (0, 0, 1))
    assert m.degen(0, 0).entries == ((1, 0), (0, 0), (0, 1))
    assert check_simplicial_identities(m).ok
    point = free_module(simplex_set(0, 3), GF(5))
    assert point.ranks == (1, 1, 1, 1)
    assert all(point.face(lv, i) == identity(GF(5), 1) for lv in range(1, 4) for i in range(lv + 1))


def test_identity_checker_reports_injected_fault():
    good = dk(disk(2), 3)
    assert check_simplicial_identities(good).ok
    faces = {
        lv: [good.face(lv, i) for i in range(lv + 1)] for lv in range(1, 4)
    }
    degens = {lv: [good.degen(lv, i) for i in range(lv + 1)] for lv in range(3)}
    bad = faces[2][1]
    bumped = [list(row) for row in bad.entries]
    bumped[0][0] += 1
    faces[2][1] = Matrix(ZZ, bad.rows, bad.cols, tuple(tuple(r) for r in bumped))
    broken = SimplicialModule(ZZ, good.ranks, faces, degens)
    report = check_simplicial_identities(broken)
    assert not report.ok
    for kind, level, i, j in report.violations:
        assert kind in ("face-face", "degen-degen", "face-degen")
    assert any(i == 1 or j == 1 for _, _, i, j in report.violations)


def test_identity_checker_reports_a_broken_degeneracy_relation():
    report = check_simplicial_identities(degeneracy_violating_module())
    assert report.violations == (("degen-degen", 0, 0, 0),)


def test_modules_from_free_nerves_pass_identities():
    p = FinPoset(
        ("e", "a", "b"),
        [[True, True, True], [False, True, False], [False, False, True]],
    )
    assert check_simplicial_identities(free_module(nerve(p, 3), ZZ)).ok


def _built_modules(ring):
    """One module from each builder over ring; dk alone over Z is covered by
    the Dold-Kan tests and the CLI round trip."""
    x = ConnComplex(
        ring,
        (1, 2, 1),
        {1: Matrix.from_rows(ring, [[1, -1]]), 2: Matrix.from_rows(ring, [[1], [1]])},
    )
    vee = FinPoset(
        ("e", "a", "b"),
        [[True, True, True], [False, True, False], [False, False, True]],
    )
    interval = simplex_set(1, 2)
    m = dk(x, 2)
    kappa, xi = cylinder(m)
    assert xi.source == kappa.target and xi.target == m
    built = {
        "free-simplex": free_module(simplex_set(2, 3), ring),
        "free-boundary": free_module(boundary_simplex_set(2, 3), ring),
        "free-nerve": free_module(nerve(vee, 3), ring),
        "free-product": free_module(product(interval, interval), ring),
        "free-coproduct": free_module(coproduct(interval, boundary_simplex_set(1, 2)), ring),
        "tensor": tensor_sm(m, free_module(interval, ring)),
        "direct-sum": direct_sum_sm(m, free_module(interval, ring)),
        "copower": copower(m, boundary_simplex_set(2, 2)),
        "cylinder-ends": kappa.source,
        "cylinder": kappa.target,
        "change-ring": change_ring(free_module(product(interval, interval), QQ), ring),
    }
    if ring != ZZ:
        built["dk"] = dk(x, 3)
    return built


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(5)], ids=str)
def test_built_modules_are_simplicial_and_read_back_from_json(ring):
    for name, m in _built_modules(ring).items():
        assert m.ring == ring, name
        assert check_simplicial_identities(m).ok, name
        assert module_from_json(json.loads(json.dumps(module_to_json(m)))) == m, name


# ---------------------------------------------------------------------------
# Dold-Kan functor


def test_dk_of_the_unit_is_constant():
    m = dk(sphere(0), 3)
    assert m.ranks == (1, 1, 1, 1)
    for lv in range(1, 4):
        for i in range(lv + 1):
            assert m.face(lv, i) == identity(ZZ, 1)
    for lv in range(3):
        for i in range(lv + 1):
            assert m.degen(lv, i) == identity(ZZ, 1)


def test_dk_level_ranks_follow_the_binomial_formula():
    rng = random.Random(13)
    for _ in range(5):
        x = random_complex(rng, ZZ, max_top=3, max_rank=3)
        m = dk(x, 4)
        for n in range(5):
            assert m.rank(n) == sum(comb(n, k) * x.rank(k) for k in range(n + 1))
        assert check_simplicial_identities(m).ok


def test_dk_level_two_block_structure():
    blocks = dk_blocks(2)
    assert [(f.target_top, f.values) for f in blocks] == [
        (0, (0, 0, 0)),
        (1, (0, 1, 1)),
        (1, (0, 0, 1)),
        (2, (0, 1, 2)),
    ]


def test_dk_transition_matrix_for_the_level_two_inclusion():
    x = ConnComplex(
        ZZ,
        (1, 1, 1),
        {1: Matrix(ZZ, 1, 1, ((2,),)), 2: Matrix(ZZ, 1, 1, ((0,),))},
    )
    eta = MonotoneMap(1, 2, (0, 1))
    got = dk_transition(x, eta)
    assert got.entries == ((1, 0, -2, 0), (0, 1, 0, 0))
    m = dk(x, 2)
    assert m.face(2, 2) == got


def test_dk_layout_is_resolved_once_per_structure_map(monkeypatch):
    # a block map of a face or degeneracy is simplex combinatorics only, so
    # _dk_rule keeps it: another complex whose top is no larger reuses the
    # block maps of the first, onto [k] for every k <= top, without
    # factorizing
    import artifact.deltacat as deltacat

    warm = ConnComplex(ZZ, (1, 2, 1, 1))
    assert warm.top == 3
    dk(warm, 3)
    one = Matrix(GF(3), 1, 1, ((1,),))
    x = ConnComplex(GF(3), (1, 1, 1, 1), {1: one, 3: one})

    def forbidden(*args):
        raise AssertionError("a Dold-Kan block map was resolved again")

    monkeypatch.setattr(deltacat, "compose", forbidden)
    monkeypatch.setattr(deltacat, "epi_mono_factorize", forbidden)
    m = dk(x, 3)
    assert check_simplicial_identities(m).ok
    assert m.ranks == tuple(sum(comb(n, k) * x.rank(k) for k in range(n + 1)) for n in range(4))


def test_dk_resolves_only_the_summands_up_to_the_top(monkeypatch):
    # X_k is zero above x.top, so each structure map eta: [m] -> [n]
    # resolves at most one block per surjection [n] ->> [k] with k <= top,
    # not one per each of the 2^n surjections out of [n]
    import artifact.deltacat as deltacat
    from artifact.simplicial import _dk_rule

    x = ConnComplex(ZZ, (1, 1), {1: Matrix(ZZ, 1, 1, ((2,),))})
    horizon = 12
    compose = deltacat.compose
    calls = Counter()

    def counting(g, f):
        calls[f] += 1
        return compose(g, f)

    _dk_rule.cache_clear()
    monkeypatch.setattr(deltacat, "compose", counting)
    m = dk(x, horizon)
    assert m.ranks == tuple(n + 1 for n in range(horizon + 1))
    etas = [face(n, i) for n in range(1, horizon + 1) for i in range(n + 1)]
    etas += [degeneracy(n, i) for n in range(horizon) for i in range(n + 1)]
    assert set(calls) == set(etas)
    for eta in etas:
        n = eta.target_top
        assert calls[eta] <= sum(comb(n, k) for k in range(x.top + 1))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_dk_transition_matches_the_dense_oracle_over_all_blocks(ring):
    # the oracle walks every surjection out of [n], the zero-width blocks
    # onto [k] with k > x.top included, which dk_transition leaves out
    rng = random.Random(706)
    for _ in range(8):
        x = random_complex(rng, ring, max_top=2, max_rank=2)
        for n in range(1, x.top + 3):
            etas = [face(n, i) for i in range(n + 1)] + [degeneracy(n, i) for i in range(n + 1)]
            for m in range(n + 2):
                etas.append(MonotoneMap(m, n, tuple(sorted(rng.choices(range(n + 1), k=m + 1)))))
            for eta in etas:
                got = dense(dk_transition(x, eta))
                assert repr(got) == repr(dense_dk_transition(x, eta.source_top, n, eta.values))


def test_nor_of_the_interval_module_is_pinned():
    for ring in (ZZ, QQ, GF(5)):
        res = nor(free_module(simplex_set(1, 3), ring))
        assert res.complex.ranks[:2] == (2, 1)
        assert all(r == 0 for r in res.complex.ranks[2:])
        ops = ring_ops(ring)
        assert res.complex.diff(1) == Matrix(ring, 2, 1, ((ops.one,), (ops.neg(ops.one),)))


def test_nor_counts_nondegenerate_simplices():
    for n in range(5):
        res = nor(free_module(simplex_set(n, 4), ZZ))
        for m_deg in range(5):
            assert res.complex.rank(m_deg) == comb(n + 1, m_deg + 1)


def test_nor_embeddings_are_kernel_bases():
    m = free_module(simplex_set(2, 3), ZZ)
    res = nor(m)
    for n in range(1, 4):
        emb = res.embeddings[n]
        for i in range(n):
            assert (m.face(n, i) @ emb).is_zero


def test_nor_dk_round_trip_on_spheres():
    for n in range(3):
        x = sphere(n)
        back = nor(dk(x, max(n, 1))).complex
        assert back.ranks[: n + 1] == x.ranks
        assert all(r == 0 for r in back.ranks[n + 1 :])


def test_nor_dk_round_trip_on_random_complexes():
    rng = random.Random(37)
    for ring in (ZZ, GF(3)):
        for _ in range(10):
            x = random_complex(rng, ring, max_top=3, max_rank=3)
            back = nor(dk(x, x.top)).complex
            assert back == x


def test_nor_rejects_a_last_face_leaving_the_normalized_part():
    m = non_simplicial_module(random.Random(701))
    with pytest.raises(NotSimplicial, match="last face"):
        nor(m)


def test_moore_complex_of_the_constant_module():
    c = moore(dk(sphere(0), 4))
    for n in range(1, 5):
        expect = identity(ZZ, 1) if n % 2 == 0 else Matrix(ZZ, 1, 1, ((0,),))
        assert c.diff(n) == expect


def test_moore_splits_into_normalized_and_degenerate_parts():
    rng = random.Random(41)
    candidates = [
        dk(random_complex(rng, ZZ, max_top=2, max_rank=2), 3),
        free_module(simplex_set(2, 3), ZZ),
        free_module(nerve(chain_poset(1), 3), GF(2)),
    ]
    for m in candidates:
        full = moore(m)
        res = nor(m)
        deg = degenerate_part(m)
        assert deg.complex.rank(0) == 0
        for n in range(m.horizon + 1):
            assert res.complex.rank(n) + deg.complex.rank(n) == full.rank(n)
            both = hcat(m.ring, m.rank(n), [res.embeddings[n], deg.embeddings[n]])
            assert solve(both, identity(m.ring, m.rank(n))) is not None


def test_degenerate_part_of_dk_disk():
    m = dk(disk(1), 2)
    assert moore(m).ranks == (1, 2, 3)
    assert nor(m).complex.rank(2) == 0
    assert degenerate_part(m).complex.rank(2) == 3


# ---------------------------------------------------------------------------
# simplicial maps


def test_simplicial_map_must_be_equivariant():
    m = dk(sphere(0), 2)
    double = [identity(ZZ, 1).scale(2) for _ in range(3)]
    f = SimplicialMap(m, m, double)
    assert compose_simplicial(f, identity_simplicial_map(m)) == f
    skew = [identity(ZZ, 1), identity(ZZ, 1).scale(2), identity(ZZ, 1)]
    with pytest.raises(NotSimplicial):
        SimplicialMap(m, m, skew)


def test_dk_map_block_structure_for_the_disk_inclusion():
    g = ChainMap(sphere(0), disk(1), {0: identity(ZZ, 1)})
    f = dk_map(g, 2)
    assert f.component(0).entries == ((1,),)
    assert f.component(1).entries == ((1,), (0,))
    assert check_simplicial_identities(f.target).ok


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_dk_map_matches_the_dense_oracle_over_all_blocks(ring):
    # the first map has complexes of rank zero in degree 1
    rng = random.Random(712)
    for case in range(8):
        g = zero_rank_map(rng, ring) if case == 0 else random_chain_map(rng, ring)
        m = dk_map(g, 4)
        for n in range(5):
            assert same_as_dense(m.component(n), dense_dk_map(g, n))


def test_nor_map_inverts_dk_map():
    g = ChainMap(sphere(0), sphere(0), {0: identity(ZZ, 1).scale(2)})
    back = nor_map(dk_map(g, 2))
    assert back.component(0) == g.component(0)
    m = dk(disk(2), 3)
    assert nor_map(identity_simplicial_map(m)) == identity_chain_map(nor(m).complex)


# ---------------------------------------------------------------------------
# tensor, copower, cylinder


def test_tensor_module_ranks_and_units():
    s1 = dk(sphere(1), 2)
    t = tensor_sm(s1, s1)
    assert t.ranks == (0, 1, 4)
    unit = dk(sphere(0), 2)
    m = dk(disk(2), 2)
    assert tensor_sm(m, unit) == m
    with pytest.raises(RingError):
        tensor_sm(m, dk(sphere(0, QQ), 2))


def test_copower_specials():
    m = dk(disk(1), 2)
    assert copower(m, simplex_set(0, 2)) == m
    assert copower(m, boundary_simplex_set(1, 2)) == direct_sum_sm(m, m)
    assert nor(copower(dk(sphere(0), 3), simplex_set(1, 3))).complex == (
        nor(free_module(simplex_set(1, 3), ZZ)).complex
    )
    with pytest.raises(ShapeError):
        copower(dk(disk(1), 3), simplex_set(1, 2))


def test_cylinder_factors_the_codiagonal():
    m = dk(sphere(0), 2)
    kappa, xi = cylinder(m)
    both = kappa.source
    assert xi.source == kappa.target
    for lv in range(3):
        composite = xi.component(lv) @ kappa.component(lv)
        assert composite == hcat(ZZ, m.rank(lv), [identity(ZZ, 1), identity(ZZ, 1)])
    nk = nor_map(kappa)
    nx = nor_map(xi)
    assert classify(nk).cofibration
    assert classify(nx).weak_equivalence
    assert nk.component(0) == identity(ZZ, 2)


def test_cylinder_on_a_disk_module():
    m = dk(disk(1), 2)
    kappa, xi = cylinder(m)
    nk = nor_map(kappa)
    nx = nor_map(xi)
    assert classify(nk).cofibration
    assert classify(nx).weak_equivalence
    # functoriality: normalizing the composite gives the composite
    assert nor_map(compose_simplicial(xi, kappa)) == compose_maps(nx, nk)


# ---------------------------------------------------------------------------
# nerve homology and the contraction


def test_contraction_on_chain_posets():
    for n in range(3):
        report = verify_nerve_contraction(chain_poset(n), 3, ZZ)
        assert report.least == 0
        assert report.verified


def test_contraction_needs_a_least_element():
    p = FinPoset(("x", "y"), [[True, False], [False, True]])
    report = verify_nerve_contraction(p, 2, ZZ)
    assert report.least is None and not report.verified


def test_nerve_homology_collapses_to_degree_zero():
    p = FinPoset(
        ("e", "a", "b"),
        [[True, True, True], [False, True, False], [False, False, True]],
    )
    res = nor(free_module(nerve(p, 3), ZZ))
    hs = homology(res.complex)
    assert hs[0].free_rank == 1 and hs[0].torsion == ()
    assert all(hs[d].is_zero for d in range(1, len(hs)))


# ---------------------------------------------------------------------------
# JSON


def test_module_json_round_trip():
    m = dk(disk(1), 2)
    assert module_from_json(module_to_json(m)) == m
    obj = module_to_json(m)
    del obj["faces"]["1"]
    with pytest.raises(ValueError):
        module_from_json(obj)
    # a bool is neither a rank nor a horizon, and every key is known
    with pytest.raises(ValueError):
        SimplicialModule(ZZ, (True,), {}, {})
    one_level = module_to_json(dk(disk(1), 1))
    for key, value in (("horizon", True), ("extra", 0)):
        with pytest.raises(ValueError, match=f"^module.{key}: "):
            module_from_json({**one_level, key: value})


def test_poset_json_round_trip():
    p = chain_poset(2)
    assert poset_from_json(poset_to_json(p)) == p
    with pytest.raises(ValueError):
        poset_from_json({"elements": [0], "leq": [[1]]})
    with pytest.raises(ValueError, match="^poset.extra: "):
        poset_from_json({**poset_to_json(p), "extra": 0})
