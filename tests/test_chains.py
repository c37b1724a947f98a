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
    shuffle_product,
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
    dense_mapping_cone,
    dense_tensor_map,
    elementary_complex,
    elementary_divisors,
    null_homotopic_map,
    planted_smith_grid,
    random_chain_map,
    random_complex,
    random_lifting_square,
    random_summands,
    same_as_dense,
    uct_dims,
    zero_rank_map,
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
    # a bool is not a rank, so complex_to_json never writes "ranks": [true, 2]
    with pytest.raises(ValueError):
        ConnComplex(ZZ, (True, 2), {})
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


def test_dense_homology_obeys_the_universal_coefficient_theorem():
    """H_n(X; F_p) has dimension rank H_n + t_p(H_n) + t_p(H_{n-1}), with
    t_p counting the invariant factors divisible by p, on dense 32x32
    two-term complexes whose rows are scaled so that F2 and F101 lose rank,
    one of them with zero rows so that both degrees have free rank."""
    rng = random.Random(32)
    for zero_rows in (0, 5):
        scale = [2, 2, 6, 101, 202] + [1] * (27 - zero_rows) + [0] * zero_rows
        grid = [[c * rng.randint(-9, 9) for _ in range(32)] for c in scale]
        over_z = homology(ConnComplex(ZZ, (32, 32), {1: Matrix.from_rows(ZZ, grid)}))
        assert over_z[1].free_rank >= zero_rows and over_z[0].free_rank >= zero_rows
        for p in (2, 101):
            ring = GF(p)
            over_p = homology(ConnComplex(ring, (32, 32), {1: Matrix.from_rows(ring, grid)}))
            assert any(d % p == 0 for d in over_z[0].torsion)
            assert [h.free_rank for h in over_p] == uct_dims(over_z, p)


@pytest.mark.parametrize("p", [2, 3, 101, 2**61 - 1])
def test_homology_over_fields_obeys_universal_coefficients(p):
    """H_n(C; F_p) and H_n(C; Q) against the universal coefficient theorem
    applied to H_n(C; Z), on two-term complexes of dense 20x24, 24x20 and
    32x32 matrices with planted Smith factors from {1, p, p², 6, 5p}, and on
    shuffle products of factors that both carry torsion."""
    rng = random.Random(p % 1009)
    dense = []
    for rows, cols in ((20, 24), (24, 20), (32, 32)):
        factors = [rng.choice((1, p, p * p, 6, 5 * p)) for _ in range(min(rows, cols) - rng.randint(1, 3))]
        dense.append(((rows, cols), factors, planted_smith_grid(rng, rows, cols, factors)))
    tops = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(6)]
    pairs = [(xtop, random_summands(rng, xtop, 3), ytop, random_summands(rng, ytop, 3)) for xtop, ytop in tops]

    def complexes(ring):
        for ranks, _, grid in dense:
            yield ConnComplex(ring, ranks, {1: Matrix.from_rows(ring, grid, ranks[1])})
        for xtop, xs, ytop, ys in pairs:
            yield shuffle_product(elementary_complex(ring, xtop, xs), elementary_complex(ring, ytop, ys)).underlying

    over_z = [homology(x) for x in complexes(ZZ)]
    primes = (2, 3, 5, p)
    for ((rows, cols), factors, _), (h0, h1) in zip(dense, over_z):
        # the integral homology is the plant's
        assert h0.free_rank == rows - len(factors) and h1.free_rank == cols - len(factors) and not h1.torsion
        assert elementary_divisors(h0.torsion, primes) == elementary_divisors(factors, primes)
        assert any(m % p == 0 for m in h0.torsion)
    for ring, q in ((GF(p), p), (QQ, 0)):
        assert [[h.free_rank for h in homology(x)] for x in complexes(ring)] == [uct_dims(g, q) for g in over_z]


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


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_tensor_map_matches_the_dense_oracle(ring):
    # the first case has rank zero in degree 1 of the left factor, the
    # second of the right one
    rng = random.Random(711)
    for case in range(8):
        f = zero_rank_map(rng, ring) if case == 0 else random_chain_map(rng, ring)
        g = zero_rank_map(rng, ring) if case == 1 else random_chain_map(rng, ring)
        h = tensor_map(f, g)
        for n in range(max(h.source.top, h.target.top) + 1):
            assert same_as_dense(h.component(n), dense_tensor_map(f, g, n))


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


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_mapping_cone_matches_the_dense_assembly(ring):
    # the public constructor of the reference grid stores no zero, so a
    # stored zero in the cone would make the two unequal
    rng = random.Random(701)
    for _ in range(40):
        f = random_chain_map(rng, ring)
        cone = mapping_cone(f)
        ranks, diffs = dense_mapping_cone(f)
        assert cone.ranks == ranks
        for n, (rows, cols, grid) in diffs.items():
            assert cone.diff(n).entries == tuple(tuple(row) for row in grid)
            assert cone.diff(n) == Matrix(ring, rows, cols, grid)
        assert is_exact(cone) == classify(f).weak_equivalence


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


def forbid_smith_normal_form(monkeypatch):
    """Make smith_normal_form raise wherever chains could reach it: chains
    does not import it, and linalg's own binding raises."""
    import artifact.chains as chains
    import artifact.linalg as linalg

    def forbidden(*args):
        raise AssertionError("no internal path takes a Smith decomposition")

    assert not hasattr(chains, "smith_normal_form")
    monkeypatch.setattr(linalg, "smith_normal_form", forbidden)


def count_invariant_factors(monkeypatch, calls):
    """Record every invariant_factors call made from chains or linalg, and
    make smith_normal_form, kernel_basis and solve raise."""
    import artifact.chains as chains
    import artifact.linalg as linalg

    factors = linalg.invariant_factors

    def counted(a):
        calls.append(a)
        return factors(a)

    def forbidden(*args):
        raise AssertionError("reading ranks and torsion needs no transform")

    for module in (chains, linalg):
        monkeypatch.setattr(module, "invariant_factors", counted)
    forbid_smith_normal_form(monkeypatch)
    monkeypatch.setattr(chains, "kernel_basis", forbidden)
    monkeypatch.setattr(chains, "solve", forbidden)


def test_homology_and_classify_take_one_elimination_per_matrix(monkeypatch):
    rng = random.Random(71)
    complexes = [random_complex(rng, ZZ, max_top=3) for _ in range(5)]
    maps = [random_chain_map(rng, ZZ) for _ in range(5)]
    calls = []
    count_invariant_factors(monkeypatch, calls)
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


def rebuilt(f: ChainMap) -> ChainMap:
    """f built again through the public constructors, which check d∘d = 0
    on both complexes and that the components commute with them."""

    def complex_(x: ConnComplex) -> ConnComplex:
        return ConnComplex(x.ring, x.ranks, {n: x.diff(n) for n in range(1, x.top + 1)})

    source, target = complex_(f.source), complex_(f.target)
    return ChainMap(source, target, {n: f.component(n) for n in range(max(source.top, target.top) + 1)})


@pytest.mark.parametrize("factor", [factor_trivcof_fib, factor_cof_trivfib])
@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_factorizations_pass_the_checks_they_skip(ring, factor):
    # the middle object and both legs are built without checking d∘d = 0
    # or commutation; the public constructors accept each of them as it is
    rng = random.Random(211)
    for case in range(15):
        f = zero_rank_map(rng, ring) if case % 3 == 0 else random_chain_map(rng, ring)
        kappa, eta = factor(f)
        assert kappa.source == f.source and eta.target == f.target
        assert kappa.target is eta.source
        assert rebuilt(kappa) == kappa and rebuilt(eta) == eta


def test_trusted_constructors_are_called_only_by_the_factorizations():
    # a static check: the constructors that skip d∘d = 0 and commutation
    # serve only the two builders whose docstrings prove both
    import ast
    import pathlib

    import artifact

    def trusted_calls(name, node):
        return [
            f"{name}:{call.lineno}"
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and "_trusted" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]

    calls, sanctioned = [], []
    for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls += trusted_calls(path.name, tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in ("factor_trivcof_fib", "factor_cof_trivfib"):
                sanctioned += trusted_calls(path.name, node)
    assert len(sanctioned) == 6
    assert sorted(calls) == sorted(sanctioned)


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


def test_lift_square_builds_no_mapping_cone(monkeypatch):
    # the cofibration test on f takes retractions and classify reads the
    # cone's exactness off its differential blocks, so no cone is built
    import artifact.chains as chains

    rng = random.Random(13)
    squares = [random_lifting_square(rng, ring) for ring in (ZZ, GF(3), QQ)]

    def forbidden(f):
        raise AssertionError("no mapping cone is needed")

    monkeypatch.setattr(chains, "mapping_cone", forbidden)
    for f, g, top, bottom in squares:
        lift = lift_square(f, g, top, bottom)
        assert compose_maps(lift, f) == top and compose_maps(g, lift) == bottom
        classify(f)


def test_lift_square_solves_once_per_retraction_lift_and_correction(monkeypatch):
    # one solve per degree of f for its retraction, one per degree of B to
    # lift through g, and a degree whose first guess misses a chain map adds
    # one kernel basis and one more solve; no Smith decomposition anywhere
    import artifact.chains as chains

    rng = random.Random(19)
    squares = [
        random_lifting_square(rng, ring, max_top=3) for ring in (ZZ, GF(3), QQ) for _ in range(10)
    ]
    kernels, solves = [], []
    kernel, solve = chains.kernel_basis, chains.solve
    monkeypatch.setattr(chains, "kernel_basis", lambda a: kernels.append(a) or kernel(a))
    monkeypatch.setattr(chains, "solve", lambda a, b: solves.append(a) or solve(a, b))
    forbid_smith_normal_form(monkeypatch)
    corrected = 0
    for f, g, top, bottom in squares:
        kernels.clear()
        solves.clear()
        lift_square(f, g, top, bottom)
        degrees_f = max(f.source.top, f.target.top) + 1
        degrees_b = f.target.top + 1
        assert len(kernels) < degrees_b
        assert len(solves) == degrees_f + degrees_b + len(kernels)
        retractions = [f.component(n).transpose() for n in range(degrees_f)]
        assert solves[:degrees_f] == retractions
        assert all(k in [g.component(n) for n in range(1, degrees_b)] for k in kernels)
        corrected += len(kernels)
    assert corrected > 0


def test_lift_square_reuses_the_class_of_a_classified_map(monkeypatch):
    # classify keeps its answer on the map, so a trivial fibration already
    # classified costs lift_square no second cone homology
    import artifact.chains as chains

    rng = random.Random(29)
    squares = [random_lifting_square(rng, ring) for ring in (ZZ, GF(3), QQ)]
    calls = []
    homology_ = chains._homology

    def counted(*args):
        calls.append(args)
        return homology_(*args)

    monkeypatch.setattr(chains, "_homology", counted)
    for f, g, top, bottom in squares:
        fresh = map_from_json(map_to_json(g))
        calls.clear()
        lift = lift_square(f, fresh, top, bottom)
        assert len(calls) == 1 and fresh._class.trivial_fibration
        calls.clear()
        mc = classify(g)
        assert len(calls) == 1
        assert lift_square(f, g, top, bottom) == lift
        assert classify(g) is mc and len(calls) == 1


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
    with pytest.raises(DomainError, match=r"^rlp_generator_check needs max_n >= 0$"):
        rlp_generator_check(identity_chain_map(s1), -3)


def test_rlp_matches_classifier_on_random_maps():
    rng = random.Random(17)
    for ring in (ZZ, GF(2)):
        for _ in range(20):
            f = random_chain_map(rng, ring)
            mc = classify(f)
            rep = rlp_generator_check(f, max(f.source.top, f.target.top) + 1)
            assert rep.certifies_trivial_fibration == mc.trivial_fibration
            assert rep.certifies_fibration == mc.fibration


def test_rlp_check_reads_invariant_factors_only(monkeypatch):
    # per n: f_n for 0 -> D(n), then the pair equations M and the map N
    # into the pairs for S(n-1) -> D(n); no Smith decomposition, kernel
    # basis or solve
    rng = random.Random(23)
    maps = [random_chain_map(rng, ring) for ring in (ZZ, QQ, GF(2)) for _ in range(5)]
    calls = []
    count_invariant_factors(monkeypatch, calls)
    for f in maps:
        calls.clear()
        max_n = max(f.source.top, f.target.top) + 1
        rlp_generator_check(f, max_n)
        assert len(calls) == 1 + 3 * max_n


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
