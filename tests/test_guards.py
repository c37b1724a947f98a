"""The constructor guards of the graded types and of block assembly, pinned
by exception type and exact message: one row per guard, each input breaking
exactly one rule."""

import random

import pytest

from artifact import (
    QQ,
    ZZ,
    ChainMap,
    Matrix,
    ConnComplex,
    FinPoset,
    FinSimplicialSet,
    MonotoneMap,
    RingTag,
    SimplicialMap,
    SimplicialModule,
    block_matrix,
    boundary_simplex_set,
    boxtimes_generator_tests,
    chain_poset,
    compose_simplicial,
    coproduct,
    degenerate_part,
    direct_sum_sm,
    disk,
    dk,
    dk_blocks,
    dk_map,
    hcat,
    homology_at,
    identity,
    identity_chain_map,
    identity_simplicial_map,
    lift_square,
    monotone_from_json,
    nerve,
    nor,
    nor_map,
    rlp_generator_check,
    simplex_set,
    solve,
    sphere,
    tensor_map,
    vcat,
    verify_nerve_contraction,
    zeros,
)
from artifact.chains import _keyed_block_matrix
from artifact.deltacat import (
    Shuffle,
    degeneracy,
    enumerate_jointly_monic_pairs,
    enumerate_shuffles,
    enumerate_surjections,
    face,
    identity_map,
    shuffle_count,
    surjection_with_degeneracy_set,
)
from artifact.errors import DomainError, InvalidRing, NotAComplex, NotSimplicial, RingError, ShapeError

from oracles import non_simplicial_module

ONE = identity(ZZ, 1)
ZERO = zeros(ZZ, 1, 1)
ONE_Q = identity(QQ, 1)
FIVE = Matrix.from_rows(ZZ, [[5]])
SQUARE = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])


def module(faces, degens, ranks=(1, 1)):
    return SimplicialModule(ZZ, ranks, faces, degens)


def module_map(faces, degens, components):
    m = module(faces, degens)
    return SimplicialMap(m, m, components)


def simplicial_set(faces, degens):
    # level 0 is a vertex, level 1 its degenerate edge
    return FinSimplicialSet(1, [["v"], ["e"]], faces, degens)


def unchecked_simplicial_map(source, target, components):
    # the constructor proves that the map commutes with every face, and so
    # keeps the normalized part; nor_map's own guard meets only a map that
    # skipped that proof
    f = SimplicialMap.__new__(SimplicialMap)
    f.source, f.target, f.components = source, target, tuple(components)
    return f


# two incomparable elements: no least element
ANTICHAIN = FinPoset([0, 1], [[True, False], [False, True]])

# the constant module on Z at horizon 1: both faces and the degeneracy are 1
CONSTANT = SimplicialModule(ZZ, (1, 1), {1: [ONE, ONE]}, {0: [ONE]})


GUARDS = [
    # ConnComplex
    (
        "complex-ring",
        lambda: ConnComplex(ZZ, (1, 1), {1: ONE_Q}),
        RingError,
        "differential 1 is over Q, complex over Z",
    ),
    (
        "complex-shape",
        lambda: ConnComplex(ZZ, (1, 2), {1: ONE}),
        ShapeError,
        "differential 1 must be 1x2, got 1x1",
    ),
    (
        "complex-degree-range",
        lambda: ConnComplex(ZZ, (1, 1), {0: ONE, 1: ONE, 3: ZERO}),
        ValueError,
        "differentials given outside degrees 1..1: [0, 3]",
    ),
    (
        "complex-not-a-complex",
        lambda: ConnComplex(ZZ, (1, 1, 1), {1: ONE, 2: ONE}),
        NotAComplex,
        "differential composite at degree 2 is nonzero",
    ),
    # ChainMap
    (
        "map-ring",
        lambda: ChainMap(sphere(0), sphere(0), {0: ONE_Q}),
        RingError,
        "component 0 is over Q, map over Z",
    ),
    (
        "map-shape",
        lambda: ChainMap(disk(1), sphere(0), {1: zeros(ZZ, 2, 1)}),
        ShapeError,
        "component 1 must be 0x1, got 2x1",
    ),
    (
        "map-degree-range",
        lambda: ChainMap(disk(1), disk(1), {0: ONE, 1: ONE, 2: ZERO, -1: ZERO}),
        ValueError,
        "components given outside degrees 0..1: [-1, 2]",
    ),
    (
        "map-source-target-ring",
        lambda: ChainMap(sphere(0), sphere(0, QQ), {}),
        RingError,
        "source over Z, target over Q",
    ),
    (
        "map-not-commuting",
        lambda: ChainMap(disk(1), disk(1), {0: ONE}),
        NotAComplex,
        "components do not commute with differentials at degree 1",
    ),
    # tensor products and lifting squares
    (
        "tensor-map-ring",
        lambda: tensor_map(identity_chain_map(sphere(0)), identity_chain_map(sphere(0, QQ))),
        RingError,
        "tensor factors over Z and Q",
    ),
    (
        "lift-bottom-endpoints",
        lambda: lift_square(*[identity_chain_map(sphere(0))] * 3, identity_chain_map(disk(1))),
        ShapeError,
        "bottom map must run from the target of f to the target of g",
    ),
    (
        "disk-non-integer",
        lambda: disk(1.5),
        DomainError,
        "disk: n must be an integer",
    ),
    (
        "sphere-bool",
        lambda: sphere(True),
        DomainError,
        "sphere: n must be an integer",
    ),
    (
        "rlp-non-integer-max-n",
        lambda: rlp_generator_check(identity_chain_map(sphere(1)), 1.5),
        DomainError,
        "rlp_generator_check: max_n must be an integer",
    ),
    # matrices
    (
        "sum-shapes",
        lambda: ONE + zeros(ZZ, 1, 2),
        ShapeError,
        "sum of differently shaped matrices",
    ),
    (
        "zeros-negative",
        lambda: zeros(ZZ, 1, -1),
        ShapeError,
        "negative dimensions",
    ),
    (
        "identity-negative",
        lambda: identity(ZZ, -1),
        ShapeError,
        "negative dimensions",
    ),
    (
        "hcat-rows",
        lambda: hcat(ZZ, 2, [ONE]),
        ShapeError,
        "hcat with mismatched row counts",
    ),
    (
        "hcat-ring",
        lambda: hcat(ZZ, 1, [ONE, ONE_Q]),
        RingError,
        "hcat with mixed rings",
    ),
    (
        "vcat-cols",
        lambda: vcat(ZZ, 2, [ONE]),
        ShapeError,
        "vcat with mismatched column counts",
    ),
    (
        "vcat-ring",
        lambda: vcat(ZZ, 1, [ONE, ONE_Q]),
        RingError,
        "vcat with mixed rings",
    ),
    (
        "hcat-negative-rows",
        lambda: hcat(ZZ, -1, []),
        ShapeError,
        "negative dimensions",
    ),
    (
        "vcat-negative-cols",
        lambda: vcat(ZZ, -2, []),
        ShapeError,
        "negative dimensions",
    ),
    (
        "block-negative-row-size",
        lambda: block_matrix(ZZ, [2, -1], [1], {}),
        ShapeError,
        "negative dimensions",
    ),
    (
        "block-negative-col-size",
        lambda: block_matrix(ZZ, [1], [-1, 2], {}),
        ShapeError,
        "negative dimensions",
    ),
    # a size that is not an int is refused like a negative one; True and
    # 1.0 compare equal to 1 but are not sizes
    (
        "matrix-non-integer-rows",
        lambda: Matrix(ZZ, 1.0, 1, [[1]]),
        ShapeError,
        "dimensions must be integers",
    ),
    (
        "zeros-non-integer",
        lambda: zeros(ZZ, 1.5, 1),
        ShapeError,
        "dimensions must be integers",
    ),
    (
        "identity-bool",
        lambda: identity(ZZ, True),
        ShapeError,
        "dimensions must be integers",
    ),
    (
        "hcat-non-integer-rows",
        lambda: hcat(ZZ, 1.0, []),
        ShapeError,
        "dimensions must be integers",
    ),
    (
        "vcat-non-integer-cols",
        lambda: vcat(ZZ, 2.0, []),
        ShapeError,
        "dimensions must be integers",
    ),
    (
        "block-non-integer-row-size",
        lambda: block_matrix(ZZ, [1.5], [1], {}),
        ShapeError,
        "dimensions must be integers",
    ),
    (
        "block-bool-col-size",
        lambda: block_matrix(ZZ, [1], [True], {}),
        ShapeError,
        "dimensions must be integers",
    ),
    # matrix indices: a float or a bool compares like an int but is not one
    (
        "col-select-non-integer",
        lambda: SQUARE.col_select([0.5]),
        ShapeError,
        "column index must be an integer",
    ),
    (
        "col-select-float",
        lambda: SQUARE.col_select([1.0]),
        ShapeError,
        "column index must be an integer",
    ),
    (
        "row-select-bool",
        lambda: SQUARE.row_select([True]),
        ShapeError,
        "row index must be an integer",
    ),
    (
        "getitem-non-integer",
        lambda: SQUARE[0.5, 0],
        ShapeError,
        "index (0.5, 0) outside a 2x2 matrix",
    ),
    (
        "getitem-bool",
        lambda: SQUARE[True, 0],
        ShapeError,
        "index (True, 0) outside a 2x2 matrix",
    ),
    (
        "solve-rows",
        lambda: solve(ONE, zeros(ZZ, 2, 1)),
        ShapeError,
        "solve: 1 rows vs 2 rows",
    ),
    (
        "homology-at-ambient-rank",
        lambda: homology_at(zeros(ZZ, 2, 1), ONE),
        ShapeError,
        "homology_at: ambient rank 1 vs 2",
    ),
    # rings
    (
        "ring-kind",
        lambda: RingTag("R"),
        InvalidRing,
        "unknown ring kind 'R'",
    ),
    (
        "ring-modulus-outside-fields",
        lambda: RingTag("Z", 2),
        InvalidRing,
        "only prime fields carry a modulus",
    ),
    (
        "ring-modulus-past-the-proven-range",
        lambda: RingTag("F", 3317044064679887385961981),
        InvalidRing,
        "modulus 3317044064679887385961981 is outside the proven primality range p < 3317044064679887385961981",
    ),
    (
        "ring-modulus-not-an-integer",
        lambda: RingTag("F", 5.0),
        InvalidRing,
        "modulus 5.0 is not an integer",
    ),
    (
        "ring-modulus-bool",
        lambda: RingTag("Z", False),
        InvalidRing,
        "modulus False is not an integer",
    ),
    # monotone maps
    (
        "monotone-negative-ordinal",
        lambda: MonotoneMap(-1, 0, ()),
        ValueError,
        "ordinals must be nonnegative",
    ),
    (
        "monotone-non-integer-ordinal",
        lambda: MonotoneMap(1, 1.0, (0, 1)),
        ValueError,
        "ordinals must be integers",
    ),
    (
        "monotone-non-integer-value",
        lambda: MonotoneMap(1, 1, (0, 0.5)),
        ValueError,
        "values must be integers",
    ),
    # shuffles
    (
        "shuffle-negative-first-block",
        lambda: Shuffle(-1, 1, ()),
        ValueError,
        "block sizes must be nonnegative",
    ),
    (
        "shuffle-negative-second-block",
        lambda: Shuffle(2, -1, (1,)),
        ValueError,
        "block sizes must be nonnegative",
    ),
    (
        "shuffle-non-integer-block",
        lambda: Shuffle(1.0, 1, (1, 2)),
        ValueError,
        "block sizes must be integers",
    ),
    (
        "shuffle-non-integer-perm",
        lambda: Shuffle(1, 1, (2.0, 1)),
        ValueError,
        "perm must be a permutation of 1..p+q",
    ),
    (
        "shuffle-count-negative",
        lambda: shuffle_count(-1, 2),
        DomainError,
        "shuffles needs each block size >= 0",
    ),
    (
        "enumerate-shuffles-negative",
        lambda: enumerate_shuffles(2, -1),
        DomainError,
        "shuffles needs each block size >= 0",
    ),
    (
        "shuffle-count-non-integer",
        lambda: shuffle_count(1.5, 2),
        DomainError,
        "shuffles: each block size must be an integer",
    ),
    (
        "enumerate-shuffles-non-integer",
        lambda: enumerate_shuffles(1.0, 1),
        DomainError,
        "shuffles: each block size must be an integer",
    ),
    (
        "identity-map-non-integer",
        lambda: identity_map(1.5),
        DomainError,
        "identity_map: the size must be an integer",
    ),
    (
        "identity-map-negative",
        lambda: identity_map(-1),
        DomainError,
        "identity_map needs the size >= 0",
    ),
    (
        "surjection-with-degeneracy-set-negative",
        lambda: surjection_with_degeneracy_set(-1, ()),
        DomainError,
        "surjection_with_degeneracy_set needs the size >= 0",
    ),
    (
        "surjection-with-degeneracy-set-non-integer",
        lambda: surjection_with_degeneracy_set(2.0, ()),
        DomainError,
        "surjection_with_degeneracy_set: the size must be an integer",
    ),
    (
        "surjection-with-degeneracy-set-bool",
        lambda: surjection_with_degeneracy_set(True, ()),
        DomainError,
        "surjection_with_degeneracy_set: the size must be an integer",
    ),
    (
        "surjection-with-degeneracy-set-position-above",
        lambda: surjection_with_degeneracy_set(2, (5,)),
        DomainError,
        "surjection_with_degeneracy_set: degeneracy positions must lie in 0..n-1",
    ),
    (
        "surjection-with-degeneracy-set-position-negative",
        lambda: surjection_with_degeneracy_set(2, (-1,)),
        DomainError,
        "surjection_with_degeneracy_set: degeneracy positions must lie in 0..n-1",
    ),
    (
        "surjection-with-degeneracy-set-position-non-integer",
        lambda: surjection_with_degeneracy_set(2, (1.0,)),
        DomainError,
        "surjection_with_degeneracy_set: degeneracy positions must lie in 0..n-1",
    ),
    # the Δ enumerators check a size before their caches, which would key
    # 2.0 and True like 2 and 1 and answer from an earlier int call
    (
        "enumerate-surjections-non-integer-source",
        lambda: (enumerate_jointly_monic_pairs(2, 1, 1), enumerate_surjections(2.0, 1)),
        DomainError,
        "enumerate_surjections: each size must be an integer",
    ),
    (
        "enumerate-surjections-bool-target",
        lambda: (enumerate_surjections(1, 1), enumerate_surjections(1, True)),
        DomainError,
        "enumerate_surjections: each size must be an integer",
    ),
    (
        "jointly-monic-pairs-non-integer-tops",
        lambda: (enumerate_jointly_monic_pairs(2, 1, 1), enumerate_jointly_monic_pairs(2, True, 1.0)),
        DomainError,
        "enumerate_jointly_monic_pairs: each size must be an integer",
    ),
    (
        "jointly-monic-pairs-non-integer-source",
        lambda: enumerate_jointly_monic_pairs(2.0, 1, 1),
        DomainError,
        "enumerate_jointly_monic_pairs: each size must be an integer",
    ),
    (
        "dk-blocks-non-integer",
        lambda: (dk_blocks(2), dk_blocks(2.0)),
        DomainError,
        "dk_blocks: the level must be an integer",
    ),
    (
        "dk-blocks-bool",
        lambda: dk_blocks(True),
        DomainError,
        "dk_blocks: the level must be an integer",
    ),
    (
        "monotone-json-not-monotone",
        lambda: monotone_from_json({"source": 1, "target": 1, "values": [1, 0]}),
        ValueError,
        "map: values must be weakly increasing",
    ),
    # SimplicialModule
    (
        "module-face-missing",
        lambda: module({}, {0: [ONE]}),
        ValueError,
        "face maps missing at level 1",
    ),
    (
        "module-degen-missing",
        lambda: module({1: [ONE, ONE]}, {}),
        ValueError,
        "degeneracy maps missing at level 0",
    ),
    (
        "module-face-level-range",
        lambda: module({1: [ONE, ONE], 2: [ONE, ONE, ONE]}, {0: [ONE]}),
        ValueError,
        "face maps given outside levels 1..1: [2]",
    ),
    (
        "module-degen-level-range",
        lambda: module({1: [ONE, ONE]}, {0: [ONE], 1: [ONE, ONE]}),
        ValueError,
        "degeneracy maps given outside levels 0..0: [1]",
    ),
    (
        "module-degen-level-range-at-horizon-0",
        lambda: SimplicialModule(ZZ, (1,), {}, {0: [ONE]}),
        ValueError,
        "degeneracy maps given outside levels 0..-1: [0]",
    ),
    (
        "module-face-family-length",
        lambda: module({1: [ONE]}, {0: [ONE]}),
        ValueError,
        "level 1 needs 2 face maps, got 1",
    ),
    (
        "module-degen-family-length",
        lambda: module({1: [ONE, ONE]}, {0: [ONE, ONE]}),
        ValueError,
        "level 0 needs 1 degeneracy maps, got 2",
    ),
    (
        "module-face-ring",
        lambda: module({1: [ONE, ONE_Q]}, {0: [ONE]}),
        RingError,
        "face (1,1) is over Q, module over Z",
    ),
    (
        "module-degen-ring",
        lambda: module({1: [ONE, ONE]}, {0: [ONE_Q]}),
        RingError,
        "degeneracy (0,0) is over Q, module over Z",
    ),
    (
        "module-face-shape",
        lambda: module({1: [zeros(ZZ, 1, 2), ONE]}, {0: [zeros(ZZ, 2, 1)]}, ranks=(1, 2)),
        ShapeError,
        "face (1,1) must be 1x2, got 1x1",
    ),
    (
        "module-degen-shape",
        lambda: module({1: [zeros(ZZ, 1, 2)] * 2}, {0: [ONE]}, ranks=(1, 2)),
        ShapeError,
        "degeneracy (0,0) must be 2x1, got 1x1",
    ),
    (
        "module-ranks-empty",
        lambda: SimplicialModule(ZZ, (), {}, {}),
        ValueError,
        "ranks must cover level 0",
    ),
    # FinSimplicialSet
    (
        "set-negative-horizon",
        lambda: FinSimplicialSet(-1, [], [], []),
        ValueError,
        "horizon must be nonnegative",
    ),
    (
        "set-non-integer-horizon",
        lambda: FinSimplicialSet(0.0, [["v"]], [], []),
        ValueError,
        "horizon must be an integer",
    ),
    (
        "set-bool-horizon",
        lambda: FinSimplicialSet(True, [["v"], ["e"]], [[(0,), (0,)]], [[(0,)]]),
        ValueError,
        "horizon must be an integer",
    ),
    (
        "set-cell-levels",
        lambda: FinSimplicialSet(1, [["v"]], [[(0,), (0,)]], [[(0,)]]),
        ValueError,
        "expected 2 cell levels",
    ),
    (
        "set-face-family-length",
        lambda: simplicial_set([[(0,)]], [[(0,)]]),
        ValueError,
        "level 1 needs 2 face maps",
    ),
    (
        "set-degen-family-length",
        lambda: simplicial_set([[(0,), (0,)]], [[(0,), (0,)]]),
        ValueError,
        "level 0 needs 1 degeneracy maps",
    ),
    (
        "set-face-levels",
        lambda: FinSimplicialSet(2, [["v"], ["e"], ["t"]], [[(0,), (0,)]], [[(0,)], [(0,), (0,)]]),
        ValueError,
        "expected 2 levels of face maps, got 1",
    ),
    (
        "set-degen-levels",
        lambda: simplicial_set([[(0,), (0,)]], [[(0,)], "junk"]),
        ValueError,
        "expected 1 levels of degeneracy maps, got 2",
    ),
    (
        "set-face-index-map-length",
        lambda: simplicial_set([[(0,), (0, 0)]], [[(0,)]]),
        ValueError,
        "face (1,1) must be defined on every cell",
    ),
    (
        "set-degen-index-map-length",
        lambda: simplicial_set([[(0,), (0,)]], [[()]]),
        ValueError,
        "degeneracy (0,0) must be defined on every cell",
    ),
    (
        "set-face-index-range",
        lambda: simplicial_set([[(0,), (1,)]], [[(0,)]]),
        ValueError,
        "face (1,1) hits an out-of-range cell",
    ),
    (
        "set-degen-index-range",
        lambda: simplicial_set([[(0,), (0,)]], [[(1,)]]),
        ValueError,
        "degeneracy (0,0) hits an out-of-range cell",
    ),
    (
        "set-identity",
        lambda: FinSimplicialSet(1, [["v", "w"], ["e"]], [[(0,), (1,)]], [[(0, 0)]]),
        NotSimplicial,
        "face-degen identity fails at level 0 for (i,j)=(0,0)",
    ),
    (
        "simplex-negative-dimension",
        lambda: simplex_set(-1, 1),
        DomainError,
        "simplex needs n >= 0",
    ),
    (
        "simplex-non-integer-dimension",
        lambda: simplex_set(1.0, 2),
        DomainError,
        "simplex: n must be an integer",
    ),
    (
        "coproduct-horizons",
        lambda: coproduct(simplex_set(0, 1), simplex_set(0, 2)),
        ShapeError,
        "horizons differ: 1 vs 2",
    ),
    # FinPoset
    (
        "poset-table-shape",
        lambda: FinPoset([0, 1], [[True]]),
        ValueError,
        "leq must be a 2x2 table",
    ),
    (
        "chain-poset-non-integer",
        lambda: chain_poset(1.5),
        DomainError,
        "chain_poset: the size must be an integer",
    ),
    (
        "chain-poset-bool",
        lambda: chain_poset(True),
        DomainError,
        "chain_poset: the size must be an integer",
    ),
    # SimplicialMap
    (
        "simplicial-map-ring",
        lambda: module_map({1: [ONE, ONE]}, {0: [ONE]}, [ONE_Q, ONE]),
        RingError,
        "component 0 is over Q, map over Z",
    ),
    (
        "simplicial-map-shape",
        lambda: module_map({1: [ONE, ONE]}, {0: [ONE]}, [ONE, zeros(ZZ, 2, 1)]),
        ShapeError,
        "component 1 must be 1x1, got 2x1",
    ),
    # face (1,0) commutes, face (1,1) does not
    (
        "simplicial-map-face",
        lambda: module_map({1: [ZERO, ONE]}, {0: [ONE]}, [ONE, ZERO]),
        NotSimplicial,
        "component does not commute with face (1,1)",
    ),
    (
        "simplicial-map-degeneracy",
        lambda: module_map({1: [ZERO, ZERO]}, {0: [ONE]}, [ONE, ZERO]),
        NotSimplicial,
        "component does not commute with degeneracy (0,0)",
    ),
    (
        "simplicial-map-rings",
        lambda: SimplicialMap(dk(sphere(0), 1), dk(sphere(0, QQ), 1), [ONE, ONE]),
        RingError,
        "source over Z, target over Q",
    ),
    (
        "simplicial-map-horizons",
        lambda: SimplicialMap(CONSTANT, dk(sphere(0), 0), [ONE, ONE]),
        ShapeError,
        "horizons differ: 1 vs 0",
    ),
    (
        "simplicial-map-component-count",
        lambda: SimplicialMap(CONSTANT, CONSTANT, [ONE]),
        ValueError,
        "expected 2 components",
    ),
    (
        "simplicial-compose-middle",
        lambda: compose_simplicial(
            identity_simplicial_map(CONSTANT), identity_simplicial_map(dk(disk(1), 1))
        ),
        ShapeError,
        "maps do not compose: middle modules differ",
    ),
    # the normalized part of dk(D(1), 1) at level 1 is its second basis
    # vector, which [0 1] sends outside the zero normalized part of CONSTANT
    (
        "nor-map-normalized-part",
        lambda: nor_map(
            unchecked_simplicial_map(dk(disk(1), 1), CONSTANT, [ONE, Matrix.from_rows(ZZ, [[0, 1]])])
        ),
        NotSimplicial,
        "map does not preserve the normalized part",
    ),
    # levelwise sums
    (
        "direct-sum-rings",
        lambda: direct_sum_sm(CONSTANT, dk(sphere(0, QQ), 1)),
        RingError,
        "summands over Z and Q",
    ),
    (
        "direct-sum-horizons",
        lambda: direct_sum_sm(CONSTANT, dk(sphere(0), 2)),
        ShapeError,
        "horizons differ: 1 vs 2",
    ),
    # the Dold-Kan functor
    (
        "dk-negative-horizon",
        lambda: dk(disk(1), -1),
        DomainError,
        "dk needs horizon >= 0",
    ),
    (
        "dk-map-negative-horizon",
        lambda: dk_map(identity_chain_map(disk(1)), -1),
        DomainError,
        "dk needs horizon >= 0",
    ),
    (
        "nerve-negative-horizon",
        lambda: nerve(chain_poset(1), -1),
        DomainError,
        "nerve needs horizon >= 0",
    ),
    (
        "simplex-negative-horizon",
        lambda: simplex_set(1, -1),
        DomainError,
        "simplex needs horizon >= 0",
    ),
    (
        "boundary-negative-horizon",
        lambda: boundary_simplex_set(1, -1),
        DomainError,
        "boundary needs horizon >= 0",
    ),
    (
        "dk-non-integer-horizon",
        lambda: dk(disk(1), 2.0),
        DomainError,
        "dk: horizon must be an integer",
    ),
    (
        "nerve-non-integer-horizon",
        lambda: nerve(chain_poset(1), 1.5),
        DomainError,
        "nerve: horizon must be an integer",
    ),
    (
        "boundary-non-integer-horizon",
        lambda: boundary_simplex_set(2, 1.0),
        DomainError,
        "boundary: horizon must be an integer",
    ),
    # a poset with no least element has no contraction to check, but its
    # horizon is checked first, as nerve checks it
    (
        "contraction-non-integer-horizon",
        lambda: verify_nerve_contraction(ANTICHAIN, 1.5, ZZ),
        DomainError,
        "nerve: horizon must be an integer",
    ),
    (
        "contraction-bool-horizon",
        lambda: verify_nerve_contraction(ANTICHAIN, True, ZZ),
        DomainError,
        "nerve: horizon must be an integer",
    ),
    (
        "contraction-negative-horizon",
        lambda: verify_nerve_contraction(ANTICHAIN, -3, ZZ),
        DomainError,
        "nerve needs horizon >= 0",
    ),
    (
        "generator-test-non-integer",
        lambda: boxtimes_generator_tests(identity_chain_map(sphere(0)), 1.0),
        DomainError,
        "generator test: n must be an integer",
    ),
    (
        "generator-test-level",
        lambda: boxtimes_generator_tests(identity_chain_map(sphere(0)), 0),
        DomainError,
        "generator test needs n >= 1",
    ),
    # block assembly: a negative index would count from the end
    (
        "block-negative-index",
        lambda: block_matrix(ZZ, [2, 1], [1], {(-1, 0): FIVE}),
        ShapeError,
        "block (-1,0) lies outside the block grid",
    ),
    (
        "block-shape",
        lambda: block_matrix(ZZ, [2], [1], {(0, 0): FIVE}),
        ShapeError,
        "block (0,0) has shape 1x1",
    ),
    (
        "block-ring",
        lambda: block_matrix(ZZ, [1], [1], {(0, 0): ONE_Q}),
        RingError,
        "block with mixed ring",
    ),
    (
        "block-index-past-the-end",
        lambda: block_matrix(ZZ, [2, 1], [1], {(0, 1): FIVE}),
        ShapeError,
        "block (0,1) lies outside the block grid",
    ),
    (
        "keyed-block-outside-its-layout",
        lambda: _keyed_block_matrix(ZZ, {(0, 1): 1}, {(1, 0): 1}, {((0, 1), (0, 1)): FIVE}),
        ShapeError,
        "block ((0, 1), (0, 1)) lies outside the layout",
    ),
    (
        "keyed-block-of-another-shape",
        lambda: _keyed_block_matrix(ZZ, {0: 2}, {0: 1}, {(0, 0): (1, FIVE, FIVE)}),
        ShapeError,
        "block (0, 0) has shape 1x1, not 2x1",
    ),
    (
        "keyed-block-over-another-ring",
        lambda: _keyed_block_matrix(QQ, {0: 1}, {0: 1}, {(0, 0): FIVE}),
        RingError,
        "block (0, 0) over another ring",
    ),
    # the restrictions of nor and degenerate_part
    (
        "nor-last-face",
        lambda: nor(non_simplicial_module(random.Random(701))),
        NotSimplicial,
        "last face does not preserve the normalized part",
    ),
    (
        "degenerate-part-differential",
        lambda: degenerate_part(module({1: [ONE, ZERO]}, {0: [ONE]})),
        NotSimplicial,
        "differential does not preserve the degenerate part",
    ),
]


@pytest.mark.parametrize(
    "build, error, message",
    [row[1:] for row in GUARDS],
    ids=[row[0] for row in GUARDS],
)
def test_guard_raises_its_type_and_message(build, error, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


# the simplex category's guards against an index outside a level range;
# the reads of simplicial objects are pinned in test_simplicial.py
INDEX_GUARDS = [
    ("delta-face-level", lambda: face(0, 0), "face needs the level >= 1"),
    ("delta-face-index", lambda: face(1, 2), "face index 2 out of range for n=1"),
    ("delta-degeneracy-level", lambda: degeneracy(-1, 0), "degeneracy needs the level >= 0"),
    ("delta-degeneracy-index", lambda: degeneracy(1, 2), "degeneracy index 2 out of range for n=1"),
    # a cached face(2, 0) or degeneracy(1, 0) must not answer for a float level
    ("delta-face-non-integer-level", lambda: (face(2, 0), face(2.0, 0)), "face: the level must be an integer"),
    ("delta-face-non-integer-index", lambda: face(2, 0.5), "face: the index must be an integer"),
    (
        "delta-degeneracy-non-integer-level",
        lambda: (degeneracy(1, 0), degeneracy(1.0, 0)),
        "degeneracy: the level must be an integer",
    ),
    ("delta-degeneracy-bool-index", lambda: degeneracy(1, True), "degeneracy: the index must be an integer"),
]


@pytest.mark.parametrize(
    "build, message",
    [row[1:] for row in INDEX_GUARDS],
    ids=[row[0] for row in INDEX_GUARDS],
)
def test_index_guard_raises_index_error_and_message(build, message):
    with pytest.raises(IndexError) as info:
        build()
    assert type(info.value) is IndexError
    assert str(info.value) == message
