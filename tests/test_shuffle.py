import hashlib
import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

import artifact
from artifact import (
    GF,
    QQ,
    ZZ,
    ChainMap,
    ConnComplex,
    Matrix,
    block_matrix,
    boxtimes_generator_tests,
    classify,
    compose_maps,
    disk,
    dk,
    dk_blocks,
    ez_map,
    homology,
    identity,
    identity_chain_map,
    is_exact,
    kron,
    map_to_json,
    mapping_cone,
    moore,
    nor,
    nor_tensor_compare,
    shuffle_map_left,
    shuffle_map_right,
    shuffle_product,
    shuffle_to_json,
    sphere,
    tensor,
    tensor_map,
    tensor_sm,
    zeros,
)
from artifact.chains import _keyed_block_matrix
from artifact.cli import change_ring
from artifact.deltacat import enumerate_jointly_monic_pairs
from artifact.shuffle import _shuffle_layout
from artifact.simplicial import _dk_layout
from artifact.errors import DomainError, RingError, ShapeError

from oracles import (
    dense,
    dense_aw_map,
    dense_ez_map,
    dense_identity,
    dense_matmul,
    dense_shuffle_map_left,
    dense_shuffle_map_right,
    random_chain_map,
    random_complex,
    random_matrix,
    same_as_dense,
    zero_rank_map,
)


def zmat(rows, cols, grid):
    return Matrix(ZZ, rows, cols, tuple(tuple(r) for r in grid))


def torsion_circle():
    # H_0 = Z/2
    return ConnComplex(ZZ, (1, 1), {1: zmat(1, 1, [[2]])})


# ---------------------------------------------------------------------------
# the shuffle product complex


def test_shuffle_blocks_follow_the_pair_enumeration():
    rng = random.Random(5)
    x = random_complex(rng, ZZ, max_top=2, max_rank=2)
    y = random_complex(rng, ZZ, max_top=2, max_rank=2)
    s = shuffle_product(x, y)
    assert s.top == x.top + y.top
    for n in range(s.top + 1):
        pairs = enumerate_jointly_monic_pairs(n, x.top, y.top)
        assert list(s.blocks[n]) == pairs
        assert s.rank(n) == sum(
            x.rank(f.target_top) * y.rank(g.target_top) for f, g in pairs
        )


def test_shuffle_with_the_unit_is_the_identity():
    rng = random.Random(6)
    for ring in (ZZ, GF(3)):
        for _ in range(5):
            x = random_complex(rng, ring, max_top=3, max_rank=3)
            right = shuffle_product(x, sphere(0, ring)).underlying
            left = shuffle_product(sphere(0, ring), x).underlying
            assert right.ranks == x.ranks
            assert left.ranks == x.ranks
            for n in range(1, x.top + 1):
                assert right.diff(n) == x.diff(n)
                assert left.diff(n) == x.diff(n)


def test_shuffle_of_two_one_spheres_is_pinned():
    s = shuffle_product(sphere(1), sphere(1))
    assert s.underlying.ranks == (0, 1, 2)
    assert s.diff(2).entries == ((-1, -1),)
    assert [(f.values, g.values) for f, g in s.blocks[2]] == [
        ((0, 1, 1), (0, 0, 1)),
        ((0, 0, 1), (0, 1, 1)),
    ]
    hs = homology(s.underlying)
    assert [h.free_rank for h in hs] == [0, 0, 1]
    assert all(h.torsion == () for h in hs)


# sha256 of json.dumps of the list of shuffle_to_json(shuffle_product(x, y))
# and of map_to_json(ez_map(x, y)) over the 16 pairs the test draws at each
# seed, computed before the Dold-Kan rule read blocks off value tuples
PINNED_SHUFFLE_SHA256 = {
    701: (
        "37be98b438da098bcff63256f3966005037f108fc970f82bfaf2ba65bfd60643",
        "0f0472681ed9b5f4b9c010efd24cc25c6bba0e89d175acdd61c5bf2c417e533b",
    ),
    702: (
        "fa26290301bb122ae20c93fb5aad8ec84a7f8f8e4af2756d2c1499dfd1c7fb34",
        "e6da20871ce0c1988ee449ac05e911ec33af396fbc6320b8a34f6a8d80da25e8",
    ),
    703: (
        "05173cb502d127a17c842355315a080e475a590fcbe0c7821141ca7c9f6cbb6c",
        "3befd46d06c196cc0afd5079e486287f7ba1047ac3cc14cc872e35fd24a681b0",
    ),
    704: (
        "1094fb2de72bbabffb94d38ff024d67e79ccb5aca1eb1c57f40396221ccd5790",
        "570323847255d889784838962fd0297df16957cf37b9d447d37170d4afb841f6",
    ),
    705: (
        "e75998c6a1ce19fa46c93706d1efa0721fdd94bd8f5edfbe43cbb9a0df519401",
        "540c5f9a47bdbb6e207f3fcd457028483bbf0f8e8fd96297eafed5bafa4a82aa",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SHUFFLE_SHA256))
def test_shuffle_product_and_ez_map_write_the_pinned_json(seed):
    rng = random.Random(seed)
    pairs = [
        (random_complex(rng, ring, max_top=3, max_rank=2), random_complex(rng, ring, max_top=3, max_rank=2))
        for ring in (ZZ, QQ, GF(2), GF(5))
        for _ in range(4)
    ]
    docs = (
        json.dumps([shuffle_to_json(shuffle_product(x, y)) for x, y in pairs]),
        json.dumps([map_to_json(ez_map(x, y)) for x, y in pairs]),
    )
    digests = tuple(hashlib.sha256(doc.encode()).hexdigest() for doc in docs)
    assert digests == PINNED_SHUFFLE_SHA256[seed]


def test_shuffle_squares_to_zero_and_respects_rings():
    rng = random.Random(7)
    for ring in (ZZ, QQ, GF(2)):
        x = random_complex(rng, ring, max_top=2, max_rank=2)
        y = random_complex(rng, ring, max_top=2, max_rank=2)
        s = shuffle_product(x, y).underlying
        for n in range(2, s.top + 1):
            assert (s.diff(n - 1) @ s.diff(n)).is_zero
    with pytest.raises(RingError):
        shuffle_product(sphere(1), sphere(1, QQ))


def _jointly_monic_indices(x, y, n):
    """Kronecker indices, in pair order, of the jointly monic blocks of level
    n of dk(x) (x) dk(y); row-major within each block, as kron lays it out."""
    offsets = []
    for z in (x, y):
        start, at = 0, {}
        for f in dk_blocks(n):
            at[f.values] = start
            start += z.rank(f.target_top)
        offsets.append((at, start))
    (x_at, _), (y_at, y_dim) = offsets
    return [
        (x_at[f.values] + i) * y_dim + y_at[g.values] + j
        for f, g in enumerate_jointly_monic_pairs(n, x.top, y.top)
        for i in range(x.rank(f.target_top))
        for j in range(y.rank(g.target_top))
    ]


def test_shuffle_differential_is_the_moore_differential_of_the_dk_diagonal():
    # the defining relation: restricted to the jointly monic blocks, the
    # alternating face sum of dk(X) (x) dk(Y) is the shuffle differential
    rng = random.Random(23)
    checks = 0
    for ring in (ZZ, GF(2), GF(3), QQ):
        for _ in range(8):
            x = random_complex(rng, ring, max_top=3, max_rank=2)
            y = random_complex(rng, ring, max_top=2, max_rank=2)
            h = x.top + y.top
            diagonal = moore(tensor_sm(dk(x, h), dk(y, h)))
            s = shuffle_product(x, y)
            for n in range(1, h + 1):
                rows = _jointly_monic_indices(x, y, n - 1)
                cols = _jointly_monic_indices(x, y, n)
                assert diagonal.diff(n).row_select(rows).col_select(cols) == s.diff(n)
                checks += 1
    assert checks >= 64


def test_shuffle_face_rules_are_resolved_once_per_structure_map():
    # like the Dold-Kan layout, the face rule of each block is simplex
    # combinatorics only: a second product with the same ranks reuses it
    from artifact.simplicial import _dk_rule

    rng = random.Random(29)
    x = random_complex(rng, ZZ, max_top=3, max_rank=2)
    y = random_complex(rng, ZZ, max_top=2, max_rank=2)
    over_z = shuffle_product(x, y).underlying
    x2, y2 = change_ring(x, GF(5)), change_ring(y, GF(5))
    before = _dk_rule.cache_info()
    assert shuffle_product(x2, y2).underlying == change_ring(over_z, GF(5))
    after = _dk_rule.cache_info()
    assert after.misses == before.misses, "a shuffle face rule was resolved again"
    assert after.hits > before.hits


def _zero_rank_complexes():
    """Complexes with leading, interior and trailing zero ranks."""
    one = Matrix(GF(3), 1, 1, ((1,),))
    return [
        sphere(0),
        sphere(2),
        ConnComplex(ZZ, (1, 0, 2)),
        ConnComplex(GF(3), (0, 1, 1, 0, 2), {2: one}),
        nor(dk(torsion_circle(), 4)).complex,
        nor(dk(random_complex(random.Random(31), ZZ, max_top=2, max_rank=2), 4)).complex,
    ]


def test_layouts_list_the_nonzero_blocks_of_the_full_enumeration_in_order():
    # one rule for a zero summand: the Dold-Kan and shuffle layouts hold
    # exactly the nonzero-size entries of dk_blocks and of the pair
    # enumeration, key for key and in their order
    complexes = _zero_rank_complexes()
    assert complexes[4].ranks == (1, 1, 0, 0, 0)
    for x in complexes:
        for n in range(6):
            full = [(f.values, x.rank(f.target_top)) for f in dk_blocks(n)]
            assert list(_dk_layout(x, n).items()) == [(key, size) for key, size in full if size]
    for x in complexes:
        for y in complexes:
            if x.ring != y.ring:
                continue
            for n in range(x.top + y.top + 2):
                full = [
                    ((f.values, g.values), x.rank(f.target_top) * y.rank(g.target_top))
                    for f, g in enumerate_jointly_monic_pairs(n, x.top, y.top)
                ]
                assert list(_shuffle_layout(x, y, n).items()) == [(key, size) for key, size in full if size]


def test_shuffle_pairs_are_enumerated_once_per_nonzero_pattern():
    # the live pairs depend on the nonzero pattern of the ranks only: a
    # product over another ring with other ranks of the same pattern adds
    # no miss to the pair table
    from artifact.deltacat import _jointly_monic_pairs

    y = nor(dk(torsion_circle(), 3)).complex
    shuffle_product(ConnComplex(ZZ, (1, 0, 2)), y)
    before = _jointly_monic_pairs.cache_info()
    shuffle_product(ConnComplex(GF(5), (2, 0, 1)), change_ring(y, GF(5)))
    after = _jointly_monic_pairs.cache_info()
    assert after.misses == before.misses, "a pair list was enumerated again"
    assert after.hits > before.hits


# A fresh interpreter, so that no earlier test has filled a Δ cache.  It
# counts the MonotoneMaps built.
BOUNDARY_SCRIPT = """
import json, random
from artifact import ZZ, GF, dk, dk_map, identity_chain_map
from artifact import nor_tensor_compare, shuffle_map_left, shuffle_product
from artifact import deltacat
from oracles import random_complex

built = []
init = deltacat.MonotoneMap.__post_init__
deltacat.MonotoneMap.__post_init__ = lambda self: (built.append(self), init(self))[1]

rng = random.Random(761)
pairs = [(random_complex(rng, r, 2, 2), random_complex(rng, r, 2, 2)) for r in (ZZ, GF(2)) for _ in range(5)]
for x, y in pairs:
    nor_tensor_compare(dk(x, 4), dk(y, 4))
generating = lambda: deltacat.face.cache_info().currsize + deltacat.degeneracy.cache_info().currsize
out = {"cold": len(built), "generating": generating(), "boundary": deltacat._surjection.cache_info().currsize}
for x, y in pairs:
    shuffle_product(x, y), shuffle_map_left(identity_chain_map(x), y)
out["warm"] = len(built) - out["cold"]
# dk_map checks every degeneracy of its modules, which the pass never read
for x, y in pairs:
    dk_map(identity_chain_map(x), 4)
out["dk_map"] = len(built) - out["cold"] - out["warm"]
out["dk_map_generating"] = generating() - out["generating"]
out["same_maps"] = all(
    f is g for f, g in zip(deltacat.enumerate_surjections(5, 2), deltacat.enumerate_surjections(5, 2))
)
print(json.dumps(out))
"""


def test_monotone_maps_are_built_only_at_the_public_boundary():
    # inside the library a surjection is its value tuple: a cold
    # normalized-tensor pass builds the faces and degeneracies it acts by
    # and one public map per surjection that its products list in blocks,
    # later products and shuffle maps build none, and dk_map builds only
    # the degeneracies it checks for the first time
    paths = [os.path.dirname(os.path.dirname(artifact.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths + [os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["cold"] == out["generating"] + out["boundary"], out
    assert out["warm"] == 0, out
    assert out["dk_map"] == out["dk_map_generating"], out
    assert out["same_maps"], out


# ---------------------------------------------------------------------------
# functoriality


def test_shuffle_map_of_identities_is_the_identity():
    x = torsion_circle()
    y = sphere(1)
    s = shuffle_product(x, y).underlying
    assert shuffle_map_left(identity_chain_map(x), y) == identity_chain_map(s)
    assert shuffle_map_right(x, identity_chain_map(y)) == identity_chain_map(s)
    with pytest.raises(RingError):
        shuffle_map_left(identity_chain_map(x), sphere(1, QQ))
    with pytest.raises(RingError):
        shuffle_map_right(sphere(1, QQ), identity_chain_map(y))


def test_shuffle_maps_compose():
    rng = random.Random(8)
    y = random_complex(rng, ZZ, max_top=2, max_rank=2)
    f = random_chain_map(rng, ZZ, max_top=2, max_rank=2)
    g = ChainMap(
        f.target,
        f.target,
        {n: identity(ZZ, f.target.rank(n)).scale(2) for n in range(f.target.top + 1)},
    )
    left = shuffle_map_left(compose_maps(g, f), y)
    assert left == compose_maps(shuffle_map_left(g, y), shuffle_map_left(f, y))
    right = shuffle_map_right(y, compose_maps(g, f))
    assert right == compose_maps(shuffle_map_right(y, g), shuffle_map_right(y, f))


def _factors(rng, ring, case):
    """A random map and a random complex; the first case has rank zero in
    degree 1 of the map's complexes, the second in degree 1 of the complex."""
    mu = zero_rank_map(rng, ring) if case == 0 else random_chain_map(rng, ring)
    if case == 1:
        return mu, zero_rank_map(rng, ring).source
    return mu, random_complex(rng, ring, max_top=2, max_rank=2)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_shuffle_maps_match_the_dense_oracles(ring):
    rng = random.Random(713)
    for case in range(8):
        mu, y = _factors(rng, ring, case)
        left, right = shuffle_map_left(mu, y), shuffle_map_right(y, mu)
        for n in range(max(left.source.top, left.target.top) + 1):
            assert same_as_dense(left.component(n), dense_shuffle_map_left(mu, y, n))
            assert same_as_dense(right.component(n), dense_shuffle_map_right(y, mu, n))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_comparison_map_matches_the_dense_oracle(ring):
    rng = random.Random(714)
    for case in range(8):
        mu, y = _factors(rng, ring, case)
        for x in (mu.source, mu.target):
            nabla = ez_map(x, y)
            for n in range(x.top + y.top + 1):
                assert same_as_dense(nabla.component(n), dense_ez_map(x, y, n))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_alexander_whitney_inverts_the_comparison_map_and_is_a_chain_map(ring):
    # the dense Alexander-Whitney oracle walks every jointly monic pair;
    # AW o EZ is the identity of X (x) Y and AW o d = d o AW, in every
    # degree, and random_complex draws zero ranks, so the pairs that the
    # layouts leave out are met
    rng = random.Random(715)
    zero_ranks = 0
    for _ in range(8):
        x = random_complex(rng, ring, max_top=3, max_rank=2)
        y = random_complex(rng, ring, max_top=3, max_rank=2)
        zero_ranks += 0 in x.ranks + y.ranks
        nabla, boxed, product = ez_map(x, y), shuffle_product(x, y), tensor(x, y)
        aw = [dense_aw_map(x, y, n) for n in range(boxed.top + 1)]
        for n in range(boxed.top + 1):
            back = dense_matmul(ring, aw[n], dense(nabla.component(n)))
            assert repr(back) == repr(dense_identity(ring, product.rank(n)))
            if n:
                lhs = dense_matmul(ring, aw[n - 1], dense(boxed.diff(n)))
                assert repr(lhs) == repr(dense_matmul(ring, dense(product.diff(n)), aw[n]))
    assert zero_ranks


def test_comparison_map_is_natural():
    mu = ChainMap(sphere(1), sphere(1), {1: zmat(1, 1, [[3]])})
    y = torsion_circle()
    lhs = compose_maps(shuffle_map_left(mu, y), ez_map(sphere(1), y))
    rhs = compose_maps(ez_map(sphere(1), y), tensor_map(mu, identity_chain_map(y)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the comparison map


def test_comparison_map_on_two_circles_is_signed():
    nabla = ez_map(sphere(1), sphere(1))
    assert nabla.component(2).entries == ((1,), (-1,))
    assert is_exact(mapping_cone(nabla))


def test_comparison_map_is_an_equivalence_on_small_torsion_examples():
    cases = [
        (torsion_circle(), torsion_circle()),
        (disk(1), sphere(1)),
        (sphere(2), torsion_circle()),
    ]
    for x, y in cases:
        nabla = ez_map(x, y)
        assert is_exact(mapping_cone(nabla))
        assert homology(tensor(x, y)) == homology(shuffle_product(x, y).underlying)


def test_torsion_appears_on_both_routes():
    x = torsion_circle()
    hs_tensor = homology(tensor(x, x))
    hs_shuffle = homology(shuffle_product(x, x).underlying)
    assert hs_tensor == hs_shuffle
    assert hs_tensor[1].torsion == (2,)


def test_random_comparison_maps_are_equivalences():
    rng = random.Random(9)
    for ring in (ZZ, GF(2)):
        for _ in range(10):
            x = random_complex(rng, ring, max_top=2, max_rank=2)
            y = random_complex(rng, ring, max_top=2, max_rank=2)
            nabla = ez_map(x, y)
            assert is_exact(mapping_cone(nabla))


# ---------------------------------------------------------------------------
# the two routes to the product of simplicial modules


def test_normalized_tensor_matches_shuffle_on_circles():
    report = nor_tensor_compare(dk(sphere(1), 2), dk(sphere(1), 2))
    assert report.left_ranks == (0, 1, 2)
    assert report.ranks_match and report.homology_matches and report.passed


def test_normalized_tensor_comparison_rejects_mismatches():
    with pytest.raises(RingError):
        nor_tensor_compare(dk(sphere(1), 2), dk(sphere(1, QQ), 2))
    with pytest.raises(DomainError):
        nor_tensor_compare(dk(sphere(1), 2), dk(sphere(1), 3))


def test_normalized_tensor_matches_shuffle_on_random_pairs():
    rng = random.Random(10)
    for ring in (ZZ, GF(2)):
        for _ in range(3):
            m = dk(random_complex(rng, ring, max_top=2, max_rank=2), 2)
            n = dk(random_complex(rng, ring, max_top=2, max_rank=2), 2)
            assert nor_tensor_compare(m, n).passed


# ---------------------------------------------------------------------------
# generator stability


def test_generator_tests_on_a_boundary_inclusion():
    mu = ChainMap(sphere(0), disk(1), {0: identity(ZZ, 1)})
    assert classify(mu).cofibration and not classify(mu).weak_equivalence
    for n in (1, 2):
        disk_class, unit_class = boxtimes_generator_tests(mu, n)
        assert disk_class.cofibration and disk_class.weak_equivalence
        assert unit_class.cofibration and not unit_class.weak_equivalence
    with pytest.raises(DomainError):
        boxtimes_generator_tests(mu, 0)


def test_generator_tests_on_a_trivial_cofibration():
    mu = ChainMap(sphere(1), disk(2) , {1: identity(ZZ, 1)})
    cls = classify(mu)
    assert cls.cofibration and cls.weak_equivalence is False
    # a genuinely trivial cofibration: 0 -> D(1)
    zero = ConnComplex(ZZ, (0,), {})
    iota = ChainMap(zero, disk(1), {})
    cls = classify(iota)
    assert cls.cofibration and cls.weak_equivalence
    disk_class, unit_class = boxtimes_generator_tests(iota, 2)
    assert disk_class.cofibration and disk_class.weak_equivalence
    assert unit_class.cofibration and unit_class.weak_equivalence


# ---------------------------------------------------------------------------
# serialization


def test_shuffle_json_carries_the_block_layout():
    s = shuffle_product(sphere(1), sphere(1))
    obj = shuffle_to_json(s)
    assert obj["ranks"] == [0, 1, 2]
    assert obj["blocks"][2] == [
        {"f": [0, 1, 1], "g": [0, 0, 1], "k": 1, "l": 1},
        {"f": [0, 0, 1], "g": [0, 1, 1], "k": 1, "l": 1},
    ]


def cells(a):
    return {(i, j) for i, row in a._rows.items() for j in row}


@pytest.mark.parametrize("ring", [GF(2), GF(5)], ids=str)
def test_block_writer_stores_canonically(ring):
    rng = random.Random(917)
    for _ in range(10):
        x = random_complex(rng, ring, max_top=3, max_rank=2)
        y = random_complex(rng, ring, max_top=2, max_rank=2)
        m = dk(x, 4)
        written = [shuffle_product(x, y).diff(n) for n in range(1, x.top + y.top + 1)]
        written += [tensor(x, y).diff(n) for n in range(1, x.top + y.top + 1)]
        written += [m.face(n, i) for n in range(1, 5) for i in range(n + 1)]
        written += [m.degen(n, i) for n in range(4) for i in range(n + 1)]
        written += [ez_map(x, y).component(n) for n in range(x.top + y.top + 1)]
        for d in written:
            assert d == Matrix(ring, d.rows, d.cols, d.entries)
            assert all(d._rows.values()) and all(x for row in d._rows.values() for x in row.values())


def split(rng, n):
    """Two sizes whose product is n."""
    if n == 0:
        k = rng.randint(0, 2)
        return (0, k) if rng.random() < 0.5 else (k, 0)
    d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    return d, n // d


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_block_writer_matches_block_matrix(ring):
    rng = random.Random(919)
    other = GF(3) if ring == GF(5) else GF(5)
    for _ in range(60):
        rows = {("r", i): rng.randint(0, 3) for i in range(rng.randint(0, 4))}
        cols = {("c", j): rng.randint(0, 3) for j in range(rng.randint(0, 4))}
        blocks, placed = {}, {}
        for bi, (row, height) in enumerate(rows.items()):
            for bj, (col, width) in enumerate(cols.items()):
                if rng.random() < 0.3:
                    continue
                if rng.random() < 0.4:
                    term = placed[bi, bj] = random_matrix(rng, ring, height, width, bound=2)
                else:
                    (h1, h2), (w1, w2) = split(rng, height), split(rng, width)
                    a, b = random_matrix(rng, ring, h1, w1, 2), random_matrix(rng, ring, h2, w2, 2)
                    term = (rng.choice((1, -1)), a, b)
                    placed[bi, bj] = kron(a, b).scale(term[0])
                blocks[row, col] = term
        got = _keyed_block_matrix(ring, rows, cols, blocks)
        assert got == block_matrix(ring, list(rows.values()), list(cols.values()), placed)
        assert got == Matrix(ring, got.rows, got.cols, got.entries)
        for outside in ((("r", 9), ("c", 0)), (("r", 0), ("c", 9))):
            with pytest.raises(ShapeError, match="lies outside the layout"):
                _keyed_block_matrix(ring, rows, cols, {**blocks, outside: zeros(ring, 0, 0)})
        for key, size in zip(blocks, ((1, 0), (0, 1))):
            height, width = rows[key[0]] + size[0], cols[key[1]] + size[1]
            for term in (zeros(ring, height, width), (1, zeros(ring, height, 1), zeros(ring, 1, width))):
                with pytest.raises(ShapeError, match=f"has shape {height}x{width}"):
                    _keyed_block_matrix(ring, rows, cols, {**blocks, key: term})
        for key in list(blocks)[:1]:
            height, width = rows[key[0]], cols[key[1]]
            for term in (zeros(other, height, width), (1, identity(ring, 1), zeros(other, height, width))):
                with pytest.raises(RingError, match="over another ring"):
                    _keyed_block_matrix(ring, rows, cols, {**blocks, key: term})
            # a tag equal to ring but another object names the same ring
            same = type(ring)(ring.kind, ring.p)
            assert same == ring and same is not ring
            term = blocks[key]
            if type(term) is Matrix:
                term = Matrix(same, term.rows, term.cols, term.entries)
            else:
                term = (term[0], Matrix(same, term[1].rows, term[1].cols, term[1].entries), term[2])
            assert _keyed_block_matrix(ring, rows, cols, {**blocks, key: term}) == got
