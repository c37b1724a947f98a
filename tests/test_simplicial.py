import hashlib
import itertools
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
    canonical_columns,
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
    zeros,
)
from artifact.chains import _check_matrix
from artifact.cli import change_ring
from artifact.deltacat import (
    MonotoneMap,
    compose,
    degeneracy,
    epi_mono_factorize,
    face,
    identity_map,
)
from artifact.errors import DomainError, NotSimplicial, RingError, ShapeError
from artifact.shuffle import nor_tensor_compare
from artifact.simplicial import _families, dk_blocks, dk_transition

from oracles import (
    dense,
    dense_det,
    dense_dk_map,
    dense_dk_transition,
    dense_matmul,
    degeneracy_violating_module,
    dold_kan_counit,
    dold_kan_projector,
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


@pytest.mark.parametrize(
    "i, j, message",
    [
        (-1, 0, "no pair (-1,0) among 2 elements"),
        (0, 2, "no pair (0,2) among 2 elements"),
        (True, 0, "no pair (True,0) among 2 elements"),
        (1.0, 0, "no pair (1.0,0) among 2 elements"),
    ],
)
def test_poset_comparisons_outside_its_elements_raise_index_error(i, j, message):
    # -1 would read the last row and True the second; 1.0 indexes nothing
    p = chain_poset(1)
    with pytest.raises(IndexError) as info:
        p.le(i, j)
    assert type(info.value) is IndexError and str(info.value) == message
    assert p.le(0, 1) and not p.le(1, 0)


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
# structure maps built on first read

RINGS = [ZZ, QQ, GF(2), GF(5)]


def _drawn(rng, ring, top):
    """A random complex of this top with no zero rank and no zero
    differential."""
    while True:
        x = random_complex(rng, ring, max_top=top, max_rank=2)
        if x.top == top and all(x.ranks) and not any(x.diff(n).is_zero for n in range(1, top + 1)):
            return x


def _lazy_built(seed, ring):
    """{builder name: a function building one module with that builder},
    on inputs drawn from Random(seed) over ring; each call builds afresh
    and reads nothing.  cylinder stands for its cylinder module, the target
    of its inclusion."""
    rng = random.Random(seed)
    x, y = _drawn(rng, ring, 2), _drawn(rng, ring, 1)
    leq = [[i <= j and (i == j or rng.random() < 0.5) for j in range(4)] for i in range(4)]
    for k, i, j in itertools.product(range(4), repeat=3):
        leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    shape = nerve(FinPoset("abcd", leq), 3)
    return {
        "dk": lambda: dk(x, 3),
        "tensor_sm": lambda: tensor_sm(dk(x, 3), dk(y, 3)),
        "copower": lambda: copower(dk(x, 3), boundary_simplex_set(2, 3)),
        "direct_sum_sm": lambda: direct_sum_sm(dk(x, 3), dk(y, 3)),
        "free_module": lambda: free_module(shape, ring),
        "cylinder": lambda: cylinder(dk(x, 3))[0].target,
    }


def _families_of(m):
    """(which, level) for every family of m: faces (which 0) at levels
    1..horizon, then degeneracies (which 1) at levels 0..horizon-1."""
    h = m.horizon
    return [(0, lv) for lv in range(1, h + 1)] + [(1, lv) for lv in range(h)]


def _stored(m, which, level):
    """The stored family at that level of m's faces or degeneracies, None
    while it is not built."""
    return m._faces[level - 1] if which == 0 else m._degens[level]


def _one_changed(m, which, level):
    """A lazy module built by SimplicialModule._trusted from the structure
    maps of m, except that map 0 of the given family has 1 added at its
    (0, 0) entry; None when that map has no entry."""
    rows, cols = m.rank(level + (-1, 1)[which]), m.rank(level)
    if not rows or not cols:
        return None
    grid = [[int(i == j == 0) for j in range(cols)] for i in range(rows)]
    bump = Matrix(m.ring, rows, cols, grid)
    at = [m.face, m.degen]
    base = at[which]
    at[which] = lambda lv, i: base(lv, i) + bump if (lv, i) == (level, 0) else base(lv, i)
    return SimplicialModule._trusted(m.ring, m.ranks, *at)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_lazy_modules_equal_their_eager_rebuild(ring):
    for name, build in _lazy_built(707, ring).items():
        assert build()._pending is not None, name
        m = build()._force()
        for which, level in _families_of(m):
            kind, step = (("face", -1), ("degeneracy", 1))[which]
            rows, cols = m.rank(level + step), m.rank(level)
            fams = _stored(m, which, level)
            assert len(fams) == level + 1, name
            for i, mat in enumerate(fams):
                _check_matrix(mat, ring, rows, cols, kind, (level, i), name)
        assert check_simplicial_identities(m).ok, name
        faces, degens = dict(enumerate(m._faces, 1)), dict(enumerate(m._degens))
        eager = SimplicialModule(ring, m.ranks, faces, degens)
        assert eager._pending is None
        assert build() == eager and eager == build(), name


def test_a_lazy_family_is_checked_when_it_is_built():
    one = identity(ZZ, 1)
    wrong_shape = SimplicialModule._trusted(ZZ, (1, 1), lambda m, i: zeros(ZZ, 2, 1), lambda m, i: one)
    assert wrong_shape.degen(0, 0) == one
    with pytest.raises(ShapeError, match=r"face \(1,0\) must be 1x1, got 2x1"):
        wrong_shape.face(1, 0)
    wrong_ring = SimplicialModule._trusted(ZZ, (1, 1), lambda m, i: one, lambda m, i: identity(QQ, 1))
    with pytest.raises(RingError, match=r"degeneracy \(0,0\) is over Q, module over Z"):
        wrong_ring._force()
    assert wrong_ring._faces == [(one, one)] and wrong_ring._degens == [None]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_module_differing_in_a_level_nobody_read_is_unequal(ring):
    changed = 0
    for name, build in _lazy_built(708, ring).items():
        m = build()._force()
        for which, level in _families_of(m):
            if _one_changed(m, which, level) is None:
                continue
            changed += 1
            assert build() != _one_changed(m, which, level), (name, which, level)
            assert _one_changed(m, which, level) != build(), (name, which, level)
            # every other family read first, on both sides
            lazy, other = build(), _one_changed(m, which, level)
            for w, lv in _families_of(m):
                if (w, lv) != (which, level):
                    assert (lazy.face, lazy.degen)[w](lv, 0) == (other.face, other.degen)[w](lv, 0)
            assert _stored(other, which, level) is None
            assert lazy != other, (name, which, level)
    assert changed > 0


# sha256 of json.dumps of the list of module_to_json over Z, Q, F2 and F5
# of each builder of _lazy_built, computed on the tree before the builders
# became lazy, when every family was built at construction
PINNED_JSON_SHA256 = {
    "dk": [
        "581a4023116e7556ed2c6c2265cc2afbe7b3689f9c7116de37679c5888f634f8",
        "e9ddde3eca4652239e9c13acafe869d57192279b36a38f2b9bbcf9ae604570d7",
        "de9fc1596844ec839e4fee771e1b95a6484082f37242ef811cfbb467b8328a76",
        "a2f1e91e2c81fb2fc465d5ac2d05403e887347945dc160202d8d922a8b981854",
        "06b65e2a79942720b10813abf44168cf7d31738766e0f8ca9449723411664561",
    ],
    "tensor_sm": [
        "01b3d52550cfc43670d1708ec49146e0914780a77a4e565e45c79720240cea26",
        "86fbbe19fa3952e4f22f9a112d13c60efda172c29cbae76226cd54b22356b376",
        "afa4500d18a18711e7298d8f38c15fec15e445d444e79956a36d398148c8570a",
        "59a4308d68d3ece7194791616df828a6be0e72644cab79de931ac3009c2e9b15",
        "6b402aa0755c54b7df7d46f2eea7bee39c517bdd8f4976ee25c07861f55e13c1",
    ],
    "copower": [
        "5bae08d533e11e3f53b916de3156a2f28c474273fc1f7891199f1270b019f9f1",
        "978cfff179d0ea30b722bcec55111cdc31ee69ed32c1507f5126365ba78a63da",
        "74b64b2db0cfe8f366abb2d494af93b1adc83ebd9e3b452b4eaabb3775d0716a",
        "661fe9002330797119678ba1ebb5952ab34284701c2a0dd65445c8f088f3bcc0",
        "8ff5f0c65d81b3bc255ad6ef05d2b796897632113697ddeb543fc32bf20b16ea",
    ],
    "direct_sum_sm": [
        "27bd1aa6fc0c638134367ceb8a5d9592c04e718b31550ee682dd51d4d53b1a05",
        "cf8d90ec20285e978fa46085d05278a4075d980de6e118a586a6e8f55f48294c",
        "25dfde90cc989b2d2badad10561b643a2ba5480c556c2559af672bfbcda4c03f",
        "29e4b3e40a242f519c8f295680131a49d72400a1822fe07949450af6d181ee38",
        "a60dcba4079bb9696923040e62defeccf1ca4bbb2ea5b16d1d4954dc83b571cb",
    ],
    "free_module": [
        "68fa8e6140d7198fed8549f9df49a98861514d4f1aa75fe8bb81f9a026d2f26a",
        "fbe83ef21aef7c3278a0d7b747ba296e9d4951a422cb08798a4ded37cef867ae",
        "a7506b3fb8890f56236e071781c93a52be12fcfff58b74610978484e4e61bf2b",
        "d75846d631574bcda4d20a57a46e9a3cbe70d4ae4180939fd1580fd3c9f0a4eb",
        "11a0b4a6691f3af167ea5d0f278e9c2a00ac16f5722e57cde4cc0b25df00d857",
    ],
    "cylinder": [
        "39f803831cf4101a5c07b18b918923c9fc2d5a36d2f357fb53aa565ac60d0779",
        "56b8c971985c3bd88534a1a9ba1d7b22f00df59f1063e0abb5df498b805b73ac",
        "b981cdb40ea5c4364662ff282bf8c2b103b76b912d4889dcf1dad636d6dd3449",
        "c60d27d6da2c29c3b1ce009ced9d0390033c336b354cc4e651318e5fd10974ab",
        "c69598ad4f287eb2dfdb14c7213a45c7166155b8d5981a9ea113bfa2cfc20aaa",
    ],
}


@pytest.mark.parametrize("seed", range(701, 706))
def test_lazy_builders_write_the_pinned_json(seed):
    built = [_lazy_built(seed, ring) for ring in RINGS]
    for name in built[0]:
        doc = json.dumps([module_to_json(b[name]()) for b in built])
        digest = hashlib.sha256(doc.encode()).hexdigest()
        assert digest == PINNED_JSON_SHA256[name][seed - 701], name


def test_comparing_nor_tensor_builds_no_degeneracy(monkeypatch):
    # nor reads only faces, and so does the shuffle side, so neither dk
    # module nor their levelwise tensor builds a degeneracy
    import artifact.shuffle as shuffle

    tensors = []

    def recording(m, n):
        tensors.append(tensor_sm(m, n))
        return tensors[-1]

    monkeypatch.setattr(shuffle, "tensor_sm", recording)
    for ring in (ZZ, GF(2)):
        rng = random.Random(709)
        m, n = dk(_drawn(rng, ring, 2), 4), dk(_drawn(rng, ring, 1), 4)
        report = nor_tensor_compare(m, n)
        assert report.passed
        for module in (m, n, tensors[-1]):
            assert module._pending is not None
            assert module._degens == [None] * 4
            assert None not in module._faces


def test_lazy_modules_get_their_builders_only_from_store():
    # a static check: a module whose families wait for their first read gets
    # its builders only in SimplicialModule._store; every other assignment
    # to _pending clears it
    import ast
    import pathlib

    import artifact

    def sets_pending(node):
        return (
            isinstance(node, ast.Assign)
            and any(getattr(t, "attr", None) == "_pending" for t in node.targets)
            and not (isinstance(node.value, ast.Constant) and node.value.value is None)
        )

    found = Counter()
    for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_methods = 0
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        n = sum(map(sets_pending, ast.walk(node)))
                        found[f"{path.name}:{cls.name}.{node.name}"] += n
                        in_methods += n
        # none outside a method
        assert sum(map(sets_pending, ast.walk(tree))) == in_methods, path.name
    assert +found == {"simplicial.py:SimplicialModule._store": 1}


# ---------------------------------------------------------------------------
# reads outside a simplicial object's levels raise IndexError

# (read, arguments, message) on an object of horizon 2: faces live at
# levels 1..2, degeneracies at 0..1, index i at level m in 0..m
OUTSIDE_THE_LEVELS = [
    ("face", (0, 0), "no face (0,0) at horizon 2"),
    ("face", (3, 0), "no face (3,0) at horizon 2"),
    ("face", (-1, 0), "no face (-1,0) at horizon 2"),
    ("face", (1, -1), "no face (1,-1) at horizon 2"),
    ("face", (1, 2), "no face (1,2) at horizon 2"),
    ("degen", (-1, 0), "no degeneracy (-1,0) at horizon 2"),
    ("degen", (2, 0), "no degeneracy (2,0) at horizon 2"),
    ("degen", (0, -1), "no degeneracy (0,-1) at horizon 2"),
    ("degen", (1, 2), "no degeneracy (1,2) at horizon 2"),
    ("rank", (-1,), "no level -1 at horizon 2"),
    ("rank", (3,), "no level 3 at horizon 2"),
    # a float or a bool compares like an int but is no level or index
    ("face", (1.0, 0), "no face (1.0,0) at horizon 2"),
    ("face", (True, 0), "no face (True,0) at horizon 2"),
    ("face", (2, 1.0), "no face (2,1.0) at horizon 2"),
    ("degen", (1.0, 0), "no degeneracy (1.0,0) at horizon 2"),
    ("degen", (1, True), "no degeneracy (1,True) at horizon 2"),
    ("rank", (1.0,), "no level 1.0 at horizon 2"),
    ("rank", (True,), "no level True at horizon 2"),
]
# the same reads of a simplicial set
SET_READ = {"face": "face_map", "degen": "degen_map", "rank": "cell_count"}


def _module_read_as(how):
    """dk(D(1), 2), built by the constructor (eager), read back from JSON,
    lazy with no family read, or lazy with every family read."""
    lazy = dk(disk(1), 2)
    if how == "eager":
        faces, degens = _families(2, lazy.face, lazy.degen)
        return SimplicialModule(ZZ, lazy.ranks, dict(enumerate(faces, 1)), dict(enumerate(degens)))
    if how == "json":
        return module_from_json(module_to_json(lazy))
    if how == "lazy-read":
        _families(2, lazy.face, lazy.degen)
    return lazy


@pytest.mark.parametrize("how", ["eager", "json", "lazy-unread", "lazy-read"])
def test_module_reads_outside_its_levels_raise_index_error(how):
    m = _module_read_as(how)
    for read, args, message in OUTSIDE_THE_LEVELS:
        with pytest.raises(IndexError) as info:
            getattr(m, read)(*args)
        assert str(info.value) == message, (read, args)
    if how == "lazy-unread":
        # a refused read builds nothing
        assert m._faces == [None, None] and m._degens == [None, None]
    # the reads at the edges of the levels still answer
    reference = _module_read_as("eager")
    for read, args in [("face", (1, 0)), ("face", (2, 2)), ("degen", (0, 0)), ("degen", (1, 1))]:
        assert getattr(m, read)(*args) == getattr(reference, read)(*args)
    assert (m.rank(0), m.rank(2)) == (1, 3)


@pytest.mark.parametrize(
    "build", [lambda: simplex_set(1, 2), lambda: nerve(chain_poset(1), 2)], ids=["simplex", "nerve"]
)
def test_set_reads_outside_its_levels_raise_index_error(build):
    u = build()
    for read, args, message in OUTSIDE_THE_LEVELS:
        with pytest.raises(IndexError) as info:
            getattr(u, SET_READ[read])(*args)
        assert str(info.value) == message, (read, args)
    assert u.face_map(2, 2) == (0, 0, 1, 2) and u.degen_map(1, 1) == (0, 2, 3)
    assert (u.cell_count(0), u.cell_count(2)) == (2, 4)


@pytest.mark.parametrize("how", ["eager", "json", "lazy-unread", "lazy-read"])
def test_map_components_outside_the_levels_raise_index_error(how):
    f = identity_simplicial_map(_module_read_as(how))
    for m in (-1, 3, 1.0, True):
        with pytest.raises(IndexError) as info:
            f.component(m)
        assert str(info.value) == f"no level {m} at horizon 2"
    assert f.component(0) == identity(ZZ, 1) and f.component(2) == identity(ZZ, 3)


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


def test_dk_layout_is_resolved_once_per_structure_map():
    # a block map of a face or degeneracy is simplex combinatorics only, so
    # _dk_rule keeps it: another complex whose top is no larger reuses the
    # block maps of the first, onto [k] for every k <= top, without
    # resolving any of them again
    from artifact.simplicial import _dk_rule

    warm = ConnComplex(ZZ, (1, 2, 1, 1))
    assert warm.top == 3
    dk(warm, 3)._force()  # dk builds a structure map on its first read
    one = Matrix(GF(3), 1, 1, ((1,),))
    x = ConnComplex(GF(3), (1, 1, 1, 1), {1: one, 3: one})
    before = _dk_rule.cache_info()
    m = dk(x, 3)
    assert check_simplicial_identities(m).ok
    assert m.ranks == tuple(sum(comb(n, k) * x.rank(k) for k in range(n + 1)) for n in range(4))
    after = _dk_rule.cache_info()
    assert after.misses == before.misses, "a Dold-Kan block map was resolved again"
    assert after.hits > before.hits


def test_dk_resolves_only_the_summands_up_to_the_top(monkeypatch):
    # X_k is zero above x.top, so each structure map eta: [m] -> [n]
    # resolves at most one block per surjection [n] ->> [k] with k <= top,
    # not one per each of the 2^n surjections out of [n]
    import artifact.simplicial as simplicial

    x = ConnComplex(ZZ, (1, 1), {1: Matrix(ZZ, 1, 1, ((2,),))})
    horizon = 12
    rule = simplicial._dk_rule
    calls = Counter()

    def counting(g, eta):
        calls[eta] += 1
        return rule(g, eta)

    monkeypatch.setattr(simplicial, "_dk_rule", counting)
    m = dk(x, horizon)._force()  # dk builds a structure map on its first read
    assert m.ranks == tuple(n + 1 for n in range(horizon + 1))
    etas = [face(n, i) for n in range(1, horizon + 1) for i in range(n + 1)]
    etas += [degeneracy(n, i) for n in range(horizon) for i in range(n + 1)]
    assert set(calls) == {eta.values for eta in etas}
    for eta in etas:
        n = eta.target_top
        assert calls[eta.values] <= sum(comb(n, k) for k in range(x.top + 1))


def test_dk_rule_agrees_with_the_epi_mono_factorization():
    # the block map of eta on the block of g is the identity when the mono
    # part of g o eta is the identity of [k], (-1)^k times the differential
    # when it is the face that omits k, and zero otherwise; _dk_rule reads
    # this off the image of g o eta without factorizing
    from artifact.simplicial import _dk_rule

    def factored(g, eta):
        mono, epi = epi_mono_factorize(compose(g, eta))
        k = g.target_top
        if mono == identity_map(k):
            return epi.values, 0
        if k and mono == face(k, k):
            return epi.values, (-1) ** k
        return None

    cases = 0
    for n in range(6):
        surjections = dk_blocks(n)
        assert len(surjections) == 2**n
        for m in range(6):
            for values in itertools.combinations_with_replacement(range(n + 1), m + 1):
                eta = MonotoneMap(m, n, values)
                for g in surjections:
                    assert _dk_rule(g.values, eta.values) == factored(g, eta), (g, eta)
                    cases += 1
    assert cases == 38976


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


def nonzero_complex(rng, ring, max_top):
    """A seeded random complex of top 1..max_top with every rank nonzero."""
    while True:
        x = random_complex(rng, ring, max_top=max_top, max_rank=1)
        if x.top and all(x.ranks):
            return x


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(5), QQ], ids=str)
def test_the_dold_kan_projector_splits_off_the_degenerate_part(ring):
    """P_n = (1 - s_{n-1} d_{n-1}) ... (1 - s_0 d_0), computed densely, is
    the idempotent onto nor's N_n that kills d_0 .. d_{n-1}, and N_n + D_n
    from nor and degenerate_part is all of M_n over the ring."""
    rng = random.Random(f"dold-kan-split-{ring}")
    for _ in range(3):
        m = tensor_sm(dk(nonzero_complex(rng, ring, 2), 4), dk(nonzero_complex(rng, ring, 1), 4))
        normalized, degenerate = nor(m), degenerate_part(m)
        for n in range(m.horizon + 1):
            proj = dold_kan_projector(m, n)
            emb = normalized.embeddings[n]
            assert dense_matmul(ring, proj, proj) == proj
            for i in range(n):
                killed = dense_matmul(ring, dense(m.face(n, i)), proj)[2]
                assert not any(map(any, killed))
            assert dense_matmul(ring, proj, dense(emb)) == dense(emb)
            assert canonical_columns(Matrix(ring, *proj)) == emb
            both = dense(hcat(ring, m.rank(n), [emb, degenerate.embeddings[n]]))
            assert both[0] == both[1]
            det = dense_det(ring, both)
            assert abs(det) == 1 if ring == ZZ else det != 0


def counit_inputs():
    """Seeded tensor products of Dold-Kan modules over Z, F2, Q and F3, and
    free modules and a copower that no Dold-Kan module of a complex gives."""
    rng = random.Random(2)
    rings = (ZZ, GF(2), QQ, GF(3))
    for k in range(25):
        ring = rings[k % 4]
        yield tensor_sm(dk(nonzero_complex(rng, ring, 2), 3), dk(nonzero_complex(rng, ring, 2), 3))
    yield free_module(nerve(chain_poset(3), 3), ZZ)
    yield free_module(product(simplex_set(1, 3), simplex_set(2, 3)), ZZ)
    yield free_module(boundary_simplex_set(2, 4), GF(2))
    yield copower(dk(disk(1), 3), simplex_set(1, 3))


def test_the_dold_kan_counit_is_a_simplicial_isomorphism():
    """The counit Gamma N M -> M, built densely from nor's embeddings and
    M's degeneracies, commutes with every face and degeneracy of
    dk(nor(M)) and M, and each level is square of unit determinant: all
    its invariant factors are units, so it is an isomorphism over the
    ring."""
    for m in counit_inputs():
        ring, h = m.ring, m.horizon
        normalized = nor(m)
        gamma = dk(normalized.complex, h)
        eps = [dold_kan_counit(m, normalized.embeddings, n) for n in range(h + 1)]
        for n in range(h + 1):
            assert eps[n][0] == eps[n][1] == gamma.rank(n)
            det = dense_det(ring, eps[n])
            assert abs(det) == 1 if ring == ZZ else det != 0
            for i in range(n + 1):
                if n:
                    face_m = dense_matmul(ring, dense(m.face(n, i)), eps[n])
                    assert face_m == dense_matmul(ring, eps[n - 1], dense(gamma.face(n, i)))
                if n < h:
                    degen_m = dense_matmul(ring, dense(m.degen(n, i)), eps[n])
                    assert degen_m == dense_matmul(ring, eps[n + 1], dense(gamma.degen(n, i)))


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
    # the transferred classes: one degree past both tops, N(dk(f)) is f
    # with a zero component at the horizon, and is in f's model class
    rng = random.Random(938)
    for ring in [ZZ] * 20 + [QQ] * 20 + [GF(2)] * 20 + [GF(5)] * 20:
        f = random_chain_map(rng, ring)
        h = max(f.source.top, f.target.top) + 1
        back = nor_map(dk_map(f, h))
        assert all(back.component(n) == f.component(n) for n in range(h))
        assert back.component(h).is_zero
        assert classify(back) == classify(f)


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
