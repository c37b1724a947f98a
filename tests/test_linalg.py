import copy
import hashlib
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    GF,
    QQ,
    ZZ,
    ConnComplex,
    Matrix,
    block_matrix,
    canonical_columns,
    classify,
    disk,
    has_free_cokernel,
    hcat,
    homology,
    homology_at,
    identity,
    image_basis,
    invariant_factors,
    is_injective,
    is_surjective,
    kernel_basis,
    kron,
    mat_from_json,
    mat_to_json,
    shuffle_product,
    smith_normal_form,
    solve,
    vcat,
    zeros,
)
from artifact import linalg
from artifact.errors import NotAComplex, RingError, ShapeError
from artifact.linalg import torsion

from oracles import (
    brute_homology_dim,
    brute_span,
    dense,
    dense_blocks,
    dense_kron,
    dense_map,
    dense_matmul,
    dense_select,
    dense_transpose,
    minor_gcd_invariants,
    planted_smith_grid,
    random_chain_map,
    random_matrix,
)

RINGS = [ZZ, QQ, GF(2), GF(5)]


def m(ring, entries):
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    from artifact import ring_ops

    ops = ring_ops(ring)
    return Matrix(
        ring, rows, cols, tuple(tuple(ops.canon(e) for e in row) for row in entries)
    )


# ---------------------------------------------------------------------------
# matrix basics


def test_matrix_validates_shape_and_ring():
    with pytest.raises(ShapeError):
        Matrix(ZZ, 2, 2, ((1, 2), (3,)))
    with pytest.raises(ShapeError):
        m(ZZ, [[1, 2]]) @ m(ZZ, [[1, 2]])
    with pytest.raises(RingError):
        m(ZZ, [[1]]) @ m(QQ, [[1]])
    with pytest.raises(RingError):
        m(ZZ, [[1]]) + m(GF(3), [[1]])


def test_matrix_algebra_matches_by_hand():
    x = m(ZZ, [[1, 2], [3, 4]])
    y = m(ZZ, [[0, 1], [1, 0]])
    assert (x @ y).entries == ((2, 1), (4, 3))
    assert (x + y).entries == ((1, 3), (4, 4))
    assert (x - y).entries == ((1, 1), (2, 4))
    assert x.scale(2).entries == ((2, 4), (6, 8))
    assert x.transpose().entries == ((1, 3), (2, 4))
    assert zeros(ZZ, 2, 3).is_zero and not x.is_zero
    assert identity(ZZ, 2) @ x == x


def test_concatenation_and_blocks():
    x = m(ZZ, [[1], [2]])
    y = m(ZZ, [[3], [4]])
    assert hcat(ZZ, 2, [x, y]).entries == ((1, 3), (2, 4))
    assert vcat(ZZ, 1, [x, y]).entries == ((1,), (2,), (3,), (4,))
    b = block_matrix(ZZ, [2, 1], [1, 1], {(0, 0): x, (1, 1): m(ZZ, [[9]])})
    assert b.entries == ((1, 0), (2, 0), (0, 9))
    assert hcat(ZZ, 3, []).cols == 0


def test_kron_row_major_convention():
    x = m(ZZ, [[1, 2]])
    y = m(ZZ, [[0, 3]])
    assert kron(x, y).entries == ((0, 3, 0, 6),)
    a2 = m(ZZ, [[1, 0], [0, 2]])
    assert kron(a2, identity(ZZ, 2)).entries == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
    )


def test_public_constructor_canonicalizes_its_grid():
    assert Matrix(QQ, 1, 1, ((2,),)) == Matrix.from_rows(QQ, [[2]])
    assert Matrix(QQ, 1, 1, ((2,),)).entries == ((Fraction(2),),)
    assert Matrix(GF(5), 1, 2, ((7, -1),)).entries == ((2, 4),)
    # an entry that reduces to zero is not stored, so equality holds
    assert Matrix(GF(2), 2, 2, ((2, 0), (0, 4))) == zeros(GF(2), 2, 2)
    assert Matrix(ZZ, 2, 3, ((0, 0, 0), (0, 0, 0))).is_zero
    # no image in the ring: the same typed error as a ring change
    for ring, grid in ((ZZ, ((Fraction(1, 2),),)), (GF(3), ((Fraction(1, 3),),)), (ZZ, ((1.5,),))):
        with pytest.raises(RingError):
            Matrix(ring, 1, 1, grid)
    with pytest.raises(ShapeError):
        Matrix(ZZ, 1, 2, ((1, 2, 3),))
    with pytest.raises(ShapeError):
        Matrix(ZZ, -1, 0, ())
    x = m(ZZ, [[1, 2], [3, 4]])
    for idx in ((2, 0), (0, -1)):
        with pytest.raises(ShapeError):
            x[idx]
    with pytest.raises(ShapeError):
        x.col_select([2])
    with pytest.raises(ShapeError):
        x.row_select([-1])
    with pytest.raises(AttributeError):
        x.rows = 3
    assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def test_change_ring_drops_entries_that_become_zero():
    a = m(ZZ, [[2, 3], [4, -6]])
    assert a.change_ring(GF(2)) == Matrix(GF(2), 2, 2, ((0, 1), (0, 0)))
    assert a.change_ring(GF(2)) == m(GF(2), [[0, 1], [0, 0]])
    assert a.change_ring(QQ).entries == tuple(tuple(Fraction(x) for x in row) for row in a.entries)
    assert a.change_ring(GF(3)).change_ring(GF(3)) == a.change_ring(GF(3))
    assert a.change_ring(GF(2)).change_ring(ZZ) == m(ZZ, [[0, 1], [0, 0]])
    with pytest.raises(RingError):
        m(QQ, [[Fraction(1, 2)]]).change_ring(ZZ)


def test_storage_does_not_grow_with_the_shape():
    huge = zeros(ZZ, 10**8, 10**8)
    assert huge.is_zero and huge == zeros(ZZ, 10**8, 10**8)
    e = identity(ZZ, 1)
    corner = block_matrix(ZZ, [1, 10**8], [10**8, 1], {(0, 1): e, (1, 0): zeros(ZZ, 10**8, 10**8)})
    assert corner[0, 10**8] == 1 and corner[10**8, 0] == 0
    assert (corner @ corner.transpose())[0, 0] == 1
    assert kron(corner, e).transpose().transpose() == corner


MATRIX_RINGS = [ZZ, QQ, GF(2), GF(3), GF(5)]


def random_sparse(rng, ring, rows, cols):
    density = rng.choice((0.0, 0.3, 0.7, 1.0))

    def entry():
        if rng.random() >= density:
            return 0
        if ring == QQ and rng.random() < 0.3:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randint(-4, 4)

    return Matrix(ring, rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


@pytest.mark.parametrize("ring", MATRIX_RINGS, ids=str)
def test_matrix_operations_match_the_dense_reference(ring):
    """Every operation against cellwise dense arithmetic, on seeded shapes
    with zero rows or columns and sums that cancel.  Comparing with the
    public constructor of the reference grid also checks that no zero is
    stored: a stored zero would make the two unequal."""
    rng = random.Random(97)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [
        (rng.randint(0, 4), rng.randint(0, 4)) for _ in range(60)
    ]

    def check(got, want):
        rows, cols, grid = want
        assert (got.rows, got.cols) == (rows, cols)
        assert got.entries == tuple(tuple(row) for row in grid)
        assert got == Matrix(ring, rows, cols, grid)
        assert hash(got) == hash(Matrix(ring, rows, cols, grid))
        assert got.is_zero == all(x == 0 for row in grid for x in row)

    for rows, cols in shapes:
        a = random_sparse(rng, ring, rows, cols)
        c = random_sparse(rng, ring, rows, cols)
        # b = c - a, so that a + b = c cancels wherever c is zero
        b = Matrix(ring, rows, cols, dense_map(ring, lambda x, y: x - y, dense(c), dense(a))[2])
        da, db = dense(a), dense(b)
        check(a, da)
        check(a + b, dense(c))
        check(a + b, dense_map(ring, lambda x, y: x + y, da, db))
        check(a - b, dense_map(ring, lambda x, y: x - y, da, db))
        check(a - a, dense_map(ring, lambda x: 0, da))
        check(a + (-a), dense_map(ring, lambda x: 0, da))
        check(-a, dense_map(ring, lambda x: -x, da))
        for s in (0, 1, -1, 2, 3):
            check(a.scale(s), dense_map(ring, lambda x: s * x, da))
        check(a.transpose(), dense_transpose(da))
        other = random_sparse(rng, ring, cols, rng.randint(0, 4))
        check(a @ other, dense_matmul(ring, da, dense(other)))
        check(a @ a.transpose(), dense_matmul(ring, da, dense_transpose(da)))
        small = random_sparse(rng, ring, rng.randint(0, 3), rng.randint(0, 3))
        check(kron(a, small), dense_kron(ring, da, dense(small)))
        check(kron(small, b), dense_kron(ring, dense(small), db))
        check(hcat(ring, rows, [a, b, a]), dense_blocks(ring, [rows], [cols] * 3, {(0, 0): da, (0, 1): db, (0, 2): da}))
        check(vcat(ring, cols, [b, a]), dense_blocks(ring, [rows, rows], [cols], {(0, 0): db, (1, 0): da}))
        blocks = {(0, 1): da, (1, 0): db, (1, 1): da}
        check(
            block_matrix(ring, [rows, rows], [cols, cols], {(0, 1): a, (1, 0): b, (1, 1): a}),
            dense_blocks(ring, [rows, rows], [cols, cols], blocks),
        )
        picked_rows = [rng.randrange(rows) for _ in range(rng.randint(0, 5))] if rows else []
        picked_cols = [rng.randrange(cols) for _ in range(rng.randint(0, 5))] if cols else []
        check(a.row_select(picked_rows), dense_select(da, picked_rows, range(cols)))
        check(a.col_select(picked_cols), dense_select(da, range(rows), picked_cols))
        assert (a == b) == (da[2] == db[2])
        assert a + b == b + a and a + b - b == a
        assert all(a[i, j] == da[2][i][j] for i in range(rows) for j in range(cols))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_sums_match_the_dense_reference_and_share_one_sided_rows(ring):
    """+ and - against cellwise dense arithmetic, zeros on either side
    included.  A row only the left operand has is shared by the sum and the
    difference, and a row only the right operand has by the sum; no operand
    changes."""
    rng = random.Random(98)
    plus = lambda x, y: x + y
    minus = lambda x, y: x - y
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a, b = random_sparse(rng, ring, rows, cols), random_sparse(rng, ring, rows, cols)
        z = zeros(ring, rows, cols)
        da, db, dz = dense(a), dense(b), dense(z)
        for x, y, dx, dy in ((a, b, da, db), (b, a, db, da), (z, a, dz, da), (a, z, da, dz)):
            for op, fn in ((plus, plus), (minus, minus)):
                got = op(x, y)
                want = dense_map(ring, fn, dx, dy)
                assert repr(dense(got)) == repr(want)
                assert got == Matrix(ring, *want)
                for i, row in x._rows.items():
                    if i not in y._rows:
                        assert got._rows[i] is row
                if op is plus:
                    for i, row in y._rows.items():
                        if i not in x._rows:
                            assert got._rows[i] is row
        assert repr((dense(a), dense(b), dense(z))) == repr((da, db, dz))


# ---------------------------------------------------------------------------
# Smith decomposition


def check_smith(a):
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.s
    assert dec.u @ dec.u_inv == identity(a.ring, a.rows)
    assert dec.v @ dec.v_inv == identity(a.ring, a.cols)
    assert all(i == j for i in range(a.rows) for j in range(a.cols) if dec.s[i, j] != 0)
    diag = dec.diagonal()
    assert all(x != 0 for x in diag[: dec.rank])
    assert all(x == 0 for x in diag[dec.rank :])
    if a.ring == ZZ:
        for i in range(dec.rank - 1):
            assert diag[i + 1] % diag[i] == 0
        assert all(x > 0 for x in diag[: dec.rank])
    elif a.ring.is_field:
        ones = Fraction(1) if a.ring == QQ else 1
        assert all(x == ones for x in diag[: dec.rank])
    return dec


def test_smith_pinned_integer_example():
    # minor gcds by hand: d1 = 2, d2 = 4, d3 = det = 624, so (2, 2, 156)
    dec = check_smith(m(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert dec.diagonal() == [2, 2, 156]
    # a diagonal that is no divisibility chain needs Bezout steps
    assert check_smith(m(ZZ, [[6, 0, 0], [0, 10, 0], [0, 0, 15]])).diagonal() == [1, 30, 30]
    # without the Hermite reduction, alternating echelon forms stall at a
    # triangular fixed point on `stall`; repairing divisibility by adding an
    # offending row and alternating again takes over 2 s on `slow`
    stall = [[1, 4, 0], [6, -3, -5], [1, -6, 0], [0, 3, 6], [6, -6, 5], [1, -2, 5]]
    assert check_smith(m(ZZ, stall)).diagonal() == [1, 1, 1]
    slow = [[-1, 1, -2, 4], [2, 3, 5, -6], [0, 6, 5, 2], [6, -4, 2, 6], [2, -3, 0, -6], [1, -1, 3, 2]]
    assert check_smith(m(ZZ, slow)).diagonal() == [1, 1, 1, 2]


def test_smith_invariant_factors_match_minor_gcds():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        dec = check_smith(m(ZZ, entries))
        expect = minor_gcd_invariants(entries, rows, cols)
        assert dec.diagonal()[: dec.rank] == expect


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(),
)
@settings(max_examples=120, deadline=None)
def test_smith_properties_hold_on_random_matrices(rows, cols, seed):
    rng = random.Random(seed)
    for ring in RINGS:
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        check_smith(m(ring, entries))


def invariant_factor_corpus(rng, ring, count):
    """Seeded matrices from 0x0 to 7x7 over ring, sparse to dense, some with
    a zero row or a zero column; over Q with fractional entries."""
    for _ in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.choice((0.2, 0.5, 1.0))

        def entry():
            if rng.random() > density:
                return 0
            if ring == QQ:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randint(-6, 6)

        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            grid[rng.randrange(rows)] = [0] * cols
        if cols and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in grid:
                row[j] = 0
        yield grid, Matrix.from_rows(ring, grid, cols)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(5), GF(101)], ids=str)
def test_invariant_factors_match_the_smith_diagonal(ring):
    rng = random.Random(83)
    for grid, a in invariant_factor_corpus(rng, ring, 150):
        factors = invariant_factors(a)
        assert factors == tuple(d for d in smith_normal_form(a).diagonal() if d != 0)
        # the determinantal-divisor oracle, where its minors are cheap
        if ring == ZZ and min(a.rows, a.cols) <= 5:
            expect = minor_gcd_invariants(grid, a.rows, a.cols)
            assert factors == tuple(expect)
            assert torsion(factors) == tuple(d for d in expect if d != 1)


def field_rank_corpus(rng, p):
    """Seeded matrices over F_p that reach the packed rows: 0xn, nx0 and
    all-zero shapes, dense ones up to 64x64 (some of low rank, some with
    zeros), and 230x230 ones with 3 and with 8 nonzeros per row, the
    latter with 20 rows that are sums of others."""
    ring = GF(p)
    yield zeros(ring, 0, 5)
    yield zeros(ring, 5, 0)
    yield zeros(ring, 13, 17)
    for n in (1, 2, 5, 11, 12, 13, 20, 33, 64):
        cols = max(1, n + rng.randint(-3, 3))
        density = rng.choice((0.5, 1.0))
        yield Matrix.from_rows(
            ring, [[rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(n)], cols
        )
        r = rng.randint(1, n)
        yield random_matrix(rng, ring, n, r, p) @ random_matrix(rng, ring, r, cols, p)
    for per in (3, 8):
        grid = [[0] * 230 for _ in range(230)]
        for row in grid:
            for j in rng.sample(range(230), per):
                row[j] = rng.randrange(1, p)
        if per == 8:
            # rows that must cancel exactly, after many additions each
            for i in range(210, 230):
                grid[i] = [(x + y) % p for x, y in zip(grid[i - 210], grid[i - 209])]
        yield Matrix.from_rows(ring, grid, 230)


@pytest.mark.parametrize("p", [2, 3, 5, 101, 2**61 - 1])
def test_packed_and_sparse_field_ranks_match_the_smith_diagonal(p, monkeypatch):
    rng = random.Random(97)
    for a in field_rank_corpus(rng, p):
        if a.rows <= 64 or sum(map(len, a._rows.values())) <= 230 * 3:
            expect = smith_normal_form(a).rank
        else:
            # the Smith form of 230x230 with 8 nonzeros per row takes seconds;
            # the column elimination is independent of the row eliminations too
            expect = image_basis(a).cols
        assert len(invariant_factors(a)) == expect, (a.rows, a.cols)

        def rows():
            return [dict(row) for row in a._rows.values()]

        if p == 2:
            assert linalg._f2_eliminate(linalg._f2_masks(rows()))[0] == expect
        assert linalg._packed_rank(rows(), p) == expect
        for pack_at in (0, 2**62):  # packed at once, sparse throughout
            monkeypatch.setattr(linalg, "_PACK_AT", pack_at)
            assert linalg._field_rank(rows(), p) == expect
        monkeypatch.undo()


def test_invariant_factors_of_the_disk_shuffle_product():
    x = shuffle_product(disk(4), disk(4)).underlying
    assert [invariant_factors(x.diff(n)) for n in range(5, 9)] == [
        (1,) * 20,
        (1,) * 90,
        (1,) * 140,
        (1,) * 70,
    ]


def sparse_rows(grid):
    """The nonzero rows of grid as sorted {column: entry} dicts, as
    invariant_factors hands them on."""
    return [row for row in ({j: x for j, x in enumerate(line) if x} for line in grid) if row]


def homology_big_dense(seed):
    """The dense 20x24 and 32x32 grids of the homology_big benchmark at
    seed: entries in -9..9, drawn in that order from one Random(seed)."""
    rng = random.Random(seed)
    return [[[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)] for rows, cols in ((20, 24), (32, 32))]


def certified_corpus():
    """Dense integer grids of 16 to 40 rows, square and wide, cyclic and
    not, with the rank each has: seeded random ones, the homology_big
    grids of seeds 704, 713 and 731 (non-cyclic at 32x32) and 761, planted
    Smith forms, a unimodular one, the all-ones grid, one of rank n - 1,
    and random and planted 16x40 and 16x200 grids, of which the certified
    path reads only the first n + 2 columns."""
    rng = random.Random(29)
    for rows, cols in ((16, 16), (16, 22), (20, 24), (24, 24), (28, 36), (40, 40)):
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], rows
    for seed in (704, 713, 731, 761):
        for grid in homology_big_dense(seed):
            yield grid, len(grid)
    for rows, cols in ((16, 16), (18, 24)):
        for tail in ((2, 6), (3, 3, 9), (2, 4, 8, 16)):
            yield planted_smith_grid(rng, rows, cols, (1,) * (rows - len(tail)) + tail), rows
    yield planted_smith_grid(rng, 20, 20, (1,) * 20), 20
    yield [[1] * 16 for _ in range(16)], 1
    yield planted_smith_grid(rng, 17, 17, (1,) * 14 + (2, 6)), 16
    for rows, cols in ((16, 40), (16, 200)):
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], rows
        yield planted_smith_grid(rng, rows, cols, (1,) * 13 + (2, 6, 12)), rows


def test_certified_invariants_match_euclid_bit_for_bit():
    certified = 0
    for grid, rank in certified_corpus():
        cols = len(grid[0])
        expect = tuple(linalg._integer_invariants(sparse_rows(grid)))
        assert len(expect) == rank
        got = linalg._certified_invariants(sparse_rows(grid), cols)
        # a singular leading square falls back; every nonsingular one is answered
        assert got == (None if rank < len(grid) else expect)
        certified += got is not None
        factors = invariant_factors(Matrix.from_rows(ZZ, grid, cols))
        assert factors == expect and all(type(d) is int for d in factors)
    assert certified == 25
    # shapes that stay on the Euclid path: 0xn, nx0 and tall
    rng = random.Random(31)
    for rows, cols in ((0, 20), (20, 0), (24, 16), (40, 20)):
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        a = Matrix.from_rows(ZZ, grid, cols)
        assert invariant_factors(a) == tuple(linalg._integer_invariants(sparse_rows(grid)))
        assert invariant_factors(a) == invariant_factors(a.transpose())


def test_certified_invariants_match_the_smith_diagonal_on_small_grids(monkeypatch):
    """The Z corpus of test_invariant_factors_match_the_smith_diagonal with
    every size certified and the density gate open: each grid with no more
    nonzero rows than columns goes to _certified_invariants directly."""
    monkeypatch.setattr(linalg, "_CERTIFY_AT", 0)
    certified = 0
    for grid, a in invariant_factor_corpus(random.Random(83), ZZ, 150):
        expect = tuple(d for d in smith_normal_form(a).diagonal() if d != 0)
        assert invariant_factors(a) == expect
        rows = sparse_rows(grid)
        if rows and len(rows) <= a.cols:
            got = linalg._certified_invariants(rows, a.cols)
            assert got in (None, expect)
            certified += got is not None
    assert certified >= 30


def count_rows(monkeypatch, name):
    """The number of rows handed to each call of linalg.<name> from now
    on."""
    calls = []
    real = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda rows, *rest: calls.append(len(rows)) or real(rows, *rest))
    return calls


def test_only_dense_integer_matrices_take_the_certified_path(monkeypatch):
    euclid = count_rows(monkeypatch, "_integer_invariants")
    certified = count_rows(monkeypatch, "_certified_invariants")
    d = Matrix.from_rows(ZZ, homology_big_dense(761)[1])
    h = homology(ConnComplex(ZZ, (d.rows, d.cols), {1: d}))
    assert h[0].free_rank == 0 and h[1].is_zero
    # Euclid sees only the zero differential out of degree 2
    assert (euclid, certified) == ([0], [32])
    homology(shuffle_product(disk(4), disk(4)).underlying)
    rng = random.Random(37)
    for _ in range(10):
        classify(random_chain_map(rng, ZZ))
    assert certified == [32] and any(euclid)


def test_the_certified_path_gives_up_on_prime_parts_above_its_trial_bound(monkeypatch):
    """The planted factors 4099 * 4111 and twice that put primes above 2^12
    into g, so trial division stops, _certified_invariants returns None
    and Euclid steps answer, square and wide."""
    answers = []
    real = linalg._certified_invariants

    def certified(rows, cols):
        answers.append(real(rows, cols))
        return answers[-1]

    monkeypatch.setattr(linalg, "_certified_invariants", certified)
    rng = random.Random(43)
    big = 4099 * 4111
    for rows, cols in ((16, 16), (20, 24)):
        factors = (1,) * (rows - 2) + (big, 2 * big)
        grid = planted_smith_grid(rng, rows, cols, factors)
        # a nonsingular leading square, so the None is the trial bound's
        assert len(linalg._integer_invariants(sparse_rows([line[:rows] for line in grid]))) == rows
        assert invariant_factors(Matrix.from_rows(ZZ, grid, cols)) == factors
    assert answers == [None, None]


def test_pinned_dense_integer_invariants():
    # seed 713's 32x32 grid has cokernel Z/4 + Z/(det/4), so its 2-part
    # goes through the local Smith form
    factors = invariant_factors(Matrix.from_rows(ZZ, homology_big_dense(713)[1]))
    assert factors[:-1] == (1,) * 30 + (4,)
    det = 4 * factors[-1]
    assert det.bit_length() == 139
    assert hashlib.sha256(str(det).encode()).hexdigest()[:16] == "b416a94be0026a88"


def test_canonical_columns_is_a_lower_echelon_form():
    # the span of (2, 2), (0, 3) rewritten with pivots at the last nonzero
    # rows, pivot columns ordered by pivot row, entries above reduced
    # span of (2,2) and (0,3): pivot rows bottom-up give (6,0) and (4,1),
    # the first column reduced modulo the second pivot
    a = canonical_columns(m(ZZ, [[2, 0], [2, 3]]))
    assert a.entries == ((6, 4), (0, 1))
    # a field normalizes pivots to 1
    b = canonical_columns(m(QQ, [[2, 0], [2, 3]]))
    assert b.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_kernel_and_image_bases():
    a = m(ZZ, [[1, -1, 0], [0, 0, 0]])
    k = kernel_basis(a)
    assert (a @ k).is_zero
    assert k.cols == 2
    # saturation: every rational kernel vector with integer entries lies in
    # the lattice spanned by the basis
    assert solve(k, m(ZZ, [[1], [1], [0]])) is not None
    assert solve(k, m(ZZ, [[0], [0], [5]])) is not None
    img = image_basis(m(ZZ, [[2, 4], [0, 0]]))
    assert img.cols == 1
    assert img.entries == ((2,), (0,))


def test_canonical_columns_pinned_integer_example_is_reduced():
    # reducing the last column against the first pivot before the second
    # used to leave a 2 above the first pivot, and a second pass removed it
    a = canonical_columns(m(ZZ, [[0, -2, -1], [-2, 0, -1], [1, 0, 0]]))
    assert a.entries == ((2, 1, 0), (0, 1, 0), (0, 0, 1))
    assert canonical_columns(a) == a


def random_unimodular(rng, ring, n):
    """A product of elementary matrices: adding a multiple of one column to
    another, or scaling a column by a unit (-1 over Z)."""
    u = identity(ring, n)
    for _ in range(3 * n):
        step = [[int(r == c) for c in range(n)] for r in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            step[i][j] = rng.randint(-3, 3)
        else:
            step[i][i] = -1 if ring == ZZ else rng.randint(1, (ring.p or 7) - 1)
        u = u @ m(ring, step)
    return u


def test_canonical_columns_depends_only_on_the_lattice():
    rng = random.Random(41)
    for ring in RINGS:
        checked = 0
        while checked < 40:
            rows = rng.randint(1, 5)
            cols = rng.randint(1, rows)
            b = m(ring, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            if smith_normal_form(b).rank < cols:
                continue
            checked += 1
            want = canonical_columns(b)
            assert canonical_columns(want) == want
            assert canonical_columns(b @ random_unimodular(rng, ring, cols)) == want


def test_kernel_and_image_bases_on_random_matrices():
    rng = random.Random(43)
    pool = (0, 0, 1, -1, 2, 3, -4)
    for ring in RINGS:
        for _ in range(40):
            rows, cols = rng.randint(0, 4), rng.randint(0, 5)
            a = Matrix.from_rows(ring, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)], cols)
            rank = smith_normal_form(a).rank
            k = kernel_basis(a)
            assert k.rows == cols and k.cols == cols - rank
            assert (a @ k).is_zero
            if ring == ZZ:
                # saturated: every invariant factor of the basis is one
                assert minor_gcd_invariants(k.entries, k.rows, k.cols) == [1] * k.cols
            img = image_basis(a)
            assert img.rows == rows and img.cols == rank
            # each spans the other's lattice, so the two are equal
            assert solve(a, img) is not None
            assert solve(img, a) is not None


def test_kernel_and_image_bases_take_no_smith_decomposition(monkeypatch):
    import artifact.linalg as linalg

    def forbidden(a):
        raise AssertionError("kernel and image bases need no Smith decomposition")

    a = m(ZZ, [[2, 4, 6], [1, 3, 5]])
    want = (kernel_basis(a), image_basis(a))
    monkeypatch.setattr(linalg, "smith_normal_form", forbidden)
    assert (kernel_basis(a), image_basis(a)) == want


def test_kernel_of_injective_map_is_empty_and_of_zero_is_full():
    assert kernel_basis(m(ZZ, [[2], [3]])).cols == 0
    k = kernel_basis(zeros(ZZ, 0, 3))
    assert k.cols == 3 and solve(k, identity(ZZ, 3)) is not None


def test_solve_finds_exact_solutions_or_reports_none():
    a = m(ZZ, [[2, 0], [0, 3]])
    sol = solve(a, m(ZZ, [[4], [9]]))
    assert sol is not None and a @ sol == m(ZZ, [[4], [9]])
    assert solve(a, m(ZZ, [[1], [0]])) is None  # 2 does not divide 1
    assert solve(m(GF(5), [[2, 0], [0, 3]]), m(GF(5), [[1], [0]])) is not None
    assert solve(m(ZZ, [[1, 0], [0, 0]]), m(ZZ, [[0], [1]])) is None


@given(st.integers())
@settings(max_examples=80, deadline=None)
def test_solve_round_trips_constructed_systems(seed):
    rng = random.Random(seed)
    for ring in RINGS:
        a = m(ring, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        x = m(ring, [[rng.randint(-3, 3)] for _ in range(3)])
        b = a @ x
        found = solve(a, b)
        assert found is not None and a @ found == b


def in_column_lattice(ring, grid, rows, cols, column):
    """Whether column lies in the column lattice of grid (over a field, its
    span), decided without the library: over Z and Q by determinantal
    divisors of A against [A | b] (over Q after clearing each row's
    denominators, where only the rank counts), over F_p by enumerating the
    span."""
    if ring.kind == "F":
        return tuple(column) in brute_span(grid, rows, cols, ring.p)
    both = [list(row) + [x] for row, x in zip(grid, column)]
    if ring == QQ:
        scale = [lcm(*(Fraction(x).denominator for x in row)) for row in both]
        both = [[int(Fraction(x) * k) for x in row] for row, k in zip(both, scale)]
        grid = [row[:-1] for row in both]
        return len(minor_gcd_invariants(grid, rows, cols)) == len(
            minor_gcd_invariants(both, rows, cols + 1)
        )
    return minor_gcd_invariants(grid, rows, cols) == minor_gcd_invariants(both, rows, cols + 1)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(5)], ids=str)
def test_solve_agrees_with_an_independent_membership_oracle(ring):
    # 0 x n and n x 0 shapes included; b = A x0 is always solved, and a
    # random b is refused exactly when some column is outside the lattice
    rng = random.Random(89)
    outcomes = set()
    for grid, a in invariant_factor_corpus(rng, ring, 120):
        if a.rows > 5 or a.cols > 4:
            continue
        width = rng.randint(1, 2)
        x0 = random_matrix(rng, ring, a.cols, width)
        found = solve(a, a @ x0)
        assert found is not None and a @ found == a @ x0
        b = random_matrix(rng, ring, a.rows, width)
        found = solve(a, b)
        dense_b = [list(row) for row in b.entries]
        expect = all(
            in_column_lattice(ring, grid, a.rows, a.cols, [row[k] for row in dense_b])
            for k in range(width)
        )
        assert (found is not None) == expect
        if found is not None:
            assert a @ found == b
        outcomes.add(expect)
    assert outcomes == {True, False}


F = Fraction
# row 3 is row 1 plus row 2, so a has rank 2 and a kernel of rank 3, and
# its transpose a kernel of rank 1
SOLVE_A = [[-2, 4, -1, 3, 0], [1, -3, 5, 2, 6], [-1, 1, 4, 5, 6]]
SOLVE_X0 = [[1, 0], [0, 1], [2, -1], [0, 3], [-1, 1]]
SOLVE_Y0 = [[2, 1], [0, -1], [1, 3]]
# the solutions of a x = a X0, of aT y = aT Y0 and of (2 4) z = (3); these
# particular ones are what the column elimination picks, and a change to
# its pivot choice, quotients or normalization moves them
PINNED_SOLUTIONS = {
    ZZ: ([[-55, -216], [-30, -110], [-6, -22], [0, 0], [0, 0]], [[3, 4], [1, 2], [0, 0]], None),
    QQ: ([[-4, -29], [-3, -11], [0, 0], [0, 0], [0, 0]], [[3, 4], [1, 2], [0, 0]], [[F(3, 2)], [0]]),
    GF(2): ([[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]], [[1, 0], [1, 0], [0, 0]], None),
    GF(5): ([[4, 2], [0, 0], [0, 0], [3, 1], [0, 0]], [[3, 4], [1, 2], [0, 0]], [[4], [0]]),
    GF(2**61 - 1): (
        [[-4, -29], [-3, -11], [0, 0], [0, 0], [0, 0]],
        [[3, 4], [1, 2], [0, 0]],
        [[1152921504606846977], [0]],
    ),
}


@pytest.mark.parametrize("ring", list(PINNED_SOLUTIONS), ids=str)
def test_solve_pinned_particular_solutions(ring):
    wide, tall, half = PINNED_SOLUTIONS[ring]
    a = m(ring, SOLVE_A)
    assert solve(a, a @ m(ring, SOLVE_X0)) == m(ring, wide)
    assert solve(a.transpose(), a.transpose() @ m(ring, SOLVE_Y0)) == m(ring, tall)
    found = solve(m(ring, [[2, 4]]), m(ring, [[3]]))
    assert found == (None if half is None else m(ring, half))
    assert solve(a, m(ring, [[1], [0], [0]])) is None
    # 0 x n, n x 0 and all-zero systems
    assert solve(zeros(ring, 0, 3), zeros(ring, 0, 2)) == zeros(ring, 3, 2)
    assert solve(zeros(ring, 3, 0), zeros(ring, 3, 2)) == zeros(ring, 0, 2)
    assert solve(zeros(ring, 3, 0), m(ring, [[0], [1], [0]])) is None
    assert solve(zeros(ring, 2, 3), zeros(ring, 2, 2)) == zeros(ring, 3, 2)
    assert solve(zeros(ring, 2, 3), m(ring, [[0], [1]])) is None


def column(ring, entries: dict, rows: int) -> Matrix:
    return Matrix(ring, rows, 1, tuple((entries.get(i, 0),) for i in range(rows)))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5), GF(2**61 - 1)], ids=str)
def test_column_elimination_returns_normalized_pivots(ring):
    """Each pivot (row, head, tail) of the column elimination of [A; I]
    has its head positive (over Z) or 1 (in a field) at its row and zero
    below it, and A @ tail == head; one pivot per unit of rank, bottom row
    first; the other columns end with a zero head and a kernel tail."""
    rng = random.Random(211)
    for rows, cols in [(0, 3), (3, 0), (0, 0), (1, 1), (3, 5), (5, 3), (6, 6), (8, 4)] * 4:
        a = random_sparse(rng, ring, rows, cols)
        pivots, null = linalg._eliminate_columns(ring, linalg._identity_tails(a))
        assert len(pivots) == len(invariant_factors(a))
        assert [r for r, _, _ in pivots] == sorted({r for r, _, _ in pivots}, reverse=True)
        for r, head, tail in pivots:
            assert head[r] > 0 if ring == ZZ else head[r] == 1
            assert max(head) == r
            assert a @ column(ring, tail, cols) == column(ring, head, rows)
        for head, tail in null:
            assert not head and (a @ column(ring, tail, cols)).is_zero


def test_solve_takes_no_smith_decomposition(monkeypatch):
    import artifact.linalg as linalg

    def forbidden(a):
        raise AssertionError("solve needs no Smith decomposition")

    monkeypatch.setattr(linalg, "smith_normal_form", forbidden)
    a = m(ZZ, [[2, 4, 6], [1, 3, 5]])
    assert a @ solve(a, m(ZZ, [[2], [2]])) == m(ZZ, [[2], [2]])
    assert solve(a, m(ZZ, [[1], [0]])) is None


def package_calls(name):
    """file:line of each call of name in the modules of the package."""
    import ast
    import pathlib

    import artifact

    callers = []
    for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    callers.append(f"{path.name}:{node.lineno}")
    return callers


def test_smith_normal_form_is_called_only_through_the_public_api():
    # a static check: no module of the package calls it, so every internal
    # path is transform-free
    assert package_calls("smith_normal_form") == []


def test_block_matrix_is_called_only_from_outside_the_package():
    # a static check: the package writes every block matrix through the
    # private writer, and block_matrix with its guards serves other callers
    assert package_calls("block_matrix") == []


def test_the_package_holds_no_assert():
    # a static check: python -O strips asserts, so every invariant the
    # package relies on is a typed error
    import ast
    import pathlib

    import artifact

    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_the_package_holds_no_unused_import_and_no_unreferenced_private_function():
    # a static check: an import a module never uses, or a module-level
    # private function, class or assigned name that no module of the
    # package reads, is dead code; __init__.py imports only to re-export
    import ast
    import pathlib

    import artifact

    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py"))
    }

    def names_used(tree):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)
        }

    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]

    used = {name: names_used(tree) for name, tree in trees.items()}
    unused_imports = [
        f"{name}:{node.lineno} {alias.asname or alias.name}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name).split(".")[0] not in used[name]
    ]
    unreferenced = [
        f"{name}:{node.lineno} {private}"
        for name, tree in trees.items()
        for node in tree.body
        for private in defined(node)
        if private.startswith("_")
        and not private.startswith("__")
        and not any(private in names for names in used.values())
    ]
    assert unused_imports == []
    assert unreferenced == []


def test_the_public_names_are_every_imported_function_type_and_error():
    import types

    import artifact

    public = artifact.__all__
    assert public == sorted(public)
    assert not [name for name in public if name.startswith("_")]
    assert not [name for name in public if isinstance(getattr(artifact, name), types.ModuleType)]
    star: dict = {}
    exec("from artifact import *", star)
    assert sorted(set(star) - {"__builtins__"}) == public
    assert {"ConnComplex", "smith_normal_form", "dk", "NotSimplicial"} <= set(public)


def test_classification_predicates_depend_on_the_ring():
    two = m(ZZ, [[2]])
    assert is_injective(two) and not is_surjective(two)
    assert not has_free_cokernel(two)  # cokernel Z/2
    two_q = m(QQ, [[2]])
    assert is_surjective(two_q) and has_free_cokernel(two_q)
    assert is_surjective(m(ZZ, [[1, 2]]))
    assert not is_injective(m(ZZ, [[1, 2]]))
    assert has_free_cokernel(m(ZZ, [[1], [2]]))
    assert has_free_cokernel(zeros(ZZ, 2, 0))


# ---------------------------------------------------------------------------
# homology


def test_homology_groups_with_torsion():
    # Z <-2- Z: H0 = Z/2
    h = homology_at(m(ZZ, [[2]]), zeros(ZZ, 0, 1))
    assert h.free_rank == 0 and h.torsion == (2,)
    # Z <-0- Z^2 <-(1,-1)- Z
    h1 = homology_at(m(ZZ, [[1], [-1]]), zeros(ZZ, 1, 2))
    assert h1.free_rank == 1 and h1.torsion == () and not h1.is_zero
    exact = homology_at(identity(ZZ, 3), zeros(ZZ, 0, 3))
    assert exact.is_zero
    # mixed torsion: the invariant factors, not the diagonal entries
    assert homology_at(m(ZZ, [[2, 0], [0, 6]]), zeros(ZZ, 0, 2)).torsion == (2, 6)
    assert homology_at(m(ZZ, [[6, 0], [0, 2]]), zeros(ZZ, 0, 2)).torsion == (2, 6)
    assert homology_at(m(ZZ, [[2, 0], [0, 3]]), zeros(ZZ, 0, 2)).torsion == (6,)


def test_integer_torsion_obeys_universal_coefficients():
    # dim H_n(C (x) F_p) = free rank of H_n + the torsion factors divisible
    # by p in H_n and in H_{n-1}
    rng = random.Random(61)
    pool = (0, 0, 1, -1, 2, -2, 3, 6)
    seen = set()
    for _ in range(40):
        ranks = tuple(rng.randint(1, 3) for _ in range(3))
        d1 = Matrix.from_rows(ZZ, [[rng.choice(pool) for _ in range(ranks[1])] for _ in range(ranks[0])])
        k = kernel_basis(d1)
        lift = Matrix.from_rows(ZZ, [[rng.choice(pool) for _ in range(ranks[2])] for _ in range(k.cols)], ranks[2])
        x = ConnComplex(ZZ, ranks, {1: d1, 2: k @ lift})
        groups = homology(x)
        assert groups == tuple(homology_at(x.diff(n + 1), x.diff(n)) for n in range(3))
        for p in (2, 3):
            for n in range(3):
                d_in, d_out = x.diff(n + 1), x.diff(n)
                want = brute_homology_dim(
                    (d_in.rows, d_in.cols, d_in.entries),
                    (d_out.rows, d_out.cols, d_out.entries),
                    p,
                )
                torsion = groups[n].torsion + (groups[n - 1].torsion if n else ())
                assert groups[n].free_rank + sum(t % p == 0 for t in torsion) == want
        seen.update(t for h in groups for t in h.torsion)
    assert {2, 3, 6} <= seen


def test_homology_rejects_non_complexes():
    with pytest.raises(NotAComplex):
        homology_at(identity(ZZ, 1), identity(ZZ, 1))


def test_homology_matches_brute_force_over_prime_fields():
    rng = random.Random(23)
    for p in (2, 3):
        ring = GF(p)
        for _ in range(50):
            r1, r2 = rng.randint(0, 2), rng.randint(0, 2)
            d_out = m(ring, [[rng.randint(0, p - 1) for _ in range(r1)]])
            k = kernel_basis(d_out)
            d_in = k @ m(ring, [[rng.randint(0, p - 1) for _ in range(r2)] for _ in range(k.cols)])
            got = homology_at(d_in, d_out)
            want = brute_homology_dim(
                (d_in.rows, d_in.cols, d_in.entries),
                (d_out.rows, d_out.cols, d_out.entries),
                p,
            )
            assert got.torsion == () and got.free_rank == want


# ---------------------------------------------------------------------------
# JSON


def test_matrix_json_round_trip_over_each_ring():
    for ring in RINGS:
        a = m(ring, [[1, -2], [3, 0]])
        obj = mat_to_json(a)
        assert mat_from_json(obj, ring) == a
    q = m(QQ, [[Fraction(1, 2)]])
    obj = mat_to_json(q)
    assert obj["entries"] == [["1/2"]]
    assert mat_from_json(obj, QQ) == q


def test_matrix_json_reports_failing_paths():
    with pytest.raises(ValueError):
        mat_from_json({"rows": 1, "cols": 1}, ZZ)
    with pytest.raises(ValueError):
        mat_from_json({"rows": 1, "cols": 2, "entries": [[1]]}, ZZ)
    with pytest.raises(ValueError):
        mat_from_json({"rows": 1, "cols": 1, "entries": [[1.5]]}, ZZ)
