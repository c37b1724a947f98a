import random
from fractions import Fraction

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
    has_free_cokernel,
    hcat,
    homology,
    homology_at,
    identity,
    image_basis,
    is_injective,
    is_surjective,
    kernel_basis,
    kron,
    mat_from_json,
    mat_to_json,
    smith_normal_form,
    solve,
    vcat,
    zeros,
)
from artifact.errors import NotAComplex, RingError, ShapeError

from oracles import brute_homology_dim, minor_gcd_invariants

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


# ---------------------------------------------------------------------------
# Smith decomposition


def check_smith(a):
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.s
    assert dec.u @ dec.u_inv == identity(a.ring, a.rows)
    assert dec.v @ dec.v_inv == identity(a.ring, a.cols)
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
