"""The F2 bitmask elimination against the generic elimination on sparse
dicts: ranks and kernel_basis over F2 run one XOR elimination of bitmasks
(linalg._f2_eliminate), whose null tails must span the kernel the dict
elimination finds; solve and canonical_columns run the shared column
elimination over F2 as over every ring, and must keep giving the answers
of the reference copies below."""

import random

import pytest

from artifact import GF, ConnComplex, Matrix, canonical_columns, dk, kernel_basis, solve, tensor_sm, vcat, zeros
from artifact import linalg


F2 = GF(2)


def random_f2(rng, rows, cols, density):
    return Matrix(F2, rows, cols, tuple(tuple(int(rng.random() < density) for _ in range(cols)) for _ in range(rows)))


def mask_of(col: dict) -> int:
    return sum(1 << i for i in col)


def column(tail: int, rows: int) -> Matrix:
    return Matrix(F2, rows, 1, tuple(((tail >> i) & 1,) for i in range(rows)))


def reference_kernel_basis(a):
    _, null = linalg._eliminate_columns(F2, linalg._identity_tails(a))
    return linalg._hermite(F2, a.cols, [tail for _, tail in null])


def reference_canonical_columns(b):
    return linalg._hermite(F2, b.rows, list(linalg._columns(b).values()))


def reference_solve(a, b):
    pivots, _ = linalg._eliminate_columns(F2, linalg._identity_tails(a))
    x = {}
    for k, residual in linalg._columns(b).items():
        col = {}
        linalg._reduce(F2, residual, col, pivots)
        if residual:
            return None
        for i, z in col.items():
            x.setdefault(i, {})[k] = 2 - z
    return Matrix(F2, a.cols, b.cols, tuple(tuple(x.get(i, {}).get(k, 0) for k in range(b.cols)) for i in range(a.cols)))


def random_shapes(rng):
    shapes = [(0, 4), (4, 0), (0, 0), (3, 3), (1, 7), (7, 1)]
    shapes += [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(40)]
    return [(rows, cols, density) for rows, cols in shapes for density in (0.0, 0.1, 0.5, 0.9)]


def complex_with_ranks(rng, ranks):
    diffs = {}
    for n in range(1, len(ranks)):
        d = random_f2(rng, ranks[n - 1], ranks[n], 0.5)
        if n > 1:
            kernel = kernel_basis(diffs[n - 1])
            d = kernel @ random_f2(rng, kernel.cols, ranks[n], 0.5)
        diffs[n] = d
    return ConnComplex(F2, ranks, diffs)


# the factor ranks of the Dold-Kan comparison the benchmark times
NOR_SHAPES = [((1,), (2, 1)), ((2, 1), (1, 2, 1)), ((2, 2), (2, 2)), ((1, 2, 1), (2,)), ((2, 2, 2), (1, 1))]


def nor_stacks():
    """The stacked first faces that nor eliminates on the levelwise tensor
    of two Dold-Kan modules over F2 to horizon 4, up to 256 x 100 and
    224 x 110, and a sparse 440 x 110 matrix of the same fill."""
    rng = random.Random(431)
    stacks = []
    for xr, yr in NOR_SHAPES:
        m = tensor_sm(dk(complex_with_ranks(rng, xr), 4), dk(complex_with_ranks(rng, yr), 4))
        stacks += [vcat(F2, m.rank(n), [m.face(n, i) for i in range(n)]) for n in range(1, 5)]
    return stacks + [random_f2(rng, 440, 110, 0.02)]


def test_the_xor_elimination_gives_the_rank_and_a_null_space_basis():
    rng = random.Random(433)
    for rows, cols, density in random_shapes(rng):
        a = random_f2(rng, rows, cols, density)
        heads = {j: mask_of(col) for j, col in linalg._columns(a).items()}
        rank, null = linalg._f2_eliminate((heads.get(j, 0), 1 << j) for j in range(cols))
        pivots, _ = linalg._eliminate_columns(F2, linalg._identity_tails(a))
        assert rank == len(pivots) == linalg._f2_eliminate(linalg._f2_masks(a._rows.values()))[0]
        assert len(null) == cols - rank
        for tail in null:
            assert tail and (a @ column(tail, cols)).is_zero
        tails = Matrix(F2, cols, len(null), tuple(tuple(tail >> i & 1 for tail in null) for i in range(cols)))
        assert canonical_columns(tails).cols == cols - rank


def test_bitmask_answers_match_the_dict_elimination_on_random_matrices():
    rng = random.Random(434)
    nones = 0
    for rows, cols, density in random_shapes(rng):
        a = random_f2(rng, rows, cols, density)
        assert kernel_basis(a) == reference_kernel_basis(a)
        assert canonical_columns(a) == reference_canonical_columns(a)
        for b in (a @ random_f2(rng, cols, 3, 0.5), random_f2(rng, rows, 3, density), zeros(F2, rows, 2)):
            got = solve(a, b)
            assert got == reference_solve(a, b)
            nones += got is None
    assert nones > 20


def test_bitmask_answers_match_the_dict_elimination_on_nor_shapes():
    rng = random.Random(435)
    shapes = set()
    for stack in nor_stacks():
        shapes.add((stack.rows, stack.cols))
        kernel = kernel_basis(stack)
        assert kernel == reference_kernel_basis(stack)
        assert canonical_columns(stack) == reference_canonical_columns(stack)
        for b in (stack @ kernel, stack @ random_f2(rng, stack.cols, 2, 0.3), random_f2(rng, stack.rows, 2, 0.1)):
            assert solve(stack, b) == reference_solve(stack, b)
    assert {(256, 100), (224, 110), (440, 110)} <= shapes


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_bitmask_answers_on_degenerate_shapes(rows, cols):
    z = zeros(F2, rows, cols)
    assert kernel_basis(z) == reference_kernel_basis(z) == linalg.identity(F2, cols)
    assert canonical_columns(z) == reference_canonical_columns(z) == zeros(F2, rows, 0)
    assert solve(z, zeros(F2, rows, 2)) == zeros(F2, cols, 2)
    if rows:
        assert solve(z, Matrix(F2, rows, 1, ((1,),) + ((0,),) * (rows - 1))) is None
