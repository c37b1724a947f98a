"""Independent reference implementations and seeded generators for the tests.

The checkers here deliberately avoid the library's linear algebra: homology
dimensions are counted by enumerating subspaces of small vector spaces,
invariant factors come from gcds of minors, and combinatorial enumerations
are plain brute force over all candidate tuples.  Generators build random
but valid inputs (complexes, chain maps, squares) with the library itself,
since validity is enforced by its constructors either way.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import artifact as a


# ---------------------------------------------------------------------------
# brute-force linear algebra over prime fields and Z


def _mat_vec_mod(entries, vec, p):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) % p for row in entries)


def brute_homology_dim(d_in, d_out, p):
    """dim ker(d_out) - dim im(d_in) over F_p by enumerating every vector.

    d_out: the differential leaving the degree (rows x cols int lists),
    d_in: the one arriving.  Only sane for tiny dimensions.
    """
    out_rows, out_cols, out_entries = d_out
    in_rows, in_cols, in_entries = d_in
    if in_rows != out_cols:
        raise ValueError(f"d_in lands in rank {in_rows}, d_out leaves rank {out_cols}")
    kernel = 0
    for vec in itertools.product(range(p), repeat=out_cols):
        if all(v == 0 for v in _mat_vec_mod(out_entries, vec, p)) if out_rows else True:
            kernel += 1
    image = {
        _mat_vec_mod(in_entries, vec, p) if in_rows else ()
        for vec in itertools.product(range(p), repeat=in_cols)
    }
    kernel_dim = 0
    while p**kernel_dim < kernel:
        kernel_dim += 1
    image_dim = 0
    while p**image_dim < len(image):
        image_dim += 1
    return kernel_dim - image_dim


def brute_span(entries, rows, cols, p):
    """Every vector A v over F_p, as tuples of length rows, by enumerating
    all of F_p^cols.  Only sane for tiny dimensions."""
    return {
        tuple(sum(entries[i][j] * vec[j] for j in range(cols)) % p for i in range(rows))
        for vec in itertools.product(range(p), repeat=cols)
    }


def _det(entries):
    n = len(entries)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= entries[i][perm[i]]
        total += prod
    return total


def minor_gcd_invariants(entries, rows, cols):
    """Invariant factors of an integer matrix as quotients of the gcds of
    the k x k minors; the classical determinantal-divisor description."""
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rr in itertools.combinations(range(rows), k):
            for cc in itertools.combinations(range(cols), k):
                g = gcd(g, _det([[entries[i][j] for j in cc] for i in rr]))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


# ---------------------------------------------------------------------------
# dense reference for the Matrix operations
#
# A dense matrix is (rows, cols, grid) with grid a list of row lists, so
# that 0 x n and n x 0 shapes keep both dimensions.  Arithmetic is plain
# Python on every cell, reduced into the ring by its tag alone.


def reduce_into(ring, x):
    if ring.kind == "F":
        return x % ring.p
    if ring.kind == "Q":
        return Fraction(x)
    return x


def dense(m):
    return (m.rows, m.cols, [list(row) for row in m.entries])


def dense_map(ring, fn, *mats):
    """The cellwise fn of equally shaped dense matrices."""
    rows, cols = mats[0][:2]
    grid = [
        [reduce_into(ring, fn(*(m[2][i][j] for m in mats))) for j in range(cols)]
        for i in range(rows)
    ]
    return (rows, cols, grid)


def dense_matmul(ring, a, b):
    """Each row of a @ b as the sum of the rows of b weighted by that row
    of a, skipping its zero weights."""
    grid = []
    for arow in a[2]:
        acc = [0] * b[1]
        for x, brow in zip(arow, b[2]):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        grid.append([reduce_into(ring, s) for s in acc])
    return (a[0], b[1], grid)


def dense_transpose(a):
    return (a[1], a[0], [[a[2][i][j] for i in range(a[0])] for j in range(a[1])])


def dense_kron(ring, a, b):
    rows, cols = a[0] * b[0], a[1] * b[1]
    grid = [
        [
            reduce_into(ring, a[2][i // b[0]][j // b[1]] * b[2][i % b[0]][j % b[1]])
            for j in range(cols)
        ]
        for i in range(rows)
    ]
    return (rows, cols, grid)


def dense_blocks(ring, row_sizes, col_sizes, blocks):
    """Blocks keyed by (block row, block column); absent blocks are zero."""
    rows, cols = sum(row_sizes), sum(col_sizes)
    grid = [[reduce_into(ring, 0)] * cols for _ in range(rows)]
    for (bi, bj), block in blocks.items():
        r0, c0 = sum(row_sizes[:bi]), sum(col_sizes[:bj])
        for i in range(block[0]):
            for j in range(block[1]):
                grid[r0 + i][c0 + j] = block[2][i][j]
    return (rows, cols, grid)


def dense_identity(ring, size):
    grid = [[reduce_into(ring, int(i == j)) for j in range(size)] for i in range(size)]
    return (size, size, grid)


def same_as_dense(m, expected):
    """Whether the library matrix m has the cells of the dense matrix
    expected and stores nothing else."""
    rows, cols, grid = expected
    return repr(dense(m)) == repr(expected) and m == a.Matrix(m.ring, rows, cols, grid)


def dense_select(a, row_idxs, col_idxs):
    return (len(row_idxs), len(col_idxs), [[a[2][i][j] for j in col_idxs] for i in row_idxs])


def dense_mapping_cone(f):
    """The ranks and the dense differentials, keyed by degree, of the
    mapping cone of the chain map f: degree n is X_{n-1} + Y_n and the
    differential leaving it is [[-dX, 0], [-f, dY]]."""
    x, y, ring = f.source, f.target, f.ring
    top = max(x.top + 1, y.top)
    ranks = tuple(x.rank(n - 1) + y.rank(n) for n in range(top + 1))

    def negated(m):
        return dense_map(ring, lambda v: -v, dense(m))

    diffs = {
        n: dense_blocks(
            ring,
            [x.rank(n - 2), y.rank(n - 1)],
            [x.rank(n - 1), y.rank(n)],
            {
                (0, 0): negated(x.diff(n - 1)),
                (1, 0): negated(f.component(n - 1)),
                (1, 1): dense(y.diff(n)),
            },
        )
        for n in range(1, top + 1)
    }
    return ranks, diffs


def dense_cone_is_exact(f):
    """Whether the mapping cone of f is exact, decided from the dense cone
    and the gcds of minors alone: degree n is exact when its rank is
    rk d_n + rk d_{n+1} and every invariant factor of d_{n+1} is a unit.
    Over Q the grid is scaled to integers, which keeps its rank; over F_p
    the residues are read as integers, and the rank mod p counts the
    integer factors that p does not divide."""
    ranks, diffs = dense_mapping_cone(f)
    ring = f.ring

    def rank_and_free(n):
        """rk d_n, and whether its cokernel has no torsion."""
        if n not in diffs:
            return 0, True
        rows, cols, grid = diffs[n]
        if ring.kind == "Q":
            scale = lcm(*(x.denominator for row in grid for x in row))
            grid = [[int(x * scale) for x in row] for row in grid]
        factors = minor_gcd_invariants(grid, rows, cols)
        if ring.kind == "F":
            return sum(1 for d in factors if d % ring.p), True
        return len(factors), ring.kind == "Q" or all(d == 1 for d in factors)

    out = [rank_and_free(n) for n in range(len(ranks) + 1)]
    return all(
        ranks[n] == out[n][0] + out[n + 1][0] and out[n + 1][1] for n in range(len(ranks))
    )


def dense_det(ring, m):
    """The determinant of the square dense matrix m by Gaussian elimination,
    over Fractions for Z and Q and on residues for F_p."""
    size, _, grid = m
    p = ring.p if ring.kind == "F" else 0
    rows = [[x % p if p else Fraction(x) for x in row] for row in grid]
    det = 1
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return reduce_into(ring, 0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        top = rows[k]
        det *= top[k]
        inverse = pow(top[k], -1, p) if p else 1 / top[k]
        for row in rows[k + 1 :]:
            c = row[k] * inverse
            if c:
                row[k:] = [(x - c * y) % p if p else x - c * y for x, y in zip(row[k:], top[k:])]
    return reduce_into(ring, det)


def dold_kan_projector(m, n):
    """The dense P_n = (1 - s_{n-1} d_{n-1}) ... (1 - s_0 d_0) on level n of
    the simplicial module m, s_0 d_0 applied first: the idempotent onto the
    normalized part N_n that kills the degenerate part D_n."""
    ring = m.ring
    proj = dense_identity(ring, m.rank(n))
    for i in range(n):
        back = dense_matmul(ring, dense(m.degen(n - 1, i)), dense_matmul(ring, dense(m.face(n, i)), proj))
        proj = dense_map(ring, lambda x, y: x - y, proj, back)
    return proj


def dold_kan_counit(m, embeddings, n):
    """The dense level n of the Dold-Kan counit Gamma N M -> M, where
    embeddings[k] embeds N_k into M_k: on the block of a surjection
    [n] ->> [k] with repeat positions j_1 < ... < j_r (all 2^n blocks, in
    the order of _brute_dk_blocks, zero-width ones too) it is
    s_{j_r} ... s_{j_1} e_k, with s_{j_1} applied first, at level k."""
    ring = m.ring
    sizes, blocks = [], {}
    for b, (k, values) in enumerate(_brute_dk_blocks(n)):
        block, level = dense(embeddings[k]), k
        for j in range(n):
            if values[j] == values[j + 1]:
                block = dense_matmul(ring, dense(m.degen(level, j)), block)
                level += 1
        sizes.append(block[1])
        blocks[0, b] = block
    return dense_blocks(ring, [m.rank(n)], sizes, blocks)


# ---------------------------------------------------------------------------
# brute-force simplex category combinatorics


def brute_monotone_maps(n, k):
    """All order-preserving value tuples [n] -> [k], as a set."""
    return {
        values
        for values in itertools.product(range(k + 1), repeat=n + 1)
        if all(values[i] <= values[i + 1] for i in range(n))
    }


def brute_surjections(n, k):
    return {v for v in brute_monotone_maps(n, k) if set(v) == set(range(k + 1))}


def _brute_epi_mono(values):
    """The image of a monotone value tuple, and the tuple with each value
    replaced by its position in the image (the epi part)."""
    image = sorted(set(values))
    return tuple(image), tuple(image.index(v) for v in values)


@cache
def _brute_dk_blocks(n):
    """(k, values) for every surjection [n] ->> [k], k ascending, values
    descending."""
    return tuple((k, v) for k in range(n + 1) for v in sorted(brute_surjections(n, k), reverse=True))


def dense_dk_transition(x, m, n, eta):
    """The matrix that eta: [m] -> [n] (a value tuple) induces on the
    Dold-Kan sums of the complex x, assembled densely over all 2^n blocks:
    one per surjection [n] ->> [k] for every k <= n, zero-width ones too,
    target size ascending and value tuples descending.  The column block g
    goes to the row block of the epi part of g o eta, by the identity when
    g o eta is onto [k] and by (-1)^k d_k when its image is [k - 1]."""
    ring = x.ring
    rows, cols = _brute_dk_blocks(m), _brute_dk_blocks(n)
    row_at = {v: i for i, (_, v) in enumerate(rows)}
    placed = {}
    for j, (k, g) in enumerate(cols):
        image, epi = _brute_epi_mono(tuple(g[e] for e in eta))
        r = x.rank(k)
        if image == tuple(range(k + 1)):
            placed[row_at[epi], j] = dense_identity(ring, r)
        elif image == tuple(range(k)):
            sign = -1 if k % 2 else 1
            placed[row_at[epi], j] = dense_map(ring, lambda v: sign * v, dense(x.diff(k)))
    return dense_blocks(ring, [x.rank(k) for k, _ in rows], [x.rank(k) for k, _ in cols], placed)


def brute_shuffles(p, q):
    """All (p, q)-shuffle permutations of 0..p+q-1 with their signs; the
    sign is the parity of the full inversion count."""
    result = {}
    for perm in itertools.permutations(range(p + q)):
        first, second = perm[:p], perm[p:]
        if all(first[i] < first[i + 1] for i in range(p - 1)) and all(
            second[i] < second[i + 1] for i in range(q - 1)
        ):
            inversions = sum(
                1
                for i in range(p + q)
                for j in range(i + 1, p + q)
                if perm[i] > perm[j]
            )
            result[perm] = -1 if inversions % 2 else 1
    return result


# ---------------------------------------------------------------------------
# dense references for the blockwise maps of the graded direct sums
#
# Each assembles one component over every block key of its degree, the
# zero-size ones included: the pairs (k, n - k) for k <= n of the tensor
# product, all 2^n surjections out of [n] for Dold-Kan, and every jointly
# monic pair of them for the shuffle product, each in its canonical order.
# A surjection is its value tuple, whose last value is its target k.


def _tensor_keys(n):
    """(k, l) with k + l = n, k ascending."""
    return [(k, n - k) for k in range(n + 1)]


@cache
def _shuffle_keys(n):
    """The jointly monic pairs (f, g) of surjections out of [n], that is
    those with i -> (f(i), g(i)) injective: f-major, then g, each in the
    canonical surjection order."""
    surjections = [v for _, v in _brute_dk_blocks(n)]
    return tuple((f, g) for f in surjections for g in surjections if len(set(zip(f, g))) == n + 1)


def _dense_diagonal(ring, keys, row_size, col_size, block):
    """The dense matrix with block(key), of shape row_size(key) x
    col_size(key), on the diagonal block of each key, and zero elsewhere."""
    return dense_blocks(
        ring,
        [row_size(key) for key in keys],
        [col_size(key) for key in keys],
        {(i, i): block(key) for i, key in enumerate(keys)},
    )


def dense_tensor_map(f, g, n):
    """Component n of f (x) g: the block (k, l) is f_k (x) g_l."""
    return _dense_diagonal(
        f.ring,
        _tensor_keys(n),
        lambda kl: f.target.rank(kl[0]) * g.target.rank(kl[1]),
        lambda kl: f.source.rank(kl[0]) * g.source.rank(kl[1]),
        lambda kl: dense_kron(f.ring, dense(f.component(kl[0])), dense(g.component(kl[1]))),
    )


def dense_dk_map(g, n):
    """Level n of the Dold-Kan map of g: the block of a surjection onto [k]
    is g_k."""
    return _dense_diagonal(
        g.ring,
        _brute_dk_blocks(n),
        lambda block: g.target.rank(block[0]),
        lambda block: g.source.rank(block[0]),
        lambda block: dense(g.component(block[0])),
    )


def dense_shuffle_map_left(mu, y, n):
    """Component n of mu boxtimes Y: the block of a pair onto [k], [l] is
    mu_k (x) the identity of Y_l."""
    return _dense_diagonal(
        mu.ring,
        _shuffle_keys(n),
        lambda fg: mu.target.rank(fg[0][-1]) * y.rank(fg[1][-1]),
        lambda fg: mu.source.rank(fg[0][-1]) * y.rank(fg[1][-1]),
        lambda fg: dense_kron(
            mu.ring, dense(mu.component(fg[0][-1])), dense_identity(mu.ring, y.rank(fg[1][-1]))
        ),
    )


def dense_shuffle_map_right(x, theta, n):
    """Component n of X boxtimes theta: the block of a pair onto [k], [l] is
    the identity of X_k (x) theta_l."""
    return _dense_diagonal(
        theta.ring,
        _shuffle_keys(n),
        lambda fg: x.rank(fg[0][-1]) * theta.target.rank(fg[1][-1]),
        lambda fg: x.rank(fg[0][-1]) * theta.source.rank(fg[1][-1]),
        lambda fg: dense_kron(
            theta.ring,
            dense_identity(theta.ring, x.rank(fg[0][-1])),
            dense(theta.component(fg[1][-1])),
        ),
    )


def dense_ez_map(x, y, n):
    """Component n of the comparison map X (x) Y -> X boxtimes Y: the tensor
    block (k, l) lands in the block of each jointly monic pair (f, g) onto
    [k], [l] with k + l = n by the identity times the sign of the shuffle
    that lists the steps of [n] where f rises, then those where g rises."""
    ring = x.ring
    size = lambda k, l: x.rank(k) * y.rank(l)
    rows = _shuffle_keys(n)
    blocks = {}
    for i, (f, g) in enumerate(rows):
        k, l = f[-1], g[-1]
        if k + l == n:
            rises = lambda h: tuple(s for s in range(n) if h[s] < h[s + 1])
            sign = brute_shuffles(k, l)[rises(f) + rises(g)]
            blocks[i, k] = dense_map(ring, lambda v: sign * v, dense_identity(ring, size(k, l)))
    return dense_blocks(
        ring,
        [size(f[-1], g[-1]) for f, g in rows],
        [size(k, l) for k, l in _tensor_keys(n)],
        blocks,
    )


def _aw_part(z, h, values):
    """The block map that the face with these values, [i] -> [n], induces
    on the block of the surjection h: [n] ->> [k] of the Dold-Kan sums of
    z, projected onto the nondegenerate block of degree i: the identity of
    Z_k when h o face is the identity of [k], (-1)^k d_k when it is the
    face of [k] that omits k, and None (zero) otherwise."""
    image, epi = _brute_epi_mono(tuple(h[v] for v in values))
    k = h[-1]
    if epi != tuple(range(len(values))):
        return None
    if image == tuple(range(k + 1)):
        return dense_identity(z.ring, z.rank(k))
    if image == tuple(range(k)):
        sign = -1 if k % 2 else 1
        return dense_map(z.ring, lambda v: sign * v, dense(z.diff(k)))
    return None


def dense_aw_map(x, y, n):
    """Component n of the Alexander-Whitney map X boxtimes Y -> X (x) Y,
    over every jointly monic pair, the zero-size ones too: the block of
    (f, g) goes to the tensor block (i, n - i) by the front face of f (the
    values 0..i) tensored with the back face of g (the values i..n), each
    projected onto its nondegenerate block, for every i."""
    ring = x.ring
    cols = _shuffle_keys(n)
    blocks = {}
    for j, (f, g) in enumerate(cols):
        for i in range(n + 1):
            front, back = _aw_part(x, f, range(i + 1)), _aw_part(y, g, range(i, n + 1))
            if front is not None and back is not None:
                blocks[i, j] = dense_kron(ring, front, back)
    return dense_blocks(
        ring,
        [x.rank(k) * y.rank(l) for k, l in _tensor_keys(n)],
        [x.rank(f[-1]) * y.rank(g[-1]) for f, g in cols],
        blocks,
    )


def zero_rank_map(rng, ring, bound=2):
    """A random chain map between complexes of rank zero in degree 1: their
    differentials vanish, so any components commute with them."""
    x = a.ConnComplex(ring, (rng.randint(1, 2), 0, rng.randint(1, 2)))
    y = a.ConnComplex(ring, (rng.randint(1, 2), 0, rng.randint(1, 2)))
    comps = {n: random_matrix(rng, ring, y.rank(n), x.rank(n), bound) for n in (0, 2)}
    return a.ChainMap(x, y, comps)


# ---------------------------------------------------------------------------
# posets on <= 4 elements, up to isomorphism


def _is_partial_order(leq, n):
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return False
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return False
    return True


def _canonical_key(leq, n):
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


def posets_with_least_element(n):
    """All partial orders on n labeled points having a least element, one
    representative per isomorphism class, as boolean tables."""
    seen = {}
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(off_diagonal)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), bit in zip(off_diagonal, bits):
            leq[i][j] = bit
        if not _is_partial_order(leq, n):
            continue
        if not any(all(leq[i][j] for j in range(n)) for i in range(n)):
            continue
        key = _canonical_key(leq, n)
        if key not in seen:
            seen[key] = [row[:] for row in leq]
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# simplicial set isomorphism by levelwise backtracking


def iso_simplicial(u, v):
    """Whether two finite simplicial sets are isomorphic through the shared
    horizon: build levelwise bijections bottom-up, forcing the images of
    degenerate cells and backtracking over the rest with face-image pruning."""
    h = u.horizon
    if v.horizon != h or any(u.cell_count(m) != v.cell_count(m) for m in range(h + 1)):
        return False

    def extend(maps, m):
        if m > h:
            return True
        count = u.cell_count(m)
        assign = [None] * count
        used = set()
        if m:
            # a degenerate cell must go where the image of its source goes
            for i in range(m):
                ud, vd = u.degen_map(m - 1, i), v.degen_map(m - 1, i)
                for s in range(u.cell_count(m - 1)):
                    t = vd[maps[m - 1][s]]
                    if assign[ud[s]] is None:
                        if t in used:
                            return False
                        assign[ud[s]] = t
                        used.add(t)
                    elif assign[ud[s]] != t:
                        return False

        def face_ok(s, t):
            return m == 0 or all(
                maps[m - 1][u.face_map(m, i)[s]] == v.face_map(m, i)[t]
                for i in range(m + 1)
            )

        if any(assign[s] is not None and not face_ok(s, assign[s]) for s in range(count)):
            return False
        free = [s for s in range(count) if assign[s] is None]

        def fill(k):
            if k == len(free):
                return extend(maps + [assign[:]], m + 1)
            s = free[k]
            for t in range(count):
                if t not in used and face_ok(s, t):
                    assign[s] = t
                    used.add(t)
                    if fill(k + 1):
                        return True
                    assign[s] = None
                    used.discard(t)
            return False

        return fill(0)

    return extend([], 0)


# ---------------------------------------------------------------------------
# seeded random generators


def random_matrix(rng, ring, rows, cols, bound=3):
    ops = a.ring_ops(ring)
    entries = tuple(
        tuple(ops.canon(rng.randint(-bound, bound)) for _ in range(cols))
        for _ in range(rows)
    )
    return a.Matrix(ring, rows, cols, entries)


def random_complex(rng, ring, max_top=3, max_rank=3, bound=3):
    """A random connective complex; differentials are sampled inside the
    kernel of the previous one so the complex condition holds, with entries
    rejected back into [-bound, bound]."""
    top = rng.randint(0, max_top)
    ranks = tuple(rng.randint(0, max_rank) for _ in range(top + 1))
    diffs = {}
    prev = None
    for n in range(1, top + 1):
        rows, cols = ranks[n - 1], ranks[n]
        if prev is None:
            mat = random_matrix(rng, ring, rows, cols, bound)
        else:
            kernel = a.kernel_basis(prev)
            mat = None
            for _ in range(40):
                trial = kernel @ random_matrix(rng, ring, kernel.cols, cols, 1)
                if ring != a.ZZ or all(
                    -bound <= e <= bound for row in trial.entries for e in row
                ):
                    mat = trial
                    break
            if mat is None:
                mat = a.zeros(ring, rows, cols)
        diffs[n] = mat
        prev = mat
    return a.ConnComplex(ring, ranks, diffs)


def null_homotopic_map(rng, ring, x, y, bound=2):
    """d s + s d for a random degree +1 collection s; always a chain map."""
    span = max(x.top, y.top)
    s = [
        random_matrix(rng, ring, y.rank(n + 1), x.rank(n), bound)
        for n in range(span + 1)
    ]
    comps = {}
    for n in range(span + 1):
        comp = y.diff(n + 1) @ s[n]
        if n:
            comp = comp + s[n - 1] @ x.diff(n)
        comps[n] = comp
    return a.ChainMap(x, y, comps)


def random_chain_map(rng, ring, max_top=2, max_rank=2, bound=2):
    """A random chain map between fresh random complexes.  Prefers solving
    the commutation constraints degree by degree; falls back to a
    null-homotopic map when the solve fails, and mixes in identities and
    summand inclusions/projections for classifier coverage."""
    style = rng.randrange(6)
    if style == 0:
        x = random_complex(rng, ring, max_top, max_rank)
        f = a.identity_chain_map(x)
        if rng.randrange(2):
            ops = a.ring_ops(ring)
            c = ops.canon(rng.choice([-1, 2, 1]))
            f = a.ChainMap(
                x, x, {n: f.component(n).scale(c) for n in range(x.top + 1)}
            )
        return f
    if style == 1:
        x = random_complex(rng, ring, max_top, max_rank)
        y = random_complex(rng, ring, max_top, max_rank)
        return _sum_inclusion(rng, ring, x, y)
    if style == 2:
        x = random_complex(rng, ring, max_top, max_rank)
        return null_homotopic_map(rng, ring, x, random_complex(rng, ring, max_top, max_rank))
    x = random_complex(rng, ring, max_top, max_rank)
    y = random_complex(rng, ring, max_top, max_rank)
    comps = {0: random_matrix(rng, ring, y.rank(0), x.rank(0), bound)}
    span = max(x.top, y.top)
    for n in range(1, span + 1):
        want = comps[n - 1] @ x.diff(n)
        found = a.solve(y.diff(n), want)
        if found is None:
            return null_homotopic_map(rng, ring, x, y)
        kernel = a.kernel_basis(y.diff(n))
        found = found + kernel @ random_matrix(rng, ring, kernel.cols, x.rank(n), 1)
        comps[n] = found
    return a.ChainMap(x, y, comps)


def _sum_inclusion(rng, ring, x, y):
    """x -> x (+) y or the projection back, when the tops line up."""
    top = max(x.top, y.top)
    ranks = tuple(x.rank(n) + y.rank(n) for n in range(top + 1))
    diffs = {}
    for n in range(1, top + 1):
        diffs[n] = a.block_matrix(
            ring,
            [x.rank(n - 1), y.rank(n - 1)],
            [x.rank(n), y.rank(n)],
            {(0, 0): x.diff(n), (1, 1): y.diff(n)},
        )
    total = a.ConnComplex(ring, ranks, diffs)
    comps_in = {
        n: a.vcat(
            ring,
            x.rank(n),
            [a.identity(ring, x.rank(n)), a.zeros(ring, y.rank(n), x.rank(n))],
        )
        for n in range(top + 1)
    }
    if rng.randrange(2):
        return a.ChainMap(x, total, comps_in)
    comps_out = {
        n: a.hcat(
            ring,
            x.rank(n),
            [a.identity(ring, x.rank(n)), a.zeros(ring, x.rank(n), y.rank(n))],
        )
        for n in range(top + 1)
    }
    return a.ChainMap(total, x, comps_out)


def random_cofibration(rng, ring, max_top=2, max_rank=2):
    f = random_chain_map(rng, ring, max_top, max_rank)
    left, _ = a.factor_cof_trivfib(f)
    return left


def random_trivial_cofibration(rng, ring, max_top=2, max_rank=2):
    f = random_chain_map(rng, ring, max_top, max_rank)
    left, _ = a.factor_trivcof_fib(f)
    return left


def random_trivial_fibration(rng, ring, max_top=2, max_rank=2):
    f = random_chain_map(rng, ring, max_top, max_rank)
    _, right = a.factor_cof_trivfib(f)
    return right


def random_lifting_square(rng, ring, max_top=2, max_rank=2):
    """(f, g, top, bottom) with f a cofibration, g a trivial fibration, and
    the square commuting by construction: both legs factor through a random
    connecting map w."""
    f = random_cofibration(rng, ring, max_top, max_rank)
    g = random_trivial_fibration(rng, ring, max_top, max_rank)
    w = _random_map_between(rng, ring, f.target, g.source)
    return f, g, a.compose_maps(w, f), a.compose_maps(g, w)


def _random_map_between(rng, ring, x, y, bound=1):
    comps = {0: random_matrix(rng, ring, y.rank(0), x.rank(0), bound)}
    span = max(x.top, y.top)
    for n in range(1, span + 1):
        found = a.solve(y.diff(n), comps[n - 1] @ x.diff(n))
        if found is None:
            return null_homotopic_map(rng, ring, x, y)
        comps[n] = found
    return a.ChainMap(x, y, comps)


def non_simplicial_module(rng):
    """dk(X, 2) over Z with a random last face at level 2 that sends the
    normalized part outside the normalized part of level 1."""
    x = a.ConnComplex(a.ZZ, (1, 1, 1), {1: a.Matrix.from_rows(a.ZZ, [[2]])})
    m = a.dk(x, 2)
    faces = {lv: [m.face(lv, i) for i in range(lv + 1)] for lv in (1, 2)}
    degens = {lv: [m.degen(lv, i) for i in range(lv + 1)] for lv in (0, 1)}
    normalized_1 = a.kernel_basis(m.face(1, 0))
    normalized_2 = a.kernel_basis(a.vcat(a.ZZ, m.rank(2), faces[2][:2]))
    while True:
        faces[2][2] = random_matrix(rng, a.ZZ, m.rank(1), m.rank(2))
        if a.solve(normalized_1, faces[2][2] @ normalized_2) is None:
            return a.SimplicialModule(a.ZZ, m.ranks, faces, degens)


def degeneracy_violating_module():
    """dk(X, 2) over Z for X = Z in degrees 0 and 2, with the degeneracy s_1
    at level 1 also hitting the summand X_2 of level 2.  Every face kills
    that summand, so the face relations hold, and s_1 s_0 = s_0 s_0 fails."""
    x = a.ConnComplex(a.ZZ, (1, 0, 1), {})
    m = a.dk(x, 2)
    faces = {lv: [m.face(lv, i) for i in range(lv + 1)] for lv in (1, 2)}
    degens = {lv: [m.degen(lv, i) for i in range(lv + 1)] for lv in (0, 1)}
    degens[1][1] = a.Matrix.from_rows(a.ZZ, [[1], [1]])
    return a.SimplicialModule(a.ZZ, m.ranks, faces, degens)


# ---------------------------------------------------------------------------
# homology across rings and of products, from the integral homology
#
# A finitely generated abelian group is (free rank, orders m of its cyclic
# summands Z/m); the orders need not form a divisibility chain, so groups
# are compared through elementary divisors.


def elementary_divisors(orders, primes=(2, 3, 5, 7)):
    """The sorted prime-power orders of the summands of ⊕ Z/m over the
    orders m, each of which must factor over primes."""
    out = []
    for m in orders:
        for q in primes:
            e = 1
            while m % q == 0:
                m, e = m // q, e * q
            if e > 1:
                out.append(e)
        if m != 1:
            raise ValueError(f"an order with a prime factor outside {primes}")
    return sorted(out)


def uct_dims(groups, p):
    """dim H_n(C; k) of a free complex C over Z with these integral homology
    groups, by the universal coefficient theorem: the free rank of H_n plus
    the orders of H_n and of H_{n-1} that p divides, for k = F_p; the free
    ranks alone for k = Q (p = 0)."""
    t = [sum(p != 0 and m % p == 0 for m in h.torsion) for h in groups]
    return [h.free_rank + t[n] + (t[n - 1] if n else 0) for n, h in enumerate(groups)]


def kunneth_groups(hx, hy):
    """H_n(X ⊠ Y) for free complexes over Z with integral homology hx and hy,
    lists of (free rank, orders), by the Künneth theorem:
    ⊕_{i+j=n} H_i X ⊗ H_j Y ⊕ ⊕_{i+j=n-1} Tor(H_i X, H_j Y), with
    Z/s ⊗ Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t); as (free rank, elementary
    divisors) per degree."""
    out = []
    for n in range(len(hx) + len(hy) - 1):
        free, orders = 0, []
        for i, (xfree, xtor) in enumerate(hx):
            if 0 <= n - i < len(hy):
                yfree, ytor = hy[n - i]
                free += xfree * yfree
                orders += xtor * yfree + ytor * xfree + [gcd(s, t) for s in xtor for t in ytor]
            if 0 <= n - 1 - i < len(hy):
                orders += [gcd(s, t) for s in xtor for t in hy[n - 1 - i][1]]
        out.append((free, elementary_divisors(orders)))
    return out


def kunneth_dims(dx, dy):
    """dim H_n(X ⊠ Y; k) = Σ_{i+j=n} dim H_i(X; k) dim H_j(Y; k) over a field."""
    return [
        sum(dx[i] * dy[n - i] for i in range(len(dx)) if 0 <= n - i < len(dy))
        for n in range(len(dx) + len(dy) - 1)
    ]


def _unimodular(rng, n):
    """A dense n x n integer matrix of determinant 1: a unit lower times a
    unit upper triangular matrix with entries in -1..1."""
    pick = lambda i, j, below: int(i == j) or (rng.randint(-1, 1) if (i > j) == below else 0)
    lower = (n, n, [[pick(i, j, True) for j in range(n)] for i in range(n)])
    upper = (n, n, [[pick(i, j, False) for j in range(n)] for i in range(n)])
    return dense_matmul(a.ZZ, lower, upper)


def planted_smith_grid(rng, rows, cols, factors):
    """The integer grid U D V of a rows x cols matrix whose Smith form has
    the diagonal D of the given factors (zero beyond them), mixed by
    unimodular U and V."""
    d = (rows, cols, [[factors[i] if i == j and i < len(factors) else 0 for j in range(cols)] for i in range(rows)])
    return dense_matmul(a.ZZ, dense_matmul(a.ZZ, _unimodular(rng, rows), d), _unimodular(rng, cols))[2]


def random_summands(rng, top, count):
    """count summands (k, m) for elementary_complex, the first with torsion:
    Z in degree k for m = 0, Z --m--> Z in degrees k + 1 -> k for m in
    {2, 3, 4, 6, 9}."""
    out = [(rng.randrange(top), rng.choice((2, 3, 4, 6, 9)))]
    for _ in range(count - 1):
        k = rng.randint(0, top)
        out.append((k, 0 if k == top or rng.random() < 0.3 else rng.choice((2, 3, 4, 6, 9))))
    return out


def elementary_complex(ring, top, summands):
    """The direct sum over ring of the complexes named by the summands
    (k, m) of random_summands, in the order given."""
    ranks = [0] * (top + 1)
    arrows = []  # (target degree, row, column, m)
    for k, m in summands:
        if m:
            arrows.append((k, ranks[k], ranks[k + 1], m))
            ranks[k + 1] += 1
        ranks[k] += 1
    grids = {n: [[0] * ranks[n] for _ in range(ranks[n - 1])] for n in range(1, top + 1)}
    for k, i, j, m in arrows:
        grids[k + 1][i][j] = m
    diffs = {n: a.Matrix.from_rows(ring, grid, ranks[n]) for n, grid in grids.items()}
    return a.ConnComplex(ring, tuple(ranks), diffs)


def elementary_homology(top, summands, p=None):
    """The homology of elementary_complex read off its summands: over Z
    (p None) as (free rank, orders) per degree; over F_p, or Q for p = 0,
    as dimensions, Z --m--> Z adding one to degrees k and k + 1 when p
    divides m."""
    if p is None:
        return [
            (sum(k == n and not m for k, m in summands), [m for k, m in summands if k == n and m])
            for n in range(top + 1)
        ]
    dims = [0] * (top + 1)
    for k, m in summands:
        if not m:
            dims[k] += 1
        elif p and m % p == 0:
            dims[k] += 1
            dims[k + 1] += 1
    return dims
