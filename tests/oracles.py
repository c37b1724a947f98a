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
from math import gcd

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
    assert in_rows == out_cols
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
