"""Seeded input generators for the benchmark workloads.

Everything here is a function of a ``random.Random`` passed in, so one seed
always gives the same inputs.  The generators are the benchmark's own and do
not import from ``tests/``: a change to the test suite cannot move the
benchmark.
"""

from __future__ import annotations

import artifact as A


def random_matrix(rng, ring, rows, cols, bound=3):
    ops = A.ring_ops(ring)
    return A.Matrix(
        ring,
        rows,
        cols,
        tuple(
            tuple(ops.canon(rng.randint(-bound, bound)) for _ in range(cols))
            for _ in range(rows)
        ),
    )


def complex_with_ranks(rng, ring, ranks, bound=3):
    """A complex with the given ranks: the first differential is dense
    random, each later one is a random combination of the kernel basis of
    the one below, so d o d = 0 holds by construction."""
    diffs = {}
    for n in range(1, len(ranks)):
        if n == 1:
            d = random_matrix(rng, ring, ranks[0], ranks[1], bound)
        else:
            kernel = A.kernel_basis(diffs[n - 1])
            d = kernel @ random_matrix(rng, ring, kernel.cols, ranks[n], 1)
        diffs[n] = d
    return A.ConnComplex(ring, ranks, diffs)


def random_ranks(rng, max_top=2, max_rank=2):
    top = rng.randint(0, max_top)
    return tuple(rng.randint(0, max_rank) for _ in range(top + 1))


def null_homotopic_map(rng, ring, x, y, bound=2):
    """d s + s d for a random degree-raising family s; always a chain map."""
    span = max(x.top, y.top)
    s = [random_matrix(rng, ring, y.rank(n + 1), x.rank(n), bound) for n in range(span + 1)]
    comps = {}
    for n in range(span + 1):
        comp = y.diff(n + 1) @ s[n]
        if n:
            comp = comp + s[n - 1] @ x.diff(n)
        comps[n] = comp
    return A.ChainMap(x, y, comps)


def summand_map(design, ring, x, y):
    """The inclusion x -> x (+) y or the projection x (+) y -> x."""
    top = max(x.top, y.top)
    ranks = tuple(x.rank(n) + y.rank(n) for n in range(top + 1))
    diffs = {
        n: A.block_matrix(
            ring,
            [x.rank(n - 1), y.rank(n - 1)],
            [x.rank(n), y.rank(n)],
            {(0, 0): x.diff(n), (1, 1): y.diff(n)},
        )
        for n in range(1, top + 1)
    }
    total = A.ConnComplex(ring, ranks, diffs)
    if design.randrange(2):
        comps = {
            n: A.vcat(ring, x.rank(n), [A.identity(ring, x.rank(n)), A.zeros(ring, y.rank(n), x.rank(n))])
            for n in range(top + 1)
        }
        return A.ChainMap(x, total, comps)
    comps = {
        n: A.hcat(ring, x.rank(n), [A.identity(ring, x.rank(n)), A.zeros(ring, x.rank(n), y.rank(n))])
        for n in range(top + 1)
    }
    return A.ChainMap(total, x, comps)


def lifted_map(rng, ring, x, y):
    """A random degree-0 component extended upwards by solving the
    commutation constraint; a null-homotopic map when that has no solution."""
    comps = {0: random_matrix(rng, ring, y.rank(0), x.rank(0), 2)}
    for n in range(1, max(x.top, y.top) + 1):
        found = A.solve(y.diff(n), comps[n - 1] @ x.diff(n))
        if found is None:
            return null_homotopic_map(rng, ring, x, y)
        kernel = A.kernel_basis(y.diff(n))
        comps[n] = found + kernel @ random_matrix(rng, ring, kernel.cols, x.rank(n), 1)
    return A.ChainMap(x, y, comps)


def random_chain_map(rng, design, ring, max_top=2, max_rank=2):
    """One of four kinds: a scaled identity, a summand inclusion or
    projection, a null-homotopic map, or a lifted map, so the classifier
    sees every combination of classes.  The shape (kind, ranks, scalar,
    direction) comes from ``design``, the entries from ``rng``: a workload
    that draws its shapes from a fixed ``design`` keeps the same amount of
    work on every seed."""
    x = complex_with_ranks(rng, ring, random_ranks(design, max_top, max_rank))
    kind = design.randrange(4)
    if kind == 0:
        c = A.ring_ops(ring).canon(design.choice([1, -1, 2]))
        return A.ChainMap(x, x, {n: A.identity(ring, x.rank(n)).scale(c) for n in range(x.top + 1)})
    y = complex_with_ranks(rng, ring, random_ranks(design, max_top, max_rank))
    if kind == 1:
        return summand_map(design, ring, x, y)
    if kind == 2:
        return null_homotopic_map(rng, ring, x, y)
    return lifted_map(rng, ring, x, y)
