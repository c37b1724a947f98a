"""The shuffle product of connective complexes and the Eilenberg-Zilber
comparison map.

Degree n of X boxtimes Y is the sum of X_k (x) Y_l over jointly monic pairs
of surjections (f: [n] ->> [k], g: [n] ->> [l]); the differential evaluates
the alternating face sum through the degreewise Dold-Kan structure maps,
resolved case-by-case from the degeneracy sets.  The comparison map from
the ordinary tensor product lands in the complementary blocks with shuffle
signs.  A fully independent route through normalization of the levelwise
tensor of degreewise sums is kept as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    ChainMap,
    ConnComplex,
    ModelClass,
    classify,
    complex_to_json,
    disk,
    homology,
    sphere,
    tensor,
    tensor_blocks,
)
from .deltacat import MonotoneMap, compose, enumerate_jointly_monic_pairs, face, shuffle_of_pair
from .errors import DomainError, RingError
from .linalg import HomologyGroup, Matrix, block_matrix, identity, kron
from .rings import ring_ops


Pair = tuple[MonotoneMap, MonotoneMap]


@dataclass(frozen=True)
class ShuffleComplex:
    """A connective complex whose degree-n part is indexed by jointly monic
    surjection pairs, in the canonical pair order."""

    underlying: ConnComplex
    blocks: tuple[tuple[Pair, ...], ...]

    @property
    def ring(self):
        return self.underlying.ring

    @property
    def top(self) -> int:
        return self.underlying.top

    def rank(self, n: int) -> int:
        return self.underlying.rank(n)

    def diff(self, n: int) -> Matrix:
        return self.underlying.diff(n)


def _restrict_off_top(f: MonotoneMap) -> MonotoneMap:
    """Reinterpret a map that misses only the top of its target as a
    surjection onto the one-smaller ordinal."""
    return MonotoneMap(f.source_top, f.target_top - 1, f.values)


def _block_widths(x: ConnComplex, y: ConnComplex, pairs) -> list[int]:
    return [x.rank(f.target_top) * y.rank(g.target_top) for f, g in pairs]


def shuffle_product(x: ConnComplex, y: ConnComplex) -> ShuffleComplex:
    """The jointly-monic-pair complex with the alternating-face differential.

    Each face i < n contributes the identity into the pair of composites
    when both stay surjective and nothing otherwise; the last face also
    picks up the degree-k and degree-l differentials, with signs (-1)^k and
    (-1)^l, on the factors whose composite drops off the top."""
    if x.ring != y.ring:
        raise RingError(f"factors over {x.ring} and {y.ring}")
    ring = x.ring
    ops = ring_ops(ring)

    def signed(mat: Matrix, exponent: int) -> Matrix:
        return mat.scale(ops.neg(ops.one)) if exponent % 2 else mat

    top = x.top + y.top
    pairs_at = [enumerate_jointly_monic_pairs(n, x.top, y.top) for n in range(top + 1)]
    ranks = tuple(sum(_block_widths(x, y, pairs)) for pairs in pairs_at)
    diffs = {}
    for n in range(1, top + 1):
        col_widths = _block_widths(x, y, pairs_at[n])
        row_widths = _block_widths(x, y, pairs_at[n - 1])
        row_at = {(f.values, g.values): idx for idx, (f, g) in enumerate(pairs_at[n - 1])}
        contributions: dict[tuple[int, int], Matrix] = {}

        def add(ri: int, ci: int, mat: Matrix) -> None:
            key = (ri, ci)
            contributions[key] = contributions[key] + mat if key in contributions else mat

        for ci, (f, g) in enumerate(pairs_at[n]):
            if col_widths[ci] == 0:
                continue
            k, l = f.target_top, g.target_top
            for i in range(n + 1):
                delta = face(n, i)
                fd = compose(f, delta)
                gd = compose(g, delta)
                f_onto = fd.is_surjective
                g_onto = gd.is_surjective
                if i < n:
                    if f_onto and g_onto:
                        add(row_at[(fd.values, gd.values)], ci, signed(identity(ring, col_widths[ci]), i))
                    continue
                if f_onto and g_onto:
                    add(row_at[(fd.values, gd.values)], ci, signed(identity(ring, col_widths[ci]), n))
                elif g_onto:
                    mat = signed(kron(x.diff(k), identity(ring, y.rank(l))), n + k)
                    add(row_at[(_restrict_off_top(fd).values, gd.values)], ci, mat)
                elif f_onto:
                    mat = signed(kron(identity(ring, x.rank(k)), y.diff(l)), n + l)
                    add(row_at[(fd.values, _restrict_off_top(gd).values)], ci, mat)
                else:
                    mat = signed(kron(x.diff(k), y.diff(l)), n + k + l)
                    add(row_at[(_restrict_off_top(fd).values, _restrict_off_top(gd).values)], ci, mat)
        diffs[n] = block_matrix(
            ring,
            row_widths,
            col_widths,
            {key: m for key, m in contributions.items() if not m.is_zero},
        )
    underlying = ConnComplex(ring, ranks, diffs)
    return ShuffleComplex(underlying, tuple(tuple(p) for p in pairs_at))


def _pairwise_map(src_x, src_y, tgt_x, tgt_y, factor) -> ChainMap:
    """A map between two shuffle products acting on each block shared by
    their layouts; factor(k, l) supplies the block component."""
    source = shuffle_product(src_x, src_y)
    target = shuffle_product(tgt_x, tgt_y)
    ring = source.ring
    comps = {}
    for n in range(max(source.top, target.top) + 1):
        src_pairs = source.blocks[n] if n <= source.top else ()
        tgt_pairs = target.blocks[n] if n <= target.top else ()
        src_widths = _block_widths(src_x, src_y, src_pairs)
        tgt_widths = _block_widths(tgt_x, tgt_y, tgt_pairs)
        tgt_at = {(f.values, g.values): idx for idx, (f, g) in enumerate(tgt_pairs)}
        blocks = {}
        for ci, (f, g) in enumerate(src_pairs):
            key = (f.values, g.values)
            if key not in tgt_at:
                continue
            ri = tgt_at[key]
            if src_widths[ci] == 0 and tgt_widths[ri] == 0:
                continue
            blocks[(ri, ci)] = factor(f.target_top, g.target_top)
        comps[n] = block_matrix(ring, tgt_widths, src_widths, blocks)
    return ChainMap(source.underlying, target.underlying, comps)


def shuffle_map_left(mu: ChainMap, y: ConnComplex) -> ChainMap:
    """mu boxtimes Y: blockwise mu_k (x) identity."""
    if mu.ring != y.ring:
        raise RingError(f"map over {mu.ring}, factor over {y.ring}")
    return _pairwise_map(
        mu.source,
        y,
        mu.target,
        y,
        lambda k, l: kron(mu.component(k), identity(y.ring, y.rank(l))),
    )


def shuffle_map_right(x: ConnComplex, theta: ChainMap) -> ChainMap:
    """X boxtimes theta: blockwise identity (x) theta_l."""
    if x.ring != theta.ring:
        raise RingError(f"factor over {x.ring}, map over {theta.ring}")
    return _pairwise_map(
        x,
        theta.source,
        x,
        theta.target,
        lambda k, l: kron(identity(x.ring, x.rank(k)), theta.component(l)),
    )


def ez_map(x: ConnComplex, y: ConnComplex) -> ChainMap:
    """The comparison chain map from the tensor product: the (k,l) tensor
    block lands in each complementary jointly monic block with the sign of
    its shuffle."""
    boxed = shuffle_product(x, y)
    tensored = tensor(x, y)
    layout = tensor_blocks(x, y)
    ring = x.ring
    ops = ring_ops(ring)
    comps = {}
    for n in range(boxed.top + 1):
        pairs = boxed.blocks[n]
        row_widths = _block_widths(x, y, pairs)
        col_row = layout[n] if n < len(layout) else ()
        col_widths = [w for (_, _, _, w) in col_row]
        col_at = {(k, l): idx for idx, (k, l, _, _) in enumerate(col_row)}
        blocks = {}
        for ri, (f, g) in enumerate(pairs):
            k, l = f.target_top, g.target_top
            if k + l != n or row_widths[ri] == 0:
                continue
            sign = shuffle_of_pair(f, g).sign()
            block = identity(ring, row_widths[ri])
            if sign < 0:
                block = block.scale(ops.neg(ops.one))
            blocks[(ri, col_at[(k, l)])] = block
        comps[n] = block_matrix(ring, row_widths, col_widths, blocks)
    return ChainMap(tensored, boxed.underlying, comps)


@dataclass(frozen=True)
class NorTensorReport:
    """Rank and homology comparison between normalizing the levelwise
    tensor of two simplicial modules and the shuffle product of their
    normalizations; ranks compared through the horizon, homology below it."""

    horizon: int
    left_ranks: tuple[int, ...]
    right_ranks: tuple[int, ...]
    left_homology: tuple[HomologyGroup, ...]
    right_homology: tuple[HomologyGroup, ...]

    @property
    def ranks_match(self) -> bool:
        return self.left_ranks == self.right_ranks

    @property
    def homology_matches(self) -> bool:
        return self.left_homology == self.right_homology

    @property
    def passed(self) -> bool:
        return self.ranks_match and self.homology_matches


def nor_tensor_compare(m, n) -> NorTensorReport:
    """Both routes to the product complex, compared degree by degree."""
    from .simplicial import nor, tensor_sm

    if m.ring != n.ring:
        raise RingError(f"factors over {m.ring} and {n.ring}")
    if m.horizon != n.horizon:
        raise DomainError(f"horizons differ: {m.horizon} vs {n.horizon}")
    h = m.horizon
    left = nor(tensor_sm(m, n)).complex
    right = shuffle_product(nor(m).complex, nor(n).complex).underlying
    left_ranks = tuple(left.rank(d) for d in range(h + 1))
    right_ranks = tuple(right.rank(d) for d in range(h + 1))
    left_h = homology(left)[:h]
    right_h = homology(right)[:h]
    return NorTensorReport(h, left_ranks, right_ranks, left_h, right_h)


def boxtimes_generator_tests(mu: ChainMap, n: int) -> tuple[ModelClass, ModelClass]:
    """Classifications of mu boxtimes D(n) and of mu boxtimes S(0)."""
    if n < 1:
        raise DomainError("generator test needs n >= 1")
    disk_map = shuffle_map_left(mu, disk(n, mu.ring))
    unit_map = shuffle_map_left(mu, sphere(0, mu.ring))
    return classify(disk_map), classify(unit_map)


def shuffle_to_json(s: ShuffleComplex) -> dict:
    out = complex_to_json(s.underlying)
    out["blocks"] = [
        [
            {
                "f": list(f.values),
                "g": list(g.values),
                "k": f.target_top,
                "l": g.target_top,
            }
            for f, g in pairs
        ]
        for pairs in s.blocks
    ]
    return out
