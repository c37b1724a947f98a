"""The shuffle product of connective complexes and the Eilenberg-Zilber
comparison map.

Degree n of X boxtimes Y is the sum of X_k (x) Y_l over jointly monic pairs
of surjections (f: [n] ->> [k], g: [n] ->> [l]); the differential is the
alternating face sum of the diagonal of the two Dold-Kan modules, read
block by block from the rule that also builds their structure maps.  The
comparison map from the ordinary tensor product lands in the complementary
blocks with shuffle signs.  A fully independent route through normalization
of the levelwise tensor of degreewise sums is kept as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    ChainMap,
    ConnComplex,
    ModelClass,
    _blockwise,
    _keyed_block_matrix,
    _tensor_layout,
    classify,
    complex_to_json,
    disk,
    homology,
    identity_chain_map,
    sphere,
    tensor,
)
from .deltacat import MonotoneMap, _jointly_monic_pairs, _monic_pair_maps, _surjection, face, shuffle_of_pair
from .errors import DomainError, RingError, _check_int
from .linalg import HomologyGroup, Matrix, identity
from .simplicial import _dk_blocks, _dk_rule, _live, nor, tensor_sm


Pair = tuple[MonotoneMap, MonotoneMap]


@dataclass(frozen=True)
class ShuffleComplex:
    """A connective complex whose degree-n part is indexed by jointly monic
    surjection pairs, in the canonical pair order.  blocks lists, in each
    degree, every jointly monic pair onto [k], [l] with k <= x.top and
    l <= y.top for the factors x and y, the zero-size pairs included."""

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


def _shuffle_layout(x: ConnComplex, y: ConnComplex, n: int) -> dict:
    """The degree-n layout of the product of x and y: {(values of f, values
    of g): rank X_k * rank Y_l} over the jointly monic pairs onto [k], [l]
    with X_k and Y_l nonzero, in the canonical pair order; the values of a
    surjection onto [k] end in k."""
    pairs = _jointly_monic_pairs(n, _live(x), _live(y))
    return {(f, g): x.ranks[f[-1]] * y.ranks[g[-1]] for f, g in pairs}


def shuffle_product(x: ConnComplex, y: ConnComplex) -> ShuffleComplex:
    """The jointly-monic-pair complex with the alternating-face differential.

    Face i sends the block of (f, g) to the block of the epi parts of
    (f o d_i, g o d_i) by the tensor of the two Dold-Kan block maps that
    _dk_rule gives for f and g, with sign (-1)^i; it is zero when either
    block map is."""
    if x.ring != y.ring:
        raise RingError(f"factors over {x.ring} and {y.ring}")
    ring = x.ring
    top = x.top + y.top
    x_blocks, y_blocks = _dk_blocks(x), _dk_blocks(y)
    layouts = [_shuffle_layout(x, y, n) for n in range(top + 1)]
    diffs = {}
    for n in range(1, top + 1):
        faces = [face(n, i).values for i in range(n + 1)]
        rows, cols = layouts[n - 1], layouts[n]
        blocks = {}
        for f, g in cols:
            for i, delta in enumerate(faces):
                f_rule = _dk_rule(f, delta)
                g_rule = _dk_rule(g, delta)
                if f_rule is None or g_rule is None:
                    continue
                row = (f_rule[0], g_rule[0])
                # a dead row is a zero-height block
                if row not in rows:
                    continue
                # faces i < j reach one key only where f and g both repeat
                # on i..j, which joint monicity forbids: one term per key
                blocks[row, (f, g)] = (-1 if i % 2 else 1, x_blocks[f[-1], f_rule[1]], y_blocks[g[-1], g_rule[1]])
        diffs[n] = _keyed_block_matrix(ring, rows, cols, blocks)
    underlying = ConnComplex(ring, tuple(sum(sizes.values()) for sizes in layouts), diffs)
    return ShuffleComplex(underlying, tuple(_monic_pair_maps(n, x.top, y.top) for n in range(top + 1)))


def _shuffle_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f boxtimes g: the map between the shuffle products of the sources and
    of the targets that acts on each block shared by their layouts, the
    block of a pair onto [k], [l] by f_k (x) g_l."""
    source = shuffle_product(f.source, g.source)
    target = shuffle_product(f.target, g.target)
    block = lambda fg: (1, f.component(fg[0][-1]), g.component(fg[1][-1]))
    comps = {}
    for n in range(max(source.top, target.top) + 1):
        rows, cols = _shuffle_layout(f.target, g.target, n), _shuffle_layout(f.source, g.source, n)
        comps[n] = _blockwise(source.ring, rows, cols, block)
    return ChainMap(source.underlying, target.underlying, comps)


def shuffle_map_left(mu: ChainMap, y: ConnComplex) -> ChainMap:
    """mu boxtimes Y: blockwise mu_k (x) identity."""
    if mu.ring != y.ring:
        raise RingError(f"map over {mu.ring}, factor over {y.ring}")
    return _shuffle_map(mu, identity_chain_map(y))


def shuffle_map_right(x: ConnComplex, theta: ChainMap) -> ChainMap:
    """X boxtimes theta: blockwise identity (x) theta_l."""
    if x.ring != theta.ring:
        raise RingError(f"factor over {x.ring}, map over {theta.ring}")
    return _shuffle_map(identity_chain_map(x), theta)


def ez_map(x: ConnComplex, y: ConnComplex) -> ChainMap:
    """The comparison chain map from the tensor product: the (k,l) tensor
    block lands in each complementary jointly monic block with the sign of
    its shuffle."""
    boxed = shuffle_product(x, y)
    ring = x.ring
    comps = {}
    for n in range(boxed.top + 1):
        rows = _shuffle_layout(x, y, n)
        blocks = {}
        for f, g in rows:
            if f[-1] + g[-1] == n:
                sign = shuffle_of_pair(_surjection(f), _surjection(g)).sign()
                blocks[(f, g), (f[-1], g[-1])] = identity(ring, rows[f, g]).scale(sign)
        comps[n] = _keyed_block_matrix(ring, rows, _tensor_layout(x, y, n), blocks)
    return ChainMap(tensor(x, y), boxed.underlying, comps)


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
    _check_int("generator test", "n", n, least=1)
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
