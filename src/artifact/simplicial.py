"""Finite simplicial sets and simplicial modules.

Simplicial sets are stored levelwise up to a horizon with faces and
degeneracies as index maps; simplicial modules carry matrices instead.
Includes standard simplices and their boundaries, nerves of finite posets,
products and coproducts, free modules on simplicial sets, the degreewise
Dold-Kan functor and its inverse direction (normalization), the Moore
complex and degenerate subcomplex, levelwise tensor products, copowers,
cylinder objects, and the explicit contracting homotopy that collapses the
nerve of a poset with a least element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from . import deltacat
from .chains import (
    ChainMap,
    ConnComplex,
    _Value,
    _blockwise,
    _build,
    _check_matrix,
    _json_header,
    _keyed_block_matrix,
)
from .errors import DomainError, NotSimplicial, RingError, ShapeError, _check_int
from .linalg import (
    Matrix,
    _by_degree,
    _is_natural,
    _json_object,
    block_matrix,
    hcat,
    identity,
    image_basis,
    kernel_basis,
    kron,
    mat_from_json,
    mat_to_json,
    solve,
    vcat,
    zeros,
)
from .rings import RingTag


class FinSimplicialSet(_Value):
    """Levelwise finite simplicial set, trusted up to its horizon.  Cells
    are ordered lists of opaque labels; faces and degeneracies are stored
    as index maps between adjacent levels."""

    __slots__ = ("horizon", "cells", "_faces", "_degens")

    def __init__(self, horizon: int, cells, faces, degens):
        if type(horizon) is not int:
            raise ValueError("horizon must be an integer")
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        cells = tuple(tuple(level) for level in cells)
        if len(cells) != horizon + 1:
            raise ValueError(f"expected {horizon + 1} cell levels")
        self.horizon = horizon
        self.cells = cells
        stored = []
        for kind, given, levels, step in _structure_maps(horizon, faces, degens):
            if len(given) != len(levels):
                raise ValueError(f"expected {len(levels)} levels of {kind} maps, got {len(given)}")
            given = tuple(tuple(tuple(fam) for fam in fams) for fams in given)
            for m, fams in zip(levels, given):
                if len(fams) != m + 1:
                    raise ValueError(f"level {m} needs {m + 1} {kind} maps")
                for i, fam in enumerate(fams):
                    if len(fam) != len(cells[m]):
                        raise ValueError(f"{kind} ({m},{i}) must be defined on every cell")
                    if any(not 0 <= t < len(cells[m + step]) for t in fam):
                        raise ValueError(f"{kind} ({m},{i}) hits an out-of-range cell")
            stored.append(given)
        self._faces, self._degens = stored
        for kind, m, i, j in _identity_violations(
            horizon, self.cell_count, self.face_map, self.degen_map, compose_index, index_identity
        ):
            raise NotSimplicial(f"{kind} identity fails at level {m} for (i,j)=({i},{j})")

    def cell_count(self, m: int) -> int:
        if not (type(m) is int and 0 <= m <= self.horizon):
            raise IndexError(f"no level {m} at horizon {self.horizon}")
        return len(self.cells[m])

    def face_map(self, m: int, i: int) -> tuple[int, ...]:
        """Index map of d_{m,i}: level m -> level m-1."""
        if not (type(m) is type(i) is int and 0 < m <= self.horizon and 0 <= i <= m):
            raise IndexError(f"no face ({m},{i}) at horizon {self.horizon}")
        return self._faces[m - 1][i]

    def degen_map(self, m: int, i: int) -> tuple[int, ...]:
        """Index map of s_{m,i}: level m -> level m+1."""
        if not (type(m) is type(i) is int and 0 <= i <= m < self.horizon):
            raise IndexError(f"no degeneracy ({m},{i}) at horizon {self.horizon}")
        return self._degens[m][i]

    def __repr__(self) -> str:
        counts = tuple(len(level) for level in self.cells)
        return f"FinSimplicialSet(horizon={self.horizon}, cells={counts})"


def _structure_maps(horizon: int, faces, degens) -> tuple:
    """The two kinds of structure map below horizon, as (kind, data, levels,
    step): kind as messages name it, the caller's data for that kind, the
    levels that carry maps of that kind (m + 1 of them at level m), and the
    shift from the level a map leaves to the level it lands in."""
    return (("face", faces, range(1, horizon + 1), -1), ("degeneracy", degens, range(horizon), 1))


def _families(horizon: int, face_at, degen_at) -> tuple:
    """The faces face_at(m, i), then the degeneracies degen_at(m, i), below
    horizon, each as one list of families per level in level order."""
    return tuple(
        [[at(m, i) for i in range(m + 1)] for m in levels]
        for _, at, levels, _ in _structure_maps(horizon, face_at, degen_at)
    )


def compose_index(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[t] for t in inner)


def index_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _identity_violations(horizon, size_at, face_at, degen_at, comp, ident):
    """Yield (kind, m, i, j) for every failed simplicial relation below the
    horizon; generic over index maps and matrices."""
    for m in range(2, horizon + 1):
        for j in range(m + 1):
            for i in range(j):
                lhs = comp(face_at(m - 1, i), face_at(m, j))
                rhs = comp(face_at(m - 1, j - 1), face_at(m, i))
                if lhs != rhs:
                    yield ("face-face", m, i, j)
    for m in range(horizon - 1):
        for j in range(m + 1):
            for i in range(j + 1):
                lhs = comp(degen_at(m + 1, i), degen_at(m, j))
                rhs = comp(degen_at(m + 1, j + 1), degen_at(m, i))
                if lhs != rhs:
                    yield ("degen-degen", m, i, j)
    for m in range(horizon):
        one = ident(size_at(m))
        for j in range(m + 1):
            for i in range(m + 2):
                got = comp(face_at(m + 1, i), degen_at(m, j))
                if i in (j, j + 1):
                    want = one
                elif i < j:
                    want = comp(degen_at(m - 1, j - 1), face_at(m, i))
                else:
                    want = comp(degen_at(m - 1, j), face_at(m, i - 1))
                if got != want:
                    yield ("face-degen", m, i, j)


def _vertex_tuple_set(horizon, cells) -> FinSimplicialSet:
    """The simplicial set on these levels of vertex tuples: face i drops
    vertex i and degeneracy i repeats it."""
    cells = tuple(tuple(level) for level in cells)
    index = [{c: i for i, c in enumerate(level)} for level in cells]
    faces, degens = _families(
        horizon,
        lambda m, i: [index[m - 1][c[:i] + c[i + 1 :]] for c in cells[m]],
        lambda m, i: [index[m + 1][c[: i + 1] + c[i:]] for c in cells[m]],
    )
    return FinSimplicialSet(horizon, cells, faces, degens)


def simplex_set(n: int, horizon: int) -> FinSimplicialSet:
    """The combinatorial n-simplex: level m holds the weakly increasing
    (m+1)-tuples over {0..n} in lexicographic order."""
    _check_int("simplex", "horizon", horizon, least=0)
    _check_int("simplex", "n", n, least=0)
    cells = [
        list(itertools.combinations_with_replacement(range(n + 1), m + 1))
        for m in range(horizon + 1)
    ]
    return _vertex_tuple_set(horizon, cells)


def boundary_simplex_set(n: int, horizon: int) -> FinSimplicialSet:
    """The boundary of the n-simplex: the non-surjective tuples."""
    _check_int("boundary", "horizon", horizon, least=0)
    _check_int("boundary", "n", n, least=1)
    full = set(range(n + 1))
    cells = [
        [c for c in itertools.combinations_with_replacement(range(n + 1), m + 1) if set(c) != full]
        for m in range(horizon + 1)
    ]
    return _vertex_tuple_set(horizon, cells)


class FinPoset(_Value):
    """A finite partial order on an ordered list of elements; the relation
    is validated at construction."""

    __slots__ = ("elements", "leq")

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        n = len(self.elements)
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ValueError(f"leq must be a {n}x{n} table")
        for i in range(n):
            if not self.leq[i][i]:
                raise DomainError(f"relation is not reflexive at {i}")
        for i in range(n):
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise DomainError(f"relation is not antisymmetric at ({i},{j})")
                if self.leq[i][j]:
                    for k in range(n):
                        if self.leq[j][k] and not self.leq[i][k]:
                            raise DomainError(f"relation is not transitive at ({i},{j},{k})")

    def le(self, i: int, j: int) -> bool:
        n = len(self.elements)
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
            raise IndexError(f"no pair ({i},{j}) among {n} elements")
        return self.leq[i][j]

    def __len__(self) -> int:
        return len(self.elements)


def chain_poset(n: int) -> FinPoset:
    """The linear order 0 < 1 < ... < n."""
    _check_int("chain_poset", "the size", n)
    return FinPoset(tuple(range(n + 1)), [[i <= j for j in range(n + 1)] for i in range(n + 1)])


def least_element(p: FinPoset) -> int | None:
    for i in range(len(p)):
        if all(p.le(i, j) for j in range(len(p))):
            return i
    return None


def nerve(p: FinPoset, horizon: int) -> FinSimplicialSet:
    """Level m holds the weak chains a_0 <= ... <= a_m as tuples of element
    indices, in lexicographic index order."""
    _check_int("nerve", "horizon", horizon, least=0)
    levels = [[(i,) for i in range(len(p))]]
    for _ in range(horizon):
        levels.append([c + (j,) for c in levels[-1] for j in range(len(p)) if p.le(c[-1], j)])
    return _vertex_tuple_set(horizon, levels)


def _levelwise_set(u: FinSimplicialSet, v: FinSimplicialSet, cells, index) -> FinSimplicialSet:
    """The set on the levels cells(u's cells, v's cells) whose structure
    map (m, i) is index(u's map, v's map, u's count, v's count), the cell
    counts taken at the level the map lands in; u and v share a horizon."""
    if u.horizon != v.horizon:
        raise ShapeError(f"horizons differ: {u.horizon} vs {v.horizon}")
    h = u.horizon
    faces, degens = _families(
        h,
        lambda m, i: index(u.face_map(m, i), v.face_map(m, i), u.cell_count(m - 1), v.cell_count(m - 1)),
        lambda m, i: index(u.degen_map(m, i), v.degen_map(m, i), u.cell_count(m + 1), v.cell_count(m + 1)),
    )
    return FinSimplicialSet(h, [cells(u.cells[m], v.cells[m]) for m in range(h + 1)], faces, degens)


def product(u: FinSimplicialSet, v: FinSimplicialSet) -> FinSimplicialSet:
    """Levelwise cartesian product with componentwise structure maps;
    pairs are ordered first-factor-major."""
    pairs = lambda us, vs: [(a, b) for a in us for b in vs]
    return _levelwise_set(u, v, pairs, lambda s, t, _, width: [a * width + b for a in s for b in t])


def coproduct(u: FinSimplicialSet, v: FinSimplicialSet) -> FinSimplicialSet:
    """Levelwise disjoint union: all cells of the first summand, then all
    cells of the second."""
    tagged = lambda us, vs: [(0, a) for a in us] + [(1, b) for b in vs]
    return _levelwise_set(u, v, tagged, lambda s, t, offset, _: list(s) + [b + offset for b in t])


class SimplicialModule(_Value):
    """Levelwise finitely generated free modules with face and degeneracy
    matrices, trusted up to the horizon.  Construction checks shapes only;
    check_simplicial_identities reports relation violations, so deliberately
    broken modules can be built and examined.

    The constructor takes and checks every family at once.  A module from
    _module builds each level's family on its first read through face or
    degen, checks it as the constructor would and keeps it: until every
    family is built, _faces and _degens are lists holding None at the levels
    not built yet, and _pending holds the builders.  Equality builds every
    family first, and afterwards both are tuples, as the constructor stores
    them."""

    _fields = ("ring", "ranks", "_faces", "_degens")
    __slots__ = _fields + ("_pending",)

    def __init__(self, ring: RingTag, ranks, faces, degens):
        self._store(ring, ranks)
        stored = []
        kinds = _structure_maps(self.horizon, dict(faces or {}), dict(degens or {}))
        for kind, given, levels, step in kinds:
            families = []
            for m in levels:
                fams = given.pop(m, None)
                if fams is None:
                    raise ValueError(f"{kind} maps missing at level {m}")
                families.append(self._checked(kind, m, step, fams))
            if given:
                outside = f"{levels.start}..{levels.stop - 1}"
                raise ValueError(f"{kind} maps given outside levels {outside}: {sorted(given)}")
            stored.append(tuple(families))
        self._faces, self._degens = stored

    def _store(self, ring: RingTag, ranks) -> None:
        """The checked ranks, with no family built and none pending."""
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("ranks must cover level 0")
        if not all(map(_is_natural, ranks)):
            raise ValueError("ranks must be nonnegative integers")
        self.ring = ring
        self.ranks = ranks
        self._faces = [None] * (len(ranks) - 1)
        self._degens = [None] * (len(ranks) - 1)
        self._pending = None

    def _checked(self, kind: str, m: int, step: int, fams) -> tuple:
        """fams as the family of kind at level m, which lands in level
        m + step, once its length, rings and shapes are checked."""
        fams = tuple(fams)
        if len(fams) != m + 1:
            raise ValueError(f"level {m} needs {m + 1} {kind} maps, got {len(fams)}")
        rows, cols = self.ranks[m + step], self.ranks[m]
        for i, mat in enumerate(fams):
            _check_matrix(mat, self.ring, rows, cols, kind, f"({m},{i})", "module")
        return fams

    def _built(self, which: int, m: int) -> tuple:
        """The level-m family of the pending faces (which 0) or
        degeneracies (which 1), built and checked."""
        kind, at, _, step = _structure_maps(self.horizon, *self._pending)[which]
        return self._checked(kind, m, step, [at(m, i) for i in range(m + 1)])

    def _force(self) -> SimplicialModule:
        """self, with every family built."""
        if self._pending is not None:
            for m in range(self.horizon):
                self.face(m + 1, 0)
                self.degen(m, 0)
            self._faces, self._degens = tuple(self._faces), tuple(self._degens)
            self._pending = None
        return self

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            self._force()
            other._force()
        return super().__eq__(other)

    @property
    def horizon(self) -> int:
        return len(self.ranks) - 1

    def rank(self, m: int) -> int:
        if not (type(m) is int and 0 <= m <= self.horizon):
            raise IndexError(f"no level {m} at horizon {self.horizon}")
        return self.ranks[m]

    def face(self, m: int, i: int) -> Matrix:
        if not (type(m) is type(i) is int and 0 < m <= self.horizon and 0 <= i <= m):
            raise IndexError(f"no face ({m},{i}) at horizon {self.horizon}")
        fams = self._faces[m - 1]
        if fams is None:
            fams = self._faces[m - 1] = self._built(0, m)
        return fams[i]

    def degen(self, m: int, i: int) -> Matrix:
        if not (type(m) is type(i) is int and 0 <= i <= m < self.horizon):
            raise IndexError(f"no degeneracy ({m},{i}) at horizon {self.horizon}")
        fams = self._degens[m]
        if fams is None:
            fams = self._degens[m] = self._built(1, m)
        return fams[i]

    def __repr__(self) -> str:
        return f"SimplicialModule({self.ring}, ranks={self.ranks})"


@dataclass(frozen=True)
class IdentityReport:
    """Violated simplicial relations as (kind, level, i, j) tuples."""

    violations: tuple[tuple[str, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_simplicial_identities(m: SimplicialModule) -> IdentityReport:
    violations = tuple(
        _identity_violations(
            m.horizon,
            m.rank,
            m.face,
            m.degen,
            lambda a, b: a @ b,
            lambda n: identity(m.ring, n),
        )
    )
    return IdentityReport(violations)


class SimplicialMap(_Value):
    """A levelwise map of simplicial modules over one ring and horizon,
    commuting with every face and degeneracy."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: SimplicialModule, target: SimplicialModule, components):
        if source.ring != target.ring:
            raise RingError(f"source over {source.ring}, target over {target.ring}")
        if source.horizon != target.horizon:
            raise ShapeError(f"horizons differ: {source.horizon} vs {target.horizon}")
        self.source = source
        self.target = target
        comps = tuple(components)
        if len(comps) != source.horizon + 1:
            raise ValueError(f"expected {source.horizon + 1} components")
        for m, c in enumerate(comps):
            _check_matrix(c, source.ring, target.rank(m), source.rank(m), "component", m, "map")
        self.components = comps
        h = source.horizon
        commuting = _structure_maps(h, (target.face, source.face), (target.degen, source.degen))
        for kind, (target_at, source_at), levels, step in commuting:
            for m in levels:
                for i in range(m + 1):
                    if target_at(m, i) @ comps[m] != comps[m + step] @ source_at(m, i):
                        raise NotSimplicial(f"component does not commute with {kind} ({m},{i})")

    def component(self, m: int) -> Matrix:
        if not (type(m) is int and 0 <= m <= self.source.horizon):
            raise IndexError(f"no level {m} at horizon {self.source.horizon}")
        return self.components[m]


def identity_simplicial_map(m: SimplicialModule) -> SimplicialMap:
    return SimplicialMap(m, m, [identity(m.ring, m.rank(i)) for i in range(m.horizon + 1)])


def compose_simplicial(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    if f.target != g.source:
        raise ShapeError("maps do not compose: middle modules differ")
    return SimplicialMap(
        f.source,
        g.target,
        [g.component(m) @ f.component(m) for m in range(f.source.horizon + 1)],
    )


def _module(ring: RingTag, ranks: tuple[int, ...], face_at, degen_at) -> SimplicialModule:
    """The simplicial module with these ranks whose structure matrices are
    face_at(m, i) and degen_at(m, i), each level's family built on its
    first read.  The only lazy constructor: the builders that call it make
    matrices of the stated shapes, and each is still checked when built."""
    m = SimplicialModule.__new__(SimplicialModule)
    m._store(ring, ranks)
    m._pending = (face_at, degen_at)
    return m


def _index_matrix(ring: RingTag, rows: int, index_map: tuple[int, ...]) -> Matrix:
    """The 0/1 matrix whose column c is the basis vector at index_map[c]."""
    return identity(ring, rows).col_select(index_map)


def free_module(u: FinSimplicialSet, ring: RingTag) -> SimplicialModule:
    """Levelwise free module on the cells, with the 0/1 matrices of the
    face and degeneracy index maps."""
    ranks = tuple(u.cell_count(m) for m in range(u.horizon + 1))
    return _module(
        ring,
        ranks,
        lambda m, i: _index_matrix(ring, ranks[m - 1], u.face_map(m, i)),
        lambda m, i: _index_matrix(ring, ranks[m + 1], u.degen_map(m, i)),
    )


def dk_blocks(n: int) -> list[deltacat.MonotoneMap]:
    """The canonical block list at level n: surjections out of [n], target
    size ascending, value sequences descending within each target size."""
    _check_int("dk_blocks", "the level", n)
    return list(map(deltacat._surjection, deltacat._surjections_onto(n, (True,) * (n + 1))))


@cache
def _dk_rule(g: tuple[int, ...], eta: tuple[int, ...]):
    """The Dold-Kan block map that eta: [m] -> [n] induces on the block of
    g: [n] ->> [k], from their values: (g o eta, 0), the identity of X_k,
    when the image of g o eta is [0..k]; (g o eta, (-1)^k), that sign times
    the degree-k differential, when it is [0..k-1]; None (zero) otherwise.
    An image [0..t] makes g o eta its own epi part, so nothing is factored."""
    values = tuple(g[v] for v in eta)
    k, t = g[-1], values[-1]
    if len(set(values)) != t + 1 or t < k - 1:
        return None
    return values, 0 if t == k else -1 if k % 2 else 1


def _dk_blocks(x: ConnComplex) -> dict:
    """The block maps of _dk_rule on the complex x, keyed by (k, sign) as
    the rule gives them: the identity of X_k for sign 0 and k <= x.top, and
    (-1)^k times the degree-k differential for 1 <= k <= x.top.  Built once
    per call of dk or shuffle_product; Matrix is immutable, so the blocks
    are shared by every structure map."""
    blocks = {(k, 0): identity(x.ring, x.ranks[k]) for k in range(x.top + 1)}
    for k in range(1, x.top + 1):
        blocks[k, -1 if k % 2 else 1] = -x.diff(k) if k % 2 else x.diff(k)
    return blocks


def _live(x: ConnComplex) -> tuple[bool, ...]:
    """The nonzero pattern of the ranks of x, which keys the Δ tables."""
    return tuple(map(bool, x.ranks))


def _dk_layout(x: ConnComplex, n: int) -> dict:
    """The level-n layout of the Dold-Kan module of x: {values of f: rank
    X_k} over the surjections f: [n] ->> [k] with X_k nonzero, in the
    canonical order; the values of a surjection onto [k] end in k."""
    return {f: x.ranks[f[-1]] for f in deltacat._surjections_onto(n, _live(x))}


def dk_transition(x: ConnComplex, eta: deltacat.MonotoneMap) -> Matrix:
    """The structure matrix of eta: [m] -> [n] on the sums over surjections
    onto [k] with X_k nonzero.  Column block g: [n] ->> [k] contributes to the
    row block holding the epi part of g o eta: the identity when the mono
    part is the identity, the degree-k differential times (-1)^k when the
    mono part omits exactly the top element k, zero otherwise."""
    layouts = {n: _dk_layout(x, n) for n in (eta.source_top, eta.target_top)}
    return _dk_transition(x, _dk_blocks(x), layouts, eta)


def _dk_transition(x: ConnComplex, blocks: dict, layouts, eta: deltacat.MonotoneMap) -> Matrix:
    """dk_transition(x, eta) from the blocks _dk_blocks(x) and the level
    layouts, layouts[n] = _dk_layout(x, n), that one dk call shares."""
    rows, cols = layouts[eta.source_top], layouts[eta.target_top]
    placed = {}
    for g in cols:
        rule = _dk_rule(g, eta.values)
        # a dead row is a zero-height block
        if rule is not None and rule[0] in rows:
            placed[rule[0], g] = blocks[g[-1], rule[1]]
    return _keyed_block_matrix(x.ring, rows, cols, placed)


def dk(x: ConnComplex, horizon: int) -> SimplicialModule:
    """The simplicial module with level n the sum of X_k over surjections
    [n] ->> [k], built to the requested horizon; each level's faces and
    degeneracies are built on their first read."""
    _check_int("dk", "horizon", horizon, least=0)
    blocks = _dk_blocks(x)
    layouts = [_dk_layout(x, n) for n in range(horizon + 1)]
    return _module(
        x.ring,
        tuple(sum(sizes.values()) for sizes in layouts),
        lambda n, i: _dk_transition(x, blocks, layouts, deltacat.face(n, i)),
        lambda n, i: _dk_transition(x, blocks, layouts, deltacat.degeneracy(n, i)),
    )


def dk_map(g: ChainMap, horizon: int) -> SimplicialMap:
    """Blockwise action on the degreewise sums: the block at surjection f
    with target [k] is the degree-k component."""
    source, target = dk(g.source, horizon), dk(g.target, horizon)
    comps = [
        _blockwise(g.ring, _dk_layout(g.target, n), _dk_layout(g.source, n), lambda f: g.component(f[-1]))
        for n in range(horizon + 1)
    ]
    return SimplicialMap(source, target, comps)


@dataclass(frozen=True)
class EmbeddedComplex:
    """A connective complex together with levelwise embeddings of its
    degrees into the levels of the simplicial module it came from."""

    complex: ConnComplex
    embeddings: tuple[Matrix, ...]


def _restriction(embs: list[Matrix], level_map, message: str) -> EmbeddedComplex:
    """The complex on the columns of the embeddings embs whose differential
    at n restricts level_map(n): M_n -> M_{n-1} to them;
    NotSimplicial(message) when level_map(n) sends the columns of embs[n]
    outside the span of embs[n - 1]."""
    diffs = {}
    for n in range(1, len(embs)):
        d = solve(embs[n - 1], level_map(n) @ embs[n])
        if d is None:
            raise NotSimplicial(message)
        diffs[n] = d
    ranks = tuple(e.cols for e in embs)
    return EmbeddedComplex(ConnComplex(embs[0].ring, ranks, diffs), tuple(embs))


def nor(m: SimplicialModule) -> EmbeddedComplex:
    """The normalized complex: degree n is the intersection of the kernels
    of the first n faces, with differential (-1)^n times the last face."""
    ring = m.ring
    embs = [identity(ring, m.rank(0))]
    for n in range(1, m.horizon + 1):
        stacked = vcat(ring, m.rank(n), [m.face(n, i) for i in range(n)])
        embs.append(kernel_basis(stacked))
    signed_last_face = lambda n: -m.face(n, n) if n % 2 else m.face(n, n)
    return _restriction(embs, signed_last_face, "last face does not preserve the normalized part")


def moore(m: SimplicialModule) -> ConnComplex:
    """All of M_n with the alternating sum of the faces as differential."""
    diffs = {}
    for n in range(1, m.horizon + 1):
        total = m.face(n, 0)
        for i in range(1, n + 1):
            total = total - m.face(n, i) if i % 2 else total + m.face(n, i)
        diffs[n] = total
    return ConnComplex(m.ring, m.ranks, diffs)


def degenerate_part(m: SimplicialModule) -> EmbeddedComplex:
    """The subcomplex spanned by the images of all degeneracies, under the
    alternating-sum differential; level 0 is zero."""
    ring = m.ring
    embs = [zeros(ring, m.rank(0), 0)]
    for n in range(1, m.horizon + 1):
        spans = hcat(ring, m.rank(n), [m.degen(n - 1, i) for i in range(n)])
        embs.append(image_basis(spans))
    return _restriction(embs, moore(m).diff, "differential does not preserve the degenerate part")


def nor_map(f: SimplicialMap) -> ChainMap:
    """The restriction of a simplicial map to normalized parts."""
    src = nor(f.source)
    tgt = nor(f.target)
    comps = {}
    for n in range(f.source.horizon + 1):
        c = solve(tgt.embeddings[n], f.component(n) @ src.embeddings[n])
        if c is None:
            raise NotSimplicial("map does not preserve the normalized part")
        comps[n] = c
    return ChainMap(src.complex, tgt.complex, comps)


def _levelwise_module(a: SimplicialModule, b: SimplicialModule, ranks, combine) -> SimplicialModule:
    """The module with these ranks whose face and degeneracy (m, i) are
    combine(that map of a, that map of b), each built on its first read."""
    return _module(
        a.ring,
        ranks,
        lambda m, i: combine(a.face(m, i), b.face(m, i)),
        lambda m, i: combine(a.degen(m, i), b.degen(m, i)),
    )


def tensor_sm(m: SimplicialModule, n: SimplicialModule) -> SimplicialModule:
    """Levelwise Kronecker product, truncated to the smaller horizon."""
    if m.ring != n.ring:
        raise RingError(f"factors over {m.ring} and {n.ring}")
    h = min(m.horizon, n.horizon)
    return _levelwise_module(m, n, tuple(m.rank(i) * n.rank(i) for i in range(h + 1)), kron)


def copower(m: SimplicialModule, u: FinSimplicialSet) -> SimplicialModule:
    """One copy of M per cell of U, levelwise: the tensor with the free
    module on U.  Cell-major block order."""
    if u.horizon < m.horizon:
        raise ShapeError(f"copower shape must reach the module horizon {m.horizon}")
    return tensor_sm(free_module(u, m.ring), m)


def direct_sum_sm(a: SimplicialModule, b: SimplicialModule) -> SimplicialModule:
    if a.ring != b.ring:
        raise RingError(f"summands over {a.ring} and {b.ring}")
    if a.horizon != b.horizon:
        raise ShapeError(f"horizons differ: {a.horizon} vs {b.horizon}")
    ranks = tuple(a.rank(i) + b.rank(i) for i in range(a.horizon + 1))

    def diag(x: Matrix, y: Matrix) -> Matrix:
        return block_matrix(a.ring, [x.rows, y.rows], [x.cols, y.cols], {(0, 0): x, (1, 1): y})

    return _levelwise_module(a, b, ranks, diag)


def cylinder(m: SimplicialModule) -> tuple[SimplicialMap, SimplicialMap]:
    """The copower along the 1-simplex as a cylinder: returns the end
    inclusion M + M -> M^(interval) and the collapse back onto M; the
    collapse after the inclusion is the codiagonal."""
    interval = simplex_set(1, m.horizon)
    cyl = copower(m, interval)
    both = direct_sum_sm(m, m)
    kappa_comps = []
    xi_comps = []
    for lv in range(m.horizon + 1):
        count = interval.cell_count(lv)
        r = m.rank(lv)
        row_sizes = [r] * count
        kappa_comps.append(
            block_matrix(
                m.ring,
                row_sizes,
                [r, r],
                {(0, 0): identity(m.ring, r), (count - 1, 1): identity(m.ring, r)},
            )
        )
        xi_comps.append(hcat(m.ring, r, [identity(m.ring, r)] * count))
    kappa = SimplicialMap(both, cyl, kappa_comps)
    xi = SimplicialMap(cyl, m, xi_comps)
    return kappa, xi


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of collapsing the free module on a nerve onto its least
    element: per-degree exactness of the homotopy identity on the quotient
    by the degenerate part, and stability of the homotopy on that part."""

    least: int | None
    identity_checks: tuple[bool, ...]
    degenerate_stability: tuple[bool, ...]

    @property
    def verified(self) -> bool:
        return (
            self.least is not None
            and all(self.identity_checks)
            and all(self.degenerate_stability)
        )


def verify_nerve_contraction(p: FinPoset, horizon: int, ring: RingTag) -> ContractionReport:
    """Check, matrix-exactly, that prefixing chains with the least element
    is a contracting homotopy: on the quotient of the levelwise module by
    its degenerate part, 1 - (collapse then include) = d h + h d in every
    degree below the horizon."""
    # the horizon before the least element, which may end the check early
    _check_int("nerve", "horizon", horizon, least=0)
    e = least_element(p)
    if e is None:
        return ContractionReport(None, (), ())
    u = nerve(p, horizon)
    m = free_module(u, ring)
    index = [{c: i for i, c in enumerate(level)} for level in u.cells]

    def prefix_matrix(lv: int) -> Matrix:
        return _index_matrix(ring, m.rank(lv + 1), [index[lv + 1][(e,) + c] for c in u.cells[lv]])

    def collapse_matrix(lv: int) -> Matrix:
        return _index_matrix(ring, m.rank(lv), [index[lv][(e,) * (lv + 1)]] * m.rank(lv))

    nor_part = nor(m)
    deg_part = degenerate_part(m)
    full = moore(m)
    identity_checks = []
    stability = []
    homotopy = [prefix_matrix(lv) for lv in range(horizon)]
    for lv in range(horizon):
        lhs = identity(ring, m.rank(lv)) - collapse_matrix(lv)
        rhs = full.diff(lv + 1) @ homotopy[lv]
        if lv >= 1:
            rhs = rhs + homotopy[lv - 1] @ full.diff(lv)
        identity_checks.append(
            solve(deg_part.embeddings[lv], (lhs - rhs) @ nor_part.embeddings[lv]) is not None
        )
        stability.append(
            solve(deg_part.embeddings[lv + 1], homotopy[lv] @ deg_part.embeddings[lv]) is not None
        )
    return ContractionReport(e, tuple(identity_checks), tuple(stability))


def module_to_json(m: SimplicialModule) -> dict:
    m._force()
    return {
        "ring": str(m.ring),
        "horizon": m.horizon,
        "ranks": list(m.ranks),
        "faces": {str(lv): list(map(mat_to_json, fams)) for lv, fams in enumerate(m._faces, 1)},
        "degens": {str(lv): list(map(mat_to_json, fams)) for lv, fams in enumerate(m._degens)},
    }


def module_from_json(obj, path: str = "module") -> SimplicialModule:
    ring, ranks = _json_header(obj, path, ("ring", "horizon", "ranks", "faces", "degens"), "horizon")

    def family(raw, path: str) -> list[Matrix]:
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a list of matrices")
        return [mat_from_json(mat, ring, path=f"{path}[{i}]") for i, mat in enumerate(raw)]

    faces = _by_degree(obj["faces"], f"{path}.faces", family)
    degens = _by_degree(obj["degens"], f"{path}.degens", family)
    return _build(path, SimplicialModule, ring, ranks, faces, degens)


def poset_to_json(p: FinPoset) -> dict:
    return {"elements": list(p.elements), "leq": [list(row) for row in p.leq]}


def poset_from_json(obj, path: str = "poset") -> FinPoset:
    _json_object(obj, path, ("elements", "leq"))
    elements = obj["elements"]
    leq = obj["leq"]
    if not isinstance(elements, list):
        raise ValueError(f"{path}.elements: expected a list")
    if not isinstance(leq, list) or not all(
        isinstance(row, list) and all(isinstance(v, bool) for v in row) for row in leq
    ):
        raise ValueError(f"{path}.leq: expected a table of booleans")
    return _build(path, FinPoset, tuple(elements), leq)
