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

from . import deltacat
from .chains import ChainMap, ConnComplex
from .errors import DomainError, NotSimplicial, RingError, ShapeError
from .linalg import (
    Matrix,
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
from .rings import RingTag, parse_ring, ring_ops


class FinSimplicialSet:
    """Levelwise finite simplicial set, trusted up to its horizon.  Cells
    are ordered lists of opaque labels; faces and degeneracies are stored
    as index maps between adjacent levels."""

    __slots__ = ("horizon", "cells", "_faces", "_degens")

    def __init__(self, horizon: int, cells, faces, degens):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        cells = tuple(tuple(level) for level in cells)
        if len(cells) != horizon + 1:
            raise ValueError(f"expected {horizon + 1} cell levels")
        self.horizon = horizon
        self.cells = cells
        self._faces = tuple(tuple(tuple(fam) for fam in faces[m - 1]) for m in range(1, horizon + 1))
        self._degens = tuple(tuple(tuple(fam) for fam in degens[m]) for m in range(horizon))
        self._validate()

    def cell_count(self, m: int) -> int:
        return len(self.cells[m])

    def face_map(self, m: int, i: int) -> tuple[int, ...]:
        """Index map of d_{m,i}: level m -> level m-1."""
        return self._faces[m - 1][i]

    def degen_map(self, m: int, i: int) -> tuple[int, ...]:
        """Index map of s_{m,i}: level m -> level m+1."""
        return self._degens[m][i]

    def _validate(self) -> None:
        h = self.horizon
        for m in range(1, h + 1):
            fams = self._faces[m - 1]
            if len(fams) != m + 1:
                raise ValueError(f"level {m} needs {m + 1} face maps")
            for i, fam in enumerate(fams):
                if len(fam) != self.cell_count(m):
                    raise ValueError(f"face ({m},{i}) must be defined on every cell")
                if any(not 0 <= t < self.cell_count(m - 1) for t in fam):
                    raise ValueError(f"face ({m},{i}) hits an out-of-range cell")
        for m in range(h):
            fams = self._degens[m]
            if len(fams) != m + 1:
                raise ValueError(f"level {m} needs {m + 1} degeneracy maps")
            for i, fam in enumerate(fams):
                if len(fam) != self.cell_count(m):
                    raise ValueError(f"degeneracy ({m},{i}) must be defined on every cell")
                if any(not 0 <= t < self.cell_count(m + 1) for t in fam):
                    raise ValueError(f"degeneracy ({m},{i}) hits an out-of-range cell")
        for kind, m, i, j in _identity_violations(
            h,
            self.cell_count,
            lambda m, i: self.face_map(m, i),
            lambda m, i: self.degen_map(m, i),
            compose_index,
            index_identity,
        ):
            raise NotSimplicial(f"{kind} identity fails at level {m} for (i,j)=({i},{j})")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinSimplicialSet)
            and self.horizon == other.horizon
            and self.cells == other.cells
            and self._faces == other._faces
            and self._degens == other._degens
        )

    def __repr__(self) -> str:
        counts = tuple(len(level) for level in self.cells)
        return f"FinSimplicialSet(horizon={self.horizon}, cells={counts})"


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


def _from_label_maps(horizon, cells, face_label, degen_label) -> FinSimplicialSet:
    """Build index maps from label-level face/degeneracy functions."""
    cells = tuple(tuple(level) for level in cells)
    index = [{c: i for i, c in enumerate(level)} for level in cells]
    faces = [
        [
            [index[m - 1][face_label(m, i, c)] for c in cells[m]]
            for i in range(m + 1)
        ]
        for m in range(1, horizon + 1)
    ]
    degens = [
        [
            [index[m + 1][degen_label(m, i, c)] for c in cells[m]]
            for i in range(m + 1)
        ]
        for m in range(horizon)
    ]
    return FinSimplicialSet(horizon, cells, faces, degens)


def _drop(c: tuple, i: int) -> tuple:
    return c[:i] + c[i + 1 :]


def _dup(c: tuple, i: int) -> tuple:
    return c[: i + 1] + c[i:]


def simplex_set(n: int, horizon: int) -> FinSimplicialSet:
    """The combinatorial n-simplex: level m holds the weakly increasing
    (m+1)-tuples over {0..n} in lexicographic order."""
    if n < 0:
        raise DomainError("simplex dimension must be nonnegative")
    cells = [
        list(itertools.combinations_with_replacement(range(n + 1), m + 1))
        for m in range(horizon + 1)
    ]
    return _from_label_maps(horizon, cells, lambda m, i, c: _drop(c, i), lambda m, i, c: _dup(c, i))


def boundary_simplex_set(n: int, horizon: int) -> FinSimplicialSet:
    """The boundary of the n-simplex: the non-surjective tuples."""
    if n < 1:
        raise DomainError("boundary needs n >= 1")
    full = set(range(n + 1))
    cells = [
        [c for c in itertools.combinations_with_replacement(range(n + 1), m + 1) if set(c) != full]
        for m in range(horizon + 1)
    ]
    return _from_label_maps(horizon, cells, lambda m, i, c: _drop(c, i), lambda m, i, c: _dup(c, i))


class FinPoset:
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
        return self.leq[i][j]

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinPoset)
            and self.elements == other.elements
            and self.leq == other.leq
        )


def chain_poset(n: int) -> FinPoset:
    """The linear order 0 < 1 < ... < n."""
    return FinPoset(tuple(range(n + 1)), [[i <= j for j in range(n + 1)] for i in range(n + 1)])


def least_element(p: FinPoset) -> int | None:
    for i in range(len(p)):
        if all(p.le(i, j) for j in range(len(p))):
            return i
    return None


def nerve(p: FinPoset, horizon: int) -> FinSimplicialSet:
    """Level m holds the weak chains a_0 <= ... <= a_m as tuples of element
    indices, in lexicographic index order."""
    levels = [[(i,) for i in range(len(p))]]
    for _ in range(horizon):
        levels.append([c + (j,) for c in levels[-1] for j in range(len(p)) if p.le(c[-1], j)])
    return _from_label_maps(horizon, levels, lambda m, i, c: _drop(c, i), lambda m, i, c: _dup(c, i))


def product(u: FinSimplicialSet, v: FinSimplicialSet) -> FinSimplicialSet:
    """Levelwise cartesian product with componentwise structure maps;
    pairs are ordered first-factor-major."""
    if u.horizon != v.horizon:
        raise ShapeError(f"horizons differ: {u.horizon} vs {v.horizon}")
    h = u.horizon
    cells = [
        [(a, b) for a in u.cells[m] for b in v.cells[m]]
        for m in range(h + 1)
    ]

    def pair_map(u_map, v_map, width):
        return [s * width + t for s in u_map for t in v_map]

    faces = [
        [
            pair_map(u.face_map(m, i), v.face_map(m, i), v.cell_count(m - 1))
            for i in range(m + 1)
        ]
        for m in range(1, h + 1)
    ]
    degens = [
        [
            pair_map(u.degen_map(m, i), v.degen_map(m, i), v.cell_count(m + 1))
            for i in range(m + 1)
        ]
        for m in range(h)
    ]
    return FinSimplicialSet(h, cells, faces, degens)


def coproduct(u: FinSimplicialSet, v: FinSimplicialSet) -> FinSimplicialSet:
    """Levelwise disjoint union: all cells of the first summand, then all
    cells of the second."""
    if u.horizon != v.horizon:
        raise ShapeError(f"horizons differ: {u.horizon} vs {v.horizon}")
    h = u.horizon
    cells = [
        [(0, a) for a in u.cells[m]] + [(1, b) for b in v.cells[m]]
        for m in range(h + 1)
    ]
    faces = [
        [
            list(u.face_map(m, i)) + [t + u.cell_count(m - 1) for t in v.face_map(m, i)]
            for i in range(m + 1)
        ]
        for m in range(1, h + 1)
    ]
    degens = [
        [
            list(u.degen_map(m, i)) + [t + u.cell_count(m + 1) for t in v.degen_map(m, i)]
            for i in range(m + 1)
        ]
        for m in range(h)
    ]
    return FinSimplicialSet(h, cells, faces, degens)


class SimplicialModule:
    """Levelwise finitely generated free modules with face and degeneracy
    matrices, trusted up to the horizon.  Construction checks shapes only;
    check_simplicial_identities reports relation violations, so deliberately
    broken modules can be built and examined."""

    __slots__ = ("ring", "ranks", "_faces", "_degens")

    def __init__(self, ring: RingTag, ranks, faces, degens):
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("ranks must cover level 0")
        if any(not isinstance(r, int) or r < 0 for r in ranks):
            raise ValueError("ranks must be nonnegative integers")
        self.ring = ring
        self.ranks = ranks
        h = self.horizon
        faces = dict(faces) if faces else {}
        degens = dict(degens) if degens else {}
        face_store = []
        for m in range(1, h + 1):
            fams = faces.pop(m, None)
            if fams is None:
                raise ValueError(f"face maps missing at level {m}")
            fams = tuple(fams)
            if len(fams) != m + 1:
                raise ValueError(f"level {m} needs {m + 1} face maps, got {len(fams)}")
            for i, mat in enumerate(fams):
                self._check(mat, ranks[m - 1], ranks[m], f"face ({m},{i})")
            face_store.append(fams)
        degen_store = []
        for m in range(h):
            fams = degens.pop(m, None)
            if fams is None:
                raise ValueError(f"degeneracy maps missing at level {m}")
            fams = tuple(fams)
            if len(fams) != m + 1:
                raise ValueError(f"level {m} needs {m + 1} degeneracy maps, got {len(fams)}")
            for i, mat in enumerate(fams):
                self._check(mat, ranks[m + 1], ranks[m], f"degeneracy ({m},{i})")
            degen_store.append(fams)
        if faces:
            raise ValueError(f"face maps given outside levels 1..{h}: {sorted(faces)}")
        if degens:
            raise ValueError(f"degeneracy maps given outside levels 0..{h - 1}: {sorted(degens)}")
        self._faces = tuple(face_store)
        self._degens = tuple(degen_store)

    def _check(self, mat: Matrix, rows: int, cols: int, label: str) -> None:
        if mat.ring != self.ring:
            raise RingError(f"{label} is over {mat.ring}, module over {self.ring}")
        if mat.rows != rows or mat.cols != cols:
            raise ShapeError(f"{label} must be {rows}x{cols}, got {mat.rows}x{mat.cols}")

    @property
    def horizon(self) -> int:
        return len(self.ranks) - 1

    def rank(self, m: int) -> int:
        return self.ranks[m]

    def face(self, m: int, i: int) -> Matrix:
        return self._faces[m - 1][i]

    def degen(self, m: int, i: int) -> Matrix:
        return self._degens[m][i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialModule)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self._faces == other._faces
            and self._degens == other._degens
        )

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


class SimplicialMap:
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
            if c.ring != source.ring:
                raise RingError(f"component {m} is over {c.ring}")
            if c.rows != target.rank(m) or c.cols != source.rank(m):
                raise ShapeError(
                    f"component {m} must be {target.rank(m)}x{source.rank(m)}, "
                    f"got {c.rows}x{c.cols}"
                )
        self.components = comps
        h = source.horizon
        for m in range(1, h + 1):
            for i in range(m + 1):
                if target.face(m, i) @ comps[m] != comps[m - 1] @ source.face(m, i):
                    raise NotSimplicial(f"component does not commute with face ({m},{i})")
        for m in range(h):
            for i in range(m + 1):
                if target.degen(m, i) @ comps[m] != comps[m + 1] @ source.degen(m, i):
                    raise NotSimplicial(f"component does not commute with degeneracy ({m},{i})")

    def component(self, m: int) -> Matrix:
        return self.components[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )


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


def _index_matrix(ring: RingTag, rows: int, index_map: tuple[int, ...]) -> Matrix:
    ops = ring_ops(ring)
    grid = [[ops.zero] * len(index_map) for _ in range(rows)]
    for col, row in enumerate(index_map):
        grid[row][col] = ops.one
    return Matrix(ring, rows, len(index_map), tuple(tuple(r) for r in grid))


def free_module(u: FinSimplicialSet, ring: RingTag) -> SimplicialModule:
    """Levelwise free module on the cells, with the 0/1 matrices of the
    face and degeneracy index maps."""
    h = u.horizon
    ranks = tuple(u.cell_count(m) for m in range(h + 1))
    faces = {
        m: [_index_matrix(ring, ranks[m - 1], u.face_map(m, i)) for i in range(m + 1)]
        for m in range(1, h + 1)
    }
    degens = {
        m: [_index_matrix(ring, ranks[m + 1], u.degen_map(m, i)) for i in range(m + 1)]
        for m in range(h)
    }
    return SimplicialModule(ring, ranks, faces, degens)


def dk_blocks(n: int) -> list[deltacat.MonotoneMap]:
    """The canonical block list at level n: surjections out of [n], target
    size ascending, value sequences descending within each target size."""
    blocks = []
    for k in range(n + 1):
        blocks.extend(deltacat.enumerate_surjections(n, k))
    return blocks


def dk_transition(x: ConnComplex, eta: deltacat.MonotoneMap) -> Matrix:
    """The structure matrix of eta: [m] -> [n] on the degreewise sum
    indexed by surjections.  Column block g: [n] ->> [k] contributes to the
    row block holding the epi part of g o eta: the identity when the mono
    part is the identity, the degree-k differential times (-1)^k when the
    mono part omits exactly the top element k, zero otherwise."""
    m, n = eta.source_top, eta.target_top
    row_blocks = dk_blocks(m)
    col_blocks = dk_blocks(n)
    row_at = {f.values: idx for idx, f in enumerate(row_blocks)}
    row_sizes = [x.rank(f.target_top) for f in row_blocks]
    col_sizes = [x.rank(g.target_top) for g in col_blocks]
    ops = ring_ops(x.ring)
    blocks = {}
    for ci, g in enumerate(col_blocks):
        k = g.target_top
        mono, epi = deltacat.epi_mono_factorize(deltacat.compose(g, eta))
        ri = row_at[epi.values]
        if mono.target_top == mono.source_top:
            if x.rank(k):
                blocks[(ri, ci)] = identity(x.ring, x.rank(k))
        elif mono.source_top == k - 1 and mono.values == tuple(range(k)):
            d = x.diff(k)
            blocks[(ri, ci)] = d.scale(ops.neg(ops.one)) if k % 2 else d
    return block_matrix(x.ring, row_sizes, col_sizes, blocks)


def dk(x: ConnComplex, horizon: int) -> SimplicialModule:
    """The simplicial module with level n the sum of X_k over surjections
    [n] ->> [k], built to the requested horizon."""
    ranks = tuple(sum(x.rank(f.target_top) for f in dk_blocks(n)) for n in range(horizon + 1))
    faces = {
        n: [dk_transition(x, deltacat.face(n, i)) for i in range(n + 1)]
        for n in range(1, horizon + 1)
    }
    degens = {
        n: [dk_transition(x, deltacat.degeneracy(n, i)) for i in range(n + 1)]
        for n in range(horizon)
    }
    return SimplicialModule(x.ring, ranks, faces, degens)


def dk_map(g: ChainMap, horizon: int) -> SimplicialMap:
    """Blockwise action on the degreewise sums: the block at surjection f
    with target [k] is the degree-k component."""
    comps = []
    for n in range(horizon + 1):
        blocks = dk_blocks(n)
        row_sizes = [g.target.rank(f.target_top) for f in blocks]
        col_sizes = [g.source.rank(f.target_top) for f in blocks]
        diag = {
            (s, s): g.component(f.target_top)
            for s, f in enumerate(blocks)
            if row_sizes[s] or col_sizes[s]
        }
        comps.append(block_matrix(g.ring, row_sizes, col_sizes, diag))
    return SimplicialMap(dk(g.source, horizon), dk(g.target, horizon), comps)


@dataclass(frozen=True)
class EmbeddedComplex:
    """A connective complex together with levelwise embeddings of its
    degrees into the levels of the simplicial module it came from."""

    complex: ConnComplex
    embeddings: tuple[Matrix, ...]


def nor(m: SimplicialModule) -> EmbeddedComplex:
    """The normalized complex: degree n is the intersection of the kernels
    of the first n faces, with differential (-1)^n times the last face."""
    ring = m.ring
    embs = [identity(ring, m.rank(0))]
    for n in range(1, m.horizon + 1):
        stacked = vcat(ring, m.rank(n), [m.face(n, i) for i in range(n)])
        embs.append(kernel_basis(stacked))
    diffs = {}
    for n in range(1, m.horizon + 1):
        image = m.face(n, n) @ embs[n]
        if n % 2:
            image = -image
        d = solve(embs[n - 1], image)
        if d is None:
            raise NotSimplicial("last face does not preserve the normalized part")
        diffs[n] = d
    return EmbeddedComplex(ConnComplex(ring, tuple(e.cols for e in embs), diffs), tuple(embs))


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
    full = moore(m)
    diffs = {}
    for n in range(1, m.horizon + 1):
        d = solve(embs[n - 1], full.diff(n) @ embs[n])
        if d is None:
            raise NotSimplicial("differential does not preserve the degenerate part")
        diffs[n] = d
    return EmbeddedComplex(ConnComplex(ring, tuple(e.cols for e in embs), diffs), tuple(embs))


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


def tensor_sm(m: SimplicialModule, n: SimplicialModule) -> SimplicialModule:
    """Levelwise Kronecker product, truncated to the smaller horizon."""
    if m.ring != n.ring:
        raise RingError(f"factors over {m.ring} and {n.ring}")
    h = min(m.horizon, n.horizon)
    ranks = tuple(m.rank(i) * n.rank(i) for i in range(h + 1))
    faces = {
        lv: [kron(m.face(lv, i), n.face(lv, i)) for i in range(lv + 1)]
        for lv in range(1, h + 1)
    }
    degens = {
        lv: [kron(m.degen(lv, i), n.degen(lv, i)) for i in range(lv + 1)]
        for lv in range(h)
    }
    return SimplicialModule(m.ring, ranks, faces, degens)


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
    h = a.horizon
    ranks = tuple(a.rank(i) + b.rank(i) for i in range(h + 1))

    def diag(x: Matrix, y: Matrix) -> Matrix:
        return block_matrix(a.ring, [x.rows, y.rows], [x.cols, y.cols], {(0, 0): x, (1, 1): y})

    faces = {
        m: [diag(a.face(m, i), b.face(m, i)) for i in range(m + 1)]
        for m in range(1, h + 1)
    }
    degens = {
        m: [diag(a.degen(m, i), b.degen(m, i)) for i in range(m + 1)]
        for m in range(h)
    }
    return SimplicialModule(a.ring, ranks, faces, degens)


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
    e = least_element(p)
    if e is None:
        return ContractionReport(None, (), ())
    u = nerve(p, horizon)
    m = free_module(u, ring)
    ops = ring_ops(ring)
    index = [{c: i for i, c in enumerate(level)} for level in u.cells]

    def prefix_matrix(lv: int) -> Matrix:
        grid = [[ops.zero] * m.rank(lv) for _ in range(m.rank(lv + 1))]
        for col, c in enumerate(u.cells[lv]):
            grid[index[lv + 1][(e,) + c]][col] = ops.one
        return Matrix(ring, m.rank(lv + 1), m.rank(lv), tuple(tuple(r) for r in grid))

    def collapse_matrix(lv: int) -> Matrix:
        grid = [[ops.one] * m.rank(lv)]
        target = index[lv][(e,) * (lv + 1)]
        out = [[ops.zero] * m.rank(lv) for _ in range(m.rank(lv))]
        out[target] = grid[0]
        return Matrix(ring, m.rank(lv), m.rank(lv), tuple(tuple(r) for r in out))

    nor_part = nor(m)
    deg_part = degenerate_part(m)
    full = moore(m)
    identity_checks = []
    stability = []
    homotopy = [prefix_matrix(lv) for lv in range(horizon)]
    for lv in range(horizon):
        both = hcat(ring, m.rank(lv), [nor_part.embeddings[lv], deg_part.embeddings[lv]])
        inverse = solve(both, identity(ring, m.rank(lv)))
        if inverse is None:
            raise NotSimplicial("normalized and degenerate parts do not span")
        project = inverse.row_select(range(nor_part.complex.rank(lv)))
        lhs = identity(ring, m.rank(lv)) - collapse_matrix(lv)
        rhs = full.diff(lv + 1) @ homotopy[lv]
        if lv >= 1:
            rhs = rhs + homotopy[lv - 1] @ full.diff(lv)
        identity_checks.append(
            (project @ (lhs - rhs) @ nor_part.embeddings[lv]).is_zero
        )
        stability.append(
            solve(deg_part.embeddings[lv + 1], homotopy[lv] @ deg_part.embeddings[lv]) is not None
        )
    return ContractionReport(e, tuple(identity_checks), tuple(stability))


def module_to_json(m: SimplicialModule) -> dict:
    return {
        "ring": str(m.ring),
        "horizon": m.horizon,
        "ranks": list(m.ranks),
        "faces": {
            str(lv): [mat_to_json(m.face(lv, i)) for i in range(lv + 1)]
            for lv in range(1, m.horizon + 1)
        },
        "degens": {
            str(lv): [mat_to_json(m.degen(lv, i)) for i in range(lv + 1)]
            for lv in range(m.horizon)
        },
    }


def module_from_json(obj, path: str = "module") -> SimplicialModule:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in ("ring", "horizon", "ranks", "faces", "degens"):
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
    if not isinstance(obj["ring"], str):
        raise ValueError(f"{path}.ring: expected a string")
    ring = parse_ring(obj["ring"])
    ranks = obj["ranks"]
    if not isinstance(ranks, list) or not all(
        isinstance(r, int) and not isinstance(r, bool) and r >= 0 for r in ranks
    ):
        raise ValueError(f"{path}.ranks: expected a list of nonnegative integers")
    if obj["horizon"] != len(ranks) - 1:
        raise ValueError(f"{path}.horizon: must equal len(ranks) - 1")
    h = len(ranks) - 1

    def families(field: str, levels: range) -> dict:
        raw = obj[field]
        if not isinstance(raw, dict):
            raise ValueError(f"{path}.{field}: expected an object")
        out = {}
        for lv in levels:
            key = str(lv)
            if key not in raw:
                raise ValueError(f"{path}.{field}.{key}: missing")
            fams = raw[key]
            if not isinstance(fams, list) or len(fams) != lv + 1:
                raise ValueError(f"{path}.{field}.{key}: expected a list of {lv + 1} matrices")
            out[lv] = [
                mat_from_json(fams[i], ring, path=f"{path}.{field}.{key}[{i}]")
                for i in range(lv + 1)
            ]
        extra = set(raw) - {str(lv) for lv in levels}
        if extra:
            raise ValueError(f"{path}.{field}: unexpected levels {sorted(extra)}")
        return out

    faces = families("faces", range(1, h + 1))
    degens = families("degens", range(h))
    try:
        return SimplicialModule(ring, tuple(ranks), faces, degens)
    except (ShapeError, RingError):
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def poset_to_json(p: FinPoset) -> dict:
    return {"elements": list(p.elements), "leq": [list(row) for row in p.leq]}


def poset_from_json(obj, path: str = "poset") -> FinPoset:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in ("elements", "leq"):
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
    elements = obj["elements"]
    leq = obj["leq"]
    if not isinstance(elements, list):
        raise ValueError(f"{path}.elements: expected a list")
    if not isinstance(leq, list) or not all(
        isinstance(row, list) and all(isinstance(v, bool) for v in row) for row in leq
    ):
        raise ValueError(f"{path}.leq: expected a table of booleans")
    try:
        return FinPoset(tuple(elements), leq)
    except DomainError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
