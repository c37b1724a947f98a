"""Bounded connective chain complexes of finitely generated free modules.

Provides the complex and chain-map types, spheres and disks, homology,
tensor products, mapping cones, the projective-model-structure classifiers
(fibration / cofibration / weak equivalence), both factorization algorithms,
the lifting solver for cofibration-vs-trivial-fibration squares, and the
generating-map right-lifting-property checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassError, DomainError, NotAComplex, RingError, ShapeError, SquareError
from .linalg import (
    HomologyGroup,
    Matrix,
    block_matrix,
    hcat,
    identity,
    invariant_factors,
    is_surjective,
    kernel_basis,
    kron,
    mat_from_json,
    mat_to_json,
    solve,
    torsion,
    vcat,
    zeros,
)
from .rings import RingTag, ZZ, parse_ring


class ConnComplex:
    """A connective complex: ranks in degrees 0..top and differentials
    ∂_n: degree n -> degree n-1 for 1 <= n <= top.  Degrees outside the
    stored range are zero; rank() and diff() extend accordingly."""

    __slots__ = ("ring", "ranks", "top", "_diffs")

    def __init__(self, ring: RingTag, ranks, diffs=None):
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("ranks must cover degree 0")
        if any(not isinstance(r, int) or r < 0 for r in ranks):
            raise ValueError("ranks must be nonnegative integers")
        self.ring = ring
        self.ranks = ranks
        self.top = len(ranks) - 1
        given = dict(diffs) if diffs else {}
        stored = []
        for n in range(1, self.top + 1):
            d = given.pop(n, None)
            if d is None:
                d = zeros(ring, ranks[n - 1], ranks[n])
            if d.ring != ring:
                raise RingError(f"differential {n} is over {d.ring}, complex over {ring}")
            if d.rows != ranks[n - 1] or d.cols != ranks[n]:
                raise ShapeError(
                    f"differential {n} must be {ranks[n - 1]}x{ranks[n]}, "
                    f"got {d.rows}x{d.cols}"
                )
            stored.append(d)
        if given:
            raise ValueError(f"differentials given outside degrees 1..{self.top}: {sorted(given)}")
        self._diffs = tuple(stored)
        for n in range(2, self.top + 1):
            if not (self._diffs[n - 2] @ self._diffs[n - 1]).is_zero:
                raise NotAComplex(f"differential composite at degree {n} is nonzero")

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top else 0

    def diff(self, n: int) -> Matrix:
        if 1 <= n <= self.top:
            return self._diffs[n - 1]
        return zeros(self.ring, self.rank(n - 1), self.rank(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConnComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self._diffs == other._diffs
        )

    def __repr__(self) -> str:
        return f"ConnComplex({self.ring}, ranks={self.ranks})"


class ChainMap:
    """A degreewise map of complexes over one ring, commuting with the
    differentials; components outside 0..max(tops) are zero."""

    __slots__ = ("source", "target", "_components")

    def __init__(self, source: ConnComplex, target: ConnComplex, components=None):
        if source.ring != target.ring:
            raise RingError(f"source over {source.ring}, target over {target.ring}")
        self.source = source
        self.target = target
        span = max(source.top, target.top)
        given = dict(components) if components else {}
        stored = []
        for n in range(span + 1):
            c = given.pop(n, None)
            if c is None:
                c = zeros(source.ring, target.rank(n), source.rank(n))
            if c.ring != source.ring:
                raise RingError(f"component {n} is over {c.ring}, map over {source.ring}")
            if c.rows != target.rank(n) or c.cols != source.rank(n):
                raise ShapeError(
                    f"component {n} must be {target.rank(n)}x{source.rank(n)}, "
                    f"got {c.rows}x{c.cols}"
                )
            stored.append(c)
        if given:
            raise ValueError(f"components given outside degrees 0..{span}: {sorted(given)}")
        self._components = tuple(stored)
        for n in range(1, span + 1):
            if self._components[n - 1] @ source.diff(n) != target.diff(n) @ self._components[n]:
                raise NotAComplex(f"components do not commute with differentials at degree {n}")

    def component(self, n: int) -> Matrix:
        if 0 <= n < len(self._components):
            return self._components[n]
        return zeros(self.source.ring, self.target.rank(n), self.source.rank(n))

    @property
    def ring(self) -> RingTag:
        return self.source.ring

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self._components == other._components
        )

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_chain_map(x: ConnComplex) -> ChainMap:
    return ChainMap(x, x, {n: identity(x.ring, x.ranks[n]) for n in range(x.top + 1)})


def compose_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.target != g.source:
        raise ShapeError("maps do not compose: middle complexes differ")
    span = max(f.source.top, g.target.top)
    comps = {n: g.component(n) @ f.component(n) for n in range(span + 1)}
    return ChainMap(f.source, g.target, comps)


def sphere(n: int, ring: RingTag = ZZ) -> ConnComplex:
    """Rank one in degree n, zero elsewhere."""
    if n < 0:
        raise DomainError("sphere needs n >= 0")
    return ConnComplex(ring, (0,) * n + (1,))


def disk(n: int, ring: RingTag = ZZ) -> ConnComplex:
    """Rank one in degrees n and n-1 joined by the identity; exact."""
    if n < 1:
        raise DomainError("disk needs n >= 1")
    ranks = (0,) * (n - 1) + (1, 1)
    return ConnComplex(ring, ranks, {n: identity(ring, 1)})


def homology(x: ConnComplex) -> tuple[HomologyGroup, ...]:
    """Homology groups in degrees 0..top, read off the invariant factors of
    each differential once, as in homology_at; only ranks pass between
    degrees."""
    return _homology(x.rank, x.diff, x.top)


def _homology(rank, diff, top: int) -> tuple[HomologyGroup, ...]:
    """Homology in degrees 0..top of the complex whose degree n has rank
    rank(n) and whose differential leaving degree n is diff(n), given up to
    unimodular changes of basis, which keep its invariant factors."""
    groups = []
    rank_out = 0
    for n in range(top + 1):
        arriving = invariant_factors(diff(n + 1))
        groups.append(HomologyGroup(rank(n) - rank_out - len(arriving), torsion(arriving)))
        rank_out = len(arriving)
    return tuple(groups)


def is_exact(x: ConnComplex) -> bool:
    return all(h.is_zero for h in homology(x))


def tensor_blocks(x: ConnComplex, y: ConnComplex) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per degree n, the tensor block layout as (k, l, offset, width) with
    k + l = n, ordered by increasing k."""
    layout = []
    for n in range(x.top + y.top + 1):
        row = []
        offset = 0
        for k in range(max(0, n - y.top), min(n, x.top) + 1):
            width = x.rank(k) * y.rank(n - k)
            row.append((k, n - k, offset, width))
            offset += width
        layout.append(tuple(row))
    return tuple(layout)


def _widths(row) -> list[int]:
    return [w for (_, _, _, w) in row]


def tensor(x: ConnComplex, y: ConnComplex) -> ConnComplex:
    """Degreewise direct sum of X_k (x) Y_l over k + l = n, with the usual
    sign (-1)^k on the second-factor differential; Kronecker row-major
    within each block."""
    if x.ring != y.ring:
        raise RingError(f"tensor factors over {x.ring} and {y.ring}")
    ring = x.ring
    layout = tensor_blocks(x, y)
    ranks = tuple(sum(_widths(row)) for row in layout)
    diffs = {}
    for n in range(1, len(ranks)):
        below = {(k, l): i for i, (k, l, _, _) in enumerate(layout[n - 1])}
        blocks = {}
        for j, (k, l, _, _) in enumerate(layout[n]):
            if (k - 1, l) in below:
                blocks[below[k - 1, l], j] = kron(x.diff(k), identity(ring, y.rank(l)))
            if (k, l - 1) in below:
                block = kron(identity(ring, x.rank(k)), y.diff(l))
                blocks[below[k, l - 1], j] = -block if k % 2 else block
        diffs[n] = block_matrix(ring, _widths(layout[n - 1]), _widths(layout[n]), blocks)
    return ConnComplex(ring, ranks, diffs)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """The induced map X(x)Y -> X'(x)Y' with blockwise components f_k (x) g_l."""
    if f.ring != g.ring:
        raise RingError(f"tensor factors over {f.ring} and {g.ring}")
    ring = f.ring
    source = tensor(f.source, g.source)
    target = tensor(f.target, g.target)
    src_layout = tensor_blocks(f.source, g.source)
    tgt_layout = tensor_blocks(f.target, g.target)
    comps = {}
    for n in range(max(source.top, target.top) + 1):
        src_row = src_layout[n] if n < len(src_layout) else ()
        tgt_row = tgt_layout[n] if n < len(tgt_layout) else ()
        tgt_index = {(k, l): i for i, (k, l, _, _) in enumerate(tgt_row)}
        blocks = {
            (tgt_index[k, l], j): kron(f.component(k), g.component(l))
            for j, (k, l, _, _) in enumerate(src_row)
            if (k, l) in tgt_index
        }
        comps[n] = block_matrix(ring, _widths(tgt_row), _widths(src_row), blocks)
    return ChainMap(source, target, comps)


def mapping_cone(f: ChainMap) -> ConnComplex:
    """cone_n = X_{n-1} + Y_n with differential [[-dX, 0], [-f, dY]];
    exact exactly when f is a quasi-isomorphism."""
    x, y = f.source, f.target
    ring = f.ring
    top = max(x.top + 1, y.top)
    ranks = tuple(x.rank(n - 1) + y.rank(n) for n in range(top + 1))
    diffs = {}
    for n in range(1, top + 1):
        diffs[n] = block_matrix(
            ring,
            [x.rank(n - 2), y.rank(n - 1)],
            [x.rank(n - 1), y.rank(n)],
            {(0, 0): -x.diff(n - 1), (1, 0): -f.component(n - 1), (1, 1): y.diff(n)},
        )
    return ConnComplex(ring, ranks, diffs)


def _cone_matrix(f: ChainMap, n: int) -> Matrix:
    """[[d^X_n, 0], [f_n, d^Y_{n+1}]]: X_n + Y_{n+1} -> X_{n-1} + Y_n, the
    cone differential D_{n+1} up to the signs of its block rows and block
    columns, so with the same invariant factors."""
    x, y = f.source, f.target
    return block_matrix(
        f.ring,
        [x.rank(n - 1), y.rank(n)],
        [x.rank(n), y.rank(n + 1)],
        {(0, 0): x.diff(n), (1, 0): f.component(n), (1, 1): y.diff(n + 1)},
    )


@dataclass(frozen=True)
class ModelClass:
    fibration: bool
    cofibration: bool
    weak_equivalence: bool

    @property
    def trivial_fibration(self) -> bool:
        return self.fibration and self.weak_equivalence

    @property
    def trivial_cofibration(self) -> bool:
        return self.cofibration and self.weak_equivalence


def classify(f: ChainMap) -> ModelClass:
    """Fibration: surjective in degrees >= 1.  Cofibration: injective with
    free cokernel in every degree.  Weak equivalence: exact mapping cone,
    read off _cone_matrix without building the cone.  Each component's
    invariant factors are computed once."""
    x, y = f.source, f.target
    cone = _homology(
        lambda n: x.rank(n - 1) + y.rank(n),
        lambda n: _cone_matrix(f, n - 1),
        max(x.top + 1, y.top),
    )
    we = all(h.is_zero for h in cone)
    comps = [f.component(n) for n in range(max(x.top, y.top) + 1)]
    factors = [invariant_factors(c) for c in comps]
    fib = all(len(t) == c.rows and not torsion(t) for c, t in zip(comps[1:], factors[1:]))
    cof = all(len(t) == c.cols and not torsion(t) for c, t in zip(comps, factors))
    return ModelClass(fib, cof, we)


def _first_summand(ring: RingTag, rank: int, rest: int) -> Matrix:
    """The inclusion of R^rank as the first summand of R^rank + R^rest."""
    return block_matrix(ring, [rank, rest], [rank], {(0, 0): identity(ring, rank)})


def factor_trivcof_fib(f: ChainMap) -> tuple[ChainMap, ChainMap]:
    """f = eta o kappa with kappa a trivial cofibration and eta a fibration.
    The middle object is X plus one exact two-term summand per basis element
    of Y_n for each n >= 1: degree m gains T_m = R^{rank Y_m} (m >= 1) and
    B_m = R^{rank Y_{m+1}}, the differential carries T_m identically onto
    B_{m-1}, eta sends T_m by the identity and B_m by the differential of Y."""
    x, y = f.source, f.target
    ring = f.ring
    top = max(x.top, y.top)
    t_rank = lambda m: y.rank(m) if m >= 1 else 0
    b_rank = lambda m: y.rank(m + 1)
    ranks = tuple(x.rank(m) + t_rank(m) + b_rank(m) for m in range(top + 1))
    diffs = {}
    for m in range(1, top + 1):
        diffs[m] = block_matrix(
            ring,
            [x.rank(m - 1), t_rank(m - 1), b_rank(m - 1)],
            [x.rank(m), t_rank(m), b_rank(m)],
            {(0, 0): x.diff(m), (2, 1): identity(ring, t_rank(m))},
        )
    middle = ConnComplex(ring, ranks, diffs)
    kappa = ChainMap(
        x,
        middle,
        {m: _first_summand(ring, x.rank(m), t_rank(m) + b_rank(m)) for m in range(top + 1)},
    )
    eta = ChainMap(
        middle,
        y,
        {
            m: hcat(
                ring,
                y.rank(m),
                [
                    f.component(m),
                    identity(ring, t_rank(m)) if m >= 1 else zeros(ring, y.rank(0), 0),
                    y.diff(m + 1),
                ],
            )
            for m in range(top + 1)
        },
    )
    return kappa, eta


def factor_cof_trivfib(f: ChainMap) -> tuple[ChainMap, ChainMap]:
    """f = eta o kappa with kappa a cofibration and eta a trivial fibration.
    Built degree by degree: Q_n = X_n + a free block mapping onto the lattice
    of pairs (cycle of Q_{n-1}, y in Y_n) with matching images in Y_{n-1};
    one extra stage past the larger top closes the last kernels, and trailing
    zero-rank degrees are trimmed."""
    x, y = f.source, f.target
    ring = f.ring
    stages = max(x.top, y.top) + 1
    q_ranks = [x.rank(0) + y.rank(0)]
    q_diffs = []
    eta_comps = [hcat(ring, y.rank(0), [f.component(0), identity(ring, y.rank(0))])]
    kappa_comps = [_first_summand(ring, x.rank(0), y.rank(0))]
    cycles = identity(ring, q_ranks[0])
    for n in range(1, stages + 1):
        z = cycles.cols
        pairs = kernel_basis(hcat(ring, y.rank(n - 1), [eta_comps[n - 1] @ cycles, -y.diff(n)]))
        w_top = pairs.row_select(range(z))
        w_bot = pairs.row_select(range(z, z + y.rank(n)))
        fresh = pairs.cols
        q_ranks.append(x.rank(n) + fresh)
        d = hcat(ring, q_ranks[n - 1], [kappa_comps[n - 1] @ x.diff(n), cycles @ w_top])
        q_diffs.append(d)
        eta_comps.append(hcat(ring, y.rank(n), [f.component(n), w_bot]))
        kappa_comps.append(_first_summand(ring, x.rank(n), fresh))
        cycles = kernel_basis(d)
    while len(q_ranks) > 1 and q_ranks[-1] == 0:
        q_ranks.pop()
        q_diffs.pop()
        eta_comps.pop()
        kappa_comps.pop()
    middle = ConnComplex(ring, q_ranks, dict(enumerate(q_diffs, start=1)))
    kappa = ChainMap(x, middle, dict(enumerate(kappa_comps)))
    eta = ChainMap(middle, y, dict(enumerate(eta_comps)))
    return kappa, eta


def lift_square(f: ChainMap, g: ChainMap, top: ChainMap, bottom: ChainMap) -> ChainMap:
    """Solve the square g o phi' = bottom, phi' o f = top for phi': B -> C,
    given f: A -> B a cofibration and g: C -> D a trivial fibration.

    Degreewise: f_n is split injective, with a retraction r_n (r_n f_n = I)
    exactly when it is injective with a free cokernel; P_n = I - f_n r_n
    kills im(f_n).  Take psi = top_n r_n + s P_n with g_n s = bottom_n, so
    psi f_n = top_n and g_n psi = bottom_n.  Where zeta = d psi -
    phi_{n-1} d is nonzero, its columns are cycles of the exact complex
    ker(g), so with K a basis of ker(g_n) some u solves d K u = zeta, and
    phi_n = psi - K u P_n.  This is a lift:
      zeta f_n = d top_n - top_{n-1} d = 0, so zeta P_n = zeta and
      d phi_n = d psi - zeta = phi_{n-1} d;
      P_n f_n = 0 and g K = 0 keep phi_n f_n = top_n and g_n phi_n = bottom_n."""
    a, b = f.source, f.target
    c, d = g.source, g.target
    if top.source != a or top.target != c:
        raise ShapeError("top map must run from the source of f to the source of g")
    if bottom.source != b or bottom.target != d:
        raise ShapeError("bottom map must run from the target of f to the target of g")
    if any(
        g.component(n) @ top.component(n) != bottom.component(n) @ f.component(n)
        for n in range(max(a.top, d.top) + 1)
    ):
        raise SquareError("square does not commute")
    ring = f.ring
    retractions = []
    for n in range(max(a.top, b.top) + 1):
        r = solve(f.component(n).transpose(), identity(ring, a.rank(n)))
        if r is None:
            raise ClassError("left map must be a cofibration")
        retractions.append(r.transpose())
    if not classify(g).trivial_fibration:
        raise ClassError("right map must be a trivial fibration")
    phi = []
    for n in range(b.top + 1):
        r = retractions[n]
        proj = identity(ring, b.rank(n)) - f.component(n) @ r
        psi = top.component(n) @ r + solve(g.component(n), bottom.component(n)) @ proj
        if n:
            zeta = c.diff(n) @ psi - phi[n - 1] @ b.diff(n)
            if not zeta.is_zero:
                k = kernel_basis(g.component(n))
                psi = psi - k @ solve(c.diff(n) @ k, zeta) @ proj
        phi.append(psi)
    result = ChainMap(b, c, dict(enumerate(phi)))
    upper = (result.component(n) @ f.component(n) == top.component(n) for n in range(max(a.top, c.top) + 1))
    lower = (g.component(n) @ result.component(n) == bottom.component(n) for n in range(max(b.top, d.top) + 1))
    if not (all(upper) and all(lower)):
        raise SquareError("the computed lift does not close the square")
    return result


@dataclass(frozen=True)
class RlpReport:
    """Pass/fail of the right lifting property against each generating map:
    the point inclusion 0 -> S(0), the cycle-hitting inclusions
    S(n-1) -> D(n), and the free inclusions 0 -> D(n), for 1 <= n <= max_n."""

    max_n: int
    point_surjection: bool
    sphere_to_disk: tuple[bool, ...]
    zero_to_disk: tuple[bool, ...]

    @property
    def certifies_trivial_fibration(self) -> bool:
        return self.point_surjection and all(self.sphere_to_disk)

    @property
    def certifies_fibration(self) -> bool:
        return all(self.zero_to_disk)


def rlp_generator_check(f: ChainMap, max_n: int) -> RlpReport:
    """Decide the RLP against each generator from invariant factors:
    0 -> D(n) needs f_n onto; S(n-1) -> D(n) needs N = [d_n; f_n] onto the
    lattice of pairs (z, y) with d(z) = 0 and f(z) = d(y), which is the
    kernel of M = [[d_{n-1}, 0], [f_{n-1}, -d_n]].  N lands in that kernel,
    which is saturated, so N is onto it exactly when N has rank
    cols(M) - rank(M) and no non-unit invariant factor.  M is
    _cone_matrix(f, n - 1) up to the sign of its second block column, so
    has the same rank."""
    x = f.source
    point = is_surjective(f.component(0))
    sphere_results = []
    disk_results = []
    for n in range(1, max_n + 1):
        disk_results.append(is_surjective(f.component(n)))
        pair_eqs = _cone_matrix(f, n - 1)
        into_pairs = invariant_factors(vcat(f.ring, x.rank(n), [x.diff(n), f.component(n)]))
        pairs_rank = pair_eqs.cols - len(invariant_factors(pair_eqs))
        sphere_results.append(len(into_pairs) == pairs_rank and not torsion(into_pairs))
    return RlpReport(max_n, point, tuple(sphere_results), tuple(disk_results))


def complex_to_json(x: ConnComplex) -> dict:
    diffs = {}
    for n in range(1, x.top + 1):
        if not x.diff(n).is_zero:
            diffs[str(n)] = mat_to_json(x.diff(n))
    return {"ring": str(x.ring), "top": x.top, "ranks": list(x.ranks), "diffs": diffs}


def _json_object(obj, path: str, keys) -> None:
    """Check that obj is an object holding every key in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")


def _json_header(obj, path: str, keys, top_key: str) -> tuple[RingTag, tuple[int, ...]]:
    """The ring and ranks of a graded document: an object holding keys, a
    ring string, a list of ranks, and top_key equal to len(ranks) - 1."""
    _json_object(obj, path, keys)
    if not isinstance(obj["ring"], str):
        raise ValueError(f"{path}.ring: expected a string")
    ring = parse_ring(obj["ring"])
    ranks = obj["ranks"]
    if not isinstance(ranks, list) or not all(isinstance(r, int) and not isinstance(r, bool) and r >= 0 for r in ranks):
        raise ValueError(f"{path}.ranks: expected a list of nonnegative integers")
    if obj[top_key] != len(ranks) - 1:
        raise ValueError(f"{path}.{top_key}: must equal len(ranks) - 1")
    return ring, tuple(ranks)


def _degree_matrices(raw, ring: RingTag, path: str) -> dict[int, Matrix]:
    """Parse an object of matrices keyed by degree."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object")
    out = {}
    for key, val in raw.items():
        # one spelling per degree, so "1" and "01" cannot both name it
        try:
            n = int(key)
        except ValueError:
            n = None
        if n is None or str(n) != key:
            raise ValueError(f"{path}: degree keys must be integers in canonical decimal form, got {key!r}")
        out[n] = mat_from_json(val, ring, path=f"{path}.{key}")
    return out


def _build(path: str, make, *args):
    """make(*args), with plain ValueErrors prefixed by path; the typed
    errors (shape, ring, domain, not a complex) pass through unchanged."""
    try:
        return make(*args)
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise ValueError(f"{path}: {exc}") from exc


def complex_from_json(obj, path: str = "complex") -> ConnComplex:
    ring, ranks = _json_header(obj, path, ("ring", "top", "ranks"), "top")
    diffs = _degree_matrices(obj.get("diffs", {}), ring, f"{path}.diffs")
    return _build(path, ConnComplex, ring, ranks, diffs)


def map_to_json(f: ChainMap) -> dict:
    comps = {}
    for n in range(max(f.source.top, f.target.top) + 1):
        if not f.component(n).is_zero:
            comps[str(n)] = mat_to_json(f.component(n))
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "components": comps,
    }


def map_from_json(obj, path: str = "map") -> ChainMap:
    _json_object(obj, path, ("source", "target"))
    source = complex_from_json(obj["source"], path=f"{path}.source")
    target = complex_from_json(obj["target"], path=f"{path}.target")
    comps = _degree_matrices(obj.get("components", {}), source.ring, f"{path}.components")
    return _build(path, ChainMap, source, target, comps)
