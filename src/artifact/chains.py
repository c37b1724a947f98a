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
    hcat,
    identity,
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
from .rings import RingTag, ZZ, parse_ring, ring_ops


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
    """Homology groups in degrees 0..top, read off one Smith decomposition
    per differential as in homology_at; only ranks pass between degrees."""
    groups = []
    rank_out = 0
    for n in range(x.top + 1):
        arriving = smith_normal_form(x.diff(n + 1))
        groups.append(HomologyGroup(x.rank(n) - rank_out - arriving.rank, arriving.torsion))
        rank_out = arriving.rank
        del arriving  # free its transforms before the next decomposition
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


def tensor(x: ConnComplex, y: ConnComplex) -> ConnComplex:
    """Degreewise direct sum of X_k (x) Y_l over k + l = n, with the usual
    sign (-1)^k on the second-factor differential; Kronecker row-major
    within each block."""
    if x.ring != y.ring:
        raise RingError(f"tensor factors over {x.ring} and {y.ring}")
    ring = x.ring
    ops = ring_ops(ring)
    minus_one = ops.neg(ops.one)
    layout = tensor_blocks(x, y)
    ranks = tuple(sum(w for (_, _, _, w) in row) for row in layout)
    diffs = {}
    for n in range(1, len(ranks)):
        rows_n = ranks[n - 1]
        cols = []
        for k, l, _, width in layout[n]:
            pieces = {}
            for kk, ll, off, w in layout[n - 1]:
                if kk == k - 1 and ll == l:
                    pieces[off] = kron(x.diff(k), identity(ring, y.rank(l)))
                elif kk == k and ll == l - 1:
                    block = kron(identity(ring, x.rank(k)), y.diff(l))
                    pieces[off] = block.scale(minus_one) if k % 2 else block
            col_rows = [[ops.zero] * width for _ in range(rows_n)]
            for off, block in pieces.items():
                for i in range(block.rows):
                    col_rows[off + i] = list(block.entries[i])
            cols.append(Matrix(ring, rows_n, width, tuple(tuple(r) for r in col_rows)))
        diffs[n] = hcat(ring, rows_n, cols)
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
    ops = ring_ops(ring)
    comps = {}
    for n in range(max(source.top, target.top) + 1):
        rows_n, cols_n = target.rank(n), source.rank(n)
        grid = [[ops.zero] * cols_n for _ in range(rows_n)]
        src_row = src_layout[n] if n < len(src_layout) else ()
        tgt_row = {(k, l): off for (k, l, off, _) in (tgt_layout[n] if n < len(tgt_layout) else ())}
        for k, l, off, width in src_row:
            if (k, l) not in tgt_row:
                continue
            toff = tgt_row[(k, l)]
            block = kron(f.component(k), g.component(l))
            for i in range(block.rows):
                for j in range(block.cols):
                    grid[toff + i][off + j] = block.entries[i][j]
        comps[n] = Matrix(ring, rows_n, cols_n, tuple(tuple(r) for r in grid))
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
        upper = hcat(ring, x.rank(n - 2), [-x.diff(n - 1), zeros(ring, x.rank(n - 2), y.rank(n))])
        lower = hcat(ring, y.rank(n - 1), [-f.component(n - 1), y.diff(n)])
        diffs[n] = vcat(ring, ranks[n], [upper, lower])
    return ConnComplex(ring, ranks, diffs)


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
    free cokernel in every degree.  Weak equivalence: exact mapping cone."""
    span = max(f.source.top, f.target.top)
    we = is_exact(mapping_cone(f))
    decs = [smith_normal_form(f.component(n)) for n in range(span + 1)]
    fib = all(d.rank == d.s.rows and not d.torsion for d in decs[1:])
    cof = all(d.rank == d.s.cols and not d.torsion for d in decs)
    return ModelClass(fib, cof, we)


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
        rows_x = hcat(
            ring,
            x.rank(m - 1),
            [x.diff(m), zeros(ring, x.rank(m - 1), t_rank(m) + b_rank(m))],
        )
        rows_t = zeros(ring, t_rank(m - 1), ranks[m])
        rows_b = hcat(
            ring,
            b_rank(m - 1),
            [
                zeros(ring, b_rank(m - 1), x.rank(m)),
                identity(ring, t_rank(m)),
                zeros(ring, b_rank(m - 1), b_rank(m)),
            ],
        )
        diffs[m] = vcat(ring, ranks[m], [rows_x, rows_t, rows_b])
    middle = ConnComplex(ring, ranks, diffs)
    kappa = ChainMap(
        x,
        middle,
        {
            m: vcat(
                ring,
                x.rank(m),
                [identity(ring, x.rank(m)), zeros(ring, t_rank(m) + b_rank(m), x.rank(m))],
            )
            for m in range(top + 1)
        },
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
    kappa_comps = [
        vcat(ring, x.rank(0), [identity(ring, x.rank(0)), zeros(ring, y.rank(0), x.rank(0))])
    ]
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
        kappa_comps.append(
            vcat(ring, x.rank(n), [identity(ring, x.rank(n)), zeros(ring, fresh, x.rank(n))])
        )
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

    Degreewise: split B_i = im(f_i) + complement via the Smith form of f_i,
    lift the complement through the surjection g_i, then correct the
    resulting degreewise solution to a chain map using exactness of ker(g)."""
    a, b = f.source, f.target
    c, d = g.source, g.target
    if top.source != a or top.target != c:
        raise ShapeError("top map must run from the source of f to the source of g")
    if bottom.source != b or bottom.target != d:
        raise ShapeError("bottom map must run from the target of f to the target of g")
    if compose_maps(g, top) != compose_maps(bottom, f):
        raise SquareError("square does not commute")
    if not classify(f).cofibration:
        raise ClassError("left map must be a cofibration")
    if not classify(g).trivial_fibration:
        raise ClassError("right map must be a trivial fibration")
    ring = f.ring
    span = b.top
    kernels = [kernel_basis(g.component(i)) for i in range(span + 1)]
    phi = []
    for n in range(span + 1):
        dec = smith_normal_form(f.component(n))
        r = dec.rank
        retract = dec.v @ dec.u.row_select(range(r))
        proj = dec.u.row_select(range(r, dec.u.rows))
        incl = dec.u_inv.col_select(range(r, dec.u_inv.cols))
        rho = solve(g.component(n), bottom.component(n) @ incl)
        psi = top.component(n) @ retract + rho @ proj
        if n == 0:
            phi.append(psi)
            continue
        zeta = c.diff(n) @ psi - phi[n - 1] @ b.diff(n)
        if zeta.is_zero:
            phi.append(psi)
            continue
        induced = solve(kernels[n - 1], c.diff(n) @ kernels[n])
        in_kernel = solve(kernels[n - 1], zeta @ incl)
        u = solve(induced, in_kernel)
        phi.append(psi - (kernels[n] @ u) @ proj)
    result = ChainMap(b, c, dict(enumerate(phi)))
    if compose_maps(result, f) != top or compose_maps(g, result) != bottom:
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
    """Decide the RLP against each generator by one surjectivity test:
    0 -> D(n) needs f_n onto; S(n-1) -> D(n) needs (d, f_n): X_n ->
    {(z, y) : f(z) = d(y)} onto, computed on a kernel-lattice basis."""
    x, y = f.source, f.target
    ring = f.ring
    point = is_surjective(f.component(0))
    sphere_results = []
    disk_results = []
    for n in range(1, max_n + 1):
        disk_results.append(is_surjective(f.component(n)))
        x_cycles = kernel_basis(x.diff(n - 1))
        pair_basis = kernel_basis(
            hcat(ring, y.rank(n - 1), [f.component(n - 1) @ x_cycles, -y.diff(n)])
        )
        into_pairs = vcat(
            ring,
            x.rank(n),
            [solve(x_cycles, x.diff(n)), f.component(n)],
        )
        omega = solve(pair_basis, into_pairs)
        sphere_results.append(omega is not None and is_surjective(omega))
    return RlpReport(max_n, point, tuple(sphere_results), tuple(disk_results))


def complex_to_json(x: ConnComplex) -> dict:
    diffs = {}
    for n in range(1, x.top + 1):
        if not x.diff(n).is_zero:
            diffs[str(n)] = mat_to_json(x.diff(n))
    return {"ring": str(x.ring), "top": x.top, "ranks": list(x.ranks), "diffs": diffs}


def complex_from_json(obj, path: str = "complex") -> ConnComplex:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in ("ring", "top", "ranks"):
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
    if not isinstance(obj["ring"], str):
        raise ValueError(f"{path}.ring: expected a string")
    ring = parse_ring(obj["ring"])
    ranks = obj["ranks"]
    if not isinstance(ranks, list) or not all(isinstance(r, int) and not isinstance(r, bool) and r >= 0 for r in ranks):
        raise ValueError(f"{path}.ranks: expected a list of nonnegative integers")
    if obj["top"] != len(ranks) - 1:
        raise ValueError(f"{path}.top: must equal len(ranks) - 1")
    raw = obj.get("diffs", {})
    if not isinstance(raw, dict):
        raise ValueError(f"{path}.diffs: expected an object")
    diffs = {}
    for key, val in raw.items():
        try:
            n = int(key)
        except ValueError:
            raise ValueError(f"{path}.diffs: degree keys must be integers, got {key!r}") from None
        diffs[n] = mat_from_json(val, ring, path=f"{path}.diffs.{key}")
    try:
        return ConnComplex(ring, tuple(ranks), diffs)
    except (ShapeError, RingError):
        raise
    except ValueError as exc:
        if isinstance(exc, NotAComplex):
            raise
        raise ValueError(f"{path}: {exc}") from exc


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
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in ("source", "target"):
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
    source = complex_from_json(obj["source"], path=f"{path}.source")
    target = complex_from_json(obj["target"], path=f"{path}.target")
    raw = obj.get("components", {})
    if not isinstance(raw, dict):
        raise ValueError(f"{path}.components: expected an object")
    comps = {}
    for key, val in raw.items():
        try:
            n = int(key)
        except ValueError:
            raise ValueError(f"{path}.components: degree keys must be integers, got {key!r}") from None
        comps[n] = mat_from_json(val, source.ring, path=f"{path}.components.{key}")
    try:
        return ChainMap(source, target, comps)
    except (ShapeError, RingError, NotAComplex):
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
