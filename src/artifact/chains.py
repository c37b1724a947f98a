"""Bounded connective chain complexes of finitely generated free modules.

Provides the complex and chain-map types, spheres and disks, homology,
tensor products, mapping cones, the projective-model-structure classifiers
(fibration / cofibration / weak equivalence), both factorization algorithms,
the lifting solver for cofibration-vs-trivial-fibration squares, and the
generating-map right-lifting-property checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import prod

from .errors import ClassError, NotAComplex, RingError, ShapeError, SquareError, _check_int
from .linalg import (
    HomologyGroup,
    Matrix,
    _by_degree,
    _free_of_rank,
    _homology,
    _is_natural,
    _json_object,
    _make,
    _scaled,
    _write_block,
    hcat,
    identity,
    invariant_factors,
    is_surjective,
    kernel_basis,
    mat_from_json,
    mat_to_json,
    solve,
    vcat,
    zeros,
)
from .rings import RingTag, ZZ, parse_ring


def _check_matrix(mat: Matrix, ring: RingTag, rows: int, cols: int, kind: str, index, owner: str):
    """RingError unless mat is over ring, ShapeError unless it is rows x cols;
    the messages name mat as kind and index, and owner the object it belongs
    to."""
    if mat.ring != ring:
        raise RingError(f"{kind} {index} is over {mat.ring}, {owner} over {ring}")
    if mat.rows != rows or mat.cols != cols:
        raise ShapeError(f"{kind} {index} must be {rows}x{cols}, got {mat.rows}x{mat.cols}")


def _graded(ring: RingTag, given, degrees: range, shape, kind: str, owner: str) -> tuple:
    """The matrices of given, a dict keyed by degree, for each degree n in
    degrees, zero where absent; each must be over ring and of shape(n) =
    (rows, cols), and no degree outside degrees may be given."""
    given = dict(given) if given else {}
    stored = []
    for n in degrees:
        rows, cols = shape(n)
        mat = given.pop(n, None)
        if mat is None:
            mat = zeros(ring, rows, cols)
        else:
            _check_matrix(mat, ring, rows, cols, kind, n, owner)
        stored.append(mat)
    if given:
        outside = f"{degrees.start}..{degrees.stop - 1}"
        raise ValueError(f"{kind}s given outside degrees {outside}: {sorted(given)}")
    return tuple(stored)


class _Value:
    """A value type whose instances equal exactly the instances of the same
    type whose value fields are all equal, compared in order; unhashable.
    The value fields, _fields, are the slots unless a type declares fewer:
    a slot outside them is a memo that equal values may hold or lack."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return False
        for name in self._fields:
            if not getattr(self, name) == getattr(other, name):
                return False
        return True

    @classmethod
    def _trusted(cls, *args):
        """The value that _store(*args) checks and stores, without the
        proofs __init__ adds, which the calling builder's docstring gives;
        the one private constructor, and a static test names its callers."""
        value = cls.__new__(cls)
        value._store(*args)
        return value


class ConnComplex(_Value):
    """A connective complex: ranks in degrees 0..top and differentials
    ∂_n: degree n -> degree n-1 for 1 <= n <= top.  Degrees outside the
    stored range are zero; rank() and diff() extend accordingly."""

    __slots__ = ("ring", "ranks", "top", "_diffs")

    def __init__(self, ring: RingTag, ranks, diffs=None):
        self._store(ring, ranks, diffs)
        for n in range(2, self.top + 1):
            if not (self._diffs[n - 2] @ self._diffs[n - 1]).is_zero:
                raise NotAComplex(f"differential composite at degree {n} is nonzero")

    def _store(self, ring: RingTag, ranks, diffs) -> None:
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("ranks must cover degree 0")
        if not all(map(_is_natural, ranks)):
            raise ValueError("ranks must be nonnegative integers")
        self.ring = ring
        self.ranks = ranks
        self.top = len(ranks) - 1
        shape = lambda n: (ranks[n - 1], ranks[n])
        self._diffs = _graded(ring, diffs, range(1, self.top + 1), shape, "differential", "complex")

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.top else 0

    def diff(self, n: int) -> Matrix:
        if 1 <= n <= self.top:
            return self._diffs[n - 1]
        return zeros(self.ring, self.rank(n - 1), self.rank(n))

    def __repr__(self) -> str:
        return f"ConnComplex({self.ring}, ranks={self.ranks})"


class ChainMap(_Value):
    """A degreewise map of complexes over one ring, commuting with the
    differentials; components outside 0..max(tops) are zero.  _class holds
    the map's ModelClass once classify has computed it."""

    _fields = ("source", "target", "_components")
    __slots__ = _fields + ("_class",)

    def __init__(self, source: ConnComplex, target: ConnComplex, components=None):
        self._store(source, target, components)
        for n in range(1, len(self._components)):
            if self._components[n - 1] @ source.diff(n) != target.diff(n) @ self._components[n]:
                raise NotAComplex(f"components do not commute with differentials at degree {n}")

    def _store(self, source: ConnComplex, target: ConnComplex, components) -> None:
        if source.ring != target.ring:
            raise RingError(f"source over {source.ring}, target over {target.ring}")
        self.source = source
        self.target = target
        degrees = range(max(source.top, target.top) + 1)
        shape = lambda n: (target.rank(n), source.rank(n))
        self._components = _graded(source.ring, components, degrees, shape, "component", "map")
        self._class = None

    def component(self, n: int) -> Matrix:
        if 0 <= n < len(self._components):
            return self._components[n]
        return zeros(self.source.ring, self.target.rank(n), self.source.rank(n))

    @property
    def ring(self) -> RingTag:
        return self.source.ring

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
    _check_int("sphere", "n", n, least=0)
    return ConnComplex(ring, (0,) * n + (1,))


def disk(n: int, ring: RingTag = ZZ) -> ConnComplex:
    """Rank one in degrees n and n-1 joined by the identity; exact."""
    _check_int("disk", "n", n, least=1)
    ranks = (0,) * (n - 1) + (1, 1)
    return ConnComplex(ring, ranks, {n: identity(ring, 1)})


def homology(x: ConnComplex) -> tuple[HomologyGroup, ...]:
    """Homology groups in degrees 0..top, read off the invariant factors of
    each differential once; only ranks pass between degrees."""
    return tuple(_homology(x.rank, x.diff, x.top))


def is_exact(x: ConnComplex) -> bool:
    """Walk the homology degree by degree and stop at the first nonzero
    group: no differential past it is eliminated."""
    return all(h.is_zero for h in _homology(x.rank, x.diff, x.top))


def _tensor_layout(x: ConnComplex, y: ConnComplex, n: int) -> dict:
    """The degree-n layout of the tensor product: {(k, l): rank X_k * rank
    Y_l} over k + l = n, ordered by increasing k."""
    degrees = range(max(0, n - y.top), min(n, x.top) + 1)
    return {(k, n - k): x.rank(k) * y.rank(n - k) for k in degrees}


def tensor_blocks(x: ConnComplex, y: ConnComplex) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per degree n, the tensor block layout as (k, l, offset, width) with
    k + l = n, ordered by increasing k."""
    layout = []
    for n in range(x.top + y.top + 1):
        sizes = _tensor_layout(x, y, n)
        offsets = accumulate(sizes.values(), initial=0)
        layout.append(tuple((k, l, at, w) for ((k, l), w), at in zip(sizes.items(), offsets)))
    return tuple(layout)


def _keyed_block_matrix(ring: RingTag, rows: dict, cols: dict, blocks: dict) -> Matrix:
    """The block matrix on the ordered {key: size} layouts rows and cols
    with blocks {(row key, column key): term}, a term being a stored matrix
    or (sign, a, b) for sign * kron(a, b), and zero elsewhere; ShapeError or
    RingError for a key outside its layout or a term of another shape or
    ring.  The one private block writer: it writes each term straight into
    the rows, and as a term over a domain has no zero entry, the result is
    stored as the constructor would store it."""
    row_off = list(accumulate(rows.values(), initial=0))
    col_off = list(accumulate(cols.values(), initial=0))
    row_at, col_at = dict(zip(rows, row_off)), dict(zip(cols, col_off))
    out: dict[int, dict] = {}
    for (row, col), term in blocks.items():
        try:
            r0, c0 = row_at[row], col_at[col]
        except KeyError:
            raise ShapeError(f"block {(row, col)} lies outside the layout") from None
        # rings by identity first, as ZZ, QQ and GF(p) are canonical tags;
        # by value only when a term fails, so an equal tag still fits
        if type(term) is Matrix:
            fits = term.rows == rows[row] and term.cols == cols[col] and term.ring is ring
        else:
            _, a, b = term
            fits = a.rows * b.rows == rows[row] and a.cols * b.cols == cols[col] and a.ring is ring is b.ring
        if not fits:
            factors = (term,) if type(term) is Matrix else term[1:]
            shape = prod(m.rows for m in factors), prod(m.cols for m in factors)
            if shape != (rows[row], cols[col]):
                raise ShapeError(f"block {(row, col)} has shape {shape[0]}x{shape[1]}, not {rows[row]}x{cols[col]}")
            if any(m.ring != ring for m in factors):
                raise RingError(f"block {(row, col)} over another ring")
        _write_block(out, term, r0, c0, ring.p)
    return _make(ring, row_off[-1], col_off[-1], out)


def _blockwise(ring: RingTag, rows: dict, cols: dict, block) -> Matrix:
    """The map from the layout cols to the layout rows that acts by the
    term block(key) on each key both layouts hold, and by zero elsewhere."""
    return _keyed_block_matrix(ring, rows, cols, {(key, key): block(key) for key in cols if key in rows})


def tensor(x: ConnComplex, y: ConnComplex) -> ConnComplex:
    """Degreewise direct sum of X_k (x) Y_l over k + l = n, with the usual
    sign (-1)^k on the second-factor differential; Kronecker row-major
    within each block.  d∘d = 0 unchecked: the sign cancels the two
    composites through (k - 1, l) and (k, l - 1)."""
    if x.ring != y.ring:
        raise RingError(f"tensor factors over {x.ring} and {y.ring}")
    ring = x.ring
    layouts = [_tensor_layout(x, y, n) for n in range(x.top + y.top + 1)]
    diffs = {}
    for n in range(1, len(layouts)):
        below = layouts[n - 1]
        blocks = {}
        for k, l in layouts[n]:
            if (k - 1, l) in below:
                blocks[(k - 1, l), (k, l)] = (1, x.diff(k), identity(ring, y.rank(l)))
            if (k, l - 1) in below:
                blocks[(k, l - 1), (k, l)] = (-1 if k % 2 else 1, identity(ring, x.rank(k)), y.diff(l))
        diffs[n] = _keyed_block_matrix(ring, below, layouts[n], blocks)
    return ConnComplex._trusted(ring, tuple(sum(sizes.values()) for sizes in layouts), diffs)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """The induced map X(x)Y -> X'(x)Y' with blockwise components f_k (x) g_l."""
    if f.ring != g.ring:
        raise RingError(f"tensor factors over {f.ring} and {g.ring}")
    source = tensor(f.source, g.source)
    target = tensor(f.target, g.target)
    block = lambda kl: (1, f.component(kl[0]), g.component(kl[1]))
    comps = {}
    for n in range(max(source.top, target.top) + 1):
        rows, cols = _tensor_layout(f.target, g.target, n), _tensor_layout(f.source, g.source, n)
        comps[n] = _blockwise(f.ring, rows, cols, block)
    return ChainMap(source, target, comps)


def mapping_cone(f: ChainMap) -> ConnComplex:
    """cone_n = X_{n-1} + Y_n with differential [[-dX, 0], [-f, dY]];
    exact exactly when f is a quasi-isomorphism.  d∘d = 0 unchecked, as
    the validated chain map f has dY∘f = f∘dX."""
    x, y = f.source, f.target
    top = max(x.top + 1, y.top)
    ranks = tuple(x.rank(n - 1) + y.rank(n) for n in range(top + 1))
    return ConnComplex._trusted(f.ring, ranks, {n: _cone_matrix(f, n - 1) for n in range(1, top + 1)})


def _cone_matrix(f: ChainMap, n: int) -> Matrix:
    """The cone differential D_{n+1} = [[-d^X_n, 0], [-f_n, d^Y_{n+1}]]:
    X_n + Y_{n+1} -> X_{n-1} + Y_n, written straight into rows: the rows of
    d^X_n and f_n are negated as they are copied.  The shapes come from the
    validated map, so nothing is checked."""
    x, y = f.source, f.target
    p, below = f.ring.p, x.rank(n - 1)
    rows = {i: _scaled(row, -1, p) for i, row in x.diff(n)._rows.items()}
    rows.update((below + i, _scaled(row, -1, p)) for i, row in f.component(n)._rows.items())
    _write_block(rows, y.diff(n + 1), below, x.rank(n), p)
    return _make(f.ring, below + y.rank(n), x.rank(n) + y.rank(n + 1), rows)


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
    read off _cone_matrix without building the cone, degree by degree up to
    the first nonzero group, past which no cone matrix is written.  Each
    component's invariant factors are computed once, and the class once per
    map: it is kept on f for later calls."""
    if f._class is None:
        f._class = _model_class(f)
    return f._class


def _model_class(f: ChainMap) -> ModelClass:
    x, y = f.source, f.target
    cone = _homology(
        lambda n: x.rank(n - 1) + y.rank(n),
        lambda n: _cone_matrix(f, n - 1),
        max(x.top + 1, y.top),
    )
    we = all(h.is_zero for h in cone)
    comps = [f.component(n) for n in range(max(x.top, y.top) + 1)]
    factors = [invariant_factors(c) for c in comps]
    fib = all(_free_of_rank(t, c.rows) for c, t in zip(comps[1:], factors[1:]))
    cof = all(_free_of_rank(t, c.cols) for c, t in zip(comps, factors))
    return ModelClass(fib, cof, we)


def _first_summand(ring: RingTag, rank: int, rest: int) -> Matrix:
    """The inclusion of R^rank as the first summand of R^rank + R^rest."""
    return _make(ring, rank + rest, rank, identity(ring, rank)._rows)


def factor_trivcof_fib(f: ChainMap) -> tuple[ChainMap, ChainMap]:
    """f = eta o kappa with kappa a trivial cofibration and eta a fibration.
    The middle object is X plus one exact two-term summand per basis element
    of Y_n for each n >= 1: degree m gains T_m = R^{rank Y_m} (m >= 1) and
    B_m = R^{rank Y_{m+1}}, the differential carries T_m identically onto
    B_{m-1}, eta sends T_m by the identity and B_m by the differential of Y.
    So d∘d = 0 on the middle object, since the T-to-B block is followed by
    zero; kappa includes the subcomplex X, and eta, f on X, has d^Y∘eta =
    eta∘d on T + B.  All three are built without re-checking."""
    x, y = f.source, f.target
    ring = f.ring
    top = max(x.top, y.top)
    t_rank = lambda m: y.rank(m) if m >= 1 else 0
    b_rank = lambda m: y.rank(m + 1)
    layouts = [{"X": x.rank(m), "T": t_rank(m), "B": b_rank(m)} for m in range(top + 1)]
    ranks = tuple(sum(sizes.values()) for sizes in layouts)
    diffs = {}
    for m in range(1, top + 1):
        blocks = {("X", "X"): x.diff(m), ("B", "T"): identity(ring, t_rank(m))}
        diffs[m] = _keyed_block_matrix(ring, layouts[m - 1], layouts[m], blocks)
    middle = ConnComplex._trusted(ring, ranks, diffs)
    kappa = ChainMap._trusted(
        x,
        middle,
        {m: _first_summand(ring, x.rank(m), t_rank(m) + b_rank(m)) for m in range(top + 1)},
    )
    eta = ChainMap._trusted(
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
    zero-rank degrees are trimmed.  The fresh block of Q_n maps into the
    cycles of Q_{n-1}, so d∘d = 0, and onto pairs with matching images, so
    eta commutes with the differentials; kappa is the inclusion of X.  All
    three are built without re-checking."""
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
    middle = ConnComplex._trusted(ring, q_ranks, dict(enumerate(q_diffs, start=1)))
    kappa = ChainMap._trusted(x, middle, dict(enumerate(kappa_comps)))
    eta = ChainMap._trusted(middle, y, dict(enumerate(eta_comps)))
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
      P_n f_n = 0 and g K = 0 keep phi_n f_n = top_n and g_n phi_n = bottom_n.
    These give commutation and both triangles, so the lift is built trusted."""
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
    return ChainMap._trusted(b, c, dict(enumerate(phi)))


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
    cols(M) - rank(M) and no non-unit invariant factor.  M is minus the
    cone differential _cone_matrix(f, n - 1), and M and -M have the same
    invariant factors."""
    _check_int("rlp_generator_check", "max_n", max_n, least=0)
    x = f.source
    point = is_surjective(f.component(0))
    sphere_results = []
    disk_results = []
    for n in range(1, max_n + 1):
        disk_results.append(is_surjective(f.component(n)))
        pair_eqs = _cone_matrix(f, n - 1)
        into_pairs = invariant_factors(vcat(f.ring, x.rank(n), [x.diff(n), f.component(n)]))
        pairs_rank = pair_eqs.cols - len(invariant_factors(pair_eqs))
        sphere_results.append(_free_of_rank(into_pairs, pairs_rank))
    return RlpReport(max_n, point, tuple(sphere_results), tuple(disk_results))


def _degree_matrices_to_json(matrices, first: int) -> dict:
    """The nonzero matrices of a sequence that starts at degree first, keyed
    by degree, as _by_degree reads them."""
    return {str(n): mat_to_json(mat) for n, mat in enumerate(matrices, first) if not mat.is_zero}


def complex_to_json(x: ConnComplex) -> dict:
    diffs = _degree_matrices_to_json(x._diffs, 1)
    return {"ring": str(x.ring), "top": x.top, "ranks": list(x.ranks), "diffs": diffs}


def _json_header(obj, path: str, keys, top_key: str, optional=()) -> tuple[RingTag, tuple[int, ...]]:
    """The ring and ranks of a graded document: an object holding keys and
    at most optional besides, a ring string, a list of ranks, and top_key
    the integer len(ranks) - 1."""
    _json_object(obj, path, keys, optional)
    if not isinstance(obj["ring"], str):
        raise ValueError(f"{path}.ring: expected a string")
    ring = parse_ring(obj["ring"])
    ranks = obj["ranks"]
    if not isinstance(ranks, list) or not all(map(_is_natural, ranks)):
        raise ValueError(f"{path}.ranks: expected a list of nonnegative integers")
    top = obj[top_key]
    if not _is_natural(top) or top != len(ranks) - 1:
        raise ValueError(f"{path}.{top_key}: must be the integer len(ranks) - 1")
    return ring, tuple(ranks)


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
    ring, ranks = _json_header(obj, path, ("ring", "top", "ranks"), "top", ("diffs",))
    diffs = _by_degree(obj.get("diffs", {}), f"{path}.diffs", partial(mat_from_json, ring=ring))
    return _build(path, ConnComplex, ring, ranks, diffs)


def map_to_json(f: ChainMap) -> dict:
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "components": _degree_matrices_to_json(f._components, 0),
    }


def map_from_json(obj, path: str = "map") -> ChainMap:
    _json_object(obj, path, ("source", "target"), ("components",))
    source = complex_from_json(obj["source"], path=f"{path}.source")
    target = complex_from_json(obj["target"], path=f"{path}.target")
    read = partial(mat_from_json, ring=source.ring)
    comps = _by_degree(obj.get("components", {}), f"{path}.components", read)
    return _build(path, ChainMap, source, target, comps)
