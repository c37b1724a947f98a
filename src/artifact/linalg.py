"""Exact sparse matrix algebra over the supported coefficient rings.

Matrices act on column vectors, so the composite g o f is the product G @ F.
Over the integers every basis this module returns is saturated: kernel bases
generate the full kernel lattice, image bases the full image lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Any, Iterable, Optional

from .errors import NotAComplex, RingError, ShapeError
from .rings import RingTag, ring_ops, scalar_from_json, scalar_to_json


class Matrix:
    """An immutable matrix over one ring that stores only its nonzero
    entries: the nonzero rows, each as a {column: entry} dict of canonical
    nonzero entries.  No zero is stored, so equality is structural and
    storage does not grow with the shape.

    The public constructor takes a dense grid of rows and canonicalizes
    every entry into the ring.  The operations below build their results
    through _make, canonical by construction, and use native arithmetic,
    reducing mod p once per entry."""

    __slots__ = ("ring", "rows", "cols", "_rows")

    def __init__(self, ring: RingTag, rows: int, cols: int, entries) -> None:
        _set_ring(self, ring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        self.__post_init__(entries)

    def __post_init__(self, entries) -> None:
        """Check the grid against the shape and keep its nonzero entries,
        canonicalized; only the public constructor runs this."""
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(entries) != self.rows or any(len(row) != self.cols for row in entries):
            raise ShapeError(
                f"entry grid does not match shape {self.rows}x{self.cols}"
            )
        _set_data(self, _canonical_rows(self.ring, enumerate(enumerate(row) for row in entries)))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _make, (self.ring, self.rows, self.cols, self._rows)

    @staticmethod
    def from_rows(ring: RingTag, rows: Iterable[Iterable[Any]], cols: int | None = None) -> "Matrix":
        grid = tuple(tuple(row) for row in rows)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        return Matrix(ring, len(grid), cols, grid)

    @property
    def entries(self) -> tuple[tuple[Any, ...], ...]:
        """A dense, read-only copy as a tuple of rows; builds all
        rows * cols cells on every access."""
        zero = ring_ops(self.ring).zero
        blank = (zero,) * self.cols
        out = []
        for i in range(self.rows):
            row = self._rows.get(i)
            if row is None:
                out.append(blank)
                continue
            dense = list(blank)
            for j, x in row.items():
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def __getitem__(self, idx: tuple[int, int]):
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index {idx} outside a {self.rows}x{self.cols} matrix")
        return self._rows.get(i, _EMPTY).get(j, ring_ops(self.ring).zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        cells = frozenset((i, frozenset(row.items())) for i, row in self._rows.items())
        return hash((self.ring, self.rows, self.cols, cells))

    def __repr__(self) -> str:
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self._rows})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("sum of differently shaped matrices")
        p = self.ring.p
        out = dict(self._rows)
        for i, brow in other._rows.items():
            arow = out.get(i)
            if arow is None:
                out[i] = brow
                continue
            row = dict(arow)
            for j, y in brow.items():
                z = row.get(j, 0) + y
                if p:
                    z %= p
                if z:
                    row[j] = z
                else:
                    del row[j]
            if row:
                out[i] = row
            else:
                del out[i]
        return _make(self.ring, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        p = self.ring.p
        right = other._rows
        out = {}
        for i, arow in self._rows.items():
            acc: dict = {}
            for k, x in arow.items():
                brow = right.get(k)
                if brow is not None:
                    for j, y in brow.items():
                        acc[j] = acc.get(j, 0) + x * y
            if p:
                acc = {j: z % p for j, z in acc.items() if z % p}
            else:
                acc = {j: z for j, z in acc.items() if z}
            if acc:
                out[i] = acc
        return _make(self.ring, self.rows, other.cols, out)

    def scale(self, c) -> "Matrix":
        c = ring_ops(self.ring).canon(c)
        p = self.ring.p
        if not c:
            out = {}
        elif p:
            out = {i: {j: c * x % p for j, x in row.items()} for i, row in self._rows.items()}
        else:
            out = {i: {j: c * x for j, x in row.items()} for i, row in self._rows.items()}
        return _make(self.ring, self.rows, self.cols, out)

    def transpose(self) -> "Matrix":
        return _make(self.ring, self.cols, self.rows, _columns(self))

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def change_ring(self, ring: RingTag) -> "Matrix":
        """The same entries mapped into ring (dropping those that become
        zero); RingError when an entry has no image there."""
        rows = _canonical_rows(ring, ((i, row.items()) for i, row in self._rows.items()))
        return _make(ring, self.rows, self.cols, rows)

    def col_select(self, idxs: Iterable[int]) -> "Matrix":
        idxs = list(idxs)
        _check_indices(idxs, self.cols, "column")
        targets: dict[int, list[int]] = {}
        for n, j in enumerate(idxs):
            targets.setdefault(j, []).append(n)
        out = {}
        for i, row in self._rows.items():
            new = {n: x for j, x in row.items() for n in targets.get(j, ())}
            if new:
                out[i] = new
        return _make(self.ring, self.rows, len(idxs), out)

    def row_select(self, idxs: Iterable[int]) -> "Matrix":
        idxs = list(idxs)
        _check_indices(idxs, self.rows, "row")
        data = self._rows
        out = {n: data[i] for n, i in enumerate(idxs) if i in data}
        return _make(self.ring, len(idxs), self.cols, out)

    def _match(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise RingError(f"mixed rings {self.ring} and {other.ring}")


_set_ring = Matrix.ring.__set__
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_data = Matrix._rows.__set__
_EMPTY: dict = {}


def _make(ring: RingTag, rows: int, cols: int, data: dict) -> Matrix:
    """A matrix from nonzero rows that are canonical by construction: every
    key in range, every row nonempty, every entry canonical and nonzero.
    The rows are shared, never copied, so no caller may change them later."""
    m = object.__new__(Matrix)
    _set_ring(m, ring)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_data(m, data)
    return m


def _canonical_rows(ring: RingTag, rows) -> dict:
    """The nonzero rows of rows, an iterable of (row index, iterable of
    (column, entry)) pairs, with every entry canonicalized into ring;
    RingError when an entry has no image there."""
    canon = ring_ops(ring).canon
    out = {}
    try:
        for i, row in rows:
            new = {}
            for j, x in row:
                x = canon(x)
                if x:
                    new[j] = x
            if new:
                out[i] = new
    except (TypeError, ArithmeticError) as exc:
        raise RingError(f"cannot convert entries to {ring}: {exc}") from exc
    return out


def _columns(a: Matrix) -> dict[int, dict]:
    """The nonzero columns of a as fresh {row: entry} dicts."""
    cols: dict[int, dict] = {}
    for i, row in a._rows.items():
        for j, x in row.items():
            col = cols.get(j)
            if col is None:
                cols[j] = {i: x}
            else:
                col[i] = x
    return cols


def _check_indices(idxs: list[int], bound: int, kind: str) -> None:
    for k in idxs:
        if not 0 <= k < bound:
            raise ShapeError(f"{kind} index {k} outside 0..{bound - 1}")


def zeros(ring: RingTag, rows: int, cols: int) -> Matrix:
    if rows < 0 or cols < 0:
        raise ShapeError("negative dimensions")
    return _make(ring, rows, cols, {})


def identity(ring: RingTag, n: int) -> Matrix:
    if n < 0:
        raise ShapeError("negative dimensions")
    one = ring_ops(ring).one
    return _make(ring, n, n, {i: {i: one} for i in range(n)})


def hcat(ring: RingTag, rows: int, mats: Iterable[Matrix]) -> Matrix:
    out: dict[int, dict] = {}
    offset = 0
    for m in mats:
        if m.rows != rows:
            raise ShapeError("hcat with mismatched row counts")
        if m.ring != ring:
            raise RingError("hcat with mixed rings")
        for i, row in m._rows.items():
            new = out.get(i)
            if new is None:
                new = out[i] = {}
            for j, x in row.items():
                new[j + offset] = x
        offset += m.cols
    return _make(ring, rows, offset, out)


def vcat(ring: RingTag, cols: int, mats: Iterable[Matrix]) -> Matrix:
    out: dict[int, dict] = {}
    offset = 0
    for m in mats:
        if m.cols != cols:
            raise ShapeError("vcat with mismatched column counts")
        if m.ring != ring:
            raise RingError("vcat with mixed rings")
        for i, row in m._rows.items():
            out[i + offset] = row
        offset += m.rows
    return _make(ring, offset, cols, out)


def block_matrix(
    ring: RingTag,
    row_sizes: list[int],
    col_sizes: list[int],
    blocks: dict[tuple[int, int], Matrix],
) -> Matrix:
    """Assemble a matrix from blocks; absent blocks are zero."""
    row_off = [0]
    for r in row_sizes:
        row_off.append(row_off[-1] + r)
    col_off = [0]
    for c in col_sizes:
        col_off.append(col_off[-1] + c)
    out: dict[int, dict] = {}
    for (bi, bj), m in blocks.items():
        if m.rows != row_sizes[bi] or m.cols != col_sizes[bj]:
            raise ShapeError(f"block ({bi},{bj}) has shape {m.rows}x{m.cols}")
        if m.ring != ring:
            raise RingError("block with mixed ring")
        r0, c0 = row_off[bi], col_off[bj]
        for i, row in m._rows.items():
            new = out.get(r0 + i)
            if new is None:
                new = out[r0 + i] = {}
            for j, x in row.items():
                new[c0 + j] = x
    return _make(ring, row_off[-1], col_off[-1], out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the row-major basis convention:
    basis vector i*b.cols + j of the source is e_i (x) e_j."""
    a._match(b)
    p = a.ring.p
    br, bc = b.rows, b.cols
    out = {}
    for i, arow in a._rows.items():
        for k, brow in b._rows.items():
            if p:
                row = {j * bc + l: x * y % p for j, x in arow.items() for l, y in brow.items()}
            else:
                row = {j * bc + l: x * y for j, x in arow.items() for l, y in brow.items()}
            out[i * br + k] = row
    return _make(a.ring, a.rows * br, a.cols * bc, out)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == S with U, V invertible and S diagonal, the diagonal
    forming a divisibility chain (normalized positive over Z, to 1 over fields)."""

    matrix: Matrix
    u: Matrix
    s: Matrix
    v: Matrix
    u_inv: Matrix
    v_inv: Matrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d)

    def diagonal(self) -> list:
        return [self.s[t, t] for t in range(min(self.s.rows, self.s.cols))]


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    """U @ a @ V == S by alternating column Hermite forms of [A; I] and
    [Aᵀ; I] (Kannan-Bachem 1979) until each row and column holds at most one
    entry: the tails of the reduced lines build one transform, the other side
    carries the other. The pivots go onto the diagonal in pivot order; over Z
    Bezout steps make them a divisibility chain. Hermite passes leave the
    pivots positive (1 over a field) and Bezout steps keep them so. The
    inverses come from solve."""
    ring = a.ring
    lines = _identity_tails(a)
    cross = [{i: ring_ops(ring).one} for i in range(a.rows)]
    transposed = False
    while True:
        basis, null = _hermite_pairs(ring, lines)
        line_tails = [tail for _, _, tail in basis] + [tail for _, tail in null]
        if all(len(head) == 1 for _, head, _ in basis):
            break
        heads = [{} for _ in cross]
        for k, (_, head, _) in enumerate(basis):
            for i, x in head.items():
                heads[i][k] = x
        lines, cross = list(zip(heads, cross)), line_tails
        transposed = not transposed
    rest = dict(enumerate(cross))
    cross_tails = [rest.pop(r) for r, _, _ in basis] + list(rest.values())
    rows, cols = (line_tails, cross_tails) if transposed else (cross_tails, line_tails)
    if ring.kind == "Z":
        _bezout_chain([head[r] for r, head, _ in basis], rows, cols)
    u = _make(ring, a.rows, a.rows, dict(enumerate(rows)))
    v = _make(ring, a.cols, a.cols, dict(enumerate(cols))).transpose()
    return SmithDecomposition(
        matrix=a,
        u=u,
        s=u @ a @ v,
        v=v,
        u_inv=solve(u, identity(ring, a.rows)),
        v_inv=solve(v, identity(ring, a.cols)),
    )


def _bezout_chain(diag: list, rows: list, cols: list) -> None:
    """Make the positive integer diagonal diag a divisibility chain in
    place: each pair a, b with a before b and a not dividing b becomes
    g = gcd(a, b) = s a + t b and a b / g, by the unimodular rows
    [[s, t], [-b/g, a/g]] on rows and columns [[1, -t b/g], [1, s a/g]] on
    cols. Once a position has met every later one it divides them all, and
    later steps keep that."""
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a == 0:
                continue
            g = gcd(a, b)
            s = pow(a // g, -1, b // g)
            t = (g - s * a) // b
            rows[i], rows[j] = _combine(s, rows[i], t, rows[j]), _combine(-b // g, rows[i], a // g, rows[j])
            cols[i], cols[j] = _combine(1, cols[i], 1, cols[j]), _combine(-t * b // g, cols[i], s * a // g, cols[j])
            diag[i], diag[j] = g, a // g * b


def _combine(c: int, x: dict, d: int, y: dict) -> dict:
    """c * x + d * y for sparse integer vectors, keeping only nonzero
    entries."""
    out = {k: c * z for k, z in x.items()} if c else {}
    _sub_multiple(out, -d, y, 0)
    return out


def invariant_factors(a: Matrix) -> tuple:
    """The nonzero diagonal of the Smith form of a, in divisibility order
    (all ones over a field): the rank is its length and its non-unit entries
    are the cokernel's torsion. Eliminates over copies of the sparse rows,
    taken in row and column order, with native arithmetic and tracks no
    transform (Dumas-Saunders-Villard 2001)."""
    ring = a.ring
    rows = [dict(sorted(row.items())) for _, row in sorted(a._rows.items())]
    if ring.kind == "Z":
        return tuple(_integer_invariants(rows))
    if ring.kind == "F":
        rank = _field_rank(rows, ring.p)
    else:
        rank = _rational_rank([_integer_row(row) for row in rows])
    return (ring_ops(ring).one,) * rank


def _integer_row(row: dict) -> dict:
    """A sparse row of fractions scaled by the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in row.items()}


def _sub_multiple(col: dict, q, piv: dict, p: int) -> None:
    """col -= q * piv in place, mod p when p is nonzero, keeping only
    nonzero entries."""
    for j, y in piv.items():
        z = col.get(j, 0) - q * y
        if p:
            z %= p
        if z:
            col[j] = z
        else:
            col.pop(j, None)


def _integer_invariants(rows: list[dict]) -> list[int]:
    """The invariant factors of the integer matrix with these sparse rows,
    tracking no transform: pivot on the smallest |entry| (the first unit
    found), reduce the pivot column by Euclid steps on rows, then the pivot
    row by Euclid steps on columns, which touch no other row because the
    pivot column is clear; a pivot that leaves a remainder is replaced by
    it. A clear pivot that does not divide some entry gets that entry's row
    added to its own; one that divides every entry left is the next factor.
    Every step that records no factor leaves a smaller least |entry|, so
    the loop ends."""
    out = []
    while rows:
        prow, c = _smallest_entry(rows)
        v = prow[c]
        dirty = False
        for row in rows:
            x = row.get(c)
            if x is None or row is prow:
                continue
            _sub_multiple(row, x // v, prow, 0)
            dirty = dirty or c in row
        rows = [row for row in rows if row]
        if dirty:
            continue
        for j, y in list(prow.items()):
            if j != c:
                if y % v:
                    prow[j] = y % v
                    dirty = True
                else:
                    del prow[j]
        if dirty:
            continue
        if v != 1 and v != -1:
            offender = next((row for row in rows if any(x % v for x in row.values())), None)
            if offender is not None:
                # add the offender's row and clear it by columns at once, so
                # the next pivot is a remainder smaller than |v|
                prow.update((j, x % v) for j, x in offender.items() if x % v)
                continue
        out.append(abs(v))
        rows = [row for row in rows if row is not prow]
    return out


def _smallest_entry(rows: list[dict]) -> tuple[dict, int]:
    """The row and column of an entry of least absolute value, the first
    unit met if there is one."""
    best, size = None, 0
    for row in rows:
        for j, x in row.items():
            if x == 1 or x == -1:
                return row, j
            if best is None or abs(x) < size:
                best, size = (row, j), abs(x)
    return best


def _field_rank(rows: list[dict], p: int) -> int:
    """The rank mod p of the matrix with these sparse rows of residues."""
    rank = 0
    while rows:
        prow = min(rows, key=len)
        c, v = next(iter(prow.items()))
        inv = pow(v, -1, p)
        for row in rows:
            x = row.get(c)
            if x is None or row is prow:
                continue
            _sub_multiple(row, x * inv % p, prow, p)
        rows = [row for row in rows if row and row is not prow]
        rank += 1
    return rank


def _rational_rank(rows: list[dict]) -> int:
    """The rank over Q of the integer matrix with these sparse rows, by
    fraction-free elimination, each new row divided by its content."""
    rank = 0
    while rows:
        prow = min(rows, key=len)
        c, v = next(iter(prow.items()))
        for k, row in enumerate(rows):
            x = row.get(c)
            if x is None or row is prow:
                continue
            g = gcd(v, x)
            a, b = v // g, x // g
            new = {j: a * y for j, y in row.items()}
            _sub_multiple(new, b, prow, 0)
            if new:
                content = gcd(*new.values())
                if content != 1:
                    new = {j: y // content for j, y in new.items()}
            rows[k] = new
        rows = [row for row in rows if row and row is not prow]
        rank += 1
    return rank


def _eliminate_columns(ring: RingTag, cols: list[tuple[dict, dict]]) -> tuple[list, list]:
    """Column-reduce cols, pairs (head, tail) of sparse {row: entry}
    columns, in place, bottom row first: the columns whose heads end in
    the current row are reduced over Z by Euclid steps on the smallest
    |entry| with unimodular column operations only, over a field by pivot
    and clear, until one (the pivot) is left. Tails ride along, so they
    record the column transform when they start as the identity.
    Returns the pivots as (row, column) pairs, bottom row first, each head
    zero below its row, and the columns whose heads are now zero."""
    p = ring.p
    by_low: dict[int, list] = {}
    lows: list[int] = []
    null = []

    def place(col) -> None:
        if not col[0]:
            null.append(col)
            return
        low = max(col[0])
        bucket = by_low.get(low)
        if bucket is None:
            by_low[low] = [col]
            heappush(lows, -low)
        else:
            bucket.append(col)

    for col in cols:
        place(col)
    pivots = []
    while lows:
        r = -heappop(lows)
        active = by_low.pop(r)
        if ring.kind == "Z":
            while len(active) > 1:
                piv = min(active, key=lambda c: abs(c[0][r]))
                left = [piv]
                for col in active:
                    if col is not piv:
                        q = col[0][r] // piv[0][r]
                        _sub_multiple(col[0], q, piv[0], 0)
                        _sub_multiple(col[1], q, piv[1], 0)
                        if r in col[0]:
                            left.append(col)
                        else:
                            place(col)
                active = left
        else:
            piv = active[0]
            inv = pow(piv[0][r], -1, p) if p else 1 / piv[0][r]
            for col in active[1:]:
                q = col[0][r] * inv % p if p else col[0][r] * inv
                _sub_multiple(col[0], q, piv[0], p)
                _sub_multiple(col[1], q, piv[1], p)
                place(col)
        pivots.append((r, active[0]))
    return pivots, null


def canonical_columns(b: Matrix) -> Matrix:
    """The bottom-up column Hermite normal form of the lattice the columns
    span over Z (over a field, the reduced column echelon form of the span);
    dependent columns drop out. Columns end up sorted by lowest nonzero row,
    that entry positive (1 over a field) and the entries in other columns at
    pivot rows reduced. Each column is reduced against the nearest pivot
    first, so no later step undoes an earlier one and the result depends
    only on the lattice (over a field, the span)."""
    return _hermite(b.ring, b.rows, list(_columns(b).values()))


def _hermite(ring: RingTag, rows: int, cols: list[dict]) -> Matrix:
    """canonical_columns of the matrix with `rows` rows and these sparse
    columns, which it consumes."""
    basis, _ = _hermite_pairs(ring, [(col, {}) for col in cols])
    return _make(ring, len(basis), rows, {n: head for n, (_, head, _) in enumerate(basis)}).transpose()


def _hermite_pairs(ring: RingTag, cols: list[tuple[dict, dict]]) -> tuple[list, list]:
    """canonical_columns of the heads of cols, pairs (head, tail), with the
    tails riding along: the pivot columns as (row, head, tail) triples by
    increasing pivot row, and the pairs whose heads are now zero."""
    p = ring.p
    pivots, null = _eliminate_columns(ring, cols)
    basis = []
    for r, (head, tail) in reversed(pivots):
        v = head[r]
        if ring.kind == "Z":
            c = -1 if v < 0 else 1
        else:
            c = pow(v, -1, p) if p else 1 / v
        if c != 1:
            head, tail = _scaled(head, c, p), _scaled(tail, c, p)
        basis.append((r, head, tail))
    for n, (_, col, tail) in enumerate(basis):
        for r, piv, piv_tail in reversed(basis[:n]):
            a = col.get(r)
            if a is None:
                continue
            # field pivots are 1
            q = a // piv[r] if ring.kind == "Z" else a
            if q:
                _sub_multiple(col, q, piv, p)
                _sub_multiple(tail, q, piv_tail, p)
    return basis, null


def _scaled(col: dict, c, p: int) -> dict:
    """c * col, mod p when p is nonzero, for a unit c."""
    if p:
        return {i: x * c % p for i, x in col.items()}
    return {i: x * c for i, x in col.items()}


def _identity_tails(a: Matrix) -> list[tuple[dict, dict]]:
    """The columns of [A; I] as (head, tail) pairs; the column operations
    keep a @ tail == head."""
    one = ring_ops(a.ring).one
    heads = _columns(a)
    return [(heads.get(j, {}), {j: one}) for j in range(a.cols)]


def kernel_basis(a: Matrix) -> Matrix:
    """Columns form a basis of ker(a); over Z the full kernel lattice: the
    transform part of the columns of [A; I] whose A-part eliminates to zero."""
    _, null = _eliminate_columns(a.ring, _identity_tails(a))
    return _hermite(a.ring, a.cols, [tail for _, tail in null])


def image_basis(a: Matrix) -> Matrix:
    """Columns form a basis of the column span; over Z the image lattice."""
    return canonical_columns(a)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """An exact solution x of a @ x = b (column by column), or None when
    some column of b is outside the column lattice of a (over a field, its
    span). The column elimination of [A; I] gives A V = H, the pivot
    columns of H in echelon form; each column of b is reduced against them
    bottom row first, dividing at each pivot, and x collects the matching
    columns of V; whatever is left of b means no solution. The answer
    depends only on (a, b)."""
    a._match(b)
    if a.rows != b.rows:
        raise ShapeError(f"solve: {a.rows} rows vs {b.rows} rows")
    ring = a.ring
    p = ring.p
    pivots, _ = _eliminate_columns(ring, _identity_tails(a))
    x = {}
    for k, residual in _columns(b).items():
        col: dict = {}
        for r, (head, tail) in pivots:
            y = residual.get(r)
            if y is None:
                continue
            v = head[r]
            # over Z a remainder stays in row r, which no later pivot reaches
            if ring.kind == "Z":
                q = y // v
            else:
                q = y * pow(v, -1, p) % p if p else y / v
            _sub_multiple(residual, q, head, p)
            _sub_multiple(col, -q, tail, p)
        if residual:
            return None
        if col:
            x[k] = col
    return _make(ring, b.cols, a.cols, x).transpose()


def torsion(factors: tuple) -> tuple[int, ...]:
    """The invariant factors that are not units: the cokernel's torsion
    (always empty over a field)."""
    return tuple(d for d in factors if d != 1)


def is_surjective(a: Matrix) -> bool:
    factors = invariant_factors(a)
    return len(factors) == a.rows and not torsion(factors)


def is_injective(a: Matrix) -> bool:
    return len(invariant_factors(a)) == a.cols


def has_free_cokernel(a: Matrix) -> bool:
    return not torsion(invariant_factors(a))


@dataclass(frozen=True)
class HomologyGroup:
    """One homology group: free rank plus torsion invariant factors (each > 1,
    forming a divisibility chain; always empty over a field)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def homology_at(d_in: Matrix, d_out: Matrix) -> HomologyGroup:
    """Present ker(d_out) / im(d_in): free rank dim - rk d_out - rk d_in,
    torsion the non-unit invariant factors of d_in."""
    d_in._match(d_out)
    if d_out.cols != d_in.rows:
        raise ShapeError(
            f"homology_at: ambient rank {d_out.cols} vs {d_in.rows}"
        )
    if not (d_out @ d_in).is_zero:
        raise NotAComplex("composite differential is nonzero")
    arriving = invariant_factors(d_in)
    return HomologyGroup(
        d_in.rows - len(invariant_factors(d_out)) - len(arriving), torsion(arriving)
    )


def homology_to_json(h: HomologyGroup) -> dict:
    out: dict = {"rank": h.free_rank}
    if h.torsion:
        out["torsion"] = list(h.torsion)
    return out


def mat_to_json(a: Matrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [
            [scalar_to_json(a.ring, x) for x in row] for row in a.entries
        ],
    }


def mat_from_json(obj, ring: RingTag, path: str = "matrix") -> Matrix:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ValueError(f"{path}: rows/cols must be naturals")
    grid = obj["entries"]
    if not isinstance(grid, list) or len(grid) != rows:
        raise ValueError(f"{path}.entries: expected {rows} rows")
    data = {}
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"{path}.entries[{i}]: expected {cols} entries")
        try:
            new = {j: x for j, x in enumerate(scalar_from_json(ring, v) for v in row) if x}
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"{path}.entries[{i}]: {exc}") from exc
        if new:
            data[i] = new
    return _make(ring, rows, cols, data)
