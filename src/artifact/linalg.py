"""Exact sparse matrix algebra over the supported coefficient rings.

Matrices act on column vectors, so the composite g o f is the product G @ F.
Over the integers every basis this module returns is saturated: kernel bases
generate the full kernel lattice, image bases the full image lattice.
Over F2 (ring.p == 2) ranks and null spaces come from one XOR elimination
of integer bitmasks; everything else eliminates sparse dicts, by one column
elimination for every ring, and F_p ranks hand over to packed rows once they
fill in. Dense integer invariant factors come from one fraction-free
elimination and a local Smith form per prime of a small certified divisor,
not Euclid steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Any, Iterable, Iterator, Optional

from .errors import NotAComplex, RingError, ShapeError
from .rings import RingTag, canonical_int, ring_ops, scalar_from_json, scalar_to_json


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
        rows, cols = self.rows, self.cols
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise _dimension_error(rows, cols)
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
        if not (type(i) is type(j) is int and 0 <= i < self.rows and 0 <= j < self.cols):
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
        return _plus(self, 1, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _plus(self, -1, other)

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
        out = {i: _scaled(row, c, self.ring.p) for i, row in self._rows.items()} if c else {}
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


def _plus(a: Matrix, sign: int, b: Matrix) -> Matrix:
    """a + b for sign 1 and a - b for sign -1, row by row with one ring
    operation per entry where both have a row; a row only a has is shared,
    and so, in a sum, is a row only b has."""
    a._match(b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("sum of differently shaped matrices")
    p = a.ring.p
    out = dict(a._rows)
    for i, brow in b._rows.items():
        row = out.get(i)
        if row is None:
            out[i] = brow if sign > 0 else _scaled(brow, -1, p)
            continue
        row = dict(row)
        for j, y in brow.items():
            z = row.get(j, 0) + y if sign > 0 else row.get(j, 0) - y
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
    return _make(a.ring, a.rows, a.cols, out)


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
        if type(k) is not int or not 0 <= k < bound:
            if type(k) is not int:
                raise ShapeError(f"{kind} index must be an integer")
            raise ShapeError(f"{kind} index {k} outside 0..{bound - 1}")


def _dimension_error(*dims) -> ShapeError:
    """The error for sizes that are not all nonnegative ints; a bool is
    not one, though it compares equal to one."""
    if all(type(n) is int for n in dims):
        return ShapeError("negative dimensions")
    return ShapeError("dimensions must be integers")


def zeros(ring: RingTag, rows: int, cols: int) -> Matrix:
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise _dimension_error(rows, cols)
    return _make(ring, rows, cols, {})


def identity(ring: RingTag, n: int) -> Matrix:
    if type(n) is not int or n < 0:
        raise _dimension_error(n)
    one = ring_ops(ring).one
    return _make(ring, n, n, {i: {i: one} for i in range(n)})


def hcat(ring: RingTag, rows: int, mats: Iterable[Matrix]) -> Matrix:
    if type(rows) is not int or rows < 0:
        raise _dimension_error(rows)
    out: dict[int, dict] = {}
    offset = 0
    for m in mats:
        if m.rows != rows:
            raise ShapeError("hcat with mismatched row counts")
        if m.ring != ring:
            raise RingError("hcat with mixed rings")
        _write_block(out, m, 0, offset, 0)
        offset += m.cols
    return _make(ring, rows, offset, out)


def vcat(ring: RingTag, cols: int, mats: Iterable[Matrix]) -> Matrix:
    if type(cols) is not int or cols < 0:
        raise _dimension_error(cols)
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
        if type(r) is not int or r < 0:
            raise _dimension_error(r)
        row_off.append(row_off[-1] + r)
    col_off = [0]
    for c in col_sizes:
        if type(c) is not int or c < 0:
            raise _dimension_error(c)
        col_off.append(col_off[-1] + c)
    out: dict[int, dict] = {}
    # indexing past the end raises IndexError; a negative index would count from the end
    try:
        for (bi, bj), m in blocks.items():
            if bi < 0 or bj < 0:
                raise IndexError
            height, width = row_sizes[bi], col_sizes[bj]
            if m.rows != height or m.cols != width:
                raise ShapeError(f"block ({bi},{bj}) has shape {m.rows}x{m.cols}")
            if m.ring != ring:
                raise RingError("block with mixed ring")
            _write_block(out, m, row_off[bi], col_off[bj], 0)
    except IndexError:
        raise ShapeError(f"block ({bi},{bj}) lies outside the block grid") from None
    return _make(ring, row_off[-1], col_off[-1], out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the row-major basis convention:
    basis vector i*b.cols + j of the source is e_i (x) e_j."""
    a._match(b)
    out: dict[int, dict] = {}
    _write_block(out, (1, a, b), 0, 0, a.ring.p)
    return _make(a.ring, a.rows * b.rows, a.cols * b.cols, out)


def _write_block(out: dict, term, r0: int, c0: int, p: int) -> None:
    """Write the entries of the term, a matrix or (sign, a, b) for
    sign * kron(a, b), into the rows of out shifted by (r0, c0), the
    Kronecker entries reduced mod p when p is nonzero; a stored matrix's
    rows are copied, never shared."""
    if type(term) is Matrix:
        for i, row in term._rows.items():
            new = out.get(r0 + i)
            if new is None:
                new = out[r0 + i] = {}
            for j, x in row.items():
                new[c0 + j] = x
        return
    sign, a, b = term
    br, bc = b.rows, b.cols
    for i, arow in a._rows.items():
        for k, brow in b._rows.items():
            new = out.get(r0 + i * br + k)
            if new is None:
                new = out[r0 + i * br + k] = {}
            for j, x in arow.items():
                at, x = c0 + j * bc, sign * x
                for l, y in brow.items():
                    new[at + l] = x * y % p if p else x * y


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
    carries the other. S is read off the pivots, not multiplied out: they go
    onto the diagonal in pivot order, and over Z Bezout steps make them a
    divisibility chain. Hermite passes leave the pivots positive (1 over a
    field) and Bezout steps keep them so. The inverses come from solve."""
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
    diag = [head[r] for r, head, _ in basis]
    if ring.kind == "Z":
        _bezout_chain(diag, rows, cols)
    u = _make(ring, a.rows, a.rows, dict(enumerate(rows)))
    v = _make(ring, a.cols, a.cols, dict(enumerate(cols))).transpose()
    return SmithDecomposition(
        matrix=a,
        u=u,
        s=_make(ring, a.rows, a.cols, {t: {t: d} for t, d in enumerate(diag)}),
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
    are the cokernel's torsion. Over F2 each row is one bitmask; otherwise
    eliminates over copies of the sparse rows, taken in row and column
    order, with native arithmetic, and over other F_p hands the rows still
    left to packed elimination once they fill in. A dense integer matrix
    (see _CERTIFY_AT) is first certified from its determinant, and takes
    Euclid steps only if that gives up. Tracks no transform
    (Dumas-Saunders-Villard 2001)."""
    ring = a.ring
    if ring.p == 2:
        return (1,) * _f2_eliminate(_f2_masks(a._rows.values()))[0]
    rows = [dict(sorted(row.items())) for _, row in sorted(a._rows.items())]
    if ring.kind == "Z":
        dense = rows and _CERTIFY_AT <= len(rows) <= a.cols and all(2 * len(row) >= a.cols for row in rows)
        return (dense and _certified_invariants(rows, a.cols)) or tuple(_integer_invariants(rows))
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


# Integer matrices of at least this many nonzero rows, no more rows than
# columns and every row at least half full try _certified_invariants first:
# twice as fast as Euclid steps at 16x16, four times at 40x40.
_CERTIFY_AT = 16


def _certified_invariants(rows: list[dict], cols: int) -> Optional[tuple]:
    """The invariant factors s_1 | ... | s_n of the integer matrix with
    these n <= cols sparse rows, or None when its first n columns S are
    singular or g does not factor by trial division below 2^12. Bareiss
    elimination of [S | B] and back substitution give |det S| and
    g = gcd(|det S|, det S * S^-1 B), B the next two columns (the one left
    when n + 1 == cols), or two fixed ones when n == cols. Each s_i with
    i < n (i <= n when n < cols) divides g: |det S| / g is the lcm of the
    denominators of S^-1 B, which divides s_n, and when n < cols g is a gcd
    of maximal minors, whichever columns B takes. For q^e
    exactly dividing g, q prime, q divides the factors after s_r, r the
    rank mod q, and their q-parts multiply to at most q^e: each is q when
    there are e of them, else a local Smith form mod q^(e+1) reads them.
    When n == cols, s_n is |det S| over the others."""
    n = len(rows)
    rhs = [[i * i + 1, (-1) ** i * (3 * i + 2)] if n == cols else [] for i in range(n)]
    grid = [[row.get(j, 0) for j in range(min(cols, n + 2))] + b for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if grid[i][k]), None)
        if p is None:
            return None
        grid[k], grid[p] = grid[p], grid[k]
        piv, d = grid[k][k + 1 :], grid[k][k]
        for line in grid[k + 1 :]:
            x = line[k]
            line[k + 1 :] = [(d * y - x * z) // prev for y, z in zip(line[k + 1 :], piv)]
        prev = d
    g = det = abs(prev)
    for c in range(n, len(grid[0])):
        y = [0] * n
        for i, line in reversed(list(enumerate(grid))):
            y[i] = (prev * line[c] - sum(line[j] * y[j] for j in range(i + 1, n))) // line[i]
        g = gcd(g, *y)
    count = n - 1 if n == cols else n
    out, rest, q = [1] * count, g, 1
    while rest > 1:
        q = q + 1 if (q + 1) ** 2 <= rest else rest
        if q != rest and q >> 12:
            return None
        e = 0
        while rest % q == 0:
            rest, e = rest // q, e + 1
        if e:
            reduced = [row for row in ({j: x % q for j, x in row.items() if x % q} for row in rows) if row]
            r = _f2_eliminate(_f2_masks(reduced))[0] if q == 2 else _field_rank(reduced, q)
            local = [q] * (count - r) if count - r in (0, e) else _local_factors(rows, q, q ** (e + 1))[r:count]
            for i, t in enumerate(local, r):
                out[i] *= t
    if n == cols:
        out.append(det // prod(out))
    return tuple(out)


def _local_factors(rows: list[dict], q: int, mod: int) -> list[int]:
    """The q-parts q^v, in order, of those invariant factors of the integer
    matrix with these sparse rows that mod, a power of q, does not divide:
    on residues mod mod, pivot on an entry of least valuation v (a unit if
    one is left), scale its row by a unit to make it q^v, clear its column."""
    work = [row for row in ({j: x % mod for j, x in row.items() if x % mod} for row in rows) if row]
    out = []
    while work:
        t = mod
        for row in work:
            for j, x in row.items():
                if x % t:
                    t, prow, c = gcd(x, mod), row, j
            if t == 1:
                break
        piv = _scaled(prow, pow(prow[c] // t, -1, mod), mod)
        for row in work:
            y = row.get(c)
            if y is not None and row is not prow:
                _sub_multiple(row, y // t, piv, mod)
        work = [row for row in work if row and row is not prow]
        out.append(t)
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


# Sparse elimination over F_p hands over to packed rows once at least this
# many rows are left and every one of them holds at least this many
# nonzeros.  Chosen from the sparse-against-packed tables in CHANGES.md,
# rerun for slots of exactly bits(p² * rows) bits: packed rows lose below
# about 12x12 and on rows that stay very sparse.
_PACK_AT = 12


def _f2_eliminate(vectors: Iterable[tuple[int, int]]) -> tuple[int, list[int]]:
    """The rank mod 2 of the bitmasks of vectors, (mask, tail) pairs, and the
    tails of those whose masks reduce to zero. Each mask is reduced by XOR
    against the pivots found so far, keyed by leading bit (M4RI,
    Albrecht-Bard-Hart 2010), and its tail is XORed along with it, so tails
    that start as distinct bits record which of the masks sum to zero."""
    pivots: dict[int, tuple[int, int]] = {}
    null = []
    for m, t in vectors:
        while m:
            lead = m.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = m, t
                break
            m ^= piv[0]
            t ^= piv[1]
        else:
            null.append(t)
    return len(pivots), null


def _f2_masks(rows: Iterable[dict]):
    """Each sparse row mod 2 as one bitmask of its columns, with a zero
    tail: the rank input of _f2_eliminate."""
    bit = (1).__lshift__
    return ((sum(map(bit, row)), 0) for row in rows)


def _packed_rank(rows: list[dict], p: int) -> int:
    """The rank mod p of the matrix with these sparse rows of residues,
    each packed into one integer with a slot of bits(p² * len(rows)) bits
    per column present (Kronecker substitution, Dumas-Fousse-Salvy 2011),
    read back by shifts. A row is reduced mod p only when it becomes the
    pivot; every other row gains (p - x) times the pivot, so a slot grows
    by less than p² per pivot and stays below p² * len(rows) < 2^width:
    no carry crosses a slot."""
    slot: dict[int, int] = {}
    for row in rows:
        for j in row:
            if j not in slot:
                slot[j] = len(slot)
    width = (p * p * len(rows)).bit_length()
    shifts = [width * k for k in range(len(slot))]
    mask = (1 << width) - 1
    packed = [sum(x << shifts[slot[j]] for j, x in row.items()) for row in rows]
    rank = 0
    while packed and rank < len(slot):
        top = packed.pop()
        residues = [(top >> s & mask) % p for s in shifts]
        c = next((k for k, x in enumerate(residues) if x), None)
        if c is None:
            continue
        inv = pow(residues[c], -1, p)
        piv = sum((x * inv % p) << s for x, s in zip(residues[c:], shifts[c:]))
        s = shifts[c]
        for k, row in enumerate(packed):
            x = (row >> s & mask) % p
            if x:
                packed[k] = row + (p - x) * piv
        rank += 1
    return rank


def _field_rank(rows: list[dict], p: int) -> int:
    """The rank mod p of the matrix with these sparse rows of residues:
    pivot on a shortest row and clear its column, until the rows left fill
    in to _PACK_AT nonzeros each (Dumas-Villard 2002)."""
    rank = 0
    while rows:
        prow = min(rows, key=len)
        if len(prow) >= _PACK_AT and len(rows) >= _PACK_AT:
            return rank + _packed_rank(rows, p)
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
            new = _combine(v // g, row, -(x // g), prow)
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
    columns, in place, bottom row first, until one (the pivot) is left of
    the columns whose heads end in the current row: over Z by Euclid rounds
    on the smallest |entry| with unimodular column operations only, in a
    field by one round on the first column, scaled to 1. Tails ride along,
    so they record the column transform when they start as the identity.
    A reduced head ends above its row, so one scan from the lowest row up
    meets every column. Returns the pivots as (row, head, tail) triples,
    bottom row first, each head zero below its row and positive there over
    Z (1 in a field), and the columns whose heads are now zero."""
    p = ring.p
    field = ring.is_field
    by_low: dict[int, list] = {}
    null = []

    def place(col) -> None:
        if col[0]:
            by_low.setdefault(max(col[0]), []).append(col)
        else:
            null.append(col)

    for col in cols:
        place(col)
    pivots = []
    for r in range(max(by_low) if by_low else -1, -1, -1):
        active = by_low.pop(r, None)
        if active is None:
            continue
        if field:
            head, tail = active[0]
            c = pow(head[r], -1, p) if p else 1 / head[r]
            if c != 1:
                active[0] = (_scaled(head, c, p), _scaled(tail, c, p))
        while len(active) > 1:
            piv = active[0] if field else min(active, key=lambda c: abs(c[0][r]))
            head, tail = piv
            left = [piv]
            for col in active:
                if col is not piv:
                    y = col[0][r]
                    q = y if field else y // head[r]
                    _sub_multiple(col[0], q, head, p)
                    _sub_multiple(col[1], q, tail, p)
                    if r in col[0]:
                        left.append(col)
                    else:
                        place(col)
            active = left
        head, tail = active[0]
        # only now: a Z sign flipped mid-row would change the floor quotients
        if head[r] < 0:
            head, tail = _scaled(head, -1, p), _scaled(tail, -1, p)
        pivots.append((r, head, tail))
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
    pivots, null = _eliminate_columns(ring, cols)
    basis = pivots[::-1]
    for n, (_, head, tail) in enumerate(basis):
        _reduce(ring, head, tail, reversed(basis[:n]))
    return basis, null


def _reduce(ring: RingTag, head: dict, tail: dict, pivots) -> None:
    """Reduce the column (head, tail) in place against pivots, normalized
    (row, head, tail) triples by decreasing row: at each pivot's row,
    subtract the multiple of the pivot that clears the column's entry
    there, y // v over Z and y in a field. Over Z a remainder in [0, v)
    stays in that row, which no later pivot reaches."""
    p = ring.p
    field = ring.is_field
    for r, piv, piv_tail in pivots:
        y = head.get(r)
        if y is None:
            continue
        q = y if field else y // piv[r]
        if q:
            _sub_multiple(head, q, piv, p)
            _sub_multiple(tail, q, piv_tail, p)


def _scaled(col: dict, c, p: int) -> dict:
    """c * col, mod p when p is nonzero, for a nonzero c."""
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
    transform part of the columns of [A; I] whose A-part eliminates to zero.
    Over F2 the columns are bitmasks of their rows, with tails 1 << j; the
    canonical form of the null tails depends only on their span."""
    if a.ring.p == 2:
        heads: dict[int, int] = {}
        for i, row in a._rows.items():
            for j in row:
                heads[j] = heads.get(j, 0) | 1 << i
        _, null = _f2_eliminate((heads.get(j, 0), 1 << j) for j in range(a.cols))
        return _hermite(a.ring, a.cols, [_f2_vector(tail) for tail in null])
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
    bottom row first, and x collects the matching columns of V, negated;
    whatever is left of b means no solution. The answer depends only on
    (a, b)."""
    a._match(b)
    if a.rows != b.rows:
        raise ShapeError(f"solve: {a.rows} rows vs {b.rows} rows")
    ring = a.ring
    p = ring.p
    pivots, _ = _eliminate_columns(ring, _identity_tails(a))
    x: dict[int, dict] = {}
    for k, residual in _columns(b).items():
        col: dict = {}
        _reduce(ring, residual, col, pivots)
        if residual:
            return None
        for i, z in col.items():
            # p - z is -z over Z and Q (p = 0) and the residue of -z mod p
            x.setdefault(i, {})[k] = p - z
    return _make(ring, a.cols, b.cols, x)


def _f2_vector(mask: int) -> dict:
    """The sparse 0/1 vector on the set bits of mask."""
    return dict.fromkeys((i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"), 1)


def torsion(factors: tuple) -> tuple[int, ...]:
    """The invariant factors that are not units: the cokernel's torsion
    (always empty over a field)."""
    return tuple(d for d in factors if d != 1)


def _free_of_rank(factors: tuple, n: int) -> bool:
    """The invariant factors have rank n and no torsion: for n the rows the
    map is onto, for n the columns it is a split injection."""
    return len(factors) == n and not torsion(factors)


def is_surjective(a: Matrix) -> bool:
    return _free_of_rank(invariant_factors(a), a.rows)


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
    """Present ker(d_out) / im(d_in): degree 1 of the complex d_in, d_out,
    whose degree-0 group costs no elimination beyond d_out's."""
    d_in._match(d_out)
    if d_out.cols != d_in.rows:
        raise ShapeError(
            f"homology_at: ambient rank {d_out.cols} vs {d_in.rows}"
        )
    if not (d_out @ d_in).is_zero:
        raise NotAComplex("composite differential is nonzero")
    ranks, diffs = (d_out.rows, d_in.rows), {1: d_out, 2: d_in}
    _, h = _homology(ranks.__getitem__, diffs.__getitem__, 1)
    return h


def _homology(rank, diff, top: int) -> Iterator[HomologyGroup]:
    """Yield the homology in degrees 0..top of the complex of ranks rank(n)
    whose differential out of degree n is diff(n), known up to unimodular
    changes of basis: degree n has free rank rank(n) - rk diff(n) -
    rk diff(n + 1) and torsion the non-unit invariant factors of
    diff(n + 1).  The walk is lazy: diff(n + 1) is asked for and eliminated
    only when degree n is read, so a caller that stops at the first nonzero
    group eliminates nothing past it."""
    rank_out = 0
    for n in range(top + 1):
        arriving = invariant_factors(diff(n + 1))
        yield HomologyGroup(rank(n) - rank_out - len(arriving), torsion(arriving))
        rank_out = len(arriving)


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


def _json_object(obj, path: str, keys, optional=()) -> None:
    """Check that obj is an object holding every key in keys and no key
    outside keys and optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
    for key in obj:
        if key not in keys and key not in optional:
            raise ValueError(f"{path}.{key}: unknown key")


def _by_degree(raw, path: str, read) -> dict:
    """Parse an object keyed by degree, each value by read(value, path=its
    path)."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object")
    out = {}
    for key, val in raw.items():
        # one spelling per degree, so "1" and "01" cannot both name it
        n = canonical_int(key)
        if n is None:
            raise ValueError(
                f"{path}: degree keys must be integers in canonical decimal form, got {key!r}"
            )
        out[n] = read(val, path=f"{path}.{key}")
    return out


def _is_natural(x) -> bool:
    """x is a nonnegative int; JSON's true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def mat_from_json(obj, ring: RingTag, path: str = "matrix") -> Matrix:
    _json_object(obj, path, ("rows", "cols", "entries"))
    rows, cols = obj["rows"], obj["cols"]
    if not _is_natural(rows) or not _is_natural(cols):
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
