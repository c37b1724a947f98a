"""Exact dense matrix algebra over the supported coefficient rings.

Matrices act on column vectors, so the composite g o f is the product G @ F.
Over the integers every basis this module returns is saturated: kernel bases
generate the full kernel lattice, image bases the full image lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .errors import (
    DivisibilityError,
    NotAComplex,
    RingError,
    ShapeError,
)
from .rings import RingTag, ring_ops, scalar_from_json, scalar_to_json


@dataclass(frozen=True)
class Matrix:
    ring: RingTag
    rows: int
    cols: int
    entries: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(self.entries) != self.rows or any(
            len(row) != self.cols for row in self.entries
        ):
            raise ShapeError(
                f"entry grid does not match shape {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(ring: RingTag, rows: Iterable[Iterable[Any]], cols: int | None = None) -> "Matrix":
        ops = ring_ops(ring)
        grid = tuple(tuple(ops.canon(x) for x in row) for row in rows)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        return Matrix(ring, len(grid), cols, grid)

    def __getitem__(self, idx: tuple[int, int]):
        i, j = idx
        return self.entries[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("sum of differently shaped matrices")
        add = ring_ops(self.ring).add
        grid = tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return Matrix(self.ring, self.rows, self.cols, grid)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = ring_ops(self.ring).neg
        grid = tuple(tuple(neg(a) for a in row) for row in self.entries)
        return Matrix(self.ring, self.rows, self.cols, grid)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        ops = ring_ops(self.ring)
        zero, add, mul = ops.zero, ops.add, ops.mul
        out = []
        for i in range(self.rows):
            arow = self.entries[i]
            acc = [zero] * other.cols
            for k in range(self.cols):
                a = arow[k]
                if a == zero:
                    continue
                brow = other.entries[k]
                acc = [add(acc[j], mul(a, brow[j])) for j in range(other.cols)]
            out.append(tuple(acc))
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

    def scale(self, c) -> "Matrix":
        ops = ring_ops(self.ring)
        c = ops.canon(c)
        grid = tuple(tuple(ops.mul(c, a) for a in row) for row in self.entries)
        return Matrix(self.ring, self.rows, self.cols, grid)

    def transpose(self) -> "Matrix":
        grid = tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )
        return Matrix(self.ring, self.cols, self.rows, grid)

    @property
    def is_zero(self) -> bool:
        zero = ring_ops(self.ring).zero
        return all(a == zero for row in self.entries for a in row)

    def col_select(self, idxs: Iterable[int]) -> "Matrix":
        idxs = list(idxs)
        grid = tuple(tuple(row[j] for j in idxs) for row in self.entries)
        return Matrix(self.ring, self.rows, len(idxs), grid)

    def row_select(self, idxs: Iterable[int]) -> "Matrix":
        idxs = list(idxs)
        grid = tuple(self.entries[i] for i in idxs)
        return Matrix(self.ring, len(idxs), self.cols, grid)

    def _match(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise RingError(f"mixed rings {self.ring} and {other.ring}")


def zeros(ring: RingTag, rows: int, cols: int) -> Matrix:
    zero = ring_ops(ring).zero
    return Matrix(ring, rows, cols, tuple(tuple([zero] * cols) for _ in range(rows)))


def identity(ring: RingTag, n: int) -> Matrix:
    ops = ring_ops(ring)
    grid = tuple(
        tuple(ops.one if i == j else ops.zero for j in range(n)) for i in range(n)
    )
    return Matrix(ring, n, n, grid)


def hcat(ring: RingTag, rows: int, mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    for m in mats:
        if m.rows != rows:
            raise ShapeError("hcat with mismatched row counts")
        if m.ring != ring:
            raise RingError("hcat with mixed rings")
    grid = tuple(
        tuple(x for m in mats for x in m.entries[i]) for i in range(rows)
    )
    return Matrix(ring, rows, sum(m.cols for m in mats), grid)


def vcat(ring: RingTag, cols: int, mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    for m in mats:
        if m.cols != cols:
            raise ShapeError("vcat with mismatched column counts")
        if m.ring != ring:
            raise RingError("vcat with mixed rings")
    grid = tuple(row for m in mats for row in m.entries)
    return Matrix(ring, sum(m.rows for m in mats), cols, grid)


def block_matrix(
    ring: RingTag,
    row_sizes: list[int],
    col_sizes: list[int],
    blocks: dict[tuple[int, int], Matrix],
) -> Matrix:
    """Assemble a matrix from blocks; absent blocks are zero."""
    zero = ring_ops(ring).zero
    rows, cols = sum(row_sizes), sum(col_sizes)
    grid = [[zero] * cols for _ in range(rows)]
    row_off = [0]
    for r in row_sizes:
        row_off.append(row_off[-1] + r)
    col_off = [0]
    for c in col_sizes:
        col_off.append(col_off[-1] + c)
    for (bi, bj), m in blocks.items():
        if m.rows != row_sizes[bi] or m.cols != col_sizes[bj]:
            raise ShapeError(f"block ({bi},{bj}) has shape {m.rows}x{m.cols}")
        if m.ring != ring:
            raise RingError("block with mixed ring")
        r0, c0 = row_off[bi], col_off[bj]
        for i, row in enumerate(m.entries):
            grid[r0 + i][c0 : c0 + m.cols] = row
    return Matrix(ring, rows, cols, tuple(tuple(r) for r in grid))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the row-major basis convention:
    basis vector i*b.cols + j of the source is e_i (x) e_j."""
    a._match(b)
    mul = ring_ops(a.ring).mul
    rows, cols = a.rows * b.rows, a.cols * b.cols
    grid = []
    for i in range(a.rows):
        for k in range(b.rows):
            grid.append(
                tuple(
                    mul(a.entries[i][j], b.entries[k][l])
                    for j in range(a.cols)
                    for l in range(b.cols)
                )
            )
    return Matrix(a.ring, rows, cols, tuple(grid))


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
        zero = ring_ops(self.matrix.ring).zero
        return sum(1 for d in self.diagonal() if d != zero)

    @property
    def torsion(self) -> tuple[int, ...]:
        """The nonzero diagonal entries that are not units: the cokernel's
        torsion invariant factors (always empty over a field)."""
        ops = ring_ops(self.matrix.ring)
        return tuple(int(d) for d in self.diagonal() if d != ops.zero and d != ops.one)

    def diagonal(self) -> list:
        return [
            self.s.entries[t][t] for t in range(min(self.s.rows, self.s.cols))
        ]


def _quot(ops, a, b):
    """A quotient q with |a - q*b| < |b|; exact over fields."""
    if ops.tag.kind == "Z":
        return a // b
    return ops.divide_exact(a, b)


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    ops = ring_ops(a.ring)
    zero = ops.zero
    m, n = a.rows, a.cols
    s = [list(row) for row in a.entries]
    u = [list(row) for row in identity(a.ring, m).entries]
    ui = [list(row) for row in identity(a.ring, m).entries]
    v = [list(row) for row in identity(a.ring, n).entries]
    vi = [list(row) for row in identity(a.ring, n).entries]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for r in range(m):
            ui[r][i], ui[r][j] = ui[r][j], ui[r][i]

    def col_swap(i, j):
        for r in range(m):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vi[i], vi[j] = vi[j], vi[i]

    def row_addmul(i, j, c):
        # row i += c * row j
        s[i] = [ops.add(x, ops.mul(c, y)) for x, y in zip(s[i], s[j])]
        u[i] = [ops.add(x, ops.mul(c, y)) for x, y in zip(u[i], u[j])]
        for r in range(m):
            ui[r][j] = ops.sub(ui[r][j], ops.mul(c, ui[r][i]))

    def col_addmul(j, i, c):
        # col j += c * col i
        for r in range(m):
            s[r][j] = ops.add(s[r][j], ops.mul(c, s[r][i]))
        for r in range(n):
            v[r][j] = ops.add(v[r][j], ops.mul(c, v[r][i]))
        vi[i] = [ops.sub(x, ops.mul(c, y)) for x, y in zip(vi[i], vi[j])]

    def row_scale(i, unit):
        inv = ops.divide_exact(ops.one, unit)
        s[i] = [ops.mul(unit, x) for x in s[i]]
        u[i] = [ops.mul(unit, x) for x in u[i]]
        for r in range(m):
            ui[r][i] = ops.mul(ui[r][i], inv)

    t = 0
    bound = min(m, n)
    while t < bound:
        # pivot: smallest nonzero by abs_key, ties by lowest (row, col)
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != zero:
                    key = (ops.abs_key(x), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != zero:
                q = _quot(ops, s[i][t], s[t][t])
                if q != zero:
                    row_addmul(i, t, ops.neg(q))
                if s[i][t] != zero:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if s[t][j] != zero:
                q = _quot(ops, s[t][j], s[t][t])
                if q != zero:
                    col_addmul(j, t, ops.neg(q))
                if s[t][j] != zero:
                    dirty = True
        if dirty:
            continue

        # the pivot must divide the rest of the submatrix
        offender = None
        if ops.tag.kind == "Z":
            p = s[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            row_addmul(t, offender, ops.one)
            continue
        t += 1

    for t in range(bound):
        d = s[t][t]
        if d == zero:
            continue
        if ops.tag.kind == "Z":
            if d < 0:
                row_scale(t, -1)
        elif d != ops.one:
            row_scale(t, ops.divide_exact(ops.one, d))

    wrap = lambda grid, r, c: Matrix(a.ring, r, c, tuple(tuple(row) for row in grid))
    return SmithDecomposition(
        matrix=a,
        u=wrap(u, m, m),
        s=wrap(s, m, n),
        v=wrap(v, n, n),
        u_inv=wrap(ui, m, m),
        v_inv=wrap(vi, n, n),
    )


def canonical_columns(b: Matrix) -> Matrix:
    """Canonicalize a basis matrix without changing its column span (over Z,
    without changing the lattice): bottom-up column Hermite form. Columns end
    up sorted by lowest nonzero row, that entry positive (1 over a field) and
    the entries in other columns at pivot rows reduced."""
    ops = ring_ops(b.ring)
    zero = ops.zero
    cols = [[b.entries[i][j] for i in range(b.rows)] for j in range(b.cols)]
    remaining = list(range(len(cols)))
    pivots: list[tuple[int, list]] = []
    for r in range(b.rows - 1, -1, -1):
        while True:
            active = [j for j in remaining if cols[j][r] != zero]
            if not active:
                break
            if ops.tag.kind == "Z":
                sel = min(active, key=lambda j: (abs(cols[j][r]), j))
                others = [j for j in active if j != sel]
                if not others:
                    break
                for j in others:
                    q = cols[j][r] // cols[sel][r]
                    if q:
                        cols[j] = [
                            x - q * y for x, y in zip(cols[j], cols[sel])
                        ]
            else:
                sel = active[0]
                for j in active[1:]:
                    q = ops.divide_exact(cols[j][r], cols[sel][r])
                    cols[j] = [
                        ops.sub(x, ops.mul(q, y))
                        for x, y in zip(cols[j], cols[sel])
                    ]
                break
        active = [j for j in remaining if cols[j][r] != zero]
        if active:
            sel = active[0]
            piv = cols[sel]
            if ops.tag.kind == "Z":
                if piv[r] < 0:
                    piv = [-x for x in piv]
            else:
                inv = ops.divide_exact(ops.one, piv[r])
                piv = [ops.mul(inv, x) for x in piv]
            pivots.append((r, piv))
            remaining.remove(sel)
    if any(cols[j][i] != zero for j in remaining for i in range(b.rows)):
        raise ValueError("canonical_columns expects independent columns")
    pivots.reverse()
    basis = [p for _, p in pivots]
    prows = [r for r, _ in pivots]
    for i in range(len(basis)):
        for j in range(i):
            r = prows[j]
            a = basis[i][r]
            if a == zero:
                continue
            if ops.tag.kind == "Z":
                q = a // basis[j][r]
            else:
                q = ops.divide_exact(a, basis[j][r])
            if q != zero:
                basis[i] = [
                    ops.sub(x, ops.mul(q, y)) for x, y in zip(basis[i], basis[j])
                ]
    grid = tuple(
        tuple(basis[j][i] for j in range(len(basis))) for i in range(b.rows)
    )
    return Matrix(b.ring, b.rows, len(basis), grid)


def kernel_basis(a: Matrix) -> Matrix:
    """Columns form a basis of ker(a); over Z the full kernel lattice."""
    snf = smith_normal_form(a)
    r = snf.rank
    return canonical_columns(snf.v.col_select(range(r, a.cols)))


def image_basis(a: Matrix) -> Matrix:
    """Columns form a basis of the column span; over Z the image lattice."""
    snf = smith_normal_form(a)
    r = snf.rank
    gens = snf.u_inv.col_select(range(r))
    ops = ring_ops(a.ring)
    cols = []
    for j in range(r):
        d = snf.s.entries[j][j]
        cols.append(
            tuple(ops.mul(d, gens.entries[i][j]) for i in range(a.rows))
        )
    grid = tuple(tuple(col[i] for col in cols) for i in range(a.rows))
    return canonical_columns(Matrix(a.ring, a.rows, r, grid))


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """An exact solution x of a @ x = b (column by column), or None."""
    a._match(b)
    if a.rows != b.rows:
        raise ShapeError(f"solve: {a.rows} rows vs {b.rows} rows")
    ops = ring_ops(a.ring)
    snf = smith_normal_form(a)
    c = snf.u @ b
    r = snf.rank
    y = [[ops.zero] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        if i < r:
            d = snf.s.entries[i][i]
            for j in range(b.cols):
                try:
                    y[i][j] = ops.divide_exact(c.entries[i][j], d)
                except DivisibilityError:
                    return None
        else:
            if any(c.entries[i][j] != ops.zero for j in range(b.cols)):
                return None
    return snf.v @ Matrix(a.ring, a.cols, b.cols, tuple(tuple(row) for row in y))


def is_surjective(a: Matrix) -> bool:
    snf = smith_normal_form(a)
    return snf.rank == a.rows and not snf.torsion


def is_injective(a: Matrix) -> bool:
    return smith_normal_form(a).rank == a.cols


def has_free_cokernel(a: Matrix) -> bool:
    return not smith_normal_form(a).torsion


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
    rank_out = smith_normal_form(d_out).rank
    arriving = smith_normal_form(d_in)
    return HomologyGroup(d_in.rows - rank_out - arriving.rank, arriving.torsion)


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
    out = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"{path}.entries[{i}]: expected {cols} entries")
        try:
            out.append(tuple(scalar_from_json(ring, x) for x in row))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"{path}.entries[{i}]: {exc}") from exc
    return Matrix(ring, rows, cols, tuple(out))
