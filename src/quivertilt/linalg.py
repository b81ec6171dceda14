"""Dense exact linear algebra over the rationals.

Everything downstream (Hom spaces, kernels, presentations) runs through this
module, so all elimination is exact and fully deterministic: the pivot is
always the first nonzero entry in column order.  Entries are ints or
Fractions; a float is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import ShapeError

Scalar = Fraction | int


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int):
        raise TypeError(f"entry {x!r} is a {type(x).__name__}, not an int or a Fraction")
    return Fraction(x)


def fraction_free_rank(rows: Iterable[Sequence[Scalar]]) -> int:
    """Rank of rational rows on integers only: each row is scaled by the lcm
    of its denominators, then eliminated fraction-free (Bareiss 1968).  After
    the k-th pivot every entry below the pivot rows is a (k+1)-minor of the
    scaled rows, so the division by the previous pivot is exact."""
    m = []
    for row in rows:
        if any(row):
            scale = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (scale // x.denominator) for x in row])
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        pv = top[c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pv
        rank += 1
        if rank == len(m):
            break
    return rank


class Matrix:
    """Immutable rational matrix; zero row/column counts are allowed."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence[Scalar]], ncols: int | None = None):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ShapeError("ragged rows")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ShapeError(f"expected {ncols} columns, got {width}")
        else:
            width = 0 if ncols is None else ncols
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]], nrows: int) -> "Matrix":
        return Matrix(
            [[columns[j][i] for j in range(len(columns))] for i in range(nrows)],
            ncols=len(columns),
        )

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({[[str(x) for x in r] for r in self.rows]})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"mul {self.shape} @ {other.shape}")
        out = []
        for i in range(self.nrows):
            ri = self.rows[i]
            out.append(
                [
                    sum((ri[k] * other.rows[k][j] for k in range(self.ncols)), Fraction(0))
                    for j in range(other.ncols)
                ]
            )
        return Matrix(out, ncols=other.ncols)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise ShapeError("vector length mismatch")
        v = [_frac(x) for x in vec]
        return tuple(
            sum((self.rows[i][k] * v[k] for k in range(self.ncols)), Fraction(0))
            for i in range(self.nrows)
        )

    # -- stacking ----------------------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ShapeError("hstack row mismatch")
        return Matrix(
            [self.rows[i] + other.rows[i] for i in range(self.nrows)],
            ncols=self.ncols + other.ncols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ShapeError("vstack column mismatch")
        return Matrix(self.rows + other.rows, ncols=self.ncols)

    @staticmethod
    def block_diagonal(blocks: Sequence["Matrix"]) -> "Matrix":
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        out = [[Fraction(0)] * ncols for _ in range(nrows)]
        r = c = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[r + i][c + j] = b.rows[i][j]
            r += b.nrows
            c += b.ncols
        return Matrix(out, ncols=ncols)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns."""
        m = [list(row) for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, self.nrows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return Matrix(m, ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Deterministic basis of the right null space, as column vectors."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -red.rows[r][f]
            basis.append(tuple(v))
        return basis

    def column_space_matrix(self) -> "Matrix":
        """Matrix whose columns are the pivot columns (a basis of the image)."""
        _, pivots = self.rref()
        return Matrix.from_columns([self.column(j) for j in pivots], self.nrows)

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """One exact solution X of self @ X = rhs, or None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise ShapeError("solve shape mismatch")
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        for c in pivots:
            if c >= self.ncols:
                return None
        sol = [[Fraction(0)] * rhs.ncols for _ in range(self.ncols)]
        for r, c in enumerate(pivots):
            for j in range(rhs.ncols):
                sol[c][j] = red.rows[r][self.ncols + j]
        return Matrix(sol, ncols=rhs.ncols)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

