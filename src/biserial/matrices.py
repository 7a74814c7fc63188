"""Dense exact matrices with reduced row echelon form, kernels and solving.

Matrices are immutable-by-convention row-major grids of field elements.
Everything downstream (syzygies, Hom spaces, certificates) reduces to one
Gauss-Jordan elimination, ``rref``: ``rank``, ``kernel_basis``,
``image_basis``, ``solve`` and ``inverse`` each read their answer off one
rref.  ``kernel_with_free`` also names the free columns of that rref: the
kernel basis is the identity on those rows, so a null vector's
coordinates in it are read off with no solve.  Basis extension is one
rref of the transpose with its columns reversed: ``unit_complement``
reads the unit vectors that extend the column space off its pivots, and
``quotient_coordinates`` reads the coordinates of the quotient by the
column space off its kernel, with no inverse.
Storage is dense, but products, like eliminations, touch only nonzero
entries: a product reads each row's nonzero entries once, and a row
operation only the pivot row's nonzero columns, which is what keeps the
very sparse Hom systems and maps cheap.  The readers of an rref work on
its raw rows, with no rref matrix built, and a matrix with no entries
gets its kernel and quotient with no elimination.

All arithmetic is exact and goes through the field interface of
``biserial.fields``, the one place that knows field types: ``reduce``
puts each result in normal form once, and the one elimination loop,
``_rref``, takes its pivot preference and its row operations from the
field.  So it runs unchanged over Q (pivots of small height keep
fractions from growing), over GF(p) (the first nonzero entry wins) and
over any object with that interface.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Optional, Sequence, Tuple


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data: List[list]):
        if len(data) != rows:
            raise ValueError(f"ragged data for {rows}x{cols} matrix")
        for r in data:  # a plain loop: about half the cost of any(genexpr)
            if len(r) != cols:
                raise ValueError(f"ragged data for {rows}x{cols} matrix")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls.units(field, n, range(n))

    @classmethod
    def units(cls, field, n: int, indices: Sequence[int]) -> "Matrix":
        """The n-row matrix whose k-th column is the unit vector e_i for
        the k-th index i."""
        one, zero = field.one, field.zero
        return cls(field, n, len(indices), [[one if i == j else zero for j in indices]
                                            for i in range(n)])

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols,
                      [[neg(x) for x in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero, width = self.field.zero, other.cols
        terms = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        data = []
        for arow in self.data:
            acc = [zero] * width
            for a, bterms in zip(arow, terms):
                if a:
                    for j, b in bterms:
                        acc[j] += a * b
            data.append(acc)
        return Matrix(self.field, self.rows, width, self.field.reduce(data))

    @classmethod
    def hcat(cls, field, rows: int, blocks: Sequence["Matrix"]) -> "Matrix":
        """The blocks side by side, each with ``rows`` rows; no blocks give
        the rows x 0 matrix."""
        data: List[list] = [[] for _ in range(rows)]
        for b in blocks:
            if b.rows != rows:
                raise ValueError(f"hcat of a {b.rows}-row block into {rows} rows")
            for row, brow in zip(data, b.data):
                row.extend(brow)
        return cls(field, rows, sum(b.cols for b in blocks), data)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix(self.field, self.rows + other.rows, self.cols,
                      [row[:] for row in self.data] + [row[:] for row in other.data])

    def submatrix_cols(self, cols: Sequence[int]) -> "Matrix":
        return Matrix(self.field, self.rows, len(cols),
                      [[row[j] for j in cols] for row in self.data])

    # -- elimination -------------------------------------------------------

    def rref(self) -> Tuple["Matrix", List[int], int]:
        """Reduced row echelon form; returns (matrix, pivot columns, rank)."""
        work, pivots = _rref(self.data, self.field)
        return Matrix(self.field, self.rows, self.cols, work), pivots, len(pivots)

    def rank(self) -> int:
        return len(_rref(self.data, self.field)[1])

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns form a basis of the null space of self."""
        return self.kernel_with_free()[0]

    def kernel_with_free(self) -> Tuple["Matrix", List[int]]:
        """``kernel_basis`` and the free columns of the rref it is read
        off.  The basis is the identity on the free rows, so the
        coordinates of a null vector in it are its entries there."""
        field, n = self.field, self.cols
        if not (self.rows and n):
            return Matrix.identity(field, n), list(range(n))
        free, rows = _null_rows(*_rref(self.data, field), n, field)
        return Matrix(field, n, len(free), rows), free

    def solve(self, b: "Matrix") -> Optional["Matrix"]:
        """One solution X of self @ X = b, or None when b is inconsistent."""
        if b.rows != self.rows:
            raise ValueError("right-hand side row count mismatch")
        red, pivots, _ = Matrix.hcat(self.field, self.rows, [self, b]).rref()
        field = self.field
        # Any pivot inside the appended block certifies inconsistency.
        if any(p >= self.cols for p in pivots):
            return None
        x = Matrix.zeros(field, self.cols, b.cols)
        for i, pj in enumerate(pivots):
            x.data[pj] = red.data[i][self.cols:]
        return x

    # No command calls inverse; it stays for bench/tracer.py, which wraps
    # it as vars(Matrix)["inverse"].
    def inverse(self) -> Optional["Matrix"]:
        """The inverse, or None for a singular or non-square matrix.  A
        consistent solve of self @ X = I is the inverse: [self | I] has
        rank n, so any rank deficiency of self puts a pivot in I."""
        if self.rows != self.cols:
            return None
        return self.solve(Matrix.identity(self.field, self.rows))

    def unit_complement(self) -> List[int]:
        """The indices i, increasing, of the unit vectors e_i that extend
        the column space of self to the whole space, each e_i chosen when
        it is independent of the column space and the e_j before it.

        e_i is chosen exactly when no vector of the column space has its
        last nonzero entry at i.  Those last entries are the pivots of the
        rows of self^T with coordinates reversed, so one rref of that
        cols x rows matrix gives them."""
        n = self.rows
        taken = {n - 1 - p for p in _rref(_flipped(self.data), self.field)[1]}
        return [i for i in range(n) if i not in taken]

    def quotient_coordinates(self) -> Tuple[List[int], "Matrix"]:
        """``unit_complement`` and the matrix Q of the projection onto the
        quotient by the column space, in the basis of those unit vectors.

        Q is the unique matrix with Q @ self = 0 whose columns at the
        chosen indices are the identity, so its rows are a basis of the
        left kernel of self.  Reversed, that is the kernel of the flipped
        transpose, whose basis is the identity on the free columns of its
        rref: the chosen indices reversed.  So Q is that kernel basis with
        its rows and its columns in reverse order."""
        field, n = self.field, self.rows
        if not (n and self.cols):
            return list(range(n)), Matrix.identity(field, n)
        free, rows = _null_rows(*_rref(_flipped(self.data), field), n, field)
        return ([n - 1 - j for j in reversed(free)],
                Matrix(field, len(free), n, [list(col[::-1]) for col in zip(*rows)][::-1]))

    def image_basis(self) -> "Matrix":
        """Basis of the column space: the pivot columns of self."""
        return self.submatrix_cols(_rref(self.data, self.field)[1])


def _rref(data: List[list], field) -> Tuple[List[list], List[int]]:
    """Gauss-Jordan elimination on a copy of ``data`` in normal form;
    returns the reduced rows and the pivot column list.  The field picks
    each pivot (least ``pivot_key``, the scan stopping at a unit's key)
    and does each row operation at the pivot row's nonzero columns, all
    right of the pivot: left of it every row from the pivot row down is
    already zero."""
    work = field.reduce(data)
    if work is data:  # already in normal form: copy before eliminating
        work = [row[:] for row in data]
    zero, one = field.zero, field.one
    key = field.pivot_key
    stop = key(one)  # a unit pivot cannot be beaten
    scale_row, sub_row = field.scale_row, field.sub_row
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best, best_key = -1, None
        for i in range(r, nrows):
            v = work[i][c]
            if v:
                k = key(v)
                if best < 0 or k < best_key:
                    best, best_key = i, k
                    if k == stop:
                        break
        if best < 0:
            continue
        if best != r:
            work[r], work[best] = work[best], work[r]
        row = work[r]
        # The row is zero left of c, so its first nonzero column is c.
        support = list(compress(range(ncols), row))[1:]
        if row[c] != one:
            scale_row(row, support, field.inv(row[c]))
            row[c] = one
        for i in range(nrows):
            other = work[i]
            f = other[c]
            if f and i != r:
                sub_row(other, row, support, f)
                other[c] = zero
        pivots.append(c)
        r += 1
    return work, pivots


def _flipped(data: List[list]) -> List[list]:
    """The rows of the transpose of the matrix with rows ``data``, its
    columns in reverse order; none when ``data`` has no rows."""
    return [list(col) for col in zip(*reversed(data))]


def _null_rows(work: List[list], pivots: List[int], n: int, field
               ) -> Tuple[List[int], List[list]]:
    """The free columns of an rref ``work`` of n columns with ``pivots``,
    and the rows of its kernel basis: the identity on the free rows, and
    minus the pivot row's entries at the free columns on a pivot's row."""
    at = dict(zip(pivots, work))
    free = [j for j in range(n) if j not in at]
    rows = []
    for j in range(n):
        row = at.get(j)
        rows.append([field.one if f == j else field.zero for f in free] if row is None
                    else [field.neg(row[f]) if row[f] else field.zero for f in free])
    return free, rows


def block_diag(field, blocks: Sequence[Matrix]) -> Matrix:
    """The blocks along the diagonal, each row padded with zeros."""
    cols, data, left = sum(b.cols for b in blocks), [], 0
    for b in blocks:
        pad = [field.zero] * (cols - left - b.cols)
        data += [[field.zero] * left + row + pad for row in b.data]
        left += b.cols
    return Matrix(field, len(data), cols, data)
