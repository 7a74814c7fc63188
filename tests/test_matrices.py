from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biserial.fields import QQ, PrimeField, Rationals
from biserial.matrices import Matrix, block_diag
from oracles import add, column, from_rows, scale

F7 = PrimeField(7)
F101 = PrimeField(101)

small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


def qq_matrices(max_dim=5):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fraction, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: from_rows(QQ, rows) if r else Matrix(QQ, 0, c, []))
        )
    )


def fp_matrices(field, max_dim=5):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=0, max_value=field.p - 1),
                         min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: from_rows(field, rows) if r else Matrix(field, 0, c, []))
        )
    )


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, pivots, rank = m.rref()
    assert red == m
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_zero_matrix():
    m = Matrix.zeros(QQ, 3, 4)
    red, pivots, rank = m.rref()
    assert red == m
    assert pivots == []
    assert rank == 0


def test_rref_dependent_rows():
    m = from_rows(QQ, [[1, 2], [2, 4]])
    red, pivots, rank = m.rref()
    assert red == from_rows(QQ, [[1, 2], [0, 0]])
    assert pivots == [0]
    assert rank == 1


def test_kernel_identity_is_empty():
    assert Matrix.identity(QQ, 4).kernel_basis().cols == 0


def test_kernel_of_zero_map():
    k = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert k.cols == 3
    assert k.rank() == 3


def test_kernel_rank_one():
    m = from_rows(QQ, [[1, 2], [2, 4]])
    k = m.kernel_basis()
    assert k.cols == 1
    # proportional to (-2, 1)
    assert k.data[0][0] * 1 == k.data[1][0] * -2


def test_solve_identity():
    b = from_rows(QQ, [[3], [Fraction(1, 2)]])
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_zero_system():
    m = Matrix.zeros(QQ, 2, 2)
    x = m.solve(Matrix.zeros(QQ, 2, 1))
    assert x is not None and x.is_zero()


def test_solve_inconsistent():
    m = from_rows(QQ, [[1], [2]])
    b = from_rows(QQ, [[1], [1]])
    assert m.solve(b) is None


def test_inverse():
    m = from_rows(QQ, [[1, 2], [3, 5]])
    inv = m.inverse()
    assert inv is not None
    assert m @ inv == Matrix.identity(QQ, 2)
    assert from_rows(QQ, [[1, 2], [2, 4]]).inverse() is None


def test_block_diag_shapes():
    a = Matrix.identity(QQ, 2)
    b = from_rows(QQ, [[5]])
    d = block_diag(QQ, [a, b])
    assert (d.rows, d.cols) == (3, 3)
    assert d.data[2][2] == 5 and d.data[0][2] == 0


@pytest.mark.parametrize("strategy", [qq_matrices(), fp_matrices(F101)],
                         ids=["qq", "f101"])
class TestEliminationLaws:
    @given(data=st.data())
    def test_kernel_annihilation_and_rank_nullity(self, strategy, data):
        m = data.draw(strategy)
        k = m.kernel_basis()
        assert (m @ k).is_zero()
        assert m.rank() + k.cols == m.cols
        assert k.rank() == k.cols  # independent columns

    @given(data=st.data())
    def test_rref_idempotent(self, strategy, data):
        m = data.draw(strategy)
        red, _, _ = m.rref()
        red2, _, _ = red.rref()
        assert red == red2

    @given(data=st.data())
    def test_solve_reproduces_rhs(self, strategy, data):
        m = data.draw(strategy)
        field = m.field
        # Build a consistent rhs from a random combination of columns.
        coeffs = data.draw(st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=m.cols, max_size=m.cols))
        x = column(field, [field(c) for c in coeffs])
        b = m @ x
        sol = m.solve(b)
        assert sol is not None
        assert m @ sol == b


def test_prime_field_arithmetic():
    assert F7(10) == 3
    assert F7(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(Exception):
        PrimeField(6)


def test_exactness_round_trip():
    # a / b * b == a for nonzero b, at awkward magnitudes
    a = Fraction(10**40 + 1, 3)
    b = Fraction(-7, 10**20)
    assert a / b * b == a


def test_rref_over_prime_field_reduces_unreduced_input():
    f7 = PrimeField(7)
    raw = [[8, 15, -3, 0], [2, 9, 100, -14], [10, 24, 97, 7]]
    m = Matrix(f7, 3, 4, raw)
    red, pivots, rank = m.rref()
    assert all(0 <= x < 7 for row in red.data for x in row)
    reduced = Matrix(f7, 3, 4, [[x % 7 for x in row] for row in raw])
    assert (red, pivots, rank) == reduced.rref()
    assert m.rank() == rank
    assert raw[0] == [8, 15, -3, 0]  # the input rows are not touched


def test_rref_sparse_rows_match_dense_elimination():
    # Elimination touches only the pivot row's nonzero columns; the result
    # must still be the reduced echelon form.
    data = [[0, 2, 0, 0, 4], [1, 0, 0, 3, 0], [1, 2, 0, 3, 4], [0, 0, 5, 0, 0]]
    red, pivots, rank = from_rows(QQ, data).rref()
    assert pivots == [0, 1, 2] and rank == 3
    assert red.data == [[1, 0, 0, 3, 0], [0, 1, 0, 0, 2], [0, 0, 1, 0, 0],
                        [0, 0, 0, 0, 0]]
    # Over Q an integral entry is stored as an int, any other as a Fraction.
    assert all(type(x) is int for row in red.data for x in row)


F2 = PrimeField(2)


def _greedy_units(a: Matrix) -> list:
    """The unit vectors e_i that raise the rank of [a | chosen so far],
    tried in increasing i: the definition unit_complement must meet."""
    chosen = []
    for i in range(a.rows):
        current = Matrix.hcat(a.field, a.rows, [a, Matrix.units(a.field, a.rows, chosen)])
        trial = Matrix.hcat(a.field, a.rows, [current, Matrix.units(a.field, a.rows, [i])])
        if trial.rank() > current.rank():
            chosen.append(i)
    return chosen


ALL_FIELDS = pytest.mark.parametrize(
    "strategy", [qq_matrices(), fp_matrices(F2), fp_matrices(F101)], ids=["qq", "f2", "f101"])


@ALL_FIELDS
@given(data=st.data())
def test_unit_extension_inverts_the_extended_basis(strategy, data):
    # Any columns, dependent ones and 0-row or 0-column shapes included:
    # extend the image basis by the chosen units; the quotient coordinates
    # are the rows of its inverse past the image.
    a = data.draw(strategy)
    field, n = a.field, a.rows
    image = a.image_basis()
    chosen, q = a.quotient_coordinates()
    assert chosen == _greedy_units(a)
    inv = Matrix.hcat(field, n, [image, Matrix.units(field, n, chosen)]).inverse()
    assert (q.rows, q.cols) == (len(chosen), n)
    assert q.data == inv.data[image.cols:]
    assert (q @ a).is_zero()


@ALL_FIELDS
@given(data=st.data())
def test_unit_complement_is_unit_extensions_choice(strategy, data):
    a = data.draw(strategy)
    assert a.unit_complement() == _greedy_units(a)


@ALL_FIELDS
@given(data=st.data())
def test_rref_pivots_complement_the_kernel(strategy, data):
    # Each kernel basis vector ends at its own free column, so the unit
    # vectors at the pivot columns are the kernel's unit complement.
    a = data.draw(strategy)
    assert a.rref()[1] == a.kernel_basis().unit_complement()


@ALL_FIELDS
@given(data=st.data())
def test_negation_is_scaling_by_minus_one(strategy, data):
    m = data.draw(strategy)
    before = [row[:] for row in m.data]
    neg = -m
    typed = [[(type(x), x) for x in row] for row in neg.data]
    assert (neg.rows, neg.cols) == (m.rows, m.cols)
    assert typed == [[(type(x), x) for x in row] for row in scale(m, -1).data]
    if m.field == QQ:
        # An integral entry is an int, a non-integral one a Fraction.
        assert all(t is (int if Fraction(x).denominator == 1 else Fraction)
                   for row in typed for t, x in row)
    assert m.data == before


@pytest.mark.parametrize("field", [QQ, F2, F101], ids=["qq", "f2", "f101"])
def test_unit_complement_of_empty_shapes(field):
    assert Matrix(field, 3, 0, [[], [], []]).unit_complement() == [0, 1, 2]
    assert Matrix(field, 0, 2, []).unit_complement() == []
    assert Matrix(field, 0, 0, []).unit_complement() == []
    assert (Matrix(field, 3, 0, [[], [], []]).quotient_coordinates()
            == ([0, 1, 2], Matrix.identity(field, 3)))
    assert Matrix(field, 0, 2, []).quotient_coordinates() == ([], Matrix(field, 0, 0, []))


def test_inverse_of_singular_matrix_over_gf2_is_none():
    # [[1, 1], [1, 1]] and a rank-2 3x3 matrix whose rows sum to zero mod 2.
    assert from_rows(F2, [[1, 1], [1, 1]]).inverse() is None
    assert from_rows(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]).inverse() is None
    m = from_rows(F2, [[1, 1], [0, 1]])
    assert m @ m.inverse() == Matrix.identity(F2, 2)


def test_hcat_with_empty_blocks():
    a = from_rows(QQ, [[1, 2], [3, 4]])
    empty = Matrix.zeros(QQ, 2, 0)
    assert Matrix.hcat(QQ, 2, [empty, a, empty]) == a
    assert Matrix.hcat(QQ, 2, [a, column(QQ, [5, 6])]).data == [[1, 2, 5], [3, 4, 6]]
    assert Matrix.hcat(QQ, 2, []) == empty
    no_rows = Matrix.hcat(QQ, 0, [Matrix.zeros(QQ, 0, 3), Matrix.zeros(QQ, 0, 2)])
    assert (no_rows.rows, no_rows.cols, no_rows.data) == (0, 5, [])
    with pytest.raises(ValueError):
        Matrix.hcat(QQ, 3, [a])


class RecordingRationals(Rationals):
    """Q that records the factor of each row scaling."""

    def __init__(self):
        self.scalings = []

    def scale_row(self, row, support, c):
        self.scalings.append(c)
        super().scale_row(row, support, c)


class FirstNonzeroRationals(RecordingRationals):
    """Q with the GF(p) pivot policy: the first nonzero entry of a column
    wins, whatever its height."""

    best_pivot_key = 0

    @staticmethod
    def pivot_key(x):
        return 0


def test_elimination_takes_its_pivots_from_the_field():
    # Column 0 holds 3 above 1: Q's policy pivots on the unit and scales
    # only the second pivot row, the first-nonzero policy pivots on 3.  The
    # reduced form is the same.
    data = [[3, 1], [1, 1]]
    small, first = RecordingRationals(), FirstNonzeroRationals()
    assert from_rows(first, data).rref() == from_rows(small, data).rref()
    assert small.scalings == [Fraction(-1, 2)]
    assert first.scalings == [Fraction(1, 3), Fraction(3, 2)]


@given(m=qq_matrices())
def test_any_pivot_policy_gives_the_same_answers(m):
    # The rref is unique, so only intermediate fractions may depend on the
    # pivot choice, never a kernel basis or a basis extension.
    other = Matrix(FirstNonzeroRationals(), m.rows, m.cols, m.data)
    assert other.rref() == m.rref()
    assert other.kernel_basis() == m.kernel_basis()
    assert other.unit_complement() == m.unit_complement()
    assert other.quotient_coordinates() == m.quotient_coordinates()


# -- the normal form over Q ---------------------------------------------------
#
# Over Q an integral element is stored as an int and any other as a Fraction.
# The inputs below mix ints, integral Fractions such as Fraction(4, 2) (not in
# normal form) and proper fractions, built directly with Matrix(QQ, ...) so
# nothing normalises them first; every answer must match a textbook
# elimination done in Fractions alone, and be in normal form.

mixed_rational = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(lambda k, d: Fraction(k * d, d),
              st.integers(min_value=-4, max_value=4),
              st.integers(min_value=1, max_value=3)),
    small_fraction,
)


def mixed_qq_matrices(rows, cols):
    return st.lists(st.lists(mixed_rational, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Matrix(QQ, rows, cols, data))


def _is_normal(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _all_normal(m: Matrix) -> bool:
    return all(_is_normal(x) for row in m.data for x in row)


def _values(m: Matrix) -> list:
    return [[Fraction(x) for x in row] for row in m.data]


def _ref_rref(rows: list, ncols: int):
    """Gauss-Jordan in Fractions, pivoting on the first nonzero entry."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        best = next((i for i in range(r, len(work)) if work[i][c]), None)
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = [a - row[c] * b for a, b in zip(row, work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def _ref_kernel(rows: list, ncols: int):
    """The kernel basis as columns, the identity on the free rows."""
    red, pivots = _ref_rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = [[Fraction(0)] * len(free) for _ in range(ncols)]
    for k, j in enumerate(free):
        basis[j][k] = Fraction(1)
        for i, pj in enumerate(pivots):
            basis[pj][k] = -red[i][j]
    return basis, free


def _ref_matmul(a: list, b: list, inner: int, cols: int) -> list:
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for row in a]


def _ref_inverse(rows: list, n: int):
    ext = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = _ref_rref(ext, 2 * n)
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def _ref_quotient_coordinates(rows: list, n: int, cols: int):
    """The greedy unit complement of the column space, and the rows of the
    left kernel that are the identity at those units."""
    chosen = []
    for i in range(n):
        trial = [list(row) + [Fraction(int(r == c)) for c in chosen + [i]]
                 for r, row in enumerate(rows)]
        if len(_ref_rref(trial, cols + len(chosen) + 1)[1]) > len(
                _ref_rref([row[:-1] for row in trial], cols + len(chosen))[1]):
            chosen.append(i)
    transpose = [[rows[i][j] for i in range(n)] for j in range(cols)]
    left, _ = _ref_kernel(transpose, n)  # columns span the left kernel
    k = len(chosen)
    left_rows = [[left[i][c] for i in range(n)] for c in range(k)]
    change = _ref_inverse([[row[i] for i in chosen] for row in left_rows], k)
    return chosen, _ref_matmul(change, left_rows, k, n)


@given(data=st.data())
def test_rational_answers_match_fraction_elimination_in_normal_form(data):
    r = data.draw(st.integers(min_value=0, max_value=4))
    c = data.draw(st.integers(min_value=0, max_value=4))
    a = data.draw(mixed_qq_matrices(r, c))
    before = [row[:] for row in a.data]
    values = _values(a)

    red, pivots, rank = a.rref()
    ref_red, ref_pivots = _ref_rref(values, c)
    assert (_values(red), pivots, rank) == (ref_red, ref_pivots, len(ref_pivots))
    assert _all_normal(red)

    kernel, free = a.kernel_with_free()
    ref_kernel, ref_free = _ref_kernel(values, c)
    assert (_values(kernel), free) == (ref_kernel, ref_free)
    assert _all_normal(kernel)

    chosen, q = a.quotient_coordinates()
    ref_chosen, ref_q = _ref_quotient_coordinates(values, r, c)
    assert chosen == ref_chosen and _values(q) == ref_q
    assert _all_normal(q)

    square = data.draw(mixed_qq_matrices(r, r))
    inverse, ref_inverse = square.inverse(), _ref_inverse(_values(square), r)
    assert (inverse is None) == (ref_inverse is None)
    if inverse is not None:
        assert _values(inverse) == ref_inverse and _all_normal(inverse)

    s = data.draw(st.integers(min_value=0, max_value=4))
    b = data.draw(mixed_qq_matrices(c, s))
    product = a @ b
    assert _values(product) == _ref_matmul(values, _values(b), c, s)
    assert _all_normal(product)

    other = data.draw(mixed_qq_matrices(r, c))
    total = add(a, other)
    assert _values(total) == [[x + y for x, y in zip(p, q)]
                              for p, q in zip(values, _values(other))]
    assert _all_normal(total)

    scalar = data.draw(mixed_rational)
    scaled = scale(a, scalar)
    assert _values(scaled) == [[Fraction(scalar) * x for x in row] for row in values]
    assert _all_normal(scaled)

    # The input is not touched, not even put in normal form.
    assert [list(map(type, row)) for row in a.data] == [list(map(type, row)) for row in before]
    assert a.data == before


@pytest.mark.parametrize("rows, cols, data", [
    (2, 2, [[1, 2], [3]]), (2, 2, [[1, 2]]), (1, 2, [[1, 2], [3, 4]]), (1, 0, [[1]])])
def test_ragged_data_is_rejected(rows, cols, data):
    with pytest.raises(ValueError, match=f"ragged data for {rows}x{cols} matrix"):
        Matrix(QQ, rows, cols, data)
