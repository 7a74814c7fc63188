from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biserial.fields import QQ, PrimeField, Rationals
from biserial.matrices import Matrix, block_diag

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
            ).map(lambda rows: Matrix.from_rows(QQ, rows) if r else Matrix(QQ, 0, c, []))
        )
    )


def fp_matrices(field, max_dim=5):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=0, max_value=field.p - 1),
                         min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: Matrix.from_rows(field, rows) if r else Matrix(field, 0, c, []))
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
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    red, pivots, rank = m.rref()
    assert red == Matrix.from_rows(QQ, [[1, 2], [0, 0]])
    assert pivots == [0]
    assert rank == 1


def test_kernel_identity_is_empty():
    assert Matrix.identity(QQ, 4).kernel_basis().cols == 0


def test_kernel_of_zero_map():
    k = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert k.cols == 3
    assert k.rank() == 3


def test_kernel_rank_one():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    k = m.kernel_basis()
    assert k.cols == 1
    # proportional to (-2, 1)
    assert k.data[0][0] * 1 == k.data[1][0] * -2


def test_solve_identity():
    b = Matrix.from_rows(QQ, [[3], [Fraction(1, 2)]])
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_zero_system():
    m = Matrix.zeros(QQ, 2, 2)
    x = m.solve(Matrix.zeros(QQ, 2, 1))
    assert x is not None and x.is_zero()


def test_solve_inconsistent():
    m = Matrix.from_rows(QQ, [[1], [2]])
    b = Matrix.from_rows(QQ, [[1], [1]])
    assert m.solve(b) is None


def test_inverse():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    inv = m.inverse()
    assert inv is not None
    assert m @ inv == Matrix.identity(QQ, 2)
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).inverse() is None


def test_block_diag_shapes():
    a = Matrix.identity(QQ, 2)
    b = Matrix.from_rows(QQ, [[5]])
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
        x = Matrix.column(field, [field(c) for c in coeffs])
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
    red, pivots, rank = Matrix.from_rows(QQ, data).rref()
    assert pivots == [0, 1, 2] and rank == 3
    assert red.data == [[1, 0, 0, 3, 0], [0, 1, 0, 0, 2], [0, 0, 1, 0, 0],
                        [0, 0, 0, 0, 0]]
    assert all(isinstance(x, Fraction) for row in red.data for x in row)


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
    assert Matrix.from_rows(F2, [[1, 1], [1, 1]]).inverse() is None
    assert Matrix.from_rows(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]).inverse() is None
    m = Matrix.from_rows(F2, [[1, 1], [0, 1]])
    assert m @ m.inverse() == Matrix.identity(F2, 2)


def test_hcat_with_empty_blocks():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    empty = Matrix.zeros(QQ, 2, 0)
    assert Matrix.hcat(QQ, 2, [empty, a, empty]) == a
    assert Matrix.hcat(QQ, 2, [a, Matrix.column(QQ, [5, 6])]).data == [[1, 2, 5], [3, 4, 6]]
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
    assert Matrix.from_rows(first, data).rref() == Matrix.from_rows(small, data).rref()
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
