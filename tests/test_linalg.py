from fractions import Fraction

import pytest

from quivertilt.errors import ShapeError
from quivertilt.linalg import Matrix

from reference import det


def test_rref_and_rank():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = m.rref()
    assert pivots == (0, 1)
    assert m.rank() == 2


def test_kernel_basis_exact():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert m.apply(v) == (0, 0)


def test_kernel_of_empty_matrix():
    m = Matrix([], ncols=3)
    assert len(m.kernel_basis()) == 3
    assert m.rank() == 0


def test_zero_dimension_products():
    a = Matrix.zeros(0, 2)
    b = Matrix.zeros(2, 3)
    assert (a @ b).shape == (0, 3)
    c = Matrix.zeros(3, 0)
    d = Matrix.zeros(0, 2)
    assert (c @ d) == Matrix.zeros(3, 2)


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 1], [0, 1]])
    rhs = Matrix([[3], [1]])
    sol = m.solve(rhs)
    assert m @ sol == rhs
    singular = Matrix([[1, 1], [1, 1]])
    assert singular.solve(Matrix([[1], [2]])) is None


def test_det_and_invertibility():
    m = Matrix([[2, 1], [1, 1]])
    assert det(m) == 1
    assert m.is_invertible()
    assert det(Matrix([[1, 2], [2, 4]])) == 0


def test_exact_fractions_no_drift():
    m = Matrix([[Fraction(1, 3), 1], [1, Fraction(3, 7)]])
    assert det(m) == Fraction(1, 7) - 1


def test_shape_errors():
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [1]])
    with pytest.raises(ShapeError):
        Matrix([[1]]) @ Matrix([[1, 2], [3, 4]])


def test_block_diagonal():
    m = Matrix.block_diagonal([Matrix([[1]]), Matrix([[2, 3]])])
    assert m.rows == ((1, 0, 0), (0, 2, 3))
