import random
from fractions import Fraction

import pytest

from quivertilt.errors import ShapeError
from quivertilt.linalg import Matrix, fraction_free_rank

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


def test_float_entries_are_refused():
    with pytest.raises(TypeError, match=r"entry 0\.1 is a float"):
        Matrix([[0.1]])
    with pytest.raises(TypeError, match=r"entry 0\.5 is a float"):
        Matrix.identity(2).apply([0.5, 1])


def test_fraction_free_rank_examples():
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([[0, 0], [0, 0]]) == 0
    assert fraction_free_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    # a skipped column between pivots, then a row that cancels to zero
    assert fraction_free_rank([[0, 2, 1, 0], [0, 4, 2, 1], [0, 6, 3, 1], [1, 0, 0, 0]]) == 3


def test_fraction_free_rank_matches_fraction_rank():
    """Random rational rows, some of them combinations of the others, so the
    rank is often short of full and pivot columns get skipped."""
    rng = random.Random(27)
    pool = [0, 0, 0, 1, -1, 2, Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7)]
    for _ in range(300):
        ncols = rng.randrange(1, 7)
        rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(rng.randrange(0, 5))]
        for _ in range(rng.randrange(0, 3) if rows else 0):
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.choice(pool)
            rows.append([x + c * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        assert fraction_free_rank(rows) == Matrix(rows, ncols=ncols).rank(), rows
