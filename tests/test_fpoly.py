import pytest

from quivertilt.errors import LaurentPhenomenonViolation, ShapeError
from quivertilt.fpoly import IntPoly, LaurentPoly


def P(nvars, terms):
    return IntPoly(nvars, terms)


def test_one_and_zero():
    one = IntPoly.one(2)
    assert one.is_one()
    assert not one.is_zero()
    assert P(2, {}).is_zero()


def test_add_mul():
    a = P(2, {(1, 0): 1, (0, 0): 1})  # y0 + 1
    b = P(2, {(0, 1): 1, (0, 0): 1})  # y1 + 1
    prod = a * b
    assert prod.terms == {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}
    assert (a + a).terms == {(1, 0): 2, (0, 0): 2}


def test_pow():
    a = P(1, {(1,): 1, (0,): 1})
    assert (a ** 3).terms == {(3,): 1, (2,): 3, (1,): 3, (0,): 1}
    assert (a ** 2).terms == {(2,): 1, (1,): 2, (0,): 1}
    assert a ** 1 == a
    assert (a ** 0).is_one()
    with pytest.raises(ShapeError):
        a ** -1


def test_exact_div_round_trip():
    a = P(2, {(1, 0): 2, (0, 1): 3, (0, 0): 1})
    b = P(2, {(1, 1): 1, (0, 0): 5})
    assert (a * b).exact_div(b) == a
    assert (a * b).exact_div(a) == b


def test_exact_div_rejects_remainder():
    a = P(1, {(1,): 1, (0,): 1})  # y + 1
    b = P(1, {(1,): 1})  # y
    with pytest.raises(LaurentPhenomenonViolation):
        a.exact_div(b)


def test_exact_div_rejects_noninteger():
    a = P(1, {(0,): 3})
    b = P(1, {(0,): 2})
    with pytest.raises(LaurentPhenomenonViolation):
        a.exact_div(b)


def test_negative_exponent_rejected():
    with pytest.raises(ShapeError):
        P(1, {(-1,): 1})
    with pytest.raises(ShapeError):
        P(1, {(-1,): 0})


def test_counts():
    a = P(2, {(1, 0): 2, (0, 0): 1})
    assert len(a.terms) == 2
    assert sum(a.terms.values()) == 3


def test_sorted_serialization():
    v = LaurentPoly(2, {(1, 0): 2, (-1, 1): 3})
    assert v.to_sorted_list() == [[[-1, 1], 3], [[1, 0], 2]]
