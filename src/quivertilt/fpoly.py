"""Sparse integer polynomials in the coefficient variables y, and Laurent
polynomials in (x, y), both with arbitrary-precision coefficients.

F-polynomial mutation needs one nontrivial operation: exact division.  The
single-divisor division algorithm with lexicographic leading terms terminates
with remainder zero exactly when the division is exact, which is the Laurent
phenomenon assertion the cluster engine relies on.
"""

from __future__ import annotations

import operator
from typing import Mapping

from .errors import LaurentPhenomenonViolation, ShapeError

Monomial = tuple[int, ...]


def _add_exponents(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def _sub_exponents(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


class IntPoly:
    """Polynomial with integer coefficients and nonnegative exponents."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        self.nvars = nvars
        terms = terms or {}
        for mono in terms:
            if len(mono) != nvars:
                raise ShapeError("monomial arity mismatch")
            if min(mono, default=0) < 0:
                raise ShapeError("negative exponent in polynomial")
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def one(nvars: int) -> "IntPoly":
        return IntPoly(nvars, {(0,) * nvars: 1})

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntPoly)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if other.nvars != self.nvars:
            raise ShapeError("adding polynomials of different arity")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return IntPoly(self.nvars, out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if other.nvars != self.nvars:
            raise ShapeError("multiplying polynomials of different arity")
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = _add_exponents(m1, m2)
                out[key] = out.get(key, 0) + c1 * c2
        return IntPoly(self.nvars, out)

    def __pow__(self, power: int) -> "IntPoly":
        if power < 0:
            raise ShapeError("negative polynomial power")
        result = IntPoly.one(self.nvars)
        for _ in range(power):
            result = result * self
        return result

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Exact polynomial quotient; raises LaurentPhenomenonViolation when
        the division leaves a remainder or a non-integer coefficient."""
        if divisor.is_zero():
            raise LaurentPhenomenonViolation("division by the zero polynomial")
        remainder = dict(self.terms)
        lead_d = max(divisor.terms)
        coeff_d = divisor.terms[lead_d]
        quotient: dict[Monomial, int] = {}
        while remainder:
            lead_r = max(remainder)
            coeff_r = remainder[lead_r]
            q_mono = _sub_exponents(lead_r, lead_d)
            if any(e < 0 for e in q_mono) or coeff_r % coeff_d:
                raise LaurentPhenomenonViolation("inexact exchange-relation division")
            q_coeff = coeff_r // coeff_d
            quotient[q_mono] = quotient.get(q_mono, 0) + q_coeff
            for m, c in divisor.terms.items():
                key = _add_exponents(q_mono, m)
                val = remainder.get(key, 0) - q_coeff * c
                if val:
                    remainder[key] = val
                else:
                    remainder.pop(key, None)
        return IntPoly(self.nvars, quotient)

    def to_sorted_list(self) -> list[tuple[list[int], int]]:
        return [[list(m), c] for m, c in sorted(self.terms.items())]

    def __repr__(self) -> str:
        if self.is_zero():
            return "IntPoly(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            vars_part = "*".join(
                f"y{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            bits.append(f"{coeff}" + (f"*{vars_part}" if vars_part else ""))
        return " + ".join(bits)


class LaurentPoly:
    """Laurent polynomial: integer exponent vectors with integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        self.nvars = nvars
        terms = terms or {}
        if any(len(mono) != nvars for mono in terms):
            raise ShapeError("monomial arity mismatch")
        self.terms = {m: c for m, c in terms.items() if c}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def to_sorted_list(self) -> list[tuple[list[int], int]]:
        return [[list(m), c] for m, c in sorted(self.terms.items())]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_sorted_list()})"
