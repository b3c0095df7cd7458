"""Exact multivariate polynomials over the rationals.

With sizes fixed, a division-free kernel is a loop nest whose control flow
does not depend on input values, so running it on *variables* instead of
numbers yields, for every output element, a polynomial in the input
elements.  :class:`Poly` is that value: the C interpreter and the TACO
evaluator accept it in exact mode wherever they accept a
:class:`~fractions.Fraction`, and two programs agree on every rational input
exactly when the polynomials they compute are equal.

A :class:`Poly` maps monomials to non-zero rational coefficients.  A monomial
is a sorted tuple of variable ids with one entry per factor: ``(0, 0, 3)`` is
``x0**2 * x3`` and ``()`` is the constant term.

Arithmetic that stays polynomial — ``+``, ``-``, ``*`` and division by a
non-zero constant — returns a :class:`Poly`, or a plain :class:`Fraction`
when the result is constant, so a :class:`Poly` is never constant.
Everything that needs the *value* of a non-constant polynomial — comparing
it, testing its truth, converting it to an integer, dividing by it — raises
:class:`NotPolynomial`, and the caller falls back to checking concrete
inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

#: A product of variables: sorted variable ids, one per factor.
Monomial = Tuple[int, ...]

#: The exact constants a :class:`Poly` combines with.
_CONSTANTS = (int, Fraction)


class NotPolynomial(Exception):
    """A run needs the value of a non-constant polynomial.

    Deliberately not a :class:`~repro.cfront.errors.CRuntimeError`: a trap
    means "this input is outside the equivalence claim", while this means
    "the run cannot be done symbolically".
    """


def _value_needed(what: str):
    def refuse(self, *_args):
        raise NotPolynomial(f"cannot {what} a non-constant polynomial")

    return refuse


class Poly:
    """A non-constant polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Union[int, Fraction]]) -> None:
        #: Monomial -> non-zero coefficient; at least one non-constant term.
        self.terms = terms

    @staticmethod
    def variable(ident: int) -> "Poly":
        """The polynomial ``x<ident>``."""
        return Poly({(ident,): 1})

    # ------------------------------------------------------------------ #
    # Polynomial arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        if isinstance(other, Poly):
            terms = dict(self.terms)
            for monomial, coefficient in other.terms.items():
                terms[monomial] = terms.get(monomial, 0) + coefficient
            return _normal(terms)
        if isinstance(other, _CONSTANTS):
            if not other:
                return self
            terms = dict(self.terms)
            terms[()] = terms.get((), 0) + other
            return _normal(terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({monomial: -c for monomial, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (Poly,) + _CONSTANTS):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONSTANTS):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Poly):
            terms: Dict[Monomial, Union[int, Fraction]] = {}
            for left, a in self.terms.items():
                for right, b in other.terms.items():
                    monomial = tuple(sorted(left + right))
                    terms[monomial] = terms.get(monomial, 0) + a * b
            return _normal(terms)
        if isinstance(other, _CONSTANTS):
            if not other:
                return Fraction(0)
            return Poly({monomial: c * other for monomial, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _CONSTANTS):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            return self * (1 / Fraction(other))
        if isinstance(other, Poly):
            raise NotPolynomial("division by a non-constant polynomial")
        return NotImplemented

    __rtruediv__ = _value_needed("divide by")

    # ------------------------------------------------------------------ #
    # Operations that need a value.  Conditions, comparisons, subscripts,
    # int stores and remainders in the C interpreter reach these; without
    # them a truth test would silently be True.
    # ------------------------------------------------------------------ #
    __eq__ = _value_needed("compare")
    __ne__ = _value_needed("compare")
    __lt__ = _value_needed("compare")
    __le__ = _value_needed("compare")
    __gt__ = _value_needed("compare")
    __ge__ = _value_needed("compare")
    __bool__ = _value_needed("test the truth of")
    __int__ = _value_needed("convert to int")
    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def degree(self) -> int:
        return max(len(monomial) for monomial in self.terms)

    def evaluate(self, point: Mapping[int, Union[int, Fraction]]) -> Fraction:
        """The value at *point* (variable id -> value)."""
        total = Fraction(0)
        for monomial, coefficient in self.terms.items():
            term = Fraction(coefficient)
            for ident in monomial:
                term *= point[ident]
            total += term
        return total

    def __repr__(self) -> str:
        parts = []
        for monomial, coefficient in sorted(self.terms.items()):
            factors = [f"x{ident}" for ident in monomial]
            if coefficient != 1 or not factors:
                factors.insert(0, str(coefficient))
            parts.append("*".join(factors))
        return " + ".join(parts)


def _normal(terms: Dict[Monomial, Union[int, Fraction]]):
    """*terms* without zero coefficients: a :class:`Poly`, or a constant."""
    terms = {monomial: c for monomial, c in terms.items() if c}
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and () in terms:
        return Fraction(terms[()])
    return Poly(terms)


def is_zero(value: Union[Poly, int, Fraction]) -> bool:
    """Whether *value* is the zero polynomial."""
    return not isinstance(value, Poly) and value == 0


def witness(poly: Poly, rng: random.Random) -> Dict[int, int]:
    """Integer values for *poly*'s variables at which it is non-zero.

    Values are drawn from a range wider than twice the degree, so by the
    Schwartz-Zippel lemma each draw is a root with probability below 1/4.
    """
    variables = sorted({ident for monomial in poly.terms for ident in monomial})
    bound = 2 * poly.degree() + 1
    while True:
        point = {ident: rng.randint(-bound, bound) for ident in variables}
        if poly.evaluate(point):
            return point
