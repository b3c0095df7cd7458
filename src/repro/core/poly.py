"""Exact polynomials, and quotients of them, over the rationals.

With sizes fixed, a kernel whose control flow does not depend on input
values is a straight-line program, so running it on *variables* instead of
numbers yields, for every output element, a rational function of the input
elements: a :class:`Poly` while the run only adds, subtracts and multiplies,
and a :class:`Quotient` once it divides by an input.  The C interpreter and
the TACO evaluator accept both in exact mode wherever they accept a
:class:`~fractions.Fraction`, and two programs agree on every rational input
at which neither divides by zero exactly when the rational functions they
compute are equal.

A :class:`Poly` maps monomials to non-zero rational coefficients.  A monomial
is a sorted tuple of variable ids with one entry per factor: ``(0, 0, 3)`` is
``x0**2 * x3`` and ``()`` is the constant term.

Arithmetic that stays polynomial — ``+``, ``-``, ``*`` and division by a
non-zero constant — returns a :class:`Poly`, or a plain :class:`Fraction`
when the result is constant, so a :class:`Poly` is never constant.  Dividing
by a :class:`Poly`, and any arithmetic on a :class:`Quotient`, returns a
:class:`Quotient` ``n/d``.  A quotient never collapses back into a
polynomial or a constant, not even when multiplied by 0, because it carries
its :attr:`~Quotient.divisors`: every polynomial the computation divided by,
up to a constant factor.  A program traps wherever one of them is zero.

Everything that needs the *value* of a non-constant polynomial or of a
quotient — comparing it, testing its truth, converting it to an integer —
raises :class:`NotPolynomial`, and the caller falls back to checking
concrete inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, FrozenSet, Mapping, Tuple, Union

#: A product of variables: sorted variable ids, one per factor.
Monomial = Tuple[int, ...]

#: The exact constants a :class:`Poly` combines with.
_CONSTANTS = (int, Fraction)

#: A polynomial up to a constant factor: its terms scaled so that the
#: largest monomial's coefficient is 1, in monomial order.
Divisor = Tuple[Tuple[Monomial, Fraction], ...]


class NotPolynomial(Exception):
    """A run needs the value of a non-constant polynomial or of a quotient.

    Deliberately not a :class:`~repro.cfront.errors.CRuntimeError`: a trap
    means "this input is outside the equivalence claim", while this means
    "the run cannot be done symbolically".
    """


def _value_needed(what: str):
    def refuse(self, *_args):
        raise NotPolynomial(f"cannot {what} a symbolic value")

    return refuse


class Symbolic:
    """A value in input variables: a :class:`Poly` or a :class:`Quotient`.

    Conditions, comparisons, subscripts, ``int`` stores and remainders in
    the C interpreter need its value and raise :class:`NotPolynomial`;
    without these a truth test would silently be True.
    """

    __slots__ = ()

    __eq__ = _value_needed("compare")
    __ne__ = _value_needed("compare")
    __lt__ = _value_needed("compare")
    __le__ = _value_needed("compare")
    __gt__ = _value_needed("compare")
    __ge__ = _value_needed("compare")
    __bool__ = _value_needed("test the truth of")
    __int__ = _value_needed("convert to int")
    __hash__ = None  # type: ignore[assignment]


class Poly(Symbolic):
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
        if isinstance(other, Symbolic):
            return divide(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANTS):
            return divide(other, self)
        return NotImplemented

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


class Quotient(Symbolic):
    """``numerator / denominator``, and every polynomial divided by on the way.

    The numerator is a :class:`Poly` or a constant, the denominator a
    :class:`Poly` or a non-zero constant.  The fraction is never reduced, so
    two quotients are equal when ``n1*d2 - n2*d1`` is the zero polynomial.
    """

    __slots__ = ("numerator", "denominator", "divisors")

    def __init__(self, numerator, denominator, divisors: FrozenSet[Divisor]) -> None:
        self.numerator = numerator
        self.denominator = denominator
        #: The polynomials divided by, up to a constant factor.
        self.divisors = divisors

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        numerator, denominator, divisors = _parts(other)
        divisors = self.divisors | divisors
        if _same(self.denominator, denominator):
            return Quotient(self.numerator + numerator, denominator, divisors)
        return Quotient(
            self.numerator * denominator + numerator * self.denominator,
            self.denominator * denominator,
            divisors,
        )

    __radd__ = __add__

    def __neg__(self) -> "Quotient":
        return Quotient(-self.numerator, self.denominator, self.divisors)

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        numerator, denominator, divisors = _parts(other)
        return Quotient(
            self.numerator * numerator,
            self.denominator * denominator,
            self.divisors | divisors,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return divide(self, other)

    def __rtruediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return divide(other, self)

    def __repr__(self) -> str:
        return f"({self.numerator!r}) / ({self.denominator!r})"


#: Everything :class:`Quotient` arithmetic combines with.
_OPERANDS = (Symbolic,) + _CONSTANTS


def _parts(value):
    """*value* as (numerator, denominator, divisors)."""
    if isinstance(value, Quotient):
        return value.numerator, value.denominator, value.divisors
    return value, 1, frozenset()


def _same(left, right) -> bool:
    """Whether two denominators are the same polynomial or constant."""
    if isinstance(left, Poly) or isinstance(right, Poly):
        return isinstance(left, Poly) and isinstance(right, Poly) and left.terms == right.terms
    return left == right


def divide(left, right) -> Quotient:
    """``left / right`` as a :class:`Quotient` that records its divisor.

    Dividing by a quotient ``n/d`` divides by ``n`` (``d`` is already among
    its divisors).  Raises :class:`ZeroDivisionError` when that is the
    constant 0.
    """
    left_numerator, left_denominator, divisors = _parts(left)
    right_numerator, right_denominator, right_divisors = _parts(right)
    divisors = divisors | right_divisors
    if isinstance(right_numerator, Poly):
        divisors = divisors | {divisor(right_numerator)}
    elif not right_numerator:
        raise ZeroDivisionError("division by zero")
    return Quotient(
        left_numerator * right_denominator,
        left_denominator * right_numerator,
        divisors,
    )


def divisor(poly: Poly) -> Divisor:
    """*poly* up to a constant factor."""
    lead = Fraction(poly.terms[max(poly.terms)])
    return tuple(sorted((monomial, c / lead) for monomial, c in poly.terms.items()))


def _normal(terms: Dict[Monomial, Union[int, Fraction]]):
    """*terms* without zero coefficients: a :class:`Poly`, or a constant."""
    terms = {monomial: c for monomial, c in terms.items() if c}
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and () in terms:
        return Fraction(terms[()])
    return Poly(terms)


def is_zero(value: Union[Poly, Quotient, int, Fraction]) -> bool:
    """Whether *value* is the zero polynomial, or a quotient of it."""
    if isinstance(value, Quotient):
        value = value.numerator
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
