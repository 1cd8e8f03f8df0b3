"""Truncated Laurent expansions in descending powers of x.

A tail stores the coefficients of x^top, x^(top-1), ..., x^floor and nothing
below; ``floor`` is the lowest degree whose coefficient is still known.
Arithmetic propagates the window pessimistically, so every stored coefficient
of a result is exact.  An operation that would leave an empty window raises
:class:`PrecisionError` instead of silently truncating.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import rational_sqrt
from .unipoly import Rat, UniPoly, _as_fraction


class PrecisionError(ArithmeticError):
    """Raised when a truncated expansion no longer carries the digits asked for."""


@dataclass(frozen=True)
class LaurentTail:
    """Coefficients of x^top .. x^floor; ``coeffs[0]`` is nonzero unless the
    whole window is zero (empty tuple)."""

    floor: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, floor: int, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[0] == 0:
            cs.pop(0)
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_poly(cls, p: UniPoly, floor: int) -> LaurentTail:
        """View a polynomial as a tail known down to degree ``floor``."""
        if p.is_zero() or p.degree < floor:
            return cls(floor, ())
        cs = [p.coeff(i) for i in range(p.degree, floor - 1, -1)]
        return cls(floor, cs)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every tracked coefficient vanishes (exact zero is
        indistinguishable from zero-to-this-precision)."""
        return not self.coeffs

    @property
    def top(self) -> int:
        if not self.coeffs:
            raise PrecisionError("zero tail has no leading term")
        return self.floor + len(self.coeffs) - 1

    @property
    def precision(self) -> int:
        """Number of known coefficients from the leading term down."""
        return len(self.coeffs)

    def coeff(self, degree: int) -> Fraction:
        if degree < self.floor:
            raise PrecisionError(f"coefficient of x^{degree} below tracked window")
        if not self.coeffs or degree > self.top:
            return Fraction(0)
        return self.coeffs[self.top - degree]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: LaurentTail) -> LaurentTail:
        floor = max(self.floor, other.floor)
        tops = [t.top for t in (self, other) if not t.is_zero()]
        top = max(tops) if tops else floor - 1
        return LaurentTail(
            floor, [self.coeff(d) + other.coeff(d) for d in range(top, floor - 1, -1)]
        )

    def __neg__(self) -> LaurentTail:
        return LaurentTail(self.floor, [-c for c in self.coeffs])

    def __sub__(self, other: LaurentTail) -> LaurentTail:
        return self + (-other)

    def __mul__(self, other: LaurentTail) -> LaurentTail:
        if self.is_zero() or other.is_zero():
            # 0 * (known to floor f) is zero wherever either factor is tracked.
            floors = []
            if self.is_zero():
                floors.append(self.floor + (other.top if not other.is_zero() else 0))
            if other.is_zero():
                floors.append(other.floor + (self.top if not self.is_zero() else 0))
            return LaurentTail(max(floors), ())
        floor = max(self.floor + other.top, other.floor + self.top)
        top = self.top + other.top
        out = []
        for d in range(top, floor - 1, -1):
            total = Fraction(0)
            for i in range(self.floor, self.top + 1):
                j = d - i
                if other.floor <= j <= other.top:
                    total += self.coeff(i) * other.coeff(j)
            out.append(total)
        return LaurentTail(floor, out)

    def scale(self, c: Rat) -> LaurentTail:
        return LaurentTail(self.floor, [_as_fraction(c) * a for a in self.coeffs])

    def sqrt(self) -> LaurentTail:
        """Formal square root, normalised to positive leading coefficient.

        Requires an even leading degree and a leading coefficient that is the
        square of a rational.  Coefficients are recovered top-down; the result
        keeps the operand's precision count.
        """
        if self.is_zero():
            raise PrecisionError("square root of a (truncated) zero tail")
        if self.top % 2:
            raise ValueError("square root needs an even leading degree")
        lead = self.coeffs[0]
        root = rational_sqrt(lead)
        if root is None:
            raise ValueError(f"leading coefficient {lead} is not a rational square")
        half_top = self.top // 2
        known = self.precision
        s = [root]
        for j in range(1, known):
            acc = self.coeffs[j]
            for i in range(1, j):
                acc -= s[i] * s[j - i]
            s.append(acc / (2 * root))
        return LaurentTail(half_top - known + 1, s)

    def poly_part(self) -> UniPoly:
        """The sum of the terms of degree >= 0, as a polynomial."""
        if self.floor > 0:
            raise PrecisionError("window does not reach degree 0")
        if self.is_zero() or self.top < 0:
            return UniPoly(())
        return UniPoly([self.coeff(i) for i in range(0, self.top + 1)])


def sqrt_tail(p: UniPoly, precision: int) -> LaurentTail:
    """The leading ``precision`` coefficients of the Laurent expansion of
    sqrt(p) at infinity, for p monic of even degree."""
    if p.is_zero() or not p.is_monic() or p.degree % 2:
        raise ValueError("need a monic polynomial of even degree")
    if precision < 1:
        raise ValueError("precision must be positive")
    tail = LaurentTail.from_poly(p, p.degree - 2 * (precision - 1))
    return tail.sqrt()


def laurent_sqrt_polypart(r: UniPoly) -> UniPoly:
    """The polynomial part of sqrt(r) at infinity: the unique monic Y of
    degree (deg r)/2 with deg(r - Y^2) < deg Y.

    >>> from .unipoly import poly
    >>> laurent_sqrt_polypart(poly(-2, 0, 1))
    UniPoly('x')
    >>> laurent_sqrt_polypart(poly(1, 0, 0, 0, 1))
    UniPoly('x^2')
    """
    # The root's terms of degree >= 0 need r only down to degree (deg r)/2.
    y = sqrt_tail(r, r.degree // 2 + 1).poly_part()
    # Exact sanity check of the defining property, independent of the series.
    half = r.degree // 2
    if not (y.is_monic() and y.degree == half and (r - y * y).degree <= half - 1):
        raise AssertionError("square-root polynomial part failed its contract")
    return y
