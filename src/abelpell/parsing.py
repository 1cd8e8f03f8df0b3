"""Recursive-descent parser for exact polynomial expressions.

Grammar: integer and rational literals of ASCII digits (``3``, ``5/2``), one
variable name ``[A-Za-z_][A-Za-z0-9_]*`` (``x`` unless the expression
introduces another), ``+``, ``-``, ``*``, ``^`` with nonnegative integer
exponents, and parentheses.  The printer :func:`abelpell.unipoly.format_poly`
emits this grammar, so parse/print is a round trip.

The text is read once, left to right, and the first error reached is raised:
``x)$`` fails on its ``)``, not on the ``$`` after it.  Anything outside the
grammar is a position-annotated :class:`ParseError`.  A number literal longer
than the int-to-str digit limit, a power or product whose degree would exceed
:data:`abelpell.limits.MAX_DEGREE` or whose coefficients could not be printed,
and parentheses nested deeper than :data:`abelpell.limits.MAX_NESTING` raise
:class:`abelpell.limits.ResourceLimit` before they are computed.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .limits import MAX_DEGREE, MAX_NESTING, ResourceLimit
from .unipoly import UniPoly, digit_limit

MAX_EXPONENT = 100_000


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ResourceLimit(f"polynomial degree {degree} exceeds the cap of {MAX_DEGREE}")


def _check_height(bits: int) -> None:
    # Twice the bits of a number with the int-to-str digit limit (0: none);
    # _height_bits overshoots printable sizes by <= 2x.
    digits = digit_limit()
    cap = 2 * math.ceil(digits * math.log2(10))
    if digits and bits > cap:
        raise ResourceLimit(f"coefficients of up to {bits} bits exceed the cap of {cap} bits")


def _height_bits(p: UniPoly) -> int:
    """ceil(log2 max(sum |num|, den)): bounds every numerator and the
    denominator, and adds up under products; for c^e with an integer c >= 2,
    e times it is at most twice the bit length of c^e."""
    return (max(sum(map(abs, p.num)), p.den) - 1).bit_length()


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


_DIGITS = frozenset("0123456789")
_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_") | _DIGITS
_TOKEN_CHARS = _NAME_CHARS | frozenset("+-*^()")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.var: str | None = None
        self.depth = 0

    def peek(self) -> str:
        """Skip whitespace and return the next character, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        ch = self.text[self.pos : self.pos + 1]
        if ch and ch not in _TOKEN_CHARS:
            raise ParseError(f"unexpected character {ch!r}", self.pos)
        return ch

    def run(self, chars: frozenset[str]) -> str:
        """Read the longest run of ``chars`` at the position."""
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos] in chars:
            self.pos += 1
        return text[start : self.pos]

    def integer(self) -> int:
        start, digits = self.pos, self.run(_DIGITS)
        limit = digit_limit()
        if limit and len(digits) > limit:
            raise ResourceLimit(
                f"a number literal of {len(digits)} digits exceeds the limit of {limit} digits"
                f" (column {start + 1})"
            )
        return int(digits)

    def literal(self) -> Fraction | str:
        """Read the number or name at the position: its value, or the name.
        A slash right after digits glues two integers into one rational."""
        if self.text[self.pos] not in _DIGITS:
            return self.run(_NAME_CHARS)
        numerator, slash = self.integer(), self.pos
        if not self.text.startswith("/", slash):
            return Fraction(numerator)
        self.pos += 1
        if self.text[self.pos : self.pos + 1] not in _DIGITS:
            raise ParseError("expected digits after '/' in rational literal", slash)
        denominator = self.integer()
        if denominator == 0:
            raise ParseError("zero denominator in rational literal", slash + 1)
        return Fraction(numerator, denominator)

    def parse(self) -> UniPoly:
        result = self.expr()
        if ch := self.peek():
            start = self.pos
            if ch in _NAME_CHARS:
                self.literal()
            else:
                self.pos += 1
            raise ParseError(f"unexpected {self.text[start : self.pos]!r}", start)
        return result

    def expr(self) -> UniPoly:
        acc = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            term = self.term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def term(self) -> UniPoly:
        acc = self.signed()
        while self.peek() == "*":
            self.pos += 1
            factor = self.signed()
            _check_degree(acc.degree + factor.degree)
            _check_height(_height_bits(acc) + _height_bits(factor))
            acc = acc * factor
        return acc

    def signed(self) -> UniPoly:
        # A loop, not recursion: a run of signs costs no stack.
        negate = False
        while (sign := self.peek()) in ("+", "-"):
            self.pos += 1
            negate ^= sign == "-"
        inner = self.power()
        return -inner if negate else inner

    def power(self) -> UniPoly:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        number = self.peek() in _DIGITS
        start = self.pos
        # An integer literal only: "x^4/2" is an error, not x^2.
        exponent = self.integer() if number else None
        if exponent is None or self.text.startswith("/", self.pos):
            raise ParseError("exponent must be a nonnegative integer", start)
        if exponent > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", start)
        _check_degree(base.degree * exponent)
        _check_height(_height_bits(base) * exponent)
        return base**exponent

    def atom(self) -> UniPoly:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ResourceLimit(
                    f"parentheses nested deeper than the cap of {MAX_NESTING}"
                    f" (column {start + 1})"
                )
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch not in _NAME_CHARS:
            message = "expected a number, the variable, or a parenthesised expression"
            raise ParseError(message, start)
        value = self.literal()
        if isinstance(value, Fraction):
            return UniPoly((value,))
        if self.var is None:
            self.var = value
        elif value != self.var:
            raise ParseError(
                f"unknown identifier {value!r} (the variable is {self.var!r})", start
            )
        return UniPoly((0, 1))


def parse_poly(text: str) -> UniPoly:
    """Parse an exact polynomial expression; its first name is the variable.

    >>> parse_poly("x^2-2").coeffs
    (Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1))
    >>> parse_poly("(x^2+1)*(x^2-1)")
    UniPoly('x^4 - 1')
    """
    return _Parser(text).parse()
