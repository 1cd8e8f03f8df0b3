"""Recursive-descent parser for exact polynomial expressions.

Grammar: integer and rational literals of ASCII digits (``3``, ``5/2``), one
variable name ``[A-Za-z_][A-Za-z0-9_]*`` (``x`` unless the expression
introduces another), ``+``, ``-``, ``*``, ``^`` with nonnegative integer
exponents, and parentheses.  Anything else is rejected with a
position-annotated :class:`ParseError`; a power or product
whose degree would exceed :data:`abelpell.limits.MAX_DEGREE` or whose
coefficients could not be printed, and parentheses nested deeper than
:data:`abelpell.limits.MAX_NESTING`, raise
:class:`abelpell.limits.ResourceLimit` before they are parsed further.  The printer
:func:`abelpell.unipoly.format_poly` emits this grammar, so parse/print is a
round trip.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .limits import MAX_DEGREE, MAX_NESTING, ResourceLimit
from .unipoly import UniPoly

MAX_EXPONENT = 100_000


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ResourceLimit(f"polynomial degree {degree} exceeds the cap of {MAX_DEGREE}")


def _check_height(bits: int) -> None:
    # Twice the bits of a number with the int-to-str digit limit (0, or absent
    # before 3.10.7: none); _height_bits overshoots printable sizes by <= 2x.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    cap = 2 * math.ceil(digits * math.log2(10))
    if digits and bits > cap:
        raise ResourceLimit(f"coefficients of up to {bits} bits exceed the cap of {cap} bits")


def printable(p: UniPoly) -> bool:
    """Whether ``str(p)`` succeeds: no numerator or denominator of a
    coefficient has more digits than the int-to-str digit limit."""
    digits = getattr(sys, "get_int_max_str_digits", int)()
    bound = 10**digits
    return not digits or all(max(abs(c.numerator), c.denominator) < bound for c in p.coeffs)


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


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    position: int
    value: Fraction | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            numerator = int(text[start:i])
            value = Fraction(numerator)
            # A slash glues two integers into one rational literal.
            if i < n and text[i] == "/":
                j = i + 1
                if j >= n or text[j] not in _DIGITS:
                    raise ParseError("expected digits after '/' in rational literal", i)
                while j < n and text[j] in _DIGITS:
                    j += 1
                denominator = int(text[i + 1 : j])
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", i + 1)
                value = Fraction(numerator, denominator)
                i = j
            tokens.append(_Token("number", text[start:i], start, value))
            continue
        if ch in _NAME_CHARS:  # not a digit: digits start a number
            start = i
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(_Token("name", text[start:i], start))
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var: str | None):
        self.tokens = tokens
        self.pos = 0
        self.var = var
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.position)
        return self.take()

    def parse(self) -> UniPoly:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return result

    def expr(self) -> UniPoly:
        acc = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            term = self.term()
            acc = acc + term if op.text == "+" else acc - term
        return acc

    def term(self) -> UniPoly:
        acc = self.signed()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            factor = self.signed()
            _check_degree(acc.degree + factor.degree)
            _check_height(_height_bits(acc) + _height_bits(factor))
            acc = acc * factor
        return acc

    def signed(self) -> UniPoly:
        # A loop, not recursion: a run of signs costs no stack.
        negate = False
        while self.peek().kind == "op" and self.peek().text in "+-":
            negate ^= self.take().text == "-"
        inner = self.power()
        return -inner if negate else inner

    def power(self) -> UniPoly:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "number" or tok.value is None or tok.value.denominator != 1:
                raise ParseError("exponent must be a nonnegative integer", tok.position)
            self.take()
            exponent = tok.value.numerator
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", tok.position)
            _check_degree(base.degree * exponent)
            _check_height(_height_bits(base) * exponent)
            return base**exponent
        return base

    def atom(self) -> UniPoly:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            assert tok.value is not None
            return UniPoly((tok.value,))
        if tok.kind == "name":
            self.take()
            if self.var is None:
                self.var = tok.text
            elif tok.text != self.var:
                raise ParseError(
                    f"unknown identifier {tok.text!r} (the variable is {self.var!r})",
                    tok.position,
                )
            return UniPoly((0, 1))
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ResourceLimit(
                    f"parentheses nested deeper than the cap of {MAX_NESTING}"
                    f" (column {tok.position + 1})"
                )
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(
            "expected a number, the variable, or a parenthesised expression",
            tok.position,
        )


def parse_poly(text: str, var: str | None = None) -> UniPoly:
    """Parse an exact polynomial expression.

    >>> parse_poly("x^2-2").coeffs
    (Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1))
    >>> parse_poly("(x^2+1)*(x^2-1)")
    UniPoly('x^4 - 1')
    """
    return _Parser(_tokenize(text), var).parse()
