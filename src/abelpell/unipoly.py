"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of ``fractions.Fraction`` coefficients,
constant term first, with trailing zeros trimmed; the zero polynomial is the
empty tuple.  Every operation in this module (and this package) is exact --
there is no floating point and no epsilon anywhere.

Resultants come from the Euclidean remainder sequence, not from a Sylvester
determinant: res(a, b) = (-1)^(deg a * deg b) lc(b)^(deg a - deg r) res(b, r)
with r = a mod b.

>>> poly(-2, 0, 1)
UniPoly('x^2 - 2')
>>> poly(-2, 0, 1).degree
2
>>> resultant(poly(-2, 0, 1), poly(0, 2))
Fraction(-8, 1)
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = int | Fraction


def _as_fraction(c: Rat) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


@dataclass(frozen=True)
class UniPoly:
    """A univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i; the last coefficient is nonzero
    unless the polynomial is zero (empty tuple).
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_normalized(self) -> bool:
        """Monic with zero next-to-highest coefficient (degree 0 counts)."""
        return self.is_monic() and (len(self.coeffs) < 2 or self.coeffs[-2] == 0)

    def coeff(self, i: int) -> Fraction:
        """The coefficient of x^i (zero beyond the stored range)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: UniPoly | Rat) -> UniPoly:
        other = _coerce(other)
        return UniPoly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0))
        )

    __radd__ = __add__

    def __sub__(self, other: UniPoly | Rat) -> UniPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other: UniPoly | Rat) -> UniPoly:
        return _coerce(other) - self

    def __neg__(self) -> UniPoly:
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: UniPoly | Rat) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UniPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Euclidean division over the rationals (always exact).

        >>> divmod(poly(-1, 0, 1), poly(1, 1))
        (UniPoly('x - 1'), UniPoly('0'))
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dl = other.degree, other.leading
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / dl
            if c == 0:
                continue
            quo[i - dd] = c
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] -= c * b
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other: UniPoly) -> UniPoly:
        return divmod(self, other)[0]

    def __mod__(self, other: UniPoly) -> UniPoly:
        """The remainder of :meth:`__divmod__`, without building the quotient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dl = other.degree, other.leading
        # rem[i] itself is not updated: its new value is 0 and it is dropped.
        low = other.coeffs[:-1]
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / dl
            if c == 0:
                continue
            for j, b in enumerate(low):
                rem[i - dd + j] -= c * b
        return UniPoly(rem[:dd])

    def divides(self, other: UniPoly) -> bool:
        return (other % self).is_zero()

    def exact_div(self, other: UniPoly) -> UniPoly:
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return quo

    # -- calculus and substitution ------------------------------------------

    def derivative(self) -> UniPoly:
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> UniPoly:
        """Scale by the inverse of the leading coefficient."""
        return self * (1 / self.leading)

    def evaluate(self, x: Rat) -> Fraction:
        """Horner evaluation at an exact rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_linear(self, a: Rat, b: Rat) -> UniPoly:
        """The polynomial p(a*x + b)."""
        arg = UniPoly((b, a))
        acc = UniPoly(())
        for c in reversed(self.coeffs):
            acc = acc * arg + c
        return acc

    def substitute_power(self, m: int) -> UniPoly:
        """The polynomial p(x^m) for m >= 1."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        out = [Fraction(0)] * (m * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return UniPoly(out)

    def shift_degree(self, k: int) -> UniPoly:
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative degree shift")
        return UniPoly((Fraction(0),) * k + self.coeffs)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"UniPoly('{format_poly(self)}')"


def _coerce(value: UniPoly | Rat) -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    return UniPoly((value,))


def poly(*coeffs: Rat) -> UniPoly:
    """Build a polynomial from coefficients, constant term first."""
    return UniPoly(coeffs)


def constant(c: Rat) -> UniPoly:
    return UniPoly((c,))


ZERO = UniPoly(())
ONE = UniPoly((1,))


def format_poly(p: UniPoly, var: str = "x") -> str:
    """Human-readable form, parseable back by :func:`abelpell.parsing.parse_poly`.

    >>> format_poly(poly(-2, 0, 1))
    'x^2 - 2'
    >>> format_poly(poly(Fraction(1, 2), 0, -3))
    '-3*x^2 + 1/2'
    """
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# -- classical exact algorithms ----------------------------------------------


def gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor by the Euclidean algorithm.

    >>> gcd(poly(-1, 0, 1), poly(1, 1))
    UniPoly('x + 1')
    """
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's gcd chain: p = lc * prod f_i^{m_i} with f_i monic, squarefree,
    pairwise coprime, and the m_i strictly increasing.

    Valid unconditionally in characteristic zero.

    >>> squarefree_decomposition(poly(0, 0, 1))
    [(UniPoly('x'), 2)]
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    out: list[tuple[UniPoly, int]] = []
    if p.degree == 0:
        return out
    f = p.monic()
    df = f.derivative()
    a = gcd(f, df)
    if a.degree == 0:
        return [(f, 1)]
    b = f.exact_div(a)
    c = df.exact_div(a) - b.derivative()
    m = 1
    while b.degree > 0:
        g = gcd(b, c)
        if g.degree > 0:
            out.append((g, m))
        b = b.exact_div(g)
        c = c.exact_div(g) - b.derivative()
        m += 1
    return out


def reassemble_squarefree(parts: Sequence[tuple[UniPoly, int]], lc: Rat = 1) -> UniPoly:
    """Inverse of :func:`squarefree_decomposition` (up to the given constant)."""
    acc = constant(lc)
    for f, m in parts:
        acc = acc * f**m
    return acc


def squarefree_part(p: UniPoly) -> UniPoly:
    """The monic radical: the product of the distinct monic irreducible factors."""
    acc = ONE
    for f, _ in squarefree_decomposition(p):
        acc = acc * f
    return acc


def is_squarefree(p: UniPoly) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    return gcd(p, p.derivative()).degree == 0


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """The resultant of two nonzero polynomials, by the Euclidean remainder
    sequence.

    With r = a mod b, res(a, b) = (-1)^(deg a * deg b) lc(b)^(deg a - deg r)
    res(b, r); a zero remainder (a common factor) gives 0, and a constant c
    gives res(a, c) = c^(deg a).  Each step is one division, so the cost is
    O(deg p * deg q) field operations.  Zero exactly when p and q have a
    nontrivial common factor.

    >>> resultant(poly(-1, 1), poly(1, 1))
    Fraction(2, 1)
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    acc = Fraction(1)
    a, b = p, q
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return Fraction(0)
        if a.degree * b.degree % 2:
            acc = -acc
        acc *= b.leading ** (a.degree - r.degree)
        a, b = b, r
    return acc * b.leading**a.degree


def interpolate(points: Sequence[tuple[Rat, Rat]]) -> UniPoly:
    """The unique polynomial of degree < len(points) through the given points.

    Newton's divided differences, exact over the rationals.
    """
    xs = [_as_fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    if not points:
        return ZERO
    coeffs = [_as_fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    acc = constant(coeffs[-1])
    for i in range(len(points) - 2, -1, -1):
        acc = acc * UniPoly((-xs[i], 1)) + coeffs[i]
    return acc
