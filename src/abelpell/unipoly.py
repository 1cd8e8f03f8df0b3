"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one denominator: ``num``
holds the numerators, constant term first, with trailing zeros trimmed, and
``den`` is positive with gcd(den, *num) == 1, so every polynomial has exactly
one representation and the zero polynomial is ``((), 1)``.  That pair is all
an instance holds; ``coeffs`` builds ``fractions.Fraction`` values on each
read.  Every operation in this module (and this package) is exact -- there is
no floating point and no epsilon anywhere.

The ring operations never build a ``Fraction``: they work on the numerators
and reduce each result once, with a single gcd of the denominator and all the
numerators.  Their list loops ``_trim``, ``_axpy`` (a + s * b), ``_convolve``
and ``_times_linear`` (times x - c) serve :mod:`abelpell.factorization` and
:mod:`abelpell.geometry` too, and ``_power``, the square-and-multiply of
``**``, serves ``factorization.fp_powmod`` and ``pell.pell_power``.
Division first makes the divisor primitive (integer numerators, content
removed), which leaves the remainder unchanged, and then pseudo-divides
lazily: the running remainder is scaled by lead / gcd(top, lead) per step,
not by the whole leading coefficient.

The gcd and the resultant run that loop on the numerators alone, as the
primitive and the subresultant remainder sequence, and build only their
result: no step makes a ``UniPoly``, a ``Fraction`` or a Sylvester matrix.

:func:`format_poly` prints a polynomial in the grammar that
:mod:`abelpell.parsing` reads.  It alone refuses, with ``ResourceLimit``, a
coefficient past the int-to-str digit limit, and so ``str(p)`` does too.

>>> poly(-2, 0, 1)
UniPoly('x^2 - 2')
>>> poly(-2, 0, 1).degree
2
>>> (poly(Fraction(1, 2), 0, 3).num, poly(Fraction(1, 2), 0, 3).den)
((1, 0, 6), 2)
>>> resultant(poly(-2, 0, 1), poly(0, 2))
Fraction(-8, 1)
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm
from typing import Callable, Iterable, Sequence, TypeVar

from .limits import ResourceLimit

Rat = int | Fraction
T = TypeVar("T")


class UniPoly:
    """A univariate polynomial with exact rational coefficients.

    ``num[i] / den`` is the coefficient of x^i.  ``num`` is trimmed (its last
    entry is nonzero unless the polynomial is zero, the empty tuple), ``den``
    is positive and gcd(den, *num) == 1.  Instances are immutable.
    """

    __slots__ = ("num", "den")

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rat]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        # Over the lcm of the reduced denominators the numerators are coprime
        # to it already, so no gcd is needed here.
        den = lcm(*[c.denominator for c in cs])
        nums = [c.numerator * (den // c.denominator) for c in cs]
        _init(self, tuple(_trim(nums)), den)

    def __setattr__(self, name, value):
        raise AttributeError(f"UniPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"UniPoly is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return _made, (self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction`` values, constant term first."""
        return tuple([Fraction(c, self.den) for c in self.num])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    @property
    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    def is_normalized(self) -> bool:
        """Monic with zero next-to-highest coefficient (degree 0 counts)."""
        return self.is_monic() and (len(self.num) < 2 or self.num[-2] == 0)

    def coeff(self, i: int) -> Fraction:
        """The coefficient of x^i (zero beyond the stored range)."""
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    # -- ring operations ---------------------------------------------------

    # An int or Fraction operand is taken exactly, as a constant polynomial;
    # any other type gives NotImplemented, so Python raises TypeError.
    def __add__(self, other: UniPoly | Rat) -> UniPoly:
        return NotImplemented if (b := _operand(other)) is None else _sum(self, b, 1)

    __radd__ = __add__

    def __sub__(self, other: UniPoly | Rat) -> UniPoly:
        return NotImplemented if (b := _operand(other)) is None else _sum(self, b, -1)

    def __rsub__(self, other: UniPoly | Rat) -> UniPoly:
        return NotImplemented if (a := _operand(other)) is None else _sum(a, self, -1)

    def __neg__(self) -> UniPoly:
        return _made(tuple([-c for c in self.num]), self.den)

    def __mul__(self, other: UniPoly | Rat) -> UniPoly:
        if not isinstance(other, UniPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return _reduced([c * other.numerator for c in self.num], self.den * other.denominator)
        return _reduced(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int | Fraction) -> UniPoly:
        # An integral Fraction counts as its int.  Any other exponent raises
        # here: NotImplemented would let Fraction.__rpow__ try a float power.
        if isinstance(n, Fraction) and n.denominator == 1:
            n = n.numerator
        if not isinstance(n, int):
            raise TypeError(f"the exponent {n!r} of a polynomial is not an integer")
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, UniPoly.__mul__) if n else ONE

    def __divmod__(self, other: UniPoly | Rat) -> tuple[UniPoly, UniPoly]:
        """Euclidean division over the rationals (always exact).

        >>> divmod(poly(-1, 0, 1), poly(1, 1))
        (UniPoly('x - 1'), UniPoly('0'))
        """
        return NotImplemented if (b := _operand(other)) is None else _divide(self, b, True)

    def __floordiv__(self, other: UniPoly | Rat) -> UniPoly:
        return NotImplemented if (b := _operand(other)) is None else divmod(self, b)[0]

    def __mod__(self, other: UniPoly | Rat) -> UniPoly:
        """The remainder of :meth:`__divmod__`, without building the quotient."""
        return NotImplemented if (b := _operand(other)) is None else _divide(self, b, False)[1]

    def exact_div(self, other: UniPoly) -> UniPoly:
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return quo

    # -- calculus and substitution ------------------------------------------

    def derivative(self) -> UniPoly:
        return _reduced([i * c for i, c in enumerate(self.num[1:], 1)], self.den)

    def monic(self) -> UniPoly:
        """Scale by the inverse of the leading coefficient."""
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        lead = self.num[-1]
        if lead == self.den:
            return self
        if lead < 0:
            return _reduced([-c for c in self.num], -lead)
        return _reduced(list(self.num), lead)

    def evaluate(self, x: Rat) -> Fraction:
        """Horner evaluation at an exact rational point, on integers: with
        x = p/q, the value is sum num_i p^i q^(d-i) / (den q^d)."""
        if not self.num:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, scale = self.num[-1], 1
        for c in reversed(self.num[:-1]):
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, self.den * scale)

    def deflate(self, root: int) -> UniPoly:
        """The quotient by (x - root)^k for the largest k, for an integer
        root: synthetic division on the numerators, one reduction at the end.

        >>> poly(1, -1, -1, 1).deflate(1)
        UniPoly('x + 1')
        """
        if not isinstance(root, int):
            raise TypeError(f"the root {root!r} to deflate by is not an int")
        num = list(self.num)
        while len(num) > 1:
            carry, quo = 0, []
            for c in reversed(num):
                carry = carry * root + c
                quo.append(carry)
            if quo.pop():
                break
            num = quo[::-1]
        return _reduced(num, self.den)

    def compose_linear(self, a: Rat, b: Rat) -> UniPoly:
        """The polynomial p(a*x + b)."""
        arg = UniPoly((b, a))
        acc = ZERO
        for c in reversed(self.num):
            acc = acc * arg + c
        return acc * Fraction(1, self.den)

    def substitute_power(self, m: int) -> UniPoly:
        """The polynomial p(x^m) for m >= 1."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        out = [0] * (m * len(self.num) - m + 1) if self.num else []
        out[::m] = self.num
        return _made(tuple(out), self.den)

    def power_part(self, m: int) -> tuple[UniPoly, int]:
        """(p0, j) with p = x^j p0(x^m) and 0 <= j < m, for a nonzero p of
        that form: the inverse of :meth:`substitute_power` and
        :meth:`shift_degree`.  p0 is the slice num[j::m]; it holds every
        nonzero numerator (counted, or this raises ``ValueError``), so it keeps
        the normal form and is not reduced again.

        >>> poly(0, 2, 0, 0, 3).power_part(3)
        (UniPoly('3*x + 2'), 1)
        """
        if m < 1:
            raise ValueError("power part needs m >= 1")
        if not self.num:
            raise ValueError("the zero polynomial has no power part")
        j = next(i for i, c in enumerate(self.num) if c) % m
        kept = self.num[j::m]
        if len(self.num) - self.num.count(0) != len(kept) - kept.count(0):
            raise ValueError(f"{self} is not x^{j} times a polynomial in x^{m}")
        return _made(kept, self.den), j

    def shift_degree(self, k: int) -> UniPoly:
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative degree shift")
        if not k or not self.num:
            return self
        return _made((0,) * k + self.num, self.den)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"UniPoly('{format_poly(self)}')"


def _init(p: UniPoly, num: tuple[int, ...], den: int) -> None:
    """Set the two slots."""
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)


def _made(num: tuple[int, ...], den: int) -> UniPoly:
    """A polynomial from numerators and a denominator already in normal form."""
    out = object.__new__(UniPoly)
    _init(out, num, den)
    return out


def _reduced(num: list[int], den: int) -> UniPoly:
    """The polynomial sum_i (num[i]/den) x^i for den > 0: trimmed, then
    reduced by one gcd of den with all the numerators.

    The tuple is built from a list, not a generator: the tuples a generator
    grows and then shrinks were left on the interpreter's free lists and
    raised peak RSS by about 2 MB.
    """
    _trim(num)
    if den != 1:
        g = _int_gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _made(tuple(num), den)


def _sum(a: UniPoly, b: UniPoly, sign: int) -> UniPoly:
    """a + sign * b over the lcm of the two denominators."""
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    return _reduced(_axpy(a.num if sa == 1 else [c * sa for c in a.num], b.num, sb), den)


def _trim(a: list[int]) -> list[int]:
    """Drop the trailing zeros of a, in place, and return it."""
    while a and not a[-1]:
        a.pop()
    return a


def _axpy(a: Sequence[int], b: Sequence[int], s: int) -> list[int]:
    """a + s * b as a new list, the shorter padded with zeros; untrimmed."""
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] += s * c
    return out


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of a and b, untrimmed (all zeros when one is empty)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _times_linear(num: Sequence[int], c: int) -> list[int]:
    """num * (x - c): the inverse of the synthetic pass of :meth:`UniPoly.deflate`."""
    out = [0, *num]
    for i in range(len(num)):
        out[i] -= c * out[i + 1]
    return out


def _power(base: T, n: int, mul: Callable[[T, T], T]) -> T:
    """base^n for n >= 1 by square-and-multiply under the product ``mul``:
    it squares only while bits are left, and takes the first factor as it is."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _divide(a: UniPoly, b: UniPoly, with_quotient: bool) -> tuple[UniPoly | None, UniPoly]:
    """Euclidean division of a by b over Q, run on integers.

    b is replaced by its primitive integer part bp with a positive leading
    coefficient: the remainder does not change, and the quotient by b is
    (den b / content b) times the quotient by bp.  Without ``with_quotient``
    the quotient returned is None.
    """
    if not b.num:
        raise ZeroDivisionError("polynomial division by zero")
    (bp, content), rem, quo = _primitive(b.num), list(a.num), []
    den = a.den * (scale := _pseudo_divide(rem, bp, quo))
    remainder = _reduced(rem, den)
    if not with_quotient:
        return None, remainder
    sign = b.den if content > 0 else -b.den
    quotient = _reduced([t * sign * (scale // s) for t, s in reversed(quo)], den * abs(content))
    return quotient, remainder


def _primitive(num: Sequence[int]) -> tuple[list[int], int]:
    """(num / c, c) for the content c of the integers num, signed so that
    num / c ends in a positive entry; ([], 0) for no entries."""
    c = -_int_gcd(*num) if num and num[-1] < 0 else _int_gcd(*num)
    return [x // c for x in num], c


def _pseudo_divide(rem: list[int], b: list[int], quo: list[tuple[int, int]]) -> int:
    """The loop of every division: reduce the integers rem in place to the
    trimmed remainder of s * rem by the integers b, whose lead is positive,
    and return s.  Eliminating the top coefficient scales rem by lead //
    gcd(top, lead) only, so a monic b never scales it.  Each quotient term,
    top first, is appended to ``quo`` as (t, s so far), for t / (s so far).
    """
    low, lead, dd, scale = b[:-1], b[-1], len(b) - 1, 1
    for i in range(len(rem) - 1, dd - 1, -1):
        g = _int_gcd(rem[i], lead)
        s, t = lead // g, rem[i] // g
        if s != 1:
            rem[:i] = [c * s for c in rem[:i]]
            scale *= s
        # rem[i] itself is not updated: its new value is 0 and it is dropped.
        for j, c in enumerate(low, i - dd):
            rem[j] -= t * c
        quo.append((t, scale))
    del rem[dd:]
    _trim(rem)
    return scale


def _operand(value: object) -> UniPoly | None:
    """A UniPoly, int or Fraction operand as a polynomial; None for any other."""
    if isinstance(value, UniPoly):
        return value
    if not isinstance(value, (int, Fraction)):
        return None
    # An int or Fraction is in lowest terms with a positive denominator.
    return _made((value.numerator,), value.denominator) if value else ZERO


def poly(*coeffs: Rat) -> UniPoly:
    """Build a polynomial from coefficients, constant term first."""
    return UniPoly(coeffs)


ZERO = UniPoly(())
ONE = UniPoly((1,))


def format_poly(p: UniPoly) -> str:
    """Human-readable form, parseable back by :func:`abelpell.parsing.parse_poly`;
    a coefficient past the int-to-str digit limit raises ``ResourceLimit``.

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
        try:
            digits = str(mag)
        except ValueError:
            raise ResourceLimit("a coefficient exceeds the int-to-str digit limit") from None
        if i == 0:
            body = digits
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{digits}*{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# -- classical exact algorithms ----------------------------------------------


def gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor, by the primitive remainder sequence on
    the numerators; a / lc(a) for the last, primitive, a is in normal form.

    >>> gcd(poly(-1, 0, 1), poly(1, 1))
    UniPoly('x + 1')
    """
    a, b = _primitive(p.num)[0], _primitive(q.num)[0]
    while len(b) > 1:
        _pseudo_divide(a, b, [])
        a, b = b, _primitive(a)[0]
    return ONE if b else _made(tuple(a), a[-1]) if a else ZERO


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's gcd chain: p = lc * prod f_i^{m_i} with f_i monic, squarefree,
    pairwise coprime, and the m_i strictly increasing.

    Valid unconditionally in characteristic zero.  A linear input is
    squarefree, and a quadratic one is a square exactly when its
    discriminant is 0, so neither runs a gcd.

    >>> squarefree_decomposition(poly(0, 0, 1))
    [(UniPoly('x'), 2)]
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    out: list[tuple[UniPoly, int]] = []
    if p.degree == 0:
        return out
    f = p.monic()
    if f.degree == 1:  # f' is a nonzero constant, so f is squarefree
        return [(f, 1)]
    if f.degree == 2:  # numerators c, b, a: f = (x + b/2a)^2 when b^2 = 4ac
        c, b, a = f.num
        return [(_reduced([b, 2 * a], 2 * a), 2)] if b * b == 4 * a * c else [(f, 1)]
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


def is_squarefree(p: UniPoly) -> bool:
    return gcd(p, p.derivative()).degree == 0


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """The resultant of two nonzero polynomials, by the subresultant
    remainder sequence on integers (Collins, *J. ACM* 14, 1967; Brown and
    Traub, *J. ACM* 18, 1971).

    With p = c_p A / d_p and q = c_q B / d_q for primitive integer A and B,
    res(p, q) = (c_p / d_p)^(deg B) (c_q / d_q)^(deg A) res(A, B).  With e =
    deg A - deg B, the pseudo-remainder lc(B)^(e + 1) A mod B over g h^e is
    exactly the next subresultant (g = h = 1 at first, then g = lc(B) and h
    = g^e / h^(e - 1)); a zero one (a common factor) gives 0.

    >>> resultant(poly(-1, 1), poly(1, 1))
    Fraction(2, 1)
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    (a, ca), (b, cb) = _primitive(p.num), _primitive(q.num)
    num, den = ca**q.degree * cb**p.degree, p.den**q.degree * q.den**p.degree
    if len(a) < len(b):
        a, b, num = b, a, num * (-1) ** (p.degree * q.degree)
    g = h = 1
    while len(b) > 1:
        d, lead, num = len(a) - len(b), b[-1], num * (-1) ** ((len(a) - 1) * (len(b) - 1))
        # the lazy scale divides lead^(d + 1), the full pseudo-division's
        full = lead ** (d + 1) // _pseudo_divide(a, b, [])
        if not a:
            return Fraction(0)
        a, b = b, [c * full // (g * h**d) for c in a]
        g, h = lead, lead**d // h ** (d - 1) if d else h
    # b is constant: the last subresultant is b^(deg a) / h^(deg a - 1)
    n = len(a) - 1
    return Fraction(num * (b[0] ** n // h ** max(n - 1, 0)), den)


def interpolate(values: Sequence[Rat]) -> UniPoly:
    """The polynomial of degree < m = len(values) taking values[s] at the
    nodes s = 0, 1, ..., m - 1.

    Newton's forward form on integers: over the common denominator D of the
    values the forward differences d_j are integers, and D (m-1)! p(s) is
    sum_j d_j ((m-1)!/j!) s(s-1)...(s-j+1), expanded by Horner.  The one
    division is the final reduction.
    """
    den = lcm(*[y.denominator for y in values])
    d = [y.numerator * (den // y.denominator) for y in values]
    m = len(d)
    for level in range(1, m):  # d[i] becomes the i-th forward difference at 0
        for i in range(m - 1, level - 1, -1):
            d[i] -= d[i - 1]
    acc, weight = d[-1:], 1
    for j in range(m - 2, -1, -1):  # acc <- acc * (s - j) + d_j (m-1)!/j!
        weight *= j + 1
        acc = _times_linear(acc, j)
        acc[0] += d[j] * weight
    return _reduced(acc, den * weight)
