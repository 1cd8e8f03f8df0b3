"""Exact radicals of rationals: either the root exists in Q or we say so."""
from __future__ import annotations

import math
from fractions import Fraction

from .unipoly import Rat


def int_nth_root(n: int, k: int) -> int | None:
    """The exact k-th root of a nonnegative integer, or None.

    Integers only: ``math.isqrt`` for square roots, otherwise Newton's
    iteration from above on floor(n^(1/k)), so no radicand is too large.

    >>> int_nth_root((10**20 + 1) ** 3, 3)
    100000000000000000001
    >>> int_nth_root(10**400 + 1, 2) is None
    True
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return n
    if k == 2:
        r = math.isqrt(n)
    else:
        r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
        while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = y
    return r if r**k == n else None


def rational_nth_root(c: Rat, k: int) -> Fraction | None:
    """The exact k-th root of c in Q, or None.

    For odd k a negative radicand yields the negative root; for even k it
    yields None.
    """
    if k < 1:
        raise ValueError("root index must be positive")
    sign = 1
    if c < 0:
        if k % 2 == 0:
            return None
        sign, c = -1, -c
    num = int_nth_root(c.numerator, k)
    den = int_nth_root(c.denominator, k)
    if num is None or den is None:
        return None
    return sign * Fraction(num, den)

