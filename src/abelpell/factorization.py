"""Irreducible factorization over Q by Zassenhaus's algorithm.

Each squarefree part of the input (Yun's decomposition gives the
multiplicities) of degree 3 or more is scaled to a primitive integer
polynomial f and factored modulo the smallest odd prime p that keeps f
squarefree of full degree: distinct-degree factorization, then
Cantor-Zassenhaus equal-degree splitting, which draws from one generator
seeded with 0 per part, made only when a distinct-degree product must split,
so every run does the same work.  The modular factors are Hensel-lifted,
quadratically, to a modulus past twice the leading coefficient times the
Mignotte bound on the coefficients of any factor of f, and the true factors
are found by trying products of subsets of the lifted factors, smallest
first, by division (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 14-15; Cantor and Zassenhaus, *Math. Comp.* 36, 1981).  Recombination
is exponential in the number of modular factors in the worst case, so it is
capped (``RECOMBINATION_LIMIT``).  A linear part is its own factor, and a
quadratic part is factored in closed form by its discriminant, so only parts
of degree 3 and up run Zassenhaus.

The modular kernel is plain functions on lists of ``int`` coefficients,
constant term first, trailing zeros trimmed, entries reduced to [0, m); the
integer loops under ``_add``, ``_sub`` and ``fp_mul`` are ``unipoly._axpy``
and ``unipoly._convolve``, ``unipoly._trim`` trims, and ``fp_powmod`` is
``unipoly._power``, the square-and-multiply of ``UniPoly.__pow__``.
``fp_mul`` and ``fp_divmod`` work modulo any m (Hensel lifting uses m = p^k)
as long as the divisor's leading coefficient is a unit; ``fp_gcd``,
``fp_xgcd`` and ``fp_powmod`` need a prime modulus.  ``_fp_reduce`` is the one
division loop modulo m, under ``fp_divmod``, ``fp_gcd`` and the fused step of
``pell._unit_degree_mod_p``, and ``_good_prime`` the one good-prime scan; it
returns f reduced at the prime it picks, so no caller reduces f again.

>>> factor_rational(UniPoly((-1, 0, 0, 0, 1)))
[(UniPoly('x - 1'), 1), (UniPoly('x + 1'), 1), (UniPoly('x^2 + 1'), 1)]
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import isqrt
from typing import TYPE_CHECKING

from .limits import ResourceLimit
from .unipoly import UniPoly, _axpy, _convolve, _power, _primitive, _trim, squarefree_decomposition

#: Most subsets of lifted factors one recombination may try before it raises
#: ``ResourceLimit``.  Irreducible polynomials with many modular factors (the
#: Swinnerton-Dyer polynomials split into factors of degree <= 2 modulo every
#: prime) need about 2^(r - 1) tries for r modular factors; branch polynomials
#: of the orders the package handles stay far below the cap.
RECOMBINATION_LIMIT = 1 << 16

if TYPE_CHECKING:
    import random

# -- the modular kernel ---------------------------------------------------------


def _add(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _axpy(a, b, 1)])


def _sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _axpy(a, b, -1)])


def _scale(a: list[int], c: int, m: int) -> list[int]:
    return _trim([x * c % m for x in a])


def fp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    """The product a * b modulo m."""
    return _trim([c % m for c in _convolve(a, b)])


def _fp_reduce(a: list[int], b: list[int], inv: int, m: int) -> list[int]:
    """The quotient of the ints a by b modulo m, top term first, with inv
    the inverse of lc(b) mod m: a is reduced in place and its remainder,
    not yet taken mod m, is left in a[:deg b]."""
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if c := a[i] * inv % m:
            quo[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return _trim(quo)


def fp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit mod m."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = _fp_reduce(rem, b, pow(b[-1], -1, m), m)
    return quo, _trim([c % m for c in rem[:len(b) - 1]])


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor modulo the prime p ([] when both are 0):
    one inverse per step, and the remainder reduced in place."""
    a, b = list(a), list(b)
    while b:
        _fp_reduce(a, b, pow(b[-1], -1, p), p)
        a, b = b, _trim([c % p for c in a[:len(b) - 1]])
    return _scale(a, pow(a[-1], -1, p), p) if a else a


def fp_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g, the monic gcd, modulo the prime p.

    For coprime nonconstant a and b, deg s < deg b and deg t < deg a.
    """
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, fp_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return _scale(r0, inv, p), _scale(s0, inv, p), _scale(t0, inv, p)


def fp_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo f and the prime p, by repeated squaring."""
    if not e:
        return fp_divmod([1], f, p)[1]
    return _power(fp_divmod(a, f, p)[1], e, lambda u, v: fp_divmod(fp_mul(u, v, p), f, p)[1])


# -- factoring modulo p ----------------------------------------------------------


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g_d, d) pairs: g_d is the product of the degree-d irreducible factors
    of the monic squarefree f modulo p."""
    out = []
    h = x = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = fp_powmod(h, p, f, p)
        g = fp_gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = fp_divmod(f, g, p)[0]
            h = fp_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random | None) -> list[list[int]]:
    """The degree-d monic irreducible factors of f, a monic product of them,
    modulo the odd prime p (Cantor-Zassenhaus), drawing from the generator
    ``rng`` (None when n = d, as nothing is drawn)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = fp_gcd(a, f, p)
        if len(g) == 1:
            g = fp_gcd(_sub(fp_powmod(a, (p**d - 1) // 2, f, p), [1], p), f, p)
        if 1 < len(g) <= n:
            return _equal_degree(g, d, p, rng) + _equal_degree(fp_divmod(f, g, p)[0], d, p, rng)


def _squarefree_mod(f: list[int], p: int) -> bool:
    """Whether the residues f modulo the prime p, with a nonzero lead, are
    squarefree modulo p."""
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    return len(fp_gcd(f, df, p)) == 1


def _good_prime(f: list[int], p: int) -> tuple[int, list[int]]:
    """(q, f made monic mod q) at the first prime q from the odd prime p up
    (p is not tested for primality) that does not divide lc(f) and modulo
    which f stays squarefree.  Each next prime is found by trial division by
    the odd d <= isqrt(q).  f must be squarefree over Q, or no prime is
    good and the scan never ends (x^2 loops forever): ``pell.cf_steps``
    checks R, and the factorizer passes only parts of Yun's decomposition."""
    while not (f[-1] % p and _squarefree_mod(fp := _scale(f, pow(f[-1], -1, p), p), p)):
        p = next(q for q in count(p + 2, 2) if all(q % d for d in range(3, isqrt(q) + 1, 2)))
    return p, fp


# -- Hensel lifting and recombination ------------------------------------------------


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, modulus: int) -> list[list[int]]:
    """Monic lifts modulo ``modulus`` (a power p^(2^j)) of the monic factors
    modulo p of f = lc(f) * prod(factors) mod p.

    The factors are split in two halves, g = lc(f) * (first half) and h, the
    pair is lifted by quadratic Hensel steps (von zur Gathen-Gerhard,
    Alg. 15.10) and each half recursively.
    """
    if len(factors) == 1:
        return [_scale(f, pow(f[-1], -1, modulus), modulus)]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for factor in factors[:half]:
        g = fp_mul(g, factor, p)
    for factor in factors[half:]:
        h = fp_mul(h, factor, p)
    _, s, t = fp_xgcd(g, h, p)
    m = p
    while m < modulus:
        m *= m
        e = _sub([c % m for c in f], fp_mul(g, h, m), m)
        q, r = fp_divmod(fp_mul(s, e, m), h, m)
        g = _add(g, _add(fp_mul(t, e, m), fp_mul(q, g, m), m), m)
        h = _add(h, r, m)
        b = _sub(_add(fp_mul(s, g, m), fp_mul(t, h, m), m), [1], m)
        c, d = fp_divmod(fp_mul(s, b, m), h, m)
        s = _sub(s, d, m)
        t = _sub(t, _add(fp_mul(t, b, m), fp_mul(c, g, m), m), m)
    return (_hensel_lift(g, factors[:half], p, modulus)
            + _hensel_lift(h, factors[half:], p, modulus))


def _recombine(f: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    """The irreducible factors over Z of the primitive f, from the monic
    lifts of its modular factors: subsets are tried smallest first, each
    product (times lc of what is left) reduced to the symmetric range; its
    primitive part is a factor exactly when it divides f over Q (by Gauss's
    lemma the quotient of two primitive polynomials is over Z).  A cheap test
    on the constant terms rejects most subsets before any polynomial is built.
    """
    half = modulus // 2
    found = []
    remaining = list(range(len(lifted)))
    tried = 0
    size = 1
    while 2 * size <= len(remaining):
        lc = f[-1]
        for subset in combinations(remaining, size):
            tried += 1
            if tried > RECOMBINATION_LIMIT:
                raise ResourceLimit(
                    f"factor recombination of {len(lifted)} modular factors "
                    f"exceeds the cap of {RECOMBINATION_LIMIT} subsets"
                )
            const = lc
            for i in subset:
                const = const * lifted[i][0] % modulus
            if const > half:
                const -= modulus
            if f[0] and (not const or lc * f[0] % const):
                continue
            cand = [lc]
            for i in subset:
                cand = fp_mul(cand, lifted[i], modulus)
            cand = _primitive([c - modulus if c > half else c for c in cand])[0]
            quo, rem = divmod(UniPoly(f), UniPoly(cand))
            if rem.is_zero():
                found.append(cand)
                f = list(quo.num)
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _factor_squarefree(part: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors over Q of a monic squarefree polynomial: a
    quadratic by its discriminant, degree 3 and up by :func:`_zassenhaus`.

    The numerators c, b, a of a monic quadratic are primitive, and it splits
    exactly when D = b^2 - 4ac is a square, into x + (b -+ sqrt(D)) / 2a.
    """
    if part.degree == 1:
        return [part]
    if part.degree == 2:
        c, b, a = part.num
        d = b * b - 4 * a * c
        if d < 0 or (s := isqrt(d)) * s != d:
            return [part]
        return [UniPoly((Fraction(b - s, 2 * a), 1)), UniPoly((Fraction(b + s, 2 * a), 1))]
    return _zassenhaus(part)


def _zassenhaus(part: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors over Q of a monic squarefree polynomial of
    degree >= 3, by the modular pipeline of the module docstring."""
    f = _primitive(part.num)[0]
    p, fp = _good_prime(f, 3)
    parts = _distinct_degree(fp, p)
    rng = None
    if any(len(g) - 1 > d for g, d in parts):
        import random  # deferred: most commands never factor, and startup counts
        rng = random.Random(0)
    modular = [factor for g, d in parts for factor in _equal_degree(g, d, p, rng)]
    if len(modular) == 1:
        return [part]
    # Any factor of f has coefficients below sqrt(n + 1) 2^n max|f_i|
    # (Mignotte); lc(f) times it must fit in the symmetric range.
    n = len(f) - 1
    bound = 2 * f[-1] * (isqrt(n + 1) + 1) * 2**n * max(abs(c) for c in f)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift(f, modular, p, modulus)
    return [UniPoly(g).monic() for g in _recombine(f, lifted, modulus)]


def factor_rational(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Monic irreducible factors of p over Q with multiplicities.

    The constant content is dropped; factors are sorted by degree and then by
    coefficients so the output is deterministic.  A squarefree part of
    degree 1 or 2 is answered directly, one of degree 3 or more by Zassenhaus.
    Raises ``ResourceLimit`` when recombining the modular factors of such a
    part would try more than ``RECOMBINATION_LIMIT`` subsets.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out = [
        (factor, mult)
        for part, mult in squarefree_decomposition(p)
        for factor in _factor_squarefree(part)
    ]
    if len(out) > 1:
        out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out
