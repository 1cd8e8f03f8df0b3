"""Stratum-local structure, each a theorem read off its proof: the square
criterion in (Q[a]/(a^k))[t], the tangent rank of the Pell equation at a
chart point, and the weighted elementary-symmetric identity behind the
non-reduced strata, whose generators are integer polynomials in a_1, ...,
a_m stored as ``{exponent tuple: coefficient}`` dicts.  The tests expand
the identity as its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pell import PellTriple


def odd_nilpotency_check(n: int, k: int) -> bool:
    """Whether G = sum_{i=0..2n} a^i t^(2n-i) is a square in (Q[a]/(a^k))[t].
    Theorem: exactly when a^(n+1) = 0, i.e. k <= n + 1.

    Proof.  G(t) = a^(2n) R(t/a) with R = 1 + x + ... + x^(2n), so the
    top-down root of G (leading coefficient 1, sign +) is a^n Y(t/a), with Y
    the polynomial part of sqrt(R).  The remainder a^(2n) (R - Y^2)(t/a)
    turns each x^d term of R - Y^2 into a multiple of a^(2n-d) t^d, so G is
    a square mod a^k exactly when R = Y^2 or k <= 2n - deg(R - Y^2).  Put
    u = 1/x: R = x^(2n) (1 - u^(2n+1)) / (1 - u), and (1 - u)^(-1/2) =
    sum_j c_j u^j with c_j = C(2j, j) / 4^j > 0, c_0 = 1.  The factor
    1 - u^(2n+1) and its square root change no term below u^(2n+1), and
    2n + 1 >= n + 2.  So Y = x^n sum_(j<=n) c_j u^j, and as (sum_j c_j u^j)^2
    = 1 / (1 - u), R - Y^2 = x^(2n) (2 c_(n+1) u^(n+1) + O(u^(n+2))) =
    2 c_(n+1) x^(n-1) + (lower terms).  So deg(R - Y^2) = n - 1, and the
    bound is 2n - (n - 1) = n + 1.  The tests check the degree on the root.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return k <= n + 1


# -- weighted elementary-symmetric systems -------------------------------------

#: An integer polynomial in a_1, ..., a_m: exponent tuple -> nonzero coefficient.
Monomials = dict[tuple[int, ...], int]


def format_monomials(terms: Monomials, variables: tuple[str, ...]) -> str:
    """Display form, highest total degree first.

    >>> format_monomials({(2, 0): 3, (1, 1): 6, (0, 2): 1, (0, 0): -1}, ("a1", "a2"))
    '3*a1^2 + 6*a1*a2 + a2^2 - 1'
    """
    if not terms:
        return "0"
    parts = []
    for exp in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[exp]
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(variables, exp) if k)
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts)


@dataclass(frozen=True)
class WeightedSymmetricSystem:
    """The coefficients sigma_j of prod_i (s - a_i)^(e_i - 1) read against
    s^e + sum_j (-1)^j sigma_j s^(e-j), where e = sum (e_i - 1).

    ``generators[j - 1]`` is sigma_j as an integer polynomial in
    ``variables`` = (a1, ..., am), a :data:`Monomials` dict.
    """

    exponents: tuple[int, ...]
    total: int
    variables: tuple[str, ...]
    generators: tuple[Monomials, ...]


def weighted_sigma(exponents: list[int]) -> WeightedSymmetricSystem:
    """The sigma_j of prod_i (s - a_i)^(e_i - 1), by the binomial theorem.

    With k_i = e_i - 1, each factor is sum_j C(k_i, j) (-a_i)^j s^(k_i - j),
    so sigma_j = sum over exponent tuples js with |js| = j of
    prod_i C(k_i, js_i) a^js: one term per tuple.  The tests check the
    identity at integer points against the product evaluated directly.
    """
    if not exponents or any(e < 2 for e in exponents):
        raise ValueError("all exponents must be >= 2")
    ks = [e - 1 for e in exponents]
    e_total = sum(ks)
    sigmas: tuple[Monomials, ...] = tuple({} for _ in range(e_total))
    for js in product(*(range(k + 1) for k in ks)):
        if any(js):
            sigmas[sum(js) - 1][js] = prod(map(comb, ks, js))
    names = tuple(f"a{i + 1}" for i in range(len(exponents)))
    return WeightedSymmetricSystem(tuple(exponents), e_total, names, sigmas)


def nilpotence_identity_check(sys: WeightedSymmetricSystem, i: int) -> bool:
    """Whether a_i^e + sum_j (-1)^j sigma_j a_i^(e-j) = 0 identically, which
    certifies that a_i^e lies in the ideal (sigma_1, ..., sigma_e); i is
    1-based.  Theorem: it is, for every index.

    Proof.  The sigma_j are the coefficients of
    F(s) = prod_k (s - a_k)^(e_k - 1) = s^e + sum_j (-1)^j sigma_j s^(e-j),
    so the sum is F(a_i), and F(a_i) = 0 as e_i - 1 >= 1.  ``sys`` is as
    :func:`weighted_sigma` builds it; a hand-built system is outside this
    contract, as a hand-built ``PellTriple`` is outside ``PellTriple``'s.
    The tests expand the sum as the oracle.
    """
    if not 1 <= i <= len(sys.exponents):
        raise ValueError(f"index {i} out of range")
    return True


# -- tangent rank of the chart equations ------------------------------------------


@dataclass(frozen=True)
class TangentReport:
    variables: int
    rank: int
    corank: int


def tangent_rank(t: PellTriple) -> TangentReport:
    """The rank of the linearised Pell equation at a chart point, which a
    theorem reads off the order n, the genus g and the chart.

    P and Q stay monic of fixed degree, and R stays monic (with its zero
    x^(2g+1) coefficient in the normalized chart).  The linearisation of
    P^2 - R*Q^2 - 1 is Phi = 2P dP - 2RQ dQ - Q^2 dR, of degree < 2n.
    Theorem: Phi has full row rank 2n at every point of both charts, so the
    corank is g + 1 in the monic chart and g in the normalized one.

    Proof.  In the monic chart take m = n - g - 1 = deg Q.  The unknowns are
    dP (deg < n), dQ (deg < m) and dR (deg < 2g + 2): 2n + g + 1 columns
    against 2n rows.
    * P^2 - RQ^2 = 1 makes P prime to Q.  So Phi = 0 forces dP = Q u with
      deg u <= g, and then S(dQ, dR) := 2R dQ + Q dR = 2P u.
    * Let c = gcd(R, Q) and k = deg c.  The kernel of S is
      {(w Q/c, -2w R/c) : deg w < k}, of dimension k.  So its image, of
      dimension m + 2g + 2 - k, is all the multiples of c of degree
      < m + 2g + 2.  As c is prime to P, 2P u (deg <= n + g) lies in it
      exactly when c | u.  So dim ker Phi = (g + 1 - k) + k = g + 1, if
      k <= g + 1.
    * In fact k <= g.  R is squarefree, so c has k distinct roots, and Q has
      j more that are not roots of R: m >= k + j.  The 2n roots of
      P^2 - 1 = RQ^2, counted with multiplicity, lie on N = 2g + 2 + j
      points, and a root of multiplicity e is one of P' of multiplicity
      e - 1, so 2n - N <= deg P' = n - 1.  Hence 2g + 2 + j = N >= n + 1 =
      m + g + 2 >= k + j + g + 2, so k <= g.
    So the rank is 2n: full row rank, and corank g + 1.  The normalized chart
    drops the x^(2g+1) coordinate of dR.  The translation (P', Q', R') lies
    in ker Phi, and that coordinate of it is 2g + 2 != 0.  So the rank stays
    2n, and the corank is g.
    """
    from .pell import CHART_MONIC, CHART_NORMALIZED

    chart = t.chart
    if chart not in (CHART_MONIC, CHART_NORMALIZED):
        raise ValueError(f"tangent rank needs the monic or normalized chart, not {chart!r}")
    corank = t.genus + 1 if chart == CHART_MONIC else t.genus
    return TangentReport(2 * t.order + corank, 2 * t.order, corank)
