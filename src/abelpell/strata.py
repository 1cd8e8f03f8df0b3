"""Symbolic verification of stratum-local structure.

Three independent checks live here: a square-testing criterion in the
truncated ring Q[a]/(a^k), whose elements are ``UniPoly`` values in a cut to
their first k coefficients; the weighted elementary-symmetric identity behind
the non-reduced strata, expanded as integer polynomials in a_1, ..., a_m
stored as ``{exponent tuple: coefficient}`` dicts; and the exact tangent rank
of the Pell equation at a chart point.  Everything is decided by exact
arithmetic; ranks come from fraction-free elimination over the integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .pell import CHART_MONIC, CHART_NORMALIZED, PellTriple
from .unipoly import ONE, ZERO, UniPoly


def odd_nilpotency_check(n: int, k: int) -> bool:
    """Whether sum_{i=0..2n} a^i t^(2n-i) is a square in (Q[a]/(a^k))[t].

    This geometric sum is the exact quotient (t - a^(2n+1))/(t - a); the
    criterion is that it is a square precisely when a^(n+1) = 0, i.e. k <= n+1.
    Decided constructively: the candidate root is extracted coefficientwise
    from the leading term down (the leading coefficient 1 is a unit and the
    sign ambiguity is global, fixed to +), then the remainder is compared to
    zero exactly.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")

    def cut(f: UniPoly) -> UniPoly:
        return UniPoly(f.coeffs[:k])

    # q[d] is the t^d coefficient: a^(2n-d).
    q = [cut(ONE.shift_degree(2 * n - d)) for d in range(2 * n + 1)]
    s = [ZERO] * (n + 1)
    s[n] = ONE
    for j in range(1, n + 1):
        acc = q[2 * n - j]
        for i in range(1, j):
            acc = acc - s[n - i] * s[n - j + i]
        s[n - j] = cut(acc * Fraction(1, 2))
    square = [ZERO] * (2 * n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            square[i + j] = square[i + j] + s[i] * s[j]
    return all(cut(square[d]) == q[d] for d in range(2 * n + 1))


# -- weighted elementary-symmetric systems -------------------------------------

#: An integer polynomial in a_1, ..., a_m: exponent tuple -> nonzero coefficient.
Monomials = dict[tuple[int, ...], int]


def _add_term(acc: Monomials, exp: tuple[int, ...], c: int) -> None:
    c += acc.pop(exp, 0)
    if c:
        acc[exp] = c


def _bump(exp: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
    """The exponent of a_(i+1)^k times the monomial exp (i is 0-based)."""
    return exp[:i] + (exp[i] + k,) + exp[i + 1 :]


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
    """Expand prod_i (s - a_i)^(e_i - 1) and read off the sigma_j.

    The defining identity is re-verified by expanding both sides.
    """
    if not exponents or any(e < 2 for e in exponents):
        raise ValueError("all exponents must be >= 2")
    m = len(exponents)
    one = (0,) * m
    product: list[Monomials] = [{one: 1}]  # coefficients of s^0, s^1, ...
    for i, e in enumerate(exponents):
        for _ in range(e - 1):  # multiply by s - a_i
            nxt: list[Monomials] = [{} for _ in range(len(product) + 1)]
            for d, coeff in enumerate(product):
                for exp, c in coeff.items():
                    _add_term(nxt[d + 1], exp, c)
                    _add_term(nxt[d], _bump(exp, i, 1), -c)
            product = nxt
    e_total = sum(e - 1 for e in exponents)
    sigmas = tuple(
        {exp: (-1) ** j * c for exp, c in product[e_total - j].items()}
        for j in range(1, e_total + 1)
    )
    # Re-expansion check: s^e + sum (-1)^j sigma_j s^(e-j) must be the product.
    rebuilt: list[Monomials] = [{} for _ in range(e_total + 1)]
    rebuilt[e_total] = {one: 1}
    for j in range(1, e_total + 1):
        rebuilt[e_total - j] = {exp: (-1) ** j * c for exp, c in sigmas[j - 1].items()}
    if rebuilt != product:
        raise AssertionError("weighted symmetric expansion failed its identity")
    names = tuple(f"a{i + 1}" for i in range(m))
    return WeightedSymmetricSystem(tuple(exponents), e_total, names, sigmas)


def nilpotence_identity_check(sys: WeightedSymmetricSystem, i: int) -> bool:
    """Whether a_i^e + sum_j (-1)^j sigma_j a_i^(e-j) = 0 identically.

    True for every valid index (substituting s = a_i kills the product), which
    certifies a_i^e lies in the ideal (sigma_1, ..., sigma_e); i is 1-based.
    """
    if not 1 <= i <= len(sys.exponents):
        raise ValueError(f"index {i} out of range")
    e = sys.total
    acc: Monomials = {_bump((0,) * len(sys.exponents), i - 1, e): 1}
    for j in range(1, e + 1):
        for exp, c in sys.generators[j - 1].items():
            _add_term(acc, _bump(exp, i - 1, e - j), (-1) ** j * c)
    return not acc


# -- tangent rank of the chart equations ------------------------------------------


@dataclass(frozen=True)
class TangentReport:
    variables: int
    rank: int
    corank: int


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination; pivots are exact integers."""
    if not rows:
        return 0
    rows = [row[:] for row in rows]
    m, ncols = len(rows), len(rows[0])
    rank, r, prev = 0, 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            for j in range(c + 1, ncols):
                num = rows[i][j] * rows[r][c] - rows[i][c] * rows[r][j]
                quo, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("Bareiss exact division failed")
                rows[i][j] = quo
            rows[i][c] = 0
        prev = rows[r][c]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def tangent_rank(t: PellTriple) -> TangentReport:
    """Exact rank of the linearised Pell equation at a chart point.

    Perturbations respect the chart: P and Q stay monic of fixed degree, R
    stays monic (and keeps its zero next-to-top coefficient in the normalized
    chart).  The linearisation of P^2 - R*Q^2 - 1 at (P, Q, R) is
    2P dP - 2RQ dQ - Q^2 dR, read as a matrix over Q in the coefficient basis.
    The corank is the chart's tangent dimension: the genus in the normalized
    chart, genus + 1 in the monic chart (the extra translation direction).
    """
    if t.chart not in (CHART_MONIC, CHART_NORMALIZED):
        raise ValueError(f"tangent rank needs the monic or normalized chart, not {t.chart!r}")
    n, g = t.order, t.genus
    p_dirs = [(t.p * 2).shift_degree(j) for j in range(n)]
    q_dirs = [(t.r * t.q * -2).shift_degree(j) for j in range(t.q.degree)]
    r_top = 2 * g + 2 if t.chart == CHART_MONIC else 2 * g + 1
    r_dirs = [(t.q * t.q * -1).shift_degree(j) for j in range(r_top)]
    columns = p_dirs + q_dirs + r_dirs
    nrows = 2 * n
    matrix: list[list[Fraction]] = [
        [col.coeff(d) for col in columns] for d in range(nrows)
    ]
    int_rows = []
    for row in matrix:
        denom = lcm(*(c.denominator for c in row)) if row else 1
        int_rows.append([int(c * denom) for c in row])
    rank = _integer_rank(int_rows)
    return TangentReport(len(columns), rank, len(columns) - rank)
