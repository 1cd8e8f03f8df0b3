"""Symbolic verification of stratum-local structure.

Three independent checks live here: a square-testing criterion in
(Q[a]/(a^k))[t], reduced by homogeneity to the top-down square root
``pell.laurent_sqrt_polypart`` of 1 + x + ... + x^(2n); the weighted
elementary-symmetric identity behind the non-reduced strata, expanded as
integer polynomials in a_1, ..., a_m stored as ``{exponent tuple:
coefficient}`` dicts; and the exact tangent rank of the Pell equation at a
chart point.  Everything is decided by exact arithmetic.  A rank is
certified by elimination mod a prime when that rank is full, and otherwise
comes from fraction-free (Bareiss) elimination over the integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod

from .limits import MAX_DEGREE, ResourceLimit
from .pell import CHART_MONIC, CHART_NORMALIZED, PellTriple, _sqrt_and_rest
from .unipoly import UniPoly


def odd_nilpotency_check(n: int, k: int) -> bool:
    """Whether G = sum_{i=0..2n} a^i t^(2n-i) is a square in (Q[a]/(a^k))[t];
    the criterion is that it is exactly when a^(n+1) = 0, i.e. k <= n+1.

    Decided constructively, by homogeneity in (a, t): G(t) = a^(2n) R(t/a)
    with R = 1 + x + ... + x^(2n), so the top-down root of G (the leading
    coefficient 1 is a unit; the sign is fixed to +) is a^n Y(t/a) with
    Y = ``laurent_sqrt_polypart(R)``.  The remainder
    G - (a^n Y(t/a))^2 = a^(2n) (R - Y^2)(t/a) turns each x^d term of R - Y^2
    into a multiple of a^(2n-d) t^d, so its lowest power of a is
    a^(2n - deg(R - Y^2)), and G is a square mod a^k exactly when R = Y^2 or
    k <= 2n - deg(R - Y^2).  The degree 2n is capped at ``MAX_DEGREE``.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if 2 * n > MAX_DEGREE:
        raise ResourceLimit(f"degree 2n = {2 * n} exceeds the cap of {MAX_DEGREE}")
    _, rest = _sqrt_and_rest(UniPoly((1,) * (2 * n + 1)))
    return rest.is_zero() or k <= 2 * n - rest.degree


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


def _evaluate(terms: Monomials, point: tuple[int, ...]) -> int:
    """The value of an integer polynomial at an integer point."""
    return sum(c * prod(map(pow, point, exp)) for exp, c in terms.items())


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
    prod_i C(k_i, js_i) a^js: one term per tuple.  The defining identity is
    re-verified at integer points, with the product evaluated directly
    rather than read off the formula.
    """
    if not exponents or any(e < 2 for e in exponents):
        raise ValueError("all exponents must be >= 2")
    m = len(exponents)
    ks = [e - 1 for e in exponents]
    e_total = sum(ks)
    sigmas: tuple[Monomials, ...] = tuple({} for _ in range(e_total))
    for js in product(*(range(k + 1) for k in ks)):
        if any(js):
            sigmas[sum(js) - 1][js] = prod(map(comb, ks, js))
    # Independent check, without the formula: at fixed integer points a,
    # s^e + sum (-1)^j sigma_j(a) s^(e-j) must equal prod (s - a_i)^(e_i - 1)
    # computed directly, at e + 1 values of s, which fixes the polynomial in s.
    for point in (tuple(range(1, m + 1)), tuple(3 - 2 * i for i in range(m))):
        values = [_evaluate(sigma, point) for sigma in sigmas]
        for s in range(e_total + 1):
            direct = prod((s - a) ** k for a, k in zip(point, ks))
            expanded = s**e_total + sum(
                (-1) ** j * v * s ** (e_total - j) for j, v in enumerate(values, 1)
            )
            if direct != expanded:
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


#: The prime of the tangent-rank certificate; primality is what makes it sound.
_RANK_PRIME = 2**31 - 1


def _integer_rank(rows: list[list[int]], modulus: int = 0) -> int:
    """Rank of an integer matrix by one elimination loop.

    Without a modulus this is fraction-free (Bareiss) elimination over Z: each
    update x*piv - f*y divides exactly by the previous pivot, so every entry
    stays an integer minor.  With a prime modulus the rows are reduced once
    and the update is taken mod p; over a field no division is needed.
    """
    if modulus:
        rows = [[x % modulus for x in row] for row in rows]
    else:
        rows = [row[:] for row in rows]
    m, ncols = len(rows), len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank][c + 1 :]
        piv = rows[rank][c]
        for i in range(rank + 1, m):
            row, f = rows[i], rows[i][c]
            if modulus:
                if f:  # over a field a row with f = 0 needs no scaling
                    row[c + 1 :] = [(x * piv - f * y) % modulus for x, y in zip(row[c + 1 :], top)]
            else:
                for j, (x, y) in enumerate(zip(row[c + 1 :], top), c + 1):
                    quo, rem = divmod(x * piv - f * y, prev)
                    if rem:
                        raise AssertionError("Bareiss exact division failed")
                    row[j] = quo
            row[c] = 0
        prev = piv
        rank += 1
        if rank == m:
            break
    return rank


def _certified_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix: mod ``_RANK_PRIME`` when that rank is
    min(rows, columns), else by Bareiss over Z (see ``tangent_rank``)."""
    rank = _integer_rank(rows, _RANK_PRIME)
    if rows and rank == min(len(rows), len(rows[0])):
        return rank
    return _integer_rank(rows)


def tangent_rank(t: PellTriple) -> TangentReport:
    """Exact rank of the linearised Pell equation at a chart point.

    Perturbations respect the chart: P and Q stay monic of fixed degree, R
    stays monic (and keeps its zero next-to-top coefficient in the normalized
    chart).  The linearisation of P^2 - R*Q^2 - 1 at (P, Q, R) is
    2P dP - 2RQ dQ - Q^2 dR, read as a matrix over Q in the coefficient basis.
    The corank is the chart's tangent dimension: the genus in the normalized
    chart, genus + 1 in the monic chart (the extra translation direction).

    Column j holds the numerators of direction j, that is the direction
    times its denominator d_j > 0.  The integer matrix is the rational one
    times the invertible diagonal diag(d_j), so the two have the same rank.
    The rank is first taken mod the prime p = ``_RANK_PRIME``.  Over the
    field F_p, elimination counts the size of the largest minor nonzero mod
    p; such a minor is a nonzero integer, so rank mod p <= rank over Q <=
    min(rows, columns), and a full rank mod p is the exact rank.  The modulus
    must be prime: mod a composite, nonzero pivots can have a zero product,
    and the pivot count bounds no minor.  A rank mod p below full may only
    mean that p divides every largest minor, so Bareiss over Z decides then.
    """
    if t.chart not in (CHART_MONIC, CHART_NORMALIZED):
        raise ValueError(f"tangent rank needs the monic or normalized chart, not {t.chart!r}")
    n, g = t.order, t.genus
    r_top = 2 * g + 2 if t.chart == CHART_MONIC else 2 * g + 1
    columns = [
        (0,) * j + d.num + (0,) * (2 * n - j - len(d.num))
        for d, count in ((t.p * 2, n), (t.r * t.q * -2, t.q.degree), (t.q * t.q * -1, r_top))
        for j in range(count)
    ]
    rank = _certified_rank([list(row) for row in zip(*columns)])
    return TangentReport(len(columns), rank, len(columns) - rank)
