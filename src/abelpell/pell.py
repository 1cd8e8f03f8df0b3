"""The polynomial Pell equation P^2 - R*Q^2 = 1 over the rationals.

R is monic, squarefree, of even degree 2g+2; a solution of order n has
deg P = n and deg Q = n - g - 1.  Solutions are found by the continued
fraction of sqrt(R), carried in exact quadratic-surd form (A + sqrt(R))/B --
no series truncation enters the main loop.

Solutions of a fixed R form a group under (P1 + sqrt(R) Q1)(P2 + sqrt(R) Q2);
charts record how far a solution has been normalised:

  * ``general``:    nonzero top coefficients (membership in the solution set),
  * ``monic``:      P and Q monic,
  * ``normalized``: P, Q monic and R with zero next-to-top coefficient.
"""
from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .rationals import rational_nth_root
from .unipoly import UniPoly, is_squarefree

CHART_GENERAL = "general"
CHART_MONIC = "monic"
CHART_NORMALIZED = "normalized"
CHARTS = (CHART_GENERAL, CHART_MONIC, CHART_NORMALIZED)

INFLATE_DIVIDES = "divides_g_plus_1"
INFLATE_EVEN_HALF = "even_half"
INFLATE_ODD = "odd"
INFLATE_CASES = (INFLATE_DIVIDES, INFLATE_EVEN_HALF, INFLATE_ODD)


@dataclass(frozen=True)
class PellCheck:
    """Outcome of validating a candidate triple; never raises."""

    valid: bool
    failures: tuple[str, ...]
    order: int
    genus: int
    monic: bool
    normalized: bool

    @property
    def chart(self) -> str:
        if self.normalized:
            return CHART_NORMALIZED
        if self.monic:
            return CHART_MONIC
        return CHART_GENERAL


def pell_verify(p: UniPoly, q: UniPoly, r: UniPoly) -> PellCheck:
    """Check every invariant of a Pell triple and report each failure.

    >>> from .unipoly import poly
    >>> pell_verify(poly(0, 1), poly(1), poly(-1, 0, 1)).valid
    True
    >>> pell_verify(poly(0, 1), poly(1), poly(-2, 0, 1)).failures
    ('defect of P^2 - R*Q^2 - 1 is 1, expected 0',)
    """
    failures: list[str] = []
    if p.is_zero():
        failures.append("P is zero")
    if q.is_zero():
        failures.append("Q is zero (order would drop below genus + 1)")
    if r.degree < 2 or r.degree % 2 != 0:
        failures.append(f"R has degree {r.degree}, expected even degree >= 2")
    if not r.is_zero() and not r.is_monic():
        failures.append("R is not monic")
    if not r.is_zero() and r.degree >= 1 and not is_squarefree(r):
        failures.append("R is not squarefree")
    defect = p * p - r * q * q - 1
    if not defect.is_zero():
        failures.append(f"defect of P^2 - R*Q^2 - 1 is {defect}, expected 0")
    order = p.degree
    genus = r.degree // 2 - 1 if r.degree >= 2 else -1
    if not failures and q.degree != order - genus - 1:
        failures.append(
            f"deg Q = {q.degree}, expected order - genus - 1 = {order - genus - 1}"
        )
    monic = not failures and p.is_monic() and q.is_monic()
    normalized = monic and r.is_normalized()
    return PellCheck(not failures, tuple(failures), order, genus, monic, normalized)


@dataclass(frozen=True)
class PellTriple:
    """A verified solution (P, Q, R) with its order, genus and chart."""

    p: UniPoly
    q: UniPoly
    r: UniPoly
    order: int
    genus: int
    chart: str

    @classmethod
    def build(cls, p: UniPoly, q: UniPoly, r: UniPoly) -> PellTriple:
        check = pell_verify(p, q, r)
        if not check.valid:
            raise ValueError("not a Pell triple: " + "; ".join(check.failures))
        return cls(p, q, r, check.order, check.genus, check.chart)

    def __str__(self) -> str:
        return f"(P={self.p}, Q={self.q}, R={self.r}; n={self.order}, g={self.genus})"


# -- continued fraction of sqrt(R) ------------------------------------------------


@dataclass(frozen=True)
class QuadraticSurd:
    """The surd (A + sqrt(R))/B in reduced form: B divides R - A^2.

    A caller that already holds R - A^2 passes it as ``rest``, so that the
    check divides it instead of multiplying A out again.
    """

    a: UniPoly
    b: UniPoly
    r: UniPoly
    rest: InitVar[UniPoly | None] = None

    def __post_init__(self, rest):
        if self.b.is_zero():
            raise ValueError("surd denominator is zero")
        if rest is None:
            rest = self.r - self.a * self.a
        if not self.b.divides(rest):
            raise ValueError("surd is not reduced: B does not divide R - A^2")


@dataclass(frozen=True)
class CFStep:
    """One step of the expansion: the surd, its polynomial part, and the
    convergent accumulated so far together with its norm P^2 - R*Q^2.

    At step k the norm is P_k^2 - R*Q_k^2 = (-1)^(k+1) B_(k+1), with B_(k+1)
    the denominator of the next surd; it is read off that denominator rather
    than multiplied out.
    """

    index: int
    surd: QuadraticSurd
    partial_quotient: UniPoly
    p: UniPoly
    q: UniPoly
    norm: UniPoly

    @property
    def constant_norm(self) -> bool:
        return self.norm.degree <= 0


@dataclass(frozen=True)
class FundamentalUnit:
    """Least-degree nontrivial convergent with constant norm c = p^2 - R*q^2."""

    p: UniPoly
    q: UniPoly
    norm: Fraction


def _check_pell_r(r: UniPoly) -> None:
    if r.degree < 2 or r.degree % 2 != 0:
        raise ValueError(f"R must have even degree >= 2, got degree {r.degree}")
    if not r.is_monic():
        raise ValueError("R must be monic")
    if not is_squarefree(r):
        raise ValueError("R must be squarefree")


def laurent_sqrt_polypart(r: UniPoly) -> UniPoly:
    """The polynomial part of sqrt(r) at infinity: the unique monic Y of
    degree h = (deg r)/2 with deg(r - Y^2) < deg Y.

    Top-down: with Y = sum s_j x^(h-j) and s_0 = 1, matching x^(2h-j) in Y^2
    gives 2 s_j = r_(2h-j) - sum_(0<i<j) s_i s_(j-i), so only the h + 1
    coefficients of Y are computed, from r down to degree h.

    >>> laurent_sqrt_polypart(UniPoly((-2, 0, 1)))
    UniPoly('x')
    >>> laurent_sqrt_polypart(UniPoly((1, 0, 0, 0, 1)))
    UniPoly('x^2')
    """
    if not r.is_monic() or r.degree % 2:
        raise ValueError("need a monic polynomial of even degree")
    n, half = r.degree, r.degree // 2
    s = [Fraction(1)]
    for j in range(1, half + 1):
        s.append((r.coeffs[n - j] - sum(s[i] * s[j - i] for i in range(1, j))) / 2)
    y = UniPoly(reversed(s))
    # Exact check of the defining property, independent of the recurrence.
    if (r - y * y).degree >= half:
        raise AssertionError("square-root polynomial part failed its contract")
    return y


def _cf_steps(r: UniPoly) -> Iterator[CFStep]:
    """Exact continued-fraction steps for sqrt(R), without termination.

    Step k expands the surd (A_k + sqrt(R))/B_k, starting from A_0 = 0 and
    B_0 = 1.  The next surd, A_(k+1) = a_k B_k - A_k and
    B_(k+1) = (R - A_(k+1)^2)/B_k, is found before step k is yielded, because
    B_(k+1) gives the convergent's norm: P_k^2 - R*Q_k^2 = (-1)^(k+1) B_(k+1).
    R - A_(k+1)^2 is computed once, for B_(k+1) and for the check of the
    surd it belongs to.
    """
    y = laurent_sqrt_polypart(r)
    a, b, rest = UniPoly(()), UniPoly((1,)), r
    p_prev, p_prev2 = UniPoly((1,)), UniPoly(())
    q_prev, q_prev2 = UniPoly(()), UniPoly((1,))
    k = 0
    while True:
        surd = QuadraticSurd(a, b, r, rest)
        partial = (a + y) // b
        p_k = partial * p_prev + p_prev2
        q_k = partial * q_prev + q_prev2
        a = partial * b - a
        rest = r - a * a
        b = rest.exact_div(b)
        yield CFStep(k, surd, partial, p_k, q_k, b if k % 2 else -b)
        p_prev, p_prev2 = p_k, p_prev
        q_prev, q_prev2 = q_k, q_prev
        k += 1


def cf_expand(r: UniPoly, max_steps: int) -> list[CFStep]:
    """The first ``max_steps`` steps of the continued fraction of sqrt(R).

    Running out of steps is not an error: the computed prefix is returned
    whether or not a constant-norm convergent has appeared.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    _check_pell_r(r)
    return list(itertools.islice(_cf_steps(r), max_steps))


def cf_expand_to_degree(r: UniPoly, max_degree: int) -> list[CFStep]:
    """The steps of the continued fraction of sqrt(R) whose convergents have
    degree <= ``max_degree``; the expansion stops at the first convergent
    above it (convergent degrees rise strictly)."""
    _check_pell_r(r)
    return list(itertools.takewhile(lambda step: step.p.degree <= max_degree, _cf_steps(r)))


def least_unit(
    steps: Iterable[CFStep], r: UniPoly, max_order: int
) -> FundamentalUnit | None:
    """The first constant-norm convergent among ``steps`` (the expansion of
    sqrt(R) from step 0) of degree up to ``max_order``; None if there is none.

    The norm of the returned unit is checked once against P^2 - R*Q^2.
    """
    for step in steps:
        if step.p.degree > max_order:
            return None
        if step.constant_norm:
            if step.p * step.p - r * step.q * step.q != step.norm:
                raise AssertionError("convergent norm differs from its surd denominator")
            return FundamentalUnit(step.p, step.q, step.norm.constant_value())
    return None


def fundamental_unit(r: UniPoly, max_order: int) -> FundamentalUnit | None:
    """The least-degree convergent with constant norm, searching convergents
    of degree up to ``max_order``; None if there is none in range."""
    _check_pell_r(r)
    return least_unit(_cf_steps(r), r, max_order)


def minimal_solution(
    r: UniPoly, unit: FundamentalUnit | None, n_max: int
) -> PellTriple | None:
    """The minimal-order rational solution of order <= n_max, given the
    fundamental unit of R found up to degree n_max (None if there is none).

    The fundamental unit has some constant norm c.  When c is a rational
    square the unit scales to a norm-1 solution of the same order; otherwise
    the square of the unit scaled by 1/c is the minimal rational solution
    (any rational solution is a scalar times a power of the unit, and norm
    c^k can only be scaled to 1 when it is a square, forcing k even).
    """
    genus = r.degree // 2 - 1
    if n_max < genus + 1:
        raise ValueError(f"n_max = {n_max} is below genus + 1 = {genus + 1}")
    if unit is None:
        return None
    root = rational_nth_root(unit.norm, 2)
    if root is not None:
        p, q = unit.p * (1 / root), unit.q * (1 / root)
    else:
        inv = 1 / unit.norm
        p = (unit.p * unit.p + r * unit.q * unit.q) * inv
        q = (2 * unit.p * unit.q) * inv
    if p.leading < 0:
        p, q = -p, -q
    if p.degree > n_max:
        return None
    return PellTriple.build(p, q, r)


def pell_solve(r: UniPoly, n_max: int) -> PellTriple | None:
    """The minimal-order rational solution of P^2 - R*Q^2 = 1 with order
    <= n_max, or None (see :func:`minimal_solution`).

    >>> from .unipoly import poly
    >>> pell_solve(poly(-2, 0, 1), 5).p
    UniPoly('x^2 - 1')
    """
    _check_pell_r(r)
    return minimal_solution(r, least_unit(_cf_steps(r), r, n_max), n_max)


# -- group law ------------------------------------------------------------------


def unit_compose(
    p1: UniPoly, q1: UniPoly, p2: UniPoly, q2: UniPoly, r: UniPoly
) -> tuple[UniPoly, UniPoly]:
    """(P, Q) with P + sqrt(R) Q = (P1 + sqrt(R) Q1)(P2 + sqrt(R) Q2)."""
    return p1 * p2 + r * q1 * q2, p1 * q2 + p2 * q1


def pell_compose(t1: PellTriple, t2: PellTriple) -> PellTriple:
    """Group law on triples over the same R; orders add."""
    if t1.r != t2.r:
        raise ValueError("cannot compose solutions over different R")
    p, q = unit_compose(t1.p, t1.q, t2.p, t2.q, t1.r)
    out = PellTriple.build(p, q, t1.r)
    if out.order != t1.order + t2.order:
        raise AssertionError("composition did not add orders")
    return out


def pell_power(t: PellTriple, k: int) -> PellTriple:
    """The k-th power of a solution (k >= 1)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = t
    for _ in range(k - 1):
        out = pell_compose(out, t)
    return out


# -- chart normalisation ------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """Reaching the requested chart needs a radical that Q does not contain."""

    root_degree: int
    radicand: Fraction
    message: str

    def __str__(self) -> str:
        return self.message


def normalize(
    p: UniPoly, q: UniPoly, r: UniPoly, target: str = CHART_NORMALIZED
) -> PellTriple | Obstruction:
    """Move a solution to the requested chart by x -> a*x + b and scaling.

    Keeping R monic ties the scaling to a by lambda^2 = a^(2g+2); making P
    monic needs a^n = 1/lc(P).  The base field is never extended: when the
    required n-th root does not exist in Q an :class:`Obstruction` naming the
    radical is returned instead.
    """
    if target not in CHARTS:
        raise ValueError(f"unknown chart {target!r}")
    check = pell_verify(p, q, r)
    if not check.valid:
        raise ValueError("input is not a Pell solution: " + "; ".join(check.failures))
    if target == CHART_GENERAL:
        return PellTriple.build(p, q, r)
    n, genus = check.order, check.genus
    shift = Fraction(0)
    if target == CHART_NORMALIZED:
        shift = -r.coeff(r.degree - 1) / r.degree
    a = rational_nth_root(1 / p.leading, n)
    if a is None:
        return Obstruction(
            n,
            p.leading,
            f"requires a rational {n}th root of {p.leading}",
        )
    lam = 1 / (q.leading * a ** (n - genus - 1))
    new_p = p.compose_linear(a, shift)
    new_q = q.compose_linear(a, shift) * lam
    new_r = r.compose_linear(a, shift) * lam**-2
    out = PellTriple.build(new_p, new_q, new_r)
    wanted_normalized = target == CHART_NORMALIZED
    if not out.p.is_monic() or not out.q.is_monic() or (
        wanted_normalized and not out.r.is_normalized()
    ):
        raise AssertionError("normalisation missed its target chart")
    return out


# -- root-of-unity fixed-point constructions -------------------------------------


def inflate(base: PellTriple, m: int, case: str) -> PellTriple:
    """Produce the order-m*n solution fixed by an order-m rotation.

    The three cases substitute s^m and redistribute the degree bookkeeping:

    * ``divides_g_plus_1``: (p, q, r) -> (p(s^m), q(s^m), r(s^m)).
    * ``even_half`` (m even, R(0) = 0, R = t*r): -> (p(s^m), s^(m/2) q(s^m), r(s^m)).
    * ``odd`` (m odd, R(0) = 0, R = t*r): -> (p(s^m), s^((m-1)/2) q(s^m), s*r(s^m)).

    The result is re-verified before it is returned; an R that loses
    squarefreeness under the substitution is reported as an error.
    """
    if m < 2:
        raise ValueError("inflation needs m >= 2")
    if case not in INFLATE_CASES:
        raise ValueError(f"unknown inflation case {case!r}")
    if not (base.p.is_monic() and base.q.is_monic()):
        raise ValueError("inflation needs a base with monic P and Q")
    p, q, r = base.p, base.q, base.r
    if case == INFLATE_DIVIDES:
        new_p = p.substitute_power(m)
        new_q = q.substitute_power(m)
        new_r = r.substitute_power(m)
    else:
        if case == INFLATE_EVEN_HALF and m % 2 != 0:
            raise ValueError("case even_half needs m even")
        if case == INFLATE_ODD and m % 2 == 0:
            raise ValueError("case odd needs m odd")
        if r.coeff(0) != 0:
            raise ValueError("cases even_half/odd need R(0) = 0")
        r_factor = r // UniPoly((0, 1))
        if case == INFLATE_EVEN_HALF:
            new_p = p.substitute_power(m)
            new_q = q.substitute_power(m).shift_degree(m // 2)
            new_r = r_factor.substitute_power(m)
        else:
            new_p = p.substitute_power(m)
            new_q = q.substitute_power(m).shift_degree((m - 1) // 2)
            new_r = r_factor.substitute_power(m).shift_degree(1)
    if not is_squarefree(new_r):
        raise ValueError("inflated R is not squarefree (a root of the base R at 0?)")
    out = PellTriple.build(new_p, new_q, new_r)
    if out.order != m * base.order:
        raise AssertionError("inflation did not multiply the order by m")
    return out
