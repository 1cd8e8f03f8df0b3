"""The polynomial Pell equation P^2 - R*Q^2 = 1 over the rationals.

R is monic, squarefree, of even degree 2g+2; a solution of order n has
deg P = n and deg Q = n - g - 1.  Solutions are found by the continued
fraction of sqrt(R) (Abel): :func:`cf_steps` yields one :class:`CFStep` per
partial quotient, and the first step whose convergent has constant norm is
the fundamental unit.  Whether R is Pellian is decided by the surds
(A + sqrt(R))/B alone, since the convergent's norm is the next surd's
denominator up to sign; a step is its partial quotients and norm, and the
convergent is built on demand, by the solver only for the unit.  The surds
stay exact -- no series truncation enters the main loop -- and exact
division keeps each reduced: the next denominator is (R - A^2)/B, a division
that raises unless B divides R - A^2.

Solutions of a fixed R form a group under (P1 + sqrt(R) Q1)(P2 + sqrt(R) Q2);
charts record how far a solution has been normalised:

  * ``general``:    nonzero top coefficients (membership in the solution set),
  * ``monic``:      P and Q monic,
  * ``normalized``: P, Q monic and R with zero next-to-top coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator

from .cases import INFLATE_CASES, INFLATE_DIVIDES, INFLATE_EVEN_HALF, INFLATE_ODD
from .limits import MAX_DEGREE, ResourceLimit
from .parsing import printable
from .rationals import rational_nth_root
from .unipoly import UniPoly, is_squarefree

CHART_GENERAL = "general"
CHART_MONIC = "monic"
CHART_NORMALIZED = "normalized"
CHARTS = (CHART_GENERAL, CHART_MONIC, CHART_NORMALIZED)


def _r_failures(r: UniPoly) -> list[str]:
    """Which of its rules R breaks: even degree >= 2, monic, squarefree."""
    failures = []
    if r.degree < 2 or r.degree % 2 != 0:
        failures.append(f"R has degree {r.degree}, expected even degree >= 2")
    if not r.is_zero() and not r.is_monic():
        failures.append("R is not monic")
    if not r.is_zero() and r.degree >= 1 and not is_squarefree(r):
        failures.append("R is not squarefree")
    return failures


def _check_pell_r(r: UniPoly) -> None:
    failures = _r_failures(r)
    if failures:
        raise ValueError("; ".join(failures))


def _chart(monic: bool, normalized: bool) -> str:
    """The chart of a solution with the given flags."""
    return CHART_NORMALIZED if normalized else CHART_MONIC if monic else CHART_GENERAL


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
        return _chart(self.monic, self.normalized)


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
    failures += _r_failures(r)
    defect = p * p - r * q * q - 1
    if not defect.is_zero():
        shown = defect if printable(defect) else "nonzero and too large to print"
        failures.append(f"defect of P^2 - R*Q^2 - 1 is {shown}, expected 0")
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
    """A verified solution (P, Q, R); order, genus and chart are read off it."""

    p: UniPoly
    q: UniPoly
    r: UniPoly

    @classmethod
    def build(cls, p: UniPoly, q: UniPoly, r: UniPoly) -> PellTriple:
        check = pell_verify(p, q, r)
        if not check.valid:
            raise ValueError("not a Pell triple: " + "; ".join(check.failures))
        return cls(p, q, r)

    @property
    def order(self) -> int:
        return self.p.degree

    @property
    def genus(self) -> int:
        return self.r.degree // 2 - 1

    @property
    def chart(self) -> str:
        monic = self.p.is_monic() and self.q.is_monic()
        return _chart(monic, monic and self.r.is_normalized())

    def __str__(self) -> str:
        return f"(P={self.p}, Q={self.q}, R={self.r}; n={self.order}, g={self.genus})"


# -- continued fraction of sqrt(R) ------------------------------------------------


@dataclass(frozen=True)
class CFStep:
    """Step k of the expansion: the partial quotients a_0..a_k and the norm
    P_k^2 - R*Q_k^2 of the convergent P_k/Q_k they define.

    The norm is (-1)^(k+1) B_(k+1), with B_(k+1) the denominator of the next
    surd, so the search needs no convergent: it reads the norm and the degree
    deg P_k = deg a_0 + ... + deg a_k.  The convergent is built from the
    partial quotients on demand, by :meth:`convergent` (``p`` and ``q`` read
    it).  The first step of constant norm is the fundamental unit of R.
    """

    partial_quotients: tuple[UniPoly, ...]
    norm: UniPoly

    @property
    def index(self) -> int:
        return len(self.partial_quotients) - 1

    @property
    def partial_quotient(self) -> UniPoly:
        return self.partial_quotients[-1]

    @property
    def degree(self) -> int:
        """deg P_k, read off the partial quotients."""
        return sum(a.degree for a in self.partial_quotients)

    @property
    def constant_norm(self) -> bool:
        return self.norm.degree <= 0

    def convergent(self) -> tuple[UniPoly, UniPoly]:
        """(P_k, Q_k) by the recurrence X_i = a_i X_(i-1) + X_(i-2), from
        (P_(-1), P_(-2)) = (1, 0) and (Q_(-1), Q_(-2)) = (0, 1)."""
        p, p_prev = UniPoly((1,)), UniPoly(())
        q, q_prev = UniPoly(()), UniPoly((1,))
        for a in self.partial_quotients:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        return p, q

    @property
    def p(self) -> UniPoly:
        return self.convergent()[0]

    @property
    def q(self) -> UniPoly:
        return self.convergent()[1]


def laurent_sqrt_polypart(r: UniPoly) -> UniPoly:
    """The polynomial part of sqrt(r) at infinity: the unique monic Y of
    degree h = (deg r)/2 with deg(r - Y^2) < deg Y.

    Top-down: with Y = sum s_j x^(h-j) and s_0 = 1, matching x^(2h-j) in Y^2
    gives 2 s_j = r_(2h-j) - sum_(0<i<j) s_i s_(j-i), so only the h + 1
    coefficients of Y are computed, from r down to degree h.  With r stored
    as numerators c over one denominator d and w = 4d, s_j = 2 u_j / w^j for
    j >= 1, where u_j = c_(2h-j) w^(j-1) - sum_(0<i<j) u_i u_(j-i) are
    integers, so the recurrence runs on integers and Y is reduced once.

    >>> laurent_sqrt_polypart(UniPoly((-2, 0, 1)))
    UniPoly('x')
    >>> laurent_sqrt_polypart(UniPoly((1, 0, 0, 0, 1)))
    UniPoly('x^2')
    """
    if not r.is_monic() or r.degree % 2:
        raise ValueError("need a monic polynomial of even degree")
    n, half, w = r.degree, r.degree // 2, 4 * r.den
    powers = [1]
    for _ in range(half):
        powers.append(powers[-1] * w)
    u = [0]
    for j in range(1, half + 1):
        # sum_(0<i<j) u_i u_(j-i), pairing i with j - i
        acc = 2 * sum(u[i] * u[j - i] for i in range(1, (j + 1) // 2))
        if j % 2 == 0:
            acc += u[j // 2] ** 2
        u.append(r.num[n - j] * powers[j - 1] - acc)
    # Over the denominator w^h, s_j x^(h-j) has numerator 2 u_j w^(h-j).
    top = [2 * u[half - d] * powers[d] for d in range(half)] + [powers[half]]
    y = UniPoly(top) * Fraction(1, powers[half])
    # Exact check of the defining property, independent of the recurrence.
    if (r - y * y).degree >= half:
        raise AssertionError("square-root polynomial part failed its contract")
    return y


def _cf_steps(r: UniPoly) -> Iterator[CFStep]:
    """Exact continued-fraction steps for sqrt(R), without termination.

    Step k expands the surd (A_k + sqrt(R))/B_k, starting from A_0 = 0 and
    B_0 = 1, into a_k = floor((A_k + Y)/B_k) with Y the polynomial part of
    sqrt(R).  The next surd, A_(k+1) = a_k B_k - A_k and
    B_(k+1) = (R - A_(k+1)^2)/B_k, is found before step k is yielded, because
    B_(k+1) gives the convergent's norm: P_k^2 - R*Q_k^2 = (-1)^(k+1) B_(k+1).
    ``exact_div`` is the check that each surd is reduced.  No convergent is
    multiplied out here.
    """
    y = laurent_sqrt_polypart(r)
    a, b = UniPoly(()), UniPoly((1,))
    partials: tuple[UniPoly, ...] = ()
    for k in count():
        partial = (a + y) // b
        partials += (partial,)
        a = partial * b - a
        b = (r - a * a).exact_div(b)
        yield CFStep(partials, b if k % 2 else -b)


def cf_steps(r: UniPoly) -> Iterator[CFStep]:
    """The continued fraction of sqrt(R) as an endless iterator: R is checked
    now, and each step is computed only when it is asked for.  The first k
    steps are ``list(islice(cf_steps(r), k))``.

    >>> from itertools import islice
    >>> [step.p for step in islice(cf_steps(UniPoly((2, 0, 1))), 2)]
    [UniPoly('x'), UniPoly('x^2 + 1')]
    """
    _check_pell_r(r)
    return _cf_steps(r)


def least_unit(steps: Iterable[CFStep], max_order: int) -> CFStep | None:
    """The fundamental unit: the first constant-norm step among ``steps``
    (the expansion of sqrt(R) from step 0) of degree up to ``max_order``;
    None if there is none.  No convergent is built."""
    for step in steps:
        if step.degree > max_order:
            return None
        if step.constant_norm:
            return step
    return None


def fundamental_unit(r: UniPoly, max_order: int) -> CFStep | None:
    """The step of the least-degree convergent with constant norm, searching
    convergents of degree up to ``max_order``; None if there is none in range."""
    return least_unit(cf_steps(r), max_order)


def minimal_solution(r: UniPoly, unit: CFStep | None, n_max: int) -> PellTriple | None:
    """The minimal-order rational solution of order <= n_max, given the
    fundamental unit of R found up to degree n_max (None if there is none).

    The unit step has some constant norm c.  When c is a rational square the
    unit scales to a norm-1 solution of the same order; otherwise its square
    under :func:`unit_compose`, scaled by 1/c, is the minimal rational
    solution (any rational solution is a scalar times a power of the unit,
    and norm c^k can only be scaled to 1 when it is a square, forcing k even).

    The unit's convergent is built once, here, and its norm P^2 - R*Q^2 is
    checked against the one read off the surd.
    """
    genus = r.degree // 2 - 1
    if n_max < genus + 1:
        raise ValueError(f"n_max = {n_max} is below genus + 1 = {genus + 1}")
    if unit is None:
        return None
    p, q = unit.convergent()
    if p * p - r * q * q != unit.norm:
        raise AssertionError("convergent norm differs from its surd denominator")
    c = unit.norm.constant_value()
    root = rational_nth_root(c, 2)
    if root is not None:
        scale = 1 / root
    else:
        p, q = unit_compose(p, q, p, q, r)
        scale = 1 / c
    p, q = p * scale, q * scale
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
    return minimal_solution(r, least_unit(cf_steps(r), n_max), n_max)


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
        return PellTriple(p, q, r)
    n, genus = check.order, check.genus
    shift = Fraction(0)
    if target == CHART_NORMALIZED:
        shift = -r.coeff(r.degree - 1) / r.degree
    a = rational_nth_root(1 / p.leading, n)
    if a is None:
        suffix = "th" if 11 <= n % 100 <= 13 else {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
        return Obstruction(n, p.leading, f"requires a rational {n}{suffix} root of {p.leading}")
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
    squarefreeness under the substitution is reported as an error.  An
    order m * deg P above :data:`abelpell.limits.MAX_DEGREE` raises
    ``ResourceLimit`` before anything is substituted.
    """
    if m < 2:
        raise ValueError("inflation needs m >= 2")
    order = m * base.p.degree
    if order > MAX_DEGREE:
        raise ResourceLimit(f"inflated order {order} exceeds the cap of {MAX_DEGREE}")
    if case not in INFLATE_CASES:
        raise ValueError(f"unknown inflation case {case!r}")
    if not (base.p.is_monic() and base.q.is_monic()):
        raise ValueError("inflation needs a base with monic P and Q")
    r, q_shift, r_shift = base.r, 0, 0
    if case != INFLATE_DIVIDES:
        if case == INFLATE_EVEN_HALF and m % 2 != 0:
            raise ValueError("case even_half needs m even")
        if case == INFLATE_ODD and m % 2 == 0:
            raise ValueError("case odd needs m odd")
        if r.coeff(0) != 0:
            raise ValueError("cases even_half/odd need R(0) = 0")
        r, q_shift, r_shift = r // UniPoly((0, 1)), m // 2, m % 2
    new_p = base.p.substitute_power(m)
    new_q = base.q.substitute_power(m).shift_degree(q_shift)
    new_r = r.substitute_power(m).shift_degree(r_shift)
    if not is_squarefree(new_r):
        raise ValueError("inflated R is not squarefree (a root of the base R at 0?)")
    return PellTriple.build(new_p, new_q, new_r)
