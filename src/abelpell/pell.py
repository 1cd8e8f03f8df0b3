"""The polynomial Pell equation P^2 - R*Q^2 = 1 over the rationals.

R is monic, squarefree, of even degree 2g+2; a solution of order n has
deg P = n and deg Q = n - g - 1.  Solutions are found by the continued
fraction of sqrt(R) (Abel): :func:`cf_steps` yields one :class:`CFStep` per
partial quotient, and the first step whose convergent has constant norm is
the fundamental unit.  Whether R is Pellian is decided by the surds
(A + sqrt(R))/B alone, since the convergent's norm is the next surd's
denominator up to sign; a step is its partial quotients and norm, and the
convergent is built on demand, by the solver only for the unit.  The surds
stay exact -- no series truncation enters the main loop.  One division per
step gives the floor and, as its remainder, the next A; exact division keeps
each surd reduced: the next denominator is (R - A^2)/B, which raises unless
B divides R - A^2.  A miss is decided modulo a prime of good reduction: the
expansion there gives the only degree a unit over Q can have, and when it
finds none, the search stops after step 0 (:func:`least_unit`).

Solutions of a fixed R form a group under (P1 + sqrt(R) Q1)(P2 + sqrt(R) Q2);
charts record how far a solution has been normalised:

  * ``general``:    nonzero top coefficients (membership in the solution set),
  * ``monic``:      P and Q monic,
  * ``normalized``: P, Q monic and R with zero next-to-top coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator

from .limits import MAX_DEGREE, ResourceLimit
from .unipoly import ONE, ZERO, Rat, UniPoly, _power, _reduced, is_squarefree, printable

CHART_GENERAL = "general"
CHART_MONIC = "monic"
CHART_NORMALIZED = "normalized"
CHARTS = (CHART_GENERAL, CHART_MONIC, CHART_NORMALIZED)

INFLATE_DIVIDES = "divides_g_plus_1"
INFLATE_EVEN_HALF = "even_half"
INFLATE_ODD = "odd"

#: The first prime modulo which :func:`least_unit` reads the degree of the
#: unit before it expands past step 0: far above any order the package
#: searches, and the largest prime below 2^30, so that every residue is one
#: 30-bit digit of a CPython int and every product of two is two.
_PRIME = 2**30 - 35


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


def _r_failures(r: UniPoly) -> list[str]:
    """Which of its rules R breaks: even degree >= 2, monic, squarefree."""
    failures = []
    if r.degree < 2 or r.degree % 2 != 0:
        failures.append(f"R has degree {r.degree}, expected even degree >= 2")
    if not r.is_zero() and not r.is_monic():
        failures.append("R is not monic")
    if not r.is_zero() and not is_squarefree(r):
        failures.append("R is not squarefree")
    return failures


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

    deg Q = order - genus - 1 is not checked on its own: once the other rules
    hold, P^2 = 1 + R*Q^2 with deg R*Q^2 >= 2 forces it.

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
    monic = not failures and p.is_monic() and q.is_monic()
    normalized = monic and r.is_normalized()
    return PellCheck(not failures, tuple(failures), order, genus, monic, normalized)


@dataclass(frozen=True)
class PellTriple:
    """A verified solution (P, Q, R); order, genus and chart are read off it.

    A triple from outside the package is verified by :meth:`build`, through
    :func:`pell_verify`.  Inside it, a producer that holds a proof of P^2 -
    R*Q^2 = 1 with R valid and P, Q nonzero builds ``PellTriple(p, q, r)``
    directly, and its docstring gives the proof: :func:`minimal_solution`,
    :func:`normalize`, :func:`inflate`, :func:`pell_power` and
    ``geometry._base_of``.  deg Q = order - genus - 1 then follows, since deg
    P^2 = deg R*Q^2 when deg P >= 1.
    """

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
        (P_0, P_(-1)) = (a_0, 1) and (Q_0, Q_(-1)) = (1, 0)."""
        p, p_prev = self.partial_quotients[0], ONE
        q, q_prev = ONE, ZERO
        for a in self.partial_quotients[1:]:
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
    return _sqrt_and_rest(r)[0]


def _sqrt_and_rest(r: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(Y, r - Y^2), the rest as the contract check computed it."""
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
    y = _reduced(top, powers[half])
    # Exact check of the defining property, independent of the recurrence.
    if (rest := r - y * y).degree >= half:
        raise AssertionError("square-root polynomial part failed its contract")
    return y, rest


def _cf_steps(r: UniPoly) -> Iterator[CFStep]:
    """Exact continued-fraction steps for sqrt(R), without termination.

    Step k expands the surd (A_k + sqrt(R))/B_k into a_k = floor((A_k + Y)/B_k)
    with Y the polynomial part of sqrt(R); the remainder rem = A_k + Y -
    a_k B_k gives A_(k+1) = a_k B_k - A_k = Y - rem, and B_(k+1) = (R -
    A_(k+1)^2)/B_k is found before step k is yielded, as P_k^2 - R*Q_k^2 =
    (-1)^(k+1) B_(k+1).  Step 0 is known from A_0 = 0, B_0 = 1: a_0 = A_1 = Y
    and B_1 = R - Y^2, the square root's contract check.  ``exact_div`` is
    the check that each surd is reduced; no convergent is multiplied out.
    """
    y, b = _sqrt_and_rest(r)
    a, partials = y, (y,)
    yield CFStep(partials, -b)
    for k in count(1):
        partial, rem = divmod(a + y, b)
        partials += (partial,)
        a = y - rem
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
    if failures := _r_failures(r):
        raise ValueError("; ".join(failures))
    return _cf_steps(r)


def _unit_degree_mod_p(r: UniPoly, y: UniPoly, max_order: int) -> int | None:
    """The degree of the unit over F_p of R, read from R and a_0 = Y at the
    first prime p >= ``_PRIME`` that is good for R; None if there is none
    of degree <= max_order (why this decides a miss, see :func:`least_unit`).

    p is good when it does not divide den R and R mod p is squarefree;
    ``factorization._good_prime`` finds it on the numerators of R and
    returns R mod p, so R is reduced once, there.  Only finitely many primes
    are bad for one R, so the search for a good one ends.  Such a p divides
    no denominator of Y: den Y divides (4 den R)^h, h = deg Y, by the
    recurrence of :func:`_sqrt_and_rest`.  B_1 mod p is R - Y^2 mod p.  The
    expansion is that of :func:`_cf_steps` over F_p, on plain lists of
    residues (constant term first), one fused step at a time with one
    inverse of lc(B_k) for both of its divisions by B_k.
    A_k + Y has degree h = deg Y and leading coefficient 2 (A_k = Y - rem
    with deg rem < h, and p is odd), so deg a_k = h - deg B_k is read off
    before the step divides, so the degree cap stops the loop first; the
    division builds the floor a_k too, and the loop drops it.  B_(k+1) = (R
    - A_(k+1)^2) / B_k exactly: a remainder, never left by right arithmetic,
    raises as the guard that each surd modulo p is reduced.

    >>> r = UniPoly((0, 1, 0, 0, 1))  # x^4 + x
    >>> _unit_degree_mod_p(r, laurent_sqrt_polypart(r), 12)
    3
    >>> _unit_degree_mod_p(r + 1, laurent_sqrt_polypart(r + 1), 10) is None
    True
    """
    # deferred: a hit is answered at step 0 and never loads the kernel
    from .factorization import _fp_reduce, _good_prime, _scale, _sub, fp_mul

    p, r = _good_prime(r.num, _PRIME)
    yp = _scale(y.num, pow(y.den, -1, p), p)
    h = len(yp) - 1
    a, b, degree = yp, _sub(r, fp_mul(yp, yp, p), p), h
    while len(b) > 1:
        db = len(b) - 1
        degree += h - db
        if degree > max_order:
            return None
        inv = pow(b[-1], -1, p)
        # rem = (A_k + Y) mod B_k, left in s[:db]; A_(k+1) = Y - rem
        s = [u + v for u, v in zip(a, yp)]
        _fp_reduce(s, b, inv, p)
        a = [(u - v) % p for u, v in zip(yp, s[:db])] + yp[db:]
        # B_(k+1) = (R - A_(k+1)^2) / B_k, whose remainder is left in n[:db]
        # subtracted in place: R - _convolve(A, A) took about 5 % longer
        n = list(r)
        for i, u in enumerate(a):
            for j, v in enumerate(a):
                n[i + j] -= u * v
        b = _fp_reduce(n, b, inv, p)
        if any(c % p for c in n[:db]):
            raise AssertionError("a surd modulo p is not reduced")
    return degree


def least_unit(r: UniPoly, steps: Iterable[CFStep], max_order: int) -> CFStep | None:
    """The fundamental unit: the first constant-norm step among ``steps``
    (the expansion of sqrt(R) from step 0) of degree up to ``max_order``;
    None if there is none.  No convergent is built.

    If step 0 is not the unit, the expansion is run modulo a prime p of good
    reduction for R up to the same degree (:func:`_unit_degree_mod_p`: R is
    reduced once, at the prime the scan returns).  If it finds no unit,
    there is none over Q, and the search stops after step 0; if it finds one
    of degree d, a unit over Q can have no other degree, and the exact
    search stops past d.  The degree searched is capped at
    :data:`abelpell.limits.MAX_DEGREE`: a unit below the cap is found
    whatever max_order is, and when there is none, a max_order above the cap
    raises ``ResourceLimit``.

    Why this keeps every answer.  A unit P + Q sqrt(R) of degree d has the
    divisor d (inf_- - inf_+) or its negative, with inf_+- the two points at
    infinity of the curve y^2 = R, and a function with that divisor is a
    unit of degree d.  So over a field of characteristic 0 or an odd p, the
    least unit's degree is the order of the class of inf_+ - inf_- in the
    Jacobian there (Abel, Crelle J. 1 (1826)).  A good p is a prime of good
    reduction for the curve: R is p-integral and monic, so it keeps its
    degree 2g + 2 mod p, and it stays squarefree; inf_+- reduce to the two
    points at infinity mod p.  Reduction maps the Jacobian over Q to
    the one over F_p and is injective on torsion of order prime to p (Katz,
    Invent. Math. 62 (1981), appendix; Platonov, Russian Math. Surveys 69
    (2014), reduces the polynomial Pell equation the same way).  So a unit
    over Q of degree d makes one over F_p of the same degree d, as d <=
    MAX_DEGREE < p.

    No cap bounds the time of one search: when inf_+ - inf_- is torsion
    modulo p but not over Q, the exact expansion runs to the F_p degree d,
    with heights that grow at each step.  R = D(x^m) + p*x, with D the
    tests' ``kubert_r(12, 3)``, has d = 12m, and took 0.009, 0.055, 0.27
    and 2.3 s at m = 1, 2, 3 and 5 (n_max = d) on one core of an Intel Xeon,
    Python 3.11.
    """
    cap = min(max_order, MAX_DEGREE)
    for step in steps:
        if step.degree > cap:
            break
        if step.constant_norm:
            return step
        if step.index == 0:
            cap = _unit_degree_mod_p(r, step.partial_quotients[0], cap)
            if cap is None:
                break
    if max_order > MAX_DEGREE:
        raise ResourceLimit(f"no unit of degree <= {MAX_DEGREE}, and n_max = {max_order} "
                            f"exceeds the cap of {MAX_DEGREE}")
    return None


def fundamental_unit(r: UniPoly, max_order: int) -> CFStep | None:
    """The step of the least-degree convergent with constant norm, searching
    convergents of degree up to ``max_order``; None if there is none in range.
    A miss is decided modulo a prime of good reduction (see
    :func:`least_unit`)."""
    return least_unit(r, cf_steps(r), max_order)


def minimal_solution(r: UniPoly, unit: CFStep | None, n_max: int) -> PellTriple | None:
    """The minimal-order rational solution of order <= n_max, given the
    fundamental unit of R found up to degree n_max (None if there is none).

    The unit step has some constant norm c.  When c is a rational square the
    unit scales to a norm-1 solution of the same order; otherwise its square,
    scaled by 1/c, is the minimal rational solution (any rational solution is
    a scalar times a power of the unit, and norm c^k can only be scaled to 1
    when it is a square, forcing k even).

    The unit's convergent is built once, here, and its norm P^2 - R*Q^2 is
    checked against the one read off the surd.  That exact check is the
    proof of the result, which is built without re-verification: the norm is
    c, so (P, Q)/sqrt(c), or the unit's square P^2 + R*Q^2 + 2PQ sqrt(R) (of
    norm c^2, from the check's products) divided by c, has norm exactly 1,
    and a change of sign keeps it.  Q is nonzero (Q_0 = 1, deg Q_k grows) and
    R was checked by :func:`cf_steps`, whose expansion ``unit`` must come from.
    """
    genus = r.degree // 2 - 1
    if n_max < genus + 1:
        raise ValueError(f"n_max = {n_max} is below genus + 1 = {genus + 1}")
    if unit is None:
        return None
    p, q = unit.convergent()
    pp, rqq = p * p, r * q * q
    if pp - rqq != unit.norm:
        raise AssertionError("convergent norm differs from its surd denominator")
    c = unit.norm.constant_value()
    root = rational_nth_root(c, 2)
    if root is not None:
        scale = 1 / root
    else:
        p, q = pp + rqq, p * q * 2
        scale = 1 / c
    p, q = p * scale, q * scale
    if p.leading < 0:
        p, q = -p, -q
    if p.degree > n_max:
        return None
    return PellTriple(p, q, r)


def pell_solve(r: UniPoly, n_max: int) -> PellTriple | None:
    """The minimal-order rational solution of P^2 - R*Q^2 = 1 with order
    <= n_max, or None (see :func:`minimal_solution`).

    >>> from .unipoly import poly
    >>> pell_solve(poly(-2, 0, 1), 5).p
    UniPoly('x^2 - 1')
    """
    return minimal_solution(r, least_unit(r, cf_steps(r), n_max), n_max)


# -- group law ------------------------------------------------------------------


def unit_compose(
    p1: UniPoly, q1: UniPoly, p2: UniPoly, q2: UniPoly, r: UniPoly
) -> tuple[UniPoly, UniPoly]:
    """(P, Q) with P + sqrt(R) Q = (P1 + sqrt(R) Q1)(P2 + sqrt(R) Q2)."""
    return p1 * p2 + r * q1 * q2, p1 * q2 + p2 * q1


def pell_compose(t1: PellTriple, t2: PellTriple) -> PellTriple:
    """Group law on triples over the same R, the composite verified by ``build``.

    R is monic, so e = lc(Q)/lc(P) = +-1, and the solutions are +-u^k for a
    fundamental unit u, of order |k| deg u and orientation e = sign(k) e_u.
    So orders add when e1 = e2 and give |n1 - n2| when they differ; equal
    orders of opposite orientation give the trivial unit (+-1, 0), which
    ``build`` refuses with a ValueError.
    """
    if t1.r != t2.r:
        raise ValueError("cannot compose solutions over different R")
    p, q = unit_compose(t1.p, t1.q, t2.p, t2.q, t1.r)
    return PellTriple.build(p, q, t1.r)


def pell_power(t: PellTriple, k: int) -> PellTriple:
    """The k-th power of a solution (k >= 1), built without re-verification:
    the norm is multiplicative, so the power has norm 1 over the same R, and
    t = +-u^j with j != 0 makes it +-u^(jk), of order k * deg P, never the
    trivial unit."""
    if k < 1:
        raise ValueError("power must be >= 1")
    p, q = _power((t.p, t.q), k, lambda u, v: unit_compose(*u, *v, t.r))
    return PellTriple(p, q, t.r)


# -- chart normalisation ------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """Reaching the requested chart needs a radical that Q does not contain."""

    root_degree: int
    radicand: Fraction
    message: str

    def __str__(self) -> str:
        return self.message


def normalize(p: UniPoly, q: UniPoly, r: UniPoly, target: str) -> PellTriple | Obstruction:
    """Move a solution to the requested chart by x -> a*x + b and scaling.

    Keeping R monic ties the scaling to a by lambda^2 = a^(2g+2); making P
    monic needs a^n = 1/lc(P).  The base field is never extended: when the
    required n-th root does not exist in Q an :class:`Obstruction` naming the
    radical is returned instead.

    The input is verified by :meth:`PellTriple.build`; the output is built
    without re-verification.  With P' = P(ax+b), Q' = lambda Q(ax+b) and R' =
    R(ax+b)/lambda^2, P'^2 - R'Q'^2 is P^2 - RQ^2 at ax + b, so 1; R' is
    squarefree of the same degree since a != 0, and monic since lc(R) =
    lc(P)^2/lc(Q)^2.  The chart is still asserted.
    """
    if target not in CHARTS:
        raise ValueError(f"unknown chart {target!r}")
    t = PellTriple.build(p, q, r)
    if target == CHART_GENERAL:
        return t
    n, genus = t.order, t.genus
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
    out = PellTriple(new_p, new_q, new_r)
    wanted_normalized = target == CHART_NORMALIZED
    if not out.p.is_monic() or not out.q.is_monic() or (
        wanted_normalized and not out.r.is_normalized()
    ):
        raise AssertionError("normalisation missed its target chart")
    return out


# -- root-of-unity fixed-point constructions -------------------------------------


def _inflation_case(base: PellTriple, m: int) -> str:
    """The case of :func:`inflate` that the base and m take."""
    if base.r.coeff(0):
        return INFLATE_DIVIDES
    return INFLATE_ODD if m % 2 else INFLATE_EVEN_HALF


def inflate(base: PellTriple, m: int, case: str) -> PellTriple:
    """Produce the order-m*n solution fixed by an order-m rotation.

    The base and m fix the case, and ``case`` must name it; a wrong one is a
    ValueError that names the right one.  With r = R when R(0) != 0, and R =
    x*r otherwise, each case substitutes s^m:

    * ``divides_g_plus_1`` (R(0) != 0): (p, q, r) -> (p(s^m), q(s^m), r(s^m)).
    * ``even_half`` (m even, R(0) = 0): -> (p(s^m), s^(m/2) q(s^m), r(s^m)).
    * ``odd`` (m odd, R(0) = 0): -> (p(s^m), s^((m-1)/2) q(s^m), s*r(s^m)).

    The result is built without re-verification.  In each case R'Q'^2 =
    R(s^m) Q(s^m)^2, so P'^2 - R'Q'^2 = 1 at s^m; R' stays monic of even
    degree (m(2g+2), or m(2g+1) + m % 2).  R' = s^(m % 2) r(s^m) is
    squarefree: r is squarefree with r(0) != 0 (R is squarefree), so each
    root a of r gives m distinct nonzero roots of r(s^m), where the
    derivative m s^(m-1) r'(a) does not vanish, and s^(m % 2) adds at most a
    simple root at 0.  An order m * deg P above
    :data:`abelpell.limits.MAX_DEGREE` raises ``ResourceLimit`` before
    anything is substituted.
    """
    if m < 2:
        raise ValueError("inflation needs m >= 2")
    order = m * base.p.degree
    if order > MAX_DEGREE:
        raise ResourceLimit(f"inflated order {order} exceeds the cap of {MAX_DEGREE}")
    if not (base.p.is_monic() and base.q.is_monic()):
        raise ValueError("inflation needs a base with monic P and Q")
    fits = _inflation_case(base, m)
    if case != fits:
        raise ValueError(f"this base takes case {fits!r} at m = {m}, not {case!r}")
    r, q_shift, r_shift = base.r, 0, 0
    if fits != INFLATE_DIVIDES:
        r, q_shift, r_shift = r // UniPoly((0, 1)), m // 2, m % 2
    new_p = base.p.substitute_power(m)
    new_q = base.q.substitute_power(m).shift_degree(q_shift)
    new_r = r.substitute_power(m).shift_degree(r_shift)
    return PellTriple(new_p, new_q, new_r)
