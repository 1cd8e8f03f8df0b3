"""Ramification bookkeeping for the line map induced by a Pell solution.

P^2 - 1 = R*Q^2 makes the polynomial P a degree-n self-map of the line whose
fibres over +1, -1 and infinity are constrained: infinity is totally ramified
and the fibres over +-1 are read off Q and R, as P -+ 1 = c R+- Q+-^2 puts
the odd multiplicities exactly at the roots of R.  All other branch
points are "unassigned".  Differentiating the Pell equation gives P' = Q*W
with W of degree g, the integrand of Abel's integral of W dx / sqrt(R) =
log(P + Q sqrt(R)) (Crelle J. 1 (1826)), and every root of Q lies over +-1;
so the unassigned critical points are roots of W, and the branch polynomial
needs g + 1 resultants for g >= 1, none at genus 0.
An inflation P = L(x^m) (see :func:`abelpell.pell.inflate`) reads its fibres
and branch classes off its base L, as the branch data of a composite come
from its factors (Ritt, Trans. AMS 23 (1922)): x -> x^m is branched only
over 0 and infinity, so a fibre of L away from y = 0 lifts to m copies of
itself, and the point y = 0 of multiplicity e0 lifts to one point of
multiplicity m * e0.
Everything reduces to exact squarefree decompositions and gcds over Q: the
fibres over a Galois orbit of branch values are read off gcds with the
squarefree factors of W, so no algebraic extension is built and nothing is
numerical.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd

from .factorization import factor_rational
from .pell import PellTriple
# polt_dimension is re-exported: geometry.polt_dimension still resolves
from .ramspec import Partition, RamSpec, genus_of_ramspec, polt_dimension
from .unipoly import (
    UniPoly,
    _axpy,
    _convolve,
    _made,
    _pseudo_divide,
    _reduced,
    _times_linear,
    gcd,
    interpolate,
    resultant,
    squarefree_decomposition,
)


@dataclass(frozen=True)
class BranchClass:
    """A Galois orbit of unassigned branch points: the irreducible polynomial
    of the branch value and the fibre partition shared by the whole orbit."""

    factor: UniPoly
    partition: Partition

    @property
    def count(self) -> int:
        """How many conjugate branch points the class contains."""
        return self.factor.degree


@dataclass(frozen=True)
class HurwitzReport:
    order: int
    genus: int
    e: int
    e_prime: int
    w: int
    genus_check: bool
    generic_stratum: bool


def assigned_profile(t: PellTriple) -> tuple[Partition, Partition, Partition]:
    """Fibre partitions over +1, -1 and infinity.

    The triple is verified where it enters (see :class:`PellTriple`), so P^2
    - 1 = R Q^2 with R squarefree, and P - 1 and P + 1 are coprime.  Hence
    P - 1 = c R+ Q+^2 and P + 1 = c' R- Q-^2, where R+, Q+ collect the roots
    of R and Q over +1, and R-, Q- those over -1: a root of Q of multiplicity
    k lies over one of +-1 with multiplicity 2k + [R vanishes there], and
    every other point of those fibres is a simple root of R.  So the fibres
    are read off Yun(Q) = prod f_k^k, of degree n - g - 1, not off P -+ 1 of
    degree n: f_k splits into gcd(f_k, (P - 1) mod f_k) over +1 and the rest
    over -1, each piece's roots in common with R give parts 2k + 1 and its
    other roots 2k, and parts 1 fill each fibre up to n.  The odd parts are
    the roots of R by construction.

    An inflation P = L(x^m) lifts its base's partitions by :func:`_lift`.
    """
    return _assigned_profile(t, _base_of(t))


def _assigned_profile(t: PellTriple, inflated: tuple[PellTriple, int] | None,
                      ) -> tuple[Partition, Partition, Partition]:
    """:func:`assigned_profile` with t's :func:`_base_of` given."""
    if inflated:
        base, m = inflated
        plus, minus, _ = _assigned_profile(base, None)
        ell = base.p
        l0 = ell.num[0]  # L(0) = l0 / ell.den
        return _lift(plus, m, ell, l0 == ell.den), _lift(minus, m, ell, l0 == -ell.den), (t.order,)
    common = gcd(t.r, t.q)
    fibres: tuple[list[int], list[int]] = ([], [])  # the parts over +1 and -1
    for f, k in squarefree_decomposition(t.q):
        over_plus = gcd(f, t.p % f - 1)
        for parts, piece in zip(fibres, (over_plus, f.exact_div(over_plus))):
            odd = gcd(piece, common).degree
            parts += [2 * k + 1] * odd + [2 * k] * (piece.degree - odd)
    n = t.order
    plus, minus = (tuple(sorted(parts + [1] * (n - sum(parts)), reverse=True)) for parts in fibres)
    return plus, minus, (n,)


def _lift(partition: Partition, m: int, ell: UniPoly, at_zero: bool) -> Partition:
    """The fibre partition of P = L(x^m) over a value whose fibre under L is
    ``partition``.  x -> x^m is branched only over 0 and infinity, so each
    part is repeated m times; over the value L(0) (``at_zero``) the m copies
    of the part e0 = ord_0(L - L(0)) of the point y = 0 are one point of
    multiplicity m * e0."""
    parts = [part for part in partition for _ in range(m)]
    if at_zero:
        e0 = next(i for i, c in enumerate(ell.num) if c and i)
        i = parts.index(e0)
        parts[i : i + m] = [m * e0]
    return tuple(sorted(parts, reverse=True))


def _base_of(t: PellTriple) -> tuple[PellTriple, int] | None:
    """The base triple and the largest m >= 2 with P = L(x^m), or None.

    m is the gcd of the exponents of P's nonconstant terms.  P(z x) = P(x)
    for a primitive m-th root of unity z, so x -> z x permutes the roots of
    P^2 - 1 = R Q^2 with their multiplicities; R is squarefree, so it maps
    R and Q to multiples of themselves.  Hence Q = x^j Q0(x^m) and
    R = x^e R~(x^m), with e in {0, 1} as R is squarefree and 2j + e in
    {0, m} as R Q^2 = P^2 - 1 is a polynomial in x^m; the base is
    (L, Q0, y^((2j + e)/m) R~(y)).  This inverts :func:`abelpell.pell.inflate`
    and covers a power of an inflation, or T_k of an even L, as well.  As m
    is the largest, the base is never an inflation itself, so each public
    call tests once and its lift analyses the base by the plain path, with
    ``inflated`` None.  Substituting
    y = x^m shows that the base satisfies the Pell equation with a monic
    squarefree R whenever t does, so it is built unverified, its order, genus
    and chart read off it like any triple's.
    """
    m = int_gcd(*[i for i, c in enumerate(t.p.num) if c and i])
    if m < 2:
        return None
    ell, _ = t.p.power_part(m)
    q0, j = t.q.power_part(m)
    r0, e = t.r.power_part(m)
    if e > 1 or 2 * j + e not in (0, m):
        raise AssertionError(f"{t} has P = L(x^{m}) but Q = x^{j} Q0(x^{m}), R = x^{e} R~(x^{m})")
    return PellTriple(ell, q0, r0.shift_degree((2 * j + e) // m)), m


def branch_polynomial(t: PellTriple) -> UniPoly:
    """res_x(P(x) - s, P'(x)) as a polynomial in the branch value s.

    Differentiating P^2 - R Q^2 = 1 gives 2 P P' = Q (R' Q + 2 R Q'), and P
    is prime to Q, so P' = Q W with deg W = n - 1 - deg Q = g; W is the rho
    of Abel's integral of rho dx / sqrt(R) = log(P + Q sqrt(R)).  Split P'
    instead by the monic q = Q / lc(Q): the resultant is multiplicative, so
    b(s) = res(P - s, q) res(P - s, P' / q).  At a root of q, P^2 = 1; a =
    deg gcd(q, P - 1) of them (with multiplicity) lie over +1 and deg Q - a
    over -1, so with res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A) prod_{B = 0} A,

        b(s) = (-1)^((n + 1)(g + 1)) (s - 1)^a (s + 1)^(deg Q - a)
               res(P - s, P' / q),

    the sign being (-1)^((n + 1) deg Q) with deg Q = n - g - 1 and n (n + 1)
    even.  The last factor has degree g in s and is interpolated from its
    values at s = 0, 1, ..., g, so the work grows with the genus, not the
    order.  With W = P' / q and one remainder rho = P mod W, of degree below
    g, each value is res(P - s, W) = (-1)^(n g) lc(W)^(n - deg r) res(W, r)
    for r = rho - s = (P - s) mod W (the remainder property of the
    resultant; the sign swaps its arguments), and 0 when r = 0.  Only r's
    constant term moves with s, so the factor before res(W, r) is one
    constant, multiplied into the interpolated numerators.  A constant Q
    gives a = 0 and g + 1 = n, so the formula covers it too, with no gcd for
    a.  At genus 0 nothing is interpolated: deg W = g = 0, so P' / q is the
    constant w = lc(P') = n lc(P), and res(A, c) = c^(deg A) gives
    res(P - s, w) = w^n.

    The sign and the ends are multiplied in on the integer numerators of the
    interpolated factor, one synthetic pass per linear factor (the inverse
    of :meth:`UniPoly.deflate`), and the result is built once.  It needs no
    reduction: the content of a product is the product of the contents
    (Gauss's lemma), and s -+ 1 are monic with integer coefficients, so the
    numerators stay coprime to the denominator.

    T_3(x) = 4x^3 - 3x has its critical points +-1/2 over -+1:

    >>> t = PellTriple.build(UniPoly((0, -3, 0, 4)), UniPoly((-1, 0, 4)), UniPoly((-1, 0, 1)))
    >>> branch_polynomial(t)
    UniPoly('1728*x^2 - 1728')
    """
    q, n, g = t.q.monic(), t.order, t.genus
    a = gcd(t.p - 1, q).degree if q.degree else 0
    if g:
        w = t.p.derivative().exact_div(q)
        rho = t.p % w
        k = n - max(rho.degree, 0)
        res = interpolate([resultant(w, r) if (r := rho - s).num else 0 for s in range(g + 1)])
        lead = (-1) ** (n * g) * w.num[-1] ** k  # (-1)^(n g) lc(W)^k = lead / w.den^k
        factor = _reduced([lead * c for c in res.num], res.den * w.den ** k)
    else:  # w = n lc(P)
        factor = _reduced([(n * t.p.num[-1]) ** n], t.p.den ** n)
    sign = (-1) ** ((n + 1) * (g + 1))
    num = [sign * c for c in factor.num]
    for root in [1] * a + [-1] * (q.degree - a):
        num = _times_linear(num, root)
    return _made(tuple(num), factor.den)


def multiplicity_partition(m: UniPoly, p: UniPoly, yun: list[tuple[UniPoly, int]]) -> Partition:
    """Fibre partition of p over a root theta of the irreducible m, over Q.

    A root of p - theta has multiplicity k + 1 exactly where p' vanishes to
    order k.  ``yun`` lists squarefree f_k with exponents k that carry p''s
    multiplicities over m, as Yun(p') = lc * prod f_k^k does.  The points of
    multiplicity k + 1 over all the conjugates of theta together are the
    roots of gcd(f_k, m(p) mod f_k); Galois conjugation shares them equally
    among the deg m conjugates, and every other point of the fibre is
    simple.  Gcds over Q suffice (dynamic evaluation: Della Dora,
    Dicrescenzo and Duval, EUROCAL '85); an m whose roots have different
    fibres fails the equal share and raises ``AssertionError``.

    A nonzero constant multiple of m(p) mod f_k has the same gcd with f_k,
    so it is computed on integers: Horner's rule on m's numerators with p's
    pseudo-remainder by f_k and powers of p's denominator, each step
    pseudo-reduced by f_k and the scale that brings tracked.

    >>> p = UniPoly((-2, 0, 1)) ** 2
    >>> multiplicity_partition(UniPoly((0, 1)), p, squarefree_decomposition(p.derivative()))
    (2, 2)
    """
    parts: list[int] = []
    for f, k in yun:
        # rho = s0 p.num mod f, so p = rho / c mod f with c = s0 p.den; then
        # v = scale * c^(deg m) * m(rho / c) mod f when the loop ends.
        rho = list(p.num)
        c = _pseudo_divide(rho, f.num, []) * p.den
        v, scale, power = [m.num[-1]], 1, 1
        for coeff in reversed(m.num[:-1]):
            power *= c
            v = _axpy(_convolve(v, rho), [scale * coeff * power], 1)
            scale *= _pseudo_divide(v, f.num, [])
        points, leftover = divmod(gcd(f, _made(tuple(v), 1)).degree, m.degree)
        if leftover:
            raise AssertionError(f"{m} has roots with different fibres of {p}")
        parts.extend([k + 1] * points)
    parts.extend([1] * (p.degree - sum(parts)))
    return tuple(sorted(parts, reverse=True))


def unassigned_branch(t: PellTriple) -> list[BranchClass]:
    """The unassigned branch points, grouped into Galois orbits over Q.

    The classes are the distinct irreducible factors of the branch
    polynomial once its roots at the assigned values +-1 are divided out;
    each factor m contributes deg m conjugate branch points, all with the
    same fibre partition, computed over Q by :func:`multiplicity_partition`.
    Dividing the roots out first, rather than factoring them, spares the
    factorization most of the degree of a Chebyshev triple's polynomial.
    The partitions are read off Yun(W) for P' = Q W: an unassigned point is
    not a root of Q, so it has the same multiplicity in W as in P'.

    An inflation P = L(x^m) lifts its base's classes instead.  Over a value
    other than L(0) each part of L's partition is repeated m times; over
    L(0) the part e0 = ord_0(L - L(0)) of the point y = 0 becomes one part
    m * e0.  Unless L(0) is +-1, L(0) is a branch value of P even when it is
    none of L (e0 = 1 then).  For L = y^3 - 3y and m = 2:

    >>> t = PellTriple.build(UniPoly((0, 0, -3, 0, 0, 0, 1)), UniPoly((1,)),
    ...                      UniPoly((-1, 0, 0, 0, 9, 0, 0, 0, -6, 0, 0, 0, 1)))
    >>> for cls in unassigned_branch(t):
    ...     print(cls.factor, cls.partition)
    x - 2 (2, 2, 1, 1)
    x (2, 1, 1, 1, 1)
    x + 2 (2, 2, 1, 1)
    """
    return _unassigned_branch(t, _base_of(t))


def _unassigned_branch(t: PellTriple, inflated: tuple[PellTriple, int] | None) -> list[BranchClass]:
    """:func:`unassigned_branch` with t's :func:`_base_of` given."""
    if inflated:
        base, m = inflated
        classes = _unassigned_branch(base, None)
        ell = base.p
        at_zero = _reduced([-ell.num[0], ell.den], ell.den)  # x - L(0)
        if abs(ell.num[0]) != ell.den and all(cls.factor != at_zero for cls in classes):
            if not ell.num[1]:
                raise AssertionError(f"0 is a critical point of {ell} but L(0) is no branch value")
            classes.append(BranchClass(at_zero, (1,) * ell.degree))
        lifted = [BranchClass(cls.factor, _lift(cls.partition, m, ell, cls.factor == at_zero))
                  for cls in classes]
        if len(lifted) > 1:
            lifted.sort(key=lambda cls: (cls.factor.degree, cls.factor.coeffs))
        return lifted
    factors = factor_rational(branch_polynomial(t).deflate(1).deflate(-1))
    if not factors:
        return []
    yun = squarefree_decomposition(t.p.derivative().exact_div(t.q))
    return [BranchClass(factor, multiplicity_partition(factor, t.p, yun)) for factor, _ in factors]


def _ramspec_and_classes(t: PellTriple) -> tuple[RamSpec, list[BranchClass]]:
    """The spec of :func:`ramspec_of` and the branch classes it was read
    from: the CLI prints both, and so finds the classes, and t's base, once."""
    inflated = _base_of(t)
    plus, minus, _ = _assigned_profile(t, inflated)
    classes = _unassigned_branch(t, inflated)
    members = [plus, minus]
    for cls in classes:
        members.extend([cls.partition] * cls.count)
    return RamSpec(t.order, tuple(members), (plus, minus)), classes


def ramspec_of(t: PellTriple) -> RamSpec:
    """The full ramification specification of the triple's line map."""
    return _ramspec_and_classes(t)[0]


def hurwitz_report(t: PellTriple) -> HurwitzReport:
    """Point counts of the branching data: e unassigned and e' assigned
    ramification points, and w odd parts over +-1.

    The triple was verified where it entered (see :class:`PellTriple`), so
    P^2 - 1 = R Q^2 with R squarefree of degree 2g + 2.  A point over +-1
    then has multiplicity 2 ord Q + [R vanishes there] (see
    :func:`assigned_profile`), so the odd parts over +-1 are the roots of R,
    and w = deg R = 2g + 2.  On the generic
    stratum (all ramification simple, one ramification point over each
    unassigned branch point) the total sum(part - 1) that
    :meth:`RamSpec.validate` requires to be n - 1 is e + e', Riemann-Hurwitz
    for the line map; given it, Riemann-Hurwitz for the double cover,
    2g - 2 = -4 + 2(n - e'), is e = g, which is asserted.
    """
    spec = ramspec_of(t)
    plus, minus = spec.assigned
    classes = unassigned_branch(t)
    e = sum(cls.count * sum(1 for part in cls.partition if part >= 2) for cls in classes)
    e_prime = sum(1 for profile in (plus, minus) for part in profile if part >= 2)
    w = spec.odd_marked_parts()
    n, g = t.order, t.genus
    generic = all(part <= 2 for member in spec.members for part in member) and all(
        sum(1 for part in cls.partition if part >= 2) == 1 for cls in classes
    )
    if generic and e != g:
        raise AssertionError(f"generic stratum but e = {e} != g = {g}")
    genus_check = genus_of_ramspec(spec) == g
    return HurwitzReport(n, g, e, e_prime, w, genus_check, generic)
