"""Ramification bookkeeping for the line map induced by a Pell solution.

P^2 - 1 = R*Q^2 makes the polynomial P a degree-n self-map of the line whose
fibres over +1, -1 and infinity are constrained: infinity is totally ramified
and the fibres over +-1 are read off the squarefree structure of P -+ 1, with
the odd multiplicities sitting exactly at the roots of R.  All other branch
points are "unassigned" and live wherever P' vanishes.  Everything reduces to
exact squarefree decompositions and gcds over Q: the fibres over a Galois orbit
of branch values are read off gcds with the squarefree factors of P', so no
algebraic extension is built and nothing is numerical.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .factorization import factor_rational
from .pell import PellTriple
from .unipoly import (
    UniPoly,
    gcd,
    interpolate,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)

#: A partition of the map degree: part multiplicities sorted descending.
Partition = tuple[int, ...]


def _partition_of_decomposition(parts: list[tuple[UniPoly, int]]) -> Partition:
    out: list[int] = []
    for factor, mult in parts:
        out.extend([mult] * factor.degree)
    return tuple(sorted(out, reverse=True))


@dataclass(frozen=True)
class RamSpec:
    """A ramification specification: the multiset of branch-point partitions
    (finite branch points only) with the two assigned ones marked.

    ``members`` lists one partition per finite branch point of the algebraic
    closure; ``assigned`` is the ordered pair of profiles over +1 and -1,
    which are also members.  The profile over infinity is always the single
    part {n} and is excluded (it carries the remaining n-1 of the total
    ramification 2n-2).
    """

    order: int
    members: tuple[Partition, ...]
    assigned: tuple[Partition, Partition]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members, reverse=True)))
        self.validate()

    def validate(self) -> None:
        n = self.order
        for part in self.members:
            if sum(part) != n:
                raise ValueError(f"partition {part} does not sum to the order {n}")
            if any(e < 1 for e in part):
                raise ValueError(f"partition {part} has nonpositive parts")
        if self.total_ramification() != n - 1:
            raise ValueError(
                f"total ramification {self.total_ramification()} != order - 1 = {n - 1}"
            )
        pool = list(self.members)
        for marked in self.assigned:
            if marked not in pool:
                raise ValueError("assigned profiles must be members of the multiset")
            pool.remove(marked)

    def total_ramification(self) -> int:
        return sum(e - 1 for part in self.members for e in part)

    def unassigned(self) -> tuple[Partition, ...]:
        pool = list(self.members)
        for marked in self.assigned:
            pool.remove(marked)
        return tuple(pool)

    def odd_marked_parts(self) -> int:
        """Number of odd parts (with multiplicity) among the two marked profiles."""
        return sum(1 for part in self.assigned for e in part if e % 2 == 1)


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

    The odd multiplicities of P -+ 1 must sit exactly at the roots of R; a
    mismatch means the triple was invalid and raises.
    """
    # The pullback of {+1, -1} must be (roots of R) + 2*(roots of Q).
    if not ((t.p - 1) * (t.p + 1) - t.r * t.q * t.q).is_zero():
        raise ValueError("P^2 - 1 differs from R*Q^2: invalid triple")
    plus = squarefree_decomposition(t.p - 1)
    minus = squarefree_decomposition(t.p + 1)
    odd_radical = UniPoly((1,))
    for factor, mult in plus + minus:
        if mult % 2 == 1:
            odd_radical = odd_radical * factor
    if odd_radical != t.r.monic():
        raise ValueError("odd-multiplicity locus of P^2 - 1 differs from roots of R")
    return (
        _partition_of_decomposition(plus),
        _partition_of_decomposition(minus),
        (t.order,),
    )


def branch_polynomial(t: PellTriple) -> UniPoly:
    """res_x(P(x) - s, P'(x)) as a polynomial in the branch value s.

    Computed by interpolation: the resultant is evaluated at deg P distinct
    rational values and the degree <= deg P - 1 interpolant is exact.
    """
    dp = t.p.derivative()
    if dp.is_zero():
        raise AssertionError("P' = 0 cannot happen in characteristic zero")
    points = []
    for s in range(t.order):
        points.append((Fraction(s), resultant(t.p - s, dp)))
    return interpolate(points)


def multiplicity_partition(m: UniPoly, p: UniPoly) -> Partition:
    """Fibre partition of p over a root theta of the irreducible m, over Q.

    A root of p - theta has multiplicity k + 1 exactly where p' vanishes to
    order k.  With p' = lc * prod f_k^k (Yun), the points of multiplicity
    k + 1 over all the conjugates of theta together are the roots of
    gcd(f_k, m(p) mod f_k); Galois conjugation shares them equally among the
    deg m conjugates, and every other point of the fibre is simple.  Gcds
    over Q suffice (dynamic evaluation: Della Dora, Dicrescenzo and Duval,
    EUROCAL '85); an m whose roots have different fibres fails the equal
    share and raises ``AssertionError``.

    >>> multiplicity_partition(UniPoly((0, 1)), UniPoly((-2, 0, 1)) ** 2)
    (2, 2)
    """
    parts: list[int] = []
    for f, k in squarefree_decomposition(p.derivative()):
        residue, value = p % f, UniPoly(())
        for c in reversed(m.coeffs):
            value = (value * residue + c) % f
        points, leftover = divmod(gcd(f, value).degree, m.degree)
        if leftover:
            raise AssertionError(f"{m} has roots with different fibres of {p}")
        parts.extend([k + 1] * points)
    parts.extend([1] * (p.degree - sum(parts)))
    return tuple(sorted(parts, reverse=True))


def unassigned_branch(t: PellTriple) -> list[BranchClass]:
    """The unassigned branch points, grouped into Galois orbits over Q.

    Factors of the branch polynomial at the assigned values +-1 are dropped;
    each remaining irreducible factor m contributes deg m conjugate branch
    points, all with the same fibre partition, computed over Q by
    :func:`multiplicity_partition`.
    """
    b = branch_polynomial(t)
    for assigned in (Fraction(1), Fraction(-1)):
        linear = UniPoly((-assigned, 1))
        while b.degree >= 1 and b.evaluate(assigned) == 0:
            b = b.exact_div(linear)
    if b.degree < 1:
        return []
    return [
        BranchClass(factor, multiplicity_partition(factor, t.p))
        for factor, _ in factor_rational(squarefree_part(b))
    ]


def ramspec_of(t: PellTriple) -> RamSpec:
    """The full ramification specification of the triple's line map."""
    plus, minus, _ = assigned_profile(t)
    members = [plus, minus]
    for cls in unassigned_branch(t):
        members.extend([cls.partition] * cls.count)
    return RamSpec(t.order, tuple(members), (plus, minus))


def genus_of_ramspec(spec: RamSpec) -> int:
    """Genus of the double cover forced by the marked profiles: (t - 2)/2
    where t counts their odd parts.  Odd t means no double cover exists."""
    t = spec.odd_marked_parts()
    if t < 2 or t % 2 == 1:
        raise ValueError(f"odd-part count {t} admits no hyperelliptic double cover")
    return (t - 2) // 2


def polt_dimension(spec: RamSpec) -> int:
    """Dimension of the versal deformation space attached to the
    specification.

    Each part r of an unassigned member moves in r-1 directions; a part over
    an assigned value is constrained to stay a square (even r: r/2 - 1) or a
    square times a linear factor (odd r: (r-1)/2).  Parts equal to 1
    contribute nothing.  For a valid specification this always equals the
    genus.
    """
    total = 0
    for part in spec.unassigned():
        total += sum(e - 1 for e in part)
    for part in spec.assigned:
        for e in part:
            total += e // 2 - 1 if e % 2 == 0 else (e - 1) // 2
    return total


def hurwitz_report(t: PellTriple) -> HurwitzReport:
    """Point counts of the branching data plus the identities they satisfy.

    The Riemann-Hurwitz total (2n - 2) and the odd-part count (2g + 2) are
    asserted unconditionally; on the generic stratum (all ramification simple,
    a single ramification point over each unassigned branch point) the count e
    of unassigned ramification points must equal the genus.
    """
    spec = ramspec_of(t)
    plus, minus = spec.assigned
    classes = unassigned_branch(t)
    e = sum(cls.count * sum(1 for part in cls.partition if part >= 2) for cls in classes)
    e_prime = sum(1 for profile in (plus, minus) for part in profile if part >= 2)
    w = spec.odd_marked_parts()
    n, g = t.order, t.genus
    total = spec.total_ramification() + (n - 1)
    if total != 2 * n - 2:
        raise AssertionError(f"Riemann-Hurwitz total {total} != {2 * n - 2}")
    if w != 2 * g + 2:
        raise AssertionError(f"odd-part count {w} != 2g + 2 = {2 * g + 2}")
    generic = all(part <= 2 for member in spec.members for part in member) and all(
        sum(1 for part in cls.partition if part >= 2) == 1 for cls in classes
    )
    if generic:
        if e != g:
            raise AssertionError(f"generic stratum but e = {e} != g = {g}")
        if -2 != -2 * n + (n - 1) + e_prime + e:
            raise AssertionError("Hurwitz count for the line map failed")
        if 2 * g - 2 != -4 + (2 * n - 2 * e_prime):
            raise AssertionError("Hurwitz count for the double cover failed")
    genus_check = genus_of_ramspec(spec) == g
    return HurwitzReport(n, g, e, e_prime, w, genus_check, generic)
