"""Ramification specifications: fibre partitions of a line map over its
finite branch points, the two over +-1 marked.  Only arithmetic on
partitions, so the module imports nothing from the package.
"""
from __future__ import annotations

from dataclasses import dataclass

#: A partition of the map degree: part multiplicities sorted descending.
Partition = tuple[int, ...]


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

    def odd_marked_parts(self) -> int:
        """Number of odd parts (with multiplicity) among the two marked profiles."""
        return sum(1 for part in self.assigned for e in part if e % 2 == 1)


def genus_of_ramspec(spec: RamSpec) -> int:
    """Genus of the double cover forced by the marked profiles: (t - 2)/2
    where t counts their odd parts.

    t is always even and at least 2, so no check is needed.  Each marked
    profile is a partition of n, whose number of odd parts has the parity
    of n, so t is even.  t = 0 would need two all-even marked members, and
    a partition of n into even parts has ramification sum (e - 1) >= n/2,
    so the two alone would exceed the total n - 1 that
    :meth:`RamSpec.validate` enforces.
    """
    return (spec.odd_marked_parts() - 2) // 2


def polt_dimension(spec: RamSpec) -> int:
    """Dimension of the versal deformation space attached to the
    specification: each part e of an unassigned member moves in e - 1
    directions; a part over an assigned value stays a square (even e:
    e/2 - 1) or a square times a linear factor (odd e: (e - 1)/2).

    Theorem: it is the genus.  Proof.  For every part, (e - 1) minus its
    marked contribution is floor(e/2).  So the dimension is the total of
    (e - 1), which :meth:`RamSpec.validate` fixes at n - 1, less the sum of
    floor(e/2) over the marked parts.  A partition of n with s odd parts has
    sum floor(e/2) = (n - s)/2, so with t odd marked parts in all, the
    dimension is (n - 1) - (2n - t)/2 = (t - 2)/2, :func:`genus_of_ramspec`.
    """
    return genus_of_ramspec(spec)
