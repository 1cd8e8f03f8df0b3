"""Permutations of {0, ..., n-1} in word form.

The permutation x is the tuple (x(0), ..., x(n-1)).  Composition is
left-to-right everywhere in this package: (p * q)(x) = q(p(x)), matching
concatenation of loops read left to right.
"""
from __future__ import annotations

from typing import Sequence

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Left-to-right composition: apply p first, then q.

    >>> compose((1, 0, 2), (0, 2, 1))   # (01) then (12)
    (2, 0, 1)
    """
    return tuple(map(q.__getitem__, p))


def compose_all(perms: Sequence[Sequence[int]], n: int) -> Perm:
    acc = identity(n)
    for p in perms:
        acc = compose(acc, p)
    return acc


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths in decreasing order.

    >>> cycle_type((1, 0, 2))
    (2, 1)
    """
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            length += 1
            j = p[j]
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def fixed_points(p: Sequence[int]) -> int:
    return sum(1 for i, pi in enumerate(p) if i == pi)


def is_involution(p: Sequence[int]) -> bool:
    """Product of disjoint transpositions; the identity counts."""
    return all(p[p[i]] == i for i in range(len(p)))


def is_transposition(p: Sequence[int]) -> bool:
    return fixed_points(p) == len(p) - 2 and is_involution(p)


def transposition(n: int, i: int, j: int) -> Perm:
    word = list(range(n))
    word[i], word[j] = word[j], word[i]
    return tuple(word)


def count_involutions(n: int) -> int:
    """Telephone numbers: I(n) = I(n-1) + (n-1) I(n-2), the involutions of
    {0, ..., n-1}, in n steps."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def standard_cycle(n: int) -> Perm:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return tuple((i + 1) % n for i in range(n))
