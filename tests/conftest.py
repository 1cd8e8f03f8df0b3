"""Shared fixture triples used across the suite.

The family: the order-1 solution over x^2 - 1, its Chebyshev-style powers up
to order 10 (recurrence p_{k+1} = 2x p_k - p_{k-1} seeded by (1, x), and the
matching q-sequence seeded by (0, 1)), and the four small solutions that
exercise genus 0 and 1 in every chart.  Also Kubert's genus-1 quartics,
whose units have every torsion order that Mazur allows over Q.  Also the
exponent lists of the weighted symmetric systems, and the benchmark's
workload module, loaded from its file.
"""
from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abelpell.pell import PellTriple
from abelpell.unipoly import UniPoly, poly


def chebyshev_pair(k: int) -> tuple[UniPoly, UniPoly]:
    """(p_k, q_k) over R = x^2 - 1: p from (1, x), q from (0, 1)."""
    two_x = poly(0, 2)
    p_prev, p = poly(1), poly(0, 1)
    q_prev, q = poly(), poly(1)
    for _ in range(k - 1):
        p_prev, p = p, two_x * p - p_prev
        q_prev, q = q, two_x * q - q_prev
    return p, q


def chebyshev_triple(k: int) -> PellTriple:
    p, q = chebyshev_pair(k)
    return PellTriple.build(p, q, poly(-1, 0, 1))


def small_triples() -> list[PellTriple]:
    return [
        PellTriple.build(poly(0, 1), poly(1), poly(-1, 0, 1)),
        PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1)),
        PellTriple.build(poly(1, 0, 1), poly(0, 1), poly(2, 0, 1)),
        PellTriple.build(poly(0, 0, 1), poly(1), poly(-1, 0, 0, 0, 1)),
        PellTriple.build(poly(1, 0, 0, 0, 2), poly(0, 0, 2), poly(1, 0, 0, 0, 1)),
    ]


def fixture_family() -> list[PellTriple]:
    return small_triples() + [chebyshev_triple(k) for k in range(2, 11)]


@pytest.fixture
def triples() -> list[PellTriple]:
    return fixture_family()


def tate_parameters(n: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """(b, c) of Kubert's Tate normal form E(b, c): y^2 + (1 - c)xy - by =
    x^3 - bx^2, on which (0, 0) has order n (Kubert, Proc. London Math. Soc.
    33 (1976), table 3), for n = 4..10 and 12."""
    d = t * t - 3 * t + 1
    c9 = t * t * (t - 1)
    return {
        4: lambda: (t, Fraction(0)),
        5: lambda: (t, t),
        6: lambda: (t + t * t, t),
        7: lambda: (t**3 - t * t, t * t - t),
        8: lambda: ((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
        9: lambda: (c9 * (t * t - t + 1), c9),
        10: lambda: (t**3 * (t - 1) * (2 * t - 1) / d**2, -t * (t - 1) * (2 * t - 1) / d),
        12: lambda: (t * (2 * t - 1) * (2 * t * t - 2 * t + 1) * (3 * t * t - 3 * t + 1)
                     / (t - 1) ** 4, -t * (2 * t - 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 3),
    }[n]()


def kubert_r(n: int, t: Fraction) -> UniPoly:
    """D(f) = (f^2 + (1 - c)f + b)^2 + 4b(f + 1 - c) for E(b, c) of order n.

    f = (y - b)/x has its poles at (0, 0) and at O, so E is y^2 = D(f), and
    the difference of the two points at infinity has order n: R = D is a
    monic quartic whose unit has degree n.
    """
    b, c = tate_parameters(n, Fraction(t))
    f = poly(0, 1)
    inner = f * f + f * (1 - c) + b
    return inner * inner + (f + 1 - c) * (4 * b)


def exponent_lists(max_total: int):
    """All lists [e_1, ..., e_m] with e_i >= 2 and sum (e_i - 1) <= max_total,
    by length and then lexicographically."""

    def lists(m: int, budget: int):
        # m entries, each taking e - 1 >= 1 of the budget
        if m == 0:
            yield []
            return
        for e in range(2, budget - m + 3):
            for rest in lists(m - 1, budget - (e - 1)):
                yield [e, *rest]

    for m in range(1, max_total + 1):
        yield from lists(m, max_total)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py`` as a module, for the duration of a test module."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
