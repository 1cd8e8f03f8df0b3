from fractions import Fraction

import pytest

from abelpell.pell import int_nth_root, rational_nth_root


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_int_nth_root_exact_above_float_precision(k):
    for root in (2**53 + 1, 10**20 + 1, 3**100, 10**90 + 7):
        assert int_nth_root(root**k, k) == root
        assert int_nth_root(root**k + 1, k) is None
        assert int_nth_root(root**k - 1, k) is None


def test_int_nth_root_beyond_float_range():
    assert int_nth_root(10**400, 2) == 10**200
    assert int_nth_root(10**400, 4) == 10**100
    assert int_nth_root(10**400, 5) == 10**80
    assert int_nth_root(10**400, 3) is None
    assert int_nth_root(10**400 + 1, 2) is None


def test_int_nth_root_small_values():
    assert all(int_nth_root(n, 1) == n for n in range(3000))
    for k in (2, 3, 4, 5):
        powers = {r**k for r in range(60)}
        for n in range(3000):
            root = int_nth_root(n, k)
            if n in powers:
                assert root is not None and root**k == n
            else:
                assert root is None
    with pytest.raises(ValueError):
        int_nth_root(-1, 3)


def test_rational_nth_root_signs():
    assert rational_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(-4, 2) is None
    assert rational_nth_root(2, 2) is None
    assert rational_nth_root(0, 2) == 0
    assert rational_nth_root(Fraction(1, 10**400), 2) == Fraction(1, 10**200)
