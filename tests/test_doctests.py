"""The docstring examples of every abelpell module, run as part of the suite."""
import doctest
import importlib
import pkgutil

import pytest

import abelpell

MODULES = sorted(m.name for m in pkgutil.iter_modules(abelpell.__path__, "abelpell."))


@pytest.mark.parametrize("name", ["abelpell", *MODULES])
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    # pell_solve, laurent_sqrt_polypart, multiplicity_partition,
    # canonical_key and the perms helpers carry examples; losing them is a
    # failure.
    for name in ("abelpell.pell", "abelpell.geometry", "abelpell.components", "abelpell.perms"):
        assert doctest.testmod(importlib.import_module(name)).attempted > 0
