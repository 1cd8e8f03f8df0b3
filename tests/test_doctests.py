"""The docstring examples of every abelpell module and of the README, run as
part of the suite."""
import doctest
import importlib
import pkgutil
from pathlib import Path

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


def test_readme_examples():
    # "Library at a glance" imports through the package's lazy name table.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
