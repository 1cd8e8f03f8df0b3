"""The package loads only the layers a command runs.

Module sets are read in a fresh interpreter, since this process has long
imported everything.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abelpell

SRC = Path(abelpell.__file__).resolve().parents[1]

# The module set is read before the harness imports json to print it.
LOADED = """
import contextlib, importlib, io, sys
import abelpell
module, *argv = sys.argv[1:]
importlib.import_module(module)
if argv:
    from abelpell.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
else:
    assert not hasattr(abelpell, "no_such_name")
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""


def loaded_modules(argv: list[str], module: str = "abelpell") -> set[str]:
    """Every module, the standard library's too, that a fresh interpreter
    holds after it imports module and runs the CLI on argv (if any)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", LOADED, module, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("argv, absent", [
    ([], None),
    (["pell", "verify", "x^2", "1", "x^4-1"],
     {"geometry", "factorization", "components", "perms", "strata"}),
    # A hit is answered at step 0, before the miss prefilter loads the
    # modular kernel of factorization.
    (["pell", "solve", "x^2-2"], {"geometry", "factorization", "components", "perms", "strata"}),
    (["pell", "solve", "x^4+x+1", "--n-max", "10"], {"geometry", "components", "perms", "strata"}),
    (["components", "count", "--genus", "1", "--order", "4"],
     {"geometry", "factorization", "strata", "parsing", "unipoly", "pell"}),
    (["components", "list", "--genus", "1", "--order", "4"],
     {"geometry", "factorization", "strata", "parsing", "unipoly", "pell"}),
    (["strata", "nilpotency", "--n", "3", "--k", "4"],
     {"geometry", "factorization", "components", "perms", "pell", "unipoly", "parsing"}),
])
def test_commands_load_only_their_layers(argv, absent):
    loaded = {m[len("abelpell."):] for m in loaded_modules(argv) if m.startswith("abelpell.")}
    if absent is None:
        assert loaded == set()  # import abelpell loads no submodule
    else:
        assert loaded and not loaded & absent, loaded & absent


def test_text_output_loads_no_json():
    argv = ["pell", "verify", "x^2", "1", "x^4-1"]
    assert "json" not in loaded_modules(argv)
    assert "json" in loaded_modules(argv + ["--format", "structured"])


def test_parser_loads_no_dataclasses():
    # Every polynomial command parses its input: the parser builds no record type.
    loaded = loaded_modules([], "abelpell.parsing")
    assert "abelpell.parsing" in loaded and "dataclasses" not in loaded


@pytest.mark.parametrize("module", ["abelpell.pell", "abelpell.geometry"])
def test_the_solver_and_geometry_load_no_parser(module):
    # The parser reads CLI input; the solver and the geometry take polynomials.
    loaded = loaded_modules([], module)
    assert module in loaded and "abelpell.parsing" not in loaded


def test_components_imports_no_polynomial_layer():
    tree = ast.parse((SRC / "abelpell" / "components.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported & {"geometry", "pell", "unipoly", "factorization"} == set()
    assert {"perms", "limits"} <= imported


def test_ramspec_imports_only_the_standard_library():
    # nothing of the package: the census and geometry both build on it
    tree = ast.parse((SRC / "abelpell" / "ramspec.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert imported == {"__future__", "dataclasses"}


PUBLIC_NAMES = (
    "BranchClass", "CFStep", "HurwitzReport", "Obstruction", "OrbitCertificate", "ParseError",
    "PellCheck", "PellTriple", "RamSpec", "TangentReport", "UniPoly", "WeightedSymmetricSystem",
    "apply_move", "assigned_profile", "canonical_key", "cf_steps", "component_count",
    "enumerate_m", "format_monomials", "format_poly", "fundamental_unit", "genus_of_ramspec",
    "hurwitz_report", "inflate", "laurent_sqrt_polypart", "nilpotence_identity_check",
    "normalize", "odd_nilpotency_check", "parse_poly", "pell_compose", "pell_power",
    "pell_solve", "pell_verify", "polt_dimension", "poly", "ramspec_of", "resultant",
    "squarefree_decomposition", "tangent_rank", "tuple_ramspec", "unassigned_branch",
    "unit_compose", "validate_tuple", "weighted_sigma",
)


def test_public_names_are_their_home_objects():
    # Named one by one, so that an addition or removal shows in the diff.
    assert tuple(abelpell.__all__) == PUBLIC_NAMES
    for name in abelpell.__all__:
        value = getattr(abelpell, name)
        assert value.__module__.startswith("abelpell."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        abelpell.no_such_name


def test_only_factorization_decides_a_good_prime():
    # pell asks factorization._good_prime for its prime, and does not name
    # the test that decides one.
    deciders = {"_squarefree_mod"}
    for path in sorted((SRC / "abelpell").glob("*.py")):
        if path.name == "factorization.py":
            continue
        tree = ast.parse(path.read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not named & deciders, (path.name, named & deciders)
