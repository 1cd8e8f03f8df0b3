"""Every name the benchmark's tracer rebinds exists in the package.

``perfbench/tracer.py`` wraps attributes of the ``abelpell`` modules and of
``UniPoly`` by name, and skips a name that is gone, so a refactor that drops
one would lose its per-layer metrics without failing here.  The tracer's
source is read, not imported or run.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def package_owners(tree: ast.Module) -> dict[str, object]:
    """The tracer's names for the package modules and classes it imports."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("abelpell"):
            for alias in node.names:
                if node.module == "abelpell":  # a submodule
                    owner = importlib.import_module(f"abelpell.{alias.name}")
                else:
                    owner = getattr(importlib.import_module(node.module), alias.name)
                owners[alias.asname or alias.name] = owner
    return owners


def hooked(tree: ast.Module, owners: dict[str, object]) -> set[tuple[str, str]]:
    """(owner, attribute) pairs of the tracer's hook tables: every tuple that
    starts with an owner's name and a string."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in owners
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            out.add((node.elts[0].id, node.elts[1].value))
    return out


def test_every_hooked_name_exists():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    owners = package_owners(tree)
    hooks = hooked(tree, owners)
    # the table is found: a few of its entries
    assert {("cli", "parse_poly"), ("geometry", "resultant"), ("pell", "CFStep"),
            ("components", "apply_move"), ("UniPoly", "__mul__")} <= hooks
    # the tracer looks a hooked name up in the owner's own __dict__
    missing = sorted(f"{owner}.{attr}" for owner, attr in hooks
                     if attr not in vars(owners[owner]))
    assert not missing, missing


def test_every_attribute_the_tracer_reads_exists():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    owners = package_owners(tree)
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners}
    assert ("components", "count_involutions") in read
    missing = sorted(f"{owner}.{attr}" for owner, attr in read
                     if not hasattr(owners[owner], attr))
    assert not missing, missing
