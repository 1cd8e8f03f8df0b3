"""Every module-level name in the package is used somewhere else in it.

A function, class or assignment at the top of a module in ``src/abelpell``
must be referenced outside its own definition: by a name, an attribute, or a
``from ... import``, in any module of the package.  A public name counts as
referenced through ``abelpell.__init__._HOMES``; dunders are exempt.  So must
a method or property of a package class, by an attribute; the public members
that only the tests read are named in ``TEST_ONLY_MEMBERS``.

Every parameter with a default is named in ``OPTIONAL_PARAMETERS``, so that
an optional parameter added or removed shows in the diff.

Every ``check(name, ok)`` in ``cli.py`` passes an ``ok`` that can be false:
a constant ``True`` reports nothing, and the entries that carry data under a
check's name are named in ``CONSTANT_CHECKS``.

Every function that builds a ``PellTriple(...)`` directly, not through the
verifying ``PellTriple.build``, is named in ``UNVERIFIED_TRIPLES``, so that a
new unverified construction shows in the diff; each such producer proves its
triple valid in its docstring.

Every function that raises ``AssertionError`` itself is named in
``LIBRARY_GUARDS``, so that a guard added or removed shows in the diff; the
CLI exits 4 when one of them fires.  ``GUARD_TESTS`` names, for each guard, a
test that trips it.
"""
import ast
from collections import Counter
from pathlib import Path

import abelpell

PACKAGE = Path(abelpell.__file__).resolve().parent


def defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def referenced_names(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def public_names(tree: ast.Module) -> set[str]:
    """The strings in the ``_HOMES`` table of the package ``__init__``."""
    for stmt in tree.body:
        if "_HOMES" in defined_names(stmt):
            return {node.value for node in ast.walk(stmt.value)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    raise AssertionError("abelpell/__init__.py has no _HOMES table")


def unreferenced_names(package: Path) -> list[str]:
    statements = []  # (module, statement)
    public = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements.extend((path.stem, stmt) for stmt in tree.body)
        if path.stem == "__init__":
            public = public_names(tree)
    refs = [referenced_names(stmt) for _, stmt in statements]
    out = []
    for i, (module, stmt) in enumerate(statements):
        for name in sorted(defined_names(stmt)):
            if name.startswith("__") and name.endswith("__") or name in public:
                continue
            if not any(name in r for j, r in enumerate(refs) if j != i):
                out.append(f"{module}.{name}")
    return out


def test_every_module_level_name_is_used():
    assert unreferenced_names(PACKAGE) == []


def test_the_guard_flags_a_leftover(tmp_path):
    # A copy of the package with a function that only calls itself.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "unipoly.py", "a") as handle:
        handle.write("\n\ndef squarefree_part(p):\n    return squarefree_part(p)\n")
    assert unreferenced_names(tmp_path) == ["unipoly.squarefree_part"]


#: The public members of package classes that the package itself never reads,
#: as ``module.class.member``: the tests use them.
TEST_ONLY_MEMBERS = (
    "pell.CFStep.partial_quotient",
    "unipoly.UniPoly.evaluate",
)


def attribute_counts(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def unreferenced_members(package: Path) -> list[str]:
    """The non-dunder methods and properties of top-level package classes
    that no attribute reads outside their own definition."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    uses = sum((attribute_counts(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                        member.name.startswith("__") and member.name.endswith("__")):
                    continue
                if uses[member.name] == attribute_counts(member)[member.name]:
                    out.append(f"{module}.{cls.name}.{member.name}")
    return sorted(out)


def test_every_class_member_is_used():
    assert unreferenced_members(PACKAGE) == list(TEST_ONLY_MEMBERS)
    tests = sum((attribute_counts(ast.parse(path.read_text()))
                 for path in Path(__file__).parent.glob("test_*.py")), Counter())
    assert all(tests[name.rsplit(".", 1)[1]] for name in TEST_ONLY_MEMBERS)


def test_the_guard_flags_a_leftover_member(tmp_path):
    # A copy of the package with a method that only calls itself.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    source = (tmp_path / "unipoly.py").read_text()
    anchor = "    def evaluate(self"
    (tmp_path / "unipoly.py").write_text(source.replace(
        anchor, "    def halve(self):\n        return self.halve()\n\n" + anchor, 1))
    assert unreferenced_members(tmp_path) == sorted(
        TEST_ONLY_MEMBERS + ("unipoly.UniPoly.halve",))


#: Each parameter with a default in a package function or method, as
#: ``module.qualified_name(parameter)``.
OPTIONAL_PARAMETERS = (
    "cli.main(argv)",
)


def functions(package: Path):
    """Each function and method of the package, at any depth, as
    (``module.qualified_name``, node); a class only adds to the name."""
    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                yield from visit(child, f"{name}.")
            else:
                yield from visit(child, prefix)

    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield from ((f"{path.stem}.{name}", func) for name, func in visit(tree, ""))


def optional_parameters(package: Path) -> list[str]:
    out = []
    for name, func in functions(package):
        args = func.args
        positional = args.posonlyargs + args.args
        with_default = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        out.extend(f"{name}({arg.arg})" for arg in with_default)
    return sorted(out)


def test_optional_parameters_are_listed():
    assert tuple(optional_parameters(PACKAGE)) == OPTIONAL_PARAMETERS


def test_the_inventory_flags_a_new_default(tmp_path):
    # A copy of the package with one more optional parameter.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "perms.py", "a") as handle:
        handle.write("\n\ndef shift(p, by=1):\n    return p[by:] + p[:by]\n")
    assert optional_parameters(tmp_path) == sorted(OPTIONAL_PARAMETERS + ("perms.shift(by)",))


#: Each package function that calls ``PellTriple(...)`` itself rather than
#: ``PellTriple.build``, as ``module.qualified_name``.
UNVERIFIED_TRIPLES = (
    "geometry._base_of",
    "pell.inflate",
    "pell.minimal_solution",
    "pell.normalize",
    "pell.pell_power",
)


def unverified_triples(package: Path) -> list[str]:
    return sorted({name for name, func in functions(package) if any(
        isinstance(call, ast.Call) and "PellTriple" in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))
        for call in ast.walk(func))})


def test_unverified_triples_are_listed():
    assert tuple(unverified_triples(PACKAGE)) == UNVERIFIED_TRIPLES


def test_the_inventory_flags_an_unverified_triple(tmp_path):
    # A copy of the package with one more direct construction.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "strata.py", "a") as handle:
        handle.write("\n\ndef negate(t):\n    return pell.PellTriple(-t.p, -t.q, t.r)\n")
    assert unverified_triples(tmp_path) == sorted(UNVERIFIED_TRIPLES + ("strata.negate",))


#: The ``check(...)`` entries of ``cli.py`` whose ``ok`` is the constant
#: ``True``: they carry data, not a verdict.
CONSTANT_CHECKS = ("orders_searched_up_to_n_max",)


def constant_checks(package: Path) -> list[str]:
    """The names of the ``check(name, True, ...)`` calls in ``cli.py``."""
    tree = ast.parse((package / "cli.py").read_text())
    out = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check"):
            continue
        args = dict(zip(("name", "ok"), call.args)) | {k.arg: k.value for k in call.keywords}
        if isinstance(args["ok"], ast.Constant) and args["ok"].value is True:
            out.append(args["name"].value)
    return sorted(out)


def test_only_listed_checks_are_constant():
    assert tuple(constant_checks(PACKAGE)) == CONSTANT_CHECKS


def test_the_guard_flags_a_constant_check(tmp_path):
    # A copy of the package whose census reports a check that cannot fail.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    source = (tmp_path / "cli.py").read_text()
    anchor = "    return code, result, [], lines\n"
    assert source.count(anchor) == 1
    (tmp_path / "cli.py").write_text(source.replace(
        anchor, "    return code, result, [check(\"moves_preserve_validity\", True)], lines\n"))
    assert constant_checks(tmp_path) == sorted(CONSTANT_CHECKS + ("moves_preserve_validity",))


#: Each package function that raises ``AssertionError`` in its own body, not
#: in a function nested in it, as ``module.qualified_name``.  Each guards what
#: nothing else checks; a failed one exits the CLI with status 4.
LIBRARY_GUARDS = (
    "components.OrbitCertificate.__post_init__",
    "components.component_count",
    "components.component_count.image_key",
    "geometry._base_of",
    "geometry._unassigned_branch",
    "geometry.hurwitz_report",
    "geometry.multiplicity_partition",
    "pell._sqrt_and_rest",
    "pell._unit_degree_mod_p",
    "pell.minimal_solution",
    "pell.normalize",
)


#: Each entry of ``LIBRARY_GUARDS`` and a test that trips it, as
#: ``file::function`` in ``tests/``; a new guard needs a new entry here.
GUARD_TESTS = {
    "components.OrbitCertificate.__post_init__":
        "test_components.py::test_certificate_checks_its_orbit_sizes",
    "components.component_count":
        "test_components.py::test_closure_rejects_a_flip_that_is_no_involution",
    "components.component_count.image_key":
        "test_components.py::test_closure_rejects_a_move_that_leaves_m",
    "geometry._base_of": "test_geometry.py::test_base_of_checks_that_r_is_a_power_too",
    "geometry._unassigned_branch":
        "test_geometry.py::test_an_inflation_lift_needs_l0_among_the_base_branch_values",
    "geometry.hurwitz_report":
        "test_geometry.py::test_hurwitz_report_checks_e_on_the_generic_stratum",
    "geometry.multiplicity_partition":
        "test_geometry.py::test_multiplicity_partition_rejects_unequal_fibres",
    "pell._sqrt_and_rest": "test_pell.py::test_square_root_checks_its_contract",
    "pell._unit_degree_mod_p":
        "test_pell.py::test_the_fused_step_still_checks_its_exact_division",
    "pell.minimal_solution": "test_pell.py::test_solve_checks_the_norm_of_the_unit",
    "pell.normalize": "test_pell.py::test_normalize_checks_its_target_chart",
}


def raises_assertion(node: ast.AST) -> bool:
    if isinstance(node, ast.Assert):
        return True
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return getattr(exc, "id", None) == "AssertionError"


def own_nodes(func: ast.AST):
    """The nodes of a function's body, outside the functions and classes
    defined in it."""
    for child in ast.iter_child_nodes(func):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from own_nodes(child)


def library_guards(package: Path) -> list[str]:
    return sorted(name for name, func in functions(package)
                  if any(map(raises_assertion, own_nodes(func))))


def test_library_guards_are_listed():
    assert tuple(library_guards(PACKAGE)) == LIBRARY_GUARDS


def test_every_guard_has_a_test_that_trips_it():
    # The named test exists and expects an AssertionError.
    assert tuple(sorted(GUARD_TESTS)) == LIBRARY_GUARDS
    for guard, test in GUARD_TESTS.items():
        filename, name = test.split("::")
        tree = ast.parse((Path(__file__).parent / filename).read_text())
        found = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        assert len(found) == 1 and "AssertionError" in ast.unparse(found[0]), guard


def test_the_inventory_flags_a_new_guard(tmp_path):
    # A copy of the package that restates a rule pell_verify already checks.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "geometry.py", "a") as handle:
        handle.write("\n\ndef order_of(t):\n    if t.p.is_zero():\n"
                     "        raise AssertionError(\"P = 0\")\n    return t.order\n")
    assert library_guards(tmp_path) == sorted(LIBRARY_GUARDS + ("geometry.order_of",))
