"""Exact solver and moduli bookkeeping for the polynomial Pell equation.

The package solves P^2 - R*Q^2 = 1 over the rationals by continued fractions
in exact surd form, builds the branched line maps the solutions induce,
verifies their ramification and deformation identities symbolically, and
counts connected components of the solution moduli by braid-move orbits of
permutation tuples.

Importing the package loads none of its modules: each public name below is
imported from its home module on first use (PEP 562).
"""
from importlib import import_module

_HOMES = {
    "components": ("OrbitCertificate", "apply_move", "canonical_key", "component_count",
                   "enumerate_m", "tuple_ramspec", "validate_tuple"),
    "geometry": ("BranchClass", "HurwitzReport", "assigned_profile", "hurwitz_report",
                 "ramspec_of", "unassigned_branch"),
    "parsing": ("ParseError", "parse_poly"),
    "pell": ("CFStep", "Obstruction", "PellCheck", "PellTriple", "cf_steps",
             "fundamental_unit", "inflate", "laurent_sqrt_polypart", "normalize", "pell_compose", "pell_power", "pell_solve",
             "pell_verify", "unit_compose"),
    "ramspec": ("RamSpec", "genus_of_ramspec", "polt_dimension"),
    "strata": ("TangentReport", "WeightedSymmetricSystem", "format_monomials",
               "nilpotence_identity_check", "odd_nilpotency_check", "tangent_rank",
               "weighted_sigma"),
    "unipoly": ("UniPoly", "format_poly", "poly", "resultant", "squarefree_decomposition"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Only the table is consulted: ``from . import pell`` first asks for the
    # attribute ``pell``, which must fail here so that the submodule loads.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
