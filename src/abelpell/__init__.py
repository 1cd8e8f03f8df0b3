"""Exact solver and moduli bookkeeping for the polynomial Pell equation.

The package solves P^2 - R*Q^2 = 1 over the rationals by continued fractions
in exact surd form, builds the branched line maps the solutions induce,
verifies their ramification and deformation identities symbolically, and
counts connected components of the solution moduli by braid-move orbits of
permutation tuples.
"""
from .components import (
    MonodromyTuple,
    OrbitCertificate,
    apply_move,
    canonical_key,
    component_count,
    enumerate_m,
    tuple_ramspec,
)
from .geometry import (
    AbelMapView,
    BranchClass,
    HurwitzReport,
    RamSpec,
    assigned_profile,
    genus_of_ramspec,
    hurwitz_report,
    polt_dimension,
    ramspec_of,
    unassigned_branch,
)
from .multipoly import MultiPoly
from .parsing import ParseError, parse_poly
from .pell import (
    CFStep,
    FundamentalUnit,
    Obstruction,
    PellCheck,
    PellTriple,
    QuadraticSurd,
    cf_expand,
    fundamental_unit,
    inflate,
    laurent_sqrt_polypart,
    normalize,
    pell_compose,
    pell_power,
    pell_solve,
    pell_verify,
    unit_compose,
)
from .strata import (
    TangentReport,
    TruncatedRing,
    WeightedSymmetricSystem,
    nilpotence_identity_check,
    odd_nilpotency_check,
    tangent_rank,
    weighted_sigma,
)
from .unipoly import UniPoly, format_poly, poly, resultant, squarefree_decomposition

__all__ = [name for name in dir() if not name.startswith("_")]
