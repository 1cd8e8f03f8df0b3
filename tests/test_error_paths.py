"""Public error paths and edge answers that no other test reaches: one call
per row, with the exception it raises or the value it returns."""
from itertools import islice

import pytest

from abelpell.components import apply_move
from abelpell.factorization import fp_divmod
from abelpell.pell import (
    PellTriple, cf_steps, least_unit, normalize, pell_compose, pell_power, pell_verify,
    rational_nth_root,
)
from abelpell.ramspec import RamSpec
from abelpell.strata import format_monomials
from abelpell.unipoly import gcd, is_squarefree, poly, squarefree_decomposition

X = poly(0, 1)
UNIT = PellTriple.build(X, poly(1), poly(-1, 0, 1))
QUARTIC = poly(1, 1, 0, 0, 1)
WORDS = ((0, 1), (1, 0), (0, 1))  # (sigma, s_1, tau) for g = 1


def delete_attribute():
    del X.num


ROWS = [
    # (id, call, an exception type and the text its message holds, or a value)
    ("apply_move-tuple-not-swap", lambda: apply_move(WORDS, ("turn", 1)), (ValueError, "unknown move")),
    ("apply_move-unknown-name", lambda: apply_move(WORDS, "twist"), (ValueError, "unknown move")),
    ("pell_compose-different-r",
     lambda: pell_compose(UNIT, PellTriple.build(poly(-1, 0, 1), X, poly(-2, 0, 1))),
     (ValueError, "different R")),
    ("pell_power-zero", lambda: pell_power(UNIT, 0), (ValueError, "power must be >= 1")),
    ("normalize-unknown-chart", lambda: normalize(UNIT.p, UNIT.q, UNIT.r, "bogus"),
     (ValueError, "unknown chart 'bogus'")),
    # x^4 + x + 1 has no unit; three steps end before any stopping rule does.
    ("least_unit-finite-miss",
     lambda: least_unit(QUARTIC, islice(cf_steps(QUARTIC), 3), 100), None),
    ("RamSpec-nonpositive-part", lambda: RamSpec(2, ((3, -1), (1, 1)), ((3, -1), (1, 1))),
     (ValueError, "nonpositive parts")),
    ("rational_nth_root-index-0", lambda: rational_nth_root(4, 0), (ValueError, "root index")),
    ("format_monomials-empty", lambda: format_monomials({}, ()), "0"),
    ("UniPoly-delete-attribute", delete_attribute, (AttributeError, "cannot delete 'num'")),
    # __eq__ gives NotImplemented for a non-UniPoly, and Python falls back to identity.
    ("UniPoly-equals-int", lambda: poly(1) == 1, False),
    ("UniPoly-leading-of-zero", lambda: poly().leading, (ValueError, "no leading coefficient")),
    ("UniPoly-constant_value-of-x", lambda: X.constant_value(), (ValueError, "is not constant")),
    ("UniPoly-negative-power", lambda: X**-1, (ValueError, "negative power")),
    ("UniPoly-exact_div-inexact", lambda: (X * X).exact_div(X + 1), (ValueError, "not divisible")),
    ("UniPoly-monic-of-zero", lambda: poly().monic(), (ValueError, "no leading coefficient")),
    ("UniPoly-substitute_power-0", lambda: X.substitute_power(0), (ValueError, "m >= 1")),
    ("UniPoly-shift_degree-negative", lambda: X.shift_degree(-1), (ValueError, "negative degree shift")),
    ("gcd-zero-zero", lambda: gcd(poly(), poly()), poly()),
    ("squarefree_decomposition-zero", lambda: squarefree_decomposition(poly()),
     (ValueError, "zero polynomial")),
    ("is_squarefree-zero", lambda: is_squarefree(poly()), False),
    ("is_squarefree-constant", lambda: is_squarefree(poly(3)), True),
    ("pell_verify-zero-p", lambda: pell_verify(poly(), poly(1), poly(-1, 0, 1)).failures,
     ("P is zero", "defect of P^2 - R*Q^2 - 1 is -x^2, expected 0")),
    ("fp_divmod-by-zero", lambda: fp_divmod([1], [], 5), (ZeroDivisionError, "division by zero")),
    # A constant R breaks the degree rule only: 1 is squarefree.
    ("pell_verify-constant-r", lambda: pell_verify(X, poly(1), poly(1)).failures,
     ("R has degree 0, expected even degree >= 2", "defect of P^2 - R*Q^2 - 1 is x^2 - 2, expected 0")),
]


@pytest.mark.parametrize("call, outcome", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_error_path(call, outcome):
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        kind, text = outcome
        with pytest.raises(kind) as info:
            call()
        assert text in str(info.value)
    else:
        assert call() == outcome
