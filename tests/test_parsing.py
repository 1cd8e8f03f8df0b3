import contextlib
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelpell.limits import MAX_DEGREE, MAX_NESTING, ResourceLimit
from abelpell.parsing import ParseError, parse_poly
from abelpell.unipoly import UniPoly, format_poly, poly


@contextlib.contextmanager
def int_digit_limit(digits: int):
    """Run with the interpreter's int-to-str digit limit set to digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_basic_examples():
    assert parse_poly("x^2-2").coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    assert parse_poly("(x^2+1)*(x^2-1)") == poly(-1, 0, 0, 0, 1)
    assert parse_poly("0") == UniPoly(())
    assert parse_poly("3/4") == poly(Fraction(3, 4))
    assert parse_poly("2*x + 1/2") == poly(Fraction(1, 2), 2)
    assert parse_poly("-x^2") == poly(0, 0, -1)
    assert parse_poly("(x+1)^3") == poly(1, 3, 3, 1)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_poly("x^-1")
    assert err.value.position == 2


def test_rational_exponent_rejected():
    # An exponent is an integer literal, even where a rational one reduces
    # to an integer.
    for text, position in (("x^4/2", 2), ("x^2/2", 2), ("(x+1)^ 6/3", 7), ("x^4/0", 2)):
        with pytest.raises(ParseError, match="exponent must be a nonnegative integer") as err:
            parse_poly(text)
        assert err.value.position == position


NESTED = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)

# One input per error message, with the text and column it gives under the
# default digit limit of 4300.
ERRORS = [
    ("1/x", ParseError, "expected digits after '/' in rational literal (column 2)"),
    ("1/0", ParseError, "zero denominator in rational literal (column 3)"),
    ("x + $", ParseError, "unexpected character '$' (column 5)"),
    ("(x+1", ParseError, "expected ')' (column 5)"),
    ("x)", ParseError, "unexpected ')' (column 2)"),
    ("x 3/4", ParseError, "unexpected '3/4' (column 3)"),
    ("x^-1", ParseError, "exponent must be a nonnegative integer (column 3)"),
    ("x^ ", ParseError, "exponent must be a nonnegative integer (column 4)"),
    ("x^1000000", ParseError, "exponent exceeds 100000 (column 3)"),
    ("x + y", ParseError, "unknown identifier 'y' (the variable is 'x') (column 5)"),
    ("x^2 + ", ParseError,
     "expected a number, the variable, or a parenthesised expression (column 7)"),
    (NESTED, ResourceLimit, "parentheses nested deeper than the cap of 100 (column 101)"),
    ("x^501", ResourceLimit, "polynomial degree 501 exceeds the cap of 500"),
    ("9^100000", ResourceLimit,
     "coefficients of up to 400000 bits exceed the cap of 28570 bits"),
    ("x - 1" + "0" * 4300, ResourceLimit,
     "a number literal of 4301 digits exceeds the limit of 4300 digits (column 5)"),
    # Two errors: the first one reached, reading left to right, is raised.
    ("x)$", ParseError, "unexpected ')' (column 2)"),
    ("x^600*1/0", ResourceLimit, "polynomial degree 600 exceeds the cap of 500"),
]


def test_error_positions():
    with int_digit_limit(4300):
        for text, error, message in ERRORS:
            with pytest.raises(error) as err:
                parse_poly(text)
            assert str(err.value) == message, text[:20]
            if error is ParseError:
                assert message.endswith(f"(column {err.value.position + 1})"), text


@pytest.mark.parametrize("text, position, message", [
    ("x²-2", 1, "unexpected character '²'"),  # superscript two
    ("x^2-2/٣", 5, "expected digits after '/'"),  # Arabic-Indic three
    ("x^²", 2, "unexpected character '²'"),
    ("é^2-2", 0, "unexpected character 'é'"),  # a non-ASCII letter
    ("x٣", 1, "unexpected character '٣'"),  # not part of the name
    ("x^2 - ２", 6, "unexpected character '２'"),  # fullwidth two
])
def test_only_ascii_digits_and_letters(text, position, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_poly(text)
    assert err.value.position == position
    assert parse_poly("x_1^2 - 2") == poly(-2, 0, 1)


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse_poly("x + y")
    assert "unknown identifier 'y'" in str(err.value)
    # but any single consistent name is fine
    assert parse_poly("t^2 - 2") == poly(-2, 0, 1)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")


def test_huge_exponent_rejected():
    with pytest.raises(ParseError):
        parse_poly("x^1000000")


def test_degree_cap():
    # The cap is checked before the power or product is computed.
    assert parse_poly(f"(x+1)^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly(f"x^{MAX_DEGREE - 1}*(x+1)").degree == MAX_DEGREE
    assert parse_poly("7^1000").degree == 0
    for text in (f"x^{MAX_DEGREE + 1}", f"(x^2+1)^{MAX_DEGREE // 2 + 1}",
                 f"x^{MAX_DEGREE}*x", "(x+1)^3000"):
        with pytest.raises(ResourceLimit, match="cap"):
            parse_poly(text)


def test_height_cap():
    # A power or product whose coefficients could outgrow twice the bits of a
    # number with the int-to-str digit limit is refused before it is computed.
    with int_digit_limit(4300):
        assert parse_poly("10^4000") == poly(10**4000)
        assert parse_poly("7^1000") == poly(7**1000)
        assert parse_poly(f"(x+1)^{MAX_DEGREE}").coeffs[1] == MAX_DEGREE
        assert parse_poly("(-1)^100000") == poly(1)  # a unit costs no bits
        for text in ("(9^100000)^400", "9^100000", "(1/2)^100000", "9^7000*9^7000"):
            start = time.perf_counter()
            with pytest.raises(ResourceLimit, match="bits exceed the cap of 28570 bits"):
                parse_poly(text)
            assert time.perf_counter() - start < 1


def test_literal_digit_limit():
    # A literal longer than the interpreter could convert is refused with its
    # column, as a numerator, a denominator or an exponent.
    with int_digit_limit(4300):
        assert parse_poly("9" * 4300) == poly(10**4300 - 1)
        assert parse_poly(f"x^0{'0' * 4298}2") == poly(0, 0, 1)
        for text, column in (("1" * 4301, 1), ("x + 1/" + "7" * 4301, 7),
                             ("x^" + "0" * 4301, 3)):
            message = f"literal of 4301 digits exceeds the limit of 4300 digits (column {column})"
            with pytest.raises(ResourceLimit, match=re.escape(message)):
                parse_poly(text)
    with int_digit_limit(0):
        assert parse_poly("1" * 4301) == poly(int("1" * 4301))
        assert parse_poly("x^" + "0" * 4301) == poly(1)


def test_printable_is_exact_at_the_digit_limit():
    # format_poly alone decides: it prints up to the limit and raises past it.
    nines = 10**4300 - 1
    with int_digit_limit(4300):
        assert format_poly(poly(-nines, Fraction(1, nines))) == f"1/{nines}*x - {nines}"
        for p in (poly(10**4300), poly(0, Fraction(1, 10**4300))):
            for show in (format_poly, str, repr):
                with pytest.raises(ResourceLimit, match="exceeds the int-to-str digit limit"):
                    show(p)
    with int_digit_limit(0):
        assert format_poly(poly(10**9000)) == "1" + "0" * 9000


def test_height_cap_follows_the_interpreter_limit():
    with int_digit_limit(0):  # no limit: no height cap either
        assert parse_poly("2^40000") == poly(2**40000)
    with int_digit_limit(8600):  # twice the digits: twice the cap
        assert parse_poly("2^40000") == poly(2**40000)
    with int_digit_limit(4300):
        with pytest.raises(ResourceLimit, match="bits exceed the cap"):
            parse_poly("2^40000")


def test_nesting_cap():
    # Past the cap the parser stops before it recurses further, so a nesting
    # that would exhaust the interpreter stack fails fast and cleanly.
    assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == poly(0, 1)
    for depth in (MAX_NESTING + 1, 200, 100_000):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="nested deeper than the cap"):
            parse_poly("(" * depth + "x" + ")" * depth)
        assert time.perf_counter() - start < 1
    # Runs of signs are read in a loop, not by recursion.
    assert parse_poly("-" * 5001 + "x^2") == poly(0, 0, -1)
    assert parse_poly("-(-(+x))") == poly(0, 1)


def test_roundtrip_fixtures(triples):
    for t in triples:
        for p in (t.p, t.q, t.r):
            assert parse_poly(format_poly(p)) == p


def test_roundtrip_random():
    rng = random.Random(17)
    for _ in range(50):
        coeffs = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(0, 7))
        ]
        p = UniPoly(coeffs)
        assert parse_poly(format_poly(p)) == p


WIDE = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(WIDE, max_size=8), st.sampled_from(["x", "t", "a_1"]))
def test_roundtrip_property(coeffs, var):
    p = UniPoly(coeffs)
    assert parse_poly(format_poly(p)) == p
    assert parse_poly(format_poly(p).replace("x", var)) == p
