"""The command line under random small argv: every subcommand either answers
or exits with a documented code, and never shows a traceback.

Sizes are kept small (short polynomial strings, degrees <= 6, small n_max,
genus and order), so that no example runs a large computation.
"""
import contextlib
import io
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelpell.cli import main
from abelpell.pell import INFLATE_DIVIDES, INFLATE_EVEN_HALF, INFLATE_ODD

#: Valid triples (P, Q, R), so that examples get past verification.  Over
#: x^2 - 1 they have orders 1 and 3 in both orientations lc(Q)/lc(P) = +-1, so
#: ``pell compose`` meets orders that add, subtract and cancel.
TRIPLES = [
    ("x", "1", "x^2-1"),
    ("x", "-1", "x^2-1"),
    ("4*x^3-3*x", "4*x^2-1", "x^2-1"),
    ("4*x^3-3*x", "1-4*x^2", "x^2-1"),
    ("x^2-1", "x", "x^2-2"),
    ("x^2+1", "x", "x^2+2"),
    ("x^2", "1", "x^4-1"),
    ("2*x^4+1", "2*x^2", "x^4+1"),
    ("x^3+x", "1", "x^6+2*x^4+x^2-1"),
    ("x+1", "1", "x^2+2*x"),
]
#: Pellian and non-Pellian R for ``pell solve``, and inputs past the caps.
EXTRA = ["x^2-2", "x^4+x+1", "x^6-2", "x^4+2*x^3+5*x^2+4*x+3", "x^999", "(x+1)^600",
         "(" * 120 + "x" + ")" * 120, "1/0", ""]
TERM = st.builds("{}*x^{}".format, st.integers(-9, 9), st.integers(0, 6))
POLY = st.one_of(
    st.text(alphabet="x12+-*^()/ ", max_size=7),
    st.lists(TERM, min_size=1, max_size=4).map("+".join),
    st.sampled_from([text for triple in TRIPLES for text in triple] + EXTRA),
)
TRIPLE = st.one_of(st.sampled_from(TRIPLES), st.tuples(POLY, POLY, POLY))
UNWRITABLE = os.path.join(os.devnull, "report")
OUTPUT = st.sampled_from([[], ["--format", "structured"], ["--format", "text"],
                          ["--out", UNWRITABLE]])
COMMANDS = [("pell", "solve"), ("pell", "verify"), ("pell", "compose"), ("pell", "inflate"),
            ("abel", "ramspec"), ("abel", "hurwitz"), ("strata", "nilpotency"),
            ("strata", "tangent-rank"), ("components", "count"), ("components", "list")]


@st.composite
def argvs(draw) -> list[str]:
    def small(low: int, high: int) -> str:
        return str(draw(st.integers(low, high)))

    group, command = draw(st.sampled_from(COMMANDS))
    argv = [group, command]
    if command == "solve":
        argv += [draw(POLY), "--n-max", small(-2, 12)]
    elif command == "compose":
        (p1, q1, r), (p2, q2, _) = draw(TRIPLE), draw(TRIPLE)
        argv += [p1, q1, p2, q2, r]
    elif command == "nilpotency":
        argv += ["--n", small(-1, 6), "--k", small(-1, 8)]
    elif group == "components":
        argv += ["--genus", small(-1, 2), "--order", small(-1, 6)]
        if command == "count" and draw(st.booleans()):
            argv.append("--split")
    else:
        argv += list(draw(TRIPLE))
        if command == "inflate":
            case = st.sampled_from([INFLATE_DIVIDES, INFLATE_EVEN_HALF, INFLATE_ODD]) | st.text(max_size=8)
            argv += ["--m", small(-1, 4), "--case", draw(case)]
    return argv + draw(OUTPUT)


@settings(max_examples=300, deadline=None)
@given(argvs())
# Opposite orientations, orders 3 and 1: the composite has order 2.
@example(["pell", "compose", "4*x^3-3*x", "4*x^2-1", "x", "-1", "x^2-1"])
def test_cli_exit_codes_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv, e.g. a leading '-'
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2 and err.getvalue().startswith("error:"):
        assert out.getvalue() == ""
