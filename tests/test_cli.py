import argparse
import ast
import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import re
import time
from pathlib import Path

import pytest
from conftest import kubert_r
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_dead_code import CONSTANT_CHECKS
from test_parsing import int_digit_limit
from test_pell import (ACCIDENTAL_TORSION, AFFINE_X6, KUBERT_FIRES, KUBERT_T, built_degrees,
                       count_convergents, eager_cf_steps, refuse_convergents, small_squarefree)

from abelpell import cli, pell
from abelpell.cli import main, triple_json
from abelpell.pell import pell_power, pell_solve
from abelpell.unipoly import UniPoly, poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    return code, json.loads(out), err


def test_solve_text(capsys):
    code, out, _ = run_cli(capsys, "pell", "solve", "x^2-2")
    assert code == 0
    assert "P = x^2 - 1" in out and "order 2" in out


def test_solve_structured(capsys):
    code, report, _ = run_json(capsys, "pell", "solve", "x^2-2")
    assert code == 0
    assert report["command"] == "pell solve"
    assert report["result"]["solution"]["p"]["coefficients"] == ["-1", "0", "1"]
    assert all(check["ok"] for check in report["checks"])


def test_solve_empty_exit(capsys):
    code, report, _ = run_json(capsys, "pell", "solve", "x^4+x+1", "--n-max", "10")
    assert code == 1
    assert report["result"]["solution"] is None


def test_bad_input_exit(capsys):
    code, out, err = run_cli(capsys, "pell", "solve", "x^-1")
    assert code == 2 and "exponent" in err
    code, out, err = run_cli(capsys, "pell", "solve", "x^2")  # not squarefree
    assert code == 2 and "squarefree" in err


# `pell verify 1 1 R` failures, recorded before `pell solve` read R's rules
# from pell_verify: the R rules in order, then the defect.
R_RULE_FAILURES = {
    "0": ["R has degree -1, expected even degree >= 2"],
    "x^3+1": ["R has degree 3, expected even degree >= 2",
              "defect of P^2 - R*Q^2 - 1 is -x^3 - 1, expected 0"],
    "2*x^2-1": ["R is not monic", "defect of P^2 - R*Q^2 - 1 is -2*x^2 + 1, expected 0"],
    "x^2": ["R is not squarefree", "defect of P^2 - R*Q^2 - 1 is -x^2, expected 0"],
    "2*x^3": ["R has degree 3, expected even degree >= 2", "R is not monic",
              "R is not squarefree", "defect of P^2 - R*Q^2 - 1 is -2*x^3, expected 0"],
}


@pytest.mark.parametrize("r", R_RULE_FAILURES)
def test_solve_refuses_r_with_the_verify_texts(capsys, r):
    code, report, _ = run_json(capsys, "pell", "verify", "1", "1", r)
    assert code == 0 and report["result"]["failures"] == R_RULE_FAILURES[r]
    rules = [f for f in R_RULE_FAILURES[r] if not f.startswith("defect")]
    code, out, err = run_cli(capsys, "pell", "solve", r)
    assert (code, out, err) == (2, "", "error: " + "; ".join(rules) + "\n")


def test_non_ascii_input_exit(capsys):
    code, out, err = run_cli(capsys, "pell", "solve", "x²-2")
    assert code == 2 and out == "" and "unexpected character '²' (column 2)" in err


@pytest.mark.parametrize("argv, code_at_limit", [
    (["pell", "verify", "10^4000", "1", "x^2-1"], 0),
    (["pell", "solve", "x^2-1/10^4400"], 3),
    (["pell", "compose", "10^2200*x", "10^2200", "10^2200*x", "10^2200", "x^2-1/10^4400"], 3),
])
def test_answer_too_large_to_print(capsys, argv, code_at_limit):
    # The inputs parse under the digit limit, but the defect (verify) or the
    # answer (solve, compose) has more digits than str() may print.
    with int_digit_limit(4300):
        code, out, err = run_cli(capsys, *argv, "--format", "structured")
    assert code == code_at_limit
    if code == 0:
        assert json.loads(out)["result"]["failures"] == [
            "defect of P^2 - R*Q^2 - 1 is nonzero and too large to print, expected 0"]
    else:
        assert out == "" and "exceeds the int-to-str digit limit" in err
    with int_digit_limit(0):
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and len(out) > 4400 and err == ""


def test_resource_exit(capsys):
    code, out, err = run_cli(capsys, "components", "count", "--genus", "5", "--order", "12")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("text", ["(9^100000)^400", "2^40000"])
def test_height_cap_exit(capsys, text):
    # Coefficients past what the output could print are refused while parsing,
    # before the power is computed: the first once ran for minutes.
    with int_digit_limit(4300):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "pell", "verify", text, "1", "x^2-1")
        assert time.perf_counter() - start < 1
    assert code == 3 and "bits exceed the cap of 28570 bits" in err and out == ""


@pytest.mark.parametrize("text, column", [("1" + "0" * 5000, 1), ("x^" + "1" * 5001, 3)],
                         ids=["coefficient", "exponent"])
def test_long_literal_exit(capsys, text, column):
    # A literal the interpreter could not convert is an answer too large: exit 3.
    with int_digit_limit(4300):
        code, out, err = run_cli(capsys, "pell", "verify", text, "1", "x^2-1")
    message = f"a number literal of 5001 digits exceeds the limit of 4300 digits (column {column})"
    assert code == 3 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["pell", "verify", "(x+1)^3000", "1", "x^2-1"],
    ["pell", "inflate", "x", "1", "x^2-1", "--m", "100000", "--case", "divides_g_plus_1"],
])
def test_degree_cap_exit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and "exceeds the cap of 500" in err and out == ""


@pytest.mark.parametrize("n, k, square", [("251", "3", "true"), ("100000", "3", "true"),
                                          ("100000", "100002", "false")])
def test_nilpotency_answers_past_the_degree_cap(capsys, n, k, square):
    # The square criterion is a theorem, k <= n + 1, so no degree is capped.
    code, out, err = run_cli(capsys, "strata", "nilpotency", "--n", n, "--k", k)
    assert (code, out, err) == (0, f"square in Q[a]/(a^{k}): {square}\n", "")


@pytest.mark.parametrize("command", ["count", "list"])
@pytest.mark.parametrize("order", ["3000", "1000000000"])
def test_components_size_cap_before_any_work(capsys, monkeypatch, command, order):
    # I(3000) has more digits than int-to-str conversion allows, which once
    # made this bad input (exit 2).  The guard must also run before any
    # O(n) work such as building the standard n-cycle.
    from abelpell import components

    def fail(n):
        raise AssertionError("standard_cycle built before the size guard")

    monkeypatch.setattr(components, "standard_cycle", fail)
    code, out, err = run_cli(capsys, "components", command, "--genus", "0", "--order", order)
    assert code == 3 and "exceeds the cap of 5000000" in err and out == ""


def test_abel_resource_exit(capsys, monkeypatch):
    # x^5 + x leaves the branch factor 3125 t^4 + 256, irreducible over Q
    # with three modular factors, and with no recombination allowed the
    # command exits 3.  (A quadratic factor is split by its discriminant and
    # never reaches recombination.)
    from abelpell import factorization

    monkeypatch.setattr(factorization, "RECOMBINATION_LIMIT", 0)
    code, out, err = run_cli(capsys, "abel", "ramspec", "x^5+x", "1", "(x^5+x)^2-1")
    assert code == 3 and "cap" in err and out == ""


def test_verify(capsys):
    code, report, _ = run_json(capsys, "pell", "verify", "x^2", "1", "x^4-1")
    assert code == 0
    assert report["result"]["valid"] is True
    assert report["result"]["chart"] == "normalized"
    code, report, _ = run_json(capsys, "pell", "verify", "x", "1", "x^2-2")
    assert code == 0 and report["result"]["valid"] is False


def test_compose(capsys):
    code, report, _ = run_json(
        capsys, "pell", "compose", "x^2-1", "x", "x^2-1", "x", "x^2-2"
    )
    assert code == 0
    assert report["result"]["composite"]["order"] == 4
    assert report["result"]["composite"]["p"]["text"] == "2*x^4 - 4*x^2 + 1"
    assert all(c["ok"] for c in report["checks"])


def test_compose_checks_hold_in_both_orientations(capsys):
    # Orders 1 and 3 over x^2 - 1 with orientation lc(Q)/lc(P) = +-1: the orders
    # add when the orientations agree and subtract when they differ, equal
    # orders of opposite orientation cancel (exit 2), and every check is ok.
    triples = [("x", "1", 1, 1), ("x", "-1", 1, -1), ("4*x^3-3*x", "4*x^2-1", 3, 1),
               ("4*x^3-3*x", "1-4*x^2", 3, -1)]
    for (p1, q1, n1, e1), (p2, q2, n2, e2) in itertools.product(triples, repeat=2):
        if e1 != e2 and n1 == n2:
            assert run_cli(capsys, "pell", "compose", p1, q1, p2, q2, "x^2-1")[0] == 2
            continue
        code, report, _ = run_json(capsys, "pell", "compose", p1, q1, p2, q2, "x^2-1")
        assert code == 0
        assert report["result"]["composite"]["order"] == (
            n1 + n2 if e1 == e2 else abs(n1 - n2)), (p1, q1, p2, q2)
        assert report["checks"] == [{"name": "order_follows_orientation", "ok": True}]


def test_compose_opposite_orientations(capsys):
    # T_3 with Q = U_2 times (x, -1), the inverse of (x, 1): the orders subtract.
    code, report, err = run_json(capsys, "pell", "compose", "4*x^3-3*x", "4*x^2-1", "x", "-1",
                                 "x^2-1")
    assert (code, err) == (0, "")
    composite = report["result"]["composite"]
    assert (composite["p"]["text"], composite["q"]["text"]) == ("2*x^2 - 1", "2*x")
    assert composite["order"] == 2
    # The group law: opposite orientations lc(Q)/lc(P) give |3 - 1|, and the check says so.
    assert report["checks"] == [{"name": "order_follows_orientation", "ok": True}]
    # Equal orders of opposite orientation give the trivial unit: bad input.
    code, out, err = run_cli(capsys, "pell", "compose", "x", "1", "x", "-1", "x^2-1")
    assert (code, out) == (2, "") and err.startswith("error: not a Pell triple")


def test_inflate(capsys):
    code, report, _ = run_json(
        capsys,
        "pell", "inflate", "x+1", "1", "x^2+2*x", "--m", "3", "--case", "odd",
    )
    assert code == 0
    inflated = report["result"]["inflated"]
    assert inflated["r"]["text"] == "x^4 + 2*x"
    assert (inflated["order"], inflated["genus"]) == (3, 1)


@pytest.mark.parametrize("triple, m, case", [
    (["x", "1", "x^2-1"], "2", "divides_g_plus_1"),
    (["x+1", "1", "x^2+2*x"], "2", "even_half"),
    (["x+1", "1", "x^2+2*x"], "3", "odd"),
])
def test_inflate_derives_the_case(capsys, triple, m, case):
    # Without --case, inflate takes the case R(0) and m fix and reports it;
    # only the echoed inputs differ from a run given that case.
    argv = ["pell", "inflate", *triple, "--m", m]
    text = run_cli(capsys, *argv)
    assert text[0] == 0 and text == run_cli(capsys, *argv, "--case", case)
    code, derived, err = run_json(capsys, *argv)
    code_given, given, err_given = run_json(capsys, *argv, "--case", case)
    assert (code, err) == (code_given, err_given) == (0, "")
    assert given["inputs"].pop("case") == derived["result"]["case"] == case
    assert derived == given
    # A case given is still checked: a wrong one is bad input, named.
    code, out, err = run_cli(capsys, *argv, "--case", "even_half" if case == "odd" else "odd")
    assert (code, out) == (2, "") and f"takes case {case!r}" in err


def test_abel_ramspec(capsys):
    code, report, _ = run_json(capsys, "abel", "ramspec", "x^2", "1", "x^4-1")
    assert code == 0
    assert report["result"]["members"] == [[2], [1, 1], [1, 1]]
    assert report["result"]["deformation_dimension"] == 1
    assert all(check["ok"] for check in report["checks"])


def test_abel_hurwitz(capsys):
    code, report, _ = run_json(capsys, "abel", "hurwitz", "2*x^4+1", "2*x^2", "x^4+1")
    assert code == 0
    result = report["result"]
    assert (result["e"], result["e_prime"], result["w"]) == (0, 1, 4)
    assert result["generic_stratum"] is False


CONJUGATE_X3_X = ["x^3+x", "1", "x^6+2*x^4+x^2-1"]


INFLATE_X_PLUS_1 = ["pell", "inflate", "x+1", "1", "x^2+2*x", "--m", "3", "--case", "odd"]

#: For each check that can fail, (module, name, fake, argv, check): the
#: library answer to replace, by fake(real), and the command that then
#: reports exactly that check as false.  A module of None patches nothing.
FALSE_CHECKS = [
    pytest.param("pell", "minimal_solution",
                 lambda real: lambda r, unit, n_max: dataclasses.replace(
                     t := real(r, unit, n_max), q=t.q + 1),
                 ["pell", "solve", "x^2-2"], "solution_verifies", id="solve_verifies"),
    pytest.param("pell", "minimal_solution",
                 lambda real: lambda r, unit, n_max: pell_power(real(r, unit, n_max), 2),
                 ["pell", "solve", "x^2-1"], "minimal_among_convergents", id="solve_minimal"),
    pytest.param(None, None, None, ["pell", "verify", "x", "1", "x^2-2"], "triple_valid",
                 id="verify"),
    pytest.param("pell", "pell_compose", lambda real: lambda t1, t2: t1,
                 ["pell", "compose", "x", "1", "x", "1", "x^2-1"], "order_follows_orientation",
                 id="compose"),
    pytest.param("pell", "inflate",
                 lambda real: lambda base, m, case: dataclasses.replace(
                     t := real(base, m, case), q=t.q + 1),
                 INFLATE_X_PLUS_1, "inflated_verifies", id="inflate_verifies"),
    pytest.param("pell", "inflate", lambda real: lambda base, m, case: base,
                 INFLATE_X_PLUS_1, "order_multiplied", id="inflate_order"),
    pytest.param("geometry", "genus_of_ramspec", lambda real: lambda spec: real(spec) + 1,
                 ["abel", "ramspec", *CONJUGATE_X3_X], "genus_matches_triple", id="genus"),
    pytest.param("geometry", "hurwitz_report",
                 lambda real: lambda t: dataclasses.replace(rep := real(t), w=rep.w + 2),
                 ["abel", "hurwitz", *CONJUGATE_X3_X], "odd_count_is_2g_plus_2",
                 id="odd_count"),
    pytest.param("ramspec", "genus_of_ramspec", lambda real: lambda spec: real(spec) + 1,
                 ["components", "list", "--genus", "1", "--order", "2"], "ramspec_genus_matches",
                 id="list_genus"),
]


@pytest.mark.parametrize("module, name, fake, argv, failed", FALSE_CHECKS)
def test_each_check_can_report_false(capsys, monkeypatch, module, name, fake, argv, failed):
    # One library answer off by what its check would catch, or an invalid
    # triple for `pell verify`: the command still exits 0 and reports exactly
    # that check as false.  The compose case returns its first operand, of
    # order 1, where the orders add to 2; the solve case squares the unit x
    # of norm 1, so a convergent below it already has a square norm.
    if module is not None:
        lib = importlib.import_module(f"abelpell.{module}")
        monkeypatch.setattr(lib, name, fake(getattr(lib, name)))
    code, report, err = run_json(capsys, *argv)
    assert (code, err) == (0, "")
    assert [c["name"] for c in report["checks"] if not c["ok"]] == [failed]


def test_every_check_that_can_fail_has_a_false_case():
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {call.args[0].value for call in ast.walk(tree)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check"}
    assert sorted(case.values[-1] for case in FALSE_CHECKS) == sorted(
        names - set(CONSTANT_CHECKS))


def readme_check_table() -> dict[str, list[str]]:
    """README's check table: each command's named checks, none for a
    "none" row."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| command | checks |"):].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {command.strip().strip("`"): re.findall(r"`(\w+)`", checks)
            for command, checks in rows}


def test_readme_check_table_matches_the_handlers():
    # Each row names, in order, the check(...) calls of its command's handler.
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")}
    table = {"_cmd_" + re.sub("[ -]", "_", command): named
             for command, named in readme_check_table().items()}
    assert sorted(table) == sorted(handlers)
    for name, named in table.items():
        calls = sorted((call for call in ast.walk(handlers[name]) if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "check"),
                       key=lambda call: (call.lineno, call.col_offset))
        assert [call.args[0].value for call in calls] == named, name


def test_a_failed_guard_exits_4(capsys, monkeypatch):
    from abelpell import geometry

    def guard(t):
        raise AssertionError("e = 2 != g = 1")

    monkeypatch.setattr(geometry, "hurwitz_report", guard)
    code, out, err = run_cli(capsys, "abel", "hurwitz", *CONJUGATE_X3_X)
    assert (code, out, err) == (4, "", "error: internal invariant failed: e = 2 != g = 1\n")


def test_strata_nilpotency(capsys):
    code, report, _ = run_json(capsys, "strata", "nilpotency", "--n", "1", "--k", "3")
    assert code == 0
    assert report["result"]["is_square"] is False
    code, report, _ = run_json(capsys, "strata", "nilpotency", "--n", "1", "--k", "2")
    assert report["result"]["is_square"] is True


def test_strata_tangent_rank(capsys):
    code, report, _ = run_json(capsys, "strata", "tangent-rank", "x^2", "1", "x^4-1")
    assert code == 0
    assert report["result"] == {"chart": "normalized", "variables": 5, "rank": 4, "corank": 1}
    # tangent_rank reads the corank off the genus and chart, so no check
    # could compare it with anything else.
    assert report["checks"] == []


@pytest.mark.parametrize("args, rank, corank", [
    (("x^250", "1", "x^500-1"), 500, 249),
    (("x^200+x^100+3", "1", "x^400+2*x^300+7*x^200+6*x^100+8"), 400, 199),
])
def test_strata_tangent_rank_at_the_degree_cap(capsys, args, rank, corank):
    code, report, _ = run_json(capsys, "strata", "tangent-rank", *args)
    assert code == 0
    assert (report["result"]["rank"], report["result"]["corank"]) == (rank, corank)


def test_components_count(capsys):
    code, report, _ = run_json(capsys, "components", "count", "--genus", "0", "--order", "2")
    assert code == 0
    assert report["result"]["component_count"] == 1
    code, report, _ = run_json(
        capsys, "components", "count", "--genus", "0", "--order", "2", "--split"
    )
    assert report["result"]["component_count"] == 2


def test_components_empty(capsys):
    code, report, _ = run_json(capsys, "components", "count", "--genus", "3", "--order", "2")
    assert code == 1 and report["result"]["m_count"] == 0


@pytest.mark.parametrize("order", ["3", "999999"])
def test_components_huge_genus_is_empty_at_once(capsys, monkeypatch, order):
    # No order below g + 1 is feasible, so M is empty before any of the
    # g - 1 swap moves is listed or the standard n-cycle is built.
    from abelpell import components

    def fail(n):
        raise AssertionError("standard_cycle built for an empty M")

    monkeypatch.setattr(components, "standard_cycle", fail)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "components", "count", "--genus", "1000000", "--order", order)
    assert time.perf_counter() - start < 1
    assert code == 1 and err == ""
    assert out == "|M| = 0, components = 0 (nonsplit)\norbit sizes: []\n"


def test_components_list(capsys):
    code, report, _ = run_json(capsys, "components", "list", "--genus", "1", "--order", "2")
    assert code == 0
    assert report["result"]["classes"] == [[[0, 1], [1, 0], [0, 1]]]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("components_count_g2_n6", "components count --genus 2 --order 6"),
    ("components_count_g2_n7_split", "components count --genus 2 --order 7 --split"),
    ("components_list_g2_n5", "components list --genus 2 --order 5"),
])
def test_components_golden_output(capsys, name, argv):
    # Recorded from the brute-force enumeration with union-find orbit closure.
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name, argv, exit_code", [
    ("pell_solve_hit_affine_x6", ["pell", "solve", "x^6 + 9*x^5 + 135/4*x^4 + 135/2*x^3"
                                  " + 1215/16*x^2 + 729/16*x - 729/64", "--n-max", "12"], 0),
    ("pell_solve_miss_x4_x_1", ["pell", "solve", "x^4+x+1", "--n-max", "10"], 1),
    ("pell_solve_nonsquare_norm_x2_2", ["pell", "solve", "x^2+2"], 0),
])
def test_pell_solve_golden_output(capsys, name, argv, exit_code):
    # The hits hold the output of the first version of the command.  The
    # miss lists the degrees its search read: only step 0's, since the
    # expansion modulo the prime of least_unit finds no unit of degree <= 10.
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_pell_solve_expands_once(capsys, monkeypatch):
    calls = []
    steps = pell._cf_steps
    monkeypatch.setattr(pell, "_cf_steps", lambda r: calls.append(r) or steps(r))
    assert run_cli(capsys, "pell", "solve", "x^2+2")[0] == 0
    assert len(calls) == 1


def test_pell_solve_stops_where_the_search_stops(capsys, monkeypatch):
    # x^4 + x + 1 has no unit: the expansion modulo the prime of least_unit
    # proves that there is none of degree <= 10 after step 0, so the exact
    # expansion builds step 0 alone, and the check lists its degree.
    built = built_degrees(monkeypatch)
    code, report, _ = run_cli(capsys, "pell", "solve", "x^4+x+1", "--n-max", "10",
                              "--format", "structured")
    assert code == 1
    assert built == [2]
    assert json.loads(report)["checks"][0]["orders"] == [2]


def solve_report(r: UniPoly, n_max: int) -> tuple[int, dict]:
    """The exit code and structured report of ``pell solve``, without capsys,
    so that a hypothesis test can call it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["pell", "solve", str(r), "--n-max", str(n_max), "--format", "structured"])
    return code, json.loads(out.getvalue())


@settings(max_examples=100, deadline=None)
@given(small_squarefree(5), st.integers(1, 12))
@example(poly(1, 1, 0, 0, 1), 10)
@example(ACCIDENTAL_TORSION[5], 12)
@example(ACCIDENTAL_TORSION[7], 12)
@example(ACCIDENTAL_TORSION[9], 12)
@example(ACCIDENTAL_TORSION[12], 12)
def test_pell_solve_lists_what_the_search_read(r, n_max):
    # The answer is the library's.  The orders are the step degrees up to
    # n_max (from the eager expansion) that the search read: on a hit, up to
    # the unit; on a miss, step 0's alone (g + 1) when R has no unit of
    # degree <= n_max modulo the prime of least_unit, else the degrees up to
    # the unit's degree d there and the first one past it.
    g = r.degree // 2 - 1
    n_max = max(n_max, g + 1)
    code, report = solve_report(r, n_max)
    triple = pell_solve(r, n_max)
    assert (code, report["result"]["solution"]) == (
        (1, None) if triple is None else (0, triple_json(triple)))
    degrees, hit = [], False
    for _, _, p, _, norm in eager_cf_steps(r):
        if p.degree > n_max:
            break
        degrees.append(p.degree)
        if hit := norm.degree <= 0:
            break
    orders = report["checks"][0]["orders"]
    if hit:
        assert orders == degrees
    else:
        d = pell._unit_degree_mod_p(r, pell.laurent_sqrt_polypart(r), n_max)
        assert orders == ([g + 1] if d is None else
                          [e for e in degrees if e <= d] + [e for e in degrees if e > d][:1])


@pytest.mark.parametrize("t", KUBERT_T, ids=str)
@pytest.mark.parametrize("n", KUBERT_FIRES)
def test_pell_solve_on_long_periods(capsys, n, t):
    # The unit has degree n; the solution has order n for odd n and 2n for
    # even n.  The check lists every step degree up to the unit; at n_max =
    # n - 1 it lists step 0's alone, since the unit modulo the prime of
    # least_unit has degree n too.
    r = kubert_r(n, t)
    degrees = [p.degree for _, _, p, _, _ in itertools.islice(eager_cf_steps(r), n - 1)]
    for n_max in (n - 1, n, 2 * n, 30):
        code, report, _ = run_json(capsys, "pell", "solve", str(r), "--n-max", str(n_max))
        assert code == (0 if n_max >= (n if n % 2 else 2 * n) else 1)
        assert report["checks"][0]["orders"] == (degrees if n_max >= n else [2])


def test_pell_solve_stops_at_the_solution(capsys, monkeypatch):
    # The unit of this affine image of x^6 - 2 has degree 3 and the
    # convergent degrees are 3, 6, 9, ...  Its norm 729/32 is not a square,
    # so the solution has order 6; the minimality check reads the convergents
    # below 6, and the expansion stops at the first of degree >= 6, however
    # large n_max is.
    built = built_degrees(monkeypatch)
    argv = ["pell", "solve", "x^6 + 9*x^5 + 135/4*x^4 + 135/2*x^3 + 1215/16*x^2 + 729/16*x"
            " - 729/64", "--n-max", "40", "--format", "structured"]
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert built == [3, 6]
    assert json.loads(report)["checks"][0]["orders"] == [3]


def test_pell_solve_miss_builds_no_convergent(capsys, monkeypatch):
    refuse_convergents(monkeypatch)
    assert run_cli(capsys, "pell", "solve", "x^4+x+1", "--n-max", "10")[0] == 1


@pytest.mark.parametrize("r", ["x^2+2", str(AFFINE_X6)])
def test_pell_solve_hit_builds_one_convergent(capsys, monkeypatch, r):
    # Neither unit's norm is a square, so the minimality check reads the
    # steps up to the solution's order; it reads their norms only.
    built = count_convergents(monkeypatch)
    assert run_cli(capsys, "pell", "solve", r, "--n-max", "40")[0] == 0
    assert built == [0]


def test_pell_solve_huge_n_max(capsys):
    # Expanding to n_max before looking for the unit never finished here.
    reports = []
    for n_max in (8, 100000):
        code, report, _ = run_json(capsys, "pell", "solve", "x^2-2", "--n-max", str(n_max))
        assert code == 0 and report["inputs"].pop("n_max") == report["result"].pop("n_max")
        reports.append(report)
    assert reports[0] == reports[1]


def test_pell_solve_miss_past_the_degree_cap_exits_3(capsys):
    # The search for a unit stops at the degree cap, so a miss with n_max
    # above it cannot be proved and exits 3 at once, however large n_max is.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pell", "solve", "x^4+x+1", "--n-max", str(10**7))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "exceeds the cap of 500" in err
    assert "Traceback" not in err


def test_out_unwritable_exit(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "pell", "solve", "x^2-2", "--n-max", "5", "--out",
                             str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: cannot write the output") and "Traceback" not in err


def test_nesting_cap_exit(capsys):
    code, out, err = run_cli(capsys, "pell", "solve", "(" * 200 + "x^2-2" + ")" * 200)
    assert code == 3 and out == "" and "nested deeper than the cap" in err


@pytest.mark.parametrize("command, argv, parenthesised", [
    ("hurwitz", ["-2*x^2+1", "2*x", "x^2-1"], ["(-2*x^2+1)", "2*x", "x^2-1"]),
    ("ramspec", ["-x", "1", "x^2-1"], ["(-x)", "1", "x^2-1"]),
])
def test_abel_leading_minus_after_double_dash(capsys, command, argv, parenthesised):
    # argparse reads "-x" as an option; "--" ends the options.
    code, dashed, _ = run_cli(capsys, "abel", command, "--format", "structured", "--", *argv)
    assert code == 0
    code, wrapped, _ = run_json(capsys, "abel", command, *parenthesised)
    assert code == 0
    dashed = json.loads(dashed)
    assert (dashed["result"], dashed["checks"]) == (wrapped["result"], wrapped["checks"])


ABEL_GOLDEN_TRIPLES = [
    ("conjugate_x3_x", ["x^3+x", "1", "x^6+2*x^4+x^2-1"]),
    ("chebyshev_order6", ["4*x^6+12*x^5+36*x^4+52*x^3+69*x^2+45*x+26",
                          "4*x^4+8*x^3+20*x^2+16*x+15", "x^4+2*x^3+5*x^2+4*x+3"]),
    ("inflated_divides_m3", ["x^3+2", "1", "x^6+4*x^3+3"]),
]


@pytest.mark.parametrize("name, argv", ABEL_GOLDEN_TRIPLES)
@pytest.mark.parametrize("command", ["ramspec", "hurwitz"])
def test_abel_golden_output(capsys, command, name, argv):
    # Recorded from Sylvester-determinant resultants, with `abel ramspec`
    # computing the branch classes twice.  The triples: conjugate branch
    # values (t^2 + 4/27), T_3(L) for L = x^2 + x + 2, and (x + 2, 1,
    # x^2 + 4x + 3) inflated by s -> s^3 in the divides_g_plus_1 case.
    code, out, _ = run_cli(capsys, "abel", command, *argv, "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / f"abel_{command}_{name}.json").read_text()


def test_abel_ramspec_finds_branch_classes_once(capsys, monkeypatch):
    from abelpell import geometry

    calls = []
    branch = geometry.branch_polynomial
    monkeypatch.setattr(geometry, "branch_polynomial", lambda t: calls.append(t) or branch(t))
    assert run_cli(capsys, "abel", "ramspec", "x^3+x", "1", "x^6+2*x^4+x^2-1")[0] == 0
    assert len(calls) == 1
    # An inflation P = L(x^2) of order 6 computes only its base's, of order 3.
    calls.clear()
    assert run_cli(capsys, "abel", "ramspec", "x^6-3*x^2", "1", "x^12-6*x^8+9*x^4-1")[0] == 0
    assert [t.order for t in calls] == [3]


def test_structured_output_deterministic(capsys):
    runs = [
        run_cli(capsys, "components", "count", "--genus", "1", "--order", "4",
                "--format", "structured")[1]
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    runs = [
        run_cli(capsys, "pell", "solve", "x^2+2", "--format", "structured")[1]
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "pell", "solve", "x^2-2", "--format", "structured", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["solution"]["order"] == 2


# The argument surface of every command, recorded from the parser: its
# positionals in order, then each option as (strings, dest, type, default,
# required, choices), then the handler.  Every command also takes COMMON.
COMMON = (
    (("--format",), "format", None, "text", False, ("text", "structured")),
    (("--out",), "out", None, None, False, None),
)
PQR = ("p", "q", "r")
SIZE = ((("--genus",), "genus", int, None, True, None),
        (("--order",), "order", int, None, True, None))
CLI_SURFACE = {
    ("pell", "solve"): (("r",), ((("--n-max",), "n_max", int, 20, False, None),),
                        "_cmd_pell_solve"),
    ("pell", "verify"): (PQR, (), "_cmd_pell_verify"),
    ("pell", "compose"): (("p1", "q1", "p2", "q2", "r"), (), "_cmd_pell_compose"),
    ("pell", "inflate"): (PQR, ((("--m",), "m", int, None, True, None),
                                (("--case",), "case", None, None, False, None)),
                          "_cmd_pell_inflate"),
    ("abel", "ramspec"): (PQR, (), "_cmd_abel_ramspec"),
    ("abel", "hurwitz"): (PQR, (), "_cmd_abel_hurwitz"),
    ("strata", "nilpotency"): ((), ((("--n",), "n", int, None, True, None),
                                    (("--k",), "k", int, None, True, None)),
                               "_cmd_strata_nilpotency"),
    ("strata", "tangent-rank"): (PQR, (), "_cmd_strata_tangent_rank"),
    ("components", "count"): ((), SIZE + ((("--split",), "split", None, False, False, None),),
                              "_cmd_components_count"),
    ("components", "list"): ((), SIZE, "_cmd_components_list"),
}


def test_cli_argument_surface():
    def commands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    surface = {}
    for group, group_parser in commands(cli._build_parser()).items():
        for name, sp in commands(group_parser).items():
            positionals = tuple(a.dest for a in sp._actions if not a.option_strings)
            options = tuple(
                (tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices)
                for a in sp._actions
                if a.option_strings and a.dest != "help"
            )
            surface[group, name] = (positionals, options, sp.get_default("func").__name__)
    assert surface == {
        key: (positionals, COMMON + options, handler)
        for key, (positionals, options, handler) in CLI_SURFACE.items()
    }


# One text run per command.  A handler builds its text lines apart from its
# structured result, so the JSON goldens do not pin them: abel ramspec must
# print its partitions as lists, not as the record's tuples.
CONJUGATE = ["x^3+x", "1", "x^6+2*x^4+x^2-1"]
TEXT_GOLDEN = {
    ("pell", "solve"): ["x^4+2*x^3+5*x^2+4*x+3"],
    ("pell", "verify"): ["1", "1", "2*x^3"],
    ("pell", "compose"): CONJUGATE[:2] + CONJUGATE,
    ("pell", "inflate"): ["x+2", "1", "x^2+4*x+3", "--m", "3"],
    ("abel", "ramspec"): CONJUGATE,
    ("abel", "hurwitz"): CONJUGATE,
    ("strata", "nilpotency"): ["--n", "251", "--k", "3"],
    ("strata", "tangent-rank"): CONJUGATE,
    ("components", "count"): ["--genus", "2", "--order", "6"],
    ("components", "list"): ["--genus", "1", "--order", "3"],
}


@pytest.mark.parametrize("command", TEXT_GOLDEN, ids=" ".join)
def test_text_golden_output(capsys, command):
    assert TEXT_GOLDEN.keys() == CLI_SURFACE.keys()
    code, out, err = run_cli(capsys, *command, *TEXT_GOLDEN[command])
    name = "_".join(command).replace("-", "_")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"text_{name}.txt").read_text()
