import json
import time
from pathlib import Path

import pytest
from test_parsing import int_digit_limit
from test_pell import AFFINE_X6, count_convergents, refuse_convergents

from abelpell import strata
from abelpell.cli import main


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
    ["strata", "nilpotency", "--n", "251", "--k", "3"],
])
def test_degree_cap_exit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and "exceeds the cap of 500" in err and out == ""


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
    # x^3 - 3x has the branch values +-2: t^2 - 4 has two modular factors,
    # and with no recombination allowed the command exits 3.
    from abelpell import factorization

    monkeypatch.setattr(factorization, "RECOMBINATION_LIMIT", 0)
    code, out, err = run_cli(capsys, "abel", "ramspec", "x^3-3*x", "1", "(x^3-3*x)^2-1")
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


def test_inflate(capsys):
    code, report, _ = run_json(
        capsys,
        "pell", "inflate", "x+1", "1", "x^2+2*x", "--m", "3", "--case", "odd",
    )
    assert code == 0
    inflated = report["result"]["inflated"]
    assert inflated["r"]["text"] == "x^4 + 2*x"
    assert (inflated["order"], inflated["genus"]) == (3, 1)


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


@pytest.mark.parametrize("args, rank, corank", [
    (("x^250", "1", "x^500-1"), 500, 249),
    (("x^200+x^100+3", "1", "x^400+2*x^300+7*x^200+6*x^100+8"), 400, 199),
])
def test_strata_tangent_rank_at_the_degree_cap(capsys, monkeypatch, args, rank, corank):
    # Order 500 and 400: Bareiss over Z on these matrices takes seconds to
    # tens of seconds, so the answer must come from the certificate mod p.
    integer_rank = strata._integer_rank

    def no_bareiss(rows, modulus=0):
        if not modulus:
            raise AssertionError("Bareiss fallback ran")
        return integer_rank(rows, modulus)

    monkeypatch.setattr(strata, "_integer_rank", no_bareiss)
    code, report, _ = run_json(capsys, "strata", "tangent-rank", *args)
    assert code == 0
    assert (report["result"]["rank"], report["result"]["corank"]) == (rank, corank)
    assert all(check["ok"] for check in report["checks"])


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
    # Recorded when the command expanded the continued fraction twice.
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_pell_solve_expands_once(capsys, monkeypatch):
    from abelpell import pell

    calls = []
    steps = pell._cf_steps
    monkeypatch.setattr(pell, "_cf_steps", lambda r: calls.append(r) or steps(r))
    assert run_cli(capsys, "pell", "solve", "x^2+2")[0] == 0
    assert len(calls) == 1


def built_degrees(monkeypatch) -> list[int]:
    """The convergent degrees of the continued-fraction steps built from now on."""
    from abelpell import pell

    built = []
    cf_step = pell.CFStep

    def build(*args):
        step = cf_step(*args)
        built.append(step.degree)
        return step

    monkeypatch.setattr(pell, "CFStep", build)
    return built


def test_pell_solve_stops_above_n_max(capsys, monkeypatch):
    # x^4 + x + 1 has no unit: the convergent degrees are 2, 3, 4, ..., and
    # the expansion stops after building the first one above n_max = 10.
    built = built_degrees(monkeypatch)
    code, report, _ = run_cli(capsys, "pell", "solve", "x^4+x+1", "--n-max", "10",
                              "--format", "structured")
    assert code == 1
    assert built == list(range(2, 12))
    assert json.loads(report)["checks"][0]["orders"] == list(range(2, 11))


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
