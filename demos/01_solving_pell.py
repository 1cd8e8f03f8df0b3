"""Solve P^2 - R*Q^2 = 1 by the continued fraction of sqrt(R), step by step."""
from itertools import islice

from abelpell import cf_steps, pell_compose, pell_power, pell_solve
from abelpell.parsing import parse_poly

for text in ("x^2-2", "x^2+2", "x^4+x+1"):
    r = parse_poly(text)
    print(f"R = {r}")
    for step in islice(cf_steps(r), 4):
        tag = "  <- constant norm" if step.constant_norm else ""
        print(
            f"  step {step.index}: a = {step.partial_quotient},"
            f" convergent ({step.p}, {step.q}), norm {step.norm}{tag}"
        )
    solution = pell_solve(r, 10)
    if solution is None:
        print("  no solution of order <= 10 over the rationals\n")
        continue
    print(f"  minimal solution: P = {solution.p}, Q = {solution.q} (order {solution.order})")
    square = pell_compose(solution, solution)
    print(f"  its square has order {square.order}: P = {square.p}")
    print(f"  fifth power order: {pell_power(solution, 5).order}\n")
