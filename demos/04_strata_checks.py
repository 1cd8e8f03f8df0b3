"""Stratum-local structure: the nilpotency square criterion, weighted
elementary-symmetric generators and exact tangent ranks."""
from abelpell import (
    PellTriple,
    format_monomials,
    nilpotence_identity_check,
    odd_nilpotency_check,
    tangent_rank,
    weighted_sigma,
)
from abelpell.parsing import parse_poly

print("is sum a^i t^(2n-i) a square in Q[a]/(a^k)?  (true exactly when k <= n+1)")
for n in range(1, 5):
    row = " ".join("T" if odd_nilpotency_check(n, k) else "." for k in range(1, 2 * n + 3))
    print(f"  n={n}: k=1..{2 * n + 2}: {row}")

print("\nweighted symmetric generators of prod (s - a_i)^(e_i - 1):")
for exponents in ([2], [2, 2], [3, 2], [4, 3]):
    sys = weighted_sigma(exponents)
    print(f"  e_i = {exponents}: e = {sys.total}")
    for j, sigma in enumerate(sys.generators, start=1):
        print(f"    sigma_{j} = {format_monomials(sigma, sys.variables)}")
    ok = all(nilpotence_identity_check(sys, i + 1) for i in range(len(exponents)))
    print(f"    substitution identity at every a_i: {ok}")

print("\ntangent rank of the defining equation at chart points:")
for p, q, r in (("x^2-1", "x", "x^2-2"), ("x^2", "1", "x^4-1"), ("x^2+1", "x", "x^2+2")):
    t = PellTriple.build(parse_poly(p), parse_poly(q), parse_poly(r))
    rep = tangent_rank(t)
    print(f"  {t}: variables {rep.variables}, rank {rep.rank}, corank {rep.corank} (genus {t.genus})")
