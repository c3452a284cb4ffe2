"""The free Dyer-Lashof engine: Adem straightening, the grand relation, the
sigma solve, and the factorization identity."""

from powerops.dl import (
    DLAlgebra,
    RelationSpec,
    relation_en_threshold,
    solve_sigma,
    verify_factorization,
    verify_relation,
)

p = 3
A = DLAlgebra(p, {"x": 2 * (p - 1)})
x = A.gen("x")

print("== instability and straightening on the degree-2(p-1) generator ==")
print(f"Q^{p-2} x =", x.q(p - 2))
print(f"Q^{p-1} x =", x.q(p - 1))
print(f"Q^{p**3+p} Q^{p*p} x =", x.q(p * p).q(p**3 + p))
print(f"Q^{2*p*p} Q^{p} x  =", x.q(p).q(2 * p * p))
print(f"Q^{2*p*p-p} Q^{2*p} x =", x.q(2 * p).q(2 * p * p - p), " (same class)")

print()
print("== the grand relation vanishes identically ==")
for q in (3, 5):
    rep = verify_relation(q)
    print(f"p={q}: residual zero: {rep.residual.is_zero()},",
          f"five identities: {all(rep.identities.values())},",
          f"needs E_n for n >= {rep.en_threshold} = 2(p^2+2)")

rel = RelationSpec.for_prime(3)
print("drop one term and the residual reappears:",
      not rel.relation_value(b=rel.algebra.zero()).is_zero())

print()
print("== sigma coefficients and the factorization identity ==")
for q in (3, 5, 7):
    sol = solve_sigma(q)
    print(f"p={q}: sigma = {sol.sigmas} (kernel {sol.kernel_dimension},",
          f"substitution residual zero: {sol.residual.is_zero()})")
for q in (3, 5):
    print(f"p={q}: mu R = Qbar nu + beta alpha:", verify_factorization(q).passed)
