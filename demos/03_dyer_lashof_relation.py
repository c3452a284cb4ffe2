"""The free Dyer-Lashof engine: Adem straightening, the grand relation, the
sigma solve, and the factorization identity.  `verify_relation` adds its own
report rows; a failed one shows its residual's term count and first
monomials, each whole."""

from powerops.arith import residual_text
from powerops.dl import (
    DLAlgebra,
    RelationSpec,
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
    rows = {c.name: c for c in verify_relation(q).checks}
    identities = [c for name, c in rows.items() if name.startswith("identity_")]
    print(f"p={q}: grand relation {rows['grand_relation'].status} (residual {rows['grand_relation'].actual}),",
          f"{sum(c.status == 'pass' for c in identities)} of {len(identities)} identities hold,",
          f"needs E_n for n >= {rows['en_threshold'].actual} = 2(p^2+2)")
print("the report rows verify_relation(3) adds:")
for c in verify_relation(3).checks:
    print(f"  {c.name}: {c.status}, expected {c.expected!r}, actual {c.actual!r}")

rel = RelationSpec.for_prime(3)
broken = rel.relation_value(b=rel.algebra.zero())
print("drop one term and the residual reappears; a failed row shows it as")
print(f"  {residual_text(broken)}")

print()
print("== sigma coefficients and the factorization identity ==")
for q in (3, 5, 7):
    sol = solve_sigma(q)
    print(f"p={q}: sigma = {sol.sigmas} (kernel {sol.kernel_dimension},",
          f"substitution residual zero: {sol.residual.is_zero()})")
for q in (3, 5):
    print(f"p={q}: mu R = Qbar nu + beta alpha:", verify_factorization(q).passed)
