"""Newton classes, the Q-action on them, and the two identity suites for the
polynomial generators of the relevant homology rings.  Each suite adds one
report row per identity: a passing row names the route that decided it, and
a failed one adds the residual lhs - rhs as Newton classes."""

import random

from powerops.arith import residual_text
from powerops.finite_field import GaloisField
from powerops.mu_homology import (
    SymmetricClass,
    kochman_q,
    newton_expand,
    q_on_product,
    symmetric_evaluate,
    verify_mudl,
    verify_stdl,
    xibar,
)

p = 3

print("== Newton polynomials and the Frobenius collapse mod p ==")
print("N_2 =", newton_expand(2, "b", p))
print("N_3 =", newton_expand(3, "b", p), " (= t_1^3 mod 3)")
print("N_6 = N_2^3:", newton_expand(6, "b", p))

print()
print("== the xi-specialization keeps only indices p^k - 1 ==")
print("N_2(xi)  =", newton_expand(2, "xi", p))
print("N_8(xi)  =", newton_expand(8, "xi", p))
print("conjugate classes: xibar_1 =", xibar(1, p).expand(),
      " xibar_2 =", xibar(2, p).expand())

print()
print("== the Q-action on Newton classes ==")
print("Q^3 N_2(b) =", kochman_q(3, 2, "b", p))
print("Q^4 N_2(b) =", kochman_q(4, 2, "b", p), " (binomial vanishes)")
print("Q^7(N_2^2) =", q_on_product(7, [(2, 2)], "b", p), " (Cartan over the square)")

print()
print("== both identity suites at p = 3, 5, 7 ==")
for q in (3, 5, 7):
    s, m = verify_stdl(q), verify_mudl(q)
    held = [f"{sum(c.status == 'pass' for c in rows.checks)}/{len(rows.checks)}" for rows in (s, m)]
    print(f"p={q}: dual-Steenrod suite {held[0]}, complex-bordism suite {held[1]} hold",
          f"(identity 4 route: {next(c.actual for c in m.checks if c.name == 'q_on_power_top')})")
print("each row's actual is the route that decided it, for example at p = 3:")
for c in verify_mudl(3).checks:
    print(f"  {c.name}: {c.status} by {c.actual}")

print()
print("== randomized evaluation through the symmetric specialization ==")
q = 5
lhs = q_on_product(q * q - q + 1, [(q - 1, q - 1)], "b", q)
n8 = SymmetricClass.newton(q, "b", 2 * (q - 1))
rhs = SymmetricClass.newton(q, "b", q - 1).pow((q - 2) * q) * n8.pow(q)
print(f"identity 4 at p={q}: lhs - rhs has {len((lhs - rhs).terms)} Newton terms,",
      "so Newton-monomial cancellation decides it and no point is evaluated")
wrong = lhs - rhs + n8  # lhs against the false side rhs - N_8
fld = GaloisField(q, 4)
rng = random.Random(0)
M = wrong.weighted_degree()
hits = sum(
    symmetric_evaluate(wrong, [fld.sample(rng) for _ in range(M)], fld) != 0
    for _ in range(8)
)
print(f"lhs - (rhs - N_8) = N_8 is nonzero on {hits}/8 random samples over F_(5^4):",
      "the sampled route catches the false side, and its failed row would read")
print(f"  sampled(64, F_5^4): residual {residual_text(wrong)}")
