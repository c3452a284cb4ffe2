"""Walk through the whole power-operation pipeline at p = 3, printing every
intermediate series the final value is extracted from."""

from powerops.fgl import FormalGroupLaw
from powerops.powerop import (
    STAGE_FORMULAS,
    f_coefficient,
    h_polynomial,
    power_operation_value,
    run_pipeline,
    sigma_dl_coefficient,
)

p = 3
F = FormalGroupLaw.v3_truncated(p)
print(f"target law at p={p}: logarithm x + (v3/p) x^{p**3}")


def degrees(f, var):
    """The exponents of var among the terms of the series f."""
    i = f.index(var)
    return {e[i] for e in f.terms}


print()
print("== the cast of characters ==")
print("chi   =", F.euler_class())
print("[p]   has terms at", sorted(degrees(F.p_series(), "alpha")))
print("<p>   has terms at", sorted(degrees(F.angle_p_series(), "alpha")))

trace = run_pipeline(F, p**2, p**3 + p * (p - 1) ** 2 + 1)
print()
print("== pipeline stages (x-degrees / y-degrees present) ==")
for name in ("g", "k", "k_inverse"):
    series = getattr(trace, name)
    var = "x" if name == "g" else "y"
    print(f"{name:10s} {STAGE_FORMULAS[name]}")
    print(f"{'':10s} {var}-degrees {sorted(degrees(series, var))[:8]} ...")

print()
print("== extraction for i = 2, ..., p ==")
for i in range(2, p + 1):
    n = i * (p - 1)
    f_n = f_coefficient(trace, n)
    h_n = h_polynomial(f_n, trace.angle_p, n)
    print(f"i={i}: f_{n} terms {sorted(f_n.terms)}, h_{n} terms {sorted(h_n.terms)}")
    res = power_operation_value(F, i)
    print(f"     value = {res.value.render()}")
    k = p * p + p - 1 if i == 2 else p * p + 1
    c = sigma_dl_coefficient(res, k)
    print(f"     coefficient at index {k}(p-1): v3-part {c.v3part.residue()} mod p")
