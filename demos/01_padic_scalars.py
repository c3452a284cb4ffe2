"""Fixed-precision p-adic arithmetic and Teichmuller lifts, the scalar layer
everything else sits on."""

import math

from powerops.scalar import (
    PAdicScalar,
    CoeffV3,
    primitive_teichmuller_root,
    teichmuller,
)

p, K = 5, 8

print("== scalars are (valuation, unit mod p^K) pairs ==")
a = PAdicScalar.from_int(p, 350, K)  # 350 = 2 * 5^2 * 7
print(f"350 in Z_{p}:", a)
print("350 / 25:", a / PAdicScalar.from_int(p, 25, K))
print("1/5 has negative valuation:", PAdicScalar.from_ratio(p, 1, 5, K))

print()
print("== Teichmuller lifts: fixed points of x -> x^p ==")
w = teichmuller(2, 5, 4)
print("lift of 2 mod 5^4:", w.unit, " (182^4 mod 625 =", pow(182, 4, 625), ")")
root = primitive_teichmuller_root(p, K)
print(f"primitive root lift at p={p}:", root)
print("w^(p-1):", root ** (p - 1))

print()
print("== the binomial congruences the final values reduce through ==")
for q in (3, 5, 7, 11, 13):
    c1 = PAdicScalar.from_int(q, math.comb(2 * q, 2), K) / PAdicScalar.from_int(q, q, K)
    c2 = PAdicScalar.from_int(q, math.comb(q * q, q), K) / PAdicScalar.from_int(q, q, K)
    print(
        f"p={q:>2}:  C(2p,2)/p = {c1.residue() - q} mod p,"
        f"  C(p^2,p)/p = {c2.residue()} mod p"
    )

print()
print("== the coefficient ring Z_p[v3]/(v3^2) ==")
x = CoeffV3.from_int(p, 2, K)
v3 = CoeffV3.from_v3(PAdicScalar.from_int(p, 1, K))
print("(2 + v3)^2 =", (x + v3) * (x + v3), " (the v3^2 term is gone)")
