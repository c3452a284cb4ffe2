"""Small finite extension fields F_(p^e) by digit-vector arithmetic, for the
randomized checks: `mu_homology.symmetric_evaluate` evaluates b-context
Newton classes at points of such a field.

Elements are ints packing base-p coefficient vectors of residues modulo a
monic irreducible polynomial of degree e.  Every operation unpacks its
operands into digit vectors: a product is the schoolbook product reduced
modulo the modulus, and a power is square-and-multiply over that product.
There are no tables, so building a field costs only the search for its
modulus, and an element costs nothing until it is operated on.

The degree e is 1 or a prime power q^k, for which a monic f of degree e is
irreducible iff x^(p^e) = x and x^(p^(e/q)) != x modulo f.
"""

from __future__ import annotations

import random

from .arith import binary_power, prime_factors

__all__ = ["GaloisField"]


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    # reduce modulo the monic polynomial `mod`
    e = len(mod) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * mod[j]) % p
    return out[:e]


def _poly_pow_x(n: int, mod: list[int], p: int) -> list[int]:
    """x^n modulo the given monic polynomial."""
    one = [1] + [0] * (len(mod) - 2)
    x = [0, 1] + [0] * (len(mod) - 3)
    return binary_power(x, n, one, lambda a, b: _poly_mul_mod(a, b, mod, p))


def _is_irreducible(f: list[int], p: int, q: int) -> bool:
    """Monic f of degree e = q^k >= 2: x^(p^e) = x and x^(p^(e/q)) != x mod f."""
    e = len(f) - 1
    x = [0, 1] + [0] * (e - 2)
    return _poly_pow_x(p**e, f, p) == x and _poly_pow_x(p ** (e // q), f, p) != x


class GaloisField:
    """F_(p^e); elements are ints in [0, p^e) packing coefficient vectors."""

    def __init__(self, p: int, e: int):
        factors = prime_factors(e)
        if e != 1 and len(factors) != 1:
            raise ValueError(f"the degree must be 1 or a prime power, not {e}")
        self.p = p
        self.e = e
        self.size = p**e
        rng = random.Random(p * 1009 + e)
        if e == 1:
            self.modulus = [0, 1]
        else:
            while True:
                f = [rng.randrange(p) for _ in range(e)] + [1]
                if _is_irreducible(f, p, factors[0]):
                    self.modulus = f
                    break

    def _unpack(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def _pack(self, digits) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def add(self, a: int, b: int) -> int:
        return self._pack([(x + y) % self.p for x, y in zip(self._unpack(a), self._unpack(b))])

    def mul(self, a: int, b: int) -> int:
        return self._pack(_poly_mul_mod(self._unpack(a), self._unpack(b), self.modulus, self.p))

    def pow(self, a: int, m: int) -> int:
        return binary_power(a, m, 1, self.mul)

    def mul_int(self, a: int, c: int) -> int:
        return self._pack([(x * c) % self.p for x in self._unpack(a)])

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.size)
