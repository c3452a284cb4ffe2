"""Small finite extension fields F_(p^e) with log-table multiplication.

Elements are ints packing base-p coefficient vectors of residues modulo a
monic irreducible polynomial.  Multiplication and powering go through
discrete-log tables, so a power sum costs one table lookup per term; this
is what makes the randomized polynomial-identity checks cheap.

Building a field only searches for the modulus.  The digit vectors and the
exp/log tables, p^e entries each, are built the first time an operation
reads them, so a field that is never evaluated in costs no tables.
"""

from __future__ import annotations

import functools
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
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * mod[j]) % p
    out = out[:e]
    while len(out) < e:
        out.append(0)
    return out


def _poly_pow_x(n: int, mod: list[int], p: int) -> list[int]:
    """x^n modulo the given monic polynomial."""
    one = [1] + [0] * (len(mod) - 2)
    x = ([0, 1] + [0] * (len(mod) - 3))[: len(mod) - 1]
    return binary_power(x, n, one, lambda a, b: _poly_mul_mod(a, b, mod, p))


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], -1, p)
        r = a[:]
        while len(r) >= len(b) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            c = r[-1] * inv % p
            off = len(r) - len(b)
            for j in range(len(b)):
                r[off + j] = (r[off + j] - c * b[j]) % p
        a, b = b, r
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic degree-e polynomial test: x^(p^e) = x and gcd(x^(p^(e/q)) - x, f) = 1."""
    e = len(f) - 1
    xq = _poly_pow_x(p**e, f, p)
    x = [0, 1] + [0] * (e - 2)
    if xq != x[:e]:
        return False
    for q in prime_factors(e):
        g = _poly_pow_x(p ** (e // q), f, p)
        diff = [(a - b) % p for a, b in zip(g, x[:e])]
        gcd = _poly_gcd(f, diff + [0], p)
        while gcd and gcd[-1] == 0:
            gcd.pop()
        if len(gcd) != 1:
            return False
    return True


class GaloisField:
    """F_(p^e); elements are ints in [0, p^e) packing coefficient vectors."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.size = p**e
        rng = random.Random(p * 1009 + e)
        if e == 1:
            self.modulus = [0, 1]
        else:
            while True:
                f = [rng.randrange(p) for _ in range(e)] + [1]
                if _is_irreducible(f, p):
                    self.modulus = f
                    break

    @functools.cached_property
    def _digits(self) -> list[tuple[int, ...]]:
        return [self._unpack(a) for a in range(self.size)]

    def _unpack(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _pack(self, digits) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul_mod(list(self._digits[a]), list(self._digits[b]), self.modulus, self.p)
        return self._pack(prod)

    @functools.cached_property
    def _tables(self) -> tuple[list[int], list[int]]:
        """(exp, log) to the base of the first generator of the unit group."""
        n = self.size - 1
        factors = prime_factors(n)
        g = None
        for cand in range(2, self.size):
            if all(self._pow_raw(cand, n // q) != 1 for q in factors):
                g = cand
                break
        if g is None:
            raise ArithmeticError("no multiplicative generator found")
        exp = [1] * n
        log = [0] * self.size
        acc = 1
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, g)
        return exp, log

    def _pow_raw(self, a: int, n: int) -> int:
        return binary_power(a, n, 1, self._raw_mul)

    # -- public operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        da, db = self._digits[a], self._digits[b]
        return self._pack([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp, log = self._tables
        return exp[(log[a] + log[b]) % (self.size - 1)]

    def pow(self, a: int, m: int) -> int:
        if a == 0:
            return 0 if m else 1
        exp, log = self._tables
        return exp[(log[a] * m) % (self.size - 1)]

    def mul_int(self, a: int, c: int) -> int:
        return self._pack([(x * c) % self.p for x in self._digits[a]])

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.size)
