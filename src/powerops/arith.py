"""The loops the package shares: square-and-multiply powering, the distinct
prime factors of a small integer and the product of two sparse monomials."""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

__all__ = ["binary_power", "prime_factors", "merge_monomials"]

T = TypeVar("T")


def binary_power(base: T, n: int, one: T, mul: Callable[[T, T], T]) -> T:
    """base^n by square-and-multiply.

    Every product is taken as ``mul(result, base)``, never the other way
    round: p-adic cancellation makes the tracked precision depend on the
    operand order.  The last squaring, whose result would be discarded, is
    skipped.
    """
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order, by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def merge_monomials(
    m1: tuple[tuple[Hashable, int], ...], m2: tuple[tuple[Hashable, int], ...]
) -> tuple[tuple[Hashable, int], ...]:
    """Product of two monomials stored as ((variable, exponent), ...) tuples
    sorted by variable: exponents of a shared variable add."""
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))
