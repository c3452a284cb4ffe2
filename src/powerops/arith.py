"""The loops the package shares: square-and-multiply powering, the distinct
prime factors of a small integer, sparse polynomials over F_p, and the
Cartan formula for power operations on a product.

A sparse polynomial is a ``{monomial: coefficient}`` dict.  A monomial is a
tuple of ``(variable, exponent)`` pairs sorted by variable; the empty tuple
is 1.  Every coefficient lies in 1..p-1: the functions below take operands
in that form and return results in it, so no caller reduces again.
`poly_mul` collects term pairs on monomials packed into ints, so it merges
monomial tuples once per distinct product, not once per pair."""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Hashable, Sequence, TypeVar

__all__ = [
    "binary_power",
    "prime_factors",
    "merge_monomials",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "frobenius",
    "poly_pow",
    "cartan",
]

T = TypeVar("T")
Monomial = tuple[tuple[Hashable, int], ...]
Poly = dict[Monomial, int]


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


def merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials stored as ((variable, exponent), ...) tuples
    sorted by variable: exponents of a shared variable add.  Each variable of
    the shorter monomial is placed into the longer one by bisection."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    for v, e in m2:
        i = bisect_left(m1, (v,))
        if i < len(m1) and m1[i][0] == v:
            m1 = m1[:i] + ((v, m1[i][1] + e),) + m1[i + 1 :]
        else:
            m1 = m1[:i] + ((v, e),) + m1[i:]
    return m1


def poly_add(a: Poly, b: Poly, p: int, sign: int = 1) -> Poly:
    """a + sign * b over F_p."""
    out = dict(a)
    for m, c in b.items():
        c = (out.get(m, 0) + sign * c) % p
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def poly_scale(a: Poly, c: int, p: int) -> Poly:
    """c * a over F_p; no coefficient vanishes unless p divides c."""
    c %= p
    if not c:
        return {}
    return {m: v * c % p for m, v in a.items()}


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    """a * b over F_p, one monomial merge per distinct product.

    Every variable of a and b gets a field of w bits, w the bit length of
    twice the largest exponent, and a monomial is packed into the int
    sum e * 2^(w * field).  The product of two monomials is then the sum of
    their keys, with no carry between fields, so one pass over the term
    pairs sums the coefficients on int keys.  A second pass in the same
    order runs `merge_monomials` once per product that survives mod p, on
    the first pair that gave it, so the result is the dict, insertion order
    included, of one merge per pair (exponents are positive, so distinct
    monomials have distinct keys).  Holding no monomial per key, it also
    peaks below that loop in memory."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # monomials cancel, so a one-term factor sends distinct terms to
        # distinct terms: nothing to collect
        ((m2, c2),) = b.items()
        return {merge_monomials(m1, m2): c1 * c2 % p for m1, c1 in a.items()}
    names = {v: None for poly in (a, b) for m in poly for v, _ in m}
    w = (2 * max((e for poly in (a, b) for m in poly for _, e in m), default=0)).bit_length()
    shift = {v: w * i for i, v in enumerate(names)}
    ka = [(m, sum(e << shift[v] for v, e in m), c) for m, c in a.items()]
    kb = [(m, sum(e << shift[v] for v, e in m), c) for m, c in b.items()]
    sums: dict[int, int] = {}
    for _, k1, c1 in ka:
        for _, k2, c2 in kb:
            k = k1 + k2
            sums[k] = sums.get(k, 0) + c1 * c2
    # the pop leaves 0 behind, so only the first pair of a key is merged
    out: Poly = {}
    for m1, k1, _ in ka:
        for m2, k2, _ in kb:
            if c := sums.pop(k1 + k2, 0) % p:
                out[merge_monomials(m1, m2)] = c
    return out


def frobenius(a: Poly, q: int) -> Poly:
    """a^q for q a power of p: exponents scale by q and F_p coefficients are
    fixed, since the q-th power map is additive in characteristic p."""
    return {tuple((v, e * q) for v, e in m): c for m, c in a.items()}


def poly_pow(a: Poly, n: int, p: int) -> Poly:
    """a^n over F_p, each factor p of n taken by the Frobenius."""
    while n and n % p == 0:
        a = frobenius(a, p)
        n //= p
    return binary_power(a, n, {(): 1}, lambda u, v: poly_mul(u, v, p))


def cartan(
    s: int,
    factors: Sequence[tuple[T, int, int]],
    total: Callable[[T, int], dict[int, Poly]],
    p: int,
) -> Poly:
    """Q^s of the product of the f^e, by the Cartan formula: the t^s
    coefficient of prod (sum_a Q^a(f) t^a)^e over the (f, e, floor) in
    ``factors``.

    ``total(f, cap)`` returns ``{a: Q^a f}`` for the nonzero Q^a f with
    a <= cap, and ``floor`` is the least such a.  Each e is split into
    base-p digits, f^e = prod_i (f^(p^i))^(d_i), and the total operation of
    f^(p^i) is the p^i-th Frobenius twist of that of f (indices times p^i).
    A block (sum_a T_a t^a)^d with d < p is the sum over non-decreasing
    multisets of d indices of d!/prod c_a! times the product of the T_a; the
    weight is never 0 mod p.  The blocks are combined toward exactly s,
    memoized on (block, remaining degree), and only index sums that can
    still reach s are formed.
    """
    blocks = []  # (f, p^i, digit d_i, floor)
    for f, e, floor in factors:
        q = 1
        while e:
            e, d = divmod(e, p)
            if d:
                blocks.append((f, q, d, floor))
            q *= p
    # least[j]: least index sum of blocks[j:]
    least = [0] * (len(blocks) + 1)
    for j in range(len(blocks) - 1, -1, -1):
        _, q, d, floor = blocks[j]
        least[j] = least[j + 1] + q * d * floor
    if least[0] > s:
        return {}
    series = []  # per block: sorted (index, T_index) of the twisted total operation
    for f, q, d, floor in blocks:
        # one copy may rise above its own floor by the slack over all floors
        cap = (s - least[0]) // q + floor
        series.append(sorted((a * q, t if q == 1 else frobenius(t, q)) for a, t in total(f, cap).items()))
    memo: dict[tuple[int, int], Poly] = {}

    def rest(j: int, rem: int) -> Poly:
        """The t^rem coefficient of the product of blocks[j:]."""
        if j == len(blocks):
            return {(): 1} if rem == 0 else {}
        key = (j, rem)
        if key in memo:
            return memo[key]
        terms, d = series[j], blocks[j][2]
        acc: Poly = {}

        def pick(k: int, start: int, left: int, prod: Poly, weight: int, run: int) -> None:
            # k indices picked, the last at terms[start] (run copies of it),
            # and `left` still to place in this block and the ones after it
            for n in range(start, len(terms)):
                a, t = terms[n]
                if a * (d - k) > left - least[j + 1]:
                    break
                c = run + 1 if n == start else 1
                w = weight * (k + 1) // c  # d!/prod c_a!, one pick at a time
                if k + 1 < d:
                    pick(k + 1, n, left - a, poly_mul(prod, t, p), w, c)
                elif tail := rest(j + 1, left - a):
                    for m, v in poly_mul(poly_mul(prod, t, p), tail, p).items():
                        acc[m] = acc.get(m, 0) + w * v

        pick(0, 0, rem, {(): 1}, 1, 0)
        memo[key] = {m: r for m, c in acc.items() if (r := c % p)}
        return memo[key]

    return rest(0, s)
