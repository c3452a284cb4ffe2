"""What the package's two halves share: the base of the immutable value
types, square-and-multiply powering, the distinct prime factors of a small
integer, binomial coefficients mod p, sparse polynomials over F_p, and the
Cartan formula for power operations on a product.

A sparse polynomial is a ``{monomial: coefficient}`` dict.  A monomial is a
tuple of ``(variable, exponent)`` pairs sorted by variable; the empty tuple
is 1.  Every coefficient lies in 1..p-1: the functions below take operands
in that form and return results in it, so no caller reduces again.
Every F_p-linear combination, a sum, a difference or a scalar multiple, is
one `poly_sum` over its (polynomial, coefficient) parts.
Products of several terms run on monomials packed into ints: `_pack` once,
giving each variable a field as wide as its own exponent bound, then a chain
of `_packed_mul` (a Frobenius is the key times p), so no tuple is built for a
term that is multiplied again.  `poly_mul` and `poly_pow` decode the result
by `_unpack`, one pass over each key; `_product` hands it out undecoded as
a `PackedPoly`, a read-only mapping that is decoded on its first read and
compared on its int keys against a value of the same layout.
`cartan` takes the operation one index at a time, ``q(f, a)`` = Q^a f, asks
for it only at the indices its sum can reach, and carries a product of
one-term sides as one (monomial, coefficient) pair with no dict (`_times`).
It walks the sum in one loop over an explicit stack, so its own depth on
the caller's stack is fixed."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

__all__ = [
    "Immutable",
    "binary_power",
    "prime_factors",
    "binom_mod",
    "merge_monomials",
    "poly_sum",
    "poly_mul",
    "frobenius",
    "poly_pow",
    "cartan",
    "PackedPoly",
]

T = TypeVar("T")
Monomial = tuple[tuple[Hashable, int], ...]
Poly = dict[Monomial, int]
Terms = Sequence[tuple[Monomial, int]]  # a polynomial's (monomial, coefficient) pairs


class Immutable:
    """Base of the slotted value types: assignment and deletion raise
    AttributeError, and two values are equal when they are of the same class
    and their ``__slots__`` fields are equal in order.  Like any class that
    defines ``__eq__``, a value type is unhashable.  A subclass's ``__init__``
    writes its fields through the slot descriptors (``Cls.field.__set__``)."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = attrgetter(*self.__slots__)
        return fields(self) == fields(other)


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


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem: the product of C(n_i, k_i) over the
    base-p digits n_i of n and k_i of k, so no binomial past C(p-1, k_i) is
    formed.  It is 0 when either argument is negative, and when k > n, since
    then some k_i > n_i and C(n_i, k_i) = 0."""
    if n < 0 or k < 0:
        return 0
    out = 1
    while k:
        n, ni = divmod(n, p)
        k, ki = divmod(k, p)
        out = out * math.comb(ni, ki) % p
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


def poly_sum(parts: Iterable[tuple[Poly, int]], p: int) -> Poly:
    """The sum of c * a over the (a, c) in parts, over F_p, in one new dict.

    Each coefficient is reduced as its part is added and a term that reaches
    0 is popped, so the result, insertion order included, is that of adding
    the parts one at a time.  A part added to an empty sum is copied whole:
    by `dict` when c = 1 mod p, else by one comprehension."""
    out: Poly = {}
    for a, c in parts:
        c %= p
        if not c:
            continue
        if not out:
            out = dict(a) if c == 1 else {m: v * c % p for m, v in a.items()}
            continue
        get = out.get
        for m, v in a.items():
            if r := (get(m, 0) + c * v) % p:
                out[m] = r
            else:
                out.pop(m, None)
    return out


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    """a * b over F_p, the dict, insertion order included, of one
    `merge_monomials` per term pair; packed unless a side has one term."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # monomials cancel, so a one-term factor sends distinct terms to
        # distinct terms: nothing to collect
        ((m2, c2),) = b.items()
        return {merge_monomials(m1, m2): c1 * c2 % p for m1, c1 in a.items()}
    layout, (a, b) = _pack(((a, 1), (b, 1)))
    return _unpack(_packed_mul(a, b, p), *layout)


Layout = tuple[tuple[tuple[Hashable, int, int], ...], int]  # fields, exponent factor q


def _pack(factors: Sequence[tuple[Poly, int]]) -> tuple[Layout, list[dict[int, int]]]:
    """The layout of prod f^e over the (f, e) in factors, and each f on int keys.

    The fields are one (variable, width, mask) per variable, in sorted order,
    the first in the lowest bits.  A variable's width is that of its bound,
    the sum over the factors of e times its largest exponent in f, so keys
    add as monomials multiply, with no carry, in every partial product of the
    chain.  The layout's q is 1."""
    bound: dict = {}
    for f, e in factors:
        top: dict = {}
        get = top.get
        for m in f:
            for v, x in m:
                if x > get(v, 0):
                    top[v] = x
        get = bound.get
        for v, x in top.items():
            bound[v] = get(v, 0) + e * x
    fields, shift, at = [], {}, 0
    for v in sorted(bound):
        fields.append((v, w := bound[v].bit_length(), (1 << w) - 1))
        shift[v], at = at, at + w
    return (tuple(fields), 1), [{sum([x << shift[v] for v, x in m]): c for m, c in f.items()} for f, _ in factors]


def _packed_mul(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """`poly_mul` on packed keys, term for term and in the same order."""
    if len(a) < len(b):
        a, b = b, a
    sums: dict[int, int] = {}
    get, b = sums.get, list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in b:
            k = k1 + k2
            sums[k] = get(k, 0) + c1 * c2
    return {k: r for k, c in sums.items() if (r := c % p)}


def _unpack(a: dict[int, int], fields: Sequence[tuple[Hashable, int, int]], q: int = 1) -> Poly:
    """The packed a as a Poly, every exponent times q, in the order of its
    keys; each key is decoded field by field, and every (variable, exponent)
    pair is one shared tuple."""
    pairs: dict[tuple[Hashable, int], tuple[Hashable, int]] = {}
    out = {}
    for k, c in a.items():
        mono = []
        for v, w, mask in fields:
            if e := k & mask:
                pair = (v, e * q)
                mono.append(pairs.setdefault(pair, pair))
            k >>= w
        out[tuple(mono)] = c
    return out


class PackedPoly(Mapping):
    """A polynomial held on packed int keys with their `Layout`, read-only.

    ``packed`` maps each key to its coefficient.  `len` and `==` against a
    value of the same layout work on the keys, since one layout decodes
    distinct keys to distinct monomials.  Every read of a monomial
    (iteration, ``[]``, `items`, `repr`) decodes the whole value once, by
    `_unpack`, in the order of its keys; any other comparison compares the
    decoded mappings."""

    __slots__ = ("packed", "layout", "_poly")

    def __init__(self, packed: dict[int, int], layout: Layout):
        self.packed, self.layout, self._poly = packed, layout, None

    def _decoded(self) -> Poly:
        if self._poly is None:
            self._poly = _unpack(self.packed, *self.layout)
        return self._poly

    def scaled(self, c: int, p: int) -> "PackedPoly":
        """c * self over F_p, on the same layout; c is nonzero mod p."""
        return PackedPoly({k: v * c % p for k, v in self.packed.items()}, self.layout)

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, m: Monomial) -> int:
        return self._decoded()[m]

    def __iter__(self):
        return iter(self._decoded())

    def items(self):
        return self._decoded().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedPoly):
            if other.layout == self.layout:
                return self.packed == other.packed
            other = other._decoded()
        elif not isinstance(other, Mapping):
            return NotImplemented
        return self._decoded() == other

    def __repr__(self) -> str:
        return repr(self._decoded())


def _product(factors: Sequence[tuple[Poly, int]], p: int, q: int = 1) -> PackedPoly:
    """(prod f^e)^q over (f, e) in factors, packed, as the same `poly_mul`
    chain orders it; p | e is key * p, and the q-th power only scales the
    layout's exponents."""
    (fields, _), packed = _pack(factors)

    def mul(u: dict[int, int] | None, v: dict[int, int]) -> dict[int, int]:
        return v if u is None else _packed_mul(u, v, p)  # None: the empty product

    out = None
    for f, (_, e) in zip(packed, factors):
        if not e:
            continue
        while e % p == 0:
            f, e = {k * p: c for k, c in f.items()}, e // p
        out = mul(out, binary_power(f, e, None, mul))
    return PackedPoly({0: 1} if out is None else out, (fields, q))


def frobenius(a: Poly, q: int) -> Poly:
    """a^q for q a power of p: exponents scale by q and F_p coefficients are
    fixed, since the q-th power map is additive in characteristic p."""
    return {tuple((v, e * q) for v, e in m): c for m, c in a.items()}


def poly_pow(a: Poly, n: int, p: int) -> Poly:
    """a^n over F_p by `_product`, decoded."""
    return _product([(a, n)], p)._decoded()


def _times(prod: Terms, t: Poly, p: int) -> Terms:
    """The terms of prod * t in the order of `poly_mul`; no dict when both sides have one term."""
    if len(prod) == 1 and len(t) == 1:
        ((m1, c1),), ((m2, c2),) = prod, t.items()
        return ((merge_monomials(m1, m2), c1 * c2 % p),)
    return tuple(poly_mul(dict(prod), t, p).items())


def cartan(
    s: int,
    factors: Sequence[tuple[T, int, int]],
    q: Callable[[T, int], Poly],
    p: int,
) -> Poly:
    """Q^s of the product of the f^e, by the Cartan formula: the t^s
    coefficient of prod (sum_a Q^a(f) t^a)^e over the (f, e, floor) in
    ``factors``.

    ``q(f, a)`` returns Q^a f, ``{}`` when it is zero, and ``floor`` is the
    least a with Q^a f nonzero: half the degree of f, by instability, for
    both callers.  Each e is split into base-p digits, f^e = prod_i
    (f^(p^i))^(d_i), and Q^(a p^i) of f^(p^i) is the p^i-th Frobenius twist
    of Q^a f (Q^b f^(p^i) is zero unless p^i divides b).
    A block (sum_a T_a t^a)^d with d < p is the sum over non-decreasing
    multisets of d indices of d!/prod c_a! times the product of the T_a; the
    weight is never 0 mod p.  The blocks are combined toward exactly s,
    memoized on (block, remaining degree), and only index sums that can
    still reach s are formed.  Nothing in the walk recurses: one loop runs
    a stack of walks, one per (block, remaining degree) not yet in the
    memo, each with its pending picks; a pick that completes its block
    before the tail after it is known puts the tail's walk on top and is
    retried once the tail is summed, so every product reaches the sum in
    depth-first order.

    Q^a f is asked for only at the indices a pick can reach.  Each block
    keeps the sorted nonzero indices found so far and extends them one index
    at a time, only while the next one still fits under the degree left; the
    last index of the last block is not scanned but solved for, since it
    takes all the degree left.  So every asked a satisfies
    floor <= a <= (s - least) // p^i + floor, least the least index sum of
    the product; a single factor with e = 1 asks for Q^s f alone; and within
    one call q is asked, and the twist taken, once per (block, a).
    """
    blocks = []  # (f, p^i, digit d_i, floor)
    for f, e, floor in factors:
        qi = 1
        while e:
            e, d = divmod(e, p)
            if d:
                blocks.append((f, qi, d, floor))
            qi *= p
    # least[j]: least index sum of blocks[j:]
    least = [0] * (len(blocks) + 1)
    for j in range(len(blocks) - 1, -1, -1):
        _, qi, d, floor = blocks[j]
        least[j] = least[j + 1] + qi * d * floor
    if least[0] > s:
        return {}
    if not blocks:
        return {(): 1} if s == 0 else {}
    twisted: dict[tuple[int, int], Poly] = {}  # (block, a): Q^(a p^i) f^(p^i)
    found: list[list[tuple[int, Poly]]] = [[] for _ in blocks]  # per block: sorted nonzero (a p^i, term)
    scanned = [floor for *_, floor in blocks]  # per block: the next a to ask for

    def op(j: int, a: int) -> Poly:
        key = (j, a)
        if key not in twisted:
            f, qi = blocks[j][:2]
            t = q(f, a)
            twisted[key] = frobenius(t, qi) if qi > 1 else t
        return twisted[key]

    def extend(j: int, room: int) -> bool:
        """Scan block j for its next nonzero index, up to an index of room."""
        qi, terms = blocks[j][1], found[j]
        while (a := scanned[j]) * qi <= room:
            scanned[j] = a + 1
            if t := op(j, a):
                terms.append((a * qi, t))
                return True
        return False

    memo: dict[tuple[int, int], Poly] = {}  # (block j, rem): t^rem of the product of blocks[j:]
    last = len(blocks) - 1
    one: Terms = (((), 1),)
    # walks (j, rem, acc, picks), innermost last.  A pick (k, n, start, left,
    # prod, weight, run) has placed k indices, the last at terms[start] (run
    # copies of it), has `left` still to place in this block and the ones
    # after it, and takes terms[n] next
    stack = [(0, s, {}, [(0, 0, 0, s, one, 1, 0)])]
    while stack:
        j, rem, acc, picks = stack[-1]
        _, qi, d, _ = blocks[j]
        terms, later = found[j], least[j + 1]
        solved = d - 1 if j == last else -1
        while picks:
            k, n, start, left, prod, weight, run = picks.pop()
            if k == solved:
                # the last index of all is what is left; the room each
                # earlier pick left keeps it at or above the one before
                if left % qi or not (t := op(j, left // qi)):
                    continue
                w = weight * (k + 1) // (run + 1 if k and left == terms[start][0] else 1)
                for m, v in _times(prod, t, p):
                    acc[m] = acc.get(m, 0) + w * v
                continue
            # one copy may take at most an even share of what the later
            # copies and blocks leave over
            room = (left - later) // (d - k)
            if not (n < len(terms) or extend(j, room)):
                continue
            a, t = terms[n]
            if a > room:
                continue
            c = run + 1 if n == start else 1
            w = weight * (k + 1) // c  # d!/prod c_a!, one pick at a time
            if k + 1 < d:
                picks.append((k, n + 1, start, left, prod, weight, run))
                picks.append((k + 1, n, n, left - a, _times(prod, t, p), w, c))
            elif (tail := memo.get((j + 1, left - a))) is None:
                # the block is complete but its tail is not summed yet: sum
                # the tail first, then take this pick again
                picks.append((k, n, start, left, prod, weight, run))
                stack.append((j + 1, left - a, {}, [(0, 0, 0, left - a, one, 1, 0)]))
                break
            else:
                picks.append((k, n + 1, start, left, prod, weight, run))
                if tail:
                    for m, v in _times(_times(prod, t, p), tail, p):
                        acc[m] = acc.get(m, 0) + w * v
        else:
            memo[j, rem] = {m: r for m, c in acc.items() if (r := c % p)}
            stack.pop()
    return memo[0, s]
