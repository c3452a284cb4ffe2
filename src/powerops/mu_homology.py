"""Newton classes in F_p[b_1, b_2, ...] and F_p[xi_1, xi_2, ...], and the
operations Q^r acting on them.

Two equality routes are kept deliberately independent:

* symbolic comparison of Newton monomials, sound in the b-context because
  the power sums N_m with p not dividing m are algebraically independent
  (every N_(pm) is rewritten as N_m^p first);
* expansion to generator polynomials (cheap in the xi-context, where only
  the indices p^k - 1 carry a generator), or, for a b-context class only,
  randomized evaluation through the elementary-symmetric specialization
  t_i -> e_i(sample), under which every N_m evaluates to the power sum of
  the sample.

Expansion is memoized per canonical Newton monomial, each one packed product
(`arith._product`), so sides that are the same Newton monomial share it.
The memo keeps the product packed, one field width per generator, and a
one-term class hands it out as a read-only `arith.PackedPoly`, decoded only
on its first read; two sides on the same layout are compared on the packed
keys.  It stays independent of cancellation *between* Newton monomials:
each side is expanded term by term and only the generator polynomials are
compared.

The action on Newton classes is

    Q^r N_n = (-1)^(r+n) C(r-1, n-1) N_(n + r(p-1)),

extended over products by the Cartan formula; the conjugate classes of the
dual Steenrod algebra enter through N_(p^k - 1)(xi) = -(conjugate of xi_k).
It obeys the instability rule Q^s x = 0 for 2s < |x|, as `dl.DLAlgebra`
does: Q^a N_m = 0 for a < m, Q^m N_m = N_m^p, and no Q^0 is the identity
in positive degree.
"""

from __future__ import annotations

import random
import time

from .arith import Immutable, PackedPoly, _product, binom_mod, cartan, frobenius, poly_mul, poly_pow, poly_sum
from .finite_field import GaloisField

__all__ = [
    "SymmetricClass",
    "newton_expand",
    "kochman_q",
    "q_on_product",
    "xibar",
    "symmetric_evaluate",
    "verify_stdl",
    "verify_mudl",
    "IdentityCheck",
    "PropositionReport",
    "DEFAULT_SAMPLES",
]

# largest Newton index reachable by the in-scope operations
def default_budget(p: int) -> int:
    return p * (p * p - 1) + p


DEFAULT_SAMPLES = 64
# the sampled route evaluates in F_(p^4), built only for a nonzero difference;
# degree/field-size stays below 1/4 for p in {5,7}
_EXT_DEGREE = 4

NewtonMonomial = tuple[tuple[int, int], ...]  # ((index coprime to p, exponent), ...)
GenPoly = dict[tuple[tuple[int, int], ...], int]  # generator-index monomials


def _canonical_newton(m: int, e: int, p: int) -> tuple[int, int]:
    """N_m^e = N_(m0)^(e * p^j) with m = m0 * p^j, p not dividing m0."""
    while m % p == 0:
        m //= p
        e *= p
    return m, e


class SymmetricClass(Immutable):
    """F_p-linear combination of products of Newton classes.

    ``terms`` is an ``arith`` sparse polynomial: every coefficient lies in
    1..p-1.  The constructor trusts that; the operations keep it.
    """

    __slots__ = ("p", "context", "terms")

    def __init__(self, p: int, context: str, terms: dict[NewtonMonomial, int]):
        _set_p(self, p)
        _set_context(self, context)  # "b" or "xi"
        _set_terms(self, terms)

    @classmethod
    def zero(cls, p: int, context: str) -> "SymmetricClass":
        return cls(p, context, {})

    @classmethod
    def newton(cls, p: int, context: str, m: int, coeff: int = 1) -> "SymmetricClass":
        if m <= 0:
            raise ValueError("Newton index must be positive")
        key = (_canonical_newton(m, 1, p),)
        return cls(p, context, {key: coeff % p} if coeff % p else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymmetricClass") -> "SymmetricClass":
        return SymmetricClass(self.p, self.context, poly_sum(((self.terms, 1), (other.terms, 1)), self.p))

    def __neg__(self) -> "SymmetricClass":
        return self * -1

    def __sub__(self, other: "SymmetricClass") -> "SymmetricClass":
        return SymmetricClass(self.p, self.context, poly_sum(((self.terms, 1), (other.terms, -1)), self.p))

    def __mul__(self, other) -> "SymmetricClass":
        if isinstance(other, int):
            return SymmetricClass(self.p, self.context, poly_sum(((self.terms, other),), self.p))
        return SymmetricClass(self.p, self.context, poly_mul(self.terms, other.terms, self.p))

    __rmul__ = __mul__

    def pow(self, n: int) -> "SymmetricClass":
        return SymmetricClass(self.p, self.context, poly_pow(self.terms, n, self.p))

    def frobenius(self) -> "SymmetricClass":
        return SymmetricClass(self.p, self.context, frobenius(self.terms, self.p))

    def weighted_degree(self) -> int:
        """Half the topological degree (N_m carries weight m)."""
        return max((sum(m * e for m, e in mono) for mono in self.terms), default=0)

    def expand(self) -> GenPoly | PackedPoly:
        """Expansion as a polynomial in the generators (b_i or xi_k).  Each
        Newton monomial is expanded once per (p, context) and kept packed in
        `_NEWTON_CACHE`, as (mono / q)^q with q the largest power of p
        dividing every exponent: one `arith._product`, each generator's field
        sized by its own exponent bound.  A one-term class returns that entry,
        or the entry times its coefficient, as a read-only `PackedPoly`, with
        no copy; any other class returns a new dict."""
        p, context = self.p, self.context
        budget = default_budget(p)
        parts = []
        for mono, c in self.terms.items():
            for m, _ in mono:
                if m > budget:
                    raise ValueError(f"Newton index {m} exceeds budget {budget}")
            key = (p, context, mono)
            poly = _NEWTON_CACHE.get(key)
            if poly is None:
                q = 1
                while mono and all(e % (q * p) == 0 for _, e in mono):
                    q *= p
                # through the module global, so a wrapper on newton_expand sees it
                factors = [(newton_expand(m, context, p), e // q) for m, e in mono]
                poly = _NEWTON_CACHE[key] = _product(factors, p, q)
            parts.append((poly, c))
        if len(parts) == 1:
            ((poly, c),) = parts
            return poly if c == 1 else poly.scaled(c, p)
        return poly_sum(parts, p)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            body = "*".join(f"N_{m}^{e}" if e > 1 else f"N_{m}" for m, e in mono) or "1"
            bits.append(f"{c}*{body}" if c != 1 or not mono else body)
        return " + ".join(bits)


_set_p = SymmetricClass.p.__set__
_set_context = SymmetricClass.context.__set__
_set_terms = SymmetricClass.terms.__set__


# (p, context, canonical Newton monomial): its packed generator polynomial,
# which `expand` hands out; (p, context, m): N_m, kept by `newton_expand`.
# No entry is mutated.
_NEWTON_CACHE: dict[tuple[int, str, NewtonMonomial | int], GenPoly | PackedPoly] = {}


def newton_expand(m: int, context: str, p: int) -> GenPoly:
    """N_m as a generator polynomial, via the recursion

        N_m = t_1 N_(m-1) - t_2 N_(m-2) + ... + (-1)^(m-1) m t_m

    specialized to t_i = b_i (b-context) or t_(p^k-1) = xi_k, other t_i = 0
    (xi-context), with the Frobenius shortcut N_(pm) = N_m^p: in
    characteristic p that is N_m with every exponent times p.  It is kept
    in `_NEWTON_CACHE` under (p, context, m), apart from the packed entry
    that `expand` keeps for the Newton monomial N_m.
    """
    if m <= 0:
        raise ValueError("Newton index must be positive")
    key = (p, context, m)
    cached = _NEWTON_CACHE.get(key)
    if cached is not None:
        return cached
    if m % p == 0:
        out = frobenius(newton_expand(m // p, context, p), p)
    else:
        if context == "b":
            supports = list(range(1, m + 1))
        else:
            supports = []
            q = p
            while q - 1 <= m:
                supports.append(q - 1)
                q *= p
        parts = []
        for j in reversed(supports):
            gen_index = j if context == "b" else supports.index(j) + 1
            rest = {(): m % p} if j == m else newton_expand(m - j, context, p)
            parts.append((poly_mul(rest, {((gen_index, 1),): 1}, p), 1 if j % 2 else -1))
        out = poly_sum(parts, p)
    _NEWTON_CACHE[key] = out
    return out


def kochman_q(r: int, m: int, context: str, p: int) -> SymmetricClass:
    """Q^r N_m = (-1)^(r+m) C(r-1, m-1) N_(m + r(p-1)); the binomial guard
    is instability: zero for r < m (r = 0 included), N_m^p at r = m."""
    if r < 0:
        raise ValueError("negative operation index")
    c = binom_mod(r - 1, m - 1, p)
    if not c:
        return SymmetricClass.zero(p, context)
    sign = 1 if (r + m) % 2 == 0 else -1
    return SymmetricClass.newton(p, context, m + r * (p - 1), sign * c)


def xibar(k: int, p: int) -> SymmetricClass:
    """The conjugate degree-2(p^k - 1) class: -N_(p^k - 1) in the xi-context."""
    return SymmetricClass.newton(p, "xi", p**k - 1, -1)


def q_on_product(s: int, factors: list[tuple[int, int]], context: str, p: int) -> SymmetricClass:
    """Q^s of the product of N_m^e over the (newton index m, multiplicity e)
    pairs in `factors`, by the Cartan formula over `kochman_q` with floor m
    for N_m: Q^a N_m = 0 for a < m (so Q^0 N_m = 0) and Q^m N_m = N_m^p."""
    floors = [(m, e, m) for m, e in factors]  # N_m has degree 2m
    return SymmetricClass(p, context, cartan(s, floors, lambda m, a: kochman_q(a, m, context, p).terms, p))


# ---------------------------------------------------------------------------
# Randomized evaluation through the symmetric specialization
# ---------------------------------------------------------------------------


def symmetric_evaluate(cls: SymmetricClass, sample: list[int], fld: GaloisField) -> int:
    """Evaluate a b-context class at t_i = e_i(sample), under which N_m is
    the power sum sum_j sample_j^m.  An xi-context class raises ValueError:
    no check evaluates one.

    Requires len(sample) >= the weighted degree of the class, so that a
    nonzero class stays a nonzero polynomial in the sample entries.
    """
    if cls.context != "b":
        raise ValueError(f"only b-context classes are evaluated, got {cls.context!r}")
    if len(sample) < cls.weighted_degree():
        raise ValueError("sample too small for the degree of the class")
    values = {}
    for m in sorted({m for mono in cls.terms for m, _ in mono}):
        acc = 0
        for x in sample:
            acc = fld.add(acc, fld.pow(x, m))
        values[m] = acc
    total = 0
    for mono, c in cls.terms.items():
        term = 1
        for m, e in mono:
            term = fld.mul(term, fld.pow(values[m], e))
        total = fld.add(total, fld.mul_int(term, c))
    return total


# ---------------------------------------------------------------------------
# The two verification suites
# ---------------------------------------------------------------------------


class IdentityCheck:
    __slots__ = ("name", "passed", "method", "elapsed_ms")

    def __init__(self, name: str, passed: bool, method: str, elapsed_ms: float = 0.0):
        self.name, self.passed, self.method, self.elapsed_ms = name, passed, method, elapsed_ms


class PropositionReport:
    __slots__ = ("p", "context", "checks", "_since")

    def __init__(self, p: int, context: str, checks: list[IdentityCheck] | None = None):
        self.p, self.context = p, context
        self.checks = [] if checks is None else checks
        self._since = time.perf_counter()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, method: str) -> None:
        """Record a check, charged with the time since the previous one (or
        since the report was made): the identities are decided one after
        another, each just before its check is added."""
        now = time.perf_counter()
        self.checks.append(IdentityCheck(name, passed, method, elapsed_ms=(now - self._since) * 1000))
        self._since = now


def _equal_exact(a: SymmetricClass, b: SymmetricClass) -> bool:
    # expand the two sides separately so this route stays independent of
    # cancellation between Newton monomials; a Newton monomial both sides
    # hold is expanded once (`expand` memoizes it) and the sides share it.
    # Two one-term sides on the same layout compare their packed keys and
    # are never decoded; any other pair compares the decoded polynomials
    return a.expand() == b.expand()


def _equal_symbolic(a: SymmetricClass, b: SymmetricClass) -> bool:
    return (a - b).is_zero()


def _equal_sampled(a: SymmetricClass, b: SymmetricClass, samples: int, rng: random.Random) -> bool:
    diff = a - b
    if diff.is_zero():
        return True
    fld = GaloisField(diff.p, _EXT_DEGREE)
    M = diff.weighted_degree()
    for _ in range(samples):
        sample = [fld.sample(rng) for _ in range(M)]
        if symmetric_evaluate(diff, sample, fld) != 0:
            return False
    return True


def verify_stdl(p: int) -> PropositionReport:
    """Six identities for the conjugate class in degree 2(p-1), by exact
    expansion in the xi-generators (sparse at every prime in scope).

    The fourth identity carries a plus sign: Q^(p^2-p+1) of the (p-1)st
    power equals +(conjugate class)^(p^2), as the Cartan formula forces.
    """
    rep = PropositionReport(p, "xi")
    xb = xibar(1, p)
    q_p = -kochman_q(p, p - 1, "xi", p)  # Q^p xibar_1

    lhs = -kochman_q(p * p, p - 1, "xi", p)
    rhs = xb.pow(p - 1).frobenius() * q_p
    rep.add("q_p2_top_class", _equal_exact(lhs, rhs), "exact")

    ok = all(
        kochman_q(p * p + i, p - 1, "xi", p).is_zero() for i in range(1, p - 1)
    )
    rep.add("q_p2_plus_i_vanishes", ok, "exact")

    lhs = -kochman_q(p * p + p - 1, p - 1, "xi", p)
    rhs = -(q_p.frobenius())
    rep.add("q_p2_plus_p_minus_1", _equal_exact(lhs, rhs), "exact")

    lhs = q_on_product(p * p - p + 1, [(p - 1, p - 1)], "xi", p)  # on N_(p-1)^(p-1) = xibar^(p-1)
    rhs = xb.pow(p * p)
    rep.add("q_on_power_top", _equal_exact(lhs, rhs), "exact")

    ok = True
    inner = q_p  # = -N_(p^2-1) * (-1) ... a single Newton class
    for i in range(1, p):
        img = _apply_q_to_class(p * p + p * i, inner, p)
        if not _equal_exact(img, SymmetricClass.zero(p, "xi")):
            ok = False
    rep.add("q_iterated_vanishes", ok, "exact")

    lhs = -kochman_q(2 * p, p - 1, "xi", p)
    rhs = -(xb.pow(p) * q_p)
    rep.add("q_2p_lower", _equal_exact(lhs, rhs), "exact")
    return rep


def _apply_q_to_class(r: int, cls: SymmetricClass, p: int) -> SymmetricClass:
    """Q^r on a sum of single Newton classes (no products)."""
    parts = []
    for mono, c in cls.terms.items():
        if len(mono) != 1 or mono[0][1] != 1:
            raise ValueError("only single Newton classes supported here")
        parts.append((kochman_q(r, mono[0][0], cls.context, p).terms, c))
    return SymmetricClass(p, cls.context, poly_sum(parts, p))


def verify_mudl(p: int, seed: int = 0) -> PropositionReport:
    """Six identities for N_(p-1) in the b-generators.

    Scalar-multiple identities (1, 2, 3, 5, 6) are decided by exact
    comparison of canonical Newton monomials (sound: power sums with index
    coprime to p are algebraically independent).  The product identity 4 is
    expanded exactly at p = 3; its two sides are the same Newton monomial,
    so they share one memoized expansion, and what the route adds over the
    symbolic one is that no cancellation between Newton monomials is
    trusted.  At p >= 5 it is labelled
    sampled(DEFAULT_SAMPLES, F_p^4), but `_equal_sampled` returns as soon as
    lhs - rhs is the zero Newton polynomial, which it is at every prime in
    scope, so no point is evaluated and no field is built: the check is
    decided by Newton-monomial cancellation.  Only a nonzero difference
    would be evaluated, over an F_(p^4) built for it, with failure
    probability below (degree / p^4)^DEFAULT_SAMPLES < 2^-30.
    """
    rep = PropositionReport(p, "b")
    half = (p + 1) // 2  # 1/2 mod p
    n1 = p - 1
    n2 = 2 * (p - 1)

    lhs = kochman_q(p * p, n1, "b", p)
    rhs = kochman_q(p * p - 1, n2, "b", p) * half
    rep.add("q_p2_newton", _equal_symbolic(lhs, rhs), "symbolic")

    ok = all(kochman_q(p * p + i, n1, "b", p).is_zero() for i in range(1, p - 1))
    rep.add("q_p2_plus_i_vanishes", ok, "symbolic")

    lhs = kochman_q(p * p + p - 1, n1, "b", p)
    rhs = -(kochman_q(p, n1, "b", p).frobenius())
    rep.add("q_p2_plus_p_minus_1", _equal_symbolic(lhs, rhs), "symbolic")

    lhs = q_on_product(p * p - p + 1, [(n1, p - 1)], "b", p)
    rhs = SymmetricClass.newton(p, "b", n1).pow((p - 2) * p) * SymmetricClass.newton(
        p, "b", n2
    ).pow(p)
    if p == 3:
        ok4 = _equal_exact(lhs, rhs)
        method4 = "exact-expansion"
    else:
        ok4 = _equal_sampled(lhs, rhs, DEFAULT_SAMPLES, random.Random(seed))
        method4 = f"sampled({DEFAULT_SAMPLES}, F_{p}^{_EXT_DEGREE})"
    rep.add("q_on_power_top", ok4, method4)

    inner = kochman_q(p, n1, "b", p)
    ok = all(
        _apply_q_to_class(p * p + p * i, inner, p).is_zero() for i in range(1, p)
    )
    rep.add("q_iterated_vanishes", ok, "symbolic")

    lhs = kochman_q(2 * p, n1, "b", p)
    rhs = kochman_q(2 * p - 1, n2, "b", p) * (-half)
    rep.add("q_2p_lower", _equal_symbolic(lhs, rhs), "symbolic")
    return rep
