"""Mod-p Dyer-Lashof algebra on free graded-commutative algebras, odd p.

Classes are F_p-linear combinations of commutative monomials in admissible
words Q^{s_1}...Q^{s_k} g applied to even-degree generators.  The action is

    Q^s z = 0            if 2s < |z|
    Q^s z = z^p          if 2s = |z|
    Q^s z = word (s,...) if 2s > |z|, straightened by the Adem rule
    Q^r Q^s = sum_i (-1)^(r+i) C((p-1)(i-s) - 1, pi - r) Q^(r+s-i) Q^i
                         whenever r > p s,

with the Cartan formula across products (`arith.cartan`, which asks
`_q_factor` for Q^a of a factor only at the indices a term of Q^s can
use: on one linear factor, Q^s alone, so the Adem recursion straightens
nothing it does not need).  Powers are
handled through the total operation: Q_t(uv) = Q_t(u) Q_t(v) with Q_t(u^p)
the p-th Frobenius twist of Q_t(u), which collapses the composition blowup
for terms like Q^(p^3+p)((x^(p-1))^p Q^p x).

`verify_relation` adds the relation suite's report rows itself: the E_n
threshold, the five straightening identities, which pin the Adem convention,
and the grand sum.  A failed identity's actual is its route, "exact", and
its residual lhs - rhs (`arith.residual_text`).  `solve_sigma` reads the
sigma_i off admissible words, solving no system.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .arith import CheckList, Record, binom_mod, cartan, frobenius, poly_mul, poly_pow, poly_sum, residual_text

__all__ = [
    "DLAlgebra",
    "DLPolynomial",
    "free_algebra",
    "RelationSpec",
    "RelationReport",
    "SigmaSolution",
    "verify_relation",
    "solve_sigma",
    "verify_factorization",
    "op_definedness",
    "relation_en_threshold",
]

Factor = tuple[tuple[int, ...], str]  # (word of Q-exponents, generator name)
Monomial = tuple[tuple[Factor, int], ...]  # sorted ((factor, exponent), ...)


class DLAlgebra:
    """Free algebra over F_p on even-degree generators, with the Q-action."""

    def __init__(self, p: int, generators: dict[str, int]):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime")
        for name, d in generators.items():
            if d <= 0 or d % 2:
                raise ValueError(f"generator {name} must have positive even degree")
        self.p = p
        self.generators = dict(generators)
        self._q_factor_cache: dict[tuple[int, Factor], dict[Monomial, int]] = {}
        self._q_monomial_cache: dict[tuple[int, Monomial], DLPolynomial] = {}
        self._relation: RelationSpec | None = None  # set by RelationSpec.for_prime

    # -- element constructors ------------------------------------------------

    def zero(self) -> "DLPolynomial":
        return DLPolynomial(self, {})

    def gen(self, name: str) -> "DLPolynomial":
        if name not in self.generators:
            raise KeyError(name)
        return DLPolynomial(self, {((((), name), 1),): 1})

    # -- degrees ---------------------------------------------------------------

    def factor_degree(self, factor: Factor) -> int:
        word, g = factor
        return self.generators[g] + sum(2 * s * (self.p - 1) for s in word)

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self.factor_degree(f) * e for f, e in mono)

    # -- the operations ---------------------------------------------------------

    def sum(self, parts: Iterable[tuple["DLPolynomial", int]]) -> "DLPolynomial":
        """The sum of c * f over the (f, c) in parts, by `arith.poly_sum`."""
        return DLPolynomial(self, poly_sum([(f.terms, c) for f, c in parts], self.p))

    def apply_q(self, s: int, poly: "DLPolynomial") -> "DLPolynomial":
        """Q^s extended by linearity and the Cartan formula."""
        if s < 0:
            raise ValueError("negative operation index")
        # a plain loop, not a generator fed to `sum`: the Adem recursion runs
        # through here, and a generator frame would deepen every level of it
        parts = []
        for mono, coeff in poly.terms.items():
            parts.append((self._q_monomial(s, mono), coeff))
        return self.sum(parts)

    def adem_normalize(self, word: tuple[int, ...], generator: str) -> "DLPolynomial":
        """Admissible-basis expansion of Q^{word} applied to a generator.

        Built bottom-up, so instability rewrites and Adem straightening fire
        at every stage; idempotent on admissible input.
        """
        out = self.gen(generator)
        for s in reversed(word):
            out = self.apply_q(s, out)
        return out

    # -- internals ----------------------------------------------------------------

    def _q_factor(self, factor: Factor, a: int) -> dict[Monomial, int]:
        """The terms of Q^a on a single admissible-word factor, ``{}`` when
        it is zero."""
        key = (a, factor)
        cached = self._q_factor_cache.get(key)
        if cached is not None:
            return cached
        d = self.factor_degree(factor)
        if 2 * a < d:
            out = {}
        elif 2 * a == d:
            out = {((factor, self.p),): 1}
        else:
            word, g = factor
            if not word or a <= self.p * word[0]:
                out = {((((a,) + word, g), 1),): 1}
            else:
                # straighten Q^a Q^(word[0]) by the Adem rule, then push the
                # outer operation through the normalized tail
                r, s = a, word[0]
                tail: Factor = (word[1:], g)
                parts = []
                p = self.p
                lo = -(-r // p)  # ceil(r/p)
                hi = r - (p - 1) * s - 1
                for i in range(lo, hi + 1):
                    c = binom_mod((p - 1) * (i - s) - 1, p * i - r, p)
                    if not c:
                        continue
                    inner = self._q_factor(tail, i)
                    if not inner:
                        continue
                    term = self.apply_q(r + s - i, DLPolynomial(self, inner))
                    parts.append((term, -c if (r + i) % 2 else c))
                out = self.sum(parts).terms
        self._q_factor_cache[key] = out
        return out

    def _q_monomial(self, s: int, mono: Monomial) -> "DLPolynomial":
        key = (s, mono)
        cached = self._q_monomial_cache.get(key)
        if cached is None:
            factors = [(f, e, self.factor_degree(f) // 2) for f, e in mono]
            cached = DLPolynomial(self, cartan(s, factors, self._q_factor, self.p))
            self._q_monomial_cache[key] = cached
        return cached


@functools.cache
def free_algebra(p: int) -> DLAlgebra:
    """The free algebra on x in degree 2(p-1) and y in degree 4(p-1).

    One instance per prime, shared by the relation, the sigma solve and the
    factorization, so each reuses the Q caches the others have filled.  It
    also holds the relation's statement (`RelationSpec.for_prime`), so the
    statement lives exactly as long as the algebra.
    """
    return DLAlgebra(p, {"x": 2 * (p - 1), "y": 4 * (p - 1)})


class DLPolynomial:
    """F_p-linear combination of commutative monomials in admissible words.

    ``terms`` is an ``arith`` sparse polynomial: every coefficient lies in
    1..p-1.  The constructor trusts that; the operations keep it.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: DLAlgebra, terms: dict[Monomial, int]):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DLPolynomial") -> "DLPolynomial":
        return self.algebra.sum(((self, 1), (other, 1)))

    def __neg__(self) -> "DLPolynomial":
        return self * -1

    def __sub__(self, other: "DLPolynomial") -> "DLPolynomial":
        return self.algebra.sum(((self, 1), (other, -1)))

    def __mul__(self, other) -> "DLPolynomial":
        if isinstance(other, int):
            return self.algebra.sum(((self, other),))
        return DLPolynomial(self.algebra, poly_mul(self.terms, other.terms, self.algebra.p))

    __rmul__ = __mul__

    def pow(self, n: int) -> "DLPolynomial":
        return DLPolynomial(self.algebra, poly_pow(self.terms, n, self.algebra.p))

    def q(self, s: int) -> "DLPolynomial":
        return self.algebra.apply_q(s, self)

    def frob(self, i: int = 1) -> "DLPolynomial":
        """p^i-th power."""
        return DLPolynomial(self.algebra, frobenius(self.terms, self.algebra.p**i))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DLPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def degrees(self) -> set[int]:
        return {self.algebra.monomial_degree(m) for m in self.terms}

    def monomials(self) -> list[str]:
        return [_render_monomial(m) for m in sorted(self.terms, key=_monomial_order)]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=_monomial_order):
            c = self.terms[m]
            if not m:
                bits.append(str(c))
            elif c == 1:
                bits.append(_render_monomial(m))
            else:
                bits.append(f"{c}*{_render_monomial(m)}")
        return " + ".join(bits)


def _monomial_order(m: Monomial):
    """Deterministic render order: (word length, exponents, generator)."""
    return tuple(((len(w), w, g), e) for (w, g), e in m)


def _render_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    bits = []
    for (word, g), e in m:
        base = "".join(f"Q^{s} " for s in word) + g
        bits.append(f"({base})^{e}" if e > 1 else f"({base})" if word else g)
    return " * ".join(bits)


# ---------------------------------------------------------------------------
# The relation, the sigma solve and the factorization identity
# ---------------------------------------------------------------------------


class RelationSpec:
    """The relation R(a, b, c) = 0 at one prime, stated once over
    `free_algebra(p)` and read by the relation, its five identities and the
    factorization.

    It names each class or product more than one of them uses: x, x^(p-1),
    Q^p x, Q^(p^2) Q^p x, (x^(p-1))^p Q^p x, (Q^p x)^p, Q^p x * x^p, the
    twists T_i = (Q^(p^2-p-i+1) x^(p-1))^p for i = 0..p (T_p is
    (x^(p-1))^(p^2)), the inputs a, b, c (c[0] unused) and the products
    T_i c_i for 0 < i < p.  `for_prime` builds it on first use and the
    algebra holds it, so it lives exactly as long as its algebra.
    """

    __slots__ = (
        "p", "algebra", "x", "xp1", "qpx", "qqx", "xp1p_qpx", "qpx_p", "qpx_xp",
        "twists", "a", "b", "c", "twist_c",
    )

    def __init__(self, algebra: DLAlgebra):
        p = self.p = algebra.p
        self.algebra = algebra
        x = self.x = algebra.gen("x")
        xp1 = self.xp1 = x.pow(p - 1)
        qpx = self.qpx = x.q(p)
        self.qqx = qpx.q(p * p)
        self.xp1p_qpx = xp1.frob() * qpx
        self.qpx_p = qpx.frob()
        self.qpx_xp = qpx * x.pow(p)
        self.twists = [xp1.q(p * p - p - i + 1).frob() for i in range(p + 1)]
        self.a = [x.q(p * p) - self.xp1p_qpx] + [x.q(p * p + i) for i in range(1, p - 1)]
        self.a.append(x.q(p * p + p - 1) + self.qpx_p)
        # the x^(p^2) term carries a minus sign: this is the unique choice
        # for which the grand sum vanishes identically (the Frobenius of b
        # must contribute Q^(p^2-p+1)(x^(p-1))^p - x^(p^3)) and for which b
        # dies on the conjugate degree-2(p-1) class of the dual Steenrod
        # algebra, where Q^(p^2-p+1) of its (p-1)st power is +(that class)^(p^2)
        self.b = xp1.q(p * p - p + 1) - x.pow(p * p)
        self.c = [algebra.zero()] + [qpx.q(p * p + p * i) for i in range(1, p)]
        self.c.append(x.q(2 * p) + self.qpx_xp)
        self.twist_c = [t * ci for t, ci in zip(self.twists[1:p], self.c[1:p])]

    @classmethod
    def for_prime(cls, p: int) -> "RelationSpec":
        algebra = free_algebra(p)
        if algebra._relation is None:
            algebra._relation = cls(algebra)
        return algebra._relation

    def relation_value(
        self,
        a: list[DLPolynomial] | None = None,
        b: DLPolynomial | None = None,
        c: list[DLPolynomial] | None = None,
    ) -> DLPolynomial:
        """The grand sum; zero when evaluated on the defining inputs.  On the
        statement's own c it reads the stored T_i c_i; any other c builds
        its own, skipping each zero c_i, whose product adds no term."""
        p = self.p
        a = a or self.a
        b = b if b is not None else self.b
        c = c or self.c
        parts = [(a[0].q(p**3 + p), 1)]
        for i in range(1, p - 1):
            parts.append((a[i].q(p**3 + p - i), -1 if i % 2 else 1))
        parts += [(a[p - 1].q(p**3 + 1), 1), (b.frob() * self.qqx, 1)]
        if c is self.c:
            parts += [(tc, 1) for tc in self.twist_c]
        else:
            parts += [(t * ci, 1) for t, ci in zip(self.twists[1:p], c[1:p]) if not ci.is_zero()]
        parts.append((self.twists[p] * c[p].q(2 * p * p - p), 1))
        return self.algebra.sum(parts)


class RelationReport(Record):
    """The relation's report rows, as `verify_relation` added them, and its
    residual."""

    __slots__ = ("residual", "checks")

    @property
    def passed(self) -> bool:  # stays for bench/jobs.py until the next benchmark PR
        return all(c.passed for c in self.checks)

    @property
    def identities(self) -> dict[str, bool]:  # stays for bench/jobs.py until the next benchmark PR
        return {c.name.removeprefix("identity_"): c.passed for c in self.checks if c.name.startswith("identity_")}


def relation_en_threshold(p: int) -> int:
    """Smallest n for which the top operation of the relation has all its
    expected properties: 2s - deg + 2 with s = p^3 + p on the degree of the
    first input."""
    s = p**3 + p
    d = 2 * (p - 1) * (p**2 + 1)
    return 2 * s - d + 2


def verify_relation(p: int) -> RelationReport:
    """The relation suite's rows: the E_n threshold and the definedness of
    the top operation there, the five straightening identities the grand
    sum reduces to, each checked individually, and the grand sum expanded on
    its defining inputs.  A failed identity's ``actual`` is its route,
    "exact", and the residual lhs - rhs (`arith.residual_text`).

    Every left side goes through `q` on its own input; the right sides read
    the statement's classes and products."""
    rows = CheckList()
    threshold = relation_en_threshold(p)
    rows.add("en_threshold", threshold == 2 * (p * p + 2), f"{2 * (p * p + 2)}", f"{threshold}")
    definedness = op_definedness(threshold, p**3 + p, 2 * (p - 1) * (p**2 + 1))
    want = "defined_with_properties"
    rows.add("top_operation_definedness", definedness == want, want, definedness)

    def identity(name: str, lhs: DLPolynomial, rhs: DLPolynomial) -> None:
        held = lhs == rhs
        actual = "holds" if held else f"exact: residual {residual_text(lhs - rhs)}"
        rows.add(f"identity_{name}", held, "holds", actual)

    rel = RelationSpec.for_prime(p)
    A, x, qpx, qqx, twists = rel.algebra, rel.x, rel.qpx, rel.qqx, rel.twists

    lhs1 = x.q(p * p).q(p**3 + p)
    identity("adem_top_pair", lhs1, A.sum([(x.q(p * p + i).q(p**3 + p - i), 1 if i % 2 else -1) for i in range(1, p)]))

    identity("pth_power_vanishes", rel.qpx_p.q(p**3 + 1), A.zero())

    lhs3 = rel.xp1p_qpx.q(p**3 + p)
    # T_i Q^(p^2+pi) Q^p x for i = 0..p: the statement's T_i c_i and two ends
    rhs3 = [twists[0] * qqx] + rel.twist_c + [twists[p] * qpx.q(2 * p * p)]
    identity("cartan_frobenius_block", lhs3, A.sum((t, 1) for t in rhs3))

    identity("adem_interchange", qpx.q(2 * p * p), x.q(2 * p).q(2 * p * p - p))

    lhs5 = rel.qpx_xp.q(2 * p * p - p)
    identity("cartan_mixed_term", lhs5, x.pow(p * p) * qqx)

    residual = rel.relation_value()
    rows.add("grand_relation", residual.is_zero(), "0", residual_text(residual))
    return RelationReport(residual, rows.checks)


class SigmaSolution(Record):
    # sigmas holds sigma_1 .. sigma_(p-2)
    __slots__ = ("p", "sigmas", "residual", "kernel_dimension")

    @property
    def verified(self) -> bool:
        return self.residual.is_zero() and self.kernel_dimension == 0


def solve_sigma(p: int) -> SigmaSolution:
    """Coefficients sigma_i, 1 <= i <= p-2, with

        Q^(p^3+p) Q^(p^2-1) y = sum_i sigma_i Q^(p^3+p-(i+1)) Q^(p^2+i) y
                                - Q^(p^3) Q^(p^2+p-1) y

    on y in degree 4(p-1), read off and verified by substitution.  Each w_i =
    Q^(p^3+p-i-1) Q^(p^2+i) y is one admissible word, a distinct one for each
    i, as 2(p^2+i) > 4(p-1), p^3+p-i-1 <= p(p^2+i) and the outer excess
    2(p(p-1-i)+1) is positive; so sigma_i is the target's coefficient at w_i,
    and the kernel dimension counts the w_i that are zero or repeat a word."""
    A = free_algebra(p)
    y = A.gen("y")
    target = y.q(p * p - 1).q(p**3 + p) + y.q(p * p + p - 1).q(p**3)
    w = [y.q(p * p + i).q(p**3 + p - (i + 1)) for i in range(1, p - 1)]
    words = [next(iter(wi.terms), None) for wi in w]
    sigmas = [0 if m in words[:i] else target.terms.get(m, 0) for i, m in enumerate(words)]
    residual = target - A.sum(zip(w, sigmas))
    return SigmaSolution(p, sigmas, residual, len(w) - len(set(words) - {None}))


class FactorizationReport(Record):
    __slots__ = ("p", "sigmas", "residual")

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()


def verify_factorization(p: int, sigmas: list[int] | None = None) -> FactorizationReport:
    """The identity (mu o R) = (Qbar o nu) + (beta o alpha) on the free
    algebra on x in degree 2(p-1) and y in degree 4(p-1).

    mu, Qbar, nu, alpha, beta are algebra maps commuting with the operations,
    so each side is expanded by substituting the images of the formal inputs.
    """
    if sigmas is None:
        sigmas = solve_sigma(p).sigmas
    rel = RelationSpec.for_prime(p)
    A, x = rel.algebra, rel.x
    y = A.gen("y")
    xy = x.pow((p - 2) * p) * y.pow(p)  # in mu(b) and in beta(z^2)

    # images of the formal inputs under each map.
    # mu(a_0) = Q^(p^2-1) y - (x^(p-1))^p Q^p x; other a_i and the c_i with
    # i < p map to zero; mu(b) and mu(c_p) pick up the y-corrections.
    # mu(b) is forced by requiring x -> -N_(p-1), y -> -N_(2(p-1))/2 to
    # intertwine it with b, given Q^(p^2-p+1)(N_(p-1)^(p-1)) =
    # +N_(p-1)^((p-2)p) N_(2(p-1))^p
    mu_a0 = y.q(p * p - 1) - rel.xp1p_qpx
    mu_b = xy * 2 - x.pow(p * p)
    mu_cp = -y.q(2 * p - 1) + rel.qpx_xp
    # the y-part coefficient of beta(z_(p^2(p-1))) is -2, forced by
    # (beta z)^p = Q^(p^2-p+1)(x^(p-1))^p - 2 x^(p^2(p-2)) y^(p^2);
    # -2 agrees with 1/2 only at p = 5.  beta(c_i) = c_i for 0 < i < p, so
    # beta o alpha reads the statement's T_i c_i
    beta_z_sq = xy * (-2) + rel.xp1.q(p * p - p + 1)
    beta_z_last = y.q(2 * p - 1) + x.q(2 * p)
    beta_w = [y.q(p * p + i) for i in range(1, p - 1)]
    qbar_nu = -(y.q(p * p + p - 1).q(p**3))  # nu(d) composed with Qbar(z) = Q^(p^2+p-1) y

    zero = A.zero()
    mu_R = rel.relation_value(a=[mu_a0] + [zero] * (p - 1), b=mu_b, c=[zero] * p + [mu_cp])
    parts = [(w.q(p**3 + p - (i + 1)), sigmas[i - 1]) for i, w in enumerate(beta_w, 1)]
    parts.append((beta_z_sq.frob() * rel.qqx, -1))
    parts += [(tc, -1) for tc in rel.twist_c]
    parts.append((rel.twists[p] * beta_z_last.q(2 * p * p - p), -1))
    beta_alpha = A.sum(parts)

    residual = mu_R - qbar_nu - beta_alpha
    return FactorizationReport(p, sigmas, residual)


def op_definedness(n: int, s: int, d: int) -> str:
    """Classify Q^s on a degree-d class over an E_n algebra level:
    'defined_with_properties' when 2s - d <= n - 2, 'defined_unstable' at
    the boundary 2s - d = n - 1, 'undefined' beyond."""
    gap = 2 * s - d
    if gap <= n - 2:
        return "defined_with_properties"
    if gap == n - 1:
        return "defined_unstable"
    return "undefined"
