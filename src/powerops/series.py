"""Sparse truncated multivariate power series over Z_p[v3]/(v3^2).

Terms live in a dict mapping exponent tuples to CoeffV3 coefficients; a term
whose exponent reaches the per-variable bound is identically discarded, so a
series is understood modulo those powers.  Binary operations take the
componentwise minimum of the operand bounds.

Every sum of terms goes through `from_terms`, which merges equal exponents,
drops zeros and cuts at the bounds; every per-coefficient operation goes
through `_map`, which drops the zeros it makes.  Only `__mul__` keeps its
own loop, because it is the hot path.

A power of one or two terms a x^e + b x^f follows the binomial theorem,
and each coefficient power is written down: v3^2 = 0 gives

    (c0 + c1 v3)^m = c0^m + m c0^(m-1) c1 v3,

and a p-adic power is one modular power, exact at its relative precision.
So the only p-adic sum in such a power is the v3 part of each a^(n-j) b^j,
and no digit is lost to the sums of a product ladder.

Composition splits every series into plain + v3 * (v3 part); since
v3^2 = 0 the expensive inner loops only ever run on plain series, which
stay tiny in this pipeline.  The multiplicative inverse is taken only of a
unit constant plus a v3 part, where v3^2 = 0 gives it in closed form:

    (c0 + v3 f1)^(-1) = c0^(-1) - v3 c0^(-2) f1.

Series reversion (`lagrange_invert`) uses the Lagrange-Buermann formula.
Write k = y (1 + psi) + v3 k1, so y must divide every plain term of k, and
let C(-n, m) = (-1)^m C(n+m-1, m).  Then k^(-1) = r0 + v3 r1 with

    r0 = sum_n y^n sum_m [w^(n-1)] (C(-n, m) psi^m + C(-n-1, m) w psi' psi^m)
    r1 = -sum_n y^(n-1) sum_m C(-n, m) [w^(n-1)] (k1 psi^m).

r0 is the form of the formula without the factor 1/n, so no digit is lost
where p divides n; r1 = -k1(r0) r0' is the formula for an antiderivative
of k1, differentiated, so it needs no inverse series.  In the pipeline psi
is a single monomial, so the reversion is a few single-term products.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Mapping
from itertools import chain
from operator import add, lt

from .arith import Immutable, binary_power
from .scalar import DEFAULT_PRECISION, CoeffV3, PAdicScalar

__all__ = [
    "TruncatedSeries",
    "QuotientNormalForm",
    "quotient_normalize",
    "divide_by_alpha_power",
]


class TruncatedSeries(Immutable):
    """Immutable: assignment and deletion raise AttributeError.  The terms
    dict is owned by the series and never changed after construction."""

    __slots__ = ("vars", "bounds", "terms", "p")

    def __init__(
        self,
        vars: tuple[str, ...],
        bounds: tuple[int, ...],
        terms: dict[tuple[int, ...], CoeffV3],
        p: int,
    ):
        _set_vars(self, vars)
        _set_bounds(self, bounds)
        _set_terms(self, terms)
        _set_p(self, p)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e))[:8]:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, exp)
                if k
            ) or "1"
            bits.append(f"({self.terms[exp]!r})*{mono}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return " + ".join(bits) + tail

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, vars: tuple[str, ...], bounds: tuple[int, ...]) -> "TruncatedSeries":
        return cls(vars, tuple(bounds), {}, p)

    @classmethod
    def constant(
        cls, p: int, c: CoeffV3, vars: tuple[str, ...], bounds: tuple[int, ...]
    ) -> "TruncatedSeries":
        zero_exp = (0,) * len(vars)
        terms = {} if c.is_zero() else {zero_exp: c}
        return cls(vars, tuple(bounds), terms, p)

    @classmethod
    def one(cls, p: int, vars: tuple[str, ...], bounds: tuple[int, ...], prec: int) -> "TruncatedSeries":
        return cls.constant(p, CoeffV3.one(p, prec), vars, bounds)

    @classmethod
    def variable(
        cls,
        p: int,
        name: str,
        vars: tuple[str, ...],
        bounds: tuple[int, ...],
        prec: int,
    ) -> "TruncatedSeries":
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        if bounds[i] <= 1:
            return cls.zero(p, vars, bounds)
        return cls(vars, tuple(bounds), {exp: CoeffV3.one(p, prec)}, p)

    @classmethod
    def from_terms(
        cls,
        p: int,
        vars: tuple[str, ...],
        bounds: tuple[int, ...],
        items: Mapping[tuple[int, ...], CoeffV3] | Iterable[tuple[tuple[int, ...], CoeffV3]],
    ) -> "TruncatedSeries":
        out: dict[tuple[int, ...], CoeffV3] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for exp, c in pairs:
            if c.is_zero():
                continue
            if not all(map(lt, exp, bounds)):
                continue
            if exp in out:
                c = out[exp] + c
                if c.is_zero():
                    del out[exp]
                    continue
            out[exp] = c
        return cls(vars, tuple(bounds), out, p)

    # -- bookkeeping -------------------------------------------------------

    def index(self, var: str) -> int:
        return self.vars.index(var)

    def with_bounds(self, bounds: tuple[int, ...]) -> "TruncatedSeries":
        return TruncatedSeries.from_terms(self.p, self.vars, bounds, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, var: str, k: int) -> "TruncatedSeries":
        """Coefficient of var^k, as a series with that exponent zeroed."""
        i = self.index(var)
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == k:
                out[exp[:i] + (0,) + exp[i + 1 :]] = c
        return TruncatedSeries(self.vars, self.bounds, out, self.p)

    def constant_term(self) -> CoeffV3:
        return self.terms.get((0,) * len(self.vars), CoeffV3.zero(self.p))

    def slots(self, var: str) -> dict[int, "TruncatedSeries"]:
        """Decompose as sum_k var^k * c_k(other vars)."""
        i = self.index(var)
        buckets: dict[int, dict] = {}
        for exp, c in self.terms.items():
            buckets.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1 :]] = c
        return {
            k: TruncatedSeries(self.vars, self.bounds, d, self.p) for k, d in buckets.items()
        }

    # -- v3 splitting ------------------------------------------------------

    def _map(self, fn: Callable[[CoeffV3], CoeffV3]) -> "TruncatedSeries":
        """fn applied to every coefficient, keeping the nonzero results."""
        out = {}
        for exp, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[exp] = v
        return TruncatedSeries(self.vars, self.bounds, out, self.p)

    def plain_part(self) -> "TruncatedSeries":
        return self._map(lambda c: CoeffV3.from_plain(c.plain))

    def v3_part(self) -> "TruncatedSeries":
        """Series of v3-coefficients (returned as plain coefficients)."""
        return self._map(lambda c: CoeffV3.from_plain(c.v3part))

    def times_v3(self) -> "TruncatedSeries":
        return self._map(CoeffV3.times_v3)

    # -- ring operations ---------------------------------------------------

    def _merge_bounds(self, other: "TruncatedSeries") -> tuple[int, ...]:
        if self.vars != other.vars:
            raise ValueError(f"incompatible variable sets {self.vars} vs {other.vars}")
        return tuple(map(min, self.bounds, other.bounds))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bounds = self._merge_bounds(other)
        return TruncatedSeries.from_terms(
            self.p, self.vars, bounds, chain(self.terms.items(), other.terms.items())
        )

    def __neg__(self) -> "TruncatedSeries":
        return self._map(operator.neg)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bounds = self._merge_bounds(other)
        out: dict[tuple[int, ...], CoeffV3] = {}
        get = out.get
        pairs = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                exp = tuple(map(add, e1, e2))
                if not all(map(lt, exp, bounds)):
                    continue
                c = c1 * c2
                if c.is_zero():
                    continue
                prev = get(exp)
                if prev is not None:
                    c = prev + c
                    if c.is_zero():
                        del out[exp]
                        continue
                out[exp] = c
        return TruncatedSeries(self.vars, bounds, out, self.p)

    def scale(self, c: CoeffV3) -> "TruncatedSeries":
        return self._map(lambda a: a * c)

    def scale_scalar(self, a: PAdicScalar) -> "TruncatedSeries":
        return self.scale(CoeffV3.from_plain(a))

    def mul_int(self, n: int) -> "TruncatedSeries":
        return self._map(lambda c: c.mul_int(n))

    def pow(self, n: int) -> "TruncatedSeries":
        """self^n.  A power whose every term would pass a bound is returned as
        0 without a product: that is exact, since truncation is the quotient
        by a monomial ideal.

        A series of one or two terms a*x^e + b*x^f is raised by the binomial
        theorem, sum_j C(n, j) a^(n-j) b^j x^((n-j)e + jf), over only the j
        whose exponent lies inside the bounds (a one-term series is its
        j = 0 term).  Each coefficient power is taken in closed form: with
        one * c = c0 + c1 v3, at the precision of the one the series ladder
        starts from, c^m = c0^m + m c0^(m-1) c1 v3 since v3^2 = 0, and a
        p-adic power is exact at its relative precision.  So no digit is
        lost to the sums of a product ladder; the one sum left is the v3
        part of each a^(n-j) b^j.  C(n, j) is multiplied in as an exact
        integer.  Three or more terms take the series ladder."""
        if n >= 1 and self.terms:
            least = [min(e) for e in zip(*self.terms)]  # per variable
            lowest = min(sum(e) for e in self.terms)  # total degree
            top = sum(b - 1 for b in self.bounds)  # largest total degree kept
            if any(n * d >= b for d, b in zip(least, self.bounds)) or n * lowest > top:
                return TruncatedSeries.zero(self.p, self.vars, self.bounds)
        prec = series_precision(self)
        if not 1 <= len(self.terms) <= 2:
            one = TruncatedSeries.one(self.p, self.vars, self.bounds, prec)
            return binary_power(self, n, one, operator.mul)
        one = CoeffV3.one(self.p, prec)
        (e, a), *rest = self.terms.items()
        # a one-term series is the j = 0 term of a*x^e + 1*x^e
        f, b = rest[0] if rest else (e, one)
        a, b = one * a, one * b
        lo, hi = 0, (n if rest else 0)
        for u, w, bound in zip(e, f, self.bounds):
            # (n-j) u + j w < bound, that is j (w - u) < bound - n u; where
            # w = u the cut above has checked n u < bound
            if w > u:
                hi = min(hi, (bound - n * u - 1) // (w - u))
            elif w < u:
                lo = max(lo, (bound - n * u) // (w - u) + 1)

        def power(c: CoeffV3, m: int) -> CoeffV3:
            if m <= 1:
                return c if m else one
            c0, c1 = c.plain, c.v3part
            return CoeffV3(c0**m, (c0 ** (m - 1) * c1).mul_int(m))

        terms = []
        for j in range(lo, hi + 1):
            # a product by b^0 or by C(n, j) = 1 would change no digit
            c = power(a, n - j)
            if j:
                c = c * power(b, j)
            k = math.comb(n, j)
            exp = tuple((n - j) * u + j * w for u, w in zip(e, f))
            terms.append((exp, c if k == 1 else c.mul_int(k)))
        return TruncatedSeries.from_terms(self.p, self.vars, self.bounds, terms)

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: str) -> "TruncatedSeries":
        """Formal partial derivative; the bound in `var` drops by one."""
        i = self.index(var)
        bounds = tuple(b - 1 if j == i and b > 0 else b for j, b in enumerate(self.bounds))
        terms = (
            (exp[:i] + (exp[i] - 1,) + exp[i + 1 :], c.mul_int(exp[i]))
            for exp, c in self.terms.items()
            if exp[i]
        )
        return TruncatedSeries.from_terms(self.p, self.vars, bounds, terms)

    # -- composition and inversion ------------------------------------------

    def substitute(self, var: str, g: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute `var := g`, other variables passing through.

        Requires g to share this series' variable tuple and have zero
        constant term.  Correct modulo the bounds of g, provided this
        series' bound in `var` covers the needed powers.
        """
        if self.vars != g.vars:
            raise ValueError("incompatible variable sets")
        if not g.constant_term().is_zero():
            raise ValueError("substitution requires zero constant term")
        f0, f1 = self.plain_part(), self.v3_part()
        g0, g1 = g.plain_part(), g.v3_part()
        out = _substitute_plain(f0, var, g0)
        if f1.terms:
            out = out + _substitute_plain(f1, var, g0).times_v3()
        if g1.terms:
            df0 = f0.derivative(var).with_bounds(g.bounds)
            out = out + (_substitute_plain(df0, var, g0) * g1).times_v3()
        return out

    def inverse(self) -> "TruncatedSeries":
        """Inverse of c0 + v3 f1 for a unit constant c0, in closed form:
        c0^(-1) - v3 c0^(-2) f1, exact because v3^2 = 0.  A plain part with
        any term besides the constant raises ValueError."""
        c0 = self.constant_term().plain
        if c0.is_zero():
            raise ValueError("constant term is not a unit")
        if len(self.plain_part().terms) > 1:
            raise ValueError("inverse needs a plain part that is a constant")
        inv = PAdicScalar.from_int(self.p, 1, c0.prec) / c0
        inv0 = TruncatedSeries.constant(self.p, CoeffV3.from_plain(inv), self.vars, self.bounds)
        return inv0 - self.v3_part().scale_scalar(inv * inv).times_v3()


def series_precision(f: TruncatedSeries) -> int:
    """Tracked precision of the first nonzero coefficient (default if none)."""
    for c in f.terms.values():
        if not c.plain.is_zero():
            return c.plain.prec
        if not c.v3part.is_zero():
            return c.v3part.prec
    return DEFAULT_PRECISION


_set_vars = TruncatedSeries.vars.__set__
_set_bounds = TruncatedSeries.bounds.__set__
_set_terms = TruncatedSeries.terms.__set__
_set_p = TruncatedSeries.p.__set__


def _substitute_plain(f: TruncatedSeries, var: str, g: TruncatedSeries) -> TruncatedSeries:
    """f(var := g) for plain series, by a power ladder over the sparse slots:
    each power of g is the last one times g^d, d the gap between slots, and
    each distinct g^d is taken once per call."""
    slots = f.slots(var)
    out = TruncatedSeries.zero(f.p, g.vars, g.bounds)
    if not slots:
        return out
    prec = max(series_precision(f), series_precision(g))
    power = TruncatedSeries.one(f.p, g.vars, g.bounds, prec)
    steps: dict[int, TruncatedSeries] = {}
    prev = 0
    for k in sorted(slots):
        d, prev = k - prev, k
        if d:
            if d not in steps:
                steps[d] = g.pow(d)
            power = power * steps[d]
        out = out + slots[k].with_bounds(g.bounds) * power
    return out


def lagrange_invert(k: TruncatedSeries, var: str = "y") -> TruncatedSeries:
    """Compositional inverse of k in `var`: k(invert(k)) = var to bounds.

    Requires zero constant term, linear coefficient exactly 1, and `var`
    dividing every plain term, so that k = y (1 + psi) + v3 k1 with
    psi = (k0 - y)/y free of a constant term; a plain term free of `var`
    (such as k = y + alpha) raises ValueError.  The v3 part k1 is
    unrestricted.  With C(-n, m) = (-1)^m C(n+m-1, m) and [w^j] keeping the
    other variables as coefficients, the Lagrange-Buermann formula gives
    invert(k) = r0 + v3 r1 with

        r0 = sum_n y^n sum_m [w^(n-1)] (C(-n, m) psi^m + C(-n-1, m) w psi' psi^m)
        r1 = -sum_n y^(n-1) sum_m C(-n, m) [w^(n-1)] (k1 psi^m).

    r0 is the form [y^n] r0 = [w^(n-1)] phi^(n-1) (phi - w phi') with
    phi = 1/(1 + psi), which has no factor 1/n and so loses no digit where
    p divides n.  r1 = -k1(r0) r0' because v3^2 = 0, and that is the
    derivative of the formula applied to an antiderivative of k1, so it
    needs no division and no inverse series.  psi^m is built by repeated
    multiplication until it vanishes under the bounds, which it does since
    psi has no constant term.
    """
    p, i = k.p, k.index(var)
    lin = tuple(1 if j == i else 0 for j in range(len(k.vars)))
    if not k.constant_term().is_zero():
        raise ValueError("reversion requires zero constant term")
    c1 = k.terms.get(lin, CoeffV3.zero(p))
    if not (c1.v3part.is_zero() and c1.plain == PAdicScalar.from_int(p, 1, max(c1.plain.prec, 1))):
        raise ValueError("reversion requires linear coefficient 1")
    psi, w_dpsi = {}, {}
    for exp, c in k.plain_part().terms.items():
        if exp[i] == 0:
            raise ValueError(f"reversion requires {var} to divide every plain term")
        if exp != lin:
            e = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
            psi[e] = c
            if exp[i] > 1:
                w_dpsi[e] = c.mul_int(exp[i] - 1)
    psi = TruncatedSeries(k.vars, k.bounds, psi, p)
    w_dpsi = TruncatedSeries(k.vars, k.bounds, w_dpsi, p)
    k1 = k.v3_part()

    def up(exp: tuple[int, ...]) -> tuple[int, ...]:
        return exp[:i] + (exp[i] + 1,) + exp[i + 1 :]

    r0, r1 = [], []
    power = TruncatedSeries.one(p, k.vars, k.bounds, series_precision(k))
    m = 0
    while power.terms:
        # [w^j] feeds y^(j+1) of r0 and y^j of r1
        for exp, c in power.terms.items():
            r0.append((up(exp), c.mul_int(_neg_binomial(exp[i] + 1, m))))
        for exp, c in (w_dpsi * power).terms.items():
            r0.append((up(exp), c.mul_int(_neg_binomial(exp[i] + 2, m))))
        for exp, c in (k1 * power).terms.items():
            r1.append((exp, c.mul_int(-_neg_binomial(exp[i] + 1, m))))
        power = power * psi
        m += 1
    out = TruncatedSeries.from_terms(p, k.vars, k.bounds, r0)
    if r1:
        out = out + TruncatedSeries.from_terms(p, k.vars, k.bounds, r1).times_v3()
    return out


def _neg_binomial(n: int, m: int) -> int:
    """C(-n, m) = (-1)^m C(n+m-1, m)."""
    return (-1) ** m * math.comb(n + m - 1, m)


def divide_by_alpha_power(f: TruncatedSeries, m: int, var: str = "alpha") -> TruncatedSeries:
    """Exact division by var^m; every term must have var-exponent >= m."""
    if m < 0:
        raise ValueError("negative shift")
    i = f.index(var)
    out = {}
    for exp, c in f.terms.items():
        if exp[i] < m:
            raise ValueError(f"term with {var}-exponent {exp[i]} < {m}: not divisible")
        out[exp[:i] + (exp[i] - m,) + exp[i + 1 :]] = c
    return TruncatedSeries(f.vars, f.bounds, out, f.p)


# ---------------------------------------------------------------------------
# Normal form in R[[alpha]] / (p alpha - (p^(p^3-1) - 1) v3 alpha^(p^3))
# ---------------------------------------------------------------------------


class QuotientNormalForm(Immutable):
    """Canonical representative modulo the p-series of the target law.

    For alpha-degree >= 1 both components of each coefficient are reduced to
    {0, ..., p-1}; the rewriting rules are p*v3*alpha^k = 0 and
    p*c*alpha^k -> -c*v3*alpha^(k + p^3 - 1), iterated, then truncation at
    alpha^(p^3).  The constant term is kept at full precision.
    """

    __slots__ = ("p", "constant", "plain", "v3")

    def __init__(self, p: int, constant: CoeffV3, plain: dict[int, int], v3: dict[int, int]):
        _set_form_p(self, p)
        _set_form_constant(self, constant)
        _set_form_plain(self, plain)
        _set_form_v3(self, v3)

    def is_zero(self) -> bool:
        return self.constant.is_zero() and not self.plain and not self.v3

    def coefficient(self, k: int) -> CoeffV3:
        """Coefficient of alpha^k; for k >= 1 a mod-p representative."""
        if k == 0:
            return self.constant
        return CoeffV3(
            PAdicScalar.from_int(self.p, self.plain.get(k, 0), 1),
            PAdicScalar.from_int(self.p, self.v3.get(k, 0), 1),
        )

    def render(self) -> str:
        """Human-readable form with signed residues, e.g. '-v3 * alpha^104'."""
        if self.is_zero():
            return "0"
        items: list[tuple[bool, str]] = []
        if not self.constant.is_zero():
            items.append((False, repr(self.constant)))
        for k in sorted(set(self.plain) | set(self.v3)):
            for table, marker in ((self.plain, ""), (self.v3, "v3 * ")):
                r = table.get(k, 0)
                if r == 0:
                    continue
                signed = r if r <= (self.p - 1) // 2 else r - self.p
                coeff = "" if abs(signed) == 1 else f"{abs(signed)} * "
                items.append((signed < 0, f"{coeff}{marker}alpha^{k}"))
        out = ""
        for i, (neg, term) in enumerate(items):
            if i == 0:
                out = ("-" if neg else "") + term
            else:
                out += (" - " if neg else " + ") + term
        return out


_set_form_p = QuotientNormalForm.p.__set__
_set_form_constant = QuotientNormalForm.constant.__set__
_set_form_plain = QuotientNormalForm.plain.__set__
_set_form_v3 = QuotientNormalForm.v3.__set__


def quotient_normalize(f: TruncatedSeries) -> QuotientNormalForm:
    """Reduce an alpha-only series to its quotient normal form, truncated at
    alpha^(p^3).  Raises on any coefficient of negative valuation (the
    element would not be integral, which signals an upstream error).
    """
    p = f.p
    p3 = p**3
    ia = f.index("alpha")
    constant = CoeffV3.zero(p)
    plain: dict[int, int] = {}
    v3: dict[int, int] = {}
    for exp, c in f.terms.items():
        for j, e in enumerate(exp):
            if j != ia and e != 0:
                raise ValueError("quotient normal form requires an alpha-only series")
        k = exp[ia]
        if k == 0:
            constant = constant + c
            continue
        # the excess p * c1 * alpha^k of the plain part rewrites to
        # -c1 * v3 * alpha^(k+p3-1), which lies at or beyond alpha^p3 for
        # k >= 1 and is truncated; that of the v3 part is 0
        for name, part, table in (("plain", c.plain, plain), ("v3", c.v3part, v3)):
            if part.is_zero():
                continue
            if part.valuation < 0:
                raise ValueError(f"non-integral {name} coefficient at alpha^{k}")
            r = part.residue()
            if k < p3 and r:
                table[k] = (table.get(k, 0) + r) % p
                if table[k] == 0:
                    del table[k]
    return QuotientNormalForm(p, constant, plain, v3)
