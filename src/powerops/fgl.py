"""Formal group laws presented by their logarithms over Z_p[v3]/(v3^2).

Every logarithm here is v3-linear: log(x) = x + v3 * lambda(x), that is,
each coefficient of x^n with n >= 2 is a pure multiple of v3.  Because
v3^2 = 0, v3 * lambda(u) only sees the plain part u_0 of u, and the
exponential has the exact closed form

    exp(u) = u - v3 * lambda(u_0),

so no series reversion is needed (the standard logarithm/exponential
presentation, Hazewinkel, Formal Groups and Applications, 1978).

The target law has logarithm x + (v3/p) x^(p^3) (a p-typical logarithm with a
single correction term), so its p-series is

    p*x - (p^(p^3-1) - 1) * v3 * x^(p^3)

and, because p^3 = 1 mod (p-1), the (p-1)st roots of unity act linearly:
[w^i](x) = w^i * x.  The Euler class -alpha^(p-1) and <p>(x) = [p](x)/x =
p + sum_n m_n (p - p^n) x^(n-1) are in closed form; their generic forms are the
oracles in `reports.suite_powerop`.  The additive law is a second built-in.

A `FormalGroupLaw` is nothing but its logarithm and the Teichmuller lift w:
it caches nothing and stores no truncation bound.  Callers pass the bounds
of the series they want; a single-variable series left without one is cut
at degree p^3 + p.
"""

from __future__ import annotations

from types import MappingProxyType

from .arith import Immutable
from .scalar import DEFAULT_PRECISION, CoeffV3, PAdicScalar, primitive_teichmuller_root
from .series import TruncatedSeries

__all__ = ["Logarithm", "FormalGroupLaw"]


class Logarithm(Immutable):
    """Coefficients m_n of x^n with m_1 = 1 and m_n a multiple of v3 for
    n >= 2 (sparse; only nonzero entries).  `coeffs` is a read-only copy of
    the mapping given, so the checks made here keep holding."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, p: int, prec: int, coeffs: dict[int, CoeffV3]):
        if coeffs.get(1) != CoeffV3.one(p, prec):
            raise ValueError("a logarithm must have linear coefficient 1")
        for n, c in coeffs.items():
            if n < 1:
                raise ValueError(f"a logarithm has no x^{n} term: exponents start at 1")
            if n >= 2 and not c.plain.is_zero():
                raise ValueError(f"coefficient of x^{n} must be a multiple of v3")
        _set_log_p(self, p)
        _set_log_prec(self, prec)
        _set_log_coeffs(self, MappingProxyType(dict(coeffs)))

    @classmethod
    def additive(cls, p: int, prec: int = DEFAULT_PRECISION) -> "Logarithm":
        return cls(p, prec, {1: CoeffV3.one(p, prec)})

    @classmethod
    def v3_deformation(cls, p: int, prec: int = DEFAULT_PRECISION) -> "Logarithm":
        """x + (v3/p) x^(p^3), the logarithm of the target law."""
        v3_over_p = CoeffV3.from_v3(PAdicScalar(p, -1, 1, prec))
        return cls(p, prec, {1: CoeffV3.one(p, prec), p**3: v3_over_p})

    def correction(self, f: TruncatedSeries) -> TruncatedSeries:
        """sum_{n>=2} m_n f^n = log(f) - f, the v3 * lambda(f) term."""
        out = TruncatedSeries.zero(f.p, f.vars, f.bounds)
        for n in sorted(self.coeffs):
            if n >= 2:
                out = out + f.pow(n).scale(self.coeffs[n])
        return out

    def series(self, f: TruncatedSeries) -> TruncatedSeries:
        """Apply the logarithm to a series with zero constant term."""
        if not f.constant_term().is_zero():
            raise ValueError("logarithm needs zero constant term")
        return f + self.correction(f)

    def inverse_series(self, var: str, vars: tuple[str, ...], bounds: tuple[int, ...]) -> TruncatedSeries:
        """exp = log^(-1), that is z - v3 * lambda(z) for z = `var`, to the given bounds."""
        z = TruncatedSeries.variable(self.p, var, vars, bounds, self.prec)
        return z - self.correction(z)


_set_log_p = Logarithm.p.__set__
_set_log_prec = Logarithm.prec.__set__
_set_log_coeffs = Logarithm.coeffs.__set__


class FormalGroupLaw(Immutable):
    """The formal group law with logarithm `log`, on which the (p-1)st roots of
    unity act through the Teichmuller lift `omega` of a primitive root; p and
    the precision are the logarithm's (see the module docstring for bounds)."""

    __slots__ = ("log", "omega")

    def __init__(self, log: Logarithm, omega: PAdicScalar):
        _set_law_log(self, log)
        _set_law_omega(self, omega)

    @property
    def p(self) -> int:
        return self.log.p

    @property
    def prec(self) -> int:
        return self.log.prec

    @classmethod
    def v3_truncated(cls, p: int, prec: int = DEFAULT_PRECISION) -> "FormalGroupLaw":
        return cls(Logarithm.v3_deformation(p, prec), primitive_teichmuller_root(p, prec))

    @classmethod
    def additive(cls, p: int, prec: int = DEFAULT_PRECISION) -> "FormalGroupLaw":
        return cls(Logarithm.additive(p, prec), primitive_teichmuller_root(p, prec))

    def _bound(self, bound: int | None) -> int:
        return self.p**3 + self.p if bound is None else bound

    # -- helpers -------------------------------------------------------------

    def exp_of(self, u: TruncatedSeries) -> TruncatedSeries:
        """Evaluate log^(-1) on a series with zero constant term:
        exp(u) = u - v3 * lambda(u_0), exact because v3^2 = 0."""
        if not u.constant_term().is_zero():
            raise ValueError("exponential needs zero constant term")
        return u - self.log.correction(u.plain_part())

    def formal_sum(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        """a +_F b = exp(log(a) + log(b)) for series with zero constant term."""
        return self.exp_of(self.log.series(a) + self.log.series(b))

    # -- the named series ------------------------------------------------------

    def scalar_series(
        self,
        c: PAdicScalar | int,
        var: str = "x",
        bound: int | None = None,
    ) -> TruncatedSeries:
        """[c](x) = exp(c * log(x)); an integer c gives the usual n-series."""
        if isinstance(c, int):
            c = PAdicScalar.from_int(self.p, c, self.prec)
        x = TruncatedSeries.variable(self.p, var, (var,), (self._bound(bound),), self.prec)
        return self.exp_of(self.log.series(x).scale_scalar(c))

    def p_series(self, var: str = "alpha", bound: int | None = None) -> TruncatedSeries:
        return self.scalar_series(self.p, var, bound)

    def angle_p_series(self, var: str = "alpha", bound: int | None = None) -> TruncatedSeries:
        """<p>(x) = [p](x) / x = p + sum_{n>=2} m_n (p - p^n) x^(n-1), in closed form, since
        [p](x) = exp(p log x) = p log x - v3 lambda(p x).  x^(n-1) is kept for n < bound, as
        [p](x) is cut there before the division; a plain part in an m_n raises ValueError."""
        p, prec, bound = self.p, self.prec, self._bound(bound)
        terms = {(0,): CoeffV3.from_int(p, p, prec)} if bound > 1 else {}
        for n, m in sorted(self.log.coeffs.items()):
            if n >= 2 and not m.plain.is_zero():
                raise ValueError("closed-form <p> needs a v3-linear logarithm")
            if 2 <= n < bound and not m.is_zero():
                p_minus_pn = PAdicScalar(p, 1, (1 - pow(p, n - 1, p**prec)) % p**prec, prec)
                terms[n - 1,] = CoeffV3.from_v3(m.v3part * p_minus_pn)
        return TruncatedSeries((var,), (bound,), terms, p)

    def euler_class(self, var: str = "alpha", bound: int | None = None) -> TruncatedSeries:
        """prod_{i=1}^{p-1} [w^i](alpha) = w^(p(p-1)/2) alpha^(p-1) = -alpha^(p-1), the Euler
        class of the reduced regular representation of the order-p cyclic group; exact since
        [w^i](alpha) = w^i alpha when every log degree is 1 mod (p-1), else ValueError."""
        if any((n - 1) % (self.p - 1) for n in self.log.coeffs):
            raise ValueError(f"closed-form chi needs log degrees = 1 mod {self.p - 1}")
        minus_one = CoeffV3.from_int(self.p, -1, self.prec)
        return TruncatedSeries.from_terms(self.p, (var,), (self._bound(bound),), {(self.p - 1,): minus_one})


_set_law_log = FormalGroupLaw.log.__set__
_set_law_omega = FormalGroupLaw.omega.__set__
