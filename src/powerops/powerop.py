"""The power-operation pipeline over Z_p[v3]/(v3^2).

Given the target formal group law F with Euler class chi = -alpha^(p-1),
the value of the total power operation on the degree-2n generator class is
recovered, after multiplying by chi^n, from the chain

    g(x, alpha) = x * prod_{i=1}^{p-1} (x +_F [w^i](alpha))
    g(chi*y, alpha) = chi^2 * k(y, alpha)
    f_n(alpha)   = [y^n] (log_F)'(chi * k^(-1)(y, alpha)) * (k^(-1))'(y, alpha)
    h_n solves   f_n - h_n * <p>(alpha) = 0  modulo (chi^(2n) * alpha)
    value        = (f_n - h_n * <p>(alpha)) / chi^n,  normalized in
                   R[[alpha]] / ([p](alpha), alpha^(p^3)).

Every stage is kept on the trace so the intermediate golden values can be
checked exactly.  The module holds only what the power-operation value
needs; the isogeny identity that the lifted coefficients (f_m - h_m <p>) /
chi^(2m) satisfy is checked in the tests, from the same trace.

The chi, g and k stages are closed forms, exact for a v3-linear logarithm
whose degrees are all 1 mod (p-1); other inputs raise ValueError.  Their
generic routes are kept only as oracles: the product of the [w^i](alpha) in
the powerop suite, `_g_by_formal_sums` in the property suite, and the
substitution x = chi*y, which only renames monomials, in the tests.

The alpha bound is widened per run: the surviving term sits at
alpha^(p^3 - 1 + i(p-2)(p-1)) before the division by chi^(i(p-1)), which is
beyond p^3 + p for every i >= 2.
"""

from __future__ import annotations

from .arith import Record
from .fgl import FormalGroupLaw, Logarithm
from .scalar import CoeffV3, PAdicScalar
from .series import (
    TruncatedSeries,
    divide_by_alpha_power,
    lagrange_invert,
    quotient_normalize,
    series_precision,
)

__all__ = [
    "PipelineTrace",
    "PowerOpResult",
    "g_series",
    "k_series",
    "run_pipeline",
    "f_coefficient",
    "h_polynomial",
    "power_operation_value",
    "sigma_dl_coefficient",
    "reduce_g_mod_p_series",
    "divide_by_series_power",
]


def _lift(f: TruncatedSeries, vars: tuple[str, ...], bounds: tuple[int, ...]) -> TruncatedSeries:
    """f re-embedded in the variable tuple `vars` at `bounds`.  A variable of
    f missing from `vars` is dropped; a term where it has a nonzero exponent
    raises ValueError."""
    pos = [f.vars.index(v) if v in f.vars else None for v in vars]
    drop = [j for j, v in enumerate(f.vars) if v not in vars]
    terms = []
    for exp, c in f.terms.items():
        if any(exp[j] for j in drop):
            raise ValueError("projection would lose terms")
        terms.append((tuple(0 if j is None else exp[j] for j in pos), c))
    return TruncatedSeries.from_terms(f.p, vars, bounds, terms)


def _chi_degree(chi: TruncatedSeries) -> int:
    """d for chi = -alpha^d; any other chi raises ValueError."""
    if chi.vars == ("alpha",) and len(chi.terms) == 1:
        ((d,), u), = chi.terms.items()
        if u.v3part.is_zero() and u.plain == -1:
            return d
    raise ValueError(f"chi must be -alpha^d, got {chi!r}")


def divide_by_series_power(f: TruncatedSeries, chi: TruncatedSeries, n: int) -> TruncatedSeries:
    """Exact division f / chi^n for chi = -alpha^d; any other chi raises ValueError."""
    out = divide_by_alpha_power(f, n * _chi_degree(chi))
    return -out if n % 2 else out


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

STAGE_FORMULAS = {
    "chi": "chi = prod_{i=1}^{p-1} [w^i](alpha) = -alpha^(p-1)",
    "angle_p": "<p>(alpha) = [p](alpha) / alpha",
    "g": "g(x, alpha) = x * prod_{i=1}^{p-1} (x +_F [w^i](alpha))",
    "k": "g(chi*y, alpha) = chi^2 * k(y, alpha)",
    "k_inverse": "k(k^(-1)(y, alpha), alpha) = y",
    "f_n": "f_n = [y^n] (log)'(chi * k^(-1)) * (k^(-1))'",
    "h_n": "f_n - h_n * <p>(alpha) = (generator)^p  mod (chi^(2n) * alpha)",
}


def g_series(F: FormalGroupLaw, x_bound: int, alpha_bound: int) -> TruncatedSeries:
    """g = x * prod_i (x +_F [w^i](alpha)) in variables (x, alpha), in closed form.

    For log x = x + sum_n m_n x^n with every m_n a multiple of v3 and every
    n = 1 (mod p-1), [w^i](alpha) = w^i alpha, the product of the plain
    factors is x^(p-1) - alpha^(p-1), v3^2 = 0 makes the v3 part a sum over
    i, and sum_i w^(im) = (p-1) [p-1 | m] leaves

        g = x^p - x alpha^(p-1)
            - (p-1) sum_n m_n sum (-1)^k C(n, j) x^(j+p-1-k) alpha^(n-j+k)

    over 1 <= j < n, 0 <= k <= p-2, j - k = 1 (mod p-1), cut at the
    bounds.  Each j fixes k, so one walk over j carries C(n, j) by
    C(n, j) = C(n, j-1) (n-j+1) / j.  Each coefficient is summed as an
    exact integer and embedded by one multiplication with the v3 part of
    m_n.  Any other logarithm raises ValueError; `_g_by_formal_sums` is the
    generic product, kept as the oracle of this closed form.
    """
    p = F.p
    one = CoeffV3.one(p, F.prec)
    terms = [((p, 0), one), ((1, p - 1), -one)]
    for n, m in sorted(F.log.coeffs.items()):
        if n == 1:
            continue
        if (n - 1) % (p - 1):
            raise ValueError(f"closed-form g needs log degrees = 1 mod {p - 1}, got x^{n}")
        sums: dict[tuple[int, int], int] = {}
        binom = 1
        # the x degree j+p-1-k is at least j+1, so no j >= x_bound survives
        for j in range(1, min(n, x_bound)):
            binom = binom * (n - j + 1) // j
            k = (j - 1) % (p - 1)
            e = (j + p - 1 - k, n - j + k)
            if e[0] < x_bound and e[1] < alpha_bound:
                sums[e] = sums.get(e, 0) + (-binom if k % 2 else binom)
        for e, s in sums.items():
            c = PAdicScalar.from_int(p, -(p - 1) * s, F.prec) * m.v3part
            terms.append((e, CoeffV3.from_v3(c)))
    return TruncatedSeries.from_terms(p, ("x", "alpha"), (x_bound, alpha_bound), terms)


def _g_by_formal_sums(F: FormalGroupLaw, x_bound: int, alpha_bound: int) -> TruncatedSeries:
    """x * prod_i (x +_F [w^i](alpha)) by generic formal sums: the oracle of
    `g_series`, valid for any logarithm."""
    vars, bounds = ("x", "alpha"), (x_bound, alpha_bound)
    x = TruncatedSeries.variable(F.p, "x", vars, bounds, F.prec)
    out = x
    for i in range(1, F.p):
        w = F.scalar_series(F.omega**i, "alpha", alpha_bound)
        out = out * F.formal_sum(x, _lift(w, vars, bounds))
    return out


def k_series(g: TruncatedSeries, chi: TruncatedSeries) -> TruncatedSeries:
    """k(y, alpha) = g(chi*y, alpha) / chi^2 for chi = -alpha^d, in closed form: c x^a alpha^b
    becomes (-1)^a c y^a alpha^(b+(a-2)d), cut where b + ad reaches the alpha bound, in the
    substitution's order, on which p-adic sums depend: plain, then pure v3 terms, by y degree."""
    d = _chi_degree(chi)
    ix, ia = g.index("x"), g.index("alpha")
    terms = {}
    for e, c in sorted(g.terms.items(), key=lambda t: (t[1].plain.is_zero(), t[0][ix])):
        a, b = e[ix], e[ia] + (e[ix] - 2) * d
        if b + 2 * d < g.bounds[ia]:
            if b < 0:
                raise ValueError(f"g(chi*y) is not divisible by chi^2 at alpha^{b + 2 * d}")
            terms[a, b] = -c if a % 2 else c
    return TruncatedSeries(("y", "alpha"), (g.bounds[ix], g.bounds[ia]), terms, g.p)


class PipelineTrace(Record):
    """All intermediate series of one pipeline run; `STAGE_FORMULAS` labels
    each stage.  `run_pipeline` leaves f_n and h_n None, and
    `power_operation_value` fills them in."""

    __slots__ = ("p", "chi", "angle_p", "g", "k", "k_inverse", "ell_prime_term", "f_source", "f_n", "h_n")


def run_pipeline(F: FormalGroupLaw, x_bound: int, alpha_bound: int) -> PipelineTrace:
    """Compute every stage up to (log)'(chi k^(-1)) * (k^(-1))'."""
    chi = F.euler_class("alpha", alpha_bound)
    angle = F.angle_p_series("alpha", alpha_bound)
    g = g_series(F, x_bound, alpha_bound)
    k = k_series(g, chi)
    kinv = lagrange_invert(k, "y")
    chik = _lift(chi, kinv.vars, kinv.bounds) * kinv
    ell_prime = _log_derivative_of(F.log, chik)
    # the logarithm derivative only contributes beyond y^(p^3 - 1), which is
    # past the y bound; assert it rather than assuming it, so that the source
    # of f_n is (k^(-1))' alone
    one = TruncatedSeries.one(F.p, ell_prime.vars, ell_prime.bounds, F.prec)
    if not (ell_prime - one).is_zero():
        raise ArithmeticError("(log)'(chi k^(-1)) contributed below the y bound")
    dkinv = kinv.with_bounds(
        tuple(b + 1 if v == "y" else b for v, b in zip(kinv.vars, kinv.bounds))
    ).derivative("y")
    return PipelineTrace(F.p, chi, angle, g, k, kinv, ell_prime, dkinv, None, None)


def _log_derivative_of(log: Logarithm, w: TruncatedSeries) -> TruncatedSeries:
    """(log)'(w) = sum_n n * m_n * w^(n-1)."""
    out = TruncatedSeries.one(w.p, w.vars, w.bounds, log.prec)
    for n, c in log.coeffs.items():
        if n == 1:
            continue
        out = out + w.pow(n - 1).scale(c.mul_int(n))
    return out


def f_coefficient(trace: PipelineTrace, n: int) -> TruncatedSeries:
    """The coefficient of y^n in (log)'(chi k^(-1)) * (k^(-1))', in alpha only."""
    prod = trace.f_source
    return _lift(prod.coefficient("y", n), ("alpha",), (prod.bounds[prod.index("alpha")],))


def h_polynomial(f_n: TruncatedSeries, angle: TruncatedSeries, n: int) -> TruncatedSeries:
    """Unique h with f_n - h * <p>(alpha) = 0 modulo (chi^(2n) alpha), for
    <p> = `angle` in alpha alone, at the alpha bound of f_n.

    The target is 0 because the p-th power of every positive-degree
    generator vanishes in the coefficient ring.  The ideal is the truncation
    at alpha^(2n(p-1)+1), so h is the quotient f_n / <p> cut there; it
    must be integral, and the first alpha degree where it is not raises
    ArithmeticError.
    """
    if angle.bounds != f_n.bounds:
        raise ValueError(f"<p> has alpha bound {angle.bounds}, f_n has {f_n.bounds}")
    cut = min(2 * n * (f_n.p - 1) + 1, f_n.bounds[0])
    h = _angle_quotient(f_n.with_bounds((cut,)), angle)
    for (j,), c in sorted(h.terms.items()):
        if not (c.plain.is_integral() and c.v3part.is_integral()):
            raise ArithmeticError(
                f"congruence unsolvable: alpha^{j} coefficient is not divisible by p"
            )
    # back at the bound of f_n, so that h * <p> is not cut at the ideal
    return TruncatedSeries(f_n.vars, f_n.bounds, h.terms, f_n.p)


class PowerOpResult(Record):
    """Normalized value of chi^n * (power operation on the 2n-class)."""

    __slots__ = ("n", "value", "trace")


def power_operation_value(
    F: FormalGroupLaw, i: int, alpha_headroom: int = 0
) -> PowerOpResult:
    """The normalized value for the generator class in degree 2*i*(p-1).

    For the target law the answer is a single v3 term at
    alpha^(p^3 - 1 - i(p-1)) with mod-p coefficient -C(ip, i)/p.  The
    working alpha bound covers the division by chi^(i(p-1)); extra headroom
    must not change the answer (tested).
    """
    p = F.p
    if not 2 <= i <= p:
        raise ValueError("i must lie in 2..p")
    # the extracted coefficient is C(ip, i)/p: dividing by p needs a second digit
    if F.prec < 2:
        raise ValueError(f"precision must be at least 2, got {F.prec}")
    n = i * (p - 1)
    x_bound = p**2
    alpha_bound = p**3 + i * (p - 1) ** 2 + 1 + alpha_headroom
    trace = run_pipeline(F, x_bound, alpha_bound)
    f_n = f_coefficient(trace, n)
    h_n = h_polynomial(f_n, trace.angle_p, n)
    trace.f_n = f_n
    trace.h_n = h_n
    s = f_n - h_n * trace.angle_p
    shifted = divide_by_series_power(s, trace.chi, n)
    return PowerOpResult(n, quotient_normalize(shifted), trace)


def sigma_dl_coefficient(res: PowerOpResult, k: int) -> CoeffV3:
    """Coefficient c_{k(p-1)}; its v3 part mod p is the indecomposable witness."""
    p = res.value.p
    idx = k * (p - 1)
    if idx >= p**3:
        raise ValueError(f"index {idx} is outside the alpha^(p^3) window")
    return res.value.coefficient(idx)


def _angle_quotient(f: TruncatedSeries, angle: TruncatedSeries) -> TruncatedSeries:
    """f / <p> at the bounds of f, as (f / (<p>/p)) / p: <p>/p is 1 plus a
    v3 part, so its inverse is closed-form.  Coefficients may be rational;
    the caller decides whether the quotient must be integral."""
    p_inv = PAdicScalar.from_ratio(f.p, 1, f.p, series_precision(angle))
    unit = _lift(angle, f.vars, f.bounds).scale_scalar(p_inv)
    return (f * unit.inverse()).scale_scalar(p_inv)


def reduce_g_mod_p_series(g: TruncatedSeries) -> TruncatedSeries:
    """Reduce g using p*v3*alpha^k = 0 (k >= 1), the only relation visible here.

    Raises if a v3 term with positive alpha degree has a unit coefficient;
    in that case the display-level reduction would not be well defined.
    """
    p = g.p
    ia = g.index("alpha")
    out = {}
    for exp, c in g.terms.items():
        if exp[ia] >= 1 and not c.v3part.is_zero():
            if c.v3part.valuation < 1:
                raise ArithmeticError("v3 term with unit coefficient survives reduction")
            c = CoeffV3.from_plain(c.plain)
        if not c.is_zero():
            out[exp] = c
    return TruncatedSeries.from_terms(p, g.vars, g.bounds, out)
