import math
import time

import pytest

from powerops import cli, reports
from powerops.arith import prime_factors
from powerops.fgl import FormalGroupLaw, Logarithm
from powerops.powerop import (
    _angle_quotient,
    _g_by_formal_sums,
    _lift,
    _log_derivative_of,
    divide_by_series_power,
    f_coefficient,
    g_series,
    h_polynomial,
    k_series,
    power_operation_value,
    reduce_g_mod_p_series,
    run_pipeline,
    sigma_dl_coefficient,
)
from powerops.scalar import CoeffV3, PAdicScalar, primitive_teichmuller_root
from powerops.series import TruncatedSeries, divide_by_alpha_power, lagrange_invert, series_precision

K = 8


def _monomial(p, vars, bounds, exp, coeff):
    return TruncatedSeries.from_terms(p, vars, bounds, {exp: coeff})


@pytest.fixture(scope="module")
def trace3():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    return F, run_pipeline(F, p**2, p**3 + p * (p - 1) ** 2 + 1)


def test_g_series_structure(trace3):
    F, tr = trace3
    p = F.p
    g = tr.g
    # plain part is exactly chi*x + x^p = x^p - alpha^(p-1) x
    plain = g.plain_part()
    x = TruncatedSeries.variable(p, "x", g.vars, g.bounds, K)
    a = TruncatedSeries.variable(p, "alpha", g.vars, g.bounds, K)
    assert plain == x.pow(p) - a.pow(p - 1) * x
    # x^1 coefficient is chi exactly: the v3 correction cancels by the
    # vanishing of the root-of-unity sum
    c1 = g.coefficient("x", 1)
    assert all(c.v3part.is_zero() for c in c1.terms.values())
    # quotient reduction kills every v3 term: g = chi x + x^p + O(x^(p^2))
    assert reduce_g_mod_p_series(g) == plain


def test_g_series_additive_law():
    p = 3
    F = FormalGroupLaw.additive(p, K)
    g = g_series(F, 6, 10)
    x = TruncatedSeries.variable(p, "x", g.vars, g.bounds, K)
    a = TruncatedSeries.variable(p, "alpha", g.vars, g.bounds, K)
    assert g == x * (x.pow(p - 1) - a.pow(p - 1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_g_closed_form_matches_formal_sums(p):
    bounds = [
        # power_operation_value at i = 2 and i = p
        (p**2, p**3 + 2 * (p - 1) ** 2 + 1),
        (p**2, p**3 + p * (p - 1) ** 2 + 1),
        # _isogeny_derivative_check and _isogeny_log_additivity_check
        (p + 3, p**3 + 2 * (p + 2) * (p - 1) + 1),
        (2 * p + 4, p**3 + 4 * (p + 1) * (p - 1) + 1),
        # an alpha bound that cuts: alpha^(p^3-p) is the last slot kept
        (2 * p + 1, p**3 - p + 1),
    ]
    for F in (FormalGroupLaw.v3_truncated(p, K), FormalGroupLaw.additive(p, K)):
        for xb, ab in bounds:
            g, oracle = g_series(F, xb, ab), _g_by_formal_sums(F, xb, ab)
            assert g == oracle, (F.log, xb, ab)
            # exact integer coefficients keep all K digits; the formal sums keep at most K
            for c in g.terms.values():
                assert all(s.is_zero() or s.prec == K for s in (c.plain, c.v3part)), c


@pytest.mark.parametrize("p, least", [(3, 2), (5, 3)])
def test_formal_sums_oracle_from_its_least_precision(p, least):
    # binomial series powers under exp_of keep the digits the series ladder
    # cancelled to 0, so the oracle agrees from K = 2 at p = 3 and K = 3 at
    # p = 5, where it used to need K = 5 and 6
    bounds = (2 * p + 1, p**3 + p)
    for k in range(least, K + 1):
        F = FormalGroupLaw.v3_truncated(p, k)
        assert _g_by_formal_sums(F, *bounds) == g_series(F, *bounds), k


def test_formal_sums_oracle_coefficient_product_budget(monkeypatch):
    # the g oracle at p = 5 makes 291 coefficient products: a power of one
    # or two terms takes one product per base to fix its precision and one
    # per binomial index j > 0, and each coefficient power is a closed form
    # in p-adic scalars.  Squaring each base once for all j made 527, and a
    # binary_power ladder per j made 1 035.
    p = 5
    bounds = (2 * p + 1, p**3 + p)
    F = FormalGroupLaw.v3_truncated(p, K)
    calls = [0]
    mul = CoeffV3.__mul__

    def counting_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(CoeffV3, "__mul__", counting_mul)
    oracle = _g_by_formal_sums(F, *bounds)
    assert calls[0] == 291
    monkeypatch.undo()
    assert oracle == g_series(F, *bounds)


def test_g_series_rejects_out_of_scope_logarithm():
    # a v3 correction at x^2 breaks [w^i](alpha) = w^i alpha, since 2 != 1 mod 4
    p = 5
    v3_over_p = CoeffV3.from_v3(PAdicScalar(p, -1, 1, K))
    log = Logarithm(p, K, {1: CoeffV3.one(p, K), 2: v3_over_p})
    F = FormalGroupLaw(log, primitive_teichmuller_root(p, K))
    with pytest.raises(ValueError):
        g_series(F, p**2, p**3 + p)


def test_pipeline_never_takes_formal_sums(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("the pipeline called formal_sum")

    monkeypatch.setattr(FormalGroupLaw, "formal_sum", refuse)
    p = 5
    res = power_operation_value(FormalGroupLaw.v3_truncated(p, K), 2)
    assert res.value.v3 == {p**3 - 1 - 2 * (p - 1): (-(math.comb(2 * p, 2) // p)) % p}


def test_k_series_golden(trace3):
    F, tr = trace3
    p = F.p
    k = tr.k
    # k = y - alpha^((p-1)(p-2)) y^p + v3 corrections + O(y^(p^2))
    y = TruncatedSeries.variable(p, "y", k.vars, k.bounds, K)
    a = TruncatedSeries.variable(p, "alpha", k.vars, k.bounds, K)
    assert k.plain_part() == y - a.pow((p - 1) * (p - 2)) * y.pow(p)
    assert k.terms[(1,) + (0,) * (len(k.vars) - 1)] == CoeffV3.one(p, K)


@pytest.mark.parametrize("prec", [2, K])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_k_inverse_golden_and_roundtrip(p, prec):
    F = FormalGroupLaw.v3_truncated(p, prec)
    tr = run_pipeline(F, p**2, p**3 + p * (p - 1) ** 2 + 1)
    kinv = tr.k_inverse
    # plain part: the Fuss-Catalan numbers,
    # [y^(n(p-1)+1)] = C(np,n)/(n(p-1)+1) alpha^(n(p-2)(p-1)), at every n the y bound keeps
    iy = kinv.index("y")
    want = {}
    n = 1
    while n * (p - 1) + 1 < kinv.bounds[iy]:
        key = tuple(
            n * (p - 1) + 1 if v == "y" else n * (p - 2) * (p - 1) if v == "alpha" else 0
            for v in kinv.vars
        )
        want[key] = PAdicScalar.from_int(p, math.comb(n * p, n) // (n * (p - 1) + 1), prec)
        n += 1
    want[tuple(1 if v == "y" else 0 for v in kinv.vars)] = PAdicScalar.from_int(p, 1, prec)
    plain = kinv.plain_part()
    assert set(plain.terms) == set(want)
    for key, c in want.items():
        assert plain.terms[key].plain == c, key
    if prec < 3:
        # below three digits the composition itself is lossy: at p = 3 it
        # leaves 3^2 y^7 alpha^6 where the exact value is 0, because
        # PAdicScalar.__add__ maps cancellation to an exact zero
        return
    y = TruncatedSeries.variable(p, "y", kinv.vars, kinv.bounds, prec)
    assert tr.k.substitute("y", kinv) == y
    assert kinv.substitute("y", tr.k.with_bounds(kinv.bounds)) == y


def test_k_inverse_term_pair_budget(monkeypatch):
    # the pipeline k at p = 13, i = 13: psi is one monomial, so the reversion
    # costs about one single-term product per power of psi and per term of k1
    p = 13
    F = FormalGroupLaw.v3_truncated(p, K)
    ab = p**3 + p * (p - 1) ** 2 + 1
    k = k_series(g_series(F, p**2, ab), F.euler_class("alpha", ab))
    pairs = [0]
    mul = TruncatedSeries.__mul__

    def counting_mul(a, b):
        pairs[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    lagrange_invert(k, "y")
    assert 0 < pairs[0] <= 1000


def _items(f):
    """The terms of f in order, each coefficient as its digits."""
    return (f.vars, f.bounds, [
        (e, [(s.is_zero(), s.valuation, s.unit, s.prec) for s in (c.plain, c.v3part)])
        for e, c in f.terms.items()
    ])


def _divide_by_unit_series(f, chi, n):
    """f / chi^n for chi = alpha^d * (unit series), by the unit's inverse:
    the oracle of the closed-form divide_by_series_power."""
    i = chi.index("alpha")
    d = min(e[i] for e in chi.terms)
    unit = _lift(divide_by_alpha_power(chi, d), f.vars, f.bounds)
    return divide_by_alpha_power(f, n * d) * unit.pow(n).inverse()


def _k_by_substitution(g, chi):
    """g(chi*y, alpha) / chi^2 by substitution and series division: the
    oracle of the closed-form k_series."""
    xb, ab = g.bounds
    vars, bounds = ("x", "y", "alpha"), (xb, xb, ab)
    y = TruncatedSeries.variable(g.p, "y", vars, bounds, series_precision(g))
    chi3 = _lift(chi, vars, bounds)
    subbed = _lift(g, vars, bounds).substitute("x", chi3 * y)
    return _lift(_divide_by_unit_series(subbed, chi3, 2), ("y", "alpha"), (xb, ab))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_euler_class_equals_product_of_root_series(p):
    # the product of the [w^i](alpha) is the oracle of the closed-form chi
    for prec in (2, 3, 5, 8, 12):
        for F in (FormalGroupLaw.v3_truncated(p, prec), FormalGroupLaw.additive(p, prec)):
            for bound in (p**3 + p, p - 1, p):
                product = TruncatedSeries.one(p, ("alpha",), (bound,), prec)
                for i in range(1, p):
                    product = product * F.scalar_series(F.omega**i, "alpha", bound)
                assert _items(F.euler_class("alpha", bound)) == _items(product), (prec, bound)


@pytest.mark.parametrize(
    "p, precs",
    [(p, (2, 3, 5, 8, 12)) for p in (3, 5, 7, 11, 13)] + [(p, (2, 8)) for p in (17, 19, 23, 29, 31, 37)],
)
def test_k_series_equals_substitution(p, precs):
    # item for item, digits and order included: downstream p-adic sums
    # depend on the order of the terms
    bound_sets = (
        (p**2, p**3 + 2 * (p - 1) ** 2 + 1),  # power_operation_value at i = 2
        (p**2, p**3 + p * (p - 1) ** 2 + 1),  # and at i = p
        (p + 3, p**3 + 2 * (p + 2) * (p - 1) + 1),  # _isogeny_derivative_check
        (p**2, p**3 + 2 * (p - 1) ** 2 + 1 + 37),  # alpha headroom
    )
    for prec in precs:
        F = FormalGroupLaw.v3_truncated(p, prec)
        for xb, ab in bound_sets:
            g = g_series(F, xb, ab)
            chi = F.euler_class("alpha", ab)
            # g's terms reversed put the v3 terms before the plain ones
            rev = TruncatedSeries.from_terms(p, g.vars, g.bounds, reversed(g.terms.items()))
            for h in (g, rev):
                want = _k_by_substitution(h, chi)
                assert _items(k_series(h, chi)) == _items(want), (prec, xb, ab)
            k = k_series(g, chi)
            for n in range(4):
                # chi^n k, divisible by chi^n
                f = _lift(chi, k.vars, k.bounds).pow(n) * k
                want = _divide_by_unit_series(f, chi, n)
                assert _items(divide_by_series_power(f, chi, n)) == _items(want), (prec, xb, ab, n)


def test_k_series_rejects_chi_other_than_minus_alpha_power():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    ab = p**3 + p
    g = g_series(F, p**2, ab)
    chi = F.euler_class("alpha", ab)
    a = TruncatedSeries.variable(p, "alpha", ("alpha",), (ab,), K)
    # two terms; units 2, 1 and -1 - v3
    for bad in (chi + a.pow(p), chi.mul_int(2), -chi, chi + chi.times_v3()):
        with pytest.raises(ValueError, match="chi must be -alpha"):
            k_series(g, bad)


def test_chi_squared_k_equals_g_of_chi_y(trace3):
    F, tr = trace3
    p = F.p
    # recompute g(chi*y, alpha) and compare with chi^2 * k
    from powerops.powerop import _lift

    vars, bounds = ("x", "y", "alpha"), (tr.g.bounds[0], tr.g.bounds[0], tr.g.bounds[1])
    g3 = _lift(tr.g, vars, bounds)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    chi3 = _lift(tr.chi, vars, bounds)
    lhs = g3.substitute("x", chi3 * y)
    k3 = _lift(tr.k, vars, bounds)
    assert lhs == chi3 * chi3 * k3


def test_lift_drops_only_zero_exponents():
    from powerops.powerop import _lift

    p = 3
    vars, bounds = ("x", "alpha"), (4, 6)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    x = TruncatedSeries.variable(p, "x", vars, bounds, K)
    assert _lift(a.pow(2), ("alpha",), (6,)) == TruncatedSeries.variable(
        p, "alpha", ("alpha",), (6,), K
    ).pow(2)
    with pytest.raises(ValueError, match="projection would lose terms"):
        _lift(x * a, ("alpha",), (6,))
    # the reverse embedding fills the new variable with exponent 0
    assert _lift(_lift(a, ("alpha",), (6,)), ("y", "alpha"), (3, 6)).terms == {
        (0, 1): CoeffV3.one(p, K)
    }


def test_f_and_h_goldens(trace3):
    F, tr = trace3
    p = F.p
    for i in (2, p):
        n = i * (p - 1)
        f_n = f_coefficient(tr, n)
        key = (i * (p - 2) * (p - 1),)
        assert f_n.terms[key].plain == PAdicScalar.from_int(p, math.comb(i * p, i), K)
        h_n = h_polynomial(f_n, tr.angle_p, n)
        assert h_n.terms[key].plain == PAdicScalar.from_ratio(
            p, math.comb(i * p, i), p, K
        )
        # the defining congruence: f - h*<p> = 0 modulo alpha^(2n(p-1)+1)
        s = f_n - h_n * tr.angle_p
        cutoff = 2 * n * (p - 1)
        assert all(exp[0] > cutoff for exp in s.terms)


def test_f1_vanishes(trace3):
    # the y^1 coefficient of the generating product is 0: (k^(-1))' has no
    # y^1 term and the logarithm-derivative factor is 1 below the y bound
    F, tr = trace3
    assert f_coefficient(tr, 1).is_zero()


def test_h_polynomial_unit_case():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    angle = F.angle_p_series()
    h = h_polynomial(angle, angle, 1)
    one = TruncatedSeries.one(p, ("alpha",), angle.bounds, K)
    assert h == one


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_power_operation_values(p):
    F = FormalGroupLaw.v3_truncated(p, K)
    for i in (2, p):
        res = power_operation_value(F, i)
        exp = p**3 - 1 - i * (p - 1)
        want_coeff = (-(math.comb(i * p, i) // p)) % p
        assert res.value.plain == {}
        assert res.value.constant.is_zero()
        assert res.value.v3 == {exp: want_coeff}
        assert res.n == i * (p - 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sigma_dl_extraction(p):
    F = FormalGroupLaw.v3_truncated(p, K)
    res2 = power_operation_value(F, 2)
    c = sigma_dl_coefficient(res2, p * p + p - 1)
    assert c.v3part.residue() == 1 and c.plain.is_zero()
    resp = power_operation_value(F, p)
    c = sigma_dl_coefficient(resp, p * p + 1)
    assert c.v3part.residue() == p - 1 and c.plain.is_zero()
    # off-support indices give zero
    assert sigma_dl_coefficient(res2, 1).is_zero()
    with pytest.raises(ValueError):
        sigma_dl_coefficient(res2, p**3)


def test_degree_bookkeeping_and_general_coefficient():
    # every index i gives a single v3 term -C(ip,i)/p mod p at the exact
    # exponent p^3 - 1 - i(p-1)
    p = 5
    F = FormalGroupLaw.v3_truncated(p, K)
    for i in (2, 3, 4, 5):
        res = power_operation_value(F, i)
        exp = p**3 - 1 - i * (p - 1)
        assert res.value.v3 == {exp: (-(math.comb(i * p, i) // p)) % p}
        assert res.value.plain == {}


@pytest.mark.parametrize("p", [q for q in range(3, cli.MAX_PRIME + 1, 2) if prime_factors(q) == [q]])
def test_power_operation_value_on_every_accepted_input(p):
    # every (i, K) that `compute power-op --p p` accepts, at the least K and the default
    for precision in (2, 8):
        F = FormalGroupLaw.v3_truncated(p, precision)
        for i in range(2, p + 1):
            value = power_operation_value(F, i).value
            want = {p**3 - 1 - i * (p - 1): (-(math.comb(i * p, i) // p)) % p}
            assert (value.v3, value.plain, value.constant.is_zero()) == (want, {}, True), (i, precision)


def test_power_operation_rejects_bad_index():
    F = FormalGroupLaw.v3_truncated(3, K)
    with pytest.raises(ValueError):
        power_operation_value(F, 1)
    with pytest.raises(ValueError):
        power_operation_value(F, 4)


def test_power_operation_rejects_one_digit():
    # the value is C(ip, i)/p, so one digit leaves nothing after the division
    with pytest.raises(ValueError, match="precision"):
        power_operation_value(FormalGroupLaw.v3_truncated(3, 1), 2)
    assert power_operation_value(FormalGroupLaw.v3_truncated(3, 2), 2).value.v3 == {22: 1}


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37])
def test_precision_stability_large_primes(p):
    # the engine's own K = 8 vs K = 12 check, and the closed-form g oracle
    checks = {c.name: c.status for c in reports.suite_properties(p).checks}
    assert checks["precision_stability_K8_vs_K12"] == "pass"
    assert checks["g_closed_form_equals_formal_sums"] == "pass"


def test_runtimes_small_primes():
    for p in (3, 5):
        F = FormalGroupLaw.v3_truncated(p, K)
        t0 = time.perf_counter()
        power_operation_value(F, 2)
        assert time.perf_counter() - t0 < 1.0


# -- the isogeny identity ------------------------------------------------------
# The lifted coefficients psi_m of the additive total operation satisfy the
# isogeny identity; the pipeline needs none of this, so it lives here.


def _psi_coefficient_lift(trace, m):
    """Integral lift of the degree-2m coefficient of the additive total
    operation: (f_m - h_m * <p>) / chi^(2m), an exact division."""
    f_m = f_coefficient(trace, m)
    h_m = h_polynomial(f_m, trace.angle_p, m)
    s = f_m - h_m * trace.angle_p
    return divide_by_series_power(s, trace.chi, 2 * m)


def _is_integral(f):
    return all(c.plain.is_integral() and c.v3part.is_integral() for c in f.terms.values())


def _divisible_by_angle_p(f, angle):
    """f = q * <p>(alpha) with q integral."""
    quotient = _angle_quotient(f, angle)
    return _is_integral(quotient) and quotient * _lift(angle, f.vars, f.bounds) == f


def _isogeny_derivative_check(F):
    """g'(x,a) * L'(g(x,a)) = chi * (log)'(x) + h(x,a) * <p>(a) with h
    integral, where L'(z) = 1 + sum_m psi_m z^m.

    This is the derivative at 0 of the isogeny identity for the additive
    total operation, checked as exact divisibility with integral quotient.
    """
    p = F.p
    m_max = p + 2
    # every m up to the x bound can contribute through g^m, so the bound
    # must not exceed m_max + 1 or the truncated tail would pollute the check
    xb = m_max + 1
    ab = p**3 + 2 * m_max * (p - 1) + 1
    trace = run_pipeline(F, xb, ab)
    vars, bounds = trace.g.vars, trace.g.bounds
    gpad = trace.g.with_bounds(tuple(b + 1 if v == "x" else b for v, b in zip(vars, bounds)))
    dg = gpad.derivative("x")
    lifted_psi = TruncatedSeries.one(p, vars, bounds, F.prec)
    g_pow = TruncatedSeries.one(p, vars, bounds, F.prec)
    for m in range(1, m_max + 1):
        g_pow = g_pow * trace.g
        psi_m = _psi_coefficient_lift(trace, m)
        if not psi_m.is_zero():
            lifted_psi = lifted_psi + _lift(psi_m, vars, bounds) * g_pow
    x = TruncatedSeries.variable(p, "x", vars, bounds, F.prec)
    rhs = _lift(trace.chi, vars, bounds) * _log_derivative_of(F.log, x)
    return _divisible_by_angle_p(dg * lifted_psi - rhs, trace.angle_p)


def _isogeny_log_additivity_check(F):
    """L(g(x +_F y)) - L(g(x)) - L(g(y)) is divisible by <p>(a) with an
    integral quotient, for L(z) = z + sum_m psi_m z^(m+1)/(m+1).

    Applying L to the isogeny identity turns the twisted formal sum into an
    honest sum, so this checks the original two-variable identity."""
    p = F.p
    # the plain slot x^p of g must survive the lift; truncating it would
    # pollute the difference with junk that is not divisible by <p>
    xb = p + 2
    m_max = 2 * (xb - 1)
    ab = p**3 + 2 * m_max * (p - 1) + 1
    trace = run_pipeline(F, m_max + 2, ab)
    psi = {m: _psi_coefficient_lift(trace, m) for m in range(1, m_max + 1)}

    vars, bounds = ("x", "y", "alpha"), (xb, xb, ab)
    x = TruncatedSeries.variable(p, "x", vars, bounds, F.prec)
    y = TruncatedSeries.variable(p, "y", vars, bounds, F.prec)
    gx = _lift(trace.g, vars, bounds)
    gy = _lift(TruncatedSeries(("y", "alpha"), trace.g.bounds, trace.g.terms, p), vars, bounds)
    gX = gx.substitute("x", F.formal_sum(x, y))

    def big_log(w):
        out = w
        w_pow = w
        for m in range(1, m_max + 1):
            w_pow = w_pow * w
            if not psi[m].is_zero():
                coeff = PAdicScalar.from_ratio(p, 1, m + 1, F.prec)
                out = out + _lift(psi[m], vars, bounds).scale_scalar(coeff) * w_pow
        return out

    return _divisible_by_angle_p(big_log(gX) - big_log(gx) - big_log(gy), trace.angle_p)


@pytest.mark.parametrize("p", [3, 5])
def test_isogeny_derivative_form(p):
    F = FormalGroupLaw.v3_truncated(p, K)
    assert _isogeny_derivative_check(F)


def test_isogeny_two_variable_form_p3():
    F = FormalGroupLaw.v3_truncated(3, K)
    assert _isogeny_log_additivity_check(F)


def test_psi_lift_matches_low_degrees(trace3):
    # the degree-1 coefficient lift vanishes (the image of the degree-2
    # generator is 0 in the coefficient ring), the degree-0 one is 1
    F, tr = trace3
    assert _psi_coefficient_lift(tr, 1).is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_alpha_headroom_stability(p):
    # the final normal form is independent of extra alpha headroom
    F = FormalGroupLaw.v3_truncated(p, K)
    for i in (2, p):
        base = power_operation_value(F, i).value
        wide = power_operation_value(F, i, alpha_headroom=2 * p).value
        assert base == wide


def test_log_derivative_in_pipeline_takes_no_products(monkeypatch):
    # every term of w = chi k^(-1) has y-degree >= 1 and the y bound is p^2,
    # so the power w^(p^3 - 1) of (log)'(w) is cut to 0 by TruncatedSeries.pow
    from powerops import powerop

    p = 7
    calls, products, inside = [0], [0], [False]
    mul = TruncatedSeries.__mul__
    log_derivative = powerop._log_derivative_of

    def counting_mul(a, b):
        products[0] += inside[0]
        return mul(a, b)

    def watched(log, w):
        calls[0] += 1
        inside[0] = True
        try:
            return log_derivative(log, w)
        finally:
            inside[0] = False

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    monkeypatch.setattr(powerop, "_log_derivative_of", watched)
    res = power_operation_value(FormalGroupLaw.v3_truncated(p, K), 2)
    assert res.value.render() == "v3 * alpha^330"
    assert calls[0] == 1
    assert products[0] == 0


def test_pipeline_builds_angle_p_once(monkeypatch):
    # the law caches nothing, so h_n must reuse the <p> on the trace: one
    # <p>; chi and <p> are in closed form, so no scalar series is built
    p = 5
    counts = {"angle_p_series": 0, "scalar_series": 0}
    for name in counts:
        original = getattr(FormalGroupLaw, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(FormalGroupLaw, name, counting)
    res = power_operation_value(FormalGroupLaw.v3_truncated(p, K), 2)
    assert res.value.render() == "v3 * alpha^116"
    assert counts == {"angle_p_series": 1, "scalar_series": 0}


@pytest.mark.parametrize("degrees, first", [((0,), 0), ((3, 2), 2)])
def test_h_polynomial_names_first_non_integral_degree(degrees, first):
    # a unit alpha^j coefficient of f_n below the cut is not divisible by p
    p = 3
    angle = FormalGroupLaw.v3_truncated(p, K).angle_p_series()
    one = CoeffV3.one(p, K)
    f_n = TruncatedSeries.from_terms(p, ("alpha",), angle.bounds, {(j,): one for j in degrees})
    with pytest.raises(ArithmeticError, match=rf"alpha\^{first} coefficient is not divisible by p"):
        h_polynomial(f_n, angle, 1)


def test_h_polynomial_rejects_mismatched_alpha_bound(trace3):
    F, tr = trace3
    p = F.p
    f_n = f_coefficient(tr, 2 * (p - 1))
    with pytest.raises(ValueError, match="alpha bound"):
        h_polynomial(f_n, F.angle_p_series(), 2 * (p - 1))
