import random

import pytest

from powerops.fgl import FormalGroupLaw, Logarithm
from powerops.scalar import CoeffV3, PAdicScalar, primitive_teichmuller_root
from powerops.series import TruncatedSeries, divide_by_alpha_power

K = 8


def addition_series(F, x_bound, y_bound):
    """F(x, y) = exp(log x + log y), so F(x, 0) = x.

    The denominators introduced by the logarithm must cancel; a
    non-integral coefficient means the logarithm does not present a
    formal group law over the integral coefficient ring.
    """
    vars, bounds = ("x", "y"), (x_bound, y_bound)
    x = TruncatedSeries.variable(F.p, "x", vars, bounds, F.prec)
    y = TruncatedSeries.variable(F.p, "y", vars, bounds, F.prec)
    add = F.formal_sum(x, y)
    for exp, c in add.terms.items():
        if not (c.plain.is_integral() and c.v3part.is_integral()):
            raise ArithmeticError(f"non-integral coefficient at {exp}: wrong logarithm")
    return add


def test_additive_law_addition_series():
    F = FormalGroupLaw.additive(3, K)
    add = addition_series(F, 5, 5)
    vars, bounds = ("x", "y"), (5, 5)
    x = TruncatedSeries.variable(3, "x", vars, bounds, K)
    y = TruncatedSeries.variable(3, "y", vars, bounds, K)
    assert add == x + y


def test_target_law_addition_series_closed_form():
    # F = x + y + (v3/p)(x^(p^3) + y^(p^3) - (x+y)^(p^3)) at small x bound
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    xb, yb = 3, p**3 + 2
    add = addition_series(F, xb, yb)
    vars, bounds = ("x", "y"), (xb, yb)
    x = TruncatedSeries.variable(p, "x", vars, bounds, K)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    v3_over_p = CoeffV3.from_v3(PAdicScalar(p, -1, 1, K))
    closed = x + y + (
        x.pow(p**3) + y.pow(p**3) - (x + y).pow(p**3)
    ).scale(v3_over_p)
    assert add == closed
    # coefficient of x y^(p^3-1): -(v3/p) C(p^3, 1) = -p^2 v3
    c = add.terms[(1, p**3 - 1)]
    assert c.plain.is_zero()
    assert c.v3part == PAdicScalar.from_int(p, -(p * p), K)
    # all coefficients integral
    assert all(
        (t.plain.is_zero() or t.plain.valuation >= 0)
        and (t.v3part.is_zero() or t.v3part.valuation >= 0)
        for t in add.terms.values()
    )


def test_log_functional_equation():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    vars, bounds = ("x", "y"), (4, p**3 + 4)
    x = TruncatedSeries.variable(p, "x", vars, bounds, K)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    s = F.formal_sum(x, y)
    assert F.log.series(s) == F.log.series(x) + F.log.series(y)


def test_scalar_series_examples():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    b = p**3 + 2
    x = TruncatedSeries.variable(p, "x", ("x",), (b,), K)
    assert F.scalar_series(1, "x", b) == x
    # [w^i](x) = w^i x exactly for the p-typical target law
    for i in range(1, p):
        wi = F.omega**i
        assert F.scalar_series(wi, "x", b) == x.scale_scalar(wi)
    # [p](x) = px - (p^(p^3-1) - 1) v3 x^(p^3)
    ps = F.p_series("x", b)
    expected = x.mul_int(p) + x.pow(p**3).scale(
        CoeffV3.from_v3(PAdicScalar.from_int(p, 1 - p ** (p**3 - 1), K))
    )
    assert ps == expected


def test_angle_p_series():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    angle = F.angle_p_series()
    a = TruncatedSeries.variable(p, "alpha", ("alpha",), angle.bounds, K)
    expected = TruncatedSeries.one(p, ("alpha",), angle.bounds, K).mul_int(p) + a.pow(
        p**3 - 1
    ).scale(CoeffV3.from_v3(PAdicScalar.from_int(p, 1 - p ** (p**3 - 1), K)))
    assert angle == expected
    # <p> * alpha = [p](alpha)
    assert angle * a == F.p_series("alpha")
    assert FormalGroupLaw.additive(p, K).angle_p_series() == TruncatedSeries.one(
        p, ("alpha",), (p**3 + p,), K
    ).mul_int(p)


def _items(f):
    """The terms of f in order, each coefficient as its digits."""
    return (f.vars, f.bounds, [
        (e, [(s.is_zero(), s.valuation, s.unit, s.prec) for s in (c.plain, c.v3part)])
        for e, c in f.terms.items()
    ])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_angle_p_closed_form_equals_division_of_p_series(p):
    # item for item, digits and order included, against [p](alpha) / alpha
    # with [p] = exp(p log) built generically
    bounds = (
        None, 0, 1, 2, p**3 - 1, p**3, p**3 + p,
        p**3 + 2 * (p - 1) ** 2 + 1,  # power_operation_value at i = 2
        p**3 + p * (p - 1) ** 2 + 1,  # and at i = p
        p**3 + 2 * (p + 2) * (p - 1) + 1,  # the isogeny checks
    )
    for prec in (2, 3, 5, 8, 12):
        # a third law lists its terms out of order, one of them zero and one
        # known to more digits than the law
        m = CoeffV3.from_v3(PAdicScalar(p, 2, p - 1, prec + 3))
        mixed = {p**3: CoeffV3.from_v3(PAdicScalar(p, -1, 1, prec)), 1: CoeffV3.one(p, prec), 2 * p: m}
        mixed[3] = CoeffV3.zero(p)
        omega = primitive_teichmuller_root(p, prec)
        laws = (FormalGroupLaw.v3_truncated(p, prec), FormalGroupLaw.additive(p, prec))
        for F in laws + (FormalGroupLaw(Logarithm(p, prec, mixed), omega),):
            for bound in bounds + (3, 4, 2 * p, 2 * p + 1):
                generic = divide_by_alpha_power(F.p_series("alpha", bound), 1)
                assert _items(F.angle_p_series("alpha", bound)) == _items(generic), (prec, bound)


def test_angle_p_rejects_out_of_scope_logarithm():
    # the constructor refuses a plain part in m_n for n >= 2; one written into
    # the coefficients afterwards would make [p] and <p> leave the closed form,
    # so they are read-only, and a copy of the dict the caller passed
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    before = F.p_series("x", 6)
    with pytest.raises(TypeError):
        F.log.coeffs[2] = CoeffV3.one(p, K)
    assert F.p_series("x", 6) == before
    coeffs = {1: CoeffV3.one(p, K)}
    log = Logarithm(p, K, coeffs)
    coeffs[2] = CoeffV3.one(p, K)
    assert dict(log.coeffs) == {1: CoeffV3.one(p, K)}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_euler_class(p):
    F = FormalGroupLaw.v3_truncated(p, K)
    chi = F.euler_class()
    a = TruncatedSeries.variable(p, "alpha", ("alpha",), chi.bounds, K)
    assert chi == -a.pow(p - 1)
    # additive law with the same roots of unity gives the same product
    assert FormalGroupLaw.additive(p, K).euler_class() == -a.pow(p - 1)


def test_euler_class_rejects_out_of_scope_logarithm():
    # a v3 correction at x^2 breaks [w^i](alpha) = w^i alpha, since 2 != 1 mod 4;
    # the product of the [w^i](alpha) then has a v3 alpha^5 term
    p = 5
    log = Logarithm(p, K, {1: CoeffV3.one(p, K), 2: CoeffV3.from_v3(PAdicScalar(p, -1, 1, K))})
    F = FormalGroupLaw(log, primitive_teichmuller_root(p, K))
    with pytest.raises(ValueError, match="1 mod 4"):
        F.euler_class()


def test_explicit_bound_zero_is_not_the_default():
    # 0 is a bound like any other: the series is 0, cut at degree 0
    F = FormalGroupLaw.v3_truncated(3, K)
    series = (F.euler_class("alpha", 0), F.scalar_series(2, "alpha", 0), F.angle_p_series("alpha", 0))
    assert all(f.is_zero() and f.bounds == (0,) for f in series)
    assert F.euler_class().bounds == (3**3 + 3,)


def test_euler_class_p3_direct_product_oracle():
    # p=3: omega = 8 mod 3^K, chi = (omega a)(omega^2 a) = omega^3 a^2 = -a^2
    p, Kp = 3, 6
    w = primitive_teichmuller_root(p, Kp)
    prod = (w * w * w).unit
    assert prod % p**Kp == p**Kp - 1  # omega^3 = -1


def test_fgl_axioms_target_law():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    vars, bounds = ("x", "y", "z"), (4, 4, 4)
    x = TruncatedSeries.variable(p, "x", vars, bounds, K)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    z = TruncatedSeries.variable(p, "z", vars, bounds, K)
    zero = TruncatedSeries.zero(p, vars, bounds)
    assert F.formal_sum(x, zero) == x
    assert F.formal_sum(x, y) == F.formal_sum(y, x)
    assert F.formal_sum(F.formal_sum(x, y), z) == F.formal_sum(x, F.formal_sum(y, z))


def test_scalar_series_additive_in_scalar():
    p = 3
    F = FormalGroupLaw.v3_truncated(p, K)
    rng = random.Random(2)
    b = p**3 + 2
    for _ in range(4):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        lhs = F.scalar_series(m + n, "x", b)
        a1 = F.scalar_series(m, "x", b)
        a2 = F.scalar_series(n, "x", b)
        assert lhs == F.formal_sum(a1, a2)


def test_logarithm_requires_unit_linear_term():
    with pytest.raises(ValueError):
        Logarithm(3, K, {1: CoeffV3.from_int(3, 2, K)})


def test_logarithm_requires_v3_linear_higher_terms():
    # a coefficient of x^n (n >= 2) with a plain part is outside the
    # v3-linear shape the closed-form exponential rests on
    p = 3
    with pytest.raises(ValueError):
        Logarithm(p, K, {1: CoeffV3.one(p, K), 2: CoeffV3.from_plain(PAdicScalar.from_ratio(p, 1, p, K))})
    mixed = CoeffV3(PAdicScalar.from_int(p, 1, K), PAdicScalar.from_int(p, 1, K))
    with pytest.raises(ValueError):
        Logarithm(p, K, {1: CoeffV3.one(p, K), p**3: mixed})


def test_addition_series_flags_wrong_logarithm():
    # log x = x + (v3/p) x^2 gives F = x + y - (2 v3/p) x y, which is not a
    # law over the integral ring
    p = 3
    coeffs = {
        1: CoeffV3.one(p, K),
        2: CoeffV3.from_v3(PAdicScalar.from_ratio(p, 1, p, K)),
    }
    bad = FormalGroupLaw(Logarithm(p, K, coeffs), primitive_teichmuller_root(p, K))
    with pytest.raises(ArithmeticError):
        addition_series(bad, 4, 4)


@pytest.mark.parametrize("p", [3, 5])
def test_exp_log_round_trip_with_v3_terms(p):
    F = FormalGroupLaw.v3_truncated(p, K)
    vars, bounds = ("x", "y"), (3, p**3 + 2)
    x = TruncatedSeries.variable(p, "x", vars, bounds, K)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    v3_five = CoeffV3.from_v3(PAdicScalar.from_int(p, 5, K))
    u = x + y.mul_int(2) + (y * y).mul_int(p + 1) + (x * y).times_v3() + y.pow(3).scale(v3_five)
    exp_u = F.exp_of(u)
    assert exp_u != u  # the correction reaches y^(p^3) inside the bounds
    assert F.log.series(exp_u) == u
    assert F.exp_of(F.log.series(u)) == u


def test_log_composed_with_inverse_is_identity():
    p = 3
    log = Logarithm.v3_deformation(p, K)
    bound = p**3 + 4
    inv = log.inverse_series("z", ("z",), (bound,))
    assert log.series(inv) == TruncatedSeries.variable(p, "z", ("z",), (bound,), K)
    # the inverse of x + (v3/p) x^(p^3) is x - (v3/p) x^(p^3) exactly
    z = TruncatedSeries.variable(p, "z", ("z",), (bound,), K)
    v3_over_p = CoeffV3.from_v3(PAdicScalar(p, -1, 1, K))
    assert inv == z - z.pow(p**3).scale(v3_over_p)


def test_logarithm_rejects_exponents_below_one():
    # correction() sums only n >= 2, so an x^0 or x^(-2) term would be dropped
    p = 3
    v3 = CoeffV3.from_v3(PAdicScalar.from_int(p, 1, K))
    with pytest.raises(ValueError, match="x\\^0"):
        Logarithm(p, K, {1: CoeffV3.one(p, K), 0: v3})
    with pytest.raises(ValueError, match="x\\^-2"):
        Logarithm(p, K, {1: CoeffV3.one(p, K), -2: v3})


def test_law_is_its_logarithm_and_root_of_unity():
    F = FormalGroupLaw.v3_truncated(5, K)
    assert FormalGroupLaw.__slots__ == ("log", "omega")
    assert (F.p, F.prec) == (F.log.p, F.log.prec) == (5, K)
    assert F.omega == primitive_teichmuller_root(5, K)
    with pytest.raises(AttributeError):
        F.omega = F.omega
