import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from powerops.arith import binary_power
from powerops.scalar import CoeffV3, PAdicScalar
from powerops.series import (
    TruncatedSeries,
    _substitute_plain,
    divide_by_alpha_power,
    lagrange_invert,
    quotient_normalize,
    series_precision,
)

P = 3
K = 8


def var(name, vars=("x", "alpha"), bounds=(10, 12), p=P):
    return TruncatedSeries.variable(p, name, vars, bounds, K)


def const(c, vars=("x", "alpha"), bounds=(10, 12), p=P):
    return TruncatedSeries.constant(p, CoeffV3.from_int(p, c, K), vars, bounds)


def test_mul_examples():
    x, a = var("x"), var("alpha")
    assert (x * a).terms == {(1, 1): CoeffV3.one(P, K)}
    # (x^(p-1) - alpha^(p-1)) * x = x^p - alpha^(p-1) x
    lhs = (x.pow(P - 1) - a.pow(P - 1)) * x
    assert lhs == x.pow(P) - a.pow(P - 1) * x
    f = x * a + x.pow(2) * const(2)
    assert (f - f).is_zero()


def test_bounds_truncate_and_merge():
    x = var("x", bounds=(3, 5))
    assert x.pow(3).is_zero()
    y = var("x", bounds=(5, 5))
    prod = x * y  # min bound applies
    assert prod.bounds == (3, 5)


def test_compose_identity_and_linear():
    vars, bounds = ("y", "alpha"), (8, 8)
    y = TruncatedSeries.variable(P, "y", vars, bounds, K)
    f = y + y.pow(2)
    assert f.substitute("y", y) == f
    two_y = y.mul_int(2)
    assert f.substitute("y", two_y) == two_y + two_y.pow(2)


def test_derivative_examples():
    p = 3
    vars, bounds = ("x",), (p**3 + 2,)
    x = TruncatedSeries.variable(p, "x", vars, bounds, K)
    v3_over_p = CoeffV3.from_v3(PAdicScalar(p, -1, 1, K))
    ell = x + x.pow(p**3).scale(v3_over_p)
    d = ell.derivative("x")
    # derivative of x + (v3/p) x^(p^3) is 1 + p^2 v3 x^(p^3 - 1)
    expected = TruncatedSeries.from_terms(
        p,
        vars,
        (p**3 + 1,),
        {
            (0,): CoeffV3.one(p, K),
            (p**3 - 1,): CoeffV3.from_v3(PAdicScalar.from_int(p, p * p, K)),
        },
    )
    assert d == expected
    xa = TruncatedSeries.variable(p, "x", ("x", "alpha"), (6, 6), K)
    al = TruncatedSeries.variable(p, "alpha", ("x", "alpha"), (6, 6), K)
    assert al.pow(4).derivative("x").is_zero()
    assert (xa * al).derivative("x") == al.with_bounds((5, 6))


def test_derivative_leibniz_random():
    rng = random.Random(7)
    vars, bounds = ("x", "alpha"), (7, 7)
    for _ in range(10):
        f = TruncatedSeries.from_terms(
            P, vars, bounds,
            {(rng.randrange(6), rng.randrange(6)): CoeffV3.from_int(P, rng.randrange(1, 9), K)
             for _ in range(4)},
        )
        g = TruncatedSeries.from_terms(
            P, vars, bounds,
            {(rng.randrange(6), rng.randrange(6)): CoeffV3.from_int(P, rng.randrange(1, 9), K)
             for _ in range(4)},
        )
        fp = f.with_bounds((8, 7)).derivative("x")
        gp = g.with_bounds((8, 7)).derivative("x")
        lhs = (f.with_bounds((8, 7)) * g.with_bounds((8, 7))).derivative("x")
        rhs = fp * g + f * gp
        assert lhs == rhs.with_bounds(lhs.bounds)


def _revert_oracle(coeffs: dict[int, Fraction], order: int) -> list[Fraction]:
    """Residue-formula reversion oracle over exact rationals:

        [y^n] k^(-1) = (1/n) [y^(n-1)] (y / k(y))^n

    with y/k(y) inverted term by term; it shares no code with the package's
    p-adic series."""

    def mul(a, b):
        out = [Fraction(0)] * order
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j < order:
                    out[i + j] += x * y
        return out

    # y / k(y) = 1 / (1 + c_2 y + c_3 y^2 + ...)
    denom = [Fraction(0)] * order
    denom[0] = Fraction(1)
    for n, c in coeffs.items():
        if n >= 2 and n - 1 < order:
            denom[n - 1] = Fraction(c)
    inv = [Fraction(0)] * order
    inv[0] = Fraction(1)
    for m in range(1, order):
        inv[m] = -sum(denom[j] * inv[m - j] for j in range(1, m + 1))
    out = [Fraction(0), Fraction(1)]
    power = inv[:]  # (y/k)^1
    for n in range(2, order):
        power = mul(power, inv)
        out.append(Fraction(power[n - 1], n))
    return out


def test_lagrange_invert_pinned_example():
    # p=3, chi = -alpha^2: the inverse of y - chi y^3 is
    # y + chi y^3 + 3 chi^2 y^5 + 12 chi^3 y^7 + O(y^9)
    p = 3
    vars, bounds = ("y", "alpha"), (9, 9)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    alpha = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    chi = -alpha.pow(2)
    k = y - chi * y.pow(3)
    inv = lagrange_invert(k, "y")
    expected = y + chi * y.pow(3) + (chi * chi * y.pow(5)).mul_int(3) + (
        chi.pow(3) * y.pow(7)
    ).mul_int(12)
    assert inv == expected
    # round trips both ways
    yb = TruncatedSeries.variable(p, "y", vars, inv.bounds, K)
    assert k.substitute("y", inv) == yb
    assert inv.substitute("y", k.with_bounds(inv.bounds)) == yb


def test_lagrange_invert_residue_formula_oracle():
    # single-variable random series against the exact rational oracle
    rng = random.Random(11)
    p, order = 5, 9
    coeffs = {n: rng.randrange(0, 7) for n in range(2, 6)}
    oracle = _revert_oracle({n: Fraction(c) for n, c in coeffs.items()}, order)
    vars, bounds = ("y",), (order,)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    k = y
    for n, c in coeffs.items():
        k = k + y.pow(n).mul_int(c)
    inv = lagrange_invert(k, "y")
    for n in range(1, order):
        got = inv.terms.get((n,), CoeffV3.zero(p))
        frac = oracle[n]
        want = PAdicScalar.from_ratio(p, frac.numerator, frac.denominator, K)
        assert got.plain == want or (got.plain.is_zero() and frac == 0)


def test_lagrange_invert_keeps_every_digit():
    # k = y + y^2 + y^3 at p = 3 has integer reversion coefficients; at
    # y^6 and y^9 a factor 1/n would cost a digit
    p, order = 3, 10
    oracle = _revert_oracle({2: Fraction(1), 3: Fraction(1)}, order)
    y = TruncatedSeries.variable(p, "y", ("y",), (order,), K)
    inv = lagrange_invert(y + y.pow(2) + y.pow(3), "y")
    for n in range(1, order):
        assert oracle[n].denominator == 1
        if oracle[n] == 0:
            assert (n,) not in inv.terms
            continue
        got = inv.terms[(n,)].plain
        assert got == PAdicScalar.from_int(p, oracle[n].numerator, K)
        assert got.valuation + got.prec >= K, (n, got)


def test_lagrange_invert_trivial_and_errors():
    vars, bounds = ("y",), (6,)
    y = TruncatedSeries.variable(P, "y", vars, bounds, K)
    assert lagrange_invert(y, "y") == y
    with pytest.raises(ValueError):
        lagrange_invert(y.mul_int(2), "y")
    with pytest.raises(ValueError):
        lagrange_invert(y + TruncatedSeries.one(P, vars, bounds, K), "y")
    # y must divide every plain term; a y-free v3 term is fine
    vars, bounds = ("y", "alpha"), (6, 6)
    y = TruncatedSeries.variable(P, "y", vars, bounds, K)
    a = TruncatedSeries.variable(P, "alpha", vars, bounds, K)
    with pytest.raises(ValueError):
        lagrange_invert(y + a, "y")
    v3a = a.scale(CoeffV3.from_v3(PAdicScalar.from_int(P, 1, K)))
    assert lagrange_invert(y + v3a, "y") == y - v3a


def _round_trip(k, var="y"):
    inv = lagrange_invert(k, var)
    y = TruncatedSeries.variable(k.p, var, k.vars, inv.bounds, K)
    assert k.substitute(var, inv) == y
    assert inv.substitute(var, k.with_bounds(inv.bounds)) == y
    return inv


def test_lagrange_invert_round_trips_p5():
    # y-free terms of psi = (k - y)/y, and a v3 term at linear order in y
    p = 5
    vars, bounds = ("y", "alpha"), (12, 10)
    y = TruncatedSeries.variable(p, "y", vars, bounds, K)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    v3 = CoeffV3.from_v3(PAdicScalar.from_int(p, 1, K))
    _round_trip(y + a * y + y.pow(2))
    inv = _round_trip(y + a * y.pow(3) + y.pow(5).mul_int(3) + (a.pow(2) * y).scale(v3))
    # linear order: y - v3 alpha^2 y
    assert inv.coefficient("y", 1) == TruncatedSeries.one(p, vars, bounds, K) - a.pow(2).scale(v3)


def test_quotient_normalize_examples():
    p = 3
    vars, bounds = ("alpha",), (p**3 + 2,)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    pv3a = a.scale(CoeffV3.from_v3(PAdicScalar.from_int(p, p, K)))
    assert quotient_normalize(pv3a).is_zero()
    # p * alpha rewrites to a v3 term at alpha^(p^3), gone after truncation
    assert quotient_normalize(a.mul_int(p)).is_zero()
    stay = a.pow(p**3 - 1 - 2 * (p - 1)).scale(CoeffV3.from_v3(PAdicScalar.from_int(p, 1, K)))
    n = quotient_normalize(stay)
    assert n.v3 == {p**3 - 1 - 2 * (p - 1): 1} and not n.plain


def test_quotient_normalize_flags_non_integral():
    p = 3
    vars, bounds = ("alpha",), (p**3 + 2,)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    bad = a.scale(CoeffV3.from_plain(PAdicScalar.from_ratio(p, 1, p, K)))
    with pytest.raises(ValueError, match=r"non-integral plain coefficient at alpha\^1"):
        quotient_normalize(bad)


def test_quotient_normalize_flags_non_integral_v3():
    p = 3
    vars, bounds = ("alpha",), (p**3 + 2,)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    bad = a.pow(2).scale(CoeffV3.from_v3(PAdicScalar.from_ratio(p, 1, p, K)))
    with pytest.raises(ValueError, match=r"non-integral v3 coefficient at alpha\^2"):
        quotient_normalize(bad)


def test_quotient_normalize_v3_residues():
    # v3 parts reduce mod p like plain parts; p * v3 * alpha^k = 0
    p = 5
    vars, bounds = ("alpha",), (p**3 + 2,)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    f = a.scale(CoeffV3.from_v3(PAdicScalar.from_int(p, 7, K))) + a.pow(3).scale(
        CoeffV3(PAdicScalar.from_int(p, 2, K), PAdicScalar.from_int(p, 10, K))
    )
    n = quotient_normalize(f)
    assert n.v3 == {1: 2} and n.plain == {3: 2}


@pytest.mark.parametrize("p", [3, 5])
def test_inverse_of_unit_plus_v3_terms(p):
    vars, bounds = ("x", "alpha"), (6, 7)
    x, a = var("x", vars, bounds, p), var("alpha", vars, bounds, p)
    v3 = CoeffV3.from_v3(PAdicScalar.from_ratio(p, 2, p, K))
    f1 = (x * a + x.pow(2).mul_int(p) - a.pow(5)).scale(v3)
    f = const(2, vars, bounds, p) + f1
    inv = f.inverse()
    one = TruncatedSeries.one(p, vars, bounds, K)
    assert f * inv == one and inv * f == one
    # c0^(-1) - v3 c0^(-2) f1
    half = CoeffV3.from_plain(PAdicScalar.from_ratio(p, 1, 2, K))
    assert inv == one.scale(half) - f1.scale(half * half)


def test_inverse_rejects_non_constant_plain_part():
    with pytest.raises(ValueError, match="plain part"):
        (const(1) + var("alpha")).inverse()
    with pytest.raises(ValueError, match="not a unit"):
        var("x").scale(CoeffV3.from_v3(PAdicScalar.from_int(P, 1, K))).inverse()


def test_quotient_normalize_idempotent_additive_random():
    p = 3
    rng = random.Random(3)
    vars, bounds = ("alpha",), (p**3 + 2,)
    for _ in range(10):
        f = TruncatedSeries.from_terms(
            p, vars, bounds,
            {(rng.randrange(1, p**3),): CoeffV3(
                PAdicScalar.from_int(p, rng.randrange(0, 27), K),
                PAdicScalar.from_int(p, rng.randrange(0, 27), K))
             for _ in range(6)},
        )
        g = TruncatedSeries.from_terms(
            p, vars, bounds,
            {(rng.randrange(1, p**3),): CoeffV3.from_int(p, rng.randrange(0, 27), K)
             for _ in range(6)},
        )
        nf, ng = quotient_normalize(f), quotient_normalize(g)
        direct = quotient_normalize(f + g)
        resum = quotient_normalize(_as_series(nf, p) + _as_series(ng, p))
        assert direct == resum
        assert quotient_normalize(_as_series(nf, p)) == nf


def _as_series(nf, p):
    terms = {}
    if not nf.constant.is_zero():
        terms[(0,)] = nf.constant
    for k, v in nf.plain.items():
        terms[(k,)] = CoeffV3.from_int(p, v, 4)
    for k, v in nf.v3.items():
        c = CoeffV3.from_v3(PAdicScalar.from_int(p, v, 4))
        terms[(k,)] = terms.get((k,), CoeffV3.zero(p)) + c
    return TruncatedSeries.from_terms(p, ("alpha",), (p**3 + 2,), terms)


def test_divide_by_alpha_power():
    p = 3
    i = 2
    vars, bounds = ("alpha",), (40,)
    a = TruncatedSeries.variable(p, "alpha", vars, bounds, K)
    assert divide_by_alpha_power(a.pow(5), 2) == a.pow(3)
    # exponent arithmetic p^3-1 + i(p-1)(p-2) - i(p-1)^2 = p^3-1 - i(p-1)
    e = p**3 - 1 + i * (p - 1) * (p - 2)
    t = a.pow(e).scale(CoeffV3.from_v3(PAdicScalar.from_int(p, 1, K)))
    q = divide_by_alpha_power(t, i * (p - 1) ** 2)
    assert list(q.terms) == [(p**3 - 1 - i * (p - 1),)]
    with pytest.raises(ValueError):
        divide_by_alpha_power(TruncatedSeries.one(p, vars, bounds, K) + a, 1)


def test_mul_commutative_associative_random():
    rng = random.Random(5)
    vars, bounds = ("x", "alpha"), (6, 6)
    def rand():
        return TruncatedSeries.from_terms(
            P, vars, bounds,
            {(rng.randrange(5), rng.randrange(5)): CoeffV3.from_int(P, rng.randrange(1, 9), K)
             for _ in range(4)},
        )
    for _ in range(10):
        f, g, h = rand(), rand(), rand()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


@pytest.mark.parametrize(
    "bounds, terms, n, cut",
    [
        ((10, 12), {(2, 1): 1, (3, 0): 2}, 5, True),  # n * least x-degree = x bound
        ((11, 12), {(2, 1): 1, (3, 0): 2}, 5, False),  # ... = x bound - 1
        ((4, 4), {(2, 0): 1, (0, 2): 1}, 4, True),  # n * least degree > 3 + 3
        ((4, 4), {(1, 0): 1, (0, 1): 1}, 6, False),  # n * least degree = 3 + 3
        ((4, 4), {(2, 0): 1, (1, 1): 2, (0, 2): 1}, 4, True),  # three terms, 8 > 3 + 3
        ((4, 4), {(1, 0): 1, (0, 1): 1, (1, 1): 2}, 6, False),  # three terms, 6 = 3 + 3
    ],
)
def test_pow_cut_at_the_bounds_equals_repeated_mul(monkeypatch, bounds, terms, n, cut):
    vars = ("x", "alpha")
    f = TruncatedSeries.from_terms(P, vars, bounds, {e: CoeffV3.from_int(P, c, K) for e, c in terms.items()})
    want = f
    for _ in range(n - 1):
        want = want * f
    assert want.is_zero() == cut
    products = [0]
    mul = TruncatedSeries.__mul__

    def counting_mul(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    assert f.pow(n) == want
    # a cut power takes no product at all, and neither does a power of two
    # terms (the binomial theorem); three or more terms climb the ladder
    assert (products[0] == 0) == (cut or len(terms) <= 2)


def _full(f):
    """Every field of a series, with each coefficient's repr (digits and all)."""
    return f.vars, f.bounds, f.p, sorted((e, repr(c)) for e, c in f.terms.items())


@pytest.mark.parametrize(
    "vars, bounds, exp, coeff, n",
    [
        (("x",), (20,), (1,), (2, 3), 0),  # n = 0 gives the one of the ladder
        (("x",), (20,), (1,), (2, 3), 1),  # n = 1 is one * c, at min precision
        (("x",), (20,), (3,), (0, 5), 2),  # v3-only coefficient squared: 0
        (("x",), (30,), (1,), (1, "v3/p"), 9),  # 1 + (v3/p) x, valuation -1
        (("x",), (30,), (3,), (0, "v3/p"), 1),  # (v3/p) x^3 alone
        (("x",), (10,), (2,), (7, 1), 5),  # 2 * 5 lands exactly on the bound: 0
        (("x", "alpha"), (10, 12), (1, 2), (4, 2), 3),  # two variables
        (("x", "alpha"), (10, 12), (2, 3), (5, 0), 4),  # alpha^12 on its bound: 0
    ],
)
def test_monomial_pow_equals_series_ladder(vars, bounds, exp, coeff, n):
    plain, v3 = coeff
    a = PAdicScalar(P, 0, plain, 5) if plain else PAdicScalar.zero(P)
    b = PAdicScalar(P, -1, 1, K) if v3 == "v3/p" else PAdicScalar.from_int(P, v3, K)
    f = TruncatedSeries(vars, bounds, {exp: CoeffV3(a, b)}, P)
    one = TruncatedSeries.one(P, vars, bounds, series_precision(f))
    want = binary_power(f, n, one, operator.mul)
    # with a plain and a v3 part, the ladder's v3 part is a sum that loses
    # digits; the closed form n a^(n-1) b keeps all 5 digits of a:
    # 9 * 1^8 * 3^-1 = 3 and 3 * 4^2 * 2 = 96
    exact_v3 = {((1, "v3/p"), 9): 3, ((4, 2), 3): 96}.get((coeff, n))
    if exact_v3 is not None:
        ((e, c),) = want.terms.items()
        v3 = PAdicScalar.from_int(P, exact_v3, 5)
        assert c.v3part == v3 and c.v3part.prec < v3.prec
        want = TruncatedSeries(vars, bounds, {e: CoeffV3(c.plain, v3)}, P)
    assert _full(f.pow(n)) == _full(want)


@st.composite
def two_term_powers(draw):
    """p, the variables, bounds, two terms ((exponent, (plain, v3)), ...) and n.

    A part is None or (valuation, unit); v3 parts reach valuation -1 (v3/p).
    Bounds up to 30 against exponents up to 3 and n up to p^3 cut most powers
    somewhere inside the binomial range, and some of them entirely."""
    p = draw(st.sampled_from([3, 5]))
    nvars = draw(st.sampled_from([1, 2]))
    bounds = draw(st.tuples(*[st.integers(2, 30)] * nvars))
    exps = st.tuples(*[st.integers(0, min(3, b - 1)) for b in bounds])
    e1, e2 = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    unit = st.tuples(st.integers(1, p - 1), st.integers(0, p**7 - 1)).map(lambda t: t[0] + p * t[1])

    def coeff():
        plain = draw(st.none() | st.tuples(st.integers(0, 2), unit))
        v3 = st.tuples(st.integers(-1, 1), unit)
        v3 = draw(v3 if plain is None else st.none() | v3)
        return plain, v3

    terms = ((e1, coeff()), (e2, coeff()))
    n = draw(st.integers(0, 12) | st.just(p**3) | st.integers(1, p * p).map(lambda k: k * p))
    return p, ("x", "alpha")[:nvars], bounds, terms, n, draw(st.integers(1, 8))


def _scalar(p, part, prec):
    return PAdicScalar.zero(p) if part is None else PAdicScalar(p, part[0], part[1] % p**prec, prec)


def _rational(a):
    return Fraction(0) if a.is_zero() else Fraction(a.p) ** a.valuation * a.unit


def _true_digits(a, exact):
    """a is 0, or a - exact has valuation at least the digits a claims."""
    if a.is_zero():
        return True
    d = _rational(a) - exact
    if d == 0:
        return True
    v = 0
    num, den = d.numerator, d.denominator
    while num % a.p == 0:
        num, v = num // a.p, v + 1
    while den % a.p == 0:
        den, v = den // a.p, v - 1
    return v >= a.valuation + a.prec


def _exact_power(f, n):
    """f^n for one or two terms a*x^e + b*x^f, expanded by the binomial
    theorem in exact rationals: {exponent: (j, plain, v3)} over the j whose
    exponent lies inside the bounds.  Since v3^2 = 0, the v3 part of
    (a0 + a1 v3)^(n-j) (b0 + b1 v3)^j is
    (n-j) a0^(n-j-1) a1 b0^j + j a0^(n-j) b0^(j-1) b1."""
    (e1, c1), *rest = f.terms.items()
    e2, c2 = rest[0] if rest else (e1, CoeffV3.one(f.p))
    a0, a1, b0, b1 = map(_rational, (c1.plain, c1.v3part, c2.plain, c2.v3part))
    exact = {}
    for j in range(n + 1 if rest else 1):
        e = tuple((n - j) * u + j * w for u, w in zip(e1, e2))
        if all(map(operator.lt, e, f.bounds)):
            c = math.comb(n, j)
            v3 = c * (n - j) * a0 ** (n - j - 1) * a1 * b0**j if j < n else 0
            v3 += c * j * a0 ** (n - j) * b0 ** (j - 1) * b1 if j else 0
            exact[e] = (j, c * a0 ** (n - j) * b0**j, v3)
    return exact


def _assert_exact_digits(got, exact):
    """got keeps only terms of the expansion, every digit it claims is true,
    and its plain parts, which are products only, are 0 exactly when the
    expansion's are."""
    assert set(got.terms) <= set(exact)
    for e, (_, plain, v3) in exact.items():
        c = got.terms.get(e, CoeffV3.zero(got.p))
        assert c.plain.is_zero() == (plain == 0)
        assert _true_digits(c.plain, plain) and _true_digits(c.v3part, v3), (e, c)


@settings(max_examples=80, deadline=None)
@given(two_term_powers())
@example((3, ("x",), (30,), (((0,), ((0, 1), None)), ((1,), ((0, 1), (-1, 1)))), 27, 8))  # (1 + (1 + v3/p) x)^(p^3)
@example((3, ("x",), (12,), (((2,), (None, (0, 5))), ((0,), ((1, 2), None))), 9, 6))  # v3-only term, multiple of p
@example((5, ("x", "alpha"), (7, 30), (((1, 0), ((0, 3), (1, 4))), ((0, 1), ((2, 1), None))), 125, 4))  # two variables
# f = (5^2*8 + 23 v3) + (5^2*4 + 5*13 v3) x at 2 digits: a product ladder
# claims the v3 part 5^110*2 + O(5^111) at x^30, where the exact one is 5^110*8
@example((5, ("x",), (56,), (((0,), ((2, 8), (0, 23))), ((1,), ((2, 4), (1, 13)))), 55, 2))
def test_two_term_pow_claims_only_exact_digits(case):
    """The binomial closed form against the exact rational expansion at 1
    to 8 digits: every digit pow(n) claims is true, and its plain parts are
    0 exactly when the expansion's are.  The digits the series ladder gets
    right are among them; below 4 digits the ladder's sums can cancel
    digits they do not have, and then its v3 part is false."""
    p, vars, bounds, terms, n, prec = case
    f = TruncatedSeries(
        vars, bounds, {e: CoeffV3(_scalar(p, a, prec), _scalar(p, b, prec)) for e, (a, b) in terms}, p
    )
    _assert_exact_digits(f.pow(n), _exact_power(f, n))


@st.composite
def short_powers(draw):
    """p, the variables, bounds, one or two terms ((exponent, (plain, v3)), ...)
    and n up to p^3.  A part is None or (valuation, unit, prec), with
    valuations -1..2 and 1 to 9 digits, each part its own."""
    p = draw(st.sampled_from([3, 5, 7]))
    nvars = draw(st.sampled_from([1, 2]))
    bounds = draw(st.tuples(*[st.integers(2, 30) | st.integers(2, p**3 + 1)] * nvars))
    exps = st.tuples(*[st.integers(0, min(3, b - 1)) for b in bounds])
    unit = st.tuples(st.integers(1, p - 1), st.integers(0, p**8 - 1)).map(lambda t: t[0] + p * t[1])
    part = st.tuples(st.integers(-1, 2), unit, st.integers(1, 9))

    def coeff():
        plain = draw(st.none() | part)
        return plain, draw(part if plain is None else st.none() | part)

    keys = draw(st.lists(exps, min_size=1, max_size=2, unique=True))
    n = draw(st.integers(0, 12) | st.integers(0, p**3))
    return p, ("x", "alpha")[:nvars], bounds, tuple((e, coeff()) for e in keys), n


@settings(max_examples=120, deadline=None)
@given(short_powers())
# f = (5^2*8 + 23 v3) + (5^2*4 + 5*13 v3) x at 2 digits: pow(55) claimed a
# wrong v3 digit at x^30 while it took the coefficient powers by a ladder
@example((5, ("x",), (56,), (((0,), ((2, 8, 2), (0, 23, 2))), ((1,), ((2, 4, 2), (1, 13, 2)))), 55))
@example((3, ("x",), (28,), (((0,), ((0, 1, 8), None)), ((1,), ((0, 1, 8), (-1, 1, 8)))), 27))  # (1 + (1 + v3/p) x)^(p^3)
@example((7, ("x", "alpha"), (15, 344), (((1, 0), ((0, 3, 8), None)), ((0, 1), ((0, 2, 8), None))), 343))  # v3-free
def test_pow_matches_exact_expansion(case):
    """pow(n) against the exact expansion, each part at its own 1 to 9
    digits: every digit it claims is true, and each plain part, a product
    of plain parts only, keeps the least precision of its factors and of
    the one the series ladder starts from, so none of its digits is lost."""
    p, vars, bounds, terms, n = case

    def scalar(part):
        return PAdicScalar.zero(p) if part is None else _scalar(p, part[:2], part[2])

    f = TruncatedSeries(vars, bounds, {e: CoeffV3(scalar(a), scalar(b)) for e, (a, b) in terms}, p)
    got, exact = f.pow(n), _exact_power(f, n)
    _assert_exact_digits(got, exact)
    (_, a), *rest = f.terms.items()
    for e, c in got.terms.items():
        j = exact[e][0]
        factors = [a] * (j < n) + [b for _, b in rest] * (j > 0)
        if not c.plain.is_zero():
            assert c.plain.prec == min([series_precision(f)] + [d.plain.prec for d in factors]), (e, c)


def test_substitute_takes_each_step_power_once(monkeypatch):
    vars, bounds = ("y", "alpha"), (12, 8)
    y, a = (TruncatedSeries.variable(P, v, vars, bounds, K) for v in vars)
    g = y + a * y.pow(2)
    slots = {k: const(k + 1, vars, bounds) for k in range(6)} | {7: a, 9: a.mul_int(2)}
    f = TruncatedSeries.zero(P, vars, bounds)
    want = TruncatedSeries.zero(P, vars, bounds)
    for k, c in slots.items():
        f = f + c * y.pow(k)
        want = want + c * binary_power(g, k, TruncatedSeries.one(P, vars, bounds, K), operator.mul)
    calls = []
    pow_ = TruncatedSeries.pow

    def counting_pow(s, n):
        calls.append(n)
        return pow_(s, n)

    monkeypatch.setattr(TruncatedSeries, "pow", counting_pow)
    # slots 0..5 step by g^1, slots 7 and 9 by g^2: one power of each
    assert _substitute_plain(f, "y", g) == want
    assert calls == [1, 2]


def test_ring_operations_reject_different_variable_tuples():
    xa = var("x")
    xb = var("x", vars=("x", "beta"))
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError, match="incompatible variable sets"):
            op(xa, xb)


def test_substitute_rejects_mismatched_variables_and_constant_term():
    x, a = var("x"), var("alpha")
    f = x + x.pow(2)
    with pytest.raises(ValueError, match="incompatible variable sets"):
        f.substitute("x", var("x", vars=("x", "beta")))
    with pytest.raises(ValueError, match="zero constant term"):
        f.substitute("x", a + const(1))


def test_divide_by_alpha_power_rejects_negative_shift():
    a = var("alpha")
    with pytest.raises(ValueError, match="negative shift"):
        divide_by_alpha_power(a, -1)


def test_sum_keeps_first_operand_order_and_drops_cancellations():
    x, a = var("x"), var("alpha")
    f = x + a.pow(2) + x.pow(3) + a.pow(5)
    g = (a - x).with_bounds((10, 4))
    s = f + g
    # x cancels, and alpha^5 is past the merged alpha bound 4
    assert list(s.terms) == [(0, 2), (3, 0), (0, 1)]
    assert s.bounds == (10, 4)
