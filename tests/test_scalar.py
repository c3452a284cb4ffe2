import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from powerops import cli
from powerops.arith import prime_factors
from powerops.scalar import (
    CoeffV3,
    PAdicScalar,
    PrecisionLossError,
    primitive_teichmuller_root,
    teichmuller,
)


def test_add_carries_across_valuation():
    # 1 + (p-1) = p at p=5: valuation 1, unit 1
    p = 5
    a = PAdicScalar.from_int(p, 1, 4)
    b = PAdicScalar.from_int(p, 4, 4)
    s = a + b
    assert s.valuation == 1 and s.unit == 1


def test_div_shifts_valuation():
    p = 5
    u = PAdicScalar.from_int(p, 7, 6)
    pu = PAdicScalar.from_int(p, 35, 6)
    assert pu / PAdicScalar.from_int(p, 5, 6) == u


def test_mul_modular_oracle():
    # direct modular multiplication oracle: 182 * 182 mod 5^4 = 624
    assert (182 * 182) % 5**4 == 624
    a = PAdicScalar.from_int(5, 182, 4)
    prod = a * a
    assert prod.valuation == 0 and prod.unit % 5**4 == 624


def test_teichmuller_examples():
    assert teichmuller(1, 7, 6) == PAdicScalar.from_int(7, 1, 6)
    # iterate a -> a^3 mod 9: fixed point of 2 is 8
    w = teichmuller(2, 3, 2)
    assert w.unit == 8
    # iterate a -> a^5 mod 625 from 2: 182, and 182^4 = 1 mod 625
    w = teichmuller(2, 5, 4)
    assert w.unit == 182
    assert pow(182, 4, 5**4) == 1


def test_teichmuller_rejects_zero():
    with pytest.raises(ValueError):
        teichmuller(0, 5, 4)


@pytest.mark.parametrize("prec", [0, -1])
def test_teichmuller_rejects_fewer_than_one_digit(prec):
    # a lift with no digit would be a nonzero scalar that knows nothing
    with pytest.raises(ValueError, match="at least one digit"):
        teichmuller(2, 5, prec)
    with pytest.raises(ValueError, match="at least one digit"):
        primitive_teichmuller_root(5, prec)


@pytest.mark.parametrize("p", [p for p in range(3, cli.MAX_PRIME + 1, 2) if prime_factors(p) == [p]])
def test_teichmuller_is_root_of_unity_and_multiplicative(p):
    K = 8
    w = primitive_teichmuller_root(p, K)
    one = PAdicScalar.from_int(p, 1, K)
    assert w ** (p - 1) == one
    # multiplicativity of residue -> lift on a few pairs
    for a in range(1, p):
        for b in range(1, p):
            la, lb = teichmuller(a, p, K), teichmuller(b, p, K)
            lab = teichmuller(a * b % p, p, K)
            assert la * lb == lab


def test_reduce_mod_p_examples():
    assert PAdicScalar.from_int(5, 182, 4).residue() == 2
    assert PAdicScalar.from_int(5, 35, 4).residue() == 0
    # C(6,2)/3 = 5 = -1 mod 3, an instance of C(2p,2)/p = -1
    c = PAdicScalar.from_int(3, math.comb(6, 2), 6) / PAdicScalar.from_int(3, 3, 6)
    assert c.residue() == 2


def test_reduce_mod_p_rejects_negative_valuation():
    with pytest.raises(ValueError):
        PAdicScalar.from_ratio(3, 1, 3, 6).residue()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_wolstenholme_type_congruences(p):
    assert (math.comb(2 * p, 2) // p) % p == p - 1
    assert (math.comb(p * p, p) // p) % p == 1


small_ints = st.integers(min_value=-(5**6), max_value=5**6)


@settings(max_examples=60, deadline=None)
@given(small_ints, small_ints, small_ints)
def test_ring_laws_exact(a, b, c):
    p, K = 5, 10
    A, B, C = (PAdicScalar.from_int(p, v, K) for v in (a, b, c))
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    # agreement with integer arithmetic at full precision
    lhs = (A + B) * C
    want = PAdicScalar.from_int(p, (a + b) * c, K)
    # addition may lose digits on cancellation; compare at the tracked precision
    assert lhs == want


@settings(max_examples=40, deadline=None)
@given(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints)
def test_v3_nilpotence(a, b, c, d, e, f):
    p, K = 5, 8
    x = CoeffV3(PAdicScalar.from_int(p, a, K), PAdicScalar.from_int(p, b, K))
    y = CoeffV3(PAdicScalar.from_int(p, c, K), PAdicScalar.from_int(p, d, K))
    z = CoeffV3(PAdicScalar.from_int(p, e, K), PAdicScalar.from_int(p, f, K))
    prod = x * y
    # v3 part of a product never feeds back into the plain part
    assert prod.plain == PAdicScalar.from_int(p, a * c, K)
    assert (x * y) * z == x * (y * z)
    v3 = CoeffV3.from_v3(PAdicScalar.from_int(p, 1, K))
    assert (v3 * v3).is_zero()


# -- the kernel against its former definitions --------------------------------
# mul_int used to multiply by a from_int temporary, and __mul__/__add__ used
# to build the result before checking the one-digit floor; the reference
# definitions below are those, written out.


def _floor(x):
    if not x.is_zero_flag and x.prec < 1:
        raise PrecisionLossError(f"precision dropped to {x.prec} digits (floor 1)")
    return x


def _ref_mul(x, y):
    if x.is_zero_flag:
        return x
    if y.is_zero_flag:
        return y
    prec = min(x.prec, y.prec)
    return _floor(PAdicScalar(x.p, x.valuation + y.valuation, (x.unit * y.unit) % x.p**prec, prec))


def _ref_add(x, y):
    p = x.p
    if x.is_zero_flag:
        return y
    if y.is_zero_flag:
        return x
    v = min(x.valuation, y.valuation)
    m = min(x.valuation + x.prec - v, y.valuation + y.prec - v)
    s = (x.unit * p ** (x.valuation - v) + y.unit * p ** (y.valuation - v)) % p**m
    if s == 0:
        return PAdicScalar.zero(p)
    t = 0
    while s % p**(t + 1) == 0:
        t += 1
    return _floor(PAdicScalar(p, v + t, (s // p**t) % p ** (m - t), m - t))


def _ref_mul_int(x, n):
    return _ref_mul(x, PAdicScalar.from_int(x.p, n, max(x.prec, 1)))


def _outcome(fn, *args):
    """(zero flag, valuation, unit, prec) of the result, or the error text."""
    try:
        r = fn(*args)
    except PrecisionLossError as exc:
        return str(exc)
    return (r.is_zero_flag, r.valuation, r.unit, r.prec)


def _random_scalar(rng, p):
    if rng.random() < 0.1:
        return PAdicScalar.zero(p)
    prec = rng.choice((0, 1, 1, 2, 3, 5, 8))
    unit = 0 if prec == 0 else rng.randrange(1, p**prec)
    unit += unit % p == 0  # a multiple of p moves to the next integer, a unit
    return PAdicScalar(p, rng.randrange(-3, 6), unit, prec)


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_kernel_matches_former_definitions(p):
    rng = random.Random(20261019 + p)
    ints = [0, 1, -1, p, -p, p**12, -(p**9) * 2, 3 * p**20 + p**21, p**8 - 1]
    for _ in range(1500):
        x, y = _random_scalar(rng, p), _random_scalar(rng, p)
        assert _outcome(PAdicScalar.__mul__, x, y) == _outcome(_ref_mul, x, y), (x, y)
        assert _outcome(PAdicScalar.__add__, x, y) == _outcome(_ref_add, x, y), (x, y)
        n = rng.choice(ints) if rng.random() < 0.5 else rng.randrange(-(p**5), p**5) * p ** rng.randrange(4)
        assert _outcome(PAdicScalar.mul_int, x, n) == _outcome(_ref_mul_int, x, n), (x, n)
        want = [_outcome(_ref_mul_int, s, n) for s in (x, y)]
        if any(isinstance(w, str) for w in want):
            with pytest.raises(PrecisionLossError):
                CoeffV3(x, y).mul_int(n)
        else:
            got = CoeffV3(x, y).mul_int(n)
            assert [_outcome(lambda s: s, s) for s in (got.plain, got.v3part)] == want
    # a nonzero product at precision 0 keeps no digit
    digitless = PAdicScalar(p, 0, 0, 0)
    for fn, arg in ((PAdicScalar.__mul__, PAdicScalar.from_int(p, 2, 5)), (PAdicScalar.mul_int, -2 * p**3)):
        with pytest.raises(PrecisionLossError, match="precision dropped to 0 digits"):
            fn(digitless, arg)
