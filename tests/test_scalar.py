import math

import pytest
from hypothesis import given, settings, strategies as st

from powerops.scalar import (
    CoeffV3,
    PAdicScalar,
    binomial_scalar,
    primitive_teichmuller_root,
    reduce_mod_p,
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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
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
    assert reduce_mod_p(PAdicScalar.from_int(5, 182, 4)) == 2
    assert reduce_mod_p(PAdicScalar.from_int(5, 35, 4)) == 0
    # C(6,2)/3 = 5 = -1 mod 3, an instance of C(2p,2)/p = -1
    c = binomial_scalar(3, 6, 2, 6) / PAdicScalar.from_int(3, 3, 6)
    assert reduce_mod_p(c) == 2


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
