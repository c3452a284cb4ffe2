from functools import reduce

from hypothesis import given, settings, strategies as st

from powerops.arith import frobenius, poly_add, poly_mul, poly_pow, poly_scale

PRIMES = st.sampled_from([3, 5, 7])


@st.composite
def prime_and_polys(draw, count=1):
    """A prime p and sparse polynomials over F_p in variables 1..3, every
    coefficient in 1..p-1."""
    p = draw(PRIMES)
    monomial = st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
        lambda es: tuple((v + 1, e) for v, e in enumerate(es) if e)
    )
    polys = [draw(st.dictionaries(monomial, st.integers(1, p - 1), max_size=4)) for _ in range(count)]
    return p, *polys


def reduced(a, p):
    return all(isinstance(c, int) and 0 < c < p for c in a.values())


@settings(max_examples=60, deadline=None)
@given(prime_and_polys(), st.data())
def test_pow_equals_repeated_mul(pa, data):
    p, a = pa
    n = data.draw(st.integers(0, 2 * p))  # 0, p and 2p take the Frobenius
    want = reduce(lambda u, _: poly_mul(u, a, p), range(n), {(): 1})
    got = poly_pow(a, n, p)
    assert got == want
    assert reduced(got, p)


@settings(max_examples=60, deadline=None)
@given(prime_and_polys(count=2), st.integers(-20, 20))
def test_results_stay_reduced(pab, c):
    p, a, b = pab
    for out in (
        poly_add(a, b, p),
        poly_add(a, b, p, -1),
        poly_scale(a, c, p),
        poly_mul(a, b, p),
        frobenius(a, p),
    ):
        assert reduced(out, p)


@settings(max_examples=60, deadline=None)
@given(prime_and_polys(), st.integers(-3, 3))
def test_cancellation_gives_empty(pa, k):
    p, a = pa
    assert poly_add(a, a, p, -1) == {}
    assert poly_scale(a, k * p, p) == {}
    assert poly_add(a, poly_scale(a, -1, p), p) == {}


@settings(max_examples=60, deadline=None)
@given(prime_and_polys(count=2), st.lists(st.integers(0, 6), min_size=3, max_size=3), st.integers(-20, 20))
def test_evaluation_is_a_ring_map(pab, point, c):
    p, a, b = pab

    def ev(f):
        total = 0
        for mono, coeff in f.items():
            term = coeff
            for v, e in mono:
                term *= point[v - 1] ** e
            total += term
        return total % p

    assert ev(poly_add(a, b, p)) == (ev(a) + ev(b)) % p
    assert ev(poly_add(a, b, p, -1)) == (ev(a) - ev(b)) % p
    assert ev(poly_scale(a, c, p)) == c * ev(a) % p
    assert ev(poly_mul(a, b, p)) == ev(a) * ev(b) % p
    assert ev(frobenius(a, p)) == pow(ev(a), p, p)
