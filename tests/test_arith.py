import math
from functools import cache, reduce

from hypothesis import example, given, settings, strategies as st

from powerops import arith, dl, mu_homology
from powerops.arith import binom_mod, cartan, frobenius, merge_monomials, poly_mul, poly_pow, poly_sum

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
        poly_sum([(a, 1), (b, 1)], p),
        poly_sum([(a, 1), (b, -1)], p),
        poly_sum([(a, c)], p),
        poly_mul(a, b, p),
        frobenius(a, p),
    ):
        assert reduced(out, p)


@settings(max_examples=60, deadline=None)
@given(prime_and_polys(), st.integers(-3, 3))
def test_cancellation_gives_empty(pa, k):
    p, a = pa
    assert poly_sum([(a, 1), (a, -1)], p) == {}
    assert poly_sum([(a, k * p)], p) == {}
    assert poly_sum([(a, 1), (poly_sum([(a, -1)], p), 1)], p) == {}


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

    assert ev(poly_sum([(a, 1), (b, 1)], p)) == (ev(a) + ev(b)) % p
    assert ev(poly_sum([(a, 1), (b, -1)], p)) == (ev(a) - ev(b)) % p
    assert ev(poly_sum([(a, c)], p)) == c * ev(a) % p
    assert ev(poly_mul(a, b, p)) == ev(a) * ev(b) % p
    assert ev(frobenius(a, p)) == pow(ev(a), p, p)


@st.composite
def prime_and_parts(draw):
    """A prime p and 0-4 parts (a, c), each a drawn from a, b and their union,
    so that parts share monomials and cancel; c is 0, +-1, a multiple of p
    or any other integer."""
    p, a, b = draw(prime_and_polys(count=2))
    scalar = st.sampled_from([0, 1, -1, p, -p, 2 * p]) | st.integers(-2 * p, 2 * p)
    return p, draw(st.lists(st.tuples(st.sampled_from([a, b, a | b]), scalar), max_size=4))


# x1 + x2, less x1, plus x1: x1 cancels and comes back after x2
REINSERTED = (3, [({((1, 1),): 1, ((2, 1),): 1}, 1), ({((1, 1),): 1}, -1), ({((1, 1),): 1}, 1)])


@settings(max_examples=100, deadline=None)
@given(prime_and_parts())
@example(REINSERTED)
def test_poly_sum_is_the_fold_of_two_part_sums(pparts):
    p, parts = pparts
    want = {}
    for a, c in parts:  # want + c * a: a copy of want, reduced, zeros popped
        want = dict(want)
        for m, v in a.items():
            r = (want.get(m, 0) + c * v) % p
            if r:
                want[m] = r
            else:
                want.pop(m, None)
    got = poly_sum(parts, p)
    assert list(got.items()) == list(want.items())
    assert reduced(got, p)
    assert all(got is not a for a, _ in parts)


@st.composite
def prime_and_factors(draw):
    """A prime p and up to three factors (f, e, floor) with e in 0..2p, each
    with a total-operation series {a: T_a}: T_floor and a few higher T_a,
    small nonzero polynomials in variables 1..2."""
    p = draw(PRIMES)
    monomial = st.lists(st.integers(0, 2), min_size=2, max_size=2).map(
        lambda es: tuple((v + 1, e) for v, e in enumerate(es) if e)
    )
    poly = st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=2)
    factors, series = [], {}
    for f in range(draw(st.integers(1, 3))):
        floor = draw(st.integers(0, 3))
        offsets = draw(st.sets(st.integers(1, 3), max_size=2)) | {0}
        series[f] = {floor + k: draw(poly) for k in offsets}
        factors.append((f, draw(st.integers(0, 2 * p)), floor))
    return p, factors, series


def naive_cartan(top, factors, series, p):
    """Every t^s coefficient, s <= top, of prod T_f^e, by multiplying in one
    copy of T_f at a time."""
    out = {0: {(): 1}}
    for f, e, _ in factors:
        for _ in range(e):
            nxt = {}
            for i, u in out.items():
                for a, t in series[f].items():
                    if i + a <= top:
                        nxt[i + a] = poly_sum([(nxt.get(i + a, {}), 1), (poly_mul(u, t, p), 1)], p)
            out = nxt
    return out


# p = 3: f = 0 has indices {1, 3} with Q^2 f zero, and e = 5 = 12 in base 3,
# so its f^3 block is twisted; the last block's last index is solved for
SPARSE_FROBENIUS = (
    3,
    [(0, 5, 1), (1, 2, 0)],
    {0: {1: {((1, 1),): 1}, 3: {((2, 1),): 2}}, 1: {0: {((2, 2),): 1}, 2: {((1, 1),): 2, ((2, 1),): 1}}},
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(prime_and_factors())
@example(SPARSE_FROBENIUS)
def test_cartan_matches_naive_expansion(pfs):
    p, factors, series = pfs
    top = sum(e * max(series[f]) for f, e, _ in factors)
    want = naive_cartan(top, factors, series, p)

    def q(f, a):
        return series[f].get(a, {})

    for s in range(top + 2):
        got = cartan(s, factors, q, p)
        assert got == want.get(s, {})
        assert reduced(got, p)


@settings(max_examples=60, deadline=None)
@given(prime_and_factors(), st.integers(0, 60))
@example((5, [(0, 1, 3)], {0: {3: {(): 1}}}), 11)  # e = 1: asked for Q^s f alone
@example((3, [(0, 1, 0)], {0: {0: {(): 1}}}), 7)
@example(SPARSE_FROBENIUS, 12)
def test_cartan_asks_only_for_reachable_indices(pfs, s):
    """One copy of f^(p^i) can carry index a only if a*p^i plus the least
    index sum of every other copy stays <= s, so the block of f^(p^i) asks
    for Q^a f only at floor <= a <= (s - least) // p^i + floor, and at most
    once per index: a given Q^a f is asked for at most as many times as f has
    blocks reaching a.  A single f with e = 1 is asked for Q^s f alone."""
    p, factors, series = pfs
    calls = []

    def q(f, a):
        calls.append((f, a))
        return series[f].get(a, {})

    cartan(s, factors, q, p)
    least = sum(e * floor for _, e, floor in factors)
    caps = {}  # f: the highest index each block of f may ask for
    for f, e, floor in factors:
        caps[f], pi = [], 1
        while e:
            if e % p:
                caps[f].append((s - least) // pi + floor)
            e //= p
            pi *= p
    floors = {f: floor for f, _, floor in factors}
    for f, a in set(calls):
        assert a >= floors[f]
        assert calls.count((f, a)) <= sum(a <= cap for cap in caps[f])
    if len(factors) == 1 and factors[0][1] == 1 and s >= factors[0][2]:
        assert calls == [(factors[0][0], s)]


# the walk's order, which `==` on dicts and the caps above do not see: the
# terms in insertion order and every q(f, a) in the order asked, for
# SPARSE_FROBENIUS at s = 11, and the terms of the relation's top term
# Q^(p^3+p)((x^(p-1))^p Q^p x) at p = 3; residuals keep this term order
SPARSE_FROBENIUS_11 = (
    [
        (((1, 2), (2, 7)), 2),
        (((1, 6), (2, 1)), 1),
        (((1, 5), (2, 2)), 1),
        (((1, 4), (2, 3)), 1),
        (((1, 4), (2, 4)), 1),
        (((1, 3), (2, 5)), 2),
    ],
    [
        (0, 1), (0, 1), (1, 0), (1, 6), (1, 1), (1, 2), (1, 4), (1, 3),
        (0, 2), (0, 3), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
    ],
)
RELATION_TOP_3 = [
    (((((), "x"), 18), (((15, 6), "x"), 1)), 1),
    (((((), "x"), 9), (((3,), "x"), 3), (((13, 5), "x"), 1)), 2),
    (((((), "x"), 9), (((4,), "x"), 3), (((11, 4), "x"), 1)), 2),
    (((((), "x"), 9), (((5,), "x"), 3), (((9, 3), "x"), 1)), 2),
    (((((3,), "x"), 6), (((11, 4), "x"), 1)), 1),
    (((((3,), "x"), 3), (((4,), "x"), 3), (((9, 3), "x"), 1)), 2),
]


def test_cartan_walk_order(monkeypatch):
    p, factors, series = SPARSE_FROBENIUS
    calls = []

    def q(f, a):
        calls.append((f, a))
        return series[f].get(a, {})

    assert (list(cartan(11, factors, q, p).items()), calls) == SPARSE_FROBENIUS_11
    # a fresh algebra, so that every Q on the way is asked of the walk
    monkeypatch.setattr(dl, "free_algebra", cache(dl.free_algebra.__wrapped__))
    assert list(dl.RelationSpec.for_prime(3).xp1p_qpx.q(30).terms.items()) == RELATION_TOP_3


# exponents at and around the edges of a bit field
EDGE_EXPONENTS = st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 255, 256])
# the variable names the callers use: generator indices (mu_homology) and
# (operation word, generator) factors (dl)
VARIABLE_KINDS = [lambda i: i + 1, lambda i: ((i % 3, i), "xy"[i % 2])]


@st.composite
def prime_and_wide_polys(draw):
    """A prime p and two polynomials over F_p in up to 8 variables, with
    exponents at the edges of bit fields and names of one kind."""
    p = draw(PRIMES)
    name = VARIABLE_KINDS[draw(st.integers(0, 1))]
    n = draw(st.integers(1, 8))
    monomial = st.dictionaries(st.integers(0, n - 1), EDGE_EXPONENTS, max_size=n).map(
        lambda es: tuple(sorted((name(i), e) for i, e in es.items()))
    )
    return p, *(draw(st.dictionaries(monomial, st.integers(1, p - 1), max_size=6)) for _ in range(2))


def naive_mul(a, b, p):
    """One monomial merge per pair of terms, in the order poly_mul keeps."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = merge_monomials(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: r for m, c in out.items() if (r := c % p)}


@settings(max_examples=200, deadline=None)
@given(prime_and_wide_polys())
def test_poly_mul_matches_pairwise_merges(pab):
    p, a, b = pab
    # items(), not ==: the insertion order is part of the result
    assert list(poly_mul(a, b, p).items()) == list(naive_mul(a, b, p).items())
    assert list(poly_mul(b, a, p).items()) == list(naive_mul(b, a, p).items())


def test_poly_mul_exponent_sum_needs_an_extra_bit():
    # 255 + 255 = 510 does not fit in the 8 bits of 255: in fields that
    # narrow, x1^510 would carry into x2 and collide with x1^254 x2
    p = 7
    a = {((1, 255),): 1, ((1, 127),): 2}
    b = {((1, 255),): 3, ((1, 127), (2, 1)): 1}
    got = poly_mul(a, b, p)
    assert list(got.items()) == list(naive_mul(a, b, p).items())
    assert got == {((1, 510),): 3, ((1, 382), (2, 1)): 1, ((1, 382),): 6, ((1, 254), (2, 1)): 2}


def test_poly_mul_matches_pairwise_merges_on_dl_products():
    # operands from the Q-action in the free algebra at p = 5: (word,
    # generator) factors as variables, as in every Dyer-Lashof product
    A = dl.free_algebra(5)
    x, y = A.gen("x"), A.gen("y")
    cases = ((x * y, (13, 20, 31)), (x.pow(3) * y.pow(2), (30, 33, 36)), (x.pow(5) * y, (38, 48)))
    polys = [A.apply_q(s, f).terms for f, ss in cases for s in ss]
    assert all(len(a) > 1 for a in polys)
    for a in polys:
        for b in polys:
            assert list(poly_mul(a, b, 5).items()) == list(naive_mul(a, b, 5).items())


def test_poly_mul_decodes_in_sorted_order():
    # variables first appear in the order 3, 1, 2, not sorted: the decoded
    # monomials must still be sorted, and equal to the merged ones
    p = 7
    a = {((3, 2),): 1, ((1, 1), (2, 3)): 2, ((2, 1),): 3}
    b = {((1, 4), (3, 1)): 5, ((2, 2),): 1}
    first_seen = list(dict.fromkeys(v for poly in (a, b) for m in poly for v, _ in m))
    assert first_seen != sorted(first_seen)
    for u, v in ((a, b), (b, a)):
        got = poly_mul(u, v, p)
        assert list(got.items()) == list(naive_mul(u, v, p).items())
        assert all(list(m) == sorted(m) for m in got)


def test_poly_mul_skips_a_zero_field_between_two():
    # x2 has a field, and x1 x3 and x1^2 x3^2 leave it empty between the
    # nonzero fields of x1 and x3
    p = 5
    a = {((1, 1),): 1, ((2, 1),): 2}
    b = {((3, 1),): 1, ((2, 1),): 3, ((1, 1), (3, 2)): 4}
    got = poly_mul(a, b, p)
    assert list(got.items()) == list(naive_mul(a, b, p).items())
    assert got == {
        ((1, 1), (3, 1)): 1,
        ((1, 1), (2, 1)): 3,
        ((1, 2), (3, 2)): 4,
        ((2, 1), (3, 1)): 2,
        ((2, 2),): 1,
        ((1, 1), (2, 1), (3, 2)): 3,
    }


def test_binom_mod_matches_math_comb():
    for p in (3, 5, 7, 11):
        for n in range(-3, 3 * p * p):
            for k in range(-3, n + 4):
                want = math.comb(n, k) % p if 0 <= k <= n else 0
                assert binom_mod(n, k, p) == want, (n, k, p)
    # the Adem rule at p = 37 reaches arguments in the thousands
    assert binom_mod(5000, 1234, 37) == math.comb(5000, 1234) % 37


def test_identity4_exact_expansion_merge_budget(monkeypatch):
    # building and expanding both sides of identity 4 at p = 7 makes 536
    # merges, none in the packed chain that multiplies the Newton factors:
    # 21 for the one-term products of the Cartan picks on the left side, 1
    # for the right side's product of two one-term classes, and 514 for the
    # one-term products t_j * N_(m-j) of the Newton recursion behind N_6 and
    # N_12.  The right side's expansion is a memo hit.
    p = 7
    calls = [0]

    def counting_merge(m1, m2):
        calls[0] += 1
        return merge_monomials(m1, m2)

    monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
    monkeypatch.setattr(arith, "merge_monomials", counting_merge)
    lhs = mu_homology.q_on_product(p * p - p + 1, [(p - 1, p - 1)], "b", p)
    n1 = mu_homology.SymmetricClass.newton(p, "b", p - 1)
    n2 = mu_homology.SymmetricClass.newton(p, "b", 2 * (p - 1))
    rhs = n1.pow((p - 2) * p) * n2.pow(p)
    assert lhs.expand() == rhs.expand()
    assert calls[0] == 536
