import random
import time

import pytest

from powerops import arith, mu_homology
from powerops.arith import binary_power, frobenius, poly_mul, poly_pow, poly_sum
from powerops.dl import DLAlgebra
from powerops.finite_field import GaloisField
from powerops.mu_homology import (
    SymmetricClass,
    kochman_q,
    newton_expand,
    q_on_product,
    symmetric_evaluate,
    verify_mudl,
    verify_stdl,
    xibar,
)


def test_newton_small_cases():
    # N_1 = t_1, N_2 = t_1^2 - 2 t_2, N_3 = t_1^3 - 3 t_1 t_2 + 3 t_3
    p = 7
    assert newton_expand(1, "b", p) == {((1, 1),): 1}
    assert newton_expand(2, "b", p) == {((1, 2),): 1, ((2, 1),): p - 2}
    assert newton_expand(3, "b", p) == {((1, 3),): 1, ((1, 1), (2, 1)): p - 3, ((3, 1),): 3}


def _power_sum_oracle(m, sample, p):
    """Independent integer oracle: N_m at t_i = e_i(sample) is sum x^m."""
    return sum(pow(x, m, p) for x in sample) % p


def _eval_gen_poly(poly, e_values, p):
    total = 0
    for mono, c in poly.items():
        v = c
        for i, e in mono:
            v = v * pow(e_values[i], e, p) % p
        total = (total + v) % p
    return total


def _elementary(sample, top, p):
    es = [1] + [0] * top
    for x in sample:
        for i in range(min(top, len(es) - 1), 0, -1):
            es[i] = (es[i] + x * es[i - 1]) % p
    return es


@pytest.mark.parametrize("p", [3, 5])
def test_newton_matches_power_sums(p):
    rng = random.Random(1)
    top = 50
    sample = [rng.randrange(p) for _ in range(top + 2)]
    es = _elementary(sample, top, p)
    powcache: dict[tuple[int, int], int] = {}

    def ev(i, e):
        if (i, e) not in powcache:
            powcache[(i, e)] = pow(es[i], e, p)
        return powcache[(i, e)]

    for m in range(1, top + 1):
        got = 0
        for mono, c in newton_expand(m, "b", p).items():
            v = c
            for i, e in mono:
                v = v * ev(i, e) % p
            got = (got + v) % p
        assert got == _power_sum_oracle(m, sample, p)


@pytest.mark.parametrize("p", [3, 5])
def test_newton_frobenius(p):
    # newton_expand takes N_(pm) = N_m^p by the Frobenius; compare against
    # square-and-multiply, which never uses it
    rng = random.Random(4)
    for _ in range(4):
        m = rng.randrange(1, 12)
        n_m = newton_expand(m, "b", p)
        assert newton_expand(p * m, "b", p) == binary_power(n_m, p, {(): 1}, lambda u, v: poly_mul(u, v, p))


def test_xi_context_specialization():
    # p=3: N_2(xi) = xi_1, conjugates: xibar_1 = -xi_1; N_8(xi) = -xi_1^4 + xi_2
    assert newton_expand(2, "xi", 3) == {((1, 1),): 1}
    assert newton_expand(8, "xi", 3) == {((1, 4),): 2, ((2, 1),): 1}


@pytest.mark.parametrize("p", [3, 5])
def test_conjugate_classes_antipode_anchors(p):
    # xibar_1 = -xi_1 and xibar_2 = xi_1^(p+1) - xi_2
    x1 = xibar(1, p).expand()
    assert x1 == {((1, 1),): p - 1}
    x2 = xibar(2, p).expand()
    assert x2 == {((1, p + 1),): 1, ((2, 1),): p - 1}


def test_kochman_examples():
    # p=3: Q^3 N_2(b) = (-1)^5 C(2,1) N_8(b) = N_8(b) mod 3
    out = kochman_q(3, 2, "b", 3)
    assert out == SymmetricClass.newton(3, "b", 8, 1)
    # Lucas vanishing
    assert kochman_q(3 + 1, 2, "b", 3).is_zero()
    # instability: r = n gives the p-th power (canonical index shift)
    assert kochman_q(2, 2, "b", 3) == SymmetricClass.newton(3, "b", 6, 1)
    # r < n vanishes
    assert kochman_q(1, 2, "b", 3).is_zero()
    # p=3: Q^3 xibar_1 = 2 N_8(xi) = xibar_2
    q = SymmetricClass.zero(3, "xi") - kochman_q(3, 2, "xi", 3)
    assert q.expand() == xibar(2, 3).expand()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kochman_degree_shift(p):
    rng = random.Random(p)
    for _ in range(8):
        m = rng.randrange(1, 12)
        r = rng.randrange(1, 30)
        out = kochman_q(r, m, "b", p)
        for mono in out.terms:
            assert sum(i * e for i, e in mono) == m + r * (p - 1)


@pytest.mark.parametrize("s", range(3 * 5 + 1))
def test_q_on_product_single_factor_matches_kochman(s):
    # s = 0 included: Q^0 N_4 is 0 by instability, not N_4
    p = 5
    assert q_on_product(s, [(4, 1)], "b", p) == kochman_q(s, 4, "b", p)


def _dl_image(poly, p):
    """The image of a class of DLAlgebra(p, {"x": 2(p-1)}) under the map
    x -> -N_(p-1), so that Q^a x -> -Q^a N_(p-1)."""
    out = SymmetricClass.zero(p, "b")
    for mono, c in poly.terms.items():
        term = SymmetricClass(p, "b", {(): 1}) * c
        for (word, _), e in mono:
            assert len(word) <= 1  # Q^s of a power of x is a product of Q^a x
            image = kochman_q(word[0], p - 1, "b", p) if word else SymmetricClass.newton(p, "b", p - 1)
            term = term * (-image).pow(e)
        out = out + term
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_q_on_product_matches_dl_engine(p):
    # the Dyer-Lashof engine and the Newton-class action obey one instability
    # rule: pushing Q^s(x^e) along x -> -N_(p-1) gives (-1)^e Q^s(N_(p-1)^e)
    alg = DLAlgebra(p, {"x": 2 * (p - 1)})
    x = alg.gen("x")
    wrong = []
    for e in range(1, p + 2):
        power = x.pow(e)
        for s in range((e + 2) * p + 3):
            expected = _dl_image(alg.apply_q(s, power), p)
            if q_on_product(s, [(p - 1, e)], "b", p) * (-1) ** e != expected:
                wrong.append((e, s))
    assert not wrong


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_stdl_all_identities(p):
    rep = verify_stdl(p)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_mudl_all_identities(p):
    rep = verify_mudl(p, seed=0)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("p", [5, 7])
def test_mudl_display4_exact_vs_sampled(p):
    # dual route: the exact expansion agrees with the sampled verdict
    lhs = q_on_product(p * p - p + 1, [(p - 1, p - 1)], "b", p)
    n1 = SymmetricClass.newton(p, "b", p - 1)
    n2 = SymmetricClass.newton(p, "b", 2 * (p - 1))
    rhs = n1.pow((p - 2) * p) * n2.pow(p)
    assert lhs.expand() == rhs.expand()
    rep = verify_mudl(p)
    assert rep.passed
    assert {c.name: c.method for c in rep.checks}["q_on_power_top"] == f"sampled(64, F_{p}^4)"


def test_mudl_builds_no_field(monkeypatch):
    # identity 4's sides cancel as Newton polynomials at every prime in scope,
    # so the sampled route has nothing to evaluate and builds no F_(p^4)
    calls = [0]
    init = GaloisField.__init__

    def counting_init(self, p, e):
        calls[0] += 1
        init(self, p, e)

    monkeypatch.setattr(GaloisField, "__init__", counting_init)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        rep = verify_mudl(p)
        assert rep.passed
        assert {c.name: c.method for c in rep.checks}["q_on_power_top"] == f"sampled(64, F_{p}^4)"
    assert calls[0] == 0


@pytest.mark.parametrize("p", [5, 7])
def test_sampled_route_evaluates_a_nonzero_difference(p):
    # N_(p-1)^2 against N_(p-1)^2 + N_(2(p-1)): the difference is a nonzero
    # Newton polynomial, so the route must evaluate it and catch it
    n1 = SymmetricClass.newton(p, "b", p - 1)
    n2 = SymmetricClass.newton(p, "b", 2 * (p - 1))
    square = n1.pow(2)
    assert not mu_homology._equal_sampled(square, square + n2, 64, random.Random(0))
    assert mu_homology._equal_sampled(square, n1 * n1, 64, random.Random(0))


def _digits(a, p, e):
    return [a // p**i % p for i in range(e)]


def _reference_mul(fld, a, b):
    """Schoolbook product of the digit vectors, reduced modulo the modulus."""
    p, e, f = fld.p, fld.e, fld.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            prod[i + j] += x * y
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i]
        for j in range(e + 1):
            prod[i - e + j] -= c * f[j]
    return sum(d % p * p**i for i, d in enumerate(prod[:e]))


@pytest.mark.parametrize("p, e, pairs", [(3, 2, None), (5, 2, None), (5, 4, 200)])
def test_field_arithmetic_matches_reference(p, e, pairs):
    # every operation against this file's own reference, on every pair or a
    # sample: products mod the modulus, digit sums and repeated products
    fld = GaloisField(p, e)
    if pairs is None:
        todo = [(a, b) for a in range(fld.size) for b in range(fld.size)]
    else:
        rng = random.Random(1)
        todo = [(fld.sample(rng), fld.sample(rng)) for _ in range(pairs)]
    for a, b in todo:
        assert fld.mul(a, b) == _reference_mul(fld, a, b)
        digits = [(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))]
        assert fld.add(a, b) == sum(d * p**i for i, d in enumerate(digits))
        # an integer c is the constant field element c mod p
        assert fld.mul_int(a, b) == _reference_mul(fld, a, b % p)
        power = 1
        for _ in range(b):
            power = fld.mul(power, a)
        assert fld.pow(a, b) == power


# a different modulus renumbers the field's elements, and with them every
# seeded sample the sampled route draws
PINNED_MODULI = {
    2: {3: [2, 1, 1], 5: [4, 2, 1], 7: [2, 5, 1], 11: [9, 8, 1], 13: [4, 6, 1], 17: [11, 7, 1],
        19: [2, 15, 1], 23: [16, 11, 1], 29: [21, 26, 1], 31: [28, 28, 1]},
    4: {3: [2, 2, 1, 1, 1], 5: [3, 2, 4, 3, 1], 7: [3, 2, 3, 2, 1], 11: [4, 5, 8, 5, 1],
        13: [5, 2, 12, 5, 1], 17: [5, 13, 9, 3, 1], 19: [4, 13, 11, 15, 1], 23: [6, 1, 6, 5, 1],
        29: [7, 13, 21, 20, 1], 31: [11, 20, 14, 0, 1]},
}


def test_field_moduli_are_pinned():
    got = {e: {p: GaloisField(p, e).modulus for p in moduli} for e, moduli in PINNED_MODULI.items()}
    assert got == PINNED_MODULI


@pytest.mark.parametrize("e", [0, 6, 12])
def test_field_degree_must_be_a_prime_power(e):
    with pytest.raises(ValueError):
        GaloisField(5, e)


def _identity4_sides(p):
    lhs = q_on_product(p * p - p + 1, [(p - 1, p - 1)], "b", p)
    n1 = SymmetricClass.newton(p, "b", p - 1)
    n2 = SymmetricClass.newton(p, "b", 2 * (p - 1))
    return lhs, n1.pow((p - 2) * p) * n2.pow(p)


def test_expand_is_read_only_or_a_fresh_dict(monkeypatch):
    # a one-term class hands out its memo entry, or the entry scaled, and
    # neither takes a write; a class of several terms gets a new dict, which
    # the caller may change without touching the memo
    monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
    p = 5
    single = SymmetricClass.newton(p, "b", 4).pow(3)
    got = single.expand()
    want = list(got.items())
    for poly in (got, (single * 2).expand()):
        with pytest.raises(TypeError):
            poly[((1, 4),)] = 3
        with pytest.raises(TypeError):
            del poly[want[0][0]]
    assert single.expand() is got is mu_homology._NEWTON_CACHE[p, "b", ((4, 3),)]
    assert list(got.items()) == want
    assert list((single * 2).expand().items()) == [(m, 2 * c % p) for m, c in want]
    cls = single * 2 + SymmetricClass.newton(p, "b", 3)
    first = cls.expand()
    assert type(first) is dict
    before = list(first.items())
    first.clear()
    first[((9, 9),)] = 1
    assert list(cls.expand().items()) == before
    assert list(single.expand().items()) == want


def test_expand_memo_keys_on_prime_and_context(monkeypatch):
    # the Newton monomial N_4 * N_8 (canonical at p = 3 and 5) in the b- and
    # xi-contexts at both primes: four entries, four generator polynomials
    monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
    mono = ((4, 1), (8, 1))
    got = {}
    for p in (3, 5):
        for context in ("b", "xi"):
            got[p, context] = SymmetricClass(p, context, {mono: 1}).expand()
    assert sorted(key[:2] for key in mu_homology._NEWTON_CACHE if key[2] == mono) == sorted(got)
    assert all(got.values())
    assert len({tuple(sorted(e.items())) for e in got.values()}) == 4
    # each agrees with the product taken outside the memo
    for (p, context), expansion in got.items():
        assert expansion == poly_mul(newton_expand(4, context, p), newton_expand(8, context, p), p)


def _expand_factor_by_factor(cls):
    """The expansion of a class by one `poly_pow` per Newton factor and one
    `poly_mul` per product, in the order of its terms and factors."""
    p, parts = cls.p, []
    for mono, c in cls.terms.items():
        poly = {(): 1}
        for m, e in mono:
            poly = poly_mul(poly, poly_pow(newton_expand(m, cls.context, p), e, p), p)
        parts.append((poly, c))
    return poly_sum(parts, p)


def _random_newton_monomial(rng, p, context, shared):
    """One to three distinct Newton indices coprime to p, with exponents that
    all share a factor p when ``shared`` and that do not otherwise.  In the
    xi-context the indices are multiples of p - 1 (the other N_m vanish) up
    to 2(p^2 - 1), past the weight p^2 - 1 of xi_2."""
    if context == "b":
        indices = [m for m in range(1, 9) if m % p][:6]
    else:
        indices = [m for m in range(p - 1, 2 * p * p - 1, p - 1) if m % p]
    ms = sorted(rng.sample(indices, rng.randint(1, 3)))
    if shared:
        es = [p * rng.randint(1, 2) for _ in ms]
    else:
        es = [rng.randint(1, 3) for _ in ms]
        es[rng.randrange(len(es))] = rng.choice([e for e in range(1, 2 * p) if e % p])
    return tuple(zip(ms, es))


@pytest.mark.parametrize("context", ["b", "xi"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_expand_matches_factor_by_factor_products(monkeypatch, p, context):
    # the packed chain of `expand` against poly_pow and poly_mul factor by
    # factor: the same dict in the same insertion order, for exponents that
    # share a factor p and exponents that do not, and for a class of several
    # terms with coefficients other than 1 (the empty monomial among them)
    rng = random.Random(100 * p + len(context))
    monos = [_random_newton_monomial(rng, p, context, shared) for shared in (True, False) * 3]
    classes = [SymmetricClass(p, context, {mono: 1}) for mono in monos]
    classes.append(SymmetricClass(p, context, {monos[1]: 2, monos[0]: p - 1, (): p - 2, monos[3]: 1}))
    # a class whose exponents share p twice
    classes.append(SymmetricClass(p, context, {((p - 1, p * p), (2 * p - 2, p * p)): 1}))
    assert any(mono and all(e % p == 0 for _, e in mono) for mono in monos)
    assert any(any(e % p for _, e in mono) for mono in monos)
    for cls in classes:
        monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
        want = _expand_factor_by_factor(cls)
        monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
        got = cls.expand()
        assert got == want, cls
        assert list(got) == list(want), cls
        assert list(got.items()) == list(want.items()), cls


def test_identity4_second_expansion_makes_no_product(monkeypatch):
    # both sides of identity 4 are one Newton monomial: once the right side is
    # expanded, expanding it again, or the left side, multiplies nothing.
    # Every packed product goes through arith._packed_mul and every other
    # one through poly_mul; the first expansion shows that both are counted
    monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
    p = 7
    lhs, rhs = _identity4_sides(p)
    assert list(lhs.terms) == list(rhs.terms)
    calls = {"poly_mul": 0, "_packed_mul": 0}
    packed_mul = arith._packed_mul

    def counting_mul(a, b, q):
        calls["poly_mul"] += 1
        return poly_mul(a, b, q)

    def counting_packed_mul(a, b, q):
        calls["_packed_mul"] += 1
        return packed_mul(a, b, q)

    monkeypatch.setattr(mu_homology, "poly_mul", counting_mul)
    monkeypatch.setattr(arith, "poly_mul", counting_mul)
    monkeypatch.setattr(arith, "_packed_mul", counting_packed_mul)
    want = rhs.expand()
    assert calls["poly_mul"] > 0 and calls["_packed_mul"] > 0
    calls.update(poly_mul=0, _packed_mul=0)
    assert rhs.expand() == want
    assert lhs.expand() == want
    assert calls == {"poly_mul": 0, "_packed_mul": 0}


def test_identity4_expansion_is_never_decoded(monkeypatch):
    # at p = 7 the two sides of identity 4 share one packed expansion of
    # 10 471 terms on a layout 31 bits wide (fields for exponent bounds 42,
    # 21, 14, 8, 7, 7 and six times 1, times q = 7); expanding, comparing and
    # counting it decode no key, and the first read of a monomial decodes
    # it once
    monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
    p = 7
    lhs, rhs = _identity4_sides(p)
    calls = [0]
    unpack = arith._unpack

    def counting_unpack(*args):
        calls[0] += 1
        return unpack(*args)

    monkeypatch.setattr(arith, "_unpack", counting_unpack)
    assert lhs.expand() == rhs.expand()
    assert len(lhs.expand()) == len(rhs.expand()) == 10471
    assert calls[0] == 0
    poly = rhs.expand()
    fields, q = poly.layout
    assert [(v, w) for v, w, _ in fields] == list(zip(range(1, 13), (6, 5, 4, 4, 3, 3, 1, 1, 1, 1, 1, 1)))
    assert sum(w for _, w, _ in fields) == 31 and q == p
    assert len(list(poly.items())) == len(dict(poly)) == 10471
    assert calls[0] == 1


def test_expanded_equality_agrees_with_decoded_dicts(monkeypatch):
    # packed values on the same layout compare their keys; values on
    # different layouts, and a packed value against a plain dict in either
    # order, compare the decoded polynomials
    monkeypatch.setattr(mu_homology, "_NEWTON_CACHE", {})
    p = 5
    lhs, rhs = _identity4_sides(p)
    n4 = newton_expand(4, "b", p)
    # N_4^5 packed twice: fields for exponents up to 5 * 4, or up to 4 and q = 5
    by_power, by_twist = arith._product([(n4, p)], p), arith._product([(n4, 1)], p, p)
    assert by_power.layout != by_twist.layout
    wrong = dict(by_twist.items())
    m = next(iter(wrong))
    wrong[m] = wrong[m] % (p - 1) + 1
    pairs = [
        (lhs.expand(), rhs.expand()),
        (by_power, by_twist),
        (rhs.expand(), SymmetricClass.newton(p, "b", 4).pow(3).expand()),
        (rhs.expand(), (-rhs).expand()),
        (by_twist, frobenius(n4, p)),
        (frobenius(n4, p), by_twist),
        (by_power, wrong),
        (wrong, by_power),
    ]
    wants = []
    for a, b in pairs:
        want = dict(a.items()) == dict(b.items())
        assert (a == b) is want, (a, b)
        assert (a != b) is not want, (a, b)
        wants.append(want)
    assert wants == [True, True, False, False, True, True, False, False]


def test_display4_sign_is_plus():
    # the product identity holds with +, and fails with the opposite sign
    p = 3
    lhs = q_on_product(p * p - p + 1, [(p - 1, p - 1)], "b", p)
    n1 = SymmetricClass.newton(p, "b", p - 1)
    n2 = SymmetricClass.newton(p, "b", 2 * (p - 1))
    rhs = n1.pow((p - 2) * p) * n2.pow(p)
    assert lhs.expand() == rhs.expand()
    assert lhs.expand() != (-rhs).expand()


def test_symmetric_evaluate_examples():
    p = 5
    fld = GaloisField(p, 1)
    # N_2 at the sample (1,1): e_1 = 2, e_2 = 1, N_2 = 4 - 2 = 2 = 1^2 + 1^2
    n2 = SymmetricClass.newton(p, "b", 2)
    assert symmetric_evaluate(n2, [1, 1], fld) == 2
    # zero sample kills positive-degree classes
    assert symmetric_evaluate(n2, [0, 0], fld) == 0
    with pytest.raises(ValueError):
        symmetric_evaluate(n2, [1], fld)


def test_symmetric_evaluate_rejects_xi_context():
    # only b-context classes are evaluated; no check evaluates an xi class
    p = 3
    fld = GaloisField(p, 2)
    cls = xibar(2, p) * xibar(1, p) + xibar(1, p).pow(4)
    sample = [fld.sample(random.Random(9)) for _ in range(cls.weighted_degree())]
    with pytest.raises(ValueError, match="b-context"):
        symmetric_evaluate(cls, sample, fld)


def test_galois_field_arithmetic():
    fld = GaloisField(5, 4)
    rng = random.Random(0)
    for _ in range(50):
        a, b = fld.sample(rng), fld.sample(rng)
        assert fld.mul(a, b) == fld.mul(b, a)
        if a:
            assert fld.pow(a, fld.size - 1) == 1
    # Frobenius is additive
    for _ in range(20):
        a, b = fld.sample(rng), fld.sample(rng)
        lhs = fld.pow(fld.add(a, b), 5)
        rhs = fld.add(fld.pow(a, 5), fld.pow(b, 5))
        assert lhs == rhs


def test_suites_time_each_identity(monkeypatch):
    # q_on_product serves only identity 4, so only that check carries its time
    from powerops import mu_homology, reports

    slow = mu_homology.q_on_product

    def sleepy_q_on_product(*args):
        time.sleep(0.05)
        return slow(*args)

    monkeypatch.setattr(mu_homology, "q_on_product", sleepy_q_on_product)
    for rep, first in ((reports.suite_mudl(5), "q_p2_newton"), (reports.suite_stdl(5), "q_p2_top_class")):
        ms = {c.name: c.elapsed_ms for c in rep.checks}
        assert ms["q_on_power_top"] >= 50
        assert ms[first] < 50
