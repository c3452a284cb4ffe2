import random

import pytest

from powerops.arith import binary_power, poly_mul
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


def test_q_on_product_single_factor_matches_kochman():
    p = 5
    assert q_on_product(7, [(4, 1)], "b", p) == kochman_q(7, 4, "b", p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stdl_all_identities(p):
    rep = verify_stdl(p)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mudl_all_identities(p):
    rep = verify_mudl(p, seed=0)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_mudl_display4_exact_vs_sampled_p5():
    # dual route: the exact expansion agrees with the sampled verdict
    p = 5
    lhs = q_on_product(p * p - p + 1, [(p - 1, p - 1)], "b", p)
    n1 = SymmetricClass.newton(p, "b", p - 1)
    n2 = SymmetricClass.newton(p, "b", 2 * (p - 1))
    rhs = n1.pow((p - 2) * p) * n2.pow(p)
    assert lhs.expand() == rhs.expand()
    rep = verify_mudl(p)
    assert rep.passed
    assert {c.name: c.method for c in rep.checks}["q_on_power_top"] == "sampled(64, F_5^4)"


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


def test_symmetric_evaluate_xi_context_consistent():
    # evaluating the xi-expansion at xi_k = e_(p^k-1)(sample) agrees with the
    # recursion route used by symmetric_evaluate
    p = 3
    rng = random.Random(9)
    fld = GaloisField(p, 2)
    cls = xibar(2, p) * xibar(1, p) + xibar(1, p).pow(4)
    M = cls.weighted_degree()
    for _ in range(5):
        sample = [fld.sample(rng) for _ in range(M)]
        direct = symmetric_evaluate(cls, sample, fld)
        # independent route: expand to xi-polynomials, then substitute
        es = [1] + [0] * M
        for x in sample:
            for i in range(M, 0, -1):
                es[i] = fld.add(es[i], fld.mul(x, es[i - 1]))
        xi_vals = {1: es[p - 1], 2: es[p * p - 1] if p * p - 1 <= M else 0}
        total = 0
        for mono, c in cls.expand().items():
            v = 1
            for k, e in mono:
                v = fld.mul(v, fld.pow(xi_vals[k], e))
            total = fld.add(total, fld.mul_int(v, c))
        assert direct == total


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
