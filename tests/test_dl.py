
import functools
import gc
import sys
import types
import weakref

import pytest

from powerops import cli, dl
from powerops.arith import prime_factors
from powerops.dl import (
    DLAlgebra,
    DLPolynomial,
    RelationSpec,
    free_algebra,
    op_definedness,
    relation_en_threshold,
    solve_sigma,
    verify_factorization,
    verify_relation,
)


@pytest.fixture(params=[3, 5])
def algebra(request):
    p = request.param
    return DLAlgebra(p, {"x": 2 * (p - 1)})


def test_instability_cases(algebra):
    p = algebra.p
    x = algebra.gen("x")
    assert x.q(p - 2).is_zero()
    assert x.q(p - 1) == x.pow(p)
    # below-degree operations vanish on products too
    assert (x * x).q(p - 2).is_zero()


def test_adem_straightening_example(algebra):
    # Q^(2p^2) Q^p x = Q^(2p^2-p) Q^(2p) x on the degree-2(p-1) generator
    p = algebra.p
    x = algebra.gen("x")
    assert x.q(p).q(2 * p * p) == x.q(2 * p).q(2 * p * p - p)


def test_adem_top_pair_expansion(algebra):
    p = algebra.p
    x = algebra.gen("x")
    lhs = x.q(p * p).q(p**3 + p)
    rhs = algebra.zero()
    for i in range(1, p):
        sign = 1 if (i + 1) % 2 == 0 else -1
        rhs = rhs + x.q(p * p + i).q(p**3 + p - i) * sign
    assert lhs == rhs


def is_admissible(algebra, word, generator):
    """Whether Q^word on the generator is an admissible word: each operation
    lies above the instability bound of the degree it acts on (2s > d), and
    s_j <= p * s_(j+1) along the word."""
    d = algebra.generators[generator]
    for s in reversed(word):
        if 2 * s <= d:
            return False
        d += 2 * s * (algebra.p - 1)
    return all(word[j] <= algebra.p * word[j + 1] for j in range(len(word) - 1))


def test_adem_normalize_idempotent_and_degree(algebra):
    p = algebra.p
    word = (p**3 + p, p * p)
    out = algebra.adem_normalize(word, "x")
    deg = 2 * (p - 1) + 2 * (word[0] + word[1]) * (p - 1)
    assert out.degrees() <= {deg}
    # every output word is admissible, and renormalizing each is a fixed point
    renorm = algebra.zero()
    for mono, c in out.terms.items():
        assert len(mono) == 1 and mono[0][1] == 1
        w, g = mono[0][0]
        assert is_admissible(algebra, w, g)
        renorm = renorm + algebra.adem_normalize(w, g) * c
    assert renorm == out


def test_pth_power_frobenius_rule(algebra):
    p = algebra.p
    x = algebra.gen("x")
    f = x.q(p)
    # Q^s(u^p) = 0 unless p | s, else (Q^(s/p) u)^p
    assert f.frob().q(p**3 + 1).is_zero()
    s = p * (p * p + p)
    assert f.frob().q(s) == f.q(p * p + p).frob()


def test_total_operation_multiplicativity(algebra):
    # sum_s Q^s(uv) t^s = (sum Q^a u t^a)(sum Q^b v t^b) up to a cutoff
    p = algebra.p
    x = algebra.gen("x")
    u = x.q(p)
    v = x * x
    cutoff = 2 * p * p
    for s in range(cutoff):
        lhs = (u * v).q(s)
        rhs = algebra.zero()
        for a in range(s + 1):
            qa = u.q(a)
            if qa.is_zero():
                continue
            rhs = rhs + qa * v.q(s - a)
        assert lhs == rhs


@pytest.mark.parametrize("p", [3, 5])
def test_relation_and_identities(p):
    rep = verify_relation(p)
    assert rep.residual.is_zero()
    assert all(rep.identities.values())
    assert rep.en_threshold == 2 * (p * p + 2)


@pytest.mark.parametrize("p", [7, 11, 13, 17, 29, 31, 37])
def test_relation_large_primes(p):
    assert verify_relation(p).passed
    assert verify_factorization(p).passed


# recursion depth verify_relation(p) may add to its caller's: 3 over the
# least that passes, 17 at every p on Python 3.11.7, since the Cartan walk is
# one loop and its depth does not grow with p.  A walk that recursed per pick
# needed 21, 22, 24, 28 and 30 at p = 3, 5, 7, 11 and 13, and fails each case
RELATION_DEPTH = {3: 20, 5: 20, 7: 20, 11: 20, 13: 20}


def _recursion_depth():
    """The caller's depth as the recursion limit counts it, C-level calls
    included: the least limit `sys.setrecursionlimit` accepts here, less 2."""
    limit, n = sys.getrecursionlimit(), 1
    while True:
        try:
            sys.setrecursionlimit(n)
        except RecursionError:
            n += 1
            continue
        sys.setrecursionlimit(limit)
        return n - 2


@pytest.mark.parametrize("p", sorted(RELATION_DEPTH))
def test_relation_recursion_depth(p, monkeypatch):
    # a fresh algebra, so that no Q cache another test filled hides a level
    monkeypatch.setattr(dl, "free_algebra", functools.cache(free_algebra.__wrapped__))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + RELATION_DEPTH[p])
    try:
        assert verify_relation(p).passed
    finally:
        sys.setrecursionlimit(limit)


def test_relation_leaves_no_cartan_cycle(monkeypatch):
    # with the cycle collector off, whatever `arith.cartan` leaves behind
    # stays; a helper defined in it that called itself would form a cycle
    # through its own closure cell and outlive the call
    monkeypatch.setattr(dl, "free_algebra", functools.cache(free_algebra.__wrapped__))
    gc.collect()
    gc.disable()
    try:
        assert verify_relation(3).passed
        left = [
            f for f in gc.get_objects()
            if isinstance(f, types.FunctionType) and f.__qualname__.startswith("cartan.<locals>.")
        ]
    finally:
        gc.enable()
    assert left == []


@pytest.mark.parametrize("p", [3, 5])
def test_verifiers_share_one_free_algebra(p, monkeypatch):
    A = free_algebra(p)
    assert A is free_algebra(p)
    assert A.generators == {"x": 2 * (p - 1), "y": 4 * (p - 1)}
    rel = RelationSpec.for_prime(p)
    assert rel.algebra is A and RelationSpec.for_prime(p) is rel
    assert solve_sigma(p).residual.algebra is A
    assert verify_factorization(p).residual.algebra is A
    # the statement lives as long as its algebra: a fresh algebra gets a
    # fresh statement, and dropping that algebra frees both
    monkeypatch.setattr(dl, "free_algebra", functools.cache(free_algebra.__wrapped__))
    fresh = RelationSpec.for_prime(p)
    assert fresh is not rel and fresh.algebra is dl.free_algebra(p) is not A
    gone = weakref.ref(fresh.algebra)
    dl.free_algebra.cache_clear()
    del fresh
    gc.collect()
    assert gone() is None


def test_verifiers_build_each_product_once(monkeypatch):
    # every product and Frobenius twist the relation, its identities, the
    # sigma solve and the factorization ask for at p = 5, keyed by its
    # operands (either order); the statement names each one once (before
    # it, 35 of the 66 calls repeated an earlier one), and mu o R takes no
    # product T_i * 0 for its zero c_i, 0 < i < p (31 calls with them)
    monkeypatch.setattr(dl, "free_algebra", functools.cache(free_algebra.__wrapped__))
    mul, frob = DLPolynomial.__mul__, DLPolynomial.frob
    calls = []

    def key(f):
        return frozenset(f.terms.items())

    def counted_mul(self, other):
        if not isinstance(other, int):
            calls.append(("mul", frozenset((key(self), key(other)))))
        return mul(self, other)

    def counted_frob(self, i=1):
        calls.append(("frob", key(self), i))
        return frob(self, i)

    monkeypatch.setattr(DLPolynomial, "__mul__", counted_mul)
    monkeypatch.setattr(DLPolynomial, "__rmul__", counted_mul)
    monkeypatch.setattr(DLPolynomial, "frob", counted_frob)
    p = 5
    assert verify_relation(p).passed
    assert solve_sigma(p).verified
    assert verify_factorization(p).passed
    assert (len(calls), len(calls) - len(set(calls))) == (27, 0)


@pytest.mark.parametrize("p", [3, 5])
def test_relation_mutation_detected(p):
    rel = RelationSpec.for_prime(p)
    assert rel.relation_value().is_zero()
    # b = 0 drops the b^p Q^(p^2) Q^p x term
    assert not rel.relation_value(b=rel.algebra.zero()).is_zero()
    # perturbing one input also breaks it
    bad_a = list(rel.a)
    bad_a[0] = bad_a[0] + rel.x.pow(p * p + 1)
    assert not rel.relation_value(a=bad_a).is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_relation_value_reads_and_builds_in_one_order(p):
    # a c passed in builds its own T_i c_i; the statement's own c reads the
    # stored ones, in the same order
    rel = RelationSpec.for_prime(p)
    zero = rel.algebra.zero()
    assert list(rel.relation_value(c=list(rel.c)).terms.items()) == list(rel.relation_value().terms.items())
    built = rel.relation_value(b=zero, c=list(rel.c))
    assert built.terms and list(built.terms.items()) == list(rel.relation_value(b=zero).terms.items())


# three nonzero residuals at p = 3, terms in insertion order: the relation
# with b = 0, with x^10 added to a_0, and the factorization with each sigma + 1
MUTANT_RESIDUALS_3 = {
    "b_zero": [
        (((((), "x"), 9), (((5,), "x"), 3), (((9, 3), "x"), 1)), 1),
        (((((3,), "x"), 3), (((4,), "x"), 3), (((9, 3), "x"), 1)), 1),
        (((((), "x"), 27), (((9, 3), "x"), 1)), 1),
    ],
    "bad_a": [
        (((((3,), "x"), 10),), 1),
        (((((), "x"), 27), (((12,), "x"), 1)), 1),
    ],
    "sigma_plus_one": [
        (((((28, 10), "y"), 1),), 2),
    ],
}


def test_mutant_residual_term_order():
    p = 3
    rel = RelationSpec.for_prime(p)
    bad_a = list(rel.a)
    bad_a[0] = bad_a[0] + rel.x.pow(p * p + 1)
    bad_sigmas = [(s + 1) % p for s in solve_sigma(p).sigmas]
    got = {
        "b_zero": rel.relation_value(b=rel.algebra.zero()),
        "bad_a": rel.relation_value(a=bad_a),
        "sigma_plus_one": verify_factorization(p, sigmas=bad_sigmas).residual,
    }
    assert {name: list(r.terms.items()) for name, r in got.items()} == MUTANT_RESIDUALS_3


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_sigma(p):
    sol = solve_sigma(p)
    assert len(sol.sigmas) == p - 2
    assert sol.kernel_dimension == 0
    assert sol.residual.is_zero()


@pytest.mark.parametrize("p", [p for p in range(3, cli.MAX_PRIME + 1, 2) if prime_factors(p) == [p]])
def test_sigma_basis_is_distinct_admissible_words(p):
    # what `solve_sigma` reads sigma off: each w_i = Q^(p^3+p-i-1) Q^(p^2+i) y
    # is one monomial with coefficient 1, no two are equal, and the target
    # holds no monomial outside them
    y = free_algebra(p).gen("y")
    w = [y.q(p * p + i).q(p**3 + p - i - 1) for i in range(1, p - 1)]
    assert all(list(wi.terms.values()) == [1] for wi in w)
    words = [next(iter(wi.terms)) for wi in w]
    assert len(set(words)) == p - 2
    target = y.q(p * p - 1).q(p**3 + p) + y.q(p * p + p - 1).q(p**3)
    assert set(target.terms) <= set(words)


def test_c_i_ask_cartan_only_for_reachable_operations():
    # the ten one-term c_i = Q^(p^2+pi)(Q^p x) at p = 11: a Cartan call on
    # one linear factor asks for its own Q^s alone, so the Adem recursion
    # under apply_q(r+s-i, Q^i x) does not straighten every Q^a up to s
    # (2 541 Q-monomials when each call built all of them)
    p = 11
    A = DLAlgebra(p, {"x": 20, "y": 40})
    qpx = A.gen("x").q(p)
    c = [qpx.q(p * p + p * i) for i in range(1, p)]
    assert [ci.monomials() for ci in c] == [[f"(Q^{p * p + (p - 1) * i} Q^{p + i} x)"] for i in range(1, p)]
    assert len(A._q_monomial_cache) <= 600
    sol = solve_sigma(p)
    assert sol.verified
    assert sol.sigmas == [1, 9, 3, 7, 5, 5, 7, 3, 9]


@pytest.mark.parametrize("p", [3, 5])
def test_factorization(p):
    rep = verify_factorization(p)
    assert rep.passed


@pytest.mark.parametrize("p", [3, 5])
def test_factorization_mutation_detected(p):
    sol = solve_sigma(p)
    bad = [(s + 1) % p for s in sol.sigmas]
    rep = verify_factorization(p, sigmas=bad)
    assert not rep.passed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_en_threshold_value(p):
    assert relation_en_threshold(p) == 2 * (p * p + 2)


def test_op_definedness_classification():
    p = 3
    n = 2 * (p * p + 2)
    s = p**3 + p
    d = 2 * (p - 1) * (p * p + 1)
    assert op_definedness(n, s, d) == "defined_with_properties"
    assert op_definedness(2 * s - d + 1, s, d) == "defined_unstable"
    assert op_definedness(2 * s - d, s, d) == "undefined"


def test_cartan_on_mixed_product(algebra):
    # Q^(2p^2-p)(x^p Q^p x) = x^(p^2) Q^(p^2) Q^p x
    p = algebra.p
    x = algebra.gen("x")
    lhs = (x.pow(p) * x.q(p)).q(2 * p * p - p)
    rhs = x.pow(p * p) * x.q(p).q(p * p)
    assert lhs == rhs


def test_polynomial_algebra_basics(algebra):
    p = algebra.p
    x = algebra.gen("x")
    assert (x - x).is_zero()
    assert x * DLPolynomial(algebra, {(): 1}) == x
    assert (x.pow(2) * x.pow(3)) == x.pow(5)
    assert x * (p) == algebra.zero() * 1
