"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every test prints a single line `criterion-N: PASS` on success so the gate
can be audited from the pytest -s output.
"""

import math
import re
import time

import pytest

from powerops import arith, dl, mu_homology, reports
from powerops.dl import (
    op_definedness,
    relation_en_threshold,
    solve_sigma,
    verify_factorization,
    verify_relation,
)
from powerops.fgl import FormalGroupLaw
from powerops.mu_homology import SymmetricClass, verify_mudl, verify_stdl
from powerops.powerop import (
    f_coefficient,
    h_polynomial,
    power_operation_value,
    reduce_g_mod_p_series,
    run_pipeline,
    sigma_dl_coefficient,
)
from powerops.scalar import CoeffV3, PAdicScalar
from powerops.series import TruncatedSeries

K = 8


def _report(name: str):
    print(f"{name}: PASS")


# -- criterion 1: first family of power-operation values ---------------------


def test_criterion_1_power_operation_first_case():
    budgets = {3: 1.0, 5: 1.0, 7: 30.0}
    for p in (3, 5, 7):
        F = FormalGroupLaw.v3_truncated(p, K)
        t0 = time.perf_counter()
        res = power_operation_value(F, 2)
        elapsed = time.perf_counter() - t0
        assert res.value.plain == {} and res.value.constant.is_zero()
        assert res.value.v3 == {p**3 - 1 - 2 * (p - 1): 1}
        assert elapsed < budgets[p], f"p={p} took {elapsed:.2f}s"
    _report("criterion-1 (value v3*alpha^(p^3-1-2(p-1)) for p=3,5,7)")


def test_criterion_2_power_operation_second_case():
    for p in (3, 5, 7):
        F = FormalGroupLaw.v3_truncated(p, K)
        res = power_operation_value(F, p)
        assert res.value.plain == {} and res.value.constant.is_zero()
        assert res.value.v3 == {p**3 - 1 - p * (p - 1): p - 1}
    _report("criterion-2 (value -v3*alpha^(p^3-1-p(p-1)) for p=3,5,7)")


# -- criterion 3: intermediate stage golden values ----------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_3_stage_goldens(p):
    F = FormalGroupLaw.v3_truncated(p, K)
    ab = p**3 + p
    a = TruncatedSeries.variable(p, "alpha", ("alpha",), (ab,), K)

    # <p>(alpha) = p - (p^(p^3-1) - 1) v3 alpha^(p^3-1)
    angle = F.angle_p_series()
    expected = TruncatedSeries.one(p, ("alpha",), (ab,), K).mul_int(p) + a.pow(
        p**3 - 1
    ).scale(CoeffV3.from_v3(PAdicScalar.from_int(p, 1 - p ** (p**3 - 1), K)))
    assert angle == expected

    # chi = -alpha^(p-1)
    assert F.euler_class() == -a.pow(p - 1)

    # g = chi x + x^p + O(x^(p^2)) after quotient reduction
    trace = run_pipeline(F, p**2, p**3 + p * (p - 1) ** 2 + 1)
    x = TruncatedSeries.variable(p, "x", trace.g.vars, trace.g.bounds, K)
    aa = TruncatedSeries.variable(p, "alpha", trace.g.vars, trace.g.bounds, K)
    assert reduce_g_mod_p_series(trace.g) == x.pow(p) - aa.pow(p - 1) * x

    # k^(-1) coefficients C(np,n)/(n(p-1)+1) alpha^(n(p-2)(p-1)), n <= p
    for n in range(1, p + 1):
        slot = trace.k_inverse.coefficient("y", n * (p - 1) + 1)
        key = tuple(
            n * (p - 2) * (p - 1) if v == "alpha" else 0 for v in trace.k_inverse.vars
        )
        want = PAdicScalar.from_ratio(p, math.comb(n * p, n), n * (p - 1) + 1, K)
        assert slot.terms[key].plain == want

    # f and h at n = i(p-1) for i = 2..p
    for i in range(2, p + 1):
        n = i * (p - 1)
        f_n = f_coefficient(trace, n)
        h_n = h_polynomial(f_n, trace.angle_p, n)
        key = (i * (p - 2) * (p - 1),)
        assert f_n.terms[key].plain == PAdicScalar.from_int(p, math.comb(i * p, i), K)
        assert h_n.terms[key].plain == PAdicScalar.from_ratio(p, math.comb(i * p, i), p, K)
    _report(f"criterion-3 (stage goldens, p={p})")


def test_criterion_4_dl_extraction():
    for p in (3, 5, 7):
        F = FormalGroupLaw.v3_truncated(p, K)
        res2 = power_operation_value(F, 2)
        c = sigma_dl_coefficient(res2, p * p + p - 1)
        assert c.plain.is_zero() and c.v3part.residue() == 1
        resp = power_operation_value(F, p)
        c = sigma_dl_coefficient(resp, p * p + 1)
        assert c.plain.is_zero() and c.v3part.residue() == p - 1
    _report("criterion-4 (extraction +1 at k=p^2+p-1, -1 at k=p^2+1; p=3,5,7)")


def test_criterion_5_grand_relation():
    for p in (3, 5):
        t0 = time.perf_counter()
        rep = verify_relation(p)
        elapsed = time.perf_counter() - t0
        assert rep.residual.is_zero(), rep.residual.monomials()
        identities = [c for c in rep.checks if c.name.startswith("identity_")]
        assert len(identities) == 5 and all(c.status == "pass" for c in identities)
        if p == 5:
            assert elapsed < 300.0
    _report("criterion-5 (relation residual 0 and five identities; p=3,5)")


def test_criterion_6_sigma_solve_and_factorization():
    for p in (3, 5):
        sol = solve_sigma(p)
        assert sol.residual.is_zero() and sol.kernel_dimension == 0
        assert verify_factorization(p, sol.sigmas).passed
    _report("criterion-6 (sigma solve + factorization identity; p=3,5)")


def test_criterion_7_stdl_mudl():
    for p in (3, 5, 7):
        s = verify_stdl(p)
        assert [c.name for c in s.checks if c.status == "fail"] == []
        m = verify_mudl(p, seed=0)
        assert [c.name for c in m.checks if c.status == "fail"] == []
        # a passing row's actual is the route that decided it
        methods = {c.name: c.actual for c in m.checks}
        if p == 3:
            assert methods["q_on_power_top"] == "exact-expansion"
        else:
            # documented failure bound: (degree / p^4)^64 < 2^-30
            degree = (p - 1) * p * p
            assert (degree / p**4) ** 64 < 2**-30
            assert methods["q_on_power_top"].startswith("sampled(64")
    _report("criterion-7 (six identities each, exact at p=3, sampled id-4 at p>=5)")


def test_criterion_8_congruences():
    for p in (3, 5, 7, 11, 13):
        assert (math.comb(2 * p, 2) // p) % p == p - 1
        assert (math.comb(p * p, p) // p) % p == 1
    _report("criterion-8 (C(2p,2)/p = -1 and C(p^2,p)/p = +1 mod p; p in 3..13)")


def test_criterion_9_property_suites_standalone():
    # the standalone property suite must pass end to end; K-stability of
    # criteria 1-2 is one of its checks
    rep = reports.suite_properties(3, precision=K, seed=0)
    assert rep.overall == "pass", [c.name for c in rep.checks if c.status == "fail"]
    names = {c.name for c in rep.checks}
    assert "precision_stability_K8_vs_K12" in names
    assert "lagrange_round_trip" in names
    assert "quotient_normalize_idempotent" in names
    assert "adem_idempotent_degree_preserving" in names
    assert "newton_frobenius" in names
    assert "teichmuller_root_of_unity" in names
    assert "fgl_associativity" in names
    assert "exp_equals_reversion_of_log" in names
    assert "g_closed_form_equals_formal_sums" in names
    _report("criterion-9 (property suites runnable standalone; K=8 vs K=12 stable)")


def test_criterion_10_definedness_threshold():
    for p in (3, 5, 7):
        s = p**3 + p
        d = 2 * (p - 1) * (p**2 + 1)
        threshold = 2 * s - d + 2
        assert threshold == 2 * (p**2 + 2)
        assert relation_en_threshold(p) == threshold
        assert op_definedness(threshold, s, d) == "defined_with_properties"
        assert op_definedness(threshold - 1, s, d) == "defined_unstable"
        assert op_definedness(threshold - 2, s, d) == "undefined"
        rep = reports.suite_relation(p)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["en_threshold"].status == "pass"
        assert by_name["en_threshold"].actual == str(2 * (p**2 + 2))
        # the relation itself runs at every prime, p = 7 included
        assert by_name["grand_relation"].status == "pass"
        assert sum(n.startswith("identity_") for n in by_name) == 5
        assert all(c.status == "pass" for c in rep.checks)
    _report("criterion-10 (E_n threshold 2(p^2+2) reported; p=3,5,7)")


def test_property_suite_past_the_newton_index_cap():
    # 42 // (p - 1) is 0 from p = 47 on, and newton_frobenius takes m = 1
    rep = reports.run_suite("properties", 47)
    assert [c.name for c in rep.checks if c.status == "fail"] == []
    assert {c.name: c.actual for c in rep.checks}["newton_frobenius"] == "m=1"


# one whole monomial as `residual_text` renders it: Newton classes, and
# products of admissible words on x and y
NEWTON_MONOMIAL = r"N_\d+(\^\d+)?(\*N_\d+(\^\d+)?)*"
DL_FACTOR = r"([xy]|\((Q\^\d+ )+[xy]\)|\((Q\^\d+ )*[xy]\)\^\d+)"
DL_MONOMIAL = rf"{DL_FACTOR}( \* {DL_FACTOR})*"


def test_failed_identities_show_their_residual(monkeypatch):
    # two one-line mutants at p = 3: Q^r N_m with its sign fixed at +1 breaks
    # stdl and mudl identities, and a Cartan formula that drops the Frobenius
    # twist breaks relation identities.  Each failed identity's actual is
    # its route and its residual lhs - rhs: the term count and the first
    # terms, each whole
    p = 3
    routes = {
        (suite, c.name): c.actual for suite, rows in (("stdl", verify_stdl(p)), ("mudl", verify_mudl(p)))
        for c in rows.checks
    }

    def unsigned_kochman_q(r, m, context, p):
        c = arith.binom_mod(r - 1, m - 1, p)
        return SymmetricClass.newton(p, context, m + r * (p - 1), c) if c else SymmetricClass.zero(p, context)

    monkeypatch.setattr(mu_homology, "kochman_q", unsigned_kochman_q)
    monkeypatch.setattr(arith, "frobenius", lambda a, q: a)
    dl.free_algebra.cache_clear()
    try:
        failed = {
            name: [c for c in rows.checks if c.status == "fail"]
            for name, rows in (("stdl", verify_stdl(p)), ("mudl", verify_mudl(p)), ("relation", verify_relation(p)))
        }
    finally:
        monkeypatch.undo()
        dl.free_algebra.cache_clear()
    for suite, rows in failed.items():
        identities = [c for c in rows if c.name != "grand_relation"]
        assert identities, suite
        for c in identities:
            assert "fails" not in c.actual
            route, sep, witness = c.actual.partition(": residual ")
            assert sep, c.actual
            assert route == ("exact" if suite == "relation" else routes[suite, c.name])
            count, sep, terms = witness.partition(" term(s): ")
            terms = terms.split("; ")
            assert sep and len(terms) == min(int(count), 4), c.actual
            monomial = DL_MONOMIAL if suite == "relation" else NEWTON_MONOMIAL
            assert all(re.fullmatch(monomial, t) for t in terms), c.actual
