"""Verification suites with machine-readable reports: the runner table,
the options each suite reads, and the JSON.

A suite report is a list of `arith.Check` rows, each added by
`arith.CheckList.add` with its expected and actual values as rendered
strings.  The stdl, mudl and relation suites are the rows their verifiers
add themselves (`mu_homology.verify_stdl` and `verify_mudl`,
`dl.verify_relation`), where a failed identity's actual names its route
and its residual lhs - rhs; the other suites add theirs here, and a failed
DL residual shows by `arith.residual_text`.  A report is deterministic at a
fixed seed apart from the elapsed-time fields.
"""

from __future__ import annotations

import math

from . import dl, mu_homology, powerop
from .arith import Check, CheckList, binary_power, poly_mul, residual_text
from .fgl import FormalGroupLaw
from .scalar import (
    DEFAULT_PRECISION,
    CoeffV3,
    PAdicScalar,
    primitive_teichmuller_root,
)
from .series import TruncatedSeries, divide_by_alpha_power, lagrange_invert, quotient_normalize

__all__ = ["SuiteReport", "run_suite", "run_suites", "suite_options", "SUITES", "REPORT_VERSION"]

REPORT_VERSION = "1"

SUITES = ("powerop", "stdl", "mudl", "relation", "sigma", "factorization")
EXTRA_SUITES = ("congruences", "properties")


class SuiteReport(CheckList):
    """One suite's rows, each added by `CheckList.add`: here, or by the
    verifier the suite runs."""

    __slots__ = ("suite", "prime")

    def __init__(self, suite: str, prime: int, checks: list[Check] | None = None):
        super().__init__(checks)
        self.suite, self.prime = suite, prime

    @property
    def overall(self) -> str:
        return "pass" if all(c.status != "fail" for c in self.checks) else "fail"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "prime": self.prime,
            "overall": self.overall,
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def _expected_value_string(p: int, i: int) -> str:
    exp = p**3 - 1 - i * (p - 1)
    coeff = (-math.comb(i * p, i) // p) % p
    signed = coeff if coeff <= (p - 1) // 2 else coeff - p
    mag = "" if abs(signed) == 1 else f"{abs(signed)} * "
    return ("-" if signed < 0 else "") + f"{mag}v3 * alpha^{exp}"


def suite_powerop(p: int, precision: int = DEFAULT_PRECISION) -> SuiteReport:
    rep = SuiteReport("powerop", p)
    rep.precision = precision
    F = FormalGroupLaw.v3_truncated(p, precision)

    roots = (F.scalar_series(F.omega**i, "alpha") for i in range(1, p))  # the oracle of chi
    product = math.prod(roots, start=TruncatedSeries.one(p, ("alpha",), (p**3 + p,), precision))
    rep.add("euler_class", product == F.euler_class(), "-alpha^(p-1)", repr(product))

    generic = divide_by_alpha_power(F.p_series("alpha"), 1)  # the oracle of <p>
    want = "p - (p^(p^3-1)-1) v3 alpha^(p^3-1)"
    rep.add("angle_p_series", generic == F.angle_p_series(), want, repr(generic))

    for i in (2, p):
        res = powerop.power_operation_value(F, i)
        got = res.value.render()
        want = _expected_value_string(p, i)
        rep.add(f"value_i{i}", got == want, want, got)
        k = p * p + p - 1 if i == 2 else p * p + 1
        c = powerop.sigma_dl_coefficient(res, k)
        witness = c.v3part.residue() if not c.v3part.is_zero() else 0
        want_w = 1 if i == 2 else p - 1
        rep.add(
            f"dl_extraction_k{k}",
            witness == want_w and c.plain.is_zero(),
            f"{1 if i == 2 else -1} * sigma-class",
            f"{witness if witness <= (p - 1) // 2 else witness - p} * sigma-class",
        )
    return rep


def suite_stdl(p: int) -> SuiteReport:
    return SuiteReport("stdl", p, mu_homology.verify_stdl(p).checks)


def suite_mudl(p: int, seed: int = 0) -> SuiteReport:
    return SuiteReport("mudl", p, mu_homology.verify_mudl(p, seed=seed).checks)


def suite_relation(p: int) -> SuiteReport:
    return SuiteReport("relation", p, dl.verify_relation(p).checks)


def suite_sigma(p: int) -> SuiteReport:
    rep = SuiteReport("sigma", p)
    sol = dl.solve_sigma(p)
    rep.add(
        "solved",
        sol.kernel_dimension == 0,
        "unique solution",
        f"sigma = {sol.sigmas}, kernel dim {sol.kernel_dimension}",
    )
    rep.add("substitution_residual", sol.residual.is_zero(), "0", residual_text(sol.residual))
    return rep


def suite_factorization(p: int) -> SuiteReport:
    rep = SuiteReport("factorization", p)
    result = dl.verify_factorization(p)
    rep.add(
        "mu_R_equals_Qbar_nu_plus_beta_alpha",
        result.passed,
        "0",
        residual_text(result.residual),
    )
    return rep


def suite_congruences(p: int) -> SuiteReport:
    rep = SuiteReport("congruences", p)
    v1 = (math.comb(2 * p, 2) // p) % p
    rep.add("binom_2p_2_over_p", v1 == p - 1, "-1 mod p", str(v1 - p))
    v2 = (math.comb(p * p, p) // p) % p
    rep.add("binom_p2_p_over_p", v2 == 1, "1 mod p", str(v2))
    return rep


def suite_properties(p: int, precision: int = DEFAULT_PRECISION, seed: int = 0) -> SuiteReport:
    """Standalone property checks: algebra axioms, round trips, stability."""
    import random

    rng = random.Random(seed)
    rep = SuiteReport("properties", p)
    rep.precision = precision

    w = primitive_teichmuller_root(p, precision)
    one = PAdicScalar.from_int(p, 1, precision)
    rep.add("teichmuller_root_of_unity", w ** (p - 1) == one, "w^(p-1) = 1", "")

    F = FormalGroupLaw.v3_truncated(p, precision)
    vars3, bounds3 = ("x", "y", "z"), (5, 5, 5)
    x = TruncatedSeries.variable(p, "x", vars3, bounds3, precision)
    y = TruncatedSeries.variable(p, "y", vars3, bounds3, precision)
    z = TruncatedSeries.variable(p, "z", vars3, bounds3, precision)
    lhs = F.formal_sum(F.formal_sum(x, y), z)
    rhs = F.formal_sum(x, F.formal_sum(y, z))
    rep.add("fgl_associativity", lhs == rhs, "F(F(x,y),z) = F(x,F(y,z))", "")
    rep.add("fgl_commutativity", F.formal_sum(x, y) == F.formal_sum(y, x), "F(x,y) = F(y,x)", "")

    # the closed-form exponential against a generic reversion of the logarithm
    zb = p**3 + p
    zv = TruncatedSeries.variable(p, "z", ("z",), (zb,), precision)
    reverted = lagrange_invert(F.log.series(zv), "z")
    rep.add(
        "exp_equals_reversion_of_log",
        F.exp_of(zv) == F.log.inverse_series("z", ("z",), (zb,)) == reverted,
        "exp(z) = log^(-1)(z) by Lagrange inversion",
        "",
    )

    # the closed-form g stage against the generic product of formal sums;
    # that product agrees from K = 2 at p = 3 and K = 3 at p = 5, 7, 11 (below,
    # scalar addition cancels v3 terms to an exact 0), so it runs at K >= 8
    Fg = FormalGroupLaw.v3_truncated(p, max(precision, DEFAULT_PRECISION))
    # x bound 2p+1 keeps the j = 1 and j = p terms; the pipeline's p^2 costs 7.4 s at p = 11
    gb = (2 * p + 1, p**3 + p)
    rep.add(
        "g_closed_form_equals_formal_sums",
        powerop.g_series(Fg, *gb) == powerop._g_by_formal_sums(Fg, *gb),
        "closed-form g = x * prod_i (x +_F [w^i](alpha)) by formal sums",
        "",
    )

    vars2, bounds2 = ("y", "alpha"), (10, 8)
    k = TruncatedSeries.variable(p, "y", vars2, bounds2, precision)
    a = TruncatedSeries.variable(p, "alpha", vars2, bounds2, precision)
    for _ in range(2, 6):
        c = rng.randrange(p)
        if c:
            k = k + (k * k * a).mul_int(c)
    k = TruncatedSeries.from_terms(
        p, vars2, bounds2, {e: v for e, v in k.terms.items() if e[0] >= 1 and (e[0] != 1 or e == (1, 0))}
    )
    kinv = lagrange_invert(k, "y")
    rt = k.substitute("y", kinv)
    yvar = TruncatedSeries.variable(p, "y", vars2, bounds2, precision)
    rep.add("lagrange_round_trip", rt == yvar, "k(k^(-1)(y)) = y", "")

    f = TruncatedSeries.from_terms(
        p,
        ("alpha",),
        (p**3 + 1,),
        {
            (rng.randrange(1, p**3),): CoeffV3.from_int(p, rng.randrange(1, p * p), precision)
            for _ in range(6)
        },
    )
    n1 = quotient_normalize(f)
    again = quotient_normalize(_normal_form_as_series(n1, p))
    rep.add("quotient_normalize_idempotent", n1 == again, "N(N(f)) = N(f)", "")

    A = dl.DLAlgebra(p, {"x": 2 * (p - 1)})
    word = (p**2 + p, p)
    norm1 = A.adem_normalize(word, "x")
    renorm = dl.DLAlgebra(p, {"x": 2 * (p - 1)}).adem_normalize(word, "x")
    degs = norm1.degrees()
    expected_deg = 2 * (p - 1) + 2 * (word[0] + word[1]) * (p - 1)
    rep.add(
        "adem_idempotent_degree_preserving",
        norm1 == renorm and degs <= {expected_deg},
        "stable normal form, degree preserved",
        "",
    )

    # N_m^(p-1), the largest product below, has weight (p-1)m; past 42 it
    # grows fast (at p = 11: 0.25 s for m = 6, 2.6 s for m = 7, 2 CPUs), so
    # the cap bites only at p >= 11, and from p = 47 on m is 1
    m = max(1, min(rng.randrange(2, 8), 42 // (p - 1)))
    lhs = mu_homology.newton_expand(p * m, "b", p)
    # plain repeated multiplication, not the Frobenius shortcut newton_expand takes
    rhs = binary_power(mu_homology.newton_expand(m, "b", p), p, {(): 1}, lambda u, v: poly_mul(u, v, p))
    rep.add("newton_frobenius", lhs == rhs, "N_(pm) = N_m^p", f"m={m}")

    stable = True
    for i in (2, p):
        lo = powerop.power_operation_value(FormalGroupLaw.v3_truncated(p, 8), i).value
        hi = powerop.power_operation_value(FormalGroupLaw.v3_truncated(p, 12), i).value
        if not (lo.plain == hi.plain and lo.v3 == hi.v3):
            stable = False
    rep.add("precision_stability_K8_vs_K12", stable, "identical normal forms", "")
    return rep


def _normal_form_as_series(n, p: int) -> TruncatedSeries:
    terms = {}
    if not n.constant.is_zero():
        terms[(0,)] = n.constant
    for k, v in n.plain.items():
        terms[(k,)] = terms.get((k,), CoeffV3.zero(p)) + CoeffV3.from_int(p, v, 2)
    for k, v in n.v3.items():
        c = CoeffV3.from_v3(PAdicScalar.from_int(p, v, 2))
        terms[(k,)] = terms.get((k,), CoeffV3.zero(p)) + c
    return TruncatedSeries.from_terms(p, ("alpha",), (p**3 + 1,), terms)


_RUNNERS = {
    "powerop": suite_powerop,
    "stdl": suite_stdl,
    "mudl": suite_mudl,
    "relation": suite_relation,
    "sigma": suite_sigma,
    "factorization": suite_factorization,
    "congruences": suite_congruences,
    "properties": suite_properties,
}


def suite_options(name: str) -> set[str]:
    """The keyword options a suite reads, such as ``precision`` or ``seed``:
    the runner's parameter names other than p."""
    code = _RUNNERS[name].__code__
    return set(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]) - {"p"}


def run_suite(name: str, p: int, **options) -> SuiteReport:
    """Run one suite; an option the suite does not read is a TypeError."""
    if name not in _RUNNERS:
        raise KeyError(f"unknown suite {name!r}")
    return _RUNNERS[name](p, **options)


def run_suites(names: list[str], p: int, seed: int = 0, precision: int = DEFAULT_PRECISION) -> dict:
    """Run several suites, each given the options it reads."""
    given = {"seed": seed, "precision": precision}
    suites = [run_suite(n, p, **{k: v for k, v in given.items() if k in suite_options(n)}) for n in names]
    return {
        "version": REPORT_VERSION,
        "seed": seed,
        "suites": [s.to_dict() for s in suites],
    }


def normalize_report(report: dict) -> dict:
    """Zero the timing fields so reports compare byte-for-byte."""
    out = dict(report)
    out["suites"] = []
    for suite in report["suites"]:
        s = dict(suite)
        s["checks"] = [dict(c, elapsed_ms=0.0) for c in suite["checks"]]
        out["suites"].append(s)
    return out
