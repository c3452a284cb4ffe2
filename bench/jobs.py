"""The benchmark workloads: fixed job lists and their correctness checks.

A job is a name and a callable that returns ``(ok, answer)``.  ``ok`` says
whether the result matches the paper's closed form, the program's own pass
verdict or a committed golden report; ``answer`` is a string that must come
out identical whether or not the tracing wrappers are installed.

Every call goes through a module attribute (``powerop.power_operation_value``
and so on) so that wrappers installed by ``tracing.py`` see it.

The seed permutes the job order and feeds the ``seed=``/``--seed`` argument
of the randomized checks; the job lists themselves are fixed.  ``small``
replaces every prime by 3 (5 where a layer only runs from p = 5 on) for the
self-check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from powerops import cli, dl, fgl, mu_homology, powerop, reports

WORKLOADS = ("padic", "modp")

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def expected_value(p: int, i: int) -> str:
    """Closed form of the power-operation value: +-c * v3 * alpha^(p^3-1-i(p-1)),
    c = -C(ip, i)/p mod p, printed with the residue of least absolute value.
    Computed here, not taken from ``reports``, so that the check does not
    rest on the code it checks."""
    c = (-(math.comb(i * p, i) // p)) % p
    signed = c if c <= (p - 1) // 2 else c - p
    mag = "" if abs(signed) == 1 else f"{abs(signed)} * "
    return ("-" if signed < 0 else "") + f"{mag}v3 * alpha^{p**3 - 1 - i * (p - 1)}"


def _powerop_job(p: int, i: int):
    def run():
        law = fgl.FormalGroupLaw.v3_truncated(p, 8)
        res = powerop.power_operation_value(law, i)
        got = res.value.render()
        k = p * p + p - 1 if i == 2 else p * p + 1
        c = powerop.sigma_dl_coefficient(res, k)
        witness = 0 if c.v3part.is_zero() else c.v3part.residue()
        # the sigma-class witness is 1 at i = 2 and -1 = p - 1 at i = p
        want_witness = 1 if i == 2 else p - 1
        ok = got == expected_value(p, i) and witness == want_witness and c.plain.is_zero()
        return ok, f"{got} | v3 residue of c_{k * (p - 1)}: {witness}"

    return f"power_operation_value(p={p},i={i})", run


def _dl_jobs(p: int):
    def relation():
        rep = dl.verify_relation(p)
        return rep.passed, f"residual terms {len(rep.residual.terms)} identities {sorted(rep.identities.items())}"

    def sigma():
        sol = dl.solve_sigma(p)
        return sol.verified, f"sigmas {sol.sigmas} kernel {sol.kernel_dimension}"

    def factorization():
        rep = dl.verify_factorization(p)
        return rep.passed, f"sigmas {rep.sigmas} residual terms {len(rep.residual.terms)}"

    return [
        (f"verify_relation({p})", relation),
        (f"solve_sigma({p})", sigma),
        (f"verify_factorization({p})", factorization),
    ]


def _checks_answer(rep) -> str:
    return "; ".join(f"{c.name}:{c.passed}:{c.method}" for c in rep.checks)


def _newton_jobs(p: int, seed: int):
    def stdl():
        rep = mu_homology.verify_stdl(p)
        return rep.passed, _checks_answer(rep)

    def mudl():
        rep = mu_homology.verify_mudl(p, seed=seed)
        return rep.passed, _checks_answer(rep)

    return [(f"verify_stdl({p})", stdl), (f"verify_mudl({p},seed={seed})", mudl)]


def _identity4_job(p: int):
    """Identity 4 of the mu-suite by exact expansion of both sides, the
    comparison the test suite makes: Q^(p^2-p+1) N_(p-1)^(p-1) equals
    N_(p-1)^((p-2)p) * N_(2(p-1))^p."""

    def run():
        lhs = mu_homology.q_on_product(p * p - p + 1, [(p - 1, p - 1)], "b", p).expand()
        n1 = mu_homology.SymmetricClass.newton(p, "b", p - 1)
        n2 = mu_homology.SymmetricClass.newton(p, "b", 2 * (p - 1))
        rhs = (n1.pow((p - 2) * p) * n2.pow(p)).expand()
        return lhs == rhs, f"{len(lhs)} generator monomials, equal={lhs == rhs}"

    return f"identity4_exact({p})", run


def _verify_job(p: int, suite: str, seed: int):
    golden = None
    if suite == "all" and p in (3, 5):
        # the committed goldens are recorded at seed 0
        seed = 0
        golden = (GOLDEN / f"verify_p{p}.json").read_text()
    argv = ["verify", "--p", str(p), "--suite", suite, "--format", "json", "--seed", str(seed)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        report = reports.normalize_report(json.loads(out.getvalue()))
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        ok = code == 0 and (golden is None or text == golden)
        return ok, f"exit {code} {text}"

    return f"cli verify --p {p} --suite {suite} --seed {seed}", run


def job_list(workload: str, seed: int, small: bool = False) -> list:
    """The workload's jobs in the order the seed gives."""
    if workload == "padic":
        pairs = [(3, 2), (3, 3)] if small else [(7, 2), (7, 7), (11, 2), (11, 11)]
        jobs = [_powerop_job(p, i) for p, i in pairs]
        jobs += [
            _verify_job(p, suite, seed)
            for p in ((3,) if small else (3, 5, 7))
            for suite in ("all", "properties", "congruences")
        ]
    elif workload == "modp":
        jobs = _dl_jobs(3 if small else 11)
        # p = 5 is the smallest prime on the sampled route over F_(p^4)
        primes = (3, 5) if small else (5, 7, 11, 13)
        jobs += [job for p in primes for job in _newton_jobs(p, seed)]
        jobs += [_identity4_job(p) for p in ((3,) if small else (5, 7))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs
