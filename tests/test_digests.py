"""Content and order digests of the engine's objects, against
tests/golden/digests.json.

Each named object gets two sha256 digests of its (key, value) pairs: one of
the content, the pairs sorted, and one of the order, the pairs as the object
iterates them.  A change that keeps every answer but reorders terms moves
order digests only; a change to an answer moves a content digest.  The
objects, at p = 3, 5, 7, 11 and 13:

* the grand relation's summands, as `RelationSpec.relation_value` sums
  them, and its value;
* both sides of each of the five straightening identities;
* the sigma inputs, the target Q^(p^3+p) Q^(p^2-1) y + Q^(p^3) Q^(p^2+p-1) y
  and the words w_i = Q^(p^3+p-i-1) Q^(p^2+i) y, and the sigma solution
  (sigma, kernel dimension and residual);
* mu o R, Qbar o nu and beta o alpha, as `verify_factorization` subtracts
  them, and the residual;
* both sides of every stdl and mudl identity as their comparison receives
  them, as Newton classes; each stdl side and mudl's identity 4 at p <= 7
  also expanded into generators (the other mudl sides are single Newton
  classes of index near p^3, whose b-expansion no check takes);
* `q_on_product` in both contexts at a few indices;

and every pipeline stage at p = 7, 11 and 13 for i in {2, p} and K = 2, 8
and 12, each coefficient as the valuation, unit and precision of both of
its parts.  The captured sides are read by wrapping `DLAlgebra.sum` and the
identity comparators for one call each, so nothing here restates the
factorization or the identity suites.

The file is written by running this module as a script,

    PYTHONPATH=src python tests/test_digests.py

Rerun it only for a change that is meant to alter a digest, and say which
and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from powerops import dl, mu_homology
from powerops.dl import RelationSpec, solve_sigma, verify_factorization
from powerops.fgl import FormalGroupLaw
from powerops.powerop import power_operation_value

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
DL_PRIMES = (3, 5, 7, 11, 13)
STAGE_PRIMES = (7, 11, 13)
STAGE_PRECISIONS = (2, 8, 12)
STAGES = ("chi", "angle_p", "g", "k", "k_inverse", "ell_prime_term", "f_source", "f_n", "h_n")


def _sha(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()


def digests(items, head=()) -> dict[str, str]:
    """The content and order digests of (key, value) pairs; `head` is
    hashed with both, for what is not a term, such as a series' bounds."""
    items = list(items)
    return {"content": _sha((head, sorted(items))), "order": _sha((head, items))}


def _sums_made(fn, *args):
    """fn(*args), and the parts of every `DLAlgebra.sum` it made, in order."""
    calls = []
    original = dl.DLAlgebra.sum

    def recording(self, parts):
        parts = list(parts)
        calls.append(parts)
        return original(self, parts)

    dl.DLAlgebra.sum = recording
    try:
        return fn(*args), calls
    finally:
        dl.DLAlgebra.sum = original


def _identity_sides(verify, p):
    """{identity name: the pairs of sides its comparisons received}."""
    sides, pending = {}, []
    names = ("_equal_exact", "_equal_symbolic", "_equal_sampled")
    originals = {n: getattr(mu_homology, n) for n in names}
    add = mu_homology.PropositionReport.add

    def comparing(name):
        def compare(a, b, *rest):
            pending.append((a, b))
            return originals[name](a, b, *rest)

        return compare

    def adding(self, name, passed, method):
        sides[name] = list(pending)
        pending.clear()
        return add(self, name, passed, method)

    for n in names:
        setattr(mu_homology, n, comparing(n))
    mu_homology.PropositionReport.add = adding
    try:
        verify(p)
    finally:
        for n in names:
            setattr(mu_homology, n, originals[n])
        mu_homology.PropositionReport.add = add
    return sides


def dl_table(p: int) -> dict:
    out = {}

    def put(name, poly, head=()):
        out[f"p{p}/{name}"] = digests(poly.terms.items(), head)

    rel = RelationSpec.for_prime(p)
    value, calls = _sums_made(rel.relation_value)
    for j, (part, c) in enumerate(calls[-1]):
        put(f"relation/summand{j}", part, c)
    put("relation/value", value)

    x, qpx = rel.x, rel.qpx
    identities = {
        "adem_top_pair": (
            x.q(p * p).q(p**3 + p),
            rel.algebra.sum([(x.q(p * p + i).q(p**3 + p - i), 1 if i % 2 else -1) for i in range(1, p)]),
        ),
        "pth_power_vanishes": (rel.qpx_p.q(p**3 + 1),),
        "cartan_frobenius_block": (
            rel.xp1p_qpx.q(p**3 + p),
            rel.algebra.sum(
                (t, 1) for t in [rel.twists[0] * rel.qqx, *rel.twist_c, rel.twists[p] * qpx.q(2 * p * p)]
            ),
        ),
        "adem_interchange": (qpx.q(2 * p * p), x.q(2 * p).q(2 * p * p - p)),
        "cartan_mixed_term": (rel.qpx_xp.q(2 * p * p - p), x.pow(p * p) * rel.qqx),
    }
    for name, sides in identities.items():
        for side, poly in zip(("lhs", "rhs"), sides):
            put(f"identity/{name}/{side}", poly)

    y = rel.algebra.gen("y")
    put("sigma/target", y.q(p * p - 1).q(p**3 + p) + y.q(p * p + p - 1).q(p**3))
    for i in range(1, p - 1):
        put(f"sigma/w{i}", y.q(p * p + i).q(p**3 + p - i - 1))
    sol = solve_sigma(p)
    put("sigma/solution", sol.residual, (sol.sigmas, sol.kernel_dimension))

    report, calls = _sums_made(verify_factorization, p)
    ((mu_r, _), (qbar_nu, _)), ((_, _), (beta_alpha, _)) = calls[-2], calls[-1]
    put("factorization/mu_R", mu_r)
    put("factorization/Qbar_nu", qbar_nu)
    put("factorization/beta_alpha", beta_alpha)
    put("factorization/residual", report.residual, report.sigmas)

    for suite, verify in (("stdl", mu_homology.verify_stdl), ("mudl", mu_homology.verify_mudl)):
        for name, pairs in _identity_sides(verify, p).items():
            for j, pair in enumerate(pairs):
                for side, cls in zip(("lhs", "rhs"), pair):
                    put(f"{suite}/{name}/{j}/{side}", cls)
                    if suite == "stdl" or (name == "q_on_power_top" and p <= 7):
                        out[f"p{p}/{suite}/{name}/{j}/{side}/expanded"] = digests(cls.expand().items())

    products = (
        (p * p - p + 1, [(p - 1, p - 1)]),
        (p * p, [(p - 1, 1), (2 * (p - 1), 1)]),
        (2 * p * p, [(p - 1, p)]),
        (p * p + p, [(1, 2), (p - 1, 1)]),
    )
    for context in ("b", "xi"):
        for s, factors in products:
            put(f"q_on_product/{context}/{s}/{factors}", mu_homology.q_on_product(s, factors, context, p))
    return out


def _coefficient(c) -> tuple[int, ...]:
    return tuple(v for part in (c.plain, c.v3part) for v in (part.valuation, part.unit, part.prec))


def stage_table(p: int) -> dict:
    out = {}
    for i in (2, p):
        for K in STAGE_PRECISIONS:
            res = power_operation_value(FormalGroupLaw.v3_truncated(p, K), i)
            for name in STAGES:
                f = getattr(res.trace, name)
                items = ((e, _coefficient(c)) for e, c in f.terms.items())
                out[f"p{p}/stage/i{i}/K{K}/{name}"] = digests(items, f.bounds)
            v = res.value
            items = [(("plain", k), c) for k, c in v.plain.items()] + [(("v3", k), c) for k, c in v.v3.items()]
            out[f"p{p}/stage/i{i}/K{K}/value"] = digests(items, _coefficient(v.constant))
    return out


def digest_table() -> dict:
    out = {}
    for p in DL_PRIMES:
        out.update(dl_table(p))
    for p in STAGE_PRIMES:
        out.update(stage_table(p))
    return out


def render(table: dict) -> str:
    """JSON with one object per line, so a moved digest is a one-line diff."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(table.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_digests_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digest_table()
    assert got.keys() == want.keys()
    moved = {k: sorted(kind for kind in v if v[kind] != want[k][kind]) for k, v in got.items() if v != want[k]}
    assert moved == {}


if __name__ == "__main__":
    GOLDEN.write_text(render(digest_table()), encoding="utf-8")
