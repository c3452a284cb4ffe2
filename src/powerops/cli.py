"""Command-line driver: verification suites, single computations, solves.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dl, powerop, reports
from .arith import prime_factors
from .fgl import FormalGroupLaw
from .scalar import DEFAULT_PRECISION

MAX_PRIME = 37


def _check_prime(p: int) -> int:
    if p < 3 or p > MAX_PRIME or prime_factors(p) != [p]:
        print(f"--p must be an odd prime in 3..{MAX_PRIME}, got {p}", file=sys.stderr)
        raise SystemExit(2)
    return p


def _precision(text: str) -> int:
    k = int(text)
    # the power-operation value is C(ip, i)/p: dividing by p needs a second digit
    if k < 2:
        raise argparse.ArgumentTypeError(f"precision must be at least 2, got {k}")
    return k


def _common_flags(sp: argparse.ArgumentParser, precision: bool = False, seed: bool = False) -> None:
    """--p and --format everywhere; --precision and --seed only where read."""
    sp.add_argument("--p", type=int, required=True, help=f"odd prime (3..{MAX_PRIME})")
    if precision:
        sp.add_argument("--precision", type=_precision, help=f"p-adic digits K >= 2 (default {DEFAULT_PRECISION})")
    if seed:
        sp.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    sp.add_argument("--format", choices=("text", "json"), default="text")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("POWEROPS_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        print(f"POWEROPS_SEED must be an integer, got {env!r}", file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one, so a process that calls `main` many times builds it once and an
    import builds none.  `parse_args` keeps no state between argvs: each
    gets a fresh namespace, and a rejected argv exits with 2 as before."""
    ap = argparse.ArgumentParser(prog="powerops", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    _common_flags(v, precision=True, seed=True)
    v.add_argument(
        "--suite",
        default="all",
        help="suite name or 'all' "
        f"({', '.join(reports.SUITES + reports.EXTRA_SUITES)})",
    )

    c = sub.add_parser("compute", help="compute a single value")
    csub = c.add_subparsers(dest="target", required=True)
    cp = csub.add_parser("power-op", help="normalized power-operation value")
    _common_flags(cp, precision=True)
    cp.add_argument("--i", type=int, required=True, help="index in 2..p")

    s = sub.add_parser("solve", help="solve for relation coefficients")
    ssub = s.add_subparsers(dest="target", required=True)
    sg = ssub.add_parser("sigma", help="straightening coefficients sigma_i")
    _common_flags(sg)
    return ap


def _emit_report(report: dict, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for suite in report["suites"]:
            print(f"== {suite['suite']} (p={suite['prime']}): {suite['overall']}")
            for ch in suite["checks"]:
                line = f"   [{ch['status']:>7}] {ch['name']}"
                if ch["status"] == "fail":
                    line += f"  expected {ch['expected']!r} got {ch['actual']!r}"
                elif ch["expected"]:
                    line += f"  ({ch['expected']})"
                print(line)
    failed = any(s["overall"] == "fail" for s in report["suites"])
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    p = _check_prime(args.p)

    if args.command == "verify":
        seed = _resolve_seed(args)
        names = list(reports.SUITES) if args.suite == "all" else [args.suite]
        for n in names:
            if n not in reports.SUITES + reports.EXTRA_SUITES:
                print(f"unknown suite {n!r}", file=sys.stderr)
                return 2
        if args.precision is not None and not any("precision" in reports.suite_options(n) for n in names):
            print(f"--precision is not read by suite {args.suite!r}", file=sys.stderr)
            return 2
        try:
            report = reports.run_suites(names, p, seed=seed, precision=args.precision or DEFAULT_PRECISION)
        except (ValueError, ArithmeticError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        return _emit_report(report, args.format)

    if args.command == "compute" and args.target == "power-op":
        if not 2 <= args.i <= p:
            print("--i must lie in 2..p", file=sys.stderr)
            return 2
        F = FormalGroupLaw.v3_truncated(p, args.precision or DEFAULT_PRECISION)
        value = powerop.power_operation_value(F, args.i).value
        if args.format == "json":
            coeffs = {str(j): value.coefficient(j) for j in set(value.plain) | set(value.v3)}
            if not value.constant.is_zero():
                coeffs["0"] = value.constant
            print(
                json.dumps(
                    {
                        "prime": p,
                        "i": args.i,
                        "value": value.render(),
                        "coefficients": {
                            j: [c.plain.residue(), c.v3part.residue()] for j, c in coeffs.items()
                        },
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(value.render())
        return 0

    if args.command == "solve" and args.target == "sigma":
        sol = dl.solve_sigma(p)
        marker = "substitution-verified" if sol.verified else "NOT VERIFIED"
        if args.format == "json":
            print(
                json.dumps(
                    {"prime": p, "sigmas": sol.sigmas, "verified": sol.verified},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            names = ", ".join(
                f"sigma_{i + 1} = {v}" for i, v in enumerate(sol.sigmas)
            )
            print(f"{names}  [{marker}]")
        return 0 if sol.verified else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
