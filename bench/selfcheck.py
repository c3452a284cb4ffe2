"""Fast self-check of the benchmark at p = 3 sizes (a few seconds).

    python3 bench/selfcheck.py

Runs every workload's job runner untraced and traced, and requires that
every job passes, that the traced answers equal the untraced ones, that
every wrapper in ``tracing.WRAPS`` fired, that every wrapper is gone
afterwards, and that the trace yields every per-layer metric declared in
BENCHMARK.json.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from powerops import finite_field, mu_homology  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _probe_sampled_route() -> None:
    """symmetric_evaluate and GaloisField.mul never run in the workloads
    today (the sampled route returns before sampling), so call them once."""
    fld = finite_field.GaloisField(3, 1)
    cls = mu_homology.SymmetricClass.newton(3, "b", 2)
    sample = [fld.sample(random.Random(0)) for _ in range(2)]
    mu_homology.symmetric_evaluate(cls, sample, fld)


def _silent(metrics: dict) -> list[str]:
    silent = []
    for _, attr, kind, name in tracing.WRAPS:
        key = name if kind in ("count", "padic_add") else f"{name}.calls"
        if not metrics.get(key):
            silent.append(f"{name} ({attr})")
    return silent


def _bindings() -> dict:
    """Every name bound in a powerops module and every attribute of a class
    the tracer wraps, as {(owner, name): object id}."""
    out = {}
    for m in tracing.package_modules():
        out.update({(m.__name__, k): id(v) for k, v in vars(m).items()})
    for owner, _, _, _ in tracing.WRAPS:
        _, cls = tracing.resolve(owner)
        if cls is not None:
            out.update({(owner, k): id(v) for k, v in vars(cls).items()})
    return out


def main() -> int:
    problems = []
    before = _bindings()
    tracer = tracing.Tracer()
    for workload in jobs.WORKLOADS:
        plain = worker.run_jobs(jobs.job_list(workload, seed=7, small=True))
        tracer.install()
        try:
            traced = worker.run_jobs(jobs.job_list(workload, seed=7, small=True), tracer)
            if workload == "modp":
                _probe_sampled_route()
        finally:
            tracer.restore()
        problems += [f"{workload}: job failed: {r['job']}" for r in plain + traced if not r["ok"]]
        if [r["answer"] for r in plain] != [r["answer"] for r in traced]:
            problems.append(f"{workload}: traced answers differ from untraced answers")
        if tracing.wrapped_names():
            problems.append(f"{workload}: wrappers left behind: {tracing.wrapped_names()}")

    metrics = tracer.metrics(wall_s=1.0)
    metrics.update({"trace.wall_s": 1.0, "trace.overhead_s": 0.0})
    problems += [f"wrapper never fired: {s}" for s in _silent(metrics)]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    problems += [f"per-layer metric not produced: {m['name']}" for m in declared if m["name"] not in metrics]
    after = _bindings()
    problems += [f"not restored: {key}" for key, value in before.items() if after.get(key) != value]

    for line in problems:
        print(line)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
