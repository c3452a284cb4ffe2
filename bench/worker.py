"""One cold run of a workload's job list in a fresh, single-threaded interpreter.

    python3 bench/worker.py WORKLOAD SEED SPAWN_TIME [--setup-only] [--trace SPANS_FILE]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; set-up runs from then until ``import powerops`` is done and the job
list is built.  The job list is then timed with tracing off, or, with
``--trace``, with the wrappers of ``tracing.py`` installed; the spans are
written to SPANS_FILE afterwards.  The last line of standard output is one
JSON object.

A fresh process per run is deliberate: ``mu_homology._NEWTON_CACHE`` and the
caches on every ``FormalGroupLaw`` and ``DLAlgebra`` would otherwise carry
warm state from one run to the next, which a command-line user pays for on
every invocation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import powerops  # noqa: E402,F401  (set-up includes the package import)
import jobs  # noqa: E402


def run_jobs(job_list, tracer=None) -> list[dict]:
    results = []
    for job_id, fn in job_list:
        if tracer:
            tracer.job = job_id
        try:
            ok, answer = fn()
        except Exception as exc:  # a raising job is a failed job; the rest still run
            traceback.print_exc(file=sys.stderr)
            ok, answer = False, f"raised {exc!r}"
        results.append({"job": job_id, "ok": bool(ok), "answer": answer})
    return results


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=jobs.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("spawn_time", type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_FILE")
    args = ap.parse_args()

    job_list = jobs.job_list(args.workload, args.seed)
    out = {"setup_s": time.monotonic() - args.spawn_time}
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        results = run_jobs(job_list, tracer)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer:
            tracer.restore()
    out.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        jobs=results,
    )
    if tracer:
        out["metrics"] = tracer.metrics(wall)
        path = Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
