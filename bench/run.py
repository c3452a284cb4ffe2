"""Benchmark of the powerops verification engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/powerops`` and
``tests/golden``.  The workloads, their job lists and checks are in
``jobs.py``; README.md in this directory says why each was chosen.

Every job list runs in a fresh interpreter (``worker.py``), one process at a
time, never two at once.

``--trace 0`` first starts five processes that only set up, then runs the
whole job list in one fresh process after another for about S seconds (at
least twice), and reports the medians of the end-to-end metrics declared
in BENCHMARK.json.  ``--trace 1`` runs the job list once untraced
and once with the wrappers of ``tracing.py``, requires both to give the same
answers, and reports the per-layer metrics; the spans go to
``.bench_trace/`` in the checkout.

The last line of standard output is the result object; the line before it
gives every sample behind the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_ONLY_RUNS = 5
# every run must end within 180 s; stop a worker that would overrun
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("POWEROPS_SEED", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), repr(start), *extra],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    """Median, run count and the highest percentile with ten runs beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out: dict = {"runs": n, "median": statistics.median(ordered), "samples": ordered}
    if n >= 20:
        out[f"p{100 * (n - 10) / n:g}"] = ordered[n - 11]
    else:
        out["tail"] = "fewer than 20 runs, so no percentile above the median has ten runs beyond it"
    return out


def _jobs_outcome(runs: list[dict]) -> tuple[int, int]:
    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(not j["ok"] for r in runs for j in r["jobs"])
    for r in runs:
        for j in r["jobs"]:
            if not j["ok"]:
                print(f"FAILED {j['job']}: {j['answer'][:500]}", file=sys.stderr)
    return attempted, failed


def measure(workload: str, seed: int, seconds: int, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    setups = [_spawn(workload, seed, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    runs, took = [], []
    while True:
        t = time.monotonic()
        runs.append(_spawn(workload, seed, deadline))
        took.append(time.monotonic() - t)
        # stop where the next process would end more than half a process
        # past the measuring time, but never with a median of one process
        if len(runs) >= 2 and time.monotonic() - start + statistics.median(took) / 2 > seconds:
            break
    attempted, failed = _jobs_outcome(runs)
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": setups + [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    detail = {name: _summary(v) for name, v in samples.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return result | {"metrics": _declared(spec["end_to_end"], values)}, detail


def measure_traced(workload: str, seed: int, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    plain = _spawn(workload, seed, deadline)
    spans_file = ROOT / ".bench_trace" / f"{workload}-seed{seed}.jsonl"
    traced = _spawn(workload, seed, deadline, "--trace", str(spans_file))
    attempted, failed = _jobs_outcome([plain, traced])
    # the trace must not change any answer
    same = [j["answer"] for j in plain["jobs"]] == [j["answer"] for j in traced["jobs"]]
    if not same:
        print("traced answers differ from untraced answers", file=sys.stderr)
    values = dict(traced["metrics"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"], "spans_file": str(spans_file)}
    result = {"correct": failed == 0 and same, "attempted": attempted, "failed": failed}
    return result | {"metrics": _declared(spec["per_layer"], values)}, detail


def _declared(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "powerops" / "__init__.py",
        ROOT / "tests" / "golden" / "verify_p3.json",
        ROOT / "tests" / "golden" / "verify_p5.json",
    ]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a powerops checkout: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result, detail = measure_traced(args.workload, args.seed, spec)
        else:
            result, detail = measure(args.workload, args.seed, args.seconds, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
