"""Every pipeline stage, byte for byte, against tests/golden/stages_p3_p5.json.

For p in {3, 5}, i in {2, p} and K in {2, 8, 12} the golden holds each
`PipelineTrace` stage (chi, angle_p, g, k, k_inverse, ell_prime_term,
f_source, f_n, h_n) as its bounds and its sorted [exponent,
repr(coefficient)] pairs, precision digits included, plus
`value.render()`.  A change to the series or scalar kernels is kept only
if every stage stays identical.

The file was written by running this module as a script,

    PYTHONPATH=src python tests/test_stage_golden.py

on the commit before the scalar and series types became slotted classes,
and extended to K = 12 on the commit before the series layer was folded
onto one merge and one coefficient map; rerun it only for a change that
is meant to alter a stage, and say so.
"""

from __future__ import annotations

import json
from pathlib import Path

from powerops.fgl import FormalGroupLaw
from powerops.powerop import power_operation_value

GOLDEN = Path(__file__).resolve().parent / "golden" / "stages_p3_p5.json"
STAGES = ("chi", "angle_p", "g", "k", "k_inverse", "ell_prime_term", "f_source", "f_n", "h_n")


def stage_table() -> dict:
    out = {}
    for p in (3, 5):
        for i in (2, p):
            for K in (2, 8, 12):
                res = power_operation_value(FormalGroupLaw.v3_truncated(p, K), i)
                entry = {"value": res.value.render()}
                for name in STAGES:
                    f = getattr(res.trace, name)
                    entry[name] = {
                        "bounds": list(f.bounds),
                        "terms": [[list(e), repr(c)] for e, c in sorted(f.terms.items())],
                    }
                out[f"p{p}_i{i}_K{K}"] = entry
    return out


def render(table: dict) -> str:
    """JSON with one term per line, so a changed coefficient is a one-line diff."""
    dump = lambda x: json.dumps(x, ensure_ascii=False)  # noqa: E731
    cases = []
    for key, entry in sorted(table.items()):
        stages = [f'  "value": {dump(entry["value"])}']
        for name in STAGES:
            f = entry[name]
            terms = ",\n".join(f"    {dump(t)}" for t in f["terms"])
            stages.append(f'  "{name}": {{"bounds": {dump(f["bounds"])}, "terms": [\n{terms}\n  ]}}')
        cases.append(f"{dump(key)}: {{\n" + ",\n".join(stages) + "\n}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


def test_every_stage_matches_golden():
    assert render(stage_table()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(stage_table()), encoding="utf-8")
