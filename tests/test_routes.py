"""Every public engine function is reached by a CLI route.

A module-level function named in a ``powerops`` module's ``__all__`` that
no route enters serves no user: it is dead code, or a test helper that
belongs in the tests.  The routes run under ``sys.setprofile`` in a fresh
interpreter, so that no cache another test filled (``dl.free_algebra``,
the Newton expansions) hides a call.  Classes and their methods are not
checked here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROUTES = [
    [*route, "--p", str(p)]
    for p in (3, 5)
    for route in (
        ["verify", "--suite", "all"],
        ["verify", "--suite", "properties"],
        ["verify", "--suite", "congruences"],
        ["compute", "power-op", "--i", "2", "--format", "json"],
        ["solve", "sigma"],
    )
]

# functions no route enters, each with the reason it stays
ALLOWED = {
    "mu_homology.symmetric_evaluate": "the sampled route evaluates only a nonzero difference, "
    "which no identity in scope gives; bench/selfcheck.py probes it",
    "powerop.reduce_g_mod_p_series": "the acceptance tests reduce g with it",
}

PROBE = """
import contextlib, importlib, io, json, pkgutil, sys, types
import powerops
from powerops import cli

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

exits = []
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        exits.append(cli.main(argv))
sys.setprofile(None)
never = []
for info in pkgutil.iter_modules(powerops.__path__):
    module = importlib.import_module("powerops." + info.name)
    for name in getattr(module, "__all__", ()):
        fn = getattr(module, name)
        fn = getattr(fn, "__wrapped__", fn)
        if isinstance(fn, types.FunctionType) and fn.__code__ not in entered:
            never.append(info.name + "." + name)
print(json.dumps({"exits": exits, "never": never}))
"""


def test_every_exported_function_is_reached_by_a_route():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("POWEROPS_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(ROUTES)], capture_output=True, text=True, cwd=ROOT, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exits"] == [0] * len(ROUTES)
    assert sorted(set(out["never"]) - set(ALLOWED)) == []
    # an allowed name that a route now reaches, or that is gone, leaves the list
    assert sorted(set(ALLOWED) - set(out["never"])) == []
