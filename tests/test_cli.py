import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from powerops import cli, dl, reports
from powerops.arith import prime_factors

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "powerops.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )
    return proc


def test_verify_all_exit_code_and_format():
    proc = run_cli(["verify", "--p", "3", "--suite", "all", "--format", "json"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert {s["suite"] for s in report["suites"]} == set(reports.SUITES)
    assert all(s["overall"] == "pass" for s in report["suites"])


def test_schema_roundtrip():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent.parent / "src" / "powerops" / "report.schema.json").read_text()
    )
    report = reports.run_suites(["powerop", "sigma", "congruences"], 3, seed=0)
    jsonschema.validate(report, schema)
    # round trip through serialization
    assert json.loads(json.dumps(report)) == report


def test_compute_power_op_output():
    proc = run_cli(["compute", "power-op", "--p", "5", "--i", "2"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "v3 * alpha^116"
    proc = run_cli(["compute", "power-op", "--p", "5", "--i", "5"])
    assert proc.stdout.strip() == "-v3 * alpha^104"
    # p = 17: -C(34, 2)/17 = 1 mod 17 at alpha^(17^3 - 1 - 2*16)
    proc = run_cli(["compute", "power-op", "--p", "17", "--i", "2"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "v3 * alpha^4880"


def test_solve_sigma_output():
    proc = run_cli(["solve", "sigma", "--p", "5"])
    assert proc.returncode == 0
    assert "substitution-verified" in proc.stdout
    assert "sigma_1" in proc.stdout


def test_bad_prime_is_config_error():
    # 41 is prime but past the largest supported prime, 37
    for bad in ("4", "2", "41", "9"):
        proc = run_cli(["verify", "--p", bad, "--suite", "powerop"])
        assert proc.returncode == 2
        assert "--p" in proc.stderr and bad in proc.stderr


def test_unknown_suite_is_config_error():
    proc = run_cli(["verify", "--p", "3", "--suite", "nonsense"])
    assert proc.returncode == 2


def test_bad_power_op_index_is_config_error():
    proc = run_cli(["compute", "power-op", "--p", "3", "--i", "7"])
    assert proc.returncode == 2


def test_removed_truncation_flags_are_rejected(capsys):
    rejected = [
        # power_operation_value picks its own bounds, so no truncation flag exists
        ["compute", "power-op", "--p", "5", "--i", "2", "--xdeg", "3"],
        ["compute", "power-op", "--p", "5", "--i", "2", "--adeg", "3"],
        # every suite runs at every prime; there is no costly path to opt into
        ["verify", "--p", "3", "--suite", "congruences", "--expensive"],
        # a flag is registered only where it is read
        ["compute", "power-op", "--p", "3", "--i", "2", "--seed", "1"],
        ["solve", "sigma", "--p", "3", "--seed", "1"],
        ["solve", "sigma", "--p", "3", "--precision", "8"],
        # at least two p-adic digits: the value is C(ip, i)/p
        ["compute", "power-op", "--p", "3", "--i", "2", "--precision", "1"],
        ["compute", "power-op", "--p", "5", "--i", "2", "--precision", "0"],
        ["compute", "power-op", "--p", "5", "--i", "2", "--precision", "-1"],
        ["verify", "--p", "3", "--suite", "congruences", "--precision", "-1"],
        # no selected suite reads the precision
        ["verify", "--p", "3", "--suite", "relation", "--precision", "3"],
    ]
    # in-process: argparse exits through SystemExit(2), and the checks after
    # parsing return 2; either way nothing is computed
    for args in rejected:
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 2, args
        assert "Traceback" not in capsys.readouterr().err, args
    # and one rejection through the installed entry point
    proc = run_cli(["compute", "power-op", "--p", "3", "--i", "2", "--precision", "1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "precision must be at least 2" in proc.stderr
    # a runner takes only the options it reads
    with pytest.raises(TypeError):
        reports.run_suite("relation", 3, precision=3)
    with pytest.raises(TypeError):
        reports.run_suite("powerop", 3, precison=3)


def test_malformed_env_seed_is_config_error():
    proc = run_cli(["verify", "--p", "3", "--suite", "congruences"],
                   env={"POWEROPS_SEED": "not-a-number"})
    assert proc.returncode == 2


def test_env_seed_honored_flag_wins(monkeypatch):
    out1 = run_cli(["verify", "--p", "3", "--suite", "mudl", "--format", "json"],
                   env={"POWEROPS_SEED": "5"})
    assert json.loads(out1.stdout)["seed"] == 5
    out2 = run_cli(
        ["verify", "--p", "3", "--suite", "mudl", "--format", "json", "--seed", "9"],
        env={"POWEROPS_SEED": "5"},
    )
    assert json.loads(out2.stdout)["seed"] == 9


def test_reports_deterministic_at_fixed_seed():
    r1 = reports.normalize_report(reports.run_suites(["mudl", "sigma"], 5, seed=3))
    r2 = reports.normalize_report(reports.run_suites(["mudl", "sigma"], 5, seed=3))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


@pytest.mark.parametrize("name", reports.SUITES + reports.EXTRA_SUITES)
def test_check_times_add_up_to_at_most_the_suite(name):
    # each check is charged with the time since the previous one, so the
    # charges, each rounded to the nearest 0.001 ms, cover the suite at most once
    t0 = time.perf_counter()
    rep = reports.run_suite(name, 3)
    wall_ms = (time.perf_counter() - t0) * 1000
    assert sum(c.elapsed_ms for c in rep.checks) <= wall_ms + 0.0005 * len(rep.checks)
    if name == "properties":
        # two formal sums run inside its own check and nowhere else
        assert {c.name: c.elapsed_ms for c in rep.checks}["fgl_commutativity"] > 0


@pytest.mark.parametrize("p", [3, 5])
def test_golden_reports(p):
    # byte-exact comparison under the default seed, timings normalized
    report = reports.normalize_report(
        reports.run_suites(list(reports.SUITES), p, seed=0)
    )
    got = json.dumps(report, indent=2, sort_keys=True) + "\n"
    want = (GOLDEN / f"verify_p{p}.json").read_text()
    assert got == want


# every accepted prime but 37, which adds about 3.6 s: there the relation and
# factorization run in test_dl.py::test_relation_large_primes[37] and the
# power-operation values in the value sweep of test_powerop.py
@pytest.mark.parametrize("p", [p for p in range(3, 32, 2) if prime_factors(p) == [p]])
def test_every_suite_passes_at_every_prime_to_31(p):
    report = reports.run_suites(list(reports.SUITES + reports.EXTRA_SUITES), p)
    failed = [(s["suite"], c["name"], c["actual"]) for s in report["suites"] for c in s["checks"] if c["status"] != "pass"]
    assert failed == []


def test_sigma_failure_is_a_failed_check(monkeypatch, capsys):
    # a stray x^40, of the same degree, in Q^27 Q^11 y at p = 3 puts a target
    # term outside every sigma word: the residual keeps it, whole in the
    # report, and both routes exit 1 with no traceback
    monkeypatch.setattr(dl, "free_algebra", functools.cache(dl.free_algebra.__wrapped__))
    p = 3
    A = dl.free_algebra(p)
    shifted, stray = A.gen("y").q(p * p + p - 1), A.gen("x").pow(40)
    q = dl.DLPolynomial.q

    def q_with_stray(self, s):
        out = q(self, s)
        return out + stray if s == p**3 and self == shifted else out

    monkeypatch.setattr(dl.DLPolynomial, "q", q_with_stray)
    sol = dl.solve_sigma(p)
    assert not sol.verified and sol.residual == stray
    assert cli.main(["solve", "sigma", "--p", "3"]) == 1
    out, err = capsys.readouterr()
    assert "NOT VERIFIED" in out and "Traceback" not in out + err
    assert cli.main(["verify", "--p", "3", "--suite", "sigma"]) == 1
    out, err = capsys.readouterr()
    assert "substitution_residual  expected '0' got '1 term(s): (x)^40'" in out
    assert "Traceback" not in out + err


def test_suite_options_are_the_parameters_each_runner_reads():
    got = {name: reports.suite_options(name) for name in reports.SUITES + reports.EXTRA_SUITES}
    assert got == {
        "powerop": {"precision"},
        "stdl": set(),
        "mudl": {"seed"},
        "relation": set(),
        "sigma": set(),
        "factorization": set(),
        "congruences": set(),
        "properties": {"precision", "seed"},
    }


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for the package import; pytest itself loads both
    # modules, so only a fresh interpreter can tell
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import powerops.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_back_to_back_main_calls_match_each_call_alone(monkeypatch, capsys):
    # one parser serves every call in a process; no argv may leave state
    # behind for the next (the last verify must not keep the first's seed)
    monkeypatch.delenv("POWEROPS_SEED", raising=False)
    argvs = [
        ["verify", "--p", "3", "--suite", "mudl", "--format", "json", "--seed", "9"],
        ["compute", "power-op", "--p", "5", "--i", "2", "--format", "json"],
        ["solve", "sigma", "--p", "3"],
        ["compute", "power-op", "--p", "3", "--i", "2", "--seed", "1"],
        ["verify", "--p", "3", "--suite", "mudl", "--format", "json"],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if argv[0] == "verify":
            out = reports.normalize_report(json.loads(out))  # timings differ run to run
        return code, out, err

    alone = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    together = [call(argv) for argv in argvs]
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0]
    assert (together[0][1]["seed"], together[4][1]["seed"]) == (9, 0)


def test_build_parser_returns_one_parser():
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_builds_no_parser():
    # the parser is built on the first main call, so a process that only
    # imports the package does not pay for it
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import powerops.cli\n"
        "print(len(built))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
