import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from powerops import cli, dl, reports
from powerops.arith import prime_factors

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = Path(__file__).parent.parent / "src" / "powerops" / "report.schema.json"


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
    # a precision that is no integer is rejected with the rule, not with the
    # name of the function that parses it
    proc = run_cli(["compute", "power-op", "--p", "5", "--i", "2", "--precision", "x"])
    assert proc.returncode == 2
    assert "precision must be an integer K >= 2, got 'x'" in proc.stderr
    assert "_precision" not in proc.stderr
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


# every accepted argv against an answer written here, and every near miss
# against the README's list of rejections (exit 2): a --p that is not an odd
# prime up to 37, an unknown suite, an --i outside 2..p, a --precision that
# is not an integer K >= 2, verify --precision when no selected suite reads
# it, and a flag the subcommand does not read
SUBCOMMANDS = {"verify": ["verify"], "compute": ["compute", "power-op"], "solve": ["solve", "sigma"]}
READS = {"verify": {"--suite", "--precision", "--seed"}, "compute": {"--i", "--precision"}, "solve": set()}
SUITE_NAMES = (*reports.SUITES, *reports.EXTRA_SUITES)


def _mostly(good, near_misses):
    """A value from good or from near_misses, from good about three times in four."""
    return st.sampled_from(list(good) * max(1, 3 * len(near_misses) // len(good)) + list(near_misses))


OPTIONAL = {
    "--suite": st.sampled_from([*SUITE_NAMES, "all", "nonsense"]),
    "--precision": _mostly(["2", "3", "8"], ["1", "x"]),
    "--seed": st.integers(0, 9).map(str),
    "--i": st.integers(2, 3).map(str),  # drawn here only where it is not read
}


@st.composite
def cli_argvs(draw):
    """(command, flags): a subcommand and its flags as strings, with an
    accepted prime p <= 13 three times in four, each flag the subcommand
    reads present or not, and one time in four a flag it does not read."""
    command = draw(st.sampled_from(sorted(READS)))
    p = draw(_mostly([3, 5, 7, 11, 13], [1, 2, 4, 9, 39, 41]))
    flags = {"--p": str(p), "--format": draw(st.sampled_from(["text", "json"]))}
    if command == "compute":
        flags["--i"] = str(draw(st.integers(1, p + 1)))
    for flag in sorted(READS[command] - set(flags)):
        if draw(st.booleans()):
            flags[flag] = draw(OPTIONAL[flag])
    stray = draw(_mostly([None], sorted(set(OPTIONAL) - READS[command])))
    if stray:
        flags[stray] = draw(OPTIONAL[stray])
    return command, tuple(draw(st.permutations(sorted(flags.items()))))


def _is_odd_prime_to_37(p):
    return 3 <= p <= 37 and all(p % q for q in range(2, p))


def _rejected(command, flags):
    """Whether the README says the CLI rejects this argv with exit 2."""
    flags = dict(flags)
    p, k = int(flags["--p"]), flags.get("--precision")
    if not _is_odd_prime_to_37(p) or set(flags) - {"--p", "--format"} - READS[command]:
        return True
    if k is not None and not (k.isdigit() and int(k) >= 2):
        return True
    if command == "verify":
        suite = flags.get("--suite", "all")
        if suite not in (*SUITE_NAMES, "all"):
            return True
        selected = reports.SUITES if suite == "all" else (suite,)
        return k is not None and not {"powerop", "properties"} & set(selected)
    return command == "compute" and not 2 <= int(flags["--i"]) <= p


def _closed_form(p, i):
    """-C(ip, i)/p * v3 * alpha^(p^3 - 1 - i(p - 1)), rendered with the
    residue of its coefficient signed into -(p-1)/2..(p-1)/2."""
    c = (-math.comb(i * p, i) // p) % p
    signed = c if c <= (p - 1) // 2 else c - p
    scale = "" if abs(signed) == 1 else f"{abs(signed)} * "
    return ("-" if signed < 0 else "") + f"{scale}v3 * alpha^{p**3 - 1 - i * (p - 1)}"


@settings(max_examples=100, deadline=None)
@given(cli_argvs())
@example(("verify", (("--p", "41"), ("--suite", "powerop"))))
@example(("verify", (("--p", "3"), ("--suite", "nonsense"))))
@example(("verify", (("--p", "13"), ("--suite", "relation"), ("--precision", "3"))))
@example(("verify", (("--p", "5"), ("--suite", "all"), ("--format", "json"), ("--precision", "2"))))
@example(("compute", (("--p", "7"), ("--i", "1"))))
@example(("compute", (("--p", "7"), ("--i", "8"))))
@example(("compute", (("--p", "5"), ("--i", "2"), ("--precision", "1"))))
@example(("compute", (("--p", "7"), ("--i", "7"), ("--precision", "x"))))
@example(("compute", (("--p", "11"), ("--i", "2"), ("--format", "json"), ("--seed", "1"))))
@example(("solve", (("--p", "9"),)))
def test_every_argv_exits_as_the_readme_says_with_the_closed_form(case):
    command, flags = case
    argv = SUBCOMMANDS[command] + [s for pair in flags for s in pair]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ):
        os.environ.pop("POWEROPS_SEED", None)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    # every accepted input passes every check: none of them fails here
    assert code == (2 if _rejected(command, flags) else 0), (argv, code, err)
    assert "Traceback" not in err and (code != 2 or err.strip()), (argv, err)
    if code:
        return
    opts = dict(flags)
    p = int(opts["--p"])
    if command == "verify" and opts.get("--format") == "json":
        jsonschema = pytest.importorskip("jsonschema")
        report = json.loads(out)
        jsonschema.validate(report, json.loads(SCHEMA.read_text()))
        assert report["seed"] == int(opts.get("--seed", 0))
        values = [c for s in report["suites"] for c in s["checks"] if c["name"].startswith("value_i")]
        assert all(c["actual"] == _closed_form(p, int(c["name"][7:])) for c in values), values
    elif command == "verify":
        values = [line.split() for line in out.splitlines() if "] value_i" in line]
        assert all(" ".join(v[3:]) == f"({_closed_form(p, int(v[2][7:]))})" for v in values), values
    elif command == "compute":
        i = int(opts["--i"])
        if opts.get("--format") == "json":
            got = json.loads(out)
            assert got["value"] == _closed_form(p, i)
            c = (-math.comb(i * p, i) // p) % p
            assert got["coefficients"] == {str(p**3 - 1 - i * (p - 1)): [0, c]}
        else:
            assert out.strip() == _closed_form(p, i)
