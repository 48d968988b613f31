import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "table_max_beta_1000.txt"

# one CLI call a line: argv <TAB> exit code <TAB> sha256(stdout) <TAB> sha256(stderr),
# recorded from `python -m hippasus` subprocesses; regenerate with
# `PYTHONPATH=src python tests/test_cli.py --write-manifest`
MANIFEST = GOLDEN.parent / "cli_manifest.txt"
_BIG_TOKEN = re.compile(r"(?:F\((\d+)\)|(\d+)\*\*(\d+))([+-]\d+)?")


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "hippasus", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestFib:
    def test_value(self):
        r = run_cli("fib", "10")
        assert r.returncode == 0
        assert r.stdout.strip() == "89"

    def test_large_index_prints_in_full(self):
        # ~6270 digits; exceeds the interpreter's default int->str guard
        r = run_cli("fib", "30000")
        assert r.returncode == 0
        text = r.stdout.strip()
        assert text.isdigit() and len(text) > 6000
        from hippasus import fib

        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(fib(30000))
        finally:
            sys.set_int_max_str_digits(before)

    def test_rejects_negative(self):
        assert run_cli("fib", "-3").returncode == 2

    def test_in_process_main_keeps_int_str_limit(self, capsys):
        # only the console entry point lifts the interpreter-wide digit guard
        from hippasus.cli import main

        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["fib", "10"]) == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)
        assert capsys.readouterr().out == "89\n"

    def test_index_beyond_cap_is_reported(self):
        r = run_cli("fib", "1000001")
        assert r.returncode == 2
        assert "exceeds the supported range" in r.stderr


class TestTable:
    def test_golden_bytes(self):
        r = run_cli("table", "--max-beta", "1000")
        assert r.returncode == 0
        assert r.stdout == GOLDEN.read_text()

    def test_csv_json_roundtrip(self):
        r_csv = run_cli("table", "--max-beta", "1000", "--format", "csv")
        r_json = run_cli("table", "--max-beta", "1000", "--format", "json")
        assert r_csv.returncode == 0 and r_json.returncode == 0
        from_csv = [
            {k: int(v) for k, v in rec.items()}
            for rec in csv.DictReader(io.StringIO(r_csv.stdout))
        ]
        assert from_csv == json.loads(r_json.stdout)

    def test_bad_format_is_usage_error(self):
        assert run_cli("table", "--max-beta", "10", "--format", "xml").returncode == 2

    def test_googol_bound_walks_the_sequence(self):
        # a scan over beta in 1..10**100 would never finish; the walk takes 480 steps
        r = run_cli("table", "--max-beta", str(10**100), "--format", "csv", timeout=60)
        assert r.returncode == 0
        data = [tuple(map(int, line.split(",")[:2])) for line in r.stdout.splitlines()[1:]]
        expected, a, b = [], 1, 1  # (F(i), F(i+1)) by plain addition
        while a <= 10**100:
            expected.append((a, b))
            a, b = b, a + b
        assert len(data) == 480
        assert data == expected


class TestCheck:
    def test_member(self):
        r = run_cli("check", "55")
        assert r.returncode == 0
        assert "successors: 89" in r.stdout
        assert "fibonacci_index: 9" in r.stdout

    def test_ambiguous_one(self):
        r = run_cli("check", "1")
        assert r.returncode == 0
        assert "successors: 1 2" in r.stdout

    def test_non_member(self):
        r = run_cli("check", "57")
        assert r.returncode == 1
        assert "not-hippasus" in r.stdout

    def test_malformed(self):
        assert run_cli("check", "foo").returncode == 2
        assert run_cli("check", "0").returncode == 2

    def test_searches_successors_once(self, monkeypatch, capsys):
        from hippasus import cli, descent

        calls = []

        def counted(beta):
            calls.append(beta)
            return search(beta)

        search = descent.successors
        monkeypatch.setattr(cli, "successors", counted)
        monkeypatch.setattr(descent, "successors", counted)
        assert cli.main(["check", "55"]) == 0
        assert calls == [55]
        assert capsys.readouterr().out == (
            "beta: 55\nstatus: hippasus\nsuccessors: 89\n"
            "descent: 55 34 21 13 8 5 3 2 1 1\nfibonacci_index: 9\n"
        )


class TestDescent:
    def test_member(self):
        r = run_cli("descent", "13")
        assert r.returncode == 0
        assert "descent: 13 8 5 3 2 1 1" in r.stdout
        assert "fibonacci_index: 6" in r.stdout

    @pytest.mark.parametrize("command", ["check", "descent"])
    def test_walk_is_streamed(self, command, monkeypatch, capsys):
        # the walk prints value by value; the whole steps tuple is never built
        from hippasus import cli
        from hippasus.descent import DescentTrace

        def unbuilt(self):
            raise AssertionError("steps built")

        monkeypatch.setattr(DescentTrace, "steps", property(unbuilt))
        a, b = 1, 1
        for _ in range(300):
            a, b = b, a + b
        walk, x, y = [], a, b
        while len(walk) < 301:
            walk.append(x)
            x, y = y - x, x
        assert cli.main([command, str(a)]) == 0
        out = capsys.readouterr().out
        assert f"descent: {' '.join(map(str, walk))}\nfibonacci_index: 300\n" in out

    def test_non_member(self):
        assert run_cli("descent", "12").returncode == 1


class TestWasteels:
    def test_consecutive(self):
        r = run_cli("wasteels", "21", "34")
        assert r.returncode == 0
        assert "consecutive: yes" in r.stdout
        assert "indices: 7 8" in r.stdout

    def test_base_pair(self):
        assert run_cli("wasteels", "1", "1").returncode == 0

    def test_not_consecutive(self):
        r = run_cli("wasteels", "9", "15")
        assert r.returncode == 1
        assert "residual: 9" in r.stdout
        assert "consecutive: no" in r.stdout


class TestOctagon:
    @pytest.mark.parametrize("args, name", [
        (("octagon", "--n", "1000", "--digits", "200"), "octagon_n_1000_digits_200.txt"),
        (("phi-convergence", "--n-max", "300", "--digits", "80"),
         "phi_convergence_n_max_300_digits_80.txt"),
    ])
    def test_golden_bytes_on_the_newton_path(self, args, name):
        # files written by the Decimal.sqrt chain; these precisions (210 to
        # 648 digits) take the Newton square root
        r = run_cli(*args)
        assert r.returncode == 0
        assert r.stdout == (GOLDEN.parent / name).read_text()

    def test_index_of_a_hundred_thousand_in_under_two_and_a_half_seconds(self):
        # 3.7 s with Decimal.sqrt, whole-operand conversions and two passes
        t0 = time.perf_counter()
        r = run_cli("octagon", "--n", "100000", timeout=60)
        elapsed = time.perf_counter() - t0
        assert r.returncode == 0 and r.stdout.startswith("n: 100000\n")
        assert elapsed < 2.5, elapsed

    def test_report(self):
        r = run_cli("octagon", "--n", "40", "--digits", "50")
        assert r.returncode == 0
        assert "d_over_f: 1.00375" in r.stdout
        assert "limit_d_over_f: 1.00375" in r.stdout
        assert "deviation_d_over_f:" in r.stdout

    def test_degenerate_n0(self):
        r = run_cli("octagon", "--n", "0", "--digits", "15")
        assert r.returncode == 0
        assert "p: (0.5," in r.stdout

    def test_low_digits_is_precision_error(self):
        r = run_cli("octagon", "--n", "2", "--digits", "10")
        assert r.returncode == 3
        assert r.stdout == ""
        assert "precision error" in r.stderr


class TestPhiConvergence:
    def test_report(self):
        r = run_cli("phi-convergence", "--n-max", "5", "--digits", "20")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0].startswith("phi: 1.6180339887498948482")
        assert len(lines) == 7  # phi line + rows n = 0..5

    def test_guard_is_precision_error(self):
        assert run_cli("phi-convergence", "--n-max", "500", "--digits", "20").returncode == 3


class TestVerify:
    def test_suites_pass(self):
        assert run_cli("verify", "cassini", "--bound", "200").returncode == 0
        assert run_cli("verify", "equivalence", "--bound", "5000").returncode == 0
        assert run_cli("verify", "parity", "--bound", "500").returncode == 0
        assert run_cli("verify", "convergence", "--bound", "30").returncode == 0

    def test_convergence_past_the_fixed_guard(self):
        # each error cancels about 2*log10(F(n)) digits; carrying only the
        # digit count of F(bound) once failed at n = 158 and n = 558
        r = run_cli("verify", "convergence", "--bound", "158")
        assert (r.returncode, r.stdout) == (0, "verify convergence: pass (n in 1..158 at 50 digits)\n")
        r = run_cli("verify", "convergence", "--bound", "1000")
        assert (r.returncode, r.stdout) == (0, "verify convergence: pass (n in 1..1000 at 224 digits)\n")

    def test_convergence_in_process_past_the_digit_limit(self, capsys):
        # F(3100) has 648 digits, more than the lowest int->str limit (640);
        # the default limit of 4300 digits needs a bound near 20,600 (22 s)
        from hippasus.cli import main

        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["verify", "convergence", "--bound", "3100"]) == 0
        finally:
            sys.set_int_max_str_digits(before)
        assert capsys.readouterr() == (
            "verify convergence: pass (n in 1..3100 at 663 digits)\n", ""
        )

    def test_unreachable_cassini_bound_is_refused_at_once(self, capsys):
        # the last residual needs F(1000001); the refusal must come before
        # the loop, whose smaller residuals alone would take hours
        from hippasus.cli import main

        t0 = time.perf_counter()
        assert main(["verify", "cassini", "--bound", "999999"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == (
            "", "error: index 1000001 exceeds the supported range (max 1000000)\n"
        )
        assert main(["verify", "cassini", "--bound", "20"]) == 0

    @pytest.mark.parametrize(
        "suite, ceiling",
        [("equivalence", 500_000_000), ("parity", 5_000_000_000), ("convergence", 40_000)],
    )
    def test_unreachable_bound_is_refused_at_once(self, monkeypatch, capsys, suite, ceiling):
        # a run past the ceiling would take hours (10**12 betas of
        # equivalence: about two months); the refusal comes before the loop,
        # whose per-beta calls here fail at once rather than run for hours
        from hippasus import cli

        def loop_started(*args):
            raise AssertionError("the loop started")

        with monkeypatch.context() as patched:
            patched.setattr(cli, "is_fibonacci_by_descent", loop_started)
            patched.setattr(cli, "find_exact_solution", loop_started)
            patched.setattr(cli, "convergence_table", loop_started)
            for bound in (ceiling + 1, 10**12):
                t0 = time.perf_counter()
                assert cli.main(["verify", suite, "--bound", str(bound)]) == 2
                assert time.perf_counter() - t0 < 1.0
                assert capsys.readouterr() == (
                    "", f"error: verify {suite}: bound {bound} exceeds the ceiling (max {ceiling})\n"
                )
        assert cli.main(["verify", suite, "--bound", "20"]) == 0
        assert cli.main(["verify", suite]) == 0  # the default bound

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "collatz").returncode == 2

    def test_default_bounds(self):
        r = run_cli("verify", "cassini")
        assert r.returncode == 0
        assert "0..300" in r.stdout


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


def expand(token: str) -> str:
    """A manifest argument: F(n) or b**e, each optionally +d or -d, names
    that integer; any other token stands for itself."""
    match = _BIG_TOKEN.fullmatch(token)
    if match is None:
        return token
    index, base, exponent, offset = match.groups()
    if index is not None:
        value, following = 1, 1  # F(n) by plain addition
        for _ in range(int(index)):
            value, following = following, value + following
    else:
        value = int(base) ** int(exponent)
    return str(value + int(offset or 0))


def manifest_calls() -> list[list[str]]:
    """The manifest's lines as fields; an empty argv is a call with no arguments."""
    return [
        line.split("\t")
        for line in MANIFEST.read_text().splitlines()
        if line and not line.startswith("#")
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_manifest_replays_byte_identical_in_process(monkeypatch):
    # every recorded call, through main() in this process: same exit code,
    # same stdout bytes, same stderr bytes (--help wraps at COLUMNS)
    from hippasus.cli import main

    monkeypatch.setenv("COLUMNS", "80")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as entry() does
    calls, mismatches = manifest_calls(), []
    try:
        for text, *recorded in calls:
            argv = [expand(token) for token in text.split()]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: usage errors and --help
                    code = exc.code
            got = [str(code), _sha256(out.getvalue().encode()), _sha256(err.getvalue().encode())]
            if got != recorded:
                mismatches.append((text, recorded, got))
    finally:
        sys.set_int_max_str_digits(before)
    assert len(calls) >= 80
    assert not mismatches


def write_manifest() -> None:
    """Rerun the argv column of the manifest as subprocesses and rewrite the rest."""
    lines = ["# argv\texit\tsha256(stdout)\tsha256(stderr); "
             "F(n) and b**e, optionally +d or -d, stand for that integer"]
    for text, *_ in manifest_calls():
        run = subprocess.run(
            [sys.executable, "-m", "hippasus", *(expand(t) for t in text.split())],
            capture_output=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        lines.append("\t".join([text, str(run.returncode), _sha256(run.stdout), _sha256(run.stderr)]))
    MANIFEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write-manifest"]:
    write_manifest()
