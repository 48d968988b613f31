import csv
import io
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "table_max_beta_1000.txt"


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


class TestDescent:
    def test_member(self):
        r = run_cli("descent", "13")
        assert r.returncode == 0
        assert "descent: 13 8 5 3 2 1 1" in r.stdout
        assert "fibonacci_index: 6" in r.stdout

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

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "collatz").returncode == 2

    def test_default_bounds(self):
        r = run_cli("verify", "cassini")
        assert r.returncode == 0
        assert "0..300" in r.stdout


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2
