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

from oracles import fib_by_addition, walk

GOLDEN = Path(__file__).parent / "golden" / "table_max_beta_1000.txt"

# one CLI call a line: argv <TAB> exit code <TAB> sha256(stdout) <TAB> sha256(stderr),
# recorded from `python -m hippasus` subprocesses; regenerate with
# `PYTHONPATH=src python tests/test_cli.py --write-manifest`
MANIFEST = GOLDEN.parent / "cli_manifest.txt"
_BIG_TOKEN = re.compile(r"(?:F\((\d+)\)|(\d+)\*\*(\d+))([+-]\d+)?")


# prints the VmHWM raise (kB) across verify convergence at 10,000, then its line
CONVERGENCE_RSS = """
import io
from contextlib import redirect_stdout
from hippasus.cli import main

def hwm_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

out = io.StringIO()
before = hwm_kb()
with redirect_stdout(out):
    code = main(["verify", "convergence", "--bound", "10000"])
assert code == 0
print(hwm_kb() - before, out.getvalue(), end="")
"""


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

    def test_format_choices_are_table_formats(self, capsys):
        # cli.py restates table.FORMATS, so that building the parser does not
        # load table; the help lists the parser's choices in their order
        from hippasus import cli, table

        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["table", "--help"])
        assert f"--format {{{','.join(table.FORMATS)}}}" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt, exponent", [
        ("csv", 100),
        # alpha_squared passes the interpreter's default 4,300-digit int->str
        # limit near beta = 10**2150, and only entry() lifts it: 10,528 rows,
        # up to 139 MB of text (about 25 s for the three)
        *(pytest.param(fmt, 2200, marks=pytest.mark.gate) for fmt in ("aligned", "csv", "json")),
    ])
    def test_bound_walks_the_sequence(self, fmt, exponent):
        # a scan over beta in 1..10**100 would never finish; the walk takes 480 steps.
        # Row i is (F(i), F(i+1)) of sign (-1)**i
        from hippasus.table import TableRow
        from test_table import ORACLES, first_difference

        bound = 10**exponent
        r = run_cli("table", "--max-beta", str(bound), "--format", fmt, timeout=300)
        assert r.returncode == 0, r.stderr[-500:]
        rows = [TableRow(a, b, a + b, (-1) ** i, b * b) for i, a, b in walk(bound)]
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # for the reference, as entry() does
        try:
            assert first_difference(r.stdout, ORACLES[fmt](rows)) is None
        finally:
            sys.set_int_max_str_digits(before)


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

    def test_decides_once(self, monkeypatch, capsys):
        # one sieve call and at most one index lookup per check: a member,
        # a non-member the sieve rejects and one it admits (1836)
        from hippasus import cli, fibonacci

        calls = {"_sieve_rejects": [], "_locate": []}

        def spy(name):
            real = getattr(fibonacci, name)

            def call(n):
                calls[name].append(n)
                return real(n)

            return call

        for name in calls:
            monkeypatch.setattr(fibonacci, name, spy(name))
        member = (
            "beta: 55\nstatus: hippasus\nsuccessors: 89\n"
            "descent: 55 34 21 13 8 5 3 2 1 1\nfibonacci_index: 9\n"
        )
        for beta, code, lookups, out in (
            (55, 0, [55], member),
            (57, 1, [], "beta: 57\nstatus: not-hippasus\nsuccessors: none\n"),
            (1836, 1, [1836], "beta: 1836\nstatus: not-hippasus\nsuccessors: none\n"),
        ):
            for called in calls.values():
                called.clear()
            assert cli.main(["check", str(beta)]) == code
            assert calls == {"_sieve_rejects": [beta], "_locate": lookups}
            assert capsys.readouterr().out == out

    @pytest.mark.parametrize("command", ["check", "descent"])
    def test_one_doubling_per_member(self, command, monkeypatch, capsys):
        # the lookup's doubling, to F(5000) = G(5001), certified at its top
        # step: one step from the table to G(2499), one to G(5001); the
        # printed walk starts from the certified pair
        from hippasus import cli, fibonacci

        steps = []

        def spy(aa, bb, m):
            steps.append(m)
            return last_step(aa, bb, m)

        last_step = fibonacci._last_step
        beta = fibonacci.fib(5000)
        monkeypatch.setattr(fibonacci, "_last_step", spy)
        assert cli.main([command, str(beta)]) == 0
        assert steps == [2499, 5001]
        out = capsys.readouterr().out
        assert out.startswith(f"descent: {beta} " if command == "descent" else f"beta: {beta}\n")
        assert out.endswith(" 2 1 1\nfibonacci_index: 5000\n")
        if command == "check":
            assert f"successors: {fibonacci.fib(5001)}\n" in out

    @pytest.mark.parametrize("lookup", [(5000, 13, 21), (7, 13, 21)])
    def test_lookup_with_a_wrong_index_raises(self, monkeypatch, lookup):
        # the bracket certifies the values; the magnitude checks the index
        from hippasus import cli, fibonacci

        monkeypatch.setattr(fibonacci, "_locate", lambda b: lookup)
        for command in ("check", "descent"):
            with pytest.raises(RuntimeError, match="magnitude disagrees"):
                cli.main([command, "13"])


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
        a, b = fib_by_addition(301), fib_by_addition(302)  # F(300), F(301)
        descent, x, y = [], a, b
        while len(descent) < 301:
            descent.append(x)
            x, y = y - x, x
        assert cli.main([command, str(a)]) == 0
        out = capsys.readouterr().out
        assert f"descent: {' '.join(map(str, descent))}\nfibonacci_index: 300\n" in out

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

    def test_index_of_nearly_a_million_in_under_a_second_and_a_half(self):
        # about 7 s when the deviations carried 2*len(F(n)) extra digits
        t0 = time.perf_counter()
        r = run_cli("octagon", "--n", "999998", timeout=60)
        elapsed = time.perf_counter() - t0
        assert r.returncode == 0 and r.stdout.startswith("n: 999998\n")
        assert elapsed < 1.5, elapsed

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
    @pytest.mark.parametrize("bounds", [
        pytest.param({"cassini": 200, "equivalence": 5000, "parity": 500, "convergence": 30},
                     id="small"),
        # every beta up to 10**6: the sieve and the bracket certificate
        # against the suite's sequence walk (about 2 s)
        pytest.param({"equivalence": 10**6}, id="equivalence-1000000", marks=pytest.mark.gate),
    ])
    def test_suites_pass(self, bounds):
        for suite, bound in bounds.items():
            assert run_cli("verify", suite, "--bound", str(bound)).returncode == 0, suite

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
        # the last residual would need F(1000001), and the smaller residuals
        # alone would take more than a day; the ceiling refuses the bound first
        from hippasus.cli import main

        t0 = time.perf_counter()
        assert main(["verify", "cassini", "--bound", "999999"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == (
            "", "error: verify cassini: bound 999999 exceeds the ceiling (max 160000)\n"
        )
        assert main(["verify", "cassini", "--bound", "20"]) == 0

    @pytest.mark.parametrize(
        "suite, ceiling",
        [("cassini", 160_000), ("equivalence", 500_000_000), ("convergence", 40_000)],
    )
    def test_unreachable_bound_is_refused_at_once(self, monkeypatch, capsys, suite, ceiling):
        # a run past the ceiling would take hours (10**12 betas of
        # equivalence: about two months); the refusal comes before the loop,
        # whose per-step calls here fail at once rather than run for hours
        # (the cassini walk makes no call, so its whole runner fails); each
        # runner imports its routes when it starts, so they are patched at home
        from hippasus import cli, descent, geometry

        def loop_started(*args):
            raise AssertionError("the loop started")

        with monkeypatch.context() as patched:
            _, default, cap = cli.VERIFY_SUITES["cassini"]
            patched.setitem(cli.VERIFY_SUITES, "cassini", (loop_started, default, cap))
            patched.setattr(descent, "descend", loop_started)
            patched.setattr(geometry, "_convergence_rows", loop_started)
            for bound in (ceiling + 1, 10**12):
                t0 = time.perf_counter()
                assert cli.main(["verify", suite, "--bound", str(bound)]) == 2
                assert time.perf_counter() - t0 < 1.0
                assert capsys.readouterr() == (
                    "", f"error: verify {suite}: bound {bound} exceeds the ceiling (max {ceiling})\n"
                )
        assert cli.main(["verify", suite, "--bound", "20"]) == 0
        assert cli.main(["verify", suite]) == 0  # the default bound

    @pytest.mark.parametrize("bound", [5_000_000_001, 10**100])
    def test_parity_has_no_ceiling(self, bound):
        # the descent proves the answer for every bound; no scan runs
        t0 = time.perf_counter()
        r = run_cli("verify", "parity", "--bound", str(bound))
        assert time.perf_counter() - t0 < 1.0
        assert (r.returncode, r.stdout, r.stderr) == (
            0, f"verify parity: pass (no exact solution for beta in 1..{bound})\n", ""
        )

    @pytest.mark.parametrize("route", ["descend", "successors"])
    def test_equivalence_names_the_route_that_disagrees(self, monkeypatch, capsys, route):
        # each route is checked against the sequence walk, not against the
        # other, so a wrong answer from either fails the suite by name
        from hippasus import cli, descent

        right = getattr(descent, route)

        def wrong_at_89(beta):
            return right(90 if beta == 89 else beta)

        monkeypatch.setattr(descent, route, wrong_at_89)
        assert cli.main(["verify", "equivalence", "--bound", "100"]) == 1
        expected = {
            "descend": "descent index None, sequence 10",
            "successors": "successors (), sequence (144,)",
        }[route]
        assert capsys.readouterr() == (
            f"verify equivalence: FAIL at beta=89: {expected}\n", ""
        )

    def test_convergence_holds_two_rows(self):
        # the rows stream: at bound 10,000 every row at the digits of
        # F(10000) would raise the peak by about 25 MB (CPython 3.11)
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status for VmHWM")
        r = subprocess.run([sys.executable, "-c", CONVERGENCE_RSS], capture_output=True,
                           text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        raise_kb, line = r.stdout.split(" ", 1)
        assert line == "verify convergence: pass (n in 1..10000 at 2105 digits)\n"
        assert int(raise_kb) < 4_000, raise_kb

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "collatz").returncode == 2

    def test_default_bounds(self):
        r = run_cli("verify", "cassini")
        assert r.returncode == 0
        assert "0..300" in r.stdout


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


@pytest.mark.parametrize("call", ["fib 1000000", "descent F(30000)", "table --max-beta 10**300"],
                         ids=["fib", "descent", "table"])
def test_a_closed_stdout_exits_141_without_a_traceback(call):
    # the reader takes 10 bytes and closes the pipe: F(10**6) is 209 kB of
    # digits, the walk from F(30000) about 94 MB and the table 2.6 MB, so
    # the CLI is still writing; it exits 141 (128 + SIGPIPE), as a shell
    # reports for `cat`
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # F(30000) has 6,270 digits
    try:
        argv = [expand(token) for token in call.split()]
    finally:
        sys.set_int_max_str_digits(before)
    with subprocess.Popen([sys.executable, "-m", "hippasus", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 10
    assert code == 141
    assert stderr == b""


def expand(token: str) -> str:
    """A manifest argument: F(n) or b**e, each optionally +d or -d, names
    that integer; any other token stands for itself."""
    match = _BIG_TOKEN.fullmatch(token)
    if match is None:
        return token
    index, base, exponent, offset = match.groups()
    if index is not None:
        value = fib_by_addition(int(index) + 1)  # the package's F(n)
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


def test_write_manifest_refuses_when_hippasus_does_not_import(tmp_path):
    # a copy of this file, the oracles it imports and the manifest, run
    # with a hippasus on PYTHONPATH whose import raises: the writer must
    # exit non-zero and leave the manifest's bytes alone
    (tmp_path / "golden").mkdir()
    for name in ("test_cli.py", "oracles.py"):
        (tmp_path / name).write_bytes((Path(__file__).parent / name).read_bytes())
    manifest = tmp_path / "golden" / MANIFEST.name
    manifest.write_bytes(MANIFEST.read_bytes())
    stub = tmp_path / "stub" / "hippasus"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("raise ImportError('hippasus stub: import fails')\n")
    run = subprocess.run(
        [sys.executable, str(tmp_path / "test_cli.py"), "--write-manifest"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(stub.parent)},
        timeout=60,
    )
    assert run.returncode != 0
    assert "`import hippasus` fails" in run.stderr
    assert "hippasus stub: import fails" in run.stderr
    assert manifest.read_bytes() == MANIFEST.read_bytes()


def write_manifest() -> None:
    """Rerun the argv column of the manifest as subprocesses and rewrite the rest.

    Exits non-zero, leaving the file as it is, when the children cannot
    import hippasus: every line would record that failure instead.
    """
    env = {**os.environ, "COLUMNS": "80"}
    probe = subprocess.run([sys.executable, "-c", "import hippasus"],
                           capture_output=True, text=True, env=env)
    if probe.returncode != 0:
        sys.exit(f"--write-manifest: `import hippasus` fails in the child processes, so "
                 f"{MANIFEST} is left as it is (run with PYTHONPATH=src):\n{probe.stderr}")
    lines = ["# argv\texit\tsha256(stdout)\tsha256(stderr); "
             "F(n) and b**e, optionally +d or -d, stand for that integer"]
    for text, *_ in manifest_calls():
        run = subprocess.run(
            [sys.executable, "-m", "hippasus", *(expand(t) for t in text.split())],
            capture_output=True,
            env=env,
        )
        lines.append("\t".join([text, str(run.returncode), _sha256(run.stdout), _sha256(run.stderr)]))
    MANIFEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write-manifest"]:
    write_manifest()
