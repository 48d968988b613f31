"""In-process layer timings of the hippasus package, written as one JSON file.

Usage: PYTHONPATH=src python bench/layers.py [--out BENCH_<n>.json]

Each op is timed best-of-k with time.perf_counter, after one untimed call
whose answer is checked against values built by plain addition (the
octagon and its limits against 70-digit reference constants), so a fast
wrong answer stops the run with exit 1.  Small calls are timed in batches
and reported per call.  The ops are timed in ROUNDS passes over the whole
list, each op's best kept: the host this was written on has slow spells
of seconds, which one op's repeats in a row can fall inside entirely (a
small call read twice its time in one of two runs).  Standard library
only; the package is whatever ``import hippasus`` finds.

Start-up is probed in fresh interpreters, CLI_PROBES times each, round
robin so that a slow spell of the host falls on every probe alike: ``python
-c pass``, ``import hippasus`` and ``import hippasus.cli`` (the import alone,
timed inside the child), and two ``python -m hippasus`` calls (wall time,
first stdout line checked).  The children import a copy of the package's
``*.py`` in a temporary directory with PYTHONDONTWRITEBYTECODE=1, so every
probe compiles the modules it imports, as a call does where no bytecode
cache was ever written.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from decimal import Decimal, localcontext
from pathlib import Path

import hippasus
from hippasus import cli
from hippasus.descent import descend, successors
from hippasus.fibonacci import _decide, cassini_residual, fib, fib_index_of, is_consecutive_fib
from hippasus.geometry import PrecisionConfig, octagon, octagon_limits
from hippasus.table import build_rows, render
from hippasus.wasteels import classify

BIG = (10**5, 10**6 - 1)  # F(n) and F(n + 1) both within fib's range
PAST_TABLE = (2100, 3000)  # fib just past its table of F(0..2047)
OCTAGON_N = (10**4, 10**5, 999_998)
LIMITS_DIGITS = (1000, 1333, 2371, 4217, 7499, 10**4)
ROUNDS = 3
CLI_PROBES = 100

# prints the seconds an import takes and where the package came from
IMPORT_PROBE = """\
import sys, time
t = time.perf_counter()
import {module}
t = time.perf_counter() - t
print(repr(t), sys.modules["hippasus"].__file__)
"""

# name -> (interpreter arguments, first stdout line; None: an import probe)
CLI_CALLS = {
    "python -c pass": (["-c", "pass"], ""),
    "import hippasus": (["-c", IMPORT_PROBE.format(module="hippasus")], None),
    "import hippasus.cli": (["-c", IMPORT_PROBE.format(module="hippasus.cli")], None),
    "check 55": (["-m", "hippasus", "check", "55"], "beta: 55"),
    "octagon --n 40": (["-m", "hippasus", "octagon", "--n", "40"], "n: 40"),
}

# phi's octagon limits to 70 digits (mpmath at 80 digits), as in perfbench
LIMITS = (
    Decimal("1.003755861787704301993794287768472599918449545698852744782338585940594"),
    Decimal("1.001874108911480817740005280390354892376693914739609358251960780559424"),
    Decimal("1.001878232863276581480099011957940153792868940527107836194313067765324"),
)


def by_addition(indices) -> dict[int, int]:
    """{i: F(i)} for F(0) = F(1) = 1, walking the sequence once."""
    out, a, b, i = {}, 1, 1, 0
    for k in sorted(set(indices)):
        while i < k:
            a, b, i = b, a + b, i + 1
        out[k] = a
    return out


# (name, size, call, check) of each small call, timed per call here and by
# CI's "Small-call cost" step, which imports this list: most of the
# benchmark's small_sweep ops are calls like these, whose cost is call
# layers, not arithmetic.  150,001 is no member; 832,040 is F(29), whose
# descend and successors read the index _decide checks.
_SMALL = by_addition(range(31))
_INDEX = {_SMALL[i]: i for i in range(2, 31)}
SMALL_CALLS = (
    ("successors", 150_001, lambda: successors(150_001), lambda r: r.successors == ()),
    ("descend", 150_001, lambda: descend(150_001), lambda r: r is None),
    ("successors", 832_040, lambda: successors(832_040),
     lambda r: r.successors == (_SMALL[_INDEX[832_040] + 1],)),
    ("descend", 832_040, lambda: descend(832_040),
     lambda r: r is not None and r.recovered_index == _INDEX[832_040]),
    ("classify", 6765, lambda: classify(6765, 10946),
     lambda r: r.consecutive and r.indices == (_INDEX[6765], _INDEX[10946])),
    ("cassini_residual", 1375, lambda: cassini_residual(1375), lambda r: r == -1),
    ("fib_index_of", 832_040, lambda: fib_index_of(832_040), lambda r: r == _INDEX[832_040]),
)


def best_of(call, budget_s: float, most: int, number: int = 1) -> tuple[float, int]:
    """(best seconds a call, repeats): at least min(3, most) repeats, at most
    ``most``, and no new repeat once ``budget_s`` is spent."""
    times = []
    start = time.perf_counter()
    while len(times) < most and (len(times) < 3 or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - t0) / number)
    return min(times), len(times)


def ops(values: dict[int, int]):
    """(name, size, call, check) for every timed op; check(result) is True
    when the answer is right."""
    for n in PAST_TABLE:
        yield "fib", n, lambda n=n: fib(n), lambda r, f=values[n]: r == f
    for n in BIG:
        f, f1 = values[n], values[n + 1]
        yield "fib", n, lambda n=n: fib(n), lambda r, f=f: r == f
        yield "fib_index_of", n, lambda f=f: fib_index_of(f), lambda r, n=n: r == n
        yield "is_consecutive_fib", n, lambda f=f, f1=f1: is_consecutive_fib(f, f1), lambda r: r is True
        yield "_decide", n, lambda f=f: _decide(f), lambda r, n=n, f1=f1: r == (n, f1)
        yield ("descend", n, lambda f=f: descend(f),
               lambda r, n=n: r is not None and r.recovered_index == n)
        yield "successors", n, lambda f=f: successors(f), lambda r, f1=f1: r.successors == (f1,)
    f, f1 = values[BIG[-1]], values[BIG[-1] + 1]
    yield ("classify", BIG[-1], lambda: classify(f, f1),
           lambda r: r.consecutive and r.indices == (BIG[-1], BIG[-1] + 1))
    for n in OCTAGON_N:
        f = values[n]
        yield ("octagon", n, lambda n=n: octagon(n, PrecisionConfig(50)),
               lambda r, n=n, f=f: octagon_ok(r, n, f))
    for digits in LIMITS_DIGITS:
        yield "octagon_limits", digits, lambda d=digits: octagon_limits(PrecisionConfig(d)), limits_ok
    yield from SMALL_CALLS
    rows = by_addition(range(28))
    expected = [(rows[i], rows[i + 1], (-1) ** i) for i in range(27) if rows[i] <= 10**5]
    yield ("render_json", 10**5, lambda: render(build_rows(10**5), "json"),
           lambda r: [(o["beta"], o["alpha"], o["sign"]) for o in json.loads(r)] == expected)
    yield ("verify_cassini", 20_000, verify_cassini,
           lambda r: r == (0, "verify cassini: pass (i in 0..20000)\n"))


def verify_cassini():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli._verify_cassini(20_000)
    return code, out.getvalue()


def octagon_ok(geo, n: int, f: int) -> bool:
    with localcontext() as ctx:
        ctx.prec = 50
        half = Decimal(f) / 2  # the whole of F(n): about a second at n = 999,998
    ratios = (geo.ratio_d_over_f, geo.ratio_d_over_e, geo.ratio_e_over_f)
    return (geo.n == n and abs(geo.p[0] - half) <= Decimal(1).scaleb(half.adjusted() - 49)
            and all(abs(r - limit) <= Decimal("1e-48") for r, limit in zip(ratios, LIMITS)))


def limits_ok(limits) -> bool:
    return all(abs(r - limit) <= Decimal("1e-68") for r, limit in zip(limits, LIMITS))


def cli_probes() -> dict:
    """Start-up costs in fresh interpreters: each call's median and
    quartiles in ms over CLI_PROBES probes, taken round robin."""
    seconds = {name: [] for name in CLI_CALLS}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "hippasus"
        copy.mkdir()
        for path in Path(hippasus.__file__).parent.glob("*.py"):
            shutil.copyfile(path, copy / path.name)
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        for _ in range(CLI_PROBES):
            for name, (args, first_line) in CLI_CALLS.items():
                t0 = time.perf_counter()
                run = subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                                     capture_output=True, text=True)
                took = time.perf_counter() - t0
                line = (run.stdout.splitlines() or [""])[0]
                if first_line is None:  # an import probe: its own time, from the copy
                    took, location = line.split() if run.returncode == 0 else (0, "")
                    ok, took = Path(location).parent == copy, float(took)
                else:
                    ok = run.returncode == 0 and line == first_line
                if not ok:
                    raise RuntimeError(f"start-up probe {name!r}: exit {run.returncode}, "
                                       f"stdout {run.stdout[:200]!r}, stderr {run.stderr[-500:]!r}")
                seconds[name].append(took)
        if list(copy.glob("__pycache__")):
            raise RuntimeError("a start-up probe wrote a bytecode cache")
    calls = {}
    for name, times in seconds.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        calls[name] = {"measure": "wall" if CLI_CALLS[name][1] is not None else "import",
                       "median_ms": round(median * 1e3, 3), "q1_ms": round(q1 * 1e3, 3),
                       "q3_ms": round(q3 * 1e3, 3)}
    return {"setting": "PYTHONDONTWRITEBYTECODE=1, package copied without bytecode caches",
            "probes": CLI_PROBES, "calls": calls}


def source_identity() -> tuple[str | None, str]:
    """(git describe of the package's tree or None, sha256 of its sources)."""
    package = Path(hippasus.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(package), "describe", "--always", "--dirty"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return commit, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    args = parser.parse_args()
    sys.set_int_max_str_digits(0)
    values = by_addition([k for n in (*PAST_TABLE, *BIG, *OCTAGON_N) for k in (n, n + 1)])
    commit, src_sha256 = source_identity()
    report = {"commit": commit, "src_sha256": src_sha256, "python": platform.python_version(),
              "nproc": os.cpu_count(), "ops": {}}
    timed = []
    for name, size, call, check in ops(values):
        if not check(call()):
            print(f"{name}({size}): wrong answer", file=sys.stderr)
            return 1
        first, _ = best_of(call, budget_s=0, most=1)
        timed.append((f"{name}@{size}", size, call, max(1, int(0.01 / max(first, 1e-9)))))
    for _ in range(ROUNDS):
        for key, size, call, number in timed:  # batches of about 10 ms
            best, repeats = best_of(call, budget_s=0.5, most=5, number=number)
            op = report["ops"].setdefault(key, {"size": size, "best_s": best, "repeats": 0,
                                                "calls_a_repeat": number})
            op["best_s"] = min(op["best_s"], best)
            op["repeats"] += repeats
    for key, op in report["ops"].items():
        print(f"{key:24} {op['best_s'] * 1e3:12.4f} ms  ({op['repeats']} x {op['calls_a_repeat']})",
              file=sys.stderr)
    report["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    report["cli"] = cli_probes()
    for name, call in report["cli"]["calls"].items():
        print(f"{name:24} {call['median_ms']:12.4f} ms  ({call['measure']}, quartiles "
              f"{call['q1_ms']}-{call['q3_ms']})", file=sys.stderr)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
