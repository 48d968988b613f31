"""Benchmark of the hippasus package in this working tree.

    python3 perfbench/run.py --workload big_operands --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from any directory; the tree measured is the one this file sits in.  A
run makes the same seeded pass of ops again and again for ``--seconds``; in
small_sweep each op counts with its fastest pass, elsewhere every call
counts.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of BENCHMARK.json; the last line of
stdout is one JSON object.  Mismatches against the benchmark's own oracles
go to stderr, one line per op.  Run records, and the spans of traced
passes, are written to perfbench/out/.
See perfbench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter_ns

from measure import Recorder, end_to_end, fastest
from workloads import cli_mix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
GOLDEN = ROOT / "tests" / "golden" / "table_max_beta_1000.txt"
WORKLOADS = ("cli_mix", "big_operands", "small_sweep")
LIMIT_S = 170  # every run ends well inside the 180 s a run may take
IMPORT_PROBES = 7
FLOOR_PROBES = 5
MIN_PASSES = 3  # every op is timed at least three times
# Workloads whose ops each count with their fastest pass: calls of a few us,
# each of which sees one host speed.  Elsewhere every call counts; see the
# README, "Timing".
FASTEST_OF_PASSES = {"small_sweep"}

# ``python -m hippasus`` as -m runs it, then the child's own peak RSS on the
# last line of its stderr (see measure.peak_rss_kb)
CLI_LAUNCH = """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as f:
        sys.stderr.write("\\n" + next(line for line in f if line.startswith("VmHWM:")))
atexit.register(peak)
runpy._run_module_as_main("hippasus")
"""

IMPORT_PROBE = """\
import sys, time
t = time.perf_counter()
import hippasus
t = time.perf_counter() - t
print(repr(t), "numpy" in sys.modules, hippasus.__file__)
"""


class BenchError(Exception):
    """The tree cannot be benchmarked; the run ends with exit code 2."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _source_info() -> dict:
    """What was measured: commit (when the tree is a git checkout) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def probe_import(env: dict[str, str], count: int) -> tuple[list[float], bool]:
    """Seconds to ``import hippasus`` in each of ``count`` fresh interpreters,
    after one discarded import that writes the bytecode caches."""
    times, numpy_loaded = [], False
    for k in range(count + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"import hippasus failed:\n{proc.stderr}")
        seconds, numpy_flag, location = proc.stdout.split()
        if not Path(location).resolve().is_relative_to(SRC):
            raise BenchError(f"imported hippasus from {location}, not from {SRC}")
        if k:
            times.append(float(seconds))
        numpy_loaded = numpy_flag == "True"
    return times, numpy_loaded


def probe_floor(env: dict[str, str], count: int) -> list[float]:
    """Wall seconds of ``python -c pass``: the interpreter's own start-up."""
    times = []
    for _ in range(count):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        times.append((perf_counter_ns() - t0) / 1e9)
    return times


def library_pass(workload: str, seed: int, trace: bool, env, tag: str) -> dict:
    """One fresh worker process makes one pass and reports its numbers."""
    durations_file = OUT / f"{tag}.durations"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--durations", str(durations_file)]
    if trace:
        cmd += ["--spans", str(OUT / f"{tag}.spans.csv.gz")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=LIMIT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    res = json.loads(proc.stdout.splitlines()[-1])
    res["durations"] = array("q", durations_file.read_bytes())
    durations_file.unlink()
    return res


def cli_pass(ops: list, trace: bool, env, tag: str) -> dict:
    """Sequential ``python -m hippasus`` subprocesses, one in flight."""
    rec = Recorder(trace)
    peak_kb = 0
    with open(OUT / "cli.stdout", "w+b") as out, open(OUT / "cli.stderr", "w+b") as err:
        for layer, argv, code, expected in ops:
            for f in (out, err):
                f.seek(0)
                f.truncate()
            t0 = perf_counter_ns()
            proc = subprocess.Popen([sys.executable, "-c", CLI_LAUNCH, *argv], cwd=ROOT,
                                    env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                proc.wait()
            except BaseException:  # the run's time limit: stop the child first
                proc.kill()
                proc.wait()
                raise
            t1 = perf_counter_ns()
            rec.op(layer, t0, t1)
            err.seek(0)
            lines = err.read().splitlines()
            if lines and lines[-1].startswith(b"VmHWM:"):
                peak_kb = max(peak_kb, int(lines[-1].split()[1]))
            out.seek(0)
            stdout = out.read()
            if proc.returncode != code:
                rec.fail(layer, f"{argv}: exit {proc.returncode}, expected {code}")
            elif callable(expected):
                error = expected(stdout)
                if error:
                    rec.fail(layer, f"{argv}: {error}")
            elif stdout != expected:
                rec.fail(layer, f"{argv}: stdout {stdout[:80]!r} differs from expected")
    if trace:
        rec.write_spans(OUT / f"{tag}.spans.csv.gz", tag)
    return {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "peak_rss_mb": peak_kb / 1024,
        "durations": rec.durations,
        "layers": rec.layers() if trace else {},
    }


def run_passes(workload: str, seed: int, seconds: float, trace: bool, env) -> dict:
    """The same pass again and again, until the next one would end past
    ``seconds`` (at least MIN_PASSES)."""
    tag = f"{workload}-seed{seed}-{os.getpid()}-trace{int(trace)}"
    ops = cli_mix(seed, GOLDEN.read_bytes()) if workload == "cli_mix" else None
    OUT.mkdir(parents=True, exist_ok=True)
    timed, passes = None, []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        pass_tag = f"{tag}-pass{len(passes)}"
        if ops is None:
            res = library_pass(workload, seed, trace, env, pass_tag)
        else:
            res = cli_pass(ops, trace, env, pass_tag)
        durations = res.pop("durations")
        if timed is None:
            timed = durations
        elif workload in FASTEST_OF_PASSES:
            timed = fastest(timed, durations)
        else:
            timed.extend(durations)
        passes.append(res)
    layers = {}
    if trace:  # every per-layer number is the median over the traced passes
        names = {name for res in passes for name in res["layers"]}
        layers = {name: statistics.median(res["layers"].get(name, 0) for res in passes)
                  for name in names}
    return {
        "passes": len(passes),
        "ops_per_pass": passes[0]["attempted"],
        "attempted": sum(res["attempted"] for res in passes),
        "failed": sum(res["failed"] for res in passes),
        "end_to_end": end_to_end(timed),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in passes),
        "layers": layers,
    }


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Derived per-layer metrics: ratios over calls, RSS in MB."""
    out = dict(raw)
    for name, part in (("descent.descend.accept_ratio", "descent.descend.accepted"),
                       ("descent.successors.hit_ratio", "descent.successors.hits"),
                       ("wasteels.classify.consecutive_ratio", "wasteels.classify.consecutive")):
        calls = raw.get(name.rsplit(".", 1)[0] + ".calls", 0)
        out[name] = raw.get(part, 0) / calls if calls else 0.0
    for name, value in raw.items():
        if name.endswith(".rss_raise_kb"):
            out[name[:-3] + "_mb"] = value / 1024
    return out


def measure_run(workload: str, seed: int, seconds: float, trace: bool, spec: dict, env) -> dict:
    imports, numpy_loaded = probe_import(env, IMPORT_PROBES)
    info = {**_source_info(), "numpy_imported": numpy_loaded, "workload": workload,
            "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        res = run_passes(workload, seed, seconds, False, env)
        values = {**res["end_to_end"], "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": statistics.median(imports),
                  "success_rate": 1 - res["failed"] / res["attempted"]}
        names = spec["end_to_end"]
    else:
        # half the time untraced, half traced: the ratio of the two ops_per_s
        # is the tracing overhead
        floor = probe_floor(env, FLOOR_PROBES)
        plain = run_passes(workload, seed, seconds / 2, False, env)
        res = run_passes(workload, seed, seconds / 2, True, env)
        values = layer_metrics(res["layers"])
        values["cli.interp_floor_ms"] = statistics.median(floor) * 1e3
        values["cli.import_ms"] = statistics.median(imports) * 1e3
        values["trace.ops_per_s_ratio"] = (res["end_to_end"]["ops_per_s"]
                                           / plain["end_to_end"]["ops_per_s"])
        names = spec["per_layer"]
    # a layer the workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}
    runs = [res] if not trace else [plain, res]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {"info": info, "ops_per_pass": res["ops_per_pass"],
              "passes": sum(r["passes"] for r in runs), "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    info = record["info"]
    print(f"# {info['workload']} seed {info['seed']} trace {int(info['trace'])}: "
          f"{record['passes']} passes of {record['ops_per_pass']} ops, "
          f"{record['attempted']} calls")
    print("# info " + json.dumps(info))
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':40s} {record['error_rate']:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops failed)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }), flush=True)


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {LIMIT_S} s")


def _terminated(signum, frame):
    # an exception, not the default exit, so that the child in flight is
    # killed and waited for on the way out
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.set_int_max_str_digits(0)

    try:
        if not (SRC / "hippasus" / "__init__.py").is_file():
            raise BenchError(f"no hippasus package under {SRC}")
        if not GOLDEN.is_file():
            raise BenchError(f"golden table {GOLDEN} is missing")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = _child_env()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        signal.signal(signal.SIGALRM, _timeout)
        signal.signal(signal.SIGTERM, _terminated)
        for workload in workloads:
            signal.alarm(LIMIT_S)
            try:
                report(measure_run(workload, args.seed, args.seconds, bool(args.trace), spec, env))
            finally:
                signal.alarm(0)
    except (BenchError, TimeoutError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
