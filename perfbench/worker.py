"""Make one pass of a library workload in this fresh interpreter.

run.py starts one worker per pass, with the working tree's ``src`` first on
PYTHONPATH, so the package's process-wide caches start cold in every pass and
the peak RSS read here is the pass's own.  The worker is one
client in a closed loop: it makes one call, checks the answer, then makes the
next.  It writes the duration of each op, in op order, to ``--durations``
(native int64 nanoseconds) and prints one JSON object as its last line.

    PYTHONPATH=src python3 perfbench/worker.py --workload big_operands --seed 1 \
        --durations perfbench/out/durations.bin
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from time import perf_counter_ns

import hippasus
from hippasus import (
    PrecisionConfig,
    build_rows,
    cassini_residual,
    classify,
    convergence_table,
    descend,
    fib,
    fib_index_of,
    find_exact_solution,
    is_consecutive_fib,
    octagon,
    octagon_limits,
    render,
    successors,
)

from measure import Recorder, peak_rss_kb
from workloads import OCTAGON_LIMITS, big_operands, small_sweep

WORKLOADS = {"big_operands": big_operands, "small_sweep": small_sweep}


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:60]}...<{len(text)} chars>"


# Each check returns None when the result is right, else what was wrong.
# Counters for the per-layer metrics are taken here, at the layer boundary.

def _check_equal(res, exp, args, rec):
    return None if res == exp else f"got {_short(res)}, expected {_short(exp)}"


def _check_fib(res, exp, args, rec):
    rec.peak("fibonacci.max_index", args[0])
    return _check_equal(res, exp, args, rec)


def _check_cassini(res, exp, args, rec):
    rec.peak("fibonacci.max_index", args[0] + 2)
    return _check_equal(res, exp, args, rec)


def _check_successors(res, exp, args, rec):
    rec.counts["descent.successors.hits"] += bool(res.successors)
    return _check_equal(res.successors, exp, args, rec)


def _check_descend(res, exp, args, rec):
    if res is None:
        return None if exp is None else f"rejected, expected index {exp}"
    rec.counts["descent.descend.accepted"] += 1
    rec.counts["descent.descend.steps"] += res.recovered_index
    return _check_equal(res.recovered_index, exp, args, rec)


def _check_classify(res, exp, args, rec):
    rec.counts["wasteels.classify.consecutive"] += res.consecutive
    return _check_equal((res.consecutive, res.indices, res.residual), exp, args, rec)


def _close(a: Decimal, b: Decimal, tol: str) -> bool:
    return abs(a - b) <= Decimal(tol)


def _check_octagon(res, f_n, args, rec):
    n, digits = args
    rec.peak("geometry.max_digits", digits)
    with localcontext() as ctx:
        ctx.prec = digits
        half = Decimal(f_n) / 2  # correctly rounded from the exact value
    if res.n != n or abs(res.p[0] - half) > Decimal(1).scaleb(half.adjusted() - digits + 1):
        return f"n={res.n}, p={_short(res.p)}"
    ratios = (res.ratio_d_over_f, res.ratio_d_over_e, res.ratio_e_over_f)
    # for n >= 10^3 the ratios equal their limits far beyond 50 digits
    if not all(_close(r, lim, "1e-48") for r, lim in zip(ratios, OCTAGON_LIMITS)):
        return f"ratios {ratios}"
    return None


def _check_limits(res, exp, args, rec):
    (digits,) = args
    rec.peak("geometry.max_digits", digits)
    if not all(_close(r, lim, "1e-68") for r, lim in zip(res, OCTAGON_LIMITS)):
        return f"limits {_short(res)}"
    with localcontext() as ctx:  # the first limit is the product of the other two
        ctx.prec = digits + 10
        if abs(res[0] - res[1] * res[2]) > Decimal(1).scaleb(3 - digits):
            return "first limit != second * third"
    return None


def _check_convergence(rows, exp, args, rec):
    n_max, digits = args
    rec.peak("geometry.max_digits", digits)
    f_n, f_n1 = exp
    with localcontext() as ctx:
        ctx.prec = digits + 5
        last = Decimal(f_n1) / Decimal(f_n)
    if len(rows) != n_max + 1 or rows[-1].n != n_max or rows[0].ratio != 1 or rows[1].ratio != 2:
        return f"{len(rows)} rows"
    if abs(rows[-1].ratio - last) > Decimal(1).scaleb(2 - digits):
        return f"ratio F({n_max + 1})/F({n_max}) = {_short(rows[-1].ratio)}"
    # errors alternate in sign while they stay far above the precision
    for k in range(1, 500):
        if (rows[k].error > 0) == (rows[k - 1].error > 0):
            return f"error sign did not alternate at n={k}"
    return None


class _Table:
    """Holds the rows of the last build_rows call, which the render ops format."""

    def __init__(self) -> None:
        self.rows: list = []

    def build(self, max_beta):
        self.rows = build_rows(max_beta)
        return self.rows

    def render(self, fmt):
        return render(self.rows, fmt)


_table = _Table()


def _check_rows(res, exp, args, rec):
    rec.counts["table.rows"] += len(res)
    return _check_equal([(r.beta, r.alpha, r.sign) for r in res], exp, args, rec)


def _check_render(res, exp, args, rec):
    rec.counts["table.render.bytes"] += len(res.encode())
    got = json.loads(res) if args[0] == "json" else res
    return _check_equal(got, exp, args, rec)


def _octagon(n, digits):
    return octagon(n, PrecisionConfig(digits))


def _octagon_limits(digits):
    return octagon_limits(PrecisionConfig(digits))


def _convergence_table(n_max, digits):
    return convergence_table(n_max, PrecisionConfig(digits))


# op kind -> (layer, callable, check)
KINDS = {
    "fib": ("fibonacci.fib", fib, _check_fib),
    "fib_index_of": ("fibonacci.fib_index_of", fib_index_of, _check_equal),
    "is_consecutive_fib": ("fibonacci.is_consecutive_fib", is_consecutive_fib, _check_equal),
    "cassini_residual": ("fibonacci.cassini_residual", cassini_residual, _check_cassini),
    "successors": ("descent.successors", successors, _check_successors),
    "descend": ("descent.descend", descend, _check_descend),
    "find_exact_solution": ("descent.find_exact_solution", find_exact_solution, _check_equal),
    "classify": ("wasteels.classify", classify, _check_classify),
    "octagon": ("geometry.octagon", _octagon, _check_octagon),
    "octagon_limits": ("geometry.octagon_limits", _octagon_limits, _check_limits),
    "convergence_table": ("geometry.convergence_table", _convergence_table, _check_convergence),
    "build_rows": ("table.build_rows", _table.build, _check_rows),
    "render": ("table.render", _table.render, _check_render),
}
# layers whose calls can hold large values; traced passes read the peak RSS around them
RSS_WATCHED = {"fibonacci.is_consecutive_fib", "descent.descend"}


def run(ops, rec: Recorder) -> None:
    """Make every op of one pass, in order."""
    for kind, args, expect in ops:
        layer, fn, check = KINDS[kind]
        watched = rec.trace and layer in RSS_WATCHED
        if watched:
            before = peak_rss_kb()
        t0 = perf_counter_ns()
        try:
            res = fn(*args)
        except Exception as exc:  # a failed op is counted, the pass goes on
            rec.op(layer, t0, perf_counter_ns())
            rec.fail(layer, f"{kind}{_short(args)} raised {exc!r}")
            continue
        t1 = perf_counter_ns()
        if watched:
            raised = peak_rss_kb() - before
            rec.counts[layer + ".rss_raise_kb"] += raised
        rec.op(layer, t0, t1)
        error = check(res, expect, args, rec)
        if error:
            rec.fail(layer, f"{kind}{_short(args)}: {error}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--durations", type=Path, required=True, help="file for the op durations")
    ap.add_argument("--spans", type=Path, help="file for the spans of a traced pass")
    args = ap.parse_args()
    sys.set_int_max_str_digits(0)

    ops = WORKLOADS[args.workload](args.seed)
    rec = Recorder(trace=bool(args.trace))
    run(ops, rec)
    with open(args.durations, "wb") as f:
        rec.durations.tofile(f)
    result = {
        "hippasus_file": hippasus.__file__,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "peak_rss_mb": peak_rss_kb() / 1024,
    }
    if args.trace:
        result["layers"] = rec.layers()
        if args.spans:
            rec.write_spans(args.spans, args.spans.name.split(".")[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
