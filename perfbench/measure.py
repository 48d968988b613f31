"""Per-op timing, spans and counters shared by the library worker and the
CLI loop, and the end-to-end metrics made from them.

A pass keeps the duration of each op, in op order, in a compact array, so
that the same op can be compared across the passes of a run.  Spans, kept
only in traced passes, live in compact arrays until the pass ends.
"""
from __future__ import annotations

import gzip
import math
import sys
from array import array
from collections import Counter
from pathlib import Path

MAX_PRINTED_FAILURES = 20  # a broken layer can fail millions of ops in one pass


def peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB, from VmHWM.

    Not getrusage's ru_maxrss: on Linux exec keeps the maximum of the image
    it replaces, so a child's value is at least its parent's resident set at
    the time it was started.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def fastest(best: array, durations: array) -> array:
    """Per op, the shorter of its best duration so far and its duration in
    the pass just made; both arrays are in op order."""
    if len(best) != len(durations):
        raise ValueError(f"a pass made {len(durations)} ops, an earlier one {len(best)}")
    return array("q", map(min, best, durations))


def end_to_end(durations: array) -> dict[str, float]:
    """Throughput and latency quantiles (nearest rank) of op durations in ns."""
    ns = sorted(durations)

    def rank(q: float) -> int:
        return ns[max(1, math.ceil(q * len(ns))) - 1]

    return {
        "ops_per_s": len(ns) / (sum(ns) / 1e9),
        "latency_p50_ms": rank(0.5) / 1e6,
        "latency_p90_ms": rank(0.9) / 1e6,
    }


def quantile(counts: dict[int, int], q: float) -> int:
    """Nearest-rank quantile of a value -> count table."""
    total = sum(counts.values())
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise ValueError("empty table")


class Recorder:
    """Everything one run learns about the ops it made."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.durations = array("q")  # ns, one per op in op order
        self.attempted = 0
        self.failed = 0
        self.failed_by_module: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # counters taken at layer boundaries
        self.maxima: dict[str, int] = {}
        # per layer, traced runs only: duration table, busy ns, span id
        self.layer_durations: dict[str, dict[int, int]] = {}
        self.layer_busy: Counter[str] = Counter()
        self.layer_ids: dict[str, int] = {}
        self.span_op = array("q")
        self.span_layer = array("H")
        self.span_start = array("q")
        self.span_end = array("q")

    def op(self, layer: str, t0: int, t1: int) -> None:
        d = t1 - t0
        self.durations.append(d)
        if self.trace:
            table = self.layer_durations.get(layer)
            if table is None:
                table = self.layer_durations[layer] = {}
                self.layer_ids[layer] = len(self.layer_ids)
            table[d] = table.get(d, 0) + 1
            self.layer_busy[layer] += d
            self.span_op.append(self.attempted)
            self.span_layer.append(self.layer_ids[layer])
            self.span_start.append(t0)
            self.span_end.append(t1)
        self.attempted += 1

    def fail(self, layer: str, what: str) -> None:
        self.failed += 1
        self.failed_by_module[layer.split(".")[0]] += 1
        if self.failed <= MAX_PRINTED_FAILURES:
            print(f"FAILED op {self.attempted - 1} {layer}: {what}", file=sys.stderr, flush=True)
        if self.failed == MAX_PRINTED_FAILURES:
            print("further failures are counted, not printed", file=sys.stderr, flush=True)

    def peak(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of a traced run, by ``<layer>.<metric>`` name."""
        out: dict[str, float] = {}
        for layer, table in self.layer_durations.items():
            out[f"{layer}.calls"] = sum(table.values())
            out[f"{layer}.busy_s"] = self.layer_busy[layer] / 1e9
            out[f"{layer}.p50_ms"] = quantile(table, 0.5) / 1e6
        out.update(self.counts)
        out.update(self.maxima)
        for module, n in self.failed_by_module.items():
            out[f"{module}.failed"] = n
        return out

    def write_spans(self, path: Path, run_id: str) -> None:
        """One CSV row per span: run id, parent op, layer, start and end (ns)."""
        names = {i: name for name, i in self.layer_ids.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("run_id,op,layer,start_ns,end_ns\n")
            for op, layer, start, end in zip(self.span_op, self.span_layer,
                                             self.span_start, self.span_end):
                f.write(f"{run_id},{op},{names[layer]},{start},{end}\n")
