"""Per-write inconsistency windows, error rates, and latency distributions.

All functions are pure over an immutable log: re-running the analysis on a
stored log reproduces the report exactly. Ops flagged as warmup are
excluded from the report.

A write's inconsistency window is the span between the first and the last
ApplyEnd of that write across replicas (the state-mutation instants), the
op table's ``window_us``. Writes that never reached every vertex of their
chosen replication graph (crash-stop in the path, or no ApplyEnd at all)
have no defined window and are counted separately as non-converged rather
than folded into the histogram.

``datacentric_outputs`` is stage 2's one path: it aggregates the report
from the op table's non-warmup records (``op_records``, the rows of
``ops.csv``), a global section from all of them and one section per
cooperation graph, so ``datacentric.json`` is a function of ``ops.csv``.
``build_datacentric_report`` is its report half. The functions read the log
through its op table (``optable``) and accept a built table in place of the
log.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .events import READ, WRITE, gc_paused
from .optable import COMMITTED, OpRecord, op_table

# Fixed log-scale bucket edges: 1 us .. 100 s, 5 buckets per decade. Values
# of exactly zero get their own bucket so reports stay comparable across runs.
HISTOGRAM_EDGES_US = tuple(round(10 ** (k / 5)) for k in range(41))


def _percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list, None when it is empty."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _histogram_summary(values: list) -> dict:
    """Summary and log-scale histogram of values, which it sorts in place."""
    values.sort()
    zero = 0
    counts = [0] * len(HISTOGRAM_EDGES_US)
    overflow = 0
    top = HISTOGRAM_EDGES_US[-1]
    for v in values:
        if v == 0:
            zero += 1
        elif v > top:
            overflow += 1
        else:
            counts[bisect_left(HISTOGRAM_EDGES_US, v)] += 1
    return {
        "count": len(values),
        "mean": sum(values) / len(values) if values else None,
        "median": _percentile(values, 0.50),
        "p95": _percentile(values, 0.95),
        "p99": _percentile(values, 0.99),
        "max": _percentile(values, 1.0),
        "histogram": {"zero": zero, "edges_us": list(HISTOGRAM_EDGES_US), "counts": counts, "overflow": overflow},
    }


def _rate(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _section(ops) -> dict:
    """The report section aggregated from some non-warmup records."""
    latencies = [op.latency_us for op in ops if op.status == COMMITTED]
    windows = [op.window_us for op in ops if op.window_us is not None]
    reads = sum(op.kind == READ for op in ops)
    writes = sum(op.kind == WRITE for op in ops)
    write_fails = sum(op.kind == WRITE and op.status != COMMITTED for op in ops)
    fails = len(ops) - len(latencies)
    return {
        "counts": {"ops": len(ops), "reads": reads, "writes": writes, "commits": len(latencies), "fails": fails},
        "error_rate": {
            "all": _rate(fails, len(ops)),
            "read": _rate(fails - write_fails, reads),
            "write": _rate(write_fails, writes),
        },
        "latency_us": _histogram_summary(latencies),
        "inconsistency_window_us": _histogram_summary(windows),
        "non_converged_writes": writes - len(windows),
    }


def op_records(log) -> list[OpRecord]:
    """The op table's records, in op-id order: the rows of ``ops.csv``."""
    return op_table(log).ops


@gc_paused()
def datacentric_outputs(log) -> tuple[dict, list[OpRecord]]:
    """The stage-2 report and the op records it aggregates, from one op table."""
    table = op_table(log)
    live = [op for op in table.ops if not op.warmup]
    per_graph: dict[int, list[OpRecord]] = {}
    for op in live:
        if op.graph_id is not None:
            per_graph.setdefault(op.graph_id, []).append(op)
    report = {
        "kind": "datacentric_report",
        "format": 1,
        "global": _section(live),
        "graphs": {
            str(gid): {**_section(per_graph[gid]), **_graph_label(table.graphs, gid)}
            for gid in sorted(per_graph)
        },
    }
    return report, table.ops


def build_datacentric_report(log) -> dict:
    """The report half of ``datacentric_outputs``: window/latency
    distributions and error rates, per graph and global."""
    return datacentric_outputs(log)[0]


def _graph_label(graphs_meta, gid):
    info = graphs_meta.get(gid)
    return {"graph_kind": info.get("kind")} if info else {}
