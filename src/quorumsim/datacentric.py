"""Per-write inconsistency windows, error rates, and latency distributions.

All functions are pure over an immutable log: re-running the analysis on a
stored log reproduces the report exactly. Results are reported per
cooperation graph and as a global aggregate equal to the merge of the
per-graph sections; ops flagged as warmup are excluded throughout.

A write's inconsistency window is the span between the first and the last
ApplyEnd of that write across replicas (the state-mutation instants). Writes
that never reached every vertex of their chosen replication graph (crash-stop
in the path, or no ApplyEnd at all) have no defined window and are counted
separately as non-converged rather than folded into the histogram.

The functions read the log through its op table (``optable``) and accept a
built table in place of the log.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .engine import gc_paused
from .optable import COMMITTED, op_table
from .workload import READ, WRITE

# Fixed log-scale bucket edges: 1 us .. 100 s, 5 buckets per decade. Values
# of exactly zero get their own bucket so reports stay comparable across runs.
HISTOGRAM_EDGES_US = tuple(round(10 ** (k / 5)) for k in range(41))


def _window(write, graphs) -> int | None:
    """max - min ApplyEnd time over replicas, or None when undefined.

    Undefined when the write produced no ApplyEnd at all or some vertex of
    its replication graph (when the log's metadata names it) never applied it.
    """
    applies = write.applies
    if not applies:
        return None
    vertices = graphs.get(write.graph_id, {}).get("vertices")
    if vertices is not None and any(v not in applies for v in vertices):
        return None
    times = [t for t, _ in applies.values()]
    return max(times) - min(times)


@dataclass
class _Section:
    ops: int = 0
    reads: int = 0
    writes: int = 0
    commits: int = 0
    fails: int = 0
    read_fails: int = 0
    write_fails: int = 0
    latencies: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    non_converged: int = 0

    def to_json(self) -> dict:
        return {
            "counts": {
                "ops": self.ops,
                "reads": self.reads,
                "writes": self.writes,
                "commits": self.commits,
                "fails": self.fails,
            },
            "error_rate": {
                "all": self.fails / self.ops if self.ops else 0.0,
                "read": self.read_fails / self.reads if self.reads else 0.0,
                "write": self.write_fails / self.writes if self.writes else 0.0,
            },
            "latency_us": _histogram_summary(self.latencies),
            "inconsistency_window_us": _histogram_summary(self.windows),
            "non_converged_writes": self.non_converged,
        }


def _percentile(sorted_values, q):
    """Nearest-rank percentile over a non-empty sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _histogram_summary(values) -> dict:
    values = sorted(values)
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
    if not values:
        return {
            "count": 0,
            "mean": None,
            "median": None,
            "p95": None,
            "p99": None,
            "max": None,
            "histogram": {"zero": 0, "edges_us": list(HISTOGRAM_EDGES_US), "counts": counts, "overflow": 0},
        }
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "median": _percentile(values, 0.50),
        "p95": _percentile(values, 0.95),
        "p99": _percentile(values, 0.99),
        "max": values[-1],
        "histogram": {"zero": zero, "edges_us": list(HISTOGRAM_EDGES_US), "counts": counts, "overflow": overflow},
    }


@gc_paused()
def op_records(log) -> list[dict]:
    """One record per op, in op-id order: identity, chosen graph, outcome, latency, window."""
    table = op_table(log)
    return [
        {
            "op_id": op.op_id,
            "client_id": op.client,
            "kind": op.kind,
            "key": op.key,
            "graph_id": op.graph_id,
            "start_us": op.start,
            "status": op.status,
            "latency_us": op.latency_us,
            "window_us": _window(op, table.graphs) if op.kind == WRITE else None,
            "warmup": op.warmup,
        }
        for op in table.ops
    ]


@gc_paused()
def build_datacentric_report(log) -> dict:
    """Stage-2 report: window/latency distributions and error rates, per graph and global."""
    table = op_table(log)
    global_section = _Section()
    per_graph: dict[int, _Section] = {}

    for op in table.ops:
        if op.warmup:
            continue
        gid = op.graph_id
        sections = [global_section]
        if gid is not None:
            sections.append(per_graph.setdefault(gid, _Section()))
        is_write = op.kind == WRITE
        committed = op.status == COMMITTED
        window = _window(op, table.graphs) if is_write else None
        for s in sections:
            s.ops += 1
            if is_write:
                s.writes += 1
            elif op.kind == READ:
                s.reads += 1
            if committed:
                s.commits += 1
                s.latencies.append(op.latency_us)
            else:
                s.fails += 1
                if is_write:
                    s.write_fails += 1
                else:
                    s.read_fails += 1
            if is_write:
                if window is None:
                    s.non_converged += 1
                else:
                    s.windows.append(window)

    return {
        "kind": "datacentric_report",
        "format": 1,
        "global": global_section.to_json(),
        "graphs": {
            str(gid): {**per_graph[gid].to_json(), **_graph_label(table.graphs, gid)}
            for gid in sorted(per_graph)
        },
    }


def _graph_label(graphs_meta, gid):
    info = graphs_meta.get(gid) or graphs_meta.get(str(gid)) or {}
    return {"graph_kind": info.get("kind")} if info else {}
