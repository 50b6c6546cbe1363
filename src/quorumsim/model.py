"""Domain types for the simulated replica cluster and scenario validation.

Virtual time is an integer count of microseconds since simulation start
(``Timestamp``); a ``Span`` is a non-negative difference of timestamps.
All types here are immutable after construction and safe to share;
:func:`validate_scenario` is a pure function that reports invariant
violations as data rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .distributions import Distribution

Timestamp = int
Span = int

DEFAULT_OP_TIMEOUT = 10_000_000  # 10 s of virtual time

REPLICATION = "replication"
READING = "reading"

SYNC = "sync"
ASYNC = "async"

CRASH_STOP = "crash_stop"
CRASH_RECOVERY = "crash_recovery"


@dataclass(frozen=True)
class EdgeClass:
    """Synchronicity of a cooperation edge: sync, async, or member of a quorum group."""

    kind: str  # SYNC | ASYNC | "quorum"
    group: int | None = None


SYNC_EDGE = EdgeClass(SYNC)
ASYNC_EDGE = EdgeClass(ASYNC)


def quorum_edge(group: int) -> EdgeClass:
    return EdgeClass("quorum", group)


@dataclass(frozen=True)
class Replica:
    """A simulated server; proc_* model the time to apply a write / serve a read."""

    id: int
    name: str
    datacenter: str
    proc_write: Distribution
    proc_read: Distribution


@dataclass(frozen=True)
class LatencyModel:
    """One-way transmit time for a directed edge: a draw from base + per_byte_us * payload bytes.

    The reverse direction carries its own independent model; acknowledgments
    travel over the reverse edge's model with payload 0, falling back to this
    model if the reverse edge is absent from the topology.
    """

    base: Distribution
    per_byte_us: float = 0.0


@dataclass(frozen=True)
class ReplicaGraph:
    """Physical topology: vertex set of replicas, directed edges with latency models."""

    replicas: tuple[Replica, ...]
    edges: dict[tuple[int, int], LatencyModel]

    def __init__(self, replicas, edges):
        object.__setattr__(self, "replicas", tuple(replicas))
        object.__setattr__(self, "edges", dict(edges))

    def replica_ids(self) -> set[int]:
        return {r.id for r in self.replicas}


@dataclass(frozen=True)
class CooperationGraph:
    """Rooted tree describing a write's propagation path or a read's gathering path.

    The root is the coordinator receiving the client request. Each edge is
    (parent id, child id, EdgeClass); quorum_thresholds maps group id -> q.
    weight is the probability of this graph being chosen for a request of its
    kind (pWrite for replication graphs, pRead for reading graphs).
    """

    id: int
    kind: str  # REPLICATION | READING
    root: int
    edges: tuple[tuple[int, int, EdgeClass], ...]
    quorum_thresholds: dict[int, int] = field(default_factory=dict)
    weight: float = 1.0

    def __init__(self, id, kind, root, edges, quorum_thresholds=None, weight=1.0):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "quorum_thresholds", dict(quorum_thresholds or {}))
        object.__setattr__(self, "weight", weight)

    def vertices(self) -> set[int]:
        vs = {self.root}
        for parent, child, _ in self.edges:
            vs.add(parent)
            vs.add(child)
        return vs


@dataclass(frozen=True)
class CooperationModel:
    replication_graphs: tuple[CooperationGraph, ...]
    reading_graphs: tuple[CooperationGraph, ...]

    def __init__(self, replication_graphs, reading_graphs):
        object.__setattr__(self, "replication_graphs", tuple(replication_graphs))
        object.__setattr__(self, "reading_graphs", tuple(reading_graphs))


@dataclass(frozen=True)
class FailureEvent:
    """Timed whole-replica failure: permanent (crash_stop) or with a downtime window."""

    replica: int
    at: Timestamp
    kind: str  # CRASH_STOP | CRASH_RECOVERY
    down_for: Span = 0


WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


@dataclass
class ValidationReport:
    """Violations make the scenario invalid; notes are informational only."""

    violations: list[Violation] = field(default_factory=list)
    notes: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def _check_distribution(out: list[Violation], d: Distribution, where: str) -> None:
    for problem in d.problems():
        out.append(Violation("DISTRIBUTION_INVALID", f"{where}: {problem}"))


def _check_graph(out, notes, graph: CooperationGraph, topology: ReplicaGraph) -> None:
    g = f"{graph.kind} graph {graph.id}"
    ids = topology.replica_ids()

    if graph.root not in ids:
        out.append(Violation("GRAPH_VERTEX_UNKNOWN", f"{g}: root {graph.root} is not a replica"))
    parent_of: dict[int, int] = {}
    adjacency: dict[int, list[int]] = {}
    for parent, child, _cls in graph.edges:
        for v in (parent, child):
            if v not in ids:
                out.append(Violation("GRAPH_VERTEX_UNKNOWN", f"{g}: vertex {v} is not a replica"))
        if (parent, child) not in topology.edges:
            out.append(
                Violation(
                    "GRAPH_EDGE_NOT_IN_TOPOLOGY",
                    f"{g}: edge {parent}->{child} has no topology edge",
                )
            )
        if child in parent_of or child == graph.root:
            out.append(
                Violation("GRAPH_NOT_TREE", f"{g}: vertex {child} has more than one parent or is the root")
            )
        parent_of[child] = parent
        adjacency.setdefault(parent, []).append(child)

    # Reachability from the root: a rooted tree reaches every edge vertex exactly once.
    seen = {graph.root}
    frontier = [graph.root]
    while frontier:
        v = frontier.pop()
        for c in adjacency.get(v, ()):
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    unreachable = set(parent_of) - seen
    if unreachable:
        out.append(
            Violation("GRAPH_NOT_TREE", f"{g}: vertices {sorted(unreachable)} are not reachable from root {graph.root}")
        )

    # Quorum groups: declared thresholds, per-parent membership, 1 <= q <= |members|.
    members: dict[int, list[tuple[int, int]]] = {}
    for parent, child, cls in graph.edges:
        if cls.kind == "quorum":
            members.setdefault(cls.group, []).append((parent, child))
    for group, edges in members.items():
        if group not in graph.quorum_thresholds:
            out.append(Violation("QUORUM_GROUP_UNDECLARED", f"{g}: group {group} has no threshold"))
            continue
        q = graph.quorum_thresholds[group]
        if len({p for p, _ in edges}) > 1:
            out.append(Violation("QUORUM_GROUP_MIXED_PARENTS", f"{g}: group {group} spans several parents"))
        if q < 1:
            out.append(Violation("QUORUM_THRESHOLD_NOT_POSITIVE", f"{g}: group {group} threshold {q} < 1"))
        elif q > len(edges):
            out.append(
                Violation(
                    "QUORUM_THRESHOLD_EXCEEDS_GROUP",
                    f"{g}: group {group} threshold {q} > {len(edges)} member edges",
                )
            )
    for group in graph.quorum_thresholds:
        if group not in members:
            notes.append(Violation("QUORUM_GROUP_UNUSED", f"{g}: threshold declared for unused group {group}"))
    by_child: dict[int, set[int]] = {}
    for group, edges in members.items():
        for _, child in edges:
            by_child.setdefault(child, set()).add(group)
    for child, groups in by_child.items():
        if len(groups) > 1:
            notes.append(
                Violation(
                    "REPLICA_IN_MULTIPLE_QUORUM_GROUPS",
                    f"{g}: replica {child} is a member of quorum groups {sorted(groups)}",
                )
            )

    if not 0.0 <= graph.weight <= 1.0:
        out.append(Violation("WEIGHT_OUT_OF_RANGE", f"{g}: weight {graph.weight} outside [0, 1]"))


def _delay_overflows(per_byte_us: float, payload: float) -> bool:
    """Would per_byte_us * payload bytes not be a finite number of microseconds?"""
    try:
        # an infinite payload is the payload distribution's own violation
        return per_byte_us > 0 and isfinite(payload) and not isfinite(per_byte_us * payload)
    except OverflowError:  # an integer payload too large for a float
        return True


def validate_scenario(
    topology: ReplicaGraph,
    coop: CooperationModel,
    failures: list[FailureEvent] = (),
    workload=None,
    op_timeout=None,
) -> ValidationReport:
    """Check every scenario invariant; the report is empty iff the scenario is runnable.

    Pure: identical inputs produce identical reports. The optional workload
    and op timeout are checked when provided (the engine requires both;
    validation alone does not). With a workload, an edge's per-byte delay
    at the largest payload must be a finite number.
    """
    out: list[Violation] = []
    notes: list[Violation] = []

    ids = [r.id for r in topology.replicas]
    if sorted(ids) != list(range(len(ids))):
        out.append(Violation("REPLICA_IDS_NOT_DENSE", f"replica ids {sorted(ids)} are not 0..{len(ids) - 1}"))
    for r in topology.replicas:
        if not r.datacenter:
            out.append(Violation("DATACENTER_EMPTY", f"replica {r.id} has an empty datacenter label"))
        _check_distribution(out, r.proc_write, f"replica {r.id} proc_write")
        _check_distribution(out, r.proc_read, f"replica {r.id} proc_read")

    id_set = set(ids)
    for (src, dst), lat in topology.edges.items():
        if src == dst:
            out.append(Violation("SELF_LOOP", f"edge {src}->{dst} is a self-loop"))
        for v in (src, dst):
            if v not in id_set:
                out.append(Violation("EDGE_ENDPOINT_UNKNOWN", f"edge {src}->{dst}: {v} is not a replica"))
        _check_distribution(out, lat.base, f"edge {src}->{dst} latency base")
        if lat.per_byte_us < 0:
            out.append(Violation("EDGE_PER_BYTE_NEGATIVE", f"edge {src}->{dst}: per_byte_us {lat.per_byte_us} < 0"))

    for kind, graphs in ((REPLICATION, coop.replication_graphs), (READING, coop.reading_graphs)):
        if not graphs:
            code = "NO_REPLICATION_GRAPHS" if kind == REPLICATION else "NO_READING_GRAPHS"
            out.append(Violation(code, f"cooperation model has no {kind} graphs"))
            continue
        for graph in graphs:
            if graph.kind != kind:
                out.append(Violation("GRAPH_KIND_MISMATCH", f"graph {graph.id} has kind {graph.kind}, listed under {kind}"))
            _check_graph(out, notes, graph, topology)
        total = sum(g.weight for g in graphs)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            name = "pWrite" if kind == REPLICATION else "pRead"
            out.append(Violation("WEIGHTS_NOT_NORMALIZED", f"{name} weights sum to {total:g}, expected 1"))
    all_ids = [g.id for g in coop.replication_graphs] + [g.id for g in coop.reading_graphs]
    dupes = {i for i in all_ids if all_ids.count(i) > 1}
    if dupes:
        out.append(Violation("GRAPH_ID_DUPLICATE", f"cooperation graph ids {sorted(dupes)} are reused"))

    shapes = [(g.root, frozenset((p, c) for p, c, _ in g.edges)) for g in coop.replication_graphs]
    if len(set(shapes)) < len(shapes):
        notes.append(Violation("GRAPHS_SHARE_STRUCTURE", "two replication graphs share root and edge set"))

    by_replica: dict[int, list[FailureEvent]] = {}
    for ev in failures:
        if ev.replica not in id_set:
            out.append(Violation("FAILURE_REPLICA_UNKNOWN", f"failure names unknown replica {ev.replica}"))
            continue
        if ev.at < 0:
            out.append(Violation("FAILURE_TIME_NEGATIVE", f"failure on replica {ev.replica} at {ev.at} < 0"))
        if ev.kind == CRASH_RECOVERY and ev.down_for <= 0:
            out.append(
                Violation("FAILURE_DOWNTIME_NOT_POSITIVE", f"crash_recovery on replica {ev.replica} has down_for {ev.down_for}")
            )
        by_replica.setdefault(ev.replica, []).append(ev)
    for rid, events in by_replica.items():
        events.sort(key=lambda e: e.at)
        up_at = -1
        stopped = False
        for ev in events:
            if stopped:
                out.append(Violation("FAILURE_AFTER_CRASH_STOP", f"replica {rid} has an event after its crash_stop"))
                break
            if ev.at < up_at:
                out.append(Violation("FAILURE_INTERVALS_OVERLAP", f"replica {rid} failure at {ev.at} overlaps an earlier downtime"))
            if ev.kind == CRASH_STOP:
                stopped = True
            else:
                up_at = ev.at + ev.down_for

    if workload is not None:
        for problem in workload.problems():
            out.append(Violation("WORKLOAD_INVALID", problem))
        payload = max(workload.write_payload_bytes.largest(), workload.read_request_bytes)
        for (src, dst), lat in topology.edges.items():
            if _delay_overflows(lat.per_byte_us, payload):
                out.append(
                    Violation(
                        "EDGE_DELAY_OVERFLOWS",
                        f"edge {src}->{dst}: per_byte_us {lat.per_byte_us} times the largest payload of {payload} bytes is not a finite delay",
                    )
                )

    if op_timeout is not None and op_timeout <= 0:
        out.append(Violation("OP_TIMEOUT_NOT_POSITIVE", f"op_timeout_us {op_timeout} <= 0"))

    return ValidationReport(out, notes)
