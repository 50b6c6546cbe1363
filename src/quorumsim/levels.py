"""Cassandra-style consistency levels and cooperation-graph generation.

``required_acks`` converts a level into the number of replicas (coordinator
included) that must acknowledge an operation; ``is_immediately_consistent``
is the W + R > RF test; ``build_cooperation_model`` turns (placement,
coordinator, write level, read level) into a one-level star cooperation
model whose quorum thresholds realize those ack counts. Both stars follow
one rule, and a reading star keeps only the edges a read waits on.
"""

from __future__ import annotations

from .errors import LevelError
from .model import (
    ASYNC_EDGE,
    READING,
    REPLICATION,
    SYNC_EDGE,
    CooperationGraph,
    CooperationModel,
    ReplicaGraph,
    quorum_edge,
)

ONE = "ONE"
TWO = "TWO"
THREE = "THREE"
QUORUM = "QUORUM"
ALL = "ALL"
LOCAL_ONE = "LOCAL_ONE"
LOCAL_QUORUM = "LOCAL_QUORUM"

SUPPORTED_LEVELS = (ONE, TWO, THREE, QUORUM, ALL, LOCAL_ONE, LOCAL_QUORUM)

# Described by the level tables but out of simulation scope (lightweight
# transactions, hinted handoff); rejected at parse time.
UNSUPPORTED_LEVELS = ("ANY", "SERIAL", "LOCAL_SERIAL", "EACH_QUORUM")

LOCAL_LEVELS = (LOCAL_ONE, LOCAL_QUORUM)

_FIXED_ACKS = {ONE: 1, TWO: 2, THREE: 3}


def parse_level(text: str) -> str:
    name = text.strip().upper()
    if name in SUPPORTED_LEVELS:
        return name
    if name in UNSUPPORTED_LEVELS:
        raise LevelError("UNSUPPORTED_LEVEL", f"consistency level {name} is not simulated")
    raise LevelError("UNSUPPORTED_LEVEL", f"unknown consistency level {text!r}")


def required_acks(
    level: str,
    rf: int,
    dc_counts: dict[str, int] | None = None,
    coordinator_dc: str | None = None,
) -> int:
    """Number of acknowledging replicas (the coordinator counts as one of them)."""
    if rf < 1:
        raise LevelError("LEVEL_UNSATISFIABLE", f"replication factor {rf} < 1")
    if level in _FIXED_ACKS:
        n = _FIXED_ACKS[level]
        if rf < n:
            raise LevelError("LEVEL_UNSATISFIABLE", f"{level} requires rf >= {n}, got {rf}")
        return n
    if level == QUORUM:
        return rf // 2 + 1
    if level == ALL:
        return rf
    if level in LOCAL_LEVELS:
        if not dc_counts or coordinator_dc is None:
            raise LevelError("LEVEL_UNSATISFIABLE", f"{level} requires datacenter counts and a coordinator datacenter")
        rf_local = dc_counts.get(coordinator_dc, 0)
        if rf_local < 1:
            raise LevelError("LEVEL_UNSATISFIABLE", f"{level}: no replicas in datacenter {coordinator_dc!r}")
        return 1 if level == LOCAL_ONE else rf_local // 2 + 1
    raise LevelError("UNSUPPORTED_LEVEL", f"unknown consistency level {level!r}")


def is_immediately_consistent(write_acks: int, read_acks: int, rf: int) -> bool:
    """True iff every read set intersects every write set: W + R > RF."""
    return write_acks + read_acks > rf


def _star(graph_id: int, kind: str, coordinator: int, level: str, placement: list[int], dc_of: dict) -> CooperationGraph:
    """The level's star of one kind at the coordinator, weight 1.

    The coordinator's apply is the first ack, so the edges the level counts (to
    every other replica, or to those in its datacenter under a LOCAL level) wait
    for acks - 1 acks: none (async), all (sync) or a quorum group. Other edges
    are async, and a reading star drops its async edges."""
    home = dc_of[coordinator]
    counted = [v for v in placement if level not in LOCAL_LEVELS or dc_of[v] == home]  # the coordinator included
    waits = required_acks(level, len(placement), {home: len(counted)}, home) - 1
    if waits == 0:
        cls, thresholds = ASYNC_EDGE, {}
    elif waits == len(counted) - 1:
        cls, thresholds = SYNC_EDGE, {}
    else:
        cls, thresholds = quorum_edge(0), {0: waits}
    edges = [(coordinator, v, cls if v in counted else ASYNC_EDGE) for v in placement if v != coordinator]
    if kind == READING:
        edges = [e for e in edges if e[2] != ASYNC_EDGE]
    return CooperationGraph(graph_id, kind, coordinator, edges, thresholds, 1.0)


def build_cooperation_model(
    topology: ReplicaGraph,
    placement: list[int],
    coordinator: int,
    write_cl: str,
    read_cl: str,
) -> CooperationModel:
    """One replication star (graph 0) and one reading star (graph 1) over the
    placement, both rooted at the coordinator.

    Writes propagate to every other placement member whatever the level; a
    reading star keeps only the edges a read waits on.
    """
    if coordinator not in placement:
        raise LevelError("LEVEL_UNSATISFIABLE", f"coordinator {coordinator} is not in the placement")
    if len(set(placement)) != len(placement):
        raise LevelError("LEVEL_UNSATISFIABLE", "placement lists a replica twice")
    dc_of = {r.id: r.datacenter for r in topology.replicas}
    unknown = [rid for rid in (coordinator, *placement) if rid not in dc_of]  # an unknown coordinator is named first
    if unknown:
        raise LevelError("LEVEL_UNSATISFIABLE", f"placement names unknown replica {unknown[0]}")
    for rid in placement:
        if rid != coordinator and (coordinator, rid) not in topology.edges:
            raise LevelError("MISSING_EDGE", f"topology lacks edge {coordinator}->{rid}")
    return CooperationModel(
        [_star(0, REPLICATION, coordinator, write_cl, placement, dc_of)],
        [_star(1, READING, coordinator, read_cl, placement, dc_of)],
    )
