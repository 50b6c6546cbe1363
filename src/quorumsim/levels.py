"""Cassandra-style consistency levels and cooperation-graph generation.

``required_acks`` converts a level into the number of replicas (coordinator
included) that must acknowledge an operation; ``is_immediately_consistent``
is the W + R > RF test; ``build_cooperation_model`` turns (placement,
coordinator, write level, read level) into a one-level star cooperation
model whose quorum thresholds realize those ack counts.
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
    QuorumSpec,
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
    if level == ONE:
        return 1
    if level == TWO:
        if rf < 2:
            raise LevelError("LEVEL_UNSATISFIABLE", f"TWO requires rf >= 2, got {rf}")
        return 2
    if level == THREE:
        if rf < 3:
            raise LevelError("LEVEL_UNSATISFIABLE", f"THREE requires rf >= 3, got {rf}")
        return 3
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


def is_immediately_consistent(q: QuorumSpec) -> bool:
    """True iff every read set intersects every write set: W + R > RF."""
    return q.write_acks + q.read_acks > q.replication_factor


def _star_edges(others: list[int], local: set[int], acks: int, level: str):
    """Edges for one star graph. The coordinator's own apply is the first ack,
    so the group threshold is acks - 1, counted over the edges eligible for
    the level (all of them, or only same-datacenter ones for LOCAL levels)."""
    eligible = [v for v in others if v in local] if level in LOCAL_LEVELS else list(others)
    rest = [v for v in others if v not in eligible]
    q = acks - 1
    if q == 0:
        classes = {v: ASYNC_EDGE for v in others}
        thresholds = {}
    elif q == len(eligible):
        classes = {v: SYNC_EDGE for v in eligible}
        classes.update({v: ASYNC_EDGE for v in rest})
        thresholds = {}
    else:
        classes = {v: quorum_edge(0) for v in eligible}
        classes.update({v: ASYNC_EDGE for v in rest})
        thresholds = {0: q}
    return classes, thresholds


def build_cooperation_model(
    topology: ReplicaGraph,
    placement: list[int],
    coordinator: int,
    write_cl: str,
    read_cl: str,
) -> CooperationModel:
    """One replication star and one reading star over the placement, weights 1.

    The replication graph always fans out to every other placement member
    (writes propagate regardless of the level); the reading graph contacts
    other replicas only when the read level needs more than the coordinator.
    """
    if coordinator not in placement:
        raise LevelError("LEVEL_UNSATISFIABLE", f"coordinator {coordinator} is not in the placement")
    if len(set(placement)) != len(placement):
        raise LevelError("LEVEL_UNSATISFIABLE", "placement lists a replica twice")
    rf = len(placement)
    by_id = {r.id: r for r in topology.replicas}
    try:
        coordinator_dc = by_id[coordinator].datacenter
        dc_counts: dict[str, int] = {}
        for rid in placement:
            dc_counts[by_id[rid].datacenter] = dc_counts.get(by_id[rid].datacenter, 0) + 1
    except KeyError as e:
        raise LevelError("LEVEL_UNSATISFIABLE", f"placement names unknown replica {e.args[0]}") from None

    others = [rid for rid in placement if rid != coordinator]
    for rid in others:
        if (coordinator, rid) not in topology.edges:
            raise LevelError("MISSING_EDGE", f"topology lacks edge {coordinator}->{rid}")
    local = {rid for rid in placement if by_id[rid].datacenter == coordinator_dc}

    w_acks = required_acks(write_cl, rf, dc_counts, coordinator_dc)
    r_acks = required_acks(read_cl, rf, dc_counts, coordinator_dc)

    w_classes, w_thresholds = _star_edges(others, local, w_acks, write_cl)
    replication = CooperationGraph(
        0, REPLICATION, coordinator,
        [(coordinator, v, w_classes[v]) for v in others],
        w_thresholds, 1.0,
    )

    if r_acks == 1:
        reading = CooperationGraph(1, READING, coordinator, [], {}, 1.0)
    else:
        r_others = [v for v in others if v in local] if read_cl in LOCAL_LEVELS else others
        r_classes, r_thresholds = _star_edges(r_others, local, r_acks, read_cl)
        reading = CooperationGraph(
            1, READING, coordinator,
            [(coordinator, v, r_classes[v]) for v in r_others],
            r_thresholds, 1.0,
        )
    return CooperationModel([replication], [reading])
