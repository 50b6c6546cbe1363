"""Seeded random scenario and synthetic-log generators for property tests."""

from __future__ import annotations

import random

from quorumsim import (
    ASYNC_EDGE,
    CRASH_RECOVERY,
    CRASH_STOP,
    Constant,
    CooperationGraph,
    CooperationModel,
    Exponential,
    FailureEvent,
    LatencyModel,
    READING,
    REPLICATION,
    Replica,
    ReplicaGraph,
    SYNC_EDGE,
    Uniform,
    UniformKeys,
    VersionRef,
    WorkloadSpec,
    quorum_edge,
    validate_scenario,
)
from quorumsim.engine import (
    APPLY_END,
    APPLY_START,
    GRAPH_CHOSEN,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    READ_RETURN,
)


def _rand_duration(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return Constant(rng.randrange(0, 3000))
    if roll < 0.8:
        lo = rng.randrange(0, 1500)
        return Uniform(lo, lo + rng.randrange(0, 2000))
    return Exponential(rng.randrange(200, 2500))


def _spanning_tree_edges(rng: random.Random, vertices, root):
    """Random rooted tree over the given vertices (edges parent -> child)."""
    order = [v for v in vertices if v != root]
    rng.shuffle(order)
    placed = [root]
    edges = []
    for v in order:
        parent = rng.choice(placed)
        edges.append((parent, v))
        placed.append(v)
    return edges


def _classify_edges(rng: random.Random, edges):
    """Assign sync/async/quorum classes; quorum groups stay per parent."""
    by_parent: dict[int, list[int]] = {}
    for p, c in edges:
        by_parent.setdefault(p, []).append(c)
    classified = []
    thresholds = {}
    next_group = 0
    for p, children in by_parent.items():
        if len(children) >= 2 and rng.random() < 0.4:
            group = next_group
            next_group += 1
            thresholds[group] = rng.randint(1, len(children))
            for c in children:
                classified.append((p, c, quorum_edge(group)))
        else:
            for c in children:
                classified.append((p, c, SYNC_EDGE if rng.random() < 0.5 else ASYNC_EDGE))
    return classified, thresholds


def random_scenario(
    rng: random.Random,
    *,
    allow_crash_stop=False,
    max_replicas=6,
    max_total_ops=150,
    spanning_replication=True,
):
    """A validate-clean random scenario.

    With spanning_replication every replication graph spans all replicas, so
    every write eventually reaches every replica (the precondition of the
    convergence property).
    """
    n = rng.randint(2, max_replicas)
    replicas = [Replica(i, f"r{i}", "dc1", _rand_duration(rng), _rand_duration(rng)) for i in range(n)]
    edges = {
        (i, j): LatencyModel(_rand_duration(rng), rng.choice([0.0, 0.0, 0.5]))
        for i in range(n)
        for j in range(n)
        if i != j
    }
    topo = ReplicaGraph(replicas, edges)

    rep_graphs = []
    n_rep = rng.randint(1, 3)
    for gid in range(n_rep):
        root = rng.randrange(n)
        span = list(range(n)) if spanning_replication else sorted(
            {root, *rng.sample(range(n), rng.randint(1, n))}
        )
        tree = _spanning_tree_edges(rng, span, root)
        classified, thresholds = _classify_edges(rng, tree)
        rep_graphs.append(CooperationGraph(gid, REPLICATION, root, classified, thresholds, 1.0 / n_rep))

    read_graphs = []
    n_read = rng.randint(1, 2)
    for k in range(n_read):
        root = rng.randrange(n)
        span = sorted({root, *rng.sample(range(n), rng.randint(0, n - 1))})
        tree = _spanning_tree_edges(rng, span, root)
        classified, thresholds = _classify_edges(rng, tree)
        read_graphs.append(CooperationGraph(100 + k, READING, root, classified, thresholds, 1.0 / n_read))

    coop = CooperationModel(rep_graphs, read_graphs)

    n_clients = rng.randint(1, 4)
    ops_per_client = max(1, rng.randint(5, max_total_ops) // n_clients)
    workload = WorkloadSpec(
        n_clients,
        ops_per_client,
        rng.random(),
        Uniform(0, rng.randrange(1, 3000)),
        UniformKeys(rng.randint(1, 5)),
        Constant(rng.randrange(16, 512)),
        warmup_ops=0,
    )

    failures = []
    horizon = 200_000
    for rid in rng.sample(range(n), rng.randint(0, min(2, n))):
        at = rng.randrange(0, horizon)
        if allow_crash_stop and rng.random() < 0.4:
            failures.append(FailureEvent(rid, at, CRASH_STOP))
        else:
            failures.append(FailureEvent(rid, at, CRASH_RECOVERY, rng.randrange(1_000, 40_000)))

    report = validate_scenario(topo, coop, failures, workload)
    assert report.ok, [str(v) for v in report.violations]
    return topo, coop, failures, workload


# -- synthetic logs -------------------------------------------------------------

def random_log(rng: random.Random, strategy: str, max_events=50, warmup_share=0.0, late_apply_share=0.0, instant_share=0.0):
    """A well-formed synthetic event log exercising the detectors.

    Ops respect closed-loop sessions (per client, issue follows the previous
    terminal); apply, return, and commit patterns are otherwise adversarial:
    partial applies, failed ops, results naming uncommitted writes. Each op
    is a warmup op with probability warmup_share; each apply of a write lands
    after the write's terminal (async propagation, which lets a later write
    of the session overtake it) with probability late_apply_share; and with
    probability instant_share an op starts the moment its client is free
    and, if a read, returns at once. A share of 0 draws nothing, so the
    defaults keep the logs of earlier seeds.
    """
    n_clients = rng.randint(1, 3)
    n_keys = rng.randint(1, 3)
    n_replicas = rng.randint(1, 3)
    events = []
    clock = 0

    def emit(t, op_id, kind, payload):
        events.append((len(events), t, op_id, kind, payload))

    client_free_at = [0] * n_clients
    issued_writes: list[VersionRef] = []
    op_id = 0
    vclock_counters = [dict() for _ in range(n_clients)]

    while len(events) < max_events - 8:
        client = rng.randrange(n_clients)
        key = rng.randrange(n_keys)
        instant = instant_share > 0 and rng.random() < instant_share
        clock = max(clock, client_free_at[client]) + (0 if instant else rng.randint(1, 50))
        start = clock
        is_write = rng.random() < 0.5
        warmup = warmup_share > 0 and rng.random() < warmup_share
        if is_write:
            wid = len(issued_writes)
            vclock = None
            if strategy == "competing_writes":
                ctr = vclock_counters[client]
                ctr[key] = ctr.get(key, 0) + 1
                base = {client: ctr[key]}
                # sometimes merge in another write's clock to create dominance
                if issued_writes and rng.random() < 0.5:
                    other = rng.choice(issued_writes)
                    for cid, cnt in other.vclock or ():
                        base[cid] = max(base.get(cid, 0), cnt)
                vclock = tuple(sorted(base.items()))
            ref = VersionRef(wid, client, start, vclock)
            issued_writes.append(ref)
            emit(start, op_id, OP_START, (client, "write", key, wid, 64, warmup, vclock))
            emit(start, op_id, GRAPH_CHOSEN, (0,))
            end = start
            for replica in rng.sample(range(n_replicas), rng.randint(0, n_replicas)):
                at = start + rng.randint(1, 40)
                if late_apply_share > 0 and rng.random() < late_apply_share:
                    at += 60 + rng.randint(0, 200)  # after any terminal below
                else:
                    end = max(end, at)
                emit(at, op_id, APPLY_START, (replica,))
                emit(at, op_id, APPLY_END, (replica, wid))
            terminal = end + rng.randint(0, 20)
            if rng.random() < 0.85:
                emit(terminal, op_id, OP_COMMIT, (terminal - start,))
            else:
                emit(terminal, op_id, OP_FAIL, ("TIMEOUT",))
        else:
            emit(start, op_id, OP_START, (client, "read", key, None, 64, warmup, None))
            emit(start, op_id, GRAPH_CHOSEN, (100,))
            replica = rng.randrange(n_replicas)
            serve = start if instant else start + rng.randint(0, 30)
            if rng.random() < 0.9:
                pool = [w for w in issued_writes if rng.random() < 0.5]
                if strategy in ("lww_timestamp", "lww_arrival"):
                    pool = pool[-1:]
                returned = tuple(pool)
                emit(serve, op_id, APPLY_START, (replica,))
                emit(serve, op_id, APPLY_END, (replica, tuple(r.write_id for r in returned)))
                emit(serve, op_id, READ_RETURN, ((replica,), returned))
                emit(serve, op_id, OP_COMMIT, (serve - start,))
            else:
                emit(serve, op_id, OP_FAIL, ("TIMEOUT",))
        clock = max(clock, events[-1][1])
        client_free_at[client] = events[-1][1]
        op_id += 1
        # events within one op may exceed the budget slightly; stop cleanly
        if op_id > 30:
            break
    # Re-sequence so the stream is totally ordered by (time, seq).
    events.sort(key=lambda e: (e[1], e[0]))
    return [(i, t, op, kind, payload) for i, (_, t, op, kind, payload) in enumerate(events)]
