import gc
import random

import pytest

from _builders import mesh_topology, replica, simple_workload, star_async, write_only_workload
from _checks import assert_log_invariants
from _oracles import _dom, apply_write, enumerate_star_writes, oracle_resolve, scrape
from _randgen import random_scenario

import quorumsim as qs
from quorumsim import engine
from quorumsim.logio import write_events
from quorumsim.workload import Request
from quorumsim import (
    ASYNC_EDGE,
    CRASH_RECOVERY,
    CRASH_STOP,
    Constant,
    CooperationGraph,
    CooperationModel,
    FailureEvent,
    LatencyModel,
    READING,
    REPLICATION,
    ReplicaGraph,
    SYNC_EDGE,
    ScenarioInvalidError,
    UniformKeys,
    VersionRef,
    WorkloadSpec,
    quorum_edge,
    run_simulation,
)
from quorumsim.engine import (
    ACK,
    APPLY_END,
    APPLY_START,
    DEFAULT_OP_TIMEOUT,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    READ_RETURN,
    REPLICA_DOWN,
    REPLICA_UP,
)
from quorumsim.strategies import (
    COMPETING_WRITES,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    STRATEGIES,
    WRITE_SET,
    strategy,
)


def bare_root_coop(root=0):
    return CooperationModel(
        [CooperationGraph(0, REPLICATION, root, [])],
        [CooperationGraph(1, READING, root, [])],
    )


def kinds_at(log, op_id):
    return [(e[1], e[3]) for e in log.events if e[2] == op_id]


# -- hand traces ----------------------------------------------------------------

def test_single_replica_write_trace():
    topo = ReplicaGraph([replica(0, proc_write=Constant(500))], {})
    log = run_simulation(topo, bare_root_coop(), [], write_only_workload(1, think=Constant(100)), LWW_TIMESTAMP, seed=1)
    assert kinds_at(log, 0) == [
        (100, OP_START),
        (100, "graph_chosen"),
        (100, APPLY_START),
        (600, APPLY_END),
        (600, OP_COMMIT),
    ]
    commit = next(e for e in log.events if e[3] == OP_COMMIT)
    assert commit[4] == (500,)
    assert_log_invariants(log)


def test_async_star_hand_trace():
    # A->B 10 ms, A->C 20 ms, all processing zero, one write at t=0
    topo, coop = star_async(0, {1: 10_000, 2: 20_000})
    log = run_simulation(topo, coop, [], write_only_workload(1), LWW_TIMESTAMP, seed=3)
    want = [
        (0, OP_START),
        (0, "graph_chosen"),
        (0, APPLY_START),
        (0, APPLY_END),
        (0, OP_COMMIT),
        (10_000, APPLY_START),
        (10_000, APPLY_END),
        (20_000, APPLY_START),
        (20_000, APPLY_END),
    ]
    assert [(e[1], e[3]) for e in log.events] == want
    applies = {e[4][0]: e[1] for e in log.events if e[3] == APPLY_END}
    assert applies == {0: 0, 1: 10_000, 2: 20_000}
    assert_log_invariants(log)


def test_async_star_multiple_writes_match_enumerator():
    topo, coop = star_async(0, {1: 10_000, 2: 20_000})
    n_ops = 7
    log = run_simulation(topo, coop, [], write_only_workload(n_ops, think=Constant(1_000)), LWW_TIMESTAMP, seed=5)
    issues = [1_000 * (k + 1) for k in range(n_ops)]
    expected = enumerate_star_writes(issues, 0, 0, [(1, 10_000, 0), (2, 20_000, 0)])

    def project(ev):
        kind = ev[3]
        replica = ev[4][0] if kind in (APPLY_START, APPLY_END) else None
        return (ev[1], kind, replica)

    assert [project(e) for e in log.events] == [
        (t, k, r) for (t, k, r) in expected
    ]


def test_empty_workload_with_crash_stop_logs_only_the_failure():
    topo = mesh_topology(3)
    coop = bare_root_coop()
    wl = WorkloadSpec(1, 0, 0.0, Constant(0), UniformKeys(1), Constant(10))
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    assert log.events == []
    log = run_simulation(topo, coop, [FailureEvent(1, 5_000, CRASH_STOP)], wl, LWW_TIMESTAMP, seed=1)
    assert [(e[1], e[3], e[4]) for e in log.events] == [(5_000, REPLICA_DOWN, (1,))]


def test_sync_star_commit_is_round_trip():
    reps = [replica(i, proc_write=Constant(0)) for i in range(2)]
    topo = ReplicaGraph(reps, {(0, 1): LatencyModel(Constant(3_000)), (1, 0): LatencyModel(Constant(4_000))})
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, SYNC_EDGE)])],
        [CooperationGraph(1, READING, 0, [])],
    )
    log = run_simulation(topo, coop, [], write_only_workload(1, think=Constant(1_000)), LWW_TIMESTAMP, seed=1)
    commit = next(e for e in log.events if e[3] == OP_COMMIT)
    # issue 1000 -> apply A at 1000 -> B applies 4000 -> ack arrives 8000
    assert commit[1] == 8_000
    ack = next(e for e in log.events if e[3] == ACK)
    assert ack[1] == 8_000 and ack[4] == (0, 1)
    assert_log_invariants(log)


@pytest.mark.parametrize("reverse_us, latency_us", [(None, 10_000), (700, 5_700)])
def test_an_ack_without_a_reverse_edge_draws_on_the_forward_edge(reverse_us, latency_us):
    """A sync star whose topology has only the forward edges: each ack takes
    its forward edge's constant. Its twin with reverse edges takes theirs."""
    forward_us = {1: 3_000, 2: 5_000}
    edges = {(0, c): LatencyModel(Constant(d)) for c, d in forward_us.items()}
    if reverse_us is not None:
        edges.update({(c, 0): LatencyModel(Constant(reverse_us)) for c in forward_us})
    topo = ReplicaGraph([replica(i) for i in range(3)], edges)
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, c, SYNC_EDGE) for c in forward_us])],
        [CooperationGraph(1, READING, 0, [])],
    )
    log = run_simulation(topo, coop, [], write_only_workload(2, think=Constant(1_000)), LWW_TIMESTAMP, seed=1)
    assert [e[4] for e in log.events if e[3] == OP_COMMIT] == [(latency_us,), (latency_us,)]
    assert_log_invariants(log)


def test_all_sync_applies_complete_before_commit():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        topo = mesh_topology(n, latency=Constant(rng.randrange(100, 5_000)))
        coop = CooperationModel(
            [CooperationGraph(0, REPLICATION, 0, [(0, i, SYNC_EDGE) for i in range(1, n)])],
            [CooperationGraph(1, READING, 0, [])],
        )
        wl = write_only_workload(10, think=Constant(500))
        log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=rng.randrange(1_000))
        views = scrape(log)
        for v in views.values():
            if v.kind == "write" and v.commit is not None:
                assert set(v.applies) == set(range(n))
                assert all(t <= v.commit for t, _ in v.applies.values())


def test_quorum_commit_with_late_straggler():
    reps = [replica(i) for i in range(3)]
    topo = ReplicaGraph(
        reps,
        {
            (0, 1): LatencyModel(Constant(1_000)),
            (1, 0): LatencyModel(Constant(1_000)),
            (0, 2): LatencyModel(Constant(9_000)),
            (2, 0): LatencyModel(Constant(9_000)),
        },
    )
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, quorum_edge(0)), (0, 2, quorum_edge(0))], {0: 1})],
        [CooperationGraph(1, READING, 0, [])],
    )
    log = run_simulation(topo, coop, [], write_only_workload(1, think=Constant(0)), LWW_TIMESTAMP, seed=2)
    commit = next(e for e in log.events if e[3] == OP_COMMIT)
    assert commit[1] == 2_000  # first quorum ack
    late_apply = [e for e in log.events if e[3] == APPLY_END and e[4][0] == 2]
    assert late_apply and late_apply[0][1] == 9_000  # data keeps propagating
    late_ack = [e for e in log.events if e[3] == ACK and e[4] == (0, 2)]
    assert late_ack and late_ack[0][1] == 18_000
    terminals = [e for e in log.events if e[3] in (OP_COMMIT, OP_FAIL)]
    assert len(terminals) == 1


def _sync_edges_as_quorum_groups(graph):
    """graph with each parent's sync edges made one quorum group whose
    threshold is their count."""
    group_of: dict[int, int] = {}
    thresholds = dict(graph.quorum_thresholds)
    edges = []
    for p, c, cls in graph.edges:
        if cls == SYNC_EDGE:
            if p not in group_of:
                group_of[p] = max(thresholds, default=-1) + 1
                thresholds[group_of[p]] = 0
            thresholds[group_of[p]] += 1
            cls = quorum_edge(group_of[p])
        edges.append((p, c, cls))
    return CooperationGraph(graph.id, graph.kind, graph.root, edges, thresholds, graph.weight)


@pytest.mark.parametrize("name", STRATEGIES)
def test_sync_children_are_one_ack_group_that_needs_all_of_them(name, tmp_path):
    # the engine holds a vertex's sync children as one ack group; a quorum
    # group of the same edges whose threshold is their count must give the
    # same events.jsonl, byte for byte
    rng = random.Random(f"sync-group:{name}")
    sync_edges = 0
    for case in range(25):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True)
        sync_edges += sum(cls == SYNC_EDGE for g in (*coop.replication_graphs, *coop.reading_graphs) for _, _, cls in g.edges)
        as_groups = CooperationModel(
            [_sync_edges_as_quorum_groups(g) for g in coop.replication_graphs],
            [_sync_edges_as_quorum_groups(g) for g in coop.reading_graphs],
        )
        assert qs.validate_scenario(topo, as_groups, failures, wl).ok
        seed, timeout = rng.randrange(10_000), rng.choice([20_000, DEFAULT_OP_TIMEOUT])
        paths = []
        for label, model in (("sync", coop), ("groups", as_groups)):
            paths.append(tmp_path / f"{case}_{label}.jsonl")
            write_events(run_simulation(topo, model, failures, wl, name, seed=seed, op_timeout=timeout), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes(), case
    assert sync_edges > 50, sync_edges


# -- determinism ------------------------------------------------------------------

def test_identical_seed_identical_log():
    topo = mesh_topology(3, latency=qs.Exponential(1_500))
    coop = qs.build_cooperation_model(topo, [0, 1, 2], 0, qs.QUORUM, qs.QUORUM)
    wl = simple_workload(3, 40, think=qs.Exponential(800))
    a = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=17)
    b = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=17)
    assert a.events == b.events
    assert a.final_stores == b.final_stores
    c = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=18)
    assert a.events != c.events


# -- strategy store and read resolution unit cases --------------------------------

def r(write_id, client, ts, vclock=None):
    return VersionRef(write_id, client, ts, vclock)


def test_resolve_read_lww_timestamp_picks_max():
    a, b = r(1, 0, 5_000), r(2, 1, 9_000)
    assert strategy(LWW_TIMESTAMP).resolve([(0, a), (1, b)]) == (b,)
    for name in STRATEGIES:  # no replica holds a version: the read returns none
        assert strategy(name).resolve([(0, None), (1, None)]) == ()


def test_resolve_read_write_set_union():
    w1, w2 = r(1, 0, 10), r(2, 0, 20)
    out = strategy(WRITE_SET).resolve([(0, (w1,)), (1, (w1, w2))])
    assert out == (w1, w2)
    # one contribution holds versions: its snapshot, the replica's state tuple, is the result
    snap = (w1, w2)
    assert strategy(WRITE_SET).resolve([(0, None), (1, snap)]) is snap


def test_resolve_read_competing_antichain():
    h1 = r(1, 1, 10, vclock=((1, 1),))
    h2 = r(2, 2, 20, vclock=((2, 1),))
    both = strategy(COMPETING_WRITES).resolve([(0, (h1,)), (1, (h2,))])
    assert {x.write_id for x in both} == {1, 2}

    dominated = r(3, 1, 30, vclock=((1, 1), (2, 1)))
    dominating = r(4, 1, 40, vclock=((1, 2), (2, 1)))
    out = strategy(COMPETING_WRITES).resolve([(0, (dominating,)), (1, (r(5, 1, 5, vclock=((1, 1),)), dominated))])
    assert out == (dominating,)


def test_resolve_read_lww_arrival_uses_apply_seq():
    old = (r(1, 0, 9_000), 10)  # newer timestamp, earlier arrival
    new = (r(2, 1, 5_000), 20)
    assert strategy(LWW_ARRIVAL).resolve([(0, old), (1, new)])[0].write_id == 2


def test_resolve_read_requires_contributions():
    for name in STRATEGIES:
        with pytest.raises(ValueError):
            strategy(name).resolve([])


def test_apply_write_cases():
    cur = r(1, 0, 9_000)
    stale = r(2, 1, 5_000)
    assert apply_write(LWW_TIMESTAMP, cur, stale, 99) is cur
    assert apply_write(LWW_ARRIVAL, (cur, 5), stale, 99) == (stale, 99)
    assert apply_write(WRITE_SET, frozenset({cur}), stale, 0) == frozenset({cur, stale})

    head = r(3, 1, 10, vclock=((1, 1),))
    incoming = r(4, 1, 20, vclock=((1, 1), (2, 1)))
    assert apply_write(COMPETING_WRITES, (head,), incoming, 0) == (incoming,)


def test_strategy_apply_cases():
    # apply_write's cases, on the strategies' in-place stores
    cur = r(1, 0, 9_000)
    stale = r(2, 1, 5_000)
    head = r(3, 1, 10, vclock=((1, 1),))
    incoming = r(4, 1, 20, vclock=((1, 1), (2, 1)))
    cases = [
        (LWW_TIMESTAMP, cur, stale, 99, cur),
        (LWW_ARRIVAL, (cur, 5), stale, 99, (stale, 99)),
        (WRITE_SET, (cur,), stale, 0, (cur, stale)),
        (COMPETING_WRITES, (head,), incoming, 0, (incoming,)),
    ]
    for name, state, ref, seq, want in cases:
        kv = {0: state}
        strategy(name).apply(kv, 0, ref, seq)
        assert kv[0] == want


def _clashing_refs(rng):
    """1-8 refs with distinct write ids, tied timestamps and clashing vector clocks."""
    pool = []
    for wid in range(rng.randint(1, 8)):
        client, ts = rng.randrange(3), rng.randrange(4)
        vclock = tuple((c, rng.randint(1, 3)) for c in sorted(rng.sample(range(3), rng.randint(1, 3))))
        pool.append(VersionRef(wid, client, ts, vclock))
    return pool


def _causal_refs(rng):
    """1-8 refs of one key with clocks built as the engine builds them: a
    writer's clock is its context, which only grows by merging clocks of
    earlier writes, with its own counter raised by one."""
    pool = []
    context = [{} for _ in range(3)]
    for wid in range(rng.randint(1, 8)):
        client, ts = rng.randrange(3), rng.randrange(4)
        ctx = context[client]
        for seen in rng.sample(pool, rng.randint(0, len(pool))):
            for c, n in seen.vclock:
                ctx[c] = max(ctx.get(c, 0), n)
        ctx[client] = ctx.get(client, 0) + 1
        pool.append(VersionRef(wid, client, ts, tuple(sorted(ctx.items()))))
    return pool


def test_many_version_store_is_a_tuple_by_write_id():
    # refs applied in random arrival orders: the store is the oracle's set
    # as a tuple by write id, and a read takes it uncopied
    rng = random.Random("many-version store")
    for _ in range(500):
        for name, pool in ((WRITE_SET, _clashing_refs(rng)), (COMPETING_WRITES, _causal_refs(rng))):
            strat = strategy(name)
            kv, want = {}, None
            for seq, ref in enumerate(rng.sample(pool, len(pool))):
                strat.apply(kv, 0, ref, seq)
                want = apply_write(name, want, ref, seq)
            state = kv[0]
            ids = [x.write_id for x in state]
            assert type(state) is tuple and ids == sorted(set(ids))
            assert set(state) == set(want)
            assert strat.snapshot(state) == (state, tuple(ids))
            assert strat.snapshot(state)[0] is state


def _random_contributions(rng, name):
    """1-4 (replica, snapshot) pairs drawn from a pool of refs, one ref per
    write id; some snapshots are empty. A many-version snapshot is a tuple in
    write-id order, as the engine keeps it. Under competing_writes the clocks
    are causal, as the engine builds them (the shape its resolve relies on);
    under the other strategies they clash."""
    pool = _causal_refs(rng) if name == COMPETING_WRITES else _clashing_refs(rng)
    contribs = []
    for replica_id in range(rng.randint(1, 4)):
        refs = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        if not refs:
            snap = None
        elif name == LWW_ARRIVAL:
            snap = (refs[0], rng.randrange(6))
        elif name == LWW_TIMESTAMP:
            snap = refs[0]
        else:
            snap = tuple(sorted(refs, key=lambda x: x.write_id))
        contribs.append((replica_id, snap))
    return contribs


@pytest.mark.parametrize("name", STRATEGIES)
def test_resolve_agrees_with_oracle_on_random_contributions(name):
    rng = random.Random(f"resolve:{name}")
    resolve = strategy(name).resolve
    for _ in range(2_000):
        contribs = _random_contributions(rng, name)
        assert resolve(contribs) == tuple(oracle_resolve(name, contribs)), contribs


# -- failures ----------------------------------------------------------------------

def test_coordinator_crash_stop_fails_requests_immediately():
    topo = mesh_topology(2)
    coop = bare_root_coop(root=0)
    wl = write_only_workload(3, think=Constant(1_000))
    log = run_simulation(topo, coop, [FailureEvent(0, 500, CRASH_STOP)], wl, LWW_TIMESTAMP, seed=1)
    fails = [e for e in log.events if e[3] == OP_FAIL]
    assert [e[4] for e in fails] == [("COORDINATOR_DOWN",)] * 3
    assert [e[1] for e in fails] == [1_000, 2_000, 3_000]


def test_sync_child_crash_stop_times_out_exactly():
    reps = [replica(i) for i in range(2)]
    topo = ReplicaGraph(reps, {(0, 1): LatencyModel(Constant(1_000)), (1, 0): LatencyModel(Constant(1_000))})
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, SYNC_EDGE)])],
        [CooperationGraph(1, READING, 0, [])],
    )
    wl = write_only_workload(1, think=Constant(1_000))
    log = run_simulation(topo, coop, [FailureEvent(1, 500, CRASH_STOP)], wl, LWW_TIMESTAMP, seed=1, op_timeout=50_000)
    fail = next(e for e in log.events if e[3] == OP_FAIL)
    assert fail[1] == 51_000 and fail[4] == ("TIMEOUT",)
    # dropped delivery: B never applies
    assert not any(e[3] == APPLY_END and e[4][0] == 1 for e in log.events)
    assert_log_invariants(log)


def test_deadline_fires_before_an_ack_of_the_same_instant():
    # the sync round trip of test_sync_star_commit_is_round_trip: issue 1000,
    # ack arrives 8000; a 7000 timeout puts the deadline on that instant
    reps = [replica(i, proc_write=Constant(0)) for i in range(2)]
    topo = ReplicaGraph(reps, {(0, 1): LatencyModel(Constant(3_000)), (1, 0): LatencyModel(Constant(4_000))})
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, SYNC_EDGE)])],
        [CooperationGraph(1, READING, 0, [])],
    )
    wl = write_only_workload(1, think=Constant(1_000))
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1, op_timeout=7_000)
    tail = [(e[1], e[3], e[4]) for e in log.events if e[1] == 8_000]
    assert tail == [(8_000, OP_FAIL, ("TIMEOUT",)), (8_000, ACK, (0, 1))]
    assert not any(e[3] == OP_COMMIT for e in log.events)
    assert_log_invariants(log)


def test_crash_recovery_queues_and_drains_exactly():
    # quorum of both children; B is down when the copy arrives and the write
    # commits at recovery + B's processing + B->A ack delay, exactly.
    reps = [
        replica(0, proc_write=Constant(500)),
        replica(1, proc_write=Constant(700)),
        replica(2, proc_write=Constant(0)),
    ]
    topo = ReplicaGraph(
        reps,
        {
            (0, 1): LatencyModel(Constant(3_000)),
            (1, 0): LatencyModel(Constant(4_000)),
            (0, 2): LatencyModel(Constant(1_000)),
            (2, 0): LatencyModel(Constant(2_000)),
        },
    )
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, quorum_edge(0)), (0, 2, quorum_edge(0))], {0: 2})],
        [CooperationGraph(1, READING, 0, [])],
    )
    failures = [FailureEvent(1, 2_000, CRASH_RECOVERY, down_for=20_000)]
    wl = write_only_workload(1, think=Constant(1_000))
    log = run_simulation(topo, coop, failures, wl, LWW_TIMESTAMP, seed=9)
    # A applies at 1500; C ack arrives 1500+1000+0+2000=4500; B's copy arrives
    # 4500 into the window, applies at 22000+700, ack lands 26700.
    commit = next(e for e in log.events if e[3] == OP_COMMIT)
    recovery = 22_000
    assert commit[1] == recovery + 700 + 4_000
    b_apply = next(e for e in log.events if e[3] == APPLY_END and e[4][0] == 1)
    assert b_apply[1] == recovery + 700
    b_start = next(e for e in log.events if e[3] == APPLY_START and e[4][0] == 1)
    assert b_start[1] == recovery
    assert_log_invariants(log)


def test_recovering_coordinator_queues_client_requests():
    topo = mesh_topology(2)
    coop = bare_root_coop(root=0)
    wl = write_only_workload(1, think=Constant(1_000))
    failures = [FailureEvent(0, 500, CRASH_RECOVERY, down_for=9_000)]
    log = run_simulation(topo, coop, failures, wl, LWW_TIMESTAMP, seed=1)
    start = next(e for e in log.events if e[3] == OP_START)
    apply_start = next(e for e in log.events if e[3] == APPLY_START)
    commit = next(e for e in log.events if e[3] == OP_COMMIT)
    assert start[1] == 1_000
    assert apply_start[1] == 9_500  # drained at the recovery instant
    assert commit[1] == 9_500
    assert commit[4] == (8_500,)  # latency counted from issue


@pytest.mark.parametrize("name", STRATEGIES)
def test_replica_gate_holds_on_random_failures(name):
    # no apply or ack at a replica while it is down, read from the log alone;
    # queued work must drain at recovery instants, or the gate went untested
    rng = random.Random(f"gate:{name}")
    drained = {APPLY_START: 0, APPLY_END: 0, ACK: 0}
    for _ in range(60):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True)
        timeout = rng.choice([2_000, 20_000, 200_000, DEFAULT_OP_TIMEOUT])
        log = run_simulation(topo, coop, failures, wl, name, seed=rng.randrange(10_000), op_timeout=timeout)
        assert_log_invariants(log)
        up_at = {(e[1], e[4][0]) for e in log.events if e[3] == REPLICA_UP}
        for e in log.events:
            if e[3] in drained and (e[1], e[4][0]) in up_at:
                drained[e[3]] += 1
    assert all(drained.values()), drained


# -- reads -------------------------------------------------------------------------

def read_scenario(read_edges, proc_read_root=0, resp_delay=1_000, request_delay=1_000):
    reps = [replica(0, proc_read=Constant(proc_read_root)), replica(1)]
    topo = ReplicaGraph(
        reps,
        {(0, 1): LatencyModel(Constant(request_delay)), (1, 0): LatencyModel(Constant(resp_delay))},
    )
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, ASYNC_EDGE)])],
        [CooperationGraph(1, READING, 0, read_edges)],
    )
    wl = WorkloadSpec(1, 1, 1.0, Constant(1_000), UniformKeys(1), Constant(10))
    return topo, coop, wl


def test_async_read_contribution_included_when_fast():
    topo, coop, wl = read_scenario([(0, 1, ASYNC_EDGE)], proc_read_root=5_000, resp_delay=1_000)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=4)
    rr = next(e for e in log.events if e[3] == READ_RETURN)
    assert rr[4][0] == (0, 1)  # B answered at 3000, before the root applied at 6000
    assert rr[1] == 6_000


def test_async_read_contribution_dropped_when_late():
    topo, coop, wl = read_scenario([(0, 1, ASYNC_EDGE)], proc_read_root=5_000, resp_delay=50_000)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=4)
    rr = next(e for e in log.events if e[3] == READ_RETURN)
    assert rr[4][0] == (0,)
    late_ack = [e for e in log.events if e[3] == ACK]
    assert late_ack and late_ack[0][1] == 52_000  # logged after the fact
    assert_log_invariants(log)


def test_sync_read_waits_for_contribution():
    topo, coop, wl = read_scenario([(0, 1, SYNC_EDGE)], proc_read_root=0, resp_delay=50_000)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=4)
    rr = next(e for e in log.events if e[3] == READ_RETURN)
    assert rr[4][0] == (0, 1)
    assert rr[1] == 52_000


def test_zero_proc_read_sees_same_instant_delivery():
    # the write's copy reaches B at exactly a read's issue instant; zero
    # processing completes within the instant, so that read returns the write
    reps = [replica(0), replica(1)]
    topo = ReplicaGraph(reps, {(0, 1): LatencyModel(Constant(50_000))})
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, ASYNC_EDGE)])],
        [CooperationGraph(1, READING, 1, [])],
    )
    wl = WorkloadSpec(
        2, 1, 0.0, Constant(0), UniformKeys(1), Constant(10),
        overrides=(
            qs.ClientOverride(0, read_ratio=0.0, think_time=Constant(10_000), ops_per_client=1),
            qs.ClientOverride(1, read_ratio=1.0, think_time=Constant(10_000), ops_per_client=6),
        ),
    )
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    # write issues at 10000, applies at B at 60000; reads hit B every 10 ms
    returns = {e[1]: [x.write_id for x in e[4][1]] for e in log.events if e[3] == READ_RETURN}
    assert returns[50_000] == []
    assert returns[60_000] == [0]


# -- vector clock bookkeeping ------------------------------------------------------

def test_competing_writes_vclock_properties():
    topo = mesh_topology(3, latency=Constant(2_000))
    coop = qs.build_cooperation_model(topo, [0, 1, 2], 0, qs.QUORUM, qs.QUORUM)
    wl = simple_workload(3, 60, read_ratio=0.5, think=Constant(900), keys=UniformKeys(2))
    log = run_simulation(topo, coop, [], wl, COMPETING_WRITES, seed=6)
    views = scrape(log)
    by_client_key = {}
    for v in sorted(views.values(), key=lambda v: v.op_id):
        if v.kind != "write":
            continue
        own = dict(v.vclock)[v.client]
        prev = by_client_key.get((v.client, v.key), 0)
        assert own == prev + 1  # own counter increments per own write on the key
        by_client_key[(v.client, v.key)] = own
    # a write dominates every head its client read just before issuing it
    reads = sorted((v for v in views.values() if v.kind == "read" and v.commit is not None), key=lambda v: v.op_id)
    for w in views.values():
        if w.kind != "write":
            continue
        prior = [r for r in reads if r.client == w.client and r.key == w.key and r.op_id < w.op_id]
        if prior:
            for head in prior[-1].returned:
                assert _dom(w.vclock, head.vclock)


def test_concurrent_writes_keep_both_heads():
    topo = mesh_topology(1)
    coop = bare_root_coop()
    wl = write_only_workload(1, think=Constant(1_000), n_clients=2)
    log = run_simulation(topo, coop, [], wl, COMPETING_WRITES, seed=1)
    state = log.final_stores[0][0]
    assert len(state) == 2  # incomparable clocks from two clients


# -- store replay (engine mutation vs the apply_write reference) ---------------------

def replay_stores(log, strategy):
    refs = {}
    key_of = {}
    for ev in log.events:
        if ev[3] == OP_START and ev[4][1] == "write":
            client, _, key, write_id, _, _, vclock = ev[4]
            refs[ev[2]] = VersionRef(write_id, client, ev[1], vclock)
            key_of[ev[2]] = key
    stores = {}
    for ev in log.events:
        if ev[3] == APPLY_END and ev[2] in refs:
            replica_id, _ = ev[4]
            key = key_of[ev[2]]
            kv = stores.setdefault(replica_id, {})
            kv[key] = apply_write(strategy, kv.get(key), refs[ev[2]], ev[0])
    canon = {}
    for replica_id, kv in stores.items():
        canon[replica_id] = {}
        for key, state in kv.items():
            if strategy == LWW_ARRIVAL:
                canon[replica_id][key] = state[0]
            elif strategy == LWW_TIMESTAMP:
                canon[replica_id][key] = state
            else:
                canon[replica_id][key] = tuple(sorted(state, key=lambda r: r.write_id))
    return canon


@pytest.mark.parametrize("strategy", [LWW_ARRIVAL, LWW_TIMESTAMP, WRITE_SET, COMPETING_WRITES])
def test_engine_stores_match_apply_write_replay(strategy):
    rng = random.Random(f"replay:{strategy}")
    for _ in range(8):
        topo, coop, failures, wl = random_scenario(rng, max_total_ops=60)
        log = run_simulation(topo, coop, failures, wl, strategy, seed=rng.randrange(10_000))
        replayed = replay_stores(log, strategy)
        engine_stores = {rid: kv for rid, kv in log.final_stores.items() if kv}
        assert replayed == engine_stores


# -- arrival-order divergence --------------------------------------------------------

def divergence_scenario():
    reps = [replica(i) for i in range(3)]
    topo = ReplicaGraph(
        reps,
        {
            (0, 1): LatencyModel(Constant(30_000)),
            (0, 2): LatencyModel(Constant(5_000)),
            (2, 1): LatencyModel(Constant(2_000)),
        },
    )
    coop = CooperationModel(
        [
            CooperationGraph(0, REPLICATION, 0, [(0, 1, ASYNC_EDGE), (0, 2, ASYNC_EDGE)], {}, 0.5),
            CooperationGraph(1, REPLICATION, 0, [(0, 2, ASYNC_EDGE), (2, 1, ASYNC_EDGE)], {}, 0.5),
        ],
        [CooperationGraph(2, READING, 0, [])],
    )
    wl = write_only_workload(6, think=Constant(10_000))
    return topo, coop, wl


def find_arrival_divergence_seed(limit=200):
    topo, coop, wl = divergence_scenario()
    for seed in range(limit):
        log = run_simulation(topo, coop, [], wl, LWW_ARRIVAL, seed=seed)
        states = [log.final_stores[rid].get(0) for rid in range(3)]
        if len({s.write_id for s in states if s is not None}) > 1:
            return seed
    return None


def test_lww_arrival_can_diverge_where_timestamp_converges():
    seed = find_arrival_divergence_seed()
    assert seed is not None, "no divergence found; arrival order should be replica-local"
    topo, coop, wl = divergence_scenario()
    ts_log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=seed)
    states = {ts_log.final_stores[rid][0] for rid in range(3)}
    assert len(states) == 1  # same scenario and seed converges under timestamps


# -- memory --------------------------------------------------------------------------

LIVE_CLIENTS = 8
LIVE_OPS = 300
ROOT0_WEIGHT = 0.04
CRASH_AT, CRASH_FOR, CRASH_TIMEOUT = 300_000, 300_000, 100_000


def _live_ops_at_chunk_boundaries(failures, op_timeout, strategy):
    """(virtual time, live engine ops) each time a chunk is handed out, with
    the chunks consumed one at a time and freed by reference counting alone.

    Three replicas on latencies in [0.5, 1.5] ms, no processing time, 1 ms
    of think time. Replica 0 coordinates a few ops through a QUORUM star
    over all three, replicas 1 and 2 the rest through QUORUM stars over
    {1, 2} alone. An op needs one child's ack, so it takes at least 1 ms,
    and a client issues at most one op per 2 ms. Without a failure, an op is
    terminal, and every message of it handled, within 3 ms of its issue.
    """
    topo = mesh_topology(3, latency=qs.Uniform(500, 1500))
    replication, reading = [], []
    for root, placement, weight in ((0, [0, 1, 2], ROOT0_WEIGHT), (1, [1, 2], (1 - ROOT0_WEIGHT) / 2), (2, [1, 2], (1 - ROOT0_WEIGHT) / 2)):
        model = qs.build_cooperation_model(topo, placement, root, qs.QUORUM, qs.QUORUM)
        for graphs, g in ((replication, model.replication_graphs[0]), (reading, model.reading_graphs[0])):
            graphs.append(CooperationGraph(len(replication) + len(reading), g.kind, g.root, g.edges, g.quorum_thresholds, weight))
    wl = simple_workload(LIVE_CLIENTS, LIVE_OPS, think=Constant(1000), keys=UniformKeys(20))
    seen = []
    with engine.gc_paused():
        _, chunks = engine.simulation_chunks(topo, CooperationModel(replication, reading), failures, wl, strategy, 5, op_timeout)
        for chunk in chunks:
            now = chunk[-1][1]
            del chunk
            # an issued request is the engine's op; one still waiting to issue has no graph
            seen.append((now, sum(type(o) is Request and o.graph is not None for o in gc.get_objects())))
    assert len(seen) >= 5  # the run spans several chunks
    return seen


def _per_client(span_us, gap_us=2_000):
    """The most ops one client issues in a closed span, gap_us apart at least."""
    return span_us // gap_us + 1


# The loop's own locals may hold three ops: those of the last action, of the
# last deadline popped and of the last entry drained from a recovery queue.
LOOP_LOCALS = 3


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_finished_ops_are_freed_before_their_deadline(strategy):
    """Under the default timeout every deadline lies past the end of the run,
    yet the engine holds only ops still in flight.

    Every op is terminal within 3 ms of its issue, so the first non-terminal
    deadline in the FIFO belongs to an op issued within the last 3 ms, and
    so does every entry behind it; an op with a message pending was issued
    within the last 3 ms too. Holding each op until its deadline would
    leave all 2,400 alive at the end.
    """
    seen = _live_ops_at_chunk_boundaries([], DEFAULT_OP_TIMEOUT, strategy)
    assert max(count for _, count in seen) <= LIVE_CLIENTS * _per_client(3_000) + LOOP_LOCALS


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ops_held_by_a_recovering_coordinator_stay_bounded(strategy):
    """Replica 0 is down for D = 300 ms from t_d = 300 ms, with a timeout of
    T = 100 ms. An op it coordinates inside that window is queued there and
    stays non-terminal until its deadline, holding every op behind it in
    the FIFO until then; its queued message holds the op itself until the
    recovery.

    Ops of replicas 1 and 2 never touch replica 0, so they are done within
    3 ms. An op of replica 0 issued before t_d - 3 ms is done by t_d, and
    one issued later is done by t_d + D + 3 ms. So from t_d + D + 3 ms on,
    and before t_d, the bound of the default-timeout test holds.

    Inside, the first non-terminal deadline in the FIFO is at or after now,
    so its op, and every entry behind it, was issued within the last T: at
    most T / 2 ms + 1 ops per client. An op of replica 0 issued earlier is
    held by a queued message alone. Per client, at most 2 of those were
    issued in the 3 ms before t_d (such an op may have committed, leaving a
    late ack queued). One issued from t_d on was itself queued at its
    coordinator and blocked its client for T until it timed out, so a
    client has at most one of them issued within [t_d, now - T), and one
    more for every further T + 1 ms.
    """
    failures = [FailureEvent(0, CRASH_AT, CRASH_RECOVERY, CRASH_FOR)]
    seen = _live_ops_at_chunk_boundaries(failures, CRASH_TIMEOUT, strategy)
    window_end = CRASH_AT + CRASH_FOR + 3_000
    inside = [(now, count) for now, count in seen if CRASH_AT <= now < window_end]
    assert inside  # a boundary falls where the FIFO is held
    for now, count in seen:
        if CRASH_AT <= now < window_end:
            held_longer = 2 + _per_client(max(0, now - CRASH_TIMEOUT - CRASH_AT), CRASH_TIMEOUT + 1_000)
            bound = LIVE_CLIENTS * (_per_client(CRASH_TIMEOUT) + held_longer) + LOOP_LOCALS
        else:
            bound = LIVE_CLIENTS * _per_client(3_000) + LOOP_LOCALS
        assert count <= bound, (now, count, bound)


# -- guards --------------------------------------------------------------------------

def test_invalid_scenario_is_rejected():
    topo = mesh_topology(2)
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [], {}, 0.4)],
        [CooperationGraph(1, READING, 0, [])],
    )
    with pytest.raises(ScenarioInvalidError) as e:
        run_simulation(topo, coop, [], write_only_workload(1), LWW_TIMESTAMP, seed=1)
    assert "WEIGHTS_NOT_NORMALIZED" in {v.code for v in e.value.report.violations}


def test_bad_arguments_rejected():
    topo = mesh_topology(1)
    with pytest.raises(ValueError):
        run_simulation(topo, bare_root_coop(), [], write_only_workload(1), "bogus", seed=1)
    with pytest.raises(ScenarioInvalidError) as e:
        run_simulation(topo, bare_root_coop(), [], write_only_workload(1), LWW_TIMESTAMP, seed=1, op_timeout=0)
    assert [v.code for v in e.value.report.violations] == ["OP_TIMEOUT_NOT_POSITIVE"]
