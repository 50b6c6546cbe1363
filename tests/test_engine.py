import random

import pytest

from _builders import mesh_topology, replica, simple_workload, star_async, write_only_workload
from _checks import assert_log_invariants
from _oracles import enumerate_star_writes, scrape
from _randgen import random_scenario

import quorumsim as qs
from quorumsim import (
    ASYNC_EDGE,
    CRASH_RECOVERY,
    CRASH_STOP,
    Constant,
    CooperationGraph,
    CooperationModel,
    FailureEvent,
    INITIAL,
    LatencyModel,
    READING,
    REPLICATION,
    ReplicaGraph,
    SYNC_EDGE,
    ScenarioInvalidError,
    UniformKeys,
    VersionRef,
    WorkloadSpec,
    apply_write,
    merge_heads,
    quorum_edge,
    resolve_read,
    run_simulation,
    vclock_dominates,
)
from quorumsim.engine import (
    ACK,
    APPLY_END,
    APPLY_START,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    READ_RETURN,
    REPLICA_DOWN,
    COMPETING_WRITES,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    WRITE_SET,
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


# -- resolve_read / apply_write unit cases ----------------------------------------

def r(write_id, client, ts, vclock=None):
    return VersionRef(write_id, client, ts, vclock)


def test_resolve_read_lww_timestamp_picks_max():
    a, b = r(1, 0, 5_000), r(2, 1, 9_000)
    assert resolve_read(LWW_TIMESTAMP, [(0, a), (1, b)]) == [b]
    assert resolve_read(LWW_TIMESTAMP, [(0, None)]) == [INITIAL]


def test_resolve_read_write_set_union():
    w1, w2 = r(1, 0, 10), r(2, 0, 20)
    out = resolve_read(WRITE_SET, [(0, frozenset({w1})), (1, frozenset({w1, w2}))])
    assert out == [w1, w2]


def test_resolve_read_competing_antichain():
    h1 = r(1, 1, 10, vclock=((1, 1),))
    h2 = r(2, 2, 20, vclock=((2, 1),))
    both = resolve_read(COMPETING_WRITES, [(0, (h1,)), (1, (h2,))])
    assert {x.write_id for x in both} == {1, 2}

    dominated = r(3, 1, 30, vclock=((1, 1), (2, 1)))
    dominating = r(4, 1, 40, vclock=((1, 2), (2, 1)))
    out = resolve_read(COMPETING_WRITES, [(0, (dominating,)), (1, (r(5, 1, 5, vclock=((1, 1),)), dominated))])
    assert out == [dominating]


def test_resolve_read_lww_arrival_uses_apply_seq():
    old = (r(1, 0, 9_000), 10)  # newer timestamp, earlier arrival
    new = (r(2, 1, 5_000), 20)
    assert resolve_read(LWW_ARRIVAL, [(0, old), (1, new)])[0].write_id == 2


def test_resolve_read_requires_contributions():
    with pytest.raises(ValueError):
        resolve_read(LWW_TIMESTAMP, [])


def test_apply_write_cases():
    cur = r(1, 0, 9_000)
    stale = r(2, 1, 5_000)
    assert apply_write(LWW_TIMESTAMP, cur, stale, 99) is cur
    assert apply_write(LWW_ARRIVAL, (cur, 5), stale, 99) == (stale, 99)
    assert apply_write(WRITE_SET, frozenset({cur}), stale, 0) == frozenset({cur, stale})

    head = r(3, 1, 10, vclock=((1, 1),))
    incoming = r(4, 1, 20, vclock=((1, 1), (2, 1)))
    assert apply_write(COMPETING_WRITES, (head,), incoming, 0) == (incoming,)


def test_vclock_dominance_and_merge():
    assert vclock_dominates(((1, 2), (2, 1)), ((1, 1), (2, 1)))
    assert not vclock_dominates(((1, 1),), ((2, 1),))
    assert vclock_dominates(((1, 1),), ())
    heads = merge_heads(
        [r(1, 1, 1, ((1, 1),)), r(2, 2, 2, ((2, 1),)), r(3, 1, 3, ((1, 2),))]
    )
    assert {h.write_id for h in heads} == {2, 3}


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
    assert_log_invariants(log, crash_stopped={1})


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
                assert vclock_dominates(w.vclock, head.vclock)


def test_concurrent_writes_keep_both_heads():
    topo = mesh_topology(1)
    coop = bare_root_coop()
    wl = write_only_workload(1, think=Constant(1_000), n_clients=2)
    log = run_simulation(topo, coop, [], wl, COMPETING_WRITES, seed=1)
    state = log.final_stores[0][0]
    assert len(state) == 2  # incomparable clocks from two clients


# -- store replay (engine mutation vs public apply_write) ---------------------------

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
    with pytest.raises(ValueError):
        run_simulation(topo, bare_root_coop(), [], write_only_workload(1), LWW_TIMESTAMP, seed=1, op_timeout=0)
