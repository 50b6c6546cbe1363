import random

import pytest

from _builders import mesh_topology, replica, simple_workload, write_only_workload
from _checks import stage3_findings
from _oracles import oracle_findings, oracle_last_unseen, oracle_mwc, oracle_report_counts, oracle_wfrc, scrape
from _randgen import random_log, random_scenario

import quorumsim as qs
from quorumsim import (
    ASYNC_EDGE,
    ClientOverride,
    Constant,
    CooperationGraph,
    CooperationModel,
    LatencyModel,
    MalformedLogError,
    ReplicaGraph,
    UniformKeys,
    VersionRef,
    WorkloadSpec,
    clientcentric_outputs,
    run_simulation,
)
from quorumsim.model import READING, REPLICATION
from quorumsim.strategies import (
    COMPETING_WRITES,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    STRATEGIES,
    WRITE_SET,
)


# -- staleness unit cases on hand-built logs -----------------------------------------

def is_stale(strategy, read_start_us, returned_refs, writes):
    """Stage 3's staleness verdict for one read by client 9 issued at
    read_start_us and returning returned_refs, after the committed writes
    (write_id, client, client timestamp, commit instant, vclock), each issued
    at its client timestamp."""
    events = []
    for op_id, (write_id, client, ts, commit, vclock) in enumerate(writes):
        events.append((len(events), ts, op_id, "op_start", (client, "write", 0, write_id, 64, False, vclock)))
        events.append((len(events), commit, op_id, "op_commit", (commit - ts,)))
    read = len(writes)
    events.append((len(events), read_start_us, read, "op_start", (9, "read", 0, None, 64, False, None)))
    events.append((len(events), read_start_us, read, "read_return", ((0,), tuple(returned_refs))))
    events.append((len(events), read_start_us, read, "op_commit", (0,)))
    return read in stage3_findings(events, strategy)["stale"]


def wrec(write_id, client, ts, commit, vclock=None):
    return (write_id, client, ts, commit, vclock)


def test_no_fresh_writes_is_never_stale():
    assert is_stale(LWW_TIMESTAMP, 1_000, (), []) is False
    later = [wrec(1, 0, 2_000, 2_500)]
    assert is_stale(LWW_TIMESTAMP, 1_000, (), later) is False


def test_lww_timestamp_stale_example():
    # w1 committed @10000; read starting @15000 served from a replica that
    # only applies w1 @20000 returns the initial version: stale
    history = [wrec(1, 0, 9_000, 10_000)]
    assert is_stale(LWW_TIMESTAMP, 15_000, (), history) is True
    reflecting = (VersionRef(1, 0, 9_000),)
    assert is_stale(LWW_TIMESTAMP, 15_000, reflecting, history) is False


def test_write_set_superset_is_fresh():
    history = [wrec(1, 0, 10, 100), wrec(2, 0, 20, 200), wrec(3, 0, 900, 5_000)]
    returned = (VersionRef(1, 0, 10), VersionRef(2, 0, 20), VersionRef(3, 0, 900))
    assert is_stale(WRITE_SET, 300, returned, history) is False
    assert is_stale(WRITE_SET, 300, returned[:1], history) is True


def test_competing_dominance_freshness():
    # write 1 commits before the read starts; the head's write (which saw
    # write 1) and the incomparable write commit after it
    w = wrec(1, 1, 10, 100, vclock=((1, 1),))
    head = VersionRef(2, 2, 20, ((1, 1), (2, 1)))
    incomparable = VersionRef(3, 3, 20, ((3, 1),))
    history = [w, wrec(2, 2, 20, 400, head.vclock), wrec(3, 3, 20, 400, incomparable.vclock)]
    assert is_stale(COMPETING_WRITES, 300, (head,), history) is False
    assert is_stale(COMPETING_WRITES, 300, (incomparable,), history) is True


def test_unknown_strategy_is_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        clientcentric_outputs(synthetic_reads([()]), "bogus")


# -- staleness positive control (deterministic hand trace) ---------------------------

def staleness_control_scenario(n_writes=8, n_reads=100):
    reps = [replica(0), replica(1)]
    topo = ReplicaGraph(reps, {(0, 1): LatencyModel(Constant(50_000))})
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, ASYNC_EDGE)])],
        [CooperationGraph(1, READING, 1, [])],
    )
    wl = WorkloadSpec(
        2, 1, 0.5, Constant(0), UniformKeys(1), Constant(64),
        overrides=(
            ClientOverride(0, read_ratio=0.0, think_time=Constant(100_000), ops_per_client=n_writes),
            ClientOverride(1, read_ratio=1.0, think_time=Constant(10_000), ops_per_client=n_reads),
        ),
    )
    return topo, coop, wl


def test_staleness_positive_control_matches_hand_enumeration():
    # writes commit at k*100000 and reach the read replica at k*100000+50000;
    # a read is stale iff it starts inside one of those windows.
    topo, coop, wl = staleness_control_scenario()
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    _, verdicts = clientcentric_outputs(log, LWW_TIMESTAMP)
    assert len(verdicts) == 100
    expected_stale = {
        v.op_id
        for v in verdicts
        if any(100_000 * k <= v.start_us < 100_000 * k + 50_000 for k in range(1, 9))
    }
    got_stale = {v.op_id for v in verdicts if v.stale}
    assert got_stale == expected_stale
    assert len(got_stale) == 40  # five stale reads per write window


def test_staleness_control_rate_in_report():
    topo, coop, wl = staleness_control_scenario()
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    report = clientcentric_outputs(log, LWW_TIMESTAMP)[0]
    assert report["stale_read_rate"] == 40 / 100
    assert report["denominators"]["staleness"] == 100
    # the reader never writes: RYWC and WFRC have empty denominators
    assert report["denominators"]["rywc"] == 0
    assert report["rywc_violation_probability"] == 0.0


# -- MRC / RYWC session examples -----------------------------------------------------

def synthetic_reads(returns, client=0, key=0):
    """Committed reads at 10, 20, ... returning the given ref tuples."""
    events = []
    op = 0
    t = 0
    for refs in returns:
        t += 10
        events.append((len(events), t, op, "op_start", (client, "read", key, None, 64, False, None)))
        events.append((len(events), t, op, "read_return", ((0,), tuple(refs))))
        events.append((len(events), t, op, "op_commit", (0,)))
        op += 1
    return events


def test_mrc_flags_backward_read():
    v2 = VersionRef(2, 0, 2_000)
    v1 = VersionRef(1, 0, 1_000)
    log = synthetic_reads([(v2,), (v1,)])
    assert stage3_findings(log, LWW_TIMESTAMP)["mrc"] == {1}
    log = synthetic_reads([(v1,), (v2,)])
    assert stage3_findings(log, LWW_TIMESTAMP)["mrc"] == set()


def test_mrc_write_set_containment():
    a, b = VersionRef(1, 0, 1), VersionRef(2, 0, 2)
    log = synthetic_reads([(a,), (b,)])
    assert stage3_findings(log, WRITE_SET)["mrc"] == {1}
    log = synthetic_reads([(a,), (a, b)])
    assert stage3_findings(log, WRITE_SET)["mrc"] == set()


def test_rywc_example():
    # client writes w commit @10; read @20 returning the pre-write version
    events = [
        (0, 5, 0, "op_start", (0, "write", 0, 7, 64, False, None)),
        (1, 8, 0, "apply_end", (0, 7)),
        (2, 10, 0, "op_commit", (5,)),
        (3, 20, 1, "op_start", (0, "read", 0, None, 64, False, None)),
        (4, 20, 1, "read_return", ((0,), ())),
        (5, 20, 1, "op_commit", (0,)),
    ]
    found = stage3_findings(events, LWW_TIMESTAMP)
    assert found["rywc"] == {1}
    assert found["mrc"] == set()


def test_rywc_requires_own_write():
    # a read with no own writes has no applicable RYWC obligation
    events = synthetic_reads([()])
    assert stage3_findings(events, LWW_TIMESTAMP)["rywc"] == set()


# -- MWC / WFRC deterministic scenarios ------------------------------------------------

def test_mwc_zero_for_single_client_sync_chain():
    topo = mesh_topology(3, latency=Constant(2_000))
    coop = qs.build_cooperation_model(topo, [0, 1, 2], 0, qs.ALL, qs.ONE)
    wl = write_only_workload(10, think=Constant(1_000))
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=3)
    assert stage3_findings(log, LWW_TIMESTAMP)["mwc"] == {}
    assert oracle_mwc(log) == set()


def test_mwc_flags_async_overtake():
    # per-write payload sizing inverts delivery order on the slow edge:
    # w1 (large payload) reaches B after w2 (small payload)
    reps = [replica(i) for i in range(2)]
    topo = ReplicaGraph(
        reps,
        {(0, 1): LatencyModel(Constant(5_000), per_byte_us=1.0)},
    )
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, ASYNC_EDGE)])],
        [CooperationGraph(1, READING, 0, [])],
    )
    wl = WorkloadSpec(1, 2, 0.0, Constant(10_000), UniformKeys(1), qs.Empirical([30_000, 0]))
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=11)
    payloads = [e[4][4] for e in log.events if e[3] == "op_start"]
    if payloads[0] < payloads[1]:
        pytest.skip("seed drew payloads in the non-inverting order")
    # client 0's one violating triple: w0 and w1 applied out of order at replica 1
    assert stage3_findings(log, LWW_TIMESTAMP)["mwc"] == {0: 1}
    assert oracle_mwc(log) == {(0, 1, 1)}


def test_wfrc_vacuous_when_read_saw_nothing():
    topo, coop, wl = staleness_control_scenario(n_writes=2, n_reads=4)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    assert stage3_findings(log, LWW_TIMESTAMP)["wfrc"] == {}
    assert oracle_wfrc(log) == set()


def test_wfrc_flags_unordered_apply():
    # client reads w0 at A, then writes w1; replica B applies w1 before w0
    a = VersionRef(0, 0, 5)
    events = [
        (0, 5, 0, "op_start", (0, "write", 0, 0, 64, False, None)),
        (1, 6, 0, "apply_end", (0, 0)),
        (2, 7, 0, "op_commit", (2,)),
        (3, 10, 1, "op_start", (0, "read", 0, None, 64, False, None)),
        (4, 11, 1, "read_return", ((0,), (a,))),
        (5, 11, 1, "op_commit", (1,)),
        (6, 20, 2, "op_start", (0, "write", 0, 1, 64, False, None)),
        (7, 25, 2, "apply_end", (1, 1)),  # B applies w1 first
        (8, 26, 2, "op_commit", (6,)),
        (9, 40, 0, "apply_end", (1, 0)),  # w0 reaches B late
    ]
    # client 0's write w1 violates, at replica 1
    assert stage3_findings(events, LWW_TIMESTAMP)["wfrc"] == {0: 1}
    assert oracle_wfrc(events) == {(1, 1)}


# -- oracle agreement -------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_detectors_agree_with_quadratic_oracles_on_synthetic_logs(strategy):
    rng = random.Random(f"detectors:{strategy}")
    seen = dict.fromkeys(("stale", "mrc", "rywc", "wfrc", "multi_ref_read"), 0)
    for _ in range(250):
        log = random_log(rng, strategy)
        found = stage3_findings(log, strategy)
        assert found == oracle_findings(log, strategy)
        for name in ("stale", "mrc", "rywc", "wfrc"):
            seen[name] += bool(found[name])
        seen["multi_ref_read"] += any(len(v.returned) > 1 for v in scrape(log).values() if v.commit is not None)
    # the logs hold every violation kind but MWC, whose inversions need the
    # late applies of the report test below; under competing_writes,
    # dot-shaped clocks still leave reads with two or more heads
    if strategy in (LWW_TIMESTAMP, LWW_ARRIVAL):
        del seen["multi_ref_read"]
    assert all(seen.values()), seen


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_detectors_agree_with_oracles_on_engine_logs(strategy):
    rng = random.Random(len(strategy))
    for _ in range(10):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, max_total_ops=60)
        log = run_simulation(topo, coop, failures, wl, strategy, seed=rng.randrange(1_000))
        assert stage3_findings(log, strategy) == oracle_findings(log, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_report_counts_and_last_unseen_agree_with_oracles(strategy):
    # the report's denominators, per-client counts and last-unseen instants
    # come from sweeps and a Fenwick tree, not from the detectors' verdict
    # sets; late applies make MWC inversions, instant ops let a read return
    # at its own write's commit instant, and half the logs flag random
    # ops as warmup
    rng = random.Random(f"report-oracles:{strategy}")
    mwc_logs = 0
    for i in range(250):
        log = random_log(rng, strategy, warmup_share=0.3 if i % 2 else 0.0, late_apply_share=0.3, instant_share=0.3)
        report = clientcentric_outputs(log, strategy)[0]
        counts = oracle_report_counts(log, strategy)
        assert report["violations"] == counts["violations"]
        assert report["denominators"] == counts["denominators"]
        assert report["per_client"] == counts["per_client"]
        assert report["writes"] == oracle_last_unseen(log, strategy)
        found, want = stage3_findings(log, strategy), oracle_findings(log, strategy)
        assert (found["mwc"], found["wfrc"]) == (want["mwc"], want["wfrc"])
        mwc_logs += bool(found["mwc"])
    assert mwc_logs


# -- report wiring -----------------------------------------------------------------------

def test_rywc_violations_are_stale_on_random_runs():
    rng = random.Random(9)
    for strategy in STRATEGIES:
        topo, coop, failures, wl = random_scenario(rng, max_total_ops=80)
        log = run_simulation(topo, coop, failures, wl, strategy, seed=rng.randrange(1_000))
        for v in clientcentric_outputs(log, strategy)[1]:
            if v.rywc:
                assert v.stale


def test_all_reads_workload_probabilities():
    topo = mesh_topology(2, latency=Constant(1_000))
    coop = qs.build_cooperation_model(topo, [0, 1], 0, qs.ONE, qs.ONE)
    wl = simple_workload(2, 30, read_ratio=1.0)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=4)
    report = clientcentric_outputs(log, LWW_TIMESTAMP)[0]
    assert report["denominators"]["staleness"] == 60
    assert report["denominators"]["rywc"] == 0
    assert report["denominators"]["mwc"] == 0
    assert report["denominators"]["wfrc"] == 0
    for name in ("stale_read_rate", "mrc_violation_probability", "rywc_violation_probability", "mwc_violation_probability", "wfrc_violation_probability"):
        assert report[name] == 0.0


def test_report_per_client_sections_sum():
    topo = mesh_topology(3, latency=qs.Exponential(1_000))
    coop = qs.build_cooperation_model(topo, [0, 1, 2], 0, qs.ONE, qs.ONE)
    wl = simple_workload(3, 50, read_ratio=0.6, think=qs.Exponential(500))
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=8)
    report = clientcentric_outputs(log, LWW_TIMESTAMP)[0]
    per_client = report["per_client"].values()
    assert sum(c["reads"] for c in per_client) == report["denominators"]["staleness"]
    assert sum(c["stale"] for c in per_client) == report["violations"]["stale"]
    assert sum(c["mwc_triples"] for c in per_client) == report["denominators"]["mwc"]
    assert sum(c["wfrc_writes"] for c in per_client) == report["denominators"]["wfrc"]


def test_report_last_unseen_column():
    topo, coop, wl = staleness_control_scenario(n_writes=2, n_reads=30)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    report = clientcentric_outputs(log, LWW_TIMESTAMP)[0]
    rows = {r["write_id"]: r for r in report["writes"]}
    # the writer itself never reads, so its writes are never seen-or-unseen
    assert rows[0]["last_unseen_at_us"] is None
    assert rows[0]["commit_us"] == 100_000


def test_malformed_log_raises():
    events = [(0, 5, 0, "read_return", ((0,), ()))]
    with pytest.raises(MalformedLogError):
        clientcentric_outputs(events, LWW_TIMESTAMP)


def test_reports_are_bit_stable():
    topo, coop, wl = staleness_control_scenario()
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    assert clientcentric_outputs(log, LWW_TIMESTAMP)[0] == clientcentric_outputs(log, LWW_TIMESTAMP)[0]
