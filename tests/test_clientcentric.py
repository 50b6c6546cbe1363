import random

import pytest

from _builders import mesh_topology, replica, simple_workload, write_only_workload
from _oracles import (
    oracle_commit_timestamps,
    oracle_last_unseen,
    oracle_mrc,
    oracle_mwc,
    oracle_report_counts,
    oracle_rywc,
    oracle_stale,
    oracle_wfrc,
)
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
    WriteRecord,
    build_clientcentric_report,
    commit_timestamps,
    detect_mrc,
    detect_mwc,
    detect_rywc,
    detect_wfrc,
    judge_staleness,
    read_verdicts,
    run_simulation,
)
from quorumsim.engine import (
    COMPETING_WRITES,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    WRITE_SET,
)
from quorumsim.model import READING, REPLICATION

STRATEGIES = (LWW_ARRIVAL, LWW_TIMESTAMP, WRITE_SET, COMPETING_WRITES)


# -- commit_timestamps ------------------------------------------------------------

def test_commit_timestamps_simple():
    topo = mesh_topology(1)
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [])],
        [CooperationGraph(1, READING, 0, [])],
    )
    log = run_simulation(topo, coop, [], write_only_workload(1, think=Constant(500)), LWW_TIMESTAMP, seed=1)
    assert commit_timestamps(log) == {0: 500}


def test_commit_timestamps_agree_with_scan_oracle():
    rng = random.Random(12)
    for _ in range(5):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, max_total_ops=120)
        log = run_simulation(topo, coop, failures, wl, LWW_TIMESTAMP, seed=rng.randrange(500))
        assert commit_timestamps(log) == oracle_commit_timestamps(log)


# -- judge_staleness unit cases -----------------------------------------------------

def wrec(write_id, client, ts, commit, vclock=None):
    return WriteRecord(write_id, client, ts, commit, vclock)


def test_no_fresh_writes_is_never_stale():
    assert judge_staleness(LWW_TIMESTAMP, 1_000, (), []) is False
    later = [wrec(1, 0, 2_000, 2_500)]
    assert judge_staleness(LWW_TIMESTAMP, 1_000, (), later) is False


def test_lww_timestamp_stale_example():
    # w1 committed @10000; read starting @15000 served from a replica that
    # only applies w1 @20000 returns the initial version: stale
    history = [wrec(1, 0, 9_000, 10_000)]
    assert judge_staleness(LWW_TIMESTAMP, 15_000, (), history) is True
    reflecting = (VersionRef(1, 0, 9_000),)
    assert judge_staleness(LWW_TIMESTAMP, 15_000, reflecting, history) is False


def test_write_set_superset_is_fresh():
    history = [wrec(1, 0, 10, 100), wrec(2, 0, 20, 200), wrec(3, 0, 900, 5_000)]
    returned = (VersionRef(1, 0, 10), VersionRef(2, 0, 20), VersionRef(3, 0, 900))
    assert judge_staleness(WRITE_SET, 300, returned, history) is False
    assert judge_staleness(WRITE_SET, 300, returned[:1], history) is True


def test_competing_dominance_freshness():
    w = wrec(1, 1, 10, 100, vclock=((1, 1),))
    head = (VersionRef(2, 2, 20, ((1, 1), (2, 1))),)
    assert judge_staleness(COMPETING_WRITES, 300, head, [w]) is False
    incomparable = (VersionRef(3, 2, 20, ((2, 1),)),)
    assert judge_staleness(COMPETING_WRITES, 300, incomparable, [w]) is True


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
    verdicts = read_verdicts(log, LWW_TIMESTAMP)
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
    report = build_clientcentric_report(log, LWW_TIMESTAMP)
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
    assert detect_mrc(log, LWW_TIMESTAMP) == {1}
    log = synthetic_reads([(v1,), (v2,)])
    assert detect_mrc(log, LWW_TIMESTAMP) == set()


def test_mrc_write_set_containment():
    a, b = VersionRef(1, 0, 1), VersionRef(2, 0, 2)
    log = synthetic_reads([(a,), (b,)])
    assert detect_mrc(log, WRITE_SET) == {1}
    log = synthetic_reads([(a,), (a, b)])
    assert detect_mrc(log, WRITE_SET) == set()


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
    assert detect_rywc(events, LWW_TIMESTAMP) == {1}
    assert detect_mrc(events, LWW_TIMESTAMP) == set()


def test_rywc_requires_own_write():
    # a read with no own writes has no applicable RYWC obligation
    events = synthetic_reads([()])
    assert detect_rywc(events, LWW_TIMESTAMP) == set()


# -- MWC / WFRC deterministic scenarios ------------------------------------------------

def test_mwc_zero_for_single_client_sync_chain():
    topo = mesh_topology(3, latency=Constant(2_000))
    coop = qs.build_cooperation_model(topo, [0, 1, 2], 0, qs.ALL, qs.ONE)
    wl = write_only_workload(10, think=Constant(1_000))
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=3)
    assert detect_mwc(log) == []


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
    violations = detect_mwc(log)
    assert violations == [(0, 1, 1)]


def test_wfrc_vacuous_when_read_saw_nothing():
    topo, coop, wl = staleness_control_scenario(n_writes=2, n_reads=4)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    assert detect_wfrc(log) == []


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
    # op 0 needs exactly one op_start; re-use the grouped scan directly
    assert detect_wfrc(events) == [(1, 1)]


# -- oracle agreement -------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_detectors_agree_with_quadratic_oracles_on_synthetic_logs(strategy):
    rng = random.Random(f"detectors:{strategy}")
    for _ in range(250):
        log = random_log(rng, strategy)
        verdicts = read_verdicts(log, strategy)
        assert {v.op_id for v in verdicts if v.stale} == oracle_stale(log, strategy)
        assert detect_mrc(log, strategy) == oracle_mrc(log, strategy)
        assert detect_rywc(log, strategy) == oracle_rywc(log, strategy)
        assert set(detect_mwc(log)) == oracle_mwc(log)
        assert set(detect_wfrc(log)) == oracle_wfrc(log)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_detectors_agree_with_oracles_on_engine_logs(strategy):
    rng = random.Random(len(strategy))
    for _ in range(10):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, max_total_ops=60)
        log = run_simulation(topo, coop, failures, wl, strategy, seed=rng.randrange(1_000))
        verdicts = read_verdicts(log, strategy)
        assert {v.op_id for v in verdicts if v.stale} == oracle_stale(log, strategy)
        assert detect_mrc(log, strategy) == oracle_mrc(log, strategy)
        assert detect_rywc(log, strategy) == oracle_rywc(log, strategy)
        assert set(detect_mwc(log)) == oracle_mwc(log)
        assert set(detect_wfrc(log)) == oracle_wfrc(log)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_report_counts_and_last_unseen_agree_with_oracles(strategy):
    # the report's denominators, per-client counts and last-unseen instants
    # come from sweeps and a Fenwick tree, not from the detectors' verdict
    # sets; late applies make MWC inversions, instant ops let a read return
    # at its own write's commit instant, and half the logs flag random
    # ops as warmup
    rng = random.Random(f"report-oracles:{strategy}")
    for i in range(250):
        log = random_log(rng, strategy, warmup_share=0.3 if i % 2 else 0.0, late_apply_share=0.3, instant_share=0.3)
        report = build_clientcentric_report(log, strategy)
        counts = oracle_report_counts(log, strategy)
        assert report["violations"] == counts["violations"]
        assert report["denominators"] == counts["denominators"]
        assert report["per_client"] == counts["per_client"]
        assert report["writes"] == oracle_last_unseen(log, strategy)
        assert set(detect_mwc(log)) == oracle_mwc(log)
        assert set(detect_wfrc(log)) == oracle_wfrc(log)


# -- report wiring -----------------------------------------------------------------------

def test_rywc_violations_are_stale_on_random_runs():
    rng = random.Random(9)
    for strategy in STRATEGIES:
        topo, coop, failures, wl = random_scenario(rng, max_total_ops=80)
        log = run_simulation(topo, coop, failures, wl, strategy, seed=rng.randrange(1_000))
        for v in read_verdicts(log, strategy):
            if v.rywc:
                assert v.stale


def test_all_reads_workload_probabilities():
    topo = mesh_topology(2, latency=Constant(1_000))
    coop = qs.build_cooperation_model(topo, [0, 1], 0, qs.ONE, qs.ONE)
    wl = simple_workload(2, 30, read_ratio=1.0)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=4)
    report = build_clientcentric_report(log, LWW_TIMESTAMP)
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
    report = build_clientcentric_report(log, LWW_TIMESTAMP)
    per_client = report["per_client"].values()
    assert sum(c["reads"] for c in per_client) == report["denominators"]["staleness"]
    assert sum(c["stale"] for c in per_client) == report["violations"]["stale"]
    assert sum(c["mwc_triples"] for c in per_client) == report["denominators"]["mwc"]
    assert sum(c["wfrc_writes"] for c in per_client) == report["denominators"]["wfrc"]


def test_report_last_unseen_column():
    topo, coop, wl = staleness_control_scenario(n_writes=2, n_reads=30)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    report = build_clientcentric_report(log, LWW_TIMESTAMP)
    rows = {r["write_id"]: r for r in report["writes"]}
    # the writer itself never reads, so its writes are never seen-or-unseen
    assert rows[0]["last_unseen_at_us"] is None
    assert rows[0]["commit_us"] == 100_000


def test_malformed_log_raises():
    events = [(0, 5, 0, "read_return", ((0,), ()))]
    with pytest.raises(MalformedLogError):
        read_verdicts(events, LWW_TIMESTAMP)


def test_reports_are_bit_stable():
    topo, coop, wl = staleness_control_scenario()
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=1)
    assert build_clientcentric_report(log, LWW_TIMESTAMP) == build_clientcentric_report(log, LWW_TIMESTAMP)
