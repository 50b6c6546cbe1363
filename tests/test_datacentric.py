import csv
import dataclasses
import gc
import json
import random

import pytest

from _builders import mesh_topology, simple_workload, star_async, write_only_workload
from _oracles import oracle_datacentric_sections, oracle_windows, scrape
from _randgen import random_scenario
from test_stage3_golden import MULTI_MASTER, MULTI_MASTER_CRASH, _scenario, _simulate

import quorumsim as qs
from quorumsim import (
    Constant,
    CooperationGraph,
    CooperationModel,
    FailureEvent,
    MalformedLogError,
    OpTable,
    SimulationLog,
    build_datacentric_report,
    clientcentric_outputs,
    datacentric_outputs,
    op_records,
    op_table,
    run_simulation,
)
from quorumsim.cli import _write_stages
from quorumsim.engine import ACK, OP_COMMIT, OP_FAIL, OP_START
from quorumsim.model import CRASH_STOP, READING, REPLICATION, SYNC_EDGE
from quorumsim.strategies import LWW_TIMESTAMP, STRATEGIES


def async_star_log(n_ops=1, think=1_000, seed=3):
    topo, coop = star_async(0, {1: 10_000, 2: 20_000})
    return run_simulation(topo, coop, [], write_only_workload(n_ops, think=Constant(think)), LWW_TIMESTAMP, seed=seed)


# -- op_table ---------------------------------------------------------------------

def test_op_table_has_one_record_per_op():
    log = async_star_log(n_ops=2)
    table = op_table(log)
    assert [op.op_id for op in table.ops] == [0, 1]
    assert {op.op_id for op in table.ops} == {ev[2] for ev in log.events if ev[2] is not None}
    for op in table.ops:
        assert op.kind == "write" and op.status == "committed"
        assert set(op.applies) == {0, 1, 2}
    assert table.graphs is log.meta["graphs"]
    assert op_table(table) is table


def test_op_table_empty_log():
    assert op_table(SimulationLog({}, [], {})).ops == []


def test_op_table_insensitive_to_order():
    log = async_star_log(n_ops=3)
    shuffled = list(log.events)
    random.Random(5).shuffle(shuffled)
    assert op_table(shuffled).ops == op_table(log).ops


def test_op_table_detects_malformed_logs():
    events = async_star_log(n_ops=2).events
    commit = next(ev for ev in events if ev[3] == OP_COMMIT)
    start = next(ev for ev in events if ev[3] == OP_START)
    next_seq = events[-1][0] + 1
    malformed = [
        [ev for ev in events if ev[3] != OP_COMMIT],  # missing terminal
        [ev for ev in events if ev[3] != OP_START],  # missing op_start
        events + [(next_seq, *commit[1:])],  # duplicated terminal
        events + [(next_seq, commit[1], commit[2], OP_FAIL, ("TIMEOUT",))],  # a commit and a fail
        events + [(next_seq, *start[1:])],  # duplicated op_start
        events + [(next_seq, commit[1], 99, ACK, (0, 1))],  # event for an unknown op
    ]
    rng = random.Random(11)
    for bad in malformed:
        shuffled = list(bad)
        rng.shuffle(shuffled)
        for variant in (bad, shuffled):
            with pytest.raises(MalformedLogError):
                op_table(variant)


# -- inconsistency windows (the op records' window_us) --------------------------------------

def test_window_of_hand_traced_write():
    log = async_star_log()
    assert op_records(log)[0].window_us == 20_000


def test_window_single_replica_is_zero():
    topo = mesh_topology(1)
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [])],
        [CooperationGraph(1, READING, 0, [])],
    )
    log = run_simulation(topo, coop, [], write_only_workload(1), LWW_TIMESTAMP, seed=1)
    assert op_records(log)[0].window_us == 0


def test_window_undefined_without_applies():
    topo = mesh_topology(2)
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [])],
        [CooperationGraph(1, READING, 0, [])],
    )
    log = run_simulation(
        topo, coop, [FailureEvent(0, 0, CRASH_STOP)], write_only_workload(1, think=Constant(100)), LWW_TIMESTAMP, seed=1
    )
    assert op_records(log)[0].window_us is None
    assert op_records(log.events)[0].window_us is None


def test_window_undefined_when_graph_vertex_never_applied():
    topo, coop = star_async(0, {1: 10_000, 2: 20_000})
    log = run_simulation(
        topo,
        coop,
        [FailureEvent(2, 5_000, CRASH_STOP)],
        write_only_workload(1, think=Constant(100)),
        LWW_TIMESTAMP,
        seed=1,
    )
    assert op_records(log)[0].window_us is None
    # without the run_meta graphs the window spans the replicas that applied
    assert op_records(log.events)[0].window_us == 10_000


# -- build_datacentric_report ----------------------------------------------------------

def test_report_of_ten_identical_writes():
    log = async_star_log(n_ops=10)
    report = build_datacentric_report(log)
    g = report["global"]
    win = g["inconsistency_window_us"]
    assert win["count"] == 10
    assert win["mean"] == win["median"] == win["max"] == 20_000
    hist = win["histogram"]
    assert sum(hist["counts"]) + hist["zero"] + hist["overflow"] == 10
    assert max(hist["counts"]) == 10  # all mass in one bucket
    assert g["error_rate"]["all"] == 0.0
    assert g["counts"] == {"ops": 10, "reads": 0, "writes": 10, "commits": 10, "fails": 0}
    assert g["latency_us"]["max"] == 0


def test_error_rate_counts_post_crash_timeouts():
    # sync child crash-stops; every write issued after the crash times out
    reps = [qs.Replica(0, "a", "dc1", Constant(0), Constant(0)), qs.Replica(1, "b", "dc1", Constant(0), Constant(0))]
    topo = qs.ReplicaGraph(reps, {(0, 1): qs.LatencyModel(Constant(1_000)), (1, 0): qs.LatencyModel(Constant(1_000))})
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, 0, [(0, 1, SYNC_EDGE)])],
        [CooperationGraph(1, READING, 0, [])],
    )
    # commits at issue+2000; think 8000 -> period 10000; crash at 35000
    wl = write_only_workload(10, think=Constant(8_000))
    log = run_simulation(topo, coop, [FailureEvent(1, 35_000, CRASH_STOP)], wl, LWW_TIMESTAMP, seed=1, op_timeout=40_000)
    report = build_datacentric_report(log)
    # writes 1..3 commit (issues 8000, 18000, 28000); writes 4..10 time out
    assert report["global"]["counts"]["fails"] == 7
    assert report["global"]["error_rate"]["write"] == 0.7
    assert report["global"]["non_converged_writes"] == 7


def test_per_graph_sections_merge_to_global():
    rng = random.Random(31)
    for _ in range(6):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, max_total_ops=80)
        log = run_simulation(topo, coop, failures, wl, LWW_TIMESTAMP, seed=rng.randrange(1_000))
        report = build_datacentric_report(log)
        g = report["global"]
        sections = report["graphs"].values()
        for counter in ("ops", "reads", "writes", "commits", "fails"):
            assert g["counts"][counter] == sum(s["counts"][counter] for s in sections)
        assert g["non_converged_writes"] == sum(s["non_converged_writes"] for s in sections)
        for metric in ("latency_us", "inconsistency_window_us"):
            merged = [0] * len(g[metric]["histogram"]["counts"])
            zero = over = 0
            for s in sections:
                h = s[metric]["histogram"]
                zero += h["zero"]
                over += h["overflow"]
                merged = [a + b for a, b in zip(merged, h["counts"])]
            assert merged == g[metric]["histogram"]["counts"]
            assert zero == g[metric]["histogram"]["zero"]
            assert over == g[metric]["histogram"]["overflow"]


def test_windows_nonnegative_and_bounded_by_latency_under_all_sync():
    rng = random.Random(77)
    for _ in range(5):
        n = rng.randint(2, 4)
        topo = mesh_topology(n, latency=qs.Uniform(100, 4_000))
        coop = CooperationModel(
            [CooperationGraph(0, REPLICATION, 0, [(0, i, SYNC_EDGE) for i in range(1, n)])],
            [CooperationGraph(1, READING, 0, [])],
        )
        wl = simple_workload(2, 20, read_ratio=0.3, think=qs.Uniform(0, 2_000), keys=qs.UniformKeys(3))
        log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=rng.randrange(1_000))
        for rec in op_records(log):
            if rec.kind == "write" and rec.status == "committed":
                assert rec.window_us is not None
                assert 0 <= rec.window_us <= rec.latency_us


def test_report_is_pure_and_stable():
    log = async_star_log(n_ops=5)
    assert build_datacentric_report(log) == build_datacentric_report(log)


def test_warmup_ops_excluded():
    topo, coop = star_async(0, {1: 10_000, 2: 20_000})
    wl = qs.WorkloadSpec(1, 10, 0.0, Constant(1_000), qs.UniformKeys(1), Constant(100), warmup_ops=4)
    log = run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=2)
    report = build_datacentric_report(log)
    assert report["global"]["counts"]["ops"] == 6


def _stage2_logs():
    """The multi_master_crash golden log and 20 random logs with warmup ops,
    crash-stops and op timeouts."""
    yield _simulate(_scenario(MULTI_MASTER_CRASH, LWW_TIMESTAMP))
    rng = random.Random(20261018)
    for _ in range(20):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, spanning_replication=False, max_total_ops=120)
        wl = dataclasses.replace(wl, warmup_ops=rng.randint(0, 3))
        timeout = rng.choice([2_000, 20_000, 200_000])
        yield run_simulation(topo, coop, failures, wl, rng.choice(STRATEGIES), seed=rng.randrange(1_000), op_timeout=timeout)


def test_report_is_an_aggregate_of_the_op_rows(tmp_path):
    seen = set()
    for n, log in enumerate(_stage2_logs()):
        table = op_table(log)
        report, records = datacentric_outputs(table)
        views = scrape(log)
        assert [r.op_id for r in records] == sorted(views)
        for r in records:
            v = views[r.op_id]
            assert (r.client, r.kind, r.key, r.start, r.warmup, r.write_id, r.commit_us, r.applies) == (
                v.client, v.kind, v.key, v.start, v.warmup, v.write_id, v.commit, v.applies
            ), r.op_id
        assert report == build_datacentric_report(table)
        out = tmp_path / str(n)
        _write_stages(table, log.meta["strategy"], (2,), out)
        with open(out / "ops.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        written = json.loads((out / "datacentric.json").read_text(encoding="utf-8"))
        for section in written["graphs"].values():
            del section["graph_kind"]
        assert oracle_datacentric_sections(rows) == {"global": written["global"], "graphs": written["graphs"]}
        seen.update(r["status"] for r in rows)
        seen.update(f"warmup={r['warmup']}" for r in rows)
        seen.update(f"{r['kind']} window={bool(r['window_us'])}" for r in rows if r["status"] == "committed")
        seen.add(f"graphs={min(len(written['graphs']), 2)}")
    assert {
        "failed:TIMEOUT",
        "failed:COORDINATOR_DOWN",
        "warmup=true",
        "write window=False",
        "write window=True",
        "graphs=2",
    } <= seen


def test_windows_equal_their_reference():
    """Every write's window_us is the one its raw events and header graphs
    give, on the stage-2 logs and an engine log of each strategy."""
    defined = set()
    for log in [*_stage2_logs(), *(_simulate(_scenario(MULTI_MASTER, s)) for s in STRATEGIES)]:
        windows = {op.op_id: op.window_us for op in op_table(log).ops if op.kind == "write"}
        assert windows == oracle_windows(log)
        defined.update(w is not None for w in windows.values())
    assert defined == {True, False}


class _GcProbe(list):
    """A list that records whether the cyclic collector is on when iterated."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen

    def __iter__(self):
        self.seen.append(gc.isenabled())
        return super().__iter__()


@pytest.mark.parametrize(
    "call", ["op_table", "build_datacentric_report", "datacentric_outputs", "clientcentric_outputs"]
)
def test_library_calls_pause_gc(call):
    log = async_star_log(n_ops=5)
    seen = []
    if call == "op_table":
        # the table is the innermost call: probe the events it reads
        arg = SimulationLog(log.meta, _GcProbe(log.events, seen), log.final_stores)
        fn = op_table
    else:
        # hand the others a built table, so the probe sees their own pause
        table = op_table(log)
        arg = OpTable(_GcProbe(table.ops, seen), table.graphs)
        fn = {
            "build_datacentric_report": build_datacentric_report,
            "datacentric_outputs": datacentric_outputs,
            "clientcentric_outputs": lambda t: clientcentric_outputs(t, LWW_TIMESTAMP),
        }[call]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            fn(arg)
            assert seen and not any(seen)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
