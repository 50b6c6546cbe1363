"""Dotted causality: the dot path of competing_writes against the general path and the oracles.

``op_table`` marks a log whose write clocks have the dot shape, and stage 3
then judges competing writes by dots; any other log keeps the general,
pairwise vector-clock path. These tests compare the two paths with each
other, the shape check with a brute-force one, and both paths with the
brute-force detectors.
"""

import dataclasses
import random

from _oracles import (
    oracle_dot_shape,
    oracle_last_unseen,
    oracle_mrc,
    oracle_report_counts,
    oracle_rywc,
    oracle_stale,
)
from _randgen import random_log, random_scenario

from quorumsim import (
    CRASH_RECOVERY,
    CRASH_STOP,
    STRATEGIES,
    VersionRef,
    clientcentric_outputs,
    op_table,
    run_simulation,
)
from quorumsim.engine import OP_FAIL, OP_START, READ_RETURN
from quorumsim.strategies import COMPETING_WRITES

# Op timeouts, virtual us: short ones fail ops while replicas are down or
# slow; the last is the default.
TIMEOUTS_US = (2_000, 20_000, 10_000_000)


def _engine_logs(label, n, strategy=COMPETING_WRITES, max_total_ops=150):
    """n engine logs of random scenarios with crash-stop and crash-recovery
    windows, each under one of TIMEOUTS_US."""
    rng = random.Random(label)
    for _ in range(n):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, max_total_ops=max_total_ops)
        seed, timeout = rng.randrange(10_000), rng.choice(TIMEOUTS_US)
        yield failures, run_simulation(topo, coop, failures, wl, strategy, seed=seed, op_timeout=timeout)


def _general(table):
    return dataclasses.replace(table, dotted=False)


def _has_writes(table):
    # a log without writes has no clocks, so it skips the check
    return any(op.kind == "write" for op in table.ops)


def test_dot_path_equals_general_path_on_engine_logs():
    seen = {"timeout": 0, "multi_head_read": 0, CRASH_STOP: 0, CRASH_RECOVERY: 0}
    for failures, log in _engine_logs("dots:engine", 60):
        table = op_table(log)
        assert table.dotted == _has_writes(table)
        dotted_report, dotted_verdicts = clientcentric_outputs(table, COMPETING_WRITES)
        report, verdicts = clientcentric_outputs(_general(table), COMPETING_WRITES)
        for field, value in report.items():
            assert dotted_report[field] == value, field
        assert dotted_verdicts == verdicts
        for f in failures:
            seen[f.kind] += 1
        for ev in log.events:
            seen["timeout"] += ev[3] == OP_FAIL and ev[4] == ("TIMEOUT",)
            seen["multi_head_read"] += ev[3] == READ_RETURN and len(ev[4][1]) > 1
    assert all(seen.values()), seen


def test_shape_check_accepts_engine_logs_and_agrees_with_brute_force():
    for _, log in _engine_logs("dots:shape", 20, max_total_ops=60):
        table = op_table(log)
        assert table.dotted == oracle_dot_shape(log) == _has_writes(table)
    # logs without clocks skip the check
    for strategy in STRATEGIES:
        if strategy != COMPETING_WRITES:
            for _, log in _engine_logs(f"dots:no-clocks:{strategy}", 3, strategy=strategy, max_total_ops=40):
                assert not op_table(log).dotted
    # random_log merges clocks across keys and returns refs of other keys,
    # so most of its logs take the general path; the check must say which
    rng = random.Random("dots:random-log")
    taken = {True: 0, False: 0}
    for _ in range(300):
        log = random_log(rng, COMPETING_WRITES)
        dotted = op_table(log).dotted
        assert dotted == oracle_dot_shape(log)
        taken[dotted] += 1
    assert taken[False] > taken[True] > 0, taken


def test_hand_built_log_takes_the_general_path():
    # a read returning a head whose write is not in the log
    events = [
        (0, 10, 0, "op_start", (1, "write", 0, 1, 64, False, ((1, 1),))),
        (1, 100, 0, "op_commit", (90,)),
        (2, 300, 1, "op_start", (9, "read", 0, None, 64, False, None)),
        (3, 300, 1, "read_return", ((0,), (VersionRef(2, 2, 20, ((1, 1), (2, 1))),))),
        (4, 300, 1, "op_commit", (0,)),
    ]
    assert not op_table(events).dotted
    assert not oracle_dot_shape(events)


def _raised(log, write, cid, counter):
    """The log's events with the write's clock entry for cid set to counter,
    in its op_start and in every ref to it."""

    def raise_entry(clock):
        return tuple(sorted({**dict(clock), cid: counter}.items()))

    events = []
    for seq, t, op_id, kind, payload in log.events:
        if kind == OP_START and op_id == write.op_id:
            payload = (*payload[:-1], raise_entry(payload[-1]))
        elif kind == READ_RETURN:
            refs = tuple(
                dataclasses.replace(ref, vclock=raise_entry(ref.vclock)) if ref.write_id == write.write_id else ref
                for ref in payload[1]
            )
            payload = (payload[0], refs)
        events.append((seq, t, op_id, kind, payload))
    return events


def test_a_raised_clock_entry_is_rejected_and_outputs_match_the_oracles():
    """Raise one entry (c, m) of a write clock past c's last counter on the
    key: the clock then names a write that does not exist. The check must
    reject the log, so stage 3 keeps the general path and agrees with the
    brute-force detectors. Forcing the dot path on such a log must disagree
    with them somewhere, or the check would guard nothing."""
    forced_wrong = 0
    mutated = 0
    for _, log in _engine_logs("dots:mutation", 12, max_total_ops=60):
        table = op_table(log)
        writes = [op for op in table.ops if op.kind == "write"]
        last_counter = {}
        for w in writes:
            for c, m in w.vclock:
                last_counter[(w.key, c)] = max(last_counter.get((w.key, c), 0), m)
        candidates = [(w, c) for w in writes for c, _ in w.vclock if c != w.client][:3]
        for w, c in candidates:
            events = _raised(log, w, c, last_counter[(w.key, c)] + 1)
            mutated += 1
            raised = op_table(events)
            assert not raised.dotted and not oracle_dot_shape(events)
            report, verdicts = clientcentric_outputs(raised, COMPETING_WRITES)
            assert {v.op_id for v in verdicts if v.stale} == oracle_stale(events, COMPETING_WRITES)
            assert {v.op_id for v in verdicts if v.mrc} == oracle_mrc(events, COMPETING_WRITES)
            assert {v.op_id for v in verdicts if v.rywc} == oracle_rywc(events, COMPETING_WRITES)
            counts = oracle_report_counts(events, COMPETING_WRITES)
            assert report["violations"] == counts["violations"]
            assert report["denominators"] == counts["denominators"]
            assert report["writes"] == oracle_last_unseen(events, COMPETING_WRITES)
            forced = clientcentric_outputs(dataclasses.replace(raised, dotted=True), COMPETING_WRITES)
            forced_wrong += forced != (report, verdicts)
    assert mutated >= 10 and forced_wrong, (mutated, forced_wrong)
