"""The dot shape: the rule every competing_writes log must follow.

Stage 3 judges competing writes by dots, so it first checks that the log's
vector clocks have the dot shape (``optable.check_dots``) and rejects a log
without it, naming the first op that breaks it. These tests check that
engine logs pass and are judged as the brute-force detectors judge them,
that logs without the shape are rejected, and that the check agrees with a
brute-force one.
"""

import dataclasses
import random

import pytest
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
    LWW_TIMESTAMP,
    MalformedLogError,
    VersionRef,
    clientcentric,
    clientcentric_outputs,
    op_table,
    run_simulation,
)
from quorumsim.engine import OP_FAIL, OP_START, READ_RETURN
from quorumsim.optable import check_dots
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


def _matches_the_oracles(events, report, verdicts):
    """Do stage 3's outputs on events equal the brute-force detectors'?"""
    counts = oracle_report_counts(events, COMPETING_WRITES)
    return (
        {v.read.op_id for v in verdicts if v.stale} == oracle_stale(events, COMPETING_WRITES)
        and {v.read.op_id for v in verdicts if v.mrc} == oracle_mrc(events, COMPETING_WRITES)
        and {v.read.op_id for v in verdicts if v.rywc} == oracle_rywc(events, COMPETING_WRITES)
        and all(report[field] == counts[field] for field in ("violations", "denominators", "per_client"))
        and report["writes"] == oracle_last_unseen(events, COMPETING_WRITES)
    )


def test_engine_logs_pass_the_check_and_match_the_oracles():
    seen = {"timeout": 0, "multi_head_read": 0, "stale": 0, "mrc": 0, "rywc": 0, CRASH_STOP: 0, CRASH_RECOVERY: 0}
    for failures, log in _engine_logs("dots:engine", 60):
        table = op_table(log)
        check_dots(table)
        assert oracle_dot_shape(log)
        report, verdicts = clientcentric_outputs(table, COMPETING_WRITES)
        assert _matches_the_oracles(log.events, report, verdicts)
        for f in failures:
            seen[f.kind] += 1
        for ev in log.events:
            seen["timeout"] += ev[3] == OP_FAIL and ev[4] == ("TIMEOUT",)
            seen["multi_head_read"] += ev[3] == READ_RETURN and len(ev[4][1]) > 1
        for name in ("stale", "mrc", "rywc"):
            seen[name] += report["violations"][name]
    assert all(seen.values()), seen


def _reclocked(events, write_id, clock):
    """events with the clock of write write_id set to clock, in its
    op_start and in every ref to it."""
    out = []
    for seq, t, op_id, kind, payload in events:
        if kind == OP_START and payload[3] == write_id:
            payload = (*payload[:-1], clock)
        elif kind == READ_RETURN:
            refs = tuple(dataclasses.replace(ref, vclock=clock) if ref.write_id == write_id else ref for ref in payload[1])
            payload = (payload[0], refs)
        out.append((seq, t, op_id, kind, payload))
    return out


def _joined(a, b):
    """The elementwise maximum of clocks a and b."""
    out = dict(a)
    for c, n in b:
        out[c] = max(out.get(c, 0), n)
    return tuple(sorted(out.items()))


def test_a_raised_clock_entry_is_rejected_naming_the_write(monkeypatch):
    """Raise one entry (c, m) of a write clock past c's last counter on the
    key: the clock then names a write that does not exist, and stage 3
    rejects the log at that write. With the check patched out, stage 3
    disagrees with the brute-force detectors on some of these logs, so the
    check guards its verdicts."""
    mutants = []
    for _, log in _engine_logs("dots:mutation", 12, max_total_ops=60):
        writes = [op for op in op_table(log).ops if op.kind == "write"]
        last_counter = {}
        for w in writes:
            for c, m in w.vclock:
                last_counter[(w.key, c)] = max(last_counter.get((w.key, c), 0), m)
        candidates = [(w, c) for w in writes for c, _ in w.vclock if c != w.client][:3]
        for w, c in candidates:
            events = _reclocked(log.events, w.write_id, _joined(w.vclock, ((c, last_counter[(w.key, c)] + 1),)))
            assert not oracle_dot_shape(events)
            with pytest.raises(MalformedLogError, match=rf"^op {w.op_id} breaks the dot shape"):
                clientcentric_outputs(events, COMPETING_WRITES)
            mutants.append(events)
    assert len(mutants) >= 10
    monkeypatch.setattr(clientcentric, "check_dots", lambda table: None)
    assert not all(_matches_the_oracles(events, *clientcentric_outputs(events, COMPETING_WRITES)) for events in mutants)


def _write(op_id, client, key, write_id, vclock, t=10):
    return [
        (0, t, op_id, "op_start", (client, "write", key, write_id, 64, False, vclock)),
        (0, t + 90, op_id, "op_commit", (90,)),
    ]


def _read(op_id, key, refs, t=300):
    return [
        (0, t, op_id, "op_start", (9, "read", key, None, 64, False, None)),
        (0, t, op_id, "read_return", ((0,), tuple(refs))),
        (0, t, op_id, "op_commit", (0,)),
    ]


def _sequenced(*ops):
    events = sorted((ev for op in ops for ev in op), key=lambda ev: ev[1])
    return [(seq, *ev[1:]) for seq, ev in enumerate(events)]


def test_hand_built_logs_without_the_shape_are_rejected():
    ref = VersionRef(1, 1, 10, ((1, 1),))
    first_write = _write(0, 1, 0, 1, ((1, 1),))
    misclocked = _write(0, 1, 0, 1, ((1, 1), (2, 1)))
    # returned refs the op table rejects, for any strategy, before the dot
    # shape is checked (condition 4 of check_dots)
    misreturned = [
        # a read returning a head whose write is not in the log
        (1, _sequenced(first_write, _read(1, 0, [VersionRef(2, 2, 20, ((1, 1), (2, 1)))]))),
        # a log without writes: the returned refs are still checked
        (0, _sequenced(_read(0, 0, [ref]))),
        # a read returning a write of another key, before a later write
        # that breaks the shape
        (1, _sequenced(first_write, _read(1, 5, [ref]), _write(2, 2, 0, 2, None, t=400))),
        # and after an earlier write that breaks it
        (1, _sequenced(misclocked, _read(1, 5, [ref]))),
    ]
    for op_id, events in misreturned:
        assert not oracle_dot_shape(events)
        with pytest.raises(MalformedLogError, match=rf"^op {op_id} returned write \d+, which is no logged write of key"):
            clientcentric_outputs(events, COMPETING_WRITES)
    misshapen = [
        # a write without a clock
        (2, _sequenced(first_write, _read(1, 0, [ref]), _write(2, 2, 0, 2, None, t=400))),
        # a counter that does not rise
        (3, _sequenced(first_write, _write(3, 1, 0, 2, ((1, 1),), t=200))),
        # the misclocked write, once the read returns it as logged
        (0, _sequenced(misclocked, _read(1, 0, [VersionRef(1, 1, 10, ((1, 1), (2, 1)))]))),
    ]
    for op_id, events in misshapen:
        assert not oracle_dot_shape(events)
        with pytest.raises(MalformedLogError, match=rf"^op {op_id} breaks the dot shape"):
            clientcentric_outputs(events, COMPETING_WRITES)
    # a log without writes whose reads return nothing has the shape
    empty = _sequenced(_read(0, 0, []))
    assert oracle_dot_shape(empty)
    check_dots(op_table(empty))
    # the check reads no strategy: a log without clocks fails it, and stage 3
    # runs it only for a strategy with clocks
    _, log = next(_engine_logs("dots:no-clocks", 1, strategy=LWW_TIMESTAMP))
    with pytest.raises(MalformedLogError, match="has no clock"):
        check_dots(op_table(log))
    clientcentric_outputs(log, LWW_TIMESTAMP)


def _clock_merging_log(rng):
    """A competing_writes random_log, then with some probability one write's
    clock joined with the clock of any other write (of any key, issued
    before or after it), and with some probability one read's refs joined
    by a ref to any write."""
    events = random_log(rng, COMPETING_WRITES)
    writes = [VersionRef(p[3], p[0], t, p[6]) for _, t, _, kind, p in events if kind == OP_START and p[1] == "write"]
    if len(writes) > 1 and rng.random() < 0.5:
        w, other = rng.sample(writes, 2)
        joined = _joined(w.vclock, other.vclock)
        events = _reclocked(events, w.write_id, joined)
        writes[writes.index(w)] = dataclasses.replace(w, vclock=joined)
    reads = [op_id for _, _, op_id, kind, _ in events if kind == READ_RETURN]
    if writes and reads and rng.random() < 0.2:
        target, extra = rng.choice(reads), rng.choice(writes)
        events = [
            (seq, t, op_id, kind, (p[0], (*p[1], extra)) if kind == READ_RETURN and op_id == target else p)
            for seq, t, op_id, kind, p in events
        ]
    return events


def test_shape_check_accepts_engine_logs_and_agrees_with_brute_force():
    for _, log in _engine_logs("dots:shape", 20, max_total_ops=60):
        check_dots(op_table(log))
        assert oracle_dot_shape(log)
    rng = random.Random("dots:random-log")
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        events = _clock_merging_log(rng)
        try:
            check_dots(op_table(events))
            shaped = True
        except MalformedLogError:
            shaped = False
        assert shaped == oracle_dot_shape(events), events
        outcomes[shaped] += 1
    assert min(outcomes.values()) >= 50, outcomes
