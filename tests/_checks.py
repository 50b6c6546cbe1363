"""Structural log invariants asserted across engine tests, and what stage 3
finds in a log, in the form the oracles give it."""

from __future__ import annotations

from quorumsim.clientcentric import clientcentric_outputs
from quorumsim.engine import (
    ACK,
    APPLY_END,
    APPLY_START,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    REPLICA_DOWN,
    REPLICA_UP,
)

_TERMINAL = (OP_COMMIT, OP_FAIL)


def assert_log_invariants(log):
    """Check the log's order, op lifecycles and replica gate.

    The gate is read from the log alone: between a replica's replica_down and
    its next replica_up (or the end, for a crash-stop) the replica logs no
    apply_start, apply_end or ack_received.
    """
    events = log.events
    # total order by (time, seq) with seq equal to the position
    for i, ev in enumerate(events):
        assert ev[0] == i
        if i:
            assert (events[i - 1][1], events[i - 1][0]) < (ev[1], ev[0])

    started, finished = {}, {}
    apply_started = set()
    down = set()
    for ev in events:
        seq, t, op_id, kind, payload = ev
        if kind == OP_START:
            assert op_id not in started
            started[op_id] = t
        elif kind in _TERMINAL:
            assert op_id in started
            assert op_id not in finished
            finished[op_id] = t
            if kind == OP_COMMIT:
                assert payload[0] == t - started[op_id] >= 0
        elif kind == APPLY_START:
            apply_started.add((op_id, payload[0]))
        elif kind == APPLY_END:
            assert (op_id, payload[0]) in apply_started
        elif kind == REPLICA_DOWN:
            down.add(payload[0])
        elif kind == REPLICA_UP:
            down.discard(payload[0])
        if kind in (APPLY_START, APPLY_END, ACK):
            if payload[0] in down:
                raise AssertionError(f"event {ev} on down replica {payload[0]}")
    assert set(started) == set(finished), "every op must reach exactly one terminal event"
    return started, finished


def stage3_findings(log, strategy) -> dict:
    """What stage 3 finds in a log, from one ``clientcentric_outputs`` call.

    "stale", "mrc" and "rywc" are the op ids of the committed reads with
    that verdict, warmup reads included. "mwc" and "wfrc" map each client
    with violations to the report's count of them: violating triples and
    violating writes, warmup writes not counted. ``oracle_findings`` is the
    brute-force form.
    """
    report, verdicts = clientcentric_outputs(log, strategy)
    findings = {name: {v.read.op_id for v in verdicts if getattr(v, name)} for name in ("stale", "mrc", "rywc")}
    for name in ("mwc", "wfrc"):
        counts = {int(cid): stats[f"{name}_violations"] for cid, stats in report["per_client"].items()}
        findings[name] = {cid: n for cid, n in counts.items() if n}
    return findings
