"""The op table: every op of an event log, built in one pass, read by both analyses.

Stage 2 (``datacentric``) and stage 3 (``clientcentric``) never read raw
events; they read the table. It is built from a ``SimulationLog``, a bare
event list, or a ``read_events`` result, with the events in any order, and
it is where a log is checked: every op needs exactly one ``op_start`` and
one terminal event, and no event may name an op without an ``op_start``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import APPLY_END, GRAPH_CHOSEN, OP_COMMIT, OP_FAIL, OP_START, READ_RETURN, gc_paused
from .errors import MalformedLogError

COMMITTED = "committed"

_APPLY_END, _START, _RETURN, _GRAPH, _COMMIT, _FAIL = range(6)
_CODE = {
    APPLY_END: _APPLY_END,
    OP_START: _START,
    READ_RETURN: _RETURN,
    GRAPH_CHOSEN: _GRAPH,
    OP_COMMIT: _COMMIT,
    OP_FAIL: _FAIL,
}


@dataclass(slots=True)
class OpRecord:
    """One op. Fields stay None until the event that sets them is seen."""

    op_id: int
    client: int | None = None
    kind: str | None = None
    key: int | None = None
    write_id: int | None = None
    vclock: tuple | None = None
    warmup: bool = False
    graph_id: int | None = None
    start: int | None = None
    end_us: int | None = None  # time of the terminal event
    status: str | None = None  # "committed" or "failed:<reason>"
    commit_us: int | None = None  # end_us of a committed op
    latency_us: int | None = None
    applies: dict = field(default_factory=dict)  # replica -> (time, seq) of an ApplyEnd
    returned: tuple = ()  # a read's returned VersionRefs
    return_time: int | None = None


@dataclass(slots=True)
class OpTable:
    """The ops in op-id order, and the log's graph metadata (id -> kind, root, vertices)."""

    ops: list[OpRecord]
    graphs: dict


@gc_paused()
def op_table(log) -> OpTable:
    """The op table of a log; a table is returned as it is.

    Raises MalformedLogError unless every op has exactly one op_start and
    one terminal event and every event naming an op has that op's op_start.
    """
    if isinstance(log, OpTable):
        return log
    events = log.events if hasattr(log, "events") else log
    graphs = log.meta.get("graphs", {}) if hasattr(log, "meta") else {}
    ops: dict[int, OpRecord] = {}
    code_of = _CODE
    for seq, t, op_id, kind, payload in events:
        if op_id is None:
            continue
        op = ops.get(op_id)
        if op is None:
            op = ops[op_id] = OpRecord(op_id)
        code = code_of.get(kind)
        if code == _APPLY_END:
            op.applies[payload[0]] = (t, seq)
        elif code == _START:
            if op.start is not None:
                raise MalformedLogError(f"op {op_id} has more than one op_start event")
            op.client, op.kind, op.key, op.write_id, _, op.warmup, op.vclock = payload
            op.start = t
        elif code == _RETURN:
            op.returned = tuple(payload[1])
            op.return_time = t
        elif code == _GRAPH:
            op.graph_id = payload[0]
        elif code is not None:
            if op.status is not None:
                raise MalformedLogError(f"op {op_id} has more than one terminal event")
            op.end_us = t
            if code == _COMMIT:
                op.status = COMMITTED
                op.commit_us = t
                op.latency_us = payload[0]
            else:
                op.status = f"failed:{payload[0]}"
    for op in ops.values():
        if op.start is None:
            raise MalformedLogError(f"op {op.op_id} has events but no op_start event")
        if op.status is None:
            raise MalformedLogError(f"op {op.op_id} has no terminal event")
    return OpTable([ops[op_id] for op_id in sorted(ops)], graphs)
