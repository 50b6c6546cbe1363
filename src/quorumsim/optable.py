"""The op table: every op of an event log, built in one pass, read by both analyses.

Stage 2 (``datacentric``) and stage 3 (``clientcentric``) never read raw
events; they read the table. It is built in one pass over a
``SimulationLog``, a ``read_events`` result or any iterable of events, such
as the file stream of ``logio.iter_events``, with the events in any order.
The pass keeps one record per op and no event. The table is where a log
is checked: every op needs exactly one ``op_start`` and one terminal
event, and no event may name an op without an ``op_start``. A commit's
``latency_us`` is its time minus the op's start, and each committed read
has exactly one ``read_return``, at its commit instant; no other op has one.
An op has at most one ``apply_end`` per replica, each carrying the write's
own ``write_id`` for a write and a ``value`` list for a read (whose ids are
type-checked only, since no stage reads them), and at most one
``graph_chosen``, whose graph the header lists if it lists any. An op
carries a clock only under a strategy that logs them (competing_writes),
when the header names one. Every returned ref names a logged write of the
read's key and carries that write's client id, its start as the client
timestamp and its clock. Each ref object is checked once and gives way to
its write's own record, so the analyses read no ref. A read checks only the
refs that are new since its key's last read: when its refs start with that
read's (by ``==``, and equal refs of one key name the same records), it
keeps those records and adds the new refs' ones, and a read with the same
refs shares the same records tuple. A write's
``window_us``, its inconsistency window, is the span of its ApplyEnd
times, None when it has none or a vertex of its graph (as the header
lists it) never applied it. ``check_dots`` adds the rule of a log with
vector clocks: they must have the dot shape, by which stage 3 judges
competing writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import eq, ge

from .errors import MalformedLogError
from .events import APPLY_END, GRAPH_CHOSEN, OP_COMMIT, OP_FAIL, OP_START, READ, READ_RETURN, WRITE, gc_paused
from .strategies import strategy

COMMITTED = "committed"
_MIXED = object()  # OpRecord.applied of an op whose ApplyEnds carry different things


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
    status: str | None = None  # "committed" or "failed:<reason>"
    commit_us: int | None = None  # time of the commit event
    latency_us: int | None = None
    window_us: int | None = None  # a write's inconsistency window, once the table is built
    applies: dict = field(default_factory=dict)  # replica -> (time, seq) of an ApplyEnd
    applied: object = None  # what its ApplyEnds carry: a write id, or READ for a value list
    returned: tuple = ()  # a read's returned writes: their OpRecords once the table is built
    return_time: int | None = None


@dataclass(slots=True)
class OpTable:
    """The ops in op-id order and the log's graph metadata (id -> kind,
    root, vertices)."""

    ops: list[OpRecord]
    graphs: dict


def check_dots(table: OpTable) -> None:
    """Raise MalformedLogError, naming the first op (by op id) that breaks
    it, unless the table's vector clocks have the dot shape.

    Within one key, write w of client c has the dot (c, n_w) with
    n_w = V_w[c], its clock's own entry. The shape is:

    1. every write has a clock, and each (client, key)'s counters rise in
       op-id order, so a dot names one write;
    2. a client's clocks on a key are monotone: each dominates the one
       before it;
    3. every entry (c, m) of a write clock V names a write (c, m) on that
       key issued no later than V's own, and V dominates that write's clock
       V_(c,m);
    4. a read's returned writes are writes of its key, held as their own
       records, so stage 3 reads each one's logged clock.

    Claim: if A is the elementwise maximum of some write clocks of a key,
    A dominates V_w iff A[c] >= n_w. Only if: V_w[c] = n_w. If: A[c] = m is
    an entry of one of those clocks, U; by 3, U >= V_(c,m); by 1,
    (c, m) is w or a later write of c on the key, so by 2,
    V_(c,m) >= V_w; hence A >= U >= V_w. By 4, a read's returned clocks
    are such clocks, so the claim holds for each of them and for their
    maximum, which is what stage 3 compares.
    """
    broken = _first_misshapen_write(table.ops)
    if broken:
        op, why = broken
        raise MalformedLogError(f"op {op.op_id} breaks the dot shape of vector clocks: {why}")


def _first_misshapen_write(ops):
    """(write, why) for the first write of ops (in op-id order) that breaks
    conditions 1 to 3 of ``check_dots``, or None.

    One pass over the writes. Condition 3 is only checked where it is new:
    an entry equal to the client's previous clock on the key holds by 2 and
    that clock's own check, and an entry equal to one of a clock V_(c,m)
    already checked against V holds because V_(c,m) passed the check.
    """
    clock_of: dict[tuple[int, int, int], tuple] = {}  # (key, client, counter) -> clock
    last: dict[tuple[int, int], tuple[int, dict]] = {}  # (client, key) -> (counter, clock)
    for op in ops:
        if op.kind != WRITE:
            continue
        if not op.vclock:
            return op, "the write has no clock"
        clock = dict(op.vclock)
        entries = clock.items()
        me, key = op.client, op.key
        n = clock.get(me, 0)
        prev_n, prev = last.get((me, key), (0, {}))
        if n <= prev_n:
            return op, f"its counter {n} on key {key} is not above its writer's previous {prev_n}"
        if not all(map(ge, map(clock.get, prev, repeat(0)), prev.values())):
            return op, f"its clock does not dominate its writer's previous clock on key {key}"
        checked = {me}
        for c, m in entries - prev.items():  # the entries new since the previous clock
            if c in checked:
                continue
            source = clock_of.get((key, c, m))
            if source is None:
                return op, f"its clock entry ({c}, {m}) names no earlier write of key {key}"
            clients, counters = zip(*source)
            got = list(map(clock.get, clients, repeat(0)))
            if not all(map(ge, got, counters)):
                return op, f"its clock does not dominate that of write ({c}, {m}) of key {key}"
            checked.update(compress(clients, map(eq, got, counters)))
        clock_of[(key, me, n)] = op.vclock
        last[(me, key)] = (n, clock)
    return None


@gc_paused()
def op_table(log, meta: dict | None = None) -> OpTable:
    """The op table of a log; a table is returned as it is.

    log is a ``SimulationLog`` or any iterable of events, such as the
    stream of ``logio.iter_events``, which it walks once. The graphs and
    the strategy come from the log's own meta, or for a bare iterable from
    meta, and are read after the pass, when a streamed header has filled
    meta.

    Raises MalformedLogError unless every op has exactly one op_start and
    one terminal event, every event naming an op has that op's op_start,
    every commit's latency_us is its time minus the op's start, exactly
    the committed reads have a read_return, one each, at their commit, and
    the rules of the module docstring on apply_end, graph_chosen and
    returned refs hold. Each read's ``returned`` is then its returned
    writes' records, in the order of its refs, and each write has its
    ``window_us``.
    """
    if isinstance(log, OpTable):
        return log
    events = log
    if hasattr(log, "events"):
        events, meta = log.events, log.meta
    ops: dict[int, OpRecord] = {}
    for seq, t, op_id, kind, payload in events:
        if op_id is None:
            continue
        op = ops.get(op_id)
        if op is None:
            op = ops[op_id] = OpRecord(op_id)
        if kind == APPLY_END:
            replica, carried = payload
            if replica in op.applies:
                raise MalformedLogError(f"op {op_id} has more than one apply_end at replica {replica}")
            carried = READ if isinstance(carried, tuple) else carried  # a read's value ids are not kept
            op.applied = carried if not op.applies or op.applied == carried else _MIXED
            op.applies[replica] = (t, seq)
        elif kind == OP_START:
            if op.start is not None:
                raise MalformedLogError(f"op {op_id} has more than one op_start event")
            op.client, op.kind, op.key, op.write_id, _, op.warmup, op.vclock = payload
            op.start = t
        elif kind == READ_RETURN:
            if op.return_time is not None:
                raise MalformedLogError(f"op {op_id} has more than one read_return event")
            op.returned = tuple(payload[1])
            op.return_time = t
        elif kind == GRAPH_CHOSEN:
            if op.graph_id is not None:
                raise MalformedLogError(f"op {op_id} has more than one graph_chosen event")
            op.graph_id = payload[0]
        elif kind == OP_COMMIT or kind == OP_FAIL:
            if op.status is not None:
                raise MalformedLogError(f"op {op_id} has more than one terminal event")
            if kind == OP_COMMIT:
                op.status = COMMITTED
                op.commit_us = t
                op.latency_us = payload[0]
            else:
                op.status = f"failed:{payload[0]}"
    meta = meta or {}
    graphs, named = meta.get("graphs", {}), meta.get("strategy")
    clocked = named is None or strategy(named).vclocks
    for op in ops.values():
        if op.start is None:
            raise MalformedLogError(f"op {op.op_id} has events but no op_start event")
        if op.status is None:
            raise MalformedLogError(f"op {op.op_id} has no terminal event")
        if op.vclock is not None and not clocked:
            raise MalformedLogError(f"op {op.op_id} carries a vector clock, which strategy {named} does not log")
        if op.applies and op.applied != (READ if op.kind == READ else op.write_id):
            raise MalformedLogError(f"op {op.op_id} has an apply_end unlike its op: a write's carries its write_id, a read's a value list")
        if op.commit_us is not None and op.latency_us != op.commit_us - op.start:
            raise MalformedLogError(f"op {op.op_id} has latency_us {op.latency_us}, not its commit time minus its start")
        if op.kind == READ and op.commit_us is not None:
            if op.return_time != op.commit_us:
                raise MalformedLogError(f"op {op.op_id} is a committed read without a read_return at its commit")
        elif op.return_time is not None:
            raise MalformedLogError(f"op {op.op_id} has a read_return but is no committed read")
        # hand-built logs list no graphs, so only a listing header is checked
        if graphs and op.graph_id is not None and op.graph_id not in graphs:
            raise MalformedLogError(f"op {op.op_id} chose graph {op.graph_id}, which the header does not list")
        if op.kind == WRITE and op.applies:
            vertices = graphs.get(op.graph_id, {}).get("vertices")
            if vertices is None or all(v in op.applies for v in vertices):
                times = [t for t, _ in op.applies.values()]
                op.window_us = max(times) - min(times)
    rows = [ops[op_id] for op_id in sorted(ops)]
    writes = {op.write_id: op for op in rows if op.kind == WRITE}
    checked: dict[int, object] = {}  # write id -> the last ref object found right for it
    last: dict[int, tuple] = {}  # key -> (the refs of its last read with refs, their records)
    for op in rows:
        refs = op.returned
        if refs:
            prev = last.get(op.key)
            if prev is not None and refs[:len(prev[0])] == prev[0]:  # equal refs of one key give the same records
                new, records = refs[len(prev[0]):], prev[1]
            else:
                new, records = refs, ()
            returned = []
            for ref in new:
                w = writes.get(ref.write_id)
                if w is None or w.key != op.key:
                    raise MalformedLogError(f"op {op.op_id} returned write {ref.write_id}, which is no logged write of key {op.key}")
                if checked.get(ref.write_id) is not ref:
                    if (ref.client_id, ref.client_timestamp, ref.vclock) != (w.client, w.start, w.vclock):
                        raise MalformedLogError(f"op {op.op_id} returned write {ref.write_id} unlike its op_start's client, time or clock")
                    checked[ref.write_id] = ref
                returned.append(w)
            if returned:
                records += tuple(returned)
            op.returned = records
            last[op.key] = (refs, records)
    return OpTable(rows, graphs)
