"""Discrete-event execution of requests over cooperation graphs.

One run is single-threaded and fully deterministic: a single virtual clock,
one event queue ordered by (time, schedule sequence), and labeled RNG streams
per purpose (arrivals, op kind, keys, payload sizes, graph choice, one per
directed edge, one per replica's processing). Identical (scenario, seed)
pairs produce identical logs. A run with one replication and one reading
graph draws no graph choice. One counter numbers the events in the order
they are emitted; under lww_arrival a write's ApplyEnd number is also the
arrival order its replica stores.

Traversal semantics
-------------------
Writes: the coordinator applies first (ApplyStart on arrival, ApplyEnd after
its sampled processing time, state mutated at ApplyEnd), then forwards a copy
along every outgoing cooperation edge with a sampled one-way delay. A vertex's
obligations are ack groups: its sync children are one group that needs all
of them, and each quorum group g rooted at it needs q_g of its members. A
vertex acknowledges its parent once it has applied and every group has its
acks; async children never block and send no ack. The op commits when the
root's obligations are met.

Reads: the query fans out along the reading edges on arrival (it carries no
data, so it travels while the local serve runs); each vertex's contribution
is its state snapshot at its own ApplyEnd after proc_read. Every vertex,
async children included, answers its parent with an ack that carries its
assembled contributions upward; a vertex assembles contributions until the
instant it responds, so acks arriving later (from async edges or quorum
stragglers) are logged and then ignored. The root's assembly is the
ReadReturn participant list. A write's ack carries no contributions.

Failures: a message (delivery or ack) reaching a crash-stopped replica is
dropped; one reaching a replica inside a crash-recovery window is queued and
processed FIFO at the recovery instant, as is any processing that would have
finished during the window. Data keeps propagating after an op commits or
times out; terminal events are emitted exactly once per op.

Zero sampled processing time completes within the arrival instant, before
any later-scheduled event at the same timestamp; acknowledgments travel over
the reverse edge's latency model with payload 0 (the forward model when the
topology lacks the reverse edge).

The run loop has three replica-addressed actions: a delivery, a local
ApplyEnd and an ack. Each passes one gate on the addressed replica's state
before it is handled: a stopped replica drops it, a recovering one queues
it, an up one handles it. A request reaching a stopped coordinator fails at
issue with COORDINATOR_DOWN.

Memory follows the live state of a run, not its length. The loop hands its
events out in chunks of ``_CHUNK_EVENTS`` and keeps none it has handed out.
A finished op is freed once no message of it is pending: the deadline of
an op already terminal leaves the timeout FIFO as soon as it reaches the
head, since firing it would do nothing. ``simulation_chunks`` is the
streaming entry point, and ``run_simulation`` collects the same chunks.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from heapq import heappop, heappush
from itertools import accumulate, chain, count

from . import strategies
from .distributions import StreamFactory
from .events import (ACK, APPLY_END, APPLY_START, GRAPH_CHOSEN, OP_COMMIT, OP_FAIL, OP_START, READ_RETURN,
                     REPLICA_DOWN, REPLICA_UP, WRITE, SimulationLog, gc_paused)
from .model import (
    ASYNC,
    CRASH_STOP,
    DEFAULT_OP_TIMEOUT,
    SYNC,
    CooperationModel,
    FailureEvent,
    ReplicaGraph,
    validate_scenario,
)
from .strategies import VersionRef
from .workload import WorkloadDriver, WorkloadSpec

FAIL_TIMEOUT = "TIMEOUT"
FAIL_COORDINATOR_DOWN = "COORDINATOR_DOWN"

# The loop hands its events out once it holds at least this many.
_CHUNK_EVENTS = 4096


class ScenarioInvalidError(Exception):
    def __init__(self, report):
        super().__init__("; ".join(str(v) for v in report.violations))
        self.report = report


# Scheduled action codes. The first three are addressed to replica b of the
# entry (t, tick, code, a, b, c) and pass the replica gate.
_A_ACK, _A_DELIVER, _A_APPLY_END, _A_ISSUE, _A_DOWN, _A_UP = range(6)

# Replica states read by the gate.
_UP, _RECOVERING, _STOPPED = range(3)

class _CompiledGraph:
    """Per-run view of one cooperation graph with prebound latency draws.

    need_of[v]: {group: acks needed}, the initial obligations of v (empty if
    none); its sync children are one group, keyed SYNC, that needs all of
    them. fwd_of[v]: list of (child, base draw, per-byte rate), empty at a
    leaf; up_of[v]: (parent, group or None for an async edge, ack draw) for
    non-root vertices.
    """

    __slots__ = ("id", "root", "need_of", "fwd_of", "up_of")

    def __init__(self, graph, streams, topology_edges):
        self.id = graph.id
        self.root = graph.root
        vertices = graph.vertices()
        self.need_of = {v: {} for v in vertices}
        self.fwd_of = {v: [] for v in vertices}
        self.up_of = {}
        for p, c, cls in graph.edges:
            model = topology_edges[(p, c)]
            draw = model.base.sampler(streams.stream(f"latency:{p}->{c}"))
            self.fwd_of[p].append((c, draw, model.per_byte_us))
            group = None
            if cls.kind == SYNC:
                group = SYNC
                need = self.need_of[p]
                need[SYNC] = need.get(SYNC, 0) + 1
            elif cls.kind != ASYNC:
                group = cls.group
                self.need_of[p][group] = graph.quorum_thresholds[group]
            back = topology_edges.get((c, p)) or model
            self.up_of[c] = (p, group, back.base.sampler(streams.stream(f"latency:{c}->{p}")))


# Per-(op, vertex) traversal state list indices.
_VS_APPLIED, _VS_NEED, _VS_RESPONDED, _VS_CONTRIBS = range(4)


def _simulate(topology, coop, failures, workload, strat, seed, op_timeout, final):
    """Run the event loop under strategy strat, yielding its events in chunks.

    Each chunk is a new list of at least _CHUNK_EVENTS events, the last one
    of any length. When the run ends, the canonical final stores fill final
    unless it is None.
    """
    apply, snapshot, resolve, vclocks = strat.apply, strat.snapshot, strat.resolve, strat.vclocks
    streams = StreamFactory(seed)
    driver = WorkloadDriver(workload, streams)
    next_request = driver.next_request

    n = len(topology.replicas)
    pw_draw = [None] * n
    pr_draw = [None] * n
    for r in topology.replicas:
        stream = streams.stream(f"proc:{r.id}")
        pw_draw[r.id] = r.proc_write.sampler(stream)
        pr_draw[r.id] = r.proc_read.sampler(stream)

    rep_graphs = [_CompiledGraph(g, streams, topology.edges) for g in coop.replication_graphs]
    read_graphs = [_CompiledGraph(g, streams, topology.edges) for g in coop.reading_graphs]
    rep_cum = list(accumulate(g.weight for g in coop.replication_graphs))
    read_cum = list(accumulate(g.weight for g in coop.reading_graphs))
    # with one graph of each kind no choice is drawn: it could pick no other
    graph_u = streams.stream("graph_choice").uniform if len(rep_graphs) > 1 or len(read_graphs) > 1 else None

    store = [dict() for _ in range(n)]
    replica_state = [_UP] * n
    queue: list[list] = [[] for _ in range(n)]
    epoch = [0] * n

    # client -> key -> causal context (a vclock dict); its entry for the client
    # itself is the counter of the client's last write on the key, since every
    # entry for the client that a read merges in names an earlier such write
    read_ctx = [dict() for _ in range(workload.n_clients)]

    events: list = []
    seq = count().__next__  # numbers every event of the run, from 0
    heap: list = []
    tick = count(1).__next__
    push = heappush
    pop = heappop
    # Closed-loop issue times are non-decreasing, so op deadlines are too;
    # timeouts live in a FIFO drained ahead of each dispatched event.
    timeouts: deque = deque()

    for ev in sorted(failures, key=lambda e: (e.at, e.replica)):
        push(heap, (ev.at, tick(), _A_DOWN, ev.replica, ev.kind, ev.down_for))
    for cid in range(workload.n_clients):
        req = next_request(cid, 0)
        if req is not None:
            push(heap, (req.issue_time, tick(), _A_ISSUE, req, None, None))

    # -- nested handlers over the closed-over state --------------------------

    def finish(t, op, kind, detail):
        """End op at t with its one terminal event and draw its client's next request."""
        op.terminal = True
        events.append((seq(), t, op.op_id, kind, (detail,)))
        req = next_request(op.client_id, t)
        if req is not None:
            push(heap, (req.issue_time, tick(), _A_ISSUE, req, None, None))

    def forward(t, op, v):
        """Send the op from v along each outgoing edge of its graph."""
        fwd = op.graph.fwd_of[v]
        if fwd:
            payload = op.payload_bytes
            for c, draw, per_byte in fwd:
                delay = draw()
                if per_byte:
                    delay += int(per_byte * payload + 0.5)
                push(heap, (t + delay, tick(), _A_DELIVER, op, c, None))

    def oblig(t, op, v):
        """Ack the parent / commit at the root once v's obligations are met."""
        vs = op.vstate[v]
        need = vs[_VS_NEED]
        if vs[_VS_RESPONDED] or not vs[_VS_APPLIED] or (need and max(need.values()) > 0):
            return
        vs[_VS_RESPONDED] = True
        graph = op.graph
        if v == graph.root:
            if op.terminal:
                return
            if op.kind != WRITE:
                contribs = vs[_VS_CONTRIBS]
                refs = resolve(contribs)
                events.append((seq(), t, op.op_id, READ_RETURN, (tuple(sorted(r for r, _ in contribs)), refs)))
                if vclocks and refs:
                    ctx = read_ctx[op.client_id].setdefault(op.key, {})
                    for ref in refs:
                        for cid, cnt in ref.vclock or ():
                            if ctx.get(cid, 0) < cnt:
                                ctx[cid] = cnt
            finish(t, op, OP_COMMIT, t - op.issue_time)
            return
        parent, group, ack_draw = graph.up_of[v]
        if group is None and op.kind == WRITE:
            return  # an async copy imposes no obligation and sends no ack
        push(heap, (t + ack_draw(), tick(), _A_ACK, op, parent, (v, vs[_VS_CONTRIBS])))

    def apply_end(t, op, v):
        """ApplyEnd at v: mutate or snapshot, fan a write's copies out, obligations."""
        vs = op.vstate[v]
        vs[_VS_APPLIED] = True
        n = seq()
        if op.kind == WRITE:
            events.append((n, t, op.op_id, APPLY_END, (v, op.write_id)))
            apply(store[v], op.key, op.ref, n)
            # the copy carries the applied data, so it leaves after ApplyEnd
            forward(t, op, v)
        else:
            state = store[v].get(op.key)
            snap, ids = (None, ()) if state is None else snapshot(state)
            events.append((n, t, op.op_id, APPLY_END, (v, ids)))
            vs[_VS_CONTRIBS].append((v, snap))
        oblig(t, op, v)

    def deliver(t, op, v):
        """Arrival of the op at up replica v."""
        events.append((seq(), t, op.op_id, APPLY_START, (v,)))
        is_write = op.kind == WRITE
        if not is_write:
            # a read query carries no data; it fans out on arrival while the
            # local serve (proc_read) proceeds in parallel
            forward(t, op, v)
        proc = (pw_draw[v] if is_write else pr_draw[v])()
        need = op.graph.need_of[v]
        op.vstate[v] = [False, dict(need) if need else None, False, []]
        if proc:
            push(heap, (t + proc, tick(), _A_APPLY_END, op, v, None))
        else:
            apply_end(t, op, v)

    def issue(t, op):
        """Run the driver's request op from t: choose its graph, stamp a write's ref."""
        is_write = op.kind == WRITE
        graphs, cum = (rep_graphs, rep_cum) if is_write else (read_graphs, read_cum)
        graph = graphs[min(bisect_right(cum, graph_u()), len(graphs) - 1)] if graph_u else graphs[0]
        vclock = None
        if is_write:
            if vclocks:
                ctx = read_ctx[op.client_id].setdefault(op.key, {})
                ctx[op.client_id] = ctx.get(op.client_id, 0) + 1
                vclock = tuple(sorted(ctx.items()))
            op.ref = VersionRef(op.write_id, op.client_id, op.issue_time, vclock)
        op.graph = graph
        op.vstate = {}
        events.append((seq(), t, op.op_id, OP_START, (op.client_id, op.kind, op.key, op.write_id, op.payload_bytes, op.warmup, vclock)))
        events.append((seq(), t, op.op_id, GRAPH_CHOSEN, (graph.id,)))

        root = graph.root
        if replica_state[root] == _STOPPED:
            finish(t, op, OP_FAIL, FAIL_COORDINATOR_DOWN)
            return
        if replica_state[root] == _UP:
            deliver(t, op, root)
        else:
            queue[root].append((_A_DELIVER, op, root, None))
        if not op.terminal:
            timeouts.append((t + op_timeout, op))

    # -- main dispatch loop ---------------------------------------------------

    while heap or timeouts:
        if len(events) >= _CHUNK_EVENTS:
            yield events
            events = []  # the handlers append through this closed-over name
        if timeouts and (timeouts[0][1].terminal or not heap or timeouts[0][0] <= heap[0][0]):
            # a deadline settles before any event of its instant, and firing
            # one may schedule the client's next request; that of a terminal
            # op does nothing, so it leaves at once and frees its op
            deadline, op = timeouts.popleft()
            if not op.terminal:
                finish(deadline, op, OP_FAIL, FAIL_TIMEOUT)
            continue
        t, _, code, a, b, c = pop(heap)
        if code < _A_ISSUE:
            # the replica gate: a stopped replica drops the action, a
            # recovering one queues it until its recovery instant
            st = replica_state[b]
            if st != _UP:
                if st == _RECOVERING:
                    queue[b].append((code, a, b, c))
                continue
            if code == _A_ACK:
                op = a
                child, contribs = c
                events.append((seq(), t, op.op_id, ACK, (b, child)))
                vs = op.vstate[b]
                if vs[_VS_RESPONDED]:
                    continue  # late ack: logged, then ignored
                vs[_VS_CONTRIBS].extend(contribs)
                group = op.graph.up_of[child][1]
                if group is not None:
                    vs[_VS_NEED][group] -= 1
                oblig(t, op, b)
            elif code == _A_DELIVER:
                deliver(t, a, b)
            else:
                apply_end(t, a, b)
        elif code == _A_ISSUE:
            issue(t, a)
        elif code == _A_DOWN:
            replica, kind, down_for = a, b, c
            events.append((seq(), t, None, REPLICA_DOWN, (replica,)))
            epoch[replica] += 1
            if kind == CRASH_STOP:
                replica_state[replica] = _STOPPED
                queue[replica] = []
            else:
                replica_state[replica] = _RECOVERING
                push(heap, (t + down_for, tick(), _A_UP, replica, epoch[replica], None))
        else:  # _A_UP
            replica, up_epoch = a, b
            if up_epoch != epoch[replica]:
                continue  # a later failure superseded this recovery
            events.append((seq(), t, None, REPLICA_UP, (replica,)))
            replica_state[replica] = _UP
            # Deferred work drains FIFO at the recovery instant; the drained
            # list is dropped at once, so it holds no op past its messages.
            for entry in queue[replica]:
                push(heap, (t, tick(), entry[0], entry[1], entry[2], entry[3]))
            queue[replica] = []

    if events:
        yield events
    if final is not None:
        # Canonical final stores for convergence checks and demos.
        canonical = strat.canonical
        final.update((rid, {key: canonical(state) for key, state in kv.items()}) for rid, kv in enumerate(store))


def simulation_chunks(
    topology: ReplicaGraph,
    coop: CooperationModel,
    failures: list[FailureEvent],
    workload: WorkloadSpec,
    strategy: str,
    seed: int,
    op_timeout: int = DEFAULT_OP_TIMEOUT,
    final_stores: dict | None = None,
) -> tuple[dict, Iterator[list]]:
    """Check one scenario and return (run metadata, its events in chunks).

    The chunks are lists of event tuples; chained, they are the events of
    ``run_simulation``. The run advances as they are consumed and holds no
    chunk it has handed out. When the run ends, the canonical final stores
    fill final_stores if it is given.

    Raises ScenarioInvalidError when validate_scenario reports violations
    (of op_timeout too) and ValueError for an unknown strategy, both before
    the first chunk.
    """
    strat = strategies.strategy(strategy)
    report = validate_scenario(topology, coop, failures, workload, op_timeout)
    if not report.ok:
        raise ScenarioInvalidError(report)
    meta = {
        "strategy": strategy,
        "seed": seed,
        "op_timeout_us": op_timeout,
        "graphs": {
            g.id: {"kind": g.kind, "root": g.root, "vertices": sorted(g.vertices())}
            for g in (*coop.replication_graphs, *coop.reading_graphs)
        },
    }
    return meta, _simulate(topology, coop, list(failures), workload, strat, seed, op_timeout, final_stores)


def run_simulation(
    topology: ReplicaGraph,
    coop: CooperationModel,
    failures: list[FailureEvent],
    workload: WorkloadSpec,
    strategy: str,
    seed: int,
    op_timeout: int = DEFAULT_OP_TIMEOUT,
) -> SimulationLog:
    """Execute one scenario and return the complete deterministic event log:
    the chunks of ``simulation_chunks`` in one list, and the final stores.

    Raises ScenarioInvalidError when validate_scenario reports violations
    (of op_timeout too) and ValueError for an unknown strategy.
    """
    final_stores: dict = {}
    meta, chunks = simulation_chunks(topology, coop, failures, workload, strategy, seed, op_timeout, final_stores)
    with gc_paused():
        events = list(chain.from_iterable(chunks))
    return SimulationLog(meta, events, final_stores)
