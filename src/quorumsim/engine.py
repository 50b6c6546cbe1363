"""Discrete-event execution of requests over cooperation graphs.

One run is single-threaded and fully deterministic: a single virtual clock,
one event queue ordered by (time, schedule sequence), and labeled RNG streams
per purpose (arrivals, op kind, keys, payload sizes, graph choice, one per
directed edge, one per replica's processing). Identical (scenario, seed)
pairs produce identical logs.

Traversal semantics
-------------------
Writes: the coordinator applies first (ApplyStart on arrival, ApplyEnd after
its sampled processing time, state mutated at ApplyEnd), then forwards a copy
along every outgoing cooperation edge with a sampled one-way delay. A vertex
acknowledges its parent once it has applied, every sync child has acked, and
every quorum group g rooted at it has at least q_g acks; async children never
block and send no ack. The op commits when the root's obligations are met.

Reads: the query fans out along the reading edges on arrival (it carries no
data, so it travels while the local serve runs); each vertex's contribution
is its state snapshot at its own ApplyEnd after proc_read. Responses double
as acks and carry contributions upward; a vertex assembles contributions
until the instant it responds, so responses arriving later (from async edges
or quorum stragglers) are logged but dropped from the assembly. The root's
assembly is the ReadReturn participant list.

Failures: a message (delivery, ack, or response) reaching a crash-stopped
replica is dropped; one reaching a replica inside a crash-recovery window is
queued and processed FIFO at the recovery instant, as is any processing that
would have finished during the window. Data keeps propagating after an op
commits or times out; terminal events are emitted exactly once per op.

Zero sampled processing time completes within the arrival instant, before
any later-scheduled event at the same timestamp; acknowledgments travel over
the reverse edge's latency model with payload 0 (the forward model when the
topology lacks the reverse edge).

The run loop is written as one flat dispatch over closed-over locals; it is
the measured hot path for large workloads and trades some indirection for
throughput.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from collections import deque
from heapq import heappop, heappush
from itertools import count

from . import strategies
from .distributions import StreamFactory
from .model import (
    ASYNC,
    CRASH_STOP,
    SYNC,
    CooperationModel,
    FailureEvent,
    ReplicaGraph,
    validate_scenario,
)
from .strategies import VersionRef
from .workload import WRITE, WorkloadDriver, WorkloadSpec

# Event kinds, in the order they may appear for one op.
OP_START = "op_start"
GRAPH_CHOSEN = "graph_chosen"
APPLY_START = "apply_start"
APPLY_END = "apply_end"
ACK = "ack_received"
READ_RETURN = "read_return"
OP_COMMIT = "op_commit"
OP_FAIL = "op_fail"
REPLICA_DOWN = "replica_down"
REPLICA_UP = "replica_up"

FAIL_TIMEOUT = "TIMEOUT"
FAIL_COORDINATOR_DOWN = "COORDINATOR_DOWN"

DEFAULT_OP_TIMEOUT = 10_000_000  # 10 s of virtual time


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the block.

    Simulation and analysis allocate millions of cycle-free tuples, so
    generational GC passes are pure overhead there. Nested use leaves the
    collector as the outermost block found it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class ScenarioInvalidError(Exception):
    def __init__(self, report):
        super().__init__("; ".join(str(v) for v in report.violations))
        self.report = report


@dataclass
class SimulationLog:
    """The totally ordered Stage-1 event stream plus run metadata.

    events are tuples (seq, time_us, op_id, kind, payload); payload layouts:
      op_start      (client_id, op_kind, key, write_id, payload_bytes, warmup, vclock)
      graph_chosen  (graph_id,)
      apply_start   (replica,)
      apply_end     (replica, write_id) for writes; (replica, value_write_ids) for reads
      ack_received  (parent, child)
      read_return   (participants, returned_refs)
      op_commit     (latency_us,)
      op_fail       (reason,)
      replica_down / replica_up  (replica,)

    final_stores maps replica -> key -> canonical state (diagnostic; not part
    of the serialized log).
    """

    meta: dict
    events: list
    final_stores: dict


# Edge synchronicity codes used by the compiled graphs.
_SYNC, _ASYNC, _QUORUM = 0, 1, 2

# Scheduled action codes, ordered by dispatch frequency.
_A_LEAF, _A_ACK, _A_RESP, _A_ISSUE, _A_DELIVER, _A_APPLY_END, _A_DOWN, _A_UP = range(8)

class _CompiledGraph:
    """Per-run view of one cooperation graph with prebound latency draws.

    node[v]: (is_inner, sync children count, {group: threshold} or None);
    inner vertices (the root and vertices with children) track obligation
    state. fwd_of[v]: tuple of (child, base draw, per-byte rate) or None;
    up_of[v]: (parent, mode, group, ack draw) for non-root vertices.
    """

    __slots__ = ("id", "kind", "root", "node", "fwd_of", "up_of", "vertices")

    def __init__(self, graph, streams, topology_edges):
        self.id = graph.id
        self.kind = graph.kind
        self.root = graph.root
        kids: dict[int, list] = {}
        sync_need: dict[int, int] = {}
        group_need: dict[int, dict[int, int]] = {}
        up: dict[int, tuple[int, int, int | None]] = {}
        for p, c, cls in graph.edges:
            if cls.kind == SYNC:
                mode, group = _SYNC, None
                sync_need[p] = sync_need.get(p, 0) + 1
            elif cls.kind == ASYNC:
                mode, group = _ASYNC, None
            else:
                mode, group = _QUORUM, cls.group
                group_need.setdefault(p, {})[group] = graph.quorum_thresholds[group]
            kids.setdefault(p, []).append(c)
            up[c] = (p, mode, group)
        self.vertices = frozenset(graph.vertices())
        self.node = {
            v: (v == graph.root or v in kids, sync_need.get(v, 0), group_need.get(v))
            for v in self.vertices
        }
        self.fwd_of = {}
        self.up_of = {}
        for v in self.vertices:
            children = kids.get(v)
            if children:
                entries = []
                for c in children:
                    model = topology_edges[(v, c)]
                    draw = model.base.sampler(streams.stream(f"latency:{v}->{c}"))
                    entries.append((c, draw, model.per_byte_us))
                self.fwd_of[v] = tuple(entries)
            else:
                self.fwd_of[v] = None
            if v != graph.root:
                p, mode, group = up[v]
                model = topology_edges.get((v, p)) or topology_edges[(p, v)]
                ack_draw = model.base.sampler(streams.stream(f"latency:{v}->{p}"))
                self.up_of[v] = (p, mode, group, ack_draw)


class _Op:
    __slots__ = ("op_id", "client", "kind", "is_write", "key", "write_id", "ref", "payload", "graph", "start", "terminal", "vstate", "warmup")

    def __init__(self, req, graph, ref):
        self.op_id = req.op_id
        self.client = req.client_id
        self.kind = req.kind
        self.is_write = req.kind == WRITE
        self.key = req.key
        self.write_id = req.write_id
        self.ref = ref
        self.payload = req.payload_bytes
        self.graph = graph
        self.start = req.issue_time
        self.terminal = False
        self.vstate = {}
        self.warmup = req.warmup


# Per-(op, vertex) traversal state list indices.
_VS_APPLIED, _VS_SYNC, _VS_GROUPS, _VS_RESPONDED, _VS_CONTRIBS = range(5)


def _cumulative(weights):
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)
    return cum


def _simulate(topology, coop, failures, workload, strat, seed, op_timeout):
    """Run the event loop under strategy strat; returns (events, final stores)."""
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
    rep_cum = _cumulative([g.weight for g in coop.replication_graphs])
    read_cum = _cumulative([g.weight for g in coop.reading_graphs])
    rep_last = len(rep_cum) - 1
    read_last = len(read_cum) - 1
    graph_u = streams.stream("graph_choice").uniform

    store = [dict() for _ in range(n)]
    alive = [True] * n
    dead = [False] * n
    queue: list[list] = [[] for _ in range(n)]
    epoch = [0] * n

    read_ctx = [dict() for _ in range(workload.n_clients)]  # client -> key -> vclock dict
    write_ctr = [dict() for _ in range(workload.n_clients)]  # client -> key -> own counter

    events: list = []
    ev_n = -1  # seq of the last emitted event; always == len(events) - 1
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

    def client_next(client, t):
        req = next_request(client, t)
        if req is not None:
            push(heap, (req.issue_time, tick(), _A_ISSUE, req, None, None))

    def finish_leaf(t, op, v):
        """ApplyEnd at a childless non-root vertex: mutate/snapshot and ack."""
        nonlocal ev_n
        ev_n += 1
        if op.is_write:
            events.append((ev_n, t, op.op_id, APPLY_END, (v, op.write_id)))
            apply(store[v], op.key, op.ref, ev_n)
            parent, mode, _, ack_draw = op.graph.up_of[v]
            if mode != _ASYNC:
                push(heap, (t + ack_draw(), tick(), _A_ACK, op, parent, v))
        else:
            state = store[v].get(op.key)
            snap, ids = (None, ()) if state is None else snapshot(state)
            events.append((ev_n, t, op.op_id, APPLY_END, (v, ids)))
            parent, _, _, ack_draw = op.graph.up_of[v]
            push(heap, (t + ack_draw(), tick(), _A_RESP, op, parent, (v, [(v, snap)])))

    def oblig(t, op, v):
        """Ack the parent / commit at the root once v's obligations are met."""
        nonlocal ev_n
        vs = op.vstate[v]
        if vs[_VS_RESPONDED] or not vs[_VS_APPLIED] or vs[_VS_SYNC] > 0:
            return
        groups = vs[_VS_GROUPS]
        if groups:
            for rem in groups.values():
                if rem > 0:
                    return
        vs[_VS_RESPONDED] = True
        graph = op.graph
        if v == graph.root:
            if op.terminal:
                return
            op.terminal = True
            if not op.is_write:
                contribs = vs[_VS_CONTRIBS]
                participants = sorted(r for r, _ in contribs)
                returned = resolve(contribs)
                refs = tuple(r for r in returned if r.write_id >= 0)
                ev_n += 1
                events.append((ev_n, t, op.op_id, READ_RETURN, (tuple(participants), refs)))
                if vclocks and refs:
                    ctx = read_ctx[op.client].setdefault(op.key, {})
                    for ref in refs:
                        for cid, cnt in ref.vclock or ():
                            if ctx.get(cid, 0) < cnt:
                                ctx[cid] = cnt
            ev_n += 1
            events.append((ev_n, t, op.op_id, OP_COMMIT, (t - op.start,)))
            client_next(op.client, t)
            return
        parent, mode, _, ack_draw = graph.up_of[v]
        if op.is_write:
            if mode == _ASYNC:
                return  # async children impose no obligation and send no ack
            push(heap, (t + ack_draw(), tick(), _A_ACK, op, parent, v))
        else:
            push(heap, (t + ack_draw(), tick(), _A_RESP, op, parent, (v, vs[_VS_CONTRIBS])))

    def apply_end(t, op, v):
        """ApplyEnd at the root or an inner vertex: mutate, fan out copies, obligations."""
        nonlocal ev_n
        vs = op.vstate[v]
        vs[_VS_APPLIED] = True
        key = op.key
        ev_n += 1
        if op.is_write:
            events.append((ev_n, t, op.op_id, APPLY_END, (v, op.write_id)))
            apply(store[v], key, op.ref, ev_n)
            # the copy carries the applied data, so it leaves after ApplyEnd
            fwd = op.graph.fwd_of[v]
            if fwd:
                payload = op.payload
                node = op.graph.node
                for c, draw, per_byte in fwd:
                    delay = draw()
                    if per_byte:
                        delay += int(per_byte * payload + 0.5)
                    push(heap, (t + delay, tick(), _A_DELIVER if node[c][0] else _A_LEAF, op, c, None))
        else:
            state = store[v].get(key)
            snap, ids = (None, ()) if state is None else snapshot(state)
            events.append((ev_n, t, op.op_id, APPLY_END, (v, ids)))
            vs[_VS_CONTRIBS].append((v, snap))
        oblig(t, op, v)

    def deliver(t, op, v):
        """Arrival of the op at alive vertex v."""
        nonlocal ev_n
        ev_n += 1
        events.append((ev_n, t, op.op_id, APPLY_START, (v,)))
        if not op.is_write:
            # a read query carries no data; it fans out on arrival while the
            # local serve (proc_read) proceeds in parallel
            fwd = op.graph.fwd_of[v]
            if fwd:
                payload = op.payload
                node = op.graph.node
                for c, draw, per_byte in fwd:
                    delay = draw()
                    if per_byte:
                        delay += int(per_byte * payload + 0.5)
                    push(heap, (t + delay, tick(), _A_DELIVER if node[c][0] else _A_LEAF, op, c, None))
        proc = (pw_draw[v] if op.is_write else pr_draw[v])()
        inner, sync_need, group_need = op.graph.node[v]
        if inner:
            op.vstate[v] = [False, sync_need, dict(group_need) if group_need else None, False, []]
            if proc:
                push(heap, (t + proc, tick(), _A_APPLY_END, op, v, None))
            else:
                apply_end(t, op, v)
        elif proc:
            push(heap, (t + proc, tick(), _A_APPLY_END, op, v, None))
        else:
            finish_leaf(t, op, v)

    def issue(t, req):
        if req.kind == WRITE:
            u = graph_u()
            gi = 0
            while gi < rep_last and u >= rep_cum[gi]:
                gi += 1
            graph = rep_graphs[gi]
            vclock = None
            if vclocks:
                ctr = write_ctr[req.client_id]
                ctr[req.key] = ctr.get(req.key, 0) + 1
                ctx = read_ctx[req.client_id].setdefault(req.key, {})
                ctx[req.client_id] = ctr[req.key]
                vclock = tuple(sorted(ctx.items()))
            ref = VersionRef(req.write_id, req.client_id, req.client_timestamp, vclock)
        else:
            u = graph_u()
            gi = 0
            while gi < read_last and u >= read_cum[gi]:
                gi += 1
            graph = read_graphs[gi]
            ref = None
            vclock = None

        nonlocal ev_n
        op = _Op(req, graph, ref)
        events.append((ev_n + 1, t, op.op_id, OP_START, (req.client_id, req.kind, req.key, req.write_id, req.payload_bytes, req.warmup, vclock)))
        events.append((ev_n + 2, t, op.op_id, GRAPH_CHOSEN, (graph.id,)))
        ev_n += 2

        root = graph.root
        if dead[root]:
            op.terminal = True
            ev_n += 1
            events.append((ev_n, t, op.op_id, OP_FAIL, (FAIL_COORDINATOR_DOWN,)))
            client_next(op.client, t)
            return
        if alive[root]:
            deliver(t, op, root)
        else:
            queue[root].append((_A_DELIVER, op, root, None))
        if not op.terminal:
            timeouts.append((t + op_timeout, op))

    # -- main dispatch loop ---------------------------------------------------

    def fire_timeout():
        nonlocal ev_n
        deadline, op = timeouts.popleft()
        op.terminal = True
        ev_n += 1
        events.append((ev_n, deadline, op.op_id, OP_FAIL, (FAIL_TIMEOUT,)))
        client_next(op.client, deadline)

    while heap or timeouts:
        if not heap:
            if timeouts[0][1].terminal:
                timeouts.popleft()
            else:
                fire_timeout()  # may schedule the client's next request
            continue
        entry = pop(heap)
        t, _, code, a, b, c = entry
        if timeouts and timeouts[0][0] <= t:
            # settle deadlines due not later than this event; a firing one may
            # schedule earlier work, so revisit the event through the heap
            while timeouts and timeouts[0][0] <= t and timeouts[0][1].terminal:
                timeouts.popleft()
            if timeouts and timeouts[0][0] <= t:
                push(heap, entry)
                fire_timeout()
                continue
        if code == _A_LEAF:
            # delivery at a childless non-root vertex: apply and ack inline
            if dead[b]:
                continue
            if not alive[b]:
                queue[b].append((code, a, b, c))
                continue
            op = a
            ev_n += 1
            events.append((ev_n, t, op.op_id, APPLY_START, (b,)))
            proc = (pw_draw[b] if op.is_write else pr_draw[b])()
            if proc:
                push(heap, (t + proc, tick(), _A_APPLY_END, op, b, None))
            else:
                finish_leaf(t, op, b)
        elif code == _A_DELIVER:
            if dead[b]:
                continue
            if alive[b]:
                deliver(t, a, b)
            else:
                queue[b].append((code, a, b, c))
        elif code == _A_ACK:
            if dead[b]:
                continue
            if not alive[b]:
                queue[b].append((code, a, b, c))
                continue
            op = a
            ev_n += 1
            events.append((ev_n, t, op.op_id, ACK, (b, c)))
            vs = op.vstate[b]
            mode, group = op.graph.up_of[c][1:3]
            if mode == _SYNC:
                vs[_VS_SYNC] -= 1
            elif mode == _QUORUM:
                vs[_VS_GROUPS][group] -= 1
            oblig(t, op, b)
        elif code == _A_RESP:
            if dead[b]:
                continue
            if not alive[b]:
                queue[b].append((code, a, b, c))
                continue
            op = a
            child, contribs = c
            ev_n += 1
            events.append((ev_n, t, op.op_id, ACK, (b, child)))
            vs = op.vstate[b]
            if vs[_VS_RESPONDED]:
                continue  # late response: logged, but dropped from the assembly
            vs[_VS_CONTRIBS].extend(contribs)
            mode, group = op.graph.up_of[child][1:3]
            if mode == _SYNC:
                vs[_VS_SYNC] -= 1
            elif mode == _QUORUM:
                vs[_VS_GROUPS][group] -= 1
            oblig(t, op, b)
        elif code == _A_ISSUE:
            issue(t, a)
        elif code == _A_APPLY_END:
            op, v = a, b
            if dead[v]:
                continue
            if not alive[v]:
                queue[v].append((code, a, b, c))
            elif op.graph.node[v][0]:
                apply_end(t, op, v)
            else:
                finish_leaf(t, op, v)
        elif code == _A_DOWN:
            replica, kind, down_for = a, b, c
            ev_n += 1
            events.append((ev_n, t, None, REPLICA_DOWN, (replica,)))
            alive[replica] = False
            epoch[replica] += 1
            if kind == CRASH_STOP:
                dead[replica] = True
                queue[replica] = []
            else:
                push(heap, (t + down_for, tick(), _A_UP, replica, epoch[replica], None))
        else:  # _A_UP
            replica, up_epoch = a, b
            if dead[replica] or up_epoch != epoch[replica]:
                continue  # a later failure superseded this recovery
            ev_n += 1
            events.append((ev_n, t, None, REPLICA_UP, (replica,)))
            alive[replica] = True
            # Deferred work drains FIFO at the recovery instant.
            pending, queue[replica] = queue[replica], []
            for entry in pending:
                push(heap, (t, tick(), entry[0], entry[1], entry[2], entry[3]))

    # Canonical final stores for convergence checks and demos.
    canonical = strat.canonical
    final = {rid: {key: canonical(state) for key, state in kv.items()} for rid, kv in enumerate(store)}
    return events, final


def run_simulation(
    topology: ReplicaGraph,
    coop: CooperationModel,
    failures: list[FailureEvent],
    workload: WorkloadSpec,
    strategy: str,
    seed: int,
    op_timeout: int = DEFAULT_OP_TIMEOUT,
) -> SimulationLog:
    """Execute one scenario and return the complete deterministic event log.

    Raises ScenarioInvalidError when validate_scenario reports violations and
    ValueError for an unknown strategy or non-positive timeout.
    """
    strat = strategies.strategy(strategy)
    if op_timeout <= 0:
        raise ValueError(f"op_timeout must be positive, got {op_timeout}")
    report = validate_scenario(topology, coop, failures, workload)
    if not report.ok:
        raise ScenarioInvalidError(report)
    with gc_paused():
        events, final_stores = _simulate(topology, coop, list(failures), workload, strat, seed, op_timeout)
    meta = {
        "strategy": strategy,
        "seed": seed,
        "op_timeout_us": op_timeout,
        "graphs": {
            g.id: {"kind": g.kind, "root": g.root, "vertices": sorted(g.vertices())}
            for g in (*coop.replication_graphs, *coop.reading_graphs)
        },
    }
    return SimulationLog(meta, events, final_stores)
