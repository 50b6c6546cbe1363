"""Conflict-resolution strategies: the one place a strategy's semantics live.

``strategy(name)`` returns one of four objects: last-write-wins by
per-replica arrival order or by client timestamp (write id as tiebreak),
write sets, and competing writes kept as the maximal antichain under
vector-clock dominance. A replica's state per key is, in that order,
(ref, arrival seq), a ref, a tuple of every applied ref or a tuple of heads;
both tuples are in write-id order.

The engine binds ``apply`` (a write, in place), ``snapshot`` (a read of one
replica), ``resolve`` (a read's result from its non-empty contributions, a
tuple, empty when none holds a version), ``canonical`` (the final store)
and the ``vclocks`` flag once per run. A many-version snapshot is the state
tuple itself, so ``resolve`` takes tuples in write-id order, with one ref
object per write id (the engine makes one per write). Under write_set, a
read with one contribution that holds versions returns that tuple itself,
with no merge: ``apply`` puts a new tuple in the store and never mutates a
state, so a returned tuple stays as it was read. competing_writes merges
even one contribution, so its result is the antichain of heads without
assuming that the snapshot already is one.

Stage 3 asks whether a result "reflects" a write: order-key dominance under
LWW, set inclusion under write_set, vector-clock dominance under
competing_writes. An LWW order key is (client timestamp, write id) for
lww_timestamp and the commit order (commit time, write id) for lww_arrival,
with uncommitted versions below every committed one and the initial version
below everything. ``misses`` checks a read against a prefix of committed
writes through ``marks``: the running maximum order key, the write ids or
the highest counter per writer. ``judge(reads)`` gives the object that
judges one log's reads, whose ``returned`` holds the op table's records of
the writes they returned: under LWW one that holds each read's order key,
under competing_writes one that holds each read's frontier, and under
write_set one that needs neither.

Dots. The engine keeps one causal context per (writer, key) and makes a
write's clock that context with the writer's own entry raised by one, so
each write has a counter one above its writer's last one on the key (no
read brings in a higher entry for the writer). So a write is named by
its dot (writer c, counter n), and a clock A built from such clocks
dominates write (c, n) iff A[c] >= n (Preguiça et al., "Dotted Version
Vectors", arXiv:1011.5808). The engine's ``apply`` and ``resolve`` use this
test, so one head costs a lookup, not a walk over two clocks. Stage 3 uses
it too, and a log with vector clocks must have the dot shape
(``optable.check_dots``) before any of its reads is judged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import attrgetter, itemgetter

LWW_ARRIVAL = "lww_arrival"
LWW_TIMESTAMP = "lww_timestamp"
WRITE_SET = "write_set"
COMPETING_WRITES = "competing_writes"
STRATEGIES = (LWW_ARRIVAL, LWW_TIMESTAMP, WRITE_SET, COMPETING_WRITES)


@dataclass(frozen=True, slots=True)
class VersionRef:
    """Identity of one write as stored and returned by replicas.

    vclock is a canonical sorted tuple of (client_id, counter) pairs, present
    only under the competing-writes strategy.
    """

    write_id: int
    client_id: int
    client_timestamp: int
    vclock: tuple[tuple[int, int], ...] | None = None


_write_id = attrgetter("write_id")
_INITIAL_KEY = (-1,)  # below the order key of every version
_NO_CONTRIBUTIONS = "contributions must be non-empty"


def _entry(vclock, cid) -> int:
    """vclock's entry for client cid (0 if missing), by bisection of the sorted pairs."""
    i = bisect_left(vclock, (cid,))
    return vclock[i][1] if i < len(vclock) and vclock[i][0] == cid else 0


def _add_head(heads, ref) -> tuple:
    """The antichain heads (engine-built refs, by write id) with ref added.

    A clock dominates a write iff its entry for the write's writer reaches
    the write's counter, so each head costs a lookup in ref's clock and a
    bisection of its own.
    """
    seen = dict(ref.vclock).get
    # a head's counter is its clock's entry for its own writer
    kept = [h for h in heads if seen(h.client_id, 0) < _entry(h.vclock, h.client_id)]
    c = ref.client_id
    n = seen(c, 0)
    if len(kept) < len(heads) or not any(_entry(h.vclock, c) >= n for h in kept):
        # if ref dominated a head, no head dominates it (heads are an antichain)
        kept.append(ref)
        kept.sort(key=_write_id)
    return tuple(kept)


def _last_unseen_by_rank(ranked, writes, write_key, last) -> None:
    """last[w.op_id] for each committed write w: the latest return among the
    reads ranked below write_key(w), if not before w's commit. ranked holds
    one (rank, return time) pair per read; a read misses w iff its rank is
    below w's."""
    ranked.sort()
    keys = [k for k, _ in ranked]
    latest = list(accumulate((t for _, t in ranked), max))
    for w in writes:
        below = bisect_left(keys, write_key(w))
        if below and latest[below - 1] >= w.commit_us:
            last[w.op_id] = latest[below - 1]


class _Strategy:
    vclocks = False
    version_order = None

    def __init__(self, reads=()):
        """The strategy, or with reads (op table records) the judge of them."""

    def judge(self, reads):
        return type(self)(reads)

    def snapshot(self, state):
        return state, tuple(map(_write_id, state))  # a many-version state is a tuple by write id

    canonical = staticmethod(lambda state: state)


class _LastWriteWins(_Strategy):
    """One version per key, totally ordered by order key.

    A replica keeps the state whose ``order`` is largest and returns the ref
    it holds, ``canonical(state)``; ``stored(ref, seq)`` is the state of a
    write applied as event seq.

    ``judge(reads)`` keeps the order key of each read's result: the
    largest ``write_key`` of its returned writes.
    """

    def __init__(self, reads=()):
        self.key = {r.op_id: max(map(self.write_key, r.returned), default=_INITIAL_KEY) for r in reads}

    def apply(self, kv, key, ref, seq):
        new, cur = self.stored(ref, seq), kv.get(key)
        if cur is None or self.order(new) > self.order(cur):
            kv[key] = new

    def snapshot(self, state):
        return state, (self.canonical(state).write_id,)

    def resolve(self, contribs):
        if not contribs:
            raise ValueError(_NO_CONTRIBUTIONS)
        snaps = [snap for _, snap in contribs if snap is not None]
        return (self.canonical(max(snaps, key=self.order)),) if snaps else ()

    def marks(self, writes):
        return list(accumulate(map(self.write_key, writes), max))

    def misses(self, read, marks, hi):
        return self.key[read.op_id] < marks[hi - 1]

    def mrc(self, session):
        running = _INITIAL_KEY
        for r in session:
            key = self.key[r.op_id]
            if key < running:
                yield r.op_id
            else:
                running = key

    def unseen(self, order, reads, last):
        """A read misses w iff its order key is below w's, so the answer is
        the latest return among the reads ranked below w, if not before w's
        commit."""
        ranked = [(self.key[r.op_id], r.commit_us) for r in reads]
        _last_unseen_by_rank(ranked, order.writes, self.write_key, last)


class _LwwArrival(_LastWriteWins):
    """A state is (ref, seq) and orders by (seq, write id), so a replica
    keeps the write it applied last: seq rises with every ApplyEnd."""

    name = LWW_ARRIVAL
    stored = staticmethod(lambda ref, seq: (ref, seq))
    order = staticmethod(lambda state: (state[1], state[0].write_id))
    canonical = staticmethod(itemgetter(0))

    def write_key(self, w):
        c = w.commit_us  # an uncommitted write is below every committed one
        return (0, 0, c, w.write_id) if c is not None else (0, -1, 0, w.write_id)


class _LwwTimestamp(_LastWriteWins):
    """A state is the ref itself, ordered by (client timestamp, write id)."""

    name = LWW_TIMESTAMP
    stored = staticmethod(lambda ref, seq: ref)
    order = staticmethod(attrgetter("client_timestamp", "write_id"))

    def write_key(self, w):
        return (0, w.start, w.write_id)  # a write's client timestamp is its issue instant


class _WriteSet(_Strategy):
    """Many versions per key; a result reflects each write it returns."""

    name = WRITE_SET

    def apply(self, kv, key, ref, seq):
        state = kv.get(key, ())
        i = bisect_left(state, ref.write_id, key=_write_id)
        kv[key] = state[:i] + (ref,) + state[i:]  # a replica applies each write once: graphs are trees

    def resolve(self, contribs):
        if not contribs:
            raise ValueError(_NO_CONTRIBUTIONS)
        snaps = [snap for _, snap in contribs if snap]
        if len(snaps) == 1:
            return snaps[0]  # a replica's state tuple: apply replaces it, never mutates it
        by_id: dict[int, VersionRef] = {}
        for snap in snaps:
            by_id.update(zip(map(_write_id, snap), snap))
        return tuple([by_id[i] for i in sorted(by_id)])

    def marks(self, writes):
        return [w.write_id for w in writes]

    def reflects(self, returned):
        return {w.write_id for w in returned}.__contains__

    def misses(self, read, marks, hi):
        # stops at the first mark not reflected, so a read costs
        # O(returned writes), not O(hi)
        return not all(map(self.reflects(read.returned), islice(marks, hi)))

    def mrc(self, session):
        running: set[int] = set()
        for r in session:
            ids = {w.write_id for w in r.returned}
            if not running <= ids:
                yield r.op_id
            running |= ids

    def unseen(self, order, reads, last):
        """The reads latest first, over the writes still unresolved. A read's
        eligible writes (committed by its return) are a prefix of the commit
        order that only shrinks; each one the read misses is resolved at its
        return, and the rest stay pending. Every write kept is one of the
        read's returned writes."""
        marks = order.marks
        pending = list(range(len(marks)))  # unresolved positions, ascending
        for r in sorted(reads, key=lambda r: r.commit_us, reverse=True):
            del pending[bisect_left(pending, order.upto(r.commit_us)):]
            if not pending:
                break
            reflects = self.reflects(r.returned)
            kept = []
            for i in pending:
                if reflects(marks[i]):
                    kept.append(i)
                else:
                    last[order.writes[i].op_id] = r.commit_us
            pending = kept


def _frontier(writes) -> dict:
    """client -> the largest entry any of writes' clocks has for it."""
    out: dict[int, int] = {}
    for w in writes:
        for cid, n in w.vclock:
            if out.get(cid, 0) < n:
                out[cid] = n
    return out


class _CompetingWrites(_Strategy):
    """Competing writes, judged by dots.

    ``judge(reads)`` reduces each read once to its frontier F, the
    elementwise maximum of its returned clocks; it reflects write (c, n) iff
    F[c] >= n. A group's mark at a position of its commit order is the
    highest counter each writer has committed up to there, so a read misses
    a write of the prefix iff F falls below the mark of its last position
    for some writer.
    """

    name = COMPETING_WRITES
    vclocks = True
    version_order = "vector-clock dominance (partial order) generalizes the total version order"

    def __init__(self, reads=()):
        self.frontier = {r.op_id: _frontier(r.returned) for r in reads}

    def apply(self, kv, key, ref, seq):
        kv[key] = _add_head(kv.get(key) or (), ref)

    def resolve(self, contribs):
        if not contribs:
            raise ValueError(_NO_CONTRIBUTIONS)
        heads = ()
        for _, snap in contribs:
            for ref in snap or ():
                heads = _add_head(heads, ref)
        return heads

    def marks(self, writes):
        writers = sorted({w.client for w in writes})
        slot = {c: i for i, c in enumerate(writers)}
        top = [0] * len(writers)
        tops = []
        for w in writes:
            i = slot[w.client]
            top[i] = max(top[i], _entry(w.vclock, w.client))
            tops.append(tuple(top))
        return writers, tops

    def misses(self, read, marks, hi):
        writers, tops = marks
        seen = self.frontier[read.op_id].get
        return any(seen(c, 0) < n for c, n in zip(writers, tops[hi - 1]))

    def mrc(self, session):
        running: dict[int, int] = {}  # the frontier of the session's reads so far
        for r in session:
            seen = self.frontier[r.op_id]
            if any(seen.get(c, 0) < n for c, n in running.items()):
                yield r.op_id
            for c, n in seen.items():
                if running.get(c, 0) < n:
                    running[c] = n

    def unseen(self, order, reads, last):
        """A session's writes share one writer c: a read misses write (c, n)
        iff its frontier's entry for c is below n, a total order as under LWW."""
        c = order.writes[0].client
        ranked = [(self.frontier[r.op_id].get(c, 0), r.commit_us) for r in reads]
        _last_unseen_by_rank(ranked, order.writes, lambda w: _entry(w.vclock, c), last)


_BY_NAME = {s.name: s for s in (_LwwArrival(), _LwwTimestamp(), _WriteSet(), _CompetingWrites())}


def strategy(name: str):
    """The strategy object named name; ValueError for an unknown name."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    return _BY_NAME[name]
