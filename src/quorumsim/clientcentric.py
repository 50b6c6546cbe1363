"""Staleness and session-guarantee violation detection per client session.

Everything here is a pure function of (log, strategy) and is computed post
hoc over the complete log. "Reflects" is strategy-relative: order-key
dominance for the LWW strategies, set inclusion for write_set, and vector
clock dominance for competing_writes. Under the LWW strategies a version's
order key is (client_timestamp, write_id) for lww_timestamp and the commit
order (commit time, write_id) for lww_arrival, with uncommitted versions
ranking below every committed one and the initial version below everything.

A read's staleness reference point is its issue instant: the read is stale
iff its result fails to reflect some write committed at or before that
instant. Warmup ops take part in session context but are excluded from
every numerator and denominator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import attrgetter

from .engine import (
    APPLY_END,
    COMPETING_WRITES,
    LWW_ARRIVAL,
    LWW_TIMESTAMP,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    READ_RETURN,
    WRITE_SET,
    VersionRef,
    merge_heads,
    vclock_dominates,
)
from .errors import MalformedLogError
from .workload import READ, WRITE

_INITIAL_KEY = (-1,)
_LWW = (LWW_TIMESTAMP, LWW_ARRIVAL)
# parse dispatch: 1 apply_end, 2 op_start, 3 read_return, 4 commit, 5 fail
_KIND_CODE = {APPLY_END: 1, OP_START: 2, READ_RETURN: 3, OP_COMMIT: 4, OP_FAIL: 5}


@dataclass(frozen=True)
class WriteRecord:
    """One write on a key, as seen by the detectors."""

    write_id: int
    client_id: int
    client_timestamp: int
    commit_us: int | None
    vclock: tuple | None = None


@dataclass(frozen=True)
class ReadVerdict:
    op_id: int
    client_id: int
    key: int
    start_us: int
    stale: bool
    mrc: bool
    rywc: bool
    returned_write_ids: tuple[int, ...]
    fresh_write_ids: tuple[int, ...]
    warmup: bool = False


@dataclass(slots=True)
class _ReadInfo:
    op_id: int
    client: int
    key: int
    start: int
    warmup: bool
    returned: tuple = ()
    return_time: int | None = None
    commit_us: int | None = None


@dataclass(slots=True)
class _WriteInfo:
    op_id: int
    client: int
    key: int
    start: int
    warmup: bool
    write_id: int
    client_ts: int
    vclock: tuple | None
    commit_us: int | None = None
    applies: dict = field(default_factory=dict)  # replica -> (time, seq)


def _event_list(log):
    return log.events if hasattr(log, "events") else log


def _parse_ops(log):
    """Single pass over events in any order: reads, writes, terminals."""
    reads: dict[int, _ReadInfo] = {}
    writes: dict[int, _WriteInfo] = {}
    pending: list = []
    kind_code = _KIND_CODE
    for ev in _event_list(log):
        code = kind_code.get(ev[3])
        if code is None:
            continue
        op_id = ev[2]
        if op_id is None:
            continue
        if code == 1:
            w = writes.get(op_id)
            if w is not None:
                w.applies[ev[4][0]] = (ev[1], ev[0])
            elif op_id not in reads:
                pending.append(ev)
        elif code == 2:
            t = ev[1]
            client, op_kind, key, write_id, _, warmup, vclock = ev[4]
            if op_kind == WRITE:
                writes[op_id] = _WriteInfo(op_id, client, key, t, warmup, write_id, t, vclock)
            elif op_kind == READ:
                reads[op_id] = _ReadInfo(op_id, client, key, t, warmup)
        elif code == 3:
            r = reads.get(op_id)
            if r is None:
                pending.append(ev)
            else:
                r.returned = tuple(ev[4][1])
                r.return_time = ev[1]
        elif code == 4:
            if op_id in writes:
                writes[op_id].commit_us = ev[1]
            elif op_id in reads:
                reads[op_id].commit_us = ev[1]
            else:
                pending.append(ev)
        elif op_id not in writes and op_id not in reads:
            pending.append(ev)
    # Shuffled logs only: events seen before their op_start.
    for ev in pending:
        seq, t, op_id, kind, payload = ev
        if kind == APPLY_END:
            w = writes.get(op_id)
            if w is not None:
                w.applies[payload[0]] = (t, seq)
            elif op_id not in reads:
                raise MalformedLogError(f"apply_end for unknown op {op_id}")
        elif kind == READ_RETURN:
            r = reads.get(op_id)
            if r is None:
                raise MalformedLogError(f"read_return for unknown op {op_id}")
            r.returned = tuple(payload[1])
            r.return_time = t
        elif kind == OP_COMMIT:
            if op_id in writes:
                writes[op_id].commit_us = t
            elif op_id in reads:
                reads[op_id].commit_us = t
            else:
                raise MalformedLogError(f"terminal event for unknown op {op_id}")
        elif op_id not in writes and op_id not in reads:
            raise MalformedLogError(f"terminal event for unknown op {op_id}")
    return reads, writes


def commit_timestamps(log) -> dict[int, int]:
    """write_id -> commit instant, committed writes only."""
    _, writes = _parse_ops(log)
    return {w.write_id: w.commit_us for w in writes.values() if w.commit_us is not None}


# -- strategy order keys and reflection --------------------------------------

def _returned_key(strategy: str, refs, commit_map):
    """Order key of a read result under an LWW strategy."""
    best = _INITIAL_KEY
    if strategy == LWW_TIMESTAMP:
        for r in refs:
            k = (0, r.client_timestamp, r.write_id)
            if k > best:
                best = k
    else:
        for r in refs:
            c = commit_map.get(r.write_id)
            k = (0, 0, c, r.write_id) if c is not None else (0, -1, 0, r.write_id)
            if k > best:
                best = k
    return best


def _write_key(strategy: str, w):
    if strategy == LWW_TIMESTAMP:
        ts = w.client_timestamp if isinstance(w, (WriteRecord, VersionRef)) else w.client_ts
        return (0, ts, w.write_id)
    if w.commit_us is None:
        return (0, -1, 0, w.write_id)
    return (0, 0, w.commit_us, w.write_id)


def _covers(refs, vclock) -> bool:
    """competing_writes: does some returned head dominate-or-equal vclock?"""
    return any(vclock_dominates(r.vclock, vclock) for r in refs)


def judge_staleness(strategy: str, read_start_us: int, returned_refs, key_writes) -> bool:
    """True iff the result fails to reflect some write committed <= read start.

    key_writes is the key's history as WriteRecord entries (failed writes may
    be present; they are ignored for freshness but supply commit lookups).
    """
    fresh = [w for w in key_writes if w.commit_us is not None and w.commit_us <= read_start_us]
    if not fresh:
        return False
    if strategy == WRITE_SET:
        returned_ids = {r.write_id for r in returned_refs}
        return any(w.write_id not in returned_ids for w in fresh)
    if strategy == COMPETING_WRITES:
        return any(not _covers(returned_refs, w.vclock) for w in fresh)
    commit_map = {w.write_id: w.commit_us for w in key_writes if w.commit_us is not None}
    rkey = _returned_key(strategy, returned_refs, commit_map)
    return rkey < max(_write_key(strategy, w) for w in fresh)


# -- internal scans over parsed ops -------------------------------------------
#
# Each scan behind the report and the verdicts is linear in the parsed ops
# plus the returned refs, up to a log factor from sorting and bisection. The
# exception is competing_writes: vector-clock dominance is only a partial
# order, so its reflection checks stay pairwise within a key or session.


def _commit_map(writes) -> dict[int, int]:
    return {w.write_id: w.commit_us for w in writes.values() if w.commit_us is not None}


def _op_order(infos: dict) -> list:
    """The values of an op-id keyed dict in issue order."""
    return [infos[op_id] for op_id in sorted(infos)]


def _committed_reads(reads) -> list[_ReadInfo]:
    return [r for r in _op_order(reads) if r.commit_us is not None]


_key_of = attrgetter("key")
_session_of = attrgetter("client", "key")


def _sessions(infos):
    """(client, key) -> infos, keeping their issue order."""
    out: dict[tuple[int, int], list] = {}
    for info in infos:
        out.setdefault(_session_of(info), []).append(info)
    return out


class _CommitOrder:
    """The committed writes of one key or one session, ordered by (commit, write id).

    ``upto(t)`` counts those committed at or before t. Under the LWW
    strategies ``prefix_max[i]`` is the largest order key among the first
    i + 1.
    """

    __slots__ = ("writes", "times", "ids", "prefix_max", "_ids_upto")

    def __init__(self, writes: list[_WriteInfo], strategy: str):
        writes.sort(key=lambda w: (w.commit_us, w.write_id))
        self.writes = writes
        self.times = [w.commit_us for w in writes]
        self.ids = [w.write_id for w in writes]
        self.prefix_max = None
        if strategy in _LWW:
            self.prefix_max = list(accumulate((_write_key(strategy, w) for w in writes), max))
        self._ids_upto: dict[int, tuple[int, ...]] = {}

    def upto(self, t: int) -> int:
        return bisect_right(self.times, t)

    def ids_upto(self, hi: int) -> tuple[int, ...]:
        ids = self._ids_upto.get(hi)
        if ids is None:
            ids = self._ids_upto[hi] = tuple(self.ids[:hi])
        return ids


def _commit_orders(writes, strategy, group) -> dict:
    """group(write) -> _CommitOrder of the committed writes in that group."""
    grouped: dict = {}
    for w in writes.values():
        if w.commit_us is not None:
            grouped.setdefault(group(w), []).append(w)
    return {g: _CommitOrder(ws, strategy) for g, ws in grouped.items()}


def _misses(committed, orders, group, commit_map, strategy):
    """(op ids of reads failing to reflect a write of their group committed at
    or before their start, op ids of reads whose group has such a write).

    With groups by key this is staleness; with groups by session it is RYWC.
    """
    missing: set[int] = set()
    applicable: set[int] = set()
    lww = strategy in _LWW
    for r in committed:
        order = orders.get(group(r))
        hi = order.upto(r.start) if order is not None else 0
        if not hi:
            continue
        applicable.add(r.op_id)
        if lww:
            missed = _returned_key(strategy, r.returned, commit_map) < order.prefix_max[hi - 1]
        elif strategy == WRITE_SET:
            # stops at the first id not returned: O(returned refs), not O(hi)
            missed = not {ref.write_id for ref in r.returned}.issuperset(islice(order.ids, hi))
        else:
            missed = any(not _covers(r.returned, w.vclock) for w in order.writes[:hi])
        if missed:
            missing.add(r.op_id)
    return missing, applicable


def _mrc_ids(read_sessions, commit_map, strategy) -> set[int]:
    violating: set[int] = set()
    for session in read_sessions.values():
        if strategy in _LWW:
            running = None
            for r in session:
                key = _returned_key(strategy, r.returned, commit_map)
                if running is not None and running > key:
                    violating.add(r.op_id)
                if running is None or key > running:
                    running = key
        elif strategy == WRITE_SET:
            running: set[int] = set()
            for r in session:
                ids = {ref.write_id for ref in r.returned}
                if not running <= ids:
                    violating.add(r.op_id)
                running |= ids
        else:  # competing_writes: earlier heads must be dominated-or-equaled
            running: list[VersionRef] = []
            for r in session:
                for h1 in running:
                    if not _covers(r.returned, h1.vclock):
                        violating.add(r.op_id)
                        break
                running = merge_heads(list(running) + list(r.returned))
    return violating


# -- public detectors ----------------------------------------------------------

def detect_mrc(log, strategy: str) -> set[int]:
    """Op ids of committed reads that moved backward within their session."""
    reads, writes = _parse_ops(log)
    return _mrc_ids(_sessions(_committed_reads(reads)), _commit_map(writes), strategy)


def detect_rywc(log, strategy: str) -> set[int]:
    """Op ids of committed reads that fail to reflect an own earlier-committed write."""
    reads, writes = _parse_ops(log)
    own = _commit_orders(writes, strategy, _session_of)
    return _misses(_committed_reads(reads), own, _session_of, _commit_map(writes), strategy)[0]


def _mwc_triples(write_sessions) -> list[tuple[int, int, int]]:
    """Every violating (earlier write id, later write id, replica) triple.

    A triple is a pair of same-session writes both applied at that replica;
    it violates when the later write's ApplyEnd precedes the earlier one's
    there (log order). Listing is quadratic per session; the report only
    counts triples, with _mwc_counts.
    """
    violations = []
    for session in write_sessions.values():
        for j, w2 in enumerate(session):
            for w1 in session[:j]:
                for replica, at1 in w1.applies.items():
                    at2 = w2.applies.get(replica)
                    if at2 is not None and at1 > at2:
                        violations.append((w1.write_id, w2.write_id, replica))
    return violations


def _mwc_counts(write_sessions):
    """(applicable triples, violating triples, client -> [applicable, violating]).

    Triples whose later write is a warmup op are not counted. Per session and
    replica, a later write's applicable triples are the earlier writes
    applied there and its violating ones those applied after it: inversions
    between session order and ApplyEnd order, counted on a Fenwick tree over
    ApplyEnd ranks.
    """
    per_client: dict[int, list[int]] = {}
    for session in write_sessions.values():
        counts = per_client.setdefault(session[0].client, [0, 0])
        at_replica: dict[int, list] = {}
        for w in session:
            for replica, at in w.applies.items():
                at_replica.setdefault(replica, []).append((at, w.warmup))
        for applied in at_replica.values():
            rank = {at: i for i, at in enumerate(sorted({at for at, _ in applied}), 1)}
            tree = [0] * (len(rank) + 1)
            for earlier, (at, warmup) in enumerate(applied):
                i = rank[at]
                if not warmup:
                    not_after, j = 0, i
                    while j:
                        not_after += tree[j]
                        j &= j - 1
                    counts[0] += earlier
                    counts[1] += earlier - not_after
                while i < len(tree):
                    tree[i] += 1
                    i += i & -i
    applicable = sum(c[0] for c in per_client.values())
    counted = sum(c[1] for c in per_client.values())
    return applicable, counted, per_client


def detect_mwc(log) -> list[tuple[int, int, int]]:
    """Violating (earlier write, later write, replica) triples."""
    _, writes = _parse_ops(log)
    return _mwc_triples(_sessions(_op_order(writes)))


def _wfrc_scan(read_sessions, writes_in_order):
    """(violating (write, replica) pairs, applicable write count, per-client counts).

    The reflected set of the latest preceding own read is its returned write
    ids; the write violates at a replica that applied it without having
    applied every member of that set first (log order). That holds iff the
    replica is missing from the read's frontier (replica -> latest ApplyEnd
    of the set, over replicas that applied all of it) or the frontier's
    ApplyEnd there is later than the write's.
    """
    apply_at: dict[int, dict[int, tuple]] = {}  # replica -> write id -> ApplyEnd
    for w in writes_in_order:
        for replica, at in w.applies.items():
            apply_at.setdefault(replica, {})[w.write_id] = at
    read_op_ids = {ck: [r.op_id for r in session] for ck, session in read_sessions.items()}
    frontiers: dict[tuple[int, int], tuple] = {}  # session -> (read, its frontier)
    violations: list[tuple[int, int]] = []
    applicable = 0
    per_client: dict[int, list[int]] = {}
    for w in writes_in_order:
        ck = (w.client, w.key)
        session = read_sessions.get(ck)
        if not session:
            continue
        prior_idx = bisect_right(read_op_ids[ck], w.op_id)
        if not prior_idx:
            continue
        last_read = session[prior_idx - 1]
        counts = per_client.setdefault(w.client, [0, 0])
        countable = not w.warmup
        if countable:
            applicable += 1
            counts[0] += 1
        if not last_read.returned:
            continue
        cached = frontiers.get(ck)
        if cached is None or cached[0] is not last_read:
            cached = frontiers[ck] = (last_read, _frontier(last_read.returned, apply_at))
        frontier = cached[1]
        violated = False
        for replica, at_w in w.applies.items():
            at_s = frontier.get(replica)
            if at_s is None or at_s > at_w:
                violations.append((w.write_id, replica))
                violated = True
        if violated and countable:
            counts[1] += 1
    return violations, applicable, per_client


def _frontier(refs, apply_at) -> dict:
    """replica -> latest ApplyEnd of refs, over replicas that applied every ref."""
    ids = [ref.write_id for ref in refs]
    frontier = {}
    for replica, at in apply_at.items():
        ats = list(map(at.get, ids))
        if None not in ats:
            frontier[replica] = max(ats)
    return frontier


def detect_wfrc(log) -> list[tuple[int, int]]:
    """Violating (write, replica) pairs: the write applied somewhere before
    every write its latest preceding own read had reflected."""
    reads, writes = _parse_ops(log)
    return _wfrc_scan(_sessions(_committed_reads(reads)), _op_order(writes))[0]


# -- verdicts and report -------------------------------------------------------

def _verdicts(committed, writes, commit_map, strategy, mrc, rywc) -> list[ReadVerdict]:
    """Verdicts of the committed reads, given their MRC and RYWC op-id sets."""
    history = _commit_orders(writes, strategy, _key_of)
    stale = _misses(committed, history, _key_of, commit_map, strategy)[0]
    verdicts = []
    for r in committed:
        order = history.get(r.key)
        verdicts.append(
            ReadVerdict(
                op_id=r.op_id,
                client_id=r.client,
                key=r.key,
                start_us=r.start,
                stale=r.op_id in stale,
                mrc=r.op_id in mrc,
                rywc=r.op_id in rywc,
                returned_write_ids=tuple([ref.write_id for ref in r.returned]),
                fresh_write_ids=order.ids_upto(order.upto(r.start)) if order is not None else (),
                warmup=r.warmup,
            )
        )
    return verdicts


def read_verdicts(log, strategy: str) -> list[ReadVerdict]:
    """Per committed read: staleness, MRC, RYWC, returned and fresh sets."""
    reads, writes = _parse_ops(log)
    committed = _committed_reads(reads)
    commit_map = _commit_map(writes)
    mrc = _mrc_ids(_sessions(committed), commit_map, strategy)
    own = _commit_orders(writes, strategy, _session_of)
    rywc = _misses(committed, own, _session_of, commit_map, strategy)[0]
    return _verdicts(committed, writes, commit_map, strategy, mrc, rywc)


def _last_unseen(writes_in_order, read_sessions, own, strategy, commit_map):
    """Per write: last instant its writer saw a result not reflecting it,
    among the reads returning at or after the write's commit."""
    last: dict[int, int] = {}  # write op id -> instant
    for ck, order in own.items():
        reads = [r for r in read_sessions.get(ck, ()) if r.return_time is not None]
        if not reads:
            continue
        if strategy in _LWW:
            _unseen_by_order_key(order.writes, reads, strategy, commit_map, last)
        else:
            _unseen_by_sweep(order, reads, strategy, last)
    return [
        {"write_id": w.write_id, "client_id": w.client, "key": w.key, "commit_us": w.commit_us, "last_unseen_at_us": last.get(w.op_id)}
        for w in writes_in_order
    ]


def _unseen_by_order_key(ws, reads, strategy, commit_map, last):
    """LWW: a read misses w iff its order key is below w's, so the answer is
    the latest return among the reads ranked below w, if not before w's commit."""
    ranked = sorted((_returned_key(strategy, r.returned, commit_map), r.return_time) for r in reads)
    keys = [k for k, _ in ranked]
    latest = list(accumulate((t for _, t in ranked), max))
    for w in ws:
        below = bisect_left(keys, _write_key(strategy, w))
        if below and latest[below - 1] >= w.commit_us:
            last[w.op_id] = latest[below - 1]


def _unseen_by_sweep(order, reads, strategy, last):
    """write_set and competing_writes: the reads latest first, over the own
    writes still unresolved. A read's eligible writes (committed by its
    return) are a prefix of the commit order that only shrinks; each one the
    read misses is resolved at its return, and the rest stay pending. Under
    write_set every write kept is one of the read's returned refs."""
    ws = order.writes
    pending = list(range(len(ws)))  # unresolved positions, ascending
    for r in sorted(reads, key=lambda r: r.return_time, reverse=True):
        del pending[bisect_left(pending, order.upto(r.return_time)):]
        if not pending:
            break
        ids = {ref.write_id for ref in r.returned} if strategy == WRITE_SET else None
        kept = []
        for i in pending:
            w = ws[i]
            if (w.write_id in ids) if ids is not None else _covers(r.returned, w.vclock):
                kept.append(i)
            else:
                last[w.op_id] = r.return_time
        pending = kept


def clientcentric_outputs(log, strategy: str) -> tuple[dict, list[ReadVerdict]]:
    """The stage-3 report and the per-read verdicts, from one parse of the log.

    Equal to ``(build_clientcentric_report(log, strategy),
    read_verdicts(log, strategy))``.
    """
    reads, writes = _parse_ops(log)
    committed = _committed_reads(reads)
    writes_in_order = _op_order(writes)
    commit_map = _commit_map(writes)

    # The per-session scans run, and their structures are freed, before the
    # verdicts are built: each is about the size of the op table, and holding
    # both at once raised peak memory.
    read_sessions = _sessions(committed)
    own = _commit_orders(writes, strategy, _session_of)
    mrc = _mrc_ids(read_sessions, commit_map, strategy)
    rywc, rywc_applicable = _misses(committed, own, _session_of, commit_map, strategy)
    unseen = _last_unseen(writes_in_order, read_sessions, own, strategy, commit_map)
    mwc_applicable, mwc_counted, mwc_per_client = _mwc_counts(_sessions(writes_in_order))
    wfrc_violations, wfrc_applicable, wfrc_per_client = _wfrc_scan(read_sessions, writes_in_order)
    del read_sessions, own

    verdicts = _verdicts(committed, writes, commit_map, strategy, mrc, rywc)
    counted = [v for v in verdicts if not v.warmup]

    # Internal consistency: an RYWC violation is always also a stale read.
    for v in verdicts:
        if v.rywc and not v.stale:
            raise MalformedLogError(f"read {v.op_id} violates RYWC but is not stale")

    stale_n = sum(1 for v in counted if v.stale)
    mrc_n = sum(1 for v in counted if v.mrc)
    rywc_counted = [v for v in counted if v.op_id in rywc_applicable]
    rywc_n = sum(1 for v in rywc_counted if v.rywc)
    wfrc_violating_writes = {w for w, _ in wfrc_violations}
    wfrc_n = sum(1 for w in writes_in_order if not w.warmup and w.write_id in wfrc_violating_writes)

    def rate(num, den):
        return num / den if den else 0.0

    per_client: dict[int, dict] = {}
    by_client: dict[int, list[ReadVerdict]] = {}
    for v in counted:
        by_client.setdefault(v.client_id, []).append(v)
    rywc_ids = {v.op_id for v in rywc_counted}
    clients = {i.client for i in reads.values()} | {i.client for i in writes_in_order}
    for cid in sorted(clients):
        mine = by_client.get(cid, [])
        mine_rywc = [v for v in mine if v.op_id in rywc_ids]
        mwc = mwc_per_client.get(cid, [0, 0])
        wfrc = wfrc_per_client.get(cid, [0, 0])
        per_client[cid] = {
            "reads": len(mine),
            "stale": sum(1 for v in mine if v.stale),
            "mrc_violations": sum(1 for v in mine if v.mrc),
            "rywc_applicable": len(mine_rywc),
            "rywc_violations": sum(1 for v in mine_rywc if v.rywc),
            "mwc_triples": mwc[0],
            "mwc_violations": mwc[1],
            "wfrc_writes": wfrc[0],
            "wfrc_violations": wfrc[1],
        }

    metadata = {"extended_detectors": ["mwc", "wfrc"]}
    if strategy == COMPETING_WRITES:
        metadata["version_order"] = "vector-clock dominance (partial order) generalizes the total version order"

    report = {
        "kind": "clientcentric_report",
        "format": 1,
        "strategy": strategy,
        "stale_read_rate": rate(stale_n, len(counted)),
        "mrc_violation_probability": rate(mrc_n, len(counted)),
        "rywc_violation_probability": rate(rywc_n, len(rywc_counted)),
        "mwc_violation_probability": rate(mwc_counted, mwc_applicable),
        "wfrc_violation_probability": rate(wfrc_n, wfrc_applicable),
        "violations": {
            "stale": stale_n,
            "mrc": mrc_n,
            "rywc": rywc_n,
            "mwc": mwc_counted,
            "wfrc": wfrc_n,
        },
        "denominators": {
            "staleness": len(counted),
            "mrc": len(counted),
            "rywc": len(rywc_counted),
            "mwc": mwc_applicable,
            "wfrc": wfrc_applicable,
        },
        "per_client": {str(cid): stats for cid, stats in per_client.items()},
        "writes": unseen,
        "metadata": metadata,
    }
    return report, verdicts


def build_clientcentric_report(log, strategy: str) -> dict:
    """Stage-3 report: staleness and session-guarantee violation probabilities."""
    return clientcentric_outputs(log, strategy)[0]
