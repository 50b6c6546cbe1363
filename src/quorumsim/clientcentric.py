"""Staleness and session-guarantee violation detection per client session.

Everything here is a pure function of (log, strategy) and is computed post
hoc over the complete log. "Reflects" is strategy-relative; its definitions
live with the strategies (``strategies``).

A read's staleness reference point is its issue instant: the read is stale
iff its result fails to reflect some write committed at or before that
instant. Warmup ops take part in session context but are excluded from
every numerator and denominator.

The functions read the log through its op table (``optable``) and accept a
built table in place of the log. Under competing_writes they judge reads by
dots and reject, with MalformedLogError, a log whose vector clocks lack the
dot shape (``optable.check_dots``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from . import strategies
from .engine import gc_paused
from .errors import MalformedLogError
from .optable import OpRecord, check_dots, op_table
from .workload import READ, WRITE


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
    warmup: bool = False


def _reads_writes(log) -> tuple[list[OpRecord], list[OpRecord]]:
    """The op table's reads and writes, each in issue (op-id) order."""
    ops = op_table(log).ops
    return [op for op in ops if op.kind == READ], [op for op in ops if op.kind == WRITE]


def _judged(log, strategy: str):
    """(the object judging the log's reads under strategy, reads, writes),
    reads and writes in issue (op-id) order."""
    strat = strategies.strategy(strategy)
    table = op_table(log)
    if strat.vclocks:
        check_dots(table)
    reads, writes = _reads_writes(table)
    return strat.judge(reads), reads, writes


# -- internal scans over the op table ------------------------------------------
#
# Each scan behind the report and the verdicts is linear in the table's ops
# plus the returned refs, up to a log factor from sorting and bisection;
# under competing_writes a read costs O(writers) more.


def _commit_map(writes) -> dict[int, int]:
    return {w.write_id: w.commit_us for w in writes if w.commit_us is not None}


def _committed_reads(reads) -> list[OpRecord]:
    return [r for r in reads if r.commit_us is not None]


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

    ``upto(t)`` counts those committed at or before t; ``marks`` is the
    strategy's per-write list (``strategies``).
    """

    __slots__ = ("writes", "times", "marks")

    def __init__(self, writes: list[OpRecord], strat):
        writes.sort(key=lambda w: (w.commit_us, w.write_id))
        self.writes = writes
        self.times = [w.commit_us for w in writes]
        self.marks = strat.marks(writes)

    def upto(self, t: int) -> int:
        return bisect_right(self.times, t)


def _commit_orders(writes, strat, group) -> dict:
    """group(write) -> _CommitOrder of the committed writes in that group."""
    grouped: dict = {}
    for w in writes:
        if w.commit_us is not None:
            grouped.setdefault(group(w), []).append(w)
    return {g: _CommitOrder(ws, strat) for g, ws in grouped.items()}


def _misses(committed, orders, group, commit_map, strat):
    """(op ids of reads failing to reflect a write of their group committed at
    or before their start, op ids of reads whose group has such a write).

    With groups by key this is staleness; with groups by session it is RYWC.
    """
    missing: set[int] = set()
    applicable: set[int] = set()
    misses = strat.misses
    for r in committed:
        order = orders.get(group(r))
        hi = order.upto(r.start) if order is not None else 0
        if not hi:
            continue
        applicable.add(r.op_id)
        if misses(r, order.marks, hi, commit_map):
            missing.add(r.op_id)
    return missing, applicable


def _mrc_ids(read_sessions, commit_map, strat) -> set[int]:
    return {op_id for session in read_sessions.values() for op_id in strat.mrc(session, commit_map)}


# -- public detectors ----------------------------------------------------------

def detect_mrc(log, strategy: str) -> set[int]:
    """Op ids of committed reads that moved backward within their session."""
    strat, reads, writes = _judged(log, strategy)
    return _mrc_ids(_sessions(_committed_reads(reads)), _commit_map(writes), strat)


def detect_rywc(log, strategy: str) -> set[int]:
    """Op ids of committed reads that fail to reflect an own earlier-committed write."""
    strat, reads, writes = _judged(log, strategy)
    own = _commit_orders(writes, strat, _session_of)
    return _misses(_committed_reads(reads), own, _session_of, _commit_map(writes), strat)[0]


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
    return _mwc_triples(_sessions(_reads_writes(log)[1]))


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
    reads, writes = _reads_writes(log)
    return _wfrc_scan(_sessions(_committed_reads(reads)), writes)[0]


# -- verdicts and report -------------------------------------------------------

def _verdicts(committed, writes, commit_map, strat, mrc, rywc) -> list[ReadVerdict]:
    """Verdicts of the committed reads, given their MRC and RYWC op-id sets."""
    history = _commit_orders(writes, strat, _key_of)
    stale = _misses(committed, history, _key_of, commit_map, strat)[0]
    return [
        ReadVerdict(
            op_id=r.op_id,
            client_id=r.client,
            key=r.key,
            start_us=r.start,
            stale=r.op_id in stale,
            mrc=r.op_id in mrc,
            rywc=r.op_id in rywc,
            returned_write_ids=tuple([ref.write_id for ref in r.returned]),
            warmup=r.warmup,
        )
        for r in committed
    ]


def read_verdicts(log, strategy: str) -> list[ReadVerdict]:
    """Per committed read: staleness, MRC, RYWC and the returned write ids."""
    strat, reads, writes = _judged(log, strategy)
    committed = _committed_reads(reads)
    commit_map = _commit_map(writes)
    mrc = _mrc_ids(_sessions(committed), commit_map, strat)
    own = _commit_orders(writes, strat, _session_of)
    rywc = _misses(committed, own, _session_of, commit_map, strat)[0]
    return _verdicts(committed, writes, commit_map, strat, mrc, rywc)


def _last_unseen(writes_in_order, read_sessions, own, strat, commit_map):
    """Per write: last instant its writer saw a result not reflecting it,
    among the reads returning at or after the write's commit."""
    last: dict[int, int] = {}  # write op id -> instant
    for ck, order in own.items():
        reads = [r for r in read_sessions.get(ck, ()) if r.return_time is not None]
        if reads:
            strat.unseen(order, reads, commit_map, last)
    return [
        {"write_id": w.write_id, "client_id": w.client, "key": w.key, "commit_us": w.commit_us, "last_unseen_at_us": last.get(w.op_id)}
        for w in writes_in_order
    ]


@gc_paused()
def clientcentric_outputs(log, strategy: str) -> tuple[dict, list[ReadVerdict]]:
    """The stage-3 report and the per-read verdicts, from one op table.

    Equal to ``(build_clientcentric_report(log, strategy),
    read_verdicts(log, strategy))``.
    """
    strat, reads, writes_in_order = _judged(log, strategy)
    committed = _committed_reads(reads)
    commit_map = _commit_map(writes_in_order)

    # The per-session scans run, and their structures are freed, before the
    # verdicts are built: each is about the size of the op table, and holding
    # both at once raised peak memory.
    read_sessions = _sessions(committed)
    own = _commit_orders(writes_in_order, strat, _session_of)
    mrc = _mrc_ids(read_sessions, commit_map, strat)
    rywc, rywc_applicable = _misses(committed, own, _session_of, commit_map, strat)
    unseen = _last_unseen(writes_in_order, read_sessions, own, strat, commit_map)
    mwc_applicable, mwc_counted, mwc_per_client = _mwc_counts(_sessions(writes_in_order))
    wfrc_violations, wfrc_applicable, wfrc_per_client = _wfrc_scan(read_sessions, writes_in_order)
    del read_sessions, own

    verdicts = _verdicts(committed, writes_in_order, commit_map, strat, mrc, rywc)
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
    clients = {r.client for r in reads} | {w.client for w in writes_in_order}
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
    if strat.version_order:
        metadata["version_order"] = strat.version_order

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
