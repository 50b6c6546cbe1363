"""Staleness and session-guarantee violation detection per client session.

Everything here is a pure function of (log, strategy) and is computed post
hoc over the complete log. "Reflects" is strategy-relative; its definitions
live with the strategies (``strategies``).

A read's staleness reference point is its issue instant: the read is stale
iff its result fails to reflect some write committed at or before that
instant. Warmup ops take part in session context but are excluded from
every numerator and denominator. Only committed reads are judged, and each
is timed at its commit, where the op table puts its return.

``clientcentric_outputs`` is the one judge: it gives the report and the
per-read verdicts from one op table, and ``build_clientcentric_report``
and ``read_verdicts`` are its two halves. It reads the log through its op
table (``optable``) and accepts a built table in place of the log. The
table holds each read's returned writes as their own records, checked to
be logged writes of the read's key, and a verdict holds its read's own
record. Under competing_writes it judges reads
by dots and rejects, with MalformedLogError, a log whose vector clocks
lack the dot shape (``optable.check_dots``).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from . import strategies
from .errors import MalformedLogError
from .events import READ, WRITE, gc_paused
from .optable import OpRecord, check_dots, op_table


class ReadVerdict(NamedTuple):
    read: OpRecord  # the op table's own record of the read
    stale: bool
    mrc: bool
    rywc: bool


# -- internal scans over the op table ------------------------------------------
#
# Each scan behind the report and the verdicts is linear in the table's ops
# plus the returned writes, up to a log factor from sorting and bisection, and
# the MWC count moves one list entry per violating triple; under
# competing_writes a read costs O(writers) more.


_key_of = attrgetter("key")
_session_of = attrgetter("client", "key")
_commit_order = attrgetter("commit_us", "write_id")


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
        writes.sort(key=_commit_order)
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


def _misses(committed, orders, group, strat):
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
        if misses(r, order.marks, hi):
            missing.add(r.op_id)
    return missing, applicable


def _mwc_counts(write_sessions):
    """client -> [applicable triples, violating triples].

    Triples whose later write is a warmup op are not counted. Per session and
    replica, a later write's applicable triples are the earlier writes
    applied there and its violating ones those applied after it: inversions
    between session order and ApplyEnd order. Each replica's ApplyEnds so far
    are kept sorted, so a write's violating triples are those above its own
    ApplyEnd, found by bisection; inserting it moves exactly those.
    """
    per_client: dict[int, list[int]] = {}
    for session in write_sessions.values():
        counts = per_client.setdefault(session[0].client, [0, 0])
        at_replica: dict[int, list] = {}
        for w in session:
            for replica, at in w.applies.items():
                applied = at_replica.setdefault(replica, [])
                i = bisect_right(applied, at)
                if not w.warmup:
                    counts[0] += len(applied)
                    counts[1] += len(applied) - i
                applied.insert(i, at)
    return per_client


def _wfrc_scan(read_sessions, write_sessions):
    """client -> [applicable writes, violating writes].

    A write applies when its session has a committed read before it, and
    warmup writes are not counted. The reflected set of that latest
    preceding own read is its returned write ids; the write violates when
    it applied at some replica without having applied every member of that
    set there first (log order). That holds iff the replica is missing
    from the set's last ApplyEnds (replica -> latest ApplyEnd of the set,
    over replicas that applied all of it) or the last ApplyEnd there is
    later than the write's.
    """
    per_client: dict[int, list[int]] = {}
    for ck, writes in write_sessions.items():
        reads = read_sessions.get(ck)
        if not reads:
            continue
        counts = per_client.setdefault(ck[0], [0, 0])
        prior = 0  # the reads issued before w
        cached = None  # (read, its returned writes' last ApplyEnds)
        for w in writes:
            while prior < len(reads) and reads[prior].op_id < w.op_id:
                prior += 1
            if not prior or w.warmup:
                continue
            counts[0] += 1
            last_read = reads[prior - 1]
            if not last_read.returned:
                continue
            if cached is None or cached[0] is not last_read:
                cached = (last_read, _last_apply_ends(last_read.returned))
            last_ends = cached[1]
            for replica, at_w in w.applies.items():
                at_s = last_ends.get(replica)
                if at_s is None or at_s > at_w:
                    counts[1] += 1
                    break
    return per_client


def _last_apply_ends(writes) -> dict:
    """replica -> latest ApplyEnd of writes, over replicas that applied every one.

    Folded replica by replica, one lookup per write at each replica of the
    first; a one-write read (every LWW read) gives its write's own map.
    """
    first, *rest = [w.applies for w in writes]
    if not rest:
        return first
    last_ends = {}
    for replica, at in first.items():
        ats = list(map(dict.get, rest, repeat(replica)))
        if None not in ats:
            last_ends[replica] = max(at, *ats)
    return last_ends


# -- verdicts and report -------------------------------------------------------

def _verdicts(committed, writes, strat, mrc, rywc) -> list[ReadVerdict]:
    """Verdicts of the committed reads, given their MRC and RYWC op-id sets."""
    history = _commit_orders(writes, strat, _key_of)
    stale = _misses(committed, history, _key_of, strat)[0]
    return [ReadVerdict(r, r.op_id in stale, r.op_id in mrc, r.op_id in rywc) for r in committed]


def _last_unseen(writes_in_order, read_sessions, own, strat):
    """Per write: last instant its writer saw a result not reflecting it,
    among the reads returning at or after the write's commit."""
    last: dict[int, int] = {}  # write op id -> instant
    for ck, order in own.items():
        reads = read_sessions.get(ck)
        if reads:
            strat.unseen(order, reads, last)
    return [
        {"write_id": w.write_id, "client_id": w.client, "key": w.key, "commit_us": w.commit_us, "last_unseen_at_us": last.get(w.op_id)}
        for w in writes_in_order
    ]


# A client's counts in the report.
_PER_CLIENT = (
    "reads",
    "stale",
    "mrc_violations",
    "rywc_applicable",
    "rywc_violations",
    "mwc_triples",
    "mwc_violations",
    "wfrc_writes",
    "wfrc_violations",
)


@gc_paused()
def clientcentric_outputs(log, strategy: str) -> tuple[dict, list[ReadVerdict]]:
    """The stage-3 report and the verdicts of the committed reads, from one
    op table."""
    strat = strategies.strategy(strategy)
    table = op_table(log)
    if strat.vclocks:
        check_dots(table)
    reads = [op for op in table.ops if op.kind == READ]
    writes_in_order = [op for op in table.ops if op.kind == WRITE]
    strat = strat.judge(reads)
    committed = [r for r in reads if r.commit_us is not None]

    # The per-session scans run, and their structures are freed, before the
    # verdicts are built: each is about the size of the op table, and holding
    # both at once raised peak memory.
    read_sessions = _sessions(committed)
    own = _commit_orders(writes_in_order, strat, _session_of)
    mrc = {op_id for session in read_sessions.values() for op_id in strat.mrc(session)}
    rywc, rywc_applicable = _misses(committed, own, _session_of, strat)
    unseen = _last_unseen(writes_in_order, read_sessions, own, strat)
    write_sessions = _sessions(writes_in_order)
    mwc_per_client = _mwc_counts(write_sessions)
    wfrc_per_client = _wfrc_scan(read_sessions, write_sessions)
    del read_sessions, own, write_sessions

    verdicts = _verdicts(committed, writes_in_order, strat, mrc, rywc)
    clients = {r.client for r in reads} | {w.client for w in writes_in_order}
    per_client = {cid: dict.fromkeys(_PER_CLIENT, 0) for cid in sorted(clients)}
    for v in verdicts:
        r = v.read
        # Internal consistency: an RYWC violation is always also a stale read.
        if v.rywc and not v.stale:
            raise MalformedLogError(f"read {r.op_id} violates RYWC but is not stale")
        if r.warmup:
            continue
        stats = per_client[r.client]
        stats["reads"] += 1
        stats["stale"] += v.stale
        stats["mrc_violations"] += v.mrc
        if r.op_id in rywc_applicable:
            stats["rywc_applicable"] += 1
            stats["rywc_violations"] += v.rywc
    for cid, (triples, violating) in mwc_per_client.items():
        per_client[cid]["mwc_triples"] = triples
        per_client[cid]["mwc_violations"] = violating
    for cid, (writes, violating) in wfrc_per_client.items():
        per_client[cid]["wfrc_writes"] = writes
        per_client[cid]["wfrc_violations"] = violating

    def total(name):
        return sum(stats[name] for stats in per_client.values())

    def rate(num, den):
        return num / den if den else 0.0

    violations = {
        "stale": total("stale"),
        "mrc": total("mrc_violations"),
        "rywc": total("rywc_violations"),
        "mwc": total("mwc_violations"),
        "wfrc": total("wfrc_violations"),
    }
    denominators = {
        "staleness": total("reads"),
        "mrc": total("reads"),
        "rywc": total("rywc_applicable"),
        "mwc": total("mwc_triples"),
        "wfrc": total("wfrc_writes"),
    }
    metadata = {"extended_detectors": ["mwc", "wfrc"]}
    if strat.version_order:
        metadata["version_order"] = strat.version_order

    report = {
        "kind": "clientcentric_report",
        "format": 1,
        "strategy": strategy,
        "stale_read_rate": rate(violations["stale"], denominators["staleness"]),
        "mrc_violation_probability": rate(violations["mrc"], denominators["mrc"]),
        "rywc_violation_probability": rate(violations["rywc"], denominators["rywc"]),
        "mwc_violation_probability": rate(violations["mwc"], denominators["mwc"]),
        "wfrc_violation_probability": rate(violations["wfrc"], denominators["wfrc"]),
        "violations": violations,
        "denominators": denominators,
        "per_client": {str(cid): stats for cid, stats in per_client.items()},
        "writes": unseen,
        "metadata": metadata,
    }
    return report, verdicts


def build_clientcentric_report(log, strategy: str) -> dict:
    """Stage-3 report: staleness and session-guarantee violation probabilities."""
    return clientcentric_outputs(log, strategy)[0]


def read_verdicts(log, strategy: str) -> list[ReadVerdict]:
    """Per committed read: staleness, MRC, RYWC and the returned writes."""
    return clientcentric_outputs(log, strategy)[1]
