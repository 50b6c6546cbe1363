"""Brute-force oracles, written independently of the analysis modules.

Each oracle scans raw event tuples quadratically and re-derives its verdicts
from first principles (no imports from quorumsim.clientcentric or
quorumsim.datacentric beyond shared constants). They exist to cross-check
the production detectors on arbitrary logs.
"""

from __future__ import annotations

from quorumsim.engine import (
    APPLY_END,
    APPLY_START,
    GRAPH_CHOSEN,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    READ_RETURN,
)


def _events(log):
    return log.events if hasattr(log, "events") else log


class OpView:
    """Everything the oracles need about one op, scraped by brute force."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.client = None
        self.kind = None
        self.key = None
        self.start = None
        self.warmup = False
        self.write_id = None
        self.vclock = None
        self.commit = None
        self.failed = False
        self.returned = ()
        self.return_time = None
        self.applies = {}  # replica -> (time, seq)


def scrape(log) -> dict[int, OpView]:
    views: dict[int, OpView] = {}
    for ev in sorted(_events(log), key=lambda e: (e[1], e[0])):
        seq, t, op_id, kind, payload = ev
        if op_id is None:
            continue
        view = views.setdefault(op_id, OpView(op_id))
        if kind == OP_START:
            view.client, view.kind, view.key = payload[0], payload[1], payload[2]
            view.write_id, view.warmup, view.vclock = payload[3], payload[5], payload[6]
            view.start = t
        elif kind == APPLY_END and payload[0] not in view.applies:
            view.applies[payload[0]] = (t, seq)
        elif kind == READ_RETURN:
            view.returned = tuple(payload[1])
            view.return_time = t
        elif kind == OP_COMMIT:
            view.commit = t
        elif kind == OP_FAIL:
            view.failed = True
    return views


def _committed_writes(views):
    return [v for v in views.values() if v.kind == "write" and v.commit is not None]


def _committed_reads(views):
    return [v for v in views.values() if v.kind == "read" and v.commit is not None]


# -- ordering / reflection, re-derived ----------------------------------------

def _dom(a, b) -> bool:
    """vclock a dominates-or-equals b."""
    da = dict(a or ())
    return all(da.get(cid, 0) >= n for cid, n in (b or ()))


def _rank_of_write(strategy, w, commit_of):
    """Comparable rank of a write under an LWW strategy; None is the floor."""
    if strategy == "lww_timestamp":
        return (1, w.start if isinstance(w, OpView) else w[0], w.write_id if isinstance(w, OpView) else w[1])
    c = commit_of.get(w.write_id if isinstance(w, OpView) else w[1])
    if c is None:
        return (0, 0, w.write_id if isinstance(w, OpView) else w[1])
    return (1, c, w.write_id if isinstance(w, OpView) else w[1])


def _rank_of_return(strategy, view, commit_of):
    best = None
    for ref in view.returned:
        if strategy == "lww_timestamp":
            r = (1, ref.client_timestamp, ref.write_id)
        else:
            c = commit_of.get(ref.write_id)
            r = (1, c, ref.write_id) if c is not None else (0, 0, ref.write_id)
        if best is None or r > best:
            best = r
    return best


def _ranks_gt(a, b) -> bool:
    """a > b where None is below everything."""
    if a is None:
        return False
    if b is None:
        return True
    return a > b


def _read_reflects_write(strategy, read_view, w_view, commit_of) -> bool:
    if strategy == "write_set":
        return any(ref.write_id == w_view.write_id for ref in read_view.returned)
    if strategy == "competing_writes":
        return any(_dom(ref.vclock, w_view.vclock) for ref in read_view.returned)
    rr = _rank_of_return(strategy, read_view, commit_of)
    rw = _rank_of_write(strategy, w_view, commit_of)
    return not _ranks_gt(rw, rr)


# -- oracles -------------------------------------------------------------------

def oracle_commit_timestamps(log) -> dict[int, int]:
    out = {}
    for v in scrape(log).values():
        if v.kind == "write" and v.commit is not None:
            out[v.write_id] = v.commit
    return out


def oracle_stale(log, strategy) -> set[int]:
    views = scrape(log)
    commit_of = {v.write_id: v.commit for v in _committed_writes(views)}
    stale = set()
    for r in _committed_reads(views):
        for w in _committed_writes(views):
            if w.key == r.key and w.commit <= r.start:
                if not _read_reflects_write(strategy, r, w, commit_of):
                    stale.add(r.op_id)
                    break
    return stale


def oracle_mrc(log, strategy) -> set[int]:
    views = scrape(log)
    commit_of = {v.write_id: v.commit for v in _committed_writes(views)}
    reads = sorted(_committed_reads(views), key=lambda v: v.op_id)
    bad = set()
    for j, r2 in enumerate(reads):
        for r1 in reads[:j]:
            if r1.client != r2.client or r1.key != r2.key:
                continue
            if strategy in ("lww_timestamp", "lww_arrival"):
                if _ranks_gt(_rank_of_return(strategy, r1, commit_of), _rank_of_return(strategy, r2, commit_of)):
                    bad.add(r2.op_id)
            elif strategy == "write_set":
                ids1 = {ref.write_id for ref in r1.returned}
                ids2 = {ref.write_id for ref in r2.returned}
                if not ids1 <= ids2:
                    bad.add(r2.op_id)
            else:
                for h1 in r1.returned:
                    if not any(_dom(h2.vclock, h1.vclock) for h2 in r2.returned):
                        bad.add(r2.op_id)
                        break
    return bad


def oracle_rywc(log, strategy) -> set[int]:
    views = scrape(log)
    commit_of = {v.write_id: v.commit for v in _committed_writes(views)}
    bad = set()
    for r in _committed_reads(views):
        for w in _committed_writes(views):
            if w.client == r.client and w.key == r.key and w.commit <= r.start:
                if not _read_reflects_write(strategy, r, w, commit_of):
                    bad.add(r.op_id)
                    break
    return bad


def oracle_mwc(log) -> set[tuple[int, int, int]]:
    views = scrape(log)
    writes = sorted([v for v in views.values() if v.kind == "write"], key=lambda v: v.op_id)
    bad = set()
    for j, w2 in enumerate(writes):
        for w1 in writes[:j]:
            if w1.client != w2.client or w1.key != w2.key:
                continue
            for replica, at1 in w1.applies.items():
                at2 = w2.applies.get(replica)
                if at2 is not None and at1 > at2:
                    bad.add((w1.write_id, w2.write_id, replica))
    return bad


def oracle_wfrc(log) -> set[tuple[int, int]]:
    views = scrape(log)
    writes = [v for v in views.values() if v.kind == "write"]
    reads = _committed_reads(views)
    bad = set()
    for w in writes:
        prior = [r for r in reads if r.client == w.client and r.key == w.key and r.op_id < w.op_id]
        if not prior:
            continue
        last = max(prior, key=lambda r: r.op_id)
        seen = [ref.write_id for ref in last.returned]
        if not seen:
            continue
        apply_of = {v.write_id: v.applies for v in writes}
        for replica, at_w in w.applies.items():
            for wid in seen:
                at_s = apply_of.get(wid, {}).get(replica)
                if at_s is None or at_s > at_w:
                    bad.add((w.write_id, replica))
                    break
    return bad


def oracle_last_unseen(log, strategy) -> list[dict]:
    """The report's per-write rows: for each write (issue order), the latest
    return of an own same-key committed read, at or after the write's commit,
    that does not reflect it."""
    views = scrape(log)
    commit_of = {v.write_id: v.commit for v in _committed_writes(views)}
    reads = _committed_reads(views)
    rows = []
    for w in sorted((v for v in views.values() if v.kind == "write"), key=lambda v: v.op_id):
        last = None
        if w.commit is not None:
            for r in reads:
                if (
                    r.client == w.client
                    and r.key == w.key
                    and r.return_time is not None
                    and r.return_time >= w.commit
                    and not _read_reflects_write(strategy, r, w, commit_of)
                    and (last is None or r.return_time > last)
                ):
                    last = r.return_time
        rows.append({"write_id": w.write_id, "client_id": w.client, "key": w.key, "commit_us": w.commit, "last_unseen_at_us": last})
    return rows


def oracle_report_counts(log, strategy) -> dict:
    """The report's violation counts, denominators and per-client counts.

    Warmup ops take part in session context but never count: a read counts
    when it is not warmup, an MWC triple when its later write is not, a WFRC
    write when it is not.
    """
    views = scrape(log)
    stale, mrc, rywc = oracle_stale(log, strategy), oracle_mrc(log, strategy), oracle_rywc(log, strategy)
    wfrc_writes = {wid for wid, _ in oracle_wfrc(log)}
    reads = [r for r in _committed_reads(views) if not r.warmup]
    writes = sorted((v for v in views.values() if v.kind == "write"), key=lambda v: v.op_id)
    committed_writes = _committed_writes(views)
    committed_reads = _committed_reads(views)
    clients = {v.client for v in views.values() if v.kind in ("read", "write")}
    per_client = {
        c: dict.fromkeys(
            ("reads", "stale", "mrc_violations", "rywc_applicable", "rywc_violations", "mwc_triples", "mwc_violations", "wfrc_writes", "wfrc_violations"),
            0,
        )
        for c in clients
    }
    for r in reads:
        mine = per_client[r.client]
        mine["reads"] += 1
        mine["stale"] += r.op_id in stale
        mine["mrc_violations"] += r.op_id in mrc
        if any(w.client == r.client and w.key == r.key and w.commit <= r.start for w in committed_writes):
            mine["rywc_applicable"] += 1
            mine["rywc_violations"] += r.op_id in rywc
    for j, w2 in enumerate(writes):
        if w2.warmup:
            continue
        mine = per_client[w2.client]
        for w1 in writes[:j]:
            if w1.client == w2.client and w1.key == w2.key:
                for replica, at1 in w1.applies.items():
                    at2 = w2.applies.get(replica)
                    if at2 is not None:
                        mine["mwc_triples"] += 1
                        mine["mwc_violations"] += at1 > at2
        if any(r.client == w2.client and r.key == w2.key and r.op_id < w2.op_id for r in committed_reads):
            mine["wfrc_writes"] += 1
            mine["wfrc_violations"] += w2.write_id in wfrc_writes

    def total(name):
        return sum(c[name] for c in per_client.values())

    return {
        "violations": {
            "stale": total("stale"),
            "mrc": total("mrc_violations"),
            "rywc": total("rywc_violations"),
            "mwc": total("mwc_violations"),
            "wfrc": total("wfrc_violations"),
        },
        "denominators": {
            "staleness": total("reads"),
            "mrc": total("reads"),
            "rywc": total("rywc_applicable"),
            "mwc": total("mwc_triples"),
            "wfrc": total("wfrc_writes"),
        },
        "per_client": {str(c): per_client[c] for c in sorted(clients)},
    }


# -- deterministic event enumerator for async constant stars --------------------

def enumerate_star_writes(issues, root, proc_root, children):
    """Expected (time, kind, replica-or-None) stream for write-only async stars.

    issues: issue times; children: list of (replica, constant delay, constant
    proc). Commit happens at the root's apply end (all edges async); each
    child applies delay + proc after the root's apply end. Built by direct
    arithmetic, independent of the engine.
    """
    expected = []
    for t in issues:
        root_end = t + proc_root
        expected.append((t, OP_START, None))
        expected.append((t, GRAPH_CHOSEN, None))
        expected.append((t, APPLY_START, root))
        expected.append((root_end, APPLY_END, root))
        expected.append((root_end, OP_COMMIT, None))
        for child, delay, proc in children:
            expected.append((root_end + delay, APPLY_START, child))
            expected.append((root_end + delay + proc, APPLY_END, child))
    expected.sort(key=lambda e: e[0])
    return expected
