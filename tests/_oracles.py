"""Brute-force oracles, written independently of the analysis modules.

Each oracle scans raw event tuples quadratically and re-derives its verdicts
from first principles (no imports from quorumsim.optable,
quorumsim.clientcentric or quorumsim.datacentric beyond shared constants).
They exist to cross-check the production detectors on arbitrary logs, and
``oracle_windows`` the op table's inconsistency windows. ``apply_write`` and
``oracle_resolve`` are the same kind of reference for the strategies' store
and read-resolution code (quorumsim.strategies), and ``oracle_draws`` for
the seeded samplers (quorumsim.distributions). The ``reference_*`` writers
give logio's CSV files through ``csv.writer``, and ``reference_event_json``
each event line's object, which logio's template writers must reproduce.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter
from math import ceil, exp, floor, log1p
from statistics import NormalDist

import numpy as np
from numpy.random import PCG64, SeedSequence

from quorumsim.distributions import Constant, Empirical, Exponential, LogNormal, Uniform, UniformKeys, Zipfian
from quorumsim.engine import (
    ACK,
    APPLY_END,
    APPLY_START,
    GRAPH_CHOSEN,
    OP_COMMIT,
    OP_FAIL,
    OP_START,
    READ_RETURN,
    REPLICA_DOWN,
    REPLICA_UP,
)
from quorumsim.logio import OPS_HEADER, READ_VERDICT_HEADER
from quorumsim.strategies import COMPETING_WRITES, LWW_ARRIVAL, LWW_TIMESTAMP, WRITE_SET


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


def oracle_findings(log, strategy) -> dict:
    """``_checks.stage3_findings`` from the oracles: the stale, MRC and RYWC
    op ids, and per client the MWC triples and WFRC writes whose (later)
    write is not warmup."""
    writes = {v.write_id: v for v in scrape(log).values() if v.kind == "write"}
    mwc = Counter(writes[later].client for _, later, _ in oracle_mwc(log) if not writes[later].warmup)
    wfrc = Counter(writes[w].client for w in {w for w, _ in oracle_wfrc(log)} if not writes[w].warmup)
    return {
        "stale": oracle_stale(log, strategy),
        "mrc": oracle_mrc(log, strategy),
        "rywc": oracle_rywc(log, strategy),
        "mwc": dict(mwc),
        "wfrc": dict(wfrc),
    }


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


def _summary(values) -> dict:
    """count, mean, nearest-rank percentiles and the log-scale histogram
    (1 us .. 100 s, 5 buckets a decade, a zero bucket and an overflow)."""
    values = sorted(values)
    edges = [round(10 ** (k / 5)) for k in range(41)]
    counts = [0] * len(edges)
    for v in values:
        if 0 < v <= edges[-1]:
            counts[next(k for k, edge in enumerate(edges) if v <= edge)] += 1

    def rank(q):
        return values[max(1, ceil(q * len(values))) - 1] if values else None

    return {
        "count": len(values),
        "mean": sum(values) / len(values) if values else None,
        "median": rank(0.5),
        "p95": rank(0.95),
        "p99": rank(0.99),
        "max": max(values, default=None),
        "histogram": {
            "zero": values.count(0),
            "edges_us": edges,
            "counts": counts,
            "overflow": sum(v > edges[-1] for v in values),
        },
    }


def oracle_datacentric_sections(csv_rows) -> dict:
    """The global and per-graph sections of datacentric.json, re-aggregated
    from the rows of ops.csv as csv.DictReader reads them (all strings)."""
    live = [r for r in csv_rows if r["warmup"] == "false"]

    def section(rows):
        writes = [r for r in rows if r["kind"] == "write"]
        reads = [r for r in rows if r["kind"] == "read"]
        committed = [r for r in rows if r["status"] == "committed"]

        def failed(rs):
            return sum(r["status"] != "committed" for r in rs)

        return {
            "counts": {"ops": len(rows), "reads": len(reads), "writes": len(writes), "commits": len(committed), "fails": failed(rows)},
            "error_rate": {
                "all": failed(rows) / len(rows) if rows else 0.0,
                "read": failed(reads) / len(reads) if reads else 0.0,
                "write": failed(writes) / len(writes) if writes else 0.0,
            },
            "latency_us": _summary(int(r["latency_us"]) for r in committed),
            "inconsistency_window_us": _summary(int(w["window_us"]) for w in writes if w["window_us"]),
            "non_converged_writes": sum(not w["window_us"] for w in writes),
        }

    graph_ids = sorted({int(r["graph_id"]) for r in live if r["graph_id"]})
    return {
        "global": section(live),
        "graphs": {str(g): section([r for r in live if r["graph_id"] == str(g)]) for g in graph_ids},
    }


def oracle_windows(log) -> dict[int, int | None]:
    """Write op id -> its inconsistency window, from the raw events: the
    span of its ApplyEnd times, None when it has no ApplyEnd or some vertex
    of its chosen graph, as the log's meta lists it, never applied it."""
    graphs = log.meta.get("graphs", {}) if hasattr(log, "meta") else {}
    by_op: dict[int, list] = {}
    for ev in _events(log):
        by_op.setdefault(ev[2], []).append(ev)
    windows = {}
    for op_id, evs in by_op.items():
        if not any(kind == OP_START and payload[1] == "write" for _, _, _, kind, payload in evs):
            continue
        applied = {payload[0]: t for _, t, _, kind, payload in evs if kind == APPLY_END}
        chosen = [payload[0] for _, _, _, kind, payload in evs if kind == GRAPH_CHOSEN]
        vertices = (graphs.get(chosen[0], {}).get("vertices") or ()) if chosen else ()
        converged = applied and all(v in applied for v in vertices)
        windows[op_id] = max(applied.values()) - min(applied.values()) if converged else None
    return windows


def oracle_dot_shape(log) -> bool:
    """Do the log's write clocks have the dot shape, checked pair by pair?

    Per key, with each write's dot (its client, its clock's own entry): every
    write has a clock; the dots of a (client, key) rise in issue order from
    1; a client's clocks on a key are monotone; every clock entry (c, m)
    names a write of the key issued no later than the clock's write, whose
    clock it dominates; every returned ref names a write of the read's key
    and carries its clock. A log without writes has the shape iff its reads
    return nothing.
    """
    views = scrape(log)
    writes = sorted((v for v in views.values() if v.kind == "write"), key=lambda v: v.op_id)
    if not all(w.vclock for w in writes):
        return False
    own = {w.op_id: dict(w.vclock).get(w.client, 0) for w in writes}
    for j, w in enumerate(writes):
        for earlier in writes[:j]:
            if (earlier.client, earlier.key) == (w.client, w.key):
                if own[earlier.op_id] >= own[w.op_id] or not _dom(w.vclock, earlier.vclock):
                    return False
        if own[w.op_id] < 1:
            return False
        for c, m in w.vclock:
            named = [x for x in writes[: j + 1] if x.key == w.key and x.client == c and own[x.op_id] == m]
            if not named or not _dom(w.vclock, named[0].vclock):
                return False
    for r in views.values():
        for ref in r.returned:
            if not any(x.write_id == ref.write_id and x.key == r.key and x.vclock == ref.vclock for x in writes):
                return False
    return True


# -- store and read resolution, re-derived --------------------------------------

def _heads(refs):
    """The refs no other ref strictly dominates, one per write id, by write id."""
    by_id = {r.write_id: r for r in refs}
    return sorted(
        (
            r
            for r in by_id.values()
            if not any(_dom(o.vclock, r.vclock) and not _dom(r.vclock, o.vclock) for o in by_id.values())
        ),
        key=lambda r: r.write_id,
    )


def _ts_key(ref):
    return (ref.client_timestamp, ref.write_id)


def apply_write(strategy: str, store_state, incoming, arrival_seq: int):
    """Pure per-key state transition for one delivered write.

    State shapes: lww_arrival (ref, arrival_seq) | lww_timestamp ref |
    write_set frozenset[ref] | competing_writes tuple[ref]; None is empty.
    """
    if strategy == LWW_ARRIVAL:
        return (incoming, arrival_seq)
    if strategy == LWW_TIMESTAMP:
        if store_state is None or _ts_key(incoming) > _ts_key(store_state):
            return incoming
        return store_state
    if strategy == WRITE_SET:
        return (store_state or frozenset()) | {incoming}
    if strategy == COMPETING_WRITES:
        return tuple(_heads(list(store_state or ()) + [incoming]))
    raise ValueError(f"unknown strategy {strategy!r}")


def oracle_resolve(strategy: str, contributions) -> list:
    """The versions a read returns from (replica, snapshot) contributions
    shaped as in apply_write: the maximum by (arrival seq, write id) or
    (client timestamp, write id) under LWW, none when every snapshot is
    empty; the union by write id under write_set; the head antichain under
    competing_writes."""
    snaps = [snap for _, snap in contributions if snap]
    if strategy == LWW_ARRIVAL:
        return [max(snaps, key=lambda s: (s[1], s[0].write_id))[0]] if snaps else []
    if strategy == LWW_TIMESTAMP:
        return [max(snaps, key=_ts_key)] if snaps else []
    pool = [ref for snap in snaps for ref in snap]
    if strategy == WRITE_SET:
        return sorted(set(pool), key=lambda r: r.write_id)
    return _heads(pool)


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


# -- seeded draws, re-derived from the raw PCG64 words ---------------------------

def oracle_uniform(w: int) -> float:
    """Word w maps to (2 * (w >> 11) + 1) / 2**54, an exact integer quotient
    correctly rounded; the top word's quotient would round to 1, so its
    numerator drops to 2**54 - 2, which gives the largest double below 1."""
    return min(2 * (w >> 11) + 1, 2**54 - 2) / 2**54


def oracle_uniforms(seed: int, label: str, n: int) -> list[float]:
    """The first n uniforms of stream (seed, label): PCG64 seeded with the
    seed's low 64 bits and the label's sha256 as four little-endian words,
    each word mapped by oracle_uniform."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    entropy = [seed % 2**64] + [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return [oracle_uniform(w) for w in PCG64(SeedSequence(entropy)).random_raw(n).tolist()]


def _round_us(x: float) -> int:
    return floor(x + 0.5) if x > 0 else 0


def oracle_draw(dist, uniforms) -> int:
    """One draw of dist, taking its uniform (if any) from the iterator uniforms."""
    if isinstance(dist, Constant):
        return dist.value_us
    u = next(uniforms)
    if isinstance(dist, Uniform):
        return _round_us(dist.lo_us + u * (dist.hi_us - dist.lo_us))
    if isinstance(dist, Exponential):
        return _round_us(-dist.mean_us * log1p(-u))
    if isinstance(dist, LogNormal):
        return _round_us(exp(dist.mu + dist.sigma * NormalDist().inv_cdf(u)))
    if isinstance(dist, Empirical):
        ordered = sorted(dist.samples_us)
        return ordered[int(u * len(ordered))]
    if isinstance(dist, UniformKeys):
        return int(u * dist.n)
    if isinstance(dist, Zipfian):
        # The ranks below the last take their cumulative mass; the last rank
        # the rest. numpy's float64 ** and pairwise sum may differ from libm
        # pow and fsum in a last bit: for Zipfian(50, 0.99) on one AVX-512
        # machine, 49 entries differed by one ulp, so a uniform in such a gap
        # (about 1e-14 per draw) would draw another key than the sampler's.
        weights = np.arange(1, dist.n + 1, dtype=np.float64) ** (-dist.s)
        cdf = (weights / weights.sum()).cumsum().tolist()[:-1]
        return next((r for r, c in enumerate(cdf) if c > u), len(cdf))
    raise TypeError(f"no reference draw for {dist!r}")


def oracle_draws(dist, seed: int, label: str, n: int) -> list[int]:
    """The first n draws of dist from a fresh stream (seed, label)."""
    uniforms = iter(oracle_uniforms(seed, label, n))
    return [oracle_draw(dist, uniforms) for _ in range(n)]


# -- the reference writers of logio's output files -----------------------------------


def _csv_bytes(header, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def reference_op_table_csv(records) -> bytes:
    """ops.csv of op table records as csv.writer writes it: None as an empty field."""
    rows = (
        [r.op_id, r.client, r.kind, r.key, r.graph_id, r.start, r.status, r.latency_us, r.window_us, str(r.warmup).lower()]
        for r in records
    )
    return _csv_bytes(OPS_HEADER, rows)


def reference_read_verdicts_csv(verdicts) -> bytes:
    """read_verdicts.csv of verdicts as csv.writer writes it: one row per non-warmup read."""
    rows = (
        [v.read.op_id, v.read.client, v.read.key, v.read.start, str(v.stale).lower(), str(v.mrc).lower(), str(v.rywc).lower(),
         ";".join(str(w.write_id) for w in v.read.returned)]
        for v in verdicts
        if not v.read.warmup
    )
    return _csv_bytes(READ_VERDICT_HEADER, rows)


def _ref_json(ref) -> dict:
    obj = {"write_id": ref.write_id, "client_id": ref.client_id, "client_ts_us": ref.client_timestamp}
    if ref.vclock is not None:
        obj["vclock"] = {str(cid): n for cid, n in ref.vclock}
    return obj


# kind -> the field of each payload entry, for the kinds whose payload has one shape
_FIELDS = {GRAPH_CHOSEN: ("graph_id",), APPLY_START: ("replica",), ACK: ("parent", "child"), OP_COMMIT: ("latency_us",),
           OP_FAIL: ("reason",), REPLICA_DOWN: ("replica",), REPLICA_UP: ("replica",)}


def reference_event_json(ev) -> dict:
    """An event line's object, in the writer's field order:
    ``json.dumps(reference_event_json(ev), separators=(",", ":"))`` is its line."""
    seq, t, op_id, kind, payload = ev
    obj = {"seq": seq, "time_us": t, "op_id": op_id, "kind": kind}
    if kind == OP_START:
        client, op_kind, key, write_id, payload_bytes, warmup, vclock = payload
        obj.update(client_id=client, op=op_kind, key=key)
        if write_id is not None:
            obj["write_id"] = write_id
        obj.update(payload_bytes=payload_bytes, warmup=warmup)
        if vclock is not None:
            obj["vclock"] = {str(cid): n for cid, n in vclock}
    elif kind == APPLY_END:
        replica, carried = payload
        obj.update(replica=replica, **({"value": list(carried)} if isinstance(carried, tuple) else {"write_id": carried}))
    elif kind == READ_RETURN:
        obj.update(participants=list(payload[0]), returned=[_ref_json(r) for r in payload[1]])
    elif kind in _FIELDS:
        obj.update(zip(_FIELDS[kind], payload))
    else:
        raise ValueError(f"unknown event kind {kind!r}")
    return obj
