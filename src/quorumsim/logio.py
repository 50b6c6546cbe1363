"""Serialization of event logs, metric reports, and verdict tables.

Events file: JSON Lines. The first line is a ``run_meta`` header carrying the
strategy, seed, and cooperation-graph summaries so the file is
self-contained for re-analysis; every following line is one event with
fields in fixed order (seq, time_us, op_id, kind, then kind-specific
payload).

The writer formats each event line from a fixed template per kind, with no
whitespace and strings ASCII-escaped, and expects the engine's field types;
it formats each returned ref object once. ``event_to_json`` is the
reference form: each line equals
``json.dumps(event_to_json(ev), separators=(",", ":"))``.

The reader, ``iter_events``, is one streaming pass: it yields each event as
its line is read, so ``analyze`` feeds the op table without holding the
event list, and ``read_events`` is that pass collected into a list. It
accepts any valid JSON formatting, ignores unknown fields and tolerates
shuffled event lines, the header included. It keeps one ``VersionRef`` per
write id; ``event_from_json`` on one decoded line, without that cache, is
its reference form. Structural problems, a field that a stage reads with
the wrong type, and a write returned with fields that differ from its
first return raise MalformedLogError with the 1-based line number.
"""

from __future__ import annotations

import csv
import json
from json.encoder import encode_basestring_ascii as _json_str

from . import engine
from .engine import SimulationLog
from .errors import MalformedLogError
from .strategies import STRATEGIES, VersionRef
from .workload import READ, WRITE

FORMAT_VERSION = 1
_OP_KINDS = (READ, WRITE)


def _ref_to_json(ref: VersionRef) -> dict:
    obj = {"write_id": ref.write_id, "client_id": ref.client_id, "client_ts_us": ref.client_timestamp}
    if ref.vclock is not None:
        obj["vclock"] = {str(cid): n for cid, n in ref.vclock}
    return obj


def _typed(value, cls=int):
    """value, which must be of type cls exactly (so a bool is no int)."""
    if type(value) is not cls:
        raise TypeError(f"expected {cls.__name__}")
    return value


def _vclock_from_json(vclock) -> tuple | None:
    if vclock is None:
        return None
    return tuple(sorted((int(c), _typed(n)) for c, n in vclock.items()))


def _ref_from_json(obj) -> VersionRef:
    return VersionRef(
        _typed(obj["write_id"]),
        _typed(obj["client_id"]),
        _typed(obj["client_ts_us"]),
        _vclock_from_json(obj.get("vclock")),
    )


def _interned_ref(obj, refs: dict, line: int | None) -> VersionRef:
    """The ref of obj, the one refs already holds for its write id if any.

    refs maps a write id to (its ref, the JSON object it was read from). A
    ref whose fields differ from those of the first one seen for its write
    id raises MalformedLogError.
    """
    seen = refs.get(obj["write_id"])
    if seen is None:
        ref = _ref_from_json(obj)
        refs[ref.write_id] = (ref, obj)
        return ref
    ref, first = seen
    if obj != first and _ref_from_json(obj) != ref:
        raise MalformedLogError(f"returned write {ref.write_id} differs from its first return in the log", line)
    return ref


def event_to_json(ev) -> dict:
    seq, t, op_id, kind, payload = ev
    obj = {"seq": seq, "time_us": t, "op_id": op_id, "kind": kind}
    if kind == engine.OP_START:
        client, op_kind, key, write_id, payload_bytes, warmup, vclock = payload
        obj["client_id"] = client
        obj["op"] = op_kind
        obj["key"] = key
        if write_id is not None:
            obj["write_id"] = write_id
        obj["payload_bytes"] = payload_bytes
        obj["warmup"] = warmup
        if vclock is not None:
            obj["vclock"] = {str(cid): n for cid, n in vclock}
    elif kind == engine.GRAPH_CHOSEN:
        obj["graph_id"] = payload[0]
    elif kind == engine.APPLY_START:
        obj["replica"] = payload[0]
    elif kind == engine.APPLY_END:
        obj["replica"] = payload[0]
        if isinstance(payload[1], tuple):
            obj["value"] = list(payload[1])
        else:
            obj["write_id"] = payload[1]
    elif kind == engine.ACK:
        obj["parent"] = payload[0]
        obj["child"] = payload[1]
    elif kind == engine.READ_RETURN:
        obj["participants"] = list(payload[0])
        obj["returned"] = [_ref_to_json(r) for r in payload[1]]
    elif kind == engine.OP_COMMIT:
        obj["latency_us"] = payload[0]
    elif kind == engine.OP_FAIL:
        obj["reason"] = payload[0]
    elif kind in (engine.REPLICA_DOWN, engine.REPLICA_UP):
        obj["replica"] = payload[0]
    else:
        raise ValueError(f"unknown event kind {kind!r}")
    return obj


def event_from_json(obj, line: int | None = None, refs: dict | None = None):
    """The event tuple of a decoded event line.

    Without refs this is the reference form: every returned ref is a new
    object. With refs, the cache of one pass over a log, a returned ref
    reuses the object of the first return of its write id. A field that a
    stage reads and that has the wrong type raises MalformedLogError.
    """
    try:
        seq, t, op_id, kind = obj["seq"], obj["time_us"], obj["op_id"], obj["kind"]
        if type(seq) is not int or type(t) is not int or not (op_id is None or type(op_id) is int):
            raise MalformedLogError("event seq and time_us must be integers, op_id an integer or null", line)
        if kind == engine.OP_START:
            op_kind, write_id = obj["op"], obj.get("write_id")
            if op_kind not in _OP_KINDS:
                raise MalformedLogError(f"op_start op must be one of {', '.join(_OP_KINDS)}", line)
            payload = (
                _typed(obj["client_id"]),
                op_kind,
                _typed(obj["key"]),
                write_id if write_id is None else _typed(write_id),
                _typed(obj["payload_bytes"]),
                _typed(obj["warmup"], bool),
                _vclock_from_json(obj.get("vclock")),
            )
        elif kind == engine.GRAPH_CHOSEN:
            payload = (_typed(obj["graph_id"]),)
        elif kind == engine.APPLY_START:
            payload = (_typed(obj["replica"]),)
        elif kind == engine.APPLY_END:
            if "value" in obj:
                payload = (_typed(obj["replica"]), tuple(_typed(obj["value"], list)))
            else:
                payload = (_typed(obj["replica"]), _typed(obj["write_id"]))
        elif kind == engine.ACK:
            payload = (_typed(obj["parent"]), _typed(obj["child"]))
        elif kind == engine.READ_RETURN:
            returned = _typed(obj["returned"], list)
            if refs is None:
                returned = tuple(map(_ref_from_json, returned))
            else:
                returned = tuple([_interned_ref(r, refs, line) for r in returned])
            payload = (tuple(_typed(obj["participants"], list)), returned)
        elif kind == engine.OP_COMMIT:
            payload = (_typed(obj["latency_us"]),)
        elif kind == engine.OP_FAIL:
            payload = (_typed(obj["reason"], str),)
        elif kind in (engine.REPLICA_DOWN, engine.REPLICA_UP):
            payload = (_typed(obj["replica"]),)
        else:
            raise MalformedLogError(f"unknown event kind {kind!r}", line)
        return (seq, t, op_id, kind, payload)
    except KeyError as e:
        raise MalformedLogError(f"event is missing field {e.args[0]!r}", line) from None
    except (AttributeError, TypeError, ValueError):
        raise MalformedLogError("event has a field of the wrong type", line) from None


def _meta_to_json(meta: dict) -> dict:
    obj = {"kind": "run_meta", "format": FORMAT_VERSION}
    obj.update({k: v for k, v in meta.items() if k != "graphs"})
    obj["graphs"] = {str(gid): info for gid, info in meta.get("graphs", {}).items()}
    return obj


def _graph_from_json(info) -> dict:
    """A header graph entry: an object whose ``vertices``, if given, are integers."""
    if not isinstance(info, dict):
        raise ValueError("graph entry is not an object")
    vertices = info.get("vertices")
    if vertices is not None and (type(vertices) is not list or any(type(v) is not int for v in vertices)):
        raise ValueError("graph vertices must be a list of integers")
    return info


def _meta_from_json(obj, line: int) -> dict:
    meta = {k: v for k, v in obj.items() if k not in ("kind", "format", "graphs")}
    try:
        meta["graphs"] = {int(gid): _graph_from_json(info) for gid, info in obj.get("graphs", {}).items()}
    except (AttributeError, ValueError):
        raise MalformedLogError("run_meta header has a field of the wrong type", line) from None
    if "strategy" in meta and meta["strategy"] not in STRATEGIES:
        raise MalformedLogError(f"run_meta header names unknown strategy {meta['strategy']!r}", line)
    return meta


def _vclock_line(vclock) -> str:
    return "{" + ",".join([f'"{cid}":{n}' for cid, n in vclock]) + "}"


def _ref_line(ref: VersionRef) -> str:
    vclock = "" if ref.vclock is None else f',"vclock":{_vclock_line(ref.vclock)}'
    return f'{{"write_id":{ref.write_id},"client_id":{ref.client_id},"client_ts_us":{ref.client_timestamp}{vclock}}}'


_REPLICA_KINDS = frozenset((engine.APPLY_START, engine.REPLICA_DOWN, engine.REPLICA_UP))


def _event_lines(events):
    """One line per event, the bytes ``json.dumps(event_to_json(ev))`` gives
    with compact separators, formatted from a fixed template per kind.

    A returned ref is formatted once per ref object: the memo maps a write
    id to the last ref formatted for it, and a different object with that
    id is formatted from its own fields.
    """
    ref_lines: dict[int, tuple[VersionRef, str]] = {}

    def ref_line(ref):
        hit = ref_lines.get(ref.write_id)
        if hit is None or hit[0] is not ref:
            hit = ref_lines[ref.write_id] = (ref, _ref_line(ref))
        return hit[1]

    for seq, t, op_id, kind, payload in events:
        head = f'{{"seq":{seq},"time_us":{t},"op_id":{"null" if op_id is None else op_id},"kind":"{kind}"'
        if kind in _REPLICA_KINDS:
            yield f'{head},"replica":{payload[0]}}}\n'
        elif kind == engine.ACK:
            yield f'{head},"parent":{payload[0]},"child":{payload[1]}}}\n'
        elif kind == engine.APPLY_END:
            replica, value = payload
            if isinstance(value, tuple):
                yield f'{head},"replica":{replica},"value":[{",".join(map(str, value))}]}}\n'
            else:
                yield f'{head},"replica":{replica},"write_id":{value}}}\n'
        elif kind == engine.OP_START:
            client, op_kind, key, write_id, payload_bytes, warmup, vclock = payload
            line = f'{head},"client_id":{client},"op":{_json_str(op_kind)},"key":{key}'
            if write_id is not None:
                line = f'{line},"write_id":{write_id}'
            line = f'{line},"payload_bytes":{payload_bytes},"warmup":{"true" if warmup else "false"}'
            if vclock is not None:
                line = f'{line},"vclock":{_vclock_line(vclock)}'
            yield line + "}\n"
        elif kind == engine.GRAPH_CHOSEN:
            yield f'{head},"graph_id":{payload[0]}}}\n'
        elif kind == engine.READ_RETURN:
            participants, refs = payload
            yield (
                f'{head},"participants":[{",".join(map(str, participants))}],'
                f'"returned":[{",".join(map(ref_line, refs))}]}}\n'
            )
        elif kind == engine.OP_COMMIT:
            yield f'{head},"latency_us":{payload[0]}}}\n'
        elif kind == engine.OP_FAIL:
            yield f'{head},"reason":{_json_str(payload[0])}}}\n'
        else:
            raise ValueError(f"unknown event kind {kind!r}")


def write_events(log: SimulationLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_meta_to_json(log.meta), separators=(",", ":")))
        fh.write("\n")
        fh.writelines(_event_lines(log.events))


_decode = json.JSONDecoder().raw_decode


def iter_events(path, meta: dict):
    """Yield the events of an events file in file order, in one pass.

    The run_meta header fills meta when the pass reaches it, wherever it is
    in the file (a later header replaces an earlier one). Every returned ref
    of one write id is one object (see ``event_from_json``).
    """
    refs: dict = {}  # write id -> (its ref, the JSON object of its first return)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode(line)
            except json.JSONDecodeError:
                raise MalformedLogError("line is not valid JSON", line_no) from None
            if end != len(line):
                raise MalformedLogError("line is not valid JSON", line_no)
            if not isinstance(obj, dict) or "kind" not in obj:
                raise MalformedLogError("line is not an event object", line_no)
            if obj["kind"] == "run_meta":
                header = _meta_from_json(obj, line_no)
                meta.clear()
                meta.update(header)
                continue
            yield event_from_json(obj, line_no, refs)


def read_events(path) -> SimulationLog:
    """Parse an events file back into a SimulationLog (without final stores)."""
    meta: dict = {}
    events = list(iter_events(path, meta))
    return SimulationLog(meta, events, {})


def write_json_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


READ_VERDICT_HEADER = ["op_id", "client_id", "key", "start_us", "stale", "mrc", "rywc", "returned_writes"]


def write_read_verdicts(verdicts, path) -> None:
    """Per-read verdict CSV (non-warmup committed reads, one row per read)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(READ_VERDICT_HEADER)
        for v in verdicts:
            if v.warmup:
                continue
            writer.writerow(
                [
                    v.op_id,
                    v.client_id,
                    v.key,
                    v.start_us,
                    str(v.stale).lower(),
                    str(v.mrc).lower(),
                    str(v.rywc).lower(),
                    ";".join(str(w) for w in v.returned_write_ids),
                ]
            )


OPS_HEADER = ["op_id", "client_id", "kind", "key", "graph_id", "start_us", "status", "latency_us", "window_us", "warmup"]


def write_op_table(records, path) -> None:
    """Raw per-op CSV for external plotting (all ops, warmup flagged)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OPS_HEADER)
        for r in records:
            writer.writerow(
                [
                    r["op_id"],
                    r["client_id"],
                    r["kind"],
                    r["key"],
                    r["graph_id"],
                    r["start_us"],
                    r["status"],
                    r["latency_us"] if r["latency_us"] is not None else "",
                    r["window_us"] if r["window_us"] is not None else "",
                    str(r["warmup"]).lower(),
                ]
            )
