"""Serialization of event logs, metric reports, and verdict tables.

Events file: JSON Lines. The first line is the file's one ``run_meta``
header, carrying the strategy, seed, and cooperation-graph summaries so the
file is self-contained for re-analysis; every following line is one event
with fields in fixed order (seq, time_us, op_id, kind, then kind-specific
payload).

The writer, ``written_chunks``, is one streaming pass too: it writes the
header, then the lines of each chunk of events it is given, and passes each
chunk on once written, so ``run`` feeds the engine's chunks through it into
the op table without holding the event list. ``write_events`` is that
writer over a held log. It formats each event line from a fixed template
per kind, with no whitespace and strings ASCII-escaped, and expects the
engine's field types; it formats each returned ref object once per file.
``event_to_json`` is the reference form: each line equals
``json.dumps(event_to_json(ev), separators=(",", ":"))``.

The reader, ``iter_events``, is one streaming pass: it yields each event as
its line is read, so ``analyze`` feeds the op table without holding the
event list, and ``read_events`` is that pass collected into a list. It
accepts any valid JSON formatting, ignores unknown fields and tolerates
shuffled event lines, the header included. A write returned exactly as at
its first return reuses that return's ``VersionRef``; the op table checks
any other return against the write's op_start. An op_start's ``op`` is
handed on as the shared ``READ`` or ``WRITE`` constant, as the engine's
events carry it, not as a decoded copy per line. ``event_from_json`` on one
decoded line, without that cache, is its reference form. Structural
problems and a field that a stage reads with the wrong type raise
MalformedLogError with the 1-based line number; a clock key that is not a
client id's canonical decimal form ("07" for 7) counts as wrong-typed, so
no clock names a client twice.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from json.encoder import encode_basestring_ascii as _json_str

from .errors import MalformedLogError
from .events import (ACK, APPLY_END, APPLY_START, GRAPH_CHOSEN, OP_COMMIT, OP_FAIL, OP_START, READ, READ_RETURN,
                     REPLICA_DOWN, REPLICA_UP, WRITE, SimulationLog)
from .strategies import STRATEGIES, VersionRef

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


def _ints(values) -> tuple:
    """values, a list of ints (never bools), as a tuple."""
    if type(values) is not list or not all(type(v) is int for v in values):
        raise TypeError("expected a list of int")
    return tuple(values)


def _client_of(key: str) -> int:
    """The client id that a clock key names, which must be its canonical
    decimal form: a second spelling of one id ("07", "+7") would repeat it."""
    client = int(key)
    if str(client) != key:
        raise ValueError("clock key is not a canonical decimal")
    return client


def _vclock_from_json(vclock) -> tuple | None:
    if vclock is None:
        return None
    return tuple(sorted((_client_of(c), _typed(n)) for c, n in vclock.items()))


def _ref_from_json(obj) -> VersionRef:
    return VersionRef(
        _typed(obj["write_id"]),
        _typed(obj["client_id"]),
        _typed(obj["client_ts_us"]),
        _vclock_from_json(obj.get("vclock")),
    )


def _exact_ints(obj) -> bool:
    """Whether a returned ref's ints, its vclock counters too, are of type int."""
    vclock = obj.get("vclock")
    return (
        type(obj["write_id"]) is int
        and type(obj["client_id"]) is int
        and type(obj["client_ts_us"]) is int
        and (vclock is None or all(type(n) is int for n in vclock.values()))
    )


def _interned_ref(obj, refs: dict) -> VersionRef:
    """The ref of obj: the one refs holds for its write id, if obj's fields
    equal that ref's, and else a new one.

    refs maps a write id to (its ref, the JSON object of its first return).
    The fields of every return are type-checked, so one equal to the first
    in value only (false for 0, 1.0 for 1) raises TypeError.
    """
    seen = refs.get(obj["write_id"])
    if seen is None:
        ref = _ref_from_json(obj)
        refs[ref.write_id] = (ref, obj)
        return ref
    ref, first = seen
    if obj != first or not _exact_ints(obj):
        new = _ref_from_json(obj)
        if new != ref:
            return new
    return ref


def event_to_json(ev) -> dict:
    seq, t, op_id, kind, payload = ev
    obj = {"seq": seq, "time_us": t, "op_id": op_id, "kind": kind}
    if kind == OP_START:
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
    elif kind == GRAPH_CHOSEN:
        obj["graph_id"] = payload[0]
    elif kind == APPLY_START:
        obj["replica"] = payload[0]
    elif kind == APPLY_END:
        obj["replica"] = payload[0]
        if isinstance(payload[1], tuple):
            obj["value"] = list(payload[1])
        else:
            obj["write_id"] = payload[1]
    elif kind == ACK:
        obj["parent"] = payload[0]
        obj["child"] = payload[1]
    elif kind == READ_RETURN:
        obj["participants"] = list(payload[0])
        obj["returned"] = [_ref_to_json(r) for r in payload[1]]
    elif kind == OP_COMMIT:
        obj["latency_us"] = payload[0]
    elif kind == OP_FAIL:
        obj["reason"] = payload[0]
    elif kind in (REPLICA_DOWN, REPLICA_UP):
        obj["replica"] = payload[0]
    else:
        raise ValueError(f"unknown event kind {kind!r}")
    return obj


def event_from_json(obj, line: int | None = None, refs: dict | None = None):
    """The event tuple of a decoded event line.

    Without refs this is the reference form: every returned ref is a new
    object. With refs, the cache of one pass over a log, a returned ref
    equal to the first return of its write id reuses that return's object.
    An op_start's op kind is the module constant READ or WRITE. A field that
    a stage reads and that has the wrong type, a value id, a participant or
    a clock key included, raises MalformedLogError.
    """
    try:
        seq, t, op_id, kind = obj["seq"], obj["time_us"], obj["op_id"], obj["kind"]
        if type(seq) is not int or type(t) is not int or not (op_id is None or type(op_id) is int):
            raise MalformedLogError("event seq and time_us must be integers, op_id an integer or null", line)
        if kind == OP_START:
            op_kind, write_id = obj["op"], obj.get("write_id")
            if op_kind not in _OP_KINDS:
                raise MalformedLogError(f"op_start op must be one of {', '.join(_OP_KINDS)}", line)
            payload = (
                _typed(obj["client_id"]),
                READ if op_kind == READ else WRITE,  # the shared constant, not the decoded copy
                _typed(obj["key"]),
                write_id if write_id is None else _typed(write_id),
                _typed(obj["payload_bytes"]),
                _typed(obj["warmup"], bool),
                _vclock_from_json(obj.get("vclock")),
            )
        elif kind == GRAPH_CHOSEN:
            payload = (_typed(obj["graph_id"]),)
        elif kind == APPLY_START:
            payload = (_typed(obj["replica"]),)
        elif kind == APPLY_END:
            if "value" in obj:
                payload = (_typed(obj["replica"]), _ints(obj["value"]))
            else:
                payload = (_typed(obj["replica"]), _typed(obj["write_id"]))
        elif kind == ACK:
            payload = (_typed(obj["parent"]), _typed(obj["child"]))
        elif kind == READ_RETURN:
            returned = _typed(obj["returned"], list)
            if refs is None:
                returned = tuple(map(_ref_from_json, returned))
            else:
                returned = tuple([_interned_ref(r, refs) for r in returned])
            payload = (_ints(obj["participants"]), returned)
        elif kind == OP_COMMIT:
            payload = (_typed(obj["latency_us"]),)
        elif kind == OP_FAIL:
            payload = (_typed(obj["reason"], str),)
        elif kind in (REPLICA_DOWN, REPLICA_UP):
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
    if info.get("vertices") is not None:
        _ints(info["vertices"])
    return info


def _meta_from_json(obj, line: int) -> dict:
    meta = {k: v for k, v in obj.items() if k not in ("kind", "format", "graphs")}
    try:
        meta["graphs"] = {int(gid): _graph_from_json(info) for gid, info in obj.get("graphs", {}).items()}
    except (AttributeError, TypeError, ValueError):
        raise MalformedLogError("run_meta header has a field of the wrong type", line) from None
    if "strategy" in meta and meta["strategy"] not in STRATEGIES:
        raise MalformedLogError(f"run_meta header names unknown strategy {meta['strategy']!r}", line)
    return meta


def _vclock_line(vclock) -> str:
    return "{" + ",".join([f'"{cid}":{n}' for cid, n in vclock]) + "}"


def _ref_line(ref: VersionRef) -> str:
    vclock = "" if ref.vclock is None else f',"vclock":{_vclock_line(ref.vclock)}'
    return f'{{"write_id":{ref.write_id},"client_id":{ref.client_id},"client_ts_us":{ref.client_timestamp}{vclock}}}'


_REPLICA_KINDS = frozenset((APPLY_START, REPLICA_DOWN, REPLICA_UP))


def _event_lines(events, ref_lines: dict):
    """One line per event, the bytes ``json.dumps(event_to_json(ev))`` gives
    with compact separators, formatted from a fixed template per kind.

    A returned ref is formatted once per ref object: the memo ref_lines,
    kept for one file, maps a write id to (the last ref formatted for it,
    its line), and a different object with that id is formatted from its
    own fields.
    """

    def ref_line(ref):
        hit = ref_lines.get(ref.write_id)
        if hit is None or hit[0] is not ref:
            hit = ref_lines[ref.write_id] = (ref, _ref_line(ref))
        return hit[1]

    for seq, t, op_id, kind, payload in events:
        head = f'{{"seq":{seq},"time_us":{t},"op_id":{"null" if op_id is None else op_id},"kind":"{kind}"'
        if kind in _REPLICA_KINDS:
            yield f'{head},"replica":{payload[0]}}}\n'
        elif kind == ACK:
            yield f'{head},"parent":{payload[0]},"child":{payload[1]}}}\n'
        elif kind == APPLY_END:
            replica, value = payload
            if isinstance(value, tuple):
                yield f'{head},"replica":{replica},"value":[{",".join(map(str, value))}]}}\n'
            else:
                yield f'{head},"replica":{replica},"write_id":{value}}}\n'
        elif kind == OP_START:
            client, op_kind, key, write_id, payload_bytes, warmup, vclock = payload
            line = f'{head},"client_id":{client},"op":{_json_str(op_kind)},"key":{key}'
            if write_id is not None:
                line = f'{line},"write_id":{write_id}'
            line = f'{line},"payload_bytes":{payload_bytes},"warmup":{"true" if warmup else "false"}'
            if vclock is not None:
                line = f'{line},"vclock":{_vclock_line(vclock)}'
            yield line + "}\n"
        elif kind == GRAPH_CHOSEN:
            yield f'{head},"graph_id":{payload[0]}}}\n'
        elif kind == READ_RETURN:
            participants, refs = payload
            yield (
                f'{head},"participants":[{",".join(map(str, participants))}],'
                f'"returned":[{",".join(map(ref_line, refs))}]}}\n'
            )
        elif kind == OP_COMMIT:
            yield f'{head},"latency_us":{payload[0]}}}\n'
        elif kind == OP_FAIL:
            yield f'{head},"reason":{_json_str(payload[0])}}}\n'
        else:
            raise ValueError(f"unknown event kind {kind!r}")


def written_chunks(meta: dict, chunks, path):
    """Write the events file of meta and chunks to path, and yield each chunk
    once its lines are written.

    chunks is an iterable of event lists, such as the engine's
    ``simulation_chunks``; the file is the one ``write_events`` writes for
    the chained events. The header goes out when the first chunk is asked
    for, and the file is complete and closed once the chunks run out.
    """
    ref_lines: dict[int, tuple[VersionRef, str]] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_meta_to_json(meta), separators=(",", ":")))
        fh.write("\n")
        for chunk in chunks:
            fh.writelines(_event_lines(chunk, ref_lines))
            yield chunk


def write_events(log: SimulationLog, path) -> None:
    deque(written_chunks(log.meta, (log.events,), path), maxlen=0)


_decode = json.JSONDecoder().raw_decode


def iter_events(path, meta: dict):
    """Yield the events of an events file in file order, in one pass.

    A file has one run_meta header, which fills meta when the pass reaches
    it, wherever it is in the file; a second one raises MalformedLogError.
    The returns of one write id that are equal share one ref object (see
    ``event_from_json``).
    """
    refs: dict = {}  # write id -> (its ref, the JSON object of its first return)
    header_line = None
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
                if header_line is not None:
                    raise MalformedLogError(f"second run_meta header (the first is on line {header_line})", line_no)
                header_line = line_no
                meta.update(_meta_from_json(obj, line_no))
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
                    ";".join(str(w.write_id) for w in v.returned),
                ]
            )


OPS_HEADER = ["op_id", "client_id", "kind", "key", "graph_id", "start_us", "status", "latency_us", "window_us", "warmup"]


def write_op_table(records, path) -> None:
    """Raw per-op CSV for external plotting (all ops, warmup flagged)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OPS_HEADER)
        for r in records:
            row = [r[f] for f in OPS_HEADER]  # csv writes None as an empty field
            row[-1] = "true" if r["warmup"] else "false"
            writer.writerow(row)
