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
writer over a held log. Each line comes from one f-string per kind, the
bytes ``json.dumps`` gives for the event's object with compact separators.
Within a chunk, the writer builds the text of a list of returned refs or of
a read's value ids from the chunk's last list with the same first write id
(``_joined``): a list that extends it costs only its new items' text, as a
write_set key's merged set mostly grows between reads. Each row of
``ops.csv`` (an op table record) and ``read_verdicts.csv`` comes from one
f-string too, as ``csv.writer`` writes it, and a row's returned writes
extend the text of its key's last row in the same way. Each JSON report
is ``json.dump(report, fh, indent=2, sort_keys=True)`` plus a newline, which
writes the text as it encodes it and never holds all of it.

The reader, ``iter_events``, is one streaming pass: it yields each event as
its line is read, so ``analyze`` feeds the op table without holding the
event list, and ``read_events`` is that pass collected into a list. It
scans each line with json's C scanner and decodes it with its kind's
decoder, which names a line's first fault itself. A ``read_return`` line
that ends with a compact list of two or more returned refs, as the writer
writes a merged set (``,"returned":[{...},{...}]}``), is read in parts: each
ref's text is decoded once per pass and looked up on every later line that
repeats it, and the rest of the line is scanned with an empty list in its
place (``_split_read_return``). Any other line, and a line whose parts do
not each scan as one complete object, is scanned whole, so every valid JSON
formatting reads the same. It accepts shuffled event lines, the header
included. An event line carries exactly the fields the writer writes for
its kind (and variant); the header and a returned ref may carry more.
Equal returned refs share one ``VersionRef``, which the op table checks
against its write's op_start once. The kind and an op_start's ``op`` are
handed on as the shared module constants. A structural problem, a missing,
wrong-typed or unknown field raises MalformedLogError with the 1-based line
number. A clock key or header graph key must be its id's canonical decimal
("7", not "07"), so no id is named twice, and the header's ``format`` must
be 1. A file without a header, or a header that names no strategy or has no
``graphs`` (``{}`` lists none), is MalformedLogError: the strategy and the
graphs shape both stages' reports.
"""

from __future__ import annotations

import json
from collections import deque
from json.scanner import make_scanner
from json.encoder import encode_basestring_ascii as _quoted

from .errors import MalformedLogError
from .events import (ACK, APPLY_END, APPLY_START, GRAPH_CHOSEN, OP_COMMIT, OP_FAIL, OP_START, READ, READ_RETURN,
                     REPLICA_DOWN, REPLICA_UP, WRITE, SimulationLog)
from .strategies import STRATEGIES, VersionRef

FORMAT_VERSION = 1
_OP_KINDS = (READ, WRITE)


def _typed(value, cls=int):
    """value, which must be of type cls exactly (so a bool is no int)."""
    if type(value) is not cls:
        raise TypeError(f"expected {cls.__name__}")
    return value


def _ints(values) -> tuple:
    """values, a list of ints (never bools), as a tuple."""
    if type(values) is not list:
        raise TypeError("expected a list of int")
    for v in values:  # a loop, not all(): it runs on every read's lines
        if type(v) is not int:
            raise TypeError("expected a list of int")
    return tuple(values)


def _int_key(key: str) -> int:
    """The id that a clock key (a client) or a header graph key names, which
    must be its canonical decimal form: a second spelling of one id ("07",
    "+7", " 7") would repeat it."""
    n = int(key)
    if str(n) != key:
        raise ValueError("key is not a canonical decimal")
    return n


def _vclock_from_json(vclock) -> tuple:
    return tuple(sorted((_int_key(c), _typed(n)) for c, n in vclock.items()))


# A kind's decoder(obj, refs, line) raises KeyError, AttributeError, TypeError or ValueError for a missing or
# wrong-typed field, which iter_events names, and MalformedLogError for any other fault.
_EXTRA_FIELD = "event has a field that its kind does not have"


def _op_start(obj, refs, line):
    op_kind, vclock = obj["op"], obj.get("vclock")
    if op_kind not in _OP_KINDS:
        raise MalformedLogError(f"op_start op must be one of {', '.join(_OP_KINDS)}", line)
    client, key, payload_bytes, warmup = obj["client_id"], obj["key"], obj["payload_bytes"], obj["warmup"]
    if not (type(client) is type(key) is type(payload_bytes) is int and type(warmup) is bool):
        raise TypeError("expected int fields and a bool warmup")
    write_id = _typed(obj["write_id"]) if op_kind == WRITE else None  # a write's field, and only a write's
    vclock = None if vclock is None else _vclock_from_json(vclock)
    if len(obj) != 9 + (write_id is not None) + (vclock is not None):
        raise MalformedLogError(_EXTRA_FIELD, line)
    return (client, READ if op_kind == READ else WRITE, key, write_id, payload_bytes, warmup, vclock)


def _apply_end(obj, refs, line):
    replica, carried = obj["replica"], (_ints(obj["value"]) if "value" in obj else obj["write_id"])
    if type(replica) is not int or type(carried) not in (int, tuple):  # a write id, or a read's value ids
        raise TypeError("expected an int replica and write_id")
    if len(obj) != 6:
        raise MalformedLogError(_EXTRA_FIELD, line)
    return (replica, carried)


def _ack(obj, refs, line):
    parent, child = obj["parent"], obj["child"]
    if not type(parent) is type(child) is int:
        raise TypeError("expected int parent and child")
    if len(obj) != 6:
        raise MalformedLogError(_EXTRA_FIELD, line)
    return (parent, child)


def _ref(r, refs) -> VersionRef:
    """The one VersionRef of returned ref r, which refs maps its type-checked fields to."""
    write_id, client, ts, vclock = r["write_id"], r["client_id"], r["client_ts_us"], r.get("vclock")
    if not type(write_id) is type(client) is type(ts) is int:
        raise TypeError("expected int ref fields")
    fields = (write_id, client, ts, None if vclock is None else _vclock_from_json(vclock))
    ref = refs.get(fields)
    if ref is None:
        ref = refs[fields] = VersionRef(*fields)
    return ref


def _read_return(obj, refs, line):
    returned = obj["returned"]
    if type(returned) is list:
        returned = tuple([_ref(r, refs) for r in returned])
    elif type(returned) is not tuple:  # a tuple is the refs that _split_read_return decoded, as no JSON value is
        raise TypeError("expected a list of refs")
    participants = _ints(obj["participants"])
    if len(obj) != 6:
        raise MalformedLogError(_EXTRA_FIELD, line)
    return (participants, returned)


def _one_field(name, cls=int):
    """The decoder of a kind whose payload is its one field name, of type cls."""
    def decode(obj, refs, line):
        value = obj[name]
        if type(value) is not cls:
            raise TypeError(f"expected {cls.__name__}")
        if len(obj) != 5:
            raise MalformedLogError(_EXTRA_FIELD, line)
        return (value,)
    return decode


_DECODERS = {kind: (kind, decode) for kind, decode in {  # kind -> (the shared kind constant, its decoder)
    APPLY_START: _one_field("replica"), APPLY_END: _apply_end, OP_START: _op_start, GRAPH_CHOSEN: _one_field("graph_id"),
    OP_COMMIT: _one_field("latency_us"), READ_RETURN: _read_return, ACK: _ack, OP_FAIL: _one_field("reason", str),
    REPLICA_DOWN: _one_field("replica"), REPLICA_UP: _one_field("replica"),
}.items()}


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
    fmt = obj.get("format")
    if type(fmt) is not int or fmt != FORMAT_VERSION:  # so neither true nor 1.0
        raise MalformedLogError(f"run_meta header format must be {FORMAT_VERSION}, not {fmt!r}", line)
    meta = {k: v for k, v in obj.items() if k not in ("kind", "format", "graphs")}
    if "graphs" not in obj:
        raise MalformedLogError("run_meta header lists no graphs", line)
    try:
        meta["graphs"] = {_int_key(gid): _graph_from_json(info) for gid, info in obj["graphs"].items()}
    except (AttributeError, TypeError, ValueError):
        raise MalformedLogError("run_meta header has a field of the wrong type", line) from None
    if "strategy" not in meta:
        raise MalformedLogError("run_meta header names no strategy", line)
    if meta["strategy"] not in STRATEGIES:
        raise MalformedLogError(f"run_meta header names unknown strategy {meta['strategy']!r}", line)
    return meta


def _vclock_line(vclock) -> str:
    return "{" + ",".join([f'"{cid}":{n}' for cid, n in vclock]) + "}"


def _ref_line(ref: VersionRef) -> str:
    vclock = "" if ref.vclock is None else f',"vclock":{_vclock_line(ref.vclock)}'
    return f'{{"write_id":{ref.write_id},"client_id":{ref.client_id},"client_ts_us":{ref.client_timestamp}{vclock}}}'


def _joined(memo: dict, key, items, text_of, sep=",") -> str:
    """sep.join(map(text_of, items)), built from the last list of two or
    more items joined under key: memo maps key to (that list, its text).

    When items starts with that list, the text is the list's text with only
    the new items' text appended; otherwise it is formatted whole. The test
    is ``==`` on the prefix, which is exact when equal items give equal
    text, as a ref's fields or a write id do. Items of two or more become
    the key's last list.
    """
    last = memo.get(key)
    if last is not None and items[:len(last[0])] == last[0]:
        prev, text = last
        if len(items) > len(prev):
            text = sep.join([text, *map(text_of, items[len(prev):])])
    else:
        text = sep.join(map(text_of, items))
    if len(items) > 1:
        memo[key] = (items, text)
    return text


def _event_lines(events):
    """One compact JSON line per event, formatted from one template per kind.

    A returned ref is formatted once per ref object and call: the memo
    ref_lines maps a write id to (the last ref formatted for it, its line),
    and a different object with that id is formatted from its own fields.
    A list of two or more returned refs, and a read's apply_end list of
    value ids, extends the last such list with the same first write id
    (``_joined``): a key's merged set mostly grows between reads, so only
    its new versions are formatted. The memos go with the call, so no ref
    outlives the events it came in.
    """
    ref_lines: dict[int, tuple[VersionRef, str]] = {}
    ref_lists: dict[int, tuple] = {}  # first write id -> (the last list of refs, its text)
    id_lists: dict[int, tuple] = {}  # first write id -> (the last list of value ids, its text)

    def ref_line(ref):
        hit = ref_lines.get(ref.write_id)
        if hit is None or hit[0] is not ref:
            hit = ref_lines[ref.write_id] = (ref, _ref_line(ref))
        return hit[1]

    for seq, t, op_id, kind, p in events:
        op = "null" if op_id is None else op_id
        if kind == APPLY_START:
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"apply_start","replica":{p[0]}}}\n'
        elif kind == APPLY_END:
            carried = p[1]
            if isinstance(carried, tuple):
                ids = _joined(id_lists, carried[0], carried, str) if len(carried) > 1 else ",".join(map(str, carried))
                carried = f'"value":[{ids}]'
            else:
                carried = f'"write_id":{carried}'
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"apply_end","replica":{p[0]},{carried}}}\n'
        elif kind == OP_START:
            client, op_kind, key, write_id, payload_bytes, warmup, vclock = p
            write_id = "" if write_id is None else f',"write_id":{write_id}'
            vclock = "" if vclock is None else f',"vclock":{_vclock_line(vclock)}'
            yield (
                f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"op_start","client_id":{client},"op":{_quoted(op_kind)},'
                f'"key":{key}{write_id},"payload_bytes":{payload_bytes},"warmup":{"true" if warmup else "false"}{vclock}}}\n'
            )
        elif kind == GRAPH_CHOSEN:
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"graph_chosen","graph_id":{p[0]}}}\n'
        elif kind == OP_COMMIT:
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"op_commit","latency_us":{p[0]}}}\n'
        elif kind == READ_RETURN:
            refs = p[1]
            refs = _joined(ref_lists, refs[0].write_id, refs, ref_line) if len(refs) > 1 else ",".join(map(ref_line, refs))
            yield (
                f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"read_return","participants":[{",".join(map(str, p[0]))}],'
                f'"returned":[{refs}]}}\n'
            )
        elif kind == ACK:
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"ack_received","parent":{p[0]},"child":{p[1]}}}\n'
        elif kind == OP_FAIL:
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"op_fail","reason":{_quoted(p[0])}}}\n'
        elif kind == REPLICA_DOWN or kind == REPLICA_UP:
            yield f'{{"seq":{seq},"time_us":{t},"op_id":{op},"kind":"{kind}","replica":{p[0]}}}\n'
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_meta_to_json(meta), separators=(",", ":")))
        fh.write("\n")
        for chunk in chunks:
            fh.writelines(_event_lines(chunk))
            yield chunk


def write_events(log: SimulationLog, path) -> None:
    deque(written_chunks(log.meta, (log.events,), path), maxlen=0)


_scan = make_scanner(json.JSONDecoder())  # json's C scanner, without raw_decode's Python frame
_RETURNED = ',"returned":[{'


def _split_read_return(line: str, texts: dict, refs: dict):
    """The object of a read_return line that ends with a compact list of two
    or more returned refs (``,"returned":[{...},{...}]}``; the caller checks
    the ``}]}``), its "returned" the refs' tuple, or None for any other line.

    Each element's text (between its braces) is decoded once: texts maps it
    to its VersionRef. The rest of the line is scanned with ``[]`` in place
    of the list. The split is exact. ``,"`` cannot occur inside a JSON
    string, so a head that scans as one complete object puts the cut at its
    top level. Elements that each scan alone as one complete object, joined
    by commas, are exactly the array's elements. And the last "returned"
    key wins in both readings. A line that fails a step gives None, and the
    scanner reads it whole.
    """
    cut = line.find(_RETURNED)
    elements = line[cut + len(_RETURNED):-3].split("},{") if cut >= 0 else ()
    if len(elements) < 2:
        return None
    head = line[:cut] + ',"returned":[]}'
    try:
        obj, end = _scan(head, 0)
        if end != len(head) or type(obj) is not dict or obj.get("kind") != READ_RETURN:
            return None
        returned = []
        for text in elements:
            ref = texts.get(text)
            if ref is None:
                r, end = _scan("{" + text + "}", 0)
                if end != len(text) + 2:
                    return None
                ref = texts[text] = _ref(r, refs)
            returned.append(ref)
    except (KeyError, AttributeError, TypeError, ValueError, StopIteration, RecursionError):
        return None
    obj["returned"] = tuple(returned)
    return obj


def iter_events(path, meta: dict):
    """Yield the events of an events file in file order, in one pass.

    A file has one run_meta header, which fills meta when the pass reaches
    it, wherever it is in the file; a second one raises MalformedLogError,
    and so does reaching the end without one.
    Equal returned refs share one ``VersionRef``.
    """
    refs: dict = {}  # a returned ref's fields -> its VersionRef
    texts: dict = {}  # a returned ref's text in a compact list -> its VersionRef
    header_line = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip(" \t\r\n")  # JSON's whitespace, not str.strip's
                if not line:
                    continue
                obj = _split_read_return(line, texts, refs) if line.endswith("}]}") and "},{" in line else None
                if obj is None:
                    try:
                        obj, end = _scan(line, 0)
                    except (ValueError, StopIteration, RecursionError):  # JSONDecodeError, an integer too long, nested too deep
                        end = -1
                    if end != len(line):
                        raise MalformedLogError("line is not valid JSON", line_no)
                if type(obj) is not dict or "kind" not in obj:
                    raise MalformedLogError("line is not an event object", line_no)
                kind = obj["kind"]
                if kind == "run_meta":
                    if header_line is not None:
                        raise MalformedLogError(f"second run_meta header (the first is on line {header_line})", line_no)
                    header_line = line_no
                    meta.update(_meta_from_json(obj, line_no))
                    continue
                try:
                    seq, t, op_id = obj["seq"], obj["time_us"], obj["op_id"]
                    if not (type(seq) is type(t) is int and (op_id is None or type(op_id) is int)):
                        raise MalformedLogError("event seq and time_us must be integers, op_id an integer or null", line_no)
                    entry = _DECODERS.get(kind) if type(kind) is str else None
                    if entry is None:
                        raise MalformedLogError(f"unknown event kind {kind!r}", line_no)
                    kind, decode = entry
                    event = (seq, t, op_id, kind, decode(obj, refs, line_no))
                except KeyError as e:
                    raise MalformedLogError(f"event is missing field {e.args[0]!r}", line_no) from None
                except (AttributeError, TypeError, ValueError):
                    raise MalformedLogError("event has a field of the wrong type", line_no) from None
                yield event
    except UnicodeDecodeError:  # the bad line is looked for on this path only, so a valid file pays no check per line
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:  # a byte not UTF-8 -> U+DC80-U+DCFF
            line_no = next((n for n, line in enumerate(fh, start=1) if any("\udc80" <= c <= "\udcff" for c in line)), None)
        raise MalformedLogError("line is not UTF-8", line_no) from None
    if header_line is None:
        raise MalformedLogError("events file has no run_meta header")


def read_events(path) -> SimulationLog:
    """Parse an events file back into a SimulationLog (without final stores)."""
    meta: dict = {}
    events = list(iter_events(path, meta))
    return SimulationLog(meta, events, {})


def write_json_report(report: dict, path) -> None:
    """Write report as ``json.dump(report, fh, indent=2, sort_keys=True)`` and
    a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_field(text: str) -> str:
    """text as one field of a CSV row, quoted as ``csv.QUOTE_MINIMAL`` quotes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


READ_VERDICT_HEADER = ["op_id", "client_id", "key", "start_us", "stale", "mrc", "rywc", "returned_writes"]


def _id_text(w) -> str:
    return str(w.write_id)


def write_read_verdicts(verdicts, path) -> None:
    """Per-read verdict CSV (non-warmup committed reads, one row per read):
    the bytes of ``csv.writer``, each row from one template. A row's
    client_id is its read's client and start_us its start. A row's
    returned_writes extends the text of its key's last row (``_joined``)."""
    lists: dict[int, tuple] = {}  # key -> (the last read's returned writes, their text)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(READ_VERDICT_HEADER) + "\r\n")
        fh.writelines(
            f"{r.op_id},{r.client},{r.key},{r.start},{'true' if stale else 'false'},{'true' if mrc else 'false'},"
            f"{'true' if rywc else 'false'},{_joined(lists, r.key, r.returned, _id_text, ';')}\r\n"
            for r, stale, mrc, rywc in verdicts if not r.warmup
        )


OPS_HEADER = ["op_id", "client_id", "kind", "key", "graph_id", "start_us", "status", "latency_us", "window_us", "warmup"]


def write_op_table(records, path) -> None:
    """Raw per-op CSV of op table records for external plotting (all ops,
    warmup flagged), as ``csv.writer`` writes it: client_id is a record's
    client, start_us its start, and a graph_id, latency_us or window_us of
    None is empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(OPS_HEADER) + "\r\n")
        fh.writelines(
            f"{op.op_id},{op.client},{op.kind},{op.key},{'' if op.graph_id is None else op.graph_id},{op.start},"
            f"{_csv_field(op.status)},{'' if op.latency_us is None else op.latency_us},"
            f"{'' if op.window_us is None else op.window_us},{'true' if op.warmup else 'false'}\r\n"
            for op in records
        )
