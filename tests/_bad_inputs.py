"""Every explicit bad-input case of the CLI, as data, and the runner of them.

Tier-1 runs every case through ``quorumsim.cli.main`` in process, each rule
of ``RULES`` as the test of ``tests/test_cli.py`` named after it. Run as a
script (``python tests/_bad_inputs.py``), this module runs every case
through the ``quorumsim`` script on ``PATH`` and exits 1, naming each case
that failed. A new case is one more entry under its rule; both runs pick it up.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from _builders import WRONG_TYPED_DISTRIBUTIONS
from quorumsim import cli, scenario_from_json, scenario_to_json


class Case(NamedTuple):
    """One bad input and what each command that reads it must do.

    base: "preset:NAME" (its document), "graphs:NAME" (the same with its
    level block expanded into graphs), "log:STRATEGY" (a ``Log`` of
    BASE_SCENARIO under STRATEGY), or None. mutate(base) gives a document, a
    log's lines as objects or raw bytes, written as the file {input} (a
    log's lines twice: spaced, and compact as the writer writes them); None
    writes no file. Each command's argv may name {input}, and {out}, a
    directory it must not leave behind. expect is the one line each command
    prints: "..." stands for any text and, under a log base, "{line}" for
    the number of the one line of the input that the base does not have
    and "{terminal[op_id]}" for a field of one of the Log's named events.
    """

    name: str
    base: str | None
    mutate: Callable | None
    commands: tuple
    code: int
    expect: str


VALIDATE_AND_RUN = (("validate", "{input}"), ("run", "{input}", "--out", "{out}", "--quiet"))
ANALYZE = (("analyze", "{input}", "--out", "{out}"),)
EACH_STAGE = tuple(("analyze", "{input}", "--out", "{out}", "--stages", s) for s in ("2", "3"))

# the scenario of the log bases: 3 replicas under QUORUM/QUORUM, 2 clients of 40 ops over 8 keys
BASE_SCENARIO = {
    "meta": {"name": "cli-test", "description": ""},
    "topology": {
        "replicas": [{"id": i, "datacenter": "dc1", **dict.fromkeys(("proc_write", "proc_read"), {"kind": "constant", "value_us": 100})} for i in range(3)],
        "edges": [{"src": i, "dst": j, "base": {"kind": "exponential", "mean_us": 2000}} for i in range(3) for j in range(3) if i != j],
    },
    "consistency": {"placement": [0, 1, 2], "coordinator": 0, "write_cl": "QUORUM", "read_cl": "QUORUM"},
    "workload": {"clients": 2, "ops_per_client": 40, "read_ratio": 0.5, "think_time": {"kind": "constant", "value_us": 500}, "keys": {"kind": "uniform", "n": 8},
                 "write_payload_bytes": {"kind": "constant", "value_us": 64}},
    "strategy": "lww_timestamp",
    "seed": 11,
}


def preset_doc(name: str) -> dict:
    return json.loads((resources.files("quorumsim") / "presets" / f"{name}.json").read_text(encoding="utf-8"))


def replaced(doc: dict, path: tuple, value) -> dict:
    """doc with the value at path (keys and list indices) replaced by value."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _encoded(value, separators=None) -> bytes:
    """The file of a document, of a log's lines (spaced, or with separators) or of raw bytes."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, dict):
        return json.dumps(value).encode()
    return "".join(json.dumps(line, separators=separators) + "\n" for line in value).encode()


class Log:
    """A base log, and the events that the log cases change or name."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.header, *self.events = map(json.loads, raw.splitlines())
        kinds = ("op_commit", "apply_start", "apply_end", "graph_chosen", "ack_received")
        self.terminal, self.apply_start, self.apply_end, self.graph_chosen, self.ack = map(self.first, kinds)
        self.write_apply_end, self.read_apply_end = self.first("apply_end", "write_id"), self.first("apply_end", "value")
        self.write_start, self.read_return = self.first("op_start", "write_id"), self.first("read_return", "returned")
        self.ref = self.read_return["returned"][0]
        starts = {ev["op_id"]: ev for ev in self.events if ev["kind"] == "op_start"}
        writes = {ev["write_id"]: ev for ev in starts.values() if ev["op"] == "write"}
        self.ref_start = writes[self.ref["write_id"]]
        self.write_commit = next(ev for ev in self.events if ev["kind"] == "op_commit" and starts[ev["op_id"]]["op"] == "write")
        returns = [ev for ev in self.events if ev["kind"] == "read_return" and ev["returned"]]
        returned = {r["write_id"] for ev in returns for r in ev["returned"]}
        self.unreturned = next((w for w in writes.values() if w["write_id"] not in returned), None)
        self.last_clocked_write = [None, *(w for w in writes.values() if w.get("vclock"))][-1]
        # a later read of another key than the first read that returned a write, and that write
        first = returns[0]
        key = starts[first["op_id"]]["key"]
        self.foreign_read = next(ev for ev in returns if ev["op_id"] > first["op_id"] and starts[ev["op_id"]]["key"] != key)
        self.foreign_ref, self.foreign_key = first["returned"][0], starts[self.foreign_read["op_id"]]["key"]
        # the first ref to a write that an earlier ref returned, and its read
        seen, self.again = set(), None
        for ev in returns:
            for r in ev["returned"]:
                if r["write_id"] in seen and self.again is None:
                    self.again, self.again_ref = ev, r
                seen.add(r["write_id"])

    @property
    def lines(self) -> list:
        return [self.header, *self.events]

    def first(self, kind, *fields):
        """The first event of kind whose fields are all set and not empty."""
        return next(ev for ev in self.events if ev["kind"] == kind and all(ev.get(f) for f in fields))

    def changed(self, ev, **fields) -> list:
        return [{**e, **fields} if e is ev else e for e in self.lines]

    def plus(self, ev, **fields) -> list:
        """The lines with ev, fields changed, appended under the next seq."""
        return [*self.lines, {**ev, "seq": self.events[-1]["seq"] + 1, **fields}]

    def every_ref(self, start=False, **fields) -> list:
        """The lines with fields changed in every returned ref to ref's write, and in its op_start if start."""

        def change(r):
            return {**r, **fields} if r["write_id"] == self.ref["write_id"] else r

        return [
            {**ev, **fields} if start and ev is self.ref_start else {**ev, "returned": list(map(change, ev["returned"]))} if ev.get("kind") == "read_return" else ev
            for ev in self.lines
        ]

    def again_with(self, **fields) -> list:
        """The lines with fields changed in again's ref again_ref."""
        return self.changed(self.again, returned=[{**r, **fields} if r is self.again_ref else r for r in self.again["returned"]])


# a clock key that is not its client's canonical decimal ("07" for 7) names that client a second time
def _op_start_clock_naming_a_client_twice(log):
    (cid, n), *_ = log.last_clocked_write["vclock"].items()
    return log.changed(log.last_clocked_write, vclock={"0" + cid: n, **log.last_clocked_write["vclock"], cid: n + 1})


def _ref_clock_naming_a_client_twice(log):
    (cid, n), *_ = log.ref["vclock"].items()
    return log.every_ref(vclock={**log.ref["vclock"], "+" + cid: n})


# a read_return line that repeats a line's list of two or more refs, with one more field before the list,
# so that the writer's compact form of it still ends with the list
def _read_return_with_an_extra_field_before_refs_read_before(log):
    ev = next(ev for ev in log.events if ev["kind"] == "read_return" and len(ev["returned"]) > 1)
    return log.plus({k: v for k, v in ev.items() if k != "returned"}, bogus=1, returned=ev["returned"])


_ONE, _GRAPHS = "preset:one_uniform", "graphs:one_uniform"
_LWW, _COMPETING, _WRITE_SET = "log:lww_timestamp", "log:competing_writes", "log:write_set"
_UNLIKE = "...returned write {ref[write_id]} unlike its op_start..."
_AGAIN_UNLIKE = "...op {again[op_id]} returned write {again_ref[write_id]} unlike its op_start..."
_NOT_OF_THE_KEY = "...op {{foreign_read[op_id]}} returned write {}, which is no logged write of key {{foreign_key}}..."
_UNLOGGED = {"write_id": 99_999, "client_id": 0, "client_ts_us": 0}

# logs that stages 2 and 3 each reject: (name, base, mutation, expected line after "MALFORMED_LOG: ")
_MALFORMED_LOGS = [
    # logs that contradict themselves
    ("duplicated_terminal", _LWW, lambda log: log.plus(log.terminal), "...op {terminal[op_id]} ..."),
    ("unknown_op", _LWW, lambda log: log.plus(log.apply_start, op_id=10_000), "...op 10000 ..."),
    ("latency", _LWW, lambda log: log.changed(log.terminal, latency_us=-5_000_000), "...op {terminal[op_id]} has latency_us -5000000..."),
    ("deleted_read_return", _LWW, lambda log: [ev for ev in log.lines if ev is not log.read_return], "...op {read_return[op_id]} ..."),
    ("moved_read_return", _LWW, lambda log: log.changed(log.read_return, time_us=log.read_return["time_us"] - 1), "...op {read_return[op_id]} ..."),
    ("read_return_of_a_write", _LWW, lambda log: log.plus(log.read_return, **{f: log.write_commit[f] for f in ("op_id", "time_us")}), "...op {write_commit[op_id]} ..."),
    ("second_read_return", _LWW, lambda log: log.plus(log.read_return, participants=[], returned=[]), "...op {read_return[op_id]} ..."),
    ("second_header", _LWW, lambda log: [*log.lines, {**log.header, "strategy": "write_set"}], "...second run_meta header (the first is on line ..."),
    (
        "second_apply_end",
        _LWW,
        lambda log: log.plus(log.apply_end, time_us=log.apply_end["time_us"] + 10_000_000),
        "...op {apply_end[op_id]} has more than one apply_end at replica {apply_end[replica]}...",
    ),
    ("apply_end_of_another_write", _LWW, lambda log: log.changed(log.write_apply_end, write_id=99_999), "...op {write_apply_end[op_id]} has an apply_end unlike its op..."),
    (
        "apply_end_form_of_the_other_kind",
        _LWW,
        lambda log: [{**{k: v for k, v in ev.items() if k != "value"}, "write_id": log.write_start["write_id"]} if ev is log.read_apply_end else ev for ev in log.lines],
        "...op {read_apply_end[op_id]} has an apply_end unlike its op...",
    ),
    ("second_graph_chosen", _LWW, lambda log: log.plus(log.graph_chosen), "...op {graph_chosen[op_id]} has more than one graph_chosen..."),
    ("unknown_graph", _LWW, lambda log: log.changed(log.graph_chosen, graph_id=999), "...op {graph_chosen[op_id]} chose graph 999, which the header..."),
    ("ref_with_another_start", _LWW, lambda log: log.every_ref(client_ts_us=log.ref["client_ts_us"] + 10_000_000), _UNLIKE),
    ("ref_with_another_writer", _LWW, lambda log: log.every_ref(client_id=1 - log.ref["client_id"]), _UNLIKE),
    ("ref_returned_again_with_another_start", _LWW, lambda log: log.again_with(client_ts_us=log.again_ref["client_ts_us"] + 1), _AGAIN_UNLIKE),
    ("value_ids", _LWW, lambda log: log.changed(log.read_apply_end, value=["x", None, 1.5]), "event has a field of the wrong type (line {line})"),
    ("unknown_field", _LWW, lambda log: log.changed(log.apply_end, bogus=1), "event has a field that its kind does not have (line {line})"),
    ("unknown_kind", _LWW, lambda log: log.changed(log.terminal, kind="op_retry"), "unknown event kind 'op_retry' (line {line})"),
    (
        "string_seq",
        _LWW,
        lambda log: log.changed(log.read_return, seq=str(log.read_return["seq"])),
        "event seq and time_us must be integers, op_id an integer or null (line {line})",
    ),
    (
        "read_return_with_an_extra_field_before_refs_read_before",
        _WRITE_SET,
        _read_return_with_an_extra_field_before_refs_read_before,
        "event has a field that its kind does not have (line {line})",
    ),
    ("clock_on_an_unreturned_write", _LWW, lambda log: log.changed(log.unreturned, vclock={"0": 1}), "op {unreturned[op_id]} carries a vector clock..."),
    # the write and every ref to it with one clock, so that the refs agree with their write
    ("clock_on_a_returned_write", _LWW, lambda log: log.every_ref(start=True, vclock={str(log.ref["client_id"]): 1}), "op {ref_start[op_id]} carries a vector clock..."),
    ("header_of_another_format", _LWW, lambda log: [{**log.header, "format": 99}, *log.events], "... (line 1)"),
    ("header_without_graphs", _LWW, lambda log: [{k: v for k, v in log.header.items() if k != "graphs"}, *log.events], "... (line 1)"),
    # a returned write that is not the logged write of the read's key, under
    # each strategy: every returned ref must name one and carry its fields
    *(
        (f"{name}_{strategy}", f"log:{strategy}", lambda log, ref=ref: log.changed(log.foreign_read, returned=[ref(log)]), _NOT_OF_THE_KEY.format(write))
        for strategy in ("lww_timestamp", "write_set")
        for name, ref, write in (("ref_of_another_key", lambda log: log.foreign_ref, "{foreign_ref[write_id]}"), ("ref_of_an_unlogged_write", lambda log: _UNLOGGED, 99_999))
    ),
    ("ref_with_another_clock", _COMPETING, lambda log: log.every_ref(vclock={**log.ref["vclock"], "9": 1}), _UNLIKE),  # "9" is no client
    (
        "ref_returned_again_with_a_raised_clock_entry",
        _COMPETING,
        lambda log: log.again_with(vclock={**log.again_ref["vclock"], "0": log.again_ref["vclock"].get("0", 0) + 1}),
        _AGAIN_UNLIKE,
    ),
    ("op_start_clock_naming_a_client_twice", _COMPETING, _op_start_clock_naming_a_client_twice, "... (line {line})"),
    ("ref_clock_naming_a_client_twice", _COMPETING, _ref_clock_naming_a_client_twice, "... (line ...)"),
    # every field that an analysis reads, with the wrong type: the reader names the line
    *(
        (name, _LWW, lambda log, ev=ev, fields=fields: log.changed(getattr(log, ev), **(fields(log) if callable(fields) else fields)), "... (line {line})")
        for name, ev, fields in (
            ("client_id", "write_start", {"client_id": [0]}),
            ("key", "write_start", {"key": "k"}),
            ("payload_bytes", "write_start", {"payload_bytes": True}),
            ("op", "write_start", {"op": "delete"}),
            ("warmup", "write_start", {"warmup": "no"}),
            ("op_start_write_id", "write_start", {"write_id": "1"}),
            ("vclock_entry", "write_start", {"vclock": {"0": "1"}}),
            ("graph_id", "graph_chosen", {"graph_id": "0"}),
            ("replica", "apply_start", {"replica": None}),
            ("parent", "ack", {"parent": "0"}),
            ("child", "ack", {"child": 1.0}),
            ("latency_us", "terminal", {"latency_us": "x"}),
            ("apply_end_write_id", "write_apply_end", {"write_id": [1]}),
            ("value", "read_apply_end", {"value": "1"}),
            ("participants", "read_return", {"participants": 0}),
            ("participant_ids", "read_return", {"participants": ["a", None]}),
            ("ref_write_id", "read_return", lambda log: {"returned": [{**log.ref, "write_id": str(log.ref["write_id"])}]}),
            ("ref_client_id", "read_return", lambda log: {"returned": [{**log.ref, "client_id": str(log.ref["client_id"])}]}),
            ("ref_client_ts_us", "read_return", lambda log: {"returned": [{**log.ref, "client_ts_us": 1.5}]}),
            ("reason", "terminal", {"kind": "op_fail", "reason": 5}),
        )
    ),
]


def _shuffled(mutate: Callable) -> Callable:
    """mutate, with the lines after the first in a fixed random order."""

    def shuffled(log):
        head, *rest = mutate(log)
        random.Random(7).shuffle(rest)
        return [head, *rest]

    return shuffled


# a scenario field with a wrong-typed value, a seed that a run cannot take, or
# an id that names two entries: (base, path, value, start of the error line)
_G0 = ("cooperation", "replication_graphs", 0)
_WRONG_TYPED_FIELDS = [
    (_ONE, ("topology", "edges", 0, "per_byte_us"), "x", "edge 0->1 per_byte_us:"),
    (_ONE, ("workload", "read_ratio"), "a", "workload read_ratio:"),
    (_ONE, ("workload", "clients"), 2.5, "workload clients:"),
    (_ONE, ("workload", "warmup_ops"), "1", "workload warmup_ops:"),
    (_ONE, ("seed",), "abc", "scenario seed:"),
    (_ONE, ("seed",), -1, "scenario seed:"),
    (_ONE, ("seed",), 2**64, "scenario seed:"),
    (_ONE, ("topology", "replicas"), 5, "topology replicas:"),
    (_GRAPHS, (*_G0, "quorum_thresholds"), {"a": 1}, "graph 0 quorum_thresholds:"),
    (_GRAPHS, (*_G0, "quorum_thresholds"), {"0": "1"}, "graph 0 quorum_thresholds:"),
    (_GRAPHS, (*_G0, "edges", 0, "class"), {"quorum": "x"}, "graph 0 edge 0->1 class:"),
    (_GRAPHS, (*_G0, "weight"), "1", "graph 0 weight:"),
    (_GRAPHS, ("cooperation", "reading_graphs"), 5, "cooperation reading_graphs:"),
    (_ONE, ("consistency", "placement"), 3, "consistency placement:"),
    (_ONE, ("consistency", "write_cl"), 1, "consistency write_cl:"),
    (_ONE, ("meta",), [], "scenario meta:"),
    (_ONE, ("workload", "overrides"), [{"client_id": "0"}], "workload override client_id:"),
    (_ONE, ("failures",), [{"replica": 0, "at_us": "1", "kind": "crash_stop"}], "failure at_us:"),
    (_ONE, ("topology", "edges", 0, "src"), [0], "edge src:"),
    (_ONE, ("op_timeout_us",), 1.5, "scenario op_timeout_us:"),
    (_ONE, ("topology", "replicas", 0, "id"), 0.0, "replica id:"),
    (_ONE, ("topology", "replicas", 0, "datacenter"), 5, "replica 0 datacenter:"),
    (_ONE, ("workload", "read_request_bytes"), 1.5, "workload read_request_bytes:"),
    (_ONE, ("failures",), [{"replica": "0", "at_us": 1, "kind": "crash_stop"}], "failure replica:"),
    (_ONE, ("consistency", "rf"), "3", "consistency rf:"),
    (_ONE, ("consistency", "coordinator"), "0", "consistency coordinator:"),
    (_GRAPHS, (*_G0, "root"), "0", "graph 0 root:"),
    (_GRAPHS, (*_G0, "edges", 0, "class"), {"quorum": 0, "size": 2}, "graph 0 edge 0->1 class:"),
    (_ONE, ("topology", "edges", 1), {"src": 0, "dst": 1, "base": {"kind": "constant", "value_us": 1}}, "topology edges:"),
    (_GRAPHS, (*_G0, "quorum_thresholds"), {"0": 1, "00": 2}, "graph 0 quorum_thresholds:"),
]
# a field that its object does not define, one row per nesting level
_UNKNOWN_FIELDS = [
    (_ONE, ("op_timout_us",), 5, "scenario op_timout_us:"),
    (_ONE, ("meta", "nme"), "x", "meta nme:"),
    (_ONE, ("topology", "replica"), [], "topology replica:"),
    (_ONE, ("topology", "replicas", 0, "dc"), "dc1", "replica 0 dc:"),
    (_ONE, ("topology", "replicas", 0, "proc_write", "mean_us"), 1, "replica 0 proc_write: constant mean_us:"),
    (_ONE, ("topology", "edges", 0, "per_byte"), 0.0, "edge 0->1 per_byte:"),
    (_ONE, ("consistency", "w"), "ONE", "consistency w:"),
    (_ONE, ("workload", "warmup_op"), 50, "workload warmup_op:"),
    (_ONE, ("workload", "keys", "s"), 1.0, "workload keys: uniform s:"),
    (_ONE, ("workload", "overrides"), [{"client_id": 0, "read_rate": 1.0}], "workload override 0 read_rate:"),
    (_ONE, ("failures",), [{"replica": 0, "at_us": 1, "kind": "crash_stop", "down_for": 5}], "failure down_for:"),
    (_GRAPHS, ("cooperation", "graphs"), [], "cooperation graphs:"),
    (_GRAPHS, (*_G0, "weigth"), 1, "graph 0 weigth:"),
    (_GRAPHS, (*_G0, "edges", 0, "cls"), "async", "graph 0 edge 0->1 cls:"),
]

# a scenario file that json reads into no one document: how its bytes change, and the reader's message
_UNREADABLE_SCENARIOS = {
    "not_utf8": (lambda text: text.replace(b'"name": "', b'"name": "\xff', 1), "..."),
    "nested_too_deep": (lambda text: text[:-1] + b', "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "..."),
    "integer_too_long": (lambda text: text.replace(b'"seed": ', b'"seed": ' + b"9" * 5_000, 1), "..."),
    "repeated_key": (lambda text: text.replace(b'"seed": ', b'"seed": 1, "seed": ', 1), "repeated key 'seed'"),
    "repeated_nested_key": (lambda text: text.replace(b'"clients": ', b'"clients": 1, "clients": ', 1), "repeated key 'clients'"),
}

# an events line that json reads into no object: (which line out of n, how
# its bytes change, the reader's message); n // 2 is past the reader's first chunks
_UNREADABLE_LOG_LINES = {
    "header_not_utf8": (lambda n: 0, lambda line: line.replace(b'"kind":"', b'"kind":"\xff', 1), "line is not UTF-8"),
    "event_not_utf8": (lambda n: n // 2, lambda line: line.replace(b'"kind":"', b'"kind":"\xff', 1), "line is not UTF-8"),
    "integer_too_long": (lambda n: n // 2, lambda line: line.replace(b'"time_us":', b'"time_us":' + b"9" * 5_000, 1), "line is not valid JSON"),
}


def _line_changed(where: Callable, change: Callable) -> Callable:
    def mutate(log):
        lines = log.raw.splitlines()
        index = where(len(lines))
        return b"\n".join([*lines[:index], change(lines[index]), *lines[index + 1:]]) + b"\n"

    return mutate


def _run(*args) -> tuple:
    return (("run", _ONE, "--out", "{out}", *args),)


def _quorum_check(rf, write_cl, *args) -> tuple:
    return (("quorum-check", "--rf", rf, "--write-cl", write_cl, "--read-cl", "ONE", *args),)


_LINE_1 = "MALFORMED_LOG: ... (line 1)"
_HEADER = b'{"kind":"run_meta","format":1,"strategy":"lww_timestamp","graphs":{}}'
_SEEDS = "must be an integer in 0..18446744073709551615, got"

# each input rule's cases, under the name of the tier-1 test that runs them
RULES = {
    "validate_missing_file_is_io_error": [Case("missing_file", None, None, (("validate", "{input}"),), 2, "error: [Errno 2] No such file or directory: ...")],
    "validate_unparsable_file": [Case("unparsable", None, lambda _: b"{", (("validate", "{input}"),), 2, "error: invalid JSON: ...")],
    "an_unreadable_scenario_file_is_one_error_line": [
        Case(name, _ONE, lambda doc, change=change: change(_encoded(doc)), VALIDATE_AND_RUN, 2, f"error: invalid JSON: {message}")
        for name, (change, message) in _UNREADABLE_SCENARIOS.items()
    ],
    "wrong_typed_field_is_one_error_line": [
        Case(f"{where} {value!r}", base, lambda doc, path=path, value=value: replaced(doc, path, value), VALIDATE_AND_RUN, 2, f"error: {where} {rest}")
        for rows, rest in ((_WRONG_TYPED_FIELDS, "..."), (_UNKNOWN_FIELDS, "unknown field; expected one of ..."))
        for base, path, value, where in rows
    ],
    "wrong_typed_distribution_fields_are_one_error_line": [
        Case(f"{field} {dist!r}", _ONE, lambda doc, f=field, d=dist: replaced(doc, ("workload", f), d), VALIDATE_AND_RUN, 2, f"error: workload {field}: ...")
        for field, dist in WRONG_TYPED_DISTRIBUTIONS
    ],
    "op_timeout_must_be_positive": [
        Case(f"op_timeout_us {v}", _ONE, lambda doc, v=v: replaced(doc, ("op_timeout_us",), v), VALIDATE_AND_RUN, 1, f"OP_TIMEOUT_NOT_POSITIVE: op_timeout_us {v} <= 0")
        for v in (0, -5)
    ],
    "run_rejects_repeat_below_one": [Case(f"repeat {n}", None, None, _run("--repeat", n), 2, f"error: --repeat must be at least 1, got {n}") for n in ("0", "-2")],
    "run_rejects_jobs_below_one": [Case(f"jobs {n}", None, None, _run("--repeat", "2", "--jobs", n), 2, f"error: --jobs must be at least 1, got {n}") for n in ("0", "-3")],
    "run_rejects_a_seed_outside_64_bits": [
        Case("seed -1", None, None, _run("--seed", "-1"), 2, f"error: --seed: {_SEEDS} -1"),
        Case("seed 2**64", None, None, _run("--seed", str(2**64)), 2, f"error: --seed: {_SEEDS} {2**64}"),
        Case("repeat past 2**64 - 1", None, None, _run("--seed", str(2**64 - 1), "--repeat", "2"), 2, f"error: the last seed of --repeat 2: {_SEEDS} {2**64}"),
    ],
    "quorum_check_bad_dc_counts_is_one_line": [
        Case(f"dc-counts {entry}", None, None, _quorum_check("3", "ONE", "--dc-counts", entry), 2, "error: bad --dc-counts entry ...")
        for entry in ("NY=x", "NY", "NY=3,SF=", "NY=-3", "NY=0", "=3", "NY=1,LA=1", "NY=2,NY=1")
    ],
    "quorum_check_domain_errors": [
        Case("THREE over rf 2", None, None, _quorum_check("2", "THREE"), 1, "LEVEL_UNSATISFIABLE: ..."),
        Case("ANY", None, None, _quorum_check("3", "ANY"), 1, "UNSUPPORTED_LEVEL: ..."),
    ],
    "analyze_malformed_log": [
        Case("cut_off", None, lambda _: _HEADER + b'\n{"seq":0', ANALYZE, 1, "MALFORMED_LOG: line is not valid JSON (line 2)"),
    ],
    "an_unreadable_log_line_is_malformed_log_naming_it": [
        Case(name, _LWW, _line_changed(where, change), ANALYZE, 1, f"MALFORMED_LOG: {message} (line {{line}})")
        for name, (where, change, message) in _UNREADABLE_LOG_LINES.items()
    ],
    "stages_2_and_3_reject_the_same_malformed_logs": [
        Case(f"{name} {order}", base, _shuffled(mutate) if order == "shuffled" else mutate, EACH_STAGE, 1, f"MALFORMED_LOG: {expect}")
        for name, base, mutate, expect in _MALFORMED_LOGS
        for order in ("ordered", "shuffled")
    ],
    "analyze_rejects_malformed_graph_entries_in_the_header": [
        Case(f"graph entry {e!r}", _LWW, lambda log, e=e: [{**log.header, "graphs": dict.fromkeys(log.header["graphs"], e)}, *log.events], EACH_STAGE, 1, _LINE_1)
        for e in ([1], {"vertices": 5})
    ],
    "analyze_rejects_an_unknown_strategy_in_the_header": [
        Case("strategy bogus", _LWW, lambda log: [{**log.header, "strategy": "bogus"}, *log.events], ANALYZE, 1, "MALFORMED_LOG: ...'bogus'... (line 1)"),
    ],
    # stage 2 alone needs no strategy, but a lost header changes its report
    "analyze_rejects_a_log_without_a_header_or_its_strategy_under_every_stage": [
        Case(name, _LWW, mutate, (*EACH_STAGE, (*ANALYZE[0], "--stages", "2,3")), 1, expect)
        for name, mutate, expect in (
            ("headerless", lambda log: log.events, "MALFORMED_LOG: events file has no run_meta header"),
            ("unnamed", lambda log: [{k: v for k, v in log.header.items() if k != "strategy"}, *log.events], "MALFORMED_LOG: run_meta header names no strategy (line 1)"),
        )
    ],
}


def _pattern(expect: str) -> re.Pattern:
    return re.compile(".*".join(map(re.escape, expect.split("..."))) + "\n")


class Runner:
    """Runs cases through command(argv) -> (exit code, stdout, stderr),
    building each base once in workdir."""

    def __init__(self, workdir: Path, command: Callable):
        self.workdir, self.command, self._bases = workdir, command, {}

    def base(self, name: str):
        if name not in self._bases:
            kind, _, arg = name.partition(":")
            if kind == "log":
                scenario, out = self.workdir / f"{arg}.json", self.workdir / arg
                scenario.write_text(json.dumps({**BASE_SCENARIO, "strategy": arg}))
                code, _, err = self.command(["run", str(scenario), "--out", str(out), "--stages", "1", "--quiet"])
                if code != 0:
                    raise AssertionError(f"the base {name} did not run: {err}")
                self._bases[name] = Log((out / "events.jsonl").read_bytes())
            elif kind == "graphs":
                self._bases[name] = scenario_to_json(dataclasses.replace(scenario_from_json(preset_doc(arg)), consistency=None))
            else:
                self._bases[name] = preset_doc(arg)
        return self._bases[name]

    def check(self, case: Case) -> None:
        """Raise AssertionError, naming the case, unless each of its commands
        exits with its code, prints its line and no traceback, and leaves no
        output directory, under each form of a log's lines."""
        base = self.base(case.base) if case.base else None
        value = case.mutate(base) if case.mutate is not None else None
        for separators in (None, (",", ":")) if isinstance(value, list) else (None,):
            self._check(case, base, value, separators)

    def _check(self, case: Case, base, value, separators) -> None:
        name = case.name + (" (compact)" if separators else "")
        expect = case.expect
        where = Path(tempfile.mkdtemp(dir=self.workdir))
        path, out = where / "input", where / "out"
        try:
            if case.mutate is not None:
                path.write_bytes(data := _encoded(value, separators))
                if base is not None:
                    unchanged = _encoded(base.raw if isinstance(value, bytes) else base.lines, separators) if isinstance(base, Log) else _encoded(base)
                    old = set(unchanged.splitlines())
                    new = [n for n, line in enumerate(data.splitlines(), 1) if line not in old]
                    if data == unchanged or ("{line}" in expect and len(new) != 1):
                        raise AssertionError(f"{name}: the mutation changed {len(new)} lines of its base")
                    if isinstance(base, Log):
                        expect = expect.format(line=new[0] if new else None, **vars(base))
            for argv in case.commands:
                argv = [arg.replace("{input}", str(path)).replace("{out}", str(out)) for arg in argv]
                code, stdout, stderr = self.command(argv)
                # validate reports a scenario's violations on stdout; any other rejection is a line on stderr
                said, other = (stdout, stderr) if argv[0] == "validate" and code == 1 else (stderr, stdout)
                if (code, "Traceback" in stderr, bool(_pattern(expect).fullmatch(said)), other, out.exists()) != (case.code, False, True, "", False):
                    raise AssertionError(
                        f"{name}: quorumsim {argv[0]} exited {code}, printed {stdout!r} and {stderr!r}"
                        f"{' and left ' + out.name if out.exists() else ''}; expected exit {case.code} and the line {expect!r}"
                    )
        finally:
            shutil.rmtree(where, ignore_errors=True)


def in_process(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def installed(argv) -> tuple[int, str, str]:
    proc = subprocess.run(["quorumsim", *argv], capture_output=True, encoding="utf-8", errors="replace", timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    cases = [case for cases in RULES.values() for case in cases]
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        runner = Runner(Path(workdir), installed)
        for case in cases:
            try:
                runner.check(case)
            except AssertionError as e:
                failed += 1
                print(f"FAILED {e}")
    print(f"{len(cases) - failed} of {len(cases)} bad-input cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
