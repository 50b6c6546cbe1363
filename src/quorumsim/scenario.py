"""Scenario file loading, expansion, and serialization.

A scenario is a UTF-8 JSON document; all durations are integer microsecond
fields suffixed ``_us`` and probabilities are decimals. The cooperation
section is either explicit graphs or a consistency-level block that is
expanded through the level calculus; exactly one of the two must be present.

The field tables below, one per JSON object (``_SCENARIO`` and the objects it
nests, down to each distribution kind), are the one definition of the format:
each field gives its JSON name, the attribute it sets, its type, and a
default or REQUIRED. ``scenario_from_json`` and ``scenario_to_json`` are both
built from them. A missing field, a field its object does not define (a
misspelling would otherwise take the default) or a wrong-typed value raises
ScenarioFormatError (CLI exit 2) naming the object and field, and so does
an id that names two entries: a topology edge listed twice, or a quorum
group id that is not its canonical decimal ("00" beside "0"). A file that
json reads into no single document (not UTF-8, not JSON, or an object
with a key given twice) is ScenarioFormatError too; level-domain
problems raise LevelError (exit 1); value ranges are left to
validate_scenario (exit 1).
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from math import isfinite
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .distributions import Constant, Empirical, Exponential, LogNormal, Uniform, UniformKeys, Zipfian
from .errors import ScenarioFormatError
from .levels import build_cooperation_model, parse_level
from .model import (
    ASYNC_EDGE,
    CRASH_RECOVERY,
    CRASH_STOP,
    DEFAULT_OP_TIMEOUT,
    READING,
    REPLICATION,
    SYNC_EDGE,
    CooperationGraph,
    CooperationModel,
    FailureEvent,
    LatencyModel,
    Replica,
    ReplicaGraph,
    quorum_edge,
)
from .strategies import STRATEGIES
from .workload import ClientOverride, WorkloadSpec


@dataclass
class Scenario:
    name: str
    description: str
    topology: ReplicaGraph
    coop: CooperationModel
    workload: WorkloadSpec
    failures: tuple[FailureEvent, ...]
    strategy: str
    op_timeout_us: int = DEFAULT_OP_TIMEOUT
    seed: int | None = None
    consistency: dict | None = field(default=None)  # the level block coop was generated from


# Value types: read(value, at, up) checks the JSON value found at location
# `at` in the object located at `up`; write(value) gives it back as JSON.

class _Scalar(NamedTuple):
    noun: str
    ok: Callable

    def read(self, value, at, up):
        if not self.ok(value):
            raise ScenarioFormatError(f"{at}: must be {self.noun}, got {value!r}")
        return value

    def write(self, value):
        return value


# Values a draw returns as they are (and every other count or id) are
# integers, so every *_us field of the event log stays an integer; formula
# parameters, probabilities and weights are any finite number.
_INT = _Scalar("an integer", lambda v: type(v) is int)
_REAL = _Scalar("a finite number", lambda v: type(v) is int or (type(v) is float and isfinite(v)))
_STR = _Scalar("a string", lambda v: type(v) is str)
# RngStream keeps a seed's low 64 bits, so a seed outside them would repeat another's draws
_SEEDS = range(2**64)
_SEED = _Scalar(f"an integer in 0..{_SEEDS[-1]}", lambda v: type(v) is int and v in _SEEDS)


def _one_of(names) -> _Scalar:
    return _Scalar(f"one of {', '.join(names)}", lambda v: type(v) is str and v in names)


class _List(NamedTuple):
    item: object

    def read(self, value, at, up):
        if type(value) is not list:
            raise ScenarioFormatError(f"{at}: must be a list, got {value!r}")
        return tuple(self.item.read(v, f"{at}[{i}]", up) for i, v in enumerate(value))

    def write(self, value):
        return [self.item.write(v) for v in value]


class _EdgeClass:
    """"sync", "async", or {"quorum": group}."""

    def read(self, value, at, up):
        if value == "sync":
            return SYNC_EDGE
        if value == "async":
            return ASYNC_EDGE
        if type(value) is dict and value.keys() == {"quorum"} and type(value["quorum"]) is int:
            return quorum_edge(value["quorum"])
        raise ScenarioFormatError(f"{at}: must be \"sync\", \"async\" or {{\"quorum\": integer}}, got {value!r}")

    def write(self, value):
        return {"quorum": value.group} if value.kind == "quorum" else value.kind


class _Thresholds:
    """Quorum group id -> threshold; JSON object keys are the ids as their
    canonical decimal text, so no group is named twice ("0" and "00")."""

    def read(self, value, at, up):
        try:
            if type(value) is dict and all(type(q) is int and str(int(group)) == group for group, q in value.items()):
                return {int(group): q for group, q in value.items()}
        except ValueError:
            pass
        raise ScenarioFormatError(f"{at}: must map integer group ids, in canonical decimal, to integers, got {value!r}")

    def write(self, value):
        return {str(group): q for group, q in sorted(value.items())}


_REQUIRED = object()


class _Field(NamedTuple):
    json: str
    attr: str
    type: object
    # _REQUIRED; a JSON value read in the field's place when it is absent
    # (None: the attribute is None and the writer leaves it out); or a
    # function of the attributes read before it.
    default: object = _REQUIRED


class _Object(NamedTuple):
    """A JSON object: reads its fields into build(**attributes) and writes
    the same fields back from the attributes of view(value)."""

    name: str  # its location in messages; {at} is where it sits, {up} the enclosing object
    fields: tuple
    build: Callable = dict
    key: tuple = ()  # attributes that complete the location once read: "replica 3", "edge 0->1"
    view: Callable = lambda value: value

    def read(self, value, at, up):
        if type(value) is not dict:
            raise ScenarioFormatError(f"{at}: must be an object, got {value!r}")
        where = self.name.format(at=at, up=up)
        got = {}
        for f in self.fields:
            if f.json in value:
                got[f.attr] = f.type.read(value[f.json], f"{where} {f.json}", where)
            elif f.default is _REQUIRED:
                raise ScenarioFormatError(f"{where} is missing required field {f.json!r}")
            elif callable(f.default):
                got[f.attr] = f.default(got)
            else:
                got[f.attr] = None if f.default is None else f.type.read(f.default, f"{where} {f.json}", where)
            if self.key and f.attr == self.key[-1]:
                where += " " + "->".join(str(got[k]) for k in self.key)
        known = [f.json for f in self.fields]
        for name in value:
            if name not in known:
                raise ScenarioFormatError(f"{where} {name}: unknown field; expected one of {', '.join(known)}")
        return self.build(**got)

    def write(self, value) -> dict:
        source = self.view(value)
        out = {}
        for f in self.fields:
            v = getattr(source, f.attr)
            if v is not None:
                out[f.json] = f.type.write(v)
        return out


class _Kinds(NamedTuple):
    """An object whose "kind" field selects the field table of the rest."""

    kinds: dict  # kind -> _Object

    def read(self, value, at, up):
        kind = value.get("kind") if type(value) is dict else None
        if type(kind) is not str:
            raise ScenarioFormatError(f"{at}: must be an object with a string 'kind', got {value!r}")
        if kind not in self.kinds:
            raise ScenarioFormatError(f"{at}: unknown kind {kind!r}; expected one of {', '.join(self.kinds)}")
        rest = {name: v for name, v in value.items() if name != "kind"}
        return self.kinds[kind].read(rest, f"{at}: {kind}", up)

    def write(self, value) -> dict:
        kind = next(k for k, table in self.kinds.items() if table.build is type(value))
        return {"kind": kind, **self.kinds[kind].write(value)}


_DURATION = _Kinds({
    "constant": _Object("{at}", (_Field("value_us", "value_us", _INT),), Constant),
    "uniform": _Object("{at}", (_Field("lo_us", "lo_us", _REAL), _Field("hi_us", "hi_us", _REAL)), Uniform),
    "exponential": _Object("{at}", (_Field("mean_us", "mean_us", _REAL),), Exponential),
    "lognormal": _Object("{at}", (_Field("mu", "mu", _REAL), _Field("sigma", "sigma", _REAL)), LogNormal),
    "empirical": _Object("{at}", (_Field("samples_us", "samples_us", _List(_INT)),), Empirical),
})

_KEYS = _Kinds({
    "uniform": _Object("{at}", (_Field("n", "n", _INT),), UniformKeys),
    "zipfian": _Object("{at}", (_Field("n", "n", _INT), _Field("s", "s", _REAL)), Zipfian),
})

_META = _Object("meta", (
    _Field("name", "name", _STR, "unnamed"),
    _Field("description", "description", _STR, ""),
))

_REPLICA = _Object("replica", (
    _Field("id", "id", _INT),
    _Field("name", "name", _STR, lambda got: f"r{got['id']}"),
    _Field("datacenter", "datacenter", _STR),
    _Field("proc_write", "proc_write", _DURATION),
    _Field("proc_read", "proc_read", _DURATION),
), Replica, key=("id",))

_Edge = namedtuple("_Edge", "src dst base per_byte_us")  # ReplicaGraph keys a LatencyModel by (src, dst)

_EDGE = _Object("edge", (
    _Field("src", "src", _INT),
    _Field("dst", "dst", _INT),
    _Field("base", "base", _DURATION),
    _Field("per_byte_us", "per_byte_us", _REAL, 0.0),
), _Edge, key=("src", "dst"))


def _topology(replicas, edges) -> ReplicaGraph:
    models = {}
    for e in edges:
        if (e.src, e.dst) in models:
            raise ScenarioFormatError(f"topology edges: edge {e.src}->{e.dst} is listed twice")
        models[(e.src, e.dst)] = LatencyModel(e.base, e.per_byte_us)
    return ReplicaGraph(replicas, models)


_TOPOLOGY = _Object("topology", (
    _Field("replicas", "replicas", _List(_REPLICA)),
    _Field("edges", "edges", _List(_EDGE), []),
), _topology, view=lambda g: SimpleNamespace(replicas=g.replicas, edges=[_Edge(*k, m.base, m.per_byte_us) for k, m in sorted(g.edges.items())]))

_GraphEdge = namedtuple("_GraphEdge", "parent child cls")

_GRAPH_EDGE = _Object("{up} edge", (
    _Field("parent", "parent", _INT),
    _Field("child", "child", _INT),
    _Field("class", "cls", _EdgeClass()),
), _GraphEdge, key=("parent", "child"), view=_GraphEdge._make)

_GRAPH = _Object("graph", (
    _Field("id", "id", _INT),
    _Field("root", "root", _INT),
    _Field("weight", "weight", _REAL, 1.0),
    _Field("edges", "edges", _List(_GRAPH_EDGE), []),
    _Field("quorum_thresholds", "quorum_thresholds", _Thresholds(), {}),
), key=("id",))


def _graphs(items: tuple[dict, ...], kind: str) -> list[CooperationGraph]:
    """Integer weights are shorthand for proportions; normalize them here."""
    total = sum(g["weight"] for g in items)
    if items and total > 0 and all(type(g["weight"]) is int for g in items):
        items = [{**g, "weight": g["weight"] / total} for g in items]
    return [CooperationGraph(kind=kind, **g) for g in items]


_COOPERATION = _Object("cooperation", (
    _Field("replication_graphs", "replication_graphs", _List(_GRAPH)),
    _Field("reading_graphs", "reading_graphs", _List(_GRAPH)),
), lambda replication_graphs, reading_graphs: CooperationModel(
    _graphs(replication_graphs, REPLICATION), _graphs(reading_graphs, READING)
))

_CONSISTENCY = _Object("consistency", (
    _Field("placement", "placement", _List(_INT)),
    _Field("coordinator", "coordinator", _INT),
    _Field("write_cl", "write_cl", _STR),
    _Field("read_cl", "read_cl", _STR),
    _Field("rf", "rf", _INT, lambda got: len(got["placement"])),
), view=lambda block: SimpleNamespace(**block))

_OVERRIDE = _Object("{up} override", (
    _Field("client_id", "client_id", _INT),
    _Field("read_ratio", "read_ratio", _REAL, None),
    _Field("think_time", "think_time", _DURATION, None),
    _Field("ops_per_client", "ops_per_client", _INT, None),
), ClientOverride, key=("client_id",))

_WORKLOAD = _Object("workload", (
    _Field("clients", "n_clients", _INT),
    _Field("ops_per_client", "ops_per_client", _INT),
    _Field("read_ratio", "read_ratio", _REAL),
    _Field("think_time", "think_time", _DURATION),
    _Field("keys", "keys", _KEYS),
    _Field("write_payload_bytes", "write_payload_bytes", _DURATION),
    _Field("read_request_bytes", "read_request_bytes", _INT, 64),
    _Field("warmup_ops", "warmup_ops", _INT, 0),
    _Field("overrides", "overrides", _List(_OVERRIDE), []),
), WorkloadSpec)

_FAILURE = _Object("failure", (
    _Field("replica", "replica", _INT),
    _Field("at_us", "at", _INT),
    _Field("kind", "kind", _one_of((CRASH_STOP, CRASH_RECOVERY))),
    _Field("down_for_us", "down_for", _INT, 0),
), FailureEvent)


def _scenario(meta, topology, cooperation, consistency, **rest) -> Scenario:
    if (cooperation is None) == (consistency is None):
        raise ScenarioFormatError("scenario must have exactly one of 'cooperation' and 'consistency'")
    if consistency is not None:
        placement, rf = list(consistency["placement"]), consistency["rf"]
        if rf != len(placement):
            raise ScenarioFormatError(f"consistency rf {rf} does not match placement size {len(placement)}")
        levels = parse_level(consistency["write_cl"]), parse_level(consistency["read_cl"])
        cooperation = build_cooperation_model(topology, placement, consistency["coordinator"], *levels)
    return Scenario(**meta, topology=topology, coop=cooperation, consistency=consistency, **rest)


_SCENARIO = _Object("scenario", (
    _Field("meta", "meta", _META, {}),
    _Field("topology", "topology", _TOPOLOGY),
    _Field("cooperation", "cooperation", _COOPERATION, None),
    _Field("consistency", "consistency", _CONSISTENCY, None),
    _Field("workload", "workload", _WORKLOAD),
    _Field("failures", "failures", _List(_FAILURE), []),
    _Field("strategy", "strategy", _one_of(STRATEGIES)),
    _Field("op_timeout_us", "op_timeout_us", _INT, DEFAULT_OP_TIMEOUT),
    _Field("seed", "seed", _SEED, None),
), _scenario, view=lambda sc: SimpleNamespace(
    **vars(sc),
    meta=SimpleNamespace(name=sc.name, description=sc.description),
    cooperation=None if sc.consistency is not None else sc.coop,
))


def scenario_from_json(doc) -> Scenario:
    return _SCENARIO.read(doc, "scenario document", None)


def check_seed(seed: int, at: str) -> None:
    """Raise ScenarioFormatError, naming at, unless a run can take seed."""
    _SEED.read(seed, at, None)


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def read_scenario(data: bytes) -> Scenario:
    """The scenario of a file's bytes: the one reader of scenario text."""
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, not UTF-8, a repeated key, an integer too long, nested too deep
        raise ScenarioFormatError(f"invalid JSON: {e}") from None
    return scenario_from_json(doc)


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        return read_scenario(fh.read())


def scenario_to_json(sc: Scenario) -> dict:
    return _SCENARIO.write(sc)
