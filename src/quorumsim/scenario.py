"""Scenario file loading, expansion, and serialization.

A scenario is a UTF-8 JSON document; all durations are integer microsecond
fields suffixed ``_us`` and probabilities are decimals. The cooperation
section is either explicit graphs or a consistency-level block that is
expanded through the level calculus; exactly one of the two must be present.
Structural problems raise ScenarioFormatError (CLI exit 2); level-domain
problems raise LevelError (exit 1); everything else is left to
validate_scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .distributions import distribution_from_json, key_distribution_from_json
from .engine import DEFAULT_OP_TIMEOUT
from .levels import build_cooperation_model, parse_level
from .model import (
    ASYNC_EDGE,
    CRASH_RECOVERY,
    CRASH_STOP,
    READING,
    REPLICATION,
    SYNC_EDGE,
    CooperationGraph,
    CooperationModel,
    EdgeClass,
    FailureEvent,
    LatencyModel,
    Replica,
    ReplicaGraph,
    quorum_edge,
)
from .strategies import STRATEGIES
from .workload import ClientOverride, WorkloadSpec


class ScenarioFormatError(ValueError):
    """The scenario document is structurally unusable (CLI exit 2)."""


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
    consistency: dict | None = field(default=None)  # original level block, kept for round-trips


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioFormatError(f"{where} is missing required field {key!r}")
    return obj[key]


def _dist(obj, where: str):
    try:
        return distribution_from_json(obj)
    except ValueError as e:
        raise ScenarioFormatError(f"{where}: {e}") from None


def _key_dist(obj, where: str):
    try:
        return key_distribution_from_json(obj)
    except ValueError as e:
        raise ScenarioFormatError(f"{where}: {e}") from None


def _edge_class_from_json(obj) -> EdgeClass:
    if obj == "sync":
        return SYNC_EDGE
    if obj == "async":
        return ASYNC_EDGE
    if isinstance(obj, dict) and "quorum" in obj:
        return quorum_edge(int(obj["quorum"]))
    raise ScenarioFormatError(f"edge class must be \"sync\", \"async\", or {{\"quorum\": group}}: {obj!r}")


def _topology_from_json(obj) -> ReplicaGraph:
    replicas = []
    for r in _require(obj, "replicas", "topology"):
        rid = _require(r, "id", "replica")
        replicas.append(
            Replica(
                id=rid,
                name=r.get("name", f"r{rid}"),
                datacenter=_require(r, "datacenter", f"replica {rid}"),
                proc_write=_dist(_require(r, "proc_write", f"replica {rid}"), f"replica {rid} proc_write"),
                proc_read=_dist(_require(r, "proc_read", f"replica {rid}"), f"replica {rid} proc_read"),
            )
        )
    edges = {}
    for e in obj.get("edges", []):
        src, dst = _require(e, "src", "edge"), _require(e, "dst", "edge")
        edges[(src, dst)] = LatencyModel(
            base=_dist(_require(e, "base", f"edge {src}->{dst}"), f"edge {src}->{dst} base"),
            per_byte_us=e.get("per_byte_us", 0.0),
        )
    return ReplicaGraph(replicas, edges)


def _graphs_from_json(items, kind: str) -> list[CooperationGraph]:
    graphs = []
    for g in items:
        gid = _require(g, "id", f"{kind} graph")
        edges = [
            (
                _require(e, "parent", f"graph {gid} edge"),
                _require(e, "child", f"graph {gid} edge"),
                _edge_class_from_json(_require(e, "class", f"graph {gid} edge")),
            )
            for e in g.get("edges", [])
        ]
        thresholds = {int(k): v for k, v in g.get("quorum_thresholds", {}).items()}
        graphs.append(CooperationGraph(gid, kind, _require(g, "root", f"graph {gid}"), edges, thresholds, g.get("weight", 1.0)))
    return graphs


def _normalize_weights(graphs: list[CooperationGraph]) -> list[CooperationGraph]:
    """Integer weights are shorthand for proportions; normalize them here."""
    weights = [g.weight for g in graphs]
    if weights and all(isinstance(w, int) for w in weights) and sum(weights) > 0:
        total = sum(weights)
        return [
            CooperationGraph(g.id, g.kind, g.root, g.edges, g.quorum_thresholds, g.weight / total)
            for g in graphs
        ]
    return graphs


def _workload_from_json(obj) -> WorkloadSpec:
    overrides = []
    for ov in obj.get("overrides", []):
        overrides.append(
            ClientOverride(
                client_id=_require(ov, "client_id", "workload override"),
                read_ratio=ov.get("read_ratio"),
                think_time=_dist(ov["think_time"], "workload override think_time") if "think_time" in ov else None,
                ops_per_client=ov.get("ops_per_client"),
            )
        )
    return WorkloadSpec(
        n_clients=_require(obj, "clients", "workload"),
        ops_per_client=_require(obj, "ops_per_client", "workload"),
        read_ratio=_require(obj, "read_ratio", "workload"),
        think_time=_dist(_require(obj, "think_time", "workload"), "workload think_time"),
        keys=_key_dist(_require(obj, "keys", "workload"), "workload keys"),
        write_payload_bytes=_dist(_require(obj, "write_payload_bytes", "workload"), "workload write_payload_bytes"),
        read_request_bytes=obj.get("read_request_bytes", 64),
        warmup_ops=obj.get("warmup_ops", 0),
        overrides=tuple(overrides),
    )


def scenario_from_json(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    meta = doc.get("meta", {})
    topology = _topology_from_json(_require(doc, "topology", "scenario"))

    has_coop = "cooperation" in doc
    has_level = "consistency" in doc
    if has_coop == has_level:
        raise ScenarioFormatError("scenario must have exactly one of 'cooperation' and 'consistency'")
    consistency = None
    if has_coop:
        coop_obj = doc["cooperation"]
        coop = CooperationModel(
            _normalize_weights(_graphs_from_json(_require(coop_obj, "replication_graphs", "cooperation"), REPLICATION)),
            _normalize_weights(_graphs_from_json(_require(coop_obj, "reading_graphs", "cooperation"), READING)),
        )
    else:
        block = doc["consistency"]
        consistency = dict(block)
        placement = list(_require(block, "placement", "consistency"))
        rf = block.get("rf", len(placement))
        if rf != len(placement):
            raise ScenarioFormatError(f"consistency rf {rf} does not match placement size {len(placement)}")
        coop = build_cooperation_model(
            topology,
            placement,
            _require(block, "coordinator", "consistency"),
            parse_level(_require(block, "write_cl", "consistency")),
            parse_level(_require(block, "read_cl", "consistency")),
        )

    failures = []
    for f in doc.get("failures", []):
        kind = _require(f, "kind", "failure")
        if kind not in (CRASH_STOP, CRASH_RECOVERY):
            raise ScenarioFormatError(f"unknown failure kind {kind!r}")
        failures.append(
            FailureEvent(
                replica=_require(f, "replica", "failure"),
                at=_require(f, "at_us", "failure"),
                kind=kind,
                down_for=f.get("down_for_us", 0),
            )
        )

    strategy = _require(doc, "strategy", "scenario")
    if strategy not in STRATEGIES:
        raise ScenarioFormatError(f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}")

    return Scenario(
        name=meta.get("name", "unnamed"),
        description=meta.get("description", ""),
        topology=topology,
        coop=coop,
        workload=_workload_from_json(_require(doc, "workload", "scenario")),
        failures=tuple(failures),
        strategy=strategy,
        op_timeout_us=doc.get("op_timeout_us", DEFAULT_OP_TIMEOUT),
        seed=doc.get("seed"),
        consistency=consistency,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ScenarioFormatError(f"invalid JSON: {e}") from None
    return scenario_from_json(doc)


def scenario_to_json(sc: Scenario) -> dict:
    doc: dict = {"meta": {"name": sc.name, "description": sc.description}}
    doc["topology"] = {
        "replicas": [
            {
                "id": r.id,
                "name": r.name,
                "datacenter": r.datacenter,
                "proc_write": r.proc_write.to_json(),
                "proc_read": r.proc_read.to_json(),
            }
            for r in sc.topology.replicas
        ],
        "edges": [
            {"src": src, "dst": dst, "base": lat.base.to_json(), "per_byte_us": lat.per_byte_us}
            for (src, dst), lat in sorted(sc.topology.edges.items())
        ],
    }
    if sc.consistency is not None:
        doc["consistency"] = dict(sc.consistency)
    else:
        doc["cooperation"] = {
            kind_key: [
                {
                    "id": g.id,
                    "root": g.root,
                    "weight": g.weight,
                    "edges": [{"parent": p, "child": c, "class": cls.to_json()} for p, c, cls in g.edges],
                    "quorum_thresholds": {str(k): v for k, v in sorted(g.quorum_thresholds.items())},
                }
                for g in graphs
            ]
            for kind_key, graphs in (
                ("replication_graphs", sc.coop.replication_graphs),
                ("reading_graphs", sc.coop.reading_graphs),
            )
        }
    w = sc.workload
    doc["workload"] = {
        "clients": w.n_clients,
        "ops_per_client": w.ops_per_client,
        "read_ratio": w.read_ratio,
        "think_time": w.think_time.to_json(),
        "keys": w.keys.to_json(),
        "write_payload_bytes": w.write_payload_bytes.to_json(),
        "read_request_bytes": w.read_request_bytes,
        "warmup_ops": w.warmup_ops,
    }
    if w.overrides:
        doc["workload"]["overrides"] = [
            {
                k: v
                for k, v in (
                    ("client_id", ov.client_id),
                    ("read_ratio", ov.read_ratio),
                    ("think_time", ov.think_time.to_json() if ov.think_time else None),
                    ("ops_per_client", ov.ops_per_client),
                )
                if v is not None
            }
            for ov in w.overrides
        ]
    if sc.failures:
        doc["failures"] = [
            {
                "replica": f.replica,
                "at_us": f.at,
                "kind": f.kind,
                **({"down_for_us": f.down_for} if f.kind == CRASH_RECOVERY else {}),
            }
            for f in sc.failures
        ]
    doc["strategy"] = sc.strategy
    doc["op_timeout_us"] = sc.op_timeout_us
    if sc.seed is not None:
        doc["seed"] = sc.seed
    return doc
