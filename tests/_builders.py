"""Scenario construction helpers shared by the test modules."""

from __future__ import annotations

from quorumsim import (
    ASYNC_EDGE,
    Constant,
    CooperationGraph,
    CooperationModel,
    LatencyModel,
    READING,
    REPLICATION,
    Replica,
    ReplicaGraph,
    UniformKeys,
    WorkloadSpec,
)


def replica(rid, proc_write=Constant(0), proc_read=Constant(0), dc="dc1", name=None):
    return Replica(rid, name or f"r{rid}", dc, proc_write, proc_read)


def mesh_topology(n, latency=Constant(1000), dc_of=None, proc_write=Constant(0), proc_read=Constant(0)):
    reps = [
        replica(i, proc_write, proc_read, dc=(dc_of(i) if dc_of else "dc1"))
        for i in range(n)
    ]
    edges = {(i, j): LatencyModel(latency) for i in range(n) for j in range(n) if i != j}
    return ReplicaGraph(reps, edges)


def star_async(root, children_delays, reading_root=None):
    """Topology + cooperation: async star from root with constant per-child delays."""
    n = 1 + len(children_delays)
    reps = [replica(i) for i in range(n)]
    edges = {}
    graph_edges = []
    for child, delay in children_delays.items():
        edges[(root, child)] = LatencyModel(Constant(delay))
        graph_edges.append((root, child, ASYNC_EDGE))
    topo = ReplicaGraph(reps, edges)
    coop = CooperationModel(
        [CooperationGraph(0, REPLICATION, root, graph_edges)],
        [CooperationGraph(1, READING, reading_root if reading_root is not None else root, [])],
    )
    return topo, coop


def write_only_workload(n_ops, think=Constant(0), n_clients=1, keys=UniformKeys(1), payload=Constant(100)):
    return WorkloadSpec(n_clients, n_ops, 0.0, think, keys, payload)


def simple_workload(n_clients, ops, read_ratio=0.5, think=Constant(1000), keys=UniformKeys(4), payload=Constant(100), warmup=0, overrides=()):
    return WorkloadSpec(n_clients, ops, read_ratio, think, keys, payload, warmup_ops=warmup, overrides=tuple(overrides))


# Workload distribution fields that a scenario must reject: wrong-typed fields,
# and values a draw would write to the log as floats.
WRONG_TYPED_DISTRIBUTIONS = [
    ("think_time", {"kind": "uniform", "lo_us": "a", "hi_us": 5}),
    ("keys", {"kind": "zipfian", "n": "10", "s": 1.0}),
    ("think_time", {"kind": "empirical", "samples_us": 5}),
    ("think_time", {"kind": "constant", "value_us": None}),
    ("think_time", {"kind": "lognormal", "mu": "x", "sigma": 1}),
    ("think_time", {"kind": "constant", "value_us": 1.5}),
    ("think_time", {"kind": "empirical", "samples_us": [1, 2.5]}),
    ("think_time", {"kind": "exponential", "mean_us": True}),
    ("think_time", {"kind": "exponential", "mean_us": float("nan")}),
    ("keys", {"kind": "uniform", "n": 4.0}),
    ("keys", {"kind": ["uniform"], "n": 4}),
]
