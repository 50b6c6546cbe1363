"""Benchmark workloads: turn (workload name, seed) into a scenario document.

Every workload runs on the same cluster: three replicas on exponential 2 ms
edges, each coordinating one third of the traffic through its own
replication star and reading star (a multi-master cluster, built as
``demos/consistency_level_sweep.py`` builds it). Reads can therefore land on
a replica that has not yet applied the newest write, so the stage-3 stale-read
and session-violation paths are exercised. Clients are closed-loop in virtual
time.

The seed fixes the simulation seed and the placement of the crash windows;
the amount of work (clients x ops) never depends on it. ``scale`` shrinks the
ops per client, for the half-size run behind ``clientcentric.report_exp``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from quorumsim import (
    CRASH_RECOVERY,
    Constant,
    CooperationGraph,
    CooperationModel,
    Exponential,
    FailureEvent,
    LatencyModel,
    Replica,
    ReplicaGraph,
    Scenario,
    UniformKeys,
    WorkloadSpec,
    Zipfian,
    build_cooperation_model,
    scenario_to_json,
)

N_REPLICAS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    write_cl: str
    read_cl: str
    clients: int
    ops_per_client: int
    read_ratio: float
    keys: object
    repeat: int = 1  # seeds per `run` invocation; > 1 runs `run --repeat`
    jobs: int = 1
    op_timeout_us: int = 10_000_000
    crash_windows: int = 0
    crash_down_us: int = 0
    crash_period_us: int = 0

    def ops(self, scale: float = 1.0) -> int:
        """Simulated ops of one seed, warmup included."""
        return self.clients * scaled_ops(self.ops_per_client, scale)

    def fan_out(self) -> tuple:
        """The `run` arguments that make a batch of this workload's seeds."""
        return ("--repeat", self.repeat, "--jobs", self.jobs) if self.repeat > 1 else ()

    def base_prefix(self, seed: int) -> str:
        """Where `run --out run` writes the base seed's outputs, relative to the work dir."""
        return f"run/seed_{seed}/" if self.repeat > 1 else "run/"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lww_uniform",
            why="many short sessions over 1000 uniform keys: log I/O and the per-op tables dominate; "
            "a stage-3 algorithm change should leave it unchanged",
            strategy="lww_timestamp",
            write_cl="ONE",
            read_cl="ONE",
            clients=16,
            ops_per_client=600,
            read_ratio=0.9,
            keys=UniformKeys(1000),
        ),
        Workload(
            name="writeset_hotkeys",
            why="long same-key write sessions and growing write_set values: stage-3 scans and the "
            "engine's per-read snapshots dominate",
            strategy="write_set",
            write_cl="ONE",
            read_cl="ONE",
            clients=4,
            ops_per_client=1000,
            read_ratio=0.5,
            keys=Zipfian(100, 0.99),
        ),
        Workload(
            name="competing_crash_batch",
            why="run --repeat 4 --jobs 2 under crash-recovery windows and a 100 ms op timeout: the only "
            "user of the CLI fan-out, deferral queues, timeouts and vector clocks",
            strategy="competing_writes",
            write_cl="QUORUM",
            read_cl="ONE",
            clients=8,
            ops_per_client=200,
            read_ratio=0.5,
            keys=Zipfian(100, 0.99),
            repeat=4,
            jobs=2,
            op_timeout_us=100_000,
            crash_windows=8,
            crash_down_us=150_000,
            crash_period_us=160_000,
        ),
    )
}


def scaled_ops(ops_per_client: int, scale: float) -> int:
    return max(1, round(ops_per_client * scale))


def _topology() -> ReplicaGraph:
    replicas = [Replica(i, f"r{i}", "dc1", Constant(200), Constant(100)) for i in range(N_REPLICAS)]
    edges = {
        (i, j): LatencyModel(Exponential(2_000))
        for i in range(N_REPLICAS)
        for j in range(N_REPLICAS)
        if i != j
    }
    return ReplicaGraph(replicas, edges)


def _multi_master(topo: ReplicaGraph, write_cl: str, read_cl: str) -> CooperationModel:
    """One replication and one reading star per coordinator, weight 1/N each."""
    replication, reading = [], []
    for root in range(N_REPLICAS):
        model = build_cooperation_model(topo, list(range(N_REPLICAS)), root, write_cl, read_cl)
        rep, read = model.replication_graphs[0], model.reading_graphs[0]
        w = 1.0 / N_REPLICAS
        replication.append(CooperationGraph(root, rep.kind, rep.root, rep.edges, rep.quorum_thresholds, w))
        reading.append(CooperationGraph(100 + root, read.kind, read.root, read.edges, read.quorum_thresholds, w))
    return CooperationModel(replication, reading)


def _crash_windows(w: Workload, rng: random.Random) -> tuple[FailureEvent, ...]:
    """Crash-recovery windows alternating between replicas 1 and 2.

    Window k starts at 50 ms + k periods of virtual time plus a seed-drawn
    jitter of up to 10 ms, so consecutive windows never overlap.
    """
    return tuple(
        FailureEvent(1 + k % 2, 50_000 + k * w.crash_period_us + rng.randrange(10_000), CRASH_RECOVERY, w.crash_down_us)
        for k in range(w.crash_windows)
    )


def build_scenario(name: str, seed: int, scale: float = 1.0) -> dict:
    """The scenario document of workload ``name`` for ``seed``."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    topo = _topology()
    workload = WorkloadSpec(
        n_clients=w.clients,
        ops_per_client=scaled_ops(w.ops_per_client, scale),
        read_ratio=w.read_ratio,
        think_time=Exponential(3_000),
        keys=w.keys,
        write_payload_bytes=Constant(256),
        warmup_ops=10,
    )
    scenario = Scenario(
        name=name,
        description=w.why,
        topology=topo,
        coop=_multi_master(topo, w.write_cl, w.read_cl),
        workload=workload,
        failures=_crash_windows(w, rng),
        strategy=w.strategy,
        op_timeout_us=w.op_timeout_us,
        seed=seed,
    )
    return scenario_to_json(scenario)


def scenario_bytes(name: str, seed: int, scale: float = 1.0) -> bytes:
    return (json.dumps(build_scenario(name, seed, scale), indent=2, sort_keys=True) + "\n").encode()
