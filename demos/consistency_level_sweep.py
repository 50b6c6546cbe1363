"""Staleness and session guarantees across consistency levels and key skews.

Builds a multi-master cluster: every replica coordinates a share of the
traffic (one replication and one reading star per root, equal weights), so
reads land on replicas that may not have seen the newest write. ONE/ONE then
shows stale reads and monotonic-read violations, while QUORUM/QUORUM and
ALL/ONE stay immediately consistent (W + R > RF).

Run:  python demos/consistency_level_sweep.py
"""

from quorumsim import (
    CooperationGraph,
    CooperationModel,
    Constant,
    Exponential,
    LatencyModel,
    Replica,
    ReplicaGraph,
    UniformKeys,
    WorkloadSpec,
    Zipfian,
    build_cooperation_model,
    build_datacentric_report,
    clientcentric_outputs,
    run_simulation,
)

N = 3

def topology():
    replicas = [Replica(i, f"r{i}", "dc1", Constant(200), Constant(100)) for i in range(N)]
    edges = {
        (i, j): LatencyModel(Exponential(2_000))
        for i in range(N)
        for j in range(N)
        if i != j
    }
    return ReplicaGraph(replicas, edges)

def multi_master(topo, write_cl, read_cl):
    """One replication star and one reading star per coordinator, weight 1/N each."""
    replication, reading = [], []
    for root in range(N):
        model = build_cooperation_model(topo, list(range(N)), root, write_cl, read_cl)
        rep, read = model.replication_graphs[0], model.reading_graphs[0]
        replication.append(CooperationGraph(root, rep.kind, rep.root, rep.edges, rep.quorum_thresholds, 1.0 / N))
        reading.append(CooperationGraph(100 + root, read.kind, read.root, read.edges, read.quorum_thresholds, 1.0 / N))
    return CooperationModel(replication, reading)

topo = topology()
rows = []
for keys_name, keys in (("uniform", UniformKeys(50)), ("zipfian s=0.99", Zipfian(50, 0.99))):
    workload = WorkloadSpec(6, 400, 0.5, Exponential(3_000), keys, Constant(256), warmup_ops=20)
    for label, write_cl, read_cl in (("ONE/ONE", "ONE", "ONE"), ("QUORUM/QUORUM", "QUORUM", "QUORUM"), ("ALL/ONE", "ALL", "ONE")):
        coop = multi_master(topo, write_cl, read_cl)
        log = run_simulation(topo, coop, [], workload, "lww_timestamp", seed=7)
        stage3, _ = clientcentric_outputs(log, "lww_timestamp")
        stage2 = build_datacentric_report(log)["global"]
        rows.append(
            (
                keys_name,
                label,
                stage3["stale_read_rate"],
                stage3["mrc_violation_probability"],
                stage2["latency_us"]["median"],
                stage2["inconsistency_window_us"]["median"],
            )
        )

print(f"{'keys':>15} {'levels':>15} {'stale rate':>11} {'MRC viol.':>10} {'p50 latency':>12} {'p50 window':>11}")
for keys_name, label, stale, mrc, lat, win in rows:
    print(f"{keys_name:>15} {label:>15} {stale:>11.4f} {mrc:>10.4f} {lat:>10}us {win:>9}us")

print()
print("ONE/ONE trades freshness for the lowest commit latency; QUORUM/QUORUM and")
print("ALL/ONE keep W + R > RF, so no read misses a committed write. Skewed keys")
print("concentrate traffic, which raises the chance a stale replica is asked again.")
