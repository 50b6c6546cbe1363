import itertools
from collections import Counter

import pytest

from _builders import mesh_topology

from quorumsim import (
    ALL,
    LOCAL_ONE,
    LOCAL_QUORUM,
    LevelError,
    ONE,
    QUORUM,
    THREE,
    TWO,
    build_cooperation_model,
    is_immediately_consistent,
    parse_level,
    required_acks,
    validate_scenario,
)
from quorumsim.levels import LOCAL_LEVELS, SUPPORTED_LEVELS
from quorumsim.model import ASYNC, READING, REPLICATION, SYNC


def test_required_acks_basic_levels():
    assert required_acks(ONE, 3) == 1
    assert required_acks(TWO, 3) == 2
    assert required_acks(THREE, 3) == 3
    assert required_acks(ALL, 5) == 5
    assert required_acks(QUORUM, 3) == 2  # "going to write to two"


def test_required_acks_quorum_formula():
    for rf in range(1, 10):
        assert required_acks(QUORUM, rf) == rf // 2 + 1


def test_required_acks_local_levels():
    dc = {"NY": 3, "SF": 3}
    assert required_acks(LOCAL_ONE, 6, dc, "NY") == 1
    assert required_acks(LOCAL_QUORUM, 6, dc, "NY") == 2  # majority of 3 is 2


def test_required_acks_unsatisfiable():
    with pytest.raises(LevelError) as e:
        required_acks(THREE, 2)
    assert e.value.code == "LEVEL_UNSATISFIABLE"
    with pytest.raises(LevelError):
        required_acks(TWO, 1)
    with pytest.raises(LevelError):
        required_acks(LOCAL_QUORUM, 3, {"NY": 3}, "SF")
    with pytest.raises(LevelError):
        required_acks(LOCAL_QUORUM, 3)


def test_parse_level_rejects_unsupported():
    for name in ("ANY", "SERIAL", "LOCAL_SERIAL", "EACH_QUORUM", "bogus"):
        with pytest.raises(LevelError) as e:
            parse_level(name)
        assert e.value.code == "UNSUPPORTED_LEVEL"
    assert parse_level("quorum") == QUORUM


def test_immediate_consistency_known_instances():
    assert is_immediately_consistent(2, 2, 3) is True  # "four is greater than three"
    assert is_immediately_consistent(1, 1, 1) is True
    assert is_immediately_consistent(1, 1, 3) is False


def test_immediate_consistency_exhaustive():
    for rf in range(1, 6):
        for w in range(1, rf + 1):
            for r in range(1, rf + 1):
                assert is_immediately_consistent(w, r, rf) == (w + r > rf)


def test_level_pairings_from_the_tables_are_immediate():
    # ALL/ONE, ONE/ALL, QUORUM/QUORUM and their LOCAL variants, rf in {1,3,5}
    pairings = [
        (ALL, ONE),
        (ONE, ALL),
        (QUORUM, QUORUM),
        (ALL, LOCAL_ONE),
        (LOCAL_ONE, ALL),
        (LOCAL_QUORUM, LOCAL_QUORUM),
    ]
    for rf in (1, 3, 5):
        dc = {"dc1": rf}
        for write_cl, read_cl in pairings:
            w = required_acks(write_cl, rf, dc, "dc1")
            r = required_acks(read_cl, rf, dc, "dc1")
            assert is_immediately_consistent(w, r, rf), (write_cl, read_cl, rf)


def _edges_by_class(graph):
    out = {}
    for p, c, cls in graph.edges:
        out.setdefault(cls.kind, []).append((p, c))
    return out


def test_build_all_one():
    topo = mesh_topology(3)
    model = build_cooperation_model(topo, [0, 1, 2], 0, ALL, ONE)
    rep = model.replication_graphs[0]
    assert _edges_by_class(rep) == {SYNC: [(0, 1), (0, 2)]}
    read = model.reading_graphs[0]
    assert read.edges == ()
    assert read.root == 0
    assert rep.weight == 1.0 and read.weight == 1.0


def test_build_quorum_quorum():
    topo = mesh_topology(3)
    model = build_cooperation_model(topo, [0, 1, 2], 0, QUORUM, QUORUM)
    for graph in (model.replication_graphs[0], model.reading_graphs[0]):
        assert len(graph.edges) == 2
        assert all(cls.kind == "quorum" for _, _, cls in graph.edges)
        assert graph.quorum_thresholds == {0: 1}  # required 2, minus the coordinator


def test_build_one_keeps_async_replication():
    topo = mesh_topology(3)
    model = build_cooperation_model(topo, [0, 1, 2], 0, ONE, ONE)
    rep = model.replication_graphs[0]
    assert _edges_by_class(rep) == {ASYNC: [(0, 1), (0, 2)]}
    assert model.reading_graphs[0].edges == ()


def test_build_single_replica_is_bare_roots():
    topo = mesh_topology(1)
    model = build_cooperation_model(topo, [0], 0, ALL, ALL)
    assert model.replication_graphs[0].edges == ()
    assert model.reading_graphs[0].edges == ()


def test_build_local_quorum_splits_by_datacenter():
    topo = mesh_topology(4, dc_of=lambda i: "east" if i < 2 else "west")
    model = build_cooperation_model(topo, [0, 1, 2, 3], 0, LOCAL_QUORUM, LOCAL_ONE)
    rep = model.replication_graphs[0]
    by_class = _edges_by_class(rep)
    # local majority of 2 is 2 -> one local ack beyond the coordinator: the
    # east edge becomes sync, west edges stay async.
    assert by_class[SYNC] == [(0, 1)]
    assert sorted(by_class[ASYNC]) == [(0, 2), (0, 3)]
    assert model.reading_graphs[0].edges == ()


def _waits(graph):
    """The acks a star waits for beyond its root's own: its sync edges, or its one quorum group's threshold."""
    sync = sum(cls.kind == SYNC for _, _, cls in graph.edges)
    assert len(graph.quorum_thresholds) <= 1 and not (sync and graph.quorum_thresholds), graph
    return sync + sum(graph.quorum_thresholds.values())


def test_every_star_follows_the_level_rule():
    """Every supported level pair, rf 1-6, placements in one and in two
    datacenters, every coordinator: each star waits for required_acks - 1
    acks, writes reach every other placement member, and a read waits on
    each edge it has, inside the coordinator's datacenter under a LOCAL level."""
    for rf in range(1, 7):
        for dcs in {"A" * rf, ("AB" * rf)[:rf], "A" + "B" * (rf - 1)}:
            topo = mesh_topology(rf, dc_of=dcs.__getitem__)
            placement = list(range(rf))
            for coordinator, (write_cl, read_cl) in itertools.product(placement, itertools.product(SUPPORTED_LEVELS, repeat=2)):
                case = (dcs, coordinator, write_cl, read_cl)
                home = dcs[coordinator]
                try:
                    acks = {cl: required_acks(cl, rf, Counter(dcs), home) for cl in (write_cl, read_cl)}
                except LevelError as e:
                    with pytest.raises(LevelError) as raised:
                        build_cooperation_model(topo, placement, coordinator, write_cl, read_cl)
                    assert (raised.value.code, str(raised.value)) == (e.code, str(e)), case
                    continue
                model = build_cooperation_model(topo, placement, coordinator, write_cl, read_cl)
                assert validate_scenario(topo, model, []).ok, case
                (rep,), (read,) = model.replication_graphs, model.reading_graphs
                assert (rep.kind, read.kind) == (REPLICATION, READING), case
                for graph, level in ((rep, write_cl), (read, read_cl)):
                    assert graph.root == coordinator and all(p == coordinator for p, _, _ in graph.edges), case
                    assert _waits(graph) == acks[level] - 1, case
                    if level in LOCAL_LEVELS:  # only the coordinator's datacenter acks
                        assert all(cls.kind == ASYNC or dcs[c] == home for _, c, cls in graph.edges), case
                assert [c for _, c, _ in rep.edges] == [v for v in placement if v != coordinator], case
                assert all(cls.kind != ASYNC for _, _, cls in read.edges), case


def test_build_output_passes_validation():
    topo = mesh_topology(5)
    for write_cl in (ONE, TWO, THREE, QUORUM, ALL):
        for read_cl in (ONE, QUORUM, ALL):
            model = build_cooperation_model(topo, [0, 1, 2, 3, 4], 0, write_cl, read_cl)
            assert validate_scenario(topo, model, []).ok, (write_cl, read_cl)


def test_build_errors():
    topo = mesh_topology(3)
    with pytest.raises(LevelError) as e:
        build_cooperation_model(topo, [0, 1], 2, ONE, ONE)
    assert e.value.code == "LEVEL_UNSATISFIABLE"

    sparse = mesh_topology(3)
    edges = dict(sparse.edges)
    del edges[(0, 2)]
    from quorumsim import ReplicaGraph

    sparse = ReplicaGraph(sparse.replicas, edges)
    with pytest.raises(LevelError) as e:
        build_cooperation_model(sparse, [0, 1, 2], 0, QUORUM, QUORUM)
    assert e.value.code == "MISSING_EDGE"
