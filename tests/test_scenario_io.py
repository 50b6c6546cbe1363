import dataclasses
import json
import random
import sys
from collections import deque
from itertools import islice

import pytest

from _builders import WRONG_TYPED_DISTRIBUTIONS, star_async
from _oracles import reference_event_json, reference_op_table_csv, reference_read_verdicts_csv
from _randgen import random_scenario

import quorumsim as qs
from quorumsim import (
    ClientOverride,
    Constant,
    Empirical,
    LogNormal,
    MalformedLogError,
    ScenarioFormatError,
    load_scenario,
    run_simulation,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
    Zipfian,
)
from quorumsim import engine, logio
from quorumsim.strategies import LWW_TIMESTAMP, STRATEGIES, VersionRef
from quorumsim.clientcentric import ReadVerdict
from quorumsim.logio import (_event_lines, _meta_to_json, read_events, write_events, write_op_table, write_read_verdicts,
                             written_chunks)
from quorumsim.cli import _load, _write_stages, list_presets, main
from quorumsim.optable import OpRecord, op_table
from quorumsim.scenario import Scenario


def minimal_doc(**overrides):
    doc = {
        "meta": {"name": "t", "description": ""},
        "topology": {
            "replicas": [
                {"id": 0, "datacenter": "dc1", "proc_write": {"kind": "constant", "value_us": 0}, "proc_read": {"kind": "constant", "value_us": 0}},
                {"id": 1, "datacenter": "dc1", "proc_write": {"kind": "constant", "value_us": 0}, "proc_read": {"kind": "constant", "value_us": 0}},
            ],
            "edges": [
                {"src": 0, "dst": 1, "base": {"kind": "exponential", "mean_us": 2000}},
                {"src": 1, "dst": 0, "base": {"kind": "exponential", "mean_us": 2000}},
            ],
        },
        "consistency": {"placement": [0, 1], "coordinator": 0, "write_cl": "QUORUM", "read_cl": "ONE"},
        "workload": {
            "clients": 2,
            "ops_per_client": 10,
            "read_ratio": 0.5,
            "think_time": {"kind": "constant", "value_us": 1000},
            "keys": {"kind": "uniform", "n": 4},
            "write_payload_bytes": {"kind": "constant", "value_us": 64},
        },
        "strategy": "lww_timestamp",
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def test_round_trip_consistency_block():
    sc = scenario_from_json(minimal_doc())
    doc2 = scenario_to_json(sc)
    sc2 = scenario_from_json(doc2)
    assert scenario_to_json(sc2) == doc2
    assert sc2.consistency == sc.consistency
    assert sc2.workload == sc.workload
    assert sc2.topology == sc.topology


def test_round_trip_explicit_graphs_and_failures():
    rng = random.Random(5)
    topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True)
    sc = Scenario("rt", "", topo, coop, wl, tuple(failures), "write_set", 5_000_000, 9)
    doc = scenario_to_json(sc)
    sc2 = scenario_from_json(doc)
    assert scenario_to_json(sc2) == doc
    assert sc2.coop == sc.coop
    assert sc2.failures == sc.failures
    # semantic identity: the reloaded scenario simulates identically
    a = run_simulation(sc.topology, sc.coop, list(sc.failures), sc.workload, sc.strategy, 9)
    b = run_simulation(sc2.topology, sc2.coop, list(sc2.failures), sc2.workload, sc2.strategy, 9)
    assert a.events == b.events


def test_scenarios_round_trip_through_the_json_text():
    rng = random.Random("scenario-round-trip")
    for _ in range(20):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True)
        # every distribution kind and override field, which random_scenario leaves out
        wl = dataclasses.replace(
            wl,
            keys=Zipfian(rng.randint(1, 50), rng.choice([0, 0.99, 1.5])),
            overrides=(
                ClientOverride(0, rng.random(), LogNormal(rng.uniform(0, 8), 0.5), rng.randint(1, 9)),
                ClientOverride(1, think_time=Empirical(rng.sample(range(5_000), 4))),
            ),
        )
        sc = Scenario("rt", "random", topo, coop, wl, tuple(failures), rng.choice(STRATEGIES), rng.randrange(1, 10**7), rng.choice([None, 5]))
        assert scenario_from_json(json.loads(json.dumps(scenario_to_json(sc)))) == sc
    for name in list_presets():
        sc = _load(f"preset:{name}")
        assert sc.consistency is not None
        assert scenario_from_json(json.loads(json.dumps(scenario_to_json(sc)))) == sc


def test_integer_weights_are_normalized():
    doc = minimal_doc()
    del doc["consistency"]
    doc["cooperation"] = {
        "replication_graphs": [
            {"id": 0, "root": 0, "weight": 1, "edges": [{"parent": 0, "child": 1, "class": "async"}]},
            {"id": 1, "root": 1, "weight": 3, "edges": [{"parent": 1, "child": 0, "class": "async"}]},
        ],
        "reading_graphs": [{"id": 2, "root": 0, "weight": 2, "edges": []}],
    }
    sc = scenario_from_json(doc)
    assert [g.weight for g in sc.coop.replication_graphs] == [0.25, 0.75]
    assert [g.weight for g in sc.coop.reading_graphs] == [1.0]
    assert validate_scenario(sc.topology, sc.coop, list(sc.failures)).ok


def test_quorum_edge_class_syntax():
    doc = minimal_doc()
    del doc["consistency"]
    doc["cooperation"] = {
        "replication_graphs": [
            {
                "id": 0,
                "root": 0,
                "weight": 1.0,
                "edges": [{"parent": 0, "child": 1, "class": {"quorum": 0}}],
                "quorum_thresholds": {"0": 1},
            }
        ],
        "reading_graphs": [{"id": 1, "root": 0, "weight": 1.0, "edges": []}],
    }
    sc = scenario_from_json(doc)
    p, c, cls = sc.coop.replication_graphs[0].edges[0]
    assert (p, c, cls.kind, cls.group) == (0, 1, "quorum", 0)


def test_structural_errors():
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(minimal_doc(strategy="bogus"))
    doc = minimal_doc()
    del doc["consistency"]
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(doc)
    both = minimal_doc()
    both["cooperation"] = {"replication_graphs": [], "reading_graphs": []}
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(both)
    bad_dist = minimal_doc()
    bad_dist["workload"]["think_time"] = {"kind": "laplace"}
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(bad_dist)
    for field, dist in WRONG_TYPED_DISTRIBUTIONS:
        doc = minimal_doc()
        doc["workload"][field] = dist
        with pytest.raises(ScenarioFormatError):
            scenario_from_json(doc)


def test_unsupported_level_is_a_domain_error():
    with pytest.raises(qs.LevelError) as e:
        scenario_from_json(minimal_doc(consistency={"placement": [0, 1], "coordinator": 0, "write_cl": "ANY", "read_cl": "ONE"}))
    assert e.value.code == "UNSUPPORTED_LEVEL"


def test_rf_must_match_placement():
    doc = minimal_doc()
    doc["consistency"]["rf"] = 3
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(doc)


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioFormatError):
        load_scenario(p)


# -- events file round trips ----------------------------------------------------------

# the least header the reader accepts: its format, a strategy and its graphs (none)
HEADER = {"kind": "run_meta", "format": 1, "strategy": LWW_TIMESTAMP, "graphs": {}}


def sample_log():
    topo, coop = star_async(0, {1: 10_000, 2: 20_000})
    wl = qs.WorkloadSpec(2, 6, 0.5, Constant(700), qs.UniformKeys(2), Constant(64))
    return run_simulation(topo, coop, [], wl, LWW_TIMESTAMP, seed=21)


def test_event_json_round_trip_every_kind(tmp_path):
    log = sample_log()
    path = tmp_path / "events.jsonl"
    kinds = set()
    for ev in log.events:
        path.write_text(json.dumps(HEADER) + "\n" + json.dumps(reference_event_json(ev)) + "\n")
        assert read_events(path).events == [ev]
        kinds.add(ev[3])
    assert {"op_start", "graph_chosen", "apply_start", "apply_end", "op_commit", "read_return"} <= kinds


def test_events_file_round_trip(tmp_path):
    log = sample_log()
    path = tmp_path / "events.jsonl"
    write_events(log, path)
    loaded = read_events(path)
    assert loaded.events == log.events
    assert loaded.meta["strategy"] == "lww_timestamp"
    assert loaded.meta["graphs"][0]["vertices"] == [0, 1, 2]
    # byte-stable: writing the reloaded log reproduces the same file
    path2 = tmp_path / "events2.jsonl"
    loaded.meta.pop("scenario", None)
    write_events(qs.SimulationLog(log.meta, loaded.events, {}), path2)
    assert path.read_bytes() == path2.read_bytes()


# Drawn once; every scenario runs under each strategy.
REFERENCE_SEED = 20261018
REFERENCE_SCENARIOS = 10


EVENT_KINDS = {
    engine.OP_START,
    engine.GRAPH_CHOSEN,
    engine.APPLY_START,
    engine.APPLY_END,
    engine.ACK,
    engine.READ_RETURN,
    engine.OP_COMMIT,
    engine.OP_FAIL,
    engine.REPLICA_DOWN,
    engine.REPLICA_UP,
}


def reference_logs():
    """Engine logs of REFERENCE_SCENARIOS random scenarios, with crash
    windows and op timeouts, each run under every strategy."""
    rng = random.Random(REFERENCE_SEED)
    for _ in range(REFERENCE_SCENARIOS):
        topo, coop, failures, wl = random_scenario(rng, allow_crash_stop=True, max_total_ops=60)
        timeout = rng.choice([engine.DEFAULT_OP_TIMEOUT, rng.randrange(2_000, 20_000)])
        seed = rng.randrange(1_000)
        for strategy in STRATEGIES:
            yield run_simulation(topo, coop, failures, wl, strategy, seed, timeout)


def test_writer_lines_match_the_dict_reference(tmp_path):
    """Every line of write_events is json.dumps of reference_event_json, compact."""
    kinds = set()
    seen = {"vclock": False, "value_list": False, "empty_returned": False, "null_op_id": False, "timeout": False}
    for log in reference_logs():
        path = tmp_path / "events.jsonl"
        write_events(log, path)
        _, *lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(log.events)
        for line, ev in zip(lines, log.events):
            obj = reference_event_json(ev)
            assert line == json.dumps(obj, separators=(",", ":")), ev
            kinds.add(ev[3])
            seen["vclock"] |= "vclock" in obj or any("vclock" in r for r in obj.get("returned", ()))
            seen["value_list"] |= len(obj.get("value", ())) > 1
            seen["empty_returned"] |= obj.get("returned") == []
            seen["null_op_id"] |= obj["op_id"] is None
            seen["timeout"] |= obj.get("reason") == engine.FAIL_TIMEOUT
    assert kinds == EVENT_KINDS
    assert all(seen.values()), seen


def test_writer_formats_each_ref_object_from_its_own_fields(tmp_path):
    """Two ref objects with one write id but different fields each write
    what reference_event_json gives: the writer's memo never trusts the id alone."""
    a = VersionRef(7, 0, 100, None)
    b = VersionRef(7, 0, 200, None)
    clocked = VersionRef(7, 0, 100, ((0, 1),))
    raised = VersionRef(7, 0, 100, ((0, 1), (1, 2)))
    returns = [(a,), (b,), (a, b), (b, a), (clocked,), (raised,), (clocked, a)]
    events = [(n, 10 + n, n, engine.READ_RETURN, ((0,), refs)) for n, refs in enumerate(returns)]
    path = tmp_path / "events.jsonl"
    write_events(qs.SimulationLog({}, events, {}), path)
    _, *lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(reference_event_json(ev), separators=(",", ":")) for ev in events]


def test_writer_keeps_no_ref_past_its_chunk(tmp_path):
    """The writer formats a ref once per chunk and keeps it no longer: while
    chunk 2 is written, a ref that only chunk 1 returned has no reference
    left from the writer."""
    ref = VersionRef(7, 0, 100, None)
    pair = (VersionRef(8, 1, 110, None), VersionRef(9, 0, 120, None))  # a list, which the writer extends
    during = []

    def second_chunk():  # a generator, so the count is taken while the writer walks it
        during.append([sys.getrefcount(x) for x in (ref, pair, *pair)])
        yield (3, 30, 1, engine.OP_COMMIT, (5,))

    def chunks():  # made on demand, so no chunk list holds a chunk
        yield [(1, 20, 0, engine.READ_RETURN, ((0,), (ref,))), (2, 20, 2, engine.READ_RETURN, ((0,), pair))]
        yield second_chunk()

    before = [sys.getrefcount(x) for x in (ref, pair, *pair)]
    path = tmp_path / "events.jsonl"
    deque(written_chunks({}, chunks(), path), maxlen=0)
    assert during == [before]
    _, *lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[0].endswith('"returned":[{"write_id":7,"client_id":0,"client_ts_us":100}]}')
    assert lines[1].endswith('"returned":[{"write_id":8,"client_id":1,"client_ts_us":110},{"write_id":9,"client_id":0,"client_ts_us":120}]}')


def _joined_cases(rng, pool, twin):
    """Runs of lists for ``logio._joined``: each run starts from a random
    list and steps to an extension, an equal list of distinct objects, a
    prefix, a list of one or none, or a new list, then tries a mismatch at
    every position of its last list. Yields (run number, list, what it is)."""
    for run in range(150):
        last = tuple(rng.sample(pool, rng.randint(2, 6)))
        yield run, last, "new"
        for _ in range(rng.randint(1, 8)):
            step = rng.choice(["extension", "equal", "prefix", "one", "empty", "new"])
            if step == "extension":
                items = last + tuple(rng.sample(pool, rng.randint(1, 3)))
            elif step == "equal":
                items = tuple(map(twin, last))
            elif step == "prefix":
                items = last[:rng.randrange(len(last))]
            elif step == "one":
                items = (rng.choice(pool),)
            elif step == "empty":
                items = ()
            else:
                items = tuple(rng.sample(pool, rng.randint(2, 6)))
            yield run, items, step
            last = items if len(items) > 1 else last
        for i in range(len(last)):
            other = rng.choice([x for x in pool if x != last[i]])
            yield run, last[:i] + (other,) + last[i + 1:], f"mismatch at {i}"
            yield run, tuple(map(twin, last)), "equal"


@pytest.mark.parametrize("kind", ["refs", "ids"])
def test_joined_text_is_the_whole_join_of_each_list(kind):
    """``logio._joined`` gives ``sep.join(map(text_of, items))`` for every
    list of a run, whatever the last list under its key was: extensions,
    equal lists of distinct objects, mismatches at every position, lists of
    one item and of none."""
    rng = random.Random(f"joined:{kind}")
    if kind == "refs":
        pool = [VersionRef(w, w % 3, 10 * w, rng.choice([None, ((w % 3, w),)])) for w in range(10)]
        pool.append(VersionRef(3, 1, 30, None))  # a write id twice, with other fields
        text_of, sep, twin = logio._ref_line, ",", lambda ref: dataclasses.replace(ref)
    else:
        pool = list(range(10))
        text_of, sep, twin = str, ";", int
    seen = set()
    memo: dict = {}
    for run, items, step in _joined_cases(rng, pool, twin):
        key = run % 3  # runs share keys, so a key's last list may come from an earlier run
        assert logio._joined(memo, key, items, text_of, sep) == sep.join(map(text_of, items)), (items, step)
        seen.add(step)
        assert all(len(prev) > 1 for prev, _ in memo.values())
    assert seen >= {"new", "extension", "equal", "prefix", "one", "empty", *(f"mismatch at {i}" for i in range(8))}


def test_a_write_set_log_of_several_chunks_matches_the_dict_reference(tmp_path):
    """A write_set run streamed through the writer, over engine chunks, has
    every line of reference_event_json: the per-chunk memos that extend
    read_return and apply_end lists start afresh at each chunk."""
    sc = _load("preset:quorum_zipfian")
    wl = dataclasses.replace(sc.workload, n_clients=4, ops_per_client=300)
    meta, chunks = engine.simulation_chunks(sc.topology, sc.coop, list(sc.failures), wl, qs.WRITE_SET, sc.seed)
    path = tmp_path / "events.jsonl"
    events = [ev for chunk in written_chunks(meta, chunks, path) for ev in chunk]
    assert len(events) > 2 * engine._CHUNK_EVENTS  # at least 3 chunks
    assert sum(ev[3] == engine.READ_RETURN and len(ev[4][1]) > 1 for ev in events[2 * engine._CHUNK_EVENTS:]) > 10
    _, *lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(events)
    for line, ev in zip(lines, events):
        assert line == json.dumps(reference_event_json(ev), separators=(",", ":")), ev


# A mutation's new value for a field: each wrong in some place, right in another
MUTANT_VALUES = [None, True, 0, -3, 1.5, "1", "x", [], [1], {}, {"0": 1}]


def _mutated(obj: dict, rng: random.Random) -> dict:
    """obj, a decoded event line, with one field dropped, added or given another value, at its top level or below.
    A returned ref may instead get a field of [{}, {}], or a "returned" list of its own: each puts a "},{" or a
    ',"returned":[{' inside one element of a compact list of refs."""
    obj = json.loads(json.dumps(obj))
    places = [obj]  # every object and list in obj
    for place in places:
        places.extend(v for v in (place.values() if isinstance(place, dict) else place) if isinstance(v, (dict, list)))
    place = rng.choice(places)
    if any(place is ref for ref in obj.get("returned", ())) and rng.random() < 0.4:
        if rng.random() < 0.5:
            place[rng.choice([*place, "bogus"])] = [{}, {}]
        else:
            place["returned"] = json.loads(json.dumps(obj["returned"]))
    elif isinstance(place, dict) and place and rng.random() < 0.3:
        del place[rng.choice(list(place))]
    elif isinstance(place, dict) and (not place or rng.random() < 0.3):
        place[rng.choice(["bogus", "write_id", "value", "vclock", "7", "07"])] = rng.choice(MUTANT_VALUES)
    elif isinstance(place, dict):
        place[rng.choice(list(place))] = rng.choice(MUTANT_VALUES)
    elif place and rng.random() < 0.7:
        place[rng.randrange(len(place))] = rng.choice(MUTANT_VALUES)
    else:
        place.append(rng.choice(MUTANT_VALUES))
    return obj


REF_FIELDS = ("write_id", "client_id", "client_ts_us", "vclock")


def test_every_line_the_reader_accepts_is_the_line_its_event_writes(tmp_path):
    """Mutated lines of engine logs, under every strategy: each is read or
    is MALFORMED_LOG on its line, and an event that is read, written back,
    decodes to the same JSON object. A returned ref is an open object, so it
    is compared on the fields the writer writes (a null clock being none).
    Each mutated line is written spaced and compact, after its event's own
    line, so a compact line repeats that line's refs text for text where
    the mutation left them: both forms give the same events, with equal
    refs as one object, or the same fault on the same line."""
    rng = random.Random(20261020)
    path = tmp_path / "events.jsonl"
    header = json.dumps(HEADER)
    outcomes = {"read": 0, "rejected": 0, "open ref": 0, "split read": 0, "split rejected": 0}
    for log in reference_logs():
        returns = [ev for ev in log.events if ev[3] == engine.READ_RETURN]  # the lines with open objects in them
        for ev in rng.sample(log.events, min(len(log.events), 20)) + rng.sample(returns, min(len(returns), 10)):
            obj = _mutated(reference_event_json(ev), rng)
            read = []
            for separators in ((", ", ": "), (",", ":")):
                line = json.dumps(obj, separators=separators)
                path.write_text(header + "\n" + "".join(_event_lines([ev])) + line + "\n", encoding="utf-8")
                try:
                    read.append(read_events(path).events)
                except MalformedLogError as e:
                    read.append(e)
            spaced, compact = read
            split = '"returned":[{' in line and "},{" in line  # a compact list that the reader may split
            if isinstance(spaced, MalformedLogError):
                assert (type(compact), str(compact), spaced.line) == (MalformedLogError, str(spaced), 3), obj
                outcomes["rejected"] += 1
                outcomes["split rejected"] += split
                continue
            assert compact == spaced, obj
            refs = [ref for e in compact if e[3] == engine.READ_RETURN for ref in e[4][1]]
            assert len(set(map(id, refs))) == len(set(refs)), obj
            if "returned" in obj:
                refs = [{f: r[f] for f in REF_FIELDS if r.get(f) is not None} for r in obj["returned"]]
                outcomes["open ref"] += refs != obj["returned"]
                obj["returned"] = refs
            assert json.loads("".join(_event_lines(compact[1:]))) == obj
            outcomes["read"] += 1
            outcomes["split read"] += split
    assert min(outcomes.values()) > 0, outcomes


# A read_return line whose list of two refs the reader splits, and lines that break one step of the split
_SPLIT = ('{"seq":1,"time_us":10,"op_id":1,"kind":"read_return","participants":[0,1],"returned":[{"write_id":1,"client_id":0,'
          '"client_ts_us":5},{"write_id":2,"client_id":1,"client_ts_us":6,"vclock":{"0":1,"1":2}}]}')
_LIST = _SPLIT.split(',"returned":')[1]
SPLIT_CHANGES = {  # name: (change, whether the reader still splits the line)
    "as written": (lambda line: line, True),
    "head with an extra field": (lambda line: line.replace('"participants"', '"bogus":1,"participants"'), True),
    "head without participants": (lambda line: line.replace('"participants":[0,1],', ""), True),
    "head with a string seq": (lambda line: line.replace('"seq":1', '"seq":"1"'), True),
    "a },{ in the head": (lambda line: line.replace('"participants"', '"x":[{},{}],"participants"'), True),
    "an earlier returned key": (lambda line: line.replace('"participants"', '"returned":5,"participants"'), True),
    "head with text after its object": (lambda line: line.replace('"participants":[0,1]', '"participants":[0,1]}x'), False),
    "head of another kind": (lambda line: line.replace('"read_return","participants":[0,1]', '"apply_end","replica":0,"write_id":1'), False),
    "a list of one ref": (lambda line: line.replace('{"write_id":1,"client_id":0,"client_ts_us":5},', ""), False),
    "a header with a list of refs": (lambda line: '{"kind":"run_meta","format":1,"strategy":"write_set","graphs":{},"returned":' + _LIST, False),
    "a },{ inside a string": (lambda line: line.replace('"client_ts_us":5}', '"client_ts_us":5,"note":"a},{b"}'), False),
    "a },{ inside a ref": (lambda line: line.replace('"client_ts_us":5}', '"client_ts_us":5,"x":[{},{}]}'), False),
    "a list of refs inside a ref": (lambda line: line.replace('"client_ts_us":5}', '"client_ts_us":5,"returned":' + _LIST[:-1] + "}"), False),
    "an element that breaks the ref rules": (lambda line: line.replace('"write_id":2', '"write_id":"2"'), False),
    "an element without a field": (lambda line: line.replace('"client_id":1,', ""), False),
    "an empty element": (lambda line: line.replace("[{", "[{},{"), False),
    "an element that is no object": (lambda line: line.replace("[{", "[1,{"), False),
    "a space between elements": (lambda line: line.replace("},{", "}, {", 1), False),
    "a later returned key": (lambda line: line[:-1] + ',"returned":' + _LIST[:-1] + "}", False),
    "a returned key in a later field": (lambda line: line[:-1] + ',"x":{"returned":' + _LIST + "}", False),
}


@pytest.mark.parametrize("change", SPLIT_CHANGES)
def test_a_split_line_reads_as_the_scanner_reads_it(tmp_path, monkeypatch, change):
    """A line whose list of returned refs the reader splits, changed to
    break one step of the split, after a line with the same refs: the file
    gives what the scanner alone gives for it (the same events, meta and
    shared refs, or the same fault on the same line), and only a line whose
    steps all hold is split."""
    mutate, splits = SPLIT_CHANGES[change]
    line = mutate(_SPLIT)
    path = tmp_path / "events.jsonl"
    header = "" if '"run_meta"' in line else json.dumps(HEADER) + "\n"
    path.write_text(header + _SPLIT + "\n" + line + "\n", encoding="utf-8")

    def read():
        meta = {}
        try:
            events = list(logio.iter_events(path, meta))
        except MalformedLogError as e:
            return str(e)
        refs = [r for e in events if e[3] == engine.READ_RETURN for r in e[4][1]]
        return meta, events, [next(i for i, other in enumerate(refs) if other is r) for r in refs]  # which refs are one object

    split_lines, split_read_return = [], logio._split_read_return

    def spied(line, texts, refs):
        obj = split_read_return(line, texts, refs)
        if obj is not None:
            split_lines.append(line)
        return obj

    monkeypatch.setattr(logio, "_split_read_return", spied)
    read_in_parts = read()
    assert split_lines == [_SPLIT] + [line] * splits
    monkeypatch.setattr(logio, "_split_read_return", lambda line, texts, refs: None)
    assert read_in_parts == read()


# A header mutation's new value for its format, a graph id's spelling, a graph entry, or its strategy
HEADER_FORMATS = [1, 99, 0, True, 1.0, "1", "one", None]
GRAPH_KEYS = ["0", "1", "7", "00", "+0", " 0", "0 ", "0_0", "-0", "-1", "x", ""]
GRAPH_ENTRIES = [{}, {"kind": "reading", "root": 0, "vertices": [0]}, {"vertices": None}, {"vertices": []}, {"vertices": [True]},
                 {"vertices": 5}, [0], None, 1]
STRATEGY_VALUES = list(STRATEGIES) + ["bogus", "LWW_TIMESTAMP"] + MUTANT_VALUES


def _mutated_header(obj: dict, rng: random.Random) -> dict:
    """obj, a decoded run_meta header, with its format, a graph id's
    spelling, a graph entry or its strategy changed, a field added or
    dropped, or one of _mutated's changes."""
    obj = json.loads(json.dumps(obj))
    graphs = obj["graphs"]
    gid, change = rng.choice(list(graphs)), rng.randrange(6)
    if change == 0:
        obj["format"] = rng.choice(HEADER_FORMATS)
    elif change == 1:  # a second spelling of a graph's id, beside it or in its place, or another id
        graphs[rng.choice(GRAPH_KEYS)] = graphs[gid] if rng.random() < 0.5 else graphs.pop(gid)
    elif change == 2:
        graphs[gid] = rng.choice(GRAPH_ENTRIES)
    elif change == 3:
        obj["strategy"] = rng.choice(STRATEGY_VALUES)
    elif change == 4:
        obj[rng.choice(["bogus", "scenario", "seed", "graphs"])] = rng.choice(MUTANT_VALUES)
    elif rng.random() < 0.5:
        del obj[rng.choice([f for f in obj if f != "kind"])]
    else:
        obj = _mutated(obj, rng)
    return obj


def test_every_header_the_reader_accepts_is_the_header_its_meta_writes(tmp_path):
    """Mutated run_meta headers of engine logs: each is read or is
    MALFORMED_LOG on line 1, and the meta of one that is read, written back,
    decodes to the same JSON object."""
    rng = random.Random(20261021)
    path = tmp_path / "events.jsonl"
    outcomes = {"read": 0, "rejected": 0}
    for log in islice(reference_logs(), 8):  # two scenarios, each under every strategy
        for _ in range(40):
            obj = _mutated_header(_meta_to_json(log.meta), rng)
            path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
            try:
                meta = read_events(path).meta
            except MalformedLogError as e:
                assert e.line == 1, obj
                outcomes["rejected"] += 1
                continue
            assert json.loads(json.dumps(_meta_to_json(meta))) == obj
            outcomes["read"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_reader_gives_the_engine_events_with_one_ref_per_write(tmp_path):
    """read_events gives the engine's own event tuples, and every returned
    ref of one write id is one object."""
    path = tmp_path / "events.jsonl"
    kinds = set()
    repeated = 0
    for log in reference_logs():
        write_events(log, path)
        loaded = read_events(path)
        assert loaded.events == log.events
        first = {}
        for ev in loaded.events:
            kinds.add(ev[3])
            if ev[3] == engine.READ_RETURN:
                for ref in ev[4][1]:
                    repeated += ref.write_id in first
                    assert first.setdefault(ref.write_id, ref) is ref
    assert {engine.REPLICA_DOWN, engine.REPLICA_UP, engine.OP_FAIL} <= kinds
    assert repeated > 0


@pytest.mark.parametrize(
    "strategy, field, second",
    [
        # equal in value to the first return, but not ints (a return that
        # differs in value is the op table's to reject: see test_cli)
        ("lww_timestamp", "client_id", False),
        ("lww_timestamp", "client_ts_us", 100.0),
        ("lww_timestamp", "write_id", 7.0),
        ("competing_writes", "vclock", {"0": 1.0}),
        ("competing_writes", "vclock", {"0": True}),
    ],
)
def test_reader_rejects_a_write_returned_with_differing_fields(tmp_path, strategy, field, second):
    ref = {"write_id": 7, "client_id": 0, "client_ts_us": 100}
    if strategy == "competing_writes":
        ref["vclock"] = {"0": 1}
    header = {"kind": "run_meta", "format": 1, "strategy": strategy, "graphs": {}}
    lines = [header] + [
        {"seq": n, "time_us": 10 + n, "op_id": n, "kind": "read_return", "participants": [0], "returned": [r]}
        for n, r in enumerate([ref, {**ref, "x_extra": 1}, {**ref, field: second}])
    ]
    path = tmp_path / "events.jsonl"
    # an unknown field is no difference
    path.write_text("".join(json.dumps(line) + "\n" for line in lines[:3]))
    loaded = read_events(path)
    assert loaded.events[0][4][1][0] is loaded.events[1][4][1][0]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(MalformedLogError, match="wrong type") as e:
        read_events(path)
    assert e.value.line == 4 and e.value.code == "MALFORMED_LOG"


def test_analyze_reads_a_header_that_is_not_on_the_first_line(tmp_path):
    log = sample_log()
    path = tmp_path / "events.jsonl"
    write_events(log, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    moved = tmp_path / "moved.jsonl"
    moved.write_text("\n".join(lines[:5] + [header] + lines[5:]) + "\n", encoding="utf-8")
    # the reports of the in-memory log, as run writes them
    _write_stages(op_table(log), log.meta["strategy"], (2, 3), tmp_path / "in_memory")
    for events, out in ((path, "ordered"), (moved, "moved")):
        assert main(["analyze", str(events), "--out", str(tmp_path / out), "--quiet"]) == 0
    for name in ("datacentric.json", "ops.csv", "clientcentric.json", "read_verdicts.csv"):
        expected = (tmp_path / "in_memory" / name).read_bytes()
        assert (tmp_path / "ordered" / name).read_bytes() == expected, name
        assert (tmp_path / "moved" / name).read_bytes() == expected, name


def test_writer_rejects_an_unknown_kind(tmp_path):
    log = qs.SimulationLog({}, [(1, 0, 0, "op_retry", (0,))], {})
    with pytest.raises(ValueError, match="unknown event kind"):
        write_events(log, tmp_path / "events.jsonl")


def test_reader_skips_blank_lines_and_accepts_any_json_formatting(tmp_path):
    log = sample_log()
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(HEADER) + "\n\n")
        for ev in log.events:
            fh.write("  " + json.dumps(reference_event_json(ev), sort_keys=True, separators=(" , ", " : ")) + "\t\n\n")
    assert read_events(path).events == log.events


def test_reader_rejects_trailing_data_on_a_line(tmp_path):
    log = sample_log()
    path = tmp_path / "events.jsonl"
    write_events(log, path)
    lines = path.read_text().splitlines()
    for tail in ("x", " {}", ",", "]", "\x0c", "\u00a0"):  # the last two: whitespace to Python, not to JSON
        bad = lines[:3] + [lines[3] + tail] + lines[4:]
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(MalformedLogError, match="not valid JSON") as e:
            read_events(path)
        assert e.value.line == 4, tail


def test_reader_rejects_a_line_nested_too_deep_to_decode(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(MalformedLogError, match=r"not valid JSON \(line 2\)"):
        read_events(path)


def test_reader_rejects_a_field_that_the_writer_does_not_write(tmp_path):
    """An event line carries exactly the fields the writer writes for its
    kind and variant: one more is MALFORMED_LOG on its line, for every kind
    and for each variant of op_start and apply_end. The run_meta header and
    a returned ref may carry more (see the differing-fields test)."""
    variants, event_of = {}, {}  # (kind, its optional fields) -> the first line of it, and its event
    for log in reference_logs():
        for ev in log.events:
            obj = reference_event_json(ev)
            variant = (obj["kind"], *(f in obj for f in ("write_id", "value", "vclock")))
            if variant not in variants:
                variants[variant], event_of[variant] = obj, ev
    assert {kind for kind, *_ in variants} == EVENT_KINDS
    assert {v[1:] for v in variants if v[0] == "op_start"} >= {(False, False, False), (True, False, False), (True, False, True)}
    assert {v[1:] for v in variants if v[0] == "apply_end"} == {(True, False, False), (False, True, False)}
    write_start, read_apply_end = variants["op_start", True, False, False], variants["apply_end", False, True, False]
    extra = [{**obj, "bogus": 1} for obj in variants.values()] + [
        {**read_apply_end, "write_id": 0},  # both variants' fields
        {**write_start, "vclock": None},  # null where the writer writes nothing
        {**variants["op_start", False, False, False], "write_id": None},
        {**variants["op_start", False, False, False], "write_id": 0},  # a write's field on a read
    ]
    header = {"kind": "run_meta", "format": 1, "strategy": "lww_timestamp", "graphs": {}, "x_extra": [1]}
    path = tmp_path / "events.jsonl"
    for variant, obj in variants.items():
        path.write_text(json.dumps(header) + "\n" + json.dumps(obj) + "\n")
        assert read_events(path).events == [event_of[variant]]
    for obj in extra:
        path.write_text(json.dumps(header) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(MalformedLogError, match=r"^event has a field that its kind does not have \(line 2\)$"):
            read_events(path)
    write_start.pop("write_id")
    path.write_text(json.dumps(header) + "\n" + json.dumps(write_start) + "\n")
    with pytest.raises(MalformedLogError, match=r"^event is missing field 'write_id' \(line 2\)$"):
        read_events(path)


def test_truncated_file_reports_line(tmp_path):
    log = sample_log()
    path = tmp_path / "events.jsonl"
    write_events(log, path)
    text = path.read_text().splitlines()
    cut = text[:5] + [text[5][: len(text[5]) // 2]]
    path.write_text("\n".join(cut) + "\n")
    with pytest.raises(MalformedLogError) as e:
        read_events(path)
    assert e.value.line == 6


def test_missing_field_reports_line(tmp_path):
    start = {"seq": 0, "time_us": 1, "op_id": 0, "kind": "op_start", "client_id": 0, "op": "write", "key": 0}
    start.update(write_id=0, payload_bytes=8, warmup=False)
    ref = {"write_id": 0, "client_id": 0, "client_ts_us": 1}
    read_return = {"seq": 0, "time_us": 1, "op_id": 0, "kind": "read_return", "participants": [0], "returned": [ref]}
    bad_lines = [
        {"seq": 0, "time_us": 1, "op_id": 0, "kind": "apply_start"},  # no replica
        {**start, "vclock": [1, 2]},  # vclock not an object
        {**read_return, "returned": [ref, 7]},  # returned ref not an object
        {**start, "time_us": "x"},
        {**start, "seq": None},
        {**start, "op_id": "0"},
    ]
    for bad in bad_lines:
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(HEADER) + "\n")
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(MalformedLogError) as e:
            read_events(path)
        assert e.value.line == 2, bad
    # run_meta graphs not an object, keyed by a non-integer or by a second
    # spelling of one, an entry not an object, or vertices not a list of
    # integers, or no graphs at all; a strategy that is not one, or none; a
    # format that is not the integer 1
    bad_graphs = ([], {"x": {}}, {"0": [1]}, {"0": {"vertices": 5}}, {"0": {"vertices": ["1"]}},
                  {"0": {}, "00": {"vertices": [0]}}, {"+0": {}}, {" 0": {}}, {"0_0": {}})
    bad_headers = [{**HEADER, "graphs": graphs} for graphs in bad_graphs] + [{k: v for k, v in HEADER.items() if k != "graphs"}]
    bad_headers += [{**HEADER, "strategy": strategy} for strategy in ("bogus", None, ["lww_timestamp"])] + [{"kind": "run_meta", "format": 1}]
    bad_headers += [{**HEADER, "format": fmt} for fmt in (99, "one", True, 1.0, "1", None)] + [{"kind": "run_meta"}]
    for bad in bad_headers:
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(MalformedLogError) as e:
            read_events(path)
        assert e.value.line == 1, bad


# -- output files -----------------------------------------------------------------------


def test_csv_writers_equal_csv_writer_on_the_fields_it_quotes(tmp_path):
    """ops.csv and read_verdicts.csv are csv.writer's bytes, also where a
    failed op's reason holds a character that csv quotes, or is empty."""
    reasons = ["a,b", 'say "no"', "cr\r", "lf\n", "", "\r\n", '","', engine.FAIL_TIMEOUT]
    statuses = [f"failed:{reason}" for reason in reasons] + ["committed"]
    records = [
        OpRecord(n, client=n % 3, kind=("read", "write")[n % 2], key=7, graph_id=None if n % 3 else 1, start=100 * n,
                 status=status, latency_us=40 if status == "committed" else None, window_us=5 if n % 2 else None, warmup=n == 2)
        for n, status in enumerate(statuses)
    ]
    write_op_table(records, tmp_path / "ops.csv")
    assert (tmp_path / "ops.csv").read_bytes() == reference_op_table_csv(records)
    writes = tuple(OpRecord(n, write_id=w) for n, w in enumerate((3, 10, 0)))
    verdicts = [
        ReadVerdict(OpRecord(11, client=0, key=7, start=10), True, False, True),
        ReadVerdict(OpRecord(12, client=1, key=8, start=20, returned=writes), False, True, False),
        ReadVerdict(OpRecord(13, client=2, key=9, start=30, returned=writes[:1], warmup=True), False, False, False),
    ]
    write_read_verdicts(verdicts, tmp_path / "read_verdicts.csv")
    assert (tmp_path / "read_verdicts.csv").read_bytes() == reference_read_verdicts_csv(verdicts)
