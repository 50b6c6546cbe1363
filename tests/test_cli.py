import copy
import dataclasses
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from _builders import WRONG_TYPED_DISTRIBUTIONS
from _randgen import random_scenario
from quorumsim import Scenario, clientcentric, optable, scenario_from_json, scenario_to_json
from quorumsim.cli import _load, list_presets, main


@pytest.fixture()
def scenario_file(tmp_path):
    doc = {
        "meta": {"name": "cli-test", "description": ""},
        "topology": {
            "replicas": [
                {"id": i, "datacenter": "dc1", "proc_write": {"kind": "constant", "value_us": 100}, "proc_read": {"kind": "constant", "value_us": 100}}
                for i in range(3)
            ],
            "edges": [
                {"src": i, "dst": j, "base": {"kind": "exponential", "mean_us": 2000}}
                for i in range(3)
                for j in range(3)
                if i != j
            ],
        },
        "consistency": {"placement": [0, 1, 2], "coordinator": 0, "write_cl": "QUORUM", "read_cl": "QUORUM"},
        "workload": {
            "clients": 2,
            "ops_per_client": 40,
            "read_ratio": 0.5,
            "think_time": {"kind": "constant", "value_us": 500},
            "keys": {"kind": "uniform", "n": 8},
            "write_payload_bytes": {"kind": "constant", "value_us": 64},
        },
        "strategy": "lww_timestamp",
        "seed": 11,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_violations(scenario_file, capsys):
    doc = json.loads(scenario_file.read_text())
    del doc["consistency"]
    doc["cooperation"] = {
        "replication_graphs": [
            {"id": 0, "root": 0, "weight": 0.6, "edges": [{"parent": 0, "child": 1, "class": "async"}]},
            {"id": 1, "root": 0, "weight": 0.3, "edges": [{"parent": 0, "child": 2, "class": "async"}]},
        ],
        "reading_graphs": [{"id": 2, "root": 0, "weight": 1.0, "edges": []}],
    }
    scenario_file.write_text(json.dumps(doc))
    assert main(["validate", str(scenario_file)]) == 1
    assert "WEIGHTS_NOT_NORMALIZED" in capsys.readouterr().out


def test_validate_missing_file_is_io_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_validate_unparsable_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2


def test_run_stage_gating(scenario_file, tmp_path):
    out = tmp_path / "stage1"
    assert main(["run", str(scenario_file), "--out", str(out), "--stages", "1", "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["events.jsonl"]

    out_all = tmp_path / "all"
    assert main(["run", str(scenario_file), "--out", str(out_all), "--quiet"]) == 0
    assert sorted(p.name for p in out_all.iterdir()) == [
        "clientcentric.json",
        "datacentric.json",
        "events.jsonl",
        "ops.csv",
        "read_verdicts.csv",
    ]


def test_run_twice_is_byte_identical(scenario_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario_file), "--out", str(a), "--quiet"]) == 0
    assert main(["run", str(scenario_file), "--out", str(b), "--quiet"]) == 0
    for name in ("events.jsonl", "datacentric.json", "clientcentric.json", "read_verdicts.csv", "ops.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_read_verdict_csv_header_is_exact(scenario_file, tmp_path):
    out = tmp_path / "hdr"
    assert main(["run", str(scenario_file), "--out", str(out), "--quiet"]) == 0
    first = (out / "read_verdicts.csv").read_text().splitlines()[0]
    assert first == "op_id,client_id,key,start_us,stale,mrc,rywc,returned_writes"
    ops_first = (out / "ops.csv").read_text().splitlines()[0]
    assert ops_first == "op_id,client_id,kind,key,graph_id,start_us,status,latency_us,window_us,warmup"


def test_run_analyze_pipeline_identity(scenario_file, tmp_path):
    run_dir, out = tmp_path / "run", tmp_path / "analyzed"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--quiet"]) == 0
    assert main(["analyze", str(run_dir / "events.jsonl"), "--out", str(out), "--quiet"]) == 0
    for name in ("datacentric.json", "clientcentric.json", "read_verdicts.csv", "ops.csv"):
        assert (run_dir / name).read_bytes() == (out / name).read_bytes()


def test_repeat_matches_individual_runs(scenario_file, tmp_path):
    out = tmp_path / "batch"
    assert main(["run", str(scenario_file), "--out", str(out), "--repeat", "3", "--seed", "100", "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [row["seed"] for row in summary["rows"]] == [100, 101, 102]
    for row in summary["rows"]:
        single = tmp_path / f"single_{row['seed']}"
        assert main(["run", str(scenario_file), "--out", str(single), "--seed", str(row["seed"]), "--quiet"]) == 0
        report = json.loads((single / "clientcentric.json").read_text())
        assert row["stale_read_rate"] == report["stale_read_rate"]
        data = json.loads((single / "datacentric.json").read_text())
        assert row["error_rate"] == data["global"]["error_rate"]["all"]
        assert (out / f"seed_{row['seed']}" / "events.jsonl").read_bytes() == (single / "events.jsonl").read_bytes()


def test_jobs_do_not_change_outputs(scenario_file, tmp_path):
    a, b = tmp_path / "j1", tmp_path / "j3"
    assert main(["run", str(scenario_file), "--out", str(a), "--repeat", "3", "--jobs", "1", "--quiet"]) == 0
    assert main(["run", str(scenario_file), "--out", str(b), "--repeat", "3", "--jobs", "3", "--quiet"]) == 0
    for seed_dir in ("seed_11", "seed_12", "seed_13"):
        assert (a / seed_dir / "events.jsonl").read_bytes() == (b / seed_dir / "events.jsonl").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_analyze_malformed_log(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind":"run_meta","format":1,"strategy":"lww_timestamp","graphs":{}}\n{"seq":0')
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "MALFORMED_LOG" in capsys.readouterr().err


def test_run_and_analyze_build_the_op_table_once(scenario_file, tmp_path, monkeypatch):
    built = []

    class CountingTable(optable.OpTable):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(optable, "OpTable", CountingTable)
    run_dir = tmp_path / "run"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--quiet"]) == 0
    assert len(built) == 1
    assert main(["analyze", str(run_dir / "events.jsonl"), "--out", str(tmp_path / "analyzed"), "--quiet"]) == 0
    assert len(built) == 2


def test_stages_2_and_3_reject_the_same_malformed_logs(scenario_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--stages", "1", "--quiet"]) == 0
    header, *lines = (run_dir / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]

    def first(kind, *fields):
        return next(ev for ev in events if ev["kind"] == kind and all(ev.get(f) for f in fields))

    def changed(ev, **fields):
        return [{**e, **fields} if e is ev else e for e in events]

    terminal = first("op_commit")
    apply_start = first("apply_start")
    write_start = first("op_start", "write_id")
    read_return = first("read_return", "returned")
    ref = read_return["returned"][0]
    next_seq = events[-1]["seq"] + 1
    malformed = {
        "duplicated_terminal": events + [{**terminal, "seq": next_seq}],
        "unknown_op": events + [{**apply_start, "seq": next_seq, "op_id": 10_000}],
    }
    # every field an analysis reads, with the wrong type: the reader names the line
    wrong_typed = {
        "client_id": changed(write_start, client_id=[0]),
        "key": changed(write_start, key="k"),
        "payload_bytes": changed(write_start, payload_bytes=True),
        "op": changed(write_start, op="delete"),
        "warmup": changed(write_start, warmup="no"),
        "op_start_write_id": changed(write_start, write_id="1"),
        "vclock_entry": changed(write_start, vclock={"0": "1"}),
        "graph_id": changed(first("graph_chosen"), graph_id="0"),
        "replica": changed(apply_start, replica=None),
        "parent": changed(first("ack_received"), parent="0"),
        "child": changed(first("ack_received"), child=1.0),
        "latency_us": changed(terminal, latency_us="x"),
        "apply_end_write_id": changed(first("apply_end", "write_id"), write_id=[1]),
        "value": changed(first("apply_end", "value"), value="1"),
        "participants": changed(read_return, participants=0),
        "ref_write_id": changed(read_return, returned=[{**ref, "write_id": str(ref["write_id"])}]),
        "ref_client_id": changed(read_return, returned=[{**ref, "client_id": str(ref["client_id"])}]),
        "ref_client_ts_us": changed(read_return, returned=[{**ref, "client_ts_us": 1.5}]),
        "reason": changed(terminal, kind="op_fail", reason=5),
    }
    rng = random.Random(7)
    for name, bad in {**malformed, **wrong_typed}.items():
        shuffled = list(bad)
        rng.shuffle(shuffled)
        for order, evs in (("ordered", bad), ("shuffled", shuffled)):
            path = tmp_path / f"{name}_{order}.jsonl"
            path.write_text("\n".join([header, *map(json.dumps, evs)]) + "\n")
            for stages in ("2", "3"):
                capsys.readouterr()
                argv = ["analyze", str(path), "--out", str(tmp_path / "out"), "--stages", stages]
                assert main(argv) == 1, (name, order, stages)
                err = capsys.readouterr().err
                assert "MALFORMED_LOG" in err and "Traceback" not in err, (name, order, stages, err)
                assert name in malformed or "(line " in err, (name, order, stages, err)
                assert not (tmp_path / "out").exists()


def test_analyze_rejects_malformed_graph_entries_in_the_header(scenario_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--stages", "1", "--quiet"]) == 0
    header, *lines = (run_dir / "events.jsonl").read_text().splitlines()
    meta = json.loads(header)
    for entry in ([1], {"vertices": 5}):
        path = tmp_path / "events.jsonl"
        bad = {**meta, "graphs": {gid: entry for gid in meta["graphs"]}}
        path.write_text("\n".join([json.dumps(bad), *lines]) + "\n")
        for stages in ("2", "3"):
            capsys.readouterr()
            argv = ["analyze", str(path), "--out", str(tmp_path / "out"), "--stages", stages]
            assert main(argv) == 1, (entry, stages)
            assert "MALFORMED_LOG" in capsys.readouterr().err


def test_run_and_analyze_check_the_dot_shape_once(scenario_file, tmp_path, monkeypatch):
    checked = []
    check = clientcentric.check_dots
    monkeypatch.setattr(clientcentric, "check_dots", lambda table: checked.append(table) or check(table))
    doc = json.loads(scenario_file.read_text())
    scenario_file.write_text(json.dumps({**doc, "strategy": "competing_writes"}))
    run_dir = tmp_path / "run"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--quiet"]) == 0
    assert len(checked) == 1
    events = str(run_dir / "events.jsonl")
    assert main(["analyze", events, "--out", str(tmp_path / "analyzed"), "--quiet"]) == 0
    assert len(checked) == 2
    assert main(["analyze", events, "--out", str(tmp_path / "stage2"), "--stages", "2", "--quiet"]) == 0
    assert len(checked) == 2


def test_analyze_rejects_a_competing_writes_log_without_the_dot_shape(scenario_file, tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    scenario_file.write_text(json.dumps({**doc, "strategy": "competing_writes"}))
    run_dir = tmp_path / "run"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--stages", "1", "--quiet"]) == 0
    header, *lines = (run_dir / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    # raise client 1's entry in a clock of client 0 past any counter, in the
    # write's op_start and in every ref to it: the entry names no write
    write = next(ev for ev in events if ev["kind"] == "op_start" and ev["op"] == "write" and ev["client_id"] == 0)
    raised = {**write["vclock"], "1": 10_000}
    for ev in events:
        if ev is write:
            ev["vclock"] = raised
        for ref in ev.get("returned", ()):
            if ref["write_id"] == write["write_id"]:
                ref["vclock"] = raised
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([header, *map(json.dumps, events)]) + "\n")
    capsys.readouterr()
    assert main(["analyze", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MALFORMED_LOG: ") and f"op {write['op_id']} breaks the dot shape" in err and "Traceback" not in err
    # stage 3 rejects the log before any report is written
    assert not (tmp_path / "out").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("not a report\n")
    assert main(["analyze", str(path), "--out", str(kept), "--quiet"]) == 1
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]
    # stage 2 reads no clocks
    assert main(["analyze", str(path), "--out", str(tmp_path / "out2"), "--stages", "2", "--quiet"]) == 0


def test_analyze_rejects_an_unknown_strategy_in_the_header(scenario_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", str(scenario_file), "--out", str(run_dir), "--stages", "1", "--quiet"]) == 0
    header, *lines = (run_dir / "events.jsonl").read_text().splitlines()
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([json.dumps({**json.loads(header), "strategy": "bogus"}), *lines]) + "\n")
    capsys.readouterr()
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "MALFORMED_LOG" in err and "'bogus'" in err and "(line 1)" in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_repeat_below_one(scenario_file, tmp_path, capsys):
    for repeat in ("0", "-2"):
        out = tmp_path / f"repeat{repeat}"
        assert main(["run", str(scenario_file), "--out", str(out), "--repeat", repeat]) == 2
        assert f"--repeat must be at least 1, got {repeat}" in capsys.readouterr().err
        assert not out.exists()


def test_wrong_typed_distribution_fields_are_one_error_line(scenario_file, tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    for field, dist in WRONG_TYPED_DISTRIBUTIONS:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, "workload": {**doc["workload"], field: dist}}))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out), "--quiet"]):
            capsys.readouterr()
            assert main(argv) == 2, (argv[0], dist)
            err = capsys.readouterr().err
            assert err.startswith(f"error: workload {field}:") and err.count("\n") == 1, err
            assert not out.exists()


def test_run_rejects_jobs_below_one(scenario_file, tmp_path, capsys):
    for jobs in ("0", "-3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(scenario_file), "--out", str(out), "--repeat", "2", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --jobs must be at least 1, got {jobs}\n", err
        assert not out.exists()


def test_distribution_whose_largest_draw_overflows_is_invalid(scenario_file, tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    path, out = tmp_path / "dist.json", tmp_path / "out"
    cases = [
        ({"kind": "lognormal", "mu": 1000, "sigma": 1}, 1),
        ({"kind": "exponential", "mean_us": 1e308}, 1),
        # just inside the bound: the largest draw is a finite float
        ({"kind": "lognormal", "mu": 701, "sigma": 1}, 0),
        ({"kind": "exponential", "mean_us": 4.8e306}, 0),
    ]
    for think_time, rc in cases:
        path.write_text(json.dumps({**doc, "workload": {**doc["workload"], "think_time": think_time}}))
        assert main(["validate", str(path)]) == rc, think_time
        assert ("overflow a float" in capsys.readouterr().out) == (rc == 1)
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == rc, think_time
        assert out.exists() == (rc == 0)
        shutil.rmtree(out, ignore_errors=True)


# -- the scenario reader meets wrong-typed fields -----------------------------------------

def _preset_doc(name):
    return json.loads((resources.files("quorumsim") / "presets" / f"{name}.json").read_text(encoding="utf-8"))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _one_uniform_docs():
    """preset:one_uniform, and the same scenario with its level block expanded into graphs."""
    doc = _preset_doc("one_uniform")
    return {"level": doc, "graphs": scenario_to_json(dataclasses.replace(scenario_from_json(doc), consistency=None))}


G0 = ("cooperation", "replication_graphs", 0)
WRONG_TYPED_FIELDS = [
    # (base, path, value, start of the error line)
    ("level", ("topology", "edges", 0, "per_byte_us"), "x", "edge 0->1 per_byte_us:"),
    ("level", ("workload", "read_ratio"), "a", "workload read_ratio:"),
    ("level", ("workload", "clients"), 2.5, "workload clients:"),
    ("level", ("workload", "warmup_ops"), "1", "workload warmup_ops:"),
    ("level", ("seed",), "abc", "scenario seed:"),
    ("level", ("topology", "replicas"), 5, "topology replicas:"),
    ("graphs", (*G0, "quorum_thresholds"), {"a": 1}, "graph 0 quorum_thresholds:"),
    ("graphs", (*G0, "quorum_thresholds"), {"0": "1"}, "graph 0 quorum_thresholds:"),
    ("graphs", (*G0, "edges", 0, "class"), {"quorum": "x"}, "graph 0 edge 0->1 class:"),
    ("graphs", (*G0, "weight"), "1", "graph 0 weight:"),
    ("graphs", ("cooperation", "reading_graphs"), 5, "cooperation reading_graphs:"),
    ("level", ("consistency", "placement"), 3, "consistency placement:"),
    ("level", ("consistency", "write_cl"), 1, "consistency write_cl:"),
    ("level", ("meta",), [], "scenario meta:"),
    ("level", ("workload", "overrides"), [{"client_id": "0"}], "workload override client_id:"),
    ("level", ("failures",), [{"replica": 0, "at_us": "1", "kind": "crash_stop"}], "failure at_us:"),
    ("level", ("topology", "edges", 0, "src"), [0], "edge src:"),
    ("level", ("op_timeout_us",), 1.5, "scenario op_timeout_us:"),
    ("level", ("topology", "replicas", 0, "id"), 0.0, "replica id:"),
    ("level", ("topology", "replicas", 0, "datacenter"), 5, "replica 0 datacenter:"),
    ("level", ("workload", "read_request_bytes"), 1.5, "workload read_request_bytes:"),
    ("level", ("failures",), [{"replica": "0", "at_us": 1, "kind": "crash_stop"}], "failure replica:"),
    ("level", ("consistency", "rf"), "3", "consistency rf:"),
    ("level", ("consistency", "coordinator"), "0", "consistency coordinator:"),
    ("graphs", (*G0, "root"), "0", "graph 0 root:"),
]


@pytest.mark.parametrize("base, path, value, where", WRONG_TYPED_FIELDS, ids=[f"{c[3]} {c[2]!r}" for c in WRONG_TYPED_FIELDS])
def test_wrong_typed_field_is_one_error_line(tmp_path, capsys, base, path, value, where):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_replaced(_one_uniform_docs()[base], path, value)))
    out = tmp_path / "out"
    for argv in (["validate", str(scenario)], ["run", str(scenario), "--out", str(out), "--quiet"]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} ") and err.count("\n") == 1, err
        assert not out.exists()


def _leaves(node, path=()):
    """The path of every scalar and every empty list or object in a JSON document."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, key))
    else:
        yield path


SWEEP_VALUES = ("x", 1.5, True, None, [], {})


def _sweep_bases():
    """Every preset, and a random cooperation-graph scenario with failures; a
    few ops each, since the sweep checks how the reader meets each value."""
    bases = {name: _preset_doc(name) for name in list_presets()}
    topo, coop, failures, workload = random_scenario(random.Random("type-sweep"), allow_crash_stop=True, max_total_ops=20)
    sc = Scenario("random", "", topo, coop, workload, tuple(failures), "competing_writes", 5_000_000, 3)
    bases["random_graphs"] = scenario_to_json(sc)
    for doc in bases.values():
        doc["workload"]["ops_per_client"] = 3
    return bases


@pytest.mark.parametrize("base", sorted(_sweep_bases()))
def test_every_leaf_of_any_type_exits_cleanly(tmp_path, capsys, base):
    """Each leaf replaced by each sweep value: validate exits 0, 1 or 2 and
    never raises; exit 2 is one error line, and a document that validates runs."""
    doc = _sweep_bases()[base]
    scenario, out = tmp_path / "swept.json", tmp_path / "out"
    for path in _leaves(doc):
        for value in SWEEP_VALUES:
            scenario.write_text(json.dumps(_replaced(doc, path, value)))
            rc = main(["validate", str(scenario)])
            captured = capsys.readouterr()
            case = (path, value, captured.err)
            if rc == 2:
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, case
            elif rc == 1:  # a level error on stderr, or the violations on stdout
                assert captured.err.count("\n") == 1 or (not captured.err and captured.out), case
            else:
                assert rc == 0 and not captured.err, case
                assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == 0, case
                shutil.rmtree(out)


def test_quorum_check_bad_dc_counts_is_one_line(capsys):
    for entry in ("NY=x", "NY", "NY=3,SF=", "NY=-3", "NY=0", "=3", "NY=1,LA=1", "NY=2,NY=1"):
        assert main(["quorum-check", "--rf", "3", "--write-cl", "ONE", "--read-cl", "ONE", "--dc-counts", entry]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --dc-counts entry") and err.count("\n") == 1, err


def test_quorum_check_verdicts(capsys):
    assert main(["quorum-check", "--rf", "3", "--write-cl", "QUORUM", "--read-cl", "QUORUM"]) == 0
    out = capsys.readouterr().out
    assert "W=2 R=2 RF=3 IMMEDIATE" in out

    assert main(["quorum-check", "--rf", "3", "--write-cl", "ONE", "--read-cl", "ONE"]) == 0
    assert "W=1 R=1 RF=3 EVENTUAL" in capsys.readouterr().out

    assert main(["quorum-check", "--rf", "3", "--write-cl", "ALL", "--read-cl", "ALL"]) == 0
    out = capsys.readouterr().out
    assert "IMMEDIATE" in out and "redundant" in out


def test_quorum_check_domain_errors(capsys):
    assert main(["quorum-check", "--rf", "2", "--write-cl", "THREE", "--read-cl", "ONE"]) == 1
    assert "LEVEL_UNSATISFIABLE" in capsys.readouterr().err
    assert main(["quorum-check", "--rf", "3", "--write-cl", "ANY", "--read-cl", "ONE"]) == 1
    assert "UNSUPPORTED_LEVEL" in capsys.readouterr().err


def test_quorum_check_local_levels(capsys):
    rc = main([
        "quorum-check", "--rf", "6", "--write-cl", "LOCAL_QUORUM", "--read-cl", "LOCAL_QUORUM",
        "--dc-counts", "NY=3,SF=3", "--coordinator-dc", "NY",
    ])
    assert rc == 0
    assert "W=2 R=2 RF=6 EVENTUAL" in capsys.readouterr().out


def test_presets_exist_and_validate(capsys):
    names = list_presets()
    assert {"one_uniform", "one_zipfian", "quorum_uniform", "quorum_zipfian", "all_uniform", "all_zipfian"} <= set(names)
    for name in names:
        assert main(["validate", f"preset:{name}"]) == 0
    capsys.readouterr()
    assert main(["validate", "preset:does_not_exist"]) == 2


# -- run-time limits checked by validate -------------------------------------------------

def test_op_timeout_must_be_positive(tmp_path, capsys):
    path, out = tmp_path / "timeout.json", tmp_path / "out"
    for value in (0, -5):
        path.write_text(json.dumps(_replaced(_preset_doc("one_uniform"), ("op_timeout_us",), value)))
        line = f"OP_TIMEOUT_NOT_POSITIVE: op_timeout_us {value} <= 0\n"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == line
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == line
        assert not out.exists()


def test_edge_delay_must_stay_finite_at_the_largest_payload(tmp_path, capsys):
    # preset:one_uniform writes 256-byte payloads
    doc = _replaced(_preset_doc("one_uniform"), ("workload", "ops_per_client"), 20)
    path, out = tmp_path / "per_byte.json", tmp_path / "out"
    for per_byte, rc in ((1e308, 1), (1e305, 0)):
        path.write_text(json.dumps(_replaced(doc, ("topology", "edges", 0, "per_byte_us"), per_byte)))
        assert main(["validate", str(path)]) == rc, per_byte
        assert ("EDGE_DELAY_OVERFLOWS: edge 0->1" in capsys.readouterr().out) == (rc == 1)
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == rc, per_byte
        assert ("EDGE_DELAY_OVERFLOWS: edge 0->1" in capsys.readouterr().err) == (rc == 1)
        assert out.exists() == (rc == 0)


# -- the --jobs worker processes ----------------------------------------------------------

def test_scenarios_survive_pickling():
    # --jobs above 1 sends the scenario to each worker process
    scenarios = [_load(f"preset:{name}") for name in list_presets()]
    scenarios.append(scenario_from_json(_sweep_bases()["random_graphs"]))
    for sc in scenarios:
        assert pickle.loads(pickle.dumps(sc)) == sc


def test_a_failing_seed_fails_alike_in_a_worker_process(scenario_file, tmp_path, capsys):
    errors = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        blocked = out / "seed_12" / "events.jsonl"
        blocked.mkdir(parents=True)  # seed 12 cannot write its log
        rc = main(["run", str(scenario_file), "--out", str(out), "--repeat", "3", "--jobs", jobs, "--quiet"])
        errors[jobs] = (rc, capsys.readouterr().err.replace(str(out), "OUT"))
        assert not (out / "seed_12").exists()
        assert not (out / "seed_13").exists()  # no seed after the failing one leaves output
        assert (out / "seed_11" / "events.jsonl").is_file()
        assert not (out / "summary.json").exists()
    assert errors["1"] == errors["2"] == (2, "error: [Errno 21] Is a directory: 'OUT/seed_12/events.jsonl'\n"), errors


# -- only a draw loads numpy --------------------------------------------------------------

_SRC = Path(__file__).resolve().parent.parent / "src"
_REPORTS = ("datacentric.json", "ops.csv", "clientcentric.json", "read_verdicts.csv")
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # from here on, any import of numpy raises ImportError
from quorumsim.cli import main
events, out = sys.argv[1:]
assert main(["validate", "preset:one_zipfian"]) == 0
assert main(["quorum-check", "--rf", "3", "--write-cl", "QUORUM", "--read-cl", "ONE"]) == 0
assert main(["analyze", events, "--out", out, "--stages", "2,3", "--quiet"]) == 0
"""


def _python(*args):
    path = [str(_SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = _python("-c", "import sys, quorumsim.cli; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_validate_quorum_check_and_analyze_run_without_numpy(tmp_path):
    ran = tmp_path / "run"
    assert main(["run", "preset:one_zipfian", "--out", str(ran), "--quiet"]) == 0
    analyzed = tmp_path / "analyzed"
    proc = _python("-c", _WITHOUT_NUMPY, str(ran / "events.jsonl"), str(analyzed))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["OK", "W=2 R=1 RF=3 EVENTUAL"]
    for name in _REPORTS:
        assert (analyzed / name).read_bytes() == (ran / name).read_bytes(), name
