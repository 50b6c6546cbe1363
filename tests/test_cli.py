import json
import multiprocessing
import os
import pickle
import random
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from _bad_inputs import BASE_SCENARIO, RULES, Runner, in_process, preset_doc, replaced
from _randgen import random_scenario
from quorumsim import Scenario, clientcentric, datacentric, optable, scenario_from_json, scenario_to_json
from quorumsim.cli import _load, list_presets, main
from quorumsim.events import READ, WRITE


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE_SCENARIO))
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
    # the reader hands on the shared op-kind constants, as the engine does
    for table in checked:
        assert all(op.kind is READ or op.kind is WRITE for op in table.ops)
    assert main(["analyze", events, "--out", str(tmp_path / "stage2"), "--stages", "2", "--quiet"]) == 0
    assert len(checked) == 2


class _Verdicts(list):
    """A verdict list that a weakref can name."""


def test_stage_3_verdicts_are_released_before_stage_2_runs(scenario_file, tmp_path, monkeypatch):
    plain = tmp_path / "plain"
    assert main(["run", str(scenario_file), "--out", str(plain), "--quiet"]) == 0
    stage3, stage2 = clientcentric.clientcentric_outputs, datacentric.datacentric_outputs
    verdicts = []  # a weakref to the verdict list of each stage-3 call
    alive = []  # whether that list was still alive when stage 2 started

    def clientcentric_outputs(table, strategy):
        report, listed = stage3(table, strategy)
        listed = _Verdicts(listed)
        verdicts.append(weakref.ref(listed))
        return report, listed

    def datacentric_outputs(table):
        alive.append(verdicts[-1]() is not None)
        return stage2(table)

    monkeypatch.setattr(clientcentric, "clientcentric_outputs", clientcentric_outputs)
    monkeypatch.setattr(datacentric, "datacentric_outputs", datacentric_outputs)
    ran, analyzed = tmp_path / "run", tmp_path / "analyzed"
    assert main(["run", str(scenario_file), "--out", str(ran), "--quiet"]) == 0
    assert main(["analyze", str(ran / "events.jsonl"), "--out", str(analyzed), "--quiet"]) == 0
    assert (len(verdicts), alive) == (2, [False, False])
    for out in (ran, analyzed):
        for name in _REPORTS:
            assert (out / name).read_bytes() == (plain / name).read_bytes(), (out.name, name)


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


# -- the bad-input corpus: each input rule is the test named after it -------------------

@pytest.fixture(scope="module")
def bad_input(tmp_path_factory):
    return Runner(tmp_path_factory.mktemp("bad_inputs"), in_process).check


def _rule_test(cases, one_test_per_case):
    if one_test_per_case:
        @pytest.mark.parametrize("case", cases, ids=[case.name for case in cases])
        def test(bad_input, case):
            bad_input(case)
    else:
        def test(bad_input):
            for case in cases:
                bad_input(case)
    return test


# the rules whose cases were tables keep one test per case
_ONE_TEST_PER_CASE = {"wrong_typed_field_is_one_error_line", "an_unreadable_scenario_file_is_one_error_line", "an_unreadable_log_line_is_malformed_log_naming_it"}
for _rule, _cases in RULES.items():
    globals()[f"test_{_rule}"] = _rule_test(_cases, _rule in _ONE_TEST_PER_CASE)


# -- the scenario reader meets a value of every type in every leaf ----------------------

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
    bases = {name: preset_doc(name) for name in list_presets()}
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
            scenario.write_text(json.dumps(replaced(doc, path, value)))
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


def test_quorum_check_verdicts(capsys):
    assert main(["quorum-check", "--rf", "3", "--write-cl", "QUORUM", "--read-cl", "QUORUM"]) == 0
    out = capsys.readouterr().out
    assert "W=2 R=2 RF=3 IMMEDIATE" in out

    assert main(["quorum-check", "--rf", "3", "--write-cl", "ONE", "--read-cl", "ONE"]) == 0
    assert "W=1 R=1 RF=3 EVENTUAL" in capsys.readouterr().out

    assert main(["quorum-check", "--rf", "3", "--write-cl", "ALL", "--read-cl", "ALL"]) == 0
    out = capsys.readouterr().out
    assert "IMMEDIATE" in out and "redundant" in out


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

def test_edge_delay_must_stay_finite_at_the_largest_payload(tmp_path, capsys):
    # preset:one_uniform writes 256-byte payloads
    doc = replaced(preset_doc("one_uniform"), ("workload", "ops_per_client"), 20)
    path, out = tmp_path / "per_byte.json", tmp_path / "out"
    for per_byte, rc in ((1e308, 1), (1e305, 0)):
        path.write_text(json.dumps(replaced(doc, ("topology", "edges", 0, "per_byte_us"), per_byte)))
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


# -- no command loads numpy ---------------------------------------------------------------

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


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("preset", ["preset:one_zipfian", "preset:one_uniform"])
def test_run_without_numpy_writes_the_same_files(tmp_path, preset):
    # the seeded draws are pure Python: blocking numpy changes no byte, in
    # one run or in a batch whose seeds run in worker processes
    for name, extra in (("one", []), ("batch", ["--repeat", "2", "--jobs", "2"])):
        ran, blocked = tmp_path / f"{name}_ran", tmp_path / f"{name}_blocked"
        assert main(["run", preset, "--out", str(ran), "--quiet", *extra]) == 0
        proc = _python("-c", _WITH_BLOCKED, "numpy", "run", preset, "--out", str(blocked), "--quiet", *extra)
        assert proc.returncode == 0, (name, proc.stderr)
        expected = _tree(ran)
        assert len(expected) == (5 if name == "one" else 11), name  # events.jsonl and four reports per seed
        assert _tree(blocked) == expected, name


# -- each command loads only its own layers -----------------------------------------------

_SIMULATOR = tuple(f"quorumsim.{m}" for m in ("engine", "distributions", "scenario", "model", "levels", "workload"))
_ANALYSIS = tuple(f"quorumsim.{m}" for m in ("engine", "logio", "optable", "clientcentric", "datacentric"))
_WITH_BLOCKED = """
import sys
blocked, argv = sys.argv[1].split(","), sys.argv[2:]
for name in blocked:
    sys.modules[name] = None  # from here on, any import of name raises ImportError
from quorumsim.cli import main
sys.exit(main(argv))
"""


def test_analyze_loads_no_simulator_module(scenario_file, tmp_path):
    competing = tmp_path / "competing.json"
    competing.write_text(json.dumps({**json.loads(scenario_file.read_text()), "strategy": "competing_writes"}))
    blocked = (*_SIMULATOR, "numpy", "hashlib")
    # each stage loads only its own analysis module
    for source in ("preset:one_zipfian", str(competing)):
        ran = tmp_path / "run"
        assert main(["run", source, "--out", str(ran), "--quiet"]) == 0
        for stages, reports, unused in (
            ("2,3", _REPORTS, ()),
            ("2", _REPORTS[:2], ("quorumsim.clientcentric",)),
            ("3", _REPORTS[2:], ("quorumsim.datacentric",)),
        ):
            out = tmp_path / "analyzed"
            events = str(ran / "events.jsonl")
            proc = _python("-c", _WITH_BLOCKED, ",".join((*blocked, *unused)), "analyze", events, "--out", str(out), "--stages", stages)
            assert proc.returncode == 0, (source, stages, proc.stderr)
            assert sorted(p.name for p in out.iterdir()) == sorted(reports)
            for name in reports:
                assert (out / name).read_bytes() == (ran / name).read_bytes(), (source, stages, name)
            shutil.rmtree(out)
        # run --stages 1 loads no analysis module, and writes the same log
        out = tmp_path / "stage1"
        unused = ",".join(f"quorumsim.{m}" for m in ("optable", "datacentric", "clientcentric"))
        proc = _python("-c", _WITH_BLOCKED, unused, "run", source, "--out", str(out), "--stages", "1", "--quiet")
        assert proc.returncode == 0, (source, proc.stderr)
        assert [p.name for p in out.iterdir()] == ["events.jsonl"]
        assert (out / "events.jsonl").read_bytes() == (ran / "events.jsonl").read_bytes(), source
        shutil.rmtree(out)
        shutil.rmtree(ran)
    # a bad --stages is still an argument error, whatever the modules
    for argv in (["analyze", "no_such.jsonl", "--stages", "1"], ["run", "preset:one_zipfian", "--stages", "4,x"]):
        proc = _python("-c", _WITH_BLOCKED, ",".join(blocked), *argv, "--out", str(tmp_path / "bad"))
        assert (proc.returncode, proc.stderr.startswith("error: ")) == (2, True), (argv, proc.stderr)
        assert not (tmp_path / "bad").exists()


def test_validate_and_quorum_check_load_no_analysis_module(scenario_file):
    for argv, said in (
        (["validate", "preset:quorum_zipfian"], "OK"),
        (["validate", str(scenario_file)], "OK"),
        (["quorum-check", "--rf", "3", "--write-cl", "QUORUM", "--read-cl", "ONE"], "W=2 R=1 RF=3 EVENTUAL"),
    ):
        proc = _python("-c", _WITH_BLOCKED, ",".join(_ANALYSIS), *argv)
        assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, [said]), (argv, proc.stderr)


def test_importing_the_package_loads_no_submodule():
    proc = _python("-c", "import sys, quorumsim; print(sorted(m for m in sys.modules if m.startswith('quorumsim.')))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_package_exports_resolve_to_their_defining_modules():
    import quorumsim

    listed = dir(quorumsim)
    for name in quorumsim.__all__:
        value = getattr(quorumsim, name)
        module = sys.modules[getattr(value, "__module__", None) or f"quorumsim.{quorumsim._MODULE_OF[name]}"]
        assert module.__name__ == f"quorumsim.{quorumsim._MODULE_OF[name]}", name
        assert getattr(module, name) is value, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quorumsim.no_such_name


_AFTER_THE_FORK = """
import os, sys
from quorumsim import cli

def package_modules():
    return {m for m in sys.modules if m.split(".")[0] == "quorumsim"}

at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(package_modules()))
parent, run_one = os.getpid(), cli._run_one

def probed_run_one(*args):
    row = run_one(*args)
    assert os.getpid() != parent, "a seed ran in the parent process"
    new = package_modules() - at_fork
    assert not new, f"a worker imported {sorted(new)} after the fork"
    return row

cli._run_one = probed_run_one  # workers find it in the forked __main__
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork", reason="workers are not forked here")
def test_jobs_workers_import_no_package_module_after_the_fork(scenario_file, tmp_path):
    out = tmp_path / "jobs2"
    proc = _python("-c", _AFTER_THE_FORK, "run", str(scenario_file), "--out", str(out), "--repeat", "4", "--jobs", "2", "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["seed_11", "seed_12", "seed_13", "seed_14", "summary.json"]


# -- a run out of memory ------------------------------------------------------------------

_UNDER_A_MEMORY_LIMIT = """
import resource, sys
from quorumsim.cli import main
limit, argv = int(sys.argv[1]), sys.argv[2:]
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))  # this child only
sys.exit(main(argv))
"""


def test_a_run_out_of_memory_is_one_error_line(tmp_path):
    # validation does not bound a run's size, so this client count validates
    doc = scenario_to_json(_load("preset:quorum_zipfian"))
    doc["workload"]["clients"] = 10**30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "out"
    proc = _python("-c", _UNDER_A_MEMORY_LIMIT, str(384 * 2**20), "run", str(path), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (1, "error: out of memory\n")
    assert not out.exists()
