"""Byte-identity of the stage-2 and stage-3 outputs against recorded digests.

``stage3_golden.json`` holds the sha256 of ``clientcentric.json`` and
``read_verdicts.csv`` (stage 3), of ``datacentric.json`` and ``ops.csv``
(stage 2) and of the ``events.jsonl`` log itself for every bundled preset,
for a multi-master variant of ``one_zipfian``, and for that variant under a
crash-stop and a crash-recovery failure, under every strategy, at reduced
ops and a fixed seed. The presets read from their write coordinator and see
few violations; the multi-master variant makes every detector fire, and its
crash variant adds non-converged writes and ``COORDINATOR_DOWN`` and
``TIMEOUT`` failures.
The stage-3 digests were recorded before the stage-3 scans were rewritten to
run in one linear pass, the stage-2 digests and the crash cases before both
stages were moved onto one op table, the log digests before the events writer
moved from ``json.dumps`` to per-kind line templates; any change to them is a
change of the output. ``analyze`` under Python 3.10, 3.12 and 3.13 must
reproduce the stage-2 and stage-3 digests from logs written by the running
interpreter, and simulating each case there with numpy blocked must
reproduce its log digest; a version not installed is skipped. To re-record
after a deliberate output change:

    PYTHONPATH=src python tests/test_stage3_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from quorumsim import (
    CRASH_RECOVERY,
    CRASH_STOP,
    ONE,
    STRATEGIES,
    CooperationGraph,
    CooperationModel,
    FailureEvent,
    build_clientcentric_report,
    build_cooperation_model,
    build_datacentric_report,
    clientcentric_outputs,
    logio,
    op_records,
    read_verdicts,
    run_simulation,
    scenario_to_json,
)
from quorumsim import cli, engine
from quorumsim.cli import _load, list_presets, main

GOLDEN = Path(__file__).with_name("stage3_golden.json")
GOLDEN_OPS_PER_CLIENT = 150
GOLDEN_SEED = 7
STAGE2_FILES = ("datacentric.json", "ops.csv")
STAGE3_FILES = ("clientcentric.json", "read_verdicts.csv")
EVENTS_FILE = "events.jsonl"
MULTI_MASTER = "multi_master"
MULTI_MASTER_CRASH = "multi_master_crash"
# Replica 1 is down for 70 ms, longer than the op timeout, so ops it
# coordinates or waits on time out; replica 2 stops halfway through the run.
CRASH_FAILURES = (FailureEvent(1, 140_000, CRASH_RECOVERY, 70_000), FailureEvent(2, 360_000, CRASH_STOP))
CRASH_OP_TIMEOUT_US = 50_000
CASES = [(name, s) for name in [*list_presets(), MULTI_MASTER, MULTI_MASTER_CRASH] for s in STRATEGIES]


def _multi_master(topo) -> CooperationModel:
    """One ONE/ONE replication and reading star per coordinator, weight 1/n
    each, so reads reach replicas that have not applied the newest write."""
    n = len(topo.replicas)
    replication, reading = [], []
    for root in range(n):
        model = build_cooperation_model(topo, list(range(n)), root, ONE, ONE)
        rep, read = model.replication_graphs[0], model.reading_graphs[0]
        replication.append(CooperationGraph(root, rep.kind, rep.root, rep.edges, rep.quorum_thresholds, 1.0 / n))
        reading.append(CooperationGraph(100 + root, read.kind, read.root, read.edges, read.quorum_thresholds, 1.0 / n))
    return CooperationModel(replication, reading)


def _scenario(name: str, strategy: str):
    multi_master = name in (MULTI_MASTER, MULTI_MASTER_CRASH)
    sc = _load(f"preset:{'one_zipfian' if multi_master else name}")
    sc = dataclasses.replace(
        sc,
        strategy=strategy,
        workload=dataclasses.replace(sc.workload, ops_per_client=GOLDEN_OPS_PER_CLIENT),
        seed=GOLDEN_SEED,
    )
    if multi_master:
        sc = dataclasses.replace(sc, name=name, coop=_multi_master(sc.topology), consistency=None)
    if name == MULTI_MASTER_CRASH:
        sc = dataclasses.replace(sc, failures=CRASH_FAILURES, op_timeout_us=CRASH_OP_TIMEOUT_US)
    return sc


def _simulate(sc):
    return run_simulation(sc.topology, sc.coop, list(sc.failures), sc.workload, sc.strategy, GOLDEN_SEED, sc.op_timeout_us)


def _write_stage2(log, out: Path) -> None:
    """What a caller of the two public stage-2 functions writes."""
    logio.write_json_report(build_datacentric_report(log), out / "datacentric.json")
    logio.write_op_table(op_records(log), out / "ops.csv")


def _write_stage3(log, strategy, out: Path) -> None:
    """What a caller of the two public stage-3 functions writes."""
    logio.write_json_report(build_clientcentric_report(log, strategy), out / "clientcentric.json")
    logio.write_read_verdicts(read_verdicts(log, strategy), out / "read_verdicts.csv")


def _digests(out: Path, files) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}


def record() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, strategy in CASES:
            log = _simulate(_scenario(name, strategy))
            logio.write_events(log, Path(tmp) / EVENTS_FILE)
            _write_stage2(log, Path(tmp))
            _write_stage3(log, strategy, Path(tmp))
            digests[f"{name}/{strategy}"] = _digests(Path(tmp), STAGE2_FILES + STAGE3_FILES + (EVENTS_FILE,))
    return {"ops_per_client": GOLDEN_OPS_PER_CLIENT, "seed": GOLDEN_SEED, "digests": digests}


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert doc["ops_per_client"] == GOLDEN_OPS_PER_CLIENT and doc["seed"] == GOLDEN_SEED
    return doc["digests"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{name}/{s}" for name, s in CASES)


@pytest.mark.parametrize("name,strategy", CASES)
def test_stage3_outputs_match_recorded_digests(golden, tmp_path, name, strategy):
    _write_stage3(_simulate(_scenario(name, strategy)), strategy, tmp_path)
    expected = golden[f"{name}/{strategy}"]
    assert _digests(tmp_path, STAGE3_FILES) == {f: expected[f] for f in STAGE3_FILES}


@pytest.mark.parametrize("name,strategy", CASES)
def test_stage2_outputs_match_recorded_digests(golden, tmp_path, name, strategy):
    _write_stage2(_simulate(_scenario(name, strategy)), tmp_path)
    expected = golden[f"{name}/{strategy}"]
    assert _digests(tmp_path, STAGE2_FILES) == {f: expected[f] for f in STAGE2_FILES}


@pytest.mark.parametrize("name,strategy", CASES)
def test_events_file_matches_recorded_digest(golden, tmp_path, name, strategy):
    logio.write_events(_simulate(_scenario(name, strategy)), tmp_path / EVENTS_FILE)
    assert _digests(tmp_path, (EVENTS_FILE,)) == {EVENTS_FILE: golden[f"{name}/{strategy}"][EVENTS_FILE]}


def test_crash_case_fails_ops_and_leaves_writes_unconverged():
    records = op_records(_simulate(_scenario(MULTI_MASTER_CRASH, STRATEGIES[0])))
    statuses = {r.status for r in records}
    assert {"failed:COORDINATOR_DOWN", "failed:TIMEOUT"} <= statuses
    assert any(r.kind == "write" and r.status == "committed" and r.window_us is None for r in records)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_call_equals_the_two_public_calls(strategy):
    log = _simulate(_scenario(MULTI_MASTER, strategy))
    report, verdicts = clientcentric_outputs(log, strategy)
    assert report == build_clientcentric_report(log, strategy)
    assert verdicts == read_verdicts(log, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cli_run_and_analyze_write_what_the_two_public_calls_write(tmp_path, strategy):
    sc = _scenario(MULTI_MASTER_CRASH, strategy)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(sc)), encoding="utf-8")
    run_out, analyze_out, lib_out = tmp_path / "run", tmp_path / "analyze", tmp_path / "lib"
    assert main(["run", str(path), "--out", str(run_out), "--quiet"]) == 0
    assert main(["analyze", str(run_out / "events.jsonl"), "--out", str(analyze_out), "--quiet"]) == 0
    lib_out.mkdir()
    log = _simulate(sc)
    _write_stage2(log, lib_out)
    _write_stage3(log, strategy, lib_out)
    for name in STAGE2_FILES + STAGE3_FILES:
        expected = (lib_out / name).read_bytes()
        assert (run_out / name).read_bytes() == expected, name
        assert (analyze_out / name).read_bytes() == expected, name


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cli_run_streams_the_events_file_write_events_writes(tmp_path, monkeypatch, strategy):
    """Every way ``run`` writes a log, a worker process's too, gives the bytes
    of ``write_events`` over ``run_simulation``, without that held-list path."""
    sc = _scenario(MULTI_MASTER_CRASH, strategy)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(sc)), encoding="utf-8")
    log = _simulate(sc)
    log.meta["scenario"] = sc.name
    logio.write_events(log, tmp_path / EVENTS_FILE)
    expected = (tmp_path / EVENTS_FILE).read_bytes()

    def held_list(*args, **kwargs):
        raise AssertionError("run built the event list")

    monkeypatch.setattr(engine, "run_simulation", held_list)
    assert not hasattr(cli, "run_simulation")
    for name, extra in (("stage1", ["--stages", "1"]), ("all", ["--stages", "1,2,3"]), ("batch", ["--repeat", "3", "--jobs", "2"])):
        out = tmp_path / name
        assert main(["run", str(path), "--out", str(out), "--quiet", *extra]) == 0
        got = out / f"seed_{GOLDEN_SEED}" / EVENTS_FILE if name == "batch" else out / EVENTS_FILE
        assert got.read_bytes() == expected, name


# -- analyze under other Python versions --------------------------------------------

OTHER_PYTHONS = ("3.10", "3.12", "3.13")
_SRC = Path(__file__).resolve().parent.parent / "src"
_ANALYZE_EVERY_CASE = """
import hashlib, json, sys
from pathlib import Path
from quorumsim.cli import main
root, cases = Path(sys.argv[1]), sys.argv[2:]
digests = {}
for case in cases:
    out = root / case / ("python" + sys.version.split()[0])
    assert main(["analyze", str(root / case / "events.jsonl"), "--out", str(out), "--quiet"]) == 0, case
    digests[case] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
print(json.dumps(digests))
"""


def _interpreter(version: str) -> str | None:
    """A working python of version (X.Y), from pyenv's versions or PATH, or None."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    for exe in [*sorted(root.glob(f"{version}.*/bin/python{version}")), shutil.which(f"python{version}")]:
        if exe is None:
            continue
        probe = [str(exe), "-c", "import sys; print('%d.%d' % sys.version_info[:2])"]
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return str(exe)
    return None


@pytest.fixture(scope="module")
def case_logs(tmp_path_factory):
    """root/<name>/<strategy>/events.jsonl for every case, written by this interpreter."""
    root = tmp_path_factory.mktemp("logs")
    for name, strategy in CASES:
        (root / name / strategy).mkdir(parents=True)
        logio.write_events(_simulate(_scenario(name, strategy)), root / name / strategy / EVENTS_FILE)
    return root


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_analyze_under_other_pythons_matches_recorded_digests(golden, case_logs, version):
    """``analyze`` loads no numpy, so another interpreter with only the
    sources reproduces every stage-2 and stage-3 digest from these logs."""
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no working Python {version} interpreter found")
    cases = [f"{name}/{s}" for name, s in CASES]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run(
        [python, "-c", _ANALYZE_EVERY_CASE, str(case_logs), *cases], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    expected = {case: {f: golden[case][f] for f in STAGE2_FILES + STAGE3_FILES} for case in cases}
    assert json.loads(proc.stdout) == expected


_SIMULATE_EVERY_CASE = """
import hashlib, json, sys
sys.modules["numpy"] = None  # from here on, any import of numpy raises ImportError
from pathlib import Path
from quorumsim import logio, run_simulation, scenario_from_json
root, seed, cases = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
digests = {}
for case in cases:
    sc = scenario_from_json(json.loads((root / case / "scenario.json").read_text(encoding="utf-8")))
    log = run_simulation(sc.topology, sc.coop, list(sc.failures), sc.workload, sc.strategy, seed, sc.op_timeout_us)
    path = root / case / ("python" + sys.version.split()[0] + ".jsonl")
    logio.write_events(log, path)
    digests[case] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def case_scenarios(tmp_path_factory):
    """root/<name>/<strategy>/scenario.json for every case."""
    root = tmp_path_factory.mktemp("scenarios")
    for name, strategy in CASES:
        (root / name / strategy).mkdir(parents=True)
        doc = scenario_to_json(_scenario(name, strategy))
        (root / name / strategy / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_simulate_under_other_pythons_matches_recorded_digests(golden, case_scenarios, version):
    """The seeded draws are pure Python, so another interpreter with only the
    sources, numpy blocked, writes every case's recorded ``events.jsonl``."""
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no working Python {version} interpreter found")
    cases = [f"{name}/{s}" for name, s in CASES]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    argv = [python, "-c", _SIMULATE_EVERY_CASE, str(case_scenarios), str(GOLDEN_SEED), *cases]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {case: golden[case][EVENTS_FILE] for case in cases}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
