"""Byte-identity of the stage-3 outputs against recorded digests.

``stage3_golden.json`` holds the sha256 of ``clientcentric.json`` and
``read_verdicts.csv`` for every bundled preset, and for a multi-master
variant of ``one_zipfian``, under every strategy, at reduced ops and a fixed
seed. The presets read from their write coordinator and see few violations;
the multi-master variant makes every detector fire. The digests were
recorded before the stage-3 scans were rewritten to run in one linear pass;
any change to them is a change of the analysis output. To re-record after a
deliberate output change:

    PYTHONPATH=src python tests/test_stage3_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from quorumsim import (
    ONE,
    STRATEGIES,
    CooperationGraph,
    CooperationModel,
    build_clientcentric_report,
    build_cooperation_model,
    clientcentric_outputs,
    logio,
    read_verdicts,
    run_simulation,
    scenario_to_json,
)
from quorumsim.cli import _load, list_presets, main

GOLDEN = Path(__file__).with_name("stage3_golden.json")
GOLDEN_OPS_PER_CLIENT = 150
GOLDEN_SEED = 7
STAGE3_FILES = ("clientcentric.json", "read_verdicts.csv")
MULTI_MASTER = "multi_master"
CASES = [(name, s) for name in [*list_presets(), MULTI_MASTER] for s in STRATEGIES]


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
    sc = _load(f"preset:{'one_zipfian' if name == MULTI_MASTER else name}")
    sc = dataclasses.replace(
        sc,
        strategy=strategy,
        workload=dataclasses.replace(sc.workload, ops_per_client=GOLDEN_OPS_PER_CLIENT),
        seed=GOLDEN_SEED,
    )
    if name == MULTI_MASTER:
        sc = dataclasses.replace(sc, name=MULTI_MASTER, coop=_multi_master(sc.topology), consistency=None)
    return sc


def _simulate(sc):
    return run_simulation(sc.topology, sc.coop, list(sc.failures), sc.workload, sc.strategy, GOLDEN_SEED, sc.op_timeout_us)


def _write_stage3(log, strategy, out: Path) -> None:
    """What a caller of the two public stage-3 functions writes."""
    logio.write_json_report(build_clientcentric_report(log, strategy), out / "clientcentric.json")
    logio.write_read_verdicts(read_verdicts(log, strategy), out / "read_verdicts.csv")


def _digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in STAGE3_FILES}


def record() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, strategy in CASES:
            _write_stage3(_simulate(_scenario(name, strategy)), strategy, Path(tmp))
            digests[f"{name}/{strategy}"] = _digests(Path(tmp))
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
    assert _digests(tmp_path) == golden[f"{name}/{strategy}"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_call_equals_the_two_public_calls(strategy):
    log = _simulate(_scenario(MULTI_MASTER, strategy))
    report, verdicts = clientcentric_outputs(log, strategy)
    assert report == build_clientcentric_report(log, strategy)
    assert verdicts == read_verdicts(log, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cli_run_and_analyze_write_what_the_two_public_calls_write(tmp_path, strategy):
    sc = _scenario(MULTI_MASTER, strategy)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(sc)), encoding="utf-8")
    run_out, analyze_out, lib_out = tmp_path / "run", tmp_path / "analyze", tmp_path / "lib"
    assert main(["run", str(path), "--out", str(run_out), "--quiet"]) == 0
    assert main(["analyze", str(run_out / "events.jsonl"), "--out", str(analyze_out), "--stages", "3", "--quiet"]) == 0
    lib_out.mkdir()
    _write_stage3(_simulate(sc), strategy, lib_out)
    for name in STAGE3_FILES:
        expected = (lib_out / name).read_bytes()
        assert (run_out / name).read_bytes() == expected, name
        assert (analyze_out / name).read_bytes() == expected, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
