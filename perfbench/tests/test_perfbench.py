"""Tests of the benchmark's own code.

  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import REPORTS, differing, digest_tree, not_reproduced_by_analyze  # noqa: E402
from child import Budget  # noqa: E402
from run import Session  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, build_scenario, scenario_bytes  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in WORKLOADS:
        assert scenario_bytes(name, 7) == scenario_bytes(name, 7)
        assert scenario_bytes(name, 7) != scenario_bytes(name, 8)


def test_generated_scenarios_validate():
    from quorumsim import scenario_from_json, validate_scenario

    for name in WORKLOADS:
        for scale in (1.0, 0.5):
            sc = scenario_from_json(build_scenario(name, 3, scale))
            assert validate_scenario(sc.topology, sc.coop, list(sc.failures), sc.workload).ok


def test_multi_master_routes_reads_through_every_replica():
    doc = build_scenario("lww_uniform", 1)
    roots = sorted(g["root"] for g in doc["cooperation"]["reading_graphs"])
    assert roots == [0, 1, 2]


def _write_outputs(root: Path) -> None:
    for sub in ("run", "analyze"):
        (root / sub).mkdir(parents=True)
        for name in REPORTS:
            (root / sub / name).write_bytes(f"{name} contents\n".encode())


def test_checker_flags_a_one_byte_change_in_a_report(tmp_path):
    _write_outputs(tmp_path)
    digests = digest_tree(tmp_path / "run", "run/") | digest_tree(tmp_path / "analyze", "analyze/")
    assert not_reproduced_by_analyze(digests, "run/") == []
    before = dict(digests)

    target = tmp_path / "analyze" / "clientcentric.json"
    data = bytearray(target.read_bytes())
    data[3] ^= 0x01
    target.write_bytes(bytes(data))
    digests = digest_tree(tmp_path / "run", "run/") | digest_tree(tmp_path / "analyze", "analyze/")
    assert not_reproduced_by_analyze(digests, "run/") == ["clientcentric.json"]
    assert differing(before, digests) == ["analyze/clientcentric.json"]


def test_tiny_memory_budget_is_recorded_as_oom(tmp_path):
    session = Session(tmp_path, Budget(wall_s=60.0, cpu_s=60, mem_mb=32))
    inv, res = session.quorumsim("validate", "preset:one_uniform", tag="tiny")
    assert res.status == "oom"
    assert session.attempted == 1
    assert list(session.failed) == [inv]
    assert "oom" in session.failed[inv][0]


def test_wall_clock_budget_is_recorded_as_timeout(tmp_path):
    session = Session(tmp_path, Budget(wall_s=0.5, cpu_s=60, mem_mb=2048))
    inv, res = session.invoke([sys.executable, "-c", "import time; time.sleep(30)"], "sleep")
    assert res.status == "timeout"
    assert res.wall_s < 10
    assert list(session.failed) == [inv]


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "run", "parent": None, "run_id": "r", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "engine.simulate", "parent": 0, "run_id": "r", "start": 1.0, "end": 4.0},
        {"id": 2, "name": "logio.write_reports", "parent": 0, "run_id": "r", "start": 5.0, "end": 6.0},
        {"id": 3, "name": "logio.write_reports", "parent": 0, "run_id": "r", "start": 7.0, "end": 9.5},
    ]
    assert self_times(spans) == {"run": 3.5, "engine.simulate": 3.0, "logio.write_reports": 3.5}


def test_tracer_nests_spans():
    tracer = Tracer("t")
    with tracer.span("run"):
        with tracer.span("engine.simulate"):
            pass
    with tracer.span("analyze"):
        pass
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [("run", None), ("engine.simulate", 0), ("analyze", None)]
    assert all(s["end"] >= s["start"] for s in tracer.spans)
