"""Spans around the library calls of one pipeline, and the two child modes.

``trace`` calls the public library functions in the order ``cmd_run`` and
then ``cmd_analyze`` make them, with one span around each call. Spans (name,
start, end, parent span, run id) are kept in memory and written to
``spans.jsonl`` when the child ends; the parent derives each layer's self
time from them with :func:`self_times`.

``plain`` makes the same ``run`` and ``analyze`` calls through
``quorumsim.cli.main`` in process, untraced: every seed of the workload one
after another, then the workload's own ``run`` invocation (``--repeat``
included) once more. The difference between the two modes' totals is the
tracing overhead.

Child usage (from the repository root):
  PYTHONPATH=src python3 perfbench/tracing.py trace SCENARIO OUT_DIR SEED RUN_ID
  PYTHONPATH=src python3 perfbench/tracing.py plain SCENARIO OUT_DIR SEED REPEAT JOBS
Each writes ``result.json`` into OUT_DIR.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from quorumsim import (
    build_clientcentric_report,
    build_datacentric_report,
    cli,
    load_scenario,
    logio,
    op_records,
    read_verdicts,
    run_simulation,
    validate_scenario,
)
from quorumsim.engine import APPLY_END, OP_FAIL, OP_START
from quorumsim.workload import WRITE

# The spans around library calls, one per layer call site.
LAYER_SPANS = (
    "scenario.load",
    "scenario.validate",
    "engine.simulate",
    "logio.write_events",
    "logio.read_events",
    "logio.write_reports",
    "datacentric.report",
    "datacentric.op_records",
    "clientcentric.report",
    "clientcentric.read_verdicts",
)


class Tracer:
    """Records nested spans of one run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run_id"], s["parent"])].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[(s["run_id"], s["id"])]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts(log) -> dict[str, int]:
    """Exact work counts of one simulated log."""
    kinds = Counter(ev[3] for ev in log.events)
    read_value_ids = sum(len(ev[4][1]) for ev in log.events if ev[3] == APPLY_END and isinstance(ev[4][1], tuple))
    session_writes = Counter((ev[4][0], ev[4][2]) for ev in log.events if ev[3] == OP_START and ev[4][1] == WRITE)
    return {
        "engine.events": len(log.events),
        "engine.op_fails": kinds[OP_FAIL],
        "engine.read_value_ids": read_value_ids,
        "clientcentric.max_session_writes": max(session_writes.values(), default=0),
    }


def trace(scenario_path: str, out: Path, seed: int, run_id: str) -> None:
    tracer = Tracer(run_id)
    run_dir, analyze_dir = out / "run", out / "analyze"
    events_path = run_dir / "events.jsonl"
    marks = {}
    with tracer.span("run"):
        with tracer.span("scenario.load"):
            sc = load_scenario(scenario_path)
        with tracer.span("scenario.validate"):
            report = validate_scenario(sc.topology, sc.coop, list(sc.failures), sc.workload)
        if not report.ok:
            raise SystemExit(f"scenario invalid: {[v.code for v in report.violations]}")
        run_dir.mkdir(parents=True, exist_ok=True)
        with tracer.span("engine.simulate"):
            log = run_simulation(sc.topology, sc.coop, list(sc.failures), sc.workload, sc.strategy, seed, sc.op_timeout_us)
            log.meta["scenario"] = sc.name
        marks["engine.rss_high_mb"] = _rss_mb()
        with tracer.span("logio.write_events"):
            logio.write_events(log, events_path)
        _stages_2_3(tracer, log, sc.strategy, run_dir)
        marks["clientcentric.rss_high_mb"] = _rss_mb()
    counts = _counts(log)
    del log
    with tracer.span("analyze"):
        with tracer.span("logio.read_events"):
            log = logio.read_events(events_path)
        analyze_dir.mkdir(parents=True, exist_ok=True)
        _stages_2_3(tracer, log, log.meta["strategy"], analyze_dir)
    tracer.write(out / "spans.jsonl")
    roots = [s for s in tracer.spans if s["parent"] is None]
    counts["logio.events_bytes"] = events_path.stat().st_size
    result = {
        "counts": counts,
        "marks": marks,
        "ops": sc.workload.n_clients * sc.workload.ops_per_client,
        "total_s": sum(s["end"] - s["start"] for s in roots),
    }
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def _stages_2_3(tracer: Tracer, log, strategy: str, out: Path) -> None:
    """Stages 2 and 3 exactly as cmd_run and cmd_analyze make them, one span per call."""
    with tracer.span("datacentric.report"):
        report2 = build_datacentric_report(log)
    with tracer.span("logio.write_reports"):
        logio.write_json_report(report2, out / "datacentric.json")
    with tracer.span("datacentric.op_records"):
        records = op_records(log)
    with tracer.span("logio.write_reports"):
        logio.write_op_table(records, out / "ops.csv")
    with tracer.span("clientcentric.report"):
        report3 = build_clientcentric_report(log, strategy)
    with tracer.span("logio.write_reports"):
        logio.write_json_report(report3, out / "clientcentric.json")
    with tracer.span("clientcentric.read_verdicts"):
        verdicts = read_verdicts(log, strategy)
    with tracer.span("logio.write_reports"):
        logio.write_read_verdicts(verdicts, out / "read_verdicts.csv")


def plain(scenario_path: str, out: Path, seed: int, repeat: int, jobs: int) -> None:
    def timed(argv) -> float:
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"quorumsim {' '.join(argv)} exited {code}")
        return dt

    run_s = [
        timed(["run", scenario_path, "--out", str(out / f"seed_{s}"), "--seed", str(s), "--quiet"])
        for s in range(seed, seed + repeat)
    ]
    base = out / f"seed_{seed}"
    analyze_s = timed(["analyze", str(base / "events.jsonl"), "--out", str(out / "analyze"), "--quiet"])
    fan_out = ["--repeat", str(repeat), "--jobs", str(jobs)] if repeat > 1 else []
    batch_s = timed(["run", scenario_path, "--out", str(out / "batch"), "--quiet", *fan_out])
    result = {"run_s": run_s, "analyze_s": analyze_s, "batch_s": batch_s}
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    mode, scenario_arg, out_arg, seed_arg, *rest = sys.argv[1:]
    out_dir = Path(out_arg)
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "trace":
        trace(scenario_arg, out_dir, int(seed_arg), rest[0])
    elif mode == "plain":
        plain(scenario_arg, out_dir, int(seed_arg), int(rest[0]), int(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
