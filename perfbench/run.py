"""quorumsim benchmark: time the real CLI end to end, or trace its layers.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's scenario file is generated from
the seed (see workloads.py); the program receives only that file. Every
invocation runs alone in a fresh child process under a time and memory
budget (see child.py).

--trace 0 repeats, until S seconds have passed, one iteration of
``quorumsim validate`` (VALIDATES_PER_ITERATION times), ``quorumsim run``
with all three stages and ``quorumsim analyze`` on the log that run wrote,
and reports medians over the iterations. Each timed child runs between two
passes of a fixed reference loop, whose times scale the child's wall time to
a nominal machine speed (see calibrate.py). --trace 1 repeats an untraced
in-process pipeline, a traced one and a traced one at half size (see
tracing.py), and reports per-layer medians.

Outputs are checked in both modes: analyze reproduces run's reports byte for
byte, every repetition writes the same bytes, the default seed's bytes equal
perfbench/digests.json, each seed of a batch equals a single run of that
seed, and the traced pipeline writes the same bytes as the CLI. An
invocation fails if it exits nonzero, goes over its budget or fails a
check. The last stdout line is one JSON object; the exit code is 1 if
anything failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, reference_s, to_nominal
from checks import differing, digest_tree, load_recorded, not_reproduced_by_analyze
from child import Budget, ChildResult, run_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
VALIDATES_PER_ITERATION = 2
BUDGET = Budget(wall_s=120.0, cpu_s=120, mem_mb=2048)


class Session:
    """Invokes children for one benchmark run and counts attempts and failures."""

    def __init__(self, work: Path, budget: Budget):
        self.work = work
        self.budget = budget
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed: dict[int, list[str]] = {}

    def invoke(self, argv, tag: str) -> tuple[int, ChildResult]:
        argv = [str(a) for a in argv]
        self.attempted += 1
        inv = self.attempted
        res = run_child(argv, budget=self.budget, cwd=ROOT, env=self.env, log_dir=self.work / "logs" / f"{inv:04d}-{tag}")
        if not res.ok:
            self.fail(inv, res.describe())
        return inv, res

    def quorumsim(self, *args, tag: str) -> tuple[int, ChildResult]:
        return self.invoke([sys.executable, "-m", "quorumsim.cli", *args], tag)

    def fail(self, inv: int, reason: str) -> None:
        self.failed.setdefault(inv, []).append(reason)
        print(f"FAIL invocation {inv}: {reason}", file=sys.stderr)

    def check(self, inv: int, what: str, bad: list[str]) -> None:
        if bad:
            self.fail(inv, f"check: {what}: {', '.join(bad[:5])}")


def fresh_dir(path: Path) -> Path:
    """Remove path if it exists, and return it."""
    shutil.rmtree(path, ignore_errors=True)
    return path


def _check_recorded(session: Session, inv: int, name: str, seed: int, digests: dict, prefixes=("",)) -> None:
    """For the default seed, the files under prefixes must equal the digests in digests.json."""
    if seed != DEFAULT_SEED:
        return
    recorded = load_recorded().get(name)
    if recorded is None:
        session.fail(inv, f"check: no recorded digests for {name}")
        return
    recorded = {k: v for k, v in recorded.items() if k.startswith(prefixes)}
    session.check(inv, "bytes differ from digests.json", differing(recorded, digests))


def _info(base: Path) -> str:
    dc = json.loads((base / "datacentric.json").read_text())["global"]["counts"]
    cc = json.loads((base / "clientcentric.json").read_text())
    return f"info: ops={dc['ops']} fails={dc['fails']} stale_read_rate={cc['stale_read_rate']:.6f} (non-warmup)"


def end_to_end(session: Session, w, seed: int, seconds: float, scenario: Path) -> dict:
    run_dir, analyze_dir = session.work / "run", session.work / "analyze"
    base_prefix = w.base_prefix(seed)
    base = session.work / base_prefix
    samples = {k: [] for k in ("setup", "run", "analyze", "run_rss", "analyze_rss", "reference")}
    first = None

    # One untimed validate first, so that byte-compiling the sources is not timed.
    session.quorumsim("validate", scenario, "--quiet", tag="warmup")
    # Every timed child runs between two passes of the reference loop, which
    # scale its wall time to the nominal machine speed (see calibrate.py).
    before = reference_s()
    deadline = time.perf_counter() + seconds
    while not session.failed and (first is None or time.perf_counter() < deadline):
        validates = [session.quorumsim("validate", scenario, tag="validate") for _ in range(VALIDATES_PER_ITERATION)]
        after_validate = reference_s()
        for inv, res in validates:
            if res.ok and res.stdout.split()[-1:] != [b"OK"]:
                session.fail(inv, "check: validate did not print OK")
            elif res.ok:
                samples["setup"].append(to_nominal(res.wall_s, before, after_validate))
        run_inv, run = session.quorumsim("run", scenario, "--out", fresh_dir(run_dir), "--quiet", *w.fan_out(), tag="run")
        if not run.ok:
            break
        after_run = reference_s()
        inv, analyze = session.quorumsim("analyze", base / "events.jsonl", "--out", fresh_dir(analyze_dir), "--quiet", tag="analyze")
        if not analyze.ok:
            break
        after_analyze = reference_s()
        samples["reference"] += [after_validate, after_run, after_analyze]
        samples["run"].append(to_nominal(run.wall_s, after_validate, after_run))
        samples["analyze"].append(to_nominal(analyze.wall_s, after_run, after_analyze))
        samples["run_rss"].append(run.peak_rss_mb)
        samples["analyze_rss"].append(analyze.peak_rss_mb)
        before = after_analyze
        digests = digest_tree(run_dir, "run/") | digest_tree(analyze_dir, "analyze/")
        session.check(inv, "analyze does not reproduce run's reports", not_reproduced_by_analyze(digests, base_prefix))
        if first is None:
            first = digests
            _check_recorded(session, run_inv, w.name, seed, digests)
        else:
            session.check(run_inv, "bytes differ between repetitions", differing(first, digests))

    if w.repeat > 1 and not session.failed:
        for s in range(seed, seed + w.repeat):
            single = session.work / f"single_{s}"
            inv, res = session.quorumsim("run", scenario, "--out", fresh_dir(single), "--seed", s, "--quiet", tag="single")
            if res.ok:
                batch_seed = {k.split("/", 2)[2]: v for k, v in first.items() if k.startswith(f"run/seed_{s}/")}
                session.check(inv, f"batch seed_{s} differs from run --seed {s}", differing(batch_seed, digest_tree(single)))
    if first is not None and (base / "clientcentric.json").exists():
        print(_info(base))
    if samples["reference"]:
        print(f"info: {len(samples['run'])} iterations; reference loop median {statistics.median(samples['reference']):.4f} s (nominal {NOMINAL_S} s)")
    if not samples["run"] or not samples["analyze"]:
        return {}
    ops = w.ops()
    return {
        "run_ops_per_s": statistics.median(ops * w.repeat / t for t in samples["run"]),
        "analyze_ops_per_s": statistics.median(ops / t for t in samples["analyze"]),
        "run_peak_rss_mb": statistics.median(samples["run_rss"]),
        "analyze_peak_rss_mb": statistics.median(samples["analyze_rss"]),
        "setup_s": statistics.median(samples["setup"]),
    }


def traced(session: Session, w, seed: int, seconds: float, scenario: Path, half: Path) -> dict:
    from tracing import LAYER_SPANS, read_spans, self_times

    tracer_py = str(HERE / "tracing.py")
    py = sys.executable
    cycles: list[dict] = []
    first_counts = first_digests = None
    deadline = time.perf_counter() + seconds
    while not session.failed and (not cycles or time.perf_counter() < deadline):
        k = len(cycles)
        plain_dir, full_dir, half_dir = (fresh_dir(session.work / d) for d in ("plain", "traced", "half"))
        plain_inv, res = session.invoke([py, tracer_py, "plain", scenario, plain_dir, seed, w.repeat, w.jobs], "plain")
        if not res.ok:
            break
        inv, res = session.invoke([py, tracer_py, "trace", scenario, full_dir, seed, f"{w.name}-{seed}-{k}"], "trace")
        if not res.ok:
            break
        _, res = session.invoke([py, tracer_py, "trace", half, half_dir, seed, f"{w.name}-{seed}-{k}-half"], "trace-half")
        if not res.ok:
            break

        plain_res = json.loads((plain_dir / "result.json").read_text())
        full_res = json.loads((full_dir / "result.json").read_text())
        half_res = json.loads((half_dir / "result.json").read_text())
        base_prefix = w.base_prefix(seed)
        plain_digests = digest_tree(plain_dir / f"seed_{seed}", base_prefix) | digest_tree(plain_dir / "analyze", "analyze/")
        traced_digests = digest_tree(full_dir / "run", base_prefix) | digest_tree(full_dir / "analyze", "analyze/")
        session.check(inv, "traced pipeline differs from the CLI", differing(plain_digests, traced_digests))
        if first_digests is None:
            first_digests, first_counts = plain_digests, full_res["counts"]
            _check_recorded(session, plain_inv, w.name, seed, plain_digests, prefixes=(base_prefix, "analyze/"))
        else:
            session.check(plain_inv, "bytes differ between repetitions", differing(first_digests, plain_digests))
            changed = [c for c in first_counts if first_counts[c] != full_res["counts"].get(c)]
            session.check(inv, "exact counts differ between repetitions", changed)

        full_self = self_times(read_spans(full_dir / "spans.jsonl"))
        half_self = self_times(read_spans(half_dir / "spans.jsonl"))
        m = {f"{name}_s": full_self[name] for name in LAYER_SPANS}
        m["engine.events_per_s"] = full_res["counts"]["engine.events"] / full_self["engine.simulate"]
        m["clientcentric.report_exp"] = math.log(
            full_self["clientcentric.report"] / half_self["clientcentric.report"]
        ) / math.log(full_res["ops"] / half_res["ops"])
        m["cli.batch_s"] = plain_res["batch_s"]
        m["cli.seed_s_sum"] = sum(plain_res["run_s"])
        m["cli.parallel_speedup"] = m["cli.seed_s_sum"] / m["cli.batch_s"]
        m.update(full_res["marks"])
        m["trace.overhead_s"] = full_res["total_s"] - (plain_res["run_s"][0] + plain_res["analyze_s"])
        m["untraced.pipeline_s"] = plain_res["run_s"][0] + plain_res["analyze_s"]
        cycles.append(m)
        shutil.copyfile(full_dir / "spans.jsonl", session.work / f"spans_{k}.jsonl")
        shutil.copyfile(half_dir / "spans.jsonl", session.work / f"spans_{k}_half.jsonl")

    if not cycles:
        return {}
    print(f"info: {len(cycles)} traced cycles; untraced run+analyze {statistics.median(c['untraced.pipeline_s'] for c in cycles):.4f} s")
    metrics = {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
    metrics.update(first_counts)
    return metrics


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quorumsim" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, scenario_bytes

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    work = fresh_dir(WORK / f"{w.name}-trace{args.trace}")
    work.mkdir(parents=True)
    scenario, half = work / "scenario.json", work / "scenario_half.json"
    scenario.write_bytes(scenario_bytes(w.name, args.seed))
    session = Session(work, BUDGET)

    if args.trace:
        half.write_bytes(scenario_bytes(w.name, args.seed, scale=0.5))
        values = traced(session, w, args.seed, args.seconds, scenario, half)
        declared = declared_metrics("per_layer")
    else:
        values = end_to_end(session, w, args.seed, args.seconds, scenario)
        values["passed_share"] = 1 - len(session.failed) / session.attempted
        print(f"failed_share = {1 - values['passed_share']:.6g} share ({len(session.failed)}/{session.attempted} invocations)")
        declared = declared_metrics("end_to_end")
    missing = [name for name in declared if name not in values]
    if missing and not session.failed:
        raise RuntimeError(f"declared metrics not measured: {missing}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items() if name in values}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not session.failed, "attempted": session.attempted, "failed": len(session.failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
