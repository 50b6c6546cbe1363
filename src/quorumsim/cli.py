"""Command-line orchestration: validate | run | analyze | quorum-check.

Exit codes are a stable API: 0 success, 1 domain error (invalid scenario,
unsatisfiable level, malformed log), 2 I/O or parse error. Scenario paths
may be ``preset:NAME`` to load one of the bundled presets.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

from . import logio
from .clientcentric import clientcentric_outputs
from .datacentric import build_datacentric_report, op_records
from .engine import run_simulation
from .errors import MalformedLogError
from .levels import LevelError, is_immediately_consistent, parse_level, required_acks
from .model import QuorumSpec, validate_scenario
from .scenario import Scenario, ScenarioFormatError, load_scenario, scenario_from_json

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

ALL_STAGES = (1, 2, 3)


def _say(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def list_presets() -> list[str]:
    root = resources.files("quorumsim") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _load(path_arg: str) -> Scenario:
    if path_arg.startswith("preset:"):
        name = path_arg[len("preset:"):]
        ref = resources.files("quorumsim") / "presets" / f"{name}.json"
        try:
            doc = json.loads(ref.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ScenarioFormatError(
                f"unknown preset {name!r}; available: {', '.join(list_presets())}"
            ) from None
        return scenario_from_json(doc)
    return load_scenario(path_arg)


def cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    report = validate_scenario(scenario.topology, scenario.coop, list(scenario.failures), scenario.workload)
    for note in report.notes:
        print(f"note - {note.code}: {note.message}")
    if report.ok:
        print("OK")
        return EXIT_OK
    for v in report.violations:
        print(f"{v.code}: {v.message}")
    return EXIT_DOMAIN


def _parse_stages(text: str, allowed=ALL_STAGES) -> tuple[int, ...]:
    try:
        stages = tuple(sorted({int(s) for s in text.split(",") if s.strip()}))
    except ValueError:
        raise ScenarioFormatError(f"bad --stages value {text!r}") from None
    if not stages or any(s not in allowed for s in stages):
        names = ",".join(str(a) for a in allowed)
        raise ScenarioFormatError(f"--stages must name stages out of {names}, got {text!r}")
    return stages


def _run_one(scenario: Scenario, seed: int, out_dir: Path, stages) -> dict:
    """Simulate one seed and write the requested stage outputs into out_dir.

    Returns the summary row; removes partial outputs if anything fails.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        log = run_simulation(
            scenario.topology,
            scenario.coop,
            list(scenario.failures),
            scenario.workload,
            scenario.strategy,
            seed,
            scenario.op_timeout_us,
        )
        log.meta["scenario"] = scenario.name
        row = {"seed": seed}
        if 1 in stages:
            logio.write_events(log, out_dir / "events.jsonl")
        if 2 in stages:
            report2 = build_datacentric_report(log)
            logio.write_json_report(report2, out_dir / "datacentric.json")
            logio.write_op_table(op_records(log), out_dir / "ops.csv")
            g = report2["global"]
            row.update(
                ops=g["counts"]["ops"],
                commits=g["counts"]["commits"],
                fails=g["counts"]["fails"],
                error_rate=g["error_rate"]["all"],
                mean_latency_us=g["latency_us"]["mean"],
                mean_window_us=g["inconsistency_window_us"]["mean"],
            )
        if 3 in stages:
            report3, verdicts = clientcentric_outputs(log, scenario.strategy)
            logio.write_json_report(report3, out_dir / "clientcentric.json")
            logio.write_read_verdicts(verdicts, out_dir / "read_verdicts.csv")
            row.update(
                stale_read_rate=report3["stale_read_rate"],
                mrc_violation_probability=report3["mrc_violation_probability"],
                rywc_violation_probability=report3["rywc_violation_probability"],
                mwc_violation_probability=report3["mwc_violation_probability"],
                wfrc_violation_probability=report3["wfrc_violation_probability"],
            )
        return row
    except BaseException:
        shutil.rmtree(out_dir, ignore_errors=True)
        raise


def cmd_run(args) -> int:
    scenario = _load(args.scenario)
    report = validate_scenario(scenario.topology, scenario.coop, list(scenario.failures), scenario.workload)
    if not report.ok:
        for v in report.violations:
            print(f"{v.code}: {v.message}", file=sys.stderr)
        return EXIT_DOMAIN
    stages = _parse_stages(args.stages)
    base_seed = args.seed if args.seed is not None else (scenario.seed if scenario.seed is not None else 0)
    out = Path(args.out)

    if args.repeat is None:
        row = _run_one(scenario, base_seed, out, stages)
        _say(args, f"wrote {', '.join(sorted(p.name for p in out.iterdir()))} to {out}")
        return EXIT_OK

    seeds = [base_seed + k for k in range(args.repeat)]
    rows = [None] * len(seeds)
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = {
            pool.submit(_run_one, scenario, seed, out / f"seed_{seed}", stages): i
            for i, seed in enumerate(seeds)
        }
        for fut, i in futures.items():
            rows[i] = fut.result()
    summary = {
        "scenario": scenario.name,
        "strategy": scenario.strategy,
        "base_seed": base_seed,
        "repeats": args.repeat,
        "stages": list(stages),
        "rows": rows,
    }
    logio.write_json_report(summary, out / "summary.json")
    _say(args, f"wrote {len(seeds)} runs and summary.json to {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    log = logio.read_events(args.events)
    stages = _parse_stages(args.stages, allowed=(2, 3))
    strategy = log.meta.get("strategy")
    if strategy is None and 3 in stages:
        raise MalformedLogError("events file lacks the run_meta header needed for stage 3")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if 2 in stages:
        logio.write_json_report(build_datacentric_report(log), out / "datacentric.json")
        logio.write_op_table(op_records(log), out / "ops.csv")
    if 3 in stages:
        report3, verdicts = clientcentric_outputs(log, strategy)
        logio.write_json_report(report3, out / "clientcentric.json")
        logio.write_read_verdicts(verdicts, out / "read_verdicts.csv")
    _say(args, f"wrote stage {list(stages)} metrics to {out}")
    return EXIT_OK


def _parse_dc_counts(text: str | None) -> dict[str, int] | None:
    if not text:
        return None
    counts = {}
    for part in text.split(","):
        name, _, num = part.partition("=")
        if not num:
            raise ScenarioFormatError(f"bad --dc-counts entry {part!r}; expected NAME=COUNT")
        counts[name.strip()] = int(num)
    return counts


def cmd_quorum_check(args) -> int:
    write_cl = parse_level(args.write_cl)
    read_cl = parse_level(args.read_cl)
    dc_counts = _parse_dc_counts(args.dc_counts)
    coordinator_dc = args.coordinator_dc
    if dc_counts and coordinator_dc is None:
        coordinator_dc = next(iter(dc_counts))
    w = required_acks(write_cl, args.rf, dc_counts, coordinator_dc)
    r = required_acks(read_cl, args.rf, dc_counts, coordinator_dc)
    verdict = "IMMEDIATE" if is_immediately_consistent(QuorumSpec(w, r, args.rf)) else "EVENTUAL"
    print(f"W={w} R={r} RF={args.rf} {verdict}")
    if write_cl == "ALL" and read_cl == "ALL":
        print("note: ALL/ALL is redundant; pair ALL with ONE (or ONE with ALL) instead")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quorumsim",
        description="Discrete-event consistency simulator for quorum-replicated key-value stores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file against all model invariants")
    p.add_argument("scenario", help="scenario JSON path or preset:NAME")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="simulate a scenario and write logs and metrics")
    p.add_argument("scenario", help="scenario JSON path or preset:NAME")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--stages", default="1,2,3", help="comma list out of 1,2,3 (default all)")
    p.add_argument("--repeat", type=int, default=None, help="run K seeds (base, base+1, ...) with a summary")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs for --repeat")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("analyze", help="recompute stage 2/3 metrics from a stored events file")
    p.add_argument("events", help="events.jsonl path")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--stages", default="2,3", help="comma list out of 2,3")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("quorum-check", help="evaluate W + R > RF for a level pairing")
    p.add_argument("--rf", type=int, required=True)
    p.add_argument("--write-cl", required=True)
    p.add_argument("--read-cl", required=True)
    p.add_argument("--dc-counts", default=None, help="replicas per datacenter, e.g. NY=3,SF=3")
    p.add_argument("--coordinator-dc", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_quorum_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioFormatError, FileNotFoundError, PermissionError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (LevelError, MalformedLogError) as e:
        code = getattr(e, "code", "ERROR")
        print(f"{code}: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
