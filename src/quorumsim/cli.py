"""Command-line orchestration: validate | run | analyze | quorum-check.

Exit codes are a stable API: 0 success, 1 domain error (invalid scenario,
unsatisfiable level, malformed log), 2 I/O or parse error. Scenario paths
may be ``preset:NAME`` to load one of the bundled presets. Each command
loads only the modules of its own layers, its ``layers`` default and those
of the stages it runs (``STAGE_LAYERS``): analyze no simulator module,
validate and quorum-check no analysis module, and no command the module of
a stage that ``--stages`` leaves out.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from collections import deque
from importlib import import_module, resources
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import LevelError, MalformedLogError, ScenarioFormatError
from .events import gc_paused

if TYPE_CHECKING:
    from .scenario import Scenario

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

ALL_STAGES = (1, 2, 3)
# the modules each stage adds to its command's own layers
STAGE_LAYERS = {1: (), 2: ("optable", "datacentric"), 3: ("optable", "clientcentric")}


def _say(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def list_presets() -> list[str]:
    root = resources.files("quorumsim") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _load(path_arg: str) -> Scenario:
    from .scenario import load_scenario, read_scenario

    if path_arg.startswith("preset:"):
        name = path_arg[len("preset:"):]
        ref = resources.files("quorumsim") / "presets" / f"{name}.json"
        try:
            data = ref.read_bytes()
        except FileNotFoundError:
            raise ScenarioFormatError(
                f"unknown preset {name!r}; available: {', '.join(list_presets())}"
            ) from None
        return read_scenario(data)
    return load_scenario(path_arg)


def _validate(scenario: Scenario):
    from .model import validate_scenario

    return validate_scenario(
        scenario.topology, scenario.coop, list(scenario.failures), scenario.workload, scenario.op_timeout_us
    )


def cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    report = _validate(scenario)
    for note in report.notes:
        print(f"note - {note.code}: {note.message}")
    if report.ok:
        print("OK")
        return EXIT_OK
    for v in report.violations:
        print(f"{v.code}: {v.message}")
    return EXIT_DOMAIN


def _parse_stages(text: str, allowed) -> tuple[int, ...]:
    try:
        stages = tuple(sorted({int(s) for s in text.split(",") if s.strip()}))
    except ValueError:
        raise ScenarioFormatError(f"bad --stages value {text!r}") from None
    if not stages or any(s not in allowed for s in stages):
        names = ",".join(str(a) for a in allowed)
        raise ScenarioFormatError(f"--stages must name stages out of {names}, got {text!r}")
    return stages


def _write_stages(table, strategy: str, stages, out_dir: Path) -> tuple[dict | None, dict | None]:
    """Write the stage 2 and stage 3 outputs that stages asks for into out_dir.

    Stage 3, which can reject a log, runs before any file is written, so a
    rejected log leaves no report behind. Its files are written and its
    verdicts released before stage 2 builds its non-warmup and per-graph
    lists of records and each section's latency and window lists, so memory
    peaks at the op table plus the larger stage, not plus both. Returns the
    (data-centric, client-centric) reports, None for a stage not run.
    """
    from . import logio

    report2 = report3 = None
    if 3 in stages:
        from .clientcentric import clientcentric_outputs

        report3, verdicts = clientcentric_outputs(table, strategy)
        out_dir.mkdir(parents=True, exist_ok=True)
        logio.write_json_report(report3, out_dir / "clientcentric.json")
        logio.write_read_verdicts(verdicts, out_dir / "read_verdicts.csv")
        del verdicts
    if 2 in stages:
        from .datacentric import datacentric_outputs

        report2, records = datacentric_outputs(table)
        out_dir.mkdir(parents=True, exist_ok=True)
        logio.write_json_report(report2, out_dir / "datacentric.json")
        logio.write_op_table(records, out_dir / "ops.csv")
    return report2, report3


def _run_one(scenario: Scenario, seed: int, out_dir: Path, stages) -> dict:
    """Simulate one seed and write the requested stage outputs into out_dir.

    The engine's event chunks go through the events writer into the op
    table as they come, so the event list is never held. Returns the
    summary row; removes partial outputs if anything fails.
    """
    from . import logio
    from .engine import simulation_chunks

    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        meta, chunks = simulation_chunks(
            scenario.topology,
            scenario.coop,
            list(scenario.failures),
            scenario.workload,
            scenario.strategy,
            seed,
            scenario.op_timeout_us,
        )
        meta["scenario"] = scenario.name
        row = {"seed": seed}
        if 1 in stages:
            chunks = logio.written_chunks(meta, chunks, out_dir / "events.jsonl")
        if 2 in stages or 3 in stages:
            from .optable import op_table

            table = op_table(chain.from_iterable(chunks), meta)
            report2, report3 = _write_stages(table, scenario.strategy, stages, out_dir)
        else:
            deque(chunks, maxlen=0)
        if 2 in stages:
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
            row.update(
                stale_read_rate=report3["stale_read_rate"],
                mrc_violation_probability=report3["mrc_violation_probability"],
                rywc_violation_probability=report3["rywc_violation_probability"],
                mwc_violation_probability=report3["mwc_violation_probability"],
                wfrc_violation_probability=report3["wfrc_violation_probability"],
            )
        return row
    except MemoryError:
        pass  # removing the outputs needs memory too: leaving here frees the run's state
    except BaseException:
        shutil.rmtree(out_dir, ignore_errors=True)
        raise
    shutil.rmtree(out_dir, ignore_errors=True)
    raise MemoryError


def cmd_run(args) -> int:
    from . import logio
    from .scenario import check_seed

    if args.repeat is not None and args.repeat < 1:
        raise ScenarioFormatError(f"--repeat must be at least 1, got {args.repeat}")
    if args.jobs < 1:
        raise ScenarioFormatError(f"--jobs must be at least 1, got {args.jobs}")
    scenario = _load(args.scenario)
    base_seed = args.seed if args.seed is not None else (scenario.seed if scenario.seed is not None else 0)
    check_seed(base_seed, "--seed")
    check_seed(base_seed + (args.repeat or 1) - 1, f"the last seed of --repeat {args.repeat}")
    report = _validate(scenario)
    if not report.ok:
        for v in report.violations:
            print(f"{v.code}: {v.message}", file=sys.stderr)
        return EXIT_DOMAIN
    stages = args.stages
    out = Path(args.out)

    if args.repeat is None:
        row = _run_one(scenario, base_seed, out, stages)
        _say(args, f"wrote {', '.join(sorted(p.name for p in out.iterdir()))} to {out}")
        return EXIT_OK

    seeds = [base_seed + k for k in range(args.repeat)]
    if args.jobs == 1:
        rows = [_run_one(scenario, seed, out / f"seed_{seed}", stages) for seed in seeds]
    else:
        # Seeds are CPU-bound Python, so they run in worker processes; the
        # import stays here because it costs every other command time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(seeds))) as pool:
            futures = [pool.submit(_run_one, scenario, seed, out / f"seed_{seed}", stages) for seed in seeds]
            rows = []
            try:
                for fut in futures:
                    rows.append(fut.result())
            except BaseException:
                # Fail as --jobs 1 does: no seed after the failing one leaves
                # a directory. Queued seeds are cancelled; running ones finish
                # and are removed.
                pool.shutdown(cancel_futures=True)
                for seed in seeds[len(rows) + 1 :]:
                    shutil.rmtree(out / f"seed_{seed}", ignore_errors=True)
                raise
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
    from . import logio
    from .optable import op_table

    stages = args.stages
    meta: dict = {}
    # one pass from the file into the op table: the event list is never held
    table = op_table(logio.iter_events(args.events, meta), meta)
    out = Path(args.out)
    _write_stages(table, meta["strategy"], stages, out)
    _say(args, f"wrote stage {list(stages)} metrics to {out}")
    return EXIT_OK


def _parse_dc_counts(text: str | None, rf: int) -> dict[str, int] | None:
    """NAME=COUNT,... as {name: count}: names distinct and non-empty, counts
    positive and summing to rf."""
    if not text:
        return None
    counts = {}
    for part in text.split(","):
        name, _, num = part.partition("=")
        name = name.strip()
        try:
            count = int(num)
        except ValueError:
            count = 0
        if not name or count < 1:
            raise ScenarioFormatError(f"bad --dc-counts entry {part!r}; expected NAME=COUNT with COUNT >= 1")
        if name in counts:
            raise ScenarioFormatError(f"bad --dc-counts entry {part!r}; datacenter {name!r} is already listed")
        counts[name] = count
    total = sum(counts.values())
    if total != rf:
        raise ScenarioFormatError(f"bad --dc-counts entry {text!r}; counts sum to {total}, not --rf {rf}")
    return counts


def cmd_quorum_check(args) -> int:
    from .levels import is_immediately_consistent, parse_level, required_acks

    write_cl = parse_level(args.write_cl)
    read_cl = parse_level(args.read_cl)
    dc_counts = _parse_dc_counts(args.dc_counts, args.rf)
    coordinator_dc = args.coordinator_dc
    if dc_counts and coordinator_dc is None:
        coordinator_dc = next(iter(dc_counts))
    w = required_acks(write_cl, args.rf, dc_counts, coordinator_dc)
    r = required_acks(read_cl, args.rf, dc_counts, coordinator_dc)
    verdict = "IMMEDIATE" if is_immediately_consistent(w, r, args.rf) else "EVENTUAL"
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
    p.set_defaults(fn=cmd_validate, layers=("scenario", "model"))

    p = sub.add_parser("run", help="simulate a scenario and write logs and metrics")
    p.add_argument("scenario", help="scenario JSON path or preset:NAME")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--stages", default="1,2,3", help="comma list out of 1,2,3 (default all)")
    p.add_argument("--repeat", type=int, default=None, help="run K seeds (base, base+1, ...) with a summary")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for --repeat (1: run in this process)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_run, layers=("scenario", "engine", "logio"), allowed_stages=ALL_STAGES)

    p = sub.add_parser("analyze", help="recompute stage 2/3 metrics from a stored events file")
    p.add_argument("events", help="events.jsonl path")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--stages", default="2,3", help="comma list out of 2,3")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_analyze, layers=("logio",), allowed_stages=(2, 3))

    p = sub.add_parser("quorum-check", help="evaluate W + R > RF for a level pairing")
    p.add_argument("--rf", type=int, required=True)
    p.add_argument("--write-cl", required=True)
    p.add_argument("--read-cl", required=True)
    p.add_argument("--dc-counts", default=None, help="replicas per datacenter, e.g. NY=3,SF=3")
    p.add_argument("--coordinator-dc", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_quorum_check, layers=("levels", "model"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        layers = list(args.layers)
        if "stages" in args:
            args.stages = _parse_stages(args.stages, args.allowed_stages)
            layers.extend(chain.from_iterable(STAGE_LAYERS[s] for s in args.stages))
        # A command's layers load before the collector is paused, which would
        # keep their import-time garbage, and before any --jobs worker forks.
        for layer in layers:
            import_module(f".{layer}", __package__)
        with gc_paused():
            return args.fn(args)
    except (ScenarioFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (LevelError, MalformedLogError) as e:
        code = getattr(e, "code", "ERROR")
        print(f"{code}: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        # validation does not bound a run's size: a run too large to fit ends here
        print("error: out of memory", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
