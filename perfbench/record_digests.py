"""Record the default seed's output digests of every workload in digests.json.

  python3 perfbench/record_digests.py

The benchmark fails any run whose default-seed outputs differ from the
recorded bytes, so a change that alters a simulated statistic shows. Re-record
only in a change that means to alter outputs, and say so in that change.
"""

from __future__ import annotations

import sys

from checks import digest_tree, save_recorded
from run import BUDGET, DEFAULT_SEED, SRC, WORK, Session, fresh_dir


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, scenario_bytes

    recorded = {}
    for w in WORKLOADS.values():
        work = fresh_dir(WORK / f"record-{w.name}")
        work.mkdir(parents=True)
        scenario = work / "scenario.json"
        scenario.write_bytes(scenario_bytes(w.name, DEFAULT_SEED))
        session = Session(work, BUDGET)
        session.quorumsim("run", scenario, "--out", work / "run", "--quiet", *w.fan_out(), tag="run")
        if not session.failed:
            events = work / w.base_prefix(DEFAULT_SEED) / "events.jsonl"
            session.quorumsim("analyze", events, "--out", work / "analyze", "--quiet", tag="analyze")
        if session.failed:
            return 1
        recorded[w.name] = digest_tree(work / "run", "run/") | digest_tree(work / "analyze", "analyze/")
    save_recorded(recorded)
    print(f"recorded digests of {', '.join(recorded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
