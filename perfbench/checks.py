"""Output checks: byte-level digests of the files the program writes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REPORTS = ("datacentric.json", "ops.csv", "clientcentric.json", "read_verdicts.csv")
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def digest_tree(root: Path, prefix: str = "") -> dict[str, str]:
    """sha256 of every file under root, keyed by prefix + its relative path."""
    return {
        prefix + p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Keys whose digests differ or that only one side has, sorted."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def not_reproduced_by_analyze(digests: dict[str, str], base_prefix: str) -> list[str]:
    """Reports that `analyze/` does not reproduce byte for byte from the run under base_prefix."""
    return [f for f in REPORTS if digests.get(f"analyze/{f}") != digests.get(base_prefix + f)]


def load_recorded() -> dict[str, dict[str, str]]:
    """Digests recorded for the default seed, per workload."""
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def save_recorded(recorded: dict[str, dict[str, str]]) -> None:
    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
