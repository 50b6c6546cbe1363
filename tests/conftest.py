"""Checks that run under every test: logio's output files and its reader's
rejections against their references.

Every ``ops.csv``, ``read_verdicts.csv`` and JSON report that a test writes
in this process through ``logio`` must equal, byte for byte, what
``csv.writer`` and ``json.dump`` write for the same rows or report (see the
``reference_*`` writers in ``_oracles``). Every event line that
``iter_events`` rejects must be rejected by ``event_from_json`` alone with
the same message and line number.
"""

import json
from pathlib import Path

import pytest

from _oracles import reference_json_report, reference_op_table_csv, reference_read_verdicts_csv

from quorumsim import MalformedLogError, logio


def _checked_writer(write, reference):
    def checked(rows, path):
        rows = rows if isinstance(rows, dict) else list(rows)
        write(rows, path)
        assert Path(path).read_bytes() == reference(rows), f"{path} differs from its reference"

    return checked


def _rejected_alike(path, error: MalformedLogError) -> None:
    """Unless error names no line, or a line that is no event object, that
    event_from_json rejects that line's object with error's message."""
    if error.line is None:
        return
    with open(path, encoding="utf-8") as fh:
        text = next(line for n, line in enumerate(fh, start=1) if n == error.line)
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # no object to decode alone
        return
    if not isinstance(obj, dict) or obj.get("kind", "run_meta") == "run_meta":
        return
    with pytest.raises(MalformedLogError) as alone:
        logio.event_from_json(obj, error.line)
    assert str(alone.value) == str(error), (path, error.line)


@pytest.fixture(autouse=True)
def logio_matches_its_references(monkeypatch):
    iter_events = logio.iter_events

    def checked_iter_events(path, meta):
        try:
            yield from iter_events(path, meta)
        except MalformedLogError as e:
            _rejected_alike(path, e)
            raise

    monkeypatch.setattr(logio, "iter_events", checked_iter_events)
    monkeypatch.setattr(logio, "write_op_table", _checked_writer(logio.write_op_table, reference_op_table_csv))
    monkeypatch.setattr(logio, "write_read_verdicts", _checked_writer(logio.write_read_verdicts, reference_read_verdicts_csv))
    monkeypatch.setattr(logio, "write_json_report", _checked_writer(logio.write_json_report, reference_json_report))
