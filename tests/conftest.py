"""Checks that run under every test: logio's output files against their
references.

Every ``ops.csv``, ``read_verdicts.csv`` and JSON report that a test writes
in this process through ``logio`` must equal, byte for byte, what
``csv.writer`` and ``json.dump`` write for the same rows or report (see the
``reference_*`` writers in ``_oracles``).
"""

from pathlib import Path

import pytest

from _oracles import reference_json_report, reference_op_table_csv, reference_read_verdicts_csv

from quorumsim import logio


def _checked_writer(write, reference):
    def checked(rows, path):
        rows = rows if isinstance(rows, dict) else list(rows)
        write(rows, path)
        assert Path(path).read_bytes() == reference(rows), f"{path} differs from its reference"

    return checked


@pytest.fixture(autouse=True)
def logio_matches_its_references(monkeypatch):
    monkeypatch.setattr(logio, "write_op_table", _checked_writer(logio.write_op_table, reference_op_table_csv))
    monkeypatch.setattr(logio, "write_read_verdicts", _checked_writer(logio.write_read_verdicts, reference_read_verdicts_csv))
    monkeypatch.setattr(logio, "write_json_report", _checked_writer(logio.write_json_report, reference_json_report))
