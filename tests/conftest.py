"""Checks that run under every test: logio's CSV templates against their
references.

Every ``ops.csv`` and ``read_verdicts.csv`` that a test writes in this
process through ``logio`` must equal, byte for byte, what ``csv.writer``
writes for the same rows (see the ``reference_*`` writers in ``_oracles``).
The JSON reports need no such check: ``logio`` writes them with
``json.dump`` itself.
"""

from pathlib import Path

import pytest

from _oracles import reference_op_table_csv, reference_read_verdicts_csv

from quorumsim import logio


def _checked_writer(write, reference):
    def checked(rows, path):
        rows = list(rows)
        write(rows, path)
        assert Path(path).read_bytes() == reference(rows), f"{path} differs from its reference"

    return checked


@pytest.fixture(autouse=True)
def logio_matches_its_references(monkeypatch):
    monkeypatch.setattr(logio, "write_op_table", _checked_writer(logio.write_op_table, reference_op_table_csv))
    monkeypatch.setattr(logio, "write_read_verdicts", _checked_writer(logio.write_read_verdicts, reference_read_verdicts_csv))
