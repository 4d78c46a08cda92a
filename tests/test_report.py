import json
import re
from dataclasses import fields
from pathlib import Path

from expdyn.exceptional import E2_COLUMNS
from expdyn.funcs import HypothesisReport
from expdyn.grid import DENSITY_COLUMNS
from expdyn.measure import AnnulusReport
from expdyn.report import write_csv, write_json

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "measure_schema.md"


def test_write_csv_header_without_rows(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(path, ("a", "b"), [])
    assert path.read_bytes() == b"a,b\r\n"
    write_csv(path, ("a", "b"), [(1, 2.5), ("", "x")])
    assert path.read_bytes() == b"a,b\r\n1,2.5\r\n,x\r\n"


def test_write_json_indent_and_newline(tmp_path, capsys):
    data = {"radii": [5.0], "rows": [{"samples": 200}]}
    path = tmp_path / "r.json"
    write_json(path, data)
    text = path.read_text()
    assert text == json.dumps(data, indent=2) + "\n"
    assert json.loads(text) == data
    # Without a path the same text goes to standard output.
    write_json(None, data)
    assert capsys.readouterr().out == text


def test_every_report_column_is_documented():
    """Each column or key a command writes is a word of docs/measure_schema.md."""
    words = set(re.findall(r"\w+", SCHEMA.read_text(encoding="utf-8")))
    columns = [
        *(f.name for f in fields(AnnulusReport)),
        *DENSITY_COLUMNS,
        *E2_COLUMNS,
        *(f.name for f in fields(HypothesisReport)),
    ]
    assert [c for c in columns if c not in words] == []
