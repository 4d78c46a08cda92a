import csv
import io
import json
import re
from pathlib import Path

from expdyn import cli
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


# A tiny run of each command that writes a report, to which an --out file is
# added; render and exceptional write images and lemma-verify plain lines.
REPORT_RUNS = {
    "check": ["--fn", "sin_z3"],
    "e2measure": ["--fn", "sin_z3", "--r-min", "10", "--r-max", "20", "--nr", "16", "--ntheta", "256"],
    "annulus-scan": ["--fn", "sin_z3", "--r", "5", "--samples", "10"],
    "grid-bound": ["--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", "1"],
    "counterexample": ["--r0", "100", "--R", "1000", "--samples", "10"],
}


def test_every_report_column_is_documented(tmp_path, capsys):
    """Each column or key a command writes is a word of docs/measure_schema.md:
    the keys are read from REPORT_RUNS, from the --out file (a JSON object or
    a CSV header) and from any JSON object on standard output."""
    assert set(REPORT_RUNS) == set(cli._COMMANDS) - {"render", "exceptional", "lemma-verify"}
    words = set(re.findall(r"\w+", SCHEMA.read_text(encoding="utf-8")))
    keys = {}
    for cmd, args in REPORT_RUNS.items():
        path = tmp_path / cmd
        assert cli.main([cmd, *args, "--out", str(path)]) == 0
        text, out = path.read_text(encoding="utf-8"), capsys.readouterr().out
        in_file = json.loads(text) if text.startswith("{") else next(csv.reader(io.StringIO(text)))
        written = [*json.loads(out or "{}"), *in_file]
        assert written, cmd
        keys.update(dict.fromkeys(written, cmd))
    assert {k: cmd for k, cmd in keys.items() if k not in words} == {}
