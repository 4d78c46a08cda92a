"""The text report files: CSV tables and JSON documents.

Every text report the package writes or prints goes through these two
functions, so all reports follow one set of rules: UTF-8, a CSV header even
when there are no rows, JSON indented by 2 with a trailing newline.
"""

from __future__ import annotations

import csv
import json
import sys

__all__ = ["write_csv", "write_json"]


def write_csv(path, fields, rows) -> None:
    """Write the header fields, then one line per row (a sequence of values)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def write_json(path, data) -> None:
    """Write data as JSON to the file path, or to standard output if path is None or empty."""
    text = json.dumps(data, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
