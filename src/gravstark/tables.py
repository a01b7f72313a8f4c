"""Deterministic CSV / JSON table emission for the command-line front end.

CSV output carries a header row, RFC-4180 quoting, LF line endings, and
floats rendered as their shortest round-trip decimal.  JSON output is an
array of objects whose key order follows the row mapping order.  Identical
rows produce byte-identical output.
"""

from __future__ import annotations

import csv
from typing import IO, Mapping, Sequence

__all__ = ["emit_table", "emit_record"]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_table(rows: Sequence[Mapping], output_format: str, sink: IO[str]) -> None:
    """Write homogeneous ``rows`` to ``sink`` as CSV or JSON; the first row's
    keys are the header, so the table must not be empty."""
    if not rows:
        raise ValueError("cannot emit an empty table")
    fieldnames = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != fieldnames:
            raise ValueError("rows are not homogeneous")

    if output_format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_cell(row[name]) for name in fieldnames])
    elif output_format == "json":
        import json  # here, so that CSV output never loads it

        payload = [{name: row[name] for name in fieldnames} for row in rows]
        json.dump(payload, sink, indent=2)
        sink.write("\n")
    else:
        raise ValueError(f"unknown output format: {output_format!r}")


def emit_record(record: Mapping, output_format: str, sink: IO[str]) -> None:
    """Write a single record: one-row table as CSV, bare object as JSON."""
    if output_format == "json":
        import json

        json.dump(dict(record), sink, indent=2)
        sink.write("\n")
    else:
        emit_table([record], output_format, sink)
