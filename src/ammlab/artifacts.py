"""The one text format of every CSV and JSON artifact the lab writes.

CSV cells are written unformatted: ``csv`` renders Python floats and
numpy float64 scalars alike as their shortest round-trip text, so a cell
parses back with ``float()`` to the same bits. JSON documents are
indented and key-sorted so reruns diff cleanly.
"""

from __future__ import annotations

import csv
import json

_CHUNK_ROWS = 4096


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def column_rows(*columns):
    """Rows of equal-length numpy columns as Python scalars.

    Converted a chunk at a time: whole-column lists cost ~55 MB of peak
    RSS for a 240k-bar series, a chunk well under 1 MB.
    """
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        yield from zip(*(col[start : start + _CHUNK_ROWS].tolist() for col in columns))


def read_csv(path, header):
    """Yield the data rows of a CSV whose first row must equal ``header``.

    Lazy, so a caller that converts rows as they come never holds the
    file's text; the header is checked when iteration starts.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"{path}: expected header {list(header)}, got {found}")
        yield from reader


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
