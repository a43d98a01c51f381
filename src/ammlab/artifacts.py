"""The one text format of every CSV and JSON artifact the lab writes.

CSV cells are written unformatted: ``csv`` renders Python floats and
numpy float64 scalars alike as their shortest round-trip text, so a cell
parses back with ``float()`` or ``read_columns`` to the same bits. JSON
documents are indented and key-sorted so reruns diff cleanly.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings

import numpy as np

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


def _parse_rows(lines, dtype):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _first_bad_line(path, dtype):
    """(1-based file line, text) of the first data row that does not parse, or None.

    Rows parse independently, so a chunk that fails holds the first bad
    row; only that chunk is parsed again line by line.
    """
    with open(path) as fh:
        fh.readline()
        first = 2
        while chunk := list(itertools.islice(fh, _CHUNK_ROWS)):
            try:
                _parse_rows(chunk, dtype)
            except ValueError:
                for n, line in enumerate(chunk, start=first):
                    try:
                        _parse_rows([line], dtype)
                    except ValueError:
                        return n, line.rstrip("\r\n")
            first += len(chunk)
    return None


def read_columns(path, header, dtypes):
    """The columns of a CSV whose first line must equal ``header``.

    One ``np.loadtxt`` pass parses the data rows into one record array,
    field ``k`` of dtype ``dtypes[k]``; the columns are views of its fields.
    A row that does not parse, including one starting with ``#``, raises
    ``ValueError`` naming the file and its line (the header is line 1);
    blank lines are skipped. A file with only the header gives zero-length
    columns.
    """
    dtype = list(zip(header, dtypes))
    with open(path) as fh:
        found = fh.readline().rstrip("\n").split(",")
        if found != list(header):
            raise ValueError(f"{path}: expected header {list(header)}, got {found}")
        try:
            table = _parse_rows(fh, dtype)
        except ValueError as err:
            bad = _first_bad_line(path, dtype)
            if bad is None:
                raise ValueError(f"{path}: {err}") from err
            n, line = bad
            raise ValueError(
                f"{path}: line {n}: {line!r} is not {len(dtype)} cells of "
                + ", ".join(f"{name} ({np.dtype(t).name})" for name, t in dtype)
            ) from err
    return tuple(table[name] for name in header)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
