"""The one text format of every CSV and JSON artifact the lab writes.

The one binary artifact, the copy of the bar columns that
``marketdata.write_bars_csv`` writes beside ``bars.csv``, is not covered
here: ``marketdata`` owns it with the bar layout it mirrors.

CSV dialect: cells are separated by ``,`` and rows end in ``\r\n``; no
cell needs quoting, and ``write_columns`` refuses one that would. Floats
are their shortest round-trip text (``repr``), ints and labels their
``str``, so a cell parses back with ``float()`` or ``read_columns`` to the
same bits. These are the bytes ``csv.writer``'s default dialect emits,
which ``write_csv`` uses for small row-shaped files. JSON documents are
indented and key-sorted so reruns diff cleanly.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import warnings

import numpy as np

_CHUNK_ROWS = 4096
_NEEDS_QUOTING = re.compile(r'\A\Z|[,"\r\n]')  # csv quotes an empty row's only cell


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_labels(labels) -> None:
    for label in labels:
        if _NEEDS_QUOTING.search(label):
            raise ValueError(f"cell {label!r} would need quoting")


def cell_texts(column) -> list[str]:
    """The text of each cell of a column, each distinct value formatted once.

    Floats are told apart by bit pattern, so -0.0 and every NaN keep their
    own text. ``str`` of a list renders floats by ``repr`` and ints by
    ``str``, with no Python call per value. Label columns pass through,
    after the quoting check ``write_columns`` applies.
    """
    if column.dtype.kind in "OU":
        cells = column.tolist()
        _check_labels(set(cells))
        return cells
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = str(distinct.view(column.dtype).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].tolist()


def write_columns(path, header, columns) -> None:
    """Write equal-length numpy columns as CSV rows, ``_CHUNK_ROWS`` at a time.

    Float columns must be float64; label columns hold str (dtype ``U`` or
    object). The bytes equal ``write_csv`` of the columns' ``tolist()``
    rows. Raises ``ValueError`` for columns of unequal length or for a
    header or label cell that is empty or holds ``,``, ``"``, ``\r`` or
    ``\n``: it is refused, never quoted.
    """
    _check_labels(header)
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"columns of unequal length: {[len(col) for col in columns]}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            cells = [cell_texts(col[start : start + _CHUNK_ROWS]) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
