"""CSV/JSON/JSONL readers and writers shared by the CLI and tests.

Every reader reads its file's text once, as UTF-8, and names the file, and
the line, of what it cannot read. Series CSV schema: header
``t,x0..x{D-1},y0..y{C-1}``; for plain time series ``x0`` equals ``t``. A
well-formed series CSV is parsed by one ``np.loadtxt`` call; text that call
does not accept is parsed again row by row, which names the faulty row.
Only numpy is needed here: nothing in this module loads scipy, which only
dense GP factors use. JSONL files are written with sorted keys and compact
separators so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .window import TimeSeriesWindow


def _series_header(d: int, c: int) -> list[str]:
    return ["t"] + [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(c)]


def write_series_csv(path, window: TimeSeriesWindow) -> None:
    """Write ``window`` with CRLF line ends and ``repr`` floats, which read back exactly."""
    rows = np.hstack([window.inputs, window.outputs]).tolist()
    lines = [",".join(_series_header(window.input_dim, window.channel_count))]
    lines += [",".join([str(t)] + [repr(v) for v in row])
              for t, row in enumerate(rows, start=window.start_index)]
    with Path(path).open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _read_text(path: Path) -> str:
    """The text of ``path``; bytes that are not UTF-8 are a ValueError naming
    the file and the line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})") from None


def read_series_csv(path) -> TimeSeriesWindow:
    path = Path(path)
    text = _read_text(path)
    fh = io.StringIO(text, newline="")
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise ValueError(f"{path}: empty CSV") from None
    if not header or header[0] != "t":
        raise ValueError(f"{path}: first column must be 't', got {header[:1]}")
    d = sum(1 for name in header if name.startswith("x"))
    c = len(header) - 1 - d
    if d == 0 or c == 0 or header != _series_header(d, c):
        raise ValueError(f"{path}: header must be t,x0..x{{D-1}},y0..y{{C-1}} but is {header}")
    body = fh.read()
    rows = None
    if body.strip():
        row = np.dtype([("t", np.int64), ("v", np.float64, (d + c,))])
        try:
            # comments=None: a '#' line is a malformed row, as it is row by row.
            rows = np.loadtxt(io.StringIO(body), dtype=row, delimiter=",",
                              comments=None, ndmin=1)
        except ValueError:
            pass
    if rows is not None and len(rows) and np.array_equal(
            rows["t"], np.arange(rows["t"][0], rows["t"][0] + len(rows))):
        values = rows["v"]
        return TimeSeriesWindow(np.ascontiguousarray(values[:, :d]),
                                np.ascontiguousarray(values[:, d:]),
                                start_index=int(rows["t"][0]))
    return _read_series_rows(path, text, d, c)


def _read_series_rows(path: Path, text: str, d: int, c: int) -> TimeSeriesWindow:
    """Row-by-row parse of the ``text`` of ``path`` for what ``np.loadtxt``
    rejects; raises on the first fault."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    ts, xs, ys = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 1 + d + c:
            raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {1 + d + c}")
        try:
            ts.append(int(row[0]))
            xs.append([float(v) for v in row[1:1 + d]])
            ys.append([float(v) for v in row[1 + d:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: {exc}") from None
    if not ts:
        raise ValueError(f"{path}: no data rows")
    start = ts[0]
    if ts != list(range(start, start + len(ts))):
        raise ValueError(f"{path}: timestamps are not contiguous from {start}")
    return TimeSeriesWindow(np.array(xs), np.array(ys), start_index=start)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, records: list[dict]) -> None:
    with Path(path).open("w") as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")


def numbered_jsonl(path) -> Iterator[tuple[int, object]]:
    """``(line number, record)`` for each non-blank line of a JSONL file."""
    for lineno, line in enumerate(io.StringIO(_read_text(Path(path)), newline=None), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        yield lineno, record


def read_jsonl(path) -> list:
    return [record for _, record in numbered_jsonl(path)]


def write_json(path, obj) -> None:
    with Path(path).open("w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from None
