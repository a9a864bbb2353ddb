"""Series CSV reader and writer: the one-call numpy parse against the
row-by-row reader, byte-identical output against the csv-module writer,
and the header contract."""

import csv

import numpy as np
import pytest

from gocpd.fileio import (_read_series_rows, _read_text, read_json, read_jsonl,
                          read_series_csv, write_series_csv)
from gocpd.window import TimeSeriesWindow


def csv_module_writer(path, window):
    """The writer as it was before lines were built from ``tolist()``."""
    d, c = window.input_dim, window.channel_count
    header = ["t"] + [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(c)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(window)):
            row = [window.start_index + i]
            row += [repr(float(v)) for v in window.inputs[i]]
            row += [repr(float(v)) for v in window.outputs[i]]
            writer.writerow(row)


def random_window(n, d, c, start, seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(start, start + n, dtype=float)[:, None] * np.ones(d)
    x[:, 1:] = rng.normal(size=(n, d - 1))
    y = rng.normal(size=(n, c)) * 10.0 ** rng.integers(-12, 12, size=(n, c))
    return TimeSeriesWindow(x, y, start_index=start)


CASES = [(n, d, c, start) for n in (1, 57) for d in (1, 2) for c in (1, 3) for start in (0, 37)]


@pytest.mark.parametrize("n,d,c,start", CASES)
def test_numpy_parse_matches_row_reader_bit_for_bit(tmp_path, n, d, c, start):
    w = random_window(n, d, c, start, seed=n + 10 * d + 100 * c + start)
    path = tmp_path / "series.csv"
    write_series_csv(path, w)
    assert path.read_bytes().count(b"\r\n") == n + 1
    fast, rows = read_series_csv(path), _read_series_rows(path, _read_text(path), d, c)
    for back in (fast, rows):
        assert back.start_index == start and type(back.start_index) is int
        assert back.inputs.tobytes() == w.inputs.tobytes()
        assert back.outputs.tobytes() == w.outputs.tobytes()
        assert back.inputs.flags["C_CONTIGUOUS"] and back.outputs.flags["C_CONTIGUOUS"]
    assert fast.inputs.shape == rows.inputs.shape == (n, d)
    assert fast.outputs.shape == rows.outputs.shape == (n, c)


@pytest.mark.parametrize("n,d,c,start", CASES)
def test_writer_matches_csv_module_bytes(tmp_path, n, d, c, start):
    w = random_window(n, d, c, start, seed=7)
    w.outputs[0, 0] = -0.0
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_series_csv(new, w)
    csv_module_writer(old, w)
    assert new.read_bytes() == old.read_bytes()


MALFORMED = [
    ("t,x0,y0\n0,0.0,1.0\n1,oops,2.0\n",
     "row 3: could not convert string to float: 'oops'"),
    ("t,x0,y0\n0,0.0,1.0\n1,1.0\n", "row 3 has 2 fields, expected 3"),
    ("t,x0,y0\n0,0.0,1.0\n2,2.0,2.0\n", "timestamps are not contiguous from 0"),
    ("", "empty CSV"),
    ("t,x0,y0\r\n", "no data rows"),
    ("t,x0,y0\n0,0.0,1.0\n1.0,1.0,2.0\n",
     "row 3: invalid literal for int() with base 10: '1.0'"),
    ("t,x0,y0\n0,0.0,1.0\n# comment\n", "row 3 has 1 fields, expected 3"),
    ("time,x0,y0\n0,0.0,1.0\n", "first column must be 't', got ['time']"),
]


@pytest.mark.parametrize("text,message", MALFORMED)
def test_malformed_files_keep_the_row_reader_messages(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_series_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_rows_loadtxt_rejects_are_read_row_by_row(tmp_path):
    # Blank lines, quoted fields and underscores in numbers parse row by row.
    path = tmp_path / "odd.csv"
    path.write_text('t,x0,y0\n5,"1.5",2\n\n6,1_0,3\n')
    back = read_series_csv(path)
    assert back.start_index == 5
    assert back.inputs.ravel().tolist() == [1.5, 10.0]
    assert back.outputs.ravel().tolist() == [2.0, 3.0]


@pytest.mark.parametrize("header", ["t,y0,x0", "t,x1,y0", "t,x0,y1", "t,x0,x1,y0,z0",
                                    "t,y0", "t,x0", "t,x0,y0,y0"])
def test_header_must_be_exact(tmp_path, header):
    path = tmp_path / "swapped.csv"
    fields = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["0"] * fields) + "\n")
    with pytest.raises(ValueError, match="header must be") as info:
        read_series_csv(path)
    assert str(path) in str(info.value)


def test_malformed_jsonl_line_is_named(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n{"b": \n')
    with pytest.raises(ValueError) as info:
        read_jsonl(path)
    assert str(info.value).startswith(f"{path}: line 3: Expecting value")


@pytest.mark.parametrize("reader, data, message", [
    (read_json, b"\xff{}", "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
    (read_json, '{"nu1": 2}'.encode("utf-16"), "line 1: byte 0xff is not UTF-8"),
    (read_series_csv, b"t,x0,y0\r\n0,0.0,1.0\r\n1,1.0,\xff\r\n",
     "line 3: byte 0xff is not UTF-8"),
    (read_jsonl, b'{"a": 1}\n{"b": "\xe2\x82"}\n', "line 2: byte 0xe2 is not UTF-8"),
])
def test_text_that_is_not_utf8_names_the_file_and_line(tmp_path, reader, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: {message}")
