"""Property tests of the CSV format.

The format is a fixed point of write -> load -> write, the writer's
numpy path writes the bytes of Python's %, and the loader reports the
same first bad line, or loads the same bytes, as a loader that checks
each line in turn.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from conftest import dataset_from_rows
from hypothesis import given, settings, strategies as st
from test_data import reference_table, ulps_from

from socdfn.data import (
    _CHUNK_CHARS,
    _PREDICTION_FMT,
    _ROW_FMT,
    CSV_HEADER,
    FEATURES_HEADER,
    load_csv,
    load_features_csv,
    write_csv,
    write_table,
)
from socdfn.errors import DataError

_FINITE = dict(allow_nan=False, allow_infinity=False)
# Any finite row the loader accepts after the writer's rounding: positive
# voltage at 10 mV resolution and SOC in [0, 100]. Times are sorted below.
_ROW = st.tuples(
    st.floats(0.0, 1e6, **_FINITE),
    st.floats(0.01, 10.0, **_FINITE),
    st.floats(-1e3, 1e3, **_FINITE),
    st.floats(-50.0, 150.0, **_FINITE),
    st.floats(0.0, 100.0, **_FINITE),
)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(st.lists(_ROW, min_size=1, max_size=40))
def test_write_load_write_is_byte_identical(rows):
    rows.sort(key=lambda row: row[0])
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first.csv"
        second = Path(tmp) / "second.csv"
        write_csv(dataset_from_rows(rows), first)
        write_csv(load_csv(first), second)
        assert second.read_bytes() == first.read_bytes()


_FIXED_FORMATS = [
    "%.1f,%.1f\n", "%.2f,%.2f\n", "%.3f,%.3f\n", "%.6f,%.6f\n", _ROW_FMT, _PREDICTION_FMT
]


def _cells(places):
    """Per table, one kind of cell: any finite float, one the numpy path
    takes, an exact binary fraction, or one within 3 ulps of a decimal half."""
    near_half = st.builds(
        lambda k, steps: ulps_from((k + 0.5) / 10**places, steps),
        st.integers(-(10**12), 10**12),
        st.integers(-3, 3),
    )
    return st.sampled_from([
        st.floats(**_FINITE),
        st.floats(-1e6, 1e6, **_FINITE),
        st.builds(lambda k, e: k / 2.0**e, st.integers(-(10**6), 10**6), st.integers(0, 12)),
        near_half,
    ])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_fixed_point_writer_matches_percent_formatting(data):
    row_fmt = data.draw(st.sampled_from(_FIXED_FORMATS))
    cells = data.draw(_cells(int(row_fmt[2])))  # near the first field's halves
    n_rows = data.draw(st.integers(0, 30))
    column = st.lists(cells, min_size=n_rows, max_size=n_rows).map(np.array)
    columns = [data.draw(column) for _ in range(row_fmt.count("%"))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_table(path, "h", row_fmt, columns)
        assert path.read_bytes() == reference_table("h", row_fmt, columns)


# The loader that checked every value line by line with Python floats,
# kept as the reference for the loader's errors and columns.
def _reference_check_row(values, line):
    for field_name, value in zip(CSV_HEADER.split(","), values):
        if not math.isfinite(value):
            raise DataError(f"non-finite value in column {field_name}", line=line)
    _, voltage, _, _, soc = values
    if not 0.0 <= soc <= 100.0:
        raise DataError(f"soc_pct {soc!r} outside [0, 100]", line=line)
    if voltage <= 0.0:
        raise DataError(f"voltage_v {voltage!r} must be positive", line=line)


def _reference_parse_floats(fields, line):
    # A number is ASCII, holds no digit-group underscore and has no
    # surrounding whitespace, though float() would take all three.
    values = []
    for token in fields:
        try:
            if not token.isascii() or "_" in token or token.strip() != token:
                raise ValueError(token)
            values.append(float(token))
        except ValueError:
            raise DataError(f"cannot parse {token!r} as a number", line=line) from None
    return values


def _reference_read_columns(path, require_soc):
    headers = {CSV_HEADER: 5} if require_soc else {CSV_HEADER: 5, FEATURES_HEADER: 4}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header not in headers:
            expected = " or ".join(map(repr, headers))
            raise DataError(f"bad header {header!r}, expected {expected}", line=1)
        n_fields = headers[header]
        flat = []
        prev_t = -math.inf
        for line_no, raw in enumerate(fh, start=2):
            line = raw.rstrip("\r\n")
            if line == "":
                raise DataError("blank line", line=line_no)
            fields = line.split(",")
            if len(fields) != n_fields:
                raise DataError(
                    f"expected {n_fields} fields, got {len(fields)}", line=line_no
                )
            values = _reference_parse_floats(fields, line_no)
            if n_fields == 4:
                values.append(0.0)
            if require_soc:
                _reference_check_row(values, line_no)
            elif not all(math.isfinite(v) for v in values):
                raise DataError("non-finite value", line=line_no)
            t = values[0]
            if t < prev_t:
                raise DataError(f"t_s {t!r} decreases from previous row", line=line_no)
            prev_t = t
            flat.extend(values)
    if not flat:
        raise DataError("empty dataset (no data rows)")
    return np.array(flat, dtype=np.float64).reshape(-1, 5).T.copy()


_TOKEN = {
    "bad token": st.sampled_from(
        ["x", "", "1.2.3", "--1", "0x10", "1e", "4_2", " 1", "1 ", "\t1", "1\x1c", "\u0661"]
    ),
    "non-finite": st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400"]),
    "soc": st.sampled_from(["100.5", "-0.001", "1e3", "100.000001"]),
    "voltage": st.sampled_from(["0", "0.0", "-0.0", "-1.5"]),
    "time": st.sampled_from(["-1.0", "-1e-9"]),
}
# The field each corruption writes into; None picks any field.
_FIELD = {"bad token": None, "non-finite": None, "soc": 4, "voltage": 1, "time": 0}
_KINDS = ("blank", "field count", *_TOKEN)


@st.composite
def _corrupted_csv(draw):
    """A valid 4- or 5-column CSV text with 0 to 2 lines corrupted."""
    n_fields = draw(st.sampled_from([4, 5]))
    rows = draw(st.lists(_ROW, max_size=12))
    rows.sort(key=lambda row: row[0])
    lines = [",".join(map(repr, row[:n_fields])) for row in rows]
    for _ in range(draw(st.integers(0, min(2, len(lines))))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(_KINDS))
        fields = lines[i].split(",")
        if kind == "blank":
            fields = [""]
        elif kind == "field count":
            fields = fields[:-1] if draw(st.booleans()) else [*fields, "1.0"]
        else:
            field = _FIELD[kind]
            if field is None:
                field = draw(st.integers(0, len(fields) - 1))
            if field < len(fields):
                fields[field] = draw(_TOKEN[kind])
        lines[i] = ",".join(fields)
    header = CSV_HEADER if n_fields == 5 else FEATURES_HEADER
    return "".join(line + "\n" for line in [header, *lines])


def _outcome(load, path):
    """The loaded columns' bytes, or the DataError's message."""
    try:
        result = load(path)
    except DataError as err:
        return f"DataError: {err}"
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return np.stack(result.columns).tobytes()


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_corrupted_csv())
def test_loader_matches_line_by_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cycle.csv"
        path.write_text(text, encoding="utf-8")
        for load, require_soc in ((load_csv, True), (load_features_csv, False)):
            expected = _outcome(lambda p: _reference_read_columns(p, require_soc), path)
            assert _outcome(load, path) == expected


_LOADERS = ((load_csv, True), (load_features_csv, False))


def _cycle_lines(n, seed=0):
    """Header and n valid rows whose fields print every digit of repr()."""
    rng = np.random.default_rng(seed)
    rows = zip(
        np.arange(n) + rng.uniform(0.0, 0.5, n),
        rng.uniform(3.0, 4.2, n),
        rng.uniform(-2.0, 1.0, n),
        rng.uniform(20.0, 40.0, n),
        rng.uniform(0.0, 100.0, n),
    )
    return [CSV_HEADER] + [",".join(repr(float(v)) for v in row) for row in rows]


def _chunks(path):
    """The data lines of path as _read_columns reads them, chunk by chunk."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return list(iter(lambda: fh.readlines(_CHUNK_CHARS), []))


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_chunked_file_loads_the_reference_bits(tmp_path, newline):
    path = tmp_path / "cycle.csv"
    path.write_bytes(newline.join(_cycle_lines(3000)).encode() + newline.encode())
    assert len(_chunks(path)) >= 3
    for load, require_soc in _LOADERS:
        loaded = _outcome(load, path)
        assert isinstance(loaded, bytes)
        assert loaded == _outcome(lambda p: _reference_read_columns(p, require_soc), path)


@pytest.mark.parametrize("bad", ["x", "4_2", " 1", "1 ", "\u0661", "blank line"])
@pytest.mark.parametrize("value_fault", [None, "before", "after"])
def test_fault_in_the_second_chunk_reports_its_line(tmp_path, bad, value_fault):
    # The bad line sits mid-way through the second chunk; a time that
    # decreases on the line before it is reported instead, one on the
    # line after it is not.
    lines = _cycle_lines(3000)
    offset = 0
    bad_index = 1
    while offset < 1.5 * _CHUNK_CHARS:
        offset += len(lines[bad_index]) + 1
        bad_index += 1
    if bad == "blank line":
        lines[bad_index] = ""
    else:
        fields = lines[bad_index].split(",")
        fields[2] = bad
        lines[bad_index] = ",".join(fields)
    if value_fault is not None:
        fault_index = bad_index + (1 if value_fault == "after" else -1)
        lines[fault_index] = "-1.0" + lines[fault_index][lines[fault_index].index(","):]
    path = tmp_path / "cycle.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    chunks = _chunks(path)
    assert len(chunks[0]) < bad_index - 1 < len(chunks[0]) + len(chunks[1])
    reported = bad_index if value_fault != "before" else bad_index - 1
    for load, require_soc in _LOADERS:
        got = _outcome(load, path)
        assert got == _outcome(lambda p: _reference_read_columns(p, require_soc), path)
        assert got.startswith(f"DataError: line {reported + 1}: ")
