"""Property test: the CSV format is a fixed point of write -> load -> write."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from conftest import dataset_from_rows
from hypothesis import given, settings, strategies as st

from socdfn.data import load_csv, write_csv

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
