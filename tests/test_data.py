"""Tests for CSV handling, normalization, splits, folds and batching."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import dataset_from_rows, rows_of

from socdfn import data as data_module
from socdfn.battsim import CellParams, CycleConfig, synth_dataset
from socdfn.data import (
    _CSV_FIELDS,
    _PREDICTION_FMT,
    _ROW_FMT,
    _TABLE_CHUNK_ROWS,
    CSV_HEADER,
    FEATURES_HEADER,
    MIN_WRITTEN_VOLTAGE_V,
    Dataset,
    apply_normalizer,
    batch_iter,
    concat_datasets,
    feature_matrix,
    fit_normalizer,
    fold_datasets,
    kfold_split,
    load_csv,
    load_features_csv,
    normalize_features,
    split_holdout,
    write_csv,
    write_predictions_csv,
    write_table,
)
from socdfn.errors import (
    ConfigError,
    DataError,
    DegenerateFeatureError,
    ShapeError,
)


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        rows.append(
            (
                float(i),
                float(3.0 + rng.uniform(0.0, 1.2)),
                float(rng.uniform(-1.0, 0.5)),
                float(25.0 + rng.uniform(-2.0, 8.0)),
                float(rng.uniform(0.0, 100.0)),
            )
        )
    return dataset_from_rows(rows)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_LINES = [
    CSV_HEADER,
    "0.000,4.20,-0.500,25.00,100.000000",
    "1.000,4.19,-0.500,25.01,99.995211",
    "2.000,4.19,-0.480,25.02,99.990613",
]


class TestLoadCsv:
    def test_loads_rows(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_lines(path, GOOD_LINES)
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.voltage[0] == 4.20
        assert ds.soc[2] == 99.990613

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_lines(path, [CSV_HEADER])
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path)

    def test_bad_header_line_1(self, tmp_path):
        path = tmp_path / "hdr.csv"
        write_lines(path, ["time,v,i,temp,soc", "0,4.2,0,25,50"])
        with pytest.raises(DataError, match="line 1"):
            load_csv(path)

    def test_soc_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "soc.csv"
        write_lines(path, GOOD_LINES + ["3.000,4.18,-0.500,25.00,100.500000"])
        with pytest.raises(DataError, match="line 5"):
            load_csv(path)

    def test_negative_soc_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        write_lines(path, [CSV_HEADER, "0.000,4.20,-0.5,25.00,-0.000001"])
        with pytest.raises(DataError, match=r"outside \[0, 100\]"):
            load_csv(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "tok.csv"
        write_lines(path, [CSV_HEADER, "0.000,abc,-0.5,25.00,50.0"])
        with pytest.raises(DataError, match="line 2.*'abc'"):
            load_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_lines(path, [CSV_HEADER, "0.000,nan,-0.5,25.00,50.0"])
        with pytest.raises(DataError, match="non-finite.*voltage_v"):
            load_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "fields.csv"
        write_lines(path, [CSV_HEADER, "0.000,4.20,-0.5,25.00"])
        with pytest.raises(DataError, match="line 2.*expected 5 fields, got 4"):
            load_csv(path)

    def test_time_must_not_decrease(self, tmp_path):
        path = tmp_path / "time.csv"
        write_lines(
            path,
            [
                CSV_HEADER,
                "1.000,4.20,-0.5,25.00,50.0",
                "0.500,4.20,-0.5,25.00,50.0",
            ],
        )
        with pytest.raises(DataError, match="line 3.*decreases"):
            load_csv(path)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            CSV_HEADER + "\n0.000,4.20,-0.5,25.00,50.0\n\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="line 3.*blank"):
            load_csv(path)

    def test_zero_voltage_rejected(self, tmp_path):
        path = tmp_path / "volt.csv"
        write_lines(path, [CSV_HEADER, "0.000,0.00,-0.5,25.00,50.0"])
        with pytest.raises(DataError, match="must be positive"):
            load_csv(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "missing.csv")

    def test_parsed_values_are_held_as_float64(self, tmp_path):
        # Five Python floats in a list take 5 * 32 bytes a row; the
        # loader holds its values as raw float64 until the columns are
        # built, so its peak stays below three float64 copies of them.
        n = 20_000
        path = tmp_path / "big.csv"
        write_csv(make_dataset(n), path)
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n
        assert peak < 3 * 8 * 5 * n


class TestLoadFeaturesCsv:
    def test_four_column_schema(self, tmp_path):
        path = tmp_path / "feat.csv"
        write_lines(
            path,
            ["t_s,voltage_v,current_a,temp_c", "0.000,4.20,-0.500,25.00"],
        )
        ds = load_features_csv(path)
        assert len(ds) == 1
        assert ds.soc[0] == 0.0

    def test_five_column_schema_accepted(self, tmp_path):
        path = tmp_path / "full.csv"
        write_lines(path, GOOD_LINES)
        ds = load_features_csv(path)
        assert len(ds) == 3

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["a,b,c,d", "0,1,2,3"])
        with pytest.raises(DataError, match="line 1"):
            load_features_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_lines(path, [FEATURES_HEADER, "0.000,4.20,-0.500,25.00",
                           "1.000,4.20,nan,25.00"])
        with pytest.raises(DataError, match=r"^line 3: non-finite value$"):
            load_features_csv(path)

    def test_time_must_not_decrease(self, tmp_path):
        path = tmp_path / "time.csv"
        write_lines(path, [FEATURES_HEADER, "1.000,4.20,-0.5,25.00",
                           "0.500,4.20,-0.5,25.00"])
        with pytest.raises(DataError, match="line 3.*decreases"):
            load_features_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "fields.csv"
        write_lines(path, [FEATURES_HEADER, "0.000,4.20,-0.5,25.00,50.0"])
        with pytest.raises(DataError, match="line 2.*expected 4 fields, got 5"):
            load_features_csv(path)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            FEATURES_HEADER + "\n0.000,4.20,-0.5,25.00\n\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="line 3.*blank"):
            load_features_csv(path)


@pytest.mark.parametrize("loader, expected", [
    (load_csv, repr(CSV_HEADER)),
    (load_features_csv, f"{CSV_HEADER!r} or {FEATURES_HEADER!r}"),
])
def test_bad_header_names_every_accepted_header(tmp_path, loader, expected):
    path = tmp_path / "hdr.csv"
    write_lines(path, ["a,b,c,d", "0,1,2,3"])
    with pytest.raises(DataError) as info:
        loader(path)
    assert str(info.value) == f"line 1: bad header 'a,b,c,d', expected {expected}"


@pytest.mark.parametrize("loader, header, bad_row, message", [
    (load_csv, CSV_HEADER, "1.000,4.19,-0.480,25.02,100.5",
     r"^line 3: soc_pct 100\.5 outside \[0, 100\]$"),
    (load_features_csv, FEATURES_HEADER, "0.500,4.19,-0.480,25.02",
     r"^line 3: t_s 0\.5 decreases from previous row$"),
])
def test_first_bad_line_is_reported(tmp_path, loader, header, bad_row, message):
    # Line 3 fails a range check and line 5 cannot be parsed: rows are
    # checked in file order, so line 3 is the one reported.
    good = "1.000,4.20,-0.500,25.00" + (",50.0" if header == CSV_HEADER else "")
    path = tmp_path / "two_errors.csv"
    write_lines(path, [header, good, bad_row, good, good.replace("4.20", "x")])
    with pytest.raises(DataError, match=message):
        loader(path)


@pytest.mark.parametrize("loader, header, row", [
    (load_csv, CSV_HEADER, b"1,3.7\xff,-1,25,50"),
    (load_features_csv, FEATURES_HEADER, b"1,3.7\xff,-1,25"),
], ids=["load_csv", "load_features_csv"])
def test_byte_that_is_not_utf8_makes_its_line_bad(tmp_path, loader, header, row):
    good = row.replace(b"\xff", b"")
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"\n".join([header.encode(), good, row, good]) + b"\n")
    with pytest.raises(DataError) as info:
        loader(path)
    assert str(info.value) == "line 3: cannot parse '3.7\ufffd' as a number"
    path.write_bytes(b"\n".join([header.encode().replace(b"_v", b"\xff_v"), good]) + b"\n")
    with pytest.raises(DataError, match=r"^line 1: bad header 't_s,voltage\ufffd_v,"):
        loader(path)


class TestCsvRoundTrip:
    def test_written_values_reload_exactly(self, tmp_path):
        ds = make_dataset(50, seed=3)
        path = tmp_path / "cycle.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert len(back) == len(ds)
        # A second write of the reloaded data must be byte-identical:
        # the stored precision is a fixed point of the format.
        path2 = tmp_path / "cycle2.csv"
        write_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        ds = make_dataset(20, seed=4)
        path = tmp_path / "p.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert np.all(np.abs(back.voltage - ds.voltage) <= 0.005 + 1e-12)
        assert np.all(np.abs(back.current - ds.current) <= 0.0005 + 1e-12)
        assert np.all(np.abs(back.temperature - ds.temperature) <= 0.005 + 1e-12)
        assert np.all(np.abs(back.soc - ds.soc) <= 5e-7 + 1e-12)

    def test_written_voltage_floor_is_the_smallest_that_prints_positive(self):
        # gen-data refuses a cycle whose voltage would print as 0.00.
        voltage_fmt = _ROW_FMT.split(",")[_CSV_FIELDS.index("voltage_v")]
        assert voltage_fmt % MIN_WRITTEN_VOLTAGE_V == "0.01"
        assert voltage_fmt % np.nextafter(MIN_WRITTEN_VOLTAGE_V, 0) == "0.00"

    def test_predictions_csv(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions_csv(
            np.array([0.0, 1.0]), np.array([55.5, 54.25]), path
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,soc_pred_pct"
        assert lines[1] == "0.000,55.500000"
        assert len(lines) == 3

    def test_predictions_length_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            write_predictions_csv(
                np.array([0.0]), np.array([1.0, 2.0]), tmp_path / "x.csv"
            )


def reference_table(header, row_fmt, columns):
    """The row-by-row writer that write_table must match byte for byte."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return (header + "\n" + "".join(row_fmt % row for row in rows)).encode("utf-8")


def table_columns(kind, n):
    rng = np.random.default_rng(n)
    floats = [rng.normal(scale=50.0, size=n) for _ in range(5)]
    if kind == "csv":
        return _ROW_FMT, floats
    if kind == "predictions":
        return _PREDICTION_FMT, floats[:2]
    if kind == "history":
        return "%d,%r,%r,%r,%r\n", [range(1, n + 1), *floats[:4]]
    labels = [str(i) for i in range(n)]
    return "%s,%r,%r\n", [labels, *floats[:2]]


class TestWriteTable:
    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8195])
    @pytest.mark.parametrize("kind", ["csv", "predictions", "history", "cv"])
    def test_matches_row_by_row_writer(self, tmp_path, kind, rows):
        row_fmt, columns = table_columns(kind, rows)
        path = tmp_path / "t.csv"
        write_table(path, "h", row_fmt, columns)
        assert path.read_bytes() == reference_table("h", row_fmt, columns)

    def test_unequal_columns_rejected_before_any_write(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ShapeError, match="unequal"):
            write_table(path, "h", "%r,%r\n", (np.zeros(3), np.zeros(4)))
        assert not path.exists()

    def test_predictions_write_holds_a_bounded_chunk(self, tmp_path):
        n = 200_000
        times = np.arange(n, dtype=np.float64)
        soc = np.linspace(100.0, 0.0, n)
        tracemalloc.start()
        try:
            write_predictions_csv(times, soc, tmp_path / "p.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # All 400k cells as Python floats at once would be over 12 MB.
        assert peak < 2 * 2**20


def ulps_from(x, steps):
    """x moved steps ulps up (or down, for negative steps)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return float(x)


def near_halves(magnitude, places):
    """Both signs of the floats within 3 ulps of a decimal half near magnitude."""
    half = (math.floor(magnitude * 10**places) + 0.5) / 10**places
    return [sign * ulps_from(half, k) for k in range(-3, 4) for sign in (1.0, -1.0)]


def fixed_format(places, fields=1):
    return ",".join([f"%.{places}f"] * fields) + "\n"


@pytest.fixture
def fixed_point_results(monkeypatch):
    """What each write_table chunk's _fixed_point_rows call returned; None
    means that chunk went to the Python % path."""
    results = []
    fixed_point_rows = data_module._fixed_point_rows

    def recording(part, places):
        results.append(fixed_point_rows(part, places))
        return results[-1]

    monkeypatch.setattr(data_module, "_fixed_point_rows", recording)
    return results


class TestFixedPointWriter:
    """write_table's numpy path writes the bytes of row_fmt % row."""

    def assert_written_as_reference(self, tmp_path, row_fmt, columns):
        path = tmp_path / "t.csv"
        write_table(path, "h", row_fmt, columns)
        assert path.read_bytes() == reference_table("h", row_fmt, columns)

    @pytest.mark.parametrize("places", range(7))
    def test_exact_binary_halves(self, tmp_path, places):
        values = [0.125, 2.5, -0.0625, 0.5, 1.5, -2.5, 0.375, 1023.5, 2.0**-20]
        self.assert_written_as_reference(tmp_path, fixed_format(places), [values])

    @pytest.mark.parametrize("places", [0, 3, 6])
    def test_zeros_and_tiny_negatives_keep_their_sign(self, tmp_path, places):
        values = [0.0, -0.0, -0.0001, -0.0004999, -1e-300, -5e-324, 5e-324, 0.4]
        self.assert_written_as_reference(tmp_path, fixed_format(places), [values])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[2] == "-0" + ("." + "0" * places if places else "")

    @pytest.mark.parametrize("places", [1, 2, 3, 6])
    @pytest.mark.parametrize("magnitude", [1.0, 1e6, 1e12])
    def test_values_within_ulps_of_a_half(self, tmp_path, magnitude, places):
        values = near_halves(magnitude, places)
        self.assert_written_as_reference(tmp_path, fixed_format(places), [values])

    @pytest.mark.parametrize("places", [0, 1, 3, 6])
    def test_values_near_the_exact_range_limits(self, tmp_path, places):
        values = [1e300, -1e300, np.finfo(np.float64).max]
        for power in (50, 53):
            edge = 2.0**power / 10**places
            values += [ulps_from(edge, k) for k in range(-3, 4)]
        self.assert_written_as_reference(tmp_path, fixed_format(places), [values])

    @pytest.mark.parametrize("row_fmt", [_ROW_FMT, _PREDICTION_FMT, "%.3f\n"])
    def test_non_finite_cells(self, tmp_path, row_fmt):
        fields = row_fmt.count("%")
        columns = [[1.5, np.nan, np.inf, -np.inf, -2.25]] * fields
        self.assert_written_as_reference(tmp_path, row_fmt, columns)

    @pytest.mark.parametrize("places", [0, 3])
    def test_integer_column(self, tmp_path, places):
        columns = [np.arange(-3, 4), np.linspace(-1.0, 1.0, 7)]
        self.assert_written_as_reference(tmp_path, fixed_format(places, 2), columns)

    def test_whole_numbers_without_a_point(self, tmp_path, fixed_point_results):
        values = np.array([0.4, -0.4, 0.6, 1234.7, -98765.2, 1e9 + 0.3])
        self.assert_written_as_reference(tmp_path, "%.0f,%.3f\n", [values, values])
        assert all(isinstance(rows, bytes) for rows in fixed_point_results)

    def test_no_rows(self, tmp_path):
        self.assert_written_as_reference(tmp_path, _ROW_FMT, [np.empty(0)] * 5)

    def test_only_the_chunk_that_needs_it_goes_to_the_python_path(
        self, tmp_path, fixed_point_results
    ):
        n = 2 * _TABLE_CHUNK_ROWS + 100
        columns = [np.linspace(-50.0, 50.0, n) + 0.0001, np.arange(n) * 0.01]
        columns[1][_TABLE_CHUNK_ROWS + 7] = 0.125
        self.assert_written_as_reference(tmp_path, "%.4f,%.2f\n", columns)
        assert [rows is None for rows in fixed_point_results] == [False, True, False]

    @pytest.mark.parametrize("writer", ["write_csv", "write_predictions_csv"])
    def test_stock_cycle_formats_no_chunk_on_the_python_path(
        self, tmp_path, fixed_point_results, writer
    ):
        dataset = synth_dataset(CellParams(), CycleConfig())
        if writer == "write_csv":
            write_csv(dataset, tmp_path / "t.csv")
        else:
            write_predictions_csv(dataset.t, dataset.soc, tmp_path / "t.csv")
        assert len(fixed_point_results) == math.ceil(len(dataset) / _TABLE_CHUNK_ROWS)
        assert all(isinstance(rows, bytes) for rows in fixed_point_results)

    def test_csv_write_holds_a_bounded_chunk(self, tmp_path):
        n = 200_000
        t = np.arange(n, dtype=np.float64)
        dataset = Dataset(t, 4.2 - t * 6e-6, -np.abs(np.sin(t)), 25.0 + t * 1e-5, t * 5e-4)
        tracemalloc.start()
        try:
            write_csv(dataset, tmp_path / "c.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The whole table as one character matrix would be over 10 MB.
        assert peak < 2 * 2**20


class TestMatrices:
    def test_feature_order(self):
        ds = dataset_from_rows([(0.0, 4.0, -1.0, 30.0, 80.0)])
        np.testing.assert_array_equal(
            feature_matrix(ds), [[4.0, -1.0, 30.0]]
        )
        np.testing.assert_array_equal(ds.soc, [80.0])
        np.testing.assert_array_equal(ds.t, [0.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            feature_matrix(dataset_from_rows([]))

    def test_columns_are_read_only_contiguous_float64(self):
        t = np.arange(4)
        ds = Dataset(t, t + 3.0, -t, t + 25.0, t * 10.0)
        for column in ds.columns:
            assert column.dtype == np.float64
            assert column.flags.c_contiguous
            assert not column.flags.writeable
        assert feature_matrix(ds).flags.c_contiguous
        other = np.arange(4.0)
        Dataset(other, other, other, other, other)
        other[0] = 7.0  # the caller's own array stays writable

    def test_unequal_columns_rejected(self):
        with pytest.raises(ShapeError, match="equal length"):
            Dataset([0.0, 1.0], [4.0], [0.0], [25.0], [50.0])

    @pytest.mark.parametrize("column, value, field", [
        ("voltage", math.nan, "voltage_v"),
        ("current", math.inf, "current_a"),
    ])
    def test_non_finite_column_rejected(self, column, value, field):
        columns = {c: np.array([0.0, 1.0]) + 4.0 for c in
                   ("t", "voltage", "current", "temperature", "soc")}
        columns[column][1] = value
        with pytest.raises(DataError, match=f"^non-finite value in column {field}$"):
            Dataset(**columns)


class TestNormalizer:
    def test_symmetric_pair_gives_unit_stats(self):
        ds = dataset_from_rows(
            [(0.0, 3.0, -1.0, 24.0, 10.0), (1.0, 5.0, 1.0, 26.0, 20.0)]
        )
        norm = fit_normalizer(ds)
        np.testing.assert_allclose(norm.mean, [4.0, 0.0, 25.0], atol=1e-15)
        np.testing.assert_allclose(norm.std, [1.0, 1.0, 1.0], atol=1e-15)

    def test_population_std_of_three_points(self):
        # Independent hand calculation for values {0, 2, 4}: mean 2 and
        # population variance (4 + 0 + 4) / 3, so std = sqrt(8/3).
        ds = dataset_from_rows(
            [(float(i), float(v + 1.0), float(v), float(v + 20.0), 50.0)
             for i, v in enumerate((0.0, 2.0, 4.0))]
        )
        norm = fit_normalizer(ds)
        assert norm.mean[1] == 2.0
        np.testing.assert_allclose(
            norm.std[1], 1.632993161855452, rtol=0.0, atol=1e-15
        )

    def test_self_fit_is_standard(self):
        ds = make_dataset(500, seed=9)
        norm = fit_normalizer(ds)
        z = apply_normalizer(norm, ds)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-9)

    def test_mean_maps_to_zero_and_sigma_to_one(self):
        ds = make_dataset(100, seed=2)
        norm = fit_normalizer(ds)
        z0 = normalize_features(norm, norm.mean.reshape(1, 3))
        np.testing.assert_allclose(z0, np.zeros((1, 3)), atol=1e-12)
        z1 = normalize_features(norm, (norm.mean + norm.std).reshape(1, 3))
        np.testing.assert_allclose(z1, np.ones((1, 3)), atol=1e-12)

    def test_constant_feature_rejected_by_name(self):
        ds = dataset_from_rows(
            [(float(i), 3.7, float(-i), 25.0 + i, 50.0) for i in range(5)]
        )
        with pytest.raises(DegenerateFeatureError, match="voltage_v"):
            fit_normalizer(ds)

    def test_targets_are_not_normalized(self):
        ds = make_dataset(50, seed=1)
        y = ds.soc
        assert y.max() > 1.5  # still in percent, not z-scores

    def test_wrong_width_rejected(self):
        ds = make_dataset(10)
        norm = fit_normalizer(ds)
        with pytest.raises(ShapeError):
            normalize_features(norm, np.zeros((4, 2)))

    def test_input_is_left_unchanged(self):
        ds = make_dataset(10)
        norm = fit_normalizer(ds)
        x = feature_matrix(ds)
        before = x.copy()
        z = normalize_features(norm, x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(z, (before - norm.mean) / norm.std)


class TestSplitHoldout:
    def test_sizes_80_10_10(self):
        ds = make_dataset(100)
        train, val, test = split_holdout(ds, 0.8, 0.1, seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_remainder_goes_to_test(self):
        ds = make_dataset(10)
        train, val, test = split_holdout(ds, 0.75, 0.1, seed=0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_partition_is_disjoint_and_complete(self):
        ds = make_dataset(57, seed=5)
        train, val, test = split_holdout(ds, 0.6, 0.2, seed=12)
        seen = np.concatenate((train.t, val.t, test.t)).tolist()
        assert sorted(seen) == [float(i) for i in range(57)]
        assert len(set(seen)) == 57

    def test_same_seed_reproduces(self):
        ds = make_dataset(40)
        a = split_holdout(ds, 0.8, 0.1, seed=7)
        b = split_holdout(ds, 0.8, 0.1, seed=7)
        for left, right in zip(a, b):
            assert np.array_equal(rows_of(left), rows_of(right))

    def test_different_seeds_differ(self):
        ds = make_dataset(40)
        a = split_holdout(ds, 0.8, 0.1, seed=7)
        b = split_holdout(ds, 0.8, 0.1, seed=8)
        assert not np.array_equal(rows_of(a[0]), rows_of(b[0]))

    def test_no_shuffle_keeps_file_order(self):
        ds = make_dataset(10)
        train, val, test = split_holdout(ds, 0.8, 0.1, seed=0, shuffle=False)
        assert train.t.tolist() == [float(i) for i in range(8)]
        assert val.t.tolist() == [8.0]
        assert test.t.tolist() == [9.0]

    def test_splits_keep_row_order(self):
        ds = make_dataset(30)
        train, _, _ = split_holdout(ds, 0.7, 0.15, seed=3)
        ts = train.t.tolist()
        assert ts == sorted(ts)

    def test_bad_fractions(self):
        ds = make_dataset(10)
        with pytest.raises(ConfigError):
            split_holdout(ds, 0.0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            split_holdout(ds, 0.9, 0.1, seed=0)
        with pytest.raises(ConfigError):
            split_holdout(ds, 0.5, -0.1, seed=0)

    def test_too_small_dataset(self):
        ds = make_dataset(2)
        with pytest.raises(ConfigError, match="non-empty"):
            split_holdout(ds, 0.5, 0.25, seed=0)

    def test_normalizer_sees_train_only(self):
        # Rows 0..79 sit near voltage 3.2, rows 80..99 near 4.6. With a
        # positional split the train statistics must reflect only the
        # first region, not the pooled data.
        rows = []
        for i in range(100):
            v = 3.2 if i < 80 else 4.6
            rows.append(
                (float(i), v + 0.01 * (i % 5), -0.5 - 0.001 * i,
                 25.0 + 0.01 * i, 50.0)
            )
        ds = dataset_from_rows(rows)
        train, val, test = split_holdout(ds, 0.8, 0.1, seed=0, shuffle=False)
        norm = fit_normalizer(train)
        x_train = feature_matrix(train)
        np.testing.assert_allclose(norm.mean, x_train.mean(axis=0), rtol=1e-15)
        # Pooled mean voltage is pulled up by the shifted tail; the
        # train-fitted normalizer must not be.
        pooled_v = feature_matrix(ds).mean(axis=0)[0]
        assert norm.mean[0] < pooled_v - 0.2
        z_val = apply_normalizer(norm, val)
        assert z_val[:, 0].mean() > 5.0  # shifted rows land far off-center


class TestKfold:
    def test_even_fold_sizes(self):
        fa = kfold_split(10, 5, seed=0)
        counts = np.bincount(fa.fold_of, minlength=5)
        assert list(counts) == [2, 2, 2, 2, 2]

    def test_uneven_fold_sizes(self):
        fa = kfold_split(7, 4, seed=0)
        counts = sorted(np.bincount(fa.fold_of, minlength=4))
        assert counts == [1, 2, 2, 2]

    def test_every_index_in_exactly_one_fold(self):
        fa = kfold_split(23, 4, seed=3)
        assert len(fa.fold_of) == 23
        assert fa.fold_of.min() >= 0 and fa.fold_of.max() < 4

    def test_deterministic(self):
        a = kfold_split(50, 5, seed=21)
        b = kfold_split(50, 5, seed=21)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_seed_changes_assignment(self):
        a = kfold_split(50, 5, seed=21)
        b = kfold_split(50, 5, seed=22)
        assert not np.array_equal(a.fold_of, b.fold_of)

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            kfold_split(10, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold_split(10, 11, seed=0)
        kfold_split(10, 10, seed=0)  # k == n is legal

    def test_non_integer_k_refused(self):
        with pytest.raises(ConfigError, match=r"^fold count k 2\.5 is not an integer$"):
            kfold_split(10, 2.5, seed=0)

    def test_fold_datasets_partition(self):
        ds = make_dataset(11)
        fa = kfold_split(11, 3, seed=1)
        for fold in range(3):
            train, val = fold_datasets(ds, fa, fold)
            assert len(train) + len(val) == 11
            train_ts = set(train.t.tolist())
            val_ts = set(val.t.tolist())
            assert not train_ts & val_ts

    def test_fold_out_of_range(self):
        ds = make_dataset(10)
        fa = kfold_split(10, 5, seed=0)
        with pytest.raises(ConfigError):
            fold_datasets(ds, fa, 5)

    def test_length_mismatch(self):
        ds = make_dataset(9)
        fa = kfold_split(10, 5, seed=0)
        with pytest.raises(ShapeError):
            fold_datasets(ds, fa, 0)


class TestConcat:
    def test_orders_a_then_b(self):
        a = make_dataset(3, seed=0)
        b = make_dataset(2, seed=1)
        both = concat_datasets(a, b)
        assert len(both) == 5
        assert np.array_equal(rows_of(both)[:3], rows_of(a))
        assert np.array_equal(rows_of(both)[3:], rows_of(b))


class TestBatchIter:
    def test_final_batch_smaller(self):
        x = np.arange(20.0).reshape(10, 2)
        y = np.arange(10.0)
        sizes = [len(yb) for _, yb in batch_iter(x, y, 4, shuffle_seed=2)]
        assert sizes == [4, 4, 2]

    def test_covers_every_row_once(self):
        x = np.arange(10.0).reshape(10, 1)
        y = np.arange(10.0)
        seen = np.concatenate([yb for _, yb in batch_iter(x, y, 3, shuffle_seed=5)])
        assert sorted(seen.tolist()) == y.tolist()

    def test_shuffle_is_deterministic(self):
        x = np.arange(10.0).reshape(10, 1)
        y = np.arange(10.0)
        a = np.concatenate([yb for _, yb in batch_iter(x, y, 3, shuffle_seed=9)])
        b = np.concatenate([yb for _, yb in batch_iter(x, y, 3, shuffle_seed=9)])
        np.testing.assert_array_equal(a, b)

    def test_batch_larger_than_data(self):
        x = np.zeros((3, 2))
        y = np.zeros(3)
        batches = list(batch_iter(x, y, 100, shuffle_seed=0))
        assert len(batches) == 1
        assert batches[0][0].shape == (3, 2)

    def test_rows_stay_paired(self):
        x = np.arange(12.0).reshape(6, 2)
        y = x[:, 0] * 10.0
        for xb, yb in batch_iter(x, y, 2, shuffle_seed=1):
            np.testing.assert_array_equal(yb, xb[:, 0] * 10.0)

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            list(batch_iter(np.zeros((2, 1)), np.zeros(2), 0, shuffle_seed=0))

    def test_misaligned_rows(self):
        with pytest.raises(ShapeError):
            list(batch_iter(np.zeros((3, 1)), np.zeros(2), 1, shuffle_seed=0))
