"""Drive-cycle sample handling.

CSV interchange (fixed `t_s,voltage_v,current_a,temp_c,soc_pct` schema),
z-score feature normalization fitted on the training split only, holdout
and K-fold index partitioning, and mini-batch iteration.

Feature order everywhere is (voltage, current, temperature); the target
stays in SOC percent, never normalized, so reported errors are directly
in percentage points.
"""

import dataclasses
import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError, DegenerateFeatureError, ShapeError, check_range
from .rng import check_seed, make_rng

# CSV column names, in the order of Dataset's fields.
_CSV_FIELDS = ("t_s", "voltage_v", "current_a", "temp_c", "soc_pct")
CSV_HEADER = ",".join(_CSV_FIELDS)
FEATURES_HEADER = ",".join(_CSV_FIELDS[:4])
PREDICTION_HEADER = "t_s,soc_pred_pct"
FEATURE_NAMES = _CSV_FIELDS[1:4]

# Row print formats for written CSVs. Voltage and current are rounded to
# sensor resolution (10 mV, 1 mA); temperature to 0.01 C. SOC labels and
# predictions keep six decimals so the Coulomb-counting ground truth
# survives the round trip essentially intact.
_ROW_FMT = "%.3f,%.2f,%.3f,%.2f,%.6f\n"
_PREDICTION_FMT = "%.3f,%.6f\n"
# The smallest float that _ROW_FMT's 10 mV voltage field prints as 0.01
# rather than 0.00; load_csv refuses a voltage that is not positive.
MIN_WRITTEN_VOLTAGE_V = 0.005
# Rows write_table formats per write call.
_TABLE_CHUNK_ROWS = 4096
# Rows write_table formats in numpy: comma-joined %.Nf with 2 * 10^N < 2^53.
_FIXED_ROW = re.compile(r"%\.(1[0-5]|\d)f(,%\.(1[0-5]|\d)f)*\n", re.ASCII)
_FIXED_LIMIT = 2.0**50  # a chunk with a cell's |x| * 10^N this large goes to %
# The NUL-padded 4-byte slots _fixed_point_rows prints: sections of the
# 3-digit groups 0-999 in full (_FULL) or with no digit above them: the 1
# of 10^N as the point (_POINT), 0 as 0 (_UNITS) or 0 as nothing (_TOP).
# _MINUS, _COMMA and _NEWLINE lead to a section's copy with that added.
_FULL, _POINT, _UNITS, _TOP, _MINUS, _COMMA, _NEWLINE = 0, 1000, 2000, 3000, 2000, 6000, 8000
_GROUPS = (lambda g: b"%03d" % g, lambda g: (b"%d" % g).replace(b"1", b".", 1) if g else b"")
_GROUPS += (lambda g: b"%d" % g, lambda g: b"%d" % g if g else b"")
_GROUPS += tuple(lambda g, f=f: f(g) and b"-" + f(g) for f in _GROUPS[2:])
_GROUPS += tuple(lambda g, f=f, s=s: f(g) + s for s in (b",", b"\n") for f in _GROUPS[:2])
# A section at a time, so the import holds few bytes objects at once.
_SLOTS = b"".join(b"".join(f(g).ljust(4, b"\0") for g in range(1000)) for f in _GROUPS)
_SLOTS = np.frombuffer(_SLOTS, np.uint32)
# Characters _read_columns reads per chunk, about 1600 rows of _ROW_FMT.
_CHUNK_CHARS = 1 << 16
# A number is ASCII text that float() parses and that holds none of
# these: float() skips digit-group underscores and surrounding
# whitespace, and numpy's reader also skips \x1c-\x1f.
_NOT_IN_NUMBERS = ("_", " ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f")


@dataclass(frozen=True, eq=False)
class Dataset:
    """One drive cycle as five equal-length float64 columns.

    Each column is stored as a read-only, C-contiguous view; current is
    negative on discharge, and every value must be finite. Columns are
    the only row storage: subsets and folds index them, and
    feature_matrix stacks them for the network.
    """

    t: np.ndarray
    voltage: np.ndarray
    current: np.ndarray
    temperature: np.ndarray
    soc: np.ndarray

    def __post_init__(self):
        for f in dataclasses.fields(self):
            # A view, so freezing it leaves the caller's array writable.
            values = np.ascontiguousarray(getattr(self, f.name), dtype=np.float64).view()
            values.flags.writeable = False
            object.__setattr__(self, f.name, values)
        if any(c.ndim != 1 or c.shape != self.t.shape for c in self.columns):
            raise ShapeError(
                "dataset columns must be 1-D and of equal length, got shapes "
                + ", ".join(str(c.shape) for c in self.columns)
            )
        for field_name, c in zip(_CSV_FIELDS, self.columns):
            if not np.isfinite(c).all():
                raise DataError(f"non-finite value in column {field_name}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns in CSV order (t, voltage, current, temperature, soc)."""
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-feature mean and population standard deviation, train-split only."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    k: int
    fold_of: np.ndarray


def load_csv(path) -> Dataset:
    """Read a full drive-cycle CSV; every row must carry an SOC label.

    Raises DataError with a 1-based line number on any malformed or
    out-of-range row, and OSError if the file cannot be read.
    """
    return Dataset(*_read_columns(path, require_soc=True))


def load_features_csv(path) -> Dataset:
    """Read a feature CSV for prediction.

    Accepts either the full five-column schema (the soc_pct column is
    carried through but not required to be meaningful) or the four-column
    feature schema, in which case soc is filled with zeros.
    """
    return Dataset(*_read_columns(path, require_soc=False))


def _read_columns(path, require_soc: bool) -> np.ndarray:
    """(5, n) array of the file's columns; reports the file's first bad line.

    Lines are read in chunks of about _CHUNK_CHARS characters, each
    parsed up to the first blank line, wrong field count or token that
    is not a number. The value checks then run per column over the rows
    before it, so a bad value on an earlier line is reported first.
    """
    headers = (CSV_HEADER,) if require_soc else (CSV_HEADER, FEATURES_HEADER)
    flat = array("d")
    fault = None
    # A byte that is not UTF-8 reads as U+FFFD, so its token fails to parse.
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\r\n")
        if header not in headers:
            expected = " or ".join(map(repr, headers))
            raise DataError(f"bad header {header!r}, expected {expected}", line=1)
        n_fields = header.count(",") + 1
        line_no = 2
        while fault is None and (lines := fh.readlines(_CHUNK_CHARS)):
            fault = _parse_chunk(lines, n_fields, line_no, flat)
            line_no += len(lines)
    n_rows = len(flat) // n_fields
    rows = np.frombuffer(flat, count=n_rows * n_fields).reshape(n_rows, n_fields)
    columns = np.zeros((len(_CSV_FIELDS), n_rows))
    columns[:n_fields] = rows.T
    fault = _first_value_fault(columns, require_soc) or fault
    if fault is not None:
        raise fault
    if n_rows == 0:
        raise DataError("empty dataset (no data rows)")
    return columns


def _parse_chunk(lines, n_fields: int, first_line: int, flat: array) -> DataError | None:
    """Append the chunk's rows to flat up to its first bad line; that line's error.

    numpy's C reader parses a chunk of numbers in one call. A chunk it
    refuses, or one with a blank line or a token outside the number
    grammar, is parsed again line by line, which finds the bad line.
    """
    text = "".join(lines)
    # loadtxt skips blank lines, and warns on a chunk that holds nothing else.
    if _is_plain(text) and not text.startswith("\n") and "\n\n" not in text:
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(lines), n_fields):
                flat.frombytes(memoryview(values).cast("B"))
                return None
    for line_no, raw in enumerate(lines, start=first_line):
        fields = raw.rstrip("\r\n").split(",")
        if len(fields) != n_fields:
            message = (
                "blank line" if fields == [""]
                else f"expected {n_fields} fields, got {len(fields)}"
            )
            return DataError(message, line=line_no)
        token = next((f for f in fields if not _is_number(f)), None)
        if token is not None:
            return DataError(f"cannot parse {token!r} as a number", line=line_no)
        flat.extend(map(float, fields))
    return None


def _is_plain(text: str) -> bool:
    """ASCII without the underscores and whitespace float() would skip."""
    return text.isascii() and not any(c in text for c in _NOT_IN_NUMBERS)


def _is_number(token: str) -> bool:
    if not _is_plain(token):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _value_checks(columns: np.ndarray, require_soc: bool):
    """(bad-row mask, message template, column) per check, in per-row order."""
    t, voltage, _, _, soc = columns
    if require_soc:
        for name, column in zip(_CSV_FIELDS, columns):
            yield ~np.isfinite(column), f"non-finite value in column {name}", column
        yield ~((soc >= 0.0) & (soc <= 100.0)), "soc_pct {!r} outside [0, 100]", soc
        yield voltage <= 0.0, "voltage_v {!r} must be positive", voltage
    else:
        yield ~np.isfinite(columns).all(axis=0), "non-finite value", t
    decreasing = np.zeros(len(t), dtype=bool)
    np.less(t[1:], t[:-1], out=decreasing[1:])
    yield decreasing, "t_s {!r} decreases from previous row", t


def _first_value_fault(columns: np.ndarray, require_soc: bool) -> DataError | None:
    """The earliest bad row's first failing check, or None; row i is line i + 2.

    Every row before the earliest bad one passed all checks, so its
    decreasing-time check compares with a valid previous row.
    """
    first = None
    for bad, template, column in _value_checks(columns, require_soc):
        if not bad.any():
            continue
        row = int(bad.argmax())
        # Strictly earlier only: on a tie the check that comes first wins.
        if first is None or row < first[0]:
            first = (row, template.format(column[row].item()))
    return None if first is None else DataError(first[1], line=first[0] + 2)


def write_table(path, header: str, row_fmt: str, columns) -> None:
    """Write the header line, then row_fmt % row for each row of the columns.

    Columns of unequal length raise ShapeError before the file is opened.
    Rows are formatted _TABLE_CHUNK_ROWS at a time, so the memory held at
    once stays bounded whatever the row count. Chunks _fixed_point_rows
    cannot print reach row_fmt as Python scalars, so %r prints repr(float).
    """
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ShapeError(f"table columns have unequal lengths {lengths}")
    places = [int(n) for n in re.findall(r"\d+", row_fmt)]
    fixed = _FIXED_ROW.fullmatch(row_fmt) and len(places) == len(columns)
    fixed = fixed and all(c.dtype == np.float64 for c in columns)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for start in range(0, lengths[0], _TABLE_CHUNK_ROWS):
            part = [c[start : start + _TABLE_CHUNK_ROWS] for c in columns]
            rows = _fixed_point_rows(part, places) if fixed else None
            if rows is None:
                cells = tuple(chain.from_iterable(zip(*(c.tolist() for c in part))))
                rows = (row_fmt * len(part[0]) % cells).encode("utf-8")
            fh.write(rows)


def _fixed_point_rows(part, places) -> bytes | None:
    """The float64 chunk's rows as %.Nf prints them, or None to leave them to %.

    % rounds a cell's exact binary value to N places, half to even, and
    np.rint(|x| * 10^N) agrees unless the product, off by at most half an
    ulp, is within an ulp of a half, at least _FIXED_LIMIT or not finite:
    then this returns None. A cell prints as the _SLOTS of its integer
    part's groups, then those of 10^N + its N decimals.
    """
    slots = []
    for column, n, sep in zip(part, places, [_COMMA] * (len(part) - 1) + [_NEWLINE]):
        unit = float(10**n)
        scaled = np.minimum(np.abs(column), _FIXED_LIMIT) * unit
        rounded = np.rint(scaled)
        margin = np.abs(scaled - rounded) + np.spacing(scaled)
        if not (scaled.max() < _FIXED_LIMIT and margin.max() < 0.5):
            return None
        # Below 2^50 this quotient is exact enough to floor.
        whole = np.floor(rounded / unit)
        minus = np.signbit(column) * _MINUS
        slots += _group_slots(whole, minus + _UNITS, minus + _TOP)
        slots += _group_slots(rounded - whole * unit + unit * (n > 0), _POINT, _POINT)
        slots[-1] += sep
    rows = np.stack(slots, axis=-1, dtype=np.intp, casting="unsafe")
    return _SLOTS.take(rows).tobytes().translate(None, b"\0")


def _group_slots(values: np.ndarray, units_top, top) -> list:
    """_SLOTS indices of the values' 3-digit groups, most significant first;
    a group with no digit above it takes section top, or units_top in the units."""
    slots = []
    for level in range((len(str(int(values.max()))) + 2) // 3):
        above = np.floor(values / 1000)
        slots.insert(0, values - 1000 * above + (above == 0) * (top if level else units_top))
        values = above
    return slots


def write_csv(dataset: Dataset, path) -> None:
    """Write the five-column schema with fixed per-column precision."""
    write_table(path, CSV_HEADER, _ROW_FMT, dataset.columns)


def write_predictions_csv(times: np.ndarray, soc_pred: np.ndarray, path) -> None:
    write_table(path, PREDICTION_HEADER, _PREDICTION_FMT, (times, soc_pred))


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """Raw (n, 3) feature matrix in (voltage, current, temperature) order.

    C-contiguous, so the per-feature mean and std reduce in the same
    order, and to the same bits, on every call.
    """
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    return np.column_stack((dataset.voltage, dataset.current, dataset.temperature))


def fit_normalizer(train: Dataset) -> Normalizer:
    """Per-feature mean and population (divide-by-N) standard deviation.

    Must be fitted on the training split alone; validation and test rows
    are scaled with these statistics, never their own.
    """
    x = feature_matrix(train)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    for f, s in enumerate(std):
        if not (s > 0.0 and math.isfinite(s)):
            raise DegenerateFeatureError(
                f"feature {FEATURE_NAMES[f]!r} is constant (std {float(s)!r}), "
                "cannot normalize"
            )
    return Normalizer(mean=mean, std=std)


def normalize_features(norm: Normalizer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != norm.mean.shape[0]:
        raise ShapeError(
            f"feature matrix {x.shape} does not match normalizer "
            f"({norm.mean.shape[0]} features)"
        )
    # One output array, divided in place: the same operations, and so the
    # same bits, as (x - mean) / std.
    out = np.subtract(x, norm.mean)
    out /= norm.std
    return out


def apply_normalizer(norm: Normalizer, dataset: Dataset) -> np.ndarray:
    """Normalized (n, 3) feature matrix; targets stay in percent."""
    return normalize_features(norm, feature_matrix(dataset))


def _subset(dataset: Dataset, indices: np.ndarray) -> Dataset:
    ordered = np.sort(np.asarray(indices))
    return Dataset(*(column[ordered] for column in dataset.columns))


def check_split_fractions(train_frac: float, val_frac: float) -> None:
    check_range("train_frac", train_frac, "finite")
    check_range("val_frac", val_frac, "finite")
    if not (train_frac > 0.0 and val_frac > 0.0 and train_frac + val_frac < 1.0):
        raise ConfigError(
            f"bad split fractions train={train_frac}, val={val_frac}: "
            "need both positive and train + val < 1"
        )


def split_holdout(
    dataset: Dataset,
    train_frac: float,
    val_frac: float,
    seed: int,
    shuffle: bool = True,
) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint train/val/test split; remainder after rounding goes to test.

    Rows are assigned by a seeded shuffle (or by position with
    shuffle=False) and each split keeps its rows in original file order.
    """
    check_split_fractions(train_frac, val_frac)
    check_seed(seed)
    n = len(dataset)
    n_train = int(math.floor(n * train_frac + 0.5))
    n_val = int(math.floor(n * val_frac + 0.5))
    n_test = n - n_train - n_val
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise ConfigError(
            f"split of {n} rows gives sizes train={n_train}, val={n_val}, "
            f"test={n_test}; every split must be non-empty"
        )
    if shuffle:
        order = make_rng(seed).permutation(n)
    else:
        order = np.arange(n)
    return (
        _subset(dataset, order[:n_train]),
        _subset(dataset, order[n_train : n_train + n_val]),
        _subset(dataset, order[n_train + n_val :]),
    )


def check_fold_count(k: int) -> None:
    check_range("fold count k", k, ">= 2")


def kfold_split(n: int, k: int, seed: int) -> FoldAssignment:
    """Deal seed-shuffled indices round-robin into k folds.

    Every index lands in exactly one fold and fold sizes differ by at
    most one.
    """
    check_fold_count(k)
    if k > n:
        raise ConfigError(f"fold count k={k} must satisfy 2 <= k <= n ({n} rows)")
    perm = make_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % k
    return FoldAssignment(k=k, fold_of=fold_of)


def fold_datasets(
    dataset: Dataset, assignment: FoldAssignment, fold: int
) -> tuple[Dataset, Dataset]:
    """(train, val) pair for one fold: val is the fold, train is the rest."""
    if len(dataset) != len(assignment.fold_of):
        raise ShapeError(
            f"dataset of {len(dataset)} rows does not match fold assignment "
            f"over {len(assignment.fold_of)} indices"
        )
    if not 0 <= fold < assignment.k:
        raise ConfigError(f"fold {fold} outside [0, {assignment.k})")
    val_idx = np.nonzero(assignment.fold_of == fold)[0]
    train_idx = np.nonzero(assignment.fold_of != fold)[0]
    return (
        _subset(dataset, train_idx),
        _subset(dataset, val_idx),
    )


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    return Dataset(*(np.concatenate(pair) for pair in zip(a.columns, b.columns)))


def batch_iter(x: np.ndarray, y: np.ndarray, batch_size: int, shuffle_seed: int):
    """Yield (x, y) batches covering every row exactly once.

    The rows come in the order of a permutation seeded by shuffle_seed;
    the final batch may be smaller.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"features {x.shape} and targets {y.shape} do not align")
    check_range("batch_size", batch_size, ">= 1")
    order = make_rng(shuffle_seed).permutation(x.shape[0])
    for start in range(0, len(order), batch_size):
        sel = order[start : start + batch_size]
        yield x[sel], y[sel]
