"""Drive-cycle sample handling.

CSV interchange (fixed `t_s,voltage_v,current_a,temp_c,soc_pct` schema),
z-score feature normalization fitted on the training split only, holdout
and K-fold index partitioning, and mini-batch iteration.

Feature order everywhere is (voltage, current, temperature); the target
stays in SOC percent, never normalized, so reported errors are directly
in percentage points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateFeatureError, ShapeError
from .rng import check_seed, make_rng

CSV_HEADER = "t_s,voltage_v,current_a,temp_c,soc_pct"
FEATURES_HEADER = "t_s,voltage_v,current_a,temp_c"
PREDICTION_HEADER = "t_s,soc_pred_pct"
FEATURE_NAMES = ("voltage_v", "current_a", "temp_c")

# Column print formats for written CSVs. Voltage and current are rounded
# to sensor resolution (10 mV, 1 mA); temperature to 0.01 C. SOC labels
# keep six decimals so the Coulomb-counting ground truth survives the
# round trip essentially intact.
_T_FMT = "%.3f"
_VOLTAGE_FMT = "%.2f"
_CURRENT_FMT = "%.3f"
_TEMP_FMT = "%.2f"
_SOC_FMT = "%.6f"


@dataclass(frozen=True)
class SampleRecord:
    """One timestamped measurement row; current is negative on discharge."""

    t: float
    voltage: float
    current: float
    temperature: float
    soc: float


@dataclass(frozen=True)
class Dataset:
    records: tuple[SampleRecord, ...]
    name: str = "dataset"

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-feature mean and population standard deviation, train-split only."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    k: int
    fold_of: np.ndarray

    def __len__(self) -> int:
        return len(self.fold_of)


@dataclass(frozen=True, eq=False)
class Batch:
    x: np.ndarray
    y: np.ndarray


def _validate_record(rec: SampleRecord, line: int | None = None) -> None:
    for field_name, value in (
        ("t_s", rec.t),
        ("voltage_v", rec.voltage),
        ("current_a", rec.current),
        ("temp_c", rec.temperature),
        ("soc_pct", rec.soc),
    ):
        if not math.isfinite(value):
            raise DataError(f"non-finite value in column {field_name}", line=line)
    if not 0.0 <= rec.soc <= 100.0:
        raise DataError(f"soc_pct {rec.soc!r} outside [0, 100]", line=line)
    if rec.voltage <= 0.0:
        raise DataError(f"voltage_v {rec.voltage!r} must be positive", line=line)


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"cannot parse {token!r} as a number", line=line) from None


def load_csv(path, name: str | None = None) -> Dataset:
    """Read a full drive-cycle CSV; every row must carry an SOC label.

    Raises DataError with a 1-based line number on any malformed or
    out-of-range row, and OSError if the file cannot be read.
    """
    records = _read_rows(path, require_soc=True)
    return Dataset(records=records, name=name or str(path))


def load_features_csv(path, name: str | None = None) -> Dataset:
    """Read a feature CSV for prediction.

    Accepts either the full five-column schema (the soc_pct column is
    carried through but not required to be meaningful) or the four-column
    feature schema, in which case soc is filled with zeros.
    """
    records = _read_rows(path, require_soc=False)
    return Dataset(records=records, name=name or str(path))


def _read_rows(path, require_soc: bool) -> tuple[SampleRecord, ...]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if require_soc:
            if header != CSV_HEADER:
                raise DataError(
                    f"bad header {header!r}, expected {CSV_HEADER!r}", line=1
                )
            n_fields = 5
        else:
            if header == CSV_HEADER:
                n_fields = 5
            elif header == FEATURES_HEADER:
                n_fields = 4
            else:
                raise DataError(
                    f"bad header {header!r}, expected {CSV_HEADER!r} "
                    f"or {FEATURES_HEADER!r}",
                    line=1,
                )
        records = []
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
            values = [_parse_float(tok, line_no) for tok in fields]
            if n_fields == 4:
                values.append(0.0)
            rec = SampleRecord(
                t=values[0],
                voltage=values[1],
                current=values[2],
                temperature=values[3],
                soc=values[4],
            )
            if require_soc:
                _validate_record(rec, line=line_no)
            elif not all(math.isfinite(v) for v in values):
                raise DataError("non-finite value", line=line_no)
            if rec.t < prev_t:
                raise DataError(
                    f"t_s {rec.t!r} decreases from previous row", line=line_no
                )
            prev_t = rec.t
            records.append(rec)
    if not records:
        raise DataError("empty dataset (no data rows)")
    return tuple(records)


def write_csv(dataset: Dataset, path) -> None:
    """Write the five-column schema with fixed per-column precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in dataset.records:
            fh.write(
                ",".join(
                    (
                        _T_FMT % rec.t,
                        _VOLTAGE_FMT % rec.voltage,
                        _CURRENT_FMT % rec.current,
                        _TEMP_FMT % rec.temperature,
                        _SOC_FMT % rec.soc,
                    )
                )
                + "\n"
            )


def write_predictions_csv(times: np.ndarray, soc_pred: np.ndarray, path) -> None:
    if len(times) != len(soc_pred):
        raise ShapeError(
            f"times ({len(times)},) and predictions ({len(soc_pred)},) differ"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PREDICTION_HEADER + "\n")
        for t, s in zip(times, soc_pred):
            fh.write((_T_FMT % float(t)) + "," + (_SOC_FMT % float(s)) + "\n")


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """Raw (n, 3) feature matrix in (voltage, current, temperature) order."""
    if len(dataset) == 0:
        raise ConfigError(f"dataset {dataset.name!r} is empty")
    return np.array(
        [(r.voltage, r.current, r.temperature) for r in dataset.records],
        dtype=np.float64,
    )


def target_vector(dataset: Dataset) -> np.ndarray:
    return np.array([r.soc for r in dataset.records], dtype=np.float64)


def time_vector(dataset: Dataset) -> np.ndarray:
    return np.array([r.t for r in dataset.records], dtype=np.float64)


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
                f"feature {FEATURE_NAMES[f]!r} is constant (std {s!r}), "
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
    return (x - norm.mean) / norm.std


def apply_normalizer(norm: Normalizer, dataset: Dataset) -> np.ndarray:
    """Normalized (n, 3) feature matrix; targets stay in percent."""
    return normalize_features(norm, feature_matrix(dataset))


def _subset(dataset: Dataset, indices: np.ndarray, name: str) -> Dataset:
    ordered = np.sort(np.asarray(indices))
    return Dataset(
        records=tuple(dataset.records[i] for i in ordered),
        name=f"{dataset.name}/{name}",
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
    if not (train_frac > 0.0 and val_frac > 0.0 and train_frac + val_frac < 1.0):
        raise ConfigError(
            f"bad split fractions train={train_frac}, val={val_frac}: "
            "need both positive and train + val < 1"
        )
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
        _subset(dataset, order[:n_train], "train"),
        _subset(dataset, order[n_train : n_train + n_val], "val"),
        _subset(dataset, order[n_train + n_val :], "test"),
    )


def kfold_split(n: int, k: int, seed: int) -> FoldAssignment:
    """Deal seed-shuffled indices round-robin into k folds.

    Every index lands in exactly one fold and fold sizes differ by at
    most one.
    """
    if not 2 <= k <= n:
        raise ConfigError(f"fold count k={k} must satisfy 2 <= k <= n ({n} rows)")
    check_seed(seed)
    perm = make_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % k
    return FoldAssignment(k=k, fold_of=fold_of)


def fold_datasets(
    dataset: Dataset, assignment: FoldAssignment, fold: int
) -> tuple[Dataset, Dataset]:
    """(train, val) pair for one fold: val is the fold, train is the rest."""
    if len(dataset) != len(assignment):
        raise ShapeError(
            f"dataset of {len(dataset)} rows does not match fold assignment "
            f"over {len(assignment)} indices"
        )
    if not 0 <= fold < assignment.k:
        raise ConfigError(f"fold {fold} outside [0, {assignment.k})")
    val_idx = np.nonzero(assignment.fold_of == fold)[0]
    train_idx = np.nonzero(assignment.fold_of != fold)[0]
    return (
        _subset(dataset, train_idx, f"fold{fold}-train"),
        _subset(dataset, val_idx, f"fold{fold}-val"),
    )


def concat_datasets(a: Dataset, b: Dataset, name: str) -> Dataset:
    return Dataset(records=a.records + b.records, name=name)


def batch_iter(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    shuffle_seed: int | None = None,
):
    """Yield Batch objects covering every row exactly once.

    The final batch may be smaller. With shuffle_seed=None rows keep
    their input order; otherwise the order is a seeded permutation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"features {x.shape} and targets {y.shape} do not align")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = x.shape[0]
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        check_seed(shuffle_seed)
        order = make_rng(shuffle_seed).permutation(n)
    for start in range(0, n, batch_size):
        sel = order[start : start + batch_size]
        yield Batch(x=x[sel], y=y[sel])
