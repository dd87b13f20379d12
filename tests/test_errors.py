"""Tests for the exception hierarchy the exit-code mapping relies on, and
for the type, range and choice checks every setting and seed goes through."""

import math
import re

import numpy as np
import pytest

from socdfn.battsim import CellParams, CycleConfig, simulate_cell
from socdfn.data import (
    Dataset, batch_iter, check_fold_count, check_split_fractions, kfold_split, split_holdout,
)
from socdfn.errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateFeatureError,
    ModelFormatError,
    NumericError,
    ShapeError,
    SocdfnError,
    check_choice,
    check_range,
)
from socdfn.network import LayerSpec, RegConfig, init_network, make_specs
from socdfn.optimize import OptimizerConfig
from socdfn.rng import make_rng
from socdfn.train import TrainConfig, check_jobs


class TestHierarchy:
    def test_everything_is_a_socdfn_error(self):
        for exc in (
            ConfigError, ShapeError, DataError, DegenerateFeatureError,
            ModelFormatError, ContractError, NumericError,
        ):
            assert issubclass(exc, SocdfnError)

    def test_value_error_family(self):
        # Callers that only know stdlib exceptions still catch these.
        for exc in (ConfigError, ShapeError, DataError, ModelFormatError):
            assert issubclass(exc, ValueError)

    def test_contract_error_is_runtime_error(self):
        assert issubclass(ContractError, RuntimeError)

    def test_numeric_error_is_arithmetic_error(self):
        assert issubclass(NumericError, ArithmeticError)

    def test_model_format_is_data_error(self):
        assert issubclass(ModelFormatError, DataError)
        assert issubclass(DegenerateFeatureError, DataError)


class TestDataErrorLinePrefix:
    def test_line_number_prefixes_message(self):
        err = DataError("bad token", line=14)
        assert str(err) == "line 14: bad token"
        assert err.line == 14

    def test_no_line_no_prefix(self):
        err = DataError("empty dataset")
        assert str(err) == "empty dataset"
        assert err.line is None

    def test_raisable_and_catchable_as_base(self):
        with pytest.raises(SocdfnError):
            raise ModelFormatError("broken", line=2)


def train_config(**changes):
    return TrainConfig(**{
        "epochs": 1, "batch_size": 8, "optimizer": OptimizerConfig(), "reg": RegConfig(),
        "seed": 0, **changes,
    })


# Test id -> (setting name as its error message starts, a call that sets
# it to v): every value that check_range guards.
RANGE_SETTINGS = {
    "CellParams.capacity_ah": ("capacity_ah", lambda v: CellParams(capacity_ah=v)),
    "CellParams.ocv_full_v": ("ocv_full_v", lambda v: CellParams(ocv_full_v=v)),
    "CellParams.ocv_empty_v": ("ocv_empty_v", lambda v: CellParams(ocv_empty_v=v)),
    "CellParams.r_internal_ohm": ("r_internal_ohm", lambda v: CellParams(r_internal_ohm=v)),
    "CellParams.thermal_tau_s": ("thermal_tau_s", lambda v: CellParams(thermal_tau_s=v)),
    "CellParams.ambient_c": ("ambient_c", lambda v: CellParams(ambient_c=v)),
    "CellParams.heat_coeff_k_per_w": (
        "heat_coeff_k_per_w", lambda v: CellParams(heat_coeff_k_per_w=v),
    ),
    "CycleConfig.duration_s": ("duration_s", lambda v: CycleConfig(duration_s=v)),
    "CycleConfig.dt_s": ("dt_s", lambda v: CycleConfig(dt_s=v)),
    "CycleConfig.peak_discharge_a": (
        "peak_discharge_a", lambda v: CycleConfig(peak_discharge_a=v),
    ),
    "CycleConfig.regen_fraction": (
        "regen_fraction", lambda v: CycleConfig(regen_fraction=v),
    ),
    "simulate_cell.soc0_pct": (
        "soc0_pct", lambda v: simulate_cell(np.zeros(3), CellParams(), v, 1.0),
    ),
    "simulate_cell.dt_s": (
        "dt_s", lambda v: simulate_cell(np.zeros(3), CellParams(), 50.0, v),
    ),
    "OptimizerConfig.learning_rate": (
        "learning_rate", lambda v: OptimizerConfig(learning_rate=v),
    ),
    "OptimizerConfig.beta1": ("beta1", lambda v: OptimizerConfig(beta1=v)),
    "OptimizerConfig.beta2": ("beta2", lambda v: OptimizerConfig(beta2=v)),
    "OptimizerConfig.rho": ("rho", lambda v: OptimizerConfig(rho=v)),
    "OptimizerConfig.epsilon": ("epsilon", lambda v: OptimizerConfig(epsilon=v)),
    "LayerSpec.in_dim": ("in_dim", lambda v: LayerSpec(in_dim=v, out_dim=4)),
    "LayerSpec.out_dim": ("out_dim", lambda v: LayerSpec(in_dim=3, out_dim=v)),
    "LayerSpec.dropout_after": (
        "dropout_after", lambda v: LayerSpec(3, 4, dropout_after=v),
    ),
    "make_specs.hidden": ("hidden layer count", lambda v: make_specs(v, 8, 0.0)),
    "make_specs.units": ("units", lambda v: make_specs(2, v, 0.0)),
    "make_specs.dropout": ("dropout", lambda v: make_specs(2, 8, v)),
    "RegConfig.l1": ("l1", lambda v: RegConfig(l1=v)),
    "RegConfig.l2": ("l2", lambda v: RegConfig(l2=v)),
    "TrainConfig.epochs": ("epochs", lambda v: train_config(epochs=v)),
    "TrainConfig.batch_size": ("batch_size", lambda v: train_config(batch_size=v)),
    "batch_iter.batch_size": (
        "batch_size", lambda v: next(batch_iter(np.zeros((4, 3)), np.zeros(4), v, 0)),
    ),
    "check_jobs": ("jobs", check_jobs),
    "check_fold_count": ("fold count k", check_fold_count),
    "check_split_fractions.train_frac": (
        "train_frac", lambda v: check_split_fractions(v, 0.1),
    ),
    "check_split_fractions.val_frac": (
        "val_frac", lambda v: check_split_fractions(0.5, v),
    ),
}
# The settings that count something, so take an integer.
COUNT_SETTINGS = [
    "LayerSpec.in_dim", "LayerSpec.out_dim", "make_specs.hidden", "make_specs.units",
    "TrainConfig.epochs", "TrainConfig.batch_size", "batch_iter.batch_size", "check_jobs",
    "check_fold_count",
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name, call", RANGE_SETTINGS.values(), ids=RANGE_SETTINGS)
def test_non_finite_setting_is_config_error_naming_it(name, call, value):
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} ")


@pytest.mark.parametrize("value", [True, "1", None], ids=repr)
@pytest.mark.parametrize("setting", RANGE_SETTINGS)
def test_wrong_type_setting_is_config_error_naming_it(setting, value):
    name, call = RANGE_SETTINGS[setting]
    what = "an integer" if setting in COUNT_SETTINGS else "a number"
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value) == f"{name} {value!r} is not {what}"


@pytest.mark.parametrize("setting", COUNT_SETTINGS)
def test_non_integer_count_is_config_error_naming_it(setting):
    name, call = RANGE_SETTINGS[setting]
    with pytest.raises(ConfigError) as info:
        call(2.5)
    assert str(info.value) == f"{name} 2.5 is not an integer"


TEN_ROWS = Dataset(*np.ones((5, 10)))
# Test id -> a call that takes v as its seed, whether or not it draws a stream.
SEED_CALLS = {
    "make_rng": make_rng,
    "init_network": lambda v: init_network(make_specs(1, 4, 0.0), v),
    "kfold_split": lambda v: kfold_split(10, 2, v),
    "batch_iter": lambda v: next(batch_iter(np.zeros((4, 3)), np.zeros(4), 2, v)),
    "split_holdout.shuffled": lambda v: split_holdout(TEN_ROWS, 0.6, 0.2, v),
    "split_holdout.positional": lambda v: split_holdout(TEN_ROWS, 0.6, 0.2, v, shuffle=False),
}


@pytest.mark.parametrize("value", [-1, 2**64, 1.5, True, "3", math.nan], ids=repr)
@pytest.mark.parametrize("call", SEED_CALLS.values(), ids=SEED_CALLS)
def test_bad_seed_is_config_error_naming_it(call, value):
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value).startswith("seed ")


# Range kind -> (values in it, values outside it besides NaN and +/-inf).
RANGE_KINDS = {
    "positive": ([1e-300, 5.0], [0.0, -1.0]),
    "non-negative": ([0.0, 5.0], [-1e-300]),
    "finite": ([-1e300, 0.0, 1e300], []),
    "in [0, 1)": ([0.0, 0.999], [1.0, -1e-300]),
    "in (0, 100]": ([1e-300, 100.0], [0.0, 100.5]),
    ">= 1": ([1, 10**400], [0, 0.5]),
    ">= 2": ([2], [1, 1.5]),
    "in [0, 2^64)": ([0, 2**64 - 1], [-1, 2**64]),
}


@pytest.mark.parametrize("kind", RANGE_KINDS)
def test_check_range_bounds(kind):
    inside, outside = RANGE_KINDS[kind]
    for value in inside:
        check_range("x", value, kind)
    for value in [*outside, math.nan, math.inf, -math.inf]:
        with pytest.raises(ConfigError, match=rf"^x must be {re.escape(kind)}, got "):
            check_range("x", value, kind)


# (kind, value of the wrong type, message): a count takes only an integer,
# a real range any real number, and neither a bool.
WRONG_TYPES = [
    (">= 2", 2.5, "x 2.5 is not an integer"),
    (">= 1", 3.0, "x 3.0 is not an integer"),
    ("in [0, 2^64)", 1.5, "x 1.5 is not an integer"),
    (">= 1", "3", "x '3' is not an integer"),
    ("positive", "1", "x '1' is not a number"),
    ("finite", True, "x True is not a number"),
    ("non-negative", None, "x None is not a number"),
    ("in [0, 1)", np.bool_(False), f"x {np.bool_(False)!r} is not a number"),
]


@pytest.mark.parametrize("kind, value, message", WRONG_TYPES)
def test_check_range_refuses_the_wrong_type(kind, value, message):
    with pytest.raises(ConfigError) as info:
        check_range("x", value, kind)
    assert str(info.value) == message


def test_check_range_takes_numpy_numbers():
    check_range("x", np.int64(3), ">= 2")
    check_range("x", np.uint64(2**64 - 1), "in [0, 2^64)")
    check_range("x", np.float32(0.5), "in [0, 1)")
    check_range("x", np.int8(4), "positive")


def test_check_choice_names_the_choices():
    check_choice("loss", "mae", ("mse", "mae"))
    with pytest.raises(ConfigError) as info:
        check_choice("loss", "huber", ("mse", "mae"))
    assert str(info.value) == "unknown loss 'huber', expected one of ('mse', 'mae')"


def test_check_choice_refuses_a_non_string():
    with pytest.raises(ConfigError) as info:
        check_choice("activation", ["relu"], ("relu", "linear"))
    assert str(info.value) == "activation ['relu'] is not a string"
