"""Feedforward-network training engine for battery state-of-charge regression.

Plain-numpy dense networks with hand-derived backpropagation, a
Coulomb-counting drive-cycle simulator for ground-truth data, K-fold
cross-validation, and a reproducible CLI.
"""

__version__ = "0.1.0"

from .battsim import CellParams, CycleConfig, generate_drive_cycle, simulate_cell
from .data import (
    Batch,
    Dataset,
    FoldAssignment,
    Normalizer,
    apply_normalizer,
    batch_iter,
    fit_normalizer,
    kfold_split,
    load_csv,
    split_holdout,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateFeatureError,
    ModelFormatError,
    NumericError,
    ShapeError,
    SocdfnError,
)
from .network import (
    GradientSet,
    LayerSpec,
    Network,
    RegConfig,
    backward,
    forward,
    init_network,
    loss_mse,
    make_specs,
    penalty,
    predict_soc,
)
from .optimize import OptimizerConfig, OptimizerState, adam_step, rmsprop_step, sgd_step
from .train import (
    CVReport,
    RunHistory,
    TrainConfig,
    cross_validate,
    evaluate,
    fit,
    mae,
    train_epoch,
)
