"""Command-line surface.

Subcommands cover the whole workflow: `gen-data` synthesizes a labeled
drive cycle, `train` fits one network on a holdout split, `crossval`
runs K-fold cross-validation, `evaluate` scores a saved model on a test
CSV, and `predict` writes clamped SOC predictions for a feature CSV.
Every stochastic subcommand takes --seed and is bit-reproducible under
it: rerunning the same invocation rewrites byte-identical CSVs and
model files.

Each exit code, the errors that end with it and its `--help` line are
stated once, in `_EXIT_CODES`.
"""

import argparse
import contextlib
import errno
import logging
import os
import sys
from functools import partial

# OpenBLAS reads this once, when numpy first loads it (there is no runtime
# setter), so it precedes the first import that loads numpy. 4, its minimum,
# makes an idle worker sleep at once instead of spinning about 0.1 s through
# the single-threaded work between products. A value the user set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import __version__
from .battsim import CellParams, CycleConfig, synth_dataset
from .data import (
    check_fold_count,
    check_split_fractions,
    concat_datasets,
    load_csv,
    load_features_csv,
    write_csv,
    write_predictions_csv,
)
from .errors import ConfigError, NumericError, SocdfnError
from .modelio import (
    cv_table,
    load_model,
    save_model,
    write_cv_csv,
    write_gnuplot_script,
    write_history_csv,
)
from .network import LOSS_KINDS, make_specs, predict_soc, RegConfig
from .optimize import OPTIMIZER_KINDS, OptimizerConfig
from .rng import BIT_GENERATOR
from .train import (
    TrainConfig, _usable_cpus, check_jobs, cross_validate, evaluate, fit_datasets, holdout
)

# Not __name__, which is "__main__" under `python -m socdfn.cli`.
logger = logging.getLogger("socdfn.cli")

EXIT_OK = 0

PRESETS = {
    # 2 hidden layers of 256, no regularization.
    "paper-2h": {"hidden": 2, "units": 256, "dropout": 0.0},
    # 4 hidden layers counting dropout: dense 256 + dropout 0.5, twice.
    "paper-4h-dropout": {"hidden": 4, "units": 256, "dropout": 0.5},
}

# (exit code, error classes, --help line) of each failure; main exits with
# the code of the first row whose classes match the error.
_EXIT_CODES = (
    (2, (ConfigError, MemoryError),
     "usage or configuration error, or a run too big for memory"),
    (5, (NumericError,), "numeric failure (loss or prediction went non-finite)"),
    (4, (SocdfnError,), "schema/validation error (bad CSV, shape mismatch, bad model file)"),
    (3, (OSError,), "I/O error (missing or unwritable file)"),
)

# Argparse dests of the training flags a saved model's meta echoes.
_TRAIN_META = (
    "epochs", "batch_size", "optimizer", "lr", "beta1", "beta2", "rho", "epsilon", "l1",
    "l2", "loss",
)

_EPILOG = "exit codes:\n  0  success\n" + "".join(
    f"  {code}  {line}\n" for code, _, line in sorted(_EXIT_CODES)
)


def _add_arch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named architecture preset; explicit flags below override it",
    )
    p.add_argument(
        "--hidden",
        type=int,
        help="hidden layer count; dropout layers count, so with --dropout > 0 "
        "this must be even (default 2)",
    )
    p.add_argument("--units", type=int, help="units per dense hidden layer (default 256)")
    p.add_argument(
        "--dropout", type=float, help="dropout rate after each dense hidden layer (default 0)"
    )


def _add_train_args(p: argparse.ArgumentParser) -> None:
    opt, reg = OptimizerConfig(), RegConfig()
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int, default=128)
    p.add_argument("--optimizer", choices=OPTIMIZER_KINDS, default=opt.kind)
    p.add_argument("--lr", type=float, default=opt.learning_rate)
    p.add_argument("--beta1", type=float, default=opt.beta1)
    p.add_argument("--beta2", type=float, default=opt.beta2)
    p.add_argument("--rho", type=float, default=opt.rho)
    p.add_argument("--epsilon", type=float, default=opt.epsilon)
    p.add_argument("--l1", type=float, default=reg.l1)
    p.add_argument("--l2", type=float, default=reg.l2)
    p.add_argument("--loss", choices=LOSS_KINDS, default=TrainConfig.loss)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument(
        "--no-shuffle",
        action="store_true",
        help="split by file position instead of a seeded shuffle",
    )
    p.add_argument("--seed", type=int, default=0)


def _resolve_arch(args) -> dict:
    arch = dict(PRESETS[args.preset or "paper-2h"])
    for name in arch:
        if getattr(args, name) is not None:
            arch[name] = getattr(args, name)
    return arch


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        optimizer=OptimizerConfig(
            kind=args.optimizer,
            learning_rate=args.lr,
            beta1=args.beta1,
            beta2=args.beta2,
            rho=args.rho,
            epsilon=args.epsilon,
        ),
        reg=RegConfig(l1=args.l1, l2=args.l2),
        seed=args.seed,
        loss=args.loss,
    )


def _meta(args, arch: dict) -> dict:
    return {
        "tool": "socdfn",
        "tool_version": __version__,
        "bit_generator": BIT_GENERATOR,
        "seed": args.seed,
        "data": str(args.data),
        "arch": arch,
        "split": {
            "train_frac": args.train_frac,
            "val_frac": args.val_frac,
            "shuffle": not args.no_shuffle,
        },
        "train": {name: getattr(args, name) for name in _TRAIN_META},
    }


def cmd_gen_data(args) -> None:
    cell = CellParams(
        capacity_ah=args.capacity,
        r_internal_ohm=args.r_internal,
        ambient_c=args.ambient,
    )
    cycle = CycleConfig(
        duration_s=args.duration,
        dt_s=args.dt,
        peak_discharge_a=args.peak,
        regen_fraction=args.regen_fraction,
        seed=args.seed,
    )
    plan = _plan_outputs([], [args.out])
    dataset = synth_dataset(cell, cycle, soc0_pct=args.soc0)
    _write_all(plan, [partial(write_csv, dataset)])
    print(f"wrote {len(dataset)} rows to {args.out}")


def _setup(args):
    """(arch, specs, cfg, splits) of train and crossval; flags are checked first."""
    arch = _resolve_arch(args)
    specs = make_specs(**arch)
    cfg = _train_config(args)
    check_split_fractions(args.train_frac, args.val_frac)
    splits = holdout(
        load_csv(args.data),
        args.train_frac,
        args.val_frac,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )
    return arch, specs, cfg, splits


def _plan_outputs(inputs, outputs) -> list:
    """(path, target) per output, checked before any input is read.

    target is the resolved path of a new or regular file, or None for an
    unnamed output or an existing special file (a FIFO, a device, a piped
    /dev/stdout), which may repeat. An empty path, a directory or a missing
    parent raises the OS error open() would; a clash with an input or an
    earlier output, ConfigError.
    """
    # Each resolved path -> the start of the message a clash with it prints.
    seen = {os.path.realpath(p): f"input {p} and output" for p in inputs}
    plan = []
    for path in outputs:
        target = None
        if path == "":
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if path and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            target = os.path.realpath(path)
            if target in seen:
                raise ConfigError(f"{seen[target]} {path} are the same file")
            seen[target] = f"outputs {path} and"
            try:
                os.stat(os.path.join(os.path.dirname(target), ""))
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from None
        plan.append((path, target))
    return plan


def _write_all(plan, writes) -> None:
    """Call write(file) for each planned (path, target) and write, all or none.

    Each target is written to a temporary sibling, so a symlink is kept.
    Special files are written in place after every temporary write has
    succeeded, and each temporary file is moved onto its target only after
    that, so a failed write leaves no new file and keeps every existing one.
    """
    staged, in_place = [], []
    try:
        for (path, target), write in zip(plan, writes):
            if path and not target:
                in_place.append((path, write))
            elif path:
                staged.append((f"{target}.{os.getpid()}-{len(staged)}.tmp", target))
                try:
                    write(staged[-1][0])
                except OSError as e:
                    raise OSError(e.errno, e.strerror, path) from None
        for path, write in in_place:
            write(path)
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def cmd_train(args) -> None:
    if args.emit_gnuplot and args.history_out is None:
        raise ConfigError("--emit-gnuplot needs --history-out")
    gnuplot_out = args.emit_gnuplot and f"{args.history_out}.gnuplot"
    plan = _plan_outputs([args.data], [
        args.save_train, args.save_val, args.save_test, args.history_out, gnuplot_out,
        args.model_out,
    ])
    arch, specs, cfg, (train_ds, val_ds, test_ds) = _setup(args)
    logger.info(
        "training %d epochs on %d rows (val %d, test %d)",
        cfg.epochs, len(train_ds), len(val_ds), len(test_ds),
    )
    net, norm, history = fit_datasets(specs, train_ds, val_ds, cfg)
    test_mae = evaluate(net, norm, test_ds)
    _write_all(plan, [
        partial(write_csv, train_ds),
        partial(write_csv, val_ds),
        partial(write_csv, test_ds),
        partial(write_history_csv, history),
        partial(write_gnuplot_script, args.history_out),
        partial(save_model, net, norm, meta=_meta(args, arch)),
    ])
    final = history[-1]
    print(
        f"epochs={cfg.epochs} train_mae={final.train_mae:.6f} "
        f"val_mae={final.val_mae:.6f} test_mae={test_mae:.6f}"
    )


def cmd_crossval(args) -> None:
    check_fold_count(args.k)
    jobs = args.jobs if args.jobs is not None else _usable_cpus()
    check_jobs(jobs)
    plan = _plan_outputs([args.data], [args.report_out])
    _, specs, cfg, (train_ds, val_ds, _) = _setup(args)
    pool = concat_datasets(train_ds, val_ds)
    histories = cross_validate(pool, specs, args.k, cfg, jobs=jobs)
    _write_all(plan, [partial(write_cv_csv, histories)])
    labels, finals, bests = cv_table(histories)
    for label, final, best in zip(labels[:-2], finals, bests):
        print(f"fold {label}: final_val_mae={final:.6f} best_val_mae={best:.6f}")
    print(f"mean_val_mae={finals[-2]:.6f} std_val_mae={finals[-1]:.6f}")


def cmd_evaluate(args) -> None:
    net, norm, _ = load_model(args.model)
    test_ds = load_csv(args.data)
    print(f"mae_pct={evaluate(net, norm, test_ds):.6f}")


def cmd_predict(args) -> None:
    plan = _plan_outputs([args.model, args.data], [args.out])
    net, norm, _ = load_model(args.model)
    dataset = load_features_csv(args.data)
    soc = predict_soc(net, norm, dataset)
    _write_all(plan, [partial(write_predictions_csv, dataset.t, soc)])
    print(f"wrote {len(soc)} predictions to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socdfn",
        description="Feedforward-network training engine for battery "
        "state-of-charge regression on drive-cycle CSVs.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"socdfn {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a labeled drive-cycle CSV")
    cell, cycle = CellParams(), CycleConfig()
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=cycle.seed)
    p.add_argument("--duration", type=float, default=cycle.duration_s, help="cycle seconds")
    p.add_argument("--dt", type=float, default=cycle.dt_s, help="step seconds")
    p.add_argument(
        "--peak", type=float, default=cycle.peak_discharge_a, help="peak discharge amperes"
    )
    p.add_argument("--regen-fraction", type=float, default=cycle.regen_fraction)
    p.add_argument("--soc0", type=float, default=100.0, help="starting SOC percent")
    p.add_argument(
        "--capacity", type=float, default=cell.capacity_ah, help="cell ampere-hours"
    )
    p.add_argument("--r-internal", type=float, default=cell.r_internal_ohm, help="ohms")
    p.add_argument("--ambient", type=float, default=cell.ambient_c, help="degrees Celsius")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit one network on a holdout split")
    p.add_argument("--data", required=True, help="labeled drive-cycle CSV")
    _add_arch_args(p)
    _add_train_args(p)
    p.add_argument("--model-out", help="write the trained model JSON here")
    p.add_argument("--history-out", help="write the per-epoch learning-curve CSV here")
    p.add_argument(
        "--emit-gnuplot",
        action="store_true",
        help="also write <history-out>.gnuplot plotting the curves",
    )
    p.add_argument("--save-train", help="write the train split back out as CSV")
    p.add_argument("--save-val", help="write the val split back out as CSV")
    p.add_argument("--save-test", help="write the test split back out as CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("crossval", help="K-fold cross-validation")
    p.add_argument("--data", required=True, help="labeled drive-cycle CSV")
    p.add_argument("--k", type=int, required=True, help="fold count (e.g. 4 or 8)")
    _add_arch_args(p)
    _add_train_args(p)
    p.add_argument("--report-out", help="write the per-fold report CSV here")
    p.add_argument(
        "--jobs", type=int, help="parallel fold workers (default: k capped at usable CPUs)"
    )
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("evaluate", help="test MAE of a saved model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write clamped SOC predictions for a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature CSV (soc column optional)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args)
    except tuple(cls for _, classes, _ in _EXIT_CODES for cls in classes) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for code, classes, _ in _EXIT_CODES if isinstance(e, classes))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
