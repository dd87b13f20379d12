"""End-to-end tests of the command line, run in-process via main()."""

import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import rows_of, run_cli

import socdfn
from socdfn.data import load_csv
from socdfn.modelio import load_model, save_model
from socdfn.network import LayerSpec, Network

TRAIN_LINE = re.compile(
    r"^epochs=(\d+) train_mae=(\d+\.\d{6}) val_mae=(\d+\.\d{6}) "
    r"test_mae=(\d+\.\d{6})\s*$"
)


@pytest.fixture(scope="module")
def cycle_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cycle.csv"
    code, out, err = run_cli(
        ["gen-data", "--out", str(path), "--duration", "900", "--seed", "3"]
    )
    assert code == 0, err
    return path


def fast_train_args(cycle_csv, extra=()):
    return [
        "train", "--data", str(cycle_csv),
        "--hidden", "1", "--units", "8",
        "--epochs", "2", "--batch", "128", "--seed", "1",
        *extra,
    ]


class TestGenData:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, _ = run_cli(
            ["gen-data", "--out", str(out), "--duration", "300", "--seed", "0"]
        )
        assert code == 0
        assert stdout.strip() == f"wrote 300 rows to {out}"
        ds = load_csv(out)
        assert len(ds) == 300

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["--duration", "400", "--seed", "12"]
        assert run_cli(["gen-data", "--out", str(a), *args])[0] == 0
        assert run_cli(["gen-data", "--out", str(b), *args])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    # sha256 of the stock 20,000-row cycles and of one run that empties a
    # 0.3 Ah cell after 3734 rows. gen-data uses only PCG64 draws and
    # elementwise IEEE-754 arithmetic, no BLAS, so the bytes do not depend
    # on the core count or BLAS build; they pin the simulator and writer.
    @pytest.mark.parametrize("args, digest", [
        (["--seed", "0"],
         "99875a1c7fd752381393627ec31bd1cb5580caccac25b3a5a887e049d506a239"),
        (["--seed", "1"],
         "0215ef7da3d8c74f0d035fb54e282cabd638548f0cf2d3c6011d06f100a822f7"),
        (["--seed", "2"],
         "9912ac1d583aa74bd2260a02476e37b5e7dfa14907d332a30ee5c5109471b746"),
        (["--seed", "0", "--capacity", "0.3"],
         "6771de56fdfef01be1cdafe1c313a86cce07c346bca73e600e21dac826c7a0bd"),
    ])
    def test_bytes_match_recorded_digest(self, tmp_path, args, digest):
        out = tmp_path / "cycle.csv"
        assert run_cli(["gen-data", "--out", str(out), *args])[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["gen-data", "--out", str(a), "--duration", "400",
                        "--seed", "1"])[0] == 0
        assert run_cli(["gen-data", "--out", str(b), "--duration", "400",
                        "--seed", "2"])[0] == 0
        assert a.read_bytes() != b.read_bytes()

    def test_small_cell_truncates(self, tmp_path):
        out = tmp_path / "tiny.csv"
        code, stdout, _ = run_cli(
            ["gen-data", "--out", str(out), "--duration", "5000",
             "--capacity", "0.05", "--seed", "0"]
        )
        assert code == 0
        assert len(load_csv(out)) < 5000

    def test_bad_config_is_exit_2(self, tmp_path):
        code, _, err = run_cli(
            ["gen-data", "--out", str(tmp_path / "x.csv"), "--capacity", "0"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_path_is_exit_3(self, tmp_path):
        code, _, err = run_cli(
            ["gen-data", "--out", str(tmp_path / "no" / "dir" / "x.csv"),
             "--duration", "10"]
        )
        assert code == 3
        assert err.startswith("error:")


class TestTrain:
    def test_basic_run_and_output_line(self, cycle_csv):
        code, stdout, err = run_cli(fast_train_args(cycle_csv))
        assert code == 0, err
        m = TRAIN_LINE.match(stdout.strip().splitlines()[-1])
        assert m, stdout
        assert m.group(1) == "2"

    def test_artifacts_written(self, cycle_csv, tmp_path):
        model = tmp_path / "model.json"
        history = tmp_path / "history.csv"
        code, _, err = run_cli(fast_train_args(
            cycle_csv,
            extra=["--model-out", str(model), "--history-out", str(history)],
        ))
        assert code == 0, err
        lines = history.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_mae,val_loss,val_mae"
        assert len(lines) == 3  # header + 2 epochs
        net, norm, meta = load_model(model)
        assert meta["seed"] == 1
        assert meta["arch"] == {"hidden": 1, "units": 8, "dropout": 0.0}
        assert meta["train"]["epochs"] == 2
        assert norm.std.shape == (3,)

    def test_repeat_run_byte_identical(self, cycle_csv, tmp_path):
        outs = []
        for tag in ("one", "two"):
            model = tmp_path / f"model-{tag}.json"
            history = tmp_path / f"history-{tag}.csv"
            code, stdout, _ = run_cli(fast_train_args(
                cycle_csv,
                extra=["--model-out", str(model), "--history-out", str(history)],
            ))
            assert code == 0
            outs.append((model.read_bytes(), history.read_bytes(), stdout))
        assert outs[0] == outs[1]

    def test_split_files_partition_dataset(self, cycle_csv, tmp_path):
        paths = {name: tmp_path / f"{name}.csv" for name in ("train", "val", "test")}
        code, _, _ = run_cli(fast_train_args(
            cycle_csv,
            extra=[
                "--save-train", str(paths["train"]),
                "--save-val", str(paths["val"]),
                "--save-test", str(paths["test"]),
            ],
        ))
        assert code == 0
        sizes = {name: len(load_csv(p)) for name, p in paths.items()}
        total = len(load_csv(cycle_csv))
        assert sum(sizes.values()) == total
        assert sizes["train"] == round(total * 0.8)
        assert sizes["val"] == round(total * 0.1)

    def test_evaluate_reproduces_test_mae(self, cycle_csv, tmp_path):
        model = tmp_path / "model.json"
        test_csv = tmp_path / "test.csv"
        code, stdout, _ = run_cli(fast_train_args(
            cycle_csv,
            extra=["--model-out", str(model), "--save-test", str(test_csv)],
        ))
        assert code == 0
        train_test_mae = TRAIN_LINE.match(stdout.strip().splitlines()[-1]).group(4)
        code, stdout, _ = run_cli(
            ["evaluate", "--model", str(model), "--data", str(test_csv)]
        )
        assert code == 0
        assert stdout.strip() == f"mae_pct={train_test_mae}"

    def test_preset_dropout_twin_runs(self, cycle_csv):
        code, stdout, err = run_cli([
            "train", "--data", str(cycle_csv),
            "--preset", "paper-4h-dropout", "--units", "8",
            "--epochs", "1", "--batch", "128", "--seed", "1",
        ])
        assert code == 0, err
        assert TRAIN_LINE.match(stdout.strip().splitlines()[-1])

    def test_gnuplot_needs_history(self, cycle_csv):
        code, _, err = run_cli(fast_train_args(cycle_csv, extra=["--emit-gnuplot"]))
        assert code == 2
        assert "--history-out" in err

    def test_gnuplot_written_next_to_history(self, cycle_csv, tmp_path):
        history = tmp_path / "h.csv"
        code, _, _ = run_cli(fast_train_args(
            cycle_csv, extra=["--history-out", str(history), "--emit-gnuplot"]
        ))
        assert code == 0
        script = tmp_path / "h.csv.gnuplot"
        assert script.exists()
        assert str(history) in script.read_text()

    def test_odd_hidden_with_dropout_is_exit_2(self, cycle_csv):
        code, _, err = run_cli([
            "train", "--data", str(cycle_csv),
            "--hidden", "3", "--dropout", "0.5", "--epochs", "1",
        ])
        assert code == 2
        assert "even" in err

    def test_missing_data_is_exit_3(self, tmp_path):
        code, _, err = run_cli(
            ["train", "--data", str(tmp_path / "missing.csv"), "--epochs", "1"]
        )
        assert code == 3

    def test_malformed_csv_is_exit_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,voltage_v,current_a,temp_c,soc_pct\n0,4.2,0,25,250\n")
        code, _, err = run_cli(["train", "--data", str(bad), "--epochs", "1"])
        assert code == 4
        assert "line 2" in err

    def test_divergence_is_exit_5(self, cycle_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(over="ignore", invalid="ignore"):
                code, _, err = run_cli(fast_train_args(
                    cycle_csv,
                    extra=["--optimizer", "sgd", "--lr", "1e12"],
                ))
        assert code == 5
        assert "diverged" in err

    def test_bad_split_fractions_exit_2(self, cycle_csv):
        code, _, _ = run_cli([
            "train", "--data", str(cycle_csv),
            "--train-frac", "0.95", "--val-frac", "0.1", "--epochs", "1",
        ])
        assert code == 2

    def test_unknown_flag_exit_2(self, cycle_csv):
        code, _, _ = run_cli(["train", "--data", str(cycle_csv), "--bogus"])
        assert code == 2

    def test_no_shuffle_split_is_positional(self, cycle_csv, tmp_path):
        test_csv = tmp_path / "test.csv"
        code, _, _ = run_cli(fast_train_args(
            cycle_csv, extra=["--no-shuffle", "--save-test", str(test_csv)]
        ))
        assert code == 0
        full = load_csv(cycle_csv)
        test = load_csv(test_csv)
        assert np.array_equal(rows_of(test), rows_of(full)[-len(test):])


class TestCrossval:
    def test_fold_lines_and_report(self, cycle_csv, tmp_path):
        report = tmp_path / "cv.csv"
        code, stdout, err = run_cli([
            "crossval", "--data", str(cycle_csv), "--k", "3",
            "--hidden", "1", "--units", "4", "--epochs", "1",
            "--batch", "128", "--seed", "2", "--jobs", "1",
            "--report-out", str(report),
        ])
        assert code == 0, err
        lines = stdout.strip().splitlines()
        fold_lines = [l for l in lines if l.startswith("fold ")]
        assert len(fold_lines) == 3
        assert lines[-1].startswith("mean_val_mae=")
        rows = report.read_text().splitlines()
        assert rows[0] == "fold,final_val_mae,best_val_mae"
        assert len(rows) == 6  # header + 3 folds + mean + std
        finals = [float(r.split(",")[1]) for r in rows[1:4]]
        mean_row = float(rows[4].split(",")[1])
        np.testing.assert_allclose(mean_row, np.mean(finals), rtol=1e-12)

    def test_threaded_matches_serial(self, cycle_csv):
        outs = []
        for jobs in ("1", "3"):
            code, stdout, _ = run_cli([
                "crossval", "--data", str(cycle_csv), "--k", "3",
                "--hidden", "1", "--units", "4", "--epochs", "1",
                "--batch", "128", "--seed", "2", "--jobs", jobs,
            ])
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1]

    def test_bad_k_exit_2(self, cycle_csv):
        code, _, _ = run_cli(
            ["crossval", "--data", str(cycle_csv), "--k", "1", "--epochs", "1"]
        )
        assert code == 2


class TestEvaluate:
    def test_missing_model_exit_3(self, cycle_csv, tmp_path):
        code, _, _ = run_cli([
            "evaluate", "--model", str(tmp_path / "no.json"),
            "--data", str(cycle_csv),
        ])
        assert code == 3

    def test_corrupt_model_exit_4(self, cycle_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ this is not json")
        code, _, err = run_cli(
            ["evaluate", "--model", str(bad), "--data", str(cycle_csv)]
        )
        assert code == 4
        assert "corrupt model file" in err


@pytest.fixture(scope="module")
def trained(cycle_csv, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("predict")
    model = tmp / "model.json"
    test_csv = tmp / "test.csv"
    code, _, _ = run_cli(fast_train_args(
        cycle_csv,
        extra=["--model-out", str(model), "--save-test", str(test_csv)],
    ))
    assert code == 0
    return model, test_csv


def overflow_model(model, tmp_path):
    """A model file whose stored values are all finite, so it loads; its
    output layer computes inf - inf = NaN on the rows that overflow."""
    _, norm, meta = load_model(model)
    net = Network(
        layers=(LayerSpec(3, 2, "relu"), LayerSpec(2, 1, "linear")),
        weights=[np.full((3, 2), 1e308), np.array([[1.0], [-1.0]])],
        biases=[np.zeros(2), np.zeros(1)],
    )
    bad = tmp_path / "overflow.json"
    save_model(net, norm, bad, meta)
    return bad


class TestPredict:
    def test_labeled_csv_accepted(self, trained, tmp_path):
        model, test_csv = trained
        out = tmp_path / "pred.csv"
        code, stdout, err = run_cli([
            "predict", "--model", str(model), "--data", str(test_csv),
            "--out", str(out),
        ])
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "t_s,soc_pred_pct"
        assert len(lines) == len(load_csv(test_csv)) + 1
        assert stdout.strip().startswith(f"wrote {len(lines) - 1} predictions")

    def test_feature_only_csv_accepted(self, trained, tmp_path):
        model, test_csv = trained
        features = tmp_path / "features.csv"
        rows = test_csv.read_text().splitlines()
        trimmed = ["t_s,voltage_v,current_a,temp_c"]
        trimmed += [r.rsplit(",", 1)[0] for r in rows[1:]]
        features.write_text("\n".join(trimmed) + "\n")
        out = tmp_path / "pred.csv"
        code, _, err = run_cli([
            "predict", "--model", str(model), "--data", str(features),
            "--out", str(out),
        ])
        assert code == 0, err
        values = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_predictions_clamped(self, trained, tmp_path):
        model, test_csv = trained
        out = tmp_path / "pred.csv"
        run_cli(["predict", "--model", str(model), "--data", str(test_csv),
                 "--out", str(out)])
        values = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_nan_weight_model_exit_4(self, trained, tmp_path):
        model, test_csv = trained
        net, norm, meta = load_model(model)
        net.weights[0][0, 0] = float("nan")
        bad = tmp_path / "nan.json"
        save_model(net, norm, bad, meta)
        out = tmp_path / "pred.csv"
        code, _, err = run_cli(["predict", "--model", str(bad), "--data",
                                str(test_csv), "--out", str(out)])
        assert code == 4
        assert "non-finite" in err
        assert not out.exists()

    def test_non_finite_prediction_exit_5(self, trained, tmp_path):
        model, test_csv = trained
        bad = overflow_model(model, tmp_path)
        out = tmp_path / "predictions.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(["predict", "--model", str(bad), "--data",
                                    str(test_csv), "--out", str(out)])
        assert code == 5
        assert "non-finite" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_overflow_reports_error_without_numpy_warnings(trained, tmp_path, command):
    # A separate interpreter with Python's default warning filters, as
    # from a shell, so any numpy RuntimeWarning would print to stderr.
    model, test_csv = trained
    argv = [command, "--model", str(overflow_model(model, tmp_path)),
            "--data", str(test_csv)]
    if command == "predict":
        argv += ["--out", str(tmp_path / "predictions.csv")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 5
    assert re.search(r"^error: .*non-finite", proc.stderr, re.MULTILINE)
    assert "RuntimeWarning" not in proc.stderr


class TestParser:
    def test_version_flag(self):
        code, stdout, _ = run_cli(["--version"])
        assert code == 0
        assert stdout.startswith("socdfn ")

    def test_no_subcommand_exit_2(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_help_lists_exit_codes(self):
        code, stdout, _ = run_cli(["--help"])
        assert code == 0
        assert "exit codes" in stdout
        assert "numeric failure" in stdout
