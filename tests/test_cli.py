"""End-to-end tests of the command line, run in-process via main()."""

import argparse
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import rows_of, run_cli

import socdfn
from socdfn.cli import _add_train_args
from socdfn.data import _CHUNK_CHARS, CSV_HEADER, PREDICTION_HEADER, load_csv
from socdfn.modelio import CV_HEADER, HISTORY_HEADER, load_model, save_model
from socdfn.network import LayerSpec, Network

README = Path(__file__).resolve().parents[1] / "README.md"

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

    def test_gnuplot_without_history_fails_before_any_write(self, cycle_csv, tmp_path):
        saved = tmp_path / "t.csv"
        code, _, err = run_cli(fast_train_args(
            cycle_csv, extra=["--save-test", str(saved), "--emit-gnuplot"]
        ))
        assert code == 2, err
        assert not saved.exists()

    def test_gnuplot_written_next_to_history(self, cycle_csv, tmp_path):
        history = tmp_path / "h.csv"
        code, _, _ = run_cli(fast_train_args(
            cycle_csv, extra=["--history-out", str(history), "--emit-gnuplot"]
        ))
        assert code == 0
        script = tmp_path / "h.csv.gnuplot"
        assert script.exists()
        assert str(history) in script.read_text()

    def test_gnuplot_quotes_history_path(self, cycle_csv, tmp_path, monkeypatch):
        # gnuplot reads '' inside a single-quoted string as one quote.
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(fast_train_args(
            cycle_csv, extra=["--history-out", "it's.csv", "--emit-gnuplot"]
        ))
        assert code == 0, err
        names = HISTORY_HEADER.split(",")
        train_col, val_col = names.index("train_mae") + 1, names.index("val_mae") + 1
        lines = Path("it's.csv.gnuplot").read_text().splitlines()
        assert lines[-2:] == [
            f"plot 'it''s.csv' using 1:{train_col} with lines title 'train MAE', \\",
            f"     'it''s.csv' using 1:{val_col} with lines title 'val MAE'",
        ]

    def test_constant_feature_is_exit_4_with_plain_std(self, tmp_path):
        # No internal resistance, so no self-heating: temperature stays at ambient.
        data = tmp_path / "flat-temp.csv"
        code, _, err = run_cli(
            ["gen-data", "--out", str(data), "--duration", "900", "--r-internal", "0"]
        )
        assert code == 0, err
        code, _, err = run_cli(["train", "--data", str(data), "--epochs", "1"])
        assert code == 4
        assert err == "error: feature 'temp_c' is constant (std 0.0), cannot normalize\n"

    def test_failed_output_leaves_no_file(self, cycle_csv, tmp_path):
        out = ["--history-out", str(tmp_path / "h.csv"), "--emit-gnuplot",
               "--save-train", str(tmp_path / "s.csv"),
               "--model-out", str(tmp_path / "missing" / "m.json")]
        code, _, err = run_cli(fast_train_args(cycle_csv, extra=out))
        assert code == 3
        assert err == f"error: [Errno 2] No such file or directory: {out[-1]!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_output_keeps_existing_file(self, cycle_csv, tmp_path):
        history = tmp_path / "h.csv"
        history.write_bytes(b"kept\n")
        code, _, _ = run_cli(fast_train_args(cycle_csv, extra=[
            "--history-out", str(history),
            "--model-out", str(tmp_path / "missing" / "m.json"),
        ]))
        assert code == 3
        assert history.read_bytes() == b"kept\n"
        assert list(tmp_path.iterdir()) == [history]

    def test_replaced_file_gets_default_permissions(self, cycle_csv, tmp_path):
        # The new file is created under the umask; a write in place would
        # keep the old file's 0o600.
        model = tmp_path / "m.json"
        model.write_bytes(b"old\n")
        model.chmod(0o600)
        old_umask = os.umask(0o022)
        try:
            code, _, err = run_cli(fast_train_args(
                cycle_csv, extra=["--model-out", str(model)]
            ))
        finally:
            os.umask(old_umask)
        assert code == 0, err
        assert stat.S_IMODE(model.stat().st_mode) == 0o644

    def test_directory_as_output_leaves_no_file(self, cycle_csv, tmp_path):
        (tmp_path / "a-dir").mkdir()
        out = ["--history-out", str(tmp_path / "h.csv"),
               "--model-out", str(tmp_path / "a-dir")]
        code, _, err = run_cli(fast_train_args(cycle_csv, extra=out))
        assert code == 3
        assert err == f"error: [Errno 21] Is a directory: {out[-1]!r}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "a-dir"]
        assert list((tmp_path / "a-dir").iterdir()) == []

    def test_symlinked_output_is_written_through(self, cycle_csv, tmp_path):
        real = tmp_path / "real.csv"
        real.write_bytes(b"old\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        code, _, err = run_cli(fast_train_args(
            cycle_csv, extra=["--history-out", str(link)]
        ))
        assert code == 0, err
        assert link.is_symlink()
        lines = real.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_mae,val_loss,val_mae"
        assert len(lines) == 3
        assert sorted(tmp_path.iterdir()) == [link, real]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_output_is_written_in_place(self, cycle_csv, tmp_path):
        regular = tmp_path / "regular.csv"
        code, _, err = run_cli(fast_train_args(
            cycle_csv, extra=["--history-out", str(regular)]
        ))
        assert code == 0, err
        fifo = tmp_path / "h.csv"
        os.mkfifo(fifo)
        # A second writer held open, so the reader opens at once and sees
        # end of file only after this test closes it, whatever the CLI did.
        held = os.open(fifo, os.O_RDWR)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            code, _, err = run_cli(fast_train_args(
                cycle_csv, extra=["--history-out", str(fifo)]
            ))
        finally:
            os.close(held)
            reader.join(timeout=30)
        assert code == 0, err
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == [regular.read_bytes()]

    @pytest.mark.parametrize("outputs, named", [
        (["--history-out", "x.csv", "--model-out", "x.csv"], "x.csv and x.csv"),
        (["--save-train", "s.csv", "--save-val", "./s.csv"], "s.csv and ./s.csv"),
        (["--history-out", "link.csv", "--model-out", "x.csv"], "link.csv and x.csv"),
        (["--history-out", "h", "--emit-gnuplot", "--model-out", "h.gnuplot"],
         "h.gnuplot and h.gnuplot"),
    ], ids=["same-name", "dot-slash", "symlink", "gnuplot"])
    def test_two_outputs_naming_one_file_is_exit_2(
        self, tmp_path, monkeypatch, outputs, named
    ):
        # --data is missing, so exit 2 rather than 3 shows the check runs first.
        monkeypatch.chdir(tmp_path)
        Path("link.csv").symlink_to("x.csv")
        code, _, err = run_cli(fast_train_args(tmp_path / "missing.csv", extra=outputs))
        assert code == 2
        assert err == f"error: outputs {named} are the same file\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "link.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_special_file_may_be_named_twice(self, cycle_csv):
        code, _, err = run_cli(fast_train_args(
            cycle_csv, extra=["--history-out", "/dev/null", "--model-out", "/dev/null"]
        ))
        assert code == 0, err

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

    @pytest.mark.parametrize("token", ["4_2", " 1", "1 ", "\u0661"])
    def test_number_outside_the_grammar_is_exit_4(self, tmp_path, token):
        # float() would read each of these, as 42.0 or 1.0.
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{CSV_HEADER}\n0,4.2,0,25,50\n1,4.2,{token},25,50\n",
                       encoding="utf-8")
        code, _, err = run_cli(["train", "--data", str(bad), "--epochs", "1"])
        assert code == 4
        assert f"line 3: cannot parse {token!r} as a number" in err

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


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_header_only_csv_is_exit_4(trained, tmp_path, command):
    model, _ = trained
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    out = tmp_path / "predictions.csv"
    argv = [command, "--model", str(model), "--data", str(empty)]
    if command == "predict":
        argv += ["--out", str(out)]
    code, stdout, err = run_cli(argv)
    assert code == 4
    assert "no data rows" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("blank_lines", [1, 3])
def test_trailing_blank_lines_are_exit_4_without_numpy_warnings(tmp_path, blank_lines):
    # The 1025 rows of 64 characters end the first 64 KiB chunk, so the
    # next chunk holds only blank lines. A separate interpreter with
    # Python's default warning filters, so a warning would print.
    row = ",4.20,-0.500,25.00,50.000000"
    rows = [f"{i:0{63 - len(row)}d}{row}" for i in range(1025)]
    path = tmp_path / "cycle.csv"
    path.write_text("\n".join([CSV_HEADER, *rows, *[""] * blank_lines]) + "\n",
                    encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        assert fh.readlines(_CHUNK_CHARS) == [line + "\n" for line in rows]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", "train", "--data", str(path), "--epochs", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stderr == "error: line 1027: blank line\n"


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("body, message", [
    (b"[" * 200_000 + b"]" * 200_000, "corrupt model file"),
    # Over Python's integer digit limit; without the limit, a version
    # this build does not read.
    (b'{"format_version": ' + b"1" * 5000 + b"}", "corrupt model file|unsupported"),
], ids=["deep-nesting", "long-integer"])
def test_malformed_model_is_exit_4_without_traceback(
    cycle_csv, tmp_path, command, body, message
):
    # A separate interpreter, so an uncaught exception prints its traceback.
    model = tmp_path / "model.json"
    model.write_bytes(body)
    out = tmp_path / "predictions.csv"
    argv = [command, "--model", str(model), "--data", str(cycle_csv)]
    if command == "predict":
        argv += ["--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(socdfn.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4
    assert re.fullmatch(rf"error: [^\n]*({message})[^\n]*\n", proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_missing_weight_payload_is_exit_4(trained, tmp_path):
    model, test_csv = trained
    doc = json.loads(model.read_text())
    del doc["weights"][-1]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["evaluate", "--model", str(bad), "--data", str(test_csv)])
    assert code == 4
    assert err == "error: 2 layers but 1 weight and 2 bias payloads\n"


@pytest.mark.parametrize("version", [True, 1.0])
def test_format_version_must_be_an_integer(trained, tmp_path, version):
    model, test_csv = trained
    doc = json.loads(model.read_text())
    doc["format_version"] = version
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["evaluate", "--model", str(bad), "--data", str(test_csv)])
    assert code == 4
    assert err == (
        f"error: model format version {version!r} unsupported; "
        "this build reads version 1 only\n"
    )


NO_DRAW_CHILD = """
import sys
from socdfn.cli import main
model, data, out = sys.argv[1:]
assert main(["predict", "--model", model, "--data", data, "--out", out]) == 0
assert main(["evaluate", "--model", model, "--data", data]) == 0
assert "numpy.random" not in sys.modules, "numpy.random was loaded"
"""


def test_predict_and_evaluate_do_not_load_numpy_random(trained, tmp_path):
    # Neither command draws a random number, so neither pays for loading
    # numpy.random (about 6 MB of peak RSS). The model comes from the
    # train fixture, which draws, so it is built in another process.
    env = dict(os.environ, PYTHONPATH=str(Path(socdfn.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, sys; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    if probe.stdout.strip() == "True":
        pytest.skip("this numpy loads numpy.random on import numpy")
    model, test_csv = trained
    proc = subprocess.run(
        [sys.executable, "-c", NO_DRAW_CHILD, str(model), str(test_csv),
         str(tmp_path / "predictions.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# Prints what OpenBLAS read from OPENBLAS_THREAD_TIMEOUT when numpy
# loaded it (0 when unset), through the handle network._openblas_thread_fns
# uses, or "absent" for a BLAS without the getter.
THREAD_TIMEOUT_CHILD = """
import ctypes
import socdfn.cli
try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath
lib = ctypes.CDLL(_multiarray_umath.__file__)
getter = getattr(lib, "openblas_thread_timeout", None)
if getter is None:
    print("absent")
else:
    getter.argtypes = []
    getter.restype = ctypes.c_int
    print(getter())
"""


@pytest.mark.parametrize("env_value, expected", [(None, 4), ("12", 12)])
def test_cli_lets_idle_openblas_workers_sleep(env_value, expected):
    # A fresh interpreter: OpenBLAS reads the variable only when numpy
    # first loads it, and this process loaded numpy before socdfn.cli.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    if env_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = env_value
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_TIMEOUT_CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "absent":
        pytest.skip("numpy's BLAS exports no openblas_thread_timeout, so it has no "
                    "idle policy to read")
    assert int(proc.stdout) == expected


@pytest.mark.parametrize("command", ["train", "crossval-jobs1", "crossval-jobs2"])
def test_divergence_reports_error_without_numpy_warnings(cycle_csv, command):
    # A separate interpreter with Python's default warning filters, as
    # from a shell; crossval --jobs 2 diverges inside its fold threads.
    argv = fast_train_args(cycle_csv, extra=["--optimizer", "sgd", "--lr", "1e12"])
    if command != "train":
        argv[0] = "crossval"
        argv += ["--k", "2", "--jobs", command[-1]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 5, proc.stderr
    assert re.search(r"^error: .*diverged", proc.stderr, re.MULTILINE)
    assert "RuntimeWarning" not in proc.stderr


# (subcommand, flag, value): each value is out of range for its flag.
BAD_FLAG_VALUES = [
    ("gen-data", "--duration", "nan"),
    ("gen-data", "--duration", "inf"),
    ("gen-data", "--dt", "nan"),
    ("gen-data", "--dt", "inf"),
    ("gen-data", "--capacity", "nan"),
    ("gen-data", "--capacity", "inf"),
    ("gen-data", "--peak", "nan"),
    ("gen-data", "--peak", "inf"),
    ("gen-data", "--r-internal", "nan"),
    ("gen-data", "--ambient", "nan"),
    ("gen-data", "--ambient", "-inf"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("train", "--epsilon", "nan"),
    ("train", "--epsilon", "inf"),
    ("train", "--l1", "nan"),
    ("train", "--l2", "nan"),
    ("train", "--l2", "inf"),
    ("crossval", "--jobs", "0"),
    ("crossval", "--jobs", "-3"),
    ("gen-data", "--r-internal", "20"),
    ("gen-data", "--peak", "1e308"),
    ("gen-data", "--peak", "1.7e308"),
    # Runs too big for memory: more steps than one array can hold, and
    # first allocations (11.8 PiB, 1.5 PiB) larger than the address space,
    # so no host can map them.
    ("gen-data", "--dt", "1e-300"),
    ("gen-data", "--duration", "1e18"),
    ("train", "--units", str(2**46)),
]


@pytest.mark.parametrize(
    "command, flag, value", BAD_FLAG_VALUES,
    ids=[f"{c}{f}={v}" for c, f, v in BAD_FLAG_VALUES],
)
def test_bad_flag_value_is_exit_2(cycle_csv, tmp_path, command, flag, value):
    # A separate interpreter, as from a shell, so a traceback or a numpy
    # warning would reach stderr.
    out = tmp_path / "out"
    tiny = ["--data", str(cycle_csv), "--hidden", "1", "--units", "4", "--epochs", "1"]
    argv = {
        "gen-data": ["gen-data", "--out", str(out)],
        "train": ["train", *tiny, "--model-out", str(out)],
        "crossval": ["crossval", *tiny, "--k", "2", "--report-out", str(out)],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv, f"{flag}={value}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert re.search(r"^error: ", proc.stderr, re.MULTILINE)
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


# (subcommand, flag, case): the case's path replaces that flag's value.
# A missing file or a directory as input, and an output inside a missing
# directory, are I/O errors (exit 3); a bad CSV header, or a data line
# holding a byte that is not UTF-8, is exit 4.
BAD_PATHS = [
    ("gen-data", "--out", "in-missing-dir"),
    *(("train", "--data", case) for case in ("missing", "directory", "bad-header")),
    *(("train", flag, "in-missing-dir") for flag in (
        "--model-out", "--history-out", "--save-train", "--save-val", "--save-test"
    )),
    *(("crossval", "--data", case) for case in ("missing", "directory", "bad-header")),
    ("crossval", "--report-out", "in-missing-dir"),
    *(("evaluate", "--model", case) for case in ("missing", "directory")),
    *(("evaluate", "--data", case) for case in (
        "missing", "directory", "bad-header", "not-utf8"
    )),
    *(("predict", "--model", case) for case in ("missing", "directory")),
    *(("predict", "--data", case) for case in (
        "missing", "directory", "bad-header", "not-utf8"
    )),
    ("predict", "--out", "in-missing-dir"),
]


@pytest.mark.parametrize(
    "command, flag, case", BAD_PATHS,
    ids=[f"{c}{f}={case}" for c, f, case in BAD_PATHS],
)
def test_bad_path_is_error_without_output(
    trained, cycle_csv, tmp_path, command, flag, case
):
    # A separate interpreter, as from a shell, so a traceback would reach
    # stderr. It runs in tmp_path, where every default output would land.
    model, _ = trained
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "bad.csv").write_text("time,v,i,temp,soc\n0,4.2,0,25,50\n")
    (tmp_path / "not-utf8.csv").write_bytes(
        CSV_HEADER.encode() + b"\n1,3.7,-1,25,50\n2,3.7\xff,-1,25,50\n"
    )
    before = sorted(tmp_path.rglob("*"))
    tiny = {"--hidden": "1", "--units": "4", "--epochs": "1"}
    args = {
        "gen-data": {"--out": "cycle.csv", "--duration": "300"},
        "train": {"--data": str(cycle_csv), **tiny},
        "crossval": {"--data": str(cycle_csv), "--k": "2", **tiny},
        "evaluate": {"--model": str(model), "--data": str(cycle_csv)},
        "predict": {"--model": str(model), "--data": str(cycle_csv), "--out": "p.csv"},
    }[command]
    args[flag] = {
        "missing": "missing.csv",
        "directory": "a-dir",
        "in-missing-dir": str(Path("no-such-dir", "out.csv")),
        "bad-header": "bad.csv",
        "not-utf8": "not-utf8.csv",
    }[case]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    argv = [command, *(a for pair in args.items() for a in pair)]
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == (4 if case in ("bad-header", "not-utf8") else 3), proc.stderr
    assert re.search(r"^error: ", proc.stderr, re.MULTILINE)
    assert "Traceback" not in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


# (argv, the clashing paths as the error names them): each run names an
# input as one of its outputs, as given, through ./ or through a symlink.
INPUT_CLASHES = [
    (["predict", "--model", "m.json", "--data", "c.csv", "--out", "m.json"],
     "input m.json and output m.json"),
    (["predict", "--model", "m.json", "--data", "c.csv", "--out", "./c.csv"],
     "input c.csv and output ./c.csv"),
    (["crossval", "--data", "c.csv", "--k", "2", "--epochs", "1", "--report-out", "c.csv"],
     "input c.csv and output c.csv"),
    (["train", "--data", "c.csv", "--epochs", "1", "--save-train", "link.csv"],
     "input c.csv and output link.csv"),
    (["train", "--data", "link.csv", "--epochs", "1", "--model-out", "c.csv"],
     "input link.csv and output c.csv"),
]


@pytest.mark.parametrize("argv, named", INPUT_CLASHES, ids=[
    "predict-out-model", "predict-out-data-dot-slash", "crossval-report-out",
    "train-save-train-symlink", "train-model-out-data-symlink",
])
def test_output_naming_an_input_is_exit_2(
    trained, cycle_csv, tmp_path, monkeypatch, argv, named
):
    monkeypatch.chdir(tmp_path)
    inputs = {Path("c.csv"): cycle_csv.read_bytes(), Path("m.json"): trained[0].read_bytes()}
    for path, data in inputs.items():
        path.write_bytes(data)
    Path("link.csv").symlink_to("c.csv")
    before = sorted(tmp_path.iterdir())
    code, _, err = run_cli(argv)
    assert code == 2
    assert err == f"error: {named} are the same file\n"
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("out, error", [
    ("a-dir", "[Errno 21] Is a directory: 'a-dir'"),
    ("no-such-dir/m.json", "[Errno 2] No such file or directory: 'no-such-dir/m.json'"),
], ids=["directory", "missing-parent"])
def test_unwritable_model_out_is_exit_3_before_data_is_read(
    tmp_path, monkeypatch, out, error
):
    # --data is malformed, so exit 3 rather than 4 shows the check runs first.
    monkeypatch.chdir(tmp_path)
    Path("a-dir").mkdir()
    Path("bad.csv").write_text("time,v,i,temp,soc\n0,4.2,0,25,50\n")
    code, _, err = run_cli(["train", "--data", "bad.csv", "--epochs", "1", "--model-out", out])
    assert code == 3
    assert err == f"error: {error}\n"
    assert list(Path("a-dir").iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gen-data", "--duration", "300", "--out", ""],
    ["predict", "--model", "missing.json", "--data", "missing.csv", "--out", ""],
    ["train", "--data", "missing.csv", "--epochs", "1", "--model-out", ""],
    ["train", "--data", "missing.csv", "--epochs", "1", "--history-out", "", "--emit-gnuplot"],
], ids=["gen-data-out", "predict-out", "train-model-out", "train-history-out-gnuplot"])
def test_empty_output_path_is_exit_3_before_input_is_read(tmp_path, monkeypatch, argv):
    # The inputs are missing, so the message naming '' shows the check runs first.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv)
    assert code == 3
    assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


CONSOLE_SCRIPT = "import sys; from socdfn.cli import main; sys.exit(main())"


def test_verbose_flag_logs_progress_to_stderr(tmp_path):
    # A separate interpreter: under pytest the root logger already has a
    # handler, and logging.basicConfig then adds none.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    runs = {
        "gen-data": ["gen-data", "--out", "c.csv", "--duration", "30000", "--peak", "3"],
        "train": ["train", "--data", "c.csv", "--hidden", "1", "--units", "4",
                  "--epochs", "1"],
    }
    # Started as the socdfn console script starts it, and as a module,
    # whose __name__ is then "__main__".
    console_script, module = ["-c", CONSOLE_SCRIPT], ["-m", "socdfn.cli"]
    for start, verbose in [(console_script, []), (console_script, ["-v"]), (module, ["-v"])]:
        stderr = {}
        for name, argv in runs.items():
            proc = subprocess.run(
                [sys.executable, *start, *verbose, *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            stderr[name] = proc.stderr
        if not verbose:
            assert stderr == {"gen-data": "", "train": ""}
            continue
        assert re.fullmatch(
            r"INFO socdfn\.battsim: cell empty after step \d+ of 30000, truncating cycle\n",
            stderr["gen-data"],
        ), start
        assert re.fullmatch(
            r"INFO socdfn\.cli: training 1 epochs on \d+ rows \(val \d+, test \d+\)\n",
            stderr["train"],
        ), start


# (subcommand, output flag, first line of that output): one per subcommand
# that writes a file, each through the same write path.
WRITTEN_OUTPUTS = [
    ("gen-data", "--out", CSV_HEADER),
    ("train", "--history-out", HISTORY_HEADER),
    ("crossval", "--report-out", CV_HEADER),
    ("predict", "--out", PREDICTION_HEADER),
]


@pytest.mark.parametrize("target", ["piped-stdout", "symlink"])
@pytest.mark.parametrize(
    "command, flag, header", WRITTEN_OUTPUTS, ids=[c for c, _, _ in WRITTEN_OUTPUTS]
)
def test_output_is_written_in_place_or_through_link(
    trained, cycle_csv, tmp_path, command, flag, header, target
):
    # A separate interpreter whose stdout is a pipe, as in `socdfn ... | cat`.
    # It runs in tmp_path, where a stray temporary file would show.
    model, _ = trained
    tiny = ["--data", str(cycle_csv), "--hidden", "1", "--units", "4", "--epochs", "1"]
    argv = {
        "gen-data": ["gen-data", "--duration", "300"],
        "train": ["train", *tiny],
        "crossval": ["crossval", *tiny, "--k", "2", "--jobs", "1"],
        "predict": ["predict", "--model", str(model), "--data", str(cycle_csv)],
    }[command]
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    if target == "piped-stdout":
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout to name the child's stdout by")
        out = "/dev/stdout"
    else:
        real.write_bytes(b"old\n")
        link.symlink_to(real.name)
        out = str(link)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(socdfn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv, flag, out],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if target == "piped-stdout":
        assert proc.stdout.startswith(header + "\n")
        assert list(tmp_path.iterdir()) == []
    else:
        assert link.is_symlink()
        assert real.read_text().startswith(header + "\n")
        assert sorted(tmp_path.iterdir()) == [link, real]


@pytest.mark.parametrize("argv", [
    ["train", "--data", "missing.csv", "--lr", "nan"],
    ["crossval", "--data", "missing.csv", "--k", "4", "--l2", "inf"],
    ["train", "--data", "missing.csv", "--hidden", "3", "--dropout", "0.5"],
])
def test_flags_are_checked_before_data_is_read(tmp_path, argv):
    argv[2] = str(tmp_path / argv[2])
    code, _, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--units", "0", "units must be >= 1, got 0"),
    ("--dropout", "1", "dropout must be in [0, 1), got 1.0"),
])
def test_arch_flag_error_names_the_flag_before_data_is_read(tmp_path, flag, value, message):
    code, out, err = run_cli(["train", "--data", str(tmp_path / "missing.csv"), flag, value])
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["train", "--data", "missing.csv", "--train-frac", "2"],
    ["train", "--data", "missing.csv", "--train-frac", "0.5", "--val-frac", "0.5"],
    ["crossval", "--data", "missing.csv", "--k", "1"],
    ["crossval", "--data", "missing.csv", "--k", "4", "--jobs", "0"],
])
def test_split_and_fold_flags_are_checked_before_data_is_read(tmp_path, argv):
    argv[2] = str(tmp_path / argv[2])
    code, _, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: ")


def test_readme_library_snippet_is_the_train_command(tmp_path, monkeypatch):
    """README's "Library use" snippet, run as written, is `socdfn train --seed 0`."""
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["gen-data", "--out", "cycle.csv", "--duration", "600"])
    assert code == 0, err
    code, _, err = run_cli(
        ["train", "--data", "cycle.csv", "--seed", "0", "--model-out", "model.json"]
    )
    assert code == 0, err
    cli_net, cli_norm, _ = load_model("model.json")

    namespace = {}
    exec(snippet, namespace)
    assert len(namespace["dataset"]) == 600
    np.testing.assert_array_equal(namespace["net"].flat, cli_net.flat)
    np.testing.assert_array_equal(namespace["norm"].mean, cli_norm.mean)
    np.testing.assert_array_equal(namespace["norm"].std, cli_norm.std)


@pytest.mark.parametrize("flags, optimizer", [
    (["--optimizer", "rmsprop", "--rho", "0.5", "--epsilon", "1e-6"],
     {"kind": "rmsprop", "rho": 0.5, "epsilon": 1e-6}),
    (["--beta1", "0.8", "--beta2", "0.99"], {"beta1": 0.8, "beta2": 0.99}),
], ids=["rmsprop", "adam"])
def test_optimizer_flags_reach_the_update_rule(tmp_path, flags, optimizer):
    """`train`'s non-default optimizer flags reach the matching OptimizerConfig fields."""
    from socdfn.data import load_csv
    from socdfn.network import RegConfig, make_specs
    from socdfn.optimize import OptimizerConfig
    from socdfn.train import TrainConfig, fit_datasets, holdout

    cycle = tmp_path / "cycle.csv"
    model = tmp_path / "model.json"
    code, _, err = run_cli(
        ["gen-data", "--out", str(cycle), "--duration", "600", "--seed", "0"]
    )
    assert code == 0, err
    code, _, err = run_cli(["train", "--data", str(cycle), "--epochs", "2", "--units", "16",
                            "--seed", "0", "--model-out", str(model), *flags])
    assert code == 0, err
    cli_net, _, _ = load_model(model)

    train, val, _ = holdout(load_csv(cycle), 0.8, 0.1, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=128, optimizer=OptimizerConfig(**optimizer),
                      reg=RegConfig(), seed=0)
    net, _, _ = fit_datasets(make_specs(hidden=2, units=16, dropout=0.0), train, val, cfg)
    np.testing.assert_array_equal(net.flat, cli_net.flat)


# A non-default value of each training flag that a saved model's meta echoes:
# every dest of _add_train_args but the split and seed ones, which meta
# records under "split" and "seed".
ECHOED_TRAIN_FLAGS = {
    "epochs": 2, "batch_size": 64, "optimizer": "rmsprop", "lr": 0.002, "beta1": 0.8,
    "beta2": 0.99, "rho": 0.8, "epsilon": 1e-07, "l1": 0.0001, "l2": 0.001, "loss": "mae",
}


def test_model_meta_echoes_every_training_flag(cycle_csv, tmp_path):
    parser = argparse.ArgumentParser()
    _add_train_args(parser)
    defaults = vars(parser.parse_args([]))
    option = {action.dest: action.option_strings[0] for action in parser._actions}
    for dest in ("train_frac", "val_frac", "no_shuffle", "seed"):
        del defaults[dest]
    assert set(defaults) == set(ECHOED_TRAIN_FLAGS)
    flags = []
    for dest, value in ECHOED_TRAIN_FLAGS.items():
        assert value != defaults[dest], dest
        flags += [option[dest], str(value)]
    model = tmp_path / "model.json"
    code, _, err = run_cli(["train", "--data", str(cycle_csv), "--hidden", "1", "--units", "8",
                            "--model-out", str(model), *flags])
    assert code == 0, err
    _, _, meta = load_model(model)
    assert meta["train"] == ECHOED_TRAIN_FLAGS


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
