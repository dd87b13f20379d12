"""Tests for model persistence and the CSV/gnuplot report writers."""

import base64
import json
import math

import numpy as np
import pytest

from socdfn.data import Normalizer
from socdfn.errors import ModelFormatError
from socdfn.modelio import (
    CV_HEADER,
    HISTORY_HEADER,
    MODEL_FORMAT_VERSION,
    load_model,
    save_model,
    write_cv_csv,
    write_gnuplot_script,
    write_history_csv,
)
from socdfn.network import init_network, make_specs, predict
from socdfn.rng import make_rng
from socdfn.train import CVReport, EpochMetrics, RunHistory


def example_model(seed=3, dropout=0.0, hidden=2):
    net = init_network(make_specs(hidden=hidden, units=8, dropout=dropout), seed=seed)
    rng = make_rng(seed + 1)
    norm = Normalizer(mean=rng.normal(size=3), std=rng.uniform(0.5, 2.0, size=3))
    return net, norm


def example_history():
    return RunHistory(
        epochs=(
            EpochMetrics(train_loss=9.5, train_mae=2.5, val_loss=10.25, val_mae=2.75),
            EpochMetrics(train_loss=4.125, train_mae=1.5, val_loss=5.0, val_mae=1.625),
        )
    )


class TestModelRoundTrip:
    def test_parameters_bit_exact(self, tmp_path):
        net, norm = example_model()
        path = tmp_path / "model.json"
        save_model(net, norm, path, meta={"seed": 3})
        loaded, norm2, meta = load_model(path)
        assert loaded.layers == net.layers
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, net.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(norm2.mean, norm.mean)
        np.testing.assert_array_equal(norm2.std, norm.std)
        assert meta == {"seed": 3}

    def test_predictions_identical_after_reload(self, tmp_path):
        net, norm = example_model(seed=8)
        path = tmp_path / "model.json"
        save_model(net, norm, path)
        loaded, _, _ = load_model(path)
        x = make_rng(4).normal(size=(16, 3))
        np.testing.assert_array_equal(predict(loaded, x), predict(net, x))

    def test_dropout_spec_survives(self, tmp_path):
        net, norm = example_model(dropout=0.5, hidden=2)
        path = tmp_path / "model.json"
        save_model(net, norm, path)
        loaded, _, _ = load_model(path)
        assert loaded.layers[0].dropout_after == 0.5

    def test_save_twice_is_byte_identical(self, tmp_path):
        net, norm = example_model()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(net, norm, a, meta={"k": 1})
        save_model(net, norm, b, meta={"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_document_shape(self, tmp_path):
        net, norm = example_model()
        path = tmp_path / "model.json"
        save_model(net, norm, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == MODEL_FORMAT_VERSION
        assert len(doc["layers"]) == len(net.layers)
        assert set(doc) == {
            "format_version", "layers", "weights", "biases", "normalizer", "meta",
        }


class TestLoadModelErrors:
    def write_doc(self, tmp_path, mutate):
        net, norm = example_model()
        path = tmp_path / "model.json"
        save_model(net, norm, path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_truncated_file(self, tmp_path):
        net, norm = example_model()
        path = tmp_path / "model.json"
        save_model(net, norm, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="corrupt model file.*offset"):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not a model")
        with pytest.raises(ModelFormatError, match="corrupt model file"):
            load_model(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelFormatError, match="not a JSON object"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        path = self.write_doc(
            tmp_path, lambda d: d.update(format_version=MODEL_FORMAT_VERSION + 1)
        )
        with pytest.raises(ModelFormatError, match="unsupported"):
            load_model(path)

    def test_missing_key(self, tmp_path):
        path = self.write_doc(tmp_path, lambda d: d.pop("weights"))
        with pytest.raises(ModelFormatError, match="missing key 'weights'"):
            load_model(path)

    def test_wrong_payload_length(self, tmp_path):
        def chop(d):
            d["weights"][0] = d["weights"][0][: len(d["weights"][0]) // 2]

        path = self.write_doc(tmp_path, chop)
        with pytest.raises(ModelFormatError, match="layer 0 weights"):
            load_model(path)

    def test_invalid_base64(self, tmp_path):
        def corrupt(d):
            d["biases"][0] = "!!!not-base64!!!"

        path = self.write_doc(tmp_path, corrupt)
        with pytest.raises(ModelFormatError, match="invalid base64"):
            load_model(path)

    def test_nonpositive_std_rejected(self, tmp_path):
        net, _ = example_model()
        bad_norm = Normalizer(mean=np.zeros(3), std=np.array([1.0, 0.0, 1.0]))
        path = tmp_path / "model.json"
        save_model(net, bad_norm, path)
        with pytest.raises(ModelFormatError, match="std entries must be positive"):
            load_model(path)

    @pytest.mark.parametrize(
        "poison, what",
        [
            (lambda net, norm: net.weights[0].__setitem__((0, 0), math.nan),
             "layer 0 weights"),
            (lambda net, norm: net.biases[1].__setitem__(0, math.inf),
             "layer 1 biases"),
            (lambda net, norm: norm.mean.__setitem__(2, -math.inf),
             "normalizer mean"),
            (lambda net, norm: norm.std.__setitem__(1, math.inf),
             "normalizer std"),
        ],
    )
    def test_non_finite_payload_rejected(self, tmp_path, poison, what):
        net, norm = example_model()
        poison(net, norm)
        path = tmp_path / "model.json"
        save_model(net, norm, path)
        with pytest.raises(ModelFormatError, match=f"{what}: non-finite"):
            load_model(path)

    def test_no_layers(self, tmp_path):
        path = self.write_doc(tmp_path, lambda d: d.update(layers=[]))
        with pytest.raises(ModelFormatError, match="no layers"):
            load_model(path)

    def test_bad_layer_spec(self, tmp_path):
        def strip(d):
            del d["layers"][0]["activation"]

        path = self.write_doc(tmp_path, strip)
        with pytest.raises(ModelFormatError, match="bad layer spec"):
            load_model(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format_version": "\xff"}')
        with pytest.raises(ModelFormatError, match="invalid UTF-8 at offset 20"):
            load_model(path)

    def test_payload_not_whole_float64_values(self, tmp_path):
        def short(d):
            d["biases"][0] = base64.b64encode(bytes(12)).decode("ascii")

        path = self.write_doc(tmp_path, short)
        with pytest.raises(ModelFormatError, match="layer 0 biases: expected 8"):
            load_model(path)

    def test_infinite_layer_dim(self, tmp_path):
        path = self.write_doc(
            tmp_path, lambda d: d["layers"][0].update(in_dim=math.inf)
        )
        with pytest.raises(ModelFormatError, match="bad layer spec"):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["layers"][-1].update(activation="relu"),
            lambda d: d["layers"][1].update(in_dim=4, out_dim=4),
        ],
        ids=["relu-output", "broken-chain"],
    )
    def test_layers_that_form_no_network(self, tmp_path, mutate):
        # Every payload matches its own layer spec, but the specs do
        # not chain into a scalar regression network.
        def rewrite(d):
            mutate(d)
            d["weights"] = [
                base64.b64encode(bytes(8 * s["in_dim"] * s["out_dim"])).decode("ascii")
                for s in d["layers"]
            ]
            d["biases"] = [
                base64.b64encode(bytes(8 * s["out_dim"])).decode("ascii")
                for s in d["layers"]
            ]

        path = self.write_doc(tmp_path, rewrite)
        with pytest.raises(ModelFormatError, match="layers do not form a network"):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(weights=5), "'weights' is not a list"),
            (lambda d: d.update(normalizer=[]), "'normalizer' is not a dict"),
            (lambda d: d["biases"].__setitem__(1, 7), "layer 1 biases: payload is not"),
        ],
    )
    def test_wrong_json_type(self, tmp_path, mutate, message):
        path = self.write_doc(tmp_path, mutate)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.json")


class TestHistoryCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv(example_history(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == HISTORY_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert lines[2].split(",")[0] == "2"

    def test_values_round_trip_through_repr(self, tmp_path):
        hist = example_history()
        path = tmp_path / "history.csv"
        write_history_csv(hist, path)
        lines = path.read_text().splitlines()[1:]
        for row, metrics in zip(lines, hist.epochs):
            cells = row.split(",")
            assert float(cells[1]) == metrics.train_loss
            assert float(cells[2]) == metrics.train_mae
            assert float(cells[3]) == metrics.val_loss
            assert float(cells[4]) == metrics.val_mae

    def test_irrational_values_survive_exactly(self, tmp_path):
        hist = RunHistory(
            epochs=(
                EpochMetrics(
                    train_loss=math.pi,
                    train_mae=1.0 / 3.0,
                    val_loss=math.sqrt(2.0),
                    val_mae=0.1,
                ),
            )
        )
        path = tmp_path / "history.csv"
        write_history_csv(hist, path)
        cells = path.read_text().splitlines()[1].split(",")
        assert float(cells[1]) == math.pi
        assert float(cells[2]) == 1.0 / 3.0
        assert float(cells[3]) == math.sqrt(2.0)


class TestCvCsv:
    def make_report(self):
        finals = (2.0, 3.0, 4.0)
        bests = (1.5, 2.5, 3.5)
        return CVReport(
            k=3,
            per_fold_histories=(example_history(),) * 3,
            per_fold_final_val_mae=finals,
            per_fold_best_val_mae=bests,
            mean_val_mae=float(np.mean(finals)),
            std_val_mae=float(np.std(finals)),
        )

    def test_layout_and_summary_rows(self, tmp_path):
        path = tmp_path / "cv.csv"
        write_cv_csv(self.make_report(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == CV_HEADER
        assert len(lines) == 6  # header + 3 folds + mean + std
        assert lines[1].startswith("0,")
        mean_row = lines[4].split(",")
        std_row = lines[5].split(",")
        assert mean_row[0] == "mean"
        assert std_row[0] == "std"
        assert float(mean_row[1]) == 3.0
        assert float(mean_row[2]) == 2.5
        # Population std of {2, 3, 4} is sqrt(2/3).
        np.testing.assert_allclose(
            float(std_row[1]), math.sqrt(2.0 / 3.0), rtol=1e-15
        )

    def test_fold_rows_carry_both_scores(self, tmp_path):
        path = tmp_path / "cv.csv"
        write_cv_csv(self.make_report(), path)
        row = path.read_text().splitlines()[2].split(",")
        assert row[0] == "1"
        assert float(row[1]) == 3.0
        assert float(row[2]) == 2.5


class TestGnuplotScript:
    def test_references_history_and_curve_columns(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_gnuplot_script("runs/history.csv", path)
        text = path.read_text()
        assert "runs/history.csv" in text
        assert "using 1:3" in text
        assert "using 1:5" in text
        assert text.count("plot") == 1
