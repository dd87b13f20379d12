"""Model and report persistence.

The model file is a versioned JSON document: a human-inspectable header
(layer specs, normalizer statistics, a free-form training-config echo)
with parameter arrays packed as base64-encoded little-endian float64
bytes in C order, so a save/load round trip is bit-exact. History and
cross-validation reports are plain CSV; float cells use repr() for full
round-trip precision and byte-stable output.
"""

import base64
import json

import numpy as np

from .data import Normalizer
from .errors import ConfigError, ModelFormatError, ShapeError
from .network import LayerSpec, Network
from .train import CVReport, RunHistory

MODEL_FORMAT_VERSION = 1

HISTORY_HEADER = "epoch,train_loss,train_mae,val_loss,val_mae"
CV_HEADER = "fold,final_val_mae,best_val_mae"


def _encode_array(arr: np.ndarray) -> str:
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_array(text: str, size: int, what: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ModelFormatError(f"{what}: payload is not a string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError):
        raise ModelFormatError(f"{what}: invalid base64 payload") from None
    if len(raw) != 8 * size:
        raise ModelFormatError(
            f"{what}: expected {size} float64 values, got {len(raw) / 8:g}"
        )
    arr = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{what}: non-finite value in payload")
    return arr.astype(np.float64)


def save_model(net: Network, norm: Normalizer, path, meta: dict | None = None) -> None:
    """Write the versioned JSON model document."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layers": [
            {
                "in_dim": s.in_dim,
                "out_dim": s.out_dim,
                "activation": s.activation,
                "dropout_after": s.dropout_after,
            }
            for s in net.layers
        ],
        "weights": [_encode_array(w) for w in net.weights],
        "biases": [_encode_array(b) for b in net.biases],
        "normalizer": {
            "mean": _encode_array(norm.mean),
            "std": _encode_array(norm.std),
        },
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(doc: dict, key: str, kind: type = object):
    if key not in doc:
        raise ModelFormatError(f"model file missing key {key!r}")
    if not isinstance(doc[key], kind):
        raise ModelFormatError(f"model file key {key!r} is not a {kind.__name__}")
    return doc[key]


def load_model(path) -> tuple[Network, Normalizer, dict]:
    """Read a model document back; bit-exact inverse of save_model.

    Raises ModelFormatError on corrupt JSON (with the byte offset), on a
    format version this build does not read, on any payload whose shape
    disagrees with the declared layer specs, and on NaN or infinite
    values. A failed load never returns a partial model.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ModelFormatError(
            f"corrupt model file: invalid UTF-8 at offset {e.start}"
        ) from None
    except json.JSONDecodeError as e:
        raise ModelFormatError(
            f"corrupt model file: {e.msg} at offset {e.pos}"
        ) from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = _require(doc, "format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {version!r} unsupported; this build reads "
            f"version {MODEL_FORMAT_VERSION} only"
        )
    layer_docs = _require(doc, "layers")
    if not isinstance(layer_docs, list) or not layer_docs:
        raise ModelFormatError("model file declares no layers")
    try:
        specs = tuple(
            LayerSpec(
                in_dim=int(d["in_dim"]),
                out_dim=int(d["out_dim"]),
                activation=str(d["activation"]),
                dropout_after=float(d["dropout_after"]),
            )
            for d in layer_docs
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"bad layer spec in model file: {e}") from None
    weight_texts = _require(doc, "weights", list)
    bias_texts = _require(doc, "biases", list)
    if len(weight_texts) != len(specs) or len(bias_texts) != len(specs):
        raise ModelFormatError(
            f"{len(specs)} layers but {len(weight_texts)} weight and "
            f"{len(bias_texts)} bias payloads"
        )
    weights = []
    biases = []
    for i, spec in enumerate(specs):
        w = _decode_array(
            weight_texts[i], spec.in_dim * spec.out_dim, f"layer {i} weights"
        )
        weights.append(w.reshape(spec.in_dim, spec.out_dim))
        biases.append(_decode_array(bias_texts[i], spec.out_dim, f"layer {i} biases"))
    norm_doc = _require(doc, "normalizer", dict)
    in_dim = specs[0].in_dim
    norm = Normalizer(
        mean=_decode_array(norm_doc.get("mean", ""), in_dim, "normalizer mean"),
        std=_decode_array(norm_doc.get("std", ""), in_dim, "normalizer std"),
    )
    if not np.all(norm.std > 0.0):
        raise ModelFormatError("normalizer std entries must be positive")
    try:
        net = Network(layers=specs, weights=weights, biases=biases)
    except (ConfigError, ShapeError) as e:
        raise ModelFormatError(
            f"model file layers do not form a network: {e}"
        ) from None
    meta = doc.get("meta", {})
    return net, norm, meta


def _fmt(value: float) -> str:
    return repr(float(value))


def write_history_csv(history: RunHistory, path) -> None:
    """Learning-curve CSV, one row per epoch, epochs numbered from 1."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for i, e in enumerate(history.epochs, start=1):
            fh.write(
                ",".join(
                    (
                        str(i),
                        _fmt(e.train_loss),
                        _fmt(e.train_mae),
                        _fmt(e.val_loss),
                        _fmt(e.val_mae),
                    )
                )
                + "\n"
            )


def write_cv_csv(report: CVReport, path) -> None:
    """Per-fold CSV with trailing mean/std summary rows over both columns."""
    finals = np.array(report.per_fold_final_val_mae)
    bests = np.array(report.per_fold_best_val_mae)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CV_HEADER + "\n")
        for fold in range(report.k):
            fh.write(
                f"{fold},{_fmt(finals[fold])},{_fmt(bests[fold])}\n"
            )
        fh.write(f"mean,{_fmt(finals.mean())},{_fmt(bests.mean())}\n")
        fh.write(f"std,{_fmt(finals.std())},{_fmt(bests.std())}\n")


def write_gnuplot_script(history_csv_path: str, path) -> None:
    """Emit a gnuplot script that plots the learning curves from a history CSV."""
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'epoch'\n"
        "set ylabel 'MAE (SOC %)'\n"
        "set grid\n"
        f"plot '{history_csv_path}' using 1:3 with lines title 'train MAE', \\\n"
        f"     '{history_csv_path}' using 1:5 with lines title 'val MAE'\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
