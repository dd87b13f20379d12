"""Property test: an edited model file loads bit-exact or is refused.

Random byte edits to a saved model must end in one of two ways. Either
load_model raises ModelFormatError, or it returns exactly the float64
values the edited file's payloads hold; no other exception escapes.
JSON-level edits, which swap the type of a layer field, a whole layer
or meta, must likewise load exactly the values the file holds, with
their JSON types, or raise ModelFormatError.
"""

import base64
import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from socdfn.data import Normalizer
from socdfn.errors import ModelFormatError
from socdfn.modelio import load_model, save_model
from socdfn.network import init_network, make_specs


def _saved_model() -> bytes:
    net = init_network(make_specs(hidden=2, units=2, dropout=0.0), seed=5)
    norm = Normalizer(mean=np.array([3.7, -0.4, 26.0]), std=np.array([0.2, 0.5, 1.5]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(net, norm, path, meta={"seed": 5})
        return path.read_bytes()


_ORIGINAL = _saved_model()

# (kind, position as a fraction of the file length, byte value)
_EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 255),
)


def _apply(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, where, value in edits:
        pos = int(where * len(buf))
        if kind == "insert":
            buf.insert(pos, value)
        elif buf and kind == "delete":
            del buf[pos]
        elif buf:
            buf[pos] = value
    return bytes(buf)


def _payload(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(_EDIT, min_size=1, max_size=4))
def test_edited_model_loads_bit_exact_or_is_refused(edits):
    data = _apply(_ORIGINAL, edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(data)
        try:
            net, norm, _ = load_model(path)
        except ModelFormatError:
            return
    doc = json.loads(data.decode("utf-8"))
    assert len(net.weights) == len(doc["weights"]) == len(doc["biases"])
    for arrays, texts in ((net.weights, doc["weights"]), (net.biases, doc["biases"])):
        for arr, text in zip(arrays, texts):
            assert arr.astype("<f8").tobytes() == _payload(text)
    for arr, text in ((norm.mean, doc["normalizer"]["mean"]),
                      (norm.std, doc["normalizer"]["std"])):
        assert arr.astype("<f8").tobytes() == _payload(text)


def test_unedited_model_loads():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(_ORIGINAL)
        net, _, meta = load_model(path)
    assert meta == {"seed": 5}
    assert len(net.layers) == 3


_DOC = json.loads(_ORIGINAL.decode("utf-8"))
# (layer index, key) of one layer field, (layer index, None) for a whole
# layer entry, or (None, None) for meta.
_TARGETS = [(None, None)] + [
    (i, key) for i in range(3)
    for key in ("in_dim", "out_dim", "activation", "dropout_after", None)
]
# Arbitrary JSON values of every type.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _original(target):
    layer, key = target
    if layer is None:
        return _DOC["meta"]
    return _DOC["layers"][layer] if key is None else _DOC["layers"][layer][key]


def _retyped(value) -> list:
    """value, and the same value as each other JSON type."""
    out = [value, str(value), [value], {"value": value}, None]
    if isinstance(value, (int, float)):
        out += [float(value), int(value), bool(value)]
    if isinstance(value, dict):
        out += [list(value.values())]
    return out


# (target, new value, delete the key instead)
_SWAP = st.sampled_from(_TARGETS).flatmap(lambda target: st.tuples(
    st.just(target), st.sampled_from(_retyped(_original(target))) | _JSON_VALUE,
    st.booleans(),
))


def _swap(doc: dict, target, value, delete: bool) -> None:
    layer, key = target
    if layer is not None and key is None:
        doc["layers"][layer] = value
        return
    parent = doc if layer is None else doc["layers"][layer]
    if isinstance(parent, dict):  # not if an earlier swap replaced the layer
        if delete:
            parent.pop(key or "meta", None)
        else:
            parent[key or "meta"] = value


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(_SWAP, min_size=1, max_size=3))
def test_json_type_swap_loads_exactly_or_is_refused(swaps):
    doc = copy.deepcopy(_DOC)
    for target, value, delete in swaps:
        _swap(doc, target, copy.deepcopy(value), delete)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            net, norm, meta = load_model(path)
        except ModelFormatError:
            return
    assert isinstance(meta, dict) and meta == doc.get("meta", {})
    assert len(net.layers) == len(doc["layers"])
    for spec, fields in zip(net.layers, doc["layers"]):
        for key in ("in_dim", "out_dim", "activation"):
            assert type(getattr(spec, key)) is type(fields[key])
            assert getattr(spec, key) == fields[key]
        assert type(fields["dropout_after"]) in (int, float)
        assert spec.dropout_after == fields["dropout_after"]
    for arrays, texts in ((net.weights, doc["weights"]), (net.biases, doc["biases"])):
        for arr, text in zip(arrays, texts):
            assert arr.astype("<f8").tobytes() == _payload(text)
