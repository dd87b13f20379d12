"""Property test: an edited model file loads bit-exact or is refused.

Random byte edits to a saved model must end in one of two ways. Either
load_model raises ModelFormatError, or it returns exactly the float64
values the edited file's payloads hold; no other exception escapes.
"""

import base64
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
