"""Tests for the benchmark's tracer and metric definitions.

Run from the repository root: python3 -m pytest -q socbench/tests
"""

import json
import re
from pathlib import Path

import pytest

from socbench import run, trace
from socbench.trace import Span

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ROOT = Path(__file__).resolve().parents[2]


def test_self_time_nested_and_cross_thread():
    # root 0..10 has a same-thread child 1..3 (with grandchild 1.5..2.5)
    # and two worker-thread children, 2..6 and 4..9, that overlap each
    # other and the first child.
    spans = [
        Span(1, "root", None, 0.0, 10.0),
        Span(2, "child", 1, 1.0, 3.0),
        Span(3, "grandchild", 2, 1.5, 2.5),
        Span(4, "worker", 1, 2.0, 6.0),
        Span(5, "worker", 1, 4.0, 9.0),
    ]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 8.0)  # union 1..9
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(5.0)


def test_covered_clips_to_the_parent():
    assert trace.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert trace.covered([], 0.0, 10.0) == 0.0


def test_metric_names_and_benchmark_json():
    names = list(run.END_TO_END) + list(trace.LAYER_METRICS) + list(run.DETAIL_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == list(trace.LAYER_METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])


def _cycle(tmp_path):
    from socdfn.cli import main

    path = tmp_path / "cycle.csv"
    assert main(["gen-data", "--out", str(path), "--duration", "1500", "--seed", "3"]) == 0
    return path


def test_tiny_traced_train_reaches_the_callers(tmp_path):
    from socdfn import cli, network, optimize, train

    path = _cycle(tmp_path)
    originals = (train.forward, train.backward, train.apply_update, network.forward)
    tracer = trace.Tracer()
    with tracer.installed():
        code = cli.main(["train", "--data", str(path), "--epochs", "1", "--units", "8"])
    assert code == 0
    assert (train.forward, train.backward, train.apply_update, network.forward) == originals
    assert optimize.apply_update is originals[2]
    m = trace.layer_metrics([tracer.spans], [0.1])
    for prefix in trace.PER_CALL_SPANS:
        assert m[f"{prefix}_calls"] > 0, prefix
    assert m["data.rows_parsed"] == 1500
    assert m["train.validation_s"] > 0


def test_fold_thread_spans_name_cross_validate_as_parent(tmp_path):
    from socdfn import cli

    path = _cycle(tmp_path)
    tracer = trace.Tracer()
    with tracer.installed():
        code = cli.main(["crossval", "--data", str(path), "--k", "2", "--jobs", "2",
                         "--epochs", "1", "--units", "8"])
    assert code == 0
    (cv,) = [s for s in tracer.spans if s.name == "train.cross_validate"]
    fits = [s for s in tracer.spans if s.name == "train.fit"]
    assert len(fits) == 2 and all(s.parent == cv.id for s in fits)
    own = trace.self_times(tracer.spans)
    assert own[cv.id] < 0.5 * (cv.end - cv.start)
