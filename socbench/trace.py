"""Span tracer for the socdfn modules, installed from outside the program.

The tracer wraps the public functions named in TARGETS and rebinds each
wrapper in every ``socdfn`` module namespace that holds the original:
``train.py`` imports ``forward``, ``backward`` and ``apply_update`` by
name, so patching ``socdfn.network`` alone would miss every training
call. It also swaps ``ThreadPoolExecutor`` for a subclass that hands the
submitting thread's open span to each worker, so the spans recorded in
``cross_validate``'s fold threads name it as their parent.

Run as a script it traces one CLI invocation in-process:

    python -m socbench.trace TRACE_JSON CLI_ARG...

It writes the spans and the import time of ``socdfn.cli`` to TRACE_JSON
and exits with the CLI's exit code. The CLI's stdout and output files
are the same bytes as an untraced run's.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

# module -> public functions wrapped in it. rng and errors do no
# measurable work and tensor is dead code, so they are left out.
TARGETS = {
    "socdfn.battsim": ("generate_drive_cycle", "simulate_cell"),
    "socdfn.data": (
        "load_csv",
        "load_features_csv",
        "write_csv",
        "write_predictions_csv",
        "split_holdout",
        "fold_datasets",
        "concat_datasets",
        "feature_matrix",
        "normalize_features",
    ),
    "socdfn.network": ("forward", "backward", "predict", "predict_soc"),
    "socdfn.optimize": ("apply_update",),
    "socdfn.train": ("train_epoch", "fit", "cross_validate"),
    "socdfn.modelio": ("save_model", "load_model", "write_history_csv"),
}

# Per-layer metric -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "battsim.simulate_cell_s": "battsim.simulate_cell",
    "battsim.generate_drive_cycle_s": "battsim.generate_drive_cycle",
    "data.load_csv_s": "data.load_csv",
    "data.load_features_csv_s": "data.load_features_csv",
    "data.write_csv_s": "data.write_csv",
    "data.write_predictions_csv_s": "data.write_predictions_csv",
    "data.split_holdout_s": "data.split_holdout",
    "data.fold_datasets_s": "data.fold_datasets",
    "data.concat_datasets_s": "data.concat_datasets",
    "data.feature_matrix_s": "data.feature_matrix",
    "data.normalize_features_s": "data.normalize_features",
    "network.forward_train_s": "network.forward_train",
    "network.backward_s": "network.backward",
    "network.forward_inference_s": "network.forward_inference",
    "network.predict_soc_s": "network.predict_soc",
    "optimize.apply_update_s": "optimize.apply_update",
    "train.train_epoch_self_s": "train.train_epoch",
    "train.cross_validate_s": "train.cross_validate",
    "modelio.save_model_s": "modelio.save_model",
    "modelio.load_model_s": "modelio.load_model",
    "modelio.write_history_csv_s": "modelio.write_history_csv",
}

# Per-step spans reported as call count and p50/p99 duration.
PER_CALL_SPANS = {
    "network.forward_train": "network.forward_train",
    "network.backward": "network.backward",
    "optimize.apply_update": "optimize.apply_update",
}

# Every per-layer metric the traced run reports, in print order.
LAYER_METRICS = (
    ["cli.startup_s"]
    + list(SELF_TIME_METRICS)
    + ["data.rows_parsed", "network.forward_inference_peak_mb"]
    + [f"{p}_{suffix}" for p in PER_CALL_SPANS for suffix in ("calls", "ms_p50", "ms_p99")]
    + [
        "train.epoch_s_p50",
        "train.epoch_s_max",
        "train.validation_s",
        "train.fold_fit_s_max",
        "train.cross_validate_cpu_per_wall",
        "trace.overhead_s",
    ]
)

_LOADERS = ("data.load_csv", "data.load_features_csv")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    cpu_s: float = 0.0  # process CPU time, all threads, over the span
    rows: int = 0  # rows returned by a CSV loader
    peak_mb: float = 0.0  # tracemalloc peak inside an inference forward


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._mem_users = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _mem_enter(self) -> None:
        with self._mem_lock:
            if self._mem_users == 0:
                tracemalloc.start()
            self._mem_users += 1

    def _mem_exit(self) -> float:
        with self._mem_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_users -= 1
            if self._mem_users == 0:
                tracemalloc.stop()
        return peak / 2**20

    def wrap(self, name: str, fn):
        """Return fn wrapped to record a span; forward spans split by mode."""
        mode_index = None
        if name == "network.forward":
            params = inspect.signature(fn).parameters
            mode_index = list(params).index("mode")
            mode_default = params["mode"].default

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            measure_mem = False
            if mode_index is not None:
                if "mode" in kwargs:
                    mode = kwargs["mode"]
                elif len(args) > mode_index:
                    mode = args[mode_index]
                else:
                    mode = mode_default
                span_name = f"{name}_{mode}"
                measure_mem = mode == "inference"
            stack = self._stack()
            span = Span(next(self._ids), span_name, stack[-1] if stack else None, 0.0, 0.0)
            stack.append(span.id)
            if measure_mem:
                self._mem_enter()
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.process_time() - cpu0
                if measure_mem:
                    span.peak_mb = self._mem_exit()
                stack.pop()
            if name in _LOADERS:
                span.rows = len(result)
            self.spans.append(span)
            return result

        return traced

    def executor_class(self):
        """ThreadPoolExecutor whose tasks inherit the submitter's open span."""
        tracer = self

        class SpanPropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1:]

                def run():
                    tracer._local.stack = list(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.stack = []

                return super().submit(run)

        return SpanPropagatingExecutor

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target, in every socdfn namespace, for the block."""
        swaps = {}
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[1]
            for fname in names:
                orig = getattr(module, fname)
                swaps[id(orig)] = (orig, self.wrap(f"{layer}.{fname}", orig))
        swaps[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, self.executor_class())
        undo = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "socdfn" and not module_name.startswith("socdfn."):
                continue
            for attr, value in list(vars(module).items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    setattr(module, attr, swap[1])
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total = 0.0
    reached = lo
    for start, end in sorted(intervals):
        start = max(start, reached)
        end = min(end, hi)
        if end > start:
            total += end - start
            reached = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children on other threads may overlap each other; their union is
    subtracted, never their sum.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(kids[s.id], s.start, s.end) for s in spans}


def _p99(values) -> float:
    """Nearest-rank 99th percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def layer_metrics(span_lists, startup_s) -> dict[str, float]:
    """Per-layer metrics over the span lists of one workload's commands.

    span_lists holds one list per traced process (span ids are unique
    within a process only); startup_s holds each process's import time
    of socdfn.cli. trace.overhead_s is left for the caller, which knows
    the untraced wall time.
    """
    self_s = defaultdict(float)
    durations = defaultdict(list)
    rows = 0
    peak_mb = 0.0
    fold_fits = []
    validation_s = 0.0
    cv_cpu = cv_wall = 0.0
    for spans in span_lists:
        own = self_times(spans)
        names = {s.id: s.name for s in spans}
        for s in spans:
            duration = s.end - s.start
            parent = names.get(s.parent)
            self_s[s.name] += own[s.id]
            durations[s.name].append(duration)
            rows += s.rows
            peak_mb = max(peak_mb, s.peak_mb)
            if s.name == "train.fit" and parent == "train.cross_validate":
                fold_fits.append(duration)
            elif s.name == "network.predict" and parent == "train.fit":
                validation_s += duration
            elif s.name == "train.cross_validate":
                cv_cpu += s.cpu_s
                cv_wall += duration
    metrics = {"cli.startup_s": statistics.median(startup_s)}
    metrics.update({m: self_s[name] for m, name in SELF_TIME_METRICS.items()})
    metrics["data.rows_parsed"] = rows
    metrics["network.forward_inference_peak_mb"] = peak_mb
    for prefix, name in PER_CALL_SPANS.items():
        ms = [d * 1e3 for d in durations[name]]
        metrics[f"{prefix}_calls"] = len(ms)
        metrics[f"{prefix}_ms_p50"] = statistics.median(ms) if ms else 0.0
        metrics[f"{prefix}_ms_p99"] = _p99(ms)
    epochs = durations["train.train_epoch"]
    metrics["train.epoch_s_p50"] = statistics.median(epochs) if epochs else 0.0
    metrics["train.epoch_s_max"] = max(epochs, default=0.0)
    metrics["train.validation_s"] = validation_s
    metrics["train.fold_fit_s_max"] = max(fold_fits, default=0.0)
    metrics["train.cross_validate_cpu_per_wall"] = cv_cpu / cv_wall if cv_wall else 0.0
    return metrics


def read_trace(path) -> tuple[list[Span], float]:
    """(spans, startup_s) from a file written by this module's main."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Span(**s) for s in doc["spans"]], doc["startup_s"]


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("socdfn.cli")
    startup_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(cli_argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"startup_s": startup_s, "spans": [asdict(s) for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
