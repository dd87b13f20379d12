"""Benchmark for the socdfn CLI: one closed-loop client per workload.

Run it from the repository root:

    python3 -m socbench.run --workload train-20k --seed 0 --seconds 30 --trace 0

The client runs ``python -m socdfn.cli`` from ``src/`` as a user would,
each command starting only after the previous one exited. It never sets
BLAS or OpenMP thread variables. With ``--trace 0`` it repeats the timed
part of the workload for about ``--seconds`` seconds and prints the
end-to-end metrics (medians over the repetitions). With ``--trace 1`` it
runs the timed part untraced and under ``socbench.trace``, in
alternating order, for about ``--seconds`` seconds, checks that both
wrote the same bytes, and prints the per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files and a
JSON record of each run, environment included, go to ``.socbench/``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import trace

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".socbench"

# Set-ups per run at the least; setup_s is their median.
N_SETUPS = 3
# Spacing of the seeds a run derives from its workload seed.
SEED_STRIDE = 1_000_003
# Timed repeats per run at the least, however long they take, so that
# the median always drops an outlier.
MIN_REPS = 3
# No single CLI command of these workloads comes near this; it only
# keeps a hung command from hanging the benchmark.
COMMAND_TIMEOUT_S = 150.0

# End-to-end metric -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "mae_pct": ("%", "lower"),
}

# Metrics printed and recorded beside the end-to-end ones, by workload.
DETAIL_UNITS = {
    "train_row_epochs_per_s": "rows/s",
    "cv_row_epochs_per_s": "rows/s",
    "gen_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "evaluate_rows_per_s": "rows/s",
    "test_mae_pct": "%",
    "cv_mean_val_mae_pct": "%",
    "failed_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "rows_parsed")):
        return "count"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_wall"):
        return "ratio"
    return "s"


class CheckFailed(Exception):
    """A command exited non-zero or its output failed a check."""


@dataclass
class Proc:
    args: list
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


@dataclass
class Client:
    """Runs CLI commands one after another and counts those that fail."""

    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run(self, args, cwd: Path, tag: str, trace_out: Path | None = None) -> Proc:
        """Run one command in cwd; stdout goes to cwd/<tag>.out."""
        args = [str(a) for a in args]
        if trace_out is None:
            argv = [sys.executable, "-m", "socdfn.cli", *args]
        else:
            argv = [sys.executable, "-m", "socbench.trace", str(trace_out), *args]
        self.attempted += 1
        out_path = cwd / f"{tag}.out"
        with open(out_path, "wb") as out, open(cwd / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        proc = Proc(
            args=args,
            code=p.returncode,
            wall_s=wall_s,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        )
        if proc.code != 0:
            self.fail(f"{' '.join(args)} exited {proc.code}")
        return proc

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)
        raise CheckFailed(problem)

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.fail(problem)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _match(client: Client, pattern: str, proc: Proc) -> re.Match:
    m = re.fullmatch(pattern, proc.stdout)
    client.expect(m is not None, f"{proc.args[0]} printed {proc.stdout!r}")
    return m


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def check_cycle(client: Client, path: Path, rows: int) -> None:
    """Input checks: full length, and no feature constant after CSV rounding."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    client.expect(table.shape == (rows, 5), f"{path.name} holds {table.shape}, not ({rows}, 5)")
    std = table[:, 1:4].std(axis=0)
    client.expect(bool((std > 0).all()), f"{path.name} has a constant feature column, std {std}")


def check_model(client: Client, path: Path) -> None:
    from socdfn.errors import SocdfnError
    from socdfn.modelio import load_model

    try:
        load_model(path)
    except (SocdfnError, OSError, ValueError) as e:
        client.fail(f"{path.name} does not reload: {e}")


def _finite_mae(client: Client, text: str) -> float:
    value = float(text)
    client.expect(value == value and 0.0 <= value < 100.0, f"MAE {text} out of range")
    return value


class Workload:
    """One closed-loop client session: set-up, then a timed command list.

    A run covers n_seeds inputs, all derived from the workload seed S:
    S, S + SEED_STRIDE, S + 2 * SEED_STRIDE, ... The timed repeats cycle
    through them. Timings are medians over the repeats; the MAE metrics
    are means over the seeds, because one final-epoch MAE varies from
    seed to seed far more than a timing does from run to run.
    """

    name = ""
    n_seeds = 1
    # Leading repeats that are checked but not timed.
    warmup_reps = 0
    cycle_rows = 20000
    # Files of the timed part compared byte for byte: traced against
    # untraced, and between repeats on the same seed.
    outputs: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def seeds(self) -> list[int]:
        return [self.seed + i * SEED_STRIDE for i in range(self.n_seeds)]

    def gen_cycle(self, client: Client, d: Path, seed: int, tag: str) -> Proc:
        proc = client.run(["gen-data", "--out", "cycle.csv", "--seed", seed], d, tag)
        _match(client, rf"wrote {self.cycle_rows} rows to cycle\.csv\n", proc)
        return proc

    def setup(self, client: Client, d: Path, seed: int) -> None:
        """Write the inputs of the timed part into d."""
        self.gen_cycle(client, d, seed, "setup")

    def commands(self, seed: int) -> list:
        raise NotImplementedError

    def check(self, client: Client, index: int, proc: Proc, d: Path) -> dict:
        """Output checks for timed command index; returns the MAE it read."""
        raise NotImplementedError

    def rates(self, procs: list) -> dict:
        """rows_per_s and the workload's detail rates for one repeat."""
        raise NotImplementedError

    def check_generated(self, client: Client, d: Path) -> None:
        """Input checks on data the timed part generated."""


class Train20k(Workload):
    name = "train-20k"
    n_seeds = 5
    epochs = 20
    outputs = ("model.json", "history.csv")

    def commands(self, seed):
        return [
            ["train", "--data", "cycle.csv", "--preset", "paper-2h", "--epochs", self.epochs,
             "--seed", seed, "--model-out", "model.json", "--history-out", "history.csv"],
        ]

    def check(self, client, index, proc, d):
        m = _match(client, rf"epochs={self.epochs} train_mae=\S+ val_mae=\S+ test_mae=(\S+)\n", proc)
        check_model(client, d / "model.json")
        client.expect(_data_rows(d / "history.csv") == self.epochs, "history.csv row count")
        mae = _finite_mae(client, m.group(1))
        return {"mae_pct": mae, "test_mae_pct": mae}

    def rates(self, procs):
        train_rows = round(self.cycle_rows * 0.8)  # the CLI's default --train-frac
        rate = train_rows * self.epochs / procs[0].wall_s
        return {"rows_per_s": rate, "train_row_epochs_per_s": rate}


class Crossval20k(Workload):
    name = "crossval-20k"
    n_seeds = 3
    k = 4
    epochs = 3

    def commands(self, seed):
        return [
            ["crossval", "--data", "cycle.csv", "--k", self.k, "--preset", "paper-4h-dropout",
             "--epochs", self.epochs, "--seed", seed],
        ]

    def check(self, client, index, proc, d):
        folds = "".join(rf"fold {j}: final_val_mae=\S+ best_val_mae=\S+\n" for j in range(self.k))
        m = _match(client, folds + r"mean_val_mae=(\S+) std_val_mae=\S+\n", proc)
        mae = _finite_mae(client, m.group(1))
        return {"mae_pct": mae, "cv_mean_val_mae_pct": mae}

    def rates(self, procs):
        pool_rows = round(self.cycle_rows * 0.9)  # train + val splits at the defaults
        # Each pool row trains in k - 1 of the k folds.
        rate = pool_rows * (self.k - 1) * self.epochs / procs[0].wall_s
        return {"rows_per_s": rate, "cv_row_epochs_per_s": rate}


class Data200k(Workload):
    name = "data-200k"
    n_seeds = 3
    # The first 1.7 GB predict or evaluate after the set-up runs slower
    # than the ones after it (about 10 % here), so one repeat warms up.
    warmup_reps = 1
    big_rows = 200000
    outputs = ("cycle200k.csv", "predictions.csv")

    def setup(self, client, d, seed):
        super().setup(client, d, seed)
        proc = client.run(
            ["train", "--data", "cycle.csv", "--preset", "paper-2h", "--epochs", 1,
             "--seed", seed, "--model-out", "model.json"], d, "setup-train")
        _match(client, r"epochs=1 .*\n", proc)

    def commands(self, seed):
        # --capacity 29 keeps the 200k-step cycle from emptying the cell.
        return [
            ["gen-data", "--duration", self.big_rows, "--capacity", 29, "--seed", seed,
             "--out", "cycle200k.csv"],
            ["predict", "--model", "model.json", "--data", "cycle200k.csv", "--out", "predictions.csv"],
            ["evaluate", "--model", "model.json", "--data", "cycle200k.csv"],
        ]

    def check(self, client, index, proc, d):
        if index == 0:
            _match(client, rf"wrote {self.big_rows} rows to cycle200k\.csv\n", proc)
            client.expect(_data_rows(d / "cycle200k.csv") == self.big_rows, "cycle200k.csv truncated")
            return {}
        if index == 1:
            _match(client, rf"wrote {self.big_rows} predictions to predictions\.csv\n", proc)
            pred = np.loadtxt(d / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
            client.expect(pred.shape == (self.big_rows, 2), f"predictions.csv holds {pred.shape}")
            soc = pred[:, 1]
            client.expect(
                bool(np.isfinite(soc).all() and (soc >= 0).all() and (soc <= 100).all()),
                "a prediction is non-finite or outside [0, 100]",
            )
            return {}
        m = _match(client, r"mae_pct=(\S+)\n", proc)
        return {"mae_pct": _finite_mae(client, m.group(1))}

    def check_generated(self, client, d):
        check_cycle(client, d / "cycle200k.csv", self.big_rows)

    def rates(self, procs):
        gen, pred, ev = (self.big_rows / p.wall_s for p in procs)
        return {
            "rows_per_s": 3 * self.big_rows / sum(p.wall_s for p in procs),
            "gen_rows_per_s": gen,
            "predict_rows_per_s": pred,
            "evaluate_rows_per_s": ev,
        }


WORKLOADS = {w.name: w for w in (Train20k, Crossval20k, Data200k)}


def _input_files(d: Path) -> list[Path]:
    return sorted(p for p in d.iterdir() if p.suffix in (".csv", ".json"))


def run_setups(workload: Workload, client: Client, base: Path) -> tuple[float, list[Path]]:
    """Set up each seed once, seed S again, and at least N_SETUPS times in all.

    Returns the median set-up wall time and the set-up dir of each seed.
    Set-ups of the same seed must write the same bytes, and a cycle from
    seed S + 1 must differ from the cycle from seed S.
    """
    seeds = workload.seeds()
    walls = []
    dirs = []
    digests = {}
    for i in range(max(N_SETUPS, len(seeds) + 1)):
        seed = seeds[i % len(seeds)]
        d = base / f"setup-{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(client, d, seed)
        walls.append(time.perf_counter() - t0)
        got = tuple(_digest(p) for p in _input_files(d))
        client.expect(digests.setdefault(seed, got) == got, f"seed {seed} gave different inputs")
        dirs.append(d)
    dirs = dirs[: len(seeds)]
    for d in dirs:
        check_cycle(client, d / "cycle.csv", workload.cycle_rows)
    other = base / "other-seed"
    other.mkdir()
    workload.gen_cycle(client, other, workload.seed + 1, "gen")
    client.expect(
        _digest(other / "cycle.csv") != _digest(dirs[0] / "cycle.csv"),
        "a different seed gave the same cycle",
    )
    return statistics.median(walls), dirs


def _fresh_dir(d: Path, inputs: Path) -> Path:
    d.mkdir(parents=True, exist_ok=True)
    for p in _input_files(inputs):
        shutil.copyfile(p, d / p.name)
    return d


def run_rep(workload: Workload, client: Client, seed: int, d: Path, trace_dir: Path | None = None):
    """One pass over the timed commands; returns their Procs and checked values."""
    procs = []
    values = {}
    for i, args in enumerate(workload.commands(seed)):
        trace_out = None if trace_dir is None else trace_dir / f"trace-{i}.json"
        proc = client.run(args, d, f"cmd-{i}", trace_out)
        try:
            values.update(workload.check(client, i, proc, d))
        except (OSError, ValueError) as e:
            client.fail(f"{args[0]} output unreadable: {e}")
        procs.append(proc)
    return procs, values


def _repeat(seconds: float, min_reps: int, body) -> None:
    """Call body(i) for i = 0, 1, ... until another call would pass `seconds`."""
    t0 = time.perf_counter()
    n = 0
    while True:
        body(n)
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= min_reps and elapsed + elapsed / n > seconds:
            return


def timed_metrics(workload: Workload, client: Client, base: Path, inputs: list, seconds: float):
    """Repeat the timed part for about `seconds`, cycling through the seeds.

    Returns the metrics and each timed repeat's wall time.
    """
    seeds = workload.seeds()
    dirs = [_fresh_dir(base / f"run-{k}", d) for k, d in enumerate(inputs)]
    rows = []
    quality = {}  # seed index -> values checked on its first repeat
    outputs = {}  # seed index -> output digests of its first repeat

    def rep(i):
        k = i % len(seeds)
        procs, values = run_rep(workload, client, seeds[k], dirs[k])
        digests = [_digest(dirs[k] / name) for name in workload.outputs]
        if k not in outputs:
            workload.check_generated(client, dirs[k])
        client.expect(outputs.setdefault(k, digests) == digests, "a repeat wrote different bytes")
        quality.setdefault(k, values)
        if i < workload.warmup_reps:
            return
        row = workload.rates(procs)
        row["wall_s"] = sum(p.wall_s for p in procs)
        row["cpu_s"] = sum(p.cpu_s for p in procs)
        row["peak_rss_mb"] = max(p.rss_mb for p in procs)
        rows.append(row)

    _repeat(seconds, workload.warmup_reps + max(MIN_REPS, len(seeds)), rep)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in rows)  # largest, not median
    for name in quality[0]:
        metrics[name] = statistics.fmean(v[name] for v in quality.values())
    return metrics, [r["wall_s"] for r in rows]


def traced_metrics(workload: Workload, client: Client, base: Path, inputs: Path, seconds: float):
    """Untraced and traced passes on seed S, alternating, for about `seconds`.

    Each traced pass must print and write the same bytes as the untraced
    one. Per-layer metrics are medians over the traced passes, and
    trace.overhead_s is the median traced wall minus the median untraced
    wall. Returns the metrics and the untraced passes' wall times.
    """
    plain = _fresh_dir(base / "untraced", inputs)
    traced = _fresh_dir(base / "traced", inputs)
    walls = {plain: [], traced: []}
    passes = []
    n_cmds = len(workload.commands(workload.seed))
    for _ in range(workload.warmup_reps):
        run_rep(workload, client, workload.seed, plain)

    def pair(i):
        for d in (plain, traced) if i % 2 == 0 else (traced, plain):
            procs, _ = run_rep(workload, client, workload.seed, d,
                               trace_dir=base if d is traced else None)
            walls[d].append(sum(p.wall_s for p in procs))
        if i == 0:
            workload.check_generated(client, plain)
        for j in range(n_cmds):
            client.expect(
                (plain / f"cmd-{j}.out").read_bytes() == (traced / f"cmd-{j}.out").read_bytes(),
                f"traced stdout of command {j} differs",
            )
        for name in workload.outputs:
            client.expect(_digest(plain / name) == _digest(traced / name), f"traced {name} differs")
        traces = [trace.read_trace(base / f"trace-{j}.json") for j in range(n_cmds)]
        passes.append(trace.layer_metrics([t[0] for t in traces], [t[1] for t in traces]))

    _repeat(seconds, 1, pair)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[traced]) - statistics.median(walls[plain])
    return metrics, walls[plain]


def environment(workload: Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas_name = "unknown"
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    if isinstance(workload, Crossval20k):
        # The CLI's default: --jobs is k capped at the CPU count.
        env["crossval_jobs"] = min(workload.k, os.cpu_count() or 1)
    return env


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name](seed)
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    client = Client(env=env)
    metrics = {}
    rep_walls = []
    try:
        setup_s, inputs = run_setups(workload, client, base)
        if traced:
            metrics, rep_walls = traced_metrics(workload, client, base, inputs[0], seconds)
        else:
            metrics, rep_walls = timed_metrics(workload, client, base, inputs, seconds)
            metrics["setup_s"] = setup_s
    except CheckFailed:
        pass
    metrics["failed_frac"] = client.failed / max(client.attempted, 1)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(workload),
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems,
        "rep_wall_s": rep_walls,
        "metrics": metrics,
    }


def _reported(record: dict) -> dict:
    """The metrics BENCHMARK.json lists, each with its unit."""
    m = record["metrics"]
    if record["trace"]:
        names = {n: layer_unit(n) for n in trace.LAYER_METRICS}
    else:
        names = {n: unit for n, (unit, _) in END_TO_END.items()}
    return {n: {"value": m[n], "unit": u} for n, u in names.items() if n in m}


def print_record(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for name, value in record["metrics"].items():
        unit = END_TO_END.get(name, (None,))[0] or DETAIL_UNITS.get(name) or layer_unit(name)
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m socbench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socdfn" / "cli.py").is_file():
        print(f"error: {SRC / 'socdfn' / 'cli.py'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    socdfn = importlib.import_module("socdfn")
    if Path(socdfn.__file__).resolve().parent != (SRC / "socdfn").resolve():
        print(f"error: imported socdfn from {socdfn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        print_record(record)
        out = results_dir / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        metrics.update({prefix + n: v for n, v in _reported(record).items()})
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
