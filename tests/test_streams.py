"""Outputs depend on --seed and the data alone.

Two things could make them depend on more: OpenBLAS rounding a product
differently at another thread count, and two concerns of one run drawing
from the same random stream.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_cli

import socdfn
from socdfn import network, rng

SRC = str(Path(socdfn.__file__).parents[1])

# Hashes the raw float64 bytes of predict for each row count; the first
# line is the OpenBLAS thread count the child runs with. 4500, 13500 and
# 16385 rows are 9 blocks of 500, 27 of 500 and 33 of 496-497.
PREDICT_SCRIPT = """
import hashlib
from socdfn.network import init_network, make_specs, predict
from socdfn.rng import make_rng
from socdfn.network import _openblas_thread_fns

print(_openblas_thread_fns()[1]())
net = init_network(make_specs(2, 256, 0.0), seed=3)
for rows in (4500, 13500, 16385):
    pred = predict(net, make_rng(1).normal(size=(rows, 3)))
    print(rows, hashlib.sha256(pred.tobytes()).hexdigest())
"""


def child(argv, threads: int | None, cwd=None, thread_timeout=None) -> str:
    """stdout of a Python child with OPENBLAS_NUM_THREADS set in its env only.

    threads None leaves OPENBLAS_NUM_THREADS unset, so OpenBLAS runs its
    default count. OPENBLAS_THREAD_TIMEOUT is thread_timeout when given,
    else unset, so a socdfn.cli child runs with the CLI's default.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    if thread_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = thread_timeout
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def predict_digests():
    """{threads: {rows: sha256}} from one child per thread count.

    None is OpenBLAS's default count, which predict also runs as its
    worker count; with 1 it runs its blocks serially.
    """
    if network._openblas_thread_fns() is None:
        pytest.skip("numpy does not link OpenBLAS, so there is no thread count to vary")
    digests = {}
    for threads in (1, 2, None):
        first, *lines = child(["-c", PREDICT_SCRIPT], threads).splitlines()
        if threads is not None and int(first) != threads:
            pytest.skip(f"OpenBLAS runs {first} thread(s) when asked for {threads}")
        digests[threads] = dict(line.split() for line in lines)
    return digests


@pytest.mark.parametrize("rows", ["4500", "13500", "16385"])
def test_predict_bits_do_not_depend_on_blas_threads(predict_digests, rows):
    assert predict_digests[1][rows] == predict_digests[2][rows] == predict_digests[None][rows]


def test_crossval_report_does_not_depend_on_jobs(tmp_path):
    # --jobs 1 trains on the child's two BLAS threads, --jobs 2 caps each
    # fold worker at one. Each of the 4 folds validates on 4500 rows, and
    # the report prints every score with repr, so a last-bit change shows.
    if network._openblas_thread_fns() is None:
        pytest.skip("numpy does not link OpenBLAS, so --jobs cannot change its threads")
    code, _, err = run_cli(["gen-data", "--out", str(tmp_path / "cycle.csv")])
    assert code == 0, err
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"cv-jobs{jobs}.csv"
        child(["-m", "socdfn.cli", "crossval", "--data", "cycle.csv", "--k", "4",
               "--hidden", "1", "--units", "256", "--epochs", "1", "--jobs", jobs,
               "--report-out", out.name], threads=2, cwd=tmp_path)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_outputs_do_not_depend_on_the_blas_idle_policy(tmp_path):
    # The CLI's default lets an idle OpenBLAS worker sleep at once; 30
    # keeps it spinning for its longest wait. Waking a worker must not
    # change how a product is split, so every byte stays.
    code, _, err = run_cli(["gen-data", "--out", str(tmp_path / "cycle.csv"),
                            "--duration", "4000"])
    assert code == 0, err
    outputs = []
    for thread_timeout in (None, "30"):
        tag = thread_timeout or "default"
        names = [f"{tag}-model.json", f"{tag}-history.csv", f"{tag}-predictions.csv"]
        child(["-m", "socdfn.cli", "train", "--data", "cycle.csv", "--preset", "paper-2h",
               "--epochs", "2", "--model-out", names[0], "--history-out", names[1]],
              threads=2, cwd=tmp_path, thread_timeout=thread_timeout)
        child(["-m", "socdfn.cli", "predict", "--model", names[0], "--data", "cycle.csv",
               "--out", names[2]], threads=2, cwd=tmp_path, thread_timeout=thread_timeout)
        outputs.append([(tmp_path / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def test_every_stream_has_its_own_key(tmp_path, monkeypatch):
    """No two generators of gen-data then crossval share a seed sequence.

    A generator's key is the state its SeedSequence hands PCG64, so two
    keys that spell the same entropy words count as one.
    """
    built = []
    real = {name: getattr(rng, name) for name in ("make_rng", "substream")}

    def recording(name):
        def build(*args):
            gen = real[name](*args)
            state = tuple(gen.bit_generator.seed_seq.generate_state(4).tolist())
            built.append((state, name, args))
            return gen
        return build

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "socdfn"]:
        for name in real:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name))
    data = str(tmp_path / "cycle.csv")
    code, _, err = run_cli(["gen-data", "--out", data, "--seed", "0",
                            "--duration", "2000"])
    assert code == 0, err
    code, _, err = run_cli(["crossval", "--data", data, "--k", "4", "--epochs", "3",
                            "--seed", "0", "--preset", "paper-4h-dropout",
                            "--units", "8", "--jobs", "1"])
    assert code == 0, err
    # gen-data, the holdout split, the fold assignment, and per fold one
    # init stream and a shuffle and a dropout stream per epoch.
    assert len(built) == 3 + 4 * (1 + 2 * 3)
    first_use = {}
    for state, name, args in built:
        assert state not in first_use, (
            f"{name}{args} repeats the stream of {first_use.get(state)}"
        )
        first_use[state] = f"{name}{args}"

