"""Print the sha256 of every artifact a fixed set of CLI runs writes.

A refactor that is meant to keep behaviour shows it by byte-identical
outputs before and after. tools/artifact_digests.txt holds the listing
of the last commit that changed an output; check a source tree against
it with

    python tools/artifact_digests.py --check src

which exits 0 when every digest matches and 1 when one differs or a
command fails, naming each changed, missing or new artifact. The
listing's header is a fingerprint of the host that made it: numpy's
version, its BLAS name and version, the CPU's SIMD level and Python's
version. Another BLAS build or instruction set can round a product
differently, so when the fingerprints differ --check runs nothing and
exits 3. Regenerate the reference on that host from the commit it should
describe, or after a change that is meant to alter outputs, with

    python tools/artifact_digests.py src > tools/artifact_digests.txt

and its git diff then lists the changed digests. Two listings made on
one host can also be diffed by hand:

    python tools/artifact_digests.py OLD_CHECKOUT/src > old.txt
    python tools/artifact_digests.py src > new.txt
    diff old.txt new.txt

For each seed it runs `gen-data`, also on a cycle too short for a
discharge pulse; `train` with both presets (paper-2h also with
--emit-gnuplot, --save-train and --save-val), sgd, rmsprop, --l1/--l2,
dropout with --loss mae, --no-shuffle, --batch 96, whose 6400-row
training split ends each epoch on a short batch of 64 rows
(6400 = 66 x 96 + 64) where the other runs' batches of 128 divide it,
rmsprop with a non-default --rho and --epsilon, and adam with
non-default --beta1, --beta2 and --lr, so a flag that reached the wrong
hyperparameter would change a digest, and one 64-unit dense layer with
dropout 0.25, a width and a rate that no preset writes into a model
file's layer records; `crossval --k 4` with
paper-4h-dropout at --jobs 1 and 2, with paper-2h and --no-shuffle,
whose pool is the file's first rows in order, and with paper-2h at
--lr 0.02 and --batch 16, where some folds' best val MAE is not their
final one, so the report's two columns differ; `predict` on the labeled cycle and on a four-column
feature CSV made by dropping its soc_pct column; and `evaluate`. It also
runs `gen-data`, `predict` and `evaluate` on a 16385-row cycle, which
`predict` cuts into 33 inference blocks of 496-497 rows and spreads
over as many workers as OpenBLAS has threads. `predict` and `evaluate`
run on it again under OPENBLAS_NUM_THREADS=1, where the blocks run one
after another, so their digests show that the predictions do not
depend on the worker count. That cycle is 4 x 4096 + 1 steps, so
`gen-data` steps its thermal lag as four full `battsim.LAG_CHUNK_STEPS`
chunks and a last chunk of one step. It prints the fingerprint as `# key
value` lines, then one `sha256  name` line per output file and per
stdout, sorted by name.
Every command runs in the same temporary directory with bare relative
file names, because the model's meta and the gen-data and predict
stdout echo the paths they were given. A command that exits non-zero
stops the script with its stderr. One run takes about 50 s on a
2-CPU machine.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_suffix(".txt")
EXIT_DIFFERS = 1
EXIT_OTHER_HOST = 3

SEEDS = (0, 1, 2)
EPOCHS = 3
CYCLE_SECONDS = 8000  # gen-data writes one row per second
SHORT_CYCLE_SECONDS = 120  # under 150 steps, so the cycle has no discharge pulse
# 33 blocks of 496-497 rows in 512-row-max inference blocks, and a
# thermal lag of four 4096-step chunks and a one-step chunk.
BLOCKS_CYCLE_SECONDS = 16385

# name -> extra train flags, where {out} is the run's file-name stem. Every
# run also writes a model, a history and its test split.
TRAIN_RUNS = {
    "2h": ["--preset", "paper-2h", "--emit-gnuplot", "--save-train", "{out}-train.csv",
           "--save-val", "{out}-val.csv"],
    "4h-dropout": ["--preset", "paper-4h-dropout"],
    "sgd": ["--preset", "paper-2h", "--optimizer", "sgd"],
    "rmsprop": ["--preset", "paper-2h", "--optimizer", "rmsprop"],
    "l1l2": ["--preset", "paper-2h", "--l1", "1e-5", "--l2", "1e-4"],
    "dropout-mae": ["--preset", "paper-4h-dropout", "--loss", "mae",
                    "--l1", "1e-5", "--l2", "1e-4"],
    "no-shuffle": ["--preset", "paper-2h", "--no-shuffle"],
    "batch-96": ["--preset", "paper-2h", "--batch", "96"],
    "rmsprop-hyper": ["--preset", "paper-2h", "--optimizer", "rmsprop", "--rho", "0.8",
                      "--epsilon", "1e-6"],
    "adam-hyper": ["--preset", "paper-2h", "--beta1", "0.8", "--beta2", "0.99",
                   "--lr", "2e-3"],
    "dropout-025": ["--hidden", "2", "--units", "64", "--dropout", "0.25"],
}


def run(src: Path, workdir: Path, argv: list[str], stdout_name: str, **env_vars) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), **env_vars)
    proc = subprocess.run(
        [sys.executable, "-m", "socdfn.cli", *argv],
        cwd=workdir, env=env, capture_output=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    (workdir / stdout_name).write_bytes(proc.stdout)


def run_seed(src: Path, workdir: Path, seed: int) -> None:
    s = f"s{seed}"
    run(src, workdir, ["gen-data", "--out", f"{s}-cycle.csv", "--seed", str(seed),
                       "--duration", str(CYCLE_SECONDS)], f"{s}-gen-data.stdout")
    run(src, workdir, ["gen-data", "--out", f"{s}-cycle-short.csv", "--seed", str(seed),
                       "--duration", str(SHORT_CYCLE_SECONDS)], f"{s}-gen-data-short.stdout")
    common = ["--data", f"{s}-cycle.csv", "--epochs", str(EPOCHS), "--seed", str(seed)]
    for name, flags in TRAIN_RUNS.items():
        out = f"{s}-train-{name}"
        flags = [flag.format(out=out) for flag in flags]
        run(src, workdir, ["train", *common, *flags, "--model-out", f"{out}.json",
                           "--history-out", f"{out}-history.csv",
                           "--save-test", f"{out}-test.csv"], f"{out}.stdout")
    for jobs in (1, 2):
        out = f"{s}-crossval-jobs{jobs}"
        run(src, workdir, ["crossval", *common, "--k", "4", "--preset",
                           "paper-4h-dropout", "--jobs", str(jobs),
                           "--report-out", f"{out}.csv"], f"{out}.stdout")
    out = f"{s}-crossval-no-shuffle"
    run(src, workdir, ["crossval", *common, "--k", "4", "--preset", "paper-2h",
                       "--no-shuffle", "--report-out", f"{out}.csv"], f"{out}.stdout")
    out = f"{s}-crossval-lr"
    run(src, workdir, ["crossval", *common, "--k", "4", "--preset", "paper-2h",
                       "--lr", "0.02", "--batch", "16", "--report-out", f"{out}.csv"],
        f"{out}.stdout")
    model = f"{s}-train-2h.json"
    run(src, workdir, ["predict", "--model", model, "--data", f"{s}-cycle.csv",
                       "--out", f"{s}-predictions.csv"], f"{s}-predict.stdout")
    labeled = (workdir / f"{s}-cycle.csv").read_text(encoding="utf-8").splitlines()
    (workdir / f"{s}-features.csv").write_text(
        "".join(line.rsplit(",", 1)[0] + "\n" for line in labeled), encoding="utf-8")
    run(src, workdir, ["predict", "--model", model, "--data", f"{s}-features.csv",
                       "--out", f"{s}-predictions-features.csv"],
        f"{s}-predict-features.stdout")
    run(src, workdir, ["evaluate", "--model", model, "--data", f"{s}-train-2h-test.csv"],
        f"{s}-evaluate.stdout")
    run(src, workdir, ["gen-data", "--out", f"{s}-cycle-blocks.csv", "--seed", str(seed),
                       "--duration", str(BLOCKS_CYCLE_SECONDS)],
        f"{s}-gen-data-blocks.stdout")
    for tag, env_vars in (("blocks", {}), ("blocks-serial", {"OPENBLAS_NUM_THREADS": "1"})):
        run(src, workdir, ["predict", "--model", model, "--data", f"{s}-cycle-blocks.csv",
                           "--out", f"{s}-predictions-{tag}.csv"], f"{s}-predict-{tag}.stdout",
            **env_vars)
        run(src, workdir, ["evaluate", "--model", model, "--data", f"{s}-cycle-blocks.csv"],
            f"{s}-evaluate-{tag}.stdout", **env_vars)


def fingerprint() -> dict[str, str]:
    """What decides how this host rounds: numpy, its BLAS, the CPU's SIMD, Python."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": " ".join([*simd["baseline"], *simd["found"]]),
        "python": platform.python_version(),
    }


def digests(src: Path) -> dict[str, str]:
    """{file name: sha256} of every artifact the runs of each seed write."""
    with tempfile.TemporaryDirectory(prefix="socdfn-digests-") as tmp:
        workdir = Path(tmp)
        for seed in SEEDS:
            run_seed(src, workdir, seed)
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(workdir.iterdir())}


def read_listing(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(fingerprint, digests) of a listing this script printed."""
    host, found = {}, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            host[key] = value
        else:
            digest, name = line.split("  ", 1)
            found[name] = digest
    return host, found


def check(src: Path) -> int:
    """Compare src's digests with the reference; the exit code of --check."""
    ref_host, ref = read_listing(REFERENCE)
    host = fingerprint()
    if host != ref_host:
        for key in sorted(host.keys() | ref_host.keys()):
            if host.get(key) != ref_host.get(key):
                print(f"{key}: reference {ref_host.get(key)}, this host {host.get(key)}",
                      file=sys.stderr)
        print(f"{REFERENCE.name} was made on another host, whose products may round "
              "differently; regenerate it here from the commit it should describe",
              file=sys.stderr)
        return EXIT_OTHER_HOST
    now = digests(src)
    names = sorted(ref.keys() | now.keys())
    differ = 0
    for name in names:
        if now.get(name) != ref.get(name):
            differ += 1
            label = "missing" if name not in now else "new" if name not in ref else "changed"
            print(f"{label}  {name}")
    if differ:
        print(f"{differ} of {len(names)} artifacts differ from {REFERENCE.name}",
              file=sys.stderr)
        return EXIT_DIFFERS
    print(f"all {len(now)} digests match {REFERENCE.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="source root that holds the socdfn package")
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare with {REFERENCE.name} instead of printing; exit {EXIT_DIFFERS} "
        f"naming each artifact that differs, {EXIT_OTHER_HOST} if this host's "
        "fingerprint is not the reference's",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "socdfn" / "cli.py").is_file():
        parser.error(f"{src} holds no socdfn/cli.py")
    if args.check:
        return check(src)
    for key, value in fingerprint().items():
        print(f"# {key} {value}")
    for name, digest in digests(src).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
