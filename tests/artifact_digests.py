"""Print one SHA-256 per artifact of a fixed set of command-line runs, so that
a change that claims byte-identical outputs can show it.

Run it from each tree's own copy and compare the two listings:

    python tests/artifact_digests.py > before.txt    # in the parent's checkout
    python tests/artifact_digests.py > after.txt     # in the changed checkout
    diff before.txt after.txt

Every run imports the package from the `src/` beside this file, in a fresh
interpreter, and writes into a temporary directory removed afterwards. The
runs: `train` with both shipped configs and with a small 3-cluster config
(`CLUSTERS`), each at dataset and train seeds 0 and 1;
`ablate --suite thresholds --seeds 2` and `--suite fairness --seeds 1`;
`theory --mc-samples 0`, and `theory --seed 0` at the default `--mc-samples`.
pytest does not collect this file; it takes about half a minute on two CPUs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("two_moon_freematch", "two_moon_fixed")
# a short SAT+SAF run on the clusters dataset kind, which the shipped configs do not use
CLUSTERS = {
    "dataset": {"kind": "clusters", "C": 3, "n_per_class": 100, "means": [[0.0, 2.0], [-1.7, -1.0], [1.7, -1.0]],
                "sigma": 0.5},
    "train": {"scheme": {"kind": "sat"}, "fairness": "saf", "w_f": 0.01, "mu": 8, "B": 3, "K": 300, "eval_every": 50},
}


def runs(work: str):
    """(label, command-line arguments but --out) per run; the train configs
    for the seeds are written into `work`."""
    docs = []
    for name in CONFIGS:
        with open(os.path.join(ROOT, "configs", f"{name}.json")) as fh:
            docs.append((name, json.load(fh)))
    for name, doc in [*docs, ("clusters", CLUSTERS)]:
        for seed in (0, 1):
            seeded = {**doc, "dataset": {**doc["dataset"], "seed": seed}, "train": {**doc["train"], "seed": seed}}
            config = os.path.join(work, f"{name}-seed{seed}.json")
            with open(config, "w") as fh:
                json.dump(seeded, fh)
            yield f"train-{name}-seed{seed}", ["train", "--config", config]
    yield "ablate-thresholds-seeds2", ["ablate", "--suite", "thresholds", "--seeds", "2"]
    yield "ablate-fairness-seeds1", ["ablate", "--suite", "fairness", "--seeds", "1"]
    yield "theory-mc0", ["theory", "--mc-samples", "0"]
    yield "theory-seed0", ["theory", "--seed", "0"]


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as work:
        for label, args in runs(work):
            out = os.path.join(work, label)
            argv = [sys.executable, "-m", "freematch_lab.cli", *args, "--out", out]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{label}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {label}/{name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
