"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs the train and ablation workloads for each of the REF_SEEDS input seeds
exactly as the benchmark does, and writes perfbench/reference/. Re-record
only on a commit whose outputs are meant to change; a speed-up must leave
them as they are.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads as wl  # noqa: E402


def main() -> int:
    work = os.path.join(ROOT, "perfbench", "_work", f"record-{os.getpid()}")
    os.makedirs(wl.REF_DIR, exist_ok=True)
    ref = {"train_two_moon": {}, "ablate_thresholds": {}}
    try:
        for seed in range(wl.REF_SEEDS):
            out = os.path.join(work, f"train{seed}")
            os.makedirs(out)
            if wl.run_train(seed, out) != 0:
                raise SystemExit(f"train seed {seed} failed")
            with open(os.path.join(out, "run", "trace.csv"), "rb") as src, \
                    gzip.GzipFile(wl.reference_trace_path(seed), "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
            with open(os.path.join(out, "run", "checkpoint.json")) as fh:
                ref["train_two_moon"][str(seed)] = {"final_error": json.load(fh)["final_error"]}
            summary = wl.run_ablate(seed)
            ref["ablate_thresholds"][str(seed)] = {v: e["mean_error"] for v, e in summary.items()}
            print(f"seed {seed}: final_error={ref['train_two_moon'][str(seed)]['final_error']!r}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(wl.REF_DIR, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
