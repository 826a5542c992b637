"""The three workloads: the inputs each makes from a seed, how each is driven
through freematch-lab's CLI functions, and the checks on its outputs.

The program receives only the generated inputs: a train config, a sweep
seed, or an ablation seed list. Checks compare against references recorded
by perfbench/record_reference.py, so the train and ablation input seeds
cycle through REF_SEEDS recorded seeds.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import time

from freematch_lab import cli, theory, trainer

from .tracer import Patches, Tracer, aggregate, install

REF_SEEDS = 4
MC_SAMPLES = 10_000_000
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# the three monotonicity claims the theory command must certify
REQUIRED_VERDICTS = (
    "PASS utilization_vs_tau: p_mask_strictly_increasing_in_tau [required]",
    "PASS mask_vs_delta: p_mask_strictly_decreasing_in_delta [required]",
    "PASS imbalance_vs_tau: imbalance_non_decreasing_in_tau [required]",
)

# environment variables a pool worker reads to find its spool dir and mode
SPOOL_ENV = "PERFBENCH_SPOOL"
MODE_ENV = "PERFBENCH_MODE"


def input_seed(workload: str, seed: int) -> int:
    """Seed handed to the program; reference-checked workloads cycle."""
    return seed if workload == "theory_mc" else seed % REF_SEEDS


def train_config(seed: int) -> dict:
    """configs/two_moon_freematch.json at the given seed. `augment.seed` is
    left at its default (0): training ignores it."""
    return {
        "dataset": {"kind": "two_moons", "n_unlabeled": 1000, "labels_per_class": 1, "noise_sigma": 0.1, "seed": seed},
        "train": {
            "scheme": {"kind": "sat"},
            "fairness": "saf",
            "w_u": 1.0,
            "w_f": 0.01,
            "lambda": 0.999,
            "mu": 96,
            "B": 2,
            "K": 2000,
            "warmup_iters": 0,
            "clamp": None,
            "eval_every": 50,
            "seed": seed,
            "lr0": 0.05,
            "momentum": 0.9,
            "hidden_dims": [64, 64, 64],
            "augment": {"weak_sigma": 0.05, "strong_sigma": 0.3, "strong_scale_range": [0.9, 1.1]},
        },
    }


class SetupDone(Exception):
    """Raised at the first unit of work when only set-up is being timed."""


class OpTimer:
    """One timer around the workload's unit of work (a train_step call or an
    mc_dist call). Records when the first one starts, each duration in ns,
    and the work items done (steps, or MC draws including rerolls)."""

    def __init__(self, stop_at_first: bool = False):
        self.stop_at_first = stop_at_first
        self.first: float | None = None
        self.calls = 0
        self.ns: list[int] = []
        self.items = 0

    def wrap(self, fn, items_of):
        def timed(*args, **kwargs):
            if self.first is None:
                self.first = time.monotonic()
                if self.stop_at_first:
                    raise SetupDone()
            self.calls += 1
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            self.ns.append(time.perf_counter_ns() - t0)
            self.items += items_of(out)
            return out

        return timed


def time_steps(patches: Patches, timer: OpTimer) -> None:
    patches.set(trainer, "train_step", timer.wrap(trainer.train_step, lambda _: 1))


def time_mc_draws(patches: Patches, timer: OpTimer) -> None:
    patches.set(theory, "mc_dist", timer.wrap(theory.mc_dist, lambda res: res.n))


# -- running ---------------------------------------------------------------


def run_train(seed: int, out_dir: str) -> int:
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(train_config(seed), fh)
    return cli.main(["train", "--config", cfg_path, "--out", os.path.join(out_dir, "run")])


def run_theory(seed: int, out_dir: str) -> int:
    return cli.main(["theory", "--out", out_dir, "--mc-samples", str(MC_SAMPLES), "--seed", str(seed)])


def run_ablate(seed: int) -> dict:
    # looked up on the module at call time, so a traced run sees its span
    return cli.run_ablation("thresholds", [seed])


_ORIGINAL_JOB = cli._ablation_job


def ablation_job(job: dict):
    """Pool-worker stand-in for cli._ablation_job: runs the original job with
    its train_step calls timed (and traced in trace mode) and leaves a JSON
    record per job in the spool dir. Works under fork and spawn, because it
    reads its settings from the environment and patches in its own process."""
    spool, mode = os.environ[SPOOL_ENV], os.environ[MODE_ENV]
    start = time.monotonic()
    record = {"pid": os.getpid(), "start": start}
    path = os.path.join(spool, f"job-{os.getpid()}-{time.perf_counter_ns()}.json")
    if mode == "setup":
        _write_json(path, record)
        raise SetupDone()
    tracer = Tracer() if mode == "trace" else None
    patches = install(tracer) if tracer else Patches()
    timer = OpTimer()
    time_steps(patches, timer)
    cpu0 = time.process_time()
    try:
        return _ORIGINAL_JOB(job)
    finally:
        patches.restore()
        record.update(
            end=time.monotonic(),
            cpu_s=time.process_time() - cpu0,
            step_ns=timer.ns,
            steps=timer.calls,
            agg=aggregate(tracer) if tracer else None,
        )
        _write_json(path, record)


def _write_json(path: str, doc) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


# -- checks -------------------------------------------------------------------
# Each check is (name, ok, detail). These are the ROADMAP's rules for a valid
# speed-up: golden trace within rel 1e-9, equal final error, MC agreement and
# verdicts, ablation means to 4 decimals.


def _close(a: str, b: str) -> bool:
    if a == "" or b == "":
        return a == b
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= 1e-9 * max(abs(x), abs(y))


def load_reference() -> dict:
    with open(os.path.join(REF_DIR, "reference.json")) as fh:
        return json.load(fh)


def reference_trace_path(seed: int) -> str:
    return os.path.join(REF_DIR, f"train_two_moon_seed{seed}.csv.gz")


def check_train(out_dir: str, seed: int, ref: dict) -> list[tuple[str, bool, str]]:
    run_dir = os.path.join(out_dir, "run")
    with open(os.path.join(run_dir, "trace.csv")) as fh:
        got = list(csv.reader(fh))
    with gzip.open(reference_trace_path(seed), "rt") as fh:
        want = list(csv.reader(fh))
    bad = [
        i for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1)
        if len(g) != len(w) or not all(_close(a, b) for a, b in zip(g, w))
    ]
    trace_ok = len(got) == len(want) and got[:1] == want[:1] and not bad
    detail = f"{len(got)} rows vs {len(want)}" + (f", first mismatch at row {bad[0]}" if bad else "")
    with open(os.path.join(run_dir, "checkpoint.json")) as fh:
        final_error = json.load(fh)["final_error"]
    want_error = ref["train_two_moon"][str(seed)]["final_error"]
    return [
        ("trace_matches_reference", trace_ok, detail),
        ("final_error_equal", final_error == want_error, f"{final_error!r} vs {want_error!r}"),
    ]


def _mc_z(analytic: float, mc: float, se: float, n: int) -> float:
    scale = max(se, math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n), 1.0 / n)
    return abs(analytic - mc) / scale


def check_theory(out_dir: str) -> list[tuple[str, bool, str]]:
    checks = []
    with open(os.path.join(out_dir, "theorem_sweep.csv")) as fh:
        for row in csv.DictReader(fh):
            z = max(
                _mc_z(float(row[f"p_{k}"]), float(row[f"mc_p_{k}"]), float(row[f"mc_se_{k}"]), MC_SAMPLES)
                for k in ("pos", "neg", "mask")
            )
            checks.append((f"z_le_3:{row['sweep']}:{row['param']}", z <= 3.0, f"z={z:.3f}"))
    with open(os.path.join(out_dir, "verdicts.txt")) as fh:
        lines = set(fh.read().splitlines())
    for verdict in REQUIRED_VERDICTS:
        checks.append((verdict, verdict in lines, "present" if verdict in lines else "missing"))
    return checks


def check_ablation(summary: dict, seed: int, ref: dict) -> list[tuple[str, bool, str]]:
    want = ref["ablate_thresholds"][str(seed)]
    checks = [("variants_match", sorted(summary) == sorted(want), ",".join(sorted(summary)))]
    for variant, mean in want.items():
        got = summary.get(variant, {}).get("mean_error")
        ok = got is not None and round(got, 4) == round(mean, 4)
        checks.append((f"mean_error:{variant}", ok, f"{got!r} vs {mean!r}"))
    return checks
