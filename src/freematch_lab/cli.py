"""Command-line entry point: run experiments from JSON configs, sweep the
mixture theory checks, and run the thresholding/fairness ablation suites.

An experiment config is checked in full when it is parsed: its keys are the
fields of TrainConfig (`lambda` for `lam`) and the parameters of TwoMoonSpec
or gen_gaussian_clusters. Every object of a config or a sweep grid is read by
`synthdata.read_object`, which names unknown and missing keys by section, and
a `kind` picks its constructor through `read_kind`. Exit codes: 0 success, 1
runtime failure, 2 usage or config error; a config error leaves no output
directory. Every output file is written atomically (temp file + rename), so
artifacts are either complete or absent. `augment.seed` is accepted and
ignored: augmentation noise comes from the run's `seed`. Every ablation run
trains on the config the parent built, in a worker of one spawn pool, whose
size FREEMATCH_LAB_THREADS (an integer >= 1; default the CPU count) caps.
Every training run uses one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import trainer
from .adaptive_threshold import Cpl, Fixed, GlobalOnly, LocalOnly, Sat
from .atomic import atomic_open, write_csv
from .augment import AugmentSpec
from .ssl_losses import FairnessVariant
from .svgplot import boundary_chart, line_chart
from .synthdata import (DatasetBundle, TwoMoonSpec, check_batch_size, gen_gaussian_clusters, gen_two_moons, read_call,
                        read_kind, read_object, to_csv)
from .theory import MixtureSpec, sweep
from .trainer import RunResult, TrainConfig, TrainingAborted, config_from_dict, predict, run


# -- canonical two-moon protocol ------------------------------------------------

# Settings for the barely-supervised two-moon runs: one label per class, 1000
# unlabeled points, 3x64 MLP, 2000 iterations. The batch is the entire labeled
# set and the unlabeled draw is large so the threshold statistics are stable.
TWO_MOON_TRAIN = dict(mu=96, B=2, K=2000, lr0=0.05, eval_every=50)
TWO_MOON_AUGMENT = AugmentSpec(strong_sigma=0.3)


def canonical_two_moon_data(seed: int) -> DatasetBundle:
    return gen_two_moons(TwoMoonSpec(n_unlabeled=1000, labels_per_class=1, noise_sigma=0.1, seed=seed))


def canonical_two_moon_config(scheme, fairness: FairnessVariant, w_f: float, seed: int) -> TrainConfig:
    return TrainConfig(
        scheme=scheme, fairness=fairness, w_f=w_f, seed=seed, augment=TWO_MOON_AUGMENT, **TWO_MOON_TRAIN
    )


# -- experiment config ------------------------------------------------------------


def build_dataset(doc: dict) -> DatasetBundle:
    """`kind` picks TwoMoonSpec or gen_gaussian_clusters; the other keys are its arguments."""
    built = read_kind(doc, "dataset", {"two_moons": TwoMoonSpec, "clusters": gen_gaussian_clusters})
    if doc["kind"] == "two_moons":
        return gen_two_moons(built)  # looked up on this module, where perfbench's tracer patches it
    return built


def parse_experiment_config(doc: dict) -> tuple[DatasetBundle, TrainConfig, str | None]:
    read_object(doc, "experiment config", {"dataset", "train", "out_dir"}, {"dataset", "train"})
    data = build_dataset(doc["dataset"])
    config = config_from_dict(doc["train"])
    check_batch_size(config.B, len(data.labeled), "labeled split")
    check_batch_size(config.mu * config.B, len(data.unlabeled), "unlabeled split")
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ValueError("out_dir must be a string")
    return data, config, out_dir


# -- train command ----------------------------------------------------------------


def _emit_plots(result: RunResult, data: DatasetBundle, out_dir: str) -> None:
    all_pts = np.vstack([data.labeled.points, data.unlabeled.points, data.test.points])
    pad = 0.3
    x0, y0 = all_pts.min(axis=0) - pad
    x1, y1 = all_pts.max(axis=0) + pad
    n = 200
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    # predicted a band of raster rows at a time, the most that fit in the test
    # set's size (at least one row), so no raster forward is larger than the
    # test-set evaluation the run has already done
    band = max(1, len(data.test) // n)
    pred = np.empty((n, n), dtype=np.intp)
    for i in range(0, n, band):
        rows = ys[i : i + band]
        band_points = np.column_stack([np.tile(xs, len(rows)), np.repeat(rows, n)])
        pred[i : i + band] = predict(result.ema, band_points).reshape(len(rows), n)
    boundary_chart(
        "decision boundary (EMA model)",
        pred,
        (x0, x1, y0, y1),
        [
            (data.unlabeled.points, "#999999", 1.6),
            (data.labeled.points, "#000000", 5.0),
        ],
        os.path.join(out_dir, "boundary.svg"),
    )
    iters = np.array([r.iteration for r in result.trace])
    line_chart(
        "confidence thresholds",
        [
            ("global", iters, np.array([r.tau_global for r in result.trace])),
            ("mean per-class", iters, np.array([r.mean_class_threshold for r in result.trace])),
        ],
        os.path.join(out_dir, "thresholds.svg"),
    )
    line_chart(
        "sampling rate",
        [("sampling rate", iters, np.array([r.sampling_rate for r in result.trace]))],
        os.path.join(out_dir, "sampling_rate.svg"),
    )


def _check_out_dir(path: str) -> None:
    """Reject, before any work, an output directory that `os.makedirs` could
    not make: "", or a path that is, or lies below, something not a directory."""
    if not path:
        raise ValueError("output directory must not be empty")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValueError(f"output directory {path!r}: {probe!r} is not a directory")


def cmd_train(config_path: str, out_override: str | None) -> int:
    try:
        with open(config_path) as fh:
            data, config, out_dir = parse_experiment_config(json.load(fh))
        out_dir = out_dir if out_override is None else out_override
        if out_dir is None:
            raise ValueError("no output directory (set out_dir or pass --out)")
        _check_out_dir(out_dir)
    except (OSError, ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(config, data)
    except TrainingAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    # looked up on the module, where perfbench's tracer patches them
    trainer.write_trace_csv(result.trace, os.path.join(out_dir, "trace.csv"))
    trainer.save_checkpoint(result, os.path.join(out_dir, "checkpoint"))
    to_csv(data, os.path.join(out_dir, "dataset.csv"))
    _emit_plots(result, data, out_dir)
    print(
        f"done: final_error={result.final_error:.4f} best_error={result.best_error:.4f} "
        f"trace={len(result.trace)} rows -> {out_dir}"
    )
    return 0


# -- theory command ----------------------------------------------------------------


def default_theory_sweeps() -> list[dict]:
    return [
        {
            "name": "utilization_vs_tau",
            "varying": "tau",
            "base": {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
            "values": [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
        },
        {
            "name": "mask_vs_delta",
            "varying": "delta",
            "base": {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
            "values": [0.5, 1.0, 2.0, 4.0],
        },
        {
            "name": "mask_vs_beta",
            "varying": "beta",
            "base": {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
            "values": [0.5, 1.0, 2.0, 4.0],
        },
        {
            # imbalance growth holds in a regime where the masked band still
            # overlaps both components; this grid was checked analytically
            "name": "imbalance_vs_tau",
            "varying": "tau",
            "base": {"mu1": -2.0, "mu2": 2.0, "sigma1": 0.5, "sigma2": 2.0, "beta": 2.0, "tau": 0.8},
            "values": [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9],
        },
    ]


# the three headline monotonicity claims the sweeps must certify
REQUIRED_VERDICTS = [
    ("utilization_vs_tau", "p_mask_strictly_increasing_in_tau"),
    ("mask_vs_delta", "p_mask_strictly_decreasing_in_delta"),
    ("imbalance_vs_tau", "imbalance_non_decreasing_in_tau"),
]


def _load_sweep_file(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    read_object(doc, "sweep grid", {"sweeps"}, {"sweeps"})
    sweeps = doc["sweeps"]
    if not isinstance(sweeps, list) or not sweeps:
        raise ValueError("sweep grid needs a non-empty 'sweeps' list")
    names, keys = set(), ("name", "varying", "base", "values")
    for entry in sweeps:
        read_object(entry, "sweep entry", keys, keys)
        if not isinstance(entry["name"], str):
            raise ValueError(f"sweep entry 'name' must be a string, got {entry['name']!r}")
        # a name picks a sweep's verdicts and labels its CSV rows, so it must be unique
        if entry["name"] in names:
            raise ValueError(f"sweep name {entry['name']!r} is repeated")
        names.add(entry["name"])
    return sweeps


def cmd_theory(grid_path: str | None, out_dir: str, mc_samples: int, seed: int) -> int:
    try:
        _check_out_dir(out_dir)
        entries = _load_sweep_file(grid_path) if grid_path else default_theory_sweeps()
        # one MC seed per sweep, so no two sweeps draw the same streams
        sweep_seeds = np.random.SeedSequence(seed).generate_state(len(entries))
        bases = [read_call(MixtureSpec, entry["base"], "sweep base") for entry in entries]
        results = []
        for entry, base, sweep_seed in zip(entries, bases, sweep_seeds):
            results.append(
                (entry["name"], sweep(base, entry["varying"], entry["values"], mc_samples, int(sweep_seed)))
            )
    except (OSError, ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for name, res in results:
        for row in res.rows:
            d, m = row.dist, row.mc
            mc = [None] * 6 if m is None else [m.dist.p_pos, m.se_pos, m.dist.p_neg, m.se_neg, m.dist.p_mask, m.se_mask]
            rows.append([name, res.varying, row.param, d.p_pos, d.p_neg, d.p_mask, d.imbalance, *mc])
    write_csv(os.path.join(out_dir, "theorem_sweep.csv"),
              ["sweep", "varying", "param", "p_pos", "p_neg", "p_mask", "imbalance",
               "mc_p_pos", "mc_se_pos", "mc_p_neg", "mc_se_neg", "mc_p_mask", "mc_se_mask"], rows)

    lines = []
    all_pass = True
    for name, res in results:
        for key, ok in res.verdicts.items():
            required = (name, key) in REQUIRED_VERDICTS
            if required:
                all_pass = all_pass and ok
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {key}{' [required]' if required else ''}")
    checked = {(name, key) for name, res in results for key in res.verdicts}
    for name, key in REQUIRED_VERDICTS:
        if (name, key) not in checked:
            lines.append(f"SKIP {name}: {key} [required verdict not in grid]")
    if mc_samples > 0:
        worst = 0.0
        n_checked = 0
        rerolled = []
        for name, res in results:
            for row in res.rows:
                worst = max(worst, row.z)
                n_checked += 3
                if row.rerolled:
                    rerolled.append(f"{name} {res.varying}={row.param:.12g}")
        ok = worst <= 3.0
        all_pass = all_pass and ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} mc_agreement: max |analytic - mc| / stderr = {worst:.3f} "
            f"over {n_checked} entries (n={mc_samples}, one reroll per flagged point; "
            f"{len(rerolled)} rerolled{': ' + ', '.join(rerolled) if rerolled else ''})"
        )
    lines.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
    with atomic_open(os.path.join(out_dir, "verdicts.txt")) as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if all_pass else 1


# -- ablate command -----------------------------------------------------------------

# per run: variant label, scheme, fairness variant, w_f
ABLATION_SUITES = {
    "thresholds": [
        ("fixed(0.95)", Fixed(0.95), FairnessVariant.NONE, 0.0),
        ("global_only", GlobalOnly(), FairnessVariant.NONE, 0.0),
        ("local_only(0.95)", LocalOnly(0.95), FairnessVariant.NONE, 0.0),
        ("sat", Sat(), FairnessVariant.NONE, 0.0),
        ("cpl(0.95)", Cpl(0.95), FairnessVariant.NONE, 0.0),
    ],
    "fairness": [
        ("none", Sat(), FairnessVariant.NONE, 0.0),
        ("uniform_prior", Sat(), FairnessVariant.UNIFORM_PRIOR, 0.01),
        ("saf", Sat(), FairnessVariant.SAF, 0.01),
    ],
}


def _ablation_job(job: tuple[str, TrainConfig]) -> tuple[str, int, float, float]:
    variant, config = job
    result = run(config, canonical_two_moon_data(config.seed))
    return variant, config.seed, result.final_error, result.best_error


def ablation_jobs(suite: str, seeds: list[int]) -> list[tuple[str, TrainConfig]]:
    """(variant, config) per run, variant-major."""
    if suite not in ABLATION_SUITES:
        raise ValueError(f"unknown suite {suite!r} (expected 'thresholds' or 'fairness')")
    return [
        (label, canonical_two_moon_config(scheme, fairness, w_f, seed))
        for label, scheme, fairness, w_f in ABLATION_SUITES[suite]
        for seed in seeds
    ]


def _run_name(job: tuple[str, TrainConfig]) -> str:
    return f"{job[0]} seed {job[1].seed}"


def _worker_count() -> int:
    """Ablation workers: FREEMATCH_LAB_THREADS if set, else the CPU count."""
    raw = os.environ.get("FREEMATCH_LAB_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    if raw.strip().isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValueError(f"FREEMATCH_LAB_THREADS must be a positive integer, got {raw!r}")


def run_ablation(suite: str, seeds: list[int]) -> dict[str, dict]:
    """Per-variant summary statistics of the suite across seeds. Every run
    trains in a spawned worker, so a calling script needs a `__main__` guard."""
    # the pool is imported here, not at module level, so train and theory never load it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    jobs = ablation_jobs(suite, seeds)
    n_workers = max(1, min(_worker_count(), len(jobs)))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=spawn) as pool:
        futures = [pool.submit(_ablation_job, job) for job in jobs]
        rows = []
        try:
            for job, future in zip(jobs, futures):
                try:
                    rows.append(future.result())
                except TrainingAborted as exc:  # stop at the first aborted run and name it
                    raise TrainingAborted(exc.record, f"ablation run {_run_name(job)}: {exc}", exc.last_good) from exc
        except BrokenProcessPool as exc:
            # a dead worker fails every job not yet done, its own among them
            lost = ", ".join(_run_name(job) for job, f in zip(jobs, futures) if f.exception() is not None)
            raise BrokenProcessPool(f"a pool worker died; runs without a result: {lost} ({exc})") from exc
        finally:
            for f in futures:
                f.cancel()  # after an abort, the jobs not yet started do not run
    rows.sort(key=lambda r: (r[0], r[1]))  # order-independent aggregation
    summary: dict[str, dict] = {}
    for variant, seed, final_error, best_error in rows:
        entry = summary.setdefault(variant, {"finals": [], "bests": [], "seeds": []})
        entry["seeds"].append(seed)
        entry["finals"].append(final_error)
        entry["bests"].append(best_error)
    for entry in summary.values():
        finals = np.array(entry["finals"])
        entry["mean_error"] = float(finals.mean())
        entry["std_error"] = float(finals.std(ddof=1)) if len(finals) > 1 else None
        entry["mean_best_error"] = float(np.mean(entry["bests"]))
    return summary


def cmd_ablate(suite: str, n_seeds: int, out_dir: str) -> int:
    from concurrent.futures.process import BrokenProcessPool  # loaded only for ablate, as in run_ablation

    try:
        _check_out_dir(out_dir)
        ablation_jobs(suite, [0])
        _worker_count()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if n_seeds < 1:
        print("config error: --seeds must be >= 1", file=sys.stderr)
        return 2
    seeds = list(range(n_seeds))
    try:
        summary = run_ablation(suite, seeds)
    except TrainingAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "ablation.csv")
    entries = [(label, summary[label]) for label, *_ in ABLATION_SUITES[suite]]
    write_csv(csv_path, ["variant", "n_seeds", "mean_error", "std_error", "mean_best_error"],
              ([label, len(e["seeds"]), e["mean_error"], e["std_error"], e["mean_best_error"]] for label, e in entries))
    for label, e in entries:
        std = "n/a" if e["std_error"] is None else f"{e['std_error']:.4f}"
        print(f"{label:18s} mean_error={e['mean_error']:.4f} std={std} (n={len(e['seeds'])})")
    print(f"wrote {csv_path}")
    return 0


# -- entry point -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="freematch-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a JSON config")
    p_train.add_argument("--config", required=True, help="experiment config path")
    p_train.add_argument("--out", default=None, help="output directory (overrides config)")

    p_theory = sub.add_parser("theory", help="analytic + Monte-Carlo mixture sweeps")
    p_theory.add_argument("--grid", default=None, help="JSON sweep grid (default: built-in sweeps)")
    p_theory.add_argument("--out", default="theory_out", help="output directory")
    p_theory.add_argument("--mc-samples", type=int, default=100_000, help="MC draws per grid point (0 = analytic only)")
    p_theory.add_argument("--seed", type=int, default=0)

    p_ablate = sub.add_parser("ablate", help="threshold/fairness ablation suites on two moons")
    p_ablate.add_argument("--suite", required=True, help="thresholds or fairness")
    p_ablate.add_argument("--seeds", type=int, default=5)
    p_ablate.add_argument("--out", default="ablation_out", help="output directory")

    args = parser.parse_args(argv)
    if args.command == "train":
        return cmd_train(args.config, args.out)
    if args.command == "theory":
        if args.mc_samples < 0:
            print("config error: --mc-samples must be >= 0", file=sys.stderr)
            return 2
        if args.seed < 0:
            print("config error: --seed must be >= 0", file=sys.stderr)
            return 2
        return cmd_theory(args.grid, args.out, args.mc_samples, args.seed)
    return cmd_ablate(args.suite, args.seeds, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
