"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One caller in a closed loop: each workload
run is a fresh child process (perfbench/child.py) started only after the
previous one has ended, until S seconds have passed (at least one run).
With --trace 0 it first times set-up alone in a few extra children, then
reports every end-to-end metric in BENCHMARK.json; with --trace 1 it
alternates untraced and traced runs and reports every per-layer metric,
including the tracing overhead. Every run's outputs are checked. The last
line of standard output is one JSON object; the lines before it give the
environment, the metrics under the names users know and the failed share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.tracer import layer_metrics, merge  # noqa: E402  (needs no freematch-lab import)

# BENCHMARK.json lists the workloads whose figures are steady on a 2-core
# host; ablate_thresholds runs on request (see README.md)
WORKLOADS = ("train_two_moon", "theory_mc", "ablate_thresholds")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s
# Workloads whose traced runs are not paired with untraced ones to measure
# the tracing overhead: an ablation run takes about a minute, so a pair
# would not fit in the 180 s limit. Their trace.overhead_s reads 0.
UNPAIRED = ("ablate_thresholds",)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FREEMATCH_LAB_THREADS")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_revision() -> str:
    """Read from .git without running git, which could climb out of the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across NumPy versions
        blas_version = "unknown"
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_revision": git_revision(),
    }
    env.update({k: os.environ.get(k, "unset") for k in BLAS_ENV})
    return env


class Runner:
    """Starts child runs one at a time inside a scratch dir of the checkout."""

    def __init__(self, workload: str, seed: int, work: str, deadline: float):
        self.workload, self.seed, self.work, self.deadline = workload, seed, work, deadline
        self.n = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = work

    def run(self, mode: str) -> dict:
        self.n += 1
        run_dir = os.path.join(self.work, str(self.n))
        os.makedirs(run_dir)
        out = os.path.join(self.work, f"{self.n}.json")
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode, "work": run_dir, "out": out}
        with open(os.path.join(self.work, f"{self.n}.log"), "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.child", json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # the child leads its own process group: this also ends any
                # pool worker it left behind
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        res = {"t_first": None, "t_end": None, "error": f"child exited with {proc.returncode}"}
        if os.path.exists(out):
            with open(out) as fh:
                res = json.load(fh)
        if res.get("error"):
            with open(os.path.join(self.work, f"{self.n}.log")) as fh:
                sys.stderr.write(f"{self.workload} run {self.n} ({mode}) failed:\n{fh.read()[-4000:]}\n")
        shutil.rmtree(run_dir, ignore_errors=True)
        res["t0"] = t0
        res["mode"] = mode
        return res

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def _ok(res: dict) -> bool:
    return not res.get("error") and res.get("t_end") is not None


def tally(results: list[dict]) -> tuple[int, int]:
    """(attempted, failed): each run, each unit of work it started, and each
    check count as attempted; a run that errored or a failed check fails."""
    attempted = failed = 0
    for res in results:
        checks = res.get("checks", [])
        attempted += 1 + res.get("op_calls", 0) + len(checks)
        failed += sum(1 for _, ok, _ in checks if not ok)
        if res["mode"] == "setup":
            failed += res.get("error") is not None or res.get("t_first") is None
        else:
            failed += not _ok(res)
    return attempted, failed


def op_ms_p99(runs: list[dict]) -> float:
    """Median over runs of each run's p99 per unit of work. On a 2-core host
    about 1% of steps wait on a BLAS thread, so this swings between runs by
    far more than any bound; it is reported with the per-layer metrics."""
    return statistics.median(percentile([ns / 1e6 for ns in r["op_ns"]], 99) for r in runs)


def end_to_end(probes: list[dict], runs: list[dict]) -> tuple[dict, dict]:
    good = [r for r in runs if _ok(r)]
    setups = [r["t_first"] - r["t0"] for r in probes + good if r.get("t_first") is not None]
    ops_ms = [[ns / 1e6 for ns in r["op_ns"]] for r in good]
    # each metric is a median over runs, so one run slowed by the host moves
    # it little; the percentiles are taken within each run
    m = {
        "wall_s": statistics.median(r["t_end"] - r["t0"] for r in good),
        "setup_s": statistics.median(setups),
        "work_per_s": statistics.median(r["items"] / (r["t_end"] - r["t_first"]) for r in good),
        "op_ms_p50": statistics.median(percentile(xs, 50) for xs in ops_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    info = {"runs": len(good), "setup_samples": len(setups), "ops_per_run": min(map(len, ops_ms)),
            "op_ms_p99": op_ms_p99(good)}
    if any("jobs" in r for r in good):
        info["runs_per_min"] = statistics.median(r["jobs"] * 60.0 / (r["t_end"] - r["t0"]) for r in good)
    return m, info


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    good = [r for r in traced if _ok(r) and r.get("agg")]
    m = layer_metrics(merge([r["agg"] for r in good]), len(good))
    jobs = sum(r.get("jobs", 0) for r in good)
    m["cli.run_ablation.child_cpu_s_per_run"] = sum(r.get("child_cpu_s", 0.0) for r in good) / jobs if jobs else 0.0
    m["cli.run_ablation.workers"] = statistics.median(r.get("workers", 0) for r in good)
    walls = [[r["t_end"] - r["t0"] for r in rs if _ok(r)] for rs in (traced, untraced)]
    m["trace.overhead_s"] = statistics.median(walls[0]) - statistics.median(walls[1]) if untraced else 0.0
    m["op_ms_p99"] = op_ms_p99([r for r in untraced if _ok(r)]) if untraced else 0.0
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "freematch_lab", "cli.py")):
        print(f"no freematch-lab sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    start = time.monotonic()
    work = os.path.join(ROOT, "perfbench", "_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(args.workload, args.seed, work, start + DEADLINE_S)
        probes, untraced, traced = [], [], []
        if args.trace:
            while not traced or (time.monotonic() - start < args.seconds and not runner.out_of_time()):
                if args.workload not in UNPAIRED:
                    untraced.append(runner.run("run"))
                traced.append(runner.run("trace"))
        else:
            probes = [runner.run("setup") for _ in range(SETUP_PROBES)]
            t_runs = time.monotonic()
            while not untraced or (time.monotonic() - t_runs < args.seconds and not runner.out_of_time()):
                untraced.append(runner.run("run"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = tally(probes + untraced + traced)
    try:
        if args.trace:
            metrics, info = per_layer(untraced, traced), {"traced_runs": len(traced), "untraced_runs": len(untraced)}
        else:
            metrics, info = end_to_end(probes, untraced)
    except (statistics.StatisticsError, IndexError, ZeroDivisionError, KeyError) as exc:
        print(f"no successful run to measure ({exc!r})", file=sys.stderr)
        return 1

    env = environment()
    seed = (untraced + traced)[0].get("input_seed")
    report = {"workload": args.workload, "seed": args.seed, "input_seed": seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "failed_share": failed / attempted, **info,
              "environment": env, "metrics": metrics}
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} input_seed={seed} " + " ".join(f"{k}={v}" for k, v in info.items())
          + f" failed_share={failed}/{attempted}")
    if not args.trace:
        for name, value in named_metrics(args.workload, metrics, info).items():
            print(f"  {name} = {value:.6g}")
    results = os.path.join(ROOT, "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def named_metrics(workload: str, m: dict, info: dict) -> dict:
    """The end-to-end metrics under the names the workload's users know."""
    named = {"wall_s": m["wall_s"], "setup_s": m["setup_s"], "peak_rss_mb": m["peak_rss_mb"]}
    if workload == "train_two_moon":
        named.update(steps_per_s=m["work_per_s"], step_ms_p50=m["op_ms_p50"], step_ms_p99=info["op_ms_p99"])
    elif workload == "theory_mc":
        named.update(mc_draws_per_s=m["work_per_s"], mc_call_ms_p50=m["op_ms_p50"], mc_call_ms_p99=info["op_ms_p99"])
    else:
        named.update(runs_per_min=info["runs_per_min"], steps_per_s=m["work_per_s"],
                     step_ms_p50=m["op_ms_p50"], step_ms_p99=info["op_ms_p99"])
    return named


if __name__ == "__main__":
    raise SystemExit(main())
