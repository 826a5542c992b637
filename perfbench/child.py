"""One workload run in a fresh process, so set-up is timed from process start
and peak memory belongs to this run alone.

    python3 -m perfbench.child SPEC_JSON

SPEC_JSON names the workload, the input seed, the mode (`run`, `setup` to
stop at the first unit of work, or `trace`), a scratch dir and the result
file, which receives the run's timings, checks and trace aggregates.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from freematch_lab import cli

from perfbench import workloads as wl
from perfbench.tracer import Patches, Tracer, aggregate, install, merge


def _run(spec: dict, res: dict) -> None:
    workload, mode, work = spec["workload"], spec["mode"], spec["work"]
    seed = res["input_seed"] = wl.input_seed(workload, spec["seed"])
    tracer = Tracer() if mode == "trace" else None
    aggs = []
    if workload == "ablate_thresholds":
        # the pool workers time and trace their own jobs (see ablation_job)
        spool = os.path.join(work, "spool")
        os.makedirs(spool)
        os.environ[wl.SPOOL_ENV], os.environ[wl.MODE_ENV] = spool, mode
        patches = Patches()
        patches.set(cli, "_ablation_job", wl.ablation_job)
        try:
            if tracer:
                with tracer.span("cli.run_ablation"):
                    summary = wl.run_ablate(seed)
                aggs.append(aggregate(tracer))
            else:
                summary = wl.run_ablate(seed)
            res["t_end"] = time.monotonic()
            checks = wl.check_ablation(summary, seed, wl.load_reference())
        except wl.SetupDone:
            checks = []
        finally:
            patches.restore()
        jobs = []
        for name in sorted(os.listdir(spool)):
            with open(os.path.join(spool, name)) as fh:
                jobs.append(json.load(fh))
        res["t_first"] = min((j["start"] for j in jobs), default=None)
        res["op_ns"] = [ns for j in jobs for ns in j.get("step_ns", [])]
        res["op_calls"] = res["items"] = sum(j.get("steps", 0) for j in jobs)
        res["workers"] = len({j["pid"] for j in jobs})
        res["jobs"] = sum(1 for j in jobs if "end" in j)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        res["child_cpu_s"] = usage.ru_utime + usage.ru_stime
        res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # the largest worker
        aggs += [j["agg"] for j in jobs if j.get("agg")]
    else:
        patches = install(tracer) if tracer else Patches()
        timer = wl.OpTimer(stop_at_first=mode == "setup")
        if workload == "train_two_moon":
            wl.time_steps(patches, timer)
            run = wl.run_train
        else:
            wl.time_mc_draws(patches, timer)
            run = wl.run_theory
        try:
            res["rc"] = run(seed, work)
            res["t_end"] = time.monotonic()
        except wl.SetupDone:
            pass
        finally:
            patches.restore()
            res["t_first"] = timer.first
            res["op_ns"], res["op_calls"], res["items"] = timer.ns, timer.calls, timer.items
        if tracer:
            aggs.append(aggregate(tracer))
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if mode != "setup":
            checks = [("exit_code_zero", res["rc"] == 0, f"rc={res['rc']}")]
            checks += wl.check_train(work, seed, wl.load_reference()) if workload == "train_two_moon" \
                else wl.check_theory(work)
        else:
            checks = []
    res["checks"] = checks
    res["agg"] = merge(aggs) if aggs else None


def main() -> int:
    spec = json.loads(sys.argv[1])
    res: dict = {"t_first": None, "t_end": None, "error": None}
    try:
        _run(spec, res)
    except Exception:
        res["error"] = traceback.format_exc()
        print(res["error"], file=sys.stderr)
    with open(spec["out"], "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
