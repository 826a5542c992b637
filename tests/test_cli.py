import json
import os
import re
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from freematch_lab import cli
from freematch_lab.trainer import TrainConfig, TrainingAborted, run


CONFIGS_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _small_experiment(tmp_path, **train_overrides):
    train = {
        "scheme": {"kind": "sat"},
        "fairness": "saf",
        "w_f": 0.05,
        "mu": 4,
        "B": 4,
        "K": 20,
        "eval_every": 10,
        "seed": 7,
        "hidden_dims": [16, 16],
    }
    train.update(train_overrides)
    doc = {
        "dataset": {"kind": "clusters", "C": 2, "n_per_class": 80, "means": [[-3, 0], [3, 0]],
                    "sigma": 0.6, "seed": 3, "labels_per_class": 2},
        "train": train,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


# -- train ------------------------------------------------------------------------


def test_train_writes_all_artifacts(tmp_path):
    cfg = _small_experiment(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trace.csv", "checkpoint.bin", "checkpoint.json", "dataset.csv",
                 "boundary.svg", "thresholds.svg", "sampling_rate.svg"):
        assert (out / name).exists(), name
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 21


def test_train_deterministic_traces(tmp_path):
    cfg = _small_experiment(tmp_path)
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    assert (tmp_path / "a" / "boundary.svg").read_bytes() == (tmp_path / "b" / "boundary.svg").read_bytes()


def test_train_malformed_json_exits_2_without_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_train_unknown_keys_rejected(tmp_path):
    cfg = _small_experiment(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["surprise"] = 1
    cfg.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    doc = json.loads(_small_experiment(tmp_path).read_text())
    doc["train"]["bogus"] = True
    cfg.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 2


def test_train_requires_output_dir(tmp_path):
    cfg = _small_experiment(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 2


def test_bundled_configs_parse():
    for name in ("two_moon_freematch.json", "two_moon_fixed.json"):
        with open(os.path.join(CONFIGS_DIR, name)) as fh:
            doc = json.load(fh)
        data, config, out_dir = cli.parse_experiment_config(doc)
        assert config.K == 2000 and config.B == 2
        assert len(data.labeled) == 2 and len(data.unlabeled) == 1000
        assert out_dir is not None
    # defaults from the paper-protocol tables round-trip through the config
    with open(os.path.join(CONFIGS_DIR, "two_moon_freematch.json")) as fh:
        doc = json.load(fh)
    _, config, _ = cli.parse_experiment_config(doc)
    assert config.w_u == 1.0 and config.lam == 0.999 and config.momentum == 0.9


# -- theory -----------------------------------------------------------------------


def test_theory_default_grid_verdicts_pass(tmp_path):
    out = tmp_path / "th"
    assert cli.main(["theory", "--out", str(out), "--mc-samples", "0"]) == 0
    verdicts = (out / "verdicts.txt").read_text()
    assert "PASS utilization_vs_tau: p_mask_strictly_increasing_in_tau [required]" in verdicts
    assert "PASS mask_vs_delta: p_mask_strictly_decreasing_in_delta [required]" in verdicts
    assert "PASS imbalance_vs_tau: imbalance_non_decreasing_in_tau [required]" in verdicts
    assert "overall: PASS" in verdicts
    rows = (out / "theorem_sweep.csv").read_text().strip().splitlines()
    assert rows[0].startswith("sweep,varying,param,")
    assert len(rows) == 1 + 8 + 4 + 4 + 7


def test_theory_equal_sigmas_zero_imbalance(tmp_path):
    out = tmp_path / "th"
    cli.main(["theory", "--out", str(out), "--mc-samples", "0"])
    for line in (out / "theorem_sweep.csv").read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "utilization_vs_tau":
            assert float(cells[6]) == 0.0  # sigma1 == sigma2 forces exact symmetry


def test_theory_mc_columns_and_agreement(tmp_path):
    out = tmp_path / "th"
    assert cli.main(["theory", "--out", str(out), "--mc-samples", "20000"]) == 0
    verdicts = (out / "verdicts.txt").read_text()
    assert "mc_agreement" in verdicts
    row = (out / "theorem_sweep.csv").read_text().strip().splitlines()[1].split(",")
    assert row[7] != "" and row[8] != ""


def test_theory_reports_rerolled_points(tmp_path, monkeypatch, capsys):
    from freematch_lab import theory

    real_z = theory.mc_agreement_z
    calls = []

    def z_flags_second_draw(dist, mc):
        calls.append(mc)
        return 99.0 if len(calls) == 2 else real_z(dist, mc)

    # sweep's own z check sees the forced excursion; the verdict line is computed
    # from cli's unpatched mc_agreement_z on the rerolled draw
    monkeypatch.setattr(theory, "mc_agreement_z", z_flags_second_draw)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "sweeps": [{"name": "mini", "varying": "tau",
                    "base": {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
                    "values": [0.6, 0.7, 0.8]}]
    }))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(grid), "--out", str(out), "--mc-samples", "5000"]) == 0
    line = next(ln for ln in (out / "verdicts.txt").read_text().splitlines() if "mc_agreement" in ln)
    assert line.startswith("PASS mc_agreement")
    assert line.endswith("; 1 rerolled: mini tau=0.7)")
    assert line in capsys.readouterr().out


def test_theory_analytic_only_flag(tmp_path):
    out = tmp_path / "th"
    assert cli.main(["theory", "--out", str(out), "--mc-samples", "0"]) == 0
    row = (out / "theorem_sweep.csv").read_text().strip().splitlines()[1].split(",")
    assert row[7] == "" and row[12] == ""


def test_theory_invalid_spec_exits_2(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "sweeps": [{"name": "bad", "varying": "tau",
                    "base": {"mu1": 0.0, "mu2": 1.0, "sigma1": -1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
                    "values": [0.6, 0.7]}]
    }))
    assert cli.main(["theory", "--grid", str(grid), "--out", str(tmp_path / "o"), "--mc-samples", "0"]) == 2


def test_theory_custom_grid(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "sweeps": [{"name": "mini", "varying": "tau",
                    "base": {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
                    "values": [0.6, 0.7, 0.8]}]
    }))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(grid), "--out", str(out), "--mc-samples", "0"]) == 0
    assert "SKIP mask_vs_delta" in (out / "verdicts.txt").read_text()


# -- ablate -----------------------------------------------------------------------


@pytest.fixture
def fast_protocol(monkeypatch):
    monkeypatch.setitem(cli.TWO_MOON_TRAIN, "K", 30)
    monkeypatch.setitem(cli.TWO_MOON_TRAIN, "mu", 8)
    monkeypatch.setitem(cli.TWO_MOON_TRAIN, "eval_every", 15)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "1")


def test_ablate_unknown_suite_exits_2(tmp_path):
    assert cli.main(["ablate", "--suite", "bogus", "--out", str(tmp_path)]) == 2


def test_ablate_thresholds_suite_rows(tmp_path, fast_protocol):
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "thresholds", "--seeds", "2", "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert rows[0] == "variant,n_seeds,mean_error,std_error,mean_best_error"
    variants = [r.split(",")[0] for r in rows[1:]]
    assert variants == ["fixed(0.95)", "global_only", "local_only(0.95)", "sat", "cpl(0.95)"]
    assert all(r.split(",")[1] == "2" for r in rows[1:])


def test_ablate_fairness_suite_rows(tmp_path, fast_protocol):
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "fairness", "--seeds", "1", "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    variants = [r.split(",")[0] for r in rows[1:]]
    assert variants == ["none", "uniform_prior", "saf"]
    # single seed leaves the std column empty
    assert all(r.split(",")[3] == "" for r in rows[1:])


def test_ablate_deterministic_csv(tmp_path, fast_protocol):
    cli.main(["ablate", "--suite", "fairness", "--seeds", "1", "--out", str(tmp_path / "x")])
    cli.main(["ablate", "--suite", "fairness", "--seeds", "1", "--out", str(tmp_path / "y")])
    assert (tmp_path / "x" / "ablation.csv").read_bytes() == (tmp_path / "y" / "ablation.csv").read_bytes()


# Stand-ins for cli._ablation_job. Pool workers are spawned and import them
# from this module, so they take every setting from the job itself.


def _blas_env_job(job: dict) -> tuple[str, int, float, float]:
    """Reports, as its final error, whether the worker saw one BLAS thread."""
    one = all(os.environ.get(v) == "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return job["variant"], job["seed"], float(one), 0.0


def _diverging_job(job: dict) -> tuple[str, int, float, float]:
    """'sat' at seed 1 trains at a learning rate that overflows the weights in
    its first step; every other job returns at once."""
    if (job["variant"], job["seed"]) != ("sat", 1):
        return job["variant"], job["seed"], 0.5, 0.5
    config = TrainConfig(lr0=1e200, K=20, mu=2, B=2, eval_every=10, hidden_dims=(8,), seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        run(config, cli.canonical_two_moon_data(1))
    raise AssertionError("training did not diverge")


def _crashing_job(job: dict) -> tuple[str, int, float, float]:
    """The worker running 'sat' at seed 1 dies at once, as if killed; every
    other job returns at once."""
    if (job["variant"], job["seed"]) == ("sat", 1):
        os._exit(1)
    return job["variant"], job["seed"], 0.5, 0.5


def _runs_up_to_sat_1() -> set[str]:
    """The runs a crash at (sat, 1) can leave without a result: that one, or
    an earlier one the other worker was still running."""
    names = [f"{j['variant']} seed {j['seed']}" for j in cli.ablation_jobs("thresholds", [0, 1])]
    return set(names[: names.index("sat seed 1") + 1])


def test_ablation_pool_workers_run_one_blas_thread(monkeypatch):
    monkeypatch.setattr(cli, "_ablation_job", _blas_env_job)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    summary = cli.run_ablation("fairness", [0, 1], workers=2)
    assert {v: e["mean_error"] for v, e in summary.items()} == {"none": 1.0, "uniform_prior": 1.0, "saf": 1.0}
    # the caller's environment is back as it was
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ and "MKL_NUM_THREADS" not in os.environ
    # the serial path runs in this process and leaves the variables alone
    summary = cli.run_ablation("fairness", [0], workers=1)
    assert all(e["mean_error"] == 0.0 for e in summary.values())


@pytest.mark.parametrize("workers", [1, 2])
def test_ablation_abort_names_variant_and_seed(monkeypatch, workers):
    monkeypatch.setattr(cli, "_ablation_job", _diverging_job)
    with pytest.raises(TrainingAborted) as exc_info:
        cli.run_ablation("thresholds", [0, 1], workers=workers)
    assert str(exc_info.value).startswith("ablation run sat seed 1: aborted at iteration 1")
    assert exc_info.value.record.iteration == 1


def test_ablate_command_reports_aborted_pool_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ablation_job", _diverging_job)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "thresholds", "--seeds", "2", "--out", str(out)]) == 1
    assert "run aborted: ablation run sat seed 1: " in capsys.readouterr().err
    assert not out.exists()


def test_ablation_crashed_worker_names_its_run(monkeypatch):
    monkeypatch.setattr(cli, "_ablation_job", _crashing_job)
    with pytest.raises(BrokenProcessPool) as exc_info:
        cli.run_ablation("thresholds", [0, 1], workers=2)
    match = re.match(r"ablation run (\S+ seed \d+): no result, a pool worker died", str(exc_info.value))
    assert match and match.group(1) in _runs_up_to_sat_1()


def test_ablate_command_reports_crashed_worker(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ablation_job", _crashing_job)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "thresholds", "--seeds", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    match = re.search(r"run failed: ablation run (\S+ seed \d+): no result, a pool worker died", err)
    assert match and match.group(1) in _runs_up_to_sat_1()
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["train"])  # missing --config
    assert exc_info.value.code == 2
