import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from freematch_lab import cli, trainer
from freematch_lab.adaptive_threshold import Fixed, Sat
from freematch_lab.ssl_losses import FairnessVariant
from freematch_lab.trainer import TrainConfig, TrainingAborted, config_from_dict, config_to_dict, run


CONFIGS_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC_DIR)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


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


def test_train_rejects_3d_cluster_means(tmp_path, capsys):
    """The lab is 2-D: 3-D means fail when the config is parsed, not after training."""
    doc = json.loads(_small_experiment(tmp_path).read_text())
    doc["dataset"].update(C=3, means=[[0, 0, 0], [3, 0, 0], [0, 3, 0]])
    cfg = tmp_path / "exp3d.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: means must be")
    assert not out.exists()


def test_emit_plots_memory_does_not_grow_with_the_raster(tmp_path):
    """The 200x200 raster is predicted in bands of test-set size: NumPy reports
    its buffers to tracemalloc, one whole-raster forward would peak near 40 MB
    and the whole grid in 4,096-row blocks near 5.6 MB. The run is the canonical
    protocol cut to 100 steps; the raster's cost does not depend on K."""
    data = cli.canonical_two_moon_data(0)
    config = dataclasses.replace(cli.canonical_two_moon_config(Sat(), FairnessVariant.SAF, 0.01, seed=0), K=100)
    result = run(config, data)
    tracemalloc.start()
    try:
        cli._emit_plots(result, data, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert (tmp_path / "boundary.svg").exists()


def test_train_requires_output_dir(tmp_path):
    cfg = _small_experiment(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 2


def _shipped_config(tmp_path, **train_overrides):
    with open(os.path.join(CONFIGS_DIR, "two_moon_freematch.json")) as fh:
        doc = json.load(fh)
    doc["train"].update(train_overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


def test_aborted_train_leaves_no_output_dir(tmp_path, capsys):
    """The directory is made only once training has returned, as on a config error."""
    cfg = _shipped_config(tmp_path, lr0=1e200, K=50)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("run aborted: aborted at iteration 1: ")
    assert not out.exists()


def test_diverged_train_prints_one_line(tmp_path):
    """A blow-up reaches the user as the abort line alone, with no NumPy
    overflow warnings from the layer where it happened."""
    cfg = _shipped_config(tmp_path, lr0=1e200, K=50)
    proc = _run_python("-m", "freematch_lab.cli", "train", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == "run aborted: aborted at iteration 1: weighted_nll requires finite logits\n"


def test_train_and_theory_do_not_load_the_process_pool(tmp_path):
    """Only `ablate` imports the process pool, and only an MC draw the thread
    pool: `train` loads no `concurrent.futures` at all."""
    cfg = _shipped_config(tmp_path, K=20)
    script = (
        "import sys\n"
        "from freematch_lab import cli\n"
        f"assert cli.main(['train', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'train')!r}]) == 0\n"
        "print('after train:', sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
        f"assert cli.main(['theory', '--mc-samples', '1000', '--out', {str(tmp_path / 'theory')!r}]) == 0\n"
        "print('after theory:', sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert lines == ["after train: []", "after theory: []"]


@pytest.mark.parametrize(
    "section, override, message",
    [
        ("train", {"lambda": 1.5}, "lambda must lie in (0, 1)"),
        ("train", {"clamp": [0.95, 0.9]}, "clamp interval must satisfy 0 <= lo <= hi <= 1"),
        ("train", {"B": 5000}, "batch size 5000 exceeds labeled split size 2"),
        ("train", {"mu": 2.5}, "mu must be an integer, got 2.5"),
        ("train", {"mu": 600}, "batch size 1200 exceeds unlabeled split size 1000"),
        ("train", {"clamp": 0.5}, "clamp must be null or a pair of finite numbers, got 0.5"),
        ("dataset", {"n_unlabeled": "1000"}, "n_unlabeled must be an integer, got '1000'"),
        ("dataset", {"n_unlabeled": 1.5}, "n_unlabeled must be an integer, got 1.5"),
        ("dataset", {"seed": -1}, "seed must be >= 0"),
        ("train", {"augment": {"weak_sigma": "0.05"}}, "augment.weak_sigma must be a finite number, got '0.05'"),
        ("train", {"augment": {"strong_scale_range": 0.5}}, "augment.strong_scale_range must be a pair of finite numbers, got 0.5"),
        ("train", {"augment": {"seed": 1.5}}, "augment.seed must be an integer, got 1.5"),
        ("train", {"lr0": -0.05}, "lr0 must be > 0"),
        ("train", {"lr0": 0}, "lr0 must be > 0"),
        ("train", {"momentum": 1.5}, "momentum must be < 1"),
        ("train", {"momentum": -0.5}, "momentum must be >= 0"),
        ("train", {"w_u": -1}, "w_u must be >= 0"),
        ("train", {"w_f": -1}, "w_f must be >= 0"),
        ("train", {"augment": {"strong_scale_range": [-5, 1.1]}},
         "augment.strong_scale_range must satisfy 0 < lo <= 1 <= hi"),
        ("train", {"augment": {"weak_sigma": 0.5, "strong_sigma": 0.2}},
         "need 0 <= augment.weak_sigma <= augment.strong_sigma"),
        ("train", {"scheme": {"kind": "fixed", "tau": True}}, "scheme.tau must be a finite number, got True"),
        ("train", {"scheme": {"kind": "fixed", "tau": "0.9"}}, "scheme.tau must be a finite number, got '0.9'"),
        ("train", {"scheme": {"kind": "cpl", "tau": 1.5}}, "scheme.tau must lie in (0, 1]"),
        ("train", {"fairness": "bogus"}, "fairness must be one of ['none', 'uniform_prior', 'saf'], got 'bogus'"),
        # a kind that is not a string is named like any other unknown kind, never as unhashable
        ("train", {"scheme": {"kind": ["sat"]}}, "unknown scheme kind ['sat']"),
        ("dataset", {"kind": ["two_moons"]}, "unknown dataset kind ['two_moons']"),
    ],
    ids=["lambda", "clamp", "B", "mu", "mu_B", "clamp_scalar", "n_unlabeled_str", "n_unlabeled_float", "dataset_seed",
         "weak_sigma_str", "scale_range_scalar", "augment_seed_float", "lr0_negative", "lr0_zero", "momentum_above_1",
         "momentum_negative", "w_u_negative", "w_f_negative", "scale_range_negative", "weak_above_strong",
         "tau_bool", "tau_str", "tau_range", "fairness_unknown", "scheme_kind_list", "dataset_kind_list"],
)
def test_bad_train_value_is_a_config_error(tmp_path, capsys, section, override, message):
    """Caught when the config is parsed: no traceback, no output directory."""
    cfg = _shipped_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc[section].update(override)
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, scheme, fairness, w_f",
    [("two_moon_freematch.json", Sat(), FairnessVariant.SAF, 0.01),
     ("two_moon_fixed.json", Fixed(0.95), FairnessVariant.NONE, 0.0)],
)
def test_shipped_configs_are_the_canonical_protocol(name, scheme, fairness, w_f):
    """The ablation's in-code protocol and the shipped configs must not drift apart."""
    with open(os.path.join(CONFIGS_DIR, name)) as fh:
        data, config, _ = cli.parse_experiment_config(json.load(fh))
    assert config == cli.canonical_two_moon_config(scheme, fairness, w_f, seed=0)
    canonical = cli.canonical_two_moon_data(0)
    assert data.n_classes == canonical.n_classes
    for split in ("labeled", "unlabeled", "test"):
        assert np.array_equal(getattr(data, split).points, getattr(canonical, split).points)
        assert np.array_equal(getattr(data, split).labels, getattr(canonical, split).labels)


@pytest.mark.parametrize(
    "section, drop, message",
    [
        ("top", None, "unknown experiment config keys: ['bogus_key']"),
        ("train", None, "unknown train config keys: ['bogus_key']"),
        ("augment", None, "unknown augment keys: ['bogus_key']"),
        ("scheme", None, "unknown scheme keys: ['bogus_key']"),
        ("two_moons", None, "unknown dataset keys: ['bogus_key']"),
        ("clusters", None, "unknown dataset keys: ['bogus_key']"),
        ("grid", None, "unknown sweep grid keys: ['bogus_key']"),
        ("entry", None, "unknown sweep entry keys: ['bogus_key']"),
        ("base", None, "unknown sweep base keys: ['bogus_key']"),
        ("top", "train", "missing experiment config keys: ['train']"),
        ("clusters", "sigma", "missing dataset keys: ['sigma']"),
        ("entry", "values", "missing sweep entry keys: ['values']"),
        ("base", "mu1", "missing sweep base keys: ['mu1']"),
    ],
    ids=["top", "train", "augment", "scheme", "two_moons", "clusters", "grid", "entry", "base",
         "top_without_train", "clusters_without_sigma", "entry_without_values", "base_without_mu1"],
)
def test_unknown_key_is_named(tmp_path, capsys, section, drop, message):
    """An unknown key, or a required one left out, is named in one form in every section."""
    doc = json.loads(_small_experiment(tmp_path).read_text())
    if section == "two_moons":
        doc["dataset"] = {"kind": "two_moons"}
    grid = {"sweeps": [{"name": "mini", "varying": "tau", "base": dict(_GRID_BASE), "values": [0.6, 0.7]}]}
    target = {"top": doc, "train": doc["train"], "augment": doc["train"].setdefault("augment", {}),
              "scheme": doc["train"]["scheme"], "two_moons": doc["dataset"], "clusters": doc["dataset"],
              "grid": grid, "entry": grid["sweeps"][0], "base": grid["sweeps"][0]["base"]}[section]
    if drop is None:
        target["bogus_key"] = 1
    else:
        del target[drop]
    path = tmp_path / "bad.json"
    out = tmp_path / "o"
    if section in ("grid", "entry", "base"):
        path.write_text(json.dumps(grid))
        argv = ["theory", "--grid", str(path), "--out", str(out), "--mc-samples", "0"]
    else:
        path.write_text(json.dumps(doc))
        argv = ["train", "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_python_field_name_is_not_a_config_key(tmp_path, capsys):
    """`lambda` is the key for TrainConfig.lam; `lam` is not an alias."""
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(_shipped_config(tmp_path, lam=0.9)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown train config keys: ['lam']\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["two_moon_freematch.json", "two_moon_fixed.json"])
def test_shipped_train_section_round_trips(name):
    with open(os.path.join(CONFIGS_DIR, name)) as fh:
        train = json.load(fh)["train"]
    back = config_to_dict(config_from_dict(train))
    assert json.loads(json.dumps(back)) == train


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


def test_theory_sweeps_draw_their_own_streams(tmp_path):
    """Two identical sweeps in one grid get different MC draws from one --seed."""
    entry = {"varying": "tau", "values": [0.6, 0.7],
             "base": {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8}}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sweeps": [{"name": "a", **entry}, {"name": "b", **entry}]}))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(grid), "--out", str(out), "--mc-samples", "5000", "--seed", "0"]) == 0
    rows = [line.split(",") for line in (out / "theorem_sweep.csv").read_text().splitlines()[1:]]
    a = [row[2:] for row in rows if row[0] == "a"]
    b = [row[2:] for row in rows if row[0] == "b"]
    assert [row[:5] for row in a] == [row[:5] for row in b]  # same analytic columns
    for row_a, row_b in zip(a, b):
        assert row_a[5:] != row_b[5:]


def test_theory_reports_rerolled_points(tmp_path, monkeypatch, capsys):
    from freematch_lab import theory

    real_z = theory.mc_agreement_z
    calls = []

    def z_flags_second_draw(dist, mc):
        calls.append(mc)
        return 99.0 if len(calls) == 2 else real_z(dist, mc)

    # sweep's own z check sees the forced excursion; the verdict line takes the
    # z that sweep computed for the rerolled draw (a real one: only call 2 is forced)
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


@pytest.mark.parametrize(
    "override, message",
    [({"tau": "0.8"}, "tau must be a finite number, got '0.8'"), ({"beta": True}, "beta must be a finite number, got True"),
     ({"mu1": 1.0, "mu2": -1.0}, "mu1 must be below mu2, got mu1=1.0, mu2=-1.0")],
    ids=["tau_str", "beta_bool", "means_reversed"],
)
def test_theory_bad_base_value_is_a_config_error(tmp_path, capsys, override, message):
    base = {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8, **override}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sweeps": [{"name": "bad", "varying": "delta", "base": base, "values": [1.0, 2.0]}]}))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(grid), "--out", str(out), "--mc-samples", "0"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("values", [["0.6", True, 2], [0.5, 1.0, None], [1.0, float("nan")], 2.0, "0.5"],
                         ids=["mixed", "null", "nan", "scalar", "string"])
def test_theory_bad_sweep_values_are_a_config_error(tmp_path, capsys, values):
    base = {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sweeps": [{"name": "bad", "varying": "beta", "base": base, "values": values}]}))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(grid), "--out", str(out), "--mc-samples", "0"]) == 2
    assert capsys.readouterr().err == f"config error: values must be a list of finite numbers, got {values!r}\n"
    assert not out.exists()


_GRID_BASE = {"mu1": -1.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8}


@pytest.mark.parametrize(
    "grid, message",
    [
        (["sweeps"], "sweep grid must be an object, got ['sweeps']"),
        ({"sweeps": ["mini"]}, "sweep entry must be an object, got 'mini'"),
        ({"sweeps": [{"name": ["x"], "varying": "tau", "base": _GRID_BASE, "values": [0.6, 0.7]}]},
         "sweep entry 'name' must be a string, got ['x']"),
        ({"sweeps": [{"name": 3, "varying": "tau", "base": _GRID_BASE, "values": [0.6, 0.7]}]},
         "sweep entry 'name' must be a string, got 3"),
        ({"sweeps": [{"name": "mini", "varying": "tau", "base": [0.8], "values": [0.6, 0.7]}]},
         "sweep base must be an object, got [0.8]"),
        # named by the grid's value; MixtureSpec would name the means derived from it
        ({"sweeps": [{"name": "d", "varying": "delta", "base": _GRID_BASE, "values": [-2.0, -1.0, 1.0, 2.0]}]},
         "delta must be positive, got -2.0"),
        # two sweeps under one name would print two [required] lines for one claim
        ({"sweeps": [{"name": "utilization_vs_tau", "varying": "tau", "base": _GRID_BASE, "values": [0.6, 0.7]},
                     {"name": "utilization_vs_tau", "varying": "tau", "base": _GRID_BASE, "values": [0.9, 0.8]}]},
         "sweep name 'utilization_vs_tau' is repeated"),
    ],
    ids=["grid_list", "entry_string", "name_list", "name_number", "base_list", "delta_non_positive", "name_repeated"],
)
def test_theory_bad_grid_shape_is_a_config_error(tmp_path, capsys, grid, message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(path), "--out", str(out), "--mc-samples", "0"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_theory_analytic_only_flag(tmp_path):
    out = tmp_path / "th"
    assert cli.main(["theory", "--out", str(out), "--mc-samples", "0"]) == 0
    row = (out / "theorem_sweep.csv").read_text().strip().splitlines()[1].split(",")
    assert row[7] == "" and row[12] == ""


def test_theory_invalid_spec_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "sweeps": [{"name": "bad", "varying": "tau",
                    "base": {"mu1": 0.0, "mu2": 1.0, "sigma1": -1.0, "sigma2": 1.0, "beta": 1.0, "tau": 0.8},
                    "values": [0.6, 0.7]}]
    }))
    assert cli.main(["theory", "--grid", str(grid), "--out", str(tmp_path / "o"), "--mc-samples", "0"]) == 2
    capsys.readouterr()
    # a negative seed is refused by name, not with NumPy's SeedSequence message
    assert cli.main(["theory", "--out", str(tmp_path / "o"), "--mc-samples", "0", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
    assert not (tmp_path / "o").exists()


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


def test_theory_required_sweep_name_without_its_verdict_is_skipped(tmp_path):
    """A sweep named like a required one but varying another parameter gives
    each required claim exactly one line: the missing one a SKIP."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sweeps": [{"name": "utilization_vs_tau", "varying": "beta", "base": _GRID_BASE,
                                            "values": [0.5, 1.0]}]}))
    out = tmp_path / "o"
    assert cli.main(["theory", "--grid", str(grid), "--out", str(out), "--mc-samples", "0"]) == 0
    lines = (out / "verdicts.txt").read_text().splitlines()
    for name, key in cli.REQUIRED_VERDICTS:
        assert sum(f"{name}: {key}" in line for line in lines) == 1, (name, key)
    assert "SKIP utilization_vs_tau: p_mask_strictly_increasing_in_tau [required verdict not in grid]" in lines


# -- ablate -----------------------------------------------------------------------


@pytest.fixture
def fast_protocol(monkeypatch):
    monkeypatch.setitem(cli.TWO_MOON_TRAIN, "K", 30)
    monkeypatch.setitem(cli.TWO_MOON_TRAIN, "mu", 8)
    monkeypatch.setitem(cli.TWO_MOON_TRAIN, "eval_every", 15)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "1")


def test_ablate_unknown_suite_exits_2(tmp_path):
    assert cli.main(["ablate", "--suite", "bogus", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_ablate_bad_thread_count_is_a_config_error(tmp_path, fast_protocol, monkeypatch, capsys, threads):
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", threads)
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "thresholds", "--seeds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: FREEMATCH_LAB_THREADS must be a positive integer, got '{threads}'\n"
    assert not out.exists()


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


def test_pooled_ablation_trains_the_config_the_parent_built(fast_protocol, monkeypatch):
    """The protocol patched in this process reaches spawned workers, whatever their number."""
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    pooled = cli.run_ablation("fairness", [0])
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "1")
    assert cli.run_ablation("fairness", [0]) == pooled
    config = cli.ablation_jobs("fairness", [0])[0][1]
    assert (config.K, config.mu, config.eval_every) == (30, 8, 15)


# Stand-ins for cli._ablation_job. Pool workers are spawned and import them
# from this module, so they take every setting from the job itself.


def _blas_threads_job(job: tuple[str, TrainConfig]) -> tuple[str, int, float, float]:
    """Trains a tiny run and reports, as its final error, the largest OpenBLAS
    thread count its steps saw, and as its best error the smallest."""
    variant, config = job
    getter = trainer._openblas_threads()[1]
    seen = []
    step = trainer.train_step

    def recording_step(*args):
        seen.append(getter())
        return step(*args)

    trainer.train_step = recording_step
    try:
        run(TrainConfig(K=3, mu=2, B=2, eval_every=3, hidden_dims=(4,), seed=config.seed),
            cli.canonical_two_moon_data(config.seed))
    finally:
        trainer.train_step = step
    return variant, config.seed, float(max(seen)), float(min(seen))


def _diverging_job(job: tuple[str, TrainConfig]) -> tuple[str, int, float, float]:
    """'sat' at seed 1 trains at a learning rate that overflows the weights in
    its first step; every other job returns at once."""
    variant, config = job
    if (variant, config.seed) != ("sat", 1):
        return variant, config.seed, 0.5, 0.5
    config = TrainConfig(lr0=1e200, K=20, mu=2, B=2, eval_every=10, hidden_dims=(8,), seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        run(config, cli.canonical_two_moon_data(1))
    raise AssertionError("training did not diverge")


def _crashing_job(job: tuple[str, TrainConfig]) -> tuple[str, int, float, float]:
    """The worker running 'sat' at seed 1 dies at once, as if killed; every
    other job returns at once."""
    variant, config = job
    if (variant, config.seed) == ("sat", 1):
        os._exit(1)
    return variant, config.seed, 0.5, 0.5


def _assert_names_lost_runs(message: str) -> None:
    """The broken-pool error names the crashed run 'sat seed 1' among the
    runs without a result, each a real run, in job order."""
    match = re.search(r"a pool worker died; runs without a result: (.+?) \(", message)
    assert match, message
    lost = match.group(1).split(", ")
    names = [f"{variant} seed {config.seed}" for variant, config in cli.ablation_jobs("thresholds", [0, 1])]
    assert "sat seed 1" in lost
    assert lost == [name for name in names if name in lost]


def test_ablation_pool_workers_run_one_blas_thread(monkeypatch):
    if trainer._openblas_threads() is None:
        pytest.skip("no OpenBLAS with a known thread-count setter is loaded in this process")
    setter, getter = trainer._openblas_threads()
    monkeypatch.setattr(cli, "_ablation_job", _blas_threads_job)
    # the workers inherit this, and their runs still train on one thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    original = getter()
    try:
        setter(2)
        summary = cli.run_ablation("fairness", [0, 1])
        assert {v: (e["mean_error"], e["mean_best_error"]) for v, e in summary.items()} == dict.fromkeys(
            ["none", "uniform_prior", "saf"], (1.0, 1.0)
        )
        # the caller's environment and thread count are as they were
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert "OMP_NUM_THREADS" not in os.environ and "MKL_NUM_THREADS" not in os.environ
        assert getter() == 2
        # a pool of one trains on one thread too
        monkeypatch.setenv("FREEMATCH_LAB_THREADS", "1")
        summary = cli.run_ablation("fairness", [0])
        assert all(e["mean_error"] == e["mean_best_error"] == 1.0 for e in summary.values())
        assert getter() == 2
    finally:
        setter(original)


@pytest.mark.parametrize("workers", [1, 2])
def test_ablation_abort_names_variant_and_seed(monkeypatch, workers):
    monkeypatch.setattr(cli, "_ablation_job", _diverging_job)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", str(workers))
    with pytest.raises(TrainingAborted) as exc_info:
        cli.run_ablation("thresholds", [0, 1])
    assert str(exc_info.value).startswith("ablation run sat seed 1: aborted at iteration 1")
    assert exc_info.value.record.iteration == 1
    assert exc_info.value.last_good.iteration == 0


def test_ablate_command_reports_aborted_pool_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ablation_job", _diverging_job)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "thresholds", "--seeds", "2", "--out", str(out)]) == 1
    assert "run aborted: ablation run sat seed 1: " in capsys.readouterr().err
    assert not out.exists()


def test_ablation_crashed_worker_names_its_run(monkeypatch):
    monkeypatch.setattr(cli, "_ablation_job", _crashing_job)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    with pytest.raises(BrokenProcessPool) as exc_info:
        cli.run_ablation("thresholds", [0, 1])
    _assert_names_lost_runs(str(exc_info.value))


def test_ablate_command_reports_crashed_worker(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ablation_job", _crashing_job)
    monkeypatch.setenv("FREEMATCH_LAB_THREADS", "2")
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--suite", "thresholds", "--seeds", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: a pool worker died; ")
    _assert_names_lost_runs(err)
    assert not out.exists()


@pytest.fixture
def args_without_work(tmp_path, monkeypatch):
    """Each command's arguments but --out, with every kind of work it could
    start replaced by a failure. The train config names its own out_dir,
    which a given --out overrides."""
    from freematch_lab import theory

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    for module, name in ((theory, "mc_dist"), (trainer, "run"), (cli, "run"), (cli, "run_ablation")):
        monkeypatch.setattr(module, name, no_work)  # cli binds trainer.run as cli.run
    cfg = _small_experiment(tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "out_dir": str(tmp_path / "config_out")}))
    return {
        "train": ["train", "--config", str(cfg)],
        "theory": ["theory", "--mc-samples", "1000"],
        "ablate": ["ablate", "--suite", "thresholds", "--seeds", "1"],
    }


@pytest.mark.parametrize("command", ["train", "theory", "ablate"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_names_a_file_is_a_config_error_before_any_work(tmp_path, args_without_work, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("x")
    out = str(afile / below) if below else str(afile)
    assert cli.main([*args_without_work[command], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: output directory {out!r}: {str(afile)!r} is not a directory\n"
    assert afile.read_text() == "x"


@pytest.mark.parametrize("command", ["train", "theory", "ablate"])
def test_empty_out_is_a_config_error_before_any_work(tmp_path, args_without_work, capsys, command):
    """An empty --out names no directory: it neither fails after the work
    nor falls back to the train config's out_dir."""
    assert cli.main([*args_without_work[command], "--out", ""]) == 2
    assert capsys.readouterr() == ("", "config error: output directory must not be empty\n")
    assert not (tmp_path / "config_out").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["train"])  # missing --config
    assert exc_info.value.code == 2
