import copy
import json
import pickle

import numpy as np
import pytest

from freematch_lab import ndcore as nd
from freematch_lab.adaptive_threshold import Fixed, Sat
from freematch_lab.augment import weak
from freematch_lab.ssl_losses import FairnessVariant, supervised_loss
from freematch_lab.synthdata import PointSet, TwoMoonSpec, UnlabeledBatch, gen_gaussian_clusters, gen_two_moons
from freematch_lab.trainer import (
    MetricsRecord,
    TrainConfig,
    TrainingAborted,
    _build,
    config_from_dict,
    config_to_dict,
    evaluate,
    load_checkpoint,
    run,
    save_checkpoint,
    train_step,
    write_trace_csv,
)


def _cluster_data(seed=42):
    return gen_gaussian_clusters(2, 100, [[-3.0, 0.0], [3.0, 0.0]], sigma=0.6, seed=seed, labels_per_class=2)


def _small_config(**overrides):
    base = dict(
        scheme=Sat(),
        fairness=FairnessVariant.SAF,
        w_f=0.05,
        mu=4,
        B=4,
        K=10,
        eval_every=5,
        seed=123,
        hidden_dims=(16, 16),
    )
    base.update(overrides)
    return TrainConfig(**base)


def _step_once(cfg, data):
    model, opt, ema, state, lab_iter, unlab_iter, aug_rng = _build(cfg, data)
    lb = next(lab_iter)
    ub_src = next(unlab_iter)
    ub = UnlabeledBatch(ub_src.points, true_labels=ub_src.labels)
    return model, opt, ema, state, lb, ub, aug_rng


# -- train_step -----------------------------------------------------------------


def test_zero_weights_reduce_to_pure_supervised_update():
    data = _cluster_data()
    cfg = _small_config(w_u=0.0, w_f=0.0, fairness=FairnessVariant.NONE)
    model, opt, ema, state, lb, ub, aug_rng = _step_once(cfg, data)

    # manual supervised-only replay with an identical rng stream
    ref_model, ref_opt, _, _, _, _, ref_rng = _step_once(cfg, data)
    xl = weak(lb.points, cfg.augment, ref_rng)
    loss = supervised_loss(nd.forward(ref_model, xl), lb.labels)
    loss.backward()
    nd.sgd_step(ref_model.parameters(), ref_opt, nd.cosine_lr(cfg.lr0, 0, cfg.K))

    train_step(model, opt, ema, state, lb, ub, cfg, aug_rng)
    for p, q in zip(model.parameters(), ref_model.parameters()):
        assert np.array_equal(p.data, q.data)


def test_single_step_near_zero_lambda_tracks_batch():
    data = _cluster_data()
    cfg = _small_config(lam=1e-12)
    model, opt, ema, state, lb, ub, aug_rng = _step_once(cfg, data)
    # replicate the weak view the step will see
    ref_model = copy.deepcopy(model)
    ref_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    weak(lb.points, cfg.augment, ref_rng)  # consume the labeled draw
    uw = weak(ub.points, cfg.augment, ref_rng)
    with nd.no_grad():
        q = nd.softmax(nd.forward(ref_model, uw)).data
    rec = train_step(model, opt, ema, state, lb, ub, cfg, aug_rng)
    assert rec.tau_global == pytest.approx(q.max(axis=1).mean(), abs=1e-9)


GOLDEN = [
    (1.1905882389995821, 0.4058942813642894, -0.72267524426907404, 0.50017602337168754),
    (1.0660155717247057, 0.43891358752538473, -0.70082534868333213, 0.50031582150724085),
    (0.8315762148906225, 0.54099724879292665, -0.69768875858871304, 0.50040306735313111),
    (0.61557818076680049, 0.58863570188617409, -1.0295681961536196, 0.5004578314020981),
    (0.43184211996297284, 0.47204017880263538, -0.71584952066079155, 0.5005904424573161),
    (0.2803537477176174, 0.26783150690852764, -0.70528502228669732, 0.50086526512728746),
    (0.16347531875205118, 0.18143931743865341, -0.69429787778405405, 0.50120415787756434),
    (0.091461452254946465, 0.14049360669904709, -0.70518935098674196, 0.50158823688944665),
    (0.054359812506348651, 0.059860262619103294, -0.69367627562436951, 0.50202498709513332),
    (0.035987652655185456, 0.036484828205805016, -0.69316303115621536, 0.50248747907713753),
]


def test_ten_step_golden_trace_replays():
    data = _cluster_data()
    cfg = _small_config()
    model, opt, ema, state, lab_iter, unlab_iter, aug_rng = _build(cfg, data)
    for expected in GOLDEN:
        lb = next(lab_iter)
        ub_src = next(unlab_iter)
        rec = train_step(
            model, opt, ema, state, lb, UnlabeledBatch(ub_src.points, true_labels=ub_src.labels), cfg, aug_rng
        )
        got = (rec.l_s, rec.l_u, rec.l_f, rec.tau_global)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-9)


def test_sampling_rate_matches_mask_mean():
    from freematch_lab import adaptive_threshold as at

    data = _cluster_data()
    cfg = _small_config(lam=0.5)
    model, opt, ema, state, lb, ub, aug_rng = _step_once(cfg, data)
    snap_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    weak(lb.points, cfg.augment, snap_rng)
    uw = weak(ub.points, cfg.augment, snap_rng)
    with nd.no_grad():
        q = nd.softmax(nd.forward(model, uw)).data
    rec = train_step(model, opt, ema, state, lb, ub, cfg, aug_rng)
    # recompute the mask from the replayed weak view and the recorded state
    th = at.per_class_thresholds(state, cfg.scheme)
    # state has been updated by the step; rebuild thresholds as the step saw them
    keep, _ = at.mask(q, th)
    assert rec.sampling_rate == pytest.approx(keep.mean(), abs=1e-12)


def test_training_aborts_on_weight_blowup():
    data = _cluster_data()
    cfg = _small_config()
    model, opt, ema, state, lb, ub, aug_rng = _step_once(cfg, data)
    for p in model.parameters():
        p.data[:] = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAborted) as exc_info:
            train_step(model, opt, ema, state, lb, ub, cfg, aug_rng)
    assert isinstance(exc_info.value.record, MetricsRecord)


def test_training_aborted_survives_pickling():
    record = MetricsRecord(3, 0.5, float("inf"), 0.0, float("inf"), 0.6, 0.7, 0.25)
    exc = TrainingAborted(record, "non-finite loss at iteration 3")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingAborted
    assert str(back) == "non-finite loss at iteration 3"
    assert back.record == record


def test_warmup_parameters_independent_of_unlabeled_values():
    data = _cluster_data()
    cfg = _small_config(K=10, warmup_iters=8, fairness=FairnessVariant.SAF)
    model_a, opt_a, ema_a, state_a, lab_a, unlab_a, rng_a = _build(cfg, data)
    model_b, opt_b, ema_b, state_b, lab_b, unlab_b, rng_b = _build(cfg, data)
    for k in range(8):
        lb_a, ub_a = next(lab_a), next(unlab_a)
        lb_b, ub_b = next(lab_b), next(unlab_b)
        # perturb the unlabeled values seen by run b
        ub_b_pts = ub_b.points + 17.0
        train_step(model_a, opt_a, ema_a, state_a, lb_a, UnlabeledBatch(ub_a.points), cfg, rng_a)
        train_step(model_b, opt_b, ema_b, state_b, lb_b, UnlabeledBatch(ub_b_pts), cfg, rng_b)
    for p, q in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(p.data, q.data)
    # but the threshold statistics did keep updating
    assert state_a.tau_global != pytest.approx(1.0 / 2.0, abs=1e-12)
    assert state_b.tau_global != state_a.tau_global


def test_warmup_zeroes_unsupervised_terms():
    data = _cluster_data()
    cfg = _small_config(warmup_iters=5)
    model, opt, ema, state, lb, ub, aug_rng = _step_once(cfg, data)
    rec = train_step(model, opt, ema, state, lb, ub, cfg, aug_rng)
    assert rec.l_u == 0.0 and rec.l_f == 0.0
    assert rec.total == pytest.approx(rec.l_s, abs=0)


# -- evaluate --------------------------------------------------------------------


def test_evaluate_perfect_model():
    data = _cluster_data()

    class Oracle:
        out_dim = 2

    # a wide-margin linear model that classifies by sign of x coordinate
    w = nd.Tensor(np.array([[-10.0, 10.0], [0.0, 0.0]]), requires_grad=False)
    b = nd.Tensor(np.zeros(2))
    model = nd.MlpModel([(w, b)])
    res = evaluate(model, data.test)
    assert res.error_rate == 0.0
    assert np.array_equal(np.diag(res.confusion), [500, 500])
    assert res.confusion.sum() == len(data.test)


def test_evaluate_uniform_random_model_error():
    rng = np.random.default_rng(0)
    C, n = 4, 4000
    test = PointSet(rng.normal(size=(n, 3)), np.repeat(np.arange(C), n // C))
    # random projection acts like a uniform-random classifier on gaussian inputs
    model = nd.MlpModel.init([3, C], seed=9)
    res = evaluate(model, test)
    expected = (C - 1) / C
    assert res.error_rate == pytest.approx(expected, abs=4 * np.sqrt(expected * (1 - expected) / n) + 0.02)
    assert res.confusion.sum() == n
    assert np.array_equal(res.confusion.sum(axis=1), np.full(C, n // C))


# -- run -------------------------------------------------------------------------


def test_run_records_one_row_per_iteration(tmp_path):
    data = _cluster_data()
    cfg = _small_config(K=12, eval_every=5)
    result = run(cfg, data, out_dir=str(tmp_path))
    assert len(result.trace) == 12
    assert result.trace[-1].error_rate is not None
    assert result.final_error <= 1.0 and result.best_error <= result.final_error + 1e-12
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "checkpoint.bin").exists() and (tmp_path / "checkpoint.json").exists()


def test_run_trace_deterministic(tmp_path):
    data = _cluster_data()
    cfg = _small_config(K=8)
    run(cfg, data, out_dir=str(tmp_path / "a"))
    run(cfg, data, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_run_two_moon_protocol_smoke():
    # reduced-iteration smoke of the canonical layout; the full protocol runs in acceptance
    data = gen_two_moons(TwoMoonSpec(n_unlabeled=200, seed=0))
    cfg = TrainConfig(scheme=Sat(), fairness=FairnessVariant.SAF, mu=8, B=2, K=40, eval_every=20, seed=0)
    result = run(cfg, data)
    assert len(result.trace) == 40
    assert all(0.0 <= r.sampling_rate <= 1.0 for r in result.trace)


def test_run_fixed_baseline_low_early_utilization():
    data = gen_two_moons(TwoMoonSpec(n_unlabeled=200, seed=0))
    cfg = TrainConfig(scheme=Fixed(0.95), fairness=FairnessVariant.NONE, mu=8, B=2, K=30, eval_every=15, seed=0)
    result = run(cfg, data)
    assert np.mean([r.sampling_rate for r in result.trace[:10]]) < 0.5


# -- artifacts -------------------------------------------------------------------


def test_trace_csv_columns(tmp_path):
    rec = MetricsRecord(0, 1.0, 0.5, -0.1, 1.399, 0.5, 0.5, 0.25, error_rate=None, pseudo_label_acc=0.75)
    path = tmp_path / "t.csv"
    write_trace_csv([rec], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,l_s,l_u,l_f,total,tau_global,mean_class_threshold,sampling_rate,error_rate,pseudo_label_acc"
    assert lines[1].split(",")[8] == ""  # off-cadence eval column stays blank


def test_checkpoint_roundtrip(tmp_path):
    data = _cluster_data()
    cfg = _small_config(K=6, clamp=(0.6, 0.95))
    result = run(cfg, data)
    prefix = str(tmp_path / "ck")
    save_checkpoint(result, prefix)
    model, ema_m, state, manifest = load_checkpoint(prefix)
    x = data.test.points[:16]
    with nd.no_grad():
        assert np.array_equal(nd.forward(model, x).data, nd.forward(result.model, x).data)
        assert np.array_equal(nd.forward(ema_m, x).data, nd.forward(nd.ema_model(result.ema), x).data)
    assert state.tau_global == result.state.tau_global
    assert state.clamp == (0.6, 0.95)
    assert manifest["config"]["K"] == 6


@pytest.mark.parametrize("extra", [-3, 2], ids=["truncated", "over_long"])
def test_checkpoint_size_mismatch_names_the_file(tmp_path, extra):
    result = run(_small_config(K=2), _cluster_data())
    prefix = str(tmp_path / "ck")
    save_checkpoint(result, prefix)
    flat = np.fromfile(f"{prefix}.bin", dtype="<f8")
    expected = flat.size
    resized = flat[:extra] if extra < 0 else np.concatenate([flat, np.zeros(extra)])
    resized.astype("<f8").tofile(f"{prefix}.bin")
    with pytest.raises(ValueError) as exc:
        load_checkpoint(prefix)
    msg = str(exc.value)
    assert f"{prefix}.bin" in msg
    assert f"need {expected} " in msg and f"found {expected + extra}" in msg


@pytest.mark.parametrize("version", [None, 2], ids=["missing", "different"])
def test_checkpoint_format_version_mismatch_names_the_manifest(tmp_path, version):
    result = run(_small_config(K=2), _cluster_data())
    prefix = str(tmp_path / "ck")
    save_checkpoint(result, prefix)
    manifest = json.loads((tmp_path / "ck.json").read_text())
    assert manifest["format_version"] == 1
    if version is None:
        del manifest["format_version"]
    else:
        manifest["format_version"] = version
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(prefix)
    msg = str(exc.value)
    assert f"{prefix}.json" in msg
    assert f"format version {version!r}, expected 1" in msg


def test_config_dict_roundtrip():
    cfg = _small_config(clamp=(0.9, 0.95), w_u=1.0, w_f=0.01)
    clone = config_from_dict(config_to_dict(cfg))
    assert clone == cfg
    with pytest.raises(ValueError):
        config_from_dict({"bogus_key": 1})


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(K=0)
    with pytest.raises(ValueError):
        TrainConfig(mu=0)
    with pytest.raises(ValueError):
        TrainConfig(K=10, warmup_iters=10)
