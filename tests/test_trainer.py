import copy
import ctypes
import dataclasses
import functools
import json
import pickle
import types

import numpy as np
import pytest

from test_ssl_losses import tensor_op_fairness

from freematch_lab import adaptive_threshold as at
from freematch_lab import cli
from freematch_lab import ndcore as nd
from freematch_lab import trainer
from freematch_lab.adaptive_threshold import Fixed, Sat, to_record
from freematch_lab.augment import AugmentSpec, strong, weak
from freematch_lab.ssl_losses import FairnessVariant, consistency_loss, supervised_loss, total_loss
from freematch_lab.synthdata import PointSet, TwoMoonSpec, batch_iter, gen_gaussian_clusters, gen_two_moons
from freematch_lab.trainer import (
    MetricsRecord,
    TrainConfig,
    TrainingAborted,
    _build,
    config_from_dict,
    config_to_dict,
    evaluate,
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
    ub = next(unlab_iter)
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


def _tape_step(model, opt, ema, state, labeled, unlabeled, config, aug_rng):
    """train_step on the autodiff tape: graph forwards, the Tensor forms of the
    heads, the fairness term as general Tensor ops, and
    total_loss(...).backward()."""
    k = opt.k
    xl = weak(labeled.points, config.augment, aug_rng)
    l_s = supervised_loss(nd.forward(model, xl), labeled.labels)
    uw = weak(unlabeled.points, config.augment, aug_rng)
    with nd.no_grad():
        q = nd.softmax(nd.forward(model, uw)).data
    at.update_global(state, q)
    at.update_local(state, q)
    at.update_hist(state, q.argmax(axis=1))
    if isinstance(config.scheme, at.Cpl):
        at.update_cpl_counts(state, q, config.scheme.tau)
    thresholds = at.per_class_thresholds(state, config.scheme)
    keep, hard = at.mask(q, thresholds)
    us = strong(unlabeled.points, config.augment, aug_rng)
    l_u = l_f = nd.as_tensor(0.0)
    if k >= config.warmup_iters:
        strong_logits = nd.forward(model, us)
        l_u, _ = consistency_loss(q, strong_logits, thresholds)
        l_f = tensor_op_fairness(config.fairness, state, q, nd.softmax(strong_logits), thresholds)
    record = MetricsRecord(k, float(l_s), float(l_u), float(l_f),
                           float(l_s) + config.w_u * float(l_u) + config.w_f * float(l_f),
                           state.tau_global, float(thresholds.mean()), float(keep.mean()))
    if keep.any():
        record.pseudo_label_acc = float((hard[keep] == unlabeled.labels[keep]).mean())
    total_loss(l_s, l_u, l_f, config.w_u, config.w_f).backward()
    nd.sgd_step(model.parameters(), opt, nd.cosine_lr(config.lr0, k, config.K))
    opt.k += 1
    nd.ema_update(ema, model.parameters())
    state.advance()
    return record


def _ablation_configs():
    """Every ablation variant, plus SAT+SAF with a 3-step warm-up and w_u = 0.5
    (w_u is 1 in every variant)."""
    configs = [pytest.param(label, cli.canonical_two_moon_config(scheme, fairness, w_f, seed=1), id=label)
               for suite in cli.ABLATION_SUITES.values() for label, scheme, fairness, w_f in suite]
    warmup = dataclasses.replace(configs[-1].values[1], warmup_iters=3, w_u=0.5)
    return configs + [pytest.param("warmup", warmup, id="warmup")]


@pytest.mark.parametrize("label, config", _ablation_configs())
def test_train_step_is_bit_identical_to_the_tape(monkeypatch, label, config):
    """60 steps of train_step and of _tape_step from the same state: every
    record, parameter gradient, parameter and EMA shadow is equal."""
    grads = []
    sgd_step = nd.sgd_step

    def recording_sgd_step(params, *args):
        grads.append([p.grad for p in params])
        sgd_step(params, *args)

    monkeypatch.setattr(nd, "sgd_step", recording_sgd_step)
    data = cli.canonical_two_moon_data(1)
    runs = [_build(config, data) for _ in range(2)]
    records = [[], []]
    for _ in range(60):
        for step, (model, opt, ema, state, lab_iter, unlab_iter, aug_rng), out in zip(
                (train_step, _tape_step), runs, records):
            out.append(step(model, opt, ema, state, next(lab_iter), next(unlab_iter), config, aug_rng))
        assert records[0][-1] == records[1][-1]
        new, tape = grads[-2:]
        assert len(new) == len(tape) and all(np.array_equal(a, b) for a, b in zip(new, tape))
    (model_a, _, ema_a, *_), (model_b, _, ema_b, *_) = runs
    assert all(np.array_equal(a.data, b.data) for a, b in zip(model_a.parameters(), model_b.parameters()))
    assert all(np.array_equal(a, b) for a, b in zip(ema_a.shadow, ema_b.shadow))
    if label == "fixed(0.95)":
        assert records[0][0].sampling_rate == 0.0  # a step that keeps no row: only the labeled branch has a gradient
    if label == "warmup":
        assert [r.l_u for r in records[0][:3]] == [0.0] * 3 and records[0][3].l_u > 0


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
        rec = train_step(model, opt, ema, state, next(lab_iter), next(unlab_iter), cfg, aug_rng)
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
    last_good = MetricsRecord(2, 0.5, 0.4, 0.0, 0.9, 0.6, 0.7, 0.25, pseudo_label_acc=1.0)
    exc = TrainingAborted(record, "non-finite loss at iteration 3", last_good)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingAborted
    assert str(back) == "non-finite loss at iteration 3"
    assert back.record == record and back.last_good == last_good
    assert pickle.loads(pickle.dumps(TrainingAborted(record, "x"))).last_good is None


def test_run_attaches_the_last_good_record(monkeypatch):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingAborted) as exc_info:
        run(_small_config(K=5, lr0=1e200), _cluster_data())
    aborted = exc_info.value
    assert aborted.record.iteration == 1 and aborted.last_good.iteration == 0
    assert np.isfinite(aborted.last_good.total)
    # a step-0 abort has no good record before it
    monkeypatch.setattr(trainer, "weak", lambda points, spec, rng: np.full_like(points, np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(TrainingAborted) as exc_info:
        run(_small_config(K=5), _cluster_data())
    assert exc_info.value.record.iteration == 0 and exc_info.value.last_good is None


def test_warmup_parameters_independent_of_unlabeled_values():
    data = _cluster_data()
    cfg = _small_config(K=10, warmup_iters=8, fairness=FairnessVariant.SAF)
    model_a, opt_a, ema_a, state_a, lab_a, unlab_a, rng_a = _build(cfg, data)
    model_b, opt_b, ema_b, state_b, lab_b, unlab_b, rng_b = _build(cfg, data)
    for k in range(8):
        lb_a, ub_a = next(lab_a), next(unlab_a)
        lb_b, ub_b = next(lab_b), next(unlab_b)
        # perturb the unlabeled values seen by run b
        ub_b = PointSet(ub_b.points + 17.0, ub_b.labels)
        train_step(model_a, opt_a, ema_a, state_a, lb_a, ub_a, cfg, rng_a)
        train_step(model_b, opt_b, ema_b, state_b, lb_b, ub_b, cfg, rng_b)
    for p, q in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(p.data, q.data)
    # but the threshold statistics did keep updating
    assert state_a.tau_global != pytest.approx(1.0 / 2.0, abs=1e-12)
    assert state_b.tau_global != state_a.tau_global


def _batches(it, n=5):
    return [(b.points.tolist(), b.labels.tolist()) for b in (next(it) for _ in range(n))]


def test_training_streams_are_the_dataset_streams_when_the_seeds_match():
    """A known defect, pinned so that its fix must flip this test (ROADMAP item
    7). With dataset.seed == train.seed, the children of _build's
    SeedSequence(seed).spawn(4) are the dataset generator's own spawned
    children: gen_two_moons draws (unlabeled, test) from spawn(2), and
    gen_gaussian_clusters (labeled, unlabeled, test) from spawn(3)."""
    seed = 3
    moons = gen_two_moons(TwoMoonSpec(n_unlabeled=1000, labels_per_class=8, noise_sigma=0.0, seed=seed))
    model, _, _, _, lab_iter, _, _ = _build(TrainConfig(seed=seed, B=4), moons)
    # model init draws the unlabeled stream: the 2x64 layer-1 weights are an
    # affine image of the first 128 unlabeled class-0 angles
    w = model.layers[0][0].data.ravel()
    limit = np.sqrt(6.0 / (2 + 64))
    x, y = moons.unlabeled.points[: w.size].T
    assert np.allclose((w + limit) / (2 * limit), np.arctan2(y, x) / np.pi, rtol=0, atol=1e-12)
    # labeled batches draw the test-split stream
    _, moon_test = np.random.SeedSequence(seed).spawn(2)
    assert _batches(lab_iter) == _batches(batch_iter(moons.labeled, 4, seed=moon_test))

    clusters = gen_gaussian_clusters(2, 100, [[-3.0, 0.0], [3.0, 0.0]], sigma=0.6, seed=seed, labels_per_class=8)
    _, _, _, _, lab_iter, unlab_iter, _ = _build(TrainConfig(seed=seed, B=4, mu=2), clusters)
    _, cluster_unlab, cluster_test = np.random.SeedSequence(seed).spawn(3)
    # labeled batches draw the unlabeled-point stream, unlabeled batches the test-point stream
    assert _batches(lab_iter) == _batches(batch_iter(clusters.labeled, 4, seed=cluster_unlab))
    assert _batches(unlab_iter) == _batches(batch_iter(clusters.unlabeled, 8, seed=cluster_test))


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


def _whole_batch_labels(model, points):
    with nd.no_grad():
        return nd.forward(model, points).data.argmax(axis=1)


def test_predict_blocks_match_the_whole_batch():
    """2 * 4096 + 1 rows: two full blocks and a one-row tail."""
    rng = np.random.default_rng(5)
    points = rng.normal(scale=2.0, size=(2 * trainer._PREDICT_ROWS + 1, 2))
    model = nd.MlpModel.init([2, 16, 16, 3], seed=np.random.default_rng(6))
    pred = trainer.predict(model, points)
    assert pred.shape == (len(points),)
    assert np.array_equal(pred, _whole_batch_labels(model, points))


def _ring_clusters():
    """9 clusters on a circle with 500 test points each: 4,500 test rows."""
    C = 9
    means = [[3.0 * np.cos(a), 3.0 * np.sin(a)] for a in np.linspace(0, 2 * np.pi, C, endpoint=False)]
    return gen_gaussian_clusters(C, 20, means, sigma=0.8, seed=4)


@pytest.mark.parametrize("make_data", [_cluster_data, _ring_clusters], ids=["one_block", "two_blocks"])
def test_evaluate_goes_through_predict(monkeypatch, make_data):
    """Same EvalResult as one whole-batch forward."""
    data = make_data()
    C = data.n_classes
    model = nd.MlpModel.init([2, 16, C], seed=np.random.default_rng(8))
    calls = []
    predict = trainer.predict
    monkeypatch.setattr(trainer, "predict", lambda *args: calls.append(len(args[1])) or predict(*args))
    res = evaluate(model, data.test)
    assert calls == [len(data.test)]
    pred = _whole_batch_labels(model, data.test.points)
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (data.test.labels, pred), 1)
    assert res.error_rate == float((pred != data.test.labels).mean())
    assert np.array_equal(res.confusion, confusion)


# -- run -------------------------------------------------------------------------


def _run_and_write(cfg, data, out_dir):
    """`run`, then the two files that the train command writes from its result."""
    out_dir.mkdir()
    result = run(cfg, data)
    write_trace_csv(result.trace, str(out_dir / "trace.csv"))
    save_checkpoint(result, str(out_dir / "checkpoint"))
    return result


def test_run_records_one_row_per_iteration(tmp_path, monkeypatch):
    data = _cluster_data()
    cfg = _small_config(K=12, eval_every=5)
    monkeypatch.chdir(tmp_path)
    result = run(cfg, data)
    assert len(result.trace) == 12
    assert result.trace[-1].error_rate is not None
    assert result.final_error <= 1.0 and result.best_error <= result.final_error + 1e-12
    assert list(tmp_path.iterdir()) == []  # run returns its result and writes no file


def test_run_trace_deterministic(tmp_path):
    data = _cluster_data()
    cfg = _small_config(K=8)
    _run_and_write(cfg, data, tmp_path / "a")
    _run_and_write(cfg, data, tmp_path / "b")
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def _openblas_or_skip():
    threads = trainer._openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS with a known thread-count setter is loaded in this process")
    return threads


def test_run_trains_on_one_blas_thread_and_restores_the_count(monkeypatch):
    setter, getter = _openblas_or_skip()
    seen = []
    step = trainer.train_step

    def recording_step(*args):
        seen.append(getter())
        return step(*args)

    monkeypatch.setattr(trainer, "train_step", recording_step)
    original = getter()
    try:
        setter(2)
        run(_small_config(K=3), _cluster_data())
        assert seen == [1, 1, 1]
        assert getter() == 2
        # a run that raises restores the count as well
        seen.clear()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingAborted):
            run(_small_config(K=5, lr0=1e200), _cluster_data())
        assert seen and set(seen) == {1}
        assert getter() == 2
    finally:
        setter(original)


def test_run_without_a_blas_setter_writes_the_same_artifacts(tmp_path, monkeypatch, capsys):
    data, cfg = _cluster_data(), _small_config(K=6)
    _run_and_write(cfg, data, tmp_path / "normal")
    capsys.readouterr()
    # a fresh probe that finds no library with a known setter
    monkeypatch.setattr(trainer, "ctypes", types.SimpleNamespace(CDLL=lambda path: object(), c_int=ctypes.c_int))
    monkeypatch.setattr(trainer, "_openblas_threads", functools.cache(trainer._openblas_threads.__wrapped__))
    _run_and_write(cfg, data, tmp_path / "unset")
    run(cfg, data)
    err = capsys.readouterr().err
    assert err == "freematch-lab: no OpenBLAS thread setter found; training keeps the BLAS threads it has\n"
    for name in ("trace.csv", "checkpoint.bin"):
        assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


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


def test_checkpoint_files_hold_the_run(tmp_path):
    """The checkpoint is read here with plain NumPy and JSON: little-endian
    float64 parameters then EMA shadow, in manifest shape order."""
    config = _small_config(K=6, clamp=(0.6, 0.95))
    result = run(config, _cluster_data())
    prefix = str(tmp_path / "ck")
    save_checkpoint(result, prefix)
    manifest = json.loads((tmp_path / "ck.json").read_text())
    assert manifest["format_version"] == 1
    shapes = manifest["param_shapes"] + manifest["ema_shapes"]
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.fromfile(prefix + ".bin", "<f8")
    assert flat.size == sum(sizes)
    arrays = [chunk.reshape(shape) for chunk, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    expected = [p.data for p in result.model.parameters()] + list(result.ema.shadow)
    assert len(arrays) == len(expected)
    assert all(np.array_equal(a, e) for a, e in zip(arrays, expected))
    assert manifest["threshold_state"] == json.loads(json.dumps(to_record(result.state)))
    assert manifest["threshold_state"]["clamp"] == [0.6, 0.95]
    assert manifest["config"] == json.loads(json.dumps(config_to_dict(config)))


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
    # the checks ThresholdState and the schema make, at construction
    for bad in (dict(K=10.0), dict(mu=True), dict(seed=-1), dict(lam=1.5), dict(clamp=(0.9, 0.5)),
                dict(w_u=float("nan")), dict(lr0="0.1"), dict(hidden_dims=(64, 0)), dict(hidden_dims=[64])):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # the edges of the optimizer, loss-weight and scale ranges stay valid
    for edge in (dict(w_u=0.0), dict(w_f=0.0), dict(momentum=0.0), dict(lr0=1e200),
                 dict(augment=AugmentSpec(strong_scale_range=(1.0, 1.0)))):
        TrainConfig(**edge)
