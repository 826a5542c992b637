"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v`).

Monte-Carlo gates use a 3-standard-error band with one deterministic reroll
per flagged point, so statistical flukes (a few per thousand entries) do not
produce false failures while genuine formula errors still trip every seed.
"""

import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import tape

from freematch_lab import adaptive_threshold as at
from freematch_lab import cli
from freematch_lab import ndcore as nd
from freematch_lab.ssl_losses import consistency_loss, fairness_loss, supervised_loss, total_loss
from freematch_lab.theory import MixtureSpec, SweepRow, analytic_dist, sweep, with_mc
from freematch_lab.trainer import run

SEEDS = [0, 1, 2, 3, 4]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: analytic distribution vs Monte Carlo ------------------------------


def test_criterion_1_theorem_agreement():
    t0 = time.time()
    grid = list(
        itertools.product([0.5, 1.0, 2.0, 4.0], [(1.0, 1.0), (0.5, 2.0)], [0.5, 2.0], [0.7, 0.95])
    )
    rows = []
    for i, (delta, (s1, s2), beta, tau) in enumerate(grid):
        spec = MixtureSpec(mu1=-delta / 2, mu2=delta / 2, sigma1=s1, sigma2=s2, beta=beta, tau=tau)
        row = with_mc(SweepRow(i, spec, analytic_dist(spec)), 10**7, seed=1000 + i)  # the theory command's reroll
        assert row.z <= 3.0, f"grid point {i} (delta={delta}, sigma=({s1},{s2}), beta={beta}, tau={tau}): z={row.z:.2f}"
        rows.append(row)
    elapsed = time.time() - t0
    worst = max(row.z for row in rows)
    rerolls = sum(row.rerolled for row in rows)
    _report(
        "1 (theorem agreement)",
        worst <= 3.0 and elapsed < 120.0,
        f"{len(grid)} grid points at n=1e7, max z={worst:.2f} <= 3, {rerolls} rerolled, "
        f"runtime {elapsed:.0f}s < 120s",
    )


# -- criterion 2: the monotonicity implications ---------------------------------------


def test_criterion_2_theorem_implications():
    results = {
        entry["name"]: sweep(MixtureSpec(**entry["base"]), entry["varying"], entry["values"])
        for entry in cli.THEORY_GRID["sweeps"]
    }
    checks = [results[name].verdicts[key] for name, key in cli.REQUIRED_VERDICTS]
    _report(
        "2 (theorem implications)",
        all(checks),
        "exact analytic monotonicity: p_mask up in tau, p_mask up as delta shrinks, "
        f"imbalance non-decreasing in tau (sigma1 != sigma2) -> {checks}",
    )


# -- criteria 3, 4 and 7: the two-moon protocol ----------------------------------------


def _timed_run(job):
    """One ablation job's run and its wall time, both taken in the worker."""
    data, config, _ = cli.parse_experiment_config(job[1])
    t0 = time.time()
    result = run(config, data)
    return result, time.time() - t0


@pytest.fixture(scope="module")
def two_moon_runs():
    """(result, seconds) per (label, seed) for every run that criteria 3, 4 and
    7 read: the thresholds suite and the fairness suite's SAT+SAF runs, 30
    distinct runs trained once each on one spawn pool that `ablate`'s rule
    sizes. Each run's time is taken inside its worker, so it is its own time."""
    jobs = cli.ablation_jobs("thresholds", SEEDS) + [j for j in cli.ablation_jobs("fairness", SEEDS) if j[0] == "saf"]
    workers = max(1, min(cli._worker_count(), len(jobs)))
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return {(label, doc["train"]["seed"]): timed for (label, doc), timed in zip(jobs, pool.map(_timed_run, jobs))}


def test_criterion_3_two_moon_reproduction(two_moon_runs):
    runs = [two_moon_runs[label, s] for label in ("saf", "fixed(0.95)") for s in SEEDS]
    slowest = max(seconds for _, seconds in runs)
    fm_mean = float(np.mean([two_moon_runs["saf", s][0].final_error for s in SEEDS]))
    fx_mean = float(np.mean([two_moon_runs["fixed(0.95)", s][0].final_error for s in SEEDS]))
    ok = fm_mean <= 0.05 and fm_mean < fx_mean and slowest < 180.0
    _report(
        "3 (two-moon reproduction)",
        ok,
        f"adaptive mean error {fm_mean:.4f} <= 0.05 and < fixed-threshold baseline {fx_mean:.4f}; "
        f"slowest run {slowest:.0f}s < 180s (5 seeds, 2 labels, 2000 iters)",
    )


def test_criterion_4_threshold_dynamics(two_moon_runs):
    rising = []
    rate_gaps = []
    for seed in SEEDS:
        fm, fx = two_moon_runs["saf", seed][0], two_moon_runs["fixed(0.95)", seed][0]
        rising.append(fm.trace["tau_global"][49] < fm.trace["tau_global"][1999])
        fm_rate = float(np.mean(fm.trace["sampling_rate"][:200]))
        fx_rate = float(np.mean(fx.trace["sampling_rate"][:200]))
        rate_gaps.append(fm_rate - fx_rate)
    ok = all(rising) and all(g > 0 for g in rate_gaps)
    _report(
        "4 (threshold dynamics)",
        ok,
        f"tau(50) < tau(2000) on all seeds = {all(rising)}; early sampling-rate margin over fixed "
        f"baseline min={min(rate_gaps):.3f} > 0",
    )


# -- criterion 5: gradient suite ----------------------------------------------------------


def _finite_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def _max_rel_err(ad: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(ad - fd) / denom))


def _random_graph(rng):
    """A random small graph on the test tape, differentiated by its backward:
    its value function and (gradient, leaf value) per leaf."""
    shape = [(2, 3), (3, 4), (1, 5)][rng.integers(0, 3)]
    a = nd.Tensor(rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape), requires_grad=True)
    b = nd.Tensor(rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape), requires_grad=True)
    op = rng.integers(0, 6)

    def build():
        t = a * b + a
        if op == 0:
            t = t.relu() + b * 0.5
        elif op == 1:
            t = (t * 0.3).exp()
        elif op == 2:
            t = tape.softmax(t)
        elif op == 3:
            t = tape.log_softmax(t) * 0.1
        elif op == 4:
            t = t / (b * b + 1.0)
        else:
            t = (t * t).sum(axis=0) * 0.25 + (a * 0.5).sum(axis=0)
        return (t * t).sum() * (1.0 / t.data.size)

    build().backward()
    return lambda: float(build()), [(a.grad, a.data), (b.grad, b.data)]


def _composite_loss_case(rng):
    """The full weighted objective as a function of the model parameters,
    with weak probabilities and thresholds held fixed as constants. Its
    gradient takes train_step's path: each head's closed form at its weight,
    then mlp_backward through mlp_forward's layers, the two branches' gradients
    summed labeled first, checked against finite differences on theta."""
    model = nd.MlpModel.init([2, 6, 3], seed=int(rng.integers(0, 2**31)))
    xl = rng.normal(size=(4, 2))
    yl = rng.integers(0, 3, size=4)
    us = rng.normal(size=(8, 2))
    q = rng.uniform(0.05, 1.0, size=(8, 3))
    q /= q.sum(axis=1, keepdims=True)
    state = at.ThresholdState(C=3)
    state.p_local = q.mean(axis=0)
    state.hist = np.full(3, 1.0 / 3.0)
    th = at.per_class_thresholds(state, at.Sat())

    w_u, w_f = 1.0, 0.05

    def value():
        l_s, _ = supervised_loss(nd.forward(model, xl), yl)
        strong_logits = nd.forward(model, us)
        l_u, _ = consistency_loss(q, strong_logits, th)
        l_f, _ = fairness_loss("saf", state, q, nd.softmax(strong_logits), th)
        return float(total_loss(l_s, l_u, l_f, w_u=w_u, w_f=w_f))

    acts_l = nd.mlp_forward(model, xl)
    grad = nd.mlp_backward(model, acts_l, supervised_loss(acts_l[-1], yl)[1])
    acts_s = nd.mlp_forward(model, us)
    _, grad_s = consistency_loss(q, acts_s[-1], th, w_u)
    probs = nd.softmax(acts_s[-1])
    _, grad_f = fairness_loss("saf", state, q, probs, th, w_f)
    if grad_s is not None:  # then grad_f is too: both heads keep the same rows
        grad += nd.mlp_backward(model, acts_s, grad_s + nd.softmax_backward(probs, grad_f))
    return value, [(grad, model.theta)]


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(20240)
    worst = 0.0
    n_graphs = 0
    for case in range(100):
        value, grads = _composite_loss_case(rng) if case % 25 == 0 else _random_graph(rng)
        for grad, param in grads:
            err = _max_rel_err(grad, _finite_diff(value, param))
            worst = max(worst, err)
            assert err <= 1e-4, f"graph {case}: relative error {err:.2e}"
        n_graphs += 1
    _report(
        "5 (gradient suite)",
        n_graphs == 100 and worst <= 1e-4,
        f"{n_graphs} random graphs incl. 4 full composite losses, max rel err {worst:.2e} <= 1e-4",
    )


# -- criterion 6: invariant suite ----------------------------------------------------------


def test_criterion_6_invariant_suite():
    rng = np.random.default_rng(77)
    C, lam, T = 5, 0.999, 10_000
    state = at.ThresholdState(C=C, lam=lam)
    batch_means = []
    p_replay = np.full(C, 1.0 / C)
    h_replay = np.full(C, 1.0 / C)
    simplex_ok = True
    for _ in range(T):
        B = int(rng.integers(1, 9))
        probs = rng.uniform(1e-4, 1.0, size=(B, C))
        probs /= probs.sum(axis=1, keepdims=True)
        at.observe(state, probs, at.Sat())
        labels = probs.argmax(axis=1)
        batch_means.append(probs.max(axis=1).mean())
        p_replay = lam * p_replay + (1 - lam) * probs.mean(axis=0)
        h_replay = lam * h_replay + (1 - lam) * np.bincount(labels, minlength=C) / B
        simplex_ok = simplex_ok and abs(state.p_local.sum() - 1) <= 1e-9 and abs(state.hist.sum() - 1) <= 1e-9
        simplex_ok = simplex_ok and 1.0 / C - 1e-12 <= state.tau_global <= 1.0 + 1e-12

    # closed form: lambda^T / C + (1 - lambda) * sum lambda^(T-i) m_i
    powers = lam ** np.arange(T - 1, -1, -1)
    closed = lam**T / C + (1 - lam) * float(powers @ np.array(batch_means))
    ema_ok = (
        abs(state.tau_global - closed) <= 1e-10
        and np.max(np.abs(state.p_local - p_replay)) <= 1e-10
        and np.max(np.abs(state.hist - h_replay)) <= 1e-10
    )

    mono_ok = True
    for _ in range(1000):
        probs = rng.uniform(1e-4, 1.0, size=(16, C))
        probs /= probs.sum(axis=1, keepdims=True)
        th = rng.uniform(0.0, 1.0, size=C)
        keep_lo, _ = at.mask(probs, th)
        keep_hi, _ = at.mask(probs, th + rng.uniform(0.0, 0.5, size=C))
        mono_ok = mono_ok and not (keep_hi & ~keep_lo).any()

    _report(
        "6 (invariant suite)",
        simplex_ok and ema_ok and mono_ok,
        f"simplex/range held over {T} randomized updates={simplex_ok}; EMA closed-form replay "
        f"agrees to 1e-10={ema_ok}; mask monotone under raising on 1000 batches={mono_ok}",
    )


# -- criterion 7: ablation ranking -----------------------------------------------------------


def test_criterion_7_ablation_ranking(two_moon_runs):
    """The thresholds suite's runs, ranked by the summary `ablate` writes."""
    runs = {(label, s): two_moon_runs[label, s][0] for label in cli.ABLATION_SUITES["thresholds"] for s in SEEDS}
    summary = cli.ablation_summary([(label, seed, r.final_error, r.best_error) for (label, seed), r in runs.items()])
    means = {label: entry["mean_error"] for label, entry in summary.items()}
    sat_mean = means["sat"]
    ok = all(sat_mean <= m for m in means.values())
    ordered = ", ".join(f"{k}={v:.4f}" for k, v in sorted(means.items(), key=lambda kv: kv[1]))
    _report(
        "7 (ablation ranking)",
        ok,
        f"adaptive global+local scheme has the lowest mean error over {len(SEEDS)} seeds: {ordered}",
    )


# -- criterion 8: determinism -----------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    import json

    train_doc = {
        "dataset": {"kind": "two_moons", "n_unlabeled": 300, "seed": 5},
        "train": {"scheme": {"kind": "sat"}, "fairness": "saf", "mu": 8, "B": 2, "K": 60,
                  "eval_every": 30, "seed": 5},
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(train_doc))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t1")]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t2")]) == 0
    train_same = (tmp_path / "t1" / "trace.csv").read_bytes() == (tmp_path / "t2" / "trace.csv").read_bytes()

    assert cli.main(["theory", "--out", str(tmp_path / "h1"), "--mc-samples", "50000", "--seed", "3"]) == 0
    assert cli.main(["theory", "--out", str(tmp_path / "h2"), "--mc-samples", "50000", "--seed", "3"]) == 0
    theory_same = (
        (tmp_path / "h1" / "theorem_sweep.csv").read_bytes()
        == (tmp_path / "h2" / "theorem_sweep.csv").read_bytes()
    )
    _report(
        "8 (determinism)",
        train_same and theory_same,
        f"byte-identical CSVs on repeated runs: train={train_same}, theory={theory_same}",
    )
