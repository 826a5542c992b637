"""The semi-supervised training loop.

Each step, in order: supervised loss on the weak-augmented labeled batch; a
weak forward on the unlabeled batch; threshold statistics updates; per-class
thresholds; masked consistency loss on the strong branch; the fairness term
that `TrainConfig.fairness` names ("none", "uniform_prior" or "saf");
closed-form backward (no autodiff graph, bit-identical to the autodiff tape's)
+ SGD step at the cosine learning rate; parameter-EMA update; metrics.
During warm-up the unsupervised and fairness terms are zeroed while the
threshold statistics keep updating, so SSL starts from an informed state.

Inference has one path, `predict`, in blocks of a few thousand rows, so its
memory does not grow with the number of points. Evaluation passes it the test
set, and the decision-boundary raster one 200-point raster row per call.

The loop is single-threaded and fully seed-deterministic: `run` puts NumPy's
OpenBLAS on one thread and restores the count when it returns or raises. The
count is process-wide, so independent runs go in separate processes. `run`
returns a `RunResult` and writes no file: see `write_trace_csv` and
`save_checkpoint`. Its trace is one table of K rows allocated before the first
step, 80 bytes a row: `train_step` returns its row and `run` stores it as row
k, so a longer run costs 80 bytes a step and no other object.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import pathlib
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import adaptive_threshold as at
from . import ndcore as nd
from .atomic import atomic_open, write_csv
from .augment import AugmentSpec, strong, weak
from .ssl_losses import FAIRNESS_VARIANTS, consistency_loss, fairness_loss, supervised_loss
from .ssl_losses import total_loss  # noqa: F401 -- unused; perfbench's tracer patches this name
from .synthdata import DatasetBundle, PointSet, batch_iter, check_fields, is_int, read_call, read_object, streams


# field name -> config key, where they differ
_CONFIG_KEYS = {"lam": "lambda"}

# decay of the parameter EMA that is evaluated in place of the trained model
EMA_DECAY = 0.999


@dataclass(frozen=True)
class TrainConfig:
    scheme: at.SchemeId = field(default_factory=at.Sat)
    fairness: str = "saf"  # one of FAIRNESS_VARIANTS
    w_u: float = 1.0
    w_f: float = 0.01
    lam: float = 0.999
    mu: int = 7
    B: int = 2
    K: int = 2000
    warmup_iters: int = 0
    clamp: tuple[float, float] | None = None
    eval_every: int = 50
    seed: int = 0
    lr0: float = 0.03
    momentum: float = 0.9
    hidden_dims: tuple[int, ...] = (64, 64, 64)
    augment: AugmentSpec = field(default_factory=AugmentSpec)

    def __post_init__(self):
        lows = dict(K=1, mu=1, B=1, eval_every=1, seed=0, w_u=0, w_f=0, momentum=0)
        check_fields(type(self).__annotations__, vars(self), lows, _CONFIG_KEYS)
        if self.fairness not in FAIRNESS_VARIANTS:
            raise ValueError(f"fairness must be one of {list(FAIRNESS_VARIANTS)}, got {self.fairness!r}")
        if not self.lr0 > 0:
            raise ValueError("lr0 must be > 0")
        if not self.momentum < 1:
            raise ValueError("momentum must be < 1")
        if not isinstance(self.hidden_dims, tuple) or not all(is_int(h) and h >= 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be a list of integers >= 1, got {self.hidden_dims!r}")
        if not 0 <= self.warmup_iters < self.K:
            raise ValueError("warmup_iters must lie in [0, K)")
        at.check_statistics_params(self.lam, self.clamp)


# one step's metrics, a row of a run's trace, with NaN where the step has no
# value: `error_rate` off the eval cadence, `pseudo_label_acc` when no row is kept
TRACE_DTYPE = np.dtype([("iteration", np.int64)] + [(name, np.float64) for name in (
    "l_s", "l_u", "l_f", "total", "tau_global", "mean_class_threshold", "sampling_rate", "error_rate",
    "pseudo_label_acc")])


class TrainingAborted(RuntimeError):
    """Raised on a non-finite loss; carries the failing step's TRACE_DTYPE row
    and the last good step's, or None."""

    def __init__(self, record: np.void, message: str, last_good: np.void | None = None):
        super().__init__(message)
        self.record = record
        self.last_good = last_good

    def __reduce__(self):
        # pickled as its constructor arguments, so it survives a process pool
        return type(self), (self.record, str(self), self.last_good)


@dataclass
class RunResult:
    """A finished run. `trace` is a TRACE_DTYPE table, one row per step;
    `final_error` and `best_error` are the last and the smallest value of its
    `error_rate` column."""

    final_error: float
    best_error: float
    trace: np.ndarray
    model: nd.MlpModel
    ema: nd.MlpModel
    state: at.ThresholdState
    config: TrainConfig


# rows per inference forward: a test set of at most this many rows is one call.
# Keep blocks large: freeing the first 1,000-row evaluation's 512 KB arrays
# raises glibc's mmap and trim thresholds, so the heap top is no longer trimmed
# and refaulted every step: about 144 page faults at 2.3 ms per step before it,
# 2 at 1.8 ms after (2-vCPU VM). 256-row blocks never raise them, and every
# step keeps its ~144 faults: peak RSS -0.9 MB, step time +32 %.
_PREDICT_ROWS = 4096


def predict(model: nd.MlpModel, points: np.ndarray) -> np.ndarray:
    """Class ids of `points`: the argmax of a forward over consecutive blocks of
    at most _PREDICT_ROWS rows, so memory does not grow with the row count. BLAS
    may round a row differently with the block's row count, so past one block
    an exact near-tie can be labeled differently than by one whole-batch call."""
    return np.concatenate([nd.forward(model, points[i : i + _PREDICT_ROWS]).argmax(axis=1)
                           for i in range(0, len(points), _PREDICT_ROWS)])


def evaluate(model: nd.MlpModel, test: PointSet) -> float:
    """Error rate on the test split."""
    return float((predict(model, test.points) != test.labels).mean())


def train_step(
    model: nd.MlpModel,
    velocity: np.ndarray,
    ema: nd.MlpModel,
    state: at.ThresholdState,
    labeled: PointSet,
    unlabeled: PointSet,
    config: TrainConfig,
    aug_rng: np.random.Generator,
    k: int,
) -> np.void:
    """Step k's full update; returns its TRACE_DTYPE row, `error_rate` NaN.
    The unlabeled batch's labels are read only for the pseudo_label_acc
    diagnostic. Each head's upstream gradient is its weight (1, w_u, w_f), as
    in `total_loss`'s backward."""
    in_warmup = k < config.warmup_iters
    if labeled.points.shape[1] != model.in_dim or unlabeled.points.shape[1] != model.in_dim:
        raise ValueError("batch width does not match the model")

    try:
        # (1) supervised loss on the weak-augmented labeled batch
        xl = weak(labeled.points, config.augment, aug_rng)
        acts_l = nd.mlp_forward(model, xl)
        l_s, grad_l = supervised_loss(acts_l[-1], labeled.labels)

        # (2) weak forward on unlabeled data: constants, no gradient
        uw = weak(unlabeled.points, config.augment, aug_rng)
        q = nd.softmax(nd.forward(model, uw))

        # (3) statistics updates precede threshold computation
        at.observe(state, q, config.scheme)

        # (4) per-class thresholds and mask
        thresholds = at.per_class_thresholds(state, config.scheme)
        keep, hard = at.mask(q, thresholds)

        us = strong(unlabeled.points, config.augment, aug_rng)
        l_u, l_f, grad_s = 0.0, 0.0, None  # grad_s: d(total)/d(strong logits), if any
        if not in_warmup:
            # (5) consistency on the strong branch, (6) fairness
            acts_s = nd.mlp_forward(model, us)
            l_u, grad_s = consistency_loss(q, acts_s[-1], thresholds, config.w_u)
            strong_probs = nd.softmax(acts_s[-1])
            l_f, grad_f = fairness_loss(config.fairness, state, q, strong_probs, thresholds, config.w_f)
            if grad_f is not None:  # then grad_s is too: both heads keep the same rows
                grad_s = grad_s + nd.softmax_backward(strong_probs, grad_f)
    except ValueError as exc:
        # numeric blow-up mid-step (overflowed weights, non-finite activations)
        diag = np.void((k, *[math.nan] * 4, state.tau_global, *[math.nan] * 4), TRACE_DTYPE)
        raise TrainingAborted(diag, f"aborted at iteration {k}: {exc}") from exc

    # (7) weighted total, backward, SGD step at the cosine learning rate
    n_kept = np.count_nonzero(keep)
    l_s, l_u, l_f = float(l_s), float(l_u), float(l_f)
    total = l_s + config.w_u * l_u + config.w_f * l_f
    acc = np.count_nonzero(hard[keep] == unlabeled.labels[keep]) / n_kept if n_kept else math.nan
    row = np.void((k, l_s, l_u, l_f, total, state.tau_global, float(np.add.reduce(thresholds) / thresholds.size),
                   n_kept / keep.size, math.nan, acc), TRACE_DTYPE)
    if not np.isfinite(total):
        raise TrainingAborted(row, f"non-finite loss at iteration {k}")

    grad = nd.mlp_backward(model, acts_l, grad_l)
    if grad_s is not None:
        grad += nd.mlp_backward(model, acts_s, grad_s)
    nd.sgd_step(model.theta, grad, velocity, config.momentum, nd.cosine_lr(config.lr0, k, config.K))

    # (8) evaluation-model EMA
    nd.ema_update(ema, model.theta, EMA_DECAY)
    return row


def _build(config: TrainConfig, data: DatasetBundle):
    """A run's model, SGD velocity, EMA, threshold state and streams. Known
    defect (ROADMAP item "Training streams that are not the dataset's", pinned
    in test_trainer.py): at dataset.seed == train.seed these streams are the
    dataset generator's own; on two moons, model init draws the unlabeled
    stream. README lists all three."""
    rng_model, rng_lab, rng_unlab, aug_rng = streams(config.seed, 4)
    d_in = data.labeled.points.shape[1]
    model = nd.MlpModel.init([d_in, *config.hidden_dims, data.n_classes], seed=rng_model)
    ema = nd.MlpModel(model.layers)  # a copy
    state = at.ThresholdState(C=data.n_classes, lam=config.lam, clamp=config.clamp)
    lab_iter = batch_iter(data.labeled, config.B, seed=rng_lab)
    unlab_iter = batch_iter(data.unlabeled, config.mu * config.B, seed=rng_unlab)
    return model, np.zeros_like(model.theta), ema, state, lab_iter, unlab_iter, aug_rng


@functools.cache
def _openblas_threads():
    """(set, get) for the thread count of the OpenBLAS that NumPy loaded, found
    through the process's memory map (Linux), or None. Looked up once per process."""
    maps = pathlib.Path("/proc/self/maps")  # absent off Linux
    words = maps.read_text().split() if maps.exists() else []
    for path in dict.fromkeys(w for w in words if "openblas" in w and os.path.exists(w)):
        lib = ctypes.CDLL(path)
        # NumPy >= 2 wheels, NumPy 1.x wheels, a plain OpenBLAS
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            setter, getter = (getattr(lib, name.format(verb), None) for verb in ("set", "get"))
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype, getter.argtypes, getter.restype = [ctypes.c_int], None, [], ctypes.c_int
                return setter, getter
    print("freematch-lab: no OpenBLAS thread setter found; training keeps the BLAS threads it has", file=sys.stderr)
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count."""
    setter, getter = _openblas_threads() or (lambda n: None, lambda: None)
    saved = getter()
    setter(1)
    try:
        yield
    finally:
        setter(saved)


@_one_blas_thread()
def run(config: TrainConfig, data: DatasetBundle) -> RunResult:
    """Train for K iterations on one BLAS thread."""
    model, velocity, ema, state, lab_iter, unlab_iter, aug_rng = _build(config, data)
    trace = np.empty(config.K, TRACE_DTYPE)
    errors = trace["error_rate"]
    # a blow-up surfaces as TrainingAborted from the finite checks, not as NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.K):
            try:
                trace[k] = train_step(model, velocity, ema, state, next(lab_iter), next(unlab_iter), config, aug_rng, k)
            except TrainingAborted as exc:
                exc.last_good = trace[k - 1].copy() if k else None  # a copy: trace[k - 1] is a view
                raise
            if (k + 1) % config.eval_every == 0 or k == config.K - 1:
                errors[k] = evaluate(ema, data.test)
    return RunResult(float(errors[-1]), float(np.nanmin(errors)), trace, model, ema, state, config)


# -- artifacts ---------------------------------------------------------------------

def write_trace_csv(trace: np.ndarray, path: str) -> None:
    """One column per trace column in order, `iteration` headed `iter`, and NaN
    as the empty cell. The rows are formatted one at a time as they are written."""
    rows = ([None if math.isnan(v) else v for v in row.tolist()] for row in trace)
    write_csv(path, ["iter", *trace.dtype.names[1:]], rows)


def config_to_dict(config: TrainConfig) -> dict:
    """The config's JSON form: every field under its config key."""
    d = {_CONFIG_KEYS.get(f.name, f.name): getattr(config, f.name) for f in fields(config)}
    d.update(scheme=at.scheme_to_dict(config.scheme), augment=asdict(config.augment))
    return d


def config_from_dict(d: dict) -> TrainConfig:
    """Inverse of config_to_dict; an omitted key takes the field's default."""
    names = {_CONFIG_KEYS.get(f.name, f.name): f.name for f in fields(TrainConfig)}
    kwargs = {names[k]: v for k, v in read_object(d, "train config", names).items()}
    if "scheme" in kwargs:
        kwargs["scheme"] = at.scheme_from_dict(kwargs["scheme"])
    if "augment" in kwargs:
        kwargs["augment"] = read_call(AugmentSpec, kwargs["augment"], "augment")
    return TrainConfig(**kwargs)


# the manifest layout and the flat `.bin` order; bump on any change to either
CHECKPOINT_FORMAT_VERSION = 1


def save_checkpoint(result: RunResult, path_prefix: str) -> None:
    """Little-endian float64 binary of the model then the EMA parameters, with a
    JSON manifest: an output record that the lab never reads back."""
    shapes = [list(p.shape) for p in result.model.parameters()]
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "param_shapes": shapes,
        "ema_shapes": shapes,  # the EMA model has the model's layers
        "threshold_state": at.to_record(result.state, len(result.trace)),
        "config": config_to_dict(result.config),
        "final_error": result.final_error,
        "best_error": result.best_error,
    }
    with atomic_open(f"{path_prefix}.bin", "wb") as fh:
        np.concatenate((result.model.theta, result.ema.theta)).astype("<f8").tofile(fh)
    with atomic_open(f"{path_prefix}.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
