"""The semi-supervised training loop.

Each step, in order: supervised loss on the weak-augmented labeled batch; a
no-gradient weak forward on the unlabeled batch; threshold statistics
updates; per-class thresholds; masked consistency loss on the strong branch;
fairness loss; weighted total backward + SGD step at the cosine learning
rate; parameter-EMA update; metrics. During warm-up the unsupervised and
fairness terms are zeroed while the threshold statistics keep updating, so
SSL starts from an informed state.

The loop is single-threaded and fully seed-deterministic; independent runs
may execute in parallel processes with no shared state.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import adaptive_threshold as at
from . import ndcore as nd
from .augment import AugmentSpec, strong, weak
from .ssl_losses import FairnessVariant, consistency_loss, fairness_loss, supervised_loss, total_loss
from .synthdata import DatasetBundle, LabeledBatch, PointSet, UnlabeledBatch, batch_iter


@dataclass(frozen=True)
class TrainConfig:
    scheme: at.SchemeId = field(default_factory=at.Sat)
    fairness: FairnessVariant = FairnessVariant.SAF
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
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if not 0 <= self.warmup_iters < self.K:
            raise ValueError("warmup_iters must lie in [0, K)")
        if self.B < 1:
            raise ValueError("B must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class MetricsRecord:
    iteration: int
    l_s: float
    l_u: float
    l_f: float
    total: float
    tau_global: float
    mean_class_threshold: float
    sampling_rate: float
    error_rate: float | None = None
    confusion: np.ndarray | None = None
    pseudo_label_acc: float | None = None


class TrainingAborted(RuntimeError):
    """Raised on a non-finite loss; carries the diagnostic record."""

    def __init__(self, record: MetricsRecord, message: str):
        super().__init__(message)
        self.record = record

    def __reduce__(self):
        # pickled as its constructor arguments, so it survives a process pool
        return type(self), (self.record, str(self))


@dataclass
class EvalResult:
    error_rate: float
    confusion: np.ndarray
    per_class_accuracy: np.ndarray


@dataclass
class RunResult:
    final_error: float
    best_error: float
    trace: list[MetricsRecord]
    model: nd.MlpModel
    ema: nd.ParamEma
    state: at.ThresholdState
    config: TrainConfig


def evaluate(model: nd.MlpModel, test: PointSet) -> EvalResult:
    """Error rate, confusion matrix (rows = true class), per-class accuracy."""
    C = model.out_dim
    with nd.no_grad():
        logits = nd.forward(model, test.points).data
    pred = logits.argmax(axis=1)
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (test.labels, pred), 1)
    row_tot = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion), row_tot, out=np.zeros(C, dtype=np.float64), where=row_tot > 0
    )
    return EvalResult(float((pred != test.labels).mean()), confusion, per_class)


def train_step(
    model: nd.MlpModel,
    opt: nd.OptimState,
    ema: nd.ParamEma,
    state: at.ThresholdState,
    labeled: LabeledBatch,
    unlabeled: UnlabeledBatch,
    config: TrainConfig,
    aug_rng: np.random.Generator,
) -> MetricsRecord:
    """One full update; advances opt.k and state.t."""
    k = opt.k
    in_warmup = k < config.warmup_iters
    if labeled.points.shape[1] != model.in_dim or unlabeled.points.shape[1] != model.in_dim:
        raise ValueError("batch width does not match the model")

    try:
        # (1) supervised loss on the weak-augmented labeled batch
        xl = weak(labeled.points, config.augment, aug_rng)
        l_s_t = supervised_loss(nd.forward(model, xl), labeled.labels)

        # (2) weak forward on unlabeled data, no gradient recording
        uw = weak(unlabeled.points, config.augment, aug_rng)
        with nd.no_grad():
            q = nd.softmax(nd.forward(model, uw)).data

        # (3) statistics updates precede threshold computation
        at.update_global(state, q)
        at.update_local(state, q)
        at.update_hist(state, q.argmax(axis=1))
        if isinstance(config.scheme, at.Cpl):
            at.update_cpl_counts(state, q, config.scheme.tau)

        # (4) per-class thresholds and mask
        thresholds = at.per_class_thresholds(state, config.scheme)
        keep, hard = at.mask(q, thresholds)

        us = strong(unlabeled.points, config.augment, aug_rng)
        if in_warmup:
            l_u_t, l_f_t = nd.as_tensor(0.0), nd.as_tensor(0.0)
        else:
            # (5) consistency on the strong branch, (6) fairness
            strong_logits = nd.forward(model, us)
            l_u_t, loss_keep = consistency_loss(q, strong_logits, thresholds)
            assert np.array_equal(loss_keep, keep)  # single mask definition
            l_f_t = fairness_loss(config.fairness, state, q, nd.softmax(strong_logits), thresholds)
    except ValueError as exc:
        # numeric blow-up mid-step (overflowed weights, non-finite activations)
        nan = float("nan")
        diag = MetricsRecord(k, nan, nan, nan, nan, state.tau_global, nan, nan)
        raise TrainingAborted(diag, f"aborted at iteration {k}: {exc}") from exc

    # (7) weighted total, backward, SGD step at the cosine learning rate
    sampling_rate = float(keep.mean())
    record = MetricsRecord(
        iteration=k,
        l_s=float(l_s_t),
        l_u=float(l_u_t),
        l_f=float(l_f_t),
        total=float(l_s_t) + config.w_u * float(l_u_t) + config.w_f * float(l_f_t),
        tau_global=state.tau_global,
        mean_class_threshold=float(thresholds.mean()),
        sampling_rate=sampling_rate,
    )
    if unlabeled.true_labels is not None and keep.any():
        record.pseudo_label_acc = float((hard[keep] == unlabeled.true_labels[keep]).mean())
    if not np.isfinite(record.total):
        raise TrainingAborted(record, f"non-finite loss at iteration {k}")

    bundle = total_loss(l_s_t, l_u_t, l_f_t, config.w_u, config.w_f, n_masked_in=int(keep.sum()))
    bundle.total.backward()
    nd.sgd_step(model.parameters(), opt, nd.cosine_lr(config.lr0, k, config.K))
    opt.k += 1

    # (8) evaluation-model EMA
    nd.ema_update(ema, model.parameters())
    state.advance()
    return record


def _build(config: TrainConfig, data: DatasetBundle):
    ss = np.random.SeedSequence(config.seed)
    s_model, s_lab, s_unlab, s_aug = ss.spawn(4)
    d_in = data.labeled.points.shape[1]
    model = nd.MlpModel.init([d_in, *config.hidden_dims, data.n_classes], seed=np.random.default_rng(s_model))
    opt = nd.OptimState.for_params(
        model.parameters(), momentum=config.momentum, lr0=config.lr0, total_steps=config.K
    )
    ema = nd.ParamEma.from_model(model, decay=0.999)
    state = at.ThresholdState(C=data.n_classes, lam=config.lam, clamp=config.clamp)
    lab_iter = batch_iter(data.labeled, config.B, seed=s_lab)
    unlab_iter = batch_iter(data.unlabeled, config.mu * config.B, seed=s_unlab)
    aug_rng = np.random.default_rng(s_aug)
    return model, opt, ema, state, lab_iter, unlab_iter, aug_rng


def run(config: TrainConfig, data: DatasetBundle, out_dir: str | None = None) -> RunResult:
    """Train for K iterations; optionally write trace.csv and a checkpoint."""
    model, opt, ema, state, lab_iter, unlab_iter, aug_rng = _build(config, data)
    trace: list[MetricsRecord] = []
    best_error = float("inf")
    for k in range(config.K):
        lb = next(lab_iter)
        ub_src = next(unlab_iter)
        ub = UnlabeledBatch(ub_src.points, true_labels=ub_src.labels)
        record = train_step(model, opt, ema, state, lb, ub, config, aug_rng)
        if (k + 1) % config.eval_every == 0 or k == config.K - 1:
            ev = evaluate(nd.ema_model(ema), data.test)
            record.error_rate = ev.error_rate
            record.confusion = ev.confusion
            best_error = min(best_error, ev.error_rate)
        trace.append(record)
    final_error = trace[-1].error_rate
    result = RunResult(final_error, best_error, trace, model, ema, state, config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
        save_checkpoint(result, os.path.join(out_dir, "checkpoint"))
    return result


# -- artifacts ---------------------------------------------------------------------

TRACE_COLUMNS = [
    "iter",
    "l_s",
    "l_u",
    "l_f",
    "total",
    "tau_global",
    "mean_class_threshold",
    "sampling_rate",
    "error_rate",
    "pseudo_label_acc",
]


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.12g}"


def write_trace_csv(trace: list[MetricsRecord], path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace:
            writer.writerow(
                [
                    r.iteration,
                    _fmt(r.l_s),
                    _fmt(r.l_u),
                    _fmt(r.l_f),
                    _fmt(r.total),
                    _fmt(r.tau_global),
                    _fmt(r.mean_class_threshold),
                    _fmt(r.sampling_rate),
                    _fmt(r.error_rate),
                    _fmt(r.pseudo_label_acc),
                ]
            )
    os.replace(tmp, path)


def config_to_dict(config: TrainConfig) -> dict:
    return {
        "scheme": at.scheme_to_dict(config.scheme),
        "fairness": config.fairness.value,
        "w_u": config.w_u,
        "w_f": config.w_f,
        "lambda": config.lam,
        "mu": config.mu,
        "B": config.B,
        "K": config.K,
        "warmup_iters": config.warmup_iters,
        "clamp": list(config.clamp) if config.clamp else None,
        "eval_every": config.eval_every,
        "seed": config.seed,
        "lr0": config.lr0,
        "momentum": config.momentum,
        "hidden_dims": list(config.hidden_dims),
        "augment": {
            "weak_sigma": config.augment.weak_sigma,
            "strong_sigma": config.augment.strong_sigma,
            "strong_scale_range": list(config.augment.strong_scale_range),
            "seed": config.augment.seed,
        },
    }


def config_from_dict(d: dict) -> TrainConfig:
    d = dict(d)
    aug = d.pop("augment", {})
    if aug:
        aug = dict(aug)
        if "strong_scale_range" in aug:
            aug["strong_scale_range"] = tuple(aug["strong_scale_range"])
    kwargs = dict(
        scheme=at.scheme_from_dict(d.pop("scheme")) if "scheme" in d else at.Sat(),
        fairness=FairnessVariant(d.pop("fairness", "saf")),
        lam=d.pop("lambda", 0.999),
        augment=AugmentSpec(**aug),
    )
    if "clamp" in d:
        clamp = d.pop("clamp")
        kwargs["clamp"] = tuple(clamp) if clamp is not None else None
    if "hidden_dims" in d:
        kwargs["hidden_dims"] = tuple(d.pop("hidden_dims"))
    allowed = {"w_u", "w_f", "mu", "B", "K", "warmup_iters", "eval_every", "seed", "lr0", "momentum"}
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown train config keys: {sorted(unknown)}")
    kwargs.update(d)
    return TrainConfig(**kwargs)


# the manifest layout and the flat `.bin` order; bump on any change to either
CHECKPOINT_FORMAT_VERSION = 1


def save_checkpoint(result: RunResult, path_prefix: str) -> None:
    """Flat float64 binary of model + EMA parameters with a JSON manifest."""
    params = [p.data for p in result.model.parameters()]
    blobs = params + list(result.ema.shadow)
    flat = np.concatenate([b.reshape(-1) for b in blobs])
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "param_shapes": [list(p.shape) for p in params],
        "ema_shapes": [list(s.shape) for s in result.ema.shadow],
        "threshold_state": at.to_record(result.state),
        "config": config_to_dict(result.config),
        "final_error": result.final_error,
        "best_error": result.best_error,
    }
    tmp_bin = f"{path_prefix}.bin.tmp-{os.getpid()}"
    flat.astype("<f8").tofile(tmp_bin)
    os.replace(tmp_bin, f"{path_prefix}.bin")
    tmp_json = f"{path_prefix}.json.tmp-{os.getpid()}"
    with open(tmp_json, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_json, f"{path_prefix}.json")


def load_checkpoint(path_prefix: str) -> tuple[nd.MlpModel, nd.MlpModel, at.ThresholdState, dict]:
    """Returns (model, ema model, threshold state, manifest).

    Raises ValueError when the manifest's format version is missing or not
    CHECKPOINT_FORMAT_VERSION, or when the `.bin` does not hold exactly the
    float count the manifest's shapes need.
    """
    json_path = f"{path_prefix}.json"
    with open(json_path) as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {json_path}: format version {version!r}, expected {CHECKPOINT_FORMAT_VERSION}"
        )
    bin_path = f"{path_prefix}.bin"
    flat = np.fromfile(bin_path, dtype="<f8")
    shapes = manifest["param_shapes"] + manifest["ema_shapes"]
    sizes = [int(np.prod(shape)) for shape in shapes]
    if flat.size != sum(sizes):
        raise ValueError(
            f"checkpoint {bin_path}: the manifest's shapes need {sum(sizes)} float64 values, "
            f"found {flat.size}"
        )
    arrays = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        arrays.append(flat[offset : offset + size].reshape(shape))
        offset += size
    n_params = len(manifest["param_shapes"])
    model_params, ema_params = arrays[:n_params], arrays[n_params:]

    def as_model(blobs):
        layers = [
            (nd.Tensor(w.copy(), requires_grad=True), nd.Tensor(b.copy(), requires_grad=True))
            for w, b in zip(blobs[0::2], blobs[1::2])
        ]
        return nd.MlpModel(layers)

    state = at.from_record(manifest["threshold_state"])
    return as_model(model_params), as_model(ema_params), state, manifest
