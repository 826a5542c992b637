"""Self-adaptive confidence thresholding.

Maintains a global threshold (EMA of batch-mean max confidence, initialized
at 1/C), a local per-class probability estimate (EMA of batch-mean predicted
probabilities, initialized uniform), and an EMA pseudo-label histogram. The
per-class threshold combines them: tau_t(c) = MaxNorm(p_local)(c) * tau_global.
Fixed-threshold, global-only, local-only, and count-based curriculum variants
sit behind the same scheme interface for ablations.

Masking uses >= throughout, and argmax ties break to the lowest class index.
`observe` checks each step's weak batch (no gradient flow) once and hands its
rows, their max confidences and hard labels to the bare `update_*` EMA steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from .ndcore import row_max
from .synthdata import check_fields, is_finite_pair, read_kind


# -- scheme identifiers ------------------------------------------------------


@dataclass(frozen=True)
class _TauScheme:
    tau: float = 0.95

    def __post_init__(self):
        # tau is declared here alone: the subclasses declare no annotations of their own
        check_fields(_TauScheme.__annotations__, vars(self), {}, {"tau": "scheme.tau"})
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("scheme.tau must lie in (0, 1]")


class Fixed(_TauScheme):
    pass


@dataclass(frozen=True)
class GlobalOnly:
    pass


class LocalOnly(_TauScheme):
    pass


@dataclass(frozen=True)
class Sat:
    pass


class Cpl(_TauScheme):
    """Curriculum variant: tau * beta(c), beta(c) = counts(c) / max counts.

    Not FlexMatch's CPL (arXiv 2110.08263), which counts each unlabeled sample's
    latest prediction once: these counts are cumulative and never reset, so each
    step's confident argmaxes are added again; there is no warm-up denominator,
    so one confident sample lifts its class straight to tau; and beta is used
    as it is, not through FlexMatch's convex map x / (2 - x)."""


SchemeId = Union[Fixed, GlobalOnly, LocalOnly, Sat, Cpl]

_SCHEME_KINDS = {"fixed": Fixed, "global_only": GlobalOnly, "local_only": LocalOnly, "sat": Sat, "cpl": Cpl}


def scheme_from_dict(d: dict) -> SchemeId:
    return read_kind(d, "scheme", _SCHEME_KINDS)


def scheme_to_dict(scheme: SchemeId) -> dict:
    for kind, cls in _SCHEME_KINDS.items():
        if isinstance(scheme, cls):
            return {"kind": kind, **asdict(scheme)}
    raise ValueError(f"unknown scheme {scheme!r}")


# -- state ----------------------------------------------------------------------


def check_statistics_params(lam: float, clamp: tuple[float, float] | None) -> None:
    """The EMA decay lies in (0, 1); a clamp is an interval inside [0, 1]."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if clamp is not None:
        if not is_finite_pair(clamp):
            raise ValueError(f"clamp must be null or a pair of finite numbers, got {clamp!r}")
        lo, hi = clamp
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("clamp interval must satisfy 0 <= lo <= hi <= 1")


@dataclass
class ThresholdState:
    """The adaptive statistics triple plus the curriculum counts.

    Invariants: tau_global stays in [1/C, 1]; p_local and hist stay on the
    probability simplex (EMAs of simplex vectors are convex combinations).
    """

    C: int
    lam: float = 0.999
    clamp: tuple[float, float] | None = None
    tau_global: float = field(init=False)
    p_local: np.ndarray = field(init=False)
    hist: np.ndarray = field(init=False)
    cpl_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.C < 2:
            raise ValueError("need at least two classes")
        check_statistics_params(self.lam, self.clamp)
        if self.clamp is not None:
            self.clamp = (float(self.clamp[0]), float(self.clamp[1]))
        self.tau_global = 1.0 / self.C
        self.p_local = np.full(self.C, 1.0 / self.C)
        self.hist = np.full(self.C, 1.0 / self.C)
        self.cpl_counts = np.zeros(self.C)


def to_record(state: ThresholdState, t: int) -> dict:
    """Flat key-value form for checkpointing, after ``t`` training steps."""
    rec = {
        "tau_global": state.tau_global,
        "p_local": state.p_local.tolist(),
        "hist": state.hist.tolist(),
        "cpl_counts": state.cpl_counts.tolist(),
        "lambda": state.lam,
        "t": t,
        "C": state.C,
    }
    if state.clamp is not None:
        rec["clamp"] = list(state.clamp)
    return rec


def _check_probs(state: ThresholdState, weak_probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(weak_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("expected a non-empty [B, C] probability batch")
    if probs.shape[1] != state.C:
        raise ValueError(f"batch has {probs.shape[1]} classes, state has {state.C}")
    # written so that NaN fails both comparisons
    if not (probs.min() >= -1e-9 and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6):
        raise ValueError("rows must lie on the probability simplex")
    return probs


# -- updates ----------------------------------------------------------------------


def update_global(state: ThresholdState, conf: np.ndarray) -> None:
    """tau <- lam*tau + (1-lam) * mean_b conf_b, where conf_b = max(q_b)."""
    batch_mean = float(np.add.reduce(conf) / len(conf))
    state.tau_global = state.lam * state.tau_global + (1.0 - state.lam) * batch_mean


def update_local(state: ThresholdState, probs: np.ndarray) -> None:
    """p_local <- lam*p_local + (1-lam) * mean_b q_b; stays on the simplex."""
    state.p_local = state.lam * state.p_local + (1.0 - state.lam) * (np.add.reduce(probs, axis=0) / len(probs))


def update_hist(state: ThresholdState, hard: np.ndarray) -> None:
    """EMA of the normalized batch histogram of hard pseudo labels."""
    counts = np.bincount(hard, minlength=state.C).astype(np.float64)
    state.hist = state.lam * state.hist + (1.0 - state.lam) * counts / hard.size


def update_cpl_counts(state: ThresholdState, conf: np.ndarray, hard: np.ndarray, tau: float) -> None:
    """Accumulate per-class counts of samples with confidence above tau."""
    passed = conf > tau
    if passed.any():
        state.cpl_counts += np.bincount(hard[passed], minlength=state.C)


def observe(state: ThresholdState, weak_probs: np.ndarray, scheme: SchemeId) -> None:
    """One step's statistics from its weak batch: tau_global, p_local and hist
    for every scheme, and the curriculum counts for Cpl, which alone reads them."""
    probs = _check_probs(state, weak_probs)
    conf, hard = row_max(probs), probs.argmax(axis=1)
    update_global(state, conf)
    update_local(state, probs)
    update_hist(state, hard)
    if isinstance(scheme, Cpl):
        update_cpl_counts(state, conf, hard, scheme.tau)


# -- threshold computation -----------------------------------------------------------


def _max_norm(x: np.ndarray) -> np.ndarray:
    return x / x.max()


def per_class_thresholds(state: ThresholdState, scheme: SchemeId) -> np.ndarray:
    """Length-C threshold vector for the given scheme, clamp applied last."""
    if isinstance(scheme, Fixed):
        th = np.full(state.C, scheme.tau)
    elif isinstance(scheme, GlobalOnly):
        th = np.full(state.C, state.tau_global)
    elif isinstance(scheme, LocalOnly):
        th = scheme.tau * _max_norm(state.p_local)
    elif isinstance(scheme, Sat):
        th = _max_norm(state.p_local) * state.tau_global
    elif isinstance(scheme, Cpl):
        total = state.cpl_counts.max()
        th = scheme.tau * (state.cpl_counts / total if total > 0 else np.zeros(state.C))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if state.clamp is not None:
        th = np.clip(th, state.clamp[0], state.clamp[1])
    return th


def mask(weak_probs: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion mask and hard labels: keep b iff max(q_b) >= tau(argmax q_b)."""
    probs = np.asarray(weak_probs, dtype=np.float64)
    th = np.asarray(thresholds, dtype=np.float64)
    if probs.ndim != 2 or th.shape != (probs.shape[1],):
        raise ValueError("thresholds must have one entry per class")
    hard = probs.argmax(axis=1)
    keep = row_max(probs) >= th[hard]
    return keep, hard
