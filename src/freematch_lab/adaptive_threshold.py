"""Self-adaptive confidence thresholding.

Maintains a global threshold (EMA of batch-mean max confidence, initialized
at 1/C), a local per-class probability estimate (EMA of batch-mean predicted
probabilities, initialized uniform), and an EMA pseudo-label histogram. The
per-class threshold combines them: tau_t(c) = MaxNorm(p_local)(c) * tau_global.
Fixed-threshold, global-only, local-only, and count-based curriculum variants
sit behind the same scheme interface for ablations.

Masking uses >= throughout, and argmax ties break to the lowest class index.
All updates consume weak-branch probabilities with no gradient flow, and the
state is advanced by the caller once per training step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np


# -- scheme identifiers ------------------------------------------------------


@dataclass(frozen=True)
class Fixed:
    tau: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("fixed tau must lie in (0, 1]")


@dataclass(frozen=True)
class GlobalOnly:
    pass


@dataclass(frozen=True)
class LocalOnly:
    tau: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("fixed tau must lie in (0, 1]")


@dataclass(frozen=True)
class Sat:
    pass


@dataclass(frozen=True)
class Cpl:
    """Curriculum variant: tau * M(beta(c)) with beta(c) the per-class share
    of confident samples counted so far (running counts, never reset)."""

    tau: float = 0.95
    mapping: str = "identity"  # or "convex" for x / (2 - x)

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("fixed tau must lie in (0, 1]")
        if self.mapping not in ("identity", "convex"):
            raise ValueError("mapping must be 'identity' or 'convex'")


SchemeId = Union[Fixed, GlobalOnly, LocalOnly, Sat, Cpl]

_SCHEME_KINDS = {"fixed": Fixed, "global_only": GlobalOnly, "local_only": LocalOnly, "sat": Sat, "cpl": Cpl}


def scheme_from_dict(d: dict) -> SchemeId:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("scheme must be an object with a 'kind' key")
    kind = d["kind"]
    if kind not in _SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    kwargs = {k: v for k, v in d.items() if k != "kind"}
    try:
        return _SCHEME_KINDS[kind](**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad scheme arguments for {kind!r}: {exc}") from exc


def scheme_to_dict(scheme: SchemeId) -> dict:
    for kind, cls in _SCHEME_KINDS.items():
        if isinstance(scheme, cls):
            d = {"kind": kind}
            if hasattr(scheme, "tau"):
                d["tau"] = scheme.tau
            if hasattr(scheme, "mapping"):
                d["mapping"] = scheme.mapping
            return d
    raise ValueError(f"unknown scheme {scheme!r}")


def scheme_label(scheme: SchemeId) -> str:
    d = scheme_to_dict(scheme)
    if "tau" in d:
        return f"{d['kind']}({d['tau']:g})"
    return d["kind"]


# -- state ----------------------------------------------------------------------


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
    t: int = 0

    def __post_init__(self):
        if self.C < 2:
            raise ValueError("need at least two classes")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        if self.clamp is not None:
            lo, hi = self.clamp
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("clamp interval must satisfy 0 <= lo <= hi <= 1")
            self.clamp = (float(lo), float(hi))
        self.tau_global = 1.0 / self.C
        self.p_local = np.full(self.C, 1.0 / self.C)
        self.hist = np.full(self.C, 1.0 / self.C)
        self.cpl_counts = np.zeros(self.C)

    def advance(self) -> None:
        self.t += 1


def to_record(state: ThresholdState) -> dict:
    """Flat key-value form for checkpointing and CSV traces."""
    rec = {
        "tau_global": state.tau_global,
        "p_local": state.p_local.tolist(),
        "hist": state.hist.tolist(),
        "cpl_counts": state.cpl_counts.tolist(),
        "lambda": state.lam,
        "t": state.t,
        "C": state.C,
    }
    if state.clamp is not None:
        rec["clamp"] = list(state.clamp)
    return rec


def from_record(rec: dict) -> ThresholdState:
    clamp = tuple(rec["clamp"]) if "clamp" in rec else None
    state = ThresholdState(C=int(rec["C"]), lam=float(rec["lambda"]), clamp=clamp)
    state.tau_global = float(rec["tau_global"])
    state.p_local = np.asarray(rec["p_local"], dtype=np.float64)
    state.hist = np.asarray(rec["hist"], dtype=np.float64)
    state.cpl_counts = np.asarray(rec.get("cpl_counts", np.zeros(state.C)), dtype=np.float64)
    state.t = int(rec["t"])
    return state


def _check_probs(state: ThresholdState, weak_probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(weak_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("expected a non-empty [B, C] probability batch")
    if probs.shape[1] != state.C:
        raise ValueError(f"batch has {probs.shape[1]} classes, state has {state.C}")
    if (probs < -1e-9).any() or np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("rows must lie on the probability simplex")
    return probs


# -- updates ----------------------------------------------------------------------


def update_global(state: ThresholdState, weak_probs: np.ndarray) -> None:
    """tau <- lam*tau + (1-lam) * mean_b max(q_b)."""
    probs = _check_probs(state, weak_probs)
    batch_mean = float(probs.max(axis=1).mean())
    state.tau_global = state.lam * state.tau_global + (1.0 - state.lam) * batch_mean


def update_local(state: ThresholdState, weak_probs: np.ndarray) -> None:
    """p_local <- lam*p_local + (1-lam) * mean_b q_b; stays on the simplex."""
    probs = _check_probs(state, weak_probs)
    state.p_local = state.lam * state.p_local + (1.0 - state.lam) * probs.mean(axis=0)


def update_hist(state: ThresholdState, weak_hard_labels: np.ndarray) -> None:
    """EMA of the normalized batch histogram of hard pseudo labels."""
    labels = np.asarray(weak_hard_labels)
    if labels.size == 0:
        raise ValueError("expected a non-empty label batch")
    if (labels < 0).any() or (labels >= state.C).any():
        raise ValueError("labels out of range")
    counts = np.bincount(labels, minlength=state.C).astype(np.float64)
    state.hist = state.lam * state.hist + (1.0 - state.lam) * counts / labels.size


def update_cpl_counts(state: ThresholdState, weak_probs: np.ndarray, tau: float) -> None:
    """Accumulate per-class counts of samples with confidence above tau."""
    probs = _check_probs(state, weak_probs)
    conf = probs.max(axis=1)
    hard = probs.argmax(axis=1)
    passed = conf > tau
    if passed.any():
        state.cpl_counts += np.bincount(hard[passed], minlength=state.C)


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
        beta = state.cpl_counts / total if total > 0 else np.zeros(state.C)
        m = beta if scheme.mapping == "identity" else beta / (2.0 - beta)
        th = scheme.tau * m
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
    keep = probs.max(axis=1) >= th[hard]
    return keep, hard
