"""Span tracer applied to freematch-lab from outside the package.

`install(tracer)` replaces the public functions that `trainer`, `ssl_losses`,
`cli` and `theory` look up with wrappers that record one span per call
(name, start, end, parent) and exact counts at the same boundaries. Nothing
under src/ changes, and `Patches.restore()` puts every original back.

A span's self time is its duration minus the time its child spans cover;
spans nest strictly because the traced code is single-threaded.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

STEP = "trainer.train_step"
# per span name in an aggregate; the step_* fields count spans inside a step
SPAN_FIELDS = ("calls", "total_ns", "self_ns", "step_calls", "step_total_ns", "step_self_ns")


class Tracer:
    """Spans as parallel lists (integer nanoseconds, so self times are exact)
    plus named counts. `in_step` is true while a train_step span is open."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self.in_step = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced


class Patches:
    """Attribute replacements, undone in reverse order by `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class _TracedIter:
    """Times each `next()` of a batch stream as one span."""

    def __init__(self, tracer: Tracer, it, name: str):
        self._tracer, self._it, self._name = tracer, it, name

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span(self._name):
            return next(self._it)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced boundary; returns the patches to restore."""
    from freematch_lab import adaptive_threshold as at
    from freematch_lab import cli, ssl_losses, theory, trainer
    from freematch_lab import ndcore as nd

    t = tracer
    p = Patches()

    def span(owner, attr: str, name: str) -> None:
        p.set(owner, attr, t.wrap(getattr(owner, attr), name))

    # names trainer.run and trainer.train_step look up in their own module
    step_fn = trainer.train_step

    @functools.wraps(step_fn)
    def train_step(*args, **kwargs):
        t.in_step = True
        try:
            with t.span(STEP):
                return step_fn(*args, **kwargs)
        finally:
            t.in_step = False

    p.set(trainer, "train_step", train_step)
    span(trainer, "evaluate", "trainer.evaluate")
    span(trainer, "write_trace_csv", "trainer.write_trace_csv")
    save_fn = trainer.save_checkpoint

    @functools.wraps(save_fn)
    def save_checkpoint(result, path_prefix):
        with t.span("trainer.save_checkpoint"):
            save_fn(result, path_prefix)
        t.count("trainer.save_checkpoint.bytes", _size(f"{path_prefix}.bin") + _size(f"{path_prefix}.json"))

    p.set(trainer, "save_checkpoint", save_checkpoint)
    span(trainer, "weak", "augment.weak")
    span(trainer, "strong", "augment.strong")
    for attr in ("supervised_loss", "consistency_loss", "fairness_loss", "total_loss"):
        span(trainer, attr, f"ssl_losses.{attr}")
    iter_fn = trainer.batch_iter
    p.set(trainer, "batch_iter", functools.wraps(iter_fn)(
        lambda *a, **k: _TracedIter(t, iter_fn(*a, **k), "synthdata.batch_iter")
    ))

    # trainer reaches adaptive_threshold and ndcore through their module objects
    for attr in ("update_global", "update_local", "update_hist", "update_cpl_counts"):
        span(at, attr, "adaptive_threshold.update")
    span(at, "per_class_thresholds", "adaptive_threshold.per_class_thresholds")
    mask_fn = at.mask

    @functools.wraps(mask_fn)
    def mask(*args, **kwargs):
        with t.span("adaptive_threshold.mask"):
            keep, hard = mask_fn(*args, **kwargs)
        if t.in_step:
            t.count("adaptive_threshold.kept", int(keep.sum()))
            t.count("adaptive_threshold.rows", int(keep.size))
        return keep, hard

    p.set(at, "mask", mask)
    p.set(ssl_losses, "mask", mask)  # ssl_losses imported mask by name

    forward_fn = nd.forward

    @functools.wraps(forward_fn)
    def forward(*args, **kwargs):
        idx = t.open("ndcore.forward")
        try:
            out = forward_fn(*args, **kwargs)
        finally:
            t.close(idx)
        graph = isinstance(out, nd.Tensor) and out.requires_grad
        t.names[idx] = "ndcore.forward.graph" if graph else "ndcore.forward.nograd"
        return out

    p.set(nd, "forward", forward)
    for attr in ("softmax", "sgd_step", "ema_update"):
        span(nd, attr, f"ndcore.{attr}")
    span(nd.Tensor, "backward", "ndcore.backward")
    init_fn = nd.Tensor.__init__

    def tensor_init(self, *args, **kwargs):
        if t.in_step:
            t.count("ndcore.tensors")
        init_fn(self, *args, **kwargs)

    p.set(nd.Tensor, "__init__", tensor_init)
    matmul_fn = nd.Tensor.__matmul__

    def matmul(self, other):
        out = matmul_fn(self, other)
        if t.in_step:
            # computed, not measured: 2*m*k*n for the product, and the same
            # again for each operand whose gradient the backward pass forms
            flop = 2 * out.data.shape[0] * self.data.shape[1] * out.data.shape[1]
            grads = int(self.requires_grad) + int(getattr(other, "requires_grad", False))
            t.count("ndcore.matmul_flop", flop * (1 + (grads if out.requires_grad else 0)))
        return out

    p.set(nd.Tensor, "__matmul__", matmul)

    # names cli looks up
    span(cli, "gen_two_moons", "synthdata.gen_two_moons")
    for attr in ("boundary_chart", "line_chart"):
        chart_fn = getattr(cli, attr)

        def chart(*args, _fn=chart_fn, _name=f"svgplot.{attr}", **kwargs):
            with t.span(_name):
                _fn(*args, **kwargs)
            t.count("svgplot.bytes", _size(args[-1]))

        p.set(cli, attr, functools.wraps(chart_fn)(chart))

    # names theory.sweep and theory.mc_dist look up
    span(theory, "sample_mixture", "synthdata.sample_mixture")
    span(theory, "assign_pseudo_batch", "theory.assign_pseudo_batch")
    span(theory, "analytic_dist", "theory.analytic_dist")
    mc_fn = theory.mc_dist
    last_spec = []

    @functools.wraps(mc_fn)
    def mc_dist(spec, *args, **kwargs):
        # a reroll is a second draw for the grid point just drawn
        if last_spec and last_spec[0] == spec:
            t.count("theory.rerolls")
        last_spec[:] = [spec]
        with t.span("theory.mc_dist"):
            return mc_fn(spec, *args, **kwargs)

    p.set(theory, "mc_dist", mc_dist)
    return p


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# -- aggregation -------------------------------------------------------------


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, total and self nanoseconds, overall and for
    spans nested inside a train_step span. Additive across runs."""
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0] * n
    in_step = [False] * n
    for i in range(n):
        parent = tracer.parents[i]
        if parent >= 0:
            child[parent] += dur[i]
            in_step[i] = in_step[parent] or tracer.names[parent] == STEP
    spans: dict[str, list[int]] = {}
    for i in range(n):
        row = spans.setdefault(tracer.names[i], [0] * len(SPAN_FIELDS))
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - child[i]
        if in_step[i]:
            row[3] += 1
            row[4] += dur[i]
            row[5] += dur[i] - child[i]
    return {"spans": spans, "counts": dict(tracer.counts)}


def merge(aggs: list[dict]) -> dict:
    spans: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for agg in aggs:
        for name, row in agg["spans"].items():
            acc = spans.setdefault(name, [0] * len(SPAN_FIELDS))
            for j, v in enumerate(row):
                acc[j] += v
        for name, v in agg["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return {"spans": spans, "counts": counts}


def layer_metrics(agg: dict, runs: int) -> dict[str, float]:
    """Per-layer metrics from merged aggregates of `runs` workload runs.

    `*_per_step` divides by the number of train_step calls and counts only
    spans inside a step (batch_iter is called between steps, so all of its
    spans count). `*.ms`, `*.calls`, `*.bytes` and `theory.rerolls` are per
    workload run. Layers a workload never calls read 0.
    """
    spans, counts = agg["spans"], agg["counts"]

    def field(name: str, j: int) -> int:
        return spans.get(name, [0] * len(SPAN_FIELDS))[j]

    steps = field(STEP, 0)

    def per_step(x: float) -> float:
        return x / steps if steps else 0.0

    def step_ms(name: str) -> float:
        return per_step(field(name, 4) / 1e6)

    def run_ms(name: str) -> float:
        return field(name, 1) / 1e6 / runs

    fwd_bwd_ms = sum(step_ms(s) for s in ("ndcore.forward.graph", "ndcore.forward.nograd", "ndcore.backward"))
    mflop = per_step(counts.get("ndcore.matmul_flop", 0) / 1e6)
    rows = counts.get("adaptive_threshold.rows", 0)
    return {
        "ndcore.forward.graph_ms_per_step": step_ms("ndcore.forward.graph"),
        "ndcore.forward.nograd_ms_per_step": step_ms("ndcore.forward.nograd"),
        "ndcore.backward.ms_per_step": step_ms("ndcore.backward"),
        "ndcore.softmax.ms_per_step": step_ms("ndcore.softmax"),
        "ndcore.sgd_step.ms_per_step": step_ms("ndcore.sgd_step"),
        "ndcore.ema_update.ms_per_step": step_ms("ndcore.ema_update"),
        "ndcore.tensors_per_step": per_step(counts.get("ndcore.tensors", 0)),
        "ndcore.matmul_mflop_per_step": mflop,
        "ndcore.fwd_bwd_gflops": mflop / fwd_bwd_ms if fwd_bwd_ms else 0.0,
        "augment.weak.ms_per_step": step_ms("augment.weak"),
        "augment.strong.ms_per_step": step_ms("augment.strong"),
        "adaptive_threshold.update.ms_per_step": step_ms("adaptive_threshold.update"),
        "adaptive_threshold.update.calls_per_step": per_step(field("adaptive_threshold.update", 3)),
        "adaptive_threshold.mask.ms_per_step": step_ms("adaptive_threshold.mask"),
        "adaptive_threshold.mask.calls_per_step": per_step(field("adaptive_threshold.mask", 3)),
        "adaptive_threshold.per_class_thresholds.ms_per_step": step_ms("adaptive_threshold.per_class_thresholds"),
        "adaptive_threshold.keep_ratio": counts.get("adaptive_threshold.kept", 0) / rows if rows else 0.0,
        "ssl_losses.supervised_loss.ms_per_step": step_ms("ssl_losses.supervised_loss"),
        "ssl_losses.consistency_loss.ms_per_step": step_ms("ssl_losses.consistency_loss"),
        "ssl_losses.fairness_loss.ms_per_step": step_ms("ssl_losses.fairness_loss"),
        "ssl_losses.total_loss.ms_per_step": step_ms("ssl_losses.total_loss"),
        "synthdata.batch_iter.ms_per_step": per_step(field("synthdata.batch_iter", 1) / 1e6),
        "synthdata.gen_two_moons.ms": run_ms("synthdata.gen_two_moons"),
        "synthdata.sample_mixture.ms": run_ms("synthdata.sample_mixture"),
        "theory.mc_dist.ms": run_ms("theory.mc_dist"),
        "theory.assign_pseudo_batch.ms": run_ms("theory.assign_pseudo_batch"),
        "theory.analytic_dist.ms": run_ms("theory.analytic_dist"),
        "theory.rerolls": counts.get("theory.rerolls", 0) / runs,
        "trainer.train_step.self_ms_per_step": per_step(field(STEP, 2) / 1e6),
        "trainer.evaluate.ms": run_ms("trainer.evaluate"),
        "trainer.evaluate.calls": field("trainer.evaluate", 0) / runs,
        "trainer.write_trace_csv.ms": run_ms("trainer.write_trace_csv"),
        "trainer.save_checkpoint.ms": run_ms("trainer.save_checkpoint"),
        "trainer.save_checkpoint.bytes": counts.get("trainer.save_checkpoint.bytes", 0) / runs,
        "svgplot.boundary_chart.ms": run_ms("svgplot.boundary_chart"),
        "svgplot.line_chart.ms": run_ms("svgplot.line_chart"),
        "svgplot.bytes": counts.get("svgplot.bytes", 0) / runs,
    }
