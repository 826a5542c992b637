"""Tests of the benchmark's own tracer and metric plumbing.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re

import pytest

from freematch_lab import cli, ndcore, theory, trainer

from perfbench import run as bench
from perfbench import workloads as wl
from perfbench.tracer import STEP, Tracer, aggregate, install, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _traced_workloads(tmp_path) -> Tracer:
    """A shortened train run and a small theory sweep, both through cli.main."""
    cfg = wl.train_config(0)
    cfg["train"].update(K=40, eval_every=10)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = Tracer()
    patches = install(tracer)
    try:
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "train")]) == 0
        assert cli.main(["theory", "--out", str(tmp_path / "theory"), "--mc-samples", "2000"]) == 0
    finally:
        patches.restore()
    return tracer


@pytest.fixture(scope="module")
def two_traces(tmp_path_factory):
    return [_traced_workloads(tmp_path_factory.mktemp(f"run{i}")) for i in range(2)]


def test_span_self_times_are_non_negative(two_traces):
    tracer = two_traces[0]
    spans = aggregate(tracer)["spans"]
    assert spans[STEP][0] == 40
    for name, (_, total, self_ns, _, step_total, step_self) in spans.items():
        assert 0 <= self_ns <= total, name
        assert 0 <= step_self <= step_total, name


def test_children_never_exceed_parent(two_traces):
    tracer = two_traces[0]
    covered = [0] * len(tracer.names)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
            covered[parent] += tracer.ends[i] - tracer.starts[i]
    for i, c in enumerate(covered):
        assert c <= tracer.ends[i] - tracer.starts[i], tracer.names[i]


def test_counts_repeat_exactly(two_traces):
    a, b = (aggregate(t) for t in two_traces)
    assert a["counts"] == b["counts"]
    assert {k: v[0] for k, v in a["spans"].items()} == {k: v[0] for k, v in b["spans"].items()}
    ma, mb = (layer_metrics(agg, 1) for agg in (a, b))
    exact = ["ndcore.tensors_per_step", "ndcore.matmul_mflop_per_step", "adaptive_threshold.mask.calls_per_step",
             "adaptive_threshold.update.calls_per_step", "adaptive_threshold.keep_ratio",
             "trainer.evaluate.calls", "theory.rerolls", "trainer.save_checkpoint.bytes", "svgplot.bytes"]
    assert {k: ma[k] for k in exact} == {k: mb[k] for k in exact}
    assert ma["adaptive_threshold.mask.calls_per_step"] == 3
    assert ma["trainer.evaluate.calls"] == 4


def test_metric_names_are_well_formed_and_match_the_spec(two_traces):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    run = {"t0": 0.0, "t_first": 0.5, "t_end": 2.0, "op_ns": [1000, 2000], "items": 2, "peak_rss_mb": 50.0}
    e2e, _ = bench.end_to_end([], [run])
    layers = bench.per_layer([run], [{**run, "agg": aggregate(two_traces[0])}])
    for name in declared + list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert len(set(declared)) == len(declared)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])


def test_restore_puts_every_original_back():
    before = (trainer.train_step, trainer.batch_iter, ndcore.forward, ndcore.Tensor.__init__,
              ndcore.Tensor.backward, cli.gen_two_moons, theory.mc_dist)
    install(Tracer()).restore()
    after = (trainer.train_step, trainer.batch_iter, ndcore.forward, ndcore.Tensor.__init__,
             ndcore.Tensor.backward, cli.gen_two_moons, theory.mc_dist)
    assert before == after


def test_train_config_is_the_shipped_config():
    with open(os.path.join(ROOT, "configs", "two_moon_freematch.json")) as fh:
        shipped = json.load(fh)
    del shipped["out_dir"]
    assert shipped["train"]["augment"].pop("seed") == 0  # the default, which training ignores
    assert wl.train_config(0) == shipped


def test_percentile_matches_linear_interpolation():
    assert bench.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert bench.percentile(list(range(101)), 99) == 99.0
