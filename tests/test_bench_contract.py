"""The calls ``bench/run.py`` makes into the package, and the calls per
batch through the attributes it patches.

The benchmark sets up and runs the loop through keyword calls such as
``AdaptConfig(method=..., seed=...)``; a removed or renamed parameter
would crash it, so every such call is bound to its callee's signature
here. It times the loop by replacing the module and class attributes
listed in its ``SPAN_TARGETS`` (``Model.forward``,
``harness.collect_grads``, ``fisher.*``, ``losses.*``, ``scheduler.*``,
``stream.corrupt``) and probes host speed on ``collect_grads`` during
pretraining. These tests read that table from the benchmark's source and
patch the same names with counters, so a refactor that moves one of them,
stops reaching it, or calls it a different number of times, fails here
instead of silently blinding the benchmark. It counts skipped batches by
the warnings on the harness's logger, so each skipped batch, a refused
step included, warns there once and nowhere else, and a batch adapted on
after dropping rows does not warn.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fimtta import harness, scheduler
from fimtta.harness import PRETRAIN_BATCH, AdaptConfig, adapt_stream, pretrain, summarize
from fimtta.model import build_classifier
from fimtta.stream import ScheduleStream, SourceSpec, gen_source, make_schedule

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _bench_tree() -> ast.Module:
    # parsed, not imported: importing bench/run.py pins the BLAS thread count
    return ast.parse(BENCH_RUN.read_text(encoding="utf-8"))


def _span_targets() -> dict:
    for node in _bench_tree().body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_TARGETS in {BENCH_RUN}")


def _owner(path: str):
    module, *attrs = path.split(".")
    return functools.reduce(getattr, attrs, importlib.import_module(f"fimtta.{module}"))


# (owner, attribute) pairs such as ("model.Model", "forward"), owners named from the package
TARGETS = [target for targets in _span_targets().values() for target in targets]


def _count_calls(monkeypatch) -> Counter:
    counts: Counter = Counter()

    def counted(real, name):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for path, attr in TARGETS:
        owner = _owner(path)
        monkeypatch.setattr(owner, attr, counted(getattr(owner, attr), attr))
    return counts


def _tiny_task():
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    return spec, gen_source(spec, 240), build_classifier(6, [8, 8], 3, seed=0)


def test_pretrain_calls_collect_grads_once_per_step(monkeypatch):
    _, source, model = _tiny_task()
    counts = _count_calls(monkeypatch)
    pretrain(model, source, epochs=2, seed=0)
    steps = 2 * (240 // PRETRAIN_BATCH)
    assert counts["collect_grads"] == steps
    # one forward per step, one to record source statistics, one for accuracy
    assert counts["forward"] == steps + 2


# Exact call counts: a name missing here is never called, so a layerwise
# batch streams its traces without the explicit per_sample_scores matrix.
# The clean and jittered copies run in one grouped forward; without a
# consistency term (lambda 0) and for the non-updating methods the forward
# has one group.
PER_BATCH = {
    "uniform_tent": {
        "forward": 1, "collect_grads": 1, "augment": 1, "entropy_loss": 1,
        "consistency_loss": 1, "layer_rates": 1, "weighted_step": 1, "corrupt": 1,
    },
    "uniform_tent_lam0": {
        "forward": 1, "collect_grads": 1, "entropy_loss": 1, "layer_rates": 1, "weighted_step": 1, "corrupt": 1,
    },
    "layerwise": {
        "forward": 1, "collect_grads": 1, "layer_fim_trace": 1,
        "accumulate": 1, "learning_weights": 1, "exp_minmax_scale": 1, "augment": 1,
        "entropy_loss": 1, "consistency_loss": 1, "layer_rates": 1, "weighted_step": 1, "corrupt": 1,
    },
    # the second accumulate folds the diagonal
    "layerwise_track_diagonal": {
        "forward": 1, "collect_grads": 1, "layer_fim_trace": 1,
        "accumulate": 2, "learning_weights": 1, "exp_minmax_scale": 1, "augment": 1,
        "entropy_loss": 1, "consistency_loss": 1, "layer_rates": 1, "weighted_step": 1, "corrupt": 1,
    },
    "bn1": {"forward": 1, "entropy_loss": 1, "corrupt": 1},
    "source": {"forward": 1, "entropy_loss": 1, "corrupt": 1},
}
# a PER_BATCH row's run settings, where it is not a method's defaults
SETTINGS = {
    "uniform_tent_lam0": {"method": "uniform_tent", "lam": 0.0},
    "layerwise_track_diagonal": {"method": "layerwise", "track_diagonal": True},
}


@pytest.mark.parametrize("name", sorted(PER_BATCH))
def test_adapt_stream_calls_per_batch(monkeypatch, name):
    spec, source, model = _tiny_task()
    pretrain(model, source, epochs=2, seed=0)
    schedule = make_schedule("continual", ["contrast_scale", "gaussian_noise"], 3, 16, seed=0)
    counts = _count_calls(monkeypatch)
    config = AdaptConfig(**SETTINGS.get(name, {"method": name}))
    records = adapt_stream(model.clone(), ScheduleStream(spec, schedule), config)
    assert len(records) == 6
    assert {attr: calls / 6 for attr, calls in counts.items()} == PER_BATCH[name]


def test_a_refused_step_logs_one_warning_on_the_logger_the_bench_counts(monkeypatch, caplog):
    # the benchmark counts rejections with a handler on the harness's logger alone
    counted = [
        ast.unparse(node.func.value) for node in ast.walk(_bench_tree())
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "addHandler"
    ]
    assert counted == ["logging.getLogger(harness.__name__)"]
    spec, source, model = _tiny_task()
    pretrain(model, source, epochs=2, seed=0)
    _refuse_step(monkeypatch, 2)  # batch 1's
    schedule = make_schedule("continual", ["contrast_scale", "gaussian_noise"], 2, 16, seed=0)
    with caplog.at_level(logging.DEBUG):
        records = adapt_stream(model.clone(), ScheduleStream(spec, schedule), AdaptConfig())
    assert [rec.skipped for rec in records] == [False, True, False, False]
    assert [(r.name, r.levelno) for r in caplog.records if r.levelno >= logging.WARNING] == [
        (harness.__name__, logging.WARNING)
    ]


def _refuse_step(monkeypatch, call):
    """Give the step of the ``call``-th batch to reach its rates a NaN rate, which weighted_step refuses."""
    real_rates = scheduler.layer_rates
    calls = []

    def rates(w_bar, eta):
        calls.append(real_rates(w_bar, eta))
        if len(calls) == call:
            calls[-1][0] = np.nan
        return calls[-1]

    monkeypatch.setattr(scheduler, "layer_rates", rates)


class _Faulty:
    """``inner`` with a NaN in row 0 of batches 0 and 2, batch 1 left one
    finite row and batch 2's other rows times 1e300."""

    def __init__(self, inner):
        self.inner = inner

    def labels_for(self, step):
        return self.inner.labels_for(step)

    def __iter__(self):
        for batch in self.inner:
            inputs = batch.inputs.copy()
            if batch.step in (0, 2):
                inputs[0, 0] = np.nan
            if batch.step == 1:
                inputs[1:, 0] = np.nan
            if batch.step == 2:
                inputs[1:] *= 1e300  # squared in a batch variance, it overflows
            yield dataclasses.replace(batch, inputs=inputs)


def test_the_bench_counts_one_warning_per_skipped_batch(monkeypatch):
    # a WARNING-level handler on the harness's logger, as the benchmark attaches one, counts exactly the skipped
    # batches: none for batch 0, kept after dropping a row, and one each for batch 1 (too few rows), batch 2 (a
    # dropped row, then an overflow) and batch 3 (a refused step)
    spec, source, model = _tiny_task()
    pretrain(model, source, epochs=2, seed=0)
    _refuse_step(monkeypatch, 2)  # batch 3's: batches 1 and 2 never reach their rates
    counter = logging.Handler(logging.WARNING)
    counter.count = 0

    def emit(record):
        counter.count += 1

    counter.emit = emit
    logger = logging.getLogger(harness.__name__)
    logger.addHandler(counter)
    schedule = make_schedule("continual", ["contrast_scale", "gaussian_noise"], 3, 16, seed=0)
    config = AdaptConfig()
    try:
        records = adapt_stream(model.clone(), _Faulty(ScheduleStream(spec, schedule)), config)
    finally:
        logger.removeHandler(counter)
    assert [rec.skipped for rec in records] == [False, True, True, True, False, False]
    assert [rec.dropped_rows for rec in records] == [1, 15, 1, 0, 0, 0]
    assert counter.count == summarize(records, config)["skipped_batches"] == 3


# functions and classes the benchmark calls by name, through the modules it imports
PACKAGE_CALLABLES = {
    name: obj for module in ("harness", "model", "stream")
    for name, obj in vars(importlib.import_module(f"fimtta.{module}")).items()
    if callable(obj) and getattr(obj, "__module__", "").startswith("fimtta.")
}


def test_bench_calls_bind_to_the_package_signatures():
    bound = Counter()
    for node in ast.walk(_bench_tree()):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name not in PACKAGE_CALLABLES:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), f"line {node.lineno}: *args"
        assert all(kw.arg is not None for kw in node.keywords), f"line {node.lineno}: **kwargs"
        try:
            inspect.signature(PACKAGE_CALLABLES[name]).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{BENCH_RUN.name} line {node.lineno}: {name}(...) does not bind: {exc}") from None
        bound[name] += 1
    assert {"AdaptConfig", "pretrain", "build_classifier", "make_schedule", "SourceSpec"} <= set(bound)
