from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import logging
import os
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fimtta import fisher, harness, losses, scheduler
from fimtta.harness import (
    AdaptConfig,
    PretrainDiverged,
    adapt_stream,
    collect_grads,
    metrics_csv,
    pretrain,
    run_experiment,
    summarize,
)
from fimtta.model import Model, build_classifier, record_source_stats, save_checkpoint
from fimtta.stream import ScheduleStream, SourceSpec, gen_source, make_schedule
from oracle import batch_grads, param_snapshot

TINY_KINDS = ["contrast_scale", "gaussian_noise"]


def tiny_setup(seed=0):
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=seed)
    source = gen_source(spec, 240)
    model = build_classifier(6, [8, 8], 3, seed=seed)
    pretrain(model, source, epochs=8, eta_pre=1e-2, seed=seed)
    return spec, model


def tiny_schedule(seed=0, batches=3, batch_size=16):
    return make_schedule("continual", TINY_KINDS, batches, batch_size, seed=seed)


def test_adapt_config_validation():
    with pytest.raises(ValueError, match="method"):
        AdaptConfig(method="cotta")
    with pytest.raises(ValueError, match="optimizer"):
        AdaptConfig(optimizer="rmsprop")
    with pytest.raises(ValueError, match="gamma"):
        AdaptConfig(gamma=1.5)


@pytest.mark.parametrize("field,value", [
    ("eta", 0.0), ("eta", -1.0), ("tau", -0.5),
])
@pytest.mark.parametrize("method", ["layerwise", "bn1"])
def test_adapt_config_rejects_bad_rate_settings_at_construction(method, field, value):
    # these used to fail only at the first updating batch, or never under bn1
    with pytest.raises(ValueError, match=field):
        AdaptConfig(method=method, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("lam", float("nan")),  # ran as lam=0, dropping the consistency term
    ("lam", float("inf")),
    ("eta", float("inf")),  # rejected every step
    ("tau", float("inf")),  # zeroed every rate
    ("seed", -1),  # failed only once the run's artifacts existed
])
def test_adapt_config_rejects_values_that_silently_break_a_run(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        AdaptConfig(**{field: value})


def test_ablate_validates_every_grid_point_before_the_first_run(monkeypatch):
    spec, model = tiny_setup()
    runs = []
    monkeypatch.setattr(harness, "adapt_stream", lambda *args: runs.append(args) or [])
    with pytest.raises(ValueError, match="tau"):
        configs = harness.ablation_grid(AdaptConfig(seed=0), [1.0, -1.0], [0.1], [1.0])
        harness.ablate(model, spec, tiny_schedule(batches=2), configs)
    assert runs == []


def test_pretrain_zero_epochs_returns_initialization():
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    source = gen_source(spec, 240)
    model = build_classifier(6, [8], 3, seed=0)
    reference = build_classifier(6, [8], 3, seed=0)
    pretrain(model, source, epochs=0, seed=0)
    for a, b in zip(model.weight_layers(), reference.weight_layers()):
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)
    assert model.layers[1].kind == "norm" and model.layers[1].source_mean is not None


def test_pretrain_same_seed_gives_bit_identical_checkpoints(tmp_path):
    texts = []
    for run in range(2):
        spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=3)
        model = build_classifier(6, [8], 3, seed=3)
        pretrain(model, gen_source(spec, 240), epochs=4, seed=3)
        path = tmp_path / f"ckpt{run}.txt"
        save_checkpoint(model, path)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_pretrain_reaches_desk_accuracy(desk_setup):
    _, _, accuracy = desk_setup(0)
    assert accuracy >= 0.95


def test_pretrain_solves_planar_three_blob_task():
    spec = SourceSpec(input_dim=2, class_count=3, margin=4.5, seed=0)
    model = build_classifier(2, [16, 16], 3, seed=7)
    assert pretrain(model, gen_source(spec, 960), epochs=15, seed=0) >= 0.95


def test_pretrain_aborts_on_non_finite_loss():
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    model = build_classifier(6, [8], 3, seed=0)
    model.weight_layers()[0].params[0][0, 0] = np.nan
    with pytest.raises(PretrainDiverged, match="became nan at epoch 0 step 0;"):
        pretrain(model, gen_source(spec, 240), epochs=1, seed=0)
    # a NaN source row left out of epoch 0's three 64-row batches and shuffled into epoch 1's second
    rng = np.random.default_rng(0)
    first, second = list(rng.permutation(240)), list(rng.permutation(240))
    row = next(r for r in first[192:] if 64 <= second.index(r) < 128)
    source = gen_source(spec, 240)
    source.inputs[row, 0] = np.nan
    with pytest.raises(PretrainDiverged, match="became nan at epoch 1 step 1;"):
        pretrain(build_classifier(6, [8], 3, seed=0), source, epochs=2, seed=0)


@pytest.mark.parametrize("settings,setting,rows", [
    ({"eta_pre": float("nan")}, "eta_pre", 240),  # every step was rejected
    ({"eta_pre": float("inf")}, "eta_pre", 240),
    ({"eta_pre": 0.0}, "eta_pre", 240),
    ({"eta_pre": -0.01}, "eta_pre", 240),  # gradient ascent
    ({"epochs": -1}, "epochs", 240),
    ({"epochs": 2}, "n", harness.PRETRAIN_BATCH - 1),  # fewer rows than one batch: no step
], ids=["eta_pre-nan", "eta_pre-inf", "eta_pre-0", "eta_pre-negative", "epochs-negative", "n-below-batch_size"])
def test_pretrain_rejects_settings_that_train_nothing_before_the_first_step(settings, setting, rows):
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    model = build_classifier(6, [8], 3, seed=0)
    before = model.theta.copy()
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        pretrain(model, gen_source(spec, rows), **{"epochs": 1, **settings})
    assert np.array_equal(model.theta, before)
    assert all(layer.source_mean is None for layer in model.layers if layer.kind == "norm")


def test_collect_grads_matches_parameter_shapes():
    spec, model = tiny_setup()
    x = np.random.default_rng(0).standard_normal((8, 6))
    logits, saved = model.forward(x)
    grad = collect_grads(model, saved, losses.entropy_loss(logits)[1])
    assert grad.shape == model.theta.shape
    # layers own consecutive column ranges, in layer order
    assert list(model.slices) == model.weight_layer_names()
    stop = 0
    for layer in model.weight_layers():
        cols = model.slices[layer.name]
        assert (cols.start, cols.stop) == (stop, stop + layer.param_count())
        stop = cols.stop
    assert stop == grad.size


def _hand_uniform_entropy_loop(model, spec, schedule, eta):
    """Plain uniform-rate SGD entropy-descent loop (no weighting, no scheduler).

    Returns the parameters after each step and, per batch, the error of
    the model on that batch before and after its step.
    """
    trajectory, errors = [], []
    stream = ScheduleStream(spec, schedule)
    for batch in stream:
        labels = stream.labels_for(batch.step)

        def error():
            return float((model.forward(batch.inputs)[0].argmax(axis=1) != labels).mean())

        before = error()
        model.theta -= eta * batch_grads(model, losses.entropy_loss, batch.inputs)
        trajectory.append(param_snapshot(model))
        errors.append((before, error()))
    return trajectory, errors


@pytest.mark.parametrize("method,extra", [
    ("uniform_tent", {}),
    ("layerwise", {"tau": 0.0}),  # tau = 0 forces all scaled weights to one
])
def test_reduction_to_uniform_entropy_descent_is_bit_identical(method, extra):
    spec, model = tiny_setup()
    eta = 5e-3
    cfg = AdaptConfig(method=method, eta=eta, lam=0.0, optimizer="sgd", seed=0, **extra)
    ours = model.clone()
    records = adapt_stream(ours, ScheduleStream(spec, tiny_schedule(batches=5)), cfg)
    reference = model.clone()
    trajectory, _ = _hand_uniform_entropy_loop(
        reference, spec, tiny_schedule(batches=5), eta
    )
    assert len(records) == 10
    ours_final = param_snapshot(ours)
    ref_final = trajectory[-1]
    for name in ours_final:
        for a, b in zip(ours_final[name], ref_final[name]):
            assert np.array_equal(a, b)


def test_source_method_changes_nothing():
    spec, model = tiny_setup()
    work = model.clone()
    before = param_snapshot(work)
    norms = [l for l in work.layers if l.kind == "norm"]
    stats_before = [l.source_mean.copy() for l in norms]
    records = adapt_stream(
        work, ScheduleStream(spec, tiny_schedule()), AdaptConfig(method="source")
    )
    after = param_snapshot(work)
    for name in before:
        for a, b in zip(before[name], after[name]):
            assert np.array_equal(a, b)
    for l, sb in zip(norms, stats_before):
        assert np.array_equal(l.source_mean, sb)
    assert len(records) == 6
    assert all(rec.w_bar == [0.0] * len(work.weight_layers()) for rec in records)


def test_bn1_takes_no_gradient_steps():
    spec, model = tiny_setup()
    work = model.clone()
    before = param_snapshot(work)
    adapt_stream(work, ScheduleStream(spec, tiny_schedule()), AdaptConfig(method="bn1"))
    after = param_snapshot(work)
    for name in before:
        for a, b in zip(before[name], after[name]):
            assert np.array_equal(a, b)


def test_layerwise_records_carry_weights_and_rates_shape():
    spec, model = tiny_setup()
    work = model.clone()
    records = adapt_stream(
        work, ScheduleStream(spec, tiny_schedule()), AdaptConfig(seed=0)
    )
    n_layers = len(work.weight_layers())
    for rec in records:
        assert len(rec.w_bar) == n_layers
        assert len(rec.w_raw) == n_layers
        assert max(rec.w_bar) <= 1.0 and min(rec.w_bar) >= 0.0
    # parameters actually moved
    assert not np.array_equal(
        work.weight_layers()[0].params[0],
        model.weight_layers()[0].params[0],
    )


def test_online_error_uses_pre_update_model():
    # record k's error is that of the model after k steps, not k + 1; with a
    # huge rate the two differ on some batches, so the check can tell them apart
    spec, model = tiny_setup()
    cfg = AdaptConfig(method="uniform_tent", eta=0.5, lam=0.0, optimizer="sgd", seed=0)
    records = adapt_stream(model.clone(), ScheduleStream(spec, tiny_schedule(batches=4)), cfg)
    _, errors = _hand_uniform_entropy_loop(model.clone(), spec, tiny_schedule(batches=4), 0.5)
    assert [r.error for r in records] == [before for before, _ in errors]
    assert [before for before, _ in errors] != [after for _, after in errors]


def test_naive_mode_records_raw_weights_and_unbounded_rates():
    spec, model = tiny_setup()
    records = adapt_stream(
        model.clone(),
        ScheduleStream(spec, tiny_schedule()),
        AdaptConfig(method="naive_eq6", seed=0),
    )
    assert all(rec.w_bar == rec.w_raw for rec in records)


def test_metrics_csv_has_fixed_header():
    text = metrics_csv([], ["dense1", "head"])
    assert text.splitlines()[0] == "step,domain,severity,error,entropy,consistency,wbar_1,wbar_2"


@pytest.mark.parametrize("method", ["layerwise", "uniform_tent", "bn1", "source"])
def test_metrics_csv_holds_plain_numbers(method):
    spec, model = tiny_setup()
    records = adapt_stream(model.clone(), ScheduleStream(spec, tiny_schedule()), AdaptConfig(method=method, seed=0))
    assert all(type(v) is float for rec in records for v in (rec.error, rec.entropy, rec.consistency, *rec.w_bar))
    for line in metrics_csv(records, model.weight_layer_names()).splitlines()[1:]:
        step, _, severity, *values = line.split(",")
        assert step.isdecimal() and severity.isdecimal() and all(np.isfinite(float(v)) for v in values)


def test_summary_mean_is_arithmetic_mean():
    spec, model = tiny_setup()
    records = adapt_stream(
        model.clone(), ScheduleStream(spec, tiny_schedule()), AdaptConfig(seed=0)
    )
    summary = summarize(records, AdaptConfig(seed=0))
    assert summary["mean_error"] == pytest.approx(
        float(np.mean([r.error for r in records])), abs=0
    )
    assert set(summary["per_domain_error"]) == set(TINY_KINDS)


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    spec, model = tiny_setup()
    cfg = AdaptConfig(seed=0)
    a = run_experiment(model, spec, tiny_schedule(), cfg, tmp_path / "a", tag="run")
    b = run_experiment(model, spec, tiny_schedule(), cfg, tmp_path / "b", tag="run")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.weights_path.read_bytes() == b.weights_path.read_bytes()
    assert a.summary_path.read_bytes() == b.summary_path.read_bytes()


def _wide_tent_theta_digest() -> str:
    """SHA-256 of the final ``theta`` of a short grouped ``uniform_tent`` run
    at a width and batch above OpenBLAS's threading threshold: a [128, 128]
    model, no pretraining, two batches of 200 per segment."""
    model = build_classifier(16, [128, 128], 3, seed=0)
    record_source_stats(model, np.random.default_rng(0).standard_normal((256, 16)))
    stream = ScheduleStream(SourceSpec(), make_schedule("continual", TINY_KINDS, 2, 200, 0))
    adapt_stream(model, stream, AdaptConfig(method="uniform_tent", seed=0))
    return hashlib.sha256(model.theta.tobytes()).hexdigest()


def test_final_theta_does_not_depend_on_the_blas_thread_count():
    # each count in a fresh interpreter: OpenBLAS reads it once, at load
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", "from test_harness import _wide_tent_theta_digest as d; print(d())"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_run_experiment_aborts_on_unwritable_path_before_running():
    spec, model = tiny_setup()
    with pytest.raises(OSError):
        run_experiment(
            model, spec, tiny_schedule(), AdaptConfig(seed=0), "/proc/nope/out"
        )


def test_run_experiment_writes_weight_dumps_with_diag(tmp_path):
    spec, model = tiny_setup()
    cfg = AdaptConfig(seed=0, track_diagonal=True)
    result = run_experiment(model, spec, tiny_schedule(), cfg, tmp_path, tag="dump")
    lines = result.weights_path.read_text().splitlines()
    assert len(lines) == 6
    rec = json.loads(lines[0])
    first = adapt_stream(model.clone(), ScheduleStream(spec, tiny_schedule()), cfg)[0]
    names = model.weight_layer_names()
    assert rec == {
        "step": first.step,
        "domain": first.domain,
        "severity": first.severity,
        "w": dict(zip(names, first.w_raw)),
        "w_bar": dict(zip(names, first.w_bar)),
        "diag": {name: d.tolist() for name, d in first.diag.items()},
    }


def test_running_traces_start_at_zero_for_every_weight_layer():
    # whatever gamma, the first batch's raw weights are the square roots of
    # its own traces, and its diagonal is its own
    spec, model = tiny_setup()
    config = AdaptConfig(gamma=0.7, track_diagonal=True)
    records = adapt_stream(model.clone(), ScheduleStream(spec, tiny_schedule()), config)
    first = next(iter(ScheduleStream(spec, tiny_schedule())))
    traces, diagonal = fisher.layer_fim_trace(model, *model.forward(first.inputs))
    assert records[0].w_raw == np.sqrt(traces).tolist()
    assert records[0].diag.keys() == model.slices.keys()
    assert all(np.array_equal(records[0].diag[name], diagonal[cols]) for name, cols in model.slices.items())


@pytest.mark.parametrize("method", harness.WEIGHTED_METHODS)
def test_tracking_the_diagonal_changes_only_what_is_written(tmp_path, method):
    # the diagonal is summed on every run; tracking it only adds it to the dumps
    spec, model = tiny_setup()
    runs = [
        run_experiment(model, spec, tiny_schedule(), AdaptConfig(method=method, seed=0, track_diagonal=track),
                       tmp_path / str(track), tag="run")
        for track in (False, True)
    ]
    plain, tracked = runs
    assert plain.csv_path.read_bytes() == tracked.csv_path.read_bytes()
    assert plain.summary_path.read_bytes() == tracked.summary_path.read_bytes()
    lines = [[json.loads(line) for line in run.weights_path.read_text().splitlines()] for run in runs]
    assert [(rec["w"], rec["w_bar"]) for rec in lines[0]] == [(rec["w"], rec["w_bar"]) for rec in lines[1]]
    assert all("diag" in rec for rec in lines[1]) and not any("diag" in rec for rec in lines[0])


@pytest.mark.parametrize("method", ["layerwise", "bn1"])
def test_run_experiment_rejects_single_row_schedule_before_any_file(tmp_path, method):
    spec, model = tiny_setup()
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=rf"each batch of the schedule has 1 row.*{method}"):
        run_experiment(model, spec, tiny_schedule(batch_size=1), AdaptConfig(method=method), out)
    assert not out.exists()


def test_ablate_rejects_single_row_schedule_before_the_first_run(monkeypatch):
    spec, model = tiny_setup()
    runs = []
    monkeypatch.setattr(harness, "adapt_stream", lambda *args: runs.append(args) or [])
    with pytest.raises(ValueError, match="ablate: each batch of the schedule has 1 row"):
        harness.ablate(model, spec, tiny_schedule(batch_size=1), [AdaptConfig()])
    assert runs == []


def test_layerwise_on_a_single_weight_layer_is_rejected_before_any_file_or_run(tmp_path, monkeypatch):
    # its min-max scaler used to fail at the first batch, after the run's files existed
    spec, linear = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0), build_classifier(6, [], 3, seed=0)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="run_experiment: model has 1 weight layer.*'layerwise' needs at least 2"):
        run_experiment(linear, spec, tiny_schedule(), AdaptConfig(), out)
    assert not out.exists()
    runs = []
    monkeypatch.setattr(harness, "adapt_stream", lambda *args: runs.append(args) or [])
    with pytest.raises(ValueError, match="ablate: model has 1 weight layer"):
        harness.ablate(linear, spec, tiny_schedule(), [AdaptConfig(method="naive_eq6"), AdaptConfig()])
    assert runs == []


def test_lambda_sweep_emits_one_row_per_lambda():
    spec, model = tiny_setup()
    lams = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
    configs = harness.ablation_grid(AdaptConfig(seed=0), [1.0], lams, [1.0])
    rows = harness.ablate(model, spec, tiny_schedule(batches=2), configs)
    assert len(rows) == 6
    assert sorted(r["lambda"] for r in rows) == sorted(lams)
    errs = [r["mean_error"] for r in rows]
    assert errs == sorted(errs)


def test_ablate_grid_shape_and_degenerate_point(tmp_path):
    spec, model = tiny_setup()
    configs = harness.ablation_grid(AdaptConfig(seed=0), [0.5, 1.0], [0.0, 0.1], [1.0])
    assert [(c.tau, c.lam) for c in configs] == [(0.5, 0.0), (0.5, 0.1), (1.0, 0.0), (1.0, 0.1)]
    rows = harness.ablate(model, spec, tiny_schedule(batches=2), configs)
    assert len(rows) == 4
    single = harness.ablate(model, spec, tiny_schedule(batches=2), [AdaptConfig(seed=0, tau=1.0, lam=0.1, gamma=1.0)])
    direct = run_experiment(
        model,
        spec,
        tiny_schedule(batches=2),
        AdaptConfig(seed=0, tau=1.0, lam=0.1, gamma=1.0),
        tmp_path,
    )
    assert single[0]["mean_error"] == direct.summary["mean_error"]
    # the grid's last run reads the schedule three runs have already streamed
    assert [r["mean_error"] for r in rows if (r["tau"], r["lambda"]) == (1.0, 0.1)] == [direct.summary["mean_error"]]
    with pytest.raises(ValueError, match="grid"):
        harness.ablation_grid(AdaptConfig(), [], [0.1], [1.0])


def test_rejected_step_leaves_model_intact_and_continues(monkeypatch, caplog):
    spec, model = tiny_setup()
    work = model.clone()
    real_step = scheduler.weighted_step
    calls = {"n": 0}

    def sabotage(model_, grad, rates, optimizer=None):
        calls["n"] += 1
        if calls["n"] == 2:
            grad[0] = np.nan  # first weight of the first layer
        return real_step(model_, grad, rates, optimizer=optimizer)

    monkeypatch.setattr(harness.scheduler, "weighted_step", sabotage)
    with caplog.at_level(logging.WARNING):
        records = adapt_stream(
            work, ScheduleStream(spec, tiny_schedule()), AdaptConfig(seed=0)
        )
    assert len(records) == 6  # the stream keeps going after the rejected step
    assert "rejected" in caplog.text


class _OneRowAtStep:
    """A stream whose batch at ``step`` is cut to its first row."""

    def __init__(self, inner, step):
        self.inner, self.step = inner, step

    def labels_for(self, step):
        labels = self.inner.labels_for(step)
        return labels[:1] if step == self.step else labels

    def __iter__(self):
        for batch in self.inner:
            if batch.step == self.step:
                batch = dataclasses.replace(batch, inputs=batch.inputs[:1])
            yield batch


@pytest.mark.parametrize("method", ["layerwise", "naive_eq6", "uniform_tent", "bn1"])
def test_batch_statistics_methods_reject_single_row_batch(method):
    # one row has no batch statistics: the first norm layer would output its
    # shift whatever the input
    spec, model = tiny_setup()
    stream = _OneRowAtStep(ScheduleStream(spec, tiny_schedule()), step=2)
    with pytest.raises(ValueError, match=rf"step 2 has 1 row.*{method}"):
        adapt_stream(model.clone(), stream, AdaptConfig(method=method, seed=0))


def test_source_method_runs_single_row_batches():
    spec, model = tiny_setup()
    stream = ScheduleStream(spec, tiny_schedule(batch_size=1))
    records = adapt_stream(model.clone(), stream, AdaptConfig(method="source"))
    assert len(records) == 6
    assert all(rec.error in (0.0, 1.0) for rec in records)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_nan_batch_is_skipped_and_later_steps_apply(monkeypatch, caplog, optimizer):
    # a fault no input check sees: the forward of step 2 yields a NaN logit
    # row, so that batch's traces and gradient are non-finite
    spec, model = tiny_setup()
    work = model.clone()
    snapshots, folds, forwards = [], [], []
    real_accumulate, real_step, real_forward = fisher.accumulate, scheduler.weighted_step, Model.forward

    def accumulate(total, batch, decay):
        folds.append(batch)
        real_accumulate(total, batch, decay)

    def step(model_, grad, rates, optimizer=None):
        applied = real_step(model_, grad, rates, optimizer=optimizer)
        snapshots.append((applied, param_snapshot(model_)))
        return applied

    def forward(self, inputs, batch_stats=True):
        logits, saved = real_forward(self, inputs, batch_stats)
        forwards.append(len(forwards))
        if len(forwards) == 3:
            logits[..., 0, :] = np.nan
        return logits, saved

    monkeypatch.setattr(harness.fisher, "accumulate", accumulate)
    monkeypatch.setattr(harness.scheduler, "weighted_step", step)
    monkeypatch.setattr(Model, "forward", forward)
    cfg = AdaptConfig(seed=0, optimizer=optimizer, track_diagonal=True)
    stream = ScheduleStream(spec, tiny_schedule(batches=4))
    with caplog.at_level(logging.WARNING), np.errstate(invalid="ignore"):
        records = adapt_stream(work, stream, cfg)
    assert len(records) == 8
    assert "non-finite traces" in caplog.text and "rejected" in caplog.text
    assert len(folds) == 2 * 7  # every batch but the NaN one folds its traces and its diagonal in
    assert all(np.isfinite(batch).all() for batch in folds)
    assert [applied for applied, _ in snapshots] == [True, True, False] + [True] * 5
    # the rejected step left the model as the step before it did ...
    for name, params in snapshots[1][1].items():
        for a, b in zip(params, snapshots[2][1][name]):
            assert np.array_equal(a, b)
    # ... and every later step still moved it
    for (_, before), (_, after) in zip(snapshots[2:], snapshots[3:]):
        assert not np.array_equal(before["dense1"][0], after["dense1"][0])
    for rec in records:
        assert np.isfinite(rec.w_raw).all() and np.isfinite(rec.w_bar).all()
        assert all(np.isfinite(d).all() for d in rec.diag.values())
    for layer in work.weight_layers():
        assert all(np.isfinite(p).all() for p in layer.params)


class _Rows:
    """A stream whose batch at step k has the value ``bad[k][i]`` written into
    feature ``i % input_dim`` of row i where it is not 0.0 (NaN or an
    infinity), and which calls ``on_batch`` before it yields each batch. With
    ``cut`` each batch keeps only its first ``len(bad[k])`` rows."""

    def __init__(self, inner, bad=(), on_batch=lambda: None, cut=False):
        self.inner, self.bad, self.on_batch, self.cut = inner, bad, on_batch, cut

    def _rows(self, step):
        return len(self.bad[step]) if self.cut else None

    def labels_for(self, step):
        return self.inner.labels_for(step)[: self._rows(step)]

    def __iter__(self):
        for batch in self.inner:
            inputs = batch.inputs[: self._rows(batch.step)].copy()
            for i, value in enumerate(self.bad[batch.step] if batch.step < len(self.bad) else ()):
                if value:
                    inputs[i, i % inputs.shape[1]] = value
            self.on_batch()
            yield dataclasses.replace(batch, inputs=inputs)


@pytest.mark.parametrize("factor, skipped", [(1e200, True), (1e150, False)])
def test_a_batch_that_overflows_is_skipped_and_counted(monkeypatch, caplog, factor, skipped):
    # step 3's rows times 1e200 overflow the first norm's variance; times 1e150 they do not
    spec, model = _pretrained()
    work, totals, optimizers, states = model.clone(), [], [], []
    real_accumulate, adam = fisher.accumulate, scheduler.AdamState

    def accumulate(total, batch, decay):
        totals.append(total)
        real_accumulate(total, batch, decay)

    def snapshot():  # theta, the Adam moments and the running traces, as the next batch is pulled
        opt = optimizers[0]
        running = [totals[0].tobytes()] if totals else []
        states.append([work.theta.tobytes(), *[a.tobytes() for a in (opt.m, opt.v) if a is not None], *running])

    class Scaled(ScheduleStream):  # step 3's rows times ``factor``
        def __iter__(self):
            for batch in super().__iter__():
                snapshot()
                yield dataclasses.replace(batch, inputs=batch.inputs * factor) if batch.step == 3 else batch

    monkeypatch.setattr(harness.fisher, "accumulate", accumulate)
    monkeypatch.setattr(harness.scheduler, "AdamState", lambda: optimizers.append(adam()) or optimizers[-1])
    cfg = AdaptConfig(seed=0)
    with caplog.at_level(logging.WARNING):
        records = adapt_stream(work, Scaled(spec, tiny_schedule()), cfg)
    assert [rec.skipped for rec in records] == [False, False, False, skipped, False, False]
    assert summarize(records, cfg)["skipped_batches"] == int(skipped)
    assert len(totals) == 6 - skipped  # the skipped batch folds no traces
    assert caplog.text.count("overflows") == int(skipped) and ("step 3 overflows" in caplog.text) == skipped
    assert (states[3] == states[4]) == skipped  # theta, moments and traces byte-identical across the skip
    assert np.isnan(records[3].error) == skipped
    assert all(np.isfinite(rec.w_raw).all() for rec in records if not rec.skipped)


@pytest.mark.parametrize("method", ["layerwise", "uniform_tent", "bn1"])
def test_batch_state_is_freed_before_the_next_forward(monkeypatch, method):
    # weak references to every array a forward caches or returns; those of a
    # finished batch must be dead, by reference counting alone, when the next
    # batch's forward starts
    spec, model = tiny_setup()
    finished, current, alive = [], [], []
    real = Model.forward

    def forward(self, inputs, batch_stats=True):
        alive.append(sum(ref() is not None for ref in finished))
        logits, saved = real(self, inputs, batch_stats)
        current.extend(
            weakref.ref(a)
            for entry in [logits, *saved]
            for a in (entry if isinstance(entry, tuple) else (entry,))
            if isinstance(a, np.ndarray) and a is not inputs
        )
        return logits, saved

    def next_batch():
        finished.extend(current)
        current.clear()

    monkeypatch.setattr(Model, "forward", forward)
    stream = _Rows(ScheduleStream(spec, tiny_schedule()), on_batch=next_batch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        records = adapt_stream(model.clone(), stream, AdaptConfig(method=method, seed=0))
    finally:
        if enabled:
            gc.enable()
    assert len(records) == 6 and finished
    assert alive == [0] * len(alive)


_pretrained = functools.lru_cache(maxsize=None)(tiny_setup)


def _least_rows(method):
    # one row has no batch statistics; only source normalizes without them
    return 1 if method == "source" else 2


BAD_VALUES = [0.0, 0.0, 0.0, np.nan, np.inf, -np.inf]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["layerwise", "naive_eq6", "uniform_tent", "bn1", "source"]),
    st.lists(st.one_of(st.lists(st.sampled_from(BAD_VALUES), min_size=8, max_size=8),
                       st.just([np.nan] * 8)), min_size=4, max_size=4),
)
def test_non_finite_rows_are_dropped_and_counted(method, bad):
    least = _least_rows(method)
    kept = [sum(value == 0.0 for value in rows) for rows in bad]
    assume(max(kept) >= least)
    spec, model = _pretrained()
    work = model.clone()
    totals, optimizers = [], []
    real_accumulate, adam = fisher.accumulate, scheduler.AdamState

    def accumulate(total, batch, decay):
        totals.append(total)
        real_accumulate(total, batch, decay)

    def new_adam():
        optimizers.append(adam())
        return optimizers[-1]

    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = warnings.append
    logger = logging.getLogger(harness.__name__)
    logger.addHandler(handler)
    cfg = AdaptConfig(method=method, seed=0, track_diagonal=True)
    try:
        with mock.patch.object(fisher, "accumulate", accumulate), \
                mock.patch.object(scheduler, "AdamState", new_adam):
            records = adapt_stream(work, _Rows(ScheduleStream(spec, tiny_schedule(batches=2, batch_size=8)), bad), cfg)
    finally:
        logger.removeHandler(handler)

    assert np.isfinite(work.theta).all()
    for opt in optimizers:
        assert opt.m is None or (np.isfinite(opt.m).all() and np.isfinite(opt.v).all())
    for total in totals:  # the running traces and diagonal, folded in place
        assert np.isfinite(total).all()
    summary = summarize(records, cfg)
    assert np.isfinite(summary["mean_error"]) and np.isfinite(summary["mean_entropy"])
    assert summary["dropped_rows"] == sum(8 - k for k in kept)
    assert summary["skipped_batches"] == sum(k < least for k in kept)
    assert [rec.skipped for rec in records] == [k < least for k in kept]
    assert all(np.isnan(rec.error) for rec in records if rec.skipped)
    # one warning per batch with a dropped row, none for the others
    assert sorted(r.getMessage().split(" drops ")[0] for r in warnings) == [
        f"adapt_stream: step {step}" for step, k in enumerate(kept) if k < 8
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["layerwise", "naive_eq6", "uniform_tent", "bn1", "source"]),
    st.lists(st.lists(st.sampled_from(BAD_VALUES), max_size=3), min_size=4, max_size=4),
)
@example("source", [[0.0], [], [0.0], [0.0]])
def test_batches_below_the_minimum_raise_or_are_skipped(method, bad):
    # bad[k] is batch k as delivered: one entry per row, 0.0 for a finite row
    least = _least_rows(method)
    delivered = [len(rows) for rows in bad]
    kept = [sum(value == 0.0 for value in rows) for rows in bad]
    short = next((step for step, n in enumerate(delivered) if n < least), None)
    spec, model = _pretrained()
    forwards = []
    real = Model.forward

    def forward(self, inputs, batch_stats=True):
        forwards.append(len(inputs[0] if inputs.ndim == 3 else inputs))
        return real(self, inputs, batch_stats)

    stream = _Rows(ScheduleStream(spec, tiny_schedule(batches=2, batch_size=8)), bad, cut=True)
    cfg = AdaptConfig(method=method, seed=0)
    with mock.patch.object(Model, "forward", forward):
        if short is not None:
            with pytest.raises(ValueError, match=rf"step {short} has {delivered[short]} row"):
                adapt_stream(model.clone(), stream, cfg)
        else:
            records = adapt_stream(model.clone(), stream, cfg)
    # no forward for a skipped batch, nor for the one that raised
    assert forwards == [k for k in kept[:short] if k >= least]
    if short is None:
        assert [rec.skipped for rec in records] == [k < least for k in kept]
        assert [rec.dropped_rows for rec in records] == [n - k for n, k in zip(delivered, kept)]
        summary = summarize(records, cfg)
        assert summary["skipped_batches"] == sum(k < least for k in kept)
        assert np.isfinite(summary["mean_error"]) == any(k >= least for k in kept)
