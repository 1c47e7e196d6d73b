from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import logging
import os
import re
import subprocess
import sys
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from fimtta.stream import ScheduleStream, SourceSpec, StreamBatch, gen_source, make_schedule
from oracle import batch_grads, param_snapshot, reference_adapt

TINY_KINDS = ["contrast_scale", "gaussian_noise"]


def tiny_setup(seed=0, hidden=(8, 8)):
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=seed)
    source = gen_source(spec, 240)
    model = build_classifier(6, list(hidden), 3, seed=seed)
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


def test_ablate_sorts_finite_rows_and_puts_runs_that_skipped_every_batch_last():
    # lambda = 1e308 overflows every batch's consistency term, so both of its runs skip all 6 batches
    # and score a NaN mean error, which a plain sort by mean error left where it fell
    spec, model = tiny_setup()
    configs = harness.ablation_grid(AdaptConfig(seed=0), [1.0, 0.5], [0.1, 1e308], [1.0])
    rows = harness.ablate(model, spec, tiny_schedule(), configs)
    errors = [row["mean_error"] for row in rows]
    assert [row["skipped_batches"] for row in rows] == [0, 0, 6, 6]
    assert errors[0] <= errors[1] and np.isnan(errors[2:]).all()
    assert [(row["tau"], row["lambda"]) for row in rows[2:]] == [(1.0, 1e308), (0.5, 1e308)]  # in config order


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
    with pytest.raises(PretrainDiverged, match="^pretraining diverged at epoch 0 step 0: loss is nan$"):
        pretrain(model, gen_source(spec, 240), epochs=1, seed=0)
    # a NaN source row left out of epoch 0's three 64-row batches and shuffled into epoch 1's second
    rng = np.random.default_rng(0)
    first, second = list(rng.permutation(240)), list(rng.permutation(240))
    row = next(r for r in first[192:] if 64 <= second.index(r) < 128)
    source = gen_source(spec, 240)
    source.inputs[row, 0] = np.nan
    with pytest.raises(PretrainDiverged, match="^pretraining diverged at epoch 1 step 1: loss is nan$"):
        pretrain(build_classifier(6, [8], 3, seed=0), source, epochs=2, seed=0)


@pytest.mark.parametrize("eta_pre,diverges", [(1e-2, False), (1e3, False), (1e100, True), (1e150, True), (1e300, True)])
def test_pretraining_trains_finite_or_stops_at_the_step_that_diverged(eta_pre, diverges, caplog):
    # a rate so large that a later forward, Adam's moments or a step overflows stops pretraining with the epoch and
    # step; no rate lets a warning escape, logs one, or leaves theta or the source statistics non-finite
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    model = build_classifier(6, [8, 8], 3, seed=0)
    norms = [layer for layer in model.layers if layer.kind == "norm"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if diverges:
            with pytest.raises(PretrainDiverged, match=r"^pretraining diverged at epoch [01] step [0-2]: \S"):
                pretrain(model, gen_source(spec, 240), epochs=2, eta_pre=eta_pre, seed=0)
        else:
            assert np.isfinite(pretrain(model, gen_source(spec, 240), epochs=2, eta_pre=eta_pre, seed=0))
            assert all(np.isfinite(layer.source_mean).all() and np.isfinite(layer.source_var).all() for layer in norms)
    assert np.isfinite(model.theta).all()
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_pretraining_step_that_weighted_step_refuses_stops_it(monkeypatch):
    # a non-finite gradient that no arithmetic of its pass flagged: the refusal stops pretraining like an overflow
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    model = build_classifier(6, [8], 3, seed=0)
    grads = []

    def poisoned(*args):
        grads.append(collect_grads(*args))
        if len(grads) == 3:
            grads[-1][0] = np.nan
        return grads[-1]

    monkeypatch.setattr(harness, "collect_grads", poisoned)
    before = model.theta.copy()
    with pytest.raises(PretrainDiverged, match=re.escape(
        "pretraining diverged at epoch 0 step 2: weighted_step: non-finite rate or gradient in layers ['dense1']"
    )):
        pretrain(model, gen_source(spec, 240), epochs=2, seed=0)
    assert np.isfinite(model.theta).all() and not np.array_equal(model.theta, before)


def test_pretraining_statistics_that_overflow_stop_it():
    # the source statistics and the accuracy pass run under the steps' rule: with no step, it names the initialization
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    source = gen_source(spec, 240)
    source.inputs *= 1e200  # squared in a batch variance, it overflows
    with pytest.raises(PretrainDiverged, match="^pretraining diverged on the initialization: overflow"):
        pretrain(build_classifier(6, [8], 3, seed=0), source, epochs=0, seed=0)


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


def test_source_on_a_norm_without_source_statistics_is_rejected_before_any_file_or_run(tmp_path, monkeypatch):
    # its first forward used to raise, after the run's files existed; the batch-statistic methods run on it
    spec, bare = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0), build_classifier(6, [8, 8], 3, seed=0)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="run_experiment: norm layer 'norm1' has no source statistics"):
        run_experiment(bare, spec, tiny_schedule(), AdaptConfig(method="source"), out)
    assert not out.exists()
    runs = []
    monkeypatch.setattr(harness, "adapt_stream", lambda *args: runs.append(args) or [])
    with pytest.raises(ValueError, match="ablate: norm layer 'norm1' has no source statistics; method 'source'"):
        harness.ablate(bare, spec, tiny_schedule(), [AdaptConfig(method="bn1"), AdaptConfig(method="source")])
    assert runs == []
    harness.ablate(bare, spec, tiny_schedule(), [AdaptConfig(method=m) for m in ("bn1", "uniform_tent", "layerwise")])
    assert len(runs) == 3


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
    # a rejected step is a skip like any other: NaN metrics, nothing written, and one warning naming its cause
    assert [rec.skipped for rec in records] == [False, True, False, False, False, False]
    assert np.isnan(records[1].error) and records[1].w_raw == [] and records[1].diag is None
    cause = "weighted_step: non-finite rate or gradient in layers ['dense1']"
    assert [(r.name, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING] == [
        (harness.__name__, f"adapt_stream: step 1 keeps 16 finite row(s) of 16, skipped: {cause}")
    ]


def test_a_fault_outside_the_skip_rule_propagates():
    # the skip rule catches FloatingPointError and too few rows alone: the scaler's refusal of a one-weight-layer
    # model, which run_experiment and the CLI reject before a run, reaches the caller with theta unwritten
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    model = build_classifier(6, [], 3, seed=0)
    before = model.theta.copy()
    with pytest.raises(ValueError, match=re.escape("exp_minmax_scale: need >= 2 layers, got shape (1,)")):
        adapt_stream(model, ScheduleStream(spec, tiny_schedule()), AdaptConfig(method="layerwise"))
    assert model.theta.tobytes() == before.tobytes()


def test_source_method_runs_single_row_batches():
    spec, model = tiny_setup()
    stream = ScheduleStream(spec, tiny_schedule(batch_size=1))
    records = adapt_stream(model.clone(), stream, AdaptConfig(method="source"))
    assert len(records) == 6
    assert all(rec.error in (0.0, 1.0) for rec in records)


# How ``_Rows`` delivers row i of a batch, by its mark: 0.0 as drawn; NaN or
# an infinity written into feature i % input_dim, so the row is dropped; a
# factor, the row times it; "max", every feature at +-NEAR_MAX with the sign
# it was drawn with; "copy", a copy of the batch's row 0 as drawn; "flat",
# feature 0 set to 1.0; "logit" or "jitter", as drawn, with the logit row of
# the row, or of its jittered copy only, made NaN by the forward of
# ``_adapt_counting``; "sure", as drawn, with its logit rows made one-hot
# (0 for class 0, -1e3 for the others) by that forward, so its softmax is
# exactly one-hot and its scores are 0.
ADAM_OVERFLOW = 1e160  # see test_a_norm_free_batch_times_adam_overflow_overflows_adams_second_moment_first
OVERFLOWS = (ADAM_OVERFLOW, 1e200, 1e300)  # squared in a batch variance, a row times these overflows; times 1e150 not
FACTORS = (1e150, *OVERFLOWS)
NEAR_MAX = 1.7e308  # finite, but not 1.058 times it: the jitter's rescaling by up to 1.1 can overflow it
MARKS = [0.0, 0.0, 0.0, np.nan, np.inf, -np.inf, *FACTORS, "max", "copy", "flat", "logit", "jitter", "sure"]


def _dropped(mark) -> bool:
    return isinstance(mark, float) and not np.isfinite(mark)


class _Rows:
    """A stream whose batch at step k < ``len(bad)`` keeps only its first
    ``len(bad[k])`` rows, row i delivered as its mark ``bad[k][i]`` says,
    and which calls ``on_batch`` before it yields each batch. ``logit_rows``
    then maps "logit", "jitter" and "sure" to the positions of the rows so
    marked among that batch's finite rows."""

    def __init__(self, inner, bad=(), on_batch=lambda: None):
        self.inner, self.bad, self.on_batch = inner, bad, on_batch
        self.logit_rows = {"logit": [], "jitter": [], "sure": []}

    def _marks(self, step):
        return self.bad[step] if step < len(self.bad) else None

    def labels_for(self, step):
        marks = self._marks(step)
        return self.inner.labels_for(step)[: None if marks is None else len(marks)]

    def __iter__(self):
        for batch in self.inner:
            marks = self._marks(batch.step)
            drawn = batch.inputs[: None if marks is None else len(marks)]
            inputs = drawn.copy()
            for i, mark in enumerate(marks or ()):
                if mark == "copy":
                    inputs[i] = drawn[0]
                elif mark == "flat":
                    inputs[i, 0] = 1.0
                elif mark == "max":
                    inputs[i] = np.copysign(NEAR_MAX, drawn[i])
                elif _dropped(mark):
                    inputs[i, i % inputs.shape[1]] = mark
                elif mark in FACTORS:
                    inputs[i] *= mark
            finite = [mark for mark in marks or () if not _dropped(mark)]
            self.logit_rows = {kind: [j for j, mark in enumerate(finite) if mark == kind] for kind in self.logit_rows}
            self.on_batch()
            yield dataclasses.replace(batch, inputs=inputs)


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


def test_a_row_near_the_float_maximum_overflows_the_first_product():
    # why ``source`` skips a batch with a "max" row although its fixed statistics are linear in a row: whatever
    # the row's signs, some column of the first dense layer sums its weights to more than max / NEAR_MAX
    _, model = _pretrained()
    weight = model.layers[0].params[0]
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=weight.shape[0])))
    assert (np.abs(signs @ weight).max(axis=1) > np.finfo(np.float64).max / NEAR_MAX).all()


def _least_rows(method):
    # one row has no batch statistics; only source normalizes without them
    return 1 if method == "source" else 2


def _adapt_counting(model, spec, method, bad, lam, optimizer):
    """``adapt_stream`` over ``_Rows(bad)`` of a 4-batch, 8-row schedule,
    at ``lam`` with ``optimizer``, the diagonal tracked, and a forward that
    makes the logit rows that ``_Rows.logit_rows`` names NaN or one-hot.
    Returns the records, the adapted model, the rows of each forward, the
    rows of each jitter draw and whether it overflowed, each fold into the
    running totals (the step of its batch, the total it read and a copy of
    it, and a copy of the fold it returned), the optimizers, the level and
    message of each record the harness logs at INFO or above, and the
    state (theta's bytes, and each optimizer's step count and moments'
    bytes) before each batch is pulled and after the last."""
    run = SimpleNamespace(work=model.clone(), forwards=[], jitters=[], folds=[], optimizers=[], logs=[], states=[])
    real_forward, real_augment = Model.forward, losses.augment
    real_accumulate, adam = fisher.accumulate, scheduler.AdamState

    def forward(self, inputs, batch_stats=True):
        run.forwards.append(len(inputs[0] if inputs.ndim == 3 else inputs))
        logits, saved = real_forward(self, inputs, batch_stats)
        logits[..., stream.logit_rows["sure"], :] = -1e3
        logits[..., stream.logit_rows["sure"], 0] = 0.0
        logits[..., stream.logit_rows["logit"], :] = np.nan
        if logits.ndim == 3:  # group 1 holds the jittered copy
            logits[1, stream.logit_rows["jitter"], :] = np.nan
        return logits, saved

    def augment(batch, rng, out=None):
        run.jitters.append((len(batch), True))  # overflowed, until the draw returns
        jittered = real_augment(batch, rng, out=out)
        run.jitters[-1] = (len(batch), False)
        return jittered

    def accumulate(total, batch, decay):
        read = total.copy()
        folded = real_accumulate(total, batch, decay)
        run.folds.append((len(run.states) - 1, total, read, folded.copy()))
        return folded

    def new_adam():
        run.optimizers.append(adam())
        return run.optimizers[-1]

    def snapshot():
        moments = [(opt.step_count, *[None if a is None else a.tobytes() for a in (opt.m, opt.v)])
                   for opt in run.optimizers]
        run.states.append([run.work.theta.tobytes(), moments])

    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: run.logs.append((record.levelno, record.getMessage()))
    logger = logging.getLogger(harness.__name__)
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    stream = _Rows(ScheduleStream(spec, tiny_schedule(batches=2, batch_size=8)), bad, on_batch=snapshot)
    config = AdaptConfig(method=method, lam=lam, optimizer=optimizer, seed=0, track_diagonal=True)
    try:
        with mock.patch.object(Model, "forward", forward), mock.patch.object(losses, "augment", augment), \
                mock.patch.object(fisher, "accumulate", accumulate), \
                mock.patch.object(scheduler, "AdamState", new_adam):
            run.records = adapt_stream(run.work, stream, config)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    snapshot()
    return run


# tiny_setup's seed and widths for the checker's norm-free model, on which a
# batch times ADAM_OVERFLOW at step 2 of NORM_FREE_BAD first overflows in Adam
NORM_FREE, NORM_FREE_BAD = (2, ()), [[0.0] * 8, [0.0] * 8, [ADAM_OVERFLOW] * 8, [0.0] * 8]


def _check_skipped_and_counted(method, bad, lam=0.1, optimizer="adam", norm_free=False):
    """The one skip rule of ``adapt_stream``, over ``_Rows(bad)``: bad[k] is
    batch k as delivered, one mark per row (see ``MARKS``). Its non-finite
    rows are dropped. A batch left with fewer than the method's least rows,
    whether it arrived short or was left short, is skipped and counted
    without a forward. So is a forwarded batch with a NaN logit row, a NaN
    in its jittered copy's logits, a row that overflows a batch variance
    (``source`` keeps that batch: its fixed statistics are linear in a row),
    or a row at +-NEAR_MAX, under every method: the jitter draw, where
    there is one, may overflow first, and every forward overflows in its
    first product (see ``test_a_row_near_the_float_maximum_overflows_the_first_product``).
    With ``norm_free`` the model is the NORM_FREE one, and a batch all of
    ADAM_OVERFLOW rows, under an updating method at lam > 0 with Adam, is
    skipped after its trace fold, in Adam's second moment (calibrated on
    NORM_FREE_BAD). Every other batch, copies of one row, constant columns
    and one-hot logit rows included, is adapted on in full. A skipped batch
    writes nothing: theta, the Adam state and the running totals keep their
    bytes across it. Each skipped batch logs one warning, naming its step,
    its finite rows of those delivered and the cause; a batch adapted on
    logs no warning, and one INFO record if it dropped rows."""
    least = _least_rows(method)
    updating = method in harness.WEIGHTED_METHODS + ("uniform_tent",)
    weighted = method in harness.WEIGHTED_METHODS
    grouped = updating and lam > 0
    finite = [[mark for mark in rows if not _dropped(mark)] for rows in bad]
    delivered, kept = [len(rows) for rows in bad], [len(rows) for rows in finite]
    short = [k < least for k in kept]
    late = [not s and norm_free and grouped and optimizer == "adam" and set(rows) == {ADAM_OVERFLOW}
            for s, rows in zip(short, finite)]
    faulty = [
        not s and ("logit" in rows or "max" in rows or (grouped and "jitter" in rows) or after_fold
                   or (not norm_free and method != "source" and any(mark in OVERFLOWS for mark in rows)))
        for s, rows, after_fold in zip(short, finite, late)
    ]
    skipped = [s or f for s, f in zip(short, faulty)]
    spec, model = _pretrained(*NORM_FREE) if norm_free else _pretrained()
    run = _adapt_counting(model, spec, method, bad, lam, optimizer)
    records, layers = run.records, model.weight_layer_names()

    assert [rec.step for rec in records] == [0, 1, 2, 3]
    assert [rec.skipped for rec in records] == skipped
    assert [rec.dropped_rows for rec in records] == [n - k for n, k in zip(delivered, kept)]
    # a skipped batch's metrics and rates read NaN, not the 0.0 of a frozen layer, and it has no raw weights
    for rec, row in zip(records, metrics_csv(records, layers).splitlines()[1:]):
        if rec.skipped:
            assert row == ",".join([str(rec.step), rec.domain, str(rec.severity)] + ["nan"] * (3 + len(layers)))
            assert rec.w_raw == [] and rec.diag is None
        elif weighted:
            assert np.isfinite(rec.w_raw).all() and all(np.isfinite(d).all() for d in rec.diag.values())
    summary = summarize(records, AdaptConfig(method=method))
    assert summary["batches"] == 4
    assert summary["dropped_rows"] == sum(delivered) - sum(kept)
    assert summary["skipped_batches"] == sum(skipped)
    assert np.isfinite(summary["mean_error"]) == np.isfinite(summary["mean_entropy"]) == (not all(skipped))
    # under a consistency term a jitter draw for every batch with enough rows, which overflows only on a "max" row;
    # a forward for every batch with enough rows whose draw, if any, did not overflow first
    assert [rows for rows, _ in run.jitters] == ([k for k, s in zip(kept, short) if not s] if grouped else [])
    draws = iter(over for _, over in run.jitters)
    overflowed = [not s and grouped and next(draws) for s in short]
    assert all("max" in rows for rows, over in zip(finite, overflowed) if over)
    assert run.forwards == [k for k, s, over in zip(kept, short, overflowed) if not (s or over)]
    # a fold of the traces and of the diagonal for every batch adapted on or skipped after its fold, each reading
    # the totals that the last batch adapted on left, zeros before the first: a batch skipped after its fold
    # commits nothing. No fold writes the totals it reads, so a record's diagonal keeps the bytes of its batch's fold
    reached = [weighted and (not skip or after_fold) for skip, after_fold in zip(skipped, late)]
    assert [fold[0] for fold in run.folds] == [k for k, r in enumerate(reached) if r for _ in range(2)]
    totals = {}
    for i, (step, total, read, folded) in enumerate(run.folds):
        assert read.tobytes() == totals.get(i % 2, np.zeros_like(read)).tobytes() == total.tobytes()
        if not skipped[step]:
            totals[i % 2] = folded
        if i % 2 and not skipped[step]:
            assert np.concatenate(list(records[step].diag.values())).tobytes() == folded.tobytes()
    assert all(np.isfinite(total).all() for total in totals.values())
    # theta, the Adam state and the step count keep their bytes across a skipped batch. Theta keeps them across a
    # kept batch too, where its rates are all 0 (a weighted method while every batch adapted on so far scored 0,
    # its running traces all equal: the scaler's min-max spans nothing) or its step is 0 (one-hot logit rows and no
    # consistency term give a zero gradient, and SGD or Adam with no history a zero step); it moves across every
    # other kept batch of an updating method. The step count folds every kept batch of an updating method.
    zero_scores = [set(rows) == {"sure"} for rows in finite]
    all_zero_scores = all_zero_grads = True
    for k, skip in enumerate(skipped):  # states[k] is the state as batch k is pulled
        if skip:
            assert run.states[k] == run.states[k + 1]
            continue
        zero_grad = zero_scores[k] and not grouped
        all_zero_scores, all_zero_grads = all_zero_scores and zero_scores[k], all_zero_grads and zero_grad
        zero_step = zero_grad and (optimizer == "sgd" or all_zero_grads)
        frozen = not updating or (weighted and all_zero_scores) or zero_step
        assert (run.states[k][0] == run.states[k + 1][0]) == frozen, k
    steps = sum(not skip for skip in skipped) if updating else 0
    assert [opt.step_count for opt in run.optimizers] == ([steps] if optimizer == "adam" else [])
    assert np.isfinite(run.work.theta).all()
    for opt in run.optimizers:
        assert opt.m is None or (np.isfinite(opt.m).all() and np.isfinite(opt.v).all())
    # one warning per skipped batch, naming its step, its finite rows of those delivered and the cause, so the
    # warnings map one-to-one onto the skipped steps; a batch adapted on after dropping rows logs them at INFO
    expected = []
    for step, (n, k, s, f) in enumerate(zip(delivered, kept, short, faulty)):
        rows = re.escape(f"adapt_stream: step {step} keeps {k} finite row(s) of {n}")
        if s:
            cause = re.escape(f"too few rows, method {method!r} needs {least}")
            expected.append((logging.WARNING, rf"{rows}, skipped: {cause}"))
        elif f:
            cause = "overflow .*" if "max" in finite[step] or late[step] else r"\S.*"
            expected.append((logging.WARNING, rf"{rows}, skipped: {cause}"))
        elif k < n:
            expected.append((logging.INFO, rows))
    assert [level for level, _ in run.logs] == [level for level, _ in expected], run.logs
    assert all(re.fullmatch(pattern, text) for (_, pattern), (_, text) in zip(expected, run.logs)), run.logs
    warned = [int(text.split()[2]) for level, text in run.logs if level >= logging.WARNING]
    assert warned == [step for step, skip in enumerate(skipped) if skip]
    # a rerun over the same stream writes the same bytes
    again = _adapt_counting(model, spec, method, bad, lam, optimizer)
    assert metrics_csv(again.records, layers) == metrics_csv(records, layers)
    assert again.work.theta.tobytes() == run.work.theta.tobytes()


METHODS = ["layerwise", "naive_eq6", "uniform_tent", "bn1", "source"]
FULL, COPIES, FLAT, SURE = [0.0] * 8, ["copy"] * 8, ["flat"] * 8, ["sure"] * 8


def _examples(cases):
    """``@example(*case)`` for every case."""
    return lambda test: functools.reduce(lambda t, case: example(*case)(t), cases, test)


@settings(max_examples=60)
@given(
    st.sampled_from(METHODS),
    st.lists(st.one_of(st.lists(st.sampled_from(MARKS), min_size=8, max_size=8),
                       st.sampled_from([[np.nan] * 8, COPIES, FLAT, SURE])), min_size=4, max_size=4),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from(["adam", "sgd"]),
)
@_examples([(method, [FULL, ["logit", *FULL[1:]], FULL, FULL], lam, optimizer)
            for method, lam, optimizer in itertools.product(METHODS, (0.0, 0.1), ("adam", "sgd"))])
@_examples([(method, [FULL, ["jitter", *FULL[1:]], FULL, FULL], 0.1, "adam") for method in METHODS])
@_examples([(method, [[1e200] * 8, [1e150] * 8, FULL, [1e300, *FULL[1:]]], 0.1, "adam") for method in METHODS])
@_examples([(method, [COPIES, FLAT, FULL, COPIES], 0.1, "sgd") for method in METHODS])
@_examples([(method, [FULL, ["max"] * 8, FULL, ["max", *FULL[1:]]], 0.1, "adam") for method in METHODS])
# a batch kept after dropping a NaN row logs at INFO only; one that drops a row and then overflows warns once
@_examples([(method, [FULL, [np.nan, *FULL[1:]], FULL, FULL], lam, "adam")
            for method, lam in itertools.product(METHODS, (0.0, 0.1))])
@_examples([(method, [FULL, [np.nan, *[1e300] * 7], FULL, FULL], lam, "adam")
            for method, lam in itertools.product(METHODS, (0.0, 0.1))])
# running traces all equal (0) until a batch scores: under a weighted method theta keeps its bytes
@_examples([(method, [SURE, SURE, FULL, SURE], lam, optimizer)
            for method, lam, optimizer in itertools.product(METHODS, (0.0, 0.1), ("adam", "sgd"))])
def test_non_finite_rows_are_dropped_and_counted(method, bad, lam, optimizer):
    # 8-row batches of every mark, and whole batches of non-finite rows, copies of one row, a constant column or
    # one-hot logit rows
    _check_skipped_and_counted(method, bad, lam, optimizer)


def _norm_free_grads(method):
    """The gradients ``adapt_stream`` takes over NORM_FREE_BAD on the
    NORM_FREE model, under ``method`` at lam 0.1 with Adam, one per batch
    whose pass reaches it."""
    spec, model = _pretrained(*NORM_FREE)
    grads = []
    stream = _Rows(ScheduleStream(spec, tiny_schedule(batches=2, batch_size=8)), NORM_FREE_BAD)
    with mock.patch.object(harness, "collect_grads", lambda *args: grads.append(collect_grads(*args)) or grads[-1]):
        adapt_stream(model.clone(), stream, AdaptConfig(method=method, lam=0.1, seed=0, track_diagonal=True))
    return grads


@pytest.mark.parametrize("method", ["uniform_tent", "naive_eq6"])
def test_a_norm_free_batch_times_adam_overflow_overflows_adams_second_moment_first(method):
    # why the checker skips that batch after its trace fold: with no batch variance to overflow, its pass is finite
    # up to a gradient of about 4e158, and Adam's (1 - beta2) * grad * grad is the first product to overflow
    grad = _norm_free_grads(method)[2]
    assert np.isfinite(grad).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite((1.0 - scheduler.AdamState.BETA2) * grad * grad).all()


@pytest.mark.parametrize("method", ["uniform_tent", "naive_eq6"])
def test_a_batch_that_overflows_adam_is_skipped_and_counted(method):
    # the fold, the rates and the step run in the skip rule's errstate block, and nothing is written before its end
    _check_skipped_and_counted(method, NORM_FREE_BAD, 0.1, "adam", norm_free=True)


@settings(max_examples=60)
@given(st.sampled_from(METHODS), st.lists(st.lists(st.sampled_from(MARKS), max_size=3), min_size=4, max_size=4))
@example("source", [[0.0], [], [0.0], [0.0]])
@example("layerwise", [[0.0] * 8, [0.0] * 8, [0.0], [0.0] * 8])
@example("naive_eq6", [[0.0] * 8, [0.0] * 8, [0.0], [0.0] * 8])
@example("uniform_tent", [[0.0] * 8, [0.0] * 8, [0.0], [0.0] * 8])
@example("bn1", [[0.0] * 8, [0.0] * 8, [0.0], [0.0] * 8])
def test_batches_below_the_minimum_raise_or_are_skipped(method, bad):
    # a schedule of a delivered size is refused exactly when a batch
    # delivered at that size is skipped: the two checks share one minimum
    _, model = _pretrained()
    for rows in {len(batch) for batch in bad}:
        if rows < _least_rows(method):
            with pytest.raises(ValueError, match=rf"has {rows} row"):
                harness.check_run(method, model, rows, "schedule")
        else:
            harness.check_run(method, model, rows, "schedule")
    _check_skipped_and_counted(method, bad)


class _Listed:
    """A stream over given batches and their labels that copies ``theta``
    of ``model``, the model adapted on it, before it yields each batch after
    the first and once more at its end: ``thetas[k]`` is theta after batch k."""

    def __init__(self, batches, labels, model):
        self.batches, self.labels, self.model, self.thetas = batches, labels, model, []

    def labels_for(self, step):
        return self.labels[step]

    def __iter__(self):
        for batch in self.batches:
            if batch.step:
                self.thetas.append(self.model.theta.copy())
            yield batch
        self.thetas.append(self.model.theta.copy())


def _reference_case(hidden, dim, classes, rows, seed, nan_rows, config, scaled=()):
    """A model of ``hidden`` widths with source statistics, and a stream of
    ``rows``-row batches, batch k with ``nan_rows[k]`` NaN rows and, for k
    in ``scaled``, every row times ADAM_OVERFLOW, all drawn from ``seed``;
    with ``config``, the arguments of ``_reference_gap``."""
    rng = np.random.default_rng(seed)
    model = build_classifier(dim, hidden, classes, seed=seed)
    record_source_stats(model, rng.standard_normal((32, dim)))
    batches, labels = [], []
    for step, nans in enumerate(nan_rows):
        inputs = rng.standard_normal((rows, dim)) * 2.0 + rng.standard_normal(dim)
        inputs[rng.permutation(rows)[:nans], rng.integers(dim)] = np.nan
        inputs *= ADAM_OVERFLOW if step in scaled else 1.0
        batches.append(StreamBatch(step, f"d{step // 2}", step % 5 + 1, inputs))
        labels.append(rng.integers(classes, size=rows))
    return model, batches, labels, config


@st.composite
def _reference_cases(draw):
    """``_reference_case`` of 0-3 hidden layers of widths 1-6 (``layerwise``
    needs one), inputs of 1-6 features, 2-4 classes, 3-6 batches of 2-12
    rows, up to two of them times ADAM_OVERFLOW, and a run's settings."""
    hidden = draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    dim, classes, rows, seed = draw(st.integers(1, 6)), draw(st.integers(2, 4)), draw(st.integers(2, 12)), draw(
        st.integers(0, 2**32 - 1))
    # per batch the count of NaN rows; one left or none skips the batch under batch statistics
    nan_rows = draw(st.lists(st.one_of(st.just(0), st.integers(0, rows), st.sampled_from([rows - 1, rows])),
                             min_size=3, max_size=6))
    scaled = draw(st.sets(st.integers(0, len(nan_rows) - 1), max_size=2))
    config = AdaptConfig(
        method=draw(st.sampled_from([method for method in METHODS if hidden or method != "layerwise"])),
        lam=draw(st.sampled_from([0.0, 0.1])),
        gamma=draw(st.sampled_from([0.0, 0.5, 1.0])), tau=draw(st.sampled_from([0.0, 1.0, 2.0])),
        optimizer=draw(st.sampled_from(["adam", "sgd"])), seed=draw(st.integers(0, 3)),
        track_diagonal=draw(st.booleans()),
    )
    return _reference_case(hidden, dim, classes, rows, seed, nan_rows, config, scaled)


def _reference_gap(model, batches, labels, config) -> float:
    """Largest relative gap, over every record field and theta after each
    batch, between ``adapt_stream`` and ``reference_adapt`` on one case; a
    field that is not a float, and NaN against NaN, must match exactly."""
    ours, ref = _Listed(batches, labels, model.clone()), _Listed(batches, labels, model.clone())
    records, ref_records = adapt_stream(ours.model, ours, config), reference_adapt(ref.model, ref, config)

    def gap(got, want) -> float:
        got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        assert got.shape == want.shape and (np.isnan(got) == np.isnan(want)).all()
        diff = np.abs(got - want)[~np.isnan(want)]
        return 0.0 if not diff.any() else float(diff.max() / np.abs(want[~np.isnan(want)]).max())

    gaps = [gap(got, want) for got, want in zip(ours.thetas, ref.thetas, strict=True)]
    for rec, want in zip(records, ref_records, strict=True):
        for name in ("step", "domain", "severity", "dropped_rows", "skipped"):
            assert getattr(rec, name) == getattr(want, name), name
        assert (rec.diag is None) == (want.diag is None) and len(rec.w_raw) == len(want.w_raw)
        gaps += [gap(getattr(rec, name), getattr(want, name)) for name in ("error", "entropy", "consistency", "w_bar")]
        gaps.append(gap(rec.w_raw, want.w_raw))
        if want.diag is not None:  # the whole diagonal: a layer's share may be rounding noise on an exact zero
            assert rec.diag.keys() == want.diag.keys()
            gaps.append(gap(np.concatenate([*rec.diag.values()]), np.concatenate([*want.diag.values()])))
    return max(gaps)


# the worst gap seen is 8.3e-12 over the 2,502 cases of ``FIMTTA_PROFILE=thorough`` and 5.3e-10 over 20,000 other
# draws, a layer's raw weight: the root of a trace that is rounding noise on an exact zero is about sqrt(1e-16) of
# the largest, so the bound sits at 1e-8
REFERENCE_RTOL = 1e-8


@given(_reference_cases())  # its case count is the profile's: see tests/conftest.py
# both methods that fold traces, with a skipped batch between two kept ones at a decay that shows a fold
@_examples([(_reference_case([4, 3], 3, 3, 6, 0, [0, 6, 0, 5], AdaptConfig(method=method, gamma=0.5, seed=1)),)
            for method in harness.WEIGHTED_METHODS])
# a norm-free model whose batch 1, every row times ADAM_OVERFLOW, overflows first in Adam, after its trace fold
@_examples([(_reference_case([], 4, 3, 6, 0, [0, 0, 0, 0], AdaptConfig(method=method, gamma=0.5, seed=1), {1}),)
            for method in ("uniform_tent", "naive_eq6")])
def test_adapt_stream_matches_the_tape_reference_loop(case):
    assert _reference_gap(*case) <= REFERENCE_RTOL
