"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale experiment configuration (mixture task, corruption severity
tables, presentation order, defaults) is the one shipped in the package;
every method comparison below consumes identical streams.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import finite_diff, max_rel_err
from fimtta import fisher, losses, scheduler
from fimtta.harness import AdaptConfig, adapt_stream, run_experiment
from fimtta.model import build_classifier
from fimtta.stream import (
    DESK_KINDS,
    CorruptionSpec,
    DomainSchedule,
    ScheduleStream,
    Segment,
    SourceSpec,
    gen_source,
    make_schedule,
)
from oracle import batch_grads, layer_grads, replay_scores

SEEDS = range(5)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def continual_records(desk_setup):
    cache: dict = {}

    def get(seed: int, method: str, **overrides):
        key = (seed, method, tuple(sorted(overrides.items())))
        if key not in cache:
            spec, model, _ = desk_setup(seed)
            sched = make_schedule("continual", list(DESK_KINDS), 20, 64, seed=seed)
            cfg = AdaptConfig(method=method, seed=seed, **overrides)
            cache[key] = adapt_stream(model.clone(), ScheduleStream(spec, sched), cfg)
        return cache[key]

    return get


def _mean_error(records, severity=None) -> float:
    errs = [r.error for r in records if severity is None or r.severity == severity]
    return float(np.mean(errs))


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    hidden_menu = ([], [4], [5, 3])
    checked = 0
    for case in range(50):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        hidden = list(hidden_menu[case % 3])
        n = int(rng.integers(2, 6))
        model = build_classifier(d, hidden, c, seed=case)
        x = rng.standard_normal((n, d))
        labels = rng.integers(0, c, size=n)
        x_aug = x + 0.1 * rng.standard_normal(x.shape)
        y_const = model.forward(x)[0]

        # each loss as a function of its logits, and the batch they come from
        losses_under_test = [
            (losses.entropy_loss, x),
            (lambda y: losses.nll_loss(y, labels), x),
            (lambda y: losses.consistency_loss(y_const, y), x_aug),
        ]
        for loss_of, inputs in losses_under_test:
            grads = layer_grads(model, batch_grads(model, loss_of, inputs))

            def value():
                return loss_of(model.forward(inputs)[0])[0]

            for layer in model.weight_layers():
                for p, g in zip(layer.params, grads[layer.name]):
                    fd = finite_diff(value, p, h=1e-5)
                    assert max_rel_err(g, fd) < 1e-4
                    checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        elapsed < 30.0,
        f"3 losses x 50 models, {checked} collect_grads tensors vs central "
        f"differences at rel 1e-4, {elapsed:.1f}s",
    )


def test_criterion_02_fim_identities():
    rng = np.random.default_rng(1)
    # three blocks: the chunk loop meets a middle lower norm's lifted coupling and the first layer's closed form
    model = build_classifier(3, [4, 4, 4], 2, seed=4)
    assert max(l.param_count() for l in model.weight_layers()) <= 32
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal((int(rng.integers(4, 12)), 3))
        logits, saved = model.forward(x)
        traces, _ = fisher.layer_fim_trace(model, logits, saved)
        per = replay_scores(model, x)  # the tape's brute force shares no code with the streamed pass
        diags = fisher.fim_diagonal(per)
        for l, (name, s) in enumerate(per.items()):
            brute = float(np.trace(s.T @ s / s.shape[0]))
            diag_sum = float(diags[name].sum())
            for other in (brute, diag_sum):
                rel = abs(traces[l] - other) / max(abs(other), 1e-300)
                worst = max(worst, rel)
                assert rel < 1e-12
    _report(2, True, f"streamed trace == brute-force == diag-sum on 100 batches, worst rel {worst:.2e}")


def test_criterion_03_scaler_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    cases = 0
    for _ in range(2500):
        size = int(rng.integers(2, 12))
        w = rng.uniform(0, rng.uniform(0.5, 50), size=size)
        tau = float(rng.uniform(0.05, 3.0))

        scaled = scheduler.exp_minmax_scale(w, tau=tau)
        assert (scaled >= 0.0).all() and (scaled <= 1.0).all()
        order = np.argsort(w, kind="stable")
        assert (np.diff(scaled[order]) >= -1e-15).all()
        cases += 1

        assert np.array_equal(scheduler.exp_minmax_scale(w, tau=0.0), np.ones(size))
        cases += 1

        # interior points shrink as tau grows
        hi = scheduler.exp_minmax_scale(w, tau=tau * 2.0)
        interior = (w > w.min()) & (w < w.max())
        assert (hi[interior] <= scaled[interior] + 1e-15).all()
        cases += 1

        boosted = w.copy()
        top = int(np.argmax(boosted))
        boosted[top] *= 10.0
        out = scheduler.exp_minmax_scale(boosted, tau=tau)
        assert (out >= 0.0).all() and (out <= 1.0).all()
        rest = np.delete(np.arange(size), top)
        assert np.array_equal(
            np.argsort(w[rest], kind="stable"), np.argsort(out[rest], kind="stable")
        )
        cases += 1
    elapsed = time.perf_counter() - started
    _report(3, cases >= 10_000 and elapsed < 5.0, f"{cases} randomized cases in {elapsed:.2f}s")


def test_criterion_04_reduction_equivalence(desk_setup):
    spec, model, _ = desk_setup(0)
    eta = 5e-3
    sched_kinds = ["gaussian_noise", "contrast_scale"]

    def fresh_schedule():
        return make_schedule("continual", sched_kinds, 25, 64, seed=0)  # 50 batches

    cfg = AdaptConfig(method="layerwise", tau=0.0, lam=0.0, optimizer="sgd", eta=eta, seed=0)
    ours = model.clone()
    recs = adapt_stream(ours, ScheduleStream(spec, fresh_schedule()), cfg)
    assert len(recs) == 50

    # plain SGD on the library's batch gradients, bypassing the scheduler
    reference = model.clone()
    for batch in ScheduleStream(spec, fresh_schedule()):
        reference.theta -= eta * batch_grads(reference, losses.entropy_loss, batch.inputs)

    identical = True
    for a, b in zip(ours.weight_layers(), reference.weight_layers()):
        for pa, pb in zip(a.params, b.params):
            identical &= bool(np.array_equal(pa, pb))
    _report(4, identical, "forced all-ones weights + lambda 0 + sgd == plain uniform loop, bit-identical after 50 batches")


def test_criterion_05_frozen_layer_guarantee(desk_setup):
    spec, model, _ = desk_setup(0)
    work = model.clone()
    layers = work.weight_layers()
    frozen_index = 3  # norm2
    frozen_before = [p.copy() for p in layers[frozen_index].params]
    rates = np.full(len(layers), 5e-3)
    rates[frozen_index] = 0.0
    opt = scheduler.AdamState()
    sched = make_schedule("continual", ["gaussian_noise", "feature_blur"], 50, 64, seed=1)
    count = 0
    for batch in ScheduleStream(spec, sched):
        grad = batch_grads(work, losses.entropy_loss, batch.inputs)
        assert scheduler.weighted_step(work, grad, rates, optimizer=opt)
        count += 1
    assert count == 100
    frozen_ok = all(
        np.array_equal(p, b)
        for p, b in zip(layers[frozen_index].params, frozen_before)
    )
    others_moved = not np.array_equal(
        layers[0].params[0], model.weight_layers()[0].params[0]
    )
    _report(
        5,
        frozen_ok and others_moved,
        f"layer {layers[frozen_index].name} bit-identical over 100 batches while others moved",
    )


def test_criterion_06_desk_continual(desk_setup, continual_records):
    started = time.perf_counter()
    wins = {"source": 0, "tent": 0, "bn1": 0}
    rows = []
    for seed in SEEDS:
        _, _, accuracy = desk_setup(seed)
        assert accuracy >= 0.95
        source = _mean_error(continual_records(seed, "source"))
        bn1 = _mean_error(continual_records(seed, "bn1"))
        tent = _mean_error(continual_records(seed, "uniform_tent"))
        lw = _mean_error(continual_records(seed, "layerwise"))
        wins["source"] += lw < source
        wins["tent"] += lw <= tent
        wins["bn1"] += lw <= bn1
        rows.append(
            f"seed {seed}: source={source:.4f} bn1={bn1:.4f} tent={tent:.4f} layerwise={lw:.4f}"
        )
    elapsed = time.perf_counter() - started
    print("\n".join(rows))
    ok = wins["source"] == 5 and wins["tent"] >= 4 and wins["bn1"] >= 4 and elapsed < 120.0
    _report(
        6,
        ok,
        f"vs source {wins['source']}/5, vs uniform tent {wins['tent']}/5, "
        f"vs bn1 {wins['bn1']}/5, runtime {elapsed:.0f}s",
    )


def test_criterion_07_gradual_vs_continual(desk_setup, continual_records):
    ok_seeds = 0
    details = []
    for seed in SEEDS:
        spec, model, _ = desk_setup(seed)
        sched = make_schedule("gradual", list(DESK_KINDS), 10, 64, seed=seed)
        gradual = adapt_stream(
            model.clone(), ScheduleStream(spec, sched), AdaptConfig(seed=seed)
        )
        g5 = _mean_error(gradual, severity=5)
        c5 = _mean_error(continual_records(seed, "layerwise"), severity=5)
        ok_seeds += g5 <= c5
        details.append(f"s{seed} {g5:.4f}<={c5:.4f}")
    _report(7, ok_seeds >= 4, f"gradual severity-5 error <= continual in {ok_seeds}/5 seeds ({', '.join(details)})")


def test_criterion_08_gamma_accumulation_direction(desk_setup):
    # the decay comparison is resolution-limited at the default rate, so it
    # runs at eta = 1.5e-2 where reactivity to single-batch traces is costly
    eta = 1.5e-2
    full, none = [], []
    for seed in SEEDS:
        spec, model, _ = desk_setup(seed)
        for gamma, sink in ((1.0, full), (0.0, none)):
            sched = make_schedule("continual", list(DESK_KINDS), 20, 64, seed=seed)
            recs = adapt_stream(
                model.clone(),
                ScheduleStream(spec, sched),
                AdaptConfig(seed=seed, eta=eta, gamma=gamma),
            )
            sink.append(_mean_error(recs))
    mean_full, mean_none = float(np.mean(full)), float(np.mean(none))
    _report(
        8,
        mean_full <= mean_none,
        f"accumulated traces {mean_full:.4f} <= batch-level traces {mean_none:.4f} (5-seed mean, eta {eta})",
    )


def test_criterion_09_determinism(desk_setup, tmp_path):
    spec, model, _ = desk_setup(0)
    outputs = []
    for name in ("first", "second"):
        sched = make_schedule("continual", list(DESK_KINDS), 20, 64, seed=0)
        result = run_experiment(
            model, spec, sched, AdaptConfig(seed=0), tmp_path / name, tag="det"
        )
        outputs.append(
            (result.csv_path.read_bytes(), result.weights_path.read_bytes())
        )
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    _report(9, ok, "two identical-config runs produced byte-identical CSV and dumps")


def test_criterion_10_weight_distribution_signature(desk_setup):
    # per-domain measurement from the pretrained model, one single-domain
    # severity-5 stream per kind (the supplementary-style protocol)
    def segment_com(seed: int, kind: str) -> float:
        spec, model, _ = desk_setup(seed)
        sched = DomainSchedule(
            "continual", [Segment(CorruptionSpec(kind, 5), 20)], 64, seed=seed
        )
        recs = adapt_stream(
            model.clone(), ScheduleStream(spec, sched), AdaptConfig(seed=seed)
        )
        coms = []
        for rec in recs:
            w_bar = np.asarray(rec.w_bar)
            idx = np.arange(1, w_bar.size + 1)
            coms.append(float((idx * w_bar).sum() / w_bar.sum()))
        return float(np.mean(coms))

    blur = [segment_com(seed, "feature_blur") for seed in SEEDS]
    noise = [segment_com(seed, "gaussian_noise") for seed in SEEDS]
    mean_blur, mean_noise = float(np.mean(blur)), float(np.mean(noise))
    _report(
        10,
        mean_blur < mean_noise,
        f"blur weight center-of-mass {mean_blur:.3f} < noise {mean_noise:.3f} (5-seed mean)",
    )
