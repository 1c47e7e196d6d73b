from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimtta.losses import entropy_loss
from fimtta.model import build_classifier
from fimtta.scheduler import EPSILON, AdamState, exp_minmax_scale, layer_rates, weighted_step
from oracle import batch_grads, layer_grads, param_snapshot


def test_linear_minmax_with_vanishing_eps():
    out = exp_minmax_scale([0.0, 1.0, 2.0], tau=1.0)
    assert np.array_equal(out, np.array([0.0, 1.0, 2.0]) / (2.0 + EPSILON))


def test_squared_minmax_with_vanishing_eps():
    out = exp_minmax_scale([0.0, 1.0, 2.0], tau=2.0)
    assert np.array_equal(out, (np.array([0.0, 1.0, 2.0]) / (2.0 + EPSILON)) ** 2)


def test_constant_weights_collapse_to_zero_or_one():
    for tau in (0.5, 1.0, 2.0):
        assert np.array_equal(exp_minmax_scale([5.0, 5.0, 5.0], tau=tau), np.zeros(3))
    assert np.array_equal(exp_minmax_scale([5.0, 5.0, 5.0], tau=0.0), np.ones(3))


def test_tau_zero_gives_all_ones():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.uniform(0, 10, size=rng.integers(2, 9))
        assert np.array_equal(exp_minmax_scale(w, tau=0.0), np.ones(w.size))
    with np.errstate(invalid="ignore"):  # x ** 0.0 is 1.0 whatever x is
        for w in ([np.nan, 1.0], [np.inf, -np.inf, 2.0], [0.0, np.inf]):
            assert np.array_equal(exp_minmax_scale(w, tau=0.0), np.ones(len(w)))


def test_scaler_rejects_single_layer_and_bad_params():
    with pytest.raises(ValueError, match=">= 2 layers"):
        exp_minmax_scale([1.0], tau=1.0)
    with pytest.raises(ValueError, match="tau"):
        exp_minmax_scale([1.0, 2.0], tau=-0.5)


def test_scaled_weights_bounded_and_rank_preserving():
    rng = np.random.default_rng(1)
    for _ in range(300):
        w = rng.uniform(0, 50, size=rng.integers(2, 12))
        tau = float(rng.uniform(0.1, 3.0))
        out = exp_minmax_scale(w, tau=tau)
        assert (out >= 0.0).all() and (out <= 1.0).all()
        order = np.argsort(w, kind="stable")
        sorted_out = out[order]
        assert (np.diff(sorted_out) >= -1e-15).all()
        assert np.argmax(w) == np.argmax(out) or w[np.argmax(w)] == w[np.argmax(out)]


def test_max_weight_approaches_one_as_eps_vanishes():
    out = exp_minmax_scale(np.array([1.0, 3.0, 7.0]), tau=1.0)
    assert out.max() == 6.0 / (6.0 + EPSILON)
    assert 1.0 - 1e-8 < out.max() < 1.0


def test_interior_points_shrink_as_tau_grows():
    w = np.array([0.0, 2.0, 5.0, 10.0])
    taus = [0.25, 0.5, 1.0, 2.0, 4.0]
    scaled = [exp_minmax_scale(w, tau=t) for t in taus]
    for a, b in zip(scaled, scaled[1:]):
        assert (b[1:3] <= a[1:3] + 1e-15).all()


def test_tenfold_outlier_keeps_bounds_and_other_rankings():
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = rng.uniform(0, 5, size=6)
        boosted = w.copy()
        boosted[np.argmax(w)] *= 10.0
        out = exp_minmax_scale(boosted, tau=1.0)
        assert (out >= 0.0).all() and (out <= 1.0).all()
        others = np.delete(np.arange(6), np.argmax(w))
        assert np.array_equal(
            np.argsort(w[others], kind="stable"),
            np.argsort(out[others], kind="stable"),
        )


def test_layer_rates_scales_by_eta():
    assert np.allclose(
        layer_rates([0.0, 0.5, 1.0], eta=1e-3), [0.0, 5e-4, 1e-3], atol=0
    )


def test_uniform_weights_give_uniform_rates():
    assert np.array_equal(layer_rates(np.ones(4), eta=2e-3), np.full(4, 2e-3))


def test_naive_unscaled_weights_may_exceed_eta():
    rates = layer_rates([0.5, 3.0, 12.0], eta=1e-3)
    assert rates[2] > 1e-3  # unbounded raw weights break the eta ceiling


def test_layer_rates_rejects_nonpositive_eta():
    with pytest.raises(ValueError, match="base rate"):
        layer_rates([1.0], eta=0.0)


def _grads_for(model, rng):
    return batch_grads(model, entropy_loss, rng.standard_normal((6, model.input_dim)))


def test_uniform_rates_equal_plain_sgd_bit_for_bit():
    rng = np.random.default_rng(3)
    m = build_classifier(3, [4], 2, seed=1)
    ref = m.clone()
    grad = _grads_for(m, np.random.default_rng(10))
    eta = 1e-2
    assert weighted_step(m, grad, np.full(3, eta))
    per_layer = layer_grads(m, grad)
    for layer in ref.weight_layers():
        for p, g in zip(layer.params, per_layer[layer.name]):
            p -= eta * g
    for a, b in zip(m.weight_layers(), ref.weight_layers()):
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)


def test_zero_rate_layer_is_bit_identical():
    m = build_classifier(3, [4], 2, seed=2)
    frozen_before = [p.copy() for p in m.weight_layers()[1].params]
    for opt in (None, AdamState()):
        work = m.clone()
        for step in range(3):
            grad = _grads_for(work, np.random.default_rng(step))
            assert weighted_step(work, grad, [1e-2, 0.0, 1e-2], optimizer=opt)
        for p, b in zip(work.weight_layers()[1].params, frozen_before):
            assert np.array_equal(p, b)


def test_sequential_disjoint_steps_equal_joint_step():
    # fixed gradients on a linear stack: stepping layers one at a time with
    # rate r equals one step moving them all, since layers are disjoint
    seq = build_classifier(3, [2], 2, seed=6)
    joint = seq.clone()
    fixed = np.random.default_rng(7).standard_normal(seq.theta.size)
    r = 0.05
    weighted_step(seq, fixed, [r, 0.0, 0.0])
    weighted_step(seq, fixed, [0.0, r, 0.0])
    weighted_step(seq, fixed, [0.0, 0.0, r])
    weighted_step(joint, fixed, [r, r, r])
    for a, b in zip(seq.weight_layers(), joint.weight_layers()):
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)


def test_nan_gradient_rejects_step_and_logs(caplog):
    m = build_classifier(3, [4], 2, seed=3)
    before = param_snapshot(m)
    grad = _grads_for(m, np.random.default_rng(0))
    layer_grads(m, grad)["norm1"][0][1] = np.nan
    with caplog.at_level(logging.WARNING):
        applied = weighted_step(m, grad, np.full(3, 1e-2))
    assert not applied
    assert "non-finite gradient in layers ['norm1']; step rejected" in caplog.text
    after = param_snapshot(m)
    for name in before:
        for a, b in zip(before[name], after[name]):
            assert np.array_equal(a, b)


def test_inf_gradient_rejected_before_adam_moments_change():
    m = build_classifier(3, [4], 2, seed=3)
    opt = AdamState()
    grad = _grads_for(m, np.random.default_rng(0))
    layer_grads(m, grad)["head"][1][0] = np.inf
    assert not weighted_step(m, grad, np.full(3, 1e-2), optimizer=opt)
    assert opt.step_count == 0 and opt.m is None and opt.v is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("use_adam", [True, False])
def test_non_finite_rate_rejected_before_any_write(bad, use_adam, caplog):
    m = build_classifier(3, [4], 2, seed=3)
    before = param_snapshot(m)
    opt = AdamState() if use_adam else None
    grad = _grads_for(m, np.random.default_rng(0))
    rates = np.full(3, 1e-2)
    rates[1] = bad
    with caplog.at_level(logging.WARNING):
        assert not weighted_step(m, grad, rates, optimizer=opt)
    assert "non-finite rates" in caplog.text
    if use_adam:
        assert opt.step_count == 0 and opt.m is None and opt.v is None
    for name, params in param_snapshot(m).items():
        for a, b in zip(params, before[name]):
            assert np.array_equal(a, b)


def test_rate_count_mismatch_rejected():
    m = build_classifier(3, [4], 2, seed=3)
    grad = _grads_for(m, np.random.default_rng(0))
    with pytest.raises(ValueError, match="expected 3 rates"):
        weighted_step(m, grad, [1e-2, 1e-2])
    with pytest.raises(ValueError, match="gradient"):
        weighted_step(m, grad[:-1], np.full(3, 1e-2))


def test_adam_matches_reference_implementation():
    # per-tensor Adam in the operation order of the update, against the
    # flat step over the whole parameter vector: equal bit for bit,
    # zero-rate layer included
    m = build_classifier(2, [3], 2, seed=9)
    ref = {
        (layer.name, i): p.copy()
        for layer in m.weight_layers()
        for i, p in enumerate(layer.params)
    }
    mom = {k: np.zeros_like(v) for k, v in ref.items()}
    vel = {k: np.zeros_like(v) for k, v in ref.items()}
    opt = AdamState()
    b1, b2 = 0.9, 0.999
    for t in range(1, 8):
        rates = [2e-3, 1e-3, 5e-4] if t % 3 else [2e-3, 0.0, 5e-4]
        grad = _grads_for(m, np.random.default_rng(100 + t))
        per_layer = layer_grads(m, grad)
        grad_map = {
            (layer.name, i): g.copy()
            for layer in m.weight_layers()
            for i, g in enumerate(per_layer[layer.name])
        }
        assert weighted_step(m, grad, rates, optimizer=opt)
        for li, layer in enumerate(m.weight_layers()):
            for i in range(len(layer.params)):
                key = (layer.name, i)
                g = grad_map[key]
                mom[key] = b1 * mom[key] + (1.0 - b1) * g
                vel[key] = b2 * vel[key] + (1.0 - b2) * g * g
                m_hat = mom[key] / (1.0 - b1**t)
                v_hat = vel[key] / (1.0 - b2**t)
                if rates[li] != 0.0:
                    ref[key] -= rates[li] * (m_hat / (np.sqrt(v_hat) + 1e-8))
    for layer in m.weight_layers():
        for i, p in enumerate(layer.params):
            assert np.array_equal(p, ref[(layer.name, i)])


@st.composite
def step_sequences(draw):
    """A small model, an optimizer kind and a sequence of (gradient, rates)
    steps, some of them carrying non-finite values."""
    hidden = draw(st.sampled_from([[], [3], [4, 2]]))
    layers = 1 + 2 * len(hidden)
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        rates = draw(st.lists(st.sampled_from([0.0, 1e-3, 5e-2, 0.5]), min_size=layers, max_size=layers))
        poison = draw(st.sampled_from([None, "grad", "rate"]))
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        steps.append((draw(st.integers(0, 2**32 - 1)), rates, poison, bad))
    return hidden, draw(st.booleans()), steps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(step_sequences())
def test_steps_keep_state_finite_and_rejections_write_nothing(case):
    hidden, use_adam, steps = case
    model = build_classifier(3, hidden, 2, seed=0)
    # negative zeros: a zero-rate update that subtracts 0 * direction flips them
    model.theta[np.random.default_rng(len(steps)).random(model.theta.size) < 0.3] = -0.0
    opt = AdamState() if use_adam else None
    for seed, rates, poison, bad in steps:
        rng = np.random.default_rng(seed)
        grad = rng.standard_normal(model.theta.size) * rng.choice([1e-3, 1.0, 1e3])
        rates = np.array(rates)
        if poison == "grad":  # any layer's, zero-rate ones included
            grad[rng.integers(grad.size)] = bad
        elif poison == "rate":
            rates[rng.integers(rates.size)] = bad
        rejected = poison is not None
        before = _state(model, opt)
        assert weighted_step(model, grad, rates, optimizer=opt) == (not rejected)
        after = _state(model, opt)
        if rejected:
            assert _bits(after) == _bits(before)
        # zero-rate layers keep their parameters bit for bit
        for layer, rate in zip(model.weight_layers(), rates):
            if rate == 0.0:
                cols = model.slices[layer.name]
                assert after[0][cols].tobytes() == before[0][cols].tobytes()
        assert np.isfinite(model.theta).all()
        if opt is not None and opt.m is not None:
            assert np.isfinite(opt.m).all() and np.isfinite(opt.v).all()


@pytest.mark.parametrize("use_adam", [False, True])
def test_nonzero_rates_write_the_bytes_of_the_masked_subtraction(use_adam):
    # with no zero rate the step subtracts unmasked; it must write what the
    # masked subtraction writes, negative zeros in theta and gradient included
    model = build_classifier(3, [4, 5], 2, seed=1)
    rng = np.random.default_rng(7)
    model.theta[rng.random(model.theta.size) < 0.3] = -0.0
    opt, ref_opt = (AdamState(), AdamState()) if use_adam else (None, None)
    for scale in (1e-3, 1.0, 1e3):
        grad = rng.standard_normal(model.theta.size) * scale
        grad[rng.random(grad.size) < 0.2] = -0.0
        rates = rng.uniform(1e-4, 0.5, len(model.slices))
        want = model.theta.copy()
        direction = grad if ref_opt is None else ref_opt.update(grad)
        rate = np.repeat(rates, [cols.stop - cols.start for cols in model.slices.values()])
        np.subtract(want, rate * direction, out=want, where=rate != 0.0)
        assert weighted_step(model, grad, rates, optimizer=opt)
        assert model.theta.tobytes() == want.tobytes()


def _state(model, opt):
    """Copies of everything a step may write: theta, and Adam's m, v and step count."""
    if opt is None:
        return [model.theta.copy()]
    copies = [None if a is None else a.copy() for a in (opt.m, opt.v)]
    return [model.theta.copy(), *copies, opt.step_count]


def _bits(state):
    return [a if a is None or isinstance(a, int) else a.tobytes() for a in state]
