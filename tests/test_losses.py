from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autodiff as ad
from conftest import finite_diff, max_rel_err
from fimtta import harness
from fimtta.harness import AdaptConfig, adapt_stream, collect_grads
from fimtta.losses import augment, consistency_loss, entropy_loss, nll_loss
from fimtta.model import ShapeError, build_classifier
from fimtta.stream import ScheduleStream, SourceSpec, make_schedule
from oracle import tape_consistency_loss, tape_entropy_loss, tape_nll_loss


def test_entropy_of_uniform_logits_is_log_c():
    assert entropy_loss(np.zeros((4, 3)))[0] == pytest.approx(np.log(3.0), rel=1e-12)


def test_entropy_of_saturated_logits_is_tiny():
    logits = np.full((5, 4), -30.0)
    logits[:, 2] = 30.0
    assert entropy_loss(logits)[0] < 1e-9


def test_entropy_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 5))
    shifted = logits + rng.standard_normal((6, 1))
    (a, ga), (b, gb) = entropy_loss(logits), entropy_loss(shifted)
    assert a == pytest.approx(b, rel=1e-12)
    assert np.allclose(ga, gb, rtol=1e-10, atol=1e-14)


def test_entropy_bounded_by_log_c():
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = rng.integers(2, 6)
        val, _ = entropy_loss(rng.standard_normal((4, c)) * rng.uniform(0.1, 20))
        assert 0.0 <= val <= np.log(c) + 1e-12


def test_entropy_rejects_single_class():
    with pytest.raises(ValueError, match="C>=2"):
        entropy_loss(np.zeros((3, 1)))


def test_consistency_vanishes_when_pseudo_labels_saturate_negative():
    y = np.full((3, 4), -40.0)
    yhat = np.random.default_rng(0).standard_normal((3, 4))
    assert consistency_loss(y, yhat)[0] < 1e-12


def test_consistency_is_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = rng.standard_normal((5, 3)) * 5
        yhat = rng.standard_normal((5, 3)) * 5
        assert consistency_loss(y, yhat)[0] >= 0.0


def _model_and_batch(rng, input_dim, hidden, n, seed):
    return build_classifier(input_dim, hidden, 3, seed=seed), rng.standard_normal((n, input_dim))


def test_consistency_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    m, x = _model_and_batch(rng, 4, [6], 5, seed=9)
    x_aug = x + 0.1 * rng.standard_normal(x.shape)
    y_const = m.forward(x)[0]  # pseudo-label branch held fixed
    y_aug = m.forward(x_aug)[0]
    _, g = consistency_loss(y_const, y_aug)
    fd = finite_diff(lambda: consistency_loss(y_const, y_aug)[0], y_aug)
    assert max_rel_err(g, fd) < 1e-4


def test_consistency_gradient_wrt_pseudo_label_is_zero():
    # the tape oracle differentiates both inputs: the clean one gets exactly
    # nothing, the augmented one what the closed form returns
    rng = np.random.default_rng(4)
    y = ad.param(rng.standard_normal((4, 3)))
    yhat = ad.param(rng.standard_normal((4, 3)))
    grads = ad.grads_of(tape_consistency_loss(y, yhat), [y, yhat])
    assert np.array_equal(grads[0], np.zeros((4, 3)))
    _, g = consistency_loss(y.data, yhat.data)
    assert not np.array_equal(g, np.zeros((4, 3)))
    assert np.allclose(g, grads[1], rtol=1e-12, atol=1e-15)


def test_consistency_gradient_keeps_relative_accuracy_where_sigmoid_rounds_to_one():
    # 1 - sigmoid(zh) taken as a difference lost all its digits by zh = 40
    z = np.tile([20.0, 30.0, 40.0, 200.0], (3, 1))
    _, g = consistency_loss(z, z)
    expected = -1.0 / (1.0 + np.exp(-z)) / (3 * (1.0 + np.exp(z)))
    assert np.abs(g / expected - 1.0).max() <= 1e-12


def test_consistency_shape_mismatch_rejected():
    with pytest.raises(ShapeError, match="consistency"):
        consistency_loss(np.zeros((2, 3)), np.zeros((2, 4)))


def _tiny_stream():
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    return ScheduleStream(spec, make_schedule("continual", ["contrast_scale", "gaussian_noise"], 1, 16, seed=0))


def _first_update_cotangents(monkeypatch, **overrides):
    """The logit cotangents the loop hands collect_grads on batch 0, one per
    group of its forward."""
    seen = []
    real = harness.collect_grads

    def capture(model, saved, g):
        if not seen:
            seen.append(list(g.copy()) if g.ndim == 3 else [g.copy()])
        return real(model, saved, g)

    monkeypatch.setattr(harness, "collect_grads", capture)
    cfg = AdaptConfig(method="uniform_tent", seed=0, **overrides)
    adapt_stream(build_classifier(6, [8], 3, seed=0), _tiny_stream(), cfg)
    return seen[0]


def test_total_loss_with_zero_lambda_is_exactly_entropy(monkeypatch):
    # lambda 0: one group, whose cotangent is entropy's; consistency is never taken
    monkeypatch.setattr(harness.losses, "consistency_loss", None)
    (g,) = _first_update_cotangents(monkeypatch, lam=0.0)
    logits, _ = build_classifier(6, [8], 3, seed=0).forward(next(iter(_tiny_stream())).inputs)
    assert np.array_equal(g, entropy_loss(logits)[1])


def test_total_loss_with_saturated_negative_pseudo_labels_is_entropy():
    # the consistency term and its gradient vanish, leaving entropy alone
    logits = np.full((3, 3), -45.0)
    aug = np.random.default_rng(1).standard_normal((3, 3))
    value, g = consistency_loss(logits, aug)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(g).max() < 1e-12


def test_total_loss_affine_in_lambda(monkeypatch):
    # the loop weighs the augmented group's cotangent by lambda, the clean
    # group carries entropy alone
    small = _first_update_cotangents(monkeypatch, lam=0.7)
    large = _first_update_cotangents(monkeypatch, lam=1.4)
    assert len(small) == len(large) == 2
    assert np.array_equal(small[0], large[0])
    assert np.allclose(large[1], 2.0 * small[1], rtol=1e-12, atol=0)


def test_total_gradient_is_entropy_plus_lambda_consistency():
    rng = np.random.default_rng(7)
    m = build_classifier(3, [5], 3, seed=4)
    x = rng.standard_normal((6, 3))
    x_aug = x + 0.05 * rng.standard_normal(x.shape)
    lam = 0.4
    (y, saved), (y_aug, saved_aug) = m.forward(x), m.forward(x_aug)
    g_ent = entropy_loss(y)[1]
    g_cons = consistency_loss(y, y_aug)[1]

    # one grouped pass over the clean and jittered batches, as the loop runs it
    total = collect_grads(m, m.forward(np.stack([x, x_aug]))[1], np.stack([g_ent, lam * g_cons]))
    ent = collect_grads(m, saved, g_ent.copy())
    cons = collect_grads(m, saved_aug, g_cons.copy())
    assert np.allclose(total, ent + lam * cons, rtol=1e-12, atol=1e-14)


@st.composite
def logit_cases(draw):
    n = draw(st.integers(2, 40))
    c = draw(st.integers(2, 11))
    spread = draw(st.sampled_from([0.1, 1.0, 5.0, 30.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, c)) * spread, rng.standard_normal((n, c)) * spread, rng.integers(0, c, size=n)


@settings(max_examples=100)
@given(logit_cases())
def test_closed_form_heads_match_tape_heads(case):
    z, zh, labels = case
    leaf, aug_leaf = ad.param(z), ad.param(zh)
    pairs = [
        (entropy_loss(z), tape_entropy_loss(leaf), leaf),
        (nll_loss(z, labels), tape_nll_loss(leaf, labels), leaf),
        (consistency_loss(z, zh), tape_consistency_loss(leaf, aug_leaf), aug_leaf),
    ]
    for (value, g), tape_loss, wrt in pairs:
        (ref,) = ad.grads_of(tape_loss, [wrt])
        assert value == pytest.approx(tape_loss.item(), rel=1e-12, abs=1e-300)
        assert np.abs(g - ref).max() <= 1e-12 * max(float(np.abs(ref).max()), 1e-300)


def test_augment_deterministic_under_seed():
    x = np.random.default_rng(0).standard_normal((8, 5))
    a = augment(x, np.random.default_rng(42))
    b = augment(x, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_augment_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        augment(np.zeros((0, 3)), np.random.default_rng(0))


def test_augment_jitter_is_unbiased_monte_carlo():
    # N = 1e5 draws of a fixed row; mean drift within 3 sigma / sqrt(N)
    rng = np.random.default_rng(123)
    x = np.tile(np.array([0.5, -1.5, 2.0, 0.0]), (100_000, 1))
    out = augment(x, rng)
    drift = out - x
    bound = 3.0 * drift.std(axis=0) / np.sqrt(drift.shape[0])
    assert (np.abs(drift.mean(axis=0)) < bound).all()


def test_nll_uniform_logits_is_log_c():
    labels = np.array([0, 1, 2, 3, 0, 1])
    assert nll_loss(np.zeros((6, 4)), labels)[0] == pytest.approx(np.log(4.0), rel=1e-12)


def test_nll_saturated_correct_class_is_near_zero():
    logits = np.full((4, 3), -30.0)
    labels = np.array([0, 1, 2, 1])
    logits[np.arange(4), labels] = 30.0
    assert nll_loss(logits, labels)[0] < 1e-9


def test_nll_equals_one_hot_cross_entropy():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    ours, g = nll_loss(logits, labels)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    onehot = np.eye(3)[labels]
    assert ours == pytest.approx(-(onehot * np.log(probs)).sum() / 5, rel=1e-12)
    assert np.allclose(g, (probs - onehot) / 5, rtol=1e-12, atol=1e-15)


def test_nll_rejects_out_of_range_labels():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError, match="labels"):
        nll_loss(logits, np.array([0, 3]))
    with pytest.raises(ValueError, match="labels"):
        nll_loss(logits, np.array([-1, 1]))


def test_loss_config_validation():
    # the loop's lambda is checked when the config is built
    with pytest.raises(ValueError, match="lam"):
        AdaptConfig(lam=-0.1)


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    m, x = _model_and_batch(rng, 3, [4], 5, seed=2)
    logits = m.forward(x)[0]
    _, g = entropy_loss(logits)
    assert max_rel_err(g, finite_diff(lambda: entropy_loss(logits)[0], logits)) < 1e-4


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    m, x = _model_and_batch(rng, 4, [5], 6, seed=6)
    labels = rng.integers(0, 3, size=6)
    logits = m.forward(x)[0]
    _, g = nll_loss(logits, labels)
    assert max_rel_err(g, finite_diff(lambda: nll_loss(logits, labels)[0], logits)) < 1e-4
