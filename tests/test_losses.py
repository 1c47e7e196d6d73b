from __future__ import annotations

import numpy as np
import pytest

from conftest import finite_diff, max_rel_err
from fimtta import autodiff as ad
from fimtta.losses import LossConfig, augment, consistency_loss, entropy_loss, nll_loss, total_loss
from fimtta.model import build_classifier
from oracle import tape_forward


def test_entropy_of_uniform_logits_is_log_c():
    logits = ad.constant(np.zeros((4, 3)))
    assert entropy_loss(logits).item() == pytest.approx(np.log(3.0), rel=1e-12)


def test_entropy_of_saturated_logits_is_tiny():
    logits = np.full((5, 4), -30.0)
    logits[:, 2] = 30.0
    assert entropy_loss(ad.constant(logits)).item() < 1e-9


def test_entropy_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 5))
    shifted = logits + rng.standard_normal((6, 1))
    a = entropy_loss(ad.constant(logits)).item()
    b = entropy_loss(ad.constant(shifted)).item()
    assert a == pytest.approx(b, rel=1e-12)


def test_entropy_bounded_by_log_c():
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = rng.integers(2, 6)
        logits = ad.constant(rng.standard_normal((4, c)) * rng.uniform(0.1, 20))
        val = entropy_loss(logits).item()
        assert 0.0 <= val <= np.log(c) + 1e-12


def test_entropy_rejects_single_class():
    with pytest.raises(ValueError, match="C>=2"):
        entropy_loss(ad.constant(np.zeros((3, 1))))


def test_consistency_vanishes_when_pseudo_labels_saturate_negative():
    y = ad.constant(np.full((3, 4), -40.0))
    yhat = ad.constant(np.random.default_rng(0).standard_normal((3, 4)))
    assert consistency_loss(y, yhat).item() < 1e-12


def test_consistency_is_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = ad.constant(rng.standard_normal((5, 3)) * 5)
        yhat = ad.constant(rng.standard_normal((5, 3)) * 5)
        assert consistency_loss(y, yhat).item() >= 0.0
        assert consistency_loss(y, yhat, kind="softmax").item() >= 0.0


def test_consistency_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    m = build_classifier(4, [6], 3, seed=9)
    x = rng.standard_normal((5, 4))
    x_aug = x + 0.1 * rng.standard_normal(x.shape)
    y_const = tape_forward(m, x).data.copy()  # pseudo-label branch held fixed
    params = [p for layer in m.weight_layers() for p in layer.params]
    for kind in ("sigmoid", "softmax"):
        def value():
            return consistency_loss(
                ad.constant(y_const), tape_forward(m, x_aug), kind=kind
            ).item()

        loss = consistency_loss(ad.constant(y_const), tape_forward(m, x_aug), kind=kind)
        grads = ad.grads_of(loss, params)
        for p, g in zip(params, grads):
            assert max_rel_err(g, finite_diff(value, p.data)) < 1e-4


def test_consistency_gradient_wrt_pseudo_label_is_zero():
    rng = np.random.default_rng(4)
    y = ad.param(rng.standard_normal((4, 3)))
    yhat = ad.param(rng.standard_normal((4, 3)))
    loss = consistency_loss(y, yhat)
    grads = ad.grads_of(loss, [y, yhat])
    assert np.array_equal(grads[0], np.zeros((4, 3)))
    assert not np.array_equal(grads[1], np.zeros((4, 3)))


def test_consistency_shape_mismatch_rejected():
    with pytest.raises(ad.ShapeError, match="consistency"):
        consistency_loss(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 4))))


def test_total_loss_with_zero_lambda_is_exactly_entropy():
    rng = np.random.default_rng(5)
    logits = ad.constant(rng.standard_normal((6, 3)))
    aug = ad.constant(rng.standard_normal((6, 3)))
    assert total_loss(logits, aug, lam=0.0).item() == entropy_loss(logits).item()


def test_total_loss_with_saturated_negative_pseudo_labels_is_entropy():
    logits = ad.constant(np.full((3, 3), -45.0))
    aug = ad.constant(np.random.default_rng(1).standard_normal((3, 3)))
    total = total_loss(logits, aug, lam=1.0).item()
    assert total == pytest.approx(entropy_loss(logits).item(), abs=1e-12)


def test_total_loss_affine_in_lambda():
    rng = np.random.default_rng(6)
    logits = ad.constant(rng.standard_normal((5, 4)))
    aug = ad.constant(rng.standard_normal((5, 4)))
    l0 = total_loss(logits, aug, lam=0.0).item()
    l1 = total_loss(logits, aug, lam=0.7).item()
    l2 = total_loss(logits, aug, lam=1.4).item()
    assert (l2 - l0) == pytest.approx(2.0 * (l1 - l0), rel=1e-10)


def test_total_gradient_is_entropy_plus_lambda_consistency():
    rng = np.random.default_rng(7)
    m = build_classifier(3, [5], 3, seed=4)
    x = rng.standard_normal((6, 3))
    x_aug = x + 0.05 * rng.standard_normal(x.shape)
    params = [p for layer in m.weight_layers() for p in layer.params]
    lam = 0.4

    logits = tape_forward(m, x)
    total = total_loss(logits, tape_forward(m, x_aug), lam=lam)
    total_grads = ad.grads_of(total, params)

    ent_grads = ad.grads_of(entropy_loss(tape_forward(m, x)), params)
    y_const = tape_forward(m, x).data.copy()
    cons_grads = ad.grads_of(
        consistency_loss(ad.constant(y_const), tape_forward(m, x_aug)), params
    )
    for tg, eg, cg in zip(total_grads, ent_grads, cons_grads):
        assert np.allclose(tg, eg + lam * cg, rtol=1e-12, atol=1e-14)


def test_augment_identity_when_disabled():
    cfg = LossConfig(noise_scale=0.0, feature_scaling=False)
    x = np.random.default_rng(0).standard_normal((4, 3))
    out = augment(x, np.random.default_rng(1), cfg)
    assert np.array_equal(out, x)
    assert out is not x  # caller may mutate without aliasing the stream batch


def test_augment_deterministic_under_seed():
    cfg = LossConfig()
    x = np.random.default_rng(0).standard_normal((8, 5))
    a = augment(x, np.random.default_rng(42), cfg)
    b = augment(x, np.random.default_rng(42), cfg)
    assert np.array_equal(a, b)


def test_augment_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        augment(np.zeros((0, 3)), np.random.default_rng(0), LossConfig())


def test_augment_jitter_is_unbiased_monte_carlo():
    # N = 1e5 draws of a fixed row; mean drift within 3 sigma / sqrt(N)
    cfg = LossConfig(noise_scale=0.2)
    rng = np.random.default_rng(123)
    x = np.tile(np.array([0.5, -1.5, 2.0, 0.0]), (100_000, 1))
    out = augment(x, rng, cfg)
    drift = out - x
    bound = 3.0 * drift.std(axis=0) / np.sqrt(drift.shape[0])
    assert (np.abs(drift.mean(axis=0)) < bound).all()


def test_nll_uniform_logits_is_log_c():
    logits = ad.constant(np.zeros((6, 4)))
    labels = np.array([0, 1, 2, 3, 0, 1])
    assert nll_loss(logits, labels).item() == pytest.approx(np.log(4.0), rel=1e-12)


def test_nll_saturated_correct_class_is_near_zero():
    logits = np.full((4, 3), -30.0)
    labels = np.array([0, 1, 2, 1])
    logits[np.arange(4), labels] = 30.0
    assert nll_loss(ad.constant(logits), labels).item() < 1e-9


def test_nll_equals_one_hot_cross_entropy():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    ours = nll_loss(ad.constant(logits), labels).item()
    ls = ad.log_softmax(ad.constant(logits)).data
    onehot = np.eye(3)[labels]
    assert ours == pytest.approx(-(onehot * ls).sum() / 5, rel=1e-12)


def test_nll_rejects_out_of_range_labels():
    logits = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="labels"):
        nll_loss(logits, np.array([0, 3]))
    with pytest.raises(ValueError, match="labels"):
        nll_loss(logits, np.array([-1, 1]))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError):
        LossConfig(consistency_kind="tanh")


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    m = build_classifier(3, [4], 3, seed=2)
    x = rng.standard_normal((5, 3))
    params = [p for layer in m.weight_layers() for p in layer.params]

    def value():
        return entropy_loss(tape_forward(m, x)).item()

    grads = ad.grads_of(entropy_loss(tape_forward(m, x)), params)
    for p, g in zip(params, grads):
        assert max_rel_err(g, finite_diff(value, p.data)) < 1e-4


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    m = build_classifier(4, [5], 3, seed=6)
    x = rng.standard_normal((6, 4))
    labels = rng.integers(0, 3, size=6)
    params = [p for layer in m.weight_layers() for p in layer.params]

    def value():
        return nll_loss(tape_forward(m, x), labels).item()

    grads = ad.grads_of(nll_loss(tape_forward(m, x), labels), params)
    for p, g in zip(params, grads):
        assert max_rel_err(g, finite_diff(value, p.data)) < 1e-4
