from __future__ import annotations

import numpy as np
import pytest

from conftest import finite_diff, max_rel_err
import autodiff as ad


def _p(rng, *shape):
    return ad.param(rng.standard_normal(shape))


def _away_from_kink(rng, *shape):
    x = rng.standard_normal(shape)
    return ad.param(x + 0.25 * np.sign(x))


def _weighted_sum(out: ad.Tensor, rng) -> ad.Tensor:
    cot = ad.constant(rng.standard_normal(out.data.shape))
    return ad.sum_all(ad.mul(out, cot))


def _case_matmul(rng):
    n, k, m = rng.integers(1, 5, size=3)
    a, b = _p(rng, n, k), _p(rng, k, m)
    return [a, b], lambda: _weighted_sum(ad.matmul(a, b), np.random.default_rng(0))


def _case_add_same(rng):
    a, b = _p(rng, 3, 4), _p(rng, 3, 4)
    return [a, b], lambda: _weighted_sum(ad.add(a, b), np.random.default_rng(0))


def _case_add_bias(rng):
    a, b = _p(rng, 4, 3), _p(rng, 3)
    return [a, b], lambda: _weighted_sum(ad.add(a, b), np.random.default_rng(0))


def _case_add_scalar(rng):
    a, b = _p(rng, 2, 3), _p(rng)
    return [a, b], lambda: _weighted_sum(ad.add(a, b), np.random.default_rng(0))


def _case_mul(rng):
    a, b = _p(rng, 2, 4), _p(rng, 2, 4)
    return [a, b], lambda: _weighted_sum(ad.mul(a, b), np.random.default_rng(0))


def _case_mul_scalar(rng):
    a = _p(rng, 3, 3)
    return [a], lambda: _weighted_sum(a * 1.7, np.random.default_rng(0))


def _case_exp(rng):
    a = _p(rng, 3, 2)
    return [a], lambda: _weighted_sum(ad.exp(a), np.random.default_rng(0))


def _case_relu(rng):
    a = _away_from_kink(rng, 3, 4)
    return [a], lambda: _weighted_sum(ad.relu(a), np.random.default_rng(0))


def _case_sigmoid(rng):
    a = _p(rng, 4, 2)
    return [a], lambda: _weighted_sum(ad.sigmoid(a), np.random.default_rng(0))


def _case_log_sigmoid(rng):
    a = _p(rng, 5)
    return [a], lambda: _weighted_sum(ad.log_sigmoid(a), np.random.default_rng(0))


def _case_log_softmax(rng):
    a = _p(rng, 4, 3)
    return [a], lambda: _weighted_sum(ad.log_softmax(a), np.random.default_rng(0))


def _case_batch_norm(rng):
    x, scale, shift = _p(rng, 6, 3), _p(rng, 3), _p(rng, 3)
    return [x, scale, shift], lambda: _weighted_sum(
        ad.batch_norm(x, scale, shift), np.random.default_rng(0)
    )


def _case_batch_norm_fixed(rng):
    x, scale, shift = _p(rng, 5, 3), _p(rng, 3), _p(rng, 3)
    mean = rng.standard_normal(3)
    var = np.abs(rng.standard_normal(3)) + 0.5
    return [x, scale, shift], lambda: _weighted_sum(
        ad.batch_norm(x, scale, shift, mean=mean, var=var), np.random.default_rng(0)
    )


def _case_sum_all(rng):
    a = _p(rng, 3, 3)
    return [a], lambda: ad.sum_all(ad.mul(a, a))


def _case_mean_all(rng):
    a = _p(rng, 2, 5)
    return [a], lambda: ad.mean_all(ad.mul(a, a))


def _case_take_per_row(rng):
    a = _p(rng, 5, 3)
    idx = rng.integers(0, 3, size=5)
    return [a], lambda: _weighted_sum(ad.take_per_row(a, idx), np.random.default_rng(0))


OP_CASES = [
    _case_matmul,
    _case_add_same,
    _case_add_bias,
    _case_add_scalar,
    _case_mul,
    _case_mul_scalar,
    _case_exp,
    _case_relu,
    _case_sigmoid,
    _case_log_sigmoid,
    _case_log_softmax,
    _case_batch_norm,
    _case_batch_norm_fixed,
    _case_sum_all,
    _case_mean_all,
    _case_take_per_row,
]


@pytest.mark.parametrize("case", OP_CASES, ids=lambda c: c.__name__[6:])
@pytest.mark.parametrize("seed", range(4))
def test_op_gradient_matches_finite_differences(case, seed):
    # 16 ops x 4 seeds = 64 random shape/seed cases across the op set
    params, forward = case(np.random.default_rng(seed))
    out = forward()
    grads = ad.grads_of(out, params)
    for p, g in zip(params, grads):
        fd = finite_diff(lambda: forward().item(), p.data)
        assert max_rel_err(g, fd) < 1e-4


def test_matmul_identity_returns_input():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    out = ad.matmul(ad.constant(np.eye(3)), ad.constant(a))
    assert np.array_equal(out.data, a)


def test_log_softmax_uniform_logits():
    out = ad.log_softmax(ad.constant([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, -np.log(3.0), rtol=0, atol=1e-15)


def test_batch_norm_zero_variance_feature_reduces_to_affine_offset():
    x = ad.constant(np.full((4, 2), 7.0))  # zero variance everywhere
    scale = ad.param(np.array([2.0, 3.0]))
    shift = ad.param(np.array([-1.0, 5.0]))
    out = ad.batch_norm(x, scale, shift)
    assert np.array_equal(out.data, np.tile([-1.0, 5.0], (4, 1)))


def test_square_gradient_at_three():
    w = ad.param(3.0)
    ad.backward(ad.mul(w, w))
    assert w.grad == pytest.approx(6.0, abs=0)


def test_gradient_of_constant_is_zero():
    w = ad.param(np.ones(3))
    out = ad.sum_all(ad.constant(np.ones(4)))
    grads = ad.grads_of(out, [w])
    assert np.array_equal(grads[0], np.zeros(3))


def test_backward_rejects_non_scalar():
    a = ad.param(np.ones((2, 2)))
    with pytest.raises(ad.ShapeError, match="backward"):
        ad.backward(ad.mul(a, a))


def test_shape_errors_name_op_and_shapes():
    a = ad.constant(np.ones((3, 4)))
    b = ad.constant(np.ones((5, 2)))
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(3, 4\).*\(5, 2\)"):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError, match=r"add.*\(3, 4\).*\(5, 2\)"):
        ad.add(a, b)


def test_mul_rejects_bias_broadcast():
    with pytest.raises(ad.ShapeError, match="mul"):
        ad.mul(ad.constant(np.ones((3, 4))), ad.constant(np.ones(4)))


def test_forward_is_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 2))

    def compute():
        return ad.relu(ad.matmul(ad.constant(x), ad.constant(w))).data

    assert np.array_equal(compute(), compute())


def test_repeated_backward_from_same_tape_is_identical():
    rng = np.random.default_rng(5)
    w = ad.param(rng.standard_normal((3, 3)))
    x = ad.constant(rng.standard_normal((4, 3)))
    out = ad.sum_all(ad.relu(ad.matmul(x, w)))
    ad.backward(out)
    first = w.grad.copy()
    ad.backward(out)
    assert np.array_equal(first, w.grad)


def test_tensor_data_length_matches_shape():
    rng = np.random.default_rng(2)
    for shape in [(), (3,), (2, 5), (1, 1)]:
        t = ad.constant(rng.standard_normal(shape))
        assert t.data.size == int(np.prod(shape, dtype=int))


def test_outputs_finite_on_extreme_but_sane_inputs():
    big = ad.constant(np.array([[800.0, -800.0, 0.0]]))
    assert np.isfinite(ad.log_softmax(big).data).all()
    assert np.isfinite(ad.sigmoid(big).data).all()
    assert np.isfinite(ad.log_sigmoid(big).data).all()
    rng = np.random.default_rng(8)
    x = ad.constant(rng.standard_normal((32, 8)) * 50)
    out = ad.batch_norm(x, ad.param(np.ones(8)), ad.param(np.zeros(8)))
    assert np.isfinite(out.data).all()


def test_detach_cuts_tape():
    w = ad.param(2.0)
    out = ad.mul(w, w).detach()
    assert not out.requires_grad
    grads = ad.grads_of(ad.sum_all(ad.mul(out, out)), [w])
    assert np.array_equal(grads[0], np.zeros(()))
