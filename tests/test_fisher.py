from __future__ import annotations

import numpy as np
import pytest

from conftest import finite_diff, max_rel_err
import autodiff as ad
from fimtta import fisher
from fimtta.fisher import (
    FisherState,
    accumulate,
    fim_diagonal,
    layer_fim_trace,
    learning_weights,
    per_sample_scores,
)
from fimtta.losses import log_softmax, nll_loss
from fimtta.model import build_classifier, record_source_stats
from oracle import param_snapshot, score, tape_forward, tape_grads, tape_params


def _scores(model, inputs, batch_stats=True):
    return per_sample_scores(model, *model.forward(inputs, batch_stats=batch_stats))


def test_score_is_pseudo_label_likelihood_gradient():
    # linear softmax head: the weight score is the classic (onehot - p) x pattern
    rng = np.random.default_rng(0)
    m = build_classifier(1, [], 2, seed=3)
    x = rng.standard_normal((8, 1)) + 2.0  # away from the decision boundary
    logits, _ = m.forward(x, batch_stats=True)
    ls = log_softmax(logits)
    probs = np.exp(ls)
    pseudo = ls.argmax(axis=1)
    onehot = np.eye(2)[pseudo]
    expected_w = x.T @ (onehot - probs) / 8.0
    expected_b = (onehot - probs).mean(axis=0)

    got = score(m, x)
    assert np.allclose(got["head"][0], expected_w, rtol=1e-12, atol=1e-14)
    assert np.allclose(got["head"][1], expected_b, rtol=1e-12, atol=1e-14)

    # cross-check against finite differences of the frozen-pseudo-label NLL
    params = m.weight_layers()[0].params

    def neg_ll():
        return -nll_loss(m.forward(x, batch_stats=True)[0], pseudo)[0]

    for p, g in zip(params, got["head"]):
        assert max_rel_err(g, finite_diff(neg_ll, p)) < 1e-4


def test_score_of_weight_matrix_is_zero_for_zero_inputs():
    m = build_classifier(3, [], 2, seed=1)
    got = score(m, np.zeros((6, 3)))
    assert np.array_equal(got["head"][0], np.zeros((3, 2)))


def test_score_invariant_to_batch_order():
    rng = np.random.default_rng(2)
    m = build_classifier(4, [6], 3, seed=5)
    x = rng.standard_normal((10, 4))
    perm = rng.permutation(10)
    a = score(m, x)
    b = score(m, x[perm])
    for name in a:
        for ga, gb in zip(a[name], b[name]):
            assert np.allclose(ga, gb, rtol=1e-10, atol=1e-12)


def test_score_does_not_mutate_parameters():
    rng = np.random.default_rng(3)
    m = build_classifier(3, [5], 2, seed=7)
    before = param_snapshot(m)
    score(m, rng.standard_normal((6, 3)))
    _scores(m, rng.standard_normal((6, 3)))
    after = param_snapshot(m)
    for name in before:
        for a, b in zip(before[name], after[name]):
            assert np.array_equal(a, b)


def test_mean_of_per_sample_scores_equals_batch_score():
    rng = np.random.default_rng(4)
    m = build_classifier(4, [5], 3, seed=2)
    x = rng.standard_normal((7, 4))
    per = _scores(m, x)
    mean = score(m, x)
    for layer in m.weight_layers():
        flat = np.concatenate([g.ravel() for g in mean[layer.name]])
        assert np.allclose(per[layer.name].mean(axis=0), flat, rtol=1e-12, atol=1e-14)


def _loop_scores(model, inputs, batch_stats):
    """Reference per-sample scores: one tape replay per sample, seeded with e_i."""
    leaves = tape_params(model)
    ls = ad.log_softmax(tape_forward(model, inputs, leaves, batch_stats=batch_stats))
    ll_vec = ad.take_per_row(ls, ls.data.argmax(axis=1))
    n = ll_vec.data.shape[0]
    out = {layer.name: np.empty((n, layer.param_count())) for layer in model.weight_layers()}
    for i in range(n):
        for name, grads in tape_grads(leaves, ll_vec, seed=np.eye(n)[i]).items():
            out[name][i] = np.concatenate([g.ravel() for g in grads])
    return out


def _random_model(rng):
    """Classifier of random depth and widths, with every parameter perturbed."""
    input_dim = int(rng.integers(1, 7))
    hidden = [int(h) for h in rng.integers(1, 12, size=int(rng.integers(0, 4)))]
    m = build_classifier(input_dim, hidden, int(rng.integers(2, 5)), seed=int(rng.integers(1000)))
    for layer in m.weight_layers():
        for p in layer.params:
            p += 0.3 * rng.standard_normal(p.shape)
    record_source_stats(m, 1.5 * rng.standard_normal((50, input_dim)) + 0.5)
    return m


def _assert_scores_match(got, ref):
    assert got.keys() == ref.keys()
    for name, r in ref.items():
        assert got[name].shape == r.shape
        # dense biases in front of batch-stat norm have analytically zero
        # scores; on them both sides are rounding noise
        tol = 1e-12 * max(float(np.linalg.norm(r)), 1e-3)
        assert np.abs(got[name] - r).max() <= tol, name


# With 512 chunk rows, 40 samples run as chunks of 12, 12, 12 and 4, and
# the desk batch of 64 as eight chunks of 8.
@pytest.mark.parametrize("n", [1, 2, 7, 40, 64])
@pytest.mark.parametrize("batch_stats", [True, False])
def test_batched_per_sample_scores_match_per_sample_replay(n, batch_stats):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        m = _random_model(rng)
        x = rng.standard_normal((n, m.input_dim))
        _assert_scores_match(
            _scores(m, x, batch_stats=batch_stats), _loop_scores(m, x, batch_stats)
        )


@pytest.mark.parametrize("chunk_rows", [7, 20])
def test_batched_scores_independent_of_chunking(monkeypatch, chunk_rows):
    # 7 samples in chunks of 1, and in chunks of 2, 2, 2, 1
    rng = np.random.default_rng(11)
    m = _random_model(rng)
    x = rng.standard_normal((7, m.input_dim))
    ref = _loop_scores(m, x, True)
    monkeypatch.setattr(fisher, "_CHUNK_ROWS", chunk_rows)
    _assert_scores_match(_scores(m, x), ref)


def test_desk_model_batched_scores_match_per_sample_replay():
    rng = np.random.default_rng(12)
    m = build_classifier(16, [32, 32, 32, 32], 3, seed=4)
    for layer in m.weight_layers():
        for p in layer.params:
            p += 0.1 * rng.standard_normal(p.shape)
    x = rng.standard_normal((64, 16))
    _assert_scores_match(_scores(m, x), _loop_scores(m, x, True))


@pytest.mark.parametrize("batch_stats", [True, False])
def test_nan_input_row_gives_non_finite_traces_in_both_paths(batch_stats):
    rng = np.random.default_rng(13)
    m = build_classifier(4, [6, 5], 3, seed=9)
    record_source_stats(m, rng.standard_normal((30, 4)))
    x = rng.standard_normal((9, 4))
    x[3, 1] = np.nan
    for scores in (_scores(m, x, batch_stats), _loop_scores(m, x, batch_stats)):
        traces = layer_fim_trace(scores)
        assert not any(np.isfinite(v) for v in traces.values()), traces


def test_trace_of_single_vector():
    assert layer_fim_trace({"l": np.array([[1.0, 2.0]])}) == {"l": 5.0}


def test_trace_of_two_unit_vectors():
    scores = {"l": np.array([[1.0, 0.0], [0.0, 1.0]])}
    assert layer_fim_trace(scores) == {"l": 1.0}


def test_trace_matches_brute_force_outer_product_matrix():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = rng.standard_normal((20, 5))
        ours = layer_fim_trace({"l": s})["l"]
        brute = np.trace(s.T @ s / 20.0)
        assert ours == pytest.approx(brute, rel=1e-12)


def test_trace_identity_on_real_model_layers():
    # every layer here has <= 32 parameters
    rng = np.random.default_rng(6)
    m = build_classifier(3, [4], 2, seed=8)
    assert max(l.param_count() for l in m.weight_layers()) <= 32
    per = _scores(m, rng.standard_normal((9, 3)))
    traces = layer_fim_trace(per)
    diags = fim_diagonal(per)
    for name, s in per.items():
        brute = float(np.trace(s.T @ s / s.shape[0]))
        assert traces[name] == pytest.approx(brute, rel=1e-12)
        assert traces[name] == pytest.approx(float(diags[name].sum()), rel=1e-12)


def test_trace_rejects_empty_scores():
    with pytest.raises(ValueError, match="no sample scores"):
        layer_fim_trace({"l": np.zeros((0, 4))})
    with pytest.raises(ValueError, match="no sample scores"):
        fim_diagonal({"l": np.zeros((0, 4))})


def test_diagonal_of_single_vector():
    assert np.array_equal(fim_diagonal({"l": np.array([[1.0, 2.0]])})["l"], [1.0, 4.0])


def test_diagonal_of_zero_scores_is_zero():
    assert np.array_equal(fim_diagonal({"l": np.zeros((3, 4))})["l"], np.zeros(4))


def test_accumulate_examples():
    s = FisherState(decay=1.0, traces={"l": 0.0})
    accumulate(s, {"l": 5.0})
    assert s.traces["l"] == 5.0 and s.step == 1

    s = FisherState(decay=0.0, traces={"l": 4.0})
    accumulate(s, {"l": 2.0})
    assert s.traces["l"] == 2.0

    s = FisherState(decay=0.5, traces={"l": 4.0})
    accumulate(s, {"l": 2.0})
    assert s.traces["l"] == 4.0


def test_accumulate_rejects_layer_mismatch():
    s = FisherState(decay=1.0, traces={"a": 0.0})
    with pytest.raises(ValueError, match="layer mismatch"):
        accumulate(s, {"b": 1.0})


def test_decay_validated_at_configuration_time():
    with pytest.raises(ValueError, match="decay"):
        FisherState(decay=1.5, traces={})
    with pytest.raises(ValueError, match="decay"):
        FisherState(decay=-0.1, traces={})


def test_learning_weights_are_square_roots():
    s = FisherState(decay=1.0, traces={"a": 9.0, "b": 0.0})
    w = learning_weights(s)
    assert w == {"a": 3.0, "b": 0.0}


def test_learning_weights_monotone_in_trace():
    rng = np.random.default_rng(7)
    vals = np.sort(rng.uniform(0, 100, size=20))
    s = FisherState(decay=1.0, traces={f"l{i}": float(v) for i, v in enumerate(vals)})
    w = learning_weights(s)
    ordered = [w[f"l{i}"] for i in range(20)]
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))


def test_full_decay_traces_never_decrease():
    rng = np.random.default_rng(8)
    s = FisherState(decay=1.0, traces={"a": 0.0, "b": 0.0})
    prev = dict(s.traces)
    for _ in range(50):
        accumulate(s, {"a": float(rng.uniform(0, 2)), "b": float(rng.uniform(0, 2))})
        assert s.traces["a"] >= prev["a"] and s.traces["b"] >= prev["b"]
        prev = dict(s.traces)


def test_zero_decay_depends_only_on_current_batch():
    rng = np.random.default_rng(9)
    s = FisherState(decay=0.0, traces={"a": 0.0})
    history = [float(rng.uniform(0, 3)) for _ in range(10)]
    for value in history:
        accumulate(s, {"a": value})
        assert s.traces["a"] == value


def test_for_model_initializes_all_weight_layers():
    m = build_classifier(4, [5, 6], 3, seed=0)
    s = FisherState.for_model(m, decay=0.7, track_diagonal=True)
    assert set(s.traces) == set(m.weight_layer_names())
    assert all(v == 0.0 for v in s.traces.values())
    assert set(s.diagonals) == set(m.weight_layer_names())
    for layer in m.weight_layers():
        assert s.diagonals[layer.name].shape == (layer.param_count(),)


def test_diagonal_accumulates_with_decay():
    m = build_classifier(2, [], 2, seed=0)
    s = FisherState.for_model(m, decay=0.5, track_diagonal=True)
    ones = {"head": np.ones(6)}
    accumulate(s, {"head": 1.0}, current_diagonal=ones)
    accumulate(s, {"head": 1.0}, current_diagonal=ones)
    assert np.allclose(s.diagonals["head"], 1.5)


def test_dump_record_shape():
    rec = fisher.dump_record(
        3, "feature_blur", 5, w={"a": 1.0}, w_bar={"a": 0.5}, diag={"a": np.ones(2)}
    )
    assert rec == {
        "step": 3,
        "domain": "feature_blur",
        "severity": 5,
        "w": {"a": 1.0},
        "w_bar": {"a": 0.5},
        "diag": {"a": [1.0, 1.0]},
    }
