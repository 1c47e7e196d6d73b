from __future__ import annotations

import functools
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import finite_diff, max_rel_err
from fimtta.fisher import (
    _seed,
    accumulate,
    fim_diagonal,
    layer_fim_trace,
    learning_weights,
    per_sample_scores,
)
from fimtta.harness import AdaptConfig, collect_grads
from fimtta.losses import entropy_loss, log_softmax, nll_loss
from fimtta.model import LayerParams, Model, build_classifier, record_source_stats, save_checkpoint
from oracle import assert_layers_match, param_snapshot, replay_scores, score, with_dense_biases


def _scores(model, inputs, batch_stats=True):
    return per_sample_scores(model, *model.forward(inputs, batch_stats=batch_stats))


def _traces(model, inputs, batch_stats=True):
    return layer_fim_trace(model, *model.forward(inputs, batch_stats=batch_stats))


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
    _traces(m, rng.standard_normal((6, 3)))
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


def _random_model(rng, biased=False):
    """Classifier of random depth and widths, with every parameter perturbed;
    ``biased`` gives every dense layer a bias, as the older layout did."""
    input_dim = int(rng.integers(1, 7))
    hidden = [int(h) for h in rng.integers(1, 12, size=int(rng.integers(0, 4)))]
    m = build_classifier(input_dim, hidden, int(rng.integers(2, 5)), seed=int(rng.integers(1000)))
    if biased:
        m = with_dense_biases(m, rng)
    for layer in m.weight_layers():
        for p in layer.params:
            p += 0.3 * rng.standard_normal(p.shape)
    record_source_stats(m, 1.5 * rng.standard_normal((50, input_dim)) + 0.5)
    return m


# With 512 chunk rows, 40 samples run as chunks of 12, 12, 12 and 4, and
# the desk batch of 64 as eight chunks of 8.
@pytest.mark.parametrize("n", [1, 2, 7, 40, 64])
@pytest.mark.parametrize("batch_stats", [True, False])
def test_batched_per_sample_scores_match_per_sample_replay(n, batch_stats):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        m = _random_model(rng)
        x = rng.standard_normal((n, m.input_dim))
        assert_layers_match(
            _scores(m, x, batch_stats=batch_stats), replay_scores(m, x, batch_stats)
        )


@pytest.mark.parametrize("chunk_rows", [7, 20])
def test_batched_scores_independent_of_chunking(monkeypatch, chunk_rows):
    # 7 samples in chunks of 1, and in chunks of 2, 2, 2, 1
    rng = np.random.default_rng(11)
    m = _random_model(rng)
    x = rng.standard_normal((7, m.input_dim))
    ref = replay_scores(m, x, True)
    monkeypatch.setattr("fimtta.model._CHUNK_ROWS", chunk_rows)
    assert_layers_match(_scores(m, x), ref)


def test_desk_model_batched_scores_match_per_sample_replay():
    rng = np.random.default_rng(12)
    m = build_classifier(16, [32, 32, 32, 32], 3, seed=4)
    for layer in m.weight_layers():
        for p in layer.params:
            p += 0.1 * rng.standard_normal(p.shape)
    x = rng.standard_normal((64, 16))
    assert_layers_match(_scores(m, x), replay_scores(m, x, True))


@pytest.mark.parametrize("batch_stats", [True, False])
def test_nan_input_row_gives_non_finite_traces_in_both_paths(batch_stats):
    rng = np.random.default_rng(13)
    m = build_classifier(4, [6, 5], 3, seed=9)
    record_source_stats(m, rng.standard_normal((30, 4)))
    x = rng.standard_normal((9, 4))
    x[3, 1] = np.nan
    streamed, _ = _traces(m, x, batch_stats)
    assert not np.isfinite(streamed).any(), streamed
    replayed = [d.sum() for d in fim_diagonal(replay_scores(m, x, batch_stats)).values()]
    assert not np.isfinite(replayed).any(), replayed


def _zero_linear_classifier(input_dim):
    # zero logits: every pseudo-label is class 0 and every seed (0.5, -0.5),
    # so sample i's score is (x_i (x) (0.5, -0.5), 0.5, -0.5)
    m = build_classifier(input_dim, [], 2, seed=0)
    m.theta[:] = 0.0
    return m


def test_trace_of_single_vector():
    m = _zero_linear_classifier(2)
    traces, diag = _traces(m, np.array([[1.0, 2.0]]), batch_stats=False)
    assert traces.tolist() == [3.0]  # 0.25 * (1 + 4) * 2 + 0.25 * 2
    assert diag.tolist() == [0.25, 0.25, 1.0, 1.0, 0.25, 0.25]


def test_trace_of_two_unit_vectors():
    traces, _ = _traces(_zero_linear_classifier(2), np.eye(2), batch_stats=False)
    assert traces.tolist() == [1.0]


def _assert_traces_match_scores(model, traces_and_diagonal, scores, rel=1e-12):
    """Streamed traces and diagonal against the explicit score matrix."""
    traces, diag = traces_and_diagonal
    assert traces.shape == (len(scores),) and diag.shape == model.theta.shape
    ref_diag = fim_diagonal(scores)
    total = sum(float((s * s).sum()) for s in scores.values()) / len(next(iter(scores.values())))
    for l, (name, s) in enumerate(scores.items()):
        brute = float(np.trace(s.T @ s / s.shape[0]))
        # a layer whose scores are what cancellation leaves (a dense layer in
        # front of a batch-statistic norm) carries rounding error on the scale
        # of the cancelled terms, so its trace is held to 1e-4 of the total
        tol = rel * max(brute, 1e-4 * total)
        assert abs(traces[l] - brute) <= tol, name
        assert abs(traces[l] - float(ref_diag[name].sum())) <= tol, name
        assert np.abs(diag[model.slices[name]] - ref_diag[name]).max() <= tol, name


def test_trace_matches_brute_force_outer_product_matrix():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = _random_model(rng)
        logits, saved = m.forward(rng.standard_normal((20, m.input_dim)))
        _assert_traces_match_scores(m, layer_fim_trace(m, logits, saved), per_sample_scores(m, logits, saved))


def test_trace_identity_on_real_model_layers():
    # every layer here has <= 32 parameters
    rng = np.random.default_rng(6)
    m = build_classifier(3, [4], 2, seed=8)
    assert max(l.param_count() for l in m.weight_layers()) <= 32
    x = rng.standard_normal((9, 3))
    logits, saved = m.forward(x)
    traces_and_diagonal = layer_fim_trace(m, logits, saved)
    _assert_traces_match_scores(m, traces_and_diagonal, per_sample_scores(m, logits, saved))
    _assert_traces_match_scores(m, traces_and_diagonal, replay_scores(m, x))


def test_trace_rejects_empty_scores():
    m = build_classifier(3, [], 2, seed=0)
    with pytest.raises(ValueError, match="no sample scores"):
        _traces(m, np.zeros((0, 3)), batch_stats=False)
    with pytest.raises(ValueError, match="no sample scores"):
        fim_diagonal({"l": np.zeros((0, 4))})


def test_diagonal_of_single_vector():
    assert np.array_equal(fim_diagonal({"l": np.array([[1.0, 2.0]])})["l"], [1.0, 4.0])


def test_diagonal_of_zero_scores_is_zero():
    assert np.array_equal(fim_diagonal({"l": np.zeros((3, 4))})["l"], np.zeros(4))


def test_accumulate_examples():
    assert accumulate(np.zeros(1), np.array([5.0]), 1.0).tolist() == [5.0]
    assert accumulate(np.array([4.0]), np.array([2.0]), 0.0).tolist() == [2.0]
    assert accumulate(np.array([4.0, 1.0]), np.array([2.0, 0.5]), 0.5).tolist() == [4.0, 1.0]


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40),
    decay=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_accumulate_is_bit_identical_to_decay_times_old_plus_batch_and_keeps_total(seed, size, decay):
    rng = np.random.default_rng(seed)
    old, batch = rng.uniform(0, 1e3, size), rng.uniform(0, 1e3, size)
    total = old.copy()
    folded = accumulate(total, batch, decay)
    assert folded.tobytes() == (decay * old + batch).tobytes()
    # the fold writes nothing: a caller commits it only once the whole batch has succeeded
    assert total.tobytes() == old.tobytes() and not np.shares_memory(folded, total)


def test_accumulate_rejects_layer_mismatch():
    with pytest.raises(ValueError, match="layer mismatch"):
        accumulate(np.zeros(1), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="layer mismatch"):
        accumulate(np.zeros(3), np.ones(1), 1.0)  # would broadcast silently


def test_decay_validated_at_configuration_time():
    # the run's gamma is the one decay accumulate folds with
    with pytest.raises(ValueError, match="gamma"):
        AdaptConfig(gamma=1.5)
    with pytest.raises(ValueError, match="gamma"):
        AdaptConfig(gamma=-0.1)


def test_learning_weights_are_square_roots():
    assert learning_weights(np.array([9.0, 0.0])).tolist() == [3.0, 0.0]


def test_learning_weights_monotone_in_trace():
    rng = np.random.default_rng(7)
    w = learning_weights(np.sort(rng.uniform(0, 100, size=20)))
    assert (np.diff(w) >= 0).all()


def test_full_decay_traces_never_decrease():
    rng = np.random.default_rng(8)
    prev = np.zeros(2)
    for _ in range(50):
        total = accumulate(prev, rng.uniform(0, 2, size=2), 1.0)
        assert (total >= prev).all()
        prev = total


def test_zero_decay_depends_only_on_current_batch():
    rng = np.random.default_rng(9)
    total = np.zeros(1)
    for value in rng.uniform(0, 3, size=10):
        total = accumulate(total, np.array([value]), 0.0)
        assert total.tolist() == [value]


def test_diagonal_accumulates_with_decay():
    diagonal = accumulate(accumulate(np.zeros(6), np.ones(6), 0.5), np.ones(6), 0.5)
    assert np.allclose(diagonal, 1.5)


@pytest.mark.parametrize("batch_stats", [True, False])
def test_forward_cache_is_freed_once_the_caller_drops_it(batch_stats):
    # without the cycle collector, a reference cycle through the backward
    # pass would keep every batch's cache alive
    rng = np.random.default_rng(5)
    model = build_classifier(5, [6, 6], 3, seed=1)
    record_source_stats(model, rng.standard_normal((40, 5)))
    x = rng.standard_normal((20, 5))
    enabled = gc.isenabled()
    gc.disable()
    try:
        logits, saved = model.forward(x, batch_stats=batch_stats)
        refs = [
            weakref.ref(a)
            for entry in saved
            for a in (entry if isinstance(entry, tuple) else (entry,))
            if isinstance(a, np.ndarray) and a is not x
        ]
        collect_grads(model, saved, entropy_loss(logits)[1])
        with mock.patch("fimtta.model._CHUNK_ROWS", 60):  # chunks of 3 of the 20 rows
            layer_fim_trace(model, logits, saved)
        del saved
        assert refs and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def _pass(model, x, batch_stats, scores):
    """One per-sample pass over a fresh forward: the score matrix, or the
    traces and the diagonal."""
    logits, saved = model.forward(x, batch_stats=batch_stats)
    if scores:
        return tuple(per_sample_scores(model, logits, saved).values())
    return layer_fim_trace(model, logits, saved)


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_interleaved_clones_give_the_traces_of_each_run_alone():
    rng = np.random.default_rng(21)
    base = build_classifier(16, [32, 32, 32, 32], 3, seed=4)
    batches = [rng.standard_normal((n, 16)) for n in (64, 128, 20, 64)]
    alone = {}
    for tag, batch_list in (("a", batches), ("b", batches[::-1])):
        model = base.clone()
        alone[tag] = [_pass(model, x, True, False) for x in batch_list]
    a, b = base.clone(), base.clone()
    for step, (xa, xb) in enumerate(zip(batches, batches[::-1])):
        _assert_bit_identical(_pass(a, xa, True, False), alone["a"][step])
        _assert_bit_identical(_pass(b, xb, True, False), alone["b"][step])


def test_clone_and_checkpoint_leave_out_the_workspace(tmp_path):
    rng = np.random.default_rng(22)
    model = build_classifier(16, [32, 32], 3, seed=4)
    save_checkpoint(model, tmp_path / "before.txt")
    _pass(model, rng.standard_normal((64, 16)), True, False)
    assert model._slabs[0].size > 0  # the pass above did use the workspace
    save_checkpoint(model, tmp_path / "after.txt")
    assert (tmp_path / "after.txt").read_bytes() == (tmp_path / "before.txt").read_bytes()
    assert all(slab.size == 0 for slab in model.clone()._slabs)


_SEEDS = st.integers(0, 2**32 - 1)
_ANY_WIDTHS = st.one_of(
    st.lists(st.integers(1, 12), max_size=4),  # depth 0-4
    st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True),  # no two levels alike
    st.tuples(st.integers(1, 12), st.integers(2, 4)).map(lambda wd: [wd[0]] * wd[1]),  # every level alike
)
_ANY_BIAS = st.sampled_from(["none", "first", "every"])  # which dense layers carry a bias


def _calls(min_size=1, max_size=4, batch_stats=st.booleans(), scores=st.booleans()):
    return st.lists(
        st.tuples(
            st.integers(1, 70),  # batch rows, up and down across the calls
            st.sampled_from([1, 7, 9, 64, 200, 1024, 4096]),  # _CHUNK_ROWS
            batch_stats,  # batch statistics
            scores,  # per_sample_scores, else layer_fim_trace
        ),
        min_size=min_size,
        max_size=max_size,
    )


def _with_layout(model, layout):
    """``model`` with its layers in an order a checkpoint may hold but
    ``build_classifier`` never builds: a ReLU ("relu-under-norm") or a second
    norm ("norm-under-norm") right under the top norm, or a norm as the first
    weight layer ("norm-first"); "built" leaves it as it is."""
    layers = model.layers
    top = max((j for j, layer in enumerate(layers) if layer.kind == "norm"), default=None)
    if layout == "relu-under-norm" and top is not None:  # dense, norm, relu -> dense, relu, norm
        layers[top : top + 2] = layers[top + 1], layers[top]
    elif layout == "norm-under-norm" and top is not None:
        width = layers[top].params[0].size
        layers.insert(top + 1, LayerParams("norm_extra", "norm", [np.ones(width), np.zeros(width)]))
    elif layout == "norm-first":
        layers.insert(0, LayerParams("norm_in", "norm", [np.ones(model.input_dim), np.zeros(model.input_dim)]))
    return Model(layers, model.input_dim, model.class_count)


def _check_per_sample_pass(seed, widths, bias, calls, layout="built"):
    """The one per-sample-pass property. Each call is held to the tape, and to
    a clone whose workspace is fresh: the model keeps its slab buffers across
    calls, so a stale or undersized buffer shows as a difference. Each
    batch-statistic norm's coupling is a product with a D laid out for its own
    width. Under batch statistics with two or more hidden blocks, a bias-free
    first dense layer adds the coupling of the norm above it as
    (K^T [xhat | 1]) @ D, written into the held slab; a biased first layer (the
    older layout), one hidden block or fixed statistics keep the coupled slab or
    need none. A dense layer right under the top batch-statistic norm takes that
    norm's coupling through each slice's lifted operand when the batch outnumbers
    its inputs and one D group holds a chunk; a ReLU or a norm there
    (``layout``), a smaller batch or a longer chunk expands it."""
    rng = np.random.default_rng(seed)
    model = build_classifier(int(rng.integers(1, 7)), widths, int(rng.integers(2, 5)), seed=int(rng.integers(1000)))
    if bias == "every":
        model = with_dense_biases(model, rng)
    elif bias == "first" and len(model.layers[0].params) == 1:
        layers = model.layers
        layers[0].params.append(rng.standard_normal(layers[0].params[0].shape[1]))
        model = Model(layers, model.input_dim, model.class_count)
    model = _with_layout(model, layout)
    for layer in model.weight_layers():
        for p in layer.params:
            p += 0.3 * rng.standard_normal(p.shape)
    record_source_stats(model, 1.5 * rng.standard_normal((50, model.input_dim)) + 0.5)
    for n, chunk_rows, batch_stats, scores in calls:
        x = rng.standard_normal((n, model.input_dim))
        theta = model.theta.copy()
        with mock.patch("fimtta.model._CHUNK_ROWS", chunk_rows):
            got = _pass(model, x, batch_stats, scores)
            _assert_bit_identical(got, _pass(model.clone(), x, batch_stats, scores))
        ref = replay_scores(model, x, batch_stats)
        if scores:
            assert_layers_match(dict(zip(ref, got)), ref)
        else:
            _assert_traces_match_scores(model, got, ref)
        assert model.theta.tobytes() == theta.tobytes()  # the pass reads the parameters only


# Four draws of the one property above. The first draws its whole space; the
# other three spend their examples on the regimes their names give.
@settings(max_examples=30)
@given(seed=_SEEDS, widths=_ANY_WIDTHS, bias=_ANY_BIAS, calls=_calls())
# dense1, in front of the width-1 norm, is a cancellation residue: score norm
# ~7e-4 against ~15 for the whole, held to the whole's bound
@example(seed=399674, widths=[10, 1], bias="none", calls=[(6, c, True, True) for c in (1, 7, 9, 64, 200, 1024, 4096)])
# a dense bias in front of a batch-statistic norm scores what cancellation leaves; paid its norm's owed
# scale twice, it reads 5.7 and 9.6 times its bound in this draw, against at most 0.005 when paid once
@example(seed=35, widths=[8, 8, 8], bias="every", calls=[(3, 7, True, True), (9, 7, True, True)])
def test_reused_workspace_gives_the_results_of_a_fresh_clone(seed, widths, bias, calls):
    _check_per_sample_pass(seed, widths, bias, calls)


@settings(max_examples=10)
@given(seed=_SEEDS, widths=_ANY_WIDTHS, bias=_ANY_BIAS, calls=_calls(max_size=1, scores=st.just(False)))
def test_streamed_traces_match_tape_replay(seed, widths, bias, calls):
    _check_per_sample_pass(seed, widths, bias, calls)


@settings(max_examples=10)
@given(
    seed=_SEEDS,
    widths=st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True),  # no two levels alike
    bias=_ANY_BIAS,
    calls=_calls(min_size=2, batch_stats=st.just(True), scores=st.just(False)),  # traces and diagonal
)
def test_coupling_product_on_mixed_widths_matches_the_tape_and_a_fresh_clone(seed, widths, bias, calls):
    _check_per_sample_pass(seed, widths, bias, calls)


@settings(max_examples=10)
@given(
    seed=_SEEDS,
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=4),  # depth 1-4
    bias=st.sampled_from(["none", "first"]),
    calls=_calls(min_size=2),  # the later calls find the earlier calls' slabs
)
def test_first_layer_closed_form_coupling_matches_the_tape_and_a_fresh_clone(seed, widths, bias, calls):
    _check_per_sample_pass(seed, widths, bias, calls)


# A fifth draw: layer orders that only a checkpoint gives, and one hidden block, where the hand-back layer is the
# first weight layer and takes no transposed product
@settings(max_examples=20)
@given(
    seed=_SEEDS,
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    bias=_ANY_BIAS,
    calls=_calls(min_size=2),
    layout=st.sampled_from(["relu-under-norm", "norm-under-norm", "norm-first", "built"]),
)
@example(seed=7, widths=[5], bias="every", calls=[(40, 200, True, True), (40, 64, True, False)], layout="built")
@example(seed=8, widths=[4, 6], bias="every", calls=[(30, 200, True, True), (30, 9, True, False)],
         layout="relu-under-norm")
@example(seed=9, widths=[6, 3], bias="first", calls=[(25, 64, True, True), (9, 7, True, False)],
         layout="norm-under-norm")
@example(seed=10, widths=[3, 5], bias="none", calls=[(20, 64, True, True), (20, 4096, False, False)],
         layout="norm-first")
def test_layer_orders_only_a_checkpoint_gives_match_the_tape_and_a_fresh_clone(seed, widths, bias, calls, layout):
    _check_per_sample_pass(seed, widths, bias, calls, layout)


@pytest.mark.parametrize("n", [64, 128])  # dense4 expanded in 16-slice chunks, and lifted in 8-slice ones
def test_a_cancelled_dense_bias_gets_no_block_and_a_zero_trace(n):
    # the norm subtracts the batch mean, so the bias moves no logit: the chunk loop hands no block for it, its
    # trace columns keep their exact 0, and the identity-probe scores hold no more than rounding there
    rng = np.random.default_rng(23)
    model = with_dense_biases(build_classifier(16, [32, 32, 32, 32], 3, seed=4), rng)
    logits, saved = model.forward(rng.standard_normal((n, 16)))
    (_, diagonal), scores = layer_fim_trace(model, logits, saved), per_sample_scores(model, logits, saved)
    handed = []
    model.backward(saved, _seed(logits), lambda col, block, scale: handed.append(range(col, col + block.shape[1])))
    assert {cols.start for cols in model.slices.values()} <= {block.start for block in handed}  # every weight
    for layer in model.weight_layers()[:-1:2]:  # dense1 ... dense4, each in front of its norm
        width, cols = layer.params[1].size, model.slices[layer.name]
        assert not diagonal[cols][-width:].any() and diagonal[cols][:-width].all(), layer.name
        assert all(block.stop <= cols.stop - width or block.start >= cols.stop for block in handed), layer.name
        weight, bias = np.abs(scores[layer.name][:, :-width]).max(), np.abs(scores[layer.name][:, -width:]).max()
        assert bias <= 1e-12 * weight, (layer.name, bias, weight)


# tracemalloc peaks of one layer_fim_trace call on a fresh clone of the desk model (``trace_peak.desk_trace_peak``;
# the highest of 20 readings, ``python tests/trace_peak.py N --runs 20``, numpy 2.4) since the trace pass hands its
# [n, C] seed to the backward and keeps no reference to it, so the chunk loop runs without it (1,664 / 3,200 B
# less than when the pass held it); the pass must not outgrow them
DESK_TRACE_PEAK_BYTES = {64: 802_896, 128: 866_384}


# what the first layer_fim_trace call of a process leaves allocated beyond its model's two slabs
# (``trace_peak.desk_trace_peak``, under ``PYTHONHASHSEED=0``): numpy's first-call allocations alone, the highest
# of 20 readings before the dense layer under the top norm took its coupling through lifted operands (that change
# reads 104 B less). A buffer kept across calls, on the model or module-wide, adds its size
DESK_FIRST_CALL_KEPT_BYTES = {64: 3_979, 128: 4_699}


@functools.lru_cache(maxsize=None)
def _desk_trace_readings(n):
    # read in a fresh interpreter that imports no test module: in this one numpy's caches hold what earlier tests left
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("trace_peak.py")), str(n)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(int(field) for field in proc.stdout.split())


@pytest.mark.parametrize("n", sorted(DESK_TRACE_PEAK_BYTES))
def test_desk_trace_pass_peak_memory_stays_within_its_bound(n):
    peak = _desk_trace_readings(n)[0]
    assert peak <= DESK_TRACE_PEAK_BYTES[n], peak


@pytest.mark.parametrize("n", sorted(DESK_FIRST_CALL_KEPT_BYTES))
def test_desk_trace_pass_keeps_no_buffer_beyond_its_slabs(n):
    kept = _desk_trace_readings(n)[1]
    assert kept <= DESK_FIRST_CALL_KEPT_BYTES[n], kept
