"""Batch gradients from the layer-stack backward against the tape oracle.

``harness.collect_grads`` seeds ``Model.backward`` with the closed-form
loss-head cotangents of a forward's logits; the oracle builds the
generic tape through every layer and through the loss head instead
(``tape_forward`` plus the ``tape_*_loss`` heads). On random models,
batches and losses the two must agree to rounding. A grouped forward
must give each group what a forward of that group alone gives, and its
one backward bit for bit the sum of the groups' gradients.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fimtta import fisher, harness, losses
from fimtta.model import build_classifier, cache_group, normalize, record_source_stats
from oracle import (
    assert_layers_match,
    tape_consistency_loss,
    tape_entropy_loss,
    tape_forward,
    tape_grads,
    tape_nll_loss,
    tape_params,
    with_dense_biases,
)


@st.composite
def cases(draw):
    input_dim = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(1, 10), max_size=3))
    class_count = draw(st.integers(2, 4))
    n = draw(st.integers(2, 12))
    batch_stats = draw(st.booleans())
    loss = draw(st.sampled_from(["entropy", "nll", "total"]))
    lam = draw(st.sampled_from([0.0, 0.1, 2.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    biased = draw(st.booleans())  # every dense layer with a bias: the older layout
    return input_dim, hidden, class_count, n, batch_stats, loss, lam, seed, biased


@settings(max_examples=150)
@given(cases())
def test_collect_grads_matches_tape_oracle(case):
    input_dim, hidden, class_count, n, batch_stats, loss, lam, seed, biased = case
    rng = np.random.default_rng(seed)
    model = build_classifier(input_dim, hidden, class_count, seed=seed)
    if biased:
        model = with_dense_biases(model, rng)
    for layer in model.weight_layers():
        for p in layer.params:
            p += 0.3 * rng.standard_normal(p.shape)
    record_source_stats(model, 1.5 * rng.standard_normal((40, input_dim)) + 0.5)
    x = rng.standard_normal((n, input_dim))
    x_aug = x + 0.1 * rng.standard_normal(x.shape)
    labels = rng.integers(0, class_count, size=n)

    (y, saved), (y_aug, saved_aug) = (model.forward(b, batch_stats=batch_stats) for b in (x, x_aug))
    leaves = tape_params(model)
    tape_y, tape_y_aug = (tape_forward(model, b, leaves, batch_stats=batch_stats) for b in (x, x_aug))
    if loss == "entropy":
        g = losses.entropy_loss(y)[1]
        tape_loss = tape_entropy_loss(tape_y)
    elif loss == "nll":
        g = losses.nll_loss(y, labels)[1]
        tape_loss = tape_nll_loss(tape_y, labels)
    else:  # entropy + lam * consistency, composed as the online loop does: one grouped forward
        g = np.stack([losses.entropy_loss(y)[1], lam * losses.consistency_loss(y, y_aug)[1]])
        saved = model.forward(np.stack([x, x_aug]), batch_stats=batch_stats)[1]
        tape_loss = tape_entropy_loss(tape_y) + tape_consistency_loss(tape_y, tape_y_aug) * lam

    got = harness.collect_grads(model, saved, g)
    assert got.shape == model.theta.shape
    _assert_matches_tape(model, got, tape_grads(leaves, tape_loss))


def _assert_matches_tape(model, got, ref):
    flat = {name: np.concatenate([a.ravel() for a in ref_grads]) for name, ref_grads in ref.items()}
    assert_layers_match({name: got[cols] for name, cols in model.slices.items()}, flat)


def _entries(kept):
    return [a for a in (kept if isinstance(kept, tuple) else (kept,)) if a is not None]


@settings(max_examples=120)
@given(cases(), st.integers(1, 3))
@example((6, [4, 2], 4, 2, True, "entropy", 0.0, 1024, True), 1)  # dense1 is a cancellation residue
def test_grouped_pass_matches_per_group_passes(case, groups):
    input_dim, hidden, class_count, n, batch_stats, _, lam, seed, biased = case
    rng = np.random.default_rng(seed)
    model = build_classifier(input_dim, hidden, class_count, seed=seed)
    if biased:
        model = with_dense_biases(model, rng)
    for layer in model.weight_layers():
        for p in layer.params:
            p += 0.3 * rng.standard_normal(p.shape)
    record_source_stats(model, 1.5 * rng.standard_normal((40, input_dim)) + 0.5)
    x = rng.standard_normal((groups, n, input_dim))

    logits, saved = model.forward(x, batch_stats=batch_stats)
    for k in range(groups):
        alone_logits, alone = model.forward(x[k], batch_stats=batch_stats)
        assert np.array_equal(logits[k], alone_logits)
        for got, want in zip(cache_group(saved, k), alone):
            assert len(_entries(got)) == len(_entries(want))
            assert all(np.array_equal(a, b) for a, b in zip(_entries(got), _entries(want)))

    # the one backward against the per-group tapes' gradients, summed, for the
    # loop's loss heads: entropy on group 0, lam * consistency with it on the others
    cotangent = np.stack([losses.entropy_loss(logits[0])[1]] + [
        lam * losses.consistency_loss(logits[0], logits[k])[1] for k in range(1, groups)])
    leaves = tape_params(model)
    per_group = [
        tape_grads(leaves, tape_forward(model, x[k], leaves, batch_stats=batch_stats), seed=cotangent[k])
        for k in range(groups)
    ]
    ref = {name: [sum(grads[name][j] for grads in per_group) for j in range(len(params))]
           for name, params in leaves.items()}
    grouped = harness.collect_grads(model, saved, cotangent.copy())
    _assert_matches_tape(model, grouped, ref)
    # and bit for bit the sum, in group order, of each group's own forward and backward
    alone = [harness.collect_grads(model, model.forward(x[k], batch_stats=batch_stats)[1], cotangent[k].copy())
             for k in range(groups)]
    assert np.array_equal(grouped, sum(alone[1:], alone[0]))

    # the per-sample trace pass reads group 0 as it reads a forward of that group alone
    alone_logits, alone = model.forward(x[0], batch_stats=batch_stats)
    got = fisher.layer_fim_trace(model, logits[0], cache_group(saved, 0))
    want = fisher.layer_fim_trace(model, alone_logits, alone)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _reference_cache(model, x, batch_stats):
    """The entries a forward caches, layer by layer, from operations that
    write into no array they read."""
    out, cache = x, []
    for layer in model.layers:
        if layer.kind == "dense":
            cache.append([out])
            out = np.matmul(out, layer.params[0])
            out = out + layer.params[1] if len(layer.params) == 2 else out
        elif layer.kind == "norm":
            norm = normalize(out, *((None, None) if batch_stats else (layer.source_mean, layer.source_var)))
            cache.append(list(norm if batch_stats else norm[:2]))
            out = norm[0] * layer.params[0] + layer.params[1]
        else:
            cache.append([out > 0.0])
            out = np.maximum(out, 0.0)
    return cache


def _assert_cache_is(saved, want):
    for kept, arrays in zip(saved, want, strict=True):
        got = _entries(kept)
        assert len(got) == len(arrays) and all(a.tobytes() == b.tobytes() for a, b in zip(got, arrays))


@settings(max_examples=60)
@given(cases(), st.integers(1, 3))
def test_grouped_pass_and_both_backwards_leave_input_and_cache_untouched(case, groups):
    """The forward writes its affine and ReLU outputs in place, and the
    backward its cotangents: none of them may land in the input batch or in
    an array the forward cached, which the backward and the trace pass read."""
    input_dim, hidden, class_count, n, batch_stats, _, lam, seed, biased = case
    rng = np.random.default_rng(seed)
    model = build_classifier(input_dim, hidden, class_count, seed=seed)
    if biased:
        model = with_dense_biases(model, rng)
    record_source_stats(model, 1.5 * rng.standard_normal((40, input_dim)) + 0.5)
    x = rng.standard_normal((groups, n, input_dim))
    before = x.copy()
    want = _reference_cache(model, before, batch_stats)

    logits, saved = model.forward(x, batch_stats=batch_stats)
    assert x.tobytes() == before.tobytes()
    _assert_cache_is(saved, want)
    cotangent = np.stack([losses.entropy_loss(logits[0])[1]] + [
        lam * losses.consistency_loss(logits[0], logits[k])[1] for k in range(1, groups)])
    harness.collect_grads(model, saved, cotangent)
    fisher.layer_fim_trace(model, logits[0], cache_group(saved, 0))
    assert x.tobytes() == before.tobytes()
    _assert_cache_is(saved, want)
