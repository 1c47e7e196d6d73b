"""Batch gradients from the layer-stack backward against the tape oracle.

``harness.collect_grads`` seeds ``Model.backward`` with the closed-form
loss-head cotangents of each forward's logits; the oracle builds the
generic tape through every layer and through the loss head instead
(``tape_forward`` plus the ``tape_*_loss`` heads). On random models,
batches and losses the two must agree to rounding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fimtta import harness, losses
from fimtta.model import build_classifier, record_source_stats
from oracle import (
    tape_consistency_loss,
    tape_entropy_loss,
    tape_forward,
    tape_grads,
    tape_nll_loss,
    tape_params,
    with_dense_biases,
)

RTOL = 1e-12
# dense biases in front of batch-stat norms have analytically zero
# gradients, so on them both sides are rounding noise
NORM_FLOOR = 1e-3


@st.composite
def cases(draw):
    input_dim = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(1, 10), max_size=3))
    class_count = draw(st.integers(2, 4))
    n = draw(st.integers(2, 12))
    batch_stats = draw(st.booleans())
    loss = draw(st.sampled_from(["entropy", "nll", "total"]))
    lam = draw(st.sampled_from([0.0, 0.1, 2.5]))
    kind = draw(st.sampled_from(["sigmoid", "softmax"]))
    seed = draw(st.integers(0, 2**32 - 1))
    biased = draw(st.booleans())  # every dense layer with a bias: the older layout
    return input_dim, hidden, class_count, n, batch_stats, loss, lam, kind, seed, biased


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_collect_grads_matches_tape_oracle(case):
    input_dim, hidden, class_count, n, batch_stats, loss, lam, kind, seed, biased = case
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
        passes = [(saved, losses.entropy_loss(y)[1])]
        tape_loss = tape_entropy_loss(tape_y)
    elif loss == "nll":
        passes = [(saved, losses.nll_loss(y, labels)[1])]
        tape_loss = tape_nll_loss(tape_y, labels)
    else:  # entropy + lam * consistency, composed as the online loop does
        g_aug = losses.consistency_loss(y, y_aug, kind=kind)[1]
        passes = [(saved, losses.entropy_loss(y)[1]), (saved_aug, lam * g_aug)]
        tape_loss = tape_entropy_loss(tape_y) + tape_consistency_loss(tape_y, tape_y_aug, kind) * lam

    got = harness.collect_grads(model, passes)
    ref = tape_grads(leaves, tape_loss)
    assert got.shape == model.theta.shape
    for name, ref_grads in ref.items():
        g = got[model.slices[name]]
        r = np.concatenate([a.ravel() for a in ref_grads])
        tol = RTOL * max(float(np.linalg.norm(r)), NORM_FLOOR)
        assert np.abs(g - r).max() <= tol, name
