"""Batch gradients from the layer-stack backward against the tape oracle.

``harness.collect_grads`` seeds ``Model.backward`` with the loss-head
cotangents of each forward's logits; ``oracle.tape_forward`` builds the
generic tape through every layer instead. On random models, batches and
losses the two must agree to rounding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fimtta import losses
from fimtta.model import build_classifier, record_source_stats
from oracle import batch_grads, tape_forward, tape_grads

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
    return input_dim, hidden, class_count, n, batch_stats, loss, lam, kind, seed


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_collect_grads_matches_tape_oracle(case):
    input_dim, hidden, class_count, n, batch_stats, loss, lam, kind, seed = case
    rng = np.random.default_rng(seed)
    model = build_classifier(input_dim, hidden, class_count, seed=seed)
    for layer in model.weight_layers():
        for p in layer.params:
            p.data += 0.3 * rng.standard_normal(p.data.shape)
    record_source_stats(model, 1.5 * rng.standard_normal((40, input_dim)) + 0.5)
    x = rng.standard_normal((n, input_dim))
    x_aug = x + 0.1 * rng.standard_normal(x.shape)
    labels = rng.integers(0, class_count, size=n)

    if loss == "entropy":
        make_loss, inputs = losses.entropy_loss, (x,)
    elif loss == "nll":
        make_loss, inputs = (lambda y: losses.nll_loss(y, labels)), (x,)
    else:
        make_loss, inputs = (lambda y, y_aug: losses.total_loss(y, y_aug, lam, kind=kind)), (x, x_aug)

    got = batch_grads(model, make_loss, *inputs, batch_stats=batch_stats)
    tape_logits = [tape_forward(model, batch, batch_stats=batch_stats) for batch in inputs]
    ref = tape_grads(model, make_loss(*tape_logits))
    assert list(got) == model.weight_layer_names()
    for name, ref_grads in ref.items():
        g = np.concatenate([a.ravel() for a in got[name]])
        r = np.concatenate([a.ravel() for a in ref_grads])
        tol = RTOL * max(float(np.linalg.norm(r)), NORM_FLOOR)
        assert np.abs(g - r).max() <= tol, name
