"""Tape references for the model's plain-array forward and layer backward.

``tape_forward`` records the generic autodiff tape through every layer,
so ``ad.grads_of`` on any loss of its logits gives gradients that share
no code with ``Model.backward``. ``score`` is the batch-mean pseudo-label
score taken from that tape. ``batch_grads`` is the library's own path:
``Model.forward`` per input batch, the loss over logit leaves, and
``harness.collect_grads``.
"""

from __future__ import annotations

import numpy as np

from fimtta import autodiff as ad
from fimtta import harness
from fimtta.model import Model


def tape_forward(model: Model, inputs, batch_stats: bool = True) -> ad.Tensor:
    """Logits as a tape over the model's parameters; values equal ``model.forward``."""
    x = ad.constant(inputs)
    model._check_inputs(x.data)
    out = x
    for layer in model.layers:
        if layer.kind == "dense":
            weight, bias = layer.params
            out = ad.add(ad.matmul(out, weight), bias)
        elif layer.kind == "norm":
            scale, shift = layer.params
            mean, var = model._fixed_stats(layer, batch_stats)
            out = ad.batch_norm(out, scale, shift, mean=mean, var=var)
        else:
            out = ad.relu(out)
    return out


def tape_grads(model: Model, loss: ad.Tensor) -> dict[str, list[np.ndarray]]:
    """Per-layer gradients of a loss built on ``tape_forward`` logits."""
    return {layer.name: ad.grads_of(loss, layer.params) for layer in model.weight_layers()}


def score(model: Model, inputs, batch_stats: bool = True) -> dict[str, list[np.ndarray]]:
    """Batch-mean score per layer: gradient of the mean pseudo-label log-likelihood."""
    ls = ad.log_softmax(tape_forward(model, inputs, batch_stats=batch_stats))
    return tape_grads(model, ad.mean_all(ad.take_per_row(ls, ls.data.argmax(axis=1))))


def batch_grads(model: Model, make_loss, *inputs, batch_stats: bool = True):
    """``collect_grads`` of ``make_loss(*logit_leaves)``, one forward per input batch."""
    passes = []
    for x in inputs:
        logits, saved = model.forward(x, batch_stats=batch_stats)
        passes.append((ad.param(logits), saved))
    return harness.collect_grads(model, make_loss(*(leaf for leaf, _ in passes)), passes)
