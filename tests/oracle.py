"""Tape references for the model's forward, layer backward and loss heads.

``tape_forward`` records the generic autodiff tape (``autodiff.py``)
through every layer over leaves that wrap the model's parameter arrays,
and the ``tape_*_loss`` heads differentiate the three losses by the same
tape, so ``tape_grads`` of any loss of its logits gives gradients that
share no code with ``Model.backward`` or the closed-form gradients in
``fimtta.losses``. ``score`` is the batch-mean pseudo-label score taken
from that tape, and ``replay_scores`` the per-sample scores, one tape
replay per sample. ``batch_grads`` is the library's own path: one
``Model.forward``, a closed-form loss head and ``harness.collect_grads``;
``layer_grads`` splits its flat gradient back into per-layer arrays, and
``param_snapshot`` copies every layer's parameters, and ``with_dense_biases``
gives a model the older layout in which every dense layer has a bias.
``assert_layers_match`` holds the library's per-layer arrays to the tape's.
``reference_adapt`` is the online loop of ``harness.adapt_stream`` as a
plain loop over these pieces, with the traces, their fold, the scaler and
Adam written out by their definitions.
"""

from __future__ import annotations

import numpy as np

import autodiff as ad
from fimtta import harness
from fimtta.losses import AUGMENT_NOISE_SCALE, AUGMENT_SCALE_RANGE
from fimtta.model import Model

RTOL = 1e-12
# dense biases in front of batch-stat norms have analytically zero
# gradients and scores, so on them both sides are rounding noise
NORM_FLOOR = 1e-3


def assert_layers_match(got: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> None:
    """Each layer's array of ``got`` equals ``ref``'s within RTOL of the
    largest of its norm, the norm of every layer together and NORM_FLOOR.
    A layer whose values are what cancellation leaves (a dense layer in
    front of a batch-statistic norm) carries rounding error on the scale of
    the cancelled terms, so its bound is floored at the whole's."""
    assert got.keys() == ref.keys()
    whole = float(np.sqrt(sum(np.vdot(r, r) for r in ref.values())))
    for name, r in ref.items():
        assert got[name].shape == r.shape
        tol = RTOL * max(float(np.linalg.norm(r)), whole, NORM_FLOOR)
        assert np.abs(got[name] - r).max() <= tol, name


def tape_params(model: Model) -> dict[str, list[ad.Tensor]]:
    """One differentiable leaf per parameter array, sharing its memory."""
    return {layer.name: [ad.param(p) for p in layer.params] for layer in model.weight_layers()}


def tape_forward(model: Model, inputs, leaves: dict[str, list[ad.Tensor]], batch_stats: bool = True) -> ad.Tensor:
    """Logits as a tape over ``leaves``; values equal ``model.forward``."""
    x = ad.constant(inputs)
    model._check_inputs(x.data)
    out = x
    for layer in model.layers:
        if layer.kind == "dense":
            weight, *bias = leaves[layer.name]
            out = ad.matmul(out, weight)
            if bias:
                out = ad.add(out, bias[0])
        elif layer.kind == "norm":
            scale, shift = leaves[layer.name]
            mean, var = model._fixed_stats(layer, batch_stats)
            out = ad.batch_norm(out, scale, shift, mean=mean, var=var)
        else:
            out = ad.relu(out)
    return out


def tape_grads(leaves: dict[str, list[ad.Tensor]], loss: ad.Tensor, seed=None) -> dict[str, list[np.ndarray]]:
    """Per-layer gradients of a loss built on ``tape_forward`` logits."""
    grads = iter(ad.grads_of(loss, [p for params in leaves.values() for p in params], seed=seed))
    return {name: [next(grads) for _ in params] for name, params in leaves.items()}


def tape_entropy_loss(logits: ad.Tensor) -> ad.Tensor:
    """Batch mean of the Shannon entropy of softmax(logits)."""
    ls = ad.log_softmax(logits)
    return ad.sum_all(ad.mul(ad.exp(ls), ls)) * (-1.0 / logits.data.shape[0])


def tape_consistency_loss(logits: ad.Tensor, aug_logits: ad.Tensor) -> ad.Tensor:
    """Consistency of ``aug_logits`` with the detached clean ``logits``."""
    weights = ad.sigmoid(logits.detach())
    log_term = ad.log_sigmoid(aug_logits)
    return ad.sum_all(ad.mul(weights, log_term)) * (-1.0 / logits.data.shape[0])


def tape_nll_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    ls = ad.log_softmax(logits)
    return ad.sum_all(ad.take_per_row(ls, labels)) * (-1.0 / logits.data.shape[0])


def score(model: Model, inputs, batch_stats: bool = True) -> dict[str, list[np.ndarray]]:
    """Batch-mean score per layer: gradient of the mean pseudo-label log-likelihood."""
    leaves = tape_params(model)
    logits = tape_forward(model, inputs, leaves, batch_stats=batch_stats)
    pseudo = logits.data.argmax(axis=1)
    return tape_grads(leaves, tape_nll_loss(logits, pseudo) * -1.0)


def replay_scores(model: Model, inputs, batch_stats: bool = True) -> dict[str, np.ndarray]:
    """Per-sample scores [n, param_count] per layer: one tape replay per sample, seeded with e_i."""
    leaves = tape_params(model)
    ls = ad.log_softmax(tape_forward(model, inputs, leaves, batch_stats=batch_stats))
    ll_vec = ad.take_per_row(ls, ls.data.argmax(axis=1))
    n = ll_vec.data.shape[0]
    out = {layer.name: np.empty((n, layer.param_count())) for layer in model.weight_layers()}
    for i in range(n):
        for name, grads in tape_grads(leaves, ll_vec, seed=np.eye(n)[i]).items():
            out[name][i] = np.concatenate([g.ravel() for g in grads])
    return out


def batch_grads(model: Model, loss_of, inputs, batch_stats: bool = True) -> np.ndarray:
    """Flat ``collect_grads`` of ``loss_of(logits) -> (value, d value / d logits)``
    over one forward of ``inputs``."""
    logits, saved = model.forward(inputs, batch_stats=batch_stats)
    return harness.collect_grads(model, saved, loss_of(logits)[1])


def layer_grads(model: Model, grad: np.ndarray) -> dict[str, list[np.ndarray]]:
    """A flat gradient as per-layer views shaped like each layer's ``params``."""
    out: dict[str, list[np.ndarray]] = {}
    for layer in model.weight_layers():
        flat, out[layer.name] = grad[model.slices[layer.name]], []
        for p in layer.params:
            out[layer.name].append(flat[: p.size].reshape(p.shape))
            flat = flat[p.size :]
    return out


def param_snapshot(model: Model) -> dict[str, list[np.ndarray]]:
    """Copies of every layer's parameter arrays, keyed by layer name."""
    return {layer.name: [p.copy() for p in layer.params] for layer in model.layers}


def with_dense_biases(model: Model, rng: np.random.Generator) -> Model:
    """A copy of ``model`` in which every dense layer has a bias, drawn
    from ``rng`` where ``model`` has none (the layout before hidden dense
    layers dropped theirs)."""
    layers = model.clone().layers
    for layer in layers:
        if layer.kind == "dense" and len(layer.params) == 1:
            layer.params.append(rng.standard_normal(layer.params[0].shape[1]))
    return Model(layers, model.input_dim, model.class_count)


def reference_adapt(model: Model, stream, config: harness.AdaptConfig) -> list[harness.MetricsRecord]:
    """``harness.adapt_stream``'s records for ``stream``, built from the tape;
    adapts ``model`` in place as that loop does.

    Per batch: drop the rows with a non-finite feature; with fewer rows
    left than the method normalizes with, record NaN metrics and change
    nothing. Otherwise the clean forward gives the error and the entropy.
    With a consistency term (an updating method at lam > 0) the jittered
    copy has a forward of its own: noise, then a rescaling, drawn first from
    a generator seeded as the loop's. A weighted method takes each layer's
    batch trace as the mean squared norm of its per-sample scores
    (``replay_scores``), folds it into the running total as gamma * old +
    batch, and weighs the layer by the root of the total: raw under
    ``naive_eq6``, min-max scaled under ``layerwise``; ``uniform_tent``
    weighs every layer 1. The step is SGD or Adam on each layer at eta times
    its weight. The whole batch after the draw runs under
    ``np.errstate(over="raise", invalid="raise")`` into new values, and an
    overflow or a NaN anywhere in it skips the batch: NaN metrics, nothing
    changed.
    """
    cfg = config
    layers = model.weight_layers()
    updating = cfg.method in harness.WEIGHTED_METHODS + ("uniform_tent",)
    weighted = cfg.method in harness.WEIGHTED_METHODS
    batch_stats = cfg.method != "source"
    least = 1 if cfg.method == "source" else 2  # one row has no batch statistics
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA06)))
    # the running traces and diagonal, and Adam's moments and step count
    state = (np.zeros(len(layers)), {layer.name: np.zeros(layer.param_count()) for layer in layers},
             np.zeros(model.theta.size), np.zeros(model.theta.size), 0)

    def adapt(batch) -> harness.MetricsRecord:
        nonlocal state
        finite = np.isfinite(batch.inputs).all(axis=1)
        x, labels = batch.inputs[finite], stream.labels_for(batch.step)[finite]
        rec = harness.MetricsRecord(batch.step, batch.domain, batch.severity, np.nan, np.nan, np.nan,
                                    [np.nan] * len(layers), dropped_rows=int((~finite).sum()), skipped=True)
        if len(x) < least:
            return rec
        if updating and cfg.lam > 0.0:
            noise, factor = rng.standard_normal(x.shape), rng.uniform(*AUGMENT_SCALE_RANGE, size=x.shape)
        traces, diagonal, m, v, t = state
        try:
            with np.errstate(over="raise", invalid="raise"):
                leaves = tape_params(model)
                logits = tape_forward(model, x, leaves, batch_stats=batch_stats)
                loss = entropy = tape_entropy_loss(logits)
                consistency = 0.0
                if updating and cfg.lam > 0.0:
                    jittered = (x + AUGMENT_NOISE_SCALE * noise) * factor
                    consistency = tape_consistency_loss(logits, tape_forward(model, jittered, leaves, batch_stats))
                    loss = entropy + consistency * cfg.lam
                    consistency = consistency.item()
                w, w_raw, theta, diag = [1.0 if updating else 0.0] * len(layers), [], model.theta, None
                if updating:
                    grad = np.concatenate([g.ravel() for params in tape_grads(leaves, loss).values() for g in params])
                    if weighted:
                        scores = replay_scores(model, x, batch_stats=batch_stats)
                        batch_diagonal = {name: (s * s).mean(axis=0) for name, s in scores.items()}
                        traces = cfg.gamma * traces + np.array([d.sum() for d in batch_diagonal.values()])
                        diagonal = {name: cfg.gamma * diagonal[name] + d for name, d in batch_diagonal.items()}
                        diag = diagonal if cfg.track_diagonal else None
                        w = np.sqrt(traces)
                        w_raw = w.tolist()
                        if cfg.method == "layerwise":  # ((w - min) / (max - min + 1e-8)) ** tau
                            w = ((w - w.min()) / (w.max() - w.min() + 1e-8)) ** cfg.tau
                        w = w.tolist()
                    rates = cfg.eta * np.repeat(w, model.layer_sizes)
                    if cfg.optimizer == "adam":
                        t += 1
                        m = 0.9 * m + 0.1 * grad
                        v = 0.999 * v + 0.001 * grad * grad
                        grad = (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
                    theta = model.theta - rates * grad
        except FloatingPointError:
            return rec
        state = traces, diagonal, m, v, t
        model.theta[:] = theta
        rec.skipped, rec.error = False, float(np.mean(logits.data.argmax(axis=1) != labels))
        rec.entropy, rec.consistency, rec.w_raw, rec.w_bar, rec.diag = entropy.item(), consistency, w_raw, w, diag
        return rec

    return [adapt(batch) for batch in stream]
