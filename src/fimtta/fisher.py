"""Per-layer score functions, empirical trace estimates, and their
running accumulation across the test stream.

The score of a layer is the gradient of the log-likelihood of the hard
pseudo-labels (argmax of the current predictions) with respect to that
layer's parameters. The trace of the empirical second-moment matrix of
per-sample scores is computed directly as the mean squared score norm,
so the full |theta| x |theta| matrix is never materialized; its square
root is the layer's raw learning weight. The caller keeps the running
traces (and diagonal) as plain arrays, and ``accumulate`` folds each
batch into them with the run's decay: gamma * old + batch.
"""

from __future__ import annotations

import numpy as np

from .losses import log_softmax
from .model import Model


def _score_pass(model: Model, logits: np.ndarray, saved: list, sink) -> None:
    """Per-sample ``model.backward``: sample i's seed is the gradient of its
    pseudo-label log-likelihood w.r.t. its logits, onehot(argmax) - softmax."""
    n = logits.shape[0]
    ls = log_softmax(logits)
    seed = -np.exp(ls)
    seed[np.arange(n), ls.argmax(axis=1)] += 1.0
    model.backward(saved, seed, sink)


def row_writer(out: np.ndarray):
    """A ``Model.backward`` sink that writes each block into ``out`` [rows, P]."""

    def write(row: int, col: int, block: np.ndarray) -> None:
        out[row : row + len(block), col : col + block.shape[1]] = block

    return write


def per_sample_scores(model: Model, logits: np.ndarray, saved: list) -> dict[str, np.ndarray]:
    """Per-sample scores, one [batch, param_count] array per layer, over one
    ``model.forward`` of the batch: the matrix ``layer_fim_trace`` never forms."""
    out = np.empty((logits.shape[0], model.theta.size))
    _score_pass(model, logits, saved, row_writer(out))
    return {name: out[:, cols] for name, cols in model.slices.items()}


def layer_fim_trace(model: Model, logits: np.ndarray, saved: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer traces [L] of the per-sample scores' second-moment matrix,
    and its diagonal [P], over one ``model.forward`` of the batch: each
    layer's trace is the sum of its columns of the diagonal. Score blocks
    are squared as the reverse pass hands them over, so neither the [n, P]
    score matrix nor a [P, P] matrix is formed."""
    n = logits.shape[0]
    if n == 0:
        raise ValueError("layer_fim_trace: no sample scores in an empty batch")
    sums = np.zeros(model.theta.size)

    def square(row: int, col: int, block: np.ndarray) -> None:
        total = sums[col : col + block.shape[1]]
        total += np.einsum("ij,ij->j", block, block)  # in place: ``sums[...] +=`` would copy it back

    _score_pass(model, logits, saved, square)
    sums /= n
    return np.add.reduceat(sums, [cols.start for cols in model.slices.values()]), sums


def fim_diagonal(scores_per_sample: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Mean elementwise square of per-sample scores (visualization only)."""
    out = {}
    for name, scores in scores_per_sample.items():
        arr = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if arr.shape[0] == 0:
            raise ValueError(f"fim_diagonal: no sample scores for layer {name!r}")
        out[name] = (arr * arr).mean(axis=0)
    return out


def accumulate(total: np.ndarray, batch: np.ndarray, decay: float) -> None:
    """Fold a batch's traces [L] (or diagonal [P]) into their running total
    in place: total = decay * total + batch. ``decay`` = 1 accumulates over
    the whole stream (traces never decrease); ``decay`` = 0 keeps only the
    current batch."""
    if batch.shape != total.shape:
        raise ValueError(f"accumulate: layer mismatch, total has shape {total.shape}, batch has {batch.shape}")
    total *= decay
    total += batch


def learning_weights(traces: np.ndarray) -> np.ndarray:
    """Raw per-layer weights [L]: square roots of the accumulated traces."""
    return np.sqrt(traces)
