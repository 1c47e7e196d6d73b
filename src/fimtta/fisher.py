"""Per-layer score functions, empirical trace estimates, and their
running accumulation across the test stream.

The score of a layer is the gradient of the log-likelihood of the hard
pseudo-labels (argmax of the current predictions) with respect to that
layer's parameters. The trace of the empirical second-moment matrix of
per-sample scores is computed directly as the mean squared score norm,
so the full |theta| x |theta| matrix is never materialized; its square
root is the layer's raw learning weight. A score block owing its norm's
scale (only the chunk loop of ``Model.backward`` hands one) is paid it
by the sink. The caller keeps the running traces (and diagonal) as plain
arrays, and ``accumulate`` returns a batch folded into them as a new
array: gamma * old + batch.
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
    del ls  # not kept through the backward: it would add to the pass's peak memory
    model.backward(saved, seed, sink)


def per_sample_scores(model: Model, logits: np.ndarray, saved: list) -> dict[str, np.ndarray]:
    """Per-sample scores, one [batch, param_count] array per layer, over one
    ``model.forward`` of the batch: the matrix ``layer_fim_trace`` never forms.
    A block owing a scale is multiplied by it as it is written."""
    out = np.empty((logits.shape[0], model.theta.size))

    def write(row: int, col: int, block: np.ndarray, scale: np.ndarray | None) -> None:  # column c owes scale[c % f]
        out[row : row + len(block), col : col + block.shape[1]] = (
            block if scale is None else (block.reshape(len(block), -1, len(scale)) * scale).reshape(block.shape))

    _score_pass(model, logits, saved, write)
    return {name: out[:, cols] for name, cols in model.slices.items()}


def layer_fim_trace(model: Model, logits: np.ndarray, saved: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer traces [L] of the per-sample scores' second-moment matrix,
    and its diagonal [P], over one ``model.forward`` of the batch: each
    layer's trace is the sum of its columns of the diagonal. Score blocks
    are squared as the reverse pass hands them over, an owed scale paid
    squared once per call, so no [n, P] or [P, P] matrix is formed."""
    n = logits.shape[0]
    if n == 0:
        raise ValueError("layer_fim_trace: no sample scores in an empty batch")
    sums = np.zeros(model.theta.size)
    owed = {}  # column range -> the scale its blocks owe, paid squared once after the pass

    def square(row: int, col: int, block: np.ndarray, scale: np.ndarray | None) -> None:
        total = sums[col : col + block.shape[1]]
        total += np.einsum("ij,ij->j", block, block)  # in place: ``sums[...] +=`` would copy it back
        if scale is not None and col not in owed:
            owed[col] = total.reshape(-1, len(scale)), scale

    _score_pass(model, logits, saved, square)
    for total, scale in owed.values():
        total *= scale * scale
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


def accumulate(total: np.ndarray, batch: np.ndarray, decay: float) -> np.ndarray:
    """A batch's traces [L] (or diagonal [P]) folded into their running
    total, decay * total + batch, as a new array; ``total`` is not written.
    ``decay`` = 1 accumulates over the whole stream (traces never decrease);
    ``decay`` = 0 keeps only the current batch."""
    if batch.shape != total.shape:
        raise ValueError(f"accumulate: layer mismatch, total has shape {total.shape}, batch has {batch.shape}")
    folded = total * decay
    folded += batch
    return folded


def learning_weights(traces: np.ndarray) -> np.ndarray:
    """Raw per-layer weights [L]: square roots of the accumulated traces."""
    return np.sqrt(traces)
