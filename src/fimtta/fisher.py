"""Per-layer score functions, empirical trace estimates, and their
running accumulation across the test stream.

The score of a layer is the gradient of the log-likelihood of the hard
pseudo-labels (argmax of the current predictions) with respect to that
layer's parameters. The trace of the empirical second-moment matrix of
per-sample scores is computed directly as the mean squared score norm,
so the full |theta| x |theta| matrix is never materialized; its square
root is the layer's raw learning weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import log_softmax
from .model import Model, row_writer


@dataclass
class FisherState:
    """Accumulated per-layer traces [L] with decay, plus an optional
    diagonal [P] laid out like ``Model.theta``.

    ``decay`` = 1 accumulates over the whole stream (traces never
    decrease); ``decay`` = 0 keeps only the current batch.
    """

    decay: float
    traces: np.ndarray
    diagonals: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {self.decay}")

    @classmethod
    def for_model(cls, model: Model, decay: float = 1.0, track_diagonal: bool = False) -> "FisherState":
        diagonals = np.zeros(model.theta.size) if track_diagonal else None
        return cls(decay=decay, traces=np.zeros(len(model.slices)), diagonals=diagonals)


def _score_pass(model: Model, logits: np.ndarray, saved: list, sink) -> None:
    """Per-sample ``model.backward``: sample i's seed is the gradient of its
    pseudo-label log-likelihood w.r.t. its logits, onehot(argmax) - softmax."""
    n = logits.shape[0]
    ls = log_softmax(logits)
    seed = -np.exp(ls)
    seed[np.arange(n), ls.argmax(axis=1)] += 1.0
    model.backward(saved, seed, sink)


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
        sums[col : col + block.shape[1]] += np.einsum("ij,ij->j", block, block)

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


def accumulate(
    state: FisherState,
    current: np.ndarray,
    current_diagonal: np.ndarray | None = None,
) -> FisherState:
    """Fold a batch's traces into the running state: new = decay*old + batch."""
    if current.shape != state.traces.shape:
        raise ValueError(
            f"accumulate: layer mismatch, state has {state.traces.shape[0]} layers, "
            f"batch has {current.shape}"
        )
    state.traces = state.decay * state.traces + current
    if state.diagonals is not None and current_diagonal is not None:
        state.diagonals = state.decay * state.diagonals + current_diagonal
    return state


def learning_weights(state: FisherState) -> np.ndarray:
    """Raw per-layer weights [L]: square roots of the accumulated traces."""
    return np.sqrt(state.traces)

