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
from .model import Model


@dataclass
class FisherState:
    """Per-layer accumulated traces with decay, plus an optional diagonal.

    ``decay`` = 1 accumulates over the whole stream (traces never
    decrease); ``decay`` = 0 keeps only the current batch.
    """

    decay: float
    traces: dict[str, float]
    step: int = 0
    diagonals: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {self.decay}")

    @classmethod
    def for_model(cls, model: Model, decay: float = 1.0, track_diagonal: bool = False) -> "FisherState":
        names = model.weight_layer_names()
        diagonals = None
        if track_diagonal:
            diagonals = {
                layer.name: np.zeros(layer.param_count())
                for layer in model.weight_layers()
            }
        return cls(decay=decay, traces={n: 0.0 for n in names}, diagonals=diagonals)


# Samples per chunk of the batched reverse pass are capped so that
# chunk samples x batch rows stays at about this many; it bounds the
# [samples, batch, features] cotangent temporaries.
_CHUNK_ROWS = 512


def per_sample_scores(model: Model, logits: np.ndarray, saved: list) -> dict[str, np.ndarray]:
    """Flattened per-sample scores, one [batch, param_count] array per layer.

    ``logits`` and ``saved`` are one ``model.forward`` of the batch (the
    prediction pass). Sample i's row is the gradient of that sample's
    pseudo-label log-likelihood: one ``model.backward`` whose cotangent
    slice i is ``onehot(pseudo_i) - softmax_i`` in row i and zeros
    elsewhere. Samples go through in chunks of ``_CHUNK_ROWS // n`` (at
    least one), so s*n, and with it every temporary, stays bounded.
    """
    n = logits.shape[0]
    ls = log_softmax(logits)
    seed = -np.exp(ls)
    seed[np.arange(n), ls.argmax(axis=1)] += 1.0
    out = {
        layer.name: np.empty((n, layer.param_count())) for layer in model.weight_layers()
    }
    chunk = max(1, _CHUNK_ROWS // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        g = np.zeros((stop - start, n, seed.shape[1]))
        g[np.arange(stop - start), np.arange(start, stop)] = seed[start:stop]
        model.backward(saved, g, {name: rows[start:stop] for name, rows in out.items()})
    return out


def layer_fim_trace(scores_per_sample: dict[str, np.ndarray]) -> dict[str, float]:
    """Mean squared norm of each layer's per-sample scores.

    Equals the trace of the empirical second-moment matrix of the
    flattened scores without ever forming it.
    """
    out = {}
    for name, scores in scores_per_sample.items():
        arr = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if arr.shape[0] == 0:
            raise ValueError(f"layer_fim_trace: no sample scores for layer {name!r}")
        out[name] = float((arr * arr).sum(axis=1).mean())
    return out


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
    current: dict[str, float],
    current_diagonal: dict[str, np.ndarray] | None = None,
) -> FisherState:
    """Fold a batch's traces into the running state: new = decay*old + batch."""
    if set(current) != set(state.traces):
        raise ValueError(
            f"accumulate: layer mismatch, state has {sorted(state.traces)}, "
            f"batch has {sorted(current)}"
        )
    for name, value in current.items():
        state.traces[name] = state.decay * state.traces[name] + value
    if state.diagonals is not None and current_diagonal is not None:
        for name, diag in current_diagonal.items():
            state.diagonals[name] = state.decay * state.diagonals[name] + diag
    state.step += 1
    return state


def learning_weights(state: FisherState) -> dict[str, float]:
    """Raw per-layer weight: square root of the accumulated trace."""
    return {name: float(np.sqrt(value)) for name, value in state.traces.items()}


def dump_record(
    step: int,
    domain: str,
    severity: int,
    w: dict[str, float],
    w_bar: dict[str, float],
    diag: dict[str, np.ndarray] | None = None,
) -> dict:
    """One JSON-lines record for the per-step weight dumps."""
    record = {
        "step": step,
        "domain": domain,
        "severity": severity,
        "w": {name: float(v) for name, v in w.items()},
        "w_bar": {name: float(v) for name, v in w_bar.items()},
    }
    if diag is not None:
        record["diag"] = {name: np.asarray(d).tolist() for name, d in diag.items()}
    return record
