"""Bounded per-layer learning rates and the layer-wise weighted update.

Raw learning weights are unbounded, so they pass through an exponential
min-max scaler ((w - min) / (max - min + eps)) ** tau before multiplying
the base rate. tau > 1 damps over-scaled mid weights, tau < 1 boosts
under-scaled ones, and tau = 0 is defined to yield all-ones weights,
reducing the method to uniform-rate fine-tuning.
"""

from __future__ import annotations

import logging

import numpy as np

from .model import Model

logger = logging.getLogger(__name__)

DEFAULT_EPSILON = 1e-8


def exp_minmax_scale(w, tau: float, eps: float = DEFAULT_EPSILON) -> np.ndarray:
    """Scale raw per-layer weights into [0, 1], preserving their order."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(
            f"exp_minmax_scale: need >= 2 layers, got shape {arr.shape}"
        )
    if tau < 0:
        raise ValueError(f"exp_minmax_scale: tau must be >= 0, got {tau}")
    if eps <= 0:
        raise ValueError(f"exp_minmax_scale: eps must be > 0, got {eps}")
    if tau == 0.0:
        # defined as uniform all-ones rather than evaluating 0**0
        return np.ones_like(arr)
    lo = arr.min()
    hi = arr.max()
    return ((arr - lo) / (hi - lo + eps)) ** tau


def layer_rates(w_bar, eta: float) -> np.ndarray:
    """Per-layer rates eta * w; pass scaled weights, or raw ones for the
    unbounded naive mode."""
    if eta <= 0:
        raise ValueError(f"layer_rates: base rate must be > 0, got {eta}")
    return eta * np.asarray(w_bar, dtype=np.float64)


class AdamState:
    """Per-parameter Adam moments; the per-layer rate is the step size.

    Moments keep accumulating for zero-rate layers so a layer that
    unfreezes later steps with its full history; buffers persist across
    domain shifts.
    """

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: dict[tuple[str, int], np.ndarray] = {}
        self._v: dict[tuple[str, int], np.ndarray] = {}

    def update(self, key: tuple[str, int], grad: np.ndarray) -> np.ndarray:
        """Fold in a gradient and return the unit-rate step direction."""
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(grad)
            v = np.zeros_like(grad)
        else:
            v = self._v[key]
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        m_hat = m / (1.0 - self.beta1**self.step_count)
        v_hat = v / (1.0 - self.beta2**self.step_count)
        return m_hat / (np.sqrt(v_hat) + self.eps)


def weighted_step(
    model: Model,
    grads: dict[str, list[np.ndarray]],
    rates,
    optimizer: AdamState | None = None,
) -> bool:
    """Descend each trainable layer by its own rate; True if applied.

    ``rates`` aligns with ``model.weight_layers()``. Without an
    optimizer this is the plain per-layer SGD update; with one, the rate
    multiplies the Adam step. A non-finite rate, or a non-finite value in
    any gradient, rejects the whole step: the model and the Adam moments
    are left untouched and the incident logged.
    """
    layers = model.weight_layers()
    rate_arr = np.asarray(rates, dtype=np.float64)
    if rate_arr.shape != (len(layers),):
        raise ValueError(
            f"weighted_step: expected {len(layers)} rates, got shape {rate_arr.shape}"
        )
    if not np.isfinite(rate_arr).all():
        logger.warning("weighted_step: non-finite rates %s; step rejected", rate_arr)
        return False
    for layer in layers:
        if not layer.trainable:
            continue
        for g in grads[layer.name]:
            if not np.isfinite(g).all():
                logger.warning(
                    "weighted_step: non-finite gradient in layer %s; step rejected",
                    layer.name,
                )
                return False
    if optimizer is not None:
        optimizer.step_count += 1
    for rate, layer in zip(rate_arr, layers):
        if not layer.trainable:
            continue
        layer_grads = grads[layer.name]
        if optimizer is None:
            if rate == 0.0:
                continue
            for p, g in zip(layer.params, layer_grads):
                p -= rate * g
        else:
            for idx, (p, g) in enumerate(zip(layer.params, layer_grads)):
                direction = optimizer.update((layer.name, idx), g)
                if rate != 0.0:
                    p -= rate * direction
    return True
