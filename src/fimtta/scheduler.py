"""Bounded per-layer learning rates and the layer-wise weighted update.

Raw learning weights are unbounded, so they pass through an exponential
min-max scaler ((w - min) / (max - min + EPSILON)) ** tau before
multiplying the base rate. tau > 1 damps over-scaled mid weights, tau < 1
boosts under-scaled ones, and tau = 0 is defined to yield all-ones
weights, reducing the method to uniform-rate fine-tuning.
"""

from __future__ import annotations

import logging

import numpy as np

from .model import Model

logger = logging.getLogger(__name__)

EPSILON = 1e-8  # keeps the scaler finite when every weight is equal


def exp_minmax_scale(w, tau: float) -> np.ndarray:
    """Scale raw per-layer weights into [0, 1], preserving their order.
    ``tau = 0`` gives all ones: ``x ** 0.0`` is 1.0 for every float64,
    NaN and +-inf included."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(
            f"exp_minmax_scale: need >= 2 layers, got shape {arr.shape}"
        )
    if tau < 0:
        raise ValueError(f"exp_minmax_scale: tau must be >= 0, got {tau}")
    lo = arr.min()
    hi = arr.max()
    return ((arr - lo) / (hi - lo + EPSILON)) ** tau


def layer_rates(w_bar, eta: float) -> np.ndarray:
    """Per-layer rates eta * w; pass scaled weights, or raw ones for the
    unbounded naive mode."""
    if eta <= 0:
        raise ValueError(f"layer_rates: base rate must be > 0, got {eta}")
    return eta * np.asarray(w_bar, dtype=np.float64)


class AdamState:
    """Adam moments ``m``, ``v`` ([P], laid out like ``Model.theta`` and
    allocated at the first step); the per-layer rate is the step size.

    Moments keep accumulating for zero-rate layers so a layer that
    unfreezes later steps with its full history; buffers persist across
    domain shifts.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def update(self, grad: np.ndarray) -> np.ndarray:
        """Count a step, fold a flat [P] gradient into the moments and
        return the unit-rate step direction."""
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        self.step_count += 1
        m, v = self.m, self.v
        m *= self.BETA1
        m += (1.0 - self.BETA1) * grad
        v *= self.BETA2
        v += (1.0 - self.BETA2) * grad * grad
        denom = np.sqrt(v / (1.0 - self.BETA2**self.step_count))
        denom += self.EPS
        return np.divide(m / (1.0 - self.BETA1**self.step_count), denom, out=denom)


def weighted_step(
    model: Model,
    grad: np.ndarray,
    rates,
    optimizer: AdamState | None = None,
) -> bool:
    """Descend each layer by its own rate; True if applied.

    ``grad`` is a flat [P] gradient laid out like ``model.theta`` and
    ``rates`` aligns with ``model.weight_layers()``. Without an
    optimizer this is the plain per-layer SGD update; with one, the rate
    multiplies the Adam step. Zero-rate layers keep their parameters but
    still fold their gradients into the Adam moments. A non-finite rate
    or gradient value rejects the whole step: the model and the Adam
    moments are left untouched and the incident logged.
    """
    layers = model.weight_layers()
    rate_arr = np.asarray(rates, dtype=np.float64)
    if rate_arr.shape != (len(layers),):
        raise ValueError(
            f"weighted_step: expected {len(layers)} rates, got shape {rate_arr.shape}"
        )
    if grad.shape != model.theta.shape:
        raise ValueError(f"weighted_step: expected a {model.theta.shape} gradient, got {grad.shape}")
    if not np.isfinite(rate_arr).all():
        logger.warning("weighted_step: non-finite rates %s; step rejected", rate_arr)
        return False
    if not np.isfinite(grad).all():
        bad = [name for name, cols in model.slices.items() if not np.isfinite(grad[cols]).all()]
        logger.warning("weighted_step: non-finite gradient in layers %s; step rejected", bad)
        return False
    direction = grad if optimizer is None else optimizer.update(grad)
    rate = np.repeat(rate_arr, model.layer_sizes)
    # a zero-rate layer's columns are left unwritten (a -0.0 stays -0.0); with none, no mask is needed
    np.subtract(model.theta, rate * direction, out=model.theta, where=True if rate_arr.all() else rate != 0.0)
    return True
