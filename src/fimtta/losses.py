"""Adaptation objectives: Shannon entropy, augmentation consistency, NLL.

Each loss takes plain [n, C] logit arrays and returns its value together
with its gradient with respect to the logits, in closed form; that
gradient is the cotangent ``Model.backward`` starts from. Each gradient
is formed with respect to the log-probabilities the loss reads, then
taken through the log-softmax (or log-sigmoid) Jacobian.

The consistency term scores agreement between a batch's logits and the
logits of a jittered copy, with the clean prediction detached as pseudo
label, in the paper's literal form: an elementwise sigmoid of both logit
vectors.
"""

from __future__ import annotations

import numpy as np

from .model import ShapeError

# the jittered copy: additive Gaussian noise of this standard deviation,
# then a per-element positive feature rescaling drawn from this range
AUGMENT_NOISE_SCALE = 0.1
AUGMENT_SCALE_RANGE = (0.9, 1.1)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a [n, C] logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _through_log_softmax(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. z of sum(g * log_softmax(z)), where p = softmax(z)."""
    return g - p * g.sum(axis=1, keepdims=True)


def entropy_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch mean H of the Shannon entropy of softmax(logits), and dH/dlogits.

    With ls = log_softmax(z) and p = exp(ls), H = -sum(p * ls) / n and
    dH/dz = -p * (ls - sum_c p * ls) / n.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"entropy_loss: need [batch, C>=2] logits, got shape {z.shape}")
    scale = -1.0 / z.shape[0]
    ls = log_softmax(z)
    p = np.exp(ls)
    # dH/dls = scale * (p + ls * p), since dp/dls = p
    return float((p * ls).sum() * scale), _through_log_softmax(scale * p + (scale * ls) * p, p)


def consistency_loss(logits: np.ndarray, aug_logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy-style agreement L between clean and augmented logits,
    and dL/d(aug_logits).

    The clean logits z act as pseudo label and are detached: the loss is
    differentiated only through the augmented logits zh. Each class term
    weighs w = sigmoid(z) against log sigmoid(zh), so
    dL/dzh = -w * (1 - sigmoid(zh)) / n. Both sigmoids are exponentials of
    log-sigmoids, whose exponents are <= 0: w = exp(log sigmoid(z)) and
    1 - sigmoid(zh) = sigmoid(-zh) = exp(log sigmoid(zh) - zh), which keeps
    its relative accuracy where sigmoid(zh) rounds to 1.
    """
    z = np.asarray(logits, dtype=np.float64)
    zh = np.asarray(aug_logits, dtype=np.float64)
    if z.shape != zh.shape:
        raise ShapeError(f"consistency_loss: incompatible shapes {z.shape} and {zh.shape}")
    scale = -1.0 / z.shape[0]
    weights = np.exp(-np.logaddexp(0.0, -z))
    log_term = -np.logaddexp(0.0, -zh)
    grad = (scale * weights) * np.exp(log_term - zh)
    return float((weights * log_term).sum() * scale), grad


def augment(batch: np.ndarray, rng: np.random.Generator, out=None) -> np.ndarray:
    """Additive Gaussian jitter plus mild positive feature rescaling, written
    into ``out`` when given; draws are fully determined by the generator
    state."""
    x = np.asarray(batch, dtype=np.float64)
    if x.size == 0:
        raise ValueError("augment: empty batch")
    x = x + AUGMENT_NOISE_SCALE * rng.standard_normal(x.shape)
    return np.multiply(x, rng.uniform(*AUGMENT_SCALE_RANGE, size=x.shape), out=out)


def nll_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels under softmax(logits),
    and its gradient (softmax(logits) - onehot(labels)) / n."""
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    c = z.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ValueError(
            f"nll_loss: labels must lie in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    n = z.shape[0]
    scale = -1.0 / n
    ls = log_softmax(z)
    rows = np.arange(n)
    g = np.zeros_like(z)
    g[rows, labels] = scale
    return float(ls[rows, labels].sum() * scale), _through_log_softmax(g, np.exp(ls))
