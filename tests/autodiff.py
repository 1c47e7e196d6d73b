"""Minimal dense-tensor engine with reverse-mode differentiation.

The engine of the tests' gradient oracle (``oracle.py``): the layer ops
(matrix multiply, bias add, ReLU, batch normalization with a learnable
affine) and the loss-head ops (log-softmax, log-sigmoid, elementwise
arithmetic, reductions) differentiate by a generic tape, independently
of the library's closed-form loss gradients and ``Model.backward``.
Everything is float64 and eager; each operation records a tape node so a
later ``backward`` call can replay the chain rule. Tapes are per-batch.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from fimtta.model import ShapeError, normalize


def _shape_fail(op: str, *shapes: tuple[int, ...]) -> ShapeError:
    listed = " and ".join(str(s) for s in shapes)
    return ShapeError(f"{op}: incompatible shapes {listed}")


class Tensor:
    """Dense float64 array plus the tape node that produced it.

    Leaf tensors are created directly from data; non-leaf tensors are
    created by operations and keep references to their parents and a
    vector-Jacobian closure for the backward pass. ``data`` is treated
    as immutable once the tensor participates in a graph.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Constant view of this tensor's values, cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # elementwise arithmetic; scalars are plain Python numbers
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__


def param(data) -> Tensor:
    """Leaf tensor registered as differentiable (a model parameter)."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(data)
    out = Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return out


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product [n,k] @ [k,m]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_fail("matmul", a.data.shape, b.data.shape)
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray):
        return g @ bd.T, ad.T @ g

    return _make(ad @ bd, (a, b), vjp)


def _addlike_mode(op: str, a: Tensor, b: Tensor) -> str:
    """Classify the supported broadcast: same shape, row bias, or scalar."""
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return "same"
    if len(sa) == 2 and sb == (sa[1],):
        return "bias"
    if sb == ():
        return "scalar_b"
    if sa == ():
        return "scalar_a"
    raise _shape_fail(op, sa, sb)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    # row-vector bias under a 2-D output
    return g.sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also covers [n,m] + [m] bias rows and scalars."""
    _addlike_mode("add", a, b)
    sa, sb = a.data.shape, b.data.shape

    def vjp(g: np.ndarray):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return _make(a.data + b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors, or scaling by a scalar."""
    mode = _addlike_mode("mul", a, b)
    if mode == "bias":
        raise _shape_fail("mul", a.data.shape, b.data.shape)
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape

    def vjp(g: np.ndarray):
        return _reduce_to(g * bd, sa), _reduce_to(g * ad, sb)

    return _make(ad * bd, (a, b), vjp)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def vjp(g: np.ndarray):
        return (g * out_data,)

    return _make(out_data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def vjp(g: np.ndarray):
        return (g * mask,)

    # np.maximum, not where: NaN inputs must propagate, not silently zero
    return _make(np.maximum(a.data, 0.0), (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def vjp(g: np.ndarray):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed as -log1p(exp(-x)) without overflow; its
    derivative is 1 - sigmoid(x), taken as sigmoid(-x) so the tail where
    sigmoid(x) rounds to 1 keeps its relative accuracy."""
    sd = _sigmoid(-a.data)

    def vjp(g: np.ndarray):
        return (g * sd,)

    return _make(-np.logaddexp(0.0, -a.data), (a,), vjp)


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax of a [n, C] logit matrix."""
    if a.data.ndim != 2:
        raise _shape_fail("log_softmax", a.data.shape)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sm = np.exp(ls)

    def vjp(g: np.ndarray):
        return (g - sm * g.sum(axis=1, keepdims=True),)

    return _make(ls, (a,), vjp)


def batch_norm(
    x: Tensor,
    scale: Tensor,
    shift: Tensor,
    mean: np.ndarray | None = None,
    var: np.ndarray | None = None,
) -> Tensor:
    """Feature-wise normalization of [n, f] activations with affine.

    With ``mean``/``var`` omitted the current batch statistics are used
    and gradients flow through them; passing fixed statistics (the
    frozen-source path) treats them as constants. ``model.normalize``
    floors the variance so zero-variance features reduce to the affine
    offset.
    """
    if x.data.ndim != 2:
        raise _shape_fail("batch_norm", x.data.shape)
    f = x.data.shape[1]
    if scale.data.shape != (f,) or shift.data.shape != (f,):
        raise _shape_fail("batch_norm", x.data.shape, scale.data.shape, shift.data.shape)
    n = x.data.shape[0]
    batch_stats = mean is None
    xhat, inv_std, _, _ = normalize(x.data, mean, var)
    scale_d = scale.data

    def vjp(g: np.ndarray):
        g_scale = (g * xhat).sum(axis=0)
        g_shift = g.sum(axis=0)
        g_xhat = g * scale_d
        if batch_stats:
            g_x = (inv_std / n) * (
                n * g_xhat
                - g_xhat.sum(axis=0)
                - xhat * (g_xhat * xhat).sum(axis=0)
            )
        else:
            g_x = g_xhat * inv_std
        return g_x, g_scale, g_shift

    return _make(xhat * scale_d + shift.data, (x, scale, shift), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def vjp(g: np.ndarray):
        return (np.full(shape, float(g)),)

    return _make(np.asarray(a.data.sum()), (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size
    shape = a.data.shape

    def vjp(g: np.ndarray):
        return (np.full(shape, float(g) / size),)

    return _make(np.asarray(a.data.mean()), (a,), vjp)


def take_per_row(a: Tensor, indices) -> Tensor:
    """Pick one column per row of a [n, C] matrix: out[i] = a[i, idx[i]]."""
    idx = np.asarray(indices)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise _shape_fail("take_per_row", a.data.shape, idx.shape)
    rows = np.arange(a.data.shape[0])
    shape = a.data.shape

    def vjp(g: np.ndarray):
        out = np.zeros(shape)
        out[rows, idx] = g
        return (out,)

    return _make(a.data[rows, idx], (a,), vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(output: Tensor, seed: np.ndarray | None = None) -> None:
    """Populate ``.grad`` on every differentiable leaf reachable from output.

    Without a seed the output must be scalar (shape ``()``) and the pass
    starts from 1.0; a seed of the output's shape starts the pass from an
    arbitrary cotangent, such as a unit vector over a vector of
    per-sample losses. Grad slots are overwritten, not accumulated, so
    repeated calls from the same tape state agree.
    """
    if seed is None:
        if output.data.shape != ():
            raise ShapeError(
                f"backward: output must be scalar, got shape {output.data.shape}"
            )
        seed_arr = np.ones(())
    else:
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != output.data.shape:
            raise _shape_fail("backward seed", seed_arr.shape, output.data.shape)
    if not output.requires_grad:
        return
    # iterative post-order; the tape is acyclic by construction
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    grads: dict[int, np.ndarray] = {id(output): seed_arr}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def grads_of(output: Tensor, leaves: Sequence[Tensor], seed: np.ndarray | None = None) -> list[np.ndarray]:
    """Run backward and return the gradients of the given leaves in order."""
    for leaf in leaves:
        leaf.grad = None
    backward(output, seed=seed)
    out = []
    for leaf in leaves:
        g = leaf.grad
        out.append(np.zeros(leaf.data.shape) if g is None else g)
    return out
