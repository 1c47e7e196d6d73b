"""Layered classifier with named, individually addressable parameter groups.

A weight-bearing layer (a dense weight, with a bias unless a norm follows
it; or a normalization scale+shift) is the unit at which learning weights
and per-layer rates are assigned; activation layers carry no parameters
and are not counted. Layer enumeration order is stable, so index l means
the same layer to gradient extraction, trace accumulation and the
weighted update alike.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_HEADER = "fimtta-checkpoint v1"
NORM_EPS = 1e-5
# cap on chunk samples x batch rows in the row-coupled part of the per-sample pass; the slab buffers grow with
# it. Layer facts are set once per model, operands and slab views once per call; a chunk runs only array calls
_CHUNK_ROWS = 1024


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an operation."""


def normalize(
    xd: np.ndarray,
    mean: np.ndarray | None = None,
    var: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Standardize [n, f] or [g, n, f] values over their n rows: (xhat, inv_std, mean, var).

    Without ``mean``/``var`` each [n, f] group's own statistics are used.
    ``NORM_EPS`` floors the variance so zero-variance features reduce to the
    affine offset. The tests' tape oracle normalizes through here too, so its
    forward agrees with ``Model.forward`` bit for bit.
    """
    rows = (slice(None), None) if mean is None and xd.ndim == 3 else ()  # a group's [g, f] statistics on its rows
    if mean is None:
        # mean and (biased) variance over the rows, each one GEMV per group, recentring once
        ones = np.ones(xd.shape[-2])
        mu = ones @ xd
        mu /= xd.shape[-2]
        xhat = xd - mu[rows]
        sig2 = ones @ (xhat * xhat)
        sig2 /= xd.shape[-2]
    else:
        mu = np.asarray(mean, dtype=np.float64)
        sig2 = np.asarray(var, dtype=np.float64)
        xhat = xd - mu
    inv_std = 1.0 / np.sqrt(sig2 + NORM_EPS)
    xhat *= inv_std[rows]
    return xhat, inv_std, mu, sig2


@dataclass
class LayerParams:
    """One named layer: its kind, parameter arrays and buffers."""

    name: str
    kind: str  # dense | norm | relu
    params: list[np.ndarray] = field(default_factory=list)
    # frozen-source normalization statistics (norm layers only)
    source_mean: np.ndarray | None = None
    source_var: np.ndarray | None = None

    def param_count(self) -> int:
        return sum(p.size for p in self.params)


class Model:
    """Ordered stack of layers mapping [batch, input_dim] to [batch, C].

    Parameters live in one float64 vector ``theta`` ([P], also the gradient
    layout): layer ``name`` owns ``theta[slices[name]]``, its params are
    C-contiguous views of it, and ``layer_sizes[l]`` is weight layer l's
    column count."""

    def __init__(self, layers: list[LayerParams], input_dim: int, class_count: int):
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names: {names}")
        self.layers = layers
        self.input_dim = input_dim
        self.class_count = class_count
        self.theta = np.empty(sum(layer.param_count() for layer in layers))
        self._slabs = [np.empty(0), np.empty(0)]  # the per-sample pass's workspace; see ``backward``
        self.slices: dict[str, slice] = {}
        start = 0
        for layer in self.weight_layers():
            self.slices[layer.name] = slice(start, start + layer.param_count())
            params, layer.params = layer.params, []
            for p in params:
                view = self.theta[start : start + p.size].reshape(p.shape)
                view[...] = p
                layer.params.append(view)
                start += p.size
        self.layer_sizes = np.array([cols.stop - cols.start for cols in self.slices.values()], dtype=np.intp)  # [L]
        # per layer, for ``backward``: its kind, first theta column, weight size and whether it has a bias
        self._blocks = [(layer.kind, self.slices[layer.name].start, layer.params[0].size, len(layer.params) == 2)
                        if layer.params else (layer.kind, 0, 0, False) for layer in layers]

    def weight_layers(self) -> list[LayerParams]:
        """Parameter-bearing layers in forward order; defines the layer index."""
        return [layer for layer in self.layers if layer.params]

    def weight_layer_names(self) -> list[str]:
        return [layer.name for layer in self.weight_layers()]

    def _check_inputs(self, x: np.ndarray) -> None:
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise ShapeError(
                f"forward: expected [batch, {self.input_dim}] or [groups, batch, {self.input_dim}] inputs, got {x.shape}"
            )

    @staticmethod
    def _fixed_stats(layer: LayerParams, batch_stats: bool):
        """(mean, var) a norm layer normalizes with; (None, None) for the batch's."""
        if batch_stats:
            return None, None
        if layer.source_mean is None:
            raise RuntimeError(f"layer {layer.name}: no source statistics recorded")
        return layer.source_mean, layer.source_var

    def forward(self, inputs, batch_stats: bool = True) -> tuple[np.ndarray, list]:
        """Logits for [batch, input_dim] or [g, batch, input_dim] inputs, plus what ``backward`` needs.

        ``batch_stats=True`` normalizes each group with its own statistics
        (the convention during adaptation); ``False`` uses the stored
        source statistics, which is the frozen-source prediction path.
        The cache holds one entry per layer: a dense layer's input, a norm
        layer's ``(xhat, inv_std, mean, var)`` (moments only when they are
        the batch's own, so the backward flows through them), a ReLU's
        positive mask; a group's are those of its own forward, bit for bit.
        A norm's affine and a ReLU write in place into arrays this pass made,
        never into ``inputs`` or a cached array.
        """
        out = x = np.asarray(inputs, dtype=np.float64)
        self._check_inputs(out)
        saved: list = []
        for layer in self.layers:
            if layer.kind == "dense":
                saved.append(out)
                out = out @ layer.params[0]  # one GEMM per group: a GEMM over all rows rounds rows differently
                if len(layer.params) == 2:  # a bias
                    out += layer.params[1]
            elif layer.kind == "norm":
                scale, shift = layer.params
                norm = normalize(out, *self._fixed_stats(layer, batch_stats))
                saved.append(norm if batch_stats else norm[:2] + (None, None))
                out = norm[0] * scale  # a fresh array: the shift and a ReLU above write into it
                out += shift
            elif layer.kind == "relu":
                saved.append(out > 0.0)
                out = np.maximum(out, 0.0, out=None if out is x else out)  # in place unless it is the input
            else:
                raise ValueError(f"unknown layer kind {layer.kind!r}")
        return out, saved

    def backward(self, saved: list, g: np.ndarray, sink) -> None:
        """Gradients for a logit cotangent ``g`` (overwritten), handed to ``sink`` in blocks.

        ``g`` is [g, n, C] for the batch pass, slice k the gradient of
        ``sum(g[k] * logits[k])`` over cache group k (g = 1 for a 2-D forward),
        or a per-sample seed [n, C], entering as [n, 1, C], whose slice k is
        row k of the seed over row k of the cache alone. Per parameter array
        the pass calls ``sink(row, col, block)``: on every path ``block[j]`` is
        the gradient of ``theta[col:col + block.shape[1]]`` for slice row + j
        (a norm's scale and shift are one block), one row per slice from its
        own group alone, so a grouped pass's row k is bit for bit that of a
        forward of group k alone. A block may be a view the next layer
        overwrites: read it, do not keep it, and do not re-enter ``backward``
        on this model from the sink. One reverse loop over the layers serves
        both. At the first batch-statistic norm from the top the loop hands
        the seed back, and the rest runs in chunks of ``max(1,
        _CHUNK_ROWS // n)`` samples in the model's two slabs, where each such
        norm's row coupling ``(xhat * g_scale + g_shift) / n`` is one product
        ``[xhat | 1] @ D`` (-1/n sits in every batch-statistic norm's
        ``[xhat | 1]``, and its ``scale * inv_std`` is owed to the dense layer
        below; a bias-free first layer with input K takes the norm above's as
        ``(K^T [xhat | 1]) @ D``). Layer facts are set once per model;
        transposes, lifted operands, D buffers and slab views once per call; a
        chunk only runs array calls.
        """
        # nothing below the first weight layer needs a cotangent
        first = next((i for i, layer in enumerate(self.layers) if layer.params), len(self.layers))
        # per call, shared by every chunk: a dense layer's scaled transpose, a norm's scale * inv_std
        folded: dict[int, np.ndarray] = {}
        units = np.ones(g.shape[-2])  # per call: ``units[:m]`` sums a slice's m rows
        batch = g.ndim == 3

        def couple(lift, g_scale, g_shift, out):
            # a norm's coupling of each slice j, [xhat | 1] @ D_j, D_j = [diag(g_scale[j]); g_shift[j]], in a D
            # [at most 8 slices, f + 1, f] whose diagonal and last row alone are written: the rest is 0. The
            # lifted operand carries the factor -1/n, so D is filled by copies
            lifted, d, diagonal, last = lift
            for j in range(0, len(out), len(d)):
                k = min(len(d), len(out) - j)
                diagonal[:k], last[:k] = g_scale[j : j + k], g_shift[j : j + k]
                np.matmul(lifted, d[:k], out=out[j : j + k])
            return out

        def reverse(g, top, row, own, low, outs=None, scale=None):
            # [s, m, f] from layer top down; ``own``: m = 1, slice k sees cache
            # row k; a batch pass's slice k sees cache group k. In the chunk loop
            # ``outs`` holds each layer's outputs in the slabs and ``scale`` (a
            # norm's scale * inv_std, the top norm's on entry) is still owed by g;
            # the next dense layer folds it in. A norm ``low`` above ``first``
            # leaves its row coupling to the first layer
            s, m = g.shape[:2]
            ones = units[:m] if m < len(units) else units  # a view only where needed: it adds to peak memory
            for i in range(top, first - 1, -1):
                (kind, col, size, bias), kept = self._blocks[i], saved[i]
                if kind == "relu":
                    g *= kept[:, None] if own else kept  # commutes with the owed scale
                    continue
                out = outs and outs[i]
                if kind == "dense":
                    grad_w = np.matmul(kept[:, :, None] if own else kept.swapaxes(-1, -2), g, out=out and out[0])
                    if i < low:  # the norm above left its coupling: + (K^T [xhat | 1]) @ D, into the spent held slab
                        grad_w += couple(lifts[low], g_scale, g_shift, out[1])
                    if scale is not None:
                        grad_w *= scale
                    sink(row, col, grad_w.reshape(-1, size))
                    if bias:
                        sink(row, col + size, ones @ g if scale is None else (ones @ g) * scale)
                    if i > first:  # a contiguous transpose carries the owed scale down
                        if i not in folded:
                            folded[i] = self.layers[i].params[0].T.copy() if scale is None else np.multiply(
                                self.layers[i].params[0].T, scale[:, None], order="C")
                        g = np.matmul(g, folded[i], out=out and out[2])
                    scale = None
                    continue
                if scale is not None:
                    g *= scale
                xhat, inv_std, mean, _ = kept
                x = xhat[:, None] if own else xhat  # slice k's rows
                grads = np.empty((s, 2, size))  # scale's and shift's, adjacent as in theta: one block
                g_scale = np.einsum("...nf,...nf->...f", g, x, out=grads[:, 0])
                g_shift = np.matmul(ones, g, out=grads[:, 1])
                sink(row, col, grads.reshape(s, -1))
                if i not in folded:
                    folded[i] = self.layers[i].params[0] * inv_std
                scale = folded[i]
                if mean is not None and i > low:  # batch statistics couple the rows
                    if own:  # the caller expands the coupling
                        return i, g[:, 0]  # slice k's cotangent on its own row k, = g_shift
                    if outs:  # the chunk loop: one product for all its slices
                        g += couple(lifts[i], g_scale, g_shift, out)
                    else:  # the batch pass, at most 2 groups: two broadcasts cost less than the product
                        c = grads / -m
                        g += x * c[:, :1]
                        g += c[:, 1:]
                if not outs:  # own rows keep their rounding; a batch pass's (per-group) scale costs less here
                    g, scale = np.multiply(g, scale[..., None, :], out=g), None

        coupling = reverse(g if batch else g[:, None], len(self.layers) - 1, 0, not batch, first)
        if coupling is None:  # the batch pass, or no batch-statistic norm below the seed
            return
        i, g = coupling
        n, size = g.shape
        chunk = max(1, _CHUNK_ROWS // max(n, 1))
        xhat, k = saved[i][0], min(chunk, n)
        lifts, ds, low = {}, {}, first  # per call, for every chunk: each batch-statistic norm's [xhat | 1], a D per width
        for j in range(first + 1, i + 1):
            if self.layers[j].kind == "norm" and saved[j][2] is not None:
                f = saved[j][0].shape[1]
                if f not in ds:  # a D and its diagonal and last-row views
                    d = np.zeros((min(k, 8), f + 1, f))
                    ds[f] = d, d.reshape(len(d), -1)[:, :: f + 1], d[:, f]
                lift = [saved[j][0], units[:, None]]
                if j == first + 1 < i and len(self.layers[first].params) == 1:  # its coupling's only reader:
                    low, lift = j, [saved[first].T @ a for a in lift]  # a bias-free first layer, [d_in, f + 1]
                lifts[j] = np.hstack(lift) / -n, *ds[f]  # each carries the factor -1/n
        dense = [layer.params[0] for layer in self.layers[first:i] if layer.kind == "dense"]
        need = k * max([n * size] + [max(w.size, n * max(w.shape)) for w in dense])
        if self._slabs[0].size < need:  # grown, never shrunk; a clone starts without
            self._slabs = [np.empty(need), np.empty(need)]

        def views(s):  # each layer's outputs for s slices, one view per buffer and shape; g's buffer and the spare swap
            held, spare, made = *self._slabs, {}
            def view(buffer, *shape):
                return made.setdefault((id(buffer), shape), np.ndarray(shape, buffer=buffer))
            outs = [None] * i + [view(held, s, n, size)]
            for j in range(i - 1, first - 1, -1):
                if j in lifts and j != low:  # its coupling
                    outs[j] = view(spare, s, n, saved[j][0].shape[1])
                elif self.layers[j].kind == "dense":  # its weight gradient, closed-form correction, transposed product
                    shape = (s, *self.layers[j].params[0].shape)
                    outs[j] = view(spare, *shape), j < low and view(held, *shape), j > first and view(spare, s, n, shape[1])
                    held, spare = spare, held
            return outs

        full = views(k)
        for row in range(0, n, chunk):  # slice j: its own row minus (shift + xhat * scale score) / n, scale owed
            gj = g[row : row + chunk]  # slice j's cotangent on its own row
            outs = full if len(gj) == k else views(len(gj))
            coupled = couple(lifts[i], gj * xhat[row : row + chunk], gj, outs[i])
            coupled.reshape(-1, size)[row :: n + 1] += gj  # row row + j of slice j
            reverse(coupled, i - 1, row, False, low, outs, folded[i])

    def clone(self) -> "Model":
        """Deep copy: parameters packed into a new ``theta``, buffers duplicated."""
        return Model(copy.deepcopy(self.layers), self.input_dim, self.class_count)


def cache_group(saved: list, k: int) -> list:
    """Group k of a grouped ``Model.forward`` cache: views of what a forward
    of that group alone caches (fixed statistics are shared by the groups)."""
    # in a norm's tuple, None moments and [f] fixed statistics stay as they are
    return [tuple(a if a is None or a.ndim == 1 else a[k] for a in kept) if isinstance(kept, tuple) else kept[k]
            for kept in saved]


def build_classifier(
    input_dim: int, hidden_dims: list[int], class_count: int, seed: int
) -> Model:
    """Dense -> norm -> ReLU blocks with a final dense head.

    Initialization is fully determined by the seed. A hidden dense layer
    has no bias: the norm after it subtracts the batch mean, which cancels
    one. An empty ``hidden_dims`` yields a plain linear classifier (one
    dense layer with a bias).
    """
    if input_dim < 1 or class_count < 1 or any(h < 1 for h in hidden_dims):
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    layers: list[LayerParams] = []
    width = input_dim
    for i, hidden in enumerate(hidden_dims, start=1):
        weight = rng.standard_normal((width, hidden)) * np.sqrt(2.0 / width)
        layers.append(LayerParams(name=f"dense{i}", kind="dense", params=[weight]))
        layers.append(LayerParams(name=f"norm{i}", kind="norm", params=[np.ones(hidden), np.zeros(hidden)]))
        layers.append(LayerParams(name=f"relu{i}", kind="relu"))
        width = hidden
    head = rng.standard_normal((width, class_count)) * np.sqrt(1.0 / width)
    layers.append(LayerParams(name="head", kind="dense", params=[head, np.zeros(class_count)]))
    return Model(layers, input_dim, class_count)


def record_source_stats(model: Model, inputs: np.ndarray) -> None:
    """Store each norm layer's observed input statistics on the given data.

    Runs one batch-statistics forward over ``inputs`` (normally the full
    source set) and freezes the mean/variance every norm layer actually
    used, so the frozen-source prediction path reproduces that pass.
    """
    _, saved = model.forward(inputs, batch_stats=True)
    for layer, kept in zip(model.layers, saved):
        if layer.kind == "norm":
            _, _, layer.source_mean, layer.source_var = kept


# ---------------------------------------------------------------------------
# checkpoint serialization (bit-exact text format)


def _parse_vals(line: str, shape: tuple[int, ...]) -> np.ndarray:
    vals = np.asarray([float.fromhex(tok) for tok in line.split()], dtype=np.float64).reshape(shape)
    if not np.isfinite(vals).all():
        raise ValueError(f"{vals[~np.isfinite(vals)][0]} is not a finite value")
    return vals


def _ints(tokens: list[str], where: str) -> tuple[int, ...]:
    if not all(tok.isdecimal() for tok in tokens):
        raise ValueError(f"{where}: expected non-negative integers, got {' '.join(tokens)!r}")
    return tuple(int(tok) for tok in tokens)


def _out_width(layer: LayerParams, width: int) -> int:
    """Width of ``layer``'s output on ``width`` input features; ``ValueError``
    if its params or buffers are not those of its kind at that width."""
    shapes = [p.shape for p in layer.params]
    stats = [b.shape for b in (layer.source_mean, layer.source_var) if b is not None]
    if layer.kind == "dense":
        out = shapes[0][-1] if shapes and shapes[0] else 0
        fits = shapes in ([(width, out)], [(width, out), (out,)]) and not stats
        need = f"a [{width}, k] weight, an optional [k] bias and no buffers"
    elif layer.kind == "norm":
        out, fits = width, shapes == [(width,)] * 2 and stats in ([], shapes)
        need = f"two [{width}] params and no buffers or two of that width"
    else:
        out, fits, need = width, not shapes and not stats, "no params or buffers"
    if not fits:
        raise ValueError(f"{layer.kind} layer {layer.name!r} needs {need}, got params {shapes} and buffers {stats}")
    return out


def save_checkpoint(model: Model, path, meta: dict[str, str] | None = None) -> None:
    """Write layer name -> shape -> values as hex-float text; round trips exactly.

    A checkpoint holds finite values only: a NaN or infinite parameter or
    source statistic raises ``ValueError`` naming its layer, before the file
    is opened."""
    lines = [CHECKPOINT_HEADER]
    lines.append(f"input_dim {model.input_dim}")
    lines.append(f"class_count {model.class_count}")
    for key, value in (meta or {}).items():
        lines.append(f"meta {key} {value}")
    for layer in model.layers:
        lines.append(f"layer {layer.name} {layer.kind} trainable=1")  # every layer adapts
        stats = [(f"buffer {name}", getattr(layer, name)) for name in ("source_mean", "source_var")]
        for head, vals in [("param", p) for p in layer.params] + [(h, b) for h, b in stats if b is not None]:
            if not np.isfinite(vals).all():
                raise ValueError(f"save_checkpoint: layer {layer.name!r} has a non-finite {head.split()[-1]} value")
            lines += [" ".join([head, *map(str, vals.shape)]), " ".join(v.hex() for v in vals.ravel().tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[Model, dict[str, str]]:
    """Read a ``save_checkpoint`` file. A malformed line, a value that is not
    a finite hex float, a layer marked frozen (``trainable=0``), or layers
    that do not chain ``input_dim`` features to ``class_count``, raise
    ``ValueError`` naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"{path}: not a recognized checkpoint (bad header)")
    dims: dict[str, tuple[int, int]] = {}  # input_dim / class_count -> (value, line number)
    meta: dict[str, str] = {}
    layers: list[tuple[LayerParams, int]] = []  # with the line number of their layer line
    i = 1
    while i < len(lines):
        tokens = lines[i].split() or [""]
        kind = tokens[0]
        where = f"{path}: line {i + 1}"
        if len(tokens) < {"input_dim": 2, "class_count": 2, "meta": 2, "layer": 4, "buffer": 2}.get(kind, 1):
            raise ValueError(f"{where}: {kind} line is missing fields: {lines[i]!r}")
        if kind in ("input_dim", "class_count"):
            dims[kind] = (_ints(tokens[1:2], where)[0], i + 1)
        elif kind == "meta":
            meta[tokens[1]] = " ".join(tokens[2:])
        elif kind == "layer":
            if tokens[2] not in ("dense", "norm", "relu") or tokens[3] != "trainable=1":
                raise ValueError(f"{where}: need kind dense|norm|relu and trainable=1 (no layer is frozen), got {lines[i]!r}")
            if any(layer.name == tokens[1] for layer, _ in layers):
                raise ValueError(f"{where}: layer name {tokens[1]!r} is repeated")
            layers.append((LayerParams(name=tokens[1], kind=tokens[2]), i + 1))
        elif kind in ("param", "buffer"):
            if not layers:
                raise ValueError(f"{where}: {kind} line before any layer line")
            if kind == "buffer" and tokens[1] not in ("source_mean", "source_var"):
                raise ValueError(f"{where}: unknown buffer {tokens[1]!r}")
            if i + 1 == len(lines):
                raise ValueError(f"{where}: {kind} line without its values line (truncated file)")
            shape = _ints(tokens[1 if kind == "param" else 2 :], where)
            i += 1
            try:
                vals = _parse_vals(lines[i], shape)
            except ValueError as exc:
                raise ValueError(f"{path}: line {i + 1}: bad {kind} values ({exc})") from None
            if kind == "param":
                layers[-1][0].params.append(vals)
            else:
                setattr(layers[-1][0], tokens[1], vals)
        else:
            raise ValueError(f"{where}: unrecognized checkpoint line {lines[i]!r}")
        i += 1
    if len(dims) < 2:
        raise ValueError(f"{path}: checkpoint missing dimensions")
    width = dims["input_dim"][0]
    for layer, number in layers:
        try:
            width = _out_width(layer, width)
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    if width != dims["class_count"][0]:
        raise ValueError(f"{path}: line {dims['class_count'][1]}: the layers end at {width} features, not class_count")
    return Model([layer for layer, _ in layers], dims["input_dim"][0], dims["class_count"][0]), meta
