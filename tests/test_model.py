from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fimtta.losses import log_softmax
from fimtta.model import (
    LayerParams,
    Model,
    ShapeError,
    build_classifier,
    load_checkpoint,
    record_source_stats,
    save_checkpoint,
)
from fimtta.harness import pretrain
from fimtta.stream import SourceSpec, gen_source
from oracle import tape_forward, tape_params, with_dense_biases


def test_build_is_deterministic_per_seed():
    a = build_classifier(2, [16, 16], 3, seed=7)
    b = build_classifier(2, [16, 16], 3, seed=7)
    for la, lb in zip(a.layers, b.layers):
        assert la.name == lb.name and la.kind == lb.kind
        for pa, pb in zip(la.params, lb.params):
            assert np.array_equal(pa, pb)


def test_different_seeds_differ():
    a = build_classifier(2, [8], 3, seed=0)
    b = build_classifier(2, [8], 3, seed=1)
    assert not np.array_equal(a.layers[0].params[0], b.layers[0].params[0])


def test_empty_hidden_dims_is_minimal_linear_classifier():
    m = build_classifier(4, [], 2, seed=0)
    assert len(m.weight_layers()) == 1
    assert m.weight_layers()[0].kind == "dense"
    assert m.forward(np.zeros((3, 4)))[0].shape == (3, 2)


def test_layer_count_follows_construction_rule():
    # one dense + one norm per hidden block, plus the dense head
    for hidden in ([32, 32, 32, 32], [16], [5, 6, 7]):
        m = build_classifier(16, hidden, 3, seed=1)
        assert len(m.weight_layers()) == 2 * len(hidden) + 1
    assert len(build_classifier(16, [32, 32, 32, 32], 3, seed=1).weight_layers()) == 9


def test_only_dense_layers_without_a_norm_after_them_have_a_bias():
    desk = build_classifier(16, [32, 32, 32, 32], 3, seed=0)
    assert [len(l.params) for l in desk.layers if l.kind == "dense"] == [1, 1, 1, 1, 2]
    assert desk.theta.size == 3939
    assert with_dense_biases(desk, np.random.default_rng(0)).theta.size == 4067  # the older layout
    assert [p.shape for p in build_classifier(4, [], 2, seed=0).layers[0].params] == [(4, 2), (2,)]


def test_layer_enumeration_order_is_stable():
    m = build_classifier(4, [8, 8], 3, seed=2)
    assert m.weight_layer_names() == ["dense1", "norm1", "dense2", "norm2", "head"]
    assert m.weight_layer_names() == m.weight_layer_names()


def test_zero_weight_head_gives_uniform_probabilities():
    m = build_classifier(4, [], 5, seed=0)
    head = m.weight_layers()[0]
    head.params[0][:] = 0.0
    head.params[1][:] = 0.0
    logits, _ = m.forward(np.random.default_rng(0).standard_normal((6, 4)))
    probs = np.exp(log_softmax(logits))
    assert np.allclose(probs, 0.2, atol=1e-15)


def test_single_sample_matches_batch_row_under_fixed_stats():
    rng = np.random.default_rng(4)
    m = build_classifier(5, [8, 8], 3, seed=3)
    record_source_stats(m, rng.standard_normal((64, 5)))
    batch = rng.standard_normal((4, 5))
    full, _ = m.forward(batch, batch_stats=False)
    single, _ = m.forward(batch[:1], batch_stats=False)
    assert np.allclose(single[0], full[0], rtol=1e-12, atol=1e-14)


def test_forward_rejects_dimension_mismatch():
    m = build_classifier(4, [8], 2, seed=0)
    with pytest.raises(ShapeError, match="forward"):
        m.forward(np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        m.forward(np.zeros(4))


def test_frozen_source_path_requires_recorded_stats():
    m = build_classifier(4, [8], 2, seed=0)
    with pytest.raises(RuntimeError, match="source statistics"):
        m.forward(np.zeros((2, 4)), batch_stats=False)


def test_duplicate_layer_names_rejected():
    layers = [
        LayerParams(name="a", kind="dense", params=[np.ones((2, 2)), np.zeros(2)]),
        LayerParams(name="a", kind="relu"),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        Model(layers, 2, 2)


def test_bad_dims_rejected():
    with pytest.raises(ValueError):
        build_classifier(0, [4], 2, seed=0)
    with pytest.raises(ValueError):
        build_classifier(4, [0], 2, seed=0)


def test_clone_is_independent():
    m = build_classifier(3, [4], 2, seed=1)
    c = m.clone()
    c.weight_layers()[0].params[0][:] = 99.0
    assert not np.array_equal(
        m.weight_layers()[0].params[0], c.weight_layers()[0].params[0]
    )


def _assert_params_are_views_of_theta(model):
    """Every parameter is a C-contiguous view of the model's own ``theta``,
    and together, in layer order, they tile it exactly."""
    base = model.theta.__array_interface__["data"][0]
    offset = 0
    for layer in model.weight_layers():
        assert model.slices[layer.name].start == offset
        for p in layer.params:
            assert p.base is model.theta and p.flags.c_contiguous
            assert p.__array_interface__["data"][0] == base + 8 * offset
            offset += p.size
        assert model.slices[layer.name].stop == offset
    assert offset == model.theta.size


def test_parameters_are_views_of_one_flat_vector(tmp_path):
    spec = SourceSpec(input_dim=6, class_count=3, margin=5.0, seed=0)
    built = build_classifier(6, [8, 5], 3, seed=0)
    _assert_params_are_views_of_theta(built)
    pretrain(built, gen_source(spec, 96), epochs=1, seed=0)
    _assert_params_are_views_of_theta(built)
    clone = built.clone()
    _assert_params_are_views_of_theta(clone)
    assert np.array_equal(clone.theta, built.theta)
    assert not np.shares_memory(clone.theta, built.theta)
    path = tmp_path / "model.txt"
    save_checkpoint(built, path)
    loaded, _ = load_checkpoint(path)
    _assert_params_are_views_of_theta(loaded)
    assert np.array_equal(loaded.theta, built.theta)
    # writes through a view land in theta, and in no other model
    head_bias = loaded.weight_layers()[-1].params[1]
    head_bias[0] = 7.0
    assert loaded.theta[loaded.slices["head"].stop - head_bias.size] == 7.0
    clone.weight_layers()[0].params[0][0, 0] = -3.0
    assert clone.theta[0] == -3.0 and built.theta[0] != -3.0


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    m = build_classifier(6, [9, 7], 4, seed=11)
    record_source_stats(m, rng.standard_normal((32, 6)))
    path = tmp_path / "model.txt"
    save_checkpoint(m, path, meta={"d": "6", "note": "with spaces"})
    layer_lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.startswith("layer ")]
    assert len(layer_lines) == len(m.layers) and all(line.endswith(" trainable=1") for line in layer_lines)
    loaded, meta = load_checkpoint(path)
    assert meta == {"d": "6", "note": "with spaces"}
    assert loaded.input_dim == 6 and loaded.class_count == 4
    for la, lb in zip(m.layers, loaded.layers):
        assert (la.name, la.kind) == (lb.name, lb.kind)
        for pa, pb in zip(la.params, lb.params):
            assert pa.shape == pb.shape
            assert np.array_equal(pa, pb)
        for buf in ("source_mean", "source_var"):
            a, b = getattr(la, buf), getattr(lb, buf)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.lists(st.integers(1, 9), max_size=3),
    record_stats=st.booleans(),
)
def test_checkpoint_round_trip_keeps_theta_layout_buffers_and_logits(seed, hidden, record_stats):
    rng = np.random.default_rng(seed)
    m = build_classifier(int(rng.integers(1, 6)), hidden, int(rng.integers(2, 5)), seed=seed)
    # the bit patterns the format must carry: magnitudes down to 1e-300,
    # negative zero and subnormals
    m.theta[:] = rng.standard_normal(m.theta.size) * 10.0 ** rng.integers(-300, 3, m.theta.size)
    m.theta[rng.random(m.theta.size) < 0.1] = -0.0
    m.theta[rng.random(m.theta.size) < 0.1] = 5e-324
    if record_stats:
        record_source_stats(m, rng.standard_normal((20, m.input_dim)))
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(m, Path(tmp) / "model.txt")
        loaded, _ = load_checkpoint(Path(tmp) / "model.txt")
        # and a checkpoint holds nothing else: a NaN or infinity is refused, naming its layer
        layer = m.weight_layers()[rng.integers(len(m.weight_layers()))]
        norms = [la for la in m.layers if la.source_mean is not None]
        for bad in (np.nan, np.inf, -np.inf):
            for array, name in [(layer.params[-1], layer.name)] + [(la.source_var, la.name) for la in norms[:1]]:
                kept = array.flat[0]
                array.flat[0] = bad
                with pytest.raises(ValueError, match=f"layer '{name}' has a non-finite"):
                    save_checkpoint(m, Path(tmp) / "bad.txt")
                array.flat[0] = kept
            assert not (Path(tmp) / "bad.txt").exists()
    assert loaded.theta.tobytes() == m.theta.tobytes()
    assert loaded.slices == m.slices
    for la, lb in zip(m.layers, loaded.layers, strict=True):
        assert (la.name, la.kind) == (lb.name, lb.kind)
        for pa, pb in zip(la.params, lb.params, strict=True):
            assert pa.shape == pb.shape and np.shares_memory(pb, loaded.theta)
        for buf in ("source_mean", "source_var"):
            a, b = getattr(la, buf), getattr(lb, buf)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    x = rng.standard_normal((7, m.input_dim))
    modes = (True, False) if record_stats or not hidden else (True,)
    for batch_stats in modes:
        a, b = m.forward(x, batch_stats)[0], loaded.forward(x, batch_stats)[0]
        assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage_line(tmp_path):
    m = build_classifier(2, [], 2, seed=0)
    path = tmp_path / "model.txt"
    save_checkpoint(m, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("mystery 1 2 3\n")
    with pytest.raises(ValueError, match="unrecognized"):
        load_checkpoint(path)


def _saved_checkpoint_lines(tmp_path):
    m = build_classifier(2, [3], 2, seed=0)
    record_source_stats(m, np.random.default_rng(0).standard_normal((8, 2)))
    path = tmp_path / "model.txt"
    save_checkpoint(m, path)
    return path, path.read_text(encoding="utf-8").splitlines()


def test_checkpoint_rejects_values_before_any_layer(tmp_path):
    path, lines = _saved_checkpoint_lines(tmp_path)
    first_layer = next(i for i, line in enumerate(lines) if line.startswith("layer "))
    for kind in ("param", "buffer"):
        at = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
        moved = lines[:first_layer] + lines[at : at + 2] + lines[first_layer:at] + lines[at + 2 :]
        path.write_text("\n".join(moved) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"model\.txt: line {first_layer + 1}: {kind} line before any layer"):
            load_checkpoint(path)


def test_checkpoint_rejects_truncated_file(tmp_path):
    path, lines = _saved_checkpoint_lines(tmp_path)
    last = len(lines) - 1  # the head bias's values line
    path.write_text("\n".join(lines[:last]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"model\.txt: line {last}: param line without its values"):
        load_checkpoint(path)
    cut = lines[:last] + [" ".join(lines[last].split()[:-1])]  # cut inside the values line
    path.write_text("\n".join(cut) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"model\.txt: line {last + 1}: bad param values"):
        load_checkpoint(path)


# Edits of the lines of _saved_checkpoint_lines's file (2 -> dense1 -> norm1
# -> relu1 -> head -> 2, source statistics recorded), by 0-based index:
#   1 input_dim, 2 class_count, 3 layer dense1, 4-5 its weight, 6 layer norm1,
#   7-10 its scale and shift, 11-14 its source_mean and source_var,
#   15 layer relu1, 16 layer head, 17-18 its weight, 19-20 its bias.
def _put(at, *new, drop=1):
    return lambda lines: lines[:at] + list(new) + lines[at + drop :]


ZEROS = "0x0p+0 0x0p+0 0x0p+0"


@pytest.mark.parametrize(
    "edit,line,message",
    [
        pytest.param(_put(3, "layer dense1 dense"), 4, "layer line is missing fields", id="short-layer-line"),
        pytest.param(_put(1, "input_dim"), 2, "input_dim line is missing fields", id="short-input-dim-line"),
        pytest.param(_put(11, "buffer"), 12, "buffer line is missing fields", id="short-buffer-line"),
        pytest.param(_put(1, "input_dim two"), 2, "non-negative integers, got 'two'", id="non-integer-dimension"),
        pytest.param(_put(4, "param 2 x"), 5, "non-negative integers, got '2 x'", id="non-integer-shape"),
        pytest.param(_put(4, "param -2 3"), 5, "non-negative integers, got '-2 3'", id="negative-shape"),
        pytest.param(_put(11, "buffer running_mean 3"), 12, "unknown buffer 'running_mean'", id="unknown-buffer"),
        pytest.param(_put(15, "layer relu1 gelu trainable=1"), 16, "need kind dense|norm|relu", id="unknown-kind"),
        pytest.param(_put(15, "layer relu1 relu trainable=2"), 16, "and trainable=1", id="bad-trainable-flag"),
        pytest.param(_put(6, "layer norm1 norm trainable=0"), 7, r"trainable=1 \(no layer is frozen\)",
                     id="frozen-layer"),
        pytest.param(_put(15, "layer norm1 relu trainable=1"), 16, "layer name 'norm1' is repeated", id="repeated-name"),
        pytest.param(_put(21, "param 2", "0x0p+0 0x0p+0", drop=0), 17,
                     r"dense layer 'head' needs a \[3, k\] weight, an optional \[k\] bias and no buffers, "
                     r"got params \[\(3, 2\), \(2,\), \(2,\)\]", id="dense-third-param"),
        pytest.param(_put(4, "param 6", f"{ZEROS} {ZEROS}", drop=2), 4, r"dense layer 'dense1' .* params \[\(6,\)\]",
                     id="dense-1d-weight"),
        pytest.param(_put(19, "param 3", ZEROS, drop=2), 17, r"dense layer 'head' .* params \[\(3, 2\), \(3,\)\]",
                     id="dense-bias-of-another-width"),
        pytest.param(_put(9, "param 2", "0x0p+0 0x0p+0", drop=2), 7,
                     r"norm layer 'norm1' needs two \[3\] params .* got params \[\(3,\), \(2,\)\]",
                     id="norm-unequal-params"),
        pytest.param(_put(13, "buffer source_var 2", "0x1p+0 0x1p+0", drop=2), 7,
                     r"norm layer 'norm1' .* buffers \[\(3,\), \(2,\)\]", id="norm-buffer-of-another-width"),
        pytest.param(_put(13, drop=2), 7, r"norm layer 'norm1' .* buffers \[\(3,\)\]", id="norm-one-buffer"),
        pytest.param(_put(16, "param 1", "0x0p+0", drop=0), 16,
                     r"relu layer 'relu1' needs no params or buffers, got params \[\(1,\)\]", id="relu-with-params"),
        pytest.param(_put(1, "input_dim 3"), 4,
                     r"dense layer 'dense1' needs a \[3, k\] weight, .* got params \[\(2, 3\)\]",
                     id="widths-do-not-chain-from-input-dim"),
        pytest.param(_put(2, "class_count 3"), 3, "the layers end at 2 features, not class_count",
                     id="widths-do-not-chain-to-class-count"),
        pytest.param(_put(5, f"nan {ZEROS} 0x0p+0 0x0p+0"), 6, r"bad param values \(nan is not a finite value\)",
                     id="nan-value"),
        pytest.param(_put(14, "0x1p+0 -inf 0x1p+0"), 15, r"bad buffer values \(-inf is not a finite value\)",
                     id="infinite-value"),
        pytest.param(_put(5, f"nan:7ff8000000000000 {ZEROS} 0x0p+0 0x0p+0"), 6, "bad param values",
                     id="nan-bits-token"),
    ],
)
def test_checkpoint_rejects_malformed_content_with_file_and_line(tmp_path, edit, line, message):
    path, lines = _saved_checkpoint_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"model\.txt: line {line}: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_with_biases_before_norms_loads_unchanged(tmp_path):
    # the older layout: every dense layer has a bias, here a nonzero one
    rng = np.random.default_rng(22)
    old = with_dense_biases(_perturbed_model(rng), rng)
    record_source_stats(old, rng.standard_normal((40, 5)))
    save_checkpoint(old, tmp_path / "old.txt")
    loaded, _ = load_checkpoint(tmp_path / "old.txt")
    assert loaded.theta.tobytes() == old.theta.tobytes() and loaded.slices == old.slices
    for layer in loaded.layers:
        if layer.kind == "dense":
            _, bias = layer.params
            assert np.shares_memory(bias, loaded.theta) and np.all(bias != 0.0)
    x = rng.standard_normal((9, 5))
    for batch_stats in (True, False):
        logits = loaded.forward(x, batch_stats)[0]
        assert np.array_equal(logits, tape_forward(loaded, x, tape_params(loaded), batch_stats).data)
        assert np.array_equal(logits, old.forward(x, batch_stats)[0])


def test_forward_output_shape_is_batch_by_classes():
    m = build_classifier(7, [5], 4, seed=2)
    out, _ = m.forward(np.zeros((9, 7)))
    assert out.shape == (9, 4)


def _perturbed_model(rng, input_dim=5, hidden=(8, 6, 7), class_count=4):
    m = build_classifier(input_dim, list(hidden), class_count, seed=3)
    for layer in m.weight_layers():
        for p in layer.params:
            p += 0.2 * rng.standard_normal(p.shape)
    record_source_stats(m, rng.standard_normal((40, input_dim)) + 0.3)
    return m


@pytest.mark.parametrize("batch_stats", [True, False])
def test_forward_logits_equal_tape_oracle(batch_stats):
    rng = np.random.default_rng(20)
    for m, n in ((_perturbed_model(rng), 9), (_perturbed_model(rng, 16, [32] * 4, 3), 64)):
        x = rng.standard_normal((n, m.input_dim))
        logits, saved = m.forward(x, batch_stats=batch_stats)
        assert np.array_equal(logits, tape_forward(m, x, tape_params(m), batch_stats=batch_stats).data)
        assert len(saved) == len(m.layers)


def test_recorded_source_stats_reproduce_the_batch_stat_pass():
    rng = np.random.default_rng(21)
    m = _perturbed_model(rng)
    x = rng.standard_normal((32, 5))
    record_source_stats(m, x)
    assert np.array_equal(m.forward(x, batch_stats=False)[0], m.forward(x, batch_stats=True)[0])


def test_forward_and_source_stats_reject_dimension_mismatch():
    m = build_classifier(4, [8], 2, seed=0)
    for bad in (np.zeros((3, 5)), np.zeros(4)):
        with pytest.raises(ShapeError, match="forward"):
            m.forward(bad)
        with pytest.raises(ShapeError, match="forward"):
            record_source_stats(m, bad)
    assert all(l.source_mean is None for l in m.layers if l.kind == "norm")
