from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_schedule_file
from fimtta import stream
from fimtta.stream import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    ScheduleStream,
    SourceSpec,
    class_means,
    corrupt,
    describe_schedule,
    gen_source,
    make_schedule,
    parse_schedule_file,
)


def test_gen_source_deterministic():
    spec = SourceSpec(seed=5)
    a = gen_source(spec, 300)
    b = gen_source(spec, 300)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_gen_source_labels_balanced_within_one():
    ds = gen_source(SourceSpec(class_count=3, seed=1), 301)
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 301


def test_class_means_pairwise_distance_equals_margin():
    spec = SourceSpec(input_dim=10, class_count=4, margin=5.5, seed=3)
    means = class_means(spec)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(5.5, rel=1e-12)


def test_large_margin_mixture_solved_by_nearest_mean_oracle():
    spec = SourceSpec(margin=6.0, seed=2)
    ds = gen_source(spec, 3000)
    means = class_means(spec)
    dists = ((ds.inputs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = dists.argmin(axis=1)
    assert (pred == ds.labels).mean() >= 0.99


def test_gen_source_validation():
    with pytest.raises(ValueError):
        gen_source(SourceSpec(class_count=3), 2)
    with pytest.raises(ValueError):
        SourceSpec(input_dim=2, class_count=4)  # simplex needs d >= C-1
    with pytest.raises(ValueError):
        SourceSpec(input_dim=1)
    for margin in (float("nan"), float("inf")):  # NaN class means: pretraining diverged at its first step
        with pytest.raises(ValueError, match="margin"):
            SourceSpec(margin=margin)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):  # numpy refused it, naming no setting
        SourceSpec(seed=-1)
    SourceSpec(input_dim=2, class_count=3)  # planar three-blob task is valid


def test_corruption_spec_validation():
    with pytest.raises(ValueError, match="unknown corruption"):
        CorruptionSpec("fog", 3)
    for bad in (0, 6):
        with pytest.raises(ValueError, match="severity"):
            CorruptionSpec("gaussian_noise", bad)


def test_severity_tables_are_monotone():
    increasing = (
        stream.GAUSSIAN_SIGMA,
        stream.IMPULSE_FRACTION,
        stream.BLUR_SIGMA,
        stream.DROPOUT_FRACTION,
        stream.WARP_ANGLE,
    )
    for table in increasing:
        vals = [table[s] for s in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    # contrast strength grows as the retained factor shrinks
    vals = [stream.CONTRAST_FACTOR[s] for s in range(1, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gaussian_noise_zero_sigma_is_identity(monkeypatch):
    monkeypatch.setitem(stream.GAUSSIAN_SIGMA, 1, 0.0)
    x = np.random.default_rng(0).standard_normal((5, 4))
    out = corrupt(x, CorruptionSpec("gaussian_noise", 1), np.random.default_rng(1))
    assert np.array_equal(out, x)


def test_gaussian_noise_added_variance_matches_table():
    rng = np.random.default_rng(7)
    x = np.zeros((10_000, 4))
    for sev in (1, 3, 5):
        out = corrupt(x, CorruptionSpec("gaussian_noise", sev), rng)
        measured = out.var()
        assert measured == pytest.approx(stream.GAUSSIAN_SIGMA[sev] ** 2, rel=0.05)


def test_impulse_noise_replaces_expected_fraction_with_extremes():
    rng = np.random.default_rng(8)
    x = np.zeros((4000, 8))
    out = corrupt(x, CorruptionSpec("impulse_noise", 5), rng)
    changed = out != 0.0
    assert changed.mean() == pytest.approx(stream.IMPULSE_FRACTION[5], rel=0.1)
    assert np.abs(out[changed]).min() == stream.IMPULSE_MAGNITUDE


def test_feature_blur_preserves_constant_rows():
    x = np.full((3, 12), 2.5)
    out = corrupt(x, CorruptionSpec("feature_blur", 4), np.random.default_rng(0))
    assert np.allclose(out, 2.5, atol=1e-12)


def test_feature_blur_reduces_high_frequency_energy():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 16))
    out = corrupt(x, CorruptionSpec("feature_blur", 5), rng)
    def hf_energy(a):
        return float((np.diff(a, axis=1) ** 2).sum())
    assert hf_energy(out) < 0.5 * hf_energy(x)


def test_contrast_scale_shrinks_deviations_around_sample_mean():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 6)) + 3.0
    out = corrupt(x, CorruptionSpec("contrast_scale", 5), rng)
    assert np.allclose(out.mean(axis=1), x.mean(axis=1), rtol=1e-12)
    shrink = out.std(axis=1) / x.std(axis=1)
    assert np.allclose(shrink, stream.CONTRAST_FACTOR[5], rtol=1e-10)


def test_feature_dropout_zeroes_expected_fraction():
    rng = np.random.default_rng(11)
    x = np.ones((4000, 8))
    out = corrupt(x, CorruptionSpec("feature_dropout", 5), rng)
    assert (out == 0.0).mean() == pytest.approx(stream.DROPOUT_FRACTION[5], rel=0.1)


def test_affine_warp_is_an_isometry():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 16))
    out = corrupt(x, CorruptionSpec("affine_warp", 5), rng)
    assert np.allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-10
    )
    assert not np.allclose(out, x)


def test_affine_warp_same_rotation_for_equal_severity():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 16))
    a = corrupt(x, CorruptionSpec("affine_warp", 3), np.random.default_rng(0))
    b = corrupt(x, CorruptionSpec("affine_warp", 3), np.random.default_rng(99))
    assert np.array_equal(a, b)  # the rng plays no role for deterministic kinds


@pytest.mark.parametrize(
    "kind, build, table",
    [("affine_warp", stream._warp_rotation, stream.WARP_ANGLE), ("feature_blur", stream._blur_matrix, stream.BLUR_SIGMA)],
)
def test_operator_matrices_are_shared_read_only_and_match_a_fresh_build(kind, build, table):
    rng = np.random.default_rng(14)
    for dim in (2, 16):
        x = rng.standard_normal((5, dim))
        for sev in (1, 5):
            cached = build(dim, table[sev])
            assert build(dim, table[sev]) is cached
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0
            fresh = build.__wrapped__(dim, table[sev])
            assert fresh is not cached and np.array_equal(fresh, cached)
            out = corrupt(x, CorruptionSpec(kind, sev), rng)
            assert out.tobytes() == (x @ fresh.T).tobytes()


def test_frozen_source_error_nondecreasing_in_severity(desk_setup):
    # oracle: evaluate each pretrained model on every kind/severity pair and
    # require the 5-seed mean error to be monotone per kind
    sums = {kind: np.zeros(5) for kind in CORRUPTION_KINDS}
    for seed in range(5):
        spec, model, _ = desk_setup(seed)
        means = class_means(spec)
        rng = np.random.default_rng(900 + seed)
        for kind in CORRUPTION_KINDS:
            for sev in range(1, 6):
                labels = rng.integers(0, spec.class_count, 2000)
                clean = means[labels] + rng.standard_normal((2000, spec.input_dim))
                x = corrupt(clean, CorruptionSpec(kind, sev), rng)
                logits, _ = model.forward(x, batch_stats=False)
                err = float((logits.argmax(axis=1) != labels).mean())
                sums[kind][sev - 1] += err / 5.0
    for kind, errs in sums.items():
        assert (np.diff(errs) >= 0).all(), f"{kind}: {errs}"


def test_make_schedule_continual_counts():
    sched = make_schedule("continual", list(CORRUPTION_KINDS), 10, 64, seed=0)
    assert len(sched.segments) == 6
    assert all(seg.corruption.severity == 5 for seg in sched.segments)
    assert sched.total_batches == 60


def test_make_schedule_gradual_ramp_is_palindromic():
    sched = make_schedule("gradual", ["gaussian_noise", "feature_blur"], 3, 32, seed=1)
    sevs = [seg.corruption.severity for seg in sched.segments]
    assert sevs == [1, 2, 3, 4, 5, 4, 3, 2, 1] * 2
    assert sched.total_batches == 2 * 9 * 3


def test_make_schedule_needs_two_kinds():
    with pytest.raises(ValueError, match=">= 2 corruption kinds"):
        make_schedule("continual", ["gaussian_noise"], 5, 32, seed=0)
    with pytest.raises(ValueError, match="kind"):
        make_schedule("weekly", ["gaussian_noise", "feature_blur"], 5, 32, seed=0)


def test_stream_is_deterministic_per_seed_and_schedule():
    spec = SourceSpec(seed=4)
    sched = make_schedule("continual", ["gaussian_noise", "affine_warp"], 3, 16, seed=9)
    a = [b.inputs for b in ScheduleStream(spec, sched)]
    sched2 = make_schedule("continual", ["gaussian_noise", "affine_warp"], 3, 16, seed=9)
    b = [b.inputs for b in ScheduleStream(spec, sched2)]
    assert len(a) == len(b) == 6
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)


def test_stream_is_single_pass_and_never_revisits():
    spec = SourceSpec(seed=4)
    sched = make_schedule("continual", ["gaussian_noise", "feature_blur"], 2, 8, seed=3)
    s = ScheduleStream(spec, sched)
    steps = [batch.step for batch in s]
    assert steps == list(range(4))
    with pytest.raises(RuntimeError, match="single-pass"):
        iter(s).__next__()


def test_labels_channel_only_serves_current_batch():
    spec = SourceSpec(seed=4)
    sched = make_schedule("continual", ["gaussian_noise", "feature_blur"], 2, 8, seed=3)
    s = ScheduleStream(spec, sched)
    seen = []
    for batch in s:
        labels = s.labels_for(batch.step)
        assert labels.shape == (8,)
        assert labels.min() >= 0 and labels.max() < spec.class_count
        seen.append(batch.step)
        if batch.step >= 1:
            with pytest.raises(RuntimeError, match="current batch"):
                s.labels_for(batch.step - 1)
    assert seen == list(range(4))


def test_batch_carries_domain_tags():
    spec = SourceSpec(seed=0)
    sched = make_schedule("gradual", ["contrast_scale", "affine_warp"], 1, 4, seed=0)
    domains = [(b.domain, b.severity) for b in ScheduleStream(spec, sched)]
    assert domains[:3] == [
        ("contrast_scale", 1),
        ("contrast_scale", 2),
        ("contrast_scale", 3),
    ]
    assert domains[9] == ("affine_warp", 1)


def test_schedule_file_round_trip(tmp_path):
    path = tmp_path / "sched.txt"
    write_schedule_file(path, "gradual", ["gaussian_noise", "feature_blur"], 4, 32, 7)
    sched = parse_schedule_file(path)
    ref = make_schedule("gradual", ["gaussian_noise", "feature_blur"], 4, 32, 7)
    assert sched == ref


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["continual", "gradual"]),
    kinds=st.lists(st.sampled_from(CORRUPTION_KINDS), min_size=2, max_size=8),
    batches=st.integers(1, 200),
    batch_size=st.integers(1, 1024),
    seed=st.integers(0, 2**63 - 1),
    extras=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["", "   ", "# a comment", "  # kinds=gaussian_noise", "#"])),
        max_size=6,
    ),
)
def test_schedule_file_round_trips_to_make_schedule(kind, kinds, batches, batch_size, seed, extras):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sched.txt"
        write_schedule_file(path, kind, kinds, batches, batch_size, seed)
        lines = path.read_text(encoding="utf-8").splitlines()
        for at, extra in extras:  # comments and blank lines anywhere
            lines.insert(at, extra)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parsed = parse_schedule_file(path)
    assert parsed == make_schedule(kind, kinds, batches, batch_size, seed)


def test_schedule_file_missing_keys_rejected(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("kind=continual\nbatches=3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing keys"):
        parse_schedule_file(path)


def test_describe_schedule_lists_segments():
    sched = make_schedule("continual", ["gaussian_noise", "feature_blur"], 2, 8, seed=3)
    text = describe_schedule(sched)
    assert "continual schedule" in text
    assert text.count("severity=5") == 2
    assert "gaussian_noise" in text and "feature_blur" in text


def _schedule_text(**changes) -> str:
    fields = {
        "kind": "continual",
        "kinds": "gaussian_noise,feature_blur",
        "batches": "3",
        "batch_size": "16",
        "seed": "0",
    } | changes
    return "".join(f"{key}={value}\n" for key, value in fields.items())


def test_schedule_with_zero_batches_rejected(tmp_path):
    # an empty run would summarize to a NaN mean error
    path = tmp_path / "sched.txt"
    path.write_text(_schedule_text(batches="0"), encoding="utf-8")
    with pytest.raises(ValueError, match=">= 1 batches per segment"):
        parse_schedule_file(path)
    with pytest.raises(ValueError, match=">= 1 batches per segment"):
        make_schedule("continual", ["gaussian_noise", "feature_blur"], -1, 16, seed=0)


def test_schedule_with_zero_batch_size_rejected(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text(_schedule_text(batch_size="0"), encoding="utf-8")
    with pytest.raises(ValueError, match="batch_size >= 1"):
        parse_schedule_file(path)


def test_schedule_line_without_equals_rejected(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("# a comment\n" + _schedule_text() + "batches 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"sched\.txt: line 7: expected key=value, got 'batches 2'"):
        parse_schedule_file(path)


@pytest.mark.parametrize("key,line", [("batches", 3), ("batch_size", 4), ("seed", 5)])
def test_schedule_non_integer_field_rejected(tmp_path, key, line):
    path = tmp_path / "sched.txt"
    path.write_text(_schedule_text(**{key: "2.5"}), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"sched\.txt: line {line}: {key} must be an integer, got '2.5'"):
        parse_schedule_file(path)


@pytest.mark.parametrize("key,value,line,message", [
    ("batches", "0", 3, ">= 1 batches per segment, got 0"),
    ("batch_size", "0", 4, "batch_size >= 1, got 0"),
    ("kind", "weekly", 1, "continual or gradual, got 'weekly'"),
    ("kinds", "gaussian_noise", 2, ">= 2 corruption kinds"),
    ("kinds", "gaussian_noise,frost", 2, "unknown corruption kind 'frost'"),
    ("seed", "-1", 5, "need seed >= 0, got -1"),
])
def test_schedule_value_rejected_with_file_and_line(tmp_path, key, value, line, message):
    # values make_schedule rejects are reported at the line of their key
    path = tmp_path / "sched.txt"
    path.write_text(_schedule_text(**{key: value}), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"sched\.txt: line {line}: .*{message}"):
        parse_schedule_file(path)


def test_schedule_repeated_key_rejected_with_file_and_line(tmp_path):
    # a later value used to replace the earlier one without a word
    path = tmp_path / "sched.txt"
    path.write_text(_schedule_text() + "batches=5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"sched\.txt: line 6: key 'batches' is repeated"):
        parse_schedule_file(path)


def test_schedule_unknown_key_rejected_with_file_and_line(tmp_path):
    # a stray key used to be ignored without a word
    path = tmp_path / "sched.txt"
    path.write_text("severity=2\n" + _schedule_text(), encoding="utf-8")
    with pytest.raises(ValueError, match=r"sched\.txt: line 1: key 'severity' is unknown"):
        parse_schedule_file(path)
