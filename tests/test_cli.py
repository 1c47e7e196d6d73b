from __future__ import annotations

import dataclasses
import json
import logging
import re

import pytest

from fimtta import cli, harness, stream
from fimtta.cli import _run_setup, build_parser, main
from fimtta.harness import AdaptConfig
from conftest import write_schedule_file


@pytest.fixture()
def pretrained(tmp_path):
    out = tmp_path / "model"
    code = main(
        [
            "pretrain",
            "--d", "6", "--classes", "3", "--margin", "5.0", "--n", "240",
            "--hidden", "8,8", "--epochs", "6", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    ckpt = out / "checkpoint.txt"
    assert ckpt.exists()
    sched = tmp_path / "sched.txt"
    write_schedule_file(sched, "continual", ["contrast_scale", "gaussian_noise"], 3, 16, 2)
    return ckpt, sched


def test_pretrain_reports_accuracy(tmp_path, capsys):
    out = tmp_path / "m"
    assert main([
        "pretrain", "--d", "6", "--classes", "3", "--margin", "5.0", "--n", "240",
        "--hidden", "8", "--epochs", "4", "--seed", "0", "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "source train accuracy" in text


@pytest.mark.parametrize("flag,value,setting", [
    ("--eta-pre", "nan", "eta_pre"),  # every step was rejected
    ("--eta-pre", "-0.01", "eta_pre"),  # gradient ascent
    ("--epochs", "-1", "epochs"),
    ("--n", "60", "n"),  # fewer rows than one batch of 64: no step
    ("--n", "2", "n"),  # fewer rows than classes: no source sample of some class
    ("--margin", "nan", "margin"),
])
def test_pretrain_setting_that_trains_nothing_aborts_before_any_artifact(tmp_path, caplog, flag, value, setting):
    out = tmp_path / "m"
    code = main([
        "pretrain", "--d", "6", "--classes", "3", "--n", "240", "--hidden", "8,8", "--epochs", "2",
        "--out", str(out), f"{flag}={value}",
    ])
    assert code == 1
    assert not out.exists()
    assert f"{setting} must be" in caplog.text


def test_pretraining_that_diverges_exits_1_naming_its_step_without_a_checkpoint(tmp_path, caplog, capsys):
    # the first step's weights, ~1e150, overflow the next step's forward; before, most steps were refused with a
    # warning each and the run failed only at the checkpoint, on a non-finite source statistic
    out = tmp_path / "m"
    assert main(["pretrain", "--eta-pre", "1e150", "--epochs", "2", "--out", str(out)]) == 1
    assert not out.exists()
    assert [(r.levelname, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING] == [
        ("ERROR", "pretraining diverged at epoch 0 step 1: overflow encountered in multiply")
    ]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag,value", [
    ("--seed", "-1"), ("--hidden", "8,x"), ("--hidden", "8,0"), ("--d", "0"), ("--classes", "1"),
])
def test_pretrain_value_that_does_not_parse_names_its_flag_before_any_artifact(tmp_path, capsys, flag, value):
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        main(["pretrain", "--n", "240", "--epochs", "1", "--out", str(out), flag, value])
    assert exc.value.code != 0
    assert f"argument {flag}: expected " in capsys.readouterr().err
    assert not out.exists()


def test_adapt_writes_artifacts_and_prints_schedule(pretrained, tmp_path, capsys):
    ckpt, sched = pretrained
    out = tmp_path / "run"
    code = main([
        "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--method", "layerwise", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "continual schedule" in text and "severity=5" in text
    assert (out / "layerwise_metrics.csv").exists()
    assert (out / "layerwise_weights.jsonl").exists()
    summary = json.loads((out / "layerwise_summary.json").read_text())
    assert summary["method"] == "layerwise"
    assert 0.0 <= summary["mean_error"] <= 1.0


def test_adapt_rerun_is_byte_identical(pretrained, tmp_path):
    ckpt, sched = pretrained
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main([
            "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched),
            "--seed", "3", "--out", str(out),
        ]) == 0
        outs.append((out / "layerwise_metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_adapt_flags_default_to_the_config_defaults(pretrained, tmp_path):
    ckpt, sched = pretrained
    args = build_parser().parse_args([
        "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(tmp_path / "run"),
    ])
    config, *_ = _run_setup(args)
    for field in dataclasses.fields(AdaptConfig):
        value, default = getattr(config, field.name), getattr(AdaptConfig(), field.name)
        assert (type(value), value) == (type(default), default), field.name


def test_baseline_requires_and_accepts_reference_methods(pretrained, tmp_path, capsys):
    ckpt, sched = pretrained
    with pytest.raises(SystemExit):
        main(["baseline", "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(tmp_path / "x")])
    assert "--method" in capsys.readouterr().err
    for method in ("source", "bn1", "uniform_tent"):
        out = tmp_path / method
        assert main([
            "baseline", "--checkpoint", str(ckpt), "--schedule", str(sched),
            "--method", method, "--out", str(out),
        ]) == 0
        assert (out / f"{method}_metrics.csv").exists()


def test_seeds_flag_reports_mean_and_std(pretrained, tmp_path, capsys):
    ckpt, sched = pretrained
    out = tmp_path / "multi"
    assert main([
        "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--seeds", "2", "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "mean over 2 seeds" in text
    assert (out / "layerwise_seed0_metrics.csv").exists()
    assert (out / "layerwise_seed1_metrics.csv").exists()


@pytest.mark.parametrize("command,method", [("adapt", "layerwise"), ("baseline", "bn1")])
@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seeds_below_one_rejected(pretrained, tmp_path, capsys, command, method, seeds):
    ckpt, sched = pretrained
    out = tmp_path / "none"
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--checkpoint", str(ckpt), "--schedule", str(sched),
            "--method", method, "--seeds", seeds, "--out", str(out),
        ])
    assert exc.value.code != 0
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ablate", "dump-weights"])
def test_seeds_flag_refused_where_it_would_be_ignored(pretrained, tmp_path, capsys, command):
    ckpt, sched = pretrained
    out = tmp_path / "none"
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--checkpoint", str(ckpt), "--schedule", str(sched),
            "--seeds", "3", "--out", str(out),
        ])
    assert exc.value.code != 0
    assert "unrecognized arguments: --seeds 3" in capsys.readouterr().err
    assert not out.exists()


def test_fixed_settings_have_no_flag(pretrained, tmp_path, capsys):
    ckpt, sched = pretrained
    for flag, value in (("--epsilon", "1e-8"), ("--noise-scale", "0.1"), ("--consistency", "sigmoid")):
        with pytest.raises(SystemExit) as exc:
            main([
                "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched),
                "--out", str(tmp_path / "none"), flag, value,
            ])
        assert exc.value.code != 0
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def test_ablate_writes_sorted_table(pretrained, tmp_path, capsys):
    ckpt, sched = pretrained
    out = tmp_path / "abl"
    assert main([
        "ablate", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--taus", "0.0,1.0", "--lambdas", "0.0,0.1", "--gammas", "1.0",
        "--out", str(out),
    ]) == 0
    rows = json.loads((out / "ablation.json").read_text())
    assert len(rows) == 4
    errs = [r["mean_error"] for r in rows]
    assert errs == sorted(errs)
    assert "mean_error" in capsys.readouterr().out


def test_ablate_parses_the_schedule_file_once(pretrained, tmp_path, monkeypatch):
    # every grid point runs a stream of the set-up's one parsed schedule
    ckpt, sched = pretrained
    calls, parse = [], stream.parse_schedule_file

    def counted(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(stream, "parse_schedule_file", counted)
    monkeypatch.setattr(cli, "parse_schedule_file", counted)
    assert main([
        "ablate", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--taus", "0.0,1.0", "--lambdas", "0.0,0.1", "--gammas", "1.0", "--out", str(tmp_path / "abl"),
    ]) == 0
    assert len(json.loads((tmp_path / "abl" / "ablation.json").read_text())) == 4
    assert calls == [str(sched)]


def test_ablate_unwritable_out_aborts_before_the_sweep(pretrained, tmp_path, monkeypatch):
    ckpt, sched = pretrained
    blocker = tmp_path / "file"
    blocker.write_text("")
    runs = []
    monkeypatch.setattr(harness, "adapt_stream", lambda *args: runs.append(args) or [])
    assert main([
        "ablate", "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(blocker / "sub"),
    ]) == 1
    assert runs == []


def test_ablate_bad_grid_value_aborts_before_any_artifact(pretrained, tmp_path, caplog):
    ckpt, sched = pretrained
    out = tmp_path / "abl"
    assert main([
        "ablate", "--checkpoint", str(ckpt), "--schedule", str(sched), "--taus", "1.0,-1.0", "--out", str(out),
    ]) == 1
    assert "tau must be" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--taus", "--lambdas", "--gammas"])
def test_ablate_grid_value_that_does_not_parse_names_its_flag_before_any_artifact(pretrained, tmp_path, capsys, flag):
    ckpt, sched = pretrained
    out = tmp_path / "abl"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(out), flag, "1,x"])
    assert exc.value.code != 0
    assert f"argument {flag}: expected comma-separated floats, got '1,x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,method", [
    ("adapt", None), ("baseline", "bn1"), ("baseline", "uniform_tent"), ("dump-weights", None), ("ablate", None),
])
def test_single_row_schedule_aborts_before_any_artifact(pretrained, tmp_path, caplog, command, method):
    ckpt, _ = pretrained
    sched = tmp_path / "one_row.sched"
    write_schedule_file(sched, "continual", ["contrast_scale", "gaussian_noise"], 3, 1, 2)
    out = tmp_path / "run"
    args = [command, "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(out)]
    assert main(args + (["--method", method] if method else [])) == 1
    assert f"{sched} on {ckpt}: each batch of the schedule has 1 row(s)" in caplog.text
    assert not out.exists()


def test_source_baseline_runs_a_single_row_schedule(pretrained, tmp_path):
    ckpt, _ = pretrained
    sched = tmp_path / "one_row.sched"
    write_schedule_file(sched, "continual", ["contrast_scale", "gaussian_noise"], 3, 1, 2)
    out = tmp_path / "run"
    assert main([
        "baseline", "--method", "source", "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(out),
    ]) == 0
    assert len((out / "source_weights.jsonl").read_text().splitlines()) == 6


def test_dump_weights_emits_diagonals(pretrained, tmp_path):
    ckpt, sched = pretrained
    out = tmp_path / "dump"
    assert main([
        "dump-weights", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--out", str(out),
    ]) == 0
    lines = (out / "dump_weights.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert "diag" in rec and "w" in rec and "w_bar" in rec


@pytest.mark.parametrize("flag,value", [("--tau", "-1"), ("--eta", "0")])
def test_bad_rate_setting_aborts_before_any_artifact(pretrained, tmp_path, flag, value):
    ckpt, sched = pretrained
    out = tmp_path / "run"
    code = main([
        "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--out", str(out), f"{flag}={value}",
    ])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--seed", "-1", "seed"),
    ("--lambda", "nan", "lam"),
    ("--eta", "inf", "eta"),
])
def test_value_that_breaks_a_run_aborts_before_any_artifact(pretrained, tmp_path, caplog, flag, value, field):
    ckpt, sched = pretrained
    out = tmp_path / "run"
    code = main([
        "baseline", "--method", "uniform_tent", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--out", str(out), f"{flag}={value}",
    ])
    assert code == 1
    assert not out.exists()
    assert f"{field} must be" in caplog.text


def test_missing_checkpoint_aborts_nonzero(pretrained, tmp_path):
    _, sched = pretrained
    code = main([
        "adapt", "--checkpoint", str(tmp_path / "nope.txt"),
        "--schedule", str(sched), "--out", str(tmp_path / "x"),
    ])
    assert code == 1


def test_checkpoint_without_source_meta_aborts(pretrained, tmp_path):
    ckpt, sched = pretrained
    from fimtta.model import load_checkpoint, save_checkpoint

    model, _ = load_checkpoint(ckpt)
    bare = tmp_path / "bare.txt"
    save_checkpoint(model, bare)  # no source metadata
    assert main([
        "adapt", "--checkpoint", str(bare), "--schedule", str(sched),
        "--out", str(tmp_path / "y"),
    ]) == 1


def _overflowing(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("param ")) + 1
    return lines[:at] + [" ".join(["0x1p+1024"] + lines[at].split()[1:])] + lines[at + 1 :]


def _swapped_buffer_names(lines):
    names = {"source_mean": "source_var", "source_var": "source_mean"}
    return [f"buffer {names[line.split()[1]]} {line.split(maxsplit=2)[2]}" if line.startswith("buffer ") else line
            for line in lines]


def _without_buffers(lines):
    return [line for i, line in enumerate(lines) if not line.startswith("buffer ")
            and not (i and lines[i - 1].startswith("buffer "))]


@pytest.mark.parametrize("edit,message", [
    (_overflowing, r"line 8: bad param values \(hexadecimal value too large"),
    (_swapped_buffer_names, r"line 9: norm layer 'norm1' needs .* the source_var not negative"),
    (_without_buffers, r"norm layer 'norm1' has no source statistics; method 'source' needs them"),
])
def test_source_baseline_on_a_checkpoint_it_cannot_use_aborts_before_any_artifact(
    pretrained, tmp_path, caplog, edit, message
):
    # each loaded or aborted with no file or line named; a norm without buffers left three empty files
    ckpt, sched = pretrained
    edited = tmp_path / "edited.txt"
    edited.write_text("\n".join(edit(ckpt.read_text(encoding="utf-8").splitlines())) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    args = ["baseline", "--method", "source", "--checkpoint", str(edited), "--schedule", str(sched), "--out", str(out)]
    assert main(args) == 1
    assert re.search(re.escape(str(edited)) + ".*" + message, caplog.text)
    assert not out.exists()


def test_checkpoint_with_the_older_dimension_metadata_runs_the_same(pretrained, tmp_path):
    # pretrain once also wrote the d, classes and hidden metadata lines, which copy the model's own shape
    ckpt, sched = pretrained
    older = tmp_path / "older.txt"
    lines = ckpt.read_text().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("meta ")] == ["margin", "source_seed"]
    older.write_text("\n".join(lines[:3] + ["meta d 6", "meta classes 3", "meta hidden 8,8"] + lines[3:]) + "\n")
    runs = []
    for name, path in (("current", ckpt), ("older", older)):
        assert main(["adapt", "--checkpoint", str(path), "--schedule", str(sched), "--out", str(tmp_path / name)]) == 0
        runs.append([(tmp_path / name / f"layerwise_{kind}").read_bytes() for kind in ("metrics.csv", "summary.json")])
    assert runs[0] == runs[1]


def test_checkpoint_with_a_frozen_layer_aborts_before_any_artifact(pretrained, tmp_path, caplog):
    # every layer adapts, so a layer a file marks trainable=0 is refused rather than adapted
    ckpt, sched = pretrained
    frozen = tmp_path / "frozen.txt"
    lines = ckpt.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("layer norm1 "))
    lines[at] = "layer norm1 norm trainable=0"
    frozen.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert main(["adapt", "--checkpoint", str(frozen), "--schedule", str(sched), "--out", str(out)]) == 1
    assert f"frozen.txt: line {at + 1}: " in caplog.text and "trainable=1" in caplog.text
    assert not out.exists()


def test_checkpoint_with_a_nan_value_aborts_before_any_artifact(pretrained, tmp_path, caplog):
    # a NaN weight once ran to the end, every step rejected, and wrote a NaN mean entropy
    ckpt, sched = pretrained
    poisoned = tmp_path / "poisoned.txt"
    lines = ckpt.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("param ")) + 1
    lines[at] = " ".join(["nan"] + lines[at].split()[1:])
    poisoned.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert main(["adapt", "--checkpoint", str(poisoned), "--schedule", str(sched), "--out", str(out)]) == 1
    assert f"poisoned.txt: line {at + 1}: bad param values (nan is not a finite value)" in caplog.text
    assert not out.exists()


def test_schedule_with_a_negative_seed_aborts_before_any_artifact(pretrained, tmp_path, caplog):
    # numpy once refused the seed after the run's files were created, naming no file or line
    ckpt, _ = pretrained
    sched = tmp_path / "negative.sched"
    write_schedule_file(sched, "continual", ["contrast_scale", "gaussian_noise"], 3, 16, -1)
    out = tmp_path / "run"
    assert main(["adapt", "--checkpoint", str(ckpt), "--schedule", str(sched), "--out", str(out)]) == 1
    assert "negative.sched: line 5: need seed >= 0, got -1" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command,method,code", [
    ("adapt", None, 1), ("dump-weights", None, 1), ("ablate", None, 1),
    ("adapt", "naive_eq6", 0), ("baseline", "uniform_tent", 0),  # only the scaler needs two layers
])
def test_layerwise_run_on_a_single_weight_layer_aborts_before_any_artifact(
    pretrained, tmp_path, caplog, command, method, code
):
    _, sched = pretrained
    linear = tmp_path / "linear"
    assert main([
        "pretrain", "--d", "6", "--classes", "3", "--n", "240", "--hidden", "", "--epochs", "1", "--out", str(linear),
    ]) == 0
    out = tmp_path / "run"
    args = [command, "--checkpoint", str(linear / "checkpoint.txt"), "--schedule", str(sched), "--out", str(out)]
    assert main(args + (["--method", method] if method else [])) == code
    if code:
        assert "checkpoint.txt: model has 1 weight layer(s); method 'layerwise' needs at least 2" in caplog.text
    assert out.exists() == (code == 0)


def test_unwritable_out_aborts(pretrained):
    ckpt, sched = pretrained
    assert main([
        "adapt", "--checkpoint", str(ckpt), "--schedule", str(sched),
        "--out", "/proc/nope/out",
    ]) == 1


def test_cross_process_determinism(pretrained, tmp_path):
    import os
    import subprocess
    import sys

    ckpt, sched = pretrained
    outputs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "fimtta.cli", "adapt",
                "--checkpoint", str(ckpt), "--schedule", str(sched),
                "--seed", "5", "--out", str(out),
            ],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "layerwise_metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
