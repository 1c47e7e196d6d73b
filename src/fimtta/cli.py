"""Command-line entry points: pretrain, adapt, baseline, ablate, dump-weights."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .harness import AdaptConfig
from .model import build_classifier, load_checkpoint, save_checkpoint
from .stream import SourceSpec, describe_schedule, gen_source, parse_schedule_file

logger = logging.getLogger(__name__)

# run flag -> AdaptConfig field; each flag takes the field's type and default
ADAPT_FLAGS = {
    "--method": "method", "--eta": "eta", "--tau": "tau", "--lambda": "lam", "--gamma": "gamma",
    "--opt": "optimizer", "--seed": "seed",
}


def _parsed(convert, many: bool = False, low: int | None = None):
    """An argparse type: a ``convert`` value, or with ``many`` a comma-separated
    list of them, each at least ``low``; argparse names the flag of a refused one."""
    need = f"{'comma-separated ' * many}{convert.__name__}{'s' * many}" + ("" if low is None else f" >= {low}")

    def parse(text: str):
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip()] if many else [convert(text)]
            if low is None or min(values, default=low) >= low:
                return values if many else values[0]
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {need}, got {text!r}")

    return parse


def _add_adapt_flags(p: argparse.ArgumentParser, methods: tuple[str, ...] | None, seeds: bool = False) -> None:
    """The run flags; ``--method`` only with ``methods``, and required when
    the config's default method is not among them."""
    p.add_argument("--checkpoint", required=True, help="pretrained model checkpoint")
    p.add_argument("--schedule", required=True, help="schedule description file")
    p.add_argument("--out", required=True, help="output directory")
    choices = {**harness.CHOICES, "method": methods}
    for flag, name in ADAPT_FLAGS.items():
        default, allowed = getattr(AdaptConfig, name), choices.get(name)
        if name != "method" or methods:
            p.add_argument(
                flag, dest=name, type=type(default), choices=allowed, default=default,
                required=allowed is not None and default not in allowed,
            )
    if seeds:
        p.add_argument("--seeds", type=_parsed(int, low=1), default=1, help="repeat with seed offsets; report mean/std")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fimtta",
        description="Layer-wise auto-weighted test-time adaptation on synthetic streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a source classifier and write a checkpoint")
    p.add_argument("--d", type=_parsed(int, low=2), default=16, help="input dimension")
    p.add_argument("--classes", type=_parsed(int, low=2), default=3)
    p.add_argument("--margin", type=float, default=4.5)
    p.add_argument("--n", type=int, default=1920, help="source sample count")
    p.add_argument("--hidden", type=_parsed(int, many=True, low=1), default="32,32,32,32", help="comma-separated widths")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--eta-pre", type=float, default=1e-2)
    p.add_argument("--seed", type=_parsed(int, low=0), default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("adapt", help="run the layer-wise weighted adaptation")
    _add_adapt_flags(p, harness.WEIGHTED_METHODS, seeds=True)

    p = sub.add_parser("baseline", help="run a non-weighted reference method")
    _add_adapt_flags(p, harness.BASELINE_METHODS, seeds=True)

    p = sub.add_parser("ablate", help="factorial sweep over tau, lambda, gamma")
    _add_adapt_flags(p, harness.WEIGHTED_METHODS)
    p.add_argument("--taus", type=_parsed(float, many=True), default="1.0", help="comma-separated tau grid")
    p.add_argument("--lambdas", type=_parsed(float, many=True), default="0.1", help="comma-separated lambda grid")
    p.add_argument("--gammas", type=_parsed(float, many=True), default="1.0", help="comma-separated gamma grid")

    p = sub.add_parser("dump-weights", help="layerwise run that also dumps trace diagonals")
    _add_adapt_flags(p, None)
    return parser


def _run_setup(args, **fixed):
    """Config, pretrained model, source task and schedule of a run command.

    ``fixed`` sets config fields that have no flag. Prints the resolved
    schedule; every check here runs before any file is written.
    """
    flags = {name: getattr(args, name) for name in ADAPT_FLAGS.values() if name in args}
    config = AdaptConfig(**flags, **fixed)
    model, meta = load_checkpoint(args.checkpoint)
    try:
        source = SourceSpec(model.input_dim, model.class_count, margin=float(meta["margin"]), seed=int(meta["source_seed"]))
    except KeyError as exc:
        raise ValueError(f"{args.checkpoint}: checkpoint lacks source metadata ({exc})") from exc
    except ValueError as exc:  # a malformed metadata value
        raise ValueError(f"{args.checkpoint}: {exc}") from None
    schedule = parse_schedule_file(args.schedule)
    harness.check_run(config.method, model, schedule.batch_size, f"{args.schedule} on {args.checkpoint}")
    print(describe_schedule(schedule))
    return config, model, source, schedule


def cmd_pretrain(args) -> int:
    spec = SourceSpec(input_dim=args.d, class_count=args.classes, margin=args.margin, seed=args.seed)
    source = gen_source(spec, args.n)
    model = build_classifier(args.d, args.hidden, args.classes, seed=args.seed)
    accuracy = harness.pretrain(model, source, epochs=args.epochs, eta_pre=args.eta_pre, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.txt"
    save_checkpoint(model, ckpt, meta={"margin": repr(args.margin), "source_seed": str(args.seed)})
    print(f"source train accuracy: {accuracy:.4f}")
    print(f"checkpoint written to {ckpt}")
    return 0


def cmd_run(args) -> int:
    """``adapt`` and ``baseline``: one run of ``--method`` per seed."""
    config, model, source, schedule = _run_setup(args)
    summaries = []
    for offset in range(args.seeds):
        cfg = replace(config, seed=config.seed + offset)
        run_tag = args.method if args.seeds == 1 else f"{args.method}_seed{cfg.seed}"
        result = harness.run_experiment(
            model, source, schedule, cfg, args.out, tag=run_tag
        )
        summaries.append(result.summary)
        print(
            f"[{run_tag}] mean error {result.summary['mean_error']:.4f} "
            f"over {result.summary['batches']} batches"
        )
    if args.seeds > 1:
        errs = [s["mean_error"] for s in summaries]
        print(
            f"mean over {args.seeds} seeds: {np.mean(errs):.4f} +/- {np.std(errs):.4f}"
        )
    return 0


def cmd_dump_weights(args) -> int:
    config, model, source, schedule = _run_setup(args, track_diagonal=True)
    result = harness.run_experiment(
        model, source, schedule, config, args.out, tag="dump"
    )
    print(f"weight dumps (with trace diagonals) written to {result.weights_path}")
    return 0


def cmd_ablate(args) -> int:
    base, model, source, schedule = _run_setup(args)
    # a bad grid value aborts before the table path is probed
    configs = harness.ablation_grid(base, args.taus, args.lambdas, args.gammas)
    (table,) = harness.writable_paths(args.out, ["ablation.json"])
    rows = harness.ablate(model, source, schedule, configs)
    table.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{'tau':>6} {'lambda':>8} {'gamma':>6} {'mean_error':>11}")
    for row in rows:
        print(
            f"{row['tau']:>6.2f} {row['lambda']:>8.3f} {row['gamma']:>6.2f} "
            f"{row['mean_error']:>11.4f}"
        )
    print(f"ablation table written to {table}")
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "adapt": cmd_run,
    "baseline": cmd_run,
    "ablate": cmd_ablate,
    "dump-weights": cmd_dump_weights,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as exc:  # CLI contract: nonzero exit on any abort
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
