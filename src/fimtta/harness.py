"""Orchestration: source pretraining, the online adaptation loop,
baselines, experiment artifacts, and ablation sweeps.

The adaptation loop is strictly batch-wise and online: the error
attributed to a batch comes from the model state left by the previous
batch, the per-layer trace state carries across domain boundaries with
no reset, and a single update is taken per batch.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fisher, losses, scheduler
from .model import Model, cache_group, record_source_stats
from .stream import Dataset, DomainSchedule, ScheduleStream, SourceSpec

logger = logging.getLogger(__name__)

WEIGHTED_METHODS = ("layerwise", "naive_eq6")
BASELINE_METHODS = ("source", "bn1", "uniform_tent")
# AdaptConfig field -> the values it accepts
CHOICES = {"method": WEIGHTED_METHODS + BASELINE_METHODS, "optimizer": ("adam", "sgd")}
PRETRAIN_BATCH = 64  # source rows per pretraining step


@dataclass
class AdaptConfig:
    method: str = "layerwise"
    eta: float = 5e-3  # 1e-3 is too timid for the desk-scale classifier
    tau: float = 1.0
    lam: float = 0.1
    gamma: float = 1.0
    optimizer: str = "adam"
    seed: int = 0
    track_diagonal: bool = False  # output only: fold the trace diagonal into a running total and the records

    def __post_init__(self):
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        # a NaN or infinite value would drop a loss term, reject every step or zero the rates
        for name, positive in (("eta", True), ("tau", False), ("lam", False)):
            value = getattr(self, name)
            if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class MetricsRecord:
    step: int
    domain: str
    severity: int
    error: float
    entropy: float
    consistency: float
    w_bar: list[float]
    w_raw: list[float] = field(default_factory=list)
    diag: dict[str, np.ndarray] | None = None
    dropped_rows: int = 0  # rows with a non-finite feature, left out
    skipped: bool = False  # too few rows left, or an overflow: no prediction, not adapted on


class PretrainDiverged(RuntimeError):
    pass


def pretrain(
    model: Model,
    source: Dataset,
    epochs: int,
    eta_pre: float = 1e-2,
    seed: int = 0,
) -> float:
    """Minimize NLL on the labeled source set with uniform-rate Adam,
    training ``model`` in place.

    Freezes each norm layer's source statistics afterwards and returns
    train accuracy on the frozen-source prediction path. ``epochs=0``
    records statistics on the untrained initialization. Settings under
    which no step, or no descent step, could be taken are rejected before
    the first step.
    """
    n = source.inputs.shape[0]
    if not (np.isfinite(eta_pre) and eta_pre > 0):
        raise ValueError(f"eta_pre must be finite and > 0, got {eta_pre}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if epochs > 0 and n < PRETRAIN_BATCH:
        raise ValueError(f"n must be >= PRETRAIN_BATCH={PRETRAIN_BATCH} for a pretraining step, got {n} source rows")
    rng = np.random.default_rng(seed)
    opt = scheduler.AdamState()
    uniform = np.full(len(model.weight_layers()), eta_pre)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for step, start in enumerate(range(0, n - PRETRAIN_BATCH + 1, PRETRAIN_BATCH)):
            pick = order[start : start + PRETRAIN_BATCH]
            logits, saved = model.forward(source.inputs[pick], batch_stats=True)
            loss, g = losses.nll_loss(logits, source.labels[pick])
            if not np.isfinite(loss):
                raise PretrainDiverged(f"pretraining loss became {loss} at epoch {epoch} step {step}; aborting")
            grad = collect_grads(model, saved, g)
            scheduler.weighted_step(model, grad, uniform, optimizer=opt)
    record_source_stats(model, source.inputs)
    logits, _ = model.forward(source.inputs, batch_stats=False)
    return float((logits.argmax(axis=1) == source.labels).mean())


def collect_grads(model: Model, saved: list, g: np.ndarray) -> np.ndarray:
    """Flat [P] parameter gradient of a loss built on the logits of one
    ``model.forward``, laid out like ``model.theta``.

    ``saved`` is that forward's cache and ``g`` the loss's gradient with
    respect to its logits, of their shape ([n, C], or [g, n, C] for a
    grouped forward): the second result of a ``losses`` function, scaled by
    its weight in the loss. One ``model.backward`` turns it into a gradient
    row per group, overwriting ``g``, and the sink sums the rows: bit for bit
    the sum, in group order, of the gradients of each group's own forward.
    """
    grad = np.empty(model.theta.size)

    def add(row: int, col: int, block: np.ndarray) -> None:
        if len(block) == 1:  # one group: a copy, the bits a one-row reduce gives, without its call cost
            grad[col : col + block.shape[1]] = block[0]
        else:
            np.add.reduce(block, out=grad[col : col + block.shape[1]])

    model.backward(saved, g if g.ndim == 3 else g[None], add)
    return grad


def min_batch_rows(method: str) -> int:
    """Fewest rows a batch needs: 1 under ``source``, 2 under every other
    method, which normalizes with the batch's own statistics that a single
    row cannot supply (the first norm layer would output its shift whatever
    the input)."""
    return 1 if method == "source" else 2


def check_batch_rows(method: str, rows: int, where: str) -> None:
    """Reject a batch of fewer than ``min_batch_rows(method)`` rows;
    ``where`` names the batch or schedule checked."""
    if rows < min_batch_rows(method):
        raise ValueError(f"{where} has {rows} row(s); method {method!r} needs at least {min_batch_rows(method)}")


def check_weight_layers(method: str, model: Model, where: str) -> None:
    """Reject a ``layerwise`` run on a model of fewer than 2 weight layers:
    its min-max scaler needs two traces to span; ``where`` names the run."""
    if method == "layerwise" and len(model.slices) < 2:
        raise ValueError(f"{where}: model has {len(model.slices)} weight layer(s); method 'layerwise' needs at least 2")


def adapt_stream(
    model: Model, stream: ScheduleStream, config: AdaptConfig
) -> list[MetricsRecord]:
    """Run the online loop over a single-pass stream, one update per batch.

    Per batch: drop the rows with a non-finite feature, predict and record
    the online error, estimate per-layer score second moments, fold them
    into the running trace state, turn traces into bounded per-layer rates,
    then descend the total loss. With a consistency term the jittered copy
    is drawn first, and one grouped forward runs the clean batch and the
    copy. Non-updating methods (source, bn1) skip everything after the
    prediction. A rejected update leaves the model at its pre-step state
    and the loop continues. A batch delivered with fewer than
    ``min_batch_rows`` rows raises ``ValueError`` (``check_batch_rows``); one
    left with fewer once its non-finite rows are dropped is recorded as
    skipped, with one warning, and so is a batch whose forward or entropy
    head overflows or makes a NaN (they run under ``np.errstate(over="raise",
    invalid="raise")``): it is not predicted, folded into the traces or
    adapted on. A batch's caches and gradient are freed before the next
    batch's forward.
    """
    cfg = config
    n_layers = len(model.slices)
    traces = np.zeros(n_layers)  # running totals, folded with cfg.gamma
    diagonal = np.zeros(model.theta.size) if cfg.track_diagonal else None
    opt = scheduler.AdamState() if cfg.optimizer == "adam" else None
    aug_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA06)))
    updating = cfg.method in WEIGHTED_METHODS + ("uniform_tent",)
    grouped = updating and cfg.lam > 0.0  # entropy + lam * consistency, on the clean and jittered groups
    batch_stats = cfg.method != "source"

    def adapt(batch) -> MetricsRecord:
        check_batch_rows(cfg.method, len(batch.inputs), f"adapt_stream: step {batch.step}")
        inputs, labels = batch.inputs, stream.labels_for(batch.step)
        finite = np.isfinite(inputs).all(axis=1)
        rec = MetricsRecord(batch.step, batch.domain, batch.severity, np.nan, np.nan, 0.0, [0.0] * n_layers)
        rec.dropped_rows = len(inputs) - int(finite.sum())
        if rec.dropped_rows:
            inputs, labels = inputs[finite], labels[finite]
            rec.skipped = len(inputs) < min_batch_rows(cfg.method)
            logger.warning(
                "adapt_stream: step %d drops %d row(s) with non-finite features%s", batch.step,
                rec.dropped_rows, ", too few left: skipped" if rec.skipped else "",
            )
            if rec.skipped:
                return rec
        if grouped:  # group 0 the rows, group 1 their jittered copy, drawn straight into it
            pair = np.empty((2, *inputs.shape))
            pair[0], inputs = inputs, pair
            losses.augment(pair[0], aug_rng, out=pair[1])
        try:  # a finite batch that overflows on the way to its entropy is skipped
            with np.errstate(over="raise", invalid="raise"):
                logits, saved = model.forward(inputs, batch_stats=batch_stats)
                clean = logits[0] if grouped else logits
                rec.entropy, g = losses.entropy_loss(clean)
        except FloatingPointError as exc:
            rec.skipped = True
            logger.warning("adapt_stream: step %d overflows (%s): skipped", batch.step, exc)
            return rec
        rec.error = float(np.count_nonzero(clean.argmax(axis=1) != labels) / len(labels))
        if not updating:
            return rec

        rec.w_bar = [1.0] * n_layers  # uniform_tent
        if cfg.method in WEIGHTED_METHODS:
            clean_saved = cache_group(saved, 0) if grouped else saved
            batch_traces, batch_diagonal = fisher.layer_fim_trace(model, clean, clean_saved)
            if np.isfinite(batch_traces).all():
                fisher.accumulate(traces, batch_traces, cfg.gamma)
                if diagonal is not None:
                    fisher.accumulate(diagonal, batch_diagonal, cfg.gamma)
            else:
                logger.warning("adapt_stream: step %d has non-finite traces, not accumulated", batch.step)
            if diagonal is not None:
                rec.diag = {name: diagonal[cols].copy() for name, cols in model.slices.items()}
            rec.w_raw = fisher.learning_weights(traces).tolist()
            rec.w_bar = list(rec.w_raw)  # unbounded naive weighting
            if cfg.method == "layerwise":
                rec.w_bar = scheduler.exp_minmax_scale(rec.w_raw, tau=cfg.tau).tolist()
        rates = scheduler.layer_rates(rec.w_bar, cfg.eta)
        if grouped:  # outside the errstate: a NaN logit (a fault no input check sees) reaches the step's check
            rec.consistency, g_aug = losses.consistency_loss(clean, logits[1])
            pair = np.empty((2, *g.shape))
            pair[0], g = g, pair
            np.multiply(g_aug, cfg.lam, out=pair[1])
        if not scheduler.weighted_step(model, collect_grads(model, saved, g), rates, optimizer=opt):
            logger.warning("adapt_stream: step %d rejected, model unchanged", batch.step)
        return rec

    return [adapt(batch) for batch in stream]  # a batch's caches die with its call, before the next forward


# ---------------------------------------------------------------------------
# artifacts


def metrics_csv(records: list[MetricsRecord], layer_names: list[str]) -> str:
    """Fixed-schema CSV: step,domain,severity,error,entropy,consistency,
    then one scaled-weight column per layer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["step", "domain", "severity", "error", "entropy", "consistency"]
    header += [f"wbar_{i}" for i in range(1, len(layer_names) + 1)]
    writer.writerow(header)
    for rec in records:
        row = [
            rec.step,
            rec.domain,
            rec.severity,
            repr(rec.error),
            repr(rec.entropy),
            repr(rec.consistency),
        ]
        row += [repr(v) for v in rec.w_bar]
        writer.writerow(row)
    return buf.getvalue()


def summarize(records: list[MetricsRecord], config: AdaptConfig) -> dict:
    """Mean error overall and per domain, in stream order, over the batches
    not skipped (NaN where none is left), and the counts of dropped rows and
    skipped batches."""
    kept = [rec for rec in records if not rec.skipped]
    per_domain: dict[str, list[float]] = {rec.domain: [] for rec in records}
    for rec in kept:
        per_domain[rec.domain].append(rec.error)

    def mean(values) -> float:
        return float(np.mean(values)) if values else float("nan")

    return {
        "method": config.method,
        "eta": config.eta,
        "tau": config.tau,
        "lambda": config.lam,
        "gamma": config.gamma,
        "seed": config.seed,
        "per_domain_error": {k: mean(v) for k, v in per_domain.items()},
        "mean_error": mean([rec.error for rec in kept]),
        "mean_entropy": mean([rec.entropy for rec in kept]),
        "batches": len(records),
        "dropped_rows": sum(rec.dropped_rows for rec in records),
        "skipped_batches": len(records) - len(kept),
    }


def writable_paths(out_dir, names: list[str]) -> list[Path]:
    """Paths ``out_dir/name``, each created empty now so that an unwritable
    path fails before a run, not after it."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = [Path(out_dir, name) for name in names]
    for path in paths:
        path.write_text("", encoding="utf-8")
    return paths


@dataclass
class ExperimentResult:
    summary: dict
    csv_path: Path
    weights_path: Path
    summary_path: Path


def run_experiment(
    model: Model,
    source: SourceSpec,
    schedule: DomainSchedule,
    config: AdaptConfig,
    out_dir,
    tag: str = "run",
) -> ExperimentResult:
    """One adaptation run with CSV metrics, JSON-lines weight dumps and a
    summary block written under ``out_dir``. The schedule's batch size, the
    model's layers and the output paths are checked before any adaptation
    starts."""
    check_batch_rows(config.method, schedule.batch_size, "run_experiment: each batch of the schedule")
    check_weight_layers(config.method, model, "run_experiment")
    csv_path, weights_path, summary_path = writable_paths(
        out_dir, [f"{tag}_metrics.csv", f"{tag}_weights.jsonl", f"{tag}_summary.json"]
    )
    work = model.clone()
    layer_names = work.weight_layer_names()
    records = adapt_stream(work, ScheduleStream(source, schedule), config)

    csv_path.write_text(metrics_csv(records, layer_names), encoding="utf-8")
    with open(weights_path, "w", encoding="utf-8") as fh:
        for rec in records:
            record = {
                "step": rec.step,
                "domain": rec.domain,
                "severity": rec.severity,
                "w": dict(zip(layer_names, rec.w_raw)),
                "w_bar": dict(zip(layer_names, rec.w_bar)),
            }
            if rec.diag is not None:
                record["diag"] = {name: d.tolist() for name, d in rec.diag.items()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    summary = summarize(records, config)
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return ExperimentResult(summary, csv_path, weights_path, summary_path)


def ablation_grid(base: AdaptConfig, taus: list[float], lams: list[float], gammas: list[float]) -> list[AdaptConfig]:
    """``base`` at every (tau, lambda, gamma) of the full factorial grid;
    a config rejects a bad value as it is built."""
    if not taus or not lams or not gammas:
        raise ValueError("ablate: every grid axis needs at least one value")
    return [replace(base, tau=tau, lam=lam, gamma=gamma) for tau in taus for lam in lams for gamma in gammas]


def ablate(model: Model, source: SourceSpec, schedule: DomainSchedule, configs: list[AdaptConfig]) -> list[dict]:
    """One adaptation run per config (``ablation_grid`` builds the full
    factorial sweep), seeds held fixed, rows sorted by mean error. A stream
    only reads its schedule, so every config consumes an identical stream
    of the one ``schedule``. Every config's method is checked against the
    schedule's batch size and the model's layers before the first run."""
    for cfg in configs:
        check_batch_rows(cfg.method, schedule.batch_size, "ablate: each batch of the schedule")
        check_weight_layers(cfg.method, model, "ablate")
    rows = []
    for cfg in configs:
        records = adapt_stream(model.clone(), ScheduleStream(source, schedule), cfg)
        rows.append(summarize(records, cfg))
    rows.sort(key=lambda r: r["mean_error"])
    return rows
