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
    skipped: bool = False  # too few rows, or a fault anywhere in its pass, step included: NaN metrics, no write


class PretrainDiverged(RuntimeError):
    pass


class _TooFewRows(Exception):
    """A batch left with fewer than ``min_batch_rows`` rows: ``adapt_stream`` skips it."""


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
    the first step. An overflow or a NaN made under ``np.errstate``, a step
    ``weighted_step`` refuses, or a NaN loss (an input NaN raises nothing)
    raises ``PretrainDiverged`` naming the epoch, the step and the cause.
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
    uniform = np.full(len(model.layer_sizes), eta_pre)
    where = "on the initialization"  # a fault after the last step names that step: it made the weights diverge
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(epochs):
                order = rng.permutation(n)
                for step, start in enumerate(range(0, n - PRETRAIN_BATCH + 1, PRETRAIN_BATCH)):
                    where = f"at epoch {epoch} step {step}"
                    pick = order[start : start + PRETRAIN_BATCH]
                    logits, saved = model.forward(source.inputs[pick], batch_stats=True)
                    loss, g = losses.nll_loss(logits, source.labels[pick])
                    if not np.isfinite(loss):  # an input NaN raises nothing on its way here
                        raise FloatingPointError(f"loss is {loss}")
                    scheduler.weighted_step(model, collect_grads(model, saved, g), uniform, optimizer=opt)
            record_source_stats(model, source.inputs)
            logits, _ = model.forward(source.inputs, batch_stats=False)
    except FloatingPointError as exc:
        raise PretrainDiverged(f"pretraining diverged {where}: {exc}") from exc
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

    def add(row: int, col: int, block: np.ndarray, scale: None) -> None:  # the batch pass owes no scale
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


def check_run(method: str, model: Model, batch_size: int, where: str) -> None:
    """Reject a run that cannot be made, before it starts; ``where`` names it.
    Its batch size must reach ``min_batch_rows(method)``, a ``layerwise`` run
    needs two weight layers for its min-max scaler to span, and a ``source``
    run needs source statistics on every norm layer."""
    if batch_size < min_batch_rows(method):
        raise ValueError(f"{where}: each batch of the schedule has {batch_size} row(s); "
                         f"method {method!r} needs at least {min_batch_rows(method)}")
    if method == "layerwise" and len(model.slices) < 2:
        raise ValueError(f"{where}: model has {len(model.slices)} weight layer(s); method 'layerwise' needs at least 2")
    bare = [layer.name for layer in model.layers if layer.kind == "norm" and layer.source_mean is None]
    if method == "source" and bare:
        raise ValueError(f"{where}: norm layer {bare[0]!r} has no source statistics; method 'source' needs them")


def adapt_stream(model: Model, stream: ScheduleStream, config: AdaptConfig) -> list[MetricsRecord]:
    """Run the online loop over a single-pass stream, one update per batch.

    Per batch: drop the rows with a non-finite feature, predict and record
    the online error, take per-layer score second moments and the loss
    gradient, then fold the moments into the running traces, turn those
    into bounded per-layer rates and take one step. With a consistency term
    the jittered copy is drawn first, and one grouped forward runs the clean
    batch and the copy. Non-updating methods (source, bn1) stop after the
    prediction. A batch not adapted on in full has one outcome: skipped
    and counted, with NaN metrics and rates, nothing written (neither the
    running traces nor theta nor the Adam state) and one warning naming
    its step, its finite rows of those delivered and the cause. It is
    skipped when fewer than ``min_batch_rows`` rows are left once its
    non-finite rows are dropped, or when its pass from the jitter draw to
    the step, run under ``np.errstate(over="raise", invalid="raise")``,
    overflows, makes a NaN, yields a NaN entropy or has its step refused
    by ``weighted_step``. A batch adapted on logs its dropped rows at INFO.
    The fold returns new totals and the step writes last, so nothing is
    written until the whole pass has succeeded; the draw comes first, so a
    skipped batch moves the jitter generator as a kept one does. A batch's
    caches and gradient are freed before the next batch's forward.
    """
    cfg = config
    n_layers = len(model.slices)
    # the running traces, and the diagonal if tracked, folded with cfg.gamma
    running = [np.zeros(n_layers)] + ([np.zeros(model.theta.size)] if cfg.track_diagonal else [])
    opt = scheduler.AdamState() if cfg.optimizer == "adam" else None
    aug_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA06)))
    updating = cfg.method in WEIGHTED_METHODS + ("uniform_tent",)
    grouped = updating and cfg.lam > 0.0  # entropy + lam * consistency, on the clean and jittered groups
    batch_stats = cfg.method != "source"

    def adapt(batch) -> MetricsRecord:
        inputs, labels = batch.inputs, stream.labels_for(batch.step)
        finite = np.isfinite(inputs).all(axis=1)
        rec = MetricsRecord(batch.step, batch.domain, batch.severity, np.nan, np.nan, np.nan, [np.nan] * n_layers)
        rec.dropped_rows = len(inputs) - int(finite.sum())
        if rec.dropped_rows:
            inputs, labels = inputs[finite], labels[finite]
        rows = batch.step, len(labels), len(batch.inputs)  # as logged: the step, its finite rows, those delivered
        try:  # the whole batch pass, so that too few rows, or an overflow or a NaN anywhere in it, skips the batch
            if len(labels) < min_batch_rows(cfg.method):
                raise _TooFewRows(f"too few rows, method {cfg.method!r} needs {min_batch_rows(cfg.method)}")
            with np.errstate(over="raise", invalid="raise"):
                if grouped:  # group 0 the rows, group 1 their jittered copy, drawn straight into it
                    pair = np.empty((2, *inputs.shape))
                    pair[0], inputs = inputs, pair
                    losses.augment(pair[0], aug_rng, out=pair[1])
                logits, saved = model.forward(inputs, batch_stats=batch_stats)
                clean = logits[0] if grouped else logits
                entropy, g = losses.entropy_loss(clean)
                if not np.isfinite(entropy):  # a NaN logit row raises nothing on its way here
                    raise FloatingPointError(f"entropy is {entropy}")
                if cfg.method in WEIGHTED_METHODS:
                    clean_saved = cache_group(saved, 0) if grouped else saved
                    batch_traces, batch_diagonal = fisher.layer_fim_trace(model, clean, clean_saved)
                consistency = 0.0
                if grouped:
                    consistency, g_aug = losses.consistency_loss(clean, logits[1])
                    pair = np.empty((2, *g.shape))
                    pair[0], g = g, pair
                    np.multiply(g_aug, cfg.lam, out=pair[1])
                grad = collect_grads(model, saved, g) if updating else None
                folded, w_raw, w_bar = running, [], [1.0 if updating else 0.0] * n_layers  # uniform_tent's, or none
                if cfg.method in WEIGHTED_METHODS:  # new totals, kept if the step is taken
                    folded = [fisher.accumulate(total, new, cfg.gamma)
                              for total, new in zip(running, (batch_traces, batch_diagonal))]
                    w_raw = fisher.learning_weights(folded[0]).tolist()
                    w_bar = list(w_raw)  # unbounded naive weighting
                    if cfg.method == "layerwise":
                        w_bar = scheduler.exp_minmax_scale(w_raw, tau=cfg.tau).tolist()
                if updating:
                    scheduler.weighted_step(model, grad, scheduler.layer_rates(w_bar, cfg.eta), opt)
        except (FloatingPointError, _TooFewRows) as exc:  # the one exit of a batch not adapted on
            rec.skipped = True
            logger.warning("adapt_stream: step %d keeps %d finite row(s) of %d, skipped: %s", *rows, exc)
            return rec
        if rec.dropped_rows:
            logger.info("adapt_stream: step %d keeps %d finite row(s) of %d", *rows)
        running[:] = folded
        rec.error = float(np.count_nonzero(clean.argmax(axis=1) != labels) / len(labels))
        rec.entropy, rec.consistency, rec.w_raw, rec.w_bar = entropy, consistency, w_raw, w_bar
        if cfg.track_diagonal and w_raw:
            rec.diag = {name: running[1][cols] for name, cols in model.slices.items()}  # views: a fold is never written
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
    summary block written under ``out_dir``. ``check_run`` and then the output
    paths are checked before any adaptation starts."""
    check_run(config.method, model, schedule.batch_size, "run_experiment")
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
    factorial sweep), seeds held fixed, rows sorted by mean error, NaN last.
    A stream only reads its schedule, so every config consumes an identical
    stream of the one ``schedule``. ``check_run`` checks every config before
    the first run."""
    for cfg in configs:
        check_run(cfg.method, model, schedule.batch_size, "ablate")
    rows = []
    for cfg in configs:
        records = adapt_stream(model.clone(), ScheduleStream(source, schedule), cfg)
        rows.append(summarize(records, cfg))
    rows.sort(key=lambda r: (np.isnan(r["mean_error"]), r["mean_error"]))  # a run that skipped every batch last
    return rows
