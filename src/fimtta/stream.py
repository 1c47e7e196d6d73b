"""Synthetic source domain, corruption operators, and shift schedules.

The source task is a C-class Gaussian mixture with a controllable class
margin. Six vector-space corruption operators stand in for the usual
image corruptions, each with a fixed severity 1-5 parameter table chosen
so that frozen-source error spans roughly 10% to 60% across severities
(calibrated once against the pretrained desk-scale classifier; see the
tables below). Streams are single-pass: each batch is yielded exactly
once, and evaluation labels travel on a separate channel that only the
metrics recorder reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

CORRUPTION_KINDS = (
    "gaussian_noise",
    "impulse_noise",
    "feature_blur",
    "contrast_scale",
    "feature_dropout",
    "affine_warp",
)

# presentation order for the reference continual experiment: the
# label-preserving transforms (where adaptation has structure to recover)
# lead, the information-destroying noise corruptions close the stream
DESK_KINDS = (
    "contrast_scale",
    "affine_warp",
    "feature_blur",
    "gaussian_noise",
    "feature_dropout",
    "impulse_noise",
)

# severity -> parameter maps, monotone in corruption strength; calibrated
# on the pretrained desk-scale classifier (margin 4.5) so frozen-source
# error rises from a few percent at severity 1 to the 20-45% range at 5
GAUSSIAN_SIGMA = {1: 0.35, 2: 0.6, 3: 0.85, 4: 1.1, 5: 1.4}
IMPULSE_FRACTION = {1: 0.01, 2: 0.02, 3: 0.04, 4: 0.06, 5: 0.09}
IMPULSE_MAGNITUDE = 6.0
BLUR_SIGMA = {1: 0.4, 2: 0.7, 3: 1.1, 4: 1.6, 5: 2.2}
CONTRAST_FACTOR = {1: 0.4, 2: 0.28, 3: 0.18, 4: 0.11, 5: 0.06}
DROPOUT_FRACTION = {1: 0.05, 2: 0.1, 3: 0.16, 4: 0.23, 5: 0.32}
WARP_ANGLE = {1: 0.4, 2: 0.8, 3: 1.3, 4: 1.9, 5: 2.6}

_WARP_BASIS_SEED = 714025  # fixed: a corruption kind is one operator family


@dataclass(frozen=True)
class SourceSpec:
    """Parameters that fully determine the mixture classification task."""

    input_dim: int = 16
    class_count: int = 3
    margin: float = 4.5
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 2 or self.class_count < 2:
            raise ValueError("need input_dim >= 2 and class_count >= 2")
        if self.input_dim < self.class_count - 1:
            raise ValueError(
                "a regular simplex of class means needs input_dim >= class_count - 1"
            )
        if not np.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray


def class_means(spec: SourceSpec) -> np.ndarray:
    """Regular-simplex class means with pairwise distance = margin."""
    c = spec.class_count
    rng = np.random.default_rng(spec.seed)
    # simplex vertices in R^c (rank c-1), pairwise distance sqrt(2)
    vertices = np.eye(c) - 1.0 / c
    if spec.input_dim >= c:
        basis, _ = np.linalg.qr(rng.standard_normal((spec.input_dim, c)))
        embedded = vertices @ basis.T
    else:
        # input_dim == c-1: express the simplex in its own span first
        span, _ = np.linalg.qr(vertices.T)
        coords = vertices @ span[:, : c - 1]
        basis, _ = np.linalg.qr(rng.standard_normal((spec.input_dim, c - 1)))
        embedded = coords @ basis.T
    return (spec.margin / np.sqrt(2.0)) * embedded


def gen_source(spec: SourceSpec, n: int) -> Dataset:
    """Labeled draws from the mixture; class counts balanced within one."""
    c = spec.class_count
    if n < c:
        raise ValueError(f"n must be >= class_count={c} for a sample of every class, got {n}")
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec)
    counts = [n // c + (1 if i < n % c else 0) for i in range(c)]
    labels = rng.permutation(np.repeat(np.arange(c), counts))
    inputs = means[labels] + rng.standard_normal((n, spec.input_dim))
    return Dataset(inputs=inputs, labels=labels)


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; choose from {CORRUPTION_KINDS}"
            )
        if self.severity not in (1, 2, 3, 4, 5):
            raise ValueError(f"severity must be 1..5, got {self.severity}")


@lru_cache(maxsize=64)  # once per (dim, parameter), shared as a read-only view; ``__wrapped__`` builds afresh
def _blur_matrix(dim: int, sigma: float) -> np.ndarray:
    idx = np.arange(dim)
    kernel = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * sigma * sigma))
    return np.broadcast_to(kernel / kernel.sum(axis=1, keepdims=True), (dim, dim))


@lru_cache(maxsize=64)
def _warp_rotation(dim: int, angle: float) -> np.ndarray:
    # Cayley transform of a fixed generic skew generator: orthogonal for
    # every angle, identity at angle 0, severity scales the angle.
    rng = np.random.default_rng(_WARP_BASIS_SEED)
    raw = rng.standard_normal((dim, dim))
    skew = (raw - raw.T) / 2.0
    skew = skew / np.linalg.norm(skew, ord=2)
    a = (angle / 2.0) * skew
    eye = np.eye(dim)
    return np.broadcast_to(np.linalg.solve((eye + a).T, (eye - a).T).T, (dim, dim))


def corrupt(inputs: np.ndarray, spec: CorruptionSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply one corruption operator at the given severity."""
    x = np.asarray(inputs, dtype=np.float64)
    s = spec.severity
    if spec.kind == "gaussian_noise":
        return x + GAUSSIAN_SIGMA[s] * rng.standard_normal(x.shape)
    if spec.kind == "impulse_noise":
        mask = rng.random(x.shape) < IMPULSE_FRACTION[s]
        extremes = IMPULSE_MAGNITUDE * rng.choice([-1.0, 1.0], size=x.shape)
        return np.where(mask, extremes, x)
    if spec.kind == "feature_blur":
        return x @ _blur_matrix(x.shape[1], BLUR_SIGMA[s]).T
    if spec.kind == "contrast_scale":
        center = x.mean(axis=1, keepdims=True)
        return center + CONTRAST_FACTOR[s] * (x - center)
    if spec.kind == "feature_dropout":
        keep = rng.random(x.shape) >= DROPOUT_FRACTION[s]
        return x * keep
    if spec.kind == "affine_warp":
        return x @ _warp_rotation(x.shape[1], WARP_ANGLE[s]).T
    raise ValueError(f"unknown corruption kind {spec.kind!r}")


@dataclass(frozen=True)
class Segment:
    corruption: CorruptionSpec
    batches: int


@dataclass
class DomainSchedule:
    kind: str  # continual | gradual
    segments: list[Segment]
    batch_size: int
    seed: int

    @property
    def total_batches(self) -> int:
        return sum(seg.batches for seg in self.segments)


GRADUAL_RAMP = (1, 2, 3, 4, 5, 4, 3, 2, 1)


class ScheduleError(ValueError):
    """A schedule argument out of range; ``key`` names it as a schedule file does."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def make_schedule(
    kind: str,
    corruption_kinds: list[str],
    batches_per_segment: int,
    batch_size: int,
    seed: int,
) -> DomainSchedule:
    """Continual: one severity-5 segment per kind. Gradual: a 1..5..1
    severity ramp per kind, shifting domains at the low end."""
    if len(corruption_kinds) < 2:
        raise ScheduleError("kinds", "a meaningful sequence needs >= 2 corruption kinds")
    if batches_per_segment < 1:
        raise ScheduleError("batches", f"need >= 1 batches per segment, got {batches_per_segment}")
    if batch_size < 1:
        raise ScheduleError("batch_size", f"need batch_size >= 1, got {batch_size}")
    if seed < 0:
        raise ScheduleError("seed", f"need seed >= 0, got {seed}")
    if kind not in ("continual", "gradual"):
        raise ScheduleError("kind", f"schedule kind must be continual or gradual, got {kind!r}")
    severities = (5,) if kind == "continual" else GRADUAL_RAMP
    return DomainSchedule(
        kind=kind,
        segments=[
            Segment(CorruptionSpec(c, sev), batches_per_segment)
            for c in corruption_kinds
            for sev in severities
        ],
        batch_size=batch_size,
        seed=seed,
    )


@dataclass(frozen=True)
class StreamBatch:
    """What the adaptation path sees: inputs plus domain tags, no labels."""

    step: int
    domain: str
    severity: int
    inputs: np.ndarray


class ScheduleStream:
    """Single-pass batch stream over a schedule.

    Iteration yields each batch exactly once with no random access.
    Ground-truth labels for the batch just yielded are available only
    through :meth:`labels_for`, the read channel reserved for the
    metrics recorder; adaptation code never receives them.
    """

    def __init__(self, source: SourceSpec, schedule: DomainSchedule):
        self.source = source
        self.schedule = schedule
        self._means = class_means(source)
        self._current_step = -1
        self._current_labels: np.ndarray | None = None
        self._started = False

    def __iter__(self):
        if self._started:
            raise RuntimeError("stream is single-pass; create a new one to rerun")
        self._started = True
        rng = np.random.default_rng(self.schedule.seed)
        c = self.source.class_count
        d = self.source.input_dim
        batch = self.schedule.batch_size
        step = 0
        for seg in self.schedule.segments:
            for _ in range(seg.batches):
                labels = rng.integers(0, c, size=batch)
                clean = self._means[labels] + rng.standard_normal((batch, d))
                inputs = corrupt(clean, seg.corruption, rng)
                self._current_step = step
                self._current_labels = labels
                yield StreamBatch(
                    step=step,
                    domain=seg.corruption.kind,
                    severity=seg.corruption.severity,
                    inputs=inputs,
                )
                step += 1

    def labels_for(self, step: int) -> np.ndarray:
        if step != self._current_step or self._current_labels is None:
            raise RuntimeError(
                f"labels only readable for the current batch "
                f"(asked {step}, current {self._current_step})"
            )
        return self._current_labels


# ---------------------------------------------------------------------------
# schedule description files (plain key=value text)


def parse_schedule_file(path) -> DomainSchedule:
    """Read a key=value schedule file; errors name the file and line."""
    keys = ("kind", "kinds", "batches", "batch_size", "seed")
    fields: dict[str, tuple[str, int]] = {}  # key -> (value, line number)
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}: line {number}: expected key=value, got {line!r}")
        if key in fields or key not in keys:
            what = "repeated" if key in fields else f"unknown (expected one of {keys})"
            raise ValueError(f"{path}: line {number}: key {key!r} is {what}")
        fields[key] = (value, number)
    missing = set(keys) - set(fields)
    if missing:
        raise ValueError(f"{path}: schedule file missing keys {sorted(missing)}")

    def integer(key: str) -> int:
        value, number = fields[key]
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{path}: line {number}: {key} must be an integer, got {value!r}") from None

    batches, batch_size, seed = integer("batches"), integer("batch_size"), integer("seed")
    try:
        return make_schedule(
            kind=fields["kind"][0],
            corruption_kinds=[k.strip() for k in fields["kinds"][0].split(",") if k.strip()],
            batches_per_segment=batches,
            batch_size=batch_size,
            seed=seed,
        )
    except ValueError as exc:  # without a key: CorruptionSpec's unknown corruption kind
        raise ValueError(f"{path}: line {fields[getattr(exc, 'key', 'kinds')][1]}: {exc}") from None


def describe_schedule(schedule: DomainSchedule) -> str:
    """Human-readable resolved segment list, printed by the CLI."""
    lines = [
        f"{schedule.kind} schedule, batch_size={schedule.batch_size}, "
        f"seed={schedule.seed}, {schedule.total_batches} batches total"
    ]
    for seg in schedule.segments:
        lines.append(
            f"  {seg.corruption.kind} severity={seg.corruption.severity} "
            f"batches={seg.batches}"
        )
    return "\n".join(lines)
