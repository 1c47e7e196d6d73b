"""Layer-wise auto-weighted test-time adaptation.

Per-layer traces of the score second-moment matrix, accumulated across
an online stream of corrupted batches, drive bounded per-layer learning
rates for entropy-based self-adaptation of a frozen-source classifier.
"""

from .fisher import FisherState, accumulate, fim_diagonal, layer_fim_trace, learning_weights, per_sample_scores
from .harness import AdaptConfig, MetricsRecord, adapt_stream, pretrain, run_experiment
from .losses import augment, consistency_loss, entropy_loss, nll_loss
from .model import Model, ShapeError, build_classifier, load_checkpoint, save_checkpoint
from .scheduler import AdamState, exp_minmax_scale, layer_rates, weighted_step
from .stream import (
    CorruptionSpec,
    DomainSchedule,
    ScheduleStream,
    SourceSpec,
    corrupt,
    gen_source,
    make_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdamState",
    "CorruptionSpec",
    "DomainSchedule",
    "FisherState",
    "MetricsRecord",
    "Model",
    "ScheduleStream",
    "ShapeError",
    "SourceSpec",
    "accumulate",
    "adapt_stream",
    "augment",
    "build_classifier",
    "consistency_loss",
    "corrupt",
    "entropy_loss",
    "exp_minmax_scale",
    "fim_diagonal",
    "gen_source",
    "layer_fim_trace",
    "layer_rates",
    "learning_weights",
    "load_checkpoint",
    "make_schedule",
    "nll_loss",
    "per_sample_scores",
    "pretrain",
    "run_experiment",
    "save_checkpoint",
    "weighted_step",
]
