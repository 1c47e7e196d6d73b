from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from fimtta import harness
from fimtta.model import Model, build_classifier
from fimtta.stream import SourceSpec, gen_source

DESK_HIDDEN = [32, 32, 32, 32]
DESK_EPOCHS = 20
DESK_ETA_PRE = 1e-2

# every property draws the same examples on each run and has no deadline, whose
# timings would fail at random on a slow or loaded host. Each sets its own max_examples
# but the reference-loop property, which takes the profile's: FIMTTA_PROFILE=thorough runs
# it over the cases that set its bound
settings.register_profile("fimtta", derandomize=True, deadline=None, max_examples=100)
settings.register_profile("thorough", settings.get_profile("fimtta"), max_examples=2500)
settings.load_profile(os.environ.get("FIMTTA_PROFILE", "fimtta"))


@pytest.fixture(scope="session")
def desk_setup():
    """Lazily pretrained desk-scale models keyed by seed, shared suite-wide."""
    cache: dict[int, tuple[SourceSpec, Model, float]] = {}

    def get(seed: int) -> tuple[SourceSpec, Model, float]:
        if seed not in cache:
            spec = SourceSpec(seed=seed)
            source = gen_source(spec, 1920)
            model = build_classifier(
                spec.input_dim, DESK_HIDDEN, spec.class_count, seed=seed
            )
            accuracy = harness.pretrain(model, source, epochs=DESK_EPOCHS, eta_pre=DESK_ETA_PRE, seed=seed)
            cache[seed] = (spec, model, accuracy)
        return cache[seed]

    return get


def finite_diff(fn, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn() w.r.t. arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(analytic, reference) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(reference)))
    return float((np.abs(analytic - reference) / denom).max())


def write_schedule_file(path, kind: str, kinds: list[str], batches: int, batch_size: int, seed: int) -> None:
    """A key=value schedule file that ``parse_schedule_file`` reads back."""
    text = (
        f"kind={kind}\n"
        f"kinds={','.join(kinds)}\n"
        f"batches={batches}\n"
        f"batch_size={batch_size}\n"
        f"seed={seed}\n"
    )
    Path(path).write_text(text, encoding="utf-8")
