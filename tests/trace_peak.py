"""The tracemalloc peak of one trace pass on the desk model, for the memory
guard in ``test_fisher``. The guard reads it in a fresh interpreter, and this
module imports only numpy and fimtta, so no test module's code moves it.

    PYTHONPATH=src python tests/trace_peak.py 64
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np

from fimtta.fisher import layer_fim_trace
from fimtta.model import build_classifier, record_source_stats


def desk_trace_peak(n: int) -> int:
    """The tracemalloc peak of one trace pass at n rows, on a fresh clone of
    the desk model whose forward runs first, then two warm-up passes on
    throwaway clones. In that order the peak reads the same whatever module
    imports this one; with fewer warm-ups, or the forward after them, it
    moved with the importing module's own code."""
    rng = np.random.default_rng(12)
    base = build_classifier(16, [32, 32, 32, 32], 3, seed=4)
    for layer in base.weight_layers():
        for p in layer.params:
            p += 0.1 * rng.standard_normal(p.shape)
    record_source_stats(base, rng.standard_normal((200, 16)))
    x = np.random.default_rng(n).standard_normal((n, 16))
    model = base.clone()
    logits, saved = model.forward(x)
    for _ in range(2):
        warm = base.clone()
        layer_fim_trace(warm, *warm.forward(x))
    tracemalloc.start()
    try:
        layer_fim_trace(model, logits, saved)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    print(desk_trace_peak(int(sys.argv[1])))
