"""The tracemalloc peak of one trace pass on the desk model, and the bytes the
first pass leaves allocated beyond the model's workspace, for the memory
guards in ``test_fisher``. The guards read them in a fresh interpreter, and
this module imports only numpy and fimtta, so no test module's code moves them.

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/trace_peak.py 64
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np

from fimtta.fisher import layer_fim_trace
from fimtta.model import build_classifier, record_source_stats


def desk_trace_peak(n: int) -> tuple[int, int]:
    """The tracemalloc peak of one trace pass at n rows, on a fresh clone of
    the desk model whose forward runs first, then two warm-up passes on
    throwaway clones. In that order the peak reads the same whatever module
    imports this one; with fewer warm-ups, or the forward after them, it
    moved with the importing module's own code.

    Also the bytes the first warm-up pass, the process's first trace call,
    leaves allocated beyond its clone's two slabs. A buffer kept across calls
    shows there whether it is kept on the model or module-wide, where the peak
    of a later call cannot see it: the first call allocated it. The reading
    holds numpy's first-call allocations too, and moves by tens of bytes with
    the string hash seed, so read it under ``PYTHONHASHSEED=0``."""
    rng = np.random.default_rng(12)
    base = build_classifier(16, [32, 32, 32, 32], 3, seed=4)
    for layer in base.weight_layers():
        for p in layer.params:
            p += 0.1 * rng.standard_normal(p.shape)
    record_source_stats(base, rng.standard_normal((200, 16)))
    x = np.random.default_rng(n).standard_normal((n, 16))
    model = base.clone()
    logits, saved = model.forward(x)
    for warm_up in range(2):
        warm = base.clone()
        forward = warm.forward(x)
        if warm_up == 0:
            tracemalloc.start()
            layer_fim_trace(warm, *forward)
            kept = tracemalloc.get_traced_memory()[0] - sum(slab.nbytes for slab in warm._slabs)
            tracemalloc.stop()
        else:
            layer_fim_trace(warm, *forward)
    tracemalloc.start()
    try:
        layer_fim_trace(model, logits, saved)
        return tracemalloc.get_traced_memory()[1], kept
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    print(*desk_trace_peak(int(sys.argv[1])))
