"""Benchmark of fimtta's online adaptation loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory and nowhere else. Each workload runs in
this one process on one thread as a closed loop: ``adapt_stream`` pulls
batch i+1 only after it has updated on batch i.

``--trace 0`` sets up each of the workload's tasks and makes one pass
over its stream, repeats passes until ``--seconds`` have passed, then
makes one untimed pass under ``tracemalloc``, and reports the end-to-end
metrics. Its times are scaled to a reference host speed by a probe that
runs before every batch request and through set-up (see
``hostspeed.py``); the unscaled times are printed beside them.
``--trace 1`` alternates untraced passes with passes whose calls into
each layer are recorded as spans, and reports the per-layer split, in
unscaled time. Either mode checks every pass's outputs, prints each metric with
its unit, writes its results (and spans) under ``bench/out/``, prints one
JSON object as the last line and exits 1 if a check failed.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed as hs
import spans as sp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# the desk configuration shared with the acceptance suite
DESK_HIDDEN = [32, 32, 32, 32]
DESK_EPOCHS = 20
DESK_ETA_PRE = 1e-2
DESK_SOURCE_N = 1920
DIAG_RTOL = 1e-12
MIN_TRACED_PASSES = 3
SETUP_PROBE_EVERY = 4  # pretraining steps between set-up probes, ~4 ms
MAX_PRINTED_PROBLEMS = 20


@dataclass(frozen=True)
class Workload:
    schedule: str  # continual | gradual
    batches_per_segment: int
    batch_size: int
    method: str
    tasks: int  # set-ups per run; sized so they take most of a 25 s run
    track_diagonal: bool = False


WORKLOADS = {
    # the paper's method on the reference desk stream (120 batches)
    "continual_layerwise": Workload("continual", 20, 64, "layerwise", tasks=6),
    # the same stream and model; never calls fisher. Its online error
    # spreads most between tasks, so it averages the most of them
    "continual_tent": Workload("continual", 20, 64, "uniform_tent", tasks=20),
    # the dump-weights configuration: full score matrix at batch 128
    "gradual_dump_b128": Workload("gradual", 1, 128, "layerwise", tasks=5, track_diagonal=True),
}

# span name -> the attributes whose calls it times; owners are resolved
# after import. Every attribute here is one that harness.adapt_stream
# reaches through a module or class attribute at run time.
SPAN_TARGETS = {
    "model.forward": [("model.Model", "forward")],
    "fisher.scores": [("fisher", "per_sample_scores")],
    "fisher.trace": [
        ("fisher", "layer_fim_trace"),
        ("fisher", "fim_diagonal"),
        ("fisher", "accumulate"),
        ("fisher", "learning_weights"),
    ],
    "losses.objective": [
        ("losses", "augment"),
        ("losses", "entropy_loss"),
        ("losses", "consistency_loss"),
    ],
    "scheduler.rates": [("scheduler", "exp_minmax_scale"), ("scheduler", "layer_rates")],
    "scheduler.step": [("scheduler", "weighted_step")],
    "autodiff.backward": [("harness", "collect_grads")],
    "stream.corrupt": [("stream", "corrupt")],
}
# recorded by TimedStream around each request for the next batch
STREAM_SPAN = "stream.batch"
SPAN_NAMES = [STREAM_SPAN, *SPAN_TARGETS]
# spans with child spans inside them also report their self time
SELF_TIMED = ("fisher.scores", STREAM_SPAN)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> None:
    init = SRC / "fimtta" / "__init__.py"
    if not init.is_file():
        fail(f"no package sources at {init.relative_to(ROOT)}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fimtta

    if Path(fimtta.__file__).resolve() != init.resolve():
        fail(f"imported fimtta from {fimtta.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment


def git_revision(root: Path) -> str | None:
    """HEAD's commit read from .git directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(loadavg: tuple[float, float, float]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_rev": git_revision(ROOT),
        "src_sha256": source_digest(SRC),
        "loadavg_at_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# the loop under test


class TimedStream:
    """Wraps a ScheduleStream and notes the time of every batch request.

    With a recorder, each request is also a ``stream.batch`` span, so the
    corruption applied while generating the batch becomes its child. With
    marks, the host-speed probe runs just before each request.
    """

    def __init__(self, inner, recorder: sp.Recorder | None = None, marks: hs.Marks | None = None):
        self.inner = inner
        self.recorder = recorder
        self.marks = marks
        self.requests: list[float] = []

    def labels_for(self, step: int):
        return self.inner.labels_for(step)

    def __iter__(self):
        pull = iter(self.inner).__next__
        if self.recorder is not None:
            pull = self.recorder.wrap(pull, STREAM_SPAN)
        while True:
            if self.marks is not None:
                self.marks.mark()
            self.requests.append(time.perf_counter())
            try:
                batch = pull()
            except StopIteration:
                return
            yield batch


class RejectionCounter(logging.Handler):
    """Counts the harness's one warning per rejected update."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@dataclass
class PassResult:
    csv: str
    online_error: float
    batches: int
    requests: list[float]
    marks: hs.Marks | None
    rejected: int
    problems: list[str]


class Bench:
    """One workload at one seed: its tasks, their outputs and the checks.

    A task is one source, pretraining and stream. A run's tasks draw
    their seeds from the run's seed, so the same seed gives the same
    inputs, and online error is averaged over several tasks because it
    varies far more between tasks than between runs.
    """

    def __init__(self, workload: Workload, seed: int):
        from fimtta import harness, model, stream

        self.harness, self.model_mod, self.stream_mod = harness, model, stream
        self.wl = workload
        self.task_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(workload.tasks)]
        self.pretrained: dict[int, tuple] = {}  # task -> (source spec, pretrained model)
        self.reference_csv: dict[int, str] = {}
        self.rejections = RejectionCounter()
        logging.getLogger(harness.__name__).addHandler(self.rejections)
        self.problems: list[str] = []
        self.samples: dict[str, list] = {}  # raw timings, kept for the results file

    def set_up(self, task: int):
        """Source, pretraining, clone and stream: everything before batch 0."""
        seed = self.task_seeds[task]
        spec = self.stream_mod.SourceSpec(seed=seed)
        source = self.stream_mod.gen_source(spec, DESK_SOURCE_N)
        model = self.model_mod.build_classifier(
            spec.input_dim, DESK_HIDDEN, spec.class_count, seed=seed
        )
        self.harness.pretrain(model, source, epochs=DESK_EPOCHS, eta_pre=DESK_ETA_PRE, seed=seed)
        self.pretrained[task] = (spec, model)
        return self.fresh(task)

    def fresh(self, task: int):
        """A new working copy and stream from the task's pretrained model."""
        spec, model = self.pretrained[task]
        sched = self.stream_mod.make_schedule(
            self.wl.schedule,
            list(self.stream_mod.DESK_KINDS),
            self.wl.batches_per_segment,
            self.wl.batch_size,
            seed=self.task_seeds[task],
        )
        return model.clone(), self.stream_mod.ScheduleStream(spec, sched)

    def run_pass(
        self, task: int, work, stream, recorder: sp.Recorder | None = None, marks: hs.Marks | None = None
    ) -> PassResult:
        config = self.harness.AdaptConfig(
            method=self.wl.method,
            seed=self.task_seeds[task],
            track_diagonal=self.wl.track_diagonal,
        )
        timed = TimedStream(stream, recorder, marks)
        rejected_before = self.rejections.count
        records = self.harness.adapt_stream(work, timed, config)
        result = PassResult(
            csv=self.harness.metrics_csv(records, work.weight_layer_names()),
            online_error=statistics.fmean(r.error for r in records),
            batches=len(records),
            requests=timed.requests,
            marks=marks,
            rejected=self.rejections.count - rejected_before,
            problems=self.check(work, records, timed),
        )
        reference = self.reference_csv.setdefault(task, result.csv)
        if result.csv != reference:
            result.problems.append(f"task {task}: metrics CSV differs from its first pass")
        self.problems += result.problems
        return result

    def check(self, work, records, timed: TimedStream) -> list[str]:
        problems = []
        expected = timed.inner.schedule.total_batches
        if len(records) != expected or len(timed.requests) != expected + 1:
            problems.append(
                f"{len(records)} records and {len(timed.requests)} requests for {expected} batches"
            )
        for layer in work.weight_layers():
            if not all(np.isfinite(p.data).all() for p in layer.params):
                problems.append(f"non-finite parameters in {layer.name} after the stream")
        if self.wl.track_diagonal:
            names = work.weight_layer_names()
            for rec in records:
                if rec.diag is None or len(rec.w_raw) != len(names):
                    problems.append(f"step {rec.step}: no raw weights or trace diagonal recorded")
                    continue
                for name, w in zip(names, rec.w_raw):
                    total = float(rec.diag[name].sum())
                    if abs(w * w - total) > DIAG_RTOL * abs(total):
                        problems.append(
                            f"step {rec.step} layer {name}: w_raw**2={w * w!r} != sum(diag)={total!r}"
                        )
        return problems


# ---------------------------------------------------------------------------
# the two modes


def probed_set_up(bench: Bench, task: int) -> tuple[object, object, hs.Marks]:
    """``bench.set_up`` with the probe at its start, its end and every few
    pretraining steps in between."""
    marks = hs.Marks()
    every = lambda fn: marks.every(fn, SETUP_PROBE_EVERY)
    with sp.Patched([(bench.harness, "collect_grads", every)]):
        marks.mark()
        work, stream = bench.set_up(task)
        marks.mark()
    return work, stream, marks


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups: list[hs.Marks] = []
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    for task in range(bench.wl.tasks):
        work, stream, marks = probed_set_up(bench, task)
        setups.append(marks)
        passes.append(bench.run_pass(task, work, stream, marks=hs.Marks()))
    online_error = statistics.fmean(p.online_error for p in passes)
    while time.perf_counter() < deadline:
        task = len(passes) % bench.wl.tasks
        passes.append(bench.run_pass(task, *bench.fresh(task), marks=hs.Marks()))

    # untimed and unprobed; it also repeats task 0, so every run checks determinism
    work, stream = bench.fresh(0)
    tracemalloc.start()
    try:
        memory_pass = bench.run_pass(0, work, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    setup_s = [sum(hs.scaled_intervals(m.ends, m.probe_s)) for m in setups]
    raw_setup_s = [sum(hs.raw_intervals(m.ends, m.probe_s)) for m in setups]
    by_pass = [hs.scaled_intervals(p.marks.ends, p.marks.probe_s) for p in passes]
    raw_by_pass = [hs.raw_intervals(p.marks.ends, p.marks.probe_s) for p in passes]
    times = [t for pass_times in by_pass for t in pass_times]
    raw_times = [t for pass_times in raw_by_pass for t in pass_times]
    probe_s = [t for p in passes for t in p.marks.probe_s]
    batches = sum(p.batches for p in passes)
    bench.samples |= {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "batch_s_by_pass": by_pass,
        "raw_batch_s_by_pass": raw_by_pass,
    }
    metrics = {
        "batch_ms_p50": (sp.percentile(times, 50) * 1e3, "ms"),
        "batch_ms_p90": (sp.percentile(times, 90) * 1e3, "ms"),
        "samples_per_s": (sp.samples_per_s(bench.wl.batch_size, batches, sum(times)), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
        "online_error": (online_error, "fraction"),
    }
    attempted = batches + memory_pass.batches
    rejected = sum(p.rejected for p in passes) + memory_pass.rejected
    extra = {
        "batch_samples": len(times),
        "stream_passes": len(passes),
        "tasks": bench.wl.tasks,
        "attempted": attempted,
        "rejected": rejected,
        "rejected_step_share": rejected / attempted,
        # the same figures unscaled, and how slow the host ran against REF_S
        "raw_batch_ms_p50": sp.percentile(raw_times, 50) * 1e3,
        "raw_batch_ms_p90": sp.percentile(raw_times, 90) * 1e3,
        "raw_samples_per_s": sp.samples_per_s(bench.wl.batch_size, batches, sum(raw_times)),
        "raw_setup_s": statistics.median(raw_setup_s),
        "probe_ms_p50": sp.percentile(probe_s, 50) * 1e3,
        "host_slowdown_p50": sp.percentile(probe_s, 50) / hs.REF_S,
    }
    return metrics, extra


def instrument(recorder: sp.Recorder, score_bytes: list[int]):
    """Replacements that trace every layer call adapt_stream makes."""
    from fimtta import fisher, harness, losses, model, scheduler, stream

    owners = {
        "fisher": fisher,
        "harness": harness,
        "losses": losses,
        "scheduler": scheduler,
        "stream": stream,
        "model.Model": model.Model,
    }

    def sized(fn):
        def per_sample_scores(*args, **kwargs):
            out = fn(*args, **kwargs)
            score_bytes.append(sum(a.nbytes for a in out.values()))
            return out

        return per_sample_scores

    replacements = [(fisher, "per_sample_scores", sized)]  # innermost, inside its span
    for name, targets in SPAN_TARGETS.items():
        for owner, attr in targets:
            replacements.append((owners[owner], attr, lambda fn, n=name: recorder.wrap(fn, n)))
    return replacements


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    bench.set_up(0)
    score_bytes: list[int] = []
    plain: list[PassResult] = []
    traced: list[tuple[PassResult, sp.Recorder]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        work, stream = bench.fresh(0)
        if len(plain) <= len(traced):
            plain.append(bench.run_pass(0, work, stream))
            continue
        recorder = sp.Recorder()
        with sp.Patched(instrument(recorder, score_bytes)):
            traced.append((bench.run_pass(0, work, stream, recorder), recorder))

    OUT.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for index, (_, recorder) in enumerate(traced):
            recorder.write_jsonl(fh, stream_pass=index)

    inclusive: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
    exclusive: dict[str, list[float]] = {n: [] for n in SELF_TIMED}
    calls: dict[str, int] = {n: 0 for n in SPAN_NAMES}
    uncovered: list[float] = []
    traced_times: list[float] = []
    for result, recorder in traced:
        split = sp.split_by_batch(recorder.spans, result.requests)
        for i in range(len(split.uncovered)):
            for n in SPAN_NAMES:
                inclusive[n].append(split.inclusive[i].get(n, 0.0))
                calls[n] += split.calls[i].get(n, 0)
            for n in SELF_TIMED:
                exclusive[n].append(split.exclusive[i].get(n, 0.0))
        uncovered += split.uncovered
        traced_times += sp.batch_intervals(result.requests)
    plain_times = [t for p in plain for t in sp.batch_intervals(p.requests)]
    batches = len(traced_times)

    metrics = {}
    for n in SPAN_NAMES:
        metrics[f"{n}_ms"] = (sp.percentile(inclusive[n], 50) * 1e3, "ms")
        metrics[f"{n}.calls"] = (calls[n] / batches, "count")
    for n in SELF_TIMED:
        metrics[f"{n}.self_ms"] = (sp.percentile(exclusive[n], 50) * 1e3, "ms")
    traced_p50 = sp.percentile(traced_times, 50)
    attempted = batches + len(plain_times)
    rejected = sum(p.rejected for p in plain) + sum(r.rejected for r, _ in traced)
    metrics |= {
        "fisher.score_bytes": (sum(score_bytes) / batches, "B"),
        "harness.self_ms": (sp.percentile(uncovered, 50) * 1e3, "ms"),
        "harness.traced_batch_ms_p50": (traced_p50 * 1e3, "ms"),
        "harness.trace_overhead_ms": ((traced_p50 - sp.percentile(plain_times, 50)) * 1e3, "ms"),
        "scheduler.rejected_steps": (rejected, "count"),
        "rejected_step_share": (rejected / attempted, "fraction"),
    }
    total = sum(traced_times)
    extra = {
        "batch_samples": batches,
        "untraced_batch_samples": len(plain_times),
        "stream_passes": len(plain) + len(traced),
        "attempted": attempted,
        "rejected": rejected,
        # share of all traced batch time: shares add up where medians do not
        "time_share": {n: sum(inclusive[n]) / total for n in SPAN_NAMES}
        | {"harness.self": sum(uncovered) / total},
    }
    return metrics, extra


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    load_package()
    env = environment(loadavg)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra = per_layer(bench, args.seconds, OUT / f"{stem}-spans.jsonl")
    else:
        metrics, extra = end_to_end(bench, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in extra.items():
        print(f"{key} {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for problem in bench.problems[:MAX_PRINTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}")
    if len(bench.problems) > MAX_PRINTED_PROBLEMS:
        print(f"... and {len(bench.problems) - MAX_PRINTED_PROBLEMS} more in the results file")
    correct = not bench.problems
    print(f"checks {'passed' if correct else 'FAILED'}")

    result = {
        "correct": correct,
        "attempted": extra["attempted"],
        "failed": extra["rejected"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
             "extra": extra, "problems": bench.problems, "samples": bench.samples, **result},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
