"""In-memory span tracer that wraps module-level names of ``kgt5lab``.

The package is never edited: the tracer replaces names in the ``kgt5lab``
modules with timing wrappers and puts the originals back on ``restore``.
A name is wrapped in every module that binds it (``trainer.forward`` and
``model.forward`` are the same function reached from two call sites).

A span has a name, start and end (ns), the index of its enclosing span
(-1 for none), a phase (``"setup"`` or the job number), an item (the step
or question number within the job) and counts read at the boundary.  While
installed, the tracer also times Python's cyclic garbage collector.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from typing import Callable, Optional

from kgt5lab import data, embeddings, harness, kg, model, trainer

# (module, attribute, span name, info hook).  An info hook maps the call's
# positional arguments to the span's ``info`` (tape op counts, an encoder-input
# key, Sim pairs, epochs); it runs after the span has closed.
_WRAPS = [
    (trainer, "backward", "autodiff.backward",
     lambda a: Counter(n.op for n in a[0].nodes)),
    (model, "attention_core", "autodiff.attention_core", None),
    (model, "forward", "model.forward", None),
    (trainer, "forward", "model.forward", None),
    (model, "encode", "model.encode",
     lambda a: hash((a[1].n_text, a[1].rows.data.tobytes(), a[1].mask.tobytes()))),
    (trainer, "build_augmented_input", "model.build_augmented_input", None),
    (harness, "build_augmented_input", "model.build_augmented_input", None),
    (harness, "greedy_decode", "model.greedy_decode", None),
    (trainer, "span_corrupt", "model.span_corrupt", None),
    (trainer, "adam_step", "trainer.adam", None),
    (trainer, "sim_term", "trainer.sim_term", lambda a: len(a[1]) * len(a[2])),
    (trainer, "prepare_examples", "trainer.prepare_examples", None),
    (harness, "prepare_examples", "trainer.prepare_examples", None),
    (trainer, "link_mentions", "kg.link_mentions", None),
    (trainer, "pretrain", "trainer.pretrain", None),
    (trainer, "finetune", "trainer.finetune", None),
    (trainer, "save_checkpoint", "trainer.checkpoint_save", None),
    (trainer, "load_checkpoint", "trainer.checkpoint_load", None),
    (embeddings, "train_kg_embeddings", "embeddings.transe",
     lambda a: (a[1].epochs, len(a[0].triples))),
    (embeddings, "link_prediction_eval", "embeddings.link_prediction", None),
    (embeddings, "save_embeddings", "embeddings.kge_save", None),
    (embeddings, "load_embeddings", "embeddings.kge_load", None),
    (kg, "subgraph_fraction", "kg.subgraph_fraction", None),
    (kg, "save_triples_tsv", "kg.tsv_save", None),
    (kg, "load_triples_tsv", "kg.tsv_load", None),
    (data, "gen_synthetic_kg", "data.gen_synthetic_kg", None),
    (harness, "gen_synthetic_kg", "data.gen_synthetic_kg", None),
    (harness, "gen_qa", "data.gen_qa", None),
    (harness, "build_vocabulary", "harness.build_vocabulary", None),
    (harness, "evaluate_split", "harness.evaluate_split", None),
]

# Spans that start a new work item: its number is recorded on every span
# opened until the next one starts.
_ITEM_SPANS = ("trainer.step", "model.greedy_decode")


class Tracer:
    """Records spans while installed; ``install``/``restore`` may repeat.

    Spans are stored column-wise in flat lists of numbers and strings, so
    the trace adds almost nothing to what Python's cyclic collector scans.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.phase_of: list = []
        self.item_of: list[int] = []
        self.info: list = []
        self.gc_ns: dict = {}  # phase -> [collections, ns] of the cyclic collector
        self.phase: object = "setup"
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._step: Optional[int] = None
        self._gc_start = 0

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        if name in _ITEM_SPANS:
            self.item += 1
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_of.append(self.phase)
        self.item_of.append(self.item)
        self.info.append(None)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        while self._stack and self._stack.pop() != idx:
            pass  # an exception skipped inner closes; drop them

    def start_phase(self, phase) -> None:
        self.phase = phase
        self.item = -1

    def _on_gc(self, event: str, _info: dict) -> None:
        if event == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            acc = self.gc_ns.setdefault(self.phase, [0, 0])
            acc[0] += 1
            acc[1] += time.perf_counter_ns() - self._gc_start

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, info: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if info is not None:
                    tracer.info[idx] = info(args)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, info in _WRAPS:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, info))
        # A training step runs from the tape's creation to the end of its
        # Adam update; both are reached only through names in ``trainer``.
        tracer = self
        base_tape = trainer.Tape

        class StepTape(base_tape):
            def __enter__(self):
                tracer._step = tracer.open("trainer.step")
                return super().__enter__()

        traced_adam = trainer.adam_step

        def adam_then_close_step(*args, **kwargs):
            try:
                return traced_adam(*args, **kwargs)
            finally:
                if tracer._step is not None:
                    tracer.close(tracer._step)
                    tracer._step = None

        self._patch(trainer, "Tape", StepTape)
        self._patch(trainer, "adam_step", adam_then_close_step)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._stack.clear()
        self._step = None

    # -- output ------------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write_tsv(self, path) -> None:
        t0 = self.start[0] if self.start else 0
        own = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tphase\titem\tstart_us\tend_us\tself_us\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.name[i]}\t{self.phase_of[i]}"
                         f"\t{self.item_of[i]}\t{(self.start[i] - t0) / 1e3:.1f}"
                         f"\t{(self.end[i] - t0) / 1e3:.1f}\t{own[i] / 1e3:.1f}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Op names an autodiff tape node can carry; anything else counts as "other".
TAPE_OPS = ("add", "sub", "mul", "scalar_mul", "matmul", "transpose", "reshape",
            "gather_rows", "concat_rows", "softmax", "rms_norm", "gelu", "dropout",
            "cross_entropy_mean", "cosine_similarity", "reduce_mean", "reduce_sum",
            "attention_core")

# Modules whose self time a job reports (``data`` runs only in set-up).
MODULES = ("autodiff", "model", "trainer", "embeddings", "kg", "harness")

# Mean milliseconds per call, over the traced jobs.
_PER_CALL_MS = {
    "autodiff.attention_core_ms": "autodiff.attention_core",
    "model.forward_ms": "model.forward",
    "model.build_augmented_input_ms": "model.build_augmented_input",
    "model.encode_ms": "model.encode",
    "model.greedy_decode_ms": "model.greedy_decode",
    "model.span_corrupt_ms": "model.span_corrupt",
    "trainer.prepare_examples_ms": "trainer.prepare_examples",
    "trainer.checkpoint_save_ms": "trainer.checkpoint_save",
    "trainer.checkpoint_load_ms": "trainer.checkpoint_load",
    "embeddings.link_prediction_ms": "embeddings.link_prediction",
    "embeddings.kge_save_ms": "embeddings.kge_save",
    "embeddings.kge_load_ms": "embeddings.kge_load",
    "kg.link_mentions_ms": "kg.link_mentions",
    "kg.tsv_save_ms": "kg.tsv_save",
    "kg.tsv_load_ms": "kg.tsv_load",
    "harness.evaluate_split_ms": "harness.evaluate_split",
}
# Mean milliseconds per call, over the traced set-ups.
_SETUP_MS = {
    "data.gen_synthetic_kg_ms": "data.gen_synthetic_kg",
    "data.gen_qa_ms": "data.gen_qa",
    "harness.build_vocabulary_ms": "harness.build_vocabulary",
    "kg.subgraph_fraction_ms": "kg.subgraph_fraction",
}
# Calls per work item: a training step, a decoded question, or (kg-sweep) a job.
_PER_ITEM_CALLS = {
    "autodiff.attention_core_calls": "autodiff.attention_core",
    "model.forward_calls": "model.forward",
    "model.encode_calls": "model.encode",
    "kg.link_mentions_calls": "kg.link_mentions",
}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def tail_percentile(xs: list[float]) -> tuple[float, float]:
    """(p, value) for the highest of p50/p90/p95/p99/p99.9 that has at least
    ten samples above its nearest-rank value; (50, median) if none has."""
    s = sorted(xs)
    n = len(s)
    for permille in (999, 990, 950, 900):
        rank = -(-permille * n // 1000)  # ceil
        if n - rank >= 10:
            return permille / 10.0, s[rank - 1]
    return 50.0, _median(s)


def layer_metrics(tr: Tracer, jobs: list) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ``jobs`` and set-ups."""
    name, start, end, info = tr.name, tr.start, tr.end, tr.info
    own = tr.self_times_ns()
    in_jobs = set(jobs)
    n_jobs = max(1, len(jobs))
    by_name: dict[str, list[int]] = {}
    setup_by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    module_ns: Counter = Counter()
    for i in range(len(tr.name)):
        if tr.phase_of[i] in in_jobs:
            by_name.setdefault(name[i], []).append(i)
            children.setdefault(tr.parent[i], []).append(i)
            module_ns[name[i].split(".", 1)[0]] += own[i]
        elif tr.phase_of[i] == "setup":
            setup_by_name.setdefault(name[i], []).append(i)

    def dur_ms(i: int) -> float:
        return (end[i] - start[i]) / 1e6

    def mean_ms(idxs: list[int]) -> float:
        return sum(dur_ms(i) for i in idxs) / len(idxs) if idxs else 0.0

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    steps = by_name.get("trainer.step", [])
    questions = by_name.get("model.greedy_decode", [])
    n_items = len(steps) or len(questions) or n_jobs
    out: dict[str, float] = {}

    # training steps: forward+loss, backward, Adam, Sim term and tape size
    step_ms, fwd_ms, bwd_ms, adam_ms, sim_ms, pairs, nodes = [], [], [], [], [], [], []
    ops: Counter = Counter()
    for st in steps:
        kids = children.get(st, [])
        bwd = [k for k in kids if name[k] == "autodiff.backward"]
        if not bwd:  # a step that raised before its backward pass
            continue
        step_ms.append(dur_ms(st))
        fwd_ms.append((start[bwd[0]] - start[st]) / 1e6)
        bwd_ms.append(dur_ms(bwd[0]))
        adam_ms.append(sum(dur_ms(k) for k in kids if name[k] == "trainer.adam"))
        sims = [k for k in kids if name[k] == "trainer.sim_term"]
        sim_ms.append(sum(dur_ms(k) for k in sims))
        pairs.append(sum(info[k] or 0 for k in sims))
        nodes.append(sum((info[bwd[0]] or {}).values()))
        ops.update(info[bwd[0]] or {})
    n_steps = len(step_ms)
    tail_p, tail_ms = tail_percentile(step_ms)
    out["trainer.step_ms"] = _median(step_ms)
    out["trainer.step_tail_ms"] = tail_ms
    out["trainer.step_tail_pct"] = tail_p if n_steps else 0.0
    out["trainer.steps"] = n_steps
    out["trainer.forward_loss_ms"] = _median(fwd_ms)
    out["trainer.adam_ms"] = _median(adam_ms)
    out["trainer.sim_term_ms"] = per(sum(sim_ms), n_steps)
    out["trainer.sim_pairs"] = per(sum(pairs), n_steps)
    out["autodiff.backward_ms"] = _median(bwd_ms)
    out["autodiff.tape_nodes"] = per(sum(nodes), n_steps)
    for op in TAPE_OPS:
        out[f"autodiff.tape_nodes.{op}"] = per(ops.get(op, 0), n_steps)
    out["autodiff.tape_nodes.other"] = per(
        sum(c for op, c in ops.items() if op not in TAPE_OPS), n_steps)

    for metric, span in _PER_CALL_MS.items():
        out[metric] = mean_ms(by_name.get(span, []))
    for metric, span in _PER_ITEM_CALLS.items():
        out[metric] = len(by_name.get(span, [])) / n_items

    # distinct encoder inputs over encode calls, within each job
    ratios = []
    for job in jobs:
        keys = [info[i] for i in by_name.get("model.encode", []) if tr.phase_of[i] == job]
        if keys:
            ratios.append(len(set(keys)) / len(keys))
    out["model.encode_reuse_ratio"] = per(sum(ratios), len(ratios))

    transe = by_name.get("embeddings.transe", [])
    out["embeddings.transe_ms_per_epoch"] = per(sum(dur_ms(i) for i in transe),
                                                sum(info[i][0] for i in transe))
    out["embeddings.transe_triple_epochs"] = sum(info[i][0] * info[i][1]
                                                 for i in transe) / n_jobs

    for metric, span in _SETUP_MS.items():
        out[metric] = mean_ms(setup_by_name.get(span, []))

    # self time per module and collector time, milliseconds per job
    for module in MODULES:
        out[f"self_ms.{module}"] = module_ns.get(module, 0) / 1e6 / n_jobs
    gc_runs = [tr.gc_ns.get(job, [0, 0]) for job in jobs]
    out["python.gc_ms"] = sum(ns for _n, ns in gc_runs) / 1e6 / n_jobs
    out["python.gc_collections"] = sum(n for n, _ns in gc_runs) / n_jobs
    return out


def unit_of(name: str) -> str:
    """The unit of a ``layer_metrics`` key."""
    if name.endswith(("_ms", "_ms_per_epoch")) or name.startswith("self_ms."):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metric_names() -> list[str]:
    """Every key ``layer_metrics`` returns, in a stable order."""
    return list(layer_metrics(Tracer(), []))
