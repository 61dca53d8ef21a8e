"""Experiment harness: ablation and KG-scale sweeps, metrics and reports.

Both experiments run one runner over a list of (variant, KG fraction)
cells: the ablation varies the variant on the full graph, the scale sweep
the fraction for variant ``both``.  Within one seed, all cells share the
pretrained weights and the train/test split, and the cells of one fraction
share its subgraph and KG embeddings; cells differ only in which KG rows
enter the encoder and in the similarity pathway.  The test set stays fixed,
so fractions are compared on identical denominators.  Runs are reproducible
bit-exactly from their manifest.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import statistics
import typing
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from . import __version__
from .data import (CATEGORIES, QAExample, SyntheticKGSpec, gen_qa,
                   gen_synthetic_kg, split)
from .embeddings import EmbeddingTable, TransEConfig, train_kg_embeddings
from .kg import (InvalidFractionError, KnowledgeGraph, atomic_write,
                 subgraph_fraction)
from .model import (DecodeBatch, ModelConfig, ModelParams, VARIANTS, Vocabulary,
                    build_augmented_input, build_vocab, greedy_decode)
from .trainer import LossSpec, TrainConfig, finetune, prepare_examples, pretrain

# Questions decoded together.  Larger windows stack more questions per op
# but keep more encoder outputs alive: on the decode benchmark, windows of
# 32 and more saved little time and cost several MB of peak memory.
DECODE_WINDOW = 16


def exact_match(prediction: str, gold: str) -> int:
    """1 iff equal after lowercasing, trimming and collapsing whitespace."""
    norm = lambda s: " ".join(s.lower().split())
    return int(norm(prediction) == norm(gold))


@dataclass
class MetricsReport:
    """One metrics row; its fields, in order and by declared type, are the
    schema of the metrics CSV and of the markdown "All runs" table."""

    variant: str
    kg_fraction: float
    seed: int
    em_hop1: float
    em_context: float
    em_hop2: float
    n_hop1: int
    n_context: int
    n_hop2: int
    final_L: float
    final_Sim: float


_REPORT_TYPES = typing.get_type_hints(MetricsReport)
CSV_COLUMNS = tuple(_REPORT_TYPES)
# How a value of each declared field type is written: floats round-trip
# bit-exactly in the CSV and show 4 decimals in markdown.
_CSV_FORMATS = {float: lambda x: f"{x:.17g}", int: str, str: str}
_MARKDOWN_FORMATS = {float: lambda x: f"{x:.4f}", int: str, str: str}


def _cells(report: MetricsReport, formats: dict) -> list[str]:
    return [formats[tp](getattr(report, name)) for name, tp in _REPORT_TYPES.items()]


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce an experiment bit-exactly."""

    kg_spec: SyntheticKGSpec = field(default_factory=SyntheticKGSpec)
    per_category: dict[str, int] = field(default_factory=lambda: {"hop1": 130, "context": 130,
                                                                  "hop2": 220})
    qa_seed: int = 0
    split_ratios: tuple[float, float] = (0.67, 0.33)
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=1))
    transe: TransEConfig = field(default_factory=TransEConfig)
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(max_steps=300))
    finetune: TrainConfig = field(default_factory=lambda: TrainConfig(max_steps=800))
    loss: LossSpec = field(default_factory=LossSpec)
    decode_steps: int = 4


def build_world(exp: ExperimentConfig) -> tuple[KnowledgeGraph, list[str], list[QAExample]]:
    kg, corpus = gen_synthetic_kg(exp.kg_spec)
    dataset = gen_qa(kg, exp.per_category, exp.qa_seed)
    return kg, corpus, dataset


def build_vocabulary(corpus: Sequence[str], dataset: Sequence[QAExample]) -> Vocabulary:
    texts = list(corpus) + [ex.question for ex in dataset] + [ex.answer for ex in dataset]
    return build_vocab(texts, min_count=1)


def evaluate_split(params: ModelParams, vocab: Vocabulary, kg: KnowledgeGraph,
                   emb: EmbeddingTable, examples: Sequence[QAExample],
                   variant: str, decode_steps: int = 4) -> dict[str, tuple[int, int]]:
    """Greedy-decode every example; returns {category: (matches, count)}.

    Questions decode in windows of ``DECODE_WINDOW`` consecutive ones, each
    through one ``DecodeBatch``: ``greedy_decode`` is called once per
    question, in order, and its first call in a window decodes the whole
    window, questions with equal encoder shapes in lockstep as one stack.
    Predictions are bit-identical to decoding each question alone.
    """
    if decode_steps < 1:
        raise ValueError(f"decode_steps must be >= 1, got {decode_steps}")
    prepared = prepare_examples(examples, kg, vocab, variant)
    stats = {c: [0, 0] for c in CATEGORIES}
    for lo in range(0, len(examples), DECODE_WINDOW):
        encs = [build_augmented_input(p.aug, emb, params)
                for p in prepared[lo:lo + DECODE_WINDOW]]
        batch = DecodeBatch(params, encs, decode_steps)
        for ex, enc in zip(examples[lo:lo + DECODE_WINDOW], encs):
            pred = vocab.decode(greedy_decode(params, enc, decode_steps, batch))
            stats[ex.category][0] += exact_match(pred, ex.answer)
            stats[ex.category][1] += 1
    return {c: (m, n) for c, (m, n) in stats.items()}


def report_from(variant: str, fraction: float, seed: int,
                stats: dict[str, tuple[int, int]],
                trace: list[tuple[int, float, float, float]]) -> MetricsReport:
    def em(cat):
        m, n = stats[cat]
        return m / n if n else 0.0

    final_l, final_sim = (trace[-1][1], trace[-1][2]) if trace else (0.0, 0.0)
    return MetricsReport(
        variant=variant, kg_fraction=fraction, seed=seed,
        em_hop1=em("hop1"), em_context=em("context"), em_hop2=em("hop2"),
        n_hop1=stats["hop1"][1], n_context=stats["context"][1],
        n_hop2=stats["hop2"][1], final_L=final_l, final_Sim=final_sim)


def _run_cells(kg: KnowledgeGraph, corpus: Sequence[str],
               dataset: Sequence[QAExample], exp: ExperimentConfig,
               seeds: Sequence[int], cells: Sequence[tuple[str, float]]
               ) -> list[MetricsReport]:
    """One row per seed and per (variant, KG fraction) cell.

    Each seed has one split and one pretrain; each fraction within a seed has
    one subgraph and one TransE table, shared by that fraction's cells.
    Every cell fine-tunes a copy of the pretrained weights."""
    if not seeds:
        raise ValueError("need at least one seed")
    vocab = build_vocabulary(corpus, dataset)
    model_cfg = replace(exp.model, vocab_size=len(vocab))
    corpus_ids = [vocab.encode(s) for s in corpus]
    reports: list[MetricsReport] = []
    for seed in seeds:
        train_set, test_set = split(dataset, exp.split_ratios, seed)
        params0, _ = pretrain(ModelParams.init(model_cfg, seed), corpus_ids,
                              replace(exp.pretrain, seed=seed))
        graphs: dict[float, tuple[KnowledgeGraph, EmbeddingTable]] = {}
        for variant, fraction in cells:
            if fraction not in graphs:
                sub = subgraph_fraction(kg, fraction, seed)
                emb, _ = train_kg_embeddings(sub, replace(exp.transe, seed=seed),
                                             exp.model.d_kg)
                graphs[fraction] = sub, emb
            sub, emb0 = graphs[fraction]
            params, emb_v, trace = finetune(
                params0.copy(), train_set, sub, emb0.copy(), exp.loss, variant,
                replace(exp.finetune, seed=seed), vocab)
            stats = evaluate_split(params, vocab, sub, emb_v, test_set, variant,
                                   exp.decode_steps)
            reports.append(report_from(variant, fraction, seed, stats, trace))
    return reports


def run_ablation(kg: KnowledgeGraph, corpus: Sequence[str],
                 dataset: Sequence[QAExample], exp: ExperimentConfig,
                 seeds: Sequence[int]) -> list[MetricsReport]:
    """Fine-tune and evaluate every variant on the full graph."""
    return _run_cells(kg, corpus, dataset, exp, seeds, [(v, 1.0) for v in VARIANTS])


def run_scale_sweep(kg: KnowledgeGraph, corpus: Sequence[str],
                    dataset: Sequence[QAExample], exp: ExperimentConfig,
                    fractions: Sequence[float],
                    seeds: Sequence[int]) -> list[MetricsReport]:
    """Fine-tune and evaluate variant ``both`` on each KG subgraph.

    The test set is fixed across fractions; questions whose entities fall
    outside a subgraph simply lack their KG rows.
    """
    if not fractions or list(fractions) != sorted(fractions):
        raise InvalidFractionError("fractions must be nonempty ascending")
    for f in fractions:
        if not (0.0 < f <= 1.0):
            raise InvalidFractionError(f"fraction {f} outside (0, 1]")
    return _run_cells(kg, corpus, dataset, exp, seeds,
                      [("both", f) for f in fractions])


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(reports: Sequence[MetricsReport], format: str, path) -> None:
    """CSV with the fixed column schema, or markdown tables with medians."""
    if not reports:
        raise ValueError("no reports to emit")
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)] + [",".join(_cells(r, _CSV_FORMATS)) for r in reports]
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    elif format == "markdown":
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(reports))
    else:
        raise ValueError(f"unknown report format {format!r}")


def parse_report_csv(path) -> list[MetricsReport]:
    """Inverse of the CSV ``emit_report`` writes: a ``CSV_COLUMNS`` header,
    then one ``MetricsReport`` per line, each value parsed by its field's
    declared type.  Raises ValueError for a bad header or a bad value, or
    naming the line of a row with the wrong number of fields."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().split("\n"), 1) if ln]
    if not lines or lines[0][1] != ",".join(CSV_COLUMNS):
        raise ValueError("bad metrics CSV header")
    out = []
    for n, ln in lines[1:]:
        values = ln.split(",")
        if len(values) != len(CSV_COLUMNS):
            raise ValueError(f"metrics CSV line {n} has {len(values)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        out.append(MetricsReport(*(tp(v) for tp, v in zip(_REPORT_TYPES.values(), values))))
    return out


def _markdown_table(title: str, header: Sequence[str],
                    rows: Iterable[Sequence[str]]) -> list[str]:
    return [f"## {title}", "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(row) + " |" for row in rows), ""]


def _median_table(title: str, key: str,
                  groups: Iterable[tuple[str, Sequence[MetricsReport]]]) -> list[str]:
    """One row per (label, reports) group: the median of each exact-match
    rate across the group's seeds."""
    ems = ("em_hop1", "em_context", "em_hop2")
    return _markdown_table(
        title, [key, *(f"median {m}" for m in ems), "seeds"],
        ([label, *(f"{statistics.median([getattr(r, m) for r in rows]):.4f}" for m in ems),
          str(len(rows))] for label, rows in groups))


def render_markdown(reports: Sequence[MetricsReport]) -> str:
    """One table per experiment axis, with per-group medians across seeds."""
    lines: list[str] = []
    by_variant: dict[str, list[MetricsReport]] = {}
    sweep: dict[float, list[MetricsReport]] = {}
    for r in reports:
        if r.kg_fraction == 1.0:
            by_variant.setdefault(r.variant, []).append(r)
        if r.variant == "both":
            sweep.setdefault(r.kg_fraction, []).append(r)
    variants_present = [v for v in VARIANTS if v in by_variant]
    if len(variants_present) > 1:
        lines += _median_table("Ablation (KG input variants)", "variant",
                               [(v, by_variant[v]) for v in variants_present])
    if len(sweep) > 1:
        lines += _median_table("KG scale sweep (variant both)", "kg_fraction",
                               [(f"{f:.4f}", sweep[f]) for f in sorted(sweep)])
    lines += _markdown_table("All runs", CSV_COLUMNS,
                             (_cells(r, _MARKDOWN_FORMATS) for r in reports))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def experiment_to_jsonable(exp: ExperimentConfig) -> dict:
    """``exp`` as nested dicts; tuple fields stay tuples, which ``json``
    writes as arrays and ``experiment_from_jsonable`` accepts as they are."""
    return dataclasses.asdict(exp)


class ConfigError(ValueError):
    """An experiment config value that does not have its field's type, a
    key its config lacks or a required key it misses; the message names
    its key path."""


def _from_jsonable(tp, value, path: str):
    """``value``, parsed from JSON, as the field type ``tp``.

    Dataclasses come from objects, tuples from arrays (or tuples) and
    ``dict[str, X]`` from objects, element by element; an int is accepted
    as a float, a bool is not accepted as an int."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} is not an object")
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = sorted(value.keys() - fields.keys())
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}: {tp.__name__} has no such field")
        missing = [name for name, f in fields.items() if name not in value
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"{path}.{missing[0]} is missing")
        hints = typing.get_type_hints(tp)
        return tp(**{key: _from_jsonable(hints[key], v, f"{path}.{key}")
                     for key, v in value.items()})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} is not an array")
        types = [args[0]] * len(value) if args[-1] is Ellipsis else list(args)
        if len(types) != len(value):
            raise ConfigError(f"{path} has {len(value)} elements, expected {len(types)}")
        return tuple(_from_jsonable(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(types, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} is not an object")
        return {_from_jsonable(args[0], key, path): _from_jsonable(args[1], v, f"{path}.{key}")
                for key, v in value.items()}
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path} is out of range for a float") from None
    if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be {tp.__name__}, not {type(value).__name__}")


def experiment_from_jsonable(d: dict) -> ExperimentConfig:
    """Inverse of ``experiment_to_jsonable``; a missing key takes its
    default, so older manifests without ``decode_steps`` load with 4.
    Raises ConfigError naming the key path of a value that does not have
    its field's type, or of a key the config lacks."""
    return _from_jsonable(ExperimentConfig, d, "config")


def make_manifest(experiment: str, exp: ExperimentConfig, seeds: Sequence[int],
                  fractions: Optional[Sequence[float]] = None,
                  argv: Optional[Sequence[str]] = None) -> dict:
    return {
        "experiment": experiment,
        "config": experiment_to_jsonable(exp),
        "seeds": list(seeds),
        "fractions": list(fractions) if fractions is not None else None,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv) if argv is not None else None,
    }


def run_from_manifest(manifest: dict) -> list[MetricsReport]:
    """Re-run the experiment a manifest describes, reproducing every
    metrics row bit-exactly."""
    exp = experiment_from_jsonable(manifest["config"])
    kg, corpus, dataset = build_world(exp)
    if manifest["experiment"] == "ablation":
        return run_ablation(kg, corpus, dataset, exp, manifest["seeds"])
    if manifest["experiment"] == "scale-sweep":
        return run_scale_sweep(kg, corpus, dataset, exp,
                               manifest["fractions"], manifest["seeds"])
    raise ValueError(f"unknown experiment kind {manifest['experiment']!r}")


def save_manifest(manifest: dict, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
