"""Joint objective, Adam optimizer, the training loop, checkpoints.

The fine-tuning loss is ``total = base_cross_entropy + sim_weight * Sim``
where ``Sim`` is the mean cosine similarity over all linked (entity,
relation) pairs of an example.  The similarity weight is signed: minimizing
the objective as written penalizes similarity for positive weights and
rewards it for negative ones; the default experiment configs use -0.1.
KG embedding rows touched by a batch are fine-tuned jointly unless frozen.

Pretraining is the same step and loop over variant-``none`` examples
(span-corrupted sentences) without the Sim term, as in T5.  Each step runs
its batch as one packed graph (see ``model``); both loss terms are the mean
over examples of each example's mean.  A step whose loss or pre-clip
gradient norm is not finite raises ``NonFiniteTrainingError`` before any
parameter moves.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .autodiff import (Tape, Tensor, add, backward, cross_entropy_mean,
                       cosine_similarity, gather_rows, mul, reduce_sum,
                       scalar_mul, ShapeMismatchError)
from .embeddings import EmbeddingTable, seed_seq
from .kg import KnowledgeGraph, atomic_write, link_mentions
from .model import (AugmentedInput, BOS_ID, EOS_ID, EmptyCorpusError,
                    ModelConfig, ModelParams, PAD_ID, Vocabulary,
                    build_augmented_input, forward, kg_row_tensors, param_table,
                    span_corrupt, tokenize)

CHECKPOINT_MAGIC = b"KGT5CKPT"
CHECKPOINT_VERSION = 1


class EmptyDatasetError(ValueError):
    pass


class BadMagicError(ValueError):
    pass


class VersionUnsupportedError(ValueError):
    pass


class TruncatedFileError(ValueError):
    pass


class CheckpointShapeError(ValueError):
    pass


class CheckpointLayoutError(ValueError):
    """Tensor blobs that overlap, leave gaps, come out of order or leave
    trailing bytes."""


class CheckpointHeaderError(ValueError):
    """A checkpoint header that is not UTF-8 JSON, lacks a field
    ``save_checkpoint`` writes, or holds one of the wrong type or value."""


class CheckpointEmbeddingError(ValueError):
    """Embedding tensors that form no EmbeddingTable: a width other than the
    header's ``embedding_dim``, or non-finite values."""


class NonFiniteTrainingError(FloatingPointError):
    """A training step's loss or pre-clip gradient norm is not finite."""

    def __init__(self, step: int, loss: float, sim: Optional[float],
                 grad_norm: float):
        self.step, self.loss, self.sim, self.grad_norm = step, loss, sim, grad_norm
        super().__init__(f"step {step}: L={loss!r} Sim={sim!r} "
                         f"pre-clip gradient norm={grad_norm!r}")


@dataclass
class LossSpec:
    """Weighting of the similarity term; aggregation is the mean over all
    linked (entity, relation) pairs, with an empty product contributing 0."""

    sim_weight: float = -0.1


@dataclass
class TrainConfig:
    learning_rate: float = 3e-3
    weight_decay: float = 0.0
    batch_size: int = 8
    max_steps: int = 500
    grad_clip_norm: Optional[float] = 1.0
    seed: int = 0
    kg_embeddings_trainable: bool = True
    eval_every: int = 50

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.learning_rate, self.weight_decay)):
            raise ValueError("learning_rate and weight_decay must be finite and nonnegative")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size and eval_every must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.grad_clip_norm is not None and not 0 < self.grad_clip_norm < math.inf:
            raise ValueError("grad_clip_norm must be finite and positive, or None")


@dataclass
class AdamState:
    """First/second moments per parameter plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.items()},
                   v={n: np.zeros_like(t.data) for n, t in params.items()})


def sim_term(emb, entities: Sequence[int], relations: Sequence[int],
             counts: Optional[Sequence[tuple[int, int]]] = None) -> Tensor:
    """Mean cosine similarity over entities x relations, differentiable.

    ``emb`` is an EmbeddingTable or a (entity, relation) Tensor pair.  For a
    batch, ``entities`` and ``relations`` hold the examples' id lists back
    to back and ``counts`` each example's (entity, relation) list lengths;
    the result is the mean over examples of each example's mean, an example
    with an empty product counting as 0.  All pairs go through one
    row-wise cosine node.  Returns an exact 0 scalar (no gradient) if there
    is no pair at all.
    """
    if counts is None:
        counts = [(len(entities), len(relations))]
    pair_ents: list[int] = []
    pair_rels: list[int] = []
    weights: list[float] = []
    e0 = r0 = 0
    for n_e, n_r in counts:
        rels = list(relations[r0:r0 + n_r])
        for e in entities[e0:e0 + n_e]:
            pair_ents += [e] * n_r
            pair_rels += rels
        if n_e and n_r:
            weights += [1.0 / (len(counts) * n_e * n_r)] * (n_e * n_r)
        e0, r0 = e0 + n_e, r0 + n_r
    if not pair_ents:
        return Tensor(0.0)
    ent_t, rel_t = kg_row_tensors(emb)
    cos = cosine_similarity(gather_rows(ent_t, pair_ents), gather_rows(rel_t, pair_rels))
    return reduce_sum(mul(cos, Tensor(weights)))


def loss_prime(base_loss: Tensor, sim: Tensor, sim_weight: float) -> Tensor:
    """base + sim_weight * sim; with weight 0 the base is returned unchanged
    so the gradient path is exactly the base-only one."""
    if sim_weight == 0.0:
        return base_loss
    return add(base_loss, scalar_mul(sim, sim_weight))


def global_norm(grads: dict[str, np.ndarray],
                sparse: Optional[dict[str, tuple[np.ndarray, np.ndarray]]] = None) -> float:
    """L2 norm over dense gradients and sparse gradient rows together."""
    # np.add.reduce is what np.sum runs, without the wrapper's dispatch
    sq = sum(float(np.add.reduce(g * g, axis=None)) for _, g in sorted(grads.items()))
    sq += sum(float(np.add.reduce(rows * rows, axis=None))
              for _, (_, rows) in sorted((sparse or {}).items()))
    return float(np.sqrt(sq))


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig,
              sparse: Optional[dict[str, tuple[np.ndarray, np.ndarray]]] = None,
              grad_norm: Optional[float] = None) -> None:
    """One Adam step in place, with optional row-sparse entries.

    ``sparse`` maps a parameter name to (unique row ids, gradient rows); only
    those rows' moments and values are updated, by the same formula as the
    dense tensors.  Global-norm clipping (if set)
    covers dense and sparse gradients together and happens before the moment
    updates; ``grad_norm``, if the caller has it, is that ``global_norm``.
    Decoupled weight decay multiplies the post-update parameters.
    """
    for name, g in grads.items():
        if g.shape != params[name].data.shape:
            raise ShapeMismatchError(f"{name}: grad {g.shape} vs param {params[name].data.shape}")
    sparse = sparse or {}
    for name, (ids, rows) in sparse.items():
        if rows.shape != (len(ids), params[name].data.shape[1]):
            raise ShapeMismatchError(f"{name}: sparse grad rows {rows.shape}")
    if cfg.grad_clip_norm is not None:
        norm = global_norm(grads, sparse) if grad_norm is None else grad_norm
        if norm > cfg.grad_clip_norm:
            factor = cfg.grad_clip_norm / norm
            grads = {n: g * factor for n, g in grads.items()}
            sparse = {n: (ids, rows * factor) for n, (ids, rows) in sparse.items()}
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t

    def update(p, g, m, v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if cfg.weight_decay != 0.0:
            p -= cfg.learning_rate * cfg.weight_decay * p

    for name in sorted(grads):
        update(params[name].data, grads[name], state.m[name], state.v[name])
    for name in sorted(sparse):
        ids, rows = sparse[name]
        p, m, v = params[name].data, state.m[name], state.v[name]
        p_rows, m_rows, v_rows = p[ids], m[ids], v[ids]
        update(p_rows, rows, m_rows, v_rows)
        p[ids], m[ids], v[ids] = p_rows, m_rows, v_rows


def _batches(items: Sequence, cfg: TrainConfig, tag: str) -> Iterator[list]:
    """Shuffled epochs of ``cfg.batch_size`` items, last partial batch kept,
    until ``cfg.max_steps``; the order is drawn from ``seed_seq(cfg.seed, tag)``."""
    rng = np.random.default_rng(seed_seq(cfg.seed, tag))
    produced = 0
    while produced < cfg.max_steps:
        order = rng.permutation(len(items))
        for b0 in range(0, len(items), cfg.batch_size):
            if produced >= cfg.max_steps:
                return
            yield [items[i] for i in order[b0:b0 + cfg.batch_size]]
            produced += 1


def _batch_targets(targets: Sequence[Sequence[int]]) -> tuple[list[int], np.ndarray]:
    """Targets back to back, and per-row cross-entropy weights that average
    each example over its non-PAD positions and then over the batch."""
    flat: list[int] = []
    weights: list[float] = []
    for tgt in targets:
        n_kept = sum(t != PAD_ID for t in tgt)
        flat += tgt
        weights += [1.0 / (len(targets) * max(n_kept, 1))] * len(tgt)
    return flat, np.array(weights)


def _mix(seed: int, tag: str, *parts: int) -> int:
    return int(seed_seq(seed, tag, *parts).generate_state(1, np.uint64)[0])


@dataclass
class PreparedExample:
    aug: AugmentedInput
    decoder_in: list[int]
    target: list[int]


def prepare_examples(dataset, kg: KnowledgeGraph, vocab: Vocabulary,
                     variant: str) -> list[PreparedExample]:
    """Tokenize questions, link mentions, and build teacher-forcing pairs."""
    prepared = []
    for ex in dataset:
        q_tokens = tokenize(ex.question)
        ents, rels = link_mentions(kg, q_tokens)
        q_ids = [vocab.token_to_id(t) for t in q_tokens]
        ans_ids = vocab.encode(ex.answer)
        prepared.append(PreparedExample(
            aug=AugmentedInput(q_ids, ents, rels, variant),
            decoder_in=[BOS_ID] + ans_ids,
            target=ans_ids + [EOS_ID]))
    return prepared


def _step_loss(params: ModelParams, examples: Sequence[PreparedExample],
               kg_rows: Optional[tuple[Tensor, Tensor]],
               loss_spec: Optional[LossSpec], seed: int,
               step: int) -> tuple[Tensor, Optional[Tensor], Tensor]:
    """(L, Sim, L') of one packed batch, its dropout drawn from
    ``_mix(seed, "fwd", step)``; without ``loss_spec``, Sim is None and L'
    is L."""
    enc = build_augmented_input([ex.aug for ex in examples], kg_rows, params)
    logits = forward(params, enc, [ex.decoder_in for ex in examples], train_mode=True,
                     seed=_mix(seed, "fwd", step))
    flat, weights = _batch_targets([ex.target for ex in examples])
    base = cross_entropy_mean(logits, flat, ignore_id=PAD_ID, weights=weights)
    if loss_spec is None:
        return base, None, base
    sim = sim_term(kg_rows,
                   [e for ex in examples for e in ex.aug.sim_entity_ids],
                   [r for ex in examples for r in ex.aug.sim_relation_ids],
                   counts=[(len(ex.aug.sim_entity_ids), len(ex.aug.sim_relation_ids))
                           for ex in examples])
    return base, sim, loss_prime(base, sim, loss_spec.sim_weight)


def _fit(params: ModelParams, batches: Iterable[Sequence[PreparedExample]],
         kg_rows: Optional[tuple[Tensor, Tensor]], loss_spec: Optional[LossSpec],
         cfg: TrainConfig) -> list[tuple[float, Optional[float], float]]:
    """One Adam step per batch over ``params`` and (iff trainable) the KG
    rows the batch uses; returns each step's (L, Sim, L').  Gradients are
    cleared first, so a tensor a step does not reach gets none, not the
    previous step's."""
    trained = dict(params.tensors)
    if kg_rows is not None:
        trained["kg_entity_rows"], trained["kg_relation_rows"] = kg_rows
    state = AdamState.init(trained)
    losses = []
    for step, examples in enumerate(batches):
        for t in trained.values():
            t.grad = None
        with Tape() as tape:
            base, sim, total = _step_loss(params, examples, kg_rows, loss_spec,
                                          cfg.seed, step)
            backward(tape, total)
        sparse: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if kg_rows is not None and cfg.kg_embeddings_trainable:
            used_ents = {e for ex in examples
                         for e in ex.aug.input_entity_ids + ex.aug.sim_entity_ids}
            used_rels = {r for ex in examples
                         for r in ex.aug.input_relation_ids + ex.aug.sim_relation_ids}
            for name, rows, used in (("kg_entity_rows", kg_rows[0], used_ents),
                                     ("kg_relation_rows", kg_rows[1], used_rels)):
                if used and rows.grad is not None:
                    ids = np.array(sorted(used), dtype=np.int64)
                    sparse[name] = (ids, rows.grad[ids])
        grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for name, t in params.tensors.items()}
        norm = global_norm(grads, sparse)
        base_v, sim_v, total_v = base.item(), None if sim is None else sim.item(), total.item()
        if not (math.isfinite(base_v) and math.isfinite(total_v) and math.isfinite(norm)):
            raise NonFiniteTrainingError(step, base_v, sim_v, norm)
        adam_step(trained, grads, state, cfg, sparse=sparse, grad_norm=norm)
        losses.append((base_v, sim_v, total_v))
    return losses


def pretrain(params: ModelParams, corpus_ids: Sequence[Sequence[int]],
             cfg: TrainConfig, corruption_rate: float = 0.15,
             mean_span: float = 3.0) -> tuple[ModelParams, list[float]]:
    """Span-corruption pretraining: the fine-tune step over variant-``none``
    examples (the corrupted sentence in, its sentinel spans out) without the
    Sim term.

    Returns the trained params and one mean-loss entry per ``eval_every``
    steps (plus a final partial window).  Deterministic in ``cfg.seed``.
    """
    if not corpus_ids:
        raise EmptyCorpusError("corpus is empty")

    def corrupted(step: int, slot: int, ids: Sequence[int]) -> PreparedExample:
        inp, tgt = span_corrupt(list(ids), corruption_rate, mean_span,
                                seed=_mix(cfg.seed, "corrupt", step, slot))
        return PreparedExample(AugmentedInput(inp, [], [], "none"), [BOS_ID] + tgt[:-1], tgt)

    batches = ([corrupted(step, slot, ids) for slot, ids in enumerate(batch)]
               for step, batch in enumerate(_batches(corpus_ids, cfg, "pretrain-batch")))
    losses = [base for base, _, _ in _fit(params, batches, None, None, cfg)]
    return params, [float(np.mean(losses[i:i + cfg.eval_every]))
                    for i in range(0, len(losses), cfg.eval_every)]


def finetune(params: ModelParams, dataset, kg: KnowledgeGraph,
             emb: EmbeddingTable, loss_spec: LossSpec, variant: str,
             cfg: TrainConfig, vocab: Vocabulary
             ) -> tuple[ModelParams, EmbeddingTable, list[tuple[int, float, float, float]]]:
    """Fine-tune on QA examples with the joint objective.

    Mentions are linked once; per step: build the augmented input per
    ``variant``, teacher-forced cross entropy on the answer plus the
    weighted similarity term; Adam over model parameters and (iff
    kg_embeddings_trainable) the embedding rows used by the batch.  Trace
    records (step, L, Sim, L').  Pretraining runs the same step without the
    Sim term.
    """
    if not dataset:
        raise EmptyDatasetError("dataset is empty")
    batches = _batches(prepare_examples(dataset, kg, vocab, variant), cfg, "finetune-batch")
    ent_t = Tensor(emb.entity_vecs.copy(), requires_grad=cfg.kg_embeddings_trainable)
    rel_t = Tensor(emb.relation_vecs.copy(), requires_grad=cfg.kg_embeddings_trainable)
    trace = [(step, *loss)
             for step, loss in enumerate(_fit(params, batches, (ent_t, rel_t), loss_spec, cfg))]
    return params, EmbeddingTable(emb.dim, ent_t.data, rel_t.data), trace


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------
# `KGT5CKPT` magic, u32 LE version, u32 LE header length, UTF-8 JSON header
# (configs plus a tensor directory of name/shape/offset), then raw
# little-endian float64 blobs in directory order; offsets are relative to the
# start of the data section.

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_header(header) -> ModelConfig:
    """The model config of a parsed checkpoint header, after checking every
    field ``save_checkpoint`` writes; raises CheckpointHeaderError naming the
    first field that is missing or has the wrong type or value."""
    def bad(what: str) -> CheckpointHeaderError:
        return CheckpointHeaderError(f"checkpoint header: {what}")

    keys = ("configs", "kg_enabled", "model_config", "has_embeddings",
            "embedding_dim", "tensors")
    if not isinstance(header, dict) or header.keys() != set(keys):
        raise bad(f"fields must be exactly {', '.join(keys)}")
    if not isinstance(header["configs"], dict):
        raise bad("configs is not an object")
    for key in ("kg_enabled", "has_embeddings"):
        if not isinstance(header[key], bool):
            raise bad(f"{key} is not a boolean")
    dim = header["embedding_dim"]
    if not (_is_int(dim) if header["has_embeddings"] else dim is None):
        raise bad(f"embedding_dim {dim!r} with has_embeddings {header['has_embeddings']}")
    cfg = header["model_config"]
    names = {f.name for f in fields(ModelConfig)}
    if not isinstance(cfg, dict) or cfg.keys() != names:
        raise bad(f"model_config fields must be exactly {', '.join(sorted(names))}")
    for name, value in cfg.items():
        if not (_is_int(value) or (name == "dropout_p" and isinstance(value, float))):
            raise bad(f"model_config.{name} is {value!r}")
    try:
        model_cfg = ModelConfig(**cfg)
    except ValueError as exc:
        raise bad(f"model_config: {exc}") from None
    if not isinstance(header["tensors"], list):
        raise bad("tensors is not a list")
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and entry.keys() == {"name", "shape", "offset"}
                and isinstance(entry["name"], str) and _is_int(entry["offset"])
                and isinstance(entry["shape"], list)
                and all(_is_int(n) for n in entry["shape"])):
            raise bad(f"tensor entry {entry!r}")
    return model_cfg


def save_checkpoint(params: ModelParams, emb: Optional[EmbeddingTable],
                    configs: dict, path) -> None:
    """Bit-exact, versioned serialization of params, embeddings and configs."""
    tensors: dict[str, np.ndarray] = {f"model.{n}": t.data for n, t in params.tensors.items()}
    if emb is not None:
        tensors["kg.entity_vecs"] = emb.entity_vecs
        tensors["kg.relation_vecs"] = emb.relation_vecs
    directory = []
    offset = 0
    for name in sorted(tensors):
        arr = tensors[name]
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = {
        "configs": dict(configs),
        "kg_enabled": params.kg_enabled,
        "model_config": vars(params.config).copy(),
        "has_embeddings": emb is not None,
        "embedding_dim": emb.dim if emb is not None else None,
        "tensors": directory,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(tensors):
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, Optional[EmbeddingTable], dict]:
    """Inverse of ``save_checkpoint``.  Raises a typed error for a file that
    is not exactly what ``save_checkpoint`` writes: bad preamble, a header
    that is not UTF-8 JSON or lacks or mistypes a field, unknown or missing
    tensors, blobs that are not back to back in directory order, bytes past
    the last blob, or embedding tensors that form no EmbeddingTable."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise TruncatedFileError("file too short for checkpoint preamble")
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"bad magic bytes {raw[:8]!r}")
    pos = len(CHECKPOINT_MAGIC)
    version = struct.unpack_from("<I", raw, pos)[0]
    if version != CHECKPOINT_VERSION:
        raise VersionUnsupportedError(f"checkpoint version {version} unsupported")
    pos += 4
    hdr_len = struct.unpack_from("<I", raw, pos)[0]
    pos += 4
    if pos + hdr_len > len(raw):
        raise TruncatedFileError("header extends past end of file")
    try:
        header = json.loads(raw[pos:pos + hdr_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointHeaderError(f"header is not UTF-8 JSON: {exc}") from None
    data_start = pos + hdr_len
    model_cfg = _check_header(header)
    kg_enabled = header["kg_enabled"]
    expected = {name: spec[1:] for name, spec in param_table(model_cfg, kg_enabled).items()}
    known = {f"model.{name}" for name in expected}
    if header["has_embeddings"]:
        known |= {"kg.entity_vecs", "kg.relation_vecs"}
    arrays: dict[str, np.ndarray] = {}
    end = 0  # data-section offset just past the previous blob
    for entry in header["tensors"]:
        name = entry["name"]
        if name not in known or name in arrays:
            raise CheckpointShapeError(f"unknown or repeated tensor {name!r}")
        if entry["offset"] != end:
            raise CheckpointLayoutError(
                f"tensor {name} at offset {entry['offset']}, expected {end}: "
                "blobs overlap, leave a gap or are out of order")
        shape = tuple(entry["shape"])
        if any(dim < 0 for dim in shape):
            raise CheckpointShapeError(f"tensor {name}: negative dimension in {shape}")
        count = math.prod(shape)
        lo = data_start + end
        end += count * 8
        if data_start + end > len(raw):
            raise TruncatedFileError(f"tensor {name} extends past end of file")
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=lo
                                     ).reshape(shape).astype(np.float64)
    if data_start + end != len(raw):
        raise CheckpointLayoutError(f"{len(raw) - data_start - end} trailing bytes "
                                    "after the last tensor")
    tensors: dict[str, Tensor] = {}
    for name, shape in expected.items():
        key = f"model.{name}"
        if key not in arrays:
            raise CheckpointShapeError(f"missing model tensor {name}")
        if arrays[key].shape != shape:
            raise CheckpointShapeError(
                f"tensor {name}: shape {arrays[key].shape} does not match "
                f"config-implied {shape}")
        tensors[name] = Tensor(arrays[key], requires_grad=True)
    params = ModelParams(model_cfg, tensors, kg_enabled)
    emb = None
    if header["has_embeddings"]:
        if "kg.entity_vecs" not in arrays or "kg.relation_vecs" not in arrays:
            raise CheckpointShapeError("embedding tensors missing")
        try:
            emb = EmbeddingTable(header["embedding_dim"], arrays["kg.entity_vecs"],
                                 arrays["kg.relation_vecs"])
        except ValueError as exc:
            raise CheckpointEmbeddingError(f"embedding tensors: {exc}") from None
    return params, emb, header["configs"]
