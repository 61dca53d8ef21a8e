"""Joint objective, Adam optimizer, pretrain/fine-tune loops, checkpoints.

The fine-tuning loss is ``total = base_cross_entropy + sim_weight * Sim``
where ``Sim`` is the mean cosine similarity over all linked (entity,
relation) pairs of an example.  The similarity weight is signed: minimizing
the objective as written penalizes similarity for positive weights and
rewards it for negative ones; the default experiment configs use -0.1.
KG embedding rows touched by a batch are fine-tuned jointly unless frozen.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .autodiff import (Tape, Tensor, add, backward, cross_entropy_mean,
                       cosine_similarity, gather_rows, reshape, scalar_mul,
                       ShapeMismatchError)
from .embeddings import EmbeddingTable, seed_seq
from .kg import KnowledgeGraph, link_mentions
from .model import (AugmentedInput, BOS_ID, EOS_ID, EmptyCorpusError,
                    EncoderInput, ModelConfig, ModelParams, PAD_ID,
                    Vocabulary, build_augmented_input, forward, span_corrupt,
                    tokenize)

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
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be nonnegative")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size and eval_every must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive or None")


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


def sim_term(emb, entities: Sequence[int], relations: Sequence[int]) -> Tensor:
    """Mean cosine similarity over entities x relations, differentiable.

    ``emb`` is an EmbeddingTable or a (entity, relation) Tensor pair.
    Returns an exact 0 scalar (no gradient) if either list is empty.
    """
    if not entities or not relations:
        return Tensor(0.0)
    if isinstance(emb, EmbeddingTable):
        ent_t, rel_t = Tensor(emb.entity_vecs), Tensor(emb.relation_vecs)
    else:
        ent_t, rel_t = emb
    d = ent_t.data.shape[1]
    total: Optional[Tensor] = None
    for e in entities:
        ve = reshape(gather_rows(ent_t, [e]), (d,))
        for r in relations:
            vr = reshape(gather_rows(rel_t, [r]), (d,))
            c = cosine_similarity(ve, vr)
            total = c if total is None else add(total, c)
    return scalar_mul(total, 1.0 / (len(entities) * len(relations)))


def loss_prime(base_loss: Tensor, sim: Tensor, sim_weight: float) -> Tensor:
    """base + sim_weight * sim; with weight 0 the base is returned unchanged
    so the gradient path is exactly the base-only one."""
    if sim_weight == 0.0:
        return base_loss
    return add(base_loss, scalar_mul(sim, sim_weight))


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig,
              sparse: Optional[dict[str, tuple[np.ndarray, np.ndarray]]] = None) -> None:
    """One Adam step in place, with optional row-sparse entries.

    ``sparse`` maps a parameter name to (unique row ids, gradient rows); only
    those rows' moments and values are updated, by the same formula as the
    dense tensors.  Global-norm clipping (if set)
    covers dense and sparse gradients together and happens before the moment
    updates.  Decoupled weight decay multiplies the post-update parameters.
    """
    for name, g in grads.items():
        if g.shape != params[name].data.shape:
            raise ShapeMismatchError(f"{name}: grad {g.shape} vs param {params[name].data.shape}")
    sparse = sparse or {}
    for name, (ids, rows) in sparse.items():
        if rows.shape != (len(ids), params[name].data.shape[1]):
            raise ShapeMismatchError(f"{name}: sparse grad rows {rows.shape}")
    if cfg.grad_clip_norm is not None:
        sq = sum(float(np.sum(g * g)) for _, g in sorted(grads.items()))
        sq += sum(float(np.sum(rows * rows)) for _, (_, rows) in sorted(sparse.items()))
        norm = np.sqrt(sq)
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


def _batches(n_examples: int, batch_size: int, max_steps: int,
             rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Shuffled epoch batches, last partial batch kept, until max_steps."""
    produced = 0
    while produced < max_steps:
        order = rng.permutation(n_examples)
        for b0 in range(0, n_examples, batch_size):
            if produced >= max_steps:
                return
            yield order[b0:b0 + batch_size]
            produced += 1


def _mean(parts: list[Tensor]) -> Tensor:
    total = parts[0]
    for p in parts[1:]:
        total = add(total, p)
    return scalar_mul(total, 1.0 / len(parts))


def _collect_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in params.tensors.items()}


def pretrain(params: ModelParams, corpus_ids: Sequence[Sequence[int]],
             cfg: TrainConfig, corruption_rate: float = 0.15,
             mean_span: float = 3.0) -> tuple[ModelParams, list[float]]:
    """Span-corruption pretraining with base cross entropy only (no KG term).

    Returns the trained params and one mean-loss entry per ``eval_every``
    steps (plus a final partial window).  Deterministic in ``cfg.seed``.
    """
    if not corpus_ids:
        raise EmptyCorpusError("corpus is empty")
    batch_rng = np.random.default_rng(seed_seq(cfg.seed, "pretrain-batch"))
    state = AdamState.init(params.tensors)
    trace: list[float] = []
    window: list[float] = []
    tok_emb = params["tok_emb"]
    for step, batch in enumerate(_batches(len(corpus_ids), cfg.batch_size,
                                          cfg.max_steps, batch_rng)):
        with Tape() as tape:
            losses = []
            for slot, ex in enumerate(batch):
                ids = list(corpus_ids[ex])
                inp, tgt = span_corrupt(ids, corruption_rate, mean_span,
                                        seed=_mix(cfg.seed, "corrupt", step, slot))
                enc = EncoderInput(rows=gather_rows(tok_emb, inp),
                                   n_text=len(inp), mask=np.ones(len(inp)))
                dec_in = [BOS_ID] + tgt[:-1]
                logits = forward(params, enc, dec_in, train_mode=True,
                                 seed=_mix(cfg.seed, "fwd", step, slot))
                losses.append(cross_entropy_mean(logits, tgt, ignore_id=PAD_ID))
            loss = _mean(losses)
            backward(tape, loss)
        adam_step(params.tensors, _collect_grads(params), state, cfg)
        window.append(loss.item())
        if len(window) == cfg.eval_every:
            trace.append(float(np.mean(window)))
            window = []
    if window:
        trace.append(float(np.mean(window)))
    return params, trace


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


def finetune(params: ModelParams, dataset, kg: KnowledgeGraph,
             emb: EmbeddingTable, loss_spec: LossSpec, variant: str,
             cfg: TrainConfig, vocab: Vocabulary
             ) -> tuple[ModelParams, EmbeddingTable, list[tuple[int, float, float, float]]]:
    """Fine-tune on QA examples with the joint objective.

    Per step: link mentions, build the augmented input per ``variant``,
    teacher-forced cross entropy on the answer plus the weighted similarity
    term; Adam over model parameters and (iff kg_embeddings_trainable) the
    embedding rows used by the batch.  Trace records (step, L, Sim, L').
    """
    if not dataset:
        raise EmptyDatasetError("dataset is empty")
    prepared = prepare_examples(dataset, kg, vocab, variant)
    ent_t = Tensor(emb.entity_vecs.copy(), requires_grad=cfg.kg_embeddings_trainable)
    rel_t = Tensor(emb.relation_vecs.copy(), requires_grad=cfg.kg_embeddings_trainable)
    emb_params = {"kg_entity_rows": ent_t, "kg_relation_rows": rel_t}
    state = AdamState.init({**params.tensors, **emb_params})
    batch_rng = np.random.default_rng(seed_seq(cfg.seed, "finetune-batch"))
    trace: list[tuple[int, float, float, float]] = []
    for step, batch in enumerate(_batches(len(prepared), cfg.batch_size,
                                          cfg.max_steps, batch_rng)):
        used_ents: set[int] = set()
        used_rels: set[int] = set()
        with Tape() as tape:
            ce_parts, sim_parts = [], []
            for slot, idx in enumerate(batch):
                ex = prepared[idx]
                enc = build_augmented_input(ex.aug, (ent_t, rel_t), params)
                logits = forward(params, enc, ex.decoder_in, train_mode=True,
                                 seed=_mix(cfg.seed, "fwd", step, slot))
                ce_parts.append(cross_entropy_mean(logits, ex.target, ignore_id=PAD_ID))
                sim_parts.append(sim_term((ent_t, rel_t), ex.aug.sim_entity_ids,
                                          ex.aug.sim_relation_ids))
                used_ents.update(ex.aug.input_entity_ids)
                used_ents.update(ex.aug.sim_entity_ids)
                used_rels.update(ex.aug.input_relation_ids)
                used_rels.update(ex.aug.sim_relation_ids)
            base = _mean(ce_parts)
            sim = _mean(sim_parts)
            total = loss_prime(base, sim, loss_spec.sim_weight)
            backward(tape, total)
        sparse: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if cfg.kg_embeddings_trainable:
            if used_ents and ent_t.grad is not None:
                ids = np.array(sorted(used_ents), dtype=np.int64)
                sparse["kg_entity_rows"] = (ids, ent_t.grad[ids])
            if used_rels and rel_t.grad is not None:
                ids = np.array(sorted(used_rels), dtype=np.int64)
                sparse["kg_relation_rows"] = (ids, rel_t.grad[ids])
        adam_step({**params.tensors, **emb_params}, _collect_grads(params),
                  state, cfg, sparse=sparse)
        trace.append((step, base.item(), sim.item(), total.item()))
    out_emb = EmbeddingTable(emb.dim, ent_t.data, rel_t.data)
    return params, out_emb, trace


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------
# `KGT5CKPT` magic, u32 LE version, u32 LE header length, UTF-8 JSON header
# (configs plus a tensor directory of name/shape/offset), then raw
# little-endian float64 blobs in directory order; offsets are relative to the
# start of the data section.

def _expected_model_shapes(cfg: ModelConfig, kg_enabled: bool) -> dict[str, tuple[int, ...]]:
    probe = ModelParams.init(cfg, seed=0, kg_enabled=kg_enabled)
    return {name: t.data.shape for name, t in probe.tensors.items()}


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
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(tensors):
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, Optional[EmbeddingTable], dict]:
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
    header = json.loads(raw[pos:pos + hdr_len].decode("utf-8"))
    data_start = pos + hdr_len
    model_cfg = ModelConfig(**header["model_config"])
    kg_enabled = header["kg_enabled"]
    expected = _expected_model_shapes(model_cfg, kg_enabled)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape)) * 8
        lo = data_start + entry["offset"]
        if lo + nbytes > len(raw):
            raise TruncatedFileError(f"tensor {entry['name']} extends past end of file")
        arrays[entry["name"]] = np.frombuffer(
            raw, dtype="<f8", count=int(np.prod(shape)), offset=lo
        ).reshape(shape).astype(np.float64)
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
        emb = EmbeddingTable(header["embedding_dim"], arrays["kg.entity_vecs"],
                             arrays["kg.relation_vecs"])
    return params, emb, header["configs"]
