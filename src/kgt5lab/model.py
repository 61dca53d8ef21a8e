"""Tiny text-to-text encoder-decoder with KG-augmented encoder inputs.

A pre-norm transformer in the T5 family style: RMS norm, relative-position
bias in the self-attention stacks, untied input/output embeddings, no bias
vectors anywhere.  Questions are word-level token ids; linked knowledge-graph
vectors are projected into model space and appended after a SEP boundary,
with a learned type embedding separating entity slots from relation slots.
With variant ``none`` the encoder input is bit-identical to a model with no
KG machinery at all.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Tensor, add, attention_core, concat_rows, dropout,
                       gather_rows, gelu, matmul, rms_norm)
from .embeddings import EmbeddingTable, seed_seq

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SEP_ID = 4
SENTINEL_START = 5
N_SENTINELS = 32
FIRST_REGULAR_ID = SENTINEL_START + N_SENTINELS  # 37

RESERVED_TOKENS = (["<pad>", "<bos>", "<eos>", "<unk>", "<sep>"]
                   + [f"<X{i}>" for i in range(N_SENTINELS)])

NEG_INF = -1e30


class EmptyCorpusError(ValueError):
    pass


class TooManySpansError(ValueError):
    pass


class TooLongError(ValueError):
    pass


class MissingBOSError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """NFC-normalize, lowercase, split on whitespace."""
    return unicodedata.normalize("NFC", text).lower().split()


class Vocabulary:
    """token<->id map with fixed reserved ids (PAD/BOS/EOS/UNK/SEP, sentinels)."""

    def __init__(self, regular_tokens: Sequence[str]):
        self.tokens: list[str] = list(RESERVED_TOKENS) + list(regular_tokens)
        self.index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.index:
                raise ValueError(f"token string collision: {tok!r}")
            self.index[tok] = i

    def __len__(self) -> int:
        return len(self.tokens)

    def token_to_id(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def id_to_token(self, i: int) -> str:
        return self.tokens[i]

    def encode(self, text: str) -> list[int]:
        return [self.index.get(t, UNK_ID) for t in tokenize(text)]

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)

    @staticmethod
    def sentinel_id(k: int) -> int:
        if not (0 <= k < N_SENTINELS):
            raise ValueError(f"sentinel index out of range: {k}")
        return SENTINEL_START + k


def build_vocab(corpus: Sequence[str], min_count: int = 1) -> Vocabulary:
    """Frequency-ordered vocabulary (ties lexicographic); rare tokens -> UNK."""
    if not corpus:
        raise EmptyCorpusError("corpus is empty")
    counts: Counter[str] = Counter()
    for line in corpus:
        counts.update(tokenize(line))
    regular = sorted((t for t, c in counts.items() if c >= min_count),
                     key=lambda t: (-counts[t], t))
    return Vocabulary(regular)


# ---------------------------------------------------------------------------
# span corruption (fill-in-the-blank pretraining objective)
# ---------------------------------------------------------------------------

def corrupt_with_spans(ids: Sequence[int], spans: Sequence[tuple[int, int]]
                       ) -> tuple[list[int], list[int]]:
    """Replace the given non-overlapping (start, length) spans with sentinels.

    Target is each sentinel followed by its span tokens, with one EOS at the
    end.  Spans must be sorted, in range, and non-overlapping.
    """
    if len(spans) > N_SENTINELS:
        raise TooManySpansError(f"{len(spans)} spans exceed {N_SENTINELS} sentinels")
    input_ids: list[int] = []
    target_ids: list[int] = []
    pos = 0
    for k, (start, length) in enumerate(spans):
        if start < pos or length < 1 or start + length > len(ids):
            raise ValueError(f"bad span ({start}, {length}) at position {pos}")
        input_ids.extend(ids[pos:start])
        sentinel = Vocabulary.sentinel_id(k)
        input_ids.append(sentinel)
        target_ids.append(sentinel)
        target_ids.extend(ids[start:start + length])
        pos = start + length
    input_ids.extend(ids[pos:])
    target_ids.append(EOS_ID)
    return input_ids, target_ids


def span_corrupt(ids: Sequence[int], corruption_rate: float, mean_span: float,
                 seed: int) -> tuple[list[int], list[int]]:
    """Corrupt ~corruption_rate of the tokens with geometric-length spans."""
    if not ids:
        raise ValueError("ids must be nonempty")
    if any(i < FIRST_REGULAR_ID for i in ids):
        raise ValueError("ids must not contain reserved token ids")
    if not (0.0 < corruption_rate < 1.0):
        raise ValueError(f"corruption_rate must be in (0, 1), got {corruption_rate}")
    if mean_span <= 0:
        raise ValueError("mean_span must be positive")
    n = len(ids)
    n_corrupt = min(n, max(1, round(corruption_rate * n)))
    rng = np.random.default_rng(seed_seq(seed, "span"))
    lengths: list[int] = []
    remaining = n_corrupt
    while remaining > 0:
        length = min(int(rng.geometric(min(1.0, 1.0 / mean_span))), remaining)
        lengths.append(length)
        remaining -= length
    if len(lengths) > N_SENTINELS:
        raise TooManySpansError(f"{len(lengths)} spans exceed {N_SENTINELS} sentinels")
    # place spans by distributing the free tokens into gaps (stars and bars):
    # slots[i] - i is the cumulative free-token count before span i
    k = len(lengths)
    free = n - n_corrupt
    slots = np.sort(rng.choice(free + k, size=k, replace=False))
    spans: list[tuple[int, int]] = []
    covered = 0
    for i, length in enumerate(lengths):
        start = int(slots[i]) - i + covered
        spans.append((start, length))
        covered += length
    return corrupt_with_spans(list(ids), spans)


# ---------------------------------------------------------------------------
# model configuration and parameters
# ---------------------------------------------------------------------------

@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    dropout_p: float = 0.1
    max_len: int = 64
    d_kg: int = 32

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                     "max_len", "d_kg"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


VARIANTS = ("none", "entity", "relation", "both")


@dataclass
class AugmentedInput:
    """Question token ids plus linked KG ids realizing the augmented input.

    ``variant`` selects which KG rows enter the encoder; with ``none`` both
    id lists are treated as empty everywhere.
    """

    question_ids: list[int]
    entity_ids: list[int]
    relation_ids: list[int]
    variant: str = "both"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def input_entity_ids(self) -> list[int]:
        return self.entity_ids if self.variant in ("entity", "both") else []

    @property
    def input_relation_ids(self) -> list[int]:
        return self.relation_ids if self.variant in ("relation", "both") else []

    @property
    def sim_entity_ids(self) -> list[int]:
        return [] if self.variant == "none" else self.entity_ids

    @property
    def sim_relation_ids(self) -> list[int]:
        return [] if self.variant == "none" else self.relation_ids


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class ModelParams:
    """Named parameter tensors; each is initialized from (seed, name) so the
    drawn values do not depend on which other parameters exist."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor],
                 kg_enabled: bool = True):
        self.config = config
        self.tensors = tensors
        self.kg_enabled = kg_enabled

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            {n: Tensor(t.data.copy(), requires_grad=t.requires_grad)
             for n, t in self.tensors.items()},
            self.kg_enabled)

    @classmethod
    def init(cls, config: ModelConfig, seed: int, kg_enabled: bool = True) -> "ModelParams":
        d, dff = config.d_model, config.d_ff
        shapes: dict[str, tuple] = {
            "tok_emb": ("emb", config.vocab_size, d),
            "out_proj": ("mat", d, config.vocab_size),
            "enc_rel_bias": ("zeros", config.n_heads, 2 * config.max_len - 1),
            "dec_rel_bias": ("zeros", config.n_heads, 2 * config.max_len - 1),
            "enc_norm": ("ones", d), "dec_norm": ("ones", d),
        }
        for i in range(config.n_layers):
            for pre, attn_names in ((f"enc{i}", ("attn",)), (f"dec{i}", ("self", "cross"))):
                for a in attn_names:
                    shapes[f"{pre}.{a}.wq"] = ("mat", d, d)
                    shapes[f"{pre}.{a}.wk"] = ("mat", d, d)
                    shapes[f"{pre}.{a}.wv"] = ("mat", d, d)
                    shapes[f"{pre}.{a}.wo"] = ("mat", d, d)
                shapes[f"{pre}.ffn.w1"] = ("mat", d, dff)
                shapes[f"{pre}.ffn.w2"] = ("mat", dff, d)
            shapes[f"enc{i}.ln1"] = ("ones", d)
            shapes[f"enc{i}.ln2"] = ("ones", d)
            shapes[f"dec{i}.ln1"] = ("ones", d)
            shapes[f"dec{i}.ln2"] = ("ones", d)
            shapes[f"dec{i}.ln3"] = ("ones", d)
        if kg_enabled:
            # scaled down so KG rows start near-silent and earn attention
            # through gradients instead of perturbing early optimization
            shapes["kg_proj"] = ("kg_mat", config.d_kg, d)
            shapes["kg_type"] = ("kg_emb", 2, d)
        tensors: dict[str, Tensor] = {}
        for name, spec in shapes.items():
            rng = np.random.default_rng(seed_seq(seed, "param", name))
            kind = spec[0]
            if kind == "mat":
                data = _xavier(rng, spec[1], spec[2])
            elif kind == "kg_mat":
                data = 0.1 * _xavier(rng, spec[1], spec[2])
            elif kind == "emb":
                data = rng.normal(0.0, 1.0 / np.sqrt(d), size=spec[1:])
            elif kind == "kg_emb":
                data = 0.1 * rng.normal(0.0, 1.0 / np.sqrt(d), size=spec[1:])
            elif kind == "zeros":
                data = np.zeros(spec[1:])
            else:  # ones
                data = np.ones(spec[1:])
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(config, tensors, kg_enabled)


@dataclass
class EncoderInput:
    """Encoder input rows [L, d_model], the text-position count, and a mask
    (1 = attendable) over the L rows."""

    rows: Tensor
    n_text: int
    mask: np.ndarray

    @property
    def length(self) -> int:
        return self.rows.data.shape[0]


def _kg_row_tensors(emb) -> tuple[Tensor, Tensor]:
    if isinstance(emb, EmbeddingTable):
        return Tensor(emb.entity_vecs), Tensor(emb.relation_vecs)
    ent, rel = emb
    return ent, rel


def build_augmented_input(a: AugmentedInput, emb, params: ModelParams) -> EncoderInput:
    """Token rows of q, then SEP and projected KG rows per the variant.

    ``emb`` is an EmbeddingTable or a (entity, relation) pair of Tensors
    (the trainable path).  With variant ``none`` the result is bit-identical
    to a plain token-embedding lookup.
    """
    cfg = params.config
    tok_emb = params["tok_emb"]
    q_rows = gather_rows(tok_emb, a.question_ids)
    n = len(a.question_ids)
    ents, rels = a.input_entity_ids, a.input_relation_ids
    if a.variant == "none":
        length = n
        if length > cfg.max_len:
            raise TooLongError(f"encoder input length {length} > max_len {cfg.max_len}")
        return EncoderInput(rows=q_rows, n_text=n, mask=np.ones(length))
    length = n + 1 + len(ents) + len(rels)
    if length > cfg.max_len:
        raise TooLongError(f"encoder input length {length} > max_len {cfg.max_len}")
    ent_t, rel_t = _kg_row_tensors(emb)
    parts = [q_rows, gather_rows(tok_emb, [SEP_ID])]
    kg_proj, kg_type = params["kg_proj"], params["kg_type"]
    if ents:
        type_rows = gather_rows(kg_type, [0] * len(ents))
        parts.append(add(matmul(gather_rows(ent_t, ents), kg_proj), type_rows))
    if rels:
        type_rows = gather_rows(kg_type, [1] * len(rels))
        parts.append(add(matmul(gather_rows(rel_t, rels), kg_proj), type_rows))
    return EncoderInput(rows=concat_rows(parts), n_text=n, mask=np.ones(length))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

_IDX_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_MASK_CACHE: dict[tuple, np.ndarray] = {}


def _bias_idx(n_text: int, length: int, max_len: int) -> np.ndarray:
    """[length, length] relative-position bucket indices; -1 (no bias) for
    any pair involving a non-text row."""
    key = (n_text, length, max_len)
    if key not in _IDX_CACHE:
        pos = np.arange(n_text)
        idx = np.full((length, length), -1, dtype=np.int64)
        idx[:n_text, :n_text] = (pos[None, :] - pos[:, None]) + (max_len - 1)
        _IDX_CACHE[key] = idx
    return _IDX_CACHE[key]


def _causal_mask(t: int) -> np.ndarray:
    key = ("causal", t)
    if key not in _MASK_CACHE:
        _MASK_CACHE[key] = np.triu(np.full((t, t), NEG_INF), k=1)
    return _MASK_CACHE[key]


def _mask_to_additive(mask: np.ndarray, n_rows: int) -> Optional[np.ndarray]:
    if np.all(mask > 0):
        return None
    cols = np.where(mask > 0, 0.0, NEG_INF)
    return np.broadcast_to(cols, (n_rows, mask.shape[0])).copy()


def _project_kv(params: ModelParams, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
    return matmul(x, params[f"{prefix}.wk"]), matmul(x, params[f"{prefix}.wv"])


def _attention(params: ModelParams, prefix: str, x_q: Tensor,
               kv: Optional[tuple[Tensor, Tensor]],
               bias_table: Optional[Tensor], bias_idx: Optional[np.ndarray],
               mask: Optional[np.ndarray], rng, train: bool) -> Tensor:
    """Attention of ``x_q`` over precomputed (keys, values) ``kv``, or over
    ``x_q`` itself (self-attention) when ``kv`` is None."""
    cfg = params.config
    q = matmul(x_q, params[f"{prefix}.wq"])
    k, v = _project_kv(params, prefix, x_q) if kv is None else kv
    core = attention_core(q, k, v, cfg.n_heads, bias_table, bias_idx, mask,
                          cfg.dropout_p, rng, train)
    return matmul(core, params[f"{prefix}.wo"])


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return matmul(gelu(matmul(x, params[f"{prefix}.w1"])), params[f"{prefix}.w2"])


def encode(params: ModelParams, enc_input: EncoderInput, rng,
           train: bool) -> Tensor:
    cfg = params.config
    length = enc_input.length
    bias_idx = _bias_idx(enc_input.n_text, length, cfg.max_len)
    mask = _mask_to_additive(enc_input.mask, length)
    x = dropout(enc_input.rows, cfg.dropout_p, rng, train)
    for i in range(cfg.n_layers):
        norm_x = rms_norm(x, params[f"enc{i}.ln1"])
        a = _attention(params, f"enc{i}.attn", norm_x, None,
                       params["enc_rel_bias"], bias_idx, mask, rng, train)
        x = add(x, dropout(a, cfg.dropout_p, rng, train))
        f = _ffn(params, f"enc{i}.ffn", rms_norm(x, params[f"enc{i}.ln2"]))
        x = add(x, dropout(f, cfg.dropout_p, rng, train))
    return rms_norm(x, params["enc_norm"])


def _cross_kv(params: ModelParams, enc_out: Tensor) -> list[tuple[Tensor, Tensor]]:
    """Per decoder layer, the cross-attention keys and values of ``enc_out``."""
    return [_project_kv(params, f"dec{i}.cross", enc_out)
            for i in range(params.config.n_layers)]


def _decode_stack(params: ModelParams, decoder_ids: Sequence[int],
                  cross_kv: list[tuple[Tensor, Tensor]], enc_mask: np.ndarray,
                  rng, train: bool) -> Tensor:
    """Logits [len(decoder_ids), vocab] of the decoder stack over the whole
    prefix, attending to the encoder through each layer's ``cross_kv``."""
    cfg = params.config
    t = len(decoder_ids)
    cross_mask = _mask_to_additive(enc_mask, t)
    dec_bias_idx = _bias_idx(t, t, cfg.max_len)
    causal = _causal_mask(t)
    y = dropout(gather_rows(params["tok_emb"], list(decoder_ids)),
                cfg.dropout_p, rng, train)
    for i, kv in enumerate(cross_kv):
        norm_y = rms_norm(y, params[f"dec{i}.ln1"])
        a = _attention(params, f"dec{i}.self", norm_y, None,
                       params["dec_rel_bias"], dec_bias_idx, causal, rng, train)
        y = add(y, dropout(a, cfg.dropout_p, rng, train))
        c = _attention(params, f"dec{i}.cross", rms_norm(y, params[f"dec{i}.ln2"]),
                       kv, None, None, cross_mask, rng, train)
        y = add(y, dropout(c, cfg.dropout_p, rng, train))
        f = _ffn(params, f"dec{i}.ffn", rms_norm(y, params[f"dec{i}.ln3"]))
        y = add(y, dropout(f, cfg.dropout_p, rng, train))
    return matmul(rms_norm(y, params["dec_norm"]), params["out_proj"])


def _check_encoder_length(params: ModelParams, enc_input: EncoderInput) -> None:
    if enc_input.length > params.config.max_len:
        raise TooLongError(f"encoder length {enc_input.length} > max_len "
                           f"{params.config.max_len}")


def forward(params: ModelParams, enc_input: EncoderInput,
            decoder_ids: Sequence[int], train_mode: bool, seed: int) -> Tensor:
    """Teacher-forced logits [len(decoder_ids), vocab]."""
    cfg = params.config
    if not decoder_ids or decoder_ids[0] != BOS_ID:
        raise MissingBOSError("decoder_ids must start with BOS")
    t = len(decoder_ids)
    if t > cfg.max_len:
        raise TooLongError(f"decoder length {t} > max_len {cfg.max_len}")
    _check_encoder_length(params, enc_input)
    rng = np.random.default_rng(seed_seq(seed, "dropout"))
    enc_out = encode(params, enc_input, rng, train_mode)
    return _decode_stack(params, decoder_ids, _cross_kv(params, enc_out),
                         enc_input.mask, rng, train_mode)


def greedy_decode(params: ModelParams, enc_input: EncoderInput,
                  max_steps: int) -> list[int]:
    """Argmax decoding from BOS; stops at EOS or max_steps.

    Returns the generated ids without BOS/EOS.  Ties resolve to the lowest
    token id.  The question is encoded, and each layer's cross-attention
    keys and values projected, once; every step re-runs only the decoder
    stack over the whole prefix.  Each step's logits equal, bit for bit,
    those of ``forward`` in eval mode: a single-row matmul is not bit-equal
    to the same row of a multi-row one, so the prefix is not cached.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _check_encoder_length(params, enc_input)
    enc_out = encode(params, enc_input, None, False)
    cross_kv = _cross_kv(params, enc_out)
    ids = [BOS_ID]
    out: list[int] = []
    for _ in range(max_steps):
        logits = _decode_stack(params, ids, cross_kv, enc_input.mask, None, False)
        nxt = int(np.argmax(logits.data[-1]))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        ids.append(nxt)
        if len(ids) >= params.config.max_len:
            break
    return out
