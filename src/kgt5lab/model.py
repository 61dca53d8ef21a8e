"""Tiny text-to-text encoder-decoder with KG-augmented encoder inputs.

A pre-norm transformer in the T5 family style: RMS norm, relative-position
bias in the self-attention stacks, untied input/output embeddings, no bias
vectors anywhere.  Questions are word-level token ids; linked knowledge-graph
vectors are projected into model space and appended after a SEP boundary,
with a learned type embedding separating entity slots from relation slots.
With variant ``none`` the encoder input is bit-identical to a model with no
KG machinery at all.

Training packs a batch into one encoder and one decoder sequence, and
evaluation builds each question's encoder input with the same builder, as a
pack of one, then decodes same-shape questions together as a stack (a
leading batch axis, see ``greedy_decode``).  Block-diagonal additive masks
keep every example to itself: encoder rows attend only to their own
example's rows, decoder rows causally to their own example's prefix and
across only to their own example's encoder rows.  The relative-position
indices are block-diagonal too, with no bias between examples.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .autodiff import (Streams, Tensor, add, attention_core, concat_rows,
                       dropout, gather_rows, gelu, matmul, rms_norm)
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


class DecodeBatchMismatchError(ValueError):
    """A decode batch was asked for a question under other parameters, for
    another step count, or for an encoder input it does not hold."""


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
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                     "max_len", "d_kg"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")

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
    """Encoder inputs of a batch back to back: example i owns ``lengths[i]``
    consecutive rows of ``rows`` [sum(lengths), d_model], the first
    ``n_text[i]`` of them text; ``mask`` (1 = attendable) covers every row.
    A single question is a batch of one.  A stack of same-shape examples
    (``_stack``) puts a leading axis on ``rows`` [B, L, d] and ``mask``
    [B, L]: each slice is one example laid out as ``n_text`` and
    ``lengths`` say."""

    rows: Tensor
    n_text: tuple[int, ...]
    lengths: tuple[int, ...]
    mask: np.ndarray

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.n_text, self.lengths))

    @cached_property
    def additive_masks(self) -> tuple[Optional[np.ndarray], ...]:
        """Per example, its additive mask row over its own rows (None: all
        attendable), built once for the encoder and the cross-attention."""
        if np.all(self.mask > 0):
            return (None,) * len(self.lengths)
        return tuple(_mask_to_additive(m) for m in _example_masks(self.mask, self.lengths))


def kg_row_tensors(emb) -> tuple[Tensor, Tensor]:
    """The (entity, relation) Tensors of an EmbeddingTable or of such a pair."""
    if isinstance(emb, EmbeddingTable):
        return Tensor(emb.entity_vecs), Tensor(emb.relation_vecs)
    ent, rel = emb
    return ent, rel


def build_augmented_input(a: AugmentedInput | Sequence[AugmentedInput], emb,
                          params: ModelParams) -> EncoderInput:
    """Per example, token rows of q, then SEP and projected KG rows per the
    variant; examples back to back.

    ``a`` is one AugmentedInput (a batch of one) or a batch of them.  ``emb``
    is an EmbeddingTable or a (entity, relation) pair of Tensors (the
    trainable path).  All token rows come from one lookup and all KG rows
    from one projection; one row gather interleaves the two.  With variant
    ``none`` an example's rows are bit-identical to a plain token-embedding
    lookup.
    """
    augs = [a] if isinstance(a, AugmentedInput) else a
    cfg = params.config
    tok_ids: list[int] = []
    ents: list[int] = []
    rels: list[int] = []
    counts: list[tuple[int, int, int]] = []  # token, entity, relation rows
    for aug in augs:
        sep = [] if aug.variant == "none" else [SEP_ID]
        tok_ids += aug.question_ids + sep
        ents += aug.input_entity_ids
        rels += aug.input_relation_ids
        counts.append((len(aug.question_ids) + len(sep), len(aug.input_entity_ids),
                       len(aug.input_relation_ids)))
    lengths = tuple(sum(c) for c in counts)
    for length in lengths:
        if length > cfg.max_len:
            raise TooLongError(f"encoder input length {length} > max_len {cfg.max_len}")
    rows = gather_rows(params["tok_emb"], tok_ids)
    if ents or rels:
        ent_t, rel_t = kg_row_tensors(emb)
        kg_in = ([gather_rows(ent_t, ents)] if ents else []) + \
            ([gather_rows(rel_t, rels)] if rels else [])
        kg_in = kg_in[0] if len(kg_in) == 1 else concat_rows(kg_in)
        types = gather_rows(params["kg_type"], [0] * len(ents) + [1] * len(rels))
        kg = add(matmul(kg_in, params["kg_proj"]), types)
        # packed row -> row of the stacked [token rows; entity rows; relation rows]
        order: list[int] = []
        t0, e0, r0 = 0, len(tok_ids), len(tok_ids) + len(ents)
        for n_tok, n_e, n_r in counts:
            order += [*range(t0, t0 + n_tok), *range(e0, e0 + n_e), *range(r0, r0 + n_r)]
            t0, e0, r0 = t0 + n_tok, e0 + n_e, r0 + n_r
        rows = gather_rows(concat_rows([rows, kg]), order)
    return EncoderInput(rows=rows, n_text=tuple(len(aug.question_ids) for aug in augs),
                        lengths=lengths, mask=np.ones(sum(lengths)))


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


def _mask_to_additive(mask: np.ndarray) -> Optional[np.ndarray]:
    """One additive row over the key columns (0 attendable, NEG_INF not),
    which broadcasts over every query row; None when all are attendable.
    A stack's [B, Lk] mask gives [B, 1, 1, Lk], one row per slice."""
    if np.all(mask > 0):
        return None
    rows = np.where(mask > 0, 0.0, NEG_INF)
    return rows if rows.ndim == 1 else rows[:, None, None]


def _block_diag(blocks: Sequence[Optional[np.ndarray]],
                shapes: Sequence[tuple[int, int]], fill) -> Optional[np.ndarray]:
    """Block i (None: zeros; a row broadcasts over its rows) of shape
    ``shapes[i]`` on the diagonal, ``fill`` elsewhere.  A lone block is
    returned as it is, so a batch of one (every decode step) uses the cached
    per-example arrays."""
    if len(blocks) == 1:
        return blocks[0]
    out = np.full((sum(r for r, _ in shapes), sum(c for _, c in shapes)), fill)
    r0 = c0 = 0
    for block, (r, c) in zip(blocks, shapes):
        out[r0:r0 + r, c0:c0 + c] = 0 if block is None else block
        r0, c0 = r0 + r, c0 + c
    return out


def _offsets(lengths: Sequence[int]) -> list[int]:
    return [0, *accumulate(lengths)]


def _streams(rng: Optional[Streams], rows: Sequence[int],
             cols: Optional[Sequence[int]] = None) -> Optional[Streams]:
    """The step's dropout draws over packed rows (and attention key
    columns); None stays None."""
    if rng is None:
        return None
    return rng.over(_offsets(rows), None if cols is None else _offsets(cols))


def _dropout_count(cfg: ModelConfig, n: int, t: int) -> int:
    """Dropout uniforms one example draws in a training forward with ``n``
    encoder and ``t`` decoder rows: per stack its input, per layer each
    attention's [H, Lq, Lk] probabilities and each residual branch."""
    d, h = cfg.d_model, cfg.n_heads
    enc = n * d + cfg.n_layers * (h * n * n + 2 * n * d)
    dec = t * d + cfg.n_layers * (h * t * t + h * t * n + 3 * t * d)
    return enc + dec


def _example_masks(mask: np.ndarray, lengths: Sequence[int]) -> list[np.ndarray]:
    offsets = _offsets(lengths)
    return [mask[..., lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def _layer(params: ModelParams, prefix: str, blocks: Sequence[str]):
    """The weights of layer ``prefix``, looked up by name once per stack
    run: its norm gains (ln1, ln2, ...), (wq, wk, wv, wo) of each attention
    block in ``blocks``, and the ffn's (w1, w2)."""
    return (tuple(params[f"{prefix}.ln{j}"] for j in range(1, len(blocks) + 2)),
            tuple(tuple(params[f"{prefix}.{b}.w{m}"] for m in "qkvo") for b in blocks),
            (params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.w2"]))


def _attention(cfg: ModelConfig, w: tuple[Tensor, ...], x: Tensor,
               bias_table: Tensor, bias_idx: np.ndarray,
               mask: Optional[np.ndarray], rng, train: bool) -> Tensor:
    """Self-attention of ``x`` through ``w`` = (wq, wk, wv, wo)."""
    wq, wk, wv, wo = w
    core = attention_core(matmul(x, wq), matmul(x, wk), matmul(x, wv), cfg.n_heads,
                          bias_table, bias_idx, mask, cfg.dropout_p, rng, train)
    return matmul(core, wo)


def _ffn(w: tuple[Tensor, Tensor], x: Tensor) -> Tensor:
    return matmul(gelu(matmul(x, w[0])), w[1])


def encode(params: ModelParams, enc_input: EncoderInput, rng: Optional[Streams],
           train: bool) -> Tensor:
    """Encoder output rows; ``rng`` is None or the step's dropout draws."""
    cfg = params.config
    segments = enc_input.segments
    lengths = [n for _, n in segments]
    shapes = [(n, n) for n in lengths]
    bias_idx = _block_diag([_bias_idx(t, n, cfg.max_len) for t, n in segments],
                           shapes, -1)
    mask = _block_diag(enc_input.additive_masks, shapes, NEG_INF)
    rng = _streams(rng, lengths)
    x = dropout(enc_input.rows, cfg.dropout_p, rng, train)
    for i in range(cfg.n_layers):
        (ln1, ln2), (attn,), ffn = _layer(params, f"enc{i}", ("attn",))
        a = _attention(cfg, attn, rms_norm(x, ln1), params["enc_rel_bias"], bias_idx,
                       mask, rng, train)
        x = add(x, dropout(a, cfg.dropout_p, rng, train))
        f = _ffn(ffn, rms_norm(x, ln2))
        x = add(x, dropout(f, cfg.dropout_p, rng, train))
    return rms_norm(x, params["enc_norm"])


class _Cross(NamedTuple):
    """What every decoder step over one encoded batch reuses: each decoder
    layer's weights (``_layer``) and cross-attention (keys, values) of the
    encoder output, and per example its encoder row count and additive mask
    row (None: all attendable)."""

    layers: list
    kv: list[tuple[Tensor, Tensor]]
    enc_lengths: tuple[int, ...]
    enc_masks: tuple[Optional[np.ndarray], ...]


def _cross(params: ModelParams, enc_out: Tensor, enc_input: EncoderInput) -> _Cross:
    """The decoder's view of one encoded batch, built once for all steps."""
    layers = [_layer(params, f"dec{i}", ("self", "cross"))
              for i in range(params.config.n_layers)]
    kv = [(matmul(enc_out, cross_w[1]), matmul(enc_out, cross_w[2]))
          for _, (_, cross_w), _ in layers]
    return _Cross(layers, kv, enc_input.lengths, enc_input.additive_masks)


def _decode_stack(params: ModelParams, decoder_ids, dec_lengths: Sequence[int],
                  cross: _Cross, rng: Optional[Streams], train: bool) -> Tensor:
    """Logits [len(decoder_ids), vocab] of the decoder stack over whole
    prefixes, attending to the encoder through ``cross``.

    ``decoder_ids`` holds each example's prefix (``dec_lengths``) back to
    back, in the order of the encoded examples; ``rng`` is None or the
    step's dropout draws.  Over a stack (``_stack``), ``decoder_ids`` is
    instead a [B, t] array of its slices' prefixes, ``dec_lengths`` is
    ``(t,)`` and the logits are [B, t, vocab].  Only what depends on the
    prefixes is built here: the relative-position index, the causal mask
    and, for a batch of several, the block-diagonal arrangement of the
    cross masks.
    """
    cfg = params.config
    self_shapes = [(t, t) for t in dec_lengths]
    cross_mask = _block_diag(cross.enc_masks, list(zip(dec_lengths, cross.enc_lengths)),
                             NEG_INF)
    dec_bias_idx = _block_diag([_bias_idx(t, t, cfg.max_len) for t in dec_lengths],
                               self_shapes, -1)
    causal = _block_diag([_causal_mask(t) for t in dec_lengths], self_shapes, NEG_INF)
    cross_rng = _streams(rng, dec_lengths, cross.enc_lengths)
    rng = _streams(rng, dec_lengths)
    y = dropout(gather_rows(params["tok_emb"], decoder_ids), cfg.dropout_p, rng, train)
    for ((ln1, ln2, ln3), (self_w, cross_w), ffn), (k, v) in zip(cross.layers, cross.kv):
        a = _attention(cfg, self_w, rms_norm(y, ln1), params["dec_rel_bias"],
                       dec_bias_idx, causal, rng, train)
        y = add(y, dropout(a, cfg.dropout_p, rng, train))
        c = attention_core(matmul(rms_norm(y, ln2), cross_w[0]), k, v, cfg.n_heads,
                           None, None, cross_mask, cfg.dropout_p, cross_rng, train)
        y = add(y, dropout(matmul(c, cross_w[3]), cfg.dropout_p, rng, train))
        f = _ffn(ffn, rms_norm(y, ln3))
        y = add(y, dropout(f, cfg.dropout_p, rng, train))
    return matmul(rms_norm(y, params["dec_norm"]), params["out_proj"])


def _check_encoder_length(params: ModelParams, enc_input: EncoderInput) -> None:
    for _, length in enc_input.segments:
        if length > params.config.max_len:
            raise TooLongError(f"encoder length {length} > max_len "
                               f"{params.config.max_len}")


def forward(params: ModelParams, enc_input: EncoderInput,
            decoder_ids, train_mode: bool, seed) -> Tensor:
    """Teacher-forced logits of a batch, the examples' rows back to back.

    ``decoder_ids`` holds one id list and ``seed`` one dropout seed per
    example of ``enc_input``; a batch of one may pass its flat id list and
    an int seed.  In train mode each example draws all dropout uniforms of
    the step from its own seed with one call (``_dropout_count`` of them),
    and every dropout site takes its blocks from those draws in the order
    the example would draw them alone, so packing changes only how sums
    round.
    """
    cfg = params.config
    id_lists, seeds = ([decoder_ids], [seed]) if np.isscalar(seed) else (decoder_ids, seed)
    if not len(id_lists) == len(seeds) == len(enc_input.segments):
        raise ValueError("need one decoder id list and one seed per example")
    for ids in id_lists:
        if not ids or ids[0] != BOS_ID:
            raise MissingBOSError("decoder_ids must start with BOS")
        if len(ids) > cfg.max_len:
            raise TooLongError(f"decoder length {len(ids)} > max_len {cfg.max_len}")
    _check_encoder_length(params, enc_input)
    rng = None
    if train_mode and cfg.dropout_p > 0.0:
        rng = Streams([np.random.default_rng(seed_seq(s, "dropout")) for s in seeds],
                      [_dropout_count(cfg, n, len(ids))
                       for (_, n), ids in zip(enc_input.segments, id_lists)],
                      1.0 - cfg.dropout_p)
    enc_out = encode(params, enc_input, rng, train_mode)
    return _decode_stack(params, [i for ids in id_lists for i in ids],
                         [len(ids) for ids in id_lists], _cross(params, enc_out, enc_input),
                         rng, train_mode)


def _stack(encs: Sequence[EncoderInput]) -> EncoderInput:
    """Single-example inputs of one segment as one stack: rows [B, L, d],
    mask [B, L]."""
    return EncoderInput(rows=Tensor(np.stack([e.rows.data for e in encs])),
                        n_text=encs[0].n_text, lengths=encs[0].lengths,
                        mask=np.stack([e.mask for e in encs]))


class DecodeBatch:
    """A window of questions that ``greedy_decode`` decodes together.

    It is built for one ``params`` (checked by identity; the weights must
    not change while it lives), one ``max_steps`` and a list of
    single-example encoder inputs, each checked here.  The first request
    decodes them all and keeps each one's ids.  Its arrays are a few
    [B, L, d] stacks per layer, so the caller bounds its size.
    """

    __slots__ = ("params", "encs", "max_steps", "ids")

    def __init__(self, params: ModelParams, encs: Sequence[EncoderInput], max_steps: int):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        for enc in encs:
            if len(enc.segments) != 1:
                raise ValueError(f"greedy decoding takes one example per encoder "
                                 f"input, got {len(enc.segments)}")
            _check_encoder_length(params, enc)
        self.params = params
        self.encs = list(encs)
        self.max_steps = max_steps
        self.ids: Optional[list[list[int]]] = None


def _decode_window(params: ModelParams, encs: Sequence[EncoderInput],
                   max_steps: int) -> list[list[int]]:
    """Greedy ids of each of ``encs``.  Inputs with equal segments form a
    group, encoded once as a stack and decoded in lockstep; a slice that
    emits EOS leaves the group's arrays."""
    groups: dict[tuple, list[int]] = {}
    for i, enc in enumerate(encs):
        groups.setdefault(enc.segments, []).append(i)
    out: list[list[int]] = [[] for _ in encs]
    for members in groups.values():
        stack = _stack([encs[i] for i in members])
        cross = _cross(params, encode(params, stack, None, False), stack)
        ids = np.full((len(members), 1), BOS_ID)
        for _ in range(max_steps):
            logits = _decode_stack(params, ids, (ids.shape[1],), cross, None, False)
            nxt = logits.data[:, -1].argmax(axis=-1)
            going = nxt != EOS_ID
            if not going.all():
                if not going.any():
                    break
                members = [i for i, g in zip(members, going) if g]
                ids, nxt = ids[going], nxt[going]
                cross = cross._replace(
                    kv=[(Tensor(k.data[going]), Tensor(v.data[going])) for k, v in cross.kv],
                    enc_masks=tuple(m if m is None else m[going] for m in cross.enc_masks))
            for i, tok in zip(members, nxt.tolist()):
                out[i].append(tok)
            ids = np.concatenate((ids, nxt[:, None]), axis=1)
            if ids.shape[1] >= params.config.max_len:
                break
    return out


def greedy_decode(params: ModelParams, enc_input: EncoderInput, max_steps: int,
                  batch: Optional[DecodeBatch] = None) -> list[int]:
    """Argmax decoding from BOS; stops at EOS, at max_steps or at max_len.

    ``enc_input`` holds one example.  Returns the generated ids without
    BOS/EOS.  Ties resolve to the lowest token id.

    The first request to ``batch`` decodes its whole window, and every
    request returns its own question's ids.  With no batch the question
    decodes as a window of one.  A batch built for other params or another
    ``max_steps``, or one that does not hold ``enc_input`` (by identity),
    raises ``DecodeBatchMismatchError`` before anything is decoded.

    Within a window, questions with equal encoder segments (text rows,
    total rows) run as one stack: encoder rows [B, L, d], decoder prefixes
    [B, t].  Per group: the encoder pass, and in ``_cross`` each decoder
    layer's weights and cross-attention keys and values.  Per step:
    ``_decode_stack`` over the whole prefixes, which adds only the
    prefix-length relative-position index and causal mask (both cached by
    length).  Every slice of a stacked op runs the 2-D call of its question
    alone, so each step's logits equal, bit for bit, those of ``forward``
    in eval mode.  For the same reason a step recomputes the whole prefix:
    a single-row matmul is not bit-equal to the same row of a multi-row
    one, and stacking questions of different shapes (padding) or
    flattening a stack into rows would not be either.  Decoding runs with
    no tape: under one the stacked ops raise ``ShapeMismatchError``.
    """
    if batch is None:
        batch = DecodeBatch(params, [enc_input], max_steps)
    if batch.params is not params:
        raise DecodeBatchMismatchError("the decode batch was built for other params")
    if batch.max_steps != max_steps:
        raise DecodeBatchMismatchError(f"the decode batch runs {batch.max_steps} steps, "
                                       f"not {max_steps}")
    pos = next((i for i, enc in enumerate(batch.encs) if enc is enc_input), None)
    if pos is None:
        raise DecodeBatchMismatchError("enc_input is not in the decode batch")
    if batch.ids is None:
        batch.ids = _decode_window(params, batch.encs, max_steps)
    return list(batch.ids[pos])
