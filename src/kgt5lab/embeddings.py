"""Translational knowledge-graph embeddings and the cosine-similarity primitive.

Triples (h, r, t) are scored by ``||v_h + e_r - v_t||_2`` (lower is more
plausible) and trained with a margin-ranking hinge against uniformly
corrupted negatives, plain SGD, entity rows renormalized to unit L2 norm
after each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, Triple

MAX_UINT64 = 2**64 - 1
LINK_PREDICTION_BLOCK = 16  # triples ranked per matmul in link_prediction_eval


class EmptyGraphError(ValueError):
    pass


class UnknownIdError(LookupError):
    pass


class ZeroVectorError(ValueError):
    """A zero-norm vector reached cosine similarity (degenerate embedding)."""


class FormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def seed_seq(*parts) -> np.random.SeedSequence:
    """Deterministic SeedSequence from mixed int/str parts."""
    ints = []
    for p in parts:
        if isinstance(p, str):
            ints.append(int.from_bytes(p.encode("utf-8"), "little") & MAX_UINT64)
        else:
            ints.append(int(p) & MAX_UINT64)
    return np.random.SeedSequence(ints)


@dataclass
class TransEConfig:
    margin: float = 1.0
    learning_rate: float = 0.01
    negatives_per_positive: int = 1
    epochs: int = 100
    batch_size: int = 128
    seed: int = 0
    init_scale: float = 6.0

    def __post_init__(self):
        if self.margin <= 0 or self.learning_rate <= 0 or self.init_scale <= 0:
            raise ValueError("margin, learning_rate and init_scale must be positive")
        if self.negatives_per_positive < 1 or self.batch_size < 1:
            raise ValueError("negatives_per_positive and batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class EmbeddingTable:
    """Per-entity and per-relation d-dimensional float64 vectors."""

    dim: int
    entity_vecs: np.ndarray  # [|V|, d]
    relation_vecs: np.ndarray  # [|R|, d]

    def __post_init__(self):
        self.entity_vecs = np.asarray(self.entity_vecs, dtype=np.float64)
        self.relation_vecs = np.asarray(self.relation_vecs, dtype=np.float64)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.entity_vecs.ndim != 2 or self.entity_vecs.shape[1] != self.dim:
            raise ValueError("entity_vecs must be [n, dim]")
        if self.relation_vecs.ndim != 2 or self.relation_vecs.shape[1] != self.dim:
            raise ValueError("relation_vecs must be [n, dim]")
        if not (np.all(np.isfinite(self.entity_vecs)) and np.all(np.isfinite(self.relation_vecs))):
            raise ValueError("embedding values must be finite")

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.dim, self.entity_vecs.copy(), self.relation_vecs.copy())


def init_embeddings(g: KnowledgeGraph, d: int, seed: int,
                    init_scale: float = 6.0) -> EmbeddingTable:
    """Uniform init in [-init_scale/sqrt(d), +init_scale/sqrt(d)], seeded."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if g.n_entities == 0:
        raise EmptyGraphError("graph has no entities")
    bound = init_scale / np.sqrt(d)
    rng = np.random.default_rng(seed_seq(seed))
    ent = rng.uniform(-bound, bound, size=(g.n_entities, d))
    rel = rng.uniform(-bound, bound, size=(g.n_relations, d))
    return EmbeddingTable(d, ent, rel)


def transe_score(emb: EmbeddingTable, t: Triple) -> float:
    """||v_head + e_rel - v_tail||_2; lower means more plausible."""
    if not (0 <= t.head < emb.entity_vecs.shape[0]
            and 0 <= t.tail < emb.entity_vecs.shape[0]
            and 0 <= t.relation < emb.relation_vecs.shape[0]):
        raise UnknownIdError(t)
    diff = emb.entity_vecs[t.head] + emb.relation_vecs[t.relation] - emb.entity_vecs[t.tail]
    return float(np.linalg.norm(diff))


def _triple_arrays(g: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's heads, relations and tails as int64 arrays in triple order."""
    heads = np.array([t.head for t in g.triples], dtype=np.int64)
    rels = np.array([t.relation for t in g.triples], dtype=np.int64)
    tails = np.array([t.tail for t in g.triples], dtype=np.int64)
    return heads, rels, tails


def _transe_epoch(ent, rel, heads, rels, tails, order, neg_sides, neg_entities,
                  margin, lr, batch_size) -> float:
    """Run one shuffled epoch of hinge-loss SGD in place; returns the summed loss.

    ``order`` is the visiting permutation; ``neg_sides``/``neg_entities`` are
    [T, K] arrays aligned to positions in ``order`` (side 0 corrupts the
    head, 1 the tail).  Each active pair contributes a full lr-scaled
    subgradient; updates are accumulated within a batch and applied at its end.
    """
    n = order.shape[0]
    k = neg_sides.shape[1]
    tiny = 1e-12
    loss_sum = 0.0
    for b0 in range(0, n, batch_size):
        idx = order[b0:b0 + batch_size]
        b = idx.shape[0]
        h, r, t = heads[idx], rels[idx], tails[idx]
        pos_diff = ent[h] + rel[r] - ent[t]
        d_pos = np.sqrt(np.sum(pos_diff * pos_diff, axis=1))
        u_pos = pos_diff / np.maximum(d_pos, tiny)[:, None]
        g_ent = np.zeros_like(ent)
        g_rel = np.zeros_like(rel)
        for kk in range(k):
            side = neg_sides[b0:b0 + b, kk]
            corrupt = neg_entities[b0:b0 + b, kk]
            h_neg = np.where(side == 0, corrupt, h)
            t_neg = np.where(side == 0, t, corrupt)
            neg_diff = ent[h_neg] + rel[r] - ent[t_neg]
            d_neg = np.sqrt(np.sum(neg_diff * neg_diff, axis=1))
            hinge = margin + d_pos - d_neg
            active = hinge > 0.0
            if not np.any(active):
                continue
            loss_sum += float(np.sum(hinge[active]))
            u_neg = neg_diff / np.maximum(d_neg, tiny)[:, None]
            up = u_pos[active]
            un = u_neg[active]
            np.add.at(g_ent, h[active], up)
            np.add.at(g_rel, r[active], up - un)
            np.add.at(g_ent, t[active], -up)
            np.add.at(g_ent, h_neg[active], -un)
            np.add.at(g_ent, t_neg[active], un)
        ent -= lr * g_ent
        rel -= lr * g_rel
    return loss_sum


def train_kg_embeddings(g: KnowledgeGraph, cfg: TransEConfig,
                        d: int) -> tuple[EmbeddingTable, list[float]]:
    """Margin-ranking SGD with uniform head/tail corruption.

    Returns the trained table and one mean-hinge entry per epoch.  Fully
    deterministic in ``cfg.seed``.
    """
    if len(g.triples) == 0:
        raise EmptyGraphError("graph has no triples")
    emb = init_embeddings(g, d, cfg.seed, cfg.init_scale)
    heads, rels, tails = _triple_arrays(g)
    n = len(g.triples)
    k = cfg.negatives_per_positive
    rng = np.random.default_rng(seed_seq(cfg.seed, "transe-train"))
    trace: list[float] = []
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n).astype(np.int64)
        sides = rng.integers(0, 2, size=(n, k), dtype=np.int64)
        corrupts = rng.integers(0, g.n_entities, size=(n, k), dtype=np.int64)
        loss_sum = _transe_epoch(
            emb.entity_vecs, emb.relation_vecs, heads, rels, tails,
            order, sides, corrupts, cfg.margin, cfg.learning_rate, cfg.batch_size)
        norms = np.linalg.norm(emb.entity_vecs, axis=1, keepdims=True)
        emb.entity_vecs /= np.maximum(norms, 1e-12)
        trace.append(loss_sum / (n * k))
    return emb, trace


def cosine_sim(v: np.ndarray, e: np.ndarray) -> float:
    """(v . e) / (||v|| ||e||); raises ZeroVectorError on a zero norm."""
    v = np.asarray(v, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    nv = float(np.linalg.norm(v))
    ne = float(np.linalg.norm(e))
    if nv == 0.0 or ne == 0.0:
        raise ZeroVectorError("cosine similarity of a zero vector")
    return float(np.dot(v, e) / (nv * ne))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``sum((a - b)**2)``, the squared distance ranking compares."""
    diff = a - b
    return np.sum(diff * diff, axis=1)


def link_prediction_eval(emb: EmbeddingTable, g: KnowledgeGraph,
                         k: int) -> tuple[float, float]:
    """Raw tail ranking over all entities; returns (hits@k, mean rank).

    A triple's rank is 1 plus the number of entities whose distance
    ``sqrt(sum((x - e)**2))`` to ``x = v_h + e_r`` is below the true tail's;
    ties are broken by entity id ascending.

    Triples are ranked ``LINK_PREDICTION_BLOCK`` at a time.  One matmul per
    block screens every entity by ``||x||^2 - 2 x.e + ||e||^2``.  Whatever
    order the BLAS sums in, the screen and the exactly computed
    ``sum((x - e)**2)`` differ by at most ``(4d + 9) u (||x||^2 + ||e||^2)``
    with ``u = eps / 2``, well inside ``tol = 4 (d + 2) eps (||x||^2 +
    ||e||^2)``; ``tol`` also gets the smallest normal double added, because
    errors in underflowed products are absolute, not relative.  An entity
    screened below the true tail's exact squared distance by more than
    ``tol`` is therefore closer, and one screened above it by more than
    ``tol`` is farther, by a gap that still separates the rounded square
    roots.  Only the entities inside that band (the true tail, exact ties
    and near-ties) are re-scored with the exact formula and the id
    tie-break, so every rank equals a per-triple scan's, bit for bit.
    """
    if len(g.triples) == 0:
        raise EmptyGraphError("graph has no triples")
    ent, rel = emb.entity_vecs, emb.relation_vecs
    if ent.shape[0] != g.n_entities or rel.shape[0] != g.n_relations:
        raise UnknownIdError(
            f"table has {ent.shape[0]} entity and {rel.shape[0]} relation rows, "
            f"graph has {g.n_entities} entities and {g.n_relations} relations")
    heads, rels, tails = _triple_arrays(g)
    ent_sq = np.sum(ent * ent, axis=1)
    tol_scale = 4 * (emb.dim + 2) * np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny
    ranks = np.empty(len(tails), dtype=np.float64)
    for b0 in range(0, len(tails), LINK_PREDICTION_BLOCK):
        block = slice(b0, b0 + LINK_PREDICTION_BLOCK)
        x = ent[heads[block]] + rel[rels[block]]
        tail = tails[block]
        true_sq = _sq_dists(x, ent[tail])
        x_sq = np.sum(x * x, axis=1)
        # screened minus true squared distance, [block, |V|]
        margin = x @ ent.T
        margin *= -2.0
        margin += x_sq[:, None]
        margin += ent_sq
        margin -= true_sq[:, None]
        tol = x_sq[:, None] + ent_sq
        tol *= tol_scale
        tol += tiny
        closer = np.count_nonzero(margin < -tol, axis=1)
        # NaN or inf margins land in the band and are re-scored exactly
        row, col = np.nonzero(~(np.abs(margin) > tol))
        dists = np.sqrt(_sq_dists(x[row], ent[col]))
        s_true = np.sqrt(true_sq)[row]
        wins = (dists < s_true) | ((dists == s_true) & (col < tail[row]))
        ranks[block] = 1 + closer + np.bincount(row[wins], minlength=len(tail))
    hits = float(np.mean(ranks <= k))
    return hits, float(np.mean(ranks))


# --- embedding file format -------------------------------------------------
# header: `kge-v1 <d> <num_entities> <num_relations>`
# then one line per entity `E<TAB>name<TAB>f1 ... fd`, then per relation with
# tag `R`; floats printed with 17 significant digits for bit-exact round-trip.

def save_embeddings(emb: EmbeddingTable, entity_names, relation_names, path) -> None:
    if len(entity_names) != emb.entity_vecs.shape[0]:
        raise ValueError("entity name count does not match table")
    if len(relation_names) != emb.relation_vecs.shape[0]:
        raise ValueError("relation name count does not match table")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kge-v1 {emb.dim} {len(entity_names)} {len(relation_names)}\n")
        for name, row in zip(entity_names, emb.entity_vecs):
            fh.write("E\t" + name + "\t" + " ".join(f"{x:.17g}" for x in row) + "\n")
        for name, row in zip(relation_names, emb.relation_vecs):
            fh.write("R\t" + name + "\t" + " ".join(f"{x:.17g}" for x in row) + "\n")


def load_embeddings(path) -> tuple[EmbeddingTable, list[str], list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(1, "empty file")
    header = lines[0].split(" ")
    if len(header) != 4 or header[0] != "kge-v1":
        raise FormatError(1, "bad header, expected 'kge-v1 <d> <|V|> <|R|>'")
    try:
        d, n_ent, n_rel = (int(x) for x in header[1:])
    except ValueError:
        raise FormatError(1, "non-integer header field") from None
    if d < 1 or n_ent < 0 or n_rel < 0:
        raise FormatError(1, "header counts out of range")
    if len(lines) - 1 != n_ent + n_rel:
        raise FormatError(len(lines), f"expected {n_ent + n_rel} rows, found {len(lines) - 1}")

    def parse_row(lineno: int, expect_tag: str) -> tuple[str, np.ndarray]:
        fields = lines[lineno - 1].split("\t")
        if len(fields) != 3:
            raise FormatError(lineno, "expected 3 tab-separated fields")
        tag, name, values = fields
        if tag != expect_tag:
            raise FormatError(lineno, f"expected tag {expect_tag}, got {tag!r}")
        parts = values.split(" ")
        if len(parts) != d:
            raise FormatError(lineno, f"expected {d} values, got {len(parts)}")
        try:
            row = np.array([float(x) for x in parts], dtype=np.float64)
        except ValueError:
            raise FormatError(lineno, "non-numeric value") from None
        return name, row

    ent_names, rel_names = [], []
    ent_rows = np.empty((n_ent, d))
    rel_rows = np.empty((n_rel, d))
    for i in range(n_ent):
        name, row = parse_row(2 + i, "E")
        ent_names.append(name)
        ent_rows[i] = row
    for i in range(n_rel):
        name, row = parse_row(2 + n_ent + i, "R")
        rel_names.append(name)
        rel_rows[i] = row
    return EmbeddingTable(d, ent_rows, rel_rows), ent_names, rel_names
