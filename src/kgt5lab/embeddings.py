"""Translational knowledge-graph embeddings and the cosine-similarity primitive.

Triples (h, r, t) are scored by ``||v_h + e_r - v_t||_2`` (lower is more
plausible) and trained with a margin-ranking hinge against uniformly
corrupted negatives, plain SGD, entity rows renormalized to unit L2 norm
after each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, atomic_write, undecodable_line

MAX_UINT64 = 2**64 - 1
LINK_PREDICTION_BLOCK = 32  # triples ranked per matmul in link_prediction_eval


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
    head, 1 the tail; only their first ``len(order)`` rows are read).  Each
    active pair contributes a full lr-scaled subgradient; updates are
    accumulated within a batch and applied at its end.

    The index work reads no table, so it is done once per epoch: ``ids``
    [2, 1+K, T] holds, in visiting order, the heads (side 0) and tails
    (side 1) of the positive (set 0) and of each negative.  A batch gathers
    all its entity rows with one ``take`` and forms the 1+K distance sets
    as one [1+K, b, d] array.  Its touched entity rows are the ids it marks
    in a reusable boolean table; ``flatnonzero`` lists them sorted and a
    slot table maps each to its gradient row.  That scan is O(|V|) per
    batch, yet cheaper than sorting the batch's ids on graphs up to the
    5.5k entities of the benchmark's largest.  One ``np.bincount`` sums the entity and relation
    gradients, relation rows offset past the touched slots and the terms
    of inactive pairs sent to one spare row after them.  It adds in input
    order starting from zero, and each cell receives its values in the
    order a zeroed full-table buffer would (per negative: head ``+up``,
    tail ``-up``, corrupt head ``-un``, corrupt tail ``+un``, relation
    ``up - un``), so tables and loss are the same bit for bit.
    """
    n = order.shape[0]
    k = neg_sides.shape[1]
    n_ent, d = ent.shape
    n_rel = rel.shape[0]
    tiny = 1e-12
    h, r, t = heads[order], rels[order], tails[order]
    corrupt_head = neg_sides[:n] == 0
    corrupt = neg_entities[:n]
    ids = np.empty((2, 1 + k, n), dtype=np.int64)
    ids[0, 0], ids[1, 0] = h, t
    ids[0, 1:] = np.where(corrupt_head, corrupt, h[:, None]).T
    ids[1, 1:] = np.where(corrupt_head, t[:, None], corrupt).T
    # gradient cells are flat, row * d + column.  A batch's ``cell`` holds
    # the first cell of each id's slot (rows in ``ids`` set order) and of
    # each relation's row; ``terms`` picks, per negative, the ``cell`` rows
    # of its head, tail, corrupt head, corrupt tail and relation terms.
    terms = np.array([[0, 1 + k, 1 + kk, 2 + k + kk, 2 + 2 * k] for kk in range(k)])
    mark = np.zeros(n_ent, dtype=bool)
    slot_cell = np.empty(n_ent, dtype=np.int64)
    first_cells = np.arange(0, 2 * (1 + k) * min(batch_size, n) * d, d)
    cols = np.arange(d)
    loss_sum = 0.0
    for b0 in range(0, n, batch_size):
        batch = slice(b0, b0 + batch_size)
        ids_b = ids[:, :, batch]
        r_b = r[batch]
        b = r_b.shape[0]
        diff, tail_rows = ent.take(ids_b, axis=0)  # each [1+K, b, d]
        diff += rel.take(r_b, axis=0)
        diff -= tail_rows
        sq = np.multiply(diff, diff, out=tail_rows)
        dist = np.sqrt(np.add.reduce(sq, axis=2))  # [1+K, b]
        hinge = margin + dist[0] - dist[1:]
        active = hinge > 0.0
        if not active.any():  # no active pair: the batch changes nothing
            continue
        for hinge_k, active_k in zip(hinge, active):
            loss_sum += float(np.add.reduce(hinge_k[active_k]))
        denom = np.maximum(dist, tiny)[:, :, None]
        vals = np.empty((k, 5, b, d))  # per negative: +up, -up, -un, +un, up - un
        np.divide(diff[0], denom[0], out=vals[:, 0])
        np.divide(diff[1:], denom[1:], out=vals[:, 3])
        np.negative(vals[:, 0], out=vals[:, 1])
        np.negative(vals[:, 3], out=vals[:, 2])
        np.subtract(vals[:, 0], vals[:, 3], out=vals[:, 4])
        mark[ids_b] = True
        touched = np.flatnonzero(mark)
        mark[touched] = False
        n_t = touched.shape[0]
        slot_cell[touched] = first_cells[:n_t]
        n_rows = n_t + n_rel
        cell = np.empty((3 + 2 * k, b), dtype=np.int64)
        slot_cell.take(ids_b.reshape(-1, b), out=cell[:-1])
        cell[-1] = (r_b + n_t) * d
        start = np.where(active[:, None], cell.take(terms, axis=0), n_rows * d)
        grad = np.bincount((start[..., None] + cols).ravel(), weights=vals.ravel(),
                           minlength=(n_rows + 1) * d)
        step = lr * grad[:n_rows * d].reshape(n_rows, d)
        new = ent.take(touched, axis=0)
        new -= step[:n_t]
        ent[touched] = new
        rel -= step[n_t:]
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
    block screens every entity by ``a = ||e||^2 - 2 x.e``, which is the
    squared distance minus ``||x||^2``.  Per row, with ``q_t`` the true
    tail's exactly computed ``sum((x - e_t)**2)``, ``base = q_t - x_sq`` and
    ``T = 4 (d + 2) eps (x_sq + M) + tiny`` (``M = max ||e||^2``), entities
    with ``a < base - T`` are counted closer and those with
    ``a > base + T`` farther.  The rest form the band; a row whose band
    holds only the true tail ranks ``1 + closer``, and the other rows
    re-score their band with the exact formula and the id tie-break, so
    every rank equals a per-triple scan's, bit for bit.

    Why the counts are exact, with ``u = eps / 2``, ``S = ||x||^2 + M``
    and terms of order ``u^2`` dropped:

    * *Screen error.*  ``a`` is off ``||e||^2 - 2 x.e`` by at most
      ``d u S`` for the dot product in any BLAS order, ``d u ||e||^2`` for
      ``||e||^2`` and ``u (||x||^2 + 2 ||e||^2)`` for the final addition.
      ``base`` is rounded once per row: ``x_sq`` is off by ``d u ||x||^2``
      and, as ``q_t <= 2 (||x||^2 + ||e_t||^2)``, the subtraction by
      ``u (||x||^2 + 2 M)``.  Subtracting or adding ``T`` rounds once more,
      by ``u (||x||^2 + 2 M)``.  In all, ``(2d + 6) u S``, within ``T / 2 =
      (4d + 8) u S``.  The bound is against ``q_t`` itself, not the exact
      distance, because ``q_t`` is what the re-score compares.
    * *Separation.*  An entity counted closer thus has an exact squared
      distance below ``q_t`` by more than ``T - (2d + 6) u S``.  Its exact
      ``sum((x - e)**2)`` rounds by at most ``(d + 2) u`` relative, at most
      ``(2d + 4) u S``, and square roots rounded to nearest stay strictly
      ordered once the squares differ by ``4 u q_t <= 8 u S``.  The
      ``(4d + 18) u S`` needed in all fits in ``T = (8d + 16) u S`` for
      every ``d >= 1``; the farther side is symmetric.  The true tail's own
      ``a`` lies within ``(4d + 8) u S`` of ``base`` and rounding the
      thresholds adds at most ``2 u S``, so it is never counted: it is
      always in the band.
    * *Underflow.*  Errors in underflowed products are absolute, not
      relative; ``tiny``, the smallest normal double, covers them.
    * *Overflow.*  ``T`` is formed as ``(x_sq + M) * 4`` times ``(d + 2)
      eps``; the ``* 4`` is exact unless it overflows, so ``T`` is infinite
      exactly when ``x_sq + M`` exceeds a quarter of the largest double.
      Below that, no screen entry, ``base`` or squared distance (each at
      most ``2 S``) overflows, so a finite ``T`` comes with a finite,
      NaN-free screen.  An infinite ``T`` makes ``base - T`` minus infinity
      or NaN and ``base + T`` infinity or NaN, which count no entity, so
      such a row re-scores every entity.  A NaN screen entry lands in
      neither count for the same reason and falls in the band.
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
    ent_sq_max = ent_sq.max()
    tol_scale = (emb.dim + 2) * np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny
    n_ent = ent.shape[0]
    ranks = np.empty(len(tails), dtype=np.float64)
    for b0 in range(0, len(tails), LINK_PREDICTION_BLOCK):
        block = slice(b0, b0 + LINK_PREDICTION_BLOCK)
        x = ent[heads[block]] + rel[rels[block]]
        tail = tails[block]
        true_sq = _sq_dists(x, ent[tail])
        x_sq = np.sum(x * x, axis=1)
        base = true_sq - x_sq
        # the exact * 4 comes first, so T is inf once x_sq + M > max / 4
        thresh = (x_sq + ent_sq_max) * 4.0 * tol_scale + tiny
        lo = (base - thresh)[:, None]
        hi = (base + thresh)[:, None]
        a = (-2.0 * x) @ ent.T  # [block, |V|]; scaling by -2 is exact
        a += ent_sq
        # counting row by row skips the intp cast that axis=1 makes
        closer = np.array([np.count_nonzero(r) for r in a < lo])
        band = n_ent - closer - [np.count_nonzero(r) for r in a > hi]
        ranks[block] = 1 + closer
        wide = np.flatnonzero(band > 1)
        if wide.size == 0:
            continue
        aw = a[wide]
        row, col = np.nonzero(~((aw < lo[wide]) | (aw > hi[wide])))
        dists = np.sqrt(_sq_dists(x[wide[row]], ent[col]))
        s_true = np.sqrt(true_sq[wide[row]])
        wins = (dists < s_true) | ((dists == s_true) & (col < tail[wide[row]]))
        ranks[b0 + wide] += np.bincount(row[wins], minlength=wide.size)
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
    row_fmt = " ".join(["%.17g"] * emb.dim)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(f"kge-v1 {emb.dim} {len(entity_names)} {len(relation_names)}\n")
        for tag, names, vecs in (("E", entity_names, emb.entity_vecs),
                                 ("R", relation_names, emb.relation_vecs)):
            fh.writelines(f"{tag}\t{name}\t{row_fmt % tuple(row.tolist())}\n"
                          for name, row in zip(names, vecs))


def load_embeddings(path) -> tuple[EmbeddingTable, list[str], list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise FormatError(undecodable_line(path), "not UTF-8") from None
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

    # a row of d values holds at least d - 1 spaces, whatever its name, so
    # nothing sized by d is allocated before the file could hold it
    for lineno, line in enumerate(lines[1:], 2):
        if line.count(" ") < d - 1:
            raise FormatError(lineno, f"expected {d} values")
    try:
        ent_rows, rel_rows = np.empty((n_ent, d)), np.empty((n_rel, d))
    except ValueError:  # no rows, and d is too large for an array dimension
        raise FormatError(1, f"dimension {d} out of range") from None
    ent_names, rel_names = [], []
    for i in range(n_ent):
        name, row = parse_row(2 + i, "E")
        ent_names.append(name)
        ent_rows[i] = row
    for i in range(n_rel):
        name, row = parse_row(2 + n_ent + i, "R")
        rel_names.append(name)
        rel_rows[i] = row
    try:
        return EmbeddingTable(d, ent_rows, rel_rows), ent_names, rel_names
    except ValueError:  # the rows have the header's shape, so a value is not finite
        finite = np.isfinite(np.concatenate([ent_rows, rel_rows])).all(axis=1)
        raise FormatError(2 + int(np.argmin(finite)), "non-finite value") from None
