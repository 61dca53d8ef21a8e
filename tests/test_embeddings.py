"""KG embedding pre-training and cosine-similarity tests."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgt5lab import embeddings
from kgt5lab.embeddings import (LINK_PREDICTION_BLOCK, EmbeddingTable,
                                EmptyGraphError, FormatError, TransEConfig,
                                UnknownIdError, ZeroVectorError, cosine_sim,
                                init_embeddings, link_prediction_eval,
                                load_embeddings, save_embeddings,
                                train_kg_embeddings)
from kgt5lab.kg import (KnowledgeGraph, Triple, from_named_triples,
                        subgraph_fraction)


def chain_graph(n_entities=50, n_relations=2):
    named = [(f"e{i}", f"r{i % n_relations}", f"e{(i + 1) % n_entities}")
             for i in range(n_entities)]
    g, _ = from_named_triples(named)
    return g


class TestInitEmbeddings:
    def test_shapes_and_bounds(self):
        g, _ = from_named_triples([("a", "r", "b"), ("b", "s", "c")])
        emb = init_embeddings(g, d=4, seed=1)
        assert emb.entity_vecs.shape == (3, 4)
        assert emb.relation_vecs.shape == (2, 4)
        bound = 6.0 / math.sqrt(4)
        assert np.all(np.abs(emb.entity_vecs) <= bound)
        assert np.all(np.abs(emb.relation_vecs) <= bound)

    def test_deterministic(self):
        g = chain_graph(10)
        a = init_embeddings(g, d=8, seed=42)
        b = init_embeddings(g, d=8, seed=42)
        assert np.array_equal(a.entity_vecs, b.entity_vecs)
        assert np.array_equal(a.relation_vecs, b.relation_vecs)

    def test_empty_graph(self):
        g = KnowledgeGraph([], [], [])
        with pytest.raises(EmptyGraphError):
            init_embeddings(g, d=4, seed=1)


class TestCosineSim:
    def test_identical_direction(self):
        assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # 32 / (sqrt(14) * sqrt(77)), computed independently
        expected = (1 * 4 + 2 * 5 + 3 * 6) / (math.sqrt(14) * math.sqrt(77))
        got = cosine_sim([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.97463185, abs=1e-8)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            cosine_sim([1.0, 0.0], [0.0, 0.0])

    def test_property_suite_seeded_pairs(self):
        # self-similarity, symmetry, scale laws, range (spec tolerances)
        rng = np.random.default_rng(1234)
        for _ in range(200):
            d = int(rng.integers(1, 16))
            v = rng.normal(size=d)
            e = rng.normal(size=d)
            if np.linalg.norm(v) == 0 or np.linalg.norm(e) == 0:
                continue
            c = cosine_sim(v, e)
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
            assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)
            assert cosine_sim(e, v) == pytest.approx(c, abs=1e-12)
            alpha = float(rng.uniform(0.1, 10.0))
            assert cosine_sim(alpha * v, e) == pytest.approx(c, abs=1e-12)
            assert cosine_sim(-alpha * v, e) == pytest.approx(-c, abs=1e-12)


class TestTrainKgEmbeddings:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["margin", "learning_rate", "init_scale"])
    def test_config_rejects_non_finite_values(self, name, value):
        # an infinite rate or margin trained to NaN rows that ranked every
        # test triple first
        with pytest.raises(ValueError, match="must be finite and positive"):
            TransEConfig(**{name: value})

    def test_loss_decreases_on_chain(self):
        g = chain_graph(50, 2)
        cfg = TransEConfig(epochs=50, seed=3)
        emb, trace = train_kg_embeddings(g, cfg, d=16)
        assert len(trace) == 50
        assert trace[-1] < trace[0]

    def test_zero_epochs_equals_init(self):
        g = chain_graph(12)
        cfg = TransEConfig(epochs=0, seed=5)
        emb, trace = train_kg_embeddings(g, cfg, d=8)
        init = init_embeddings(g, d=8, seed=5, init_scale=cfg.init_scale)
        assert trace == []
        assert np.array_equal(emb.entity_vecs, init.entity_vecs)
        assert np.array_equal(emb.relation_vecs, init.relation_vecs)

    def test_deterministic(self):
        g = chain_graph(20)
        cfg = TransEConfig(epochs=5, seed=9)
        a, ta = train_kg_embeddings(g, cfg, d=8)
        b, tb = train_kg_embeddings(g, cfg, d=8)
        assert np.array_equal(a.entity_vecs, b.entity_vecs)
        assert np.array_equal(a.relation_vecs, b.relation_vecs)
        assert ta == tb

    def test_self_loop_triples(self):
        # a self-loop's head and tail share one row, so its gradient rows
        # land on the same entity twice in a batch
        named = [(f"e{i}", "same_as", f"e{i}") for i in range(6)]
        named += [(f"e{i}", "next", f"e{(i + 1) % 6}") for i in range(6)]
        g, _ = from_named_triples(named)
        cfg = TransEConfig(epochs=5, seed=4, batch_size=4, negatives_per_positive=2)
        a, ta = train_kg_embeddings(g, cfg, d=8)
        b, tb = train_kg_embeddings(g, cfg, d=8)
        assert all(math.isfinite(x) for x in ta)
        norms = np.linalg.norm(a.entity_vecs, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)
        assert ta == tb
        assert np.array_equal(a.entity_vecs, b.entity_vecs)
        assert np.array_equal(a.relation_vecs, b.relation_vecs)

    def test_entity_rows_unit_norm_after_training(self):
        g = chain_graph(20)
        emb, _ = train_kg_embeddings(g, TransEConfig(epochs=3, seed=1), d=8)
        norms = np.linalg.norm(emb.entity_vecs, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_empty_graph(self):
        g = KnowledgeGraph(["a"], [], [])
        with pytest.raises(EmptyGraphError):
            train_kg_embeddings(g, TransEConfig(), d=4)

    def test_trained_beats_random_on_seeded_kg(self):
        g = seeded_kg_50()
        wins = 0
        for seed in range(5):
            cfg = TransEConfig(epochs=100, learning_rate=0.05, batch_size=32,
                               seed=seed)
            trained, _ = train_kg_embeddings(g, cfg, d=16)
            init = init_embeddings(g, d=16, seed=seed, init_scale=cfg.init_scale)
            hits_trained, _ = link_prediction_eval(trained, g, k=10)
            hits_init, _ = link_prediction_eval(init, g, k=10)
            wins += int(hits_trained > hits_init)
        assert wins >= 4


def reference_transe_epoch(ent, rel, heads, rels, tails, order, neg_sides,
                           neg_entities, margin, lr, batch_size):
    """Full-table epoch: zeroed [|V|, d] gradient buffer per batch, applied to
    every entity row."""
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


class TestTouchedRowUpdate:
    """The epoch updates only the entity rows a batch touches; tables and
    hinge traces must equal the full-table update's byte for byte."""

    def train_both(self, monkeypatch, g, cfg, d=8):
        fast = train_kg_embeddings(g, cfg, d)
        monkeypatch.setattr(embeddings, "_transe_epoch", reference_transe_epoch)
        slow = train_kg_embeddings(g, cfg, d)
        monkeypatch.undo()
        return fast, slow

    def check(self, monkeypatch, g, cfg, d=8):
        (a, ta), (b, tb) = self.train_both(monkeypatch, g, cfg, d)
        assert a.entity_vecs.tobytes() == b.entity_vecs.tobytes()
        assert a.relation_vecs.tobytes() == b.relation_vecs.tobytes()
        assert np.array(ta).tobytes() == np.array(tb).tobytes()

    @staticmethod
    def check_epoch(ent, rel, args, reference_args=None):
        """One epoch of each from copies of the tables: equal loss and table
        bytes; returns the loss."""
        ent_a, rel_a, ent_b, rel_b = ent.copy(), rel.copy(), ent.copy(), rel.copy()
        loss = embeddings._transe_epoch(ent_a, rel_a, *args)
        loss_b = reference_transe_epoch(ent_b, rel_b, *(reference_args or args))
        assert np.float64(loss).tobytes() == np.float64(loss_b).tobytes()
        assert ent_a.tobytes() == ent_b.tobytes()
        assert rel_a.tobytes() == rel_b.tobytes()
        return loss

    @pytest.mark.parametrize("k", [1, 2])
    def test_seeded_kg(self, monkeypatch, k):
        cfg = TransEConfig(epochs=8, seed=2, batch_size=32, negatives_per_positive=k)
        self.check(monkeypatch, seeded_kg_50(), cfg, d=16)

    def test_self_loops_with_two_negatives(self, monkeypatch):
        named = [(f"e{i}", "same_as", f"e{i}") for i in range(6)]
        named += [(f"e{i}", "next", f"e{(i + 1) % 6}") for i in range(6)]
        g, _ = from_named_triples(named)
        cfg = TransEConfig(epochs=6, seed=4, batch_size=4, negatives_per_positive=2)
        self.check(monkeypatch, g, cfg)

    def test_entity_both_head_and_corrupt_tail(self, monkeypatch):
        # three entities and batches of 8: every batch has entities that are
        # heads and also drawn as corrupt tails
        named = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a"), ("a", "s", "a"),
                 ("b", "s", "a"), ("c", "s", "b")]
        g, _ = from_named_triples(named)
        ent = np.random.default_rng(0).normal(size=(3, 4))
        rel = np.random.default_rng(1).normal(size=(2, 4))
        heads, rels, tails = embeddings._triple_arrays(g)
        order = np.arange(6, dtype=np.int64)
        sides = np.array([[1, 0]] * 6, dtype=np.int64)
        corrupts = np.array([[0, 1], [0, 2], [1, 0], [2, 0], [0, 1], [1, 2]], dtype=np.int64)
        assert any(corrupts[i, 0] == heads[i] for i in range(6))  # head == corrupt tail
        args = (heads, rels, tails, order, sides, corrupts, 4.0, 0.1, 8)
        ent_a, rel_a, ent_b, rel_b = ent.copy(), rel.copy(), ent.copy(), rel.copy()
        loss_a = embeddings._transe_epoch(ent_a, rel_a, *args)
        loss_b = reference_transe_epoch(ent_b, rel_b, *args)
        assert loss_a > 0 and loss_a == loss_b
        assert ent_a.tobytes() == ent_b.tobytes()
        assert rel_a.tobytes() == rel_b.tobytes()
        assert not np.array_equal(ent_a, ent)

    def test_batch_without_active_pair(self):
        # entities a=0, b=1, c=2, z=3 on a line; relation r=0 steps one unit.
        # Batch 0 holds exact triples whose corrupt tail z is far away, so no
        # pair is active; batch 1 holds two violated pairs.
        ent = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        rel = np.array([[1.0, 0.0], [0.0, 1.0]])
        heads = np.array([0, 1, 2, 3], dtype=np.int64)
        rels = np.array([0, 0, 0, 1], dtype=np.int64)
        tails = np.array([1, 2, 0, 0], dtype=np.int64)
        order = np.arange(4, dtype=np.int64)
        sides = np.array([[1], [1], [1], [0]], dtype=np.int64)
        corrupts = np.array([[3], [3], [1], [0]], dtype=np.int64)
        ent_0, rel_0 = ent.copy(), rel.copy()
        loss_0 = embeddings._transe_epoch(ent_0, rel_0, heads, rels, tails, order[:2],
                                          sides, corrupts, 1.0, 0.1, 2)
        assert loss_0 == 0.0
        assert ent_0.tobytes() == ent.tobytes() and rel_0.tobytes() == rel.tobytes()
        args = (heads, rels, tails, order, sides, corrupts, 1.0, 0.1, 2)
        ent_a, rel_a, ent_b, rel_b = ent.copy(), rel.copy(), ent.copy(), rel.copy()
        loss_a = embeddings._transe_epoch(ent_a, rel_a, *args)
        loss_b = reference_transe_epoch(ent_b, rel_b, *args)
        assert loss_a > 0 and loss_a == loss_b
        assert ent_a.tobytes() == ent_b.tobytes()
        assert rel_a.tobytes() == rel_b.tobytes()
        assert not np.array_equal(ent_a, ent)

    def test_three_negatives_partial_last_batch(self, monkeypatch):
        g = seeded_kg_50()
        cfg = TransEConfig(epochs=5, seed=6, batch_size=10, negatives_per_positive=3)
        assert len(g.triples) % cfg.batch_size != 0
        self.check(monkeypatch, g, cfg, d=12)

    def test_benchmark_scale_graph(self, monkeypatch):
        # a 20x world's quarter subgraph, as the kg-sweep benchmark trains:
        # batches of 128 touch hundreds of distinct rows
        from kgt5lab.data import SyntheticKGSpec, gen_synthetic_kg
        world, _ = gen_synthetic_kg(SyntheticKGSpec(n_people=4800, n_cities=480,
                                                    n_countries=240, seed=1))
        g = subgraph_fraction(world, 0.25, 1)
        assert g.n_entities > 2000
        self.check(monkeypatch, g, TransEConfig(epochs=2, seed=1), d=32)

    @pytest.mark.parametrize("batch_size, d", [(1, 8), (500, 8), (32, 1)],
                             ids=["batch-1", "batch-over-triples", "d-1"])
    def test_batch_and_width_extremes(self, monkeypatch, batch_size, d):
        g = seeded_kg_50()
        cfg = TransEConfig(epochs=3, seed=7, batch_size=batch_size, negatives_per_positive=2)
        self.check(monkeypatch, g, cfg, d=d)

    def test_negative_rows_past_order_are_not_read(self):
        g = seeded_kg_50()
        heads, rels, tails = embeddings._triple_arrays(g)
        rng = np.random.default_rng(8)
        n, m, k = len(heads), 40, 2
        ent = rng.normal(size=(g.n_entities, 6))
        rel = rng.normal(size=(g.n_relations, 6))
        order = rng.permutation(n)[:m]
        sides = rng.integers(0, 2, size=(n, k))
        corrupts = rng.integers(0, g.n_entities, size=(n, k))
        # rows past len(order) hold a side and ids no table has
        sides[m:], corrupts[m:] = 5, g.n_entities + 100
        loss = self.check_epoch(
            ent, rel, (heads, rels, tails, order, sides, corrupts, 1.0, 0.1, 16),
            (heads, rels, tails, order, sides[:m], corrupts[:m], 1.0, 0.1, 16))
        assert loss > 0

    @settings(max_examples=150, deadline=None)
    @given(n_ent=st.integers(2, 30), n_rel=st.integers(1, 5), n=st.integers(1, 60),
           k=st.integers(1, 3), batch_size=st.integers(1, 16), d=st.integers(1, 8),
           margin=st.floats(0.1, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_epoch_matches_reference_on_random_graphs(self, n_ent, n_rel, n, k,
                                                       batch_size, d, margin, seed):
        rng = np.random.default_rng(seed)
        heads, tails = rng.integers(0, n_ent, size=(2, n))
        rels = rng.integers(0, n_rel, size=n)
        ent = rng.normal(size=(n_ent, d))
        rel = rng.normal(size=(n_rel, d))
        self.check_epoch(ent, rel, (heads, rels, tails, rng.permutation(n),
                                    rng.integers(0, 2, size=(n, k)),
                                    rng.integers(0, n_ent, size=(n, k)), margin, 0.05, batch_size))


def seeded_kg_50():
    from kgt5lab.data import SyntheticKGSpec, gen_synthetic_kg
    spec = SyntheticKGSpec(n_people=30, n_cities=8, n_countries=4,
                           occupations=tuple("abcdefgh"), seed=0)
    g, _ = gen_synthetic_kg(spec)
    assert g.n_entities == 50
    return g


def margin_loss(vecs, margin):
    h, r, t, hn, tn = vecs
    d_pos = np.linalg.norm(h + r - t)
    d_neg = np.linalg.norm(hn + r - tn)
    return max(0.0, margin + d_pos - d_neg)


def margin_loss_grads(vecs, margin):
    """Analytic subgradients of the single-pair hinge (away from the kink)."""
    h, r, t, hn, tn = vecs
    pos = h + r - t
    neg = hn + r - tn
    d_pos = np.linalg.norm(pos)
    d_neg = np.linalg.norm(neg)
    if margin + d_pos - d_neg <= 0:
        return [np.zeros_like(v) for v in vecs]
    u_p = pos / d_pos
    u_n = neg / d_neg
    return [u_p, u_p - u_n, -u_p, -u_n, u_n]


class TestMarginLossGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        checked = 0
        while checked < 10:
            vecs = [rng.normal(size=6) for _ in range(5)]
            margin = 1.0
            d_pos = np.linalg.norm(vecs[0] + vecs[1] - vecs[2])
            d_neg = np.linalg.norm(vecs[3] + vecs[1] - vecs[4])
            if abs(margin + d_pos - d_neg) <= 1e-3:
                continue  # stay away from the hinge kink
            grads = margin_loss_grads(vecs, margin)
            for vi in range(5):
                for ci in range(6):
                    orig = vecs[vi][ci]
                    vecs[vi][ci] = orig + h
                    hi = margin_loss(vecs, margin)
                    vecs[vi][ci] = orig - h
                    lo = margin_loss(vecs, margin)
                    vecs[vi][ci] = orig
                    numeric = (hi - lo) / (2 * h)
                    analytic = grads[vi][ci]
                    denom = max(1.0, abs(analytic), abs(numeric))
                    assert abs(analytic - numeric) / denom < 1e-5
            checked += 1


def reference_link_prediction(emb, g, k):
    """The per-triple scan that link_prediction_eval replaced, as the reference."""
    ent = emb.entity_vecs
    ranks = np.empty(len(g.triples), dtype=np.float64)
    for i, t in enumerate(g.triples):
        target = ent[t.head] + emb.relation_vecs[t.relation]
        diffs = target[None, :] - ent
        dists = np.sqrt(np.sum(diffs * diffs, axis=1))
        s_true = dists[t.tail]
        better = int(np.sum(dists < s_true))
        tied_before = int(np.sum((dists == s_true)[:t.tail]))
        ranks[i] = 1 + better + tied_before
    hits = float(np.mean(ranks <= k))
    return hits, float(np.mean(ranks))


def random_graph(rng, n_entities, n_relations, n_triples):
    triples = set()
    while len(triples) < n_triples:
        triples.add((int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                     int(rng.integers(n_entities))))
    return KnowledgeGraph([f"e{i}" for i in range(n_entities)],
                          [f"r{i}" for i in range(n_relations)],
                          [Triple(*t) for t in sorted(triples)])


def parity_case(name):
    """(table, graph) for one parity case of link_prediction_eval."""
    rng = np.random.default_rng(17)
    if name == "trained-kg-50":
        g = seeded_kg_50()
        cfg = TransEConfig(epochs=100, learning_rate=0.05, batch_size=32, seed=0)
        return train_kg_embeddings(g, cfg, d=16)[0], g
    if name == "relations-x1e3":
        g = random_graph(rng, 40, 3, 64)
        return EmbeddingTable(8, rng.normal(size=(40, 8)),
                              1e3 * rng.normal(size=(3, 8))), g
    if name == "duplicates-and-exact-hits":
        # integer coordinates in {-1, 0, 1}^3 repeat rows and put many
        # targets v_h + e_r exactly on an entity, so distances tie exactly
        g = random_graph(rng, 60, 4, 64)
        ent = rng.integers(-1, 2, size=(60, 3)).astype(np.float64)
        ent[::7] = ent[1]
        rel = rng.integers(-1, 2, size=(4, 3)).astype(np.float64)
        return EmbeddingTable(3, ent, rel), g
    if name == "subnormal-distances":
        # squared distances underflow, so rounding errors are absolute
        g = random_graph(rng, 30, 2, 20)
        return EmbeddingTable(4, 1e-160 * rng.normal(size=(30, 4)),
                              1e-160 * rng.normal(size=(2, 4))), g
    if name == "overflowing-distances":
        # every squared distance and ||x||^2 overflows to inf
        g = random_graph(rng, 30, 2, 40)
        return EmbeddingTable(4, 1e160 * rng.normal(size=(30, 4)),
                              1e160 * rng.normal(size=(2, 4))), g
    if name == "near-overflow":
        # ||x||^2 + max ||e||^2 is finite but distances between near-antipodal
        # rows overflow: entity rows of squared norm 0.3 * max double
        g = random_graph(rng, 30, 2, 40)
        angle = rng.uniform(0, 2 * np.pi, size=30)
        radius = np.sqrt(0.3 * np.finfo(np.float64).max)
        ent = radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        return EmbeddingTable(2, ent, 1e-3 * radius * rng.normal(size=(2, 2))), g
    if name == "one-long-row":
        # one row x1e4 widens every row's band; duplicated rows keep a second
        # entity in most bands, so most rows take the exact re-score
        g = random_graph(rng, 40, 3, 2 * LINK_PREDICTION_BLOCK + 7)
        ent = rng.normal(size=(40, 6))
        ent[1::2] = ent[::2]
        ent[7] *= 1e4
        return EmbeddingTable(6, ent, rng.normal(size=(3, 6))), g
    assert name == "partial-block"
    g = random_graph(rng, 30, 2, 2 * LINK_PREDICTION_BLOCK + 5)
    ent = rng.normal(size=(30, 5))
    ent[10:20] = ent[:10]
    return EmbeddingTable(5, ent, rng.normal(size=(2, 5))), g


class TestLinkPredictionEval:
    @pytest.mark.parametrize("case", ["trained-kg-50", "relations-x1e3",
                                      "duplicates-and-exact-hits", "subnormal-distances",
                                      "partial-block", "overflowing-distances",
                                      "near-overflow", "one-long-row"])
    def test_matches_per_triple_scan_bit_for_bit(self, case):
        # equal hits@k for every k pins the whole rank histogram
        emb, g = parity_case(case)
        for k in range(1, g.n_entities + 1):
            assert link_prediction_eval(emb, g, k) == reference_link_prediction(emb, g, k)

    def test_short_table_is_unknown_id_error(self):
        g = chain_graph(10)
        emb = init_embeddings(g, d=4, seed=0)
        short = EmbeddingTable(4, emb.entity_vecs[:-1], emb.relation_vecs)
        with pytest.raises(UnknownIdError):
            link_prediction_eval(short, g, k=10)
        short = EmbeddingTable(4, emb.entity_vecs, emb.relation_vecs[:-1])
        with pytest.raises(UnknownIdError):
            link_prediction_eval(short, g, k=10)

    def test_full_graph_table_on_subgraph_is_unknown_id_error(self):
        # subgraph_fraction re-interns entities, so the full graph's rows
        # no longer belong to the subgraph's ids
        g = chain_graph(50, 2)
        emb = init_embeddings(g, d=4, seed=0)
        sub = subgraph_fraction(g, 0.5, seed=3)
        assert sub.n_entities < g.n_entities
        with pytest.raises(UnknownIdError):
            link_prediction_eval(emb, sub, k=10)

    def test_perfect_embeddings_hit_at_1(self):
        ent = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        rel = np.array([[1.0, 0.0], [0.0, 1.0]])
        g, _ = from_named_triples([("a", "r", "b"), ("a", "s", "c")])
        # pad entity table rows to the graph size
        emb = EmbeddingTable(2, ent[:g.n_entities], rel)
        hits, mean_rank = link_prediction_eval(emb, g, k=1)
        assert hits == 1.0
        assert mean_rank == 1.0

    def test_random_embeddings_mean_rank_about_half(self):
        # Monte-Carlo across seeds; expectation is (|V|+1)/2 = 50.5
        named = [(f"e{i}", "r", f"e{(i + 3) % 100}") for i in range(100)]
        g, _ = from_named_triples(named)
        means = []
        for seed in range(20):
            emb = init_embeddings(g, d=8, seed=seed)
            _, mean_rank = link_prediction_eval(emb, g, k=10)
            means.append(mean_rank)
        assert abs(np.mean(means) - 50.5) <= 10.0

    def test_k_at_least_v_hits_everything(self):
        g = chain_graph(10)
        emb = init_embeddings(g, d=4, seed=0)
        hits, _ = link_prediction_eval(emb, g, k=g.n_entities)
        assert hits == 1.0

    def test_hits_nondecreasing_in_k_and_rank_bounds(self):
        g = chain_graph(15)
        emb = init_embeddings(g, d=4, seed=2)
        prev = 0.0
        for k in range(1, g.n_entities + 1):
            hits, mean_rank = link_prediction_eval(emb, g, k=k)
            assert hits >= prev
            assert 1.0 <= mean_rank <= g.n_entities
            prev = hits


def reference_save_embeddings(emb, entity_names, relation_names, path):
    """Per-value writer: one ``f"{x:.17g}"`` per float, one write per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kge-v1 {emb.dim} {len(entity_names)} {len(relation_names)}\n")
        for name, row in zip(entity_names, emb.entity_vecs):
            fh.write("E\t" + name + "\t" + " ".join(f"{x:.17g}" for x in row) + "\n")
        for name, row in zip(relation_names, emb.relation_vecs):
            fh.write("R\t" + name + "\t" + " ".join(f"{x:.17g}" for x in row) + "\n")


# three rows: edge values, a signed zero and non-ASCII names
VALID_KGE = ("kge-v1 3 2 1\nE\tzürich\t0.5 -1.25 1e300\nE\tb\t3 -0 5e-324\n"
             "R\tin\t1e-300 2 0.25\n").encode("utf-8")
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestEmbeddingFile:
    def test_bytes_match_per_value_writer(self, tmp_path):
        edge = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1 / 3]
        emb = EmbeddingTable(5, np.array([edge, edge[::-1], [0.0, 1.0, -1.0, 0.5, 1e-300]]),
                             np.array([[-x for x in edge]]))
        ent_names, rel_names = ["Zürich", "東京", "e_2"], ["größer_als"]
        fast, slow = tmp_path / "fast.kge", tmp_path / "slow.kge"
        save_embeddings(emb, ent_names, rel_names, fast)
        reference_save_embeddings(emb, ent_names, rel_names, slow)
        assert fast.read_bytes() == slow.read_bytes()
        loaded, names_e, names_r = load_embeddings(fast)
        assert loaded.entity_vecs.tobytes() == emb.entity_vecs.tobytes()
        assert loaded.relation_vecs.tobytes() == emb.relation_vecs.tobytes()
        assert (names_e, names_r) == (ent_names, rel_names)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(0, 4), st.just(d)), elements=FINITE),
        hnp.arrays(np.float64, st.tuples(st.integers(0, 3), st.just(d)), elements=FINITE))))
    def test_finite_tables_round_trip_bit_for_bit(self, tables):
        ent, rel = tables
        emb = EmbeddingTable(ent.shape[1], ent, rel)
        ent_names = [f"e{i}" for i in range(ent.shape[0])]
        rel_names = [f"r{i}" for i in range(rel.shape[0])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.kge"
            save_embeddings(emb, ent_names, rel_names, path)
            loaded, names_e, names_r = load_embeddings(path)
        assert loaded.entity_vecs.tobytes() == ent.tobytes()
        assert loaded.relation_vecs.tobytes() == rel.tobytes()
        assert (names_e, names_r) == (ent_names, rel_names)

    def test_round_trip_bit_exact(self, tmp_path):
        g = chain_graph(7, 2)
        emb, _ = train_kg_embeddings(g, TransEConfig(epochs=2, seed=8), d=5)
        path = tmp_path / "emb.kge"
        save_embeddings(emb, list(g.entity_names), list(g.relation_names), path)
        loaded, ent_names, rel_names = load_embeddings(path)
        assert np.array_equal(loaded.entity_vecs, emb.entity_vecs)
        assert np.array_equal(loaded.relation_vecs, emb.relation_vecs)
        assert ent_names == list(g.entity_names)
        assert rel_names == list(g.relation_names)

    def test_dim_mismatch_is_format_error(self, tmp_path):
        path = tmp_path / "bad.kge"
        path.write_text("kge-v1 3 1 0\nE\ta\t1 2\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 2

    def test_huge_dim_fails_at_the_short_row(self, tmp_path):
        # a table of 10^11 values would need 745 GiB; the one-value row
        # must fail before any of it is allocated
        path = tmp_path / "huge.kge"
        path.write_text("kge-v1 100000000000 1 0\nE\ta\t1\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 2

    def test_dim_beyond_any_array_fails_at_the_header(self, tmp_path):
        path = tmp_path / "huge.kge"
        path.write_text(f"kge-v1 {10**21} 0 0\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 1

    def test_empty_relation_set_allowed(self, tmp_path):
        path = tmp_path / "norel.kge"
        path.write_text("kge-v1 2 2 0\nE\ta\t1 0\nE\tb\t0 1\n", encoding="utf-8")
        emb, ent_names, rel_names = load_embeddings(path)
        assert emb.relation_vecs.shape == (0, 2)
        assert rel_names == []

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.kge"
        path.write_text("not-a-header\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 1

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.kge"
        path.write_text("kge-v1 2 2 0\nE\ta\t1 0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_wrong_tag(self, tmp_path):
        path = tmp_path / "tag.kge"
        path.write_text("kge-v1 2 1 1\nR\ta\t1 0\nE\tr\t0 1\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 2

    def test_undecodable_byte_is_format_error_with_line(self, tmp_path):
        path = tmp_path / "bad.kge"
        path.write_bytes(b"kge-v1 2 2 0\nE\ta\t1 0\nE\tb\xff\t0 1\n")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 3

    def test_non_finite_value_is_format_error_with_line(self, tmp_path):
        path = tmp_path / "big.kge"
        path.write_text("kge-v1 2 1 1\nE\ta\t1 0\nR\tr\t1e900 1\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line_number == 3

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(VALID_KGE) - 1), st.integers(0, 255))
    def test_one_byte_mutants_load_or_raise_format_error(self, pos, value):
        blob = bytearray(VALID_KGE)
        blob[pos] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.kge"
            path.write_bytes(bytes(blob))
            try:
                load_embeddings(path)
            except FormatError:
                pass

    def test_failed_write_keeps_previous_file(self, tmp_path):
        emb = EmbeddingTable(2, np.array([[1.0, 0.5], [0.0, -2.0]]), np.array([[3.0, 4.0]]))
        path = tmp_path / "emb.kge"
        save_embeddings(emb, ["a", "b"], ["r"], path)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
            save_embeddings(emb, ["c", "\ud800"], ["r"], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
