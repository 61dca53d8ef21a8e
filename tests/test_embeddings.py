"""KG embedding pre-training and cosine-similarity tests."""

import math

import numpy as np
import pytest

from kgt5lab.embeddings import (LINK_PREDICTION_BLOCK, EmbeddingTable,
                                EmptyGraphError, FormatError, TransEConfig,
                                UnknownIdError, ZeroVectorError, cosine_sim,
                                init_embeddings, link_prediction_eval,
                                load_embeddings, save_embeddings,
                                train_kg_embeddings, transe_score)
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


class TestTranseScore:
    def test_exact_translation_is_zero(self):
        emb = EmbeddingTable(2, np.array([[0.0, 0.0], [1.0, 0.0]]),
                             np.array([[1.0, 0.0]]))
        assert transe_score(emb, Triple(0, 0, 1)) == 0.0

    def test_sqrt_two(self):
        # independent arithmetic: sqrt(1^2 + (-1)^2 + ...) by hand
        emb = EmbeddingTable(2, np.array([[0.0, 0.0], [0.0, 1.0]]),
                             np.array([[1.0, 0.0]]))
        expected = math.sqrt(1.0**2 + (-1.0)**2)
        assert transe_score(emb, Triple(0, 0, 1)) == pytest.approx(expected, abs=1e-12)
        assert transe_score(emb, Triple(0, 0, 1)) == pytest.approx(1.41421356, abs=1e-8)

    def test_nonnegative_on_random_tables(self):
        rng = np.random.default_rng(0)
        emb = EmbeddingTable(3, rng.normal(size=(5, 3)), rng.normal(size=(2, 3)))
        for h in range(5):
            for t in range(5):
                assert transe_score(emb, Triple(h, 0, t)) >= 0.0

    def test_unknown_id(self):
        emb = EmbeddingTable(2, np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(UnknownIdError):
            transe_score(emb, Triple(0, 0, 5))


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
    assert name == "partial-block"
    g = random_graph(rng, 30, 2, 2 * LINK_PREDICTION_BLOCK + 5)
    ent = rng.normal(size=(30, 5))
    ent[10:20] = ent[:10]
    return EmbeddingTable(5, ent, rng.normal(size=(2, 5))), g


class TestLinkPredictionEval:
    @pytest.mark.parametrize("case", ["trained-kg-50", "relations-x1e3",
                                      "duplicates-and-exact-hits", "subnormal-distances",
                                      "partial-block"])
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


class TestEmbeddingFile:
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
