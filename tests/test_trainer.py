"""Joint loss, Adam, training loops and checkpoint tests."""

import hashlib
import math

import numpy as np
import pytest

from kgt5lab.autodiff import Tape, Tensor, backward
from kgt5lab.data import SyntheticKGSpec, gen_qa, gen_synthetic_kg
from kgt5lab.embeddings import EmbeddingTable, ZeroVectorError, cosine_sim
from kgt5lab.model import ModelConfig, ModelParams, build_vocab
from kgt5lab.trainer import (AdamState, BadMagicError, CheckpointShapeError,
                             EmptyDatasetError, LossSpec, TrainConfig,
                             TruncatedFileError, VersionUnsupportedError,
                             adam_step, finetune, load_checkpoint, loss_prime,
                             pretrain, save_checkpoint, sim_term)


def small_world(n_people=12, n_cities=4, n_countries=2, seed=0):
    spec = SyntheticKGSpec(n_people=n_people, n_cities=n_cities,
                           n_countries=n_countries,
                           occupations=("weaver", "smith", "scribe"), seed=seed)
    kg, corpus = gen_synthetic_kg(spec)
    dataset = gen_qa(kg, {"hop1": 8, "context": 8, "hop2": 8}, seed=seed)
    vocab = build_vocab(list(corpus) + [e.question for e in dataset]
                        + [e.answer for e in dataset])
    return kg, corpus, dataset, vocab


def tiny_model(vocab, d_kg=8, seed=0, kg_enabled=True):
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_layers=1, n_heads=2,
                      d_ff=48, dropout_p=0.1, max_len=32, d_kg=d_kg)
    return cfg, ModelParams.init(cfg, seed=seed, kg_enabled=kg_enabled)


def random_emb(n_ent, n_rel, d=8, seed=1):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(d, rng.normal(size=(n_ent, d)), rng.normal(size=(n_rel, d)))


class TestSimTerm:
    def test_identical_vectors_give_one(self):
        emb = EmbeddingTable(3, np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0, 3.0]]))
        assert sim_term(emb, [0], [0]).item() == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_gives_exact_zero(self):
        emb = random_emb(3, 2)
        out = sim_term(emb, [0, 1], [])
        assert out.item() == 0.0
        assert out.node is None  # constant: zero gradient
        assert sim_term(emb, [], [0]).item() == 0.0

    def test_mean_over_cartesian_product_brute_force(self):
        emb = random_emb(4, 3, seed=7)
        ents, rels = [0, 2], [1, 2]
        got = sim_term(emb, ents, rels).item()
        expected = np.mean([cosine_sim(emb.entity_vecs[e], emb.relation_vecs[r])
                            for e in ents for r in rels])
        assert got == pytest.approx(float(expected), abs=1e-12)

    def test_zero_vector_propagates(self):
        emb = EmbeddingTable(2, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ZeroVectorError):
            sim_term(emb, [0], [0])

    def test_gradient_flows_to_embedding_rows(self):
        rng = np.random.default_rng(3)
        ent = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        rel = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        with Tape() as tape:
            s = sim_term((ent, rel), [1, 2], [0])
        backward(tape, s)
        assert np.any(ent.grad[1] != 0)
        assert np.any(ent.grad[2] != 0)
        assert np.all(ent.grad[0] == 0)
        assert np.any(rel.grad[0] != 0)


class TestLossPrime:
    def test_zero_weight_returns_base_unchanged(self):
        base = Tensor(0.7)
        sim = Tensor(123.0)
        out = loss_prime(base, sim, 0.0)
        assert out is base

    def test_direct_substitution(self):
        assert loss_prime(Tensor(0.5), Tensor(0.8), 0.1).item() == pytest.approx(0.58, abs=1e-12)

    def test_negative_weight_rewards_similarity(self):
        assert loss_prime(Tensor(1.0), Tensor(0.5), -0.2).item() == pytest.approx(0.9, abs=1e-12)

    def test_derivative_wrt_sim_is_weight(self):
        # holding everything else fixed, dL'/dSim == the signed weight exactly
        for lam in (0.3, -0.7):
            sim = Tensor(0.25, requires_grad=True)
            with Tape() as tape:
                out = loss_prime(Tensor(1.0), sim, lam)
            backward(tape, out)
            assert float(sim.grad) == lam


def reference_adam_scalar(theta, grads, lr, beta1, beta2, eps, wd):
    """Independent scalar Adam (pure python floats)."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        theta = theta - lr * wd * theta
    return theta


class TestAdamStep:
    def make(self, value=1.0):
        params = {"w": Tensor(np.array([value]), requires_grad=True)}
        return params, AdamState.init(params)

    def test_first_step_closed_form(self):
        params, state = self.make(0.0)
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.0, grad_clip_norm=None)
        adam_step(params, {"w": np.array([1.0])}, state, cfg)
        # at t=1: m_hat = g, v_hat = g^2 -> delta = lr / (1 + eps)
        expected = -1e-3 / (1.0 + 1e-8)
        assert params["w"].data[0] == pytest.approx(expected, rel=1e-12)
        assert params["w"].data[0] == pytest.approx(-9.99999990e-4, rel=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        params, state = self.make(1.0)
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.0, grad_clip_norm=None)
        adam_step(params, {"w": np.zeros(1)}, state, cfg)
        assert params["w"].data[0] == 1.0
        assert state.t == 1

    def test_weight_decay_arithmetic(self):
        params, state = self.make(1.0)
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.1, grad_clip_norm=None)
        adam_step(params, {"w": np.zeros(1)}, state, cfg)
        assert params["w"].data[0] == pytest.approx(0.9999, abs=1e-15)

    def test_matches_scalar_reference_over_100_steps(self):
        rng = np.random.default_rng(17)
        grads = [float(g) for g in rng.normal(size=100)]
        params, state = self.make(0.5)
        cfg = TrainConfig(learning_rate=2e-3, weight_decay=0.01, grad_clip_norm=None)
        for g in grads:
            adam_step(params, {"w": np.array([g])}, state, cfg)
        expected = reference_adam_scalar(0.5, grads, 2e-3, 0.9, 0.999, 1e-8, 0.01)
        assert params["w"].data[0] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        params, state = self.make()
        from kgt5lab.autodiff import ShapeMismatchError
        with pytest.raises(ShapeMismatchError):
            adam_step(params, {"w": np.zeros(3)}, state, TrainConfig())

    def test_global_norm_clip_scales_before_moments(self):
        params = {"a": Tensor(np.zeros(2), requires_grad=True),
                  "b": Tensor(np.zeros(2), requires_grad=True)}
        state = AdamState.init(params)
        cfg = TrainConfig(learning_rate=1.0, grad_clip_norm=1.0, weight_decay=0.0)
        g = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        adam_step(params, g, state, cfg)
        # norm 5 -> scaled by 1/5; both first moments reflect the clipped grads
        assert state.m["a"][0] == pytest.approx(0.1 * 3.0 / 5.0)
        assert state.m["b"][1] == pytest.approx(0.1 * 4.0 / 5.0)

    def test_sparse_update_of_every_row_equals_dense(self):
        rng = np.random.default_rng(23)
        init = rng.normal(size=(5, 3))
        dense = {"w": Tensor(init.copy(), requires_grad=True)}
        sparse = {"w": Tensor(init.copy(), requires_grad=True)}
        s_dense, s_sparse = AdamState.init(dense), AdamState.init(sparse)
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.01, grad_clip_norm=1.0)
        ids = np.arange(5, dtype=np.int64)
        for _ in range(10):
            g = rng.normal(size=(5, 3))
            adam_step(dense, {"w": g}, s_dense, cfg)
            adam_step(sparse, {}, s_sparse, cfg, sparse={"w": (ids, g)})
        assert np.array_equal(dense["w"].data, sparse["w"].data)
        assert np.array_equal(s_dense.m["w"], s_sparse.m["w"])
        assert np.array_equal(s_dense.v["w"], s_sparse.v["w"])


def params_digest(params, names=None):
    h = hashlib.sha256()
    for name in sorted(names or params.tensors):
        h.update(name.encode())
        h.update(params.tensors[name].data.tobytes())
    return h.hexdigest()


class TestPretrain:
    def test_loss_trend_downward(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        tc = TrainConfig(max_steps=200, seed=0, eval_every=50, batch_size=8,
                         learning_rate=3e-3)
        params, trace = pretrain(params, [vocab.encode(s) for s in corpus], tc)
        assert len(trace) == 4
        assert trace[-1] < trace[0]

    def test_zero_steps_no_op(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        before = params_digest(params)
        params, trace = pretrain(params, [vocab.encode(s) for s in corpus],
                                 TrainConfig(max_steps=0))
        assert trace == []
        assert params_digest(params) == before

    def test_deterministic(self):
        kg, corpus, dataset, vocab = small_world()
        ids = [vocab.encode(s) for s in corpus]
        tc = TrainConfig(max_steps=30, seed=5)
        _, p1 = tiny_model(vocab)
        p1, t1 = pretrain(p1, ids, tc)
        _, p2 = tiny_model(vocab)
        p2, t2 = pretrain(p2, ids, tc)
        assert t1 == t2
        assert params_digest(p1) == params_digest(p2)

    def test_empty_corpus(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        from kgt5lab.model import EmptyCorpusError
        with pytest.raises(EmptyCorpusError):
            pretrain(params, [], TrainConfig())


class TestFinetune:
    def test_trace_satisfies_loss_identity(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        emb = random_emb(kg.n_entities, kg.n_relations)
        lam = -0.1
        _, _, trace = finetune(params, dataset, kg, emb, LossSpec(sim_weight=lam),
                               "both", TrainConfig(max_steps=25, seed=0), vocab)
        assert len(trace) == 25
        for step, l, s, lp in trace:
            assert abs(lp - (l + lam * s)) < 1e-12

    def test_empty_dataset(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        emb = random_emb(kg.n_entities, kg.n_relations)
        with pytest.raises(EmptyDatasetError):
            finetune(params, [], kg, emb, LossSpec(), "both", TrainConfig(), vocab)

    def test_deterministic(self):
        kg, corpus, dataset, vocab = small_world()
        emb = random_emb(kg.n_entities, kg.n_relations)
        tc = TrainConfig(max_steps=20, seed=9)
        _, pa = tiny_model(vocab)
        pa, ea, ta = finetune(pa, dataset, kg, emb.copy(), LossSpec(), "both", tc, vocab)
        _, pb = tiny_model(vocab)
        pb, eb, tb = finetune(pb, dataset, kg, emb.copy(), LossSpec(), "both", tc, vocab)
        assert ta == tb
        assert params_digest(pa) == params_digest(pb)
        assert np.array_equal(ea.entity_vecs, eb.entity_vecs)

    def test_lambda_zero_trajectory_matches_simfree_kgfree_build(self):
        # spec's identity reduction: lambda=0 + variant=none == KG-free fine-tune
        kg, corpus, dataset, vocab = small_world()
        emb = random_emb(kg.n_entities, kg.n_relations)
        tc = TrainConfig(max_steps=40, seed=4, weight_decay=0.01)
        _, p_full = tiny_model(vocab, kg_enabled=True)
        _, p_free = tiny_model(vocab, kg_enabled=False)
        shared = sorted(set(p_free.tensors))
        p_full, _, trace_full = finetune(p_full, dataset, kg, emb.copy(),
                                         LossSpec(sim_weight=0.0), "none", tc, vocab)
        p_free, _, trace_free = finetune(p_free, dataset, kg, emb.copy(),
                                         LossSpec(sim_weight=0.0), "none", tc, vocab)
        assert trace_full == trace_free
        assert params_digest(p_full, shared) == params_digest(p_free, shared)

    def test_gradient_reaches_used_embedding_rows(self):
        # lambda != 0 and trainable embeddings: linked rows move
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        emb = random_emb(kg.n_entities, kg.n_relations)
        before = emb.entity_vecs.copy()
        _, emb_out, _ = finetune(params, dataset, kg, emb,
                                 LossSpec(sim_weight=-0.5), "both",
                                 TrainConfig(max_steps=5, seed=0,
                                             kg_embeddings_trainable=True), vocab)
        assert not np.array_equal(emb_out.entity_vecs, before)

    def test_frozen_embeddings_do_not_move(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        emb = random_emb(kg.n_entities, kg.n_relations)
        before = emb.entity_vecs.copy()
        _, emb_out, _ = finetune(params, dataset, kg, emb,
                                 LossSpec(sim_weight=-0.5), "both",
                                 TrainConfig(max_steps=5, seed=0,
                                             kg_embeddings_trainable=False), vocab)
        assert np.array_equal(emb_out.entity_vecs, before)


class TestCheckpoint:
    def roundtrip_setup(self):
        kg, corpus, dataset, vocab = small_world()
        cfg, params = tiny_model(vocab)
        emb = random_emb(kg.n_entities, kg.n_relations)
        configs = {"vocab": vocab.tokens, "note": "test"}
        return params, emb, configs

    def test_save_load_save_byte_identical(self, tmp_path):
        params, emb, configs = self.roundtrip_setup()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, emb, configs, p1)
        params2, emb2, configs2 = load_checkpoint(p1)
        save_checkpoint(params2, emb2, configs2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert configs2 == configs
        assert np.array_equal(emb2.entity_vecs, emb.entity_vecs)
        for name in params.tensors:
            assert np.array_equal(params2.tensors[name].data,
                                  params.tensors[name].data)

    def test_bad_magic(self, tmp_path):
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupportedError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 64])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_config_mismatch_is_shape_error(self, tmp_path):
        import json
        import struct
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)
        blob = path.read_bytes()
        hdr_len = struct.unpack_from("<I", blob, 12)[0]
        header = json.loads(blob[16:16 + hdr_len])
        header["model_config"]["d_model"] = 64  # checkpoint was built at 32
        new_hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:12] + struct.pack("<I", len(new_hdr)) + new_hdr
                         + blob[16 + hdr_len:])
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)
