"""Joint loss, Adam, training loops and checkpoint tests."""

import functools
import hashlib
import math
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt5lab import trainer
from kgt5lab.autodiff import (Tape, Tensor, add, backward, cosine_similarity,
                              cross_entropy_mean, gather_rows, reshape,
                              scalar_mul)
from kgt5lab.data import SyntheticKGSpec, gen_qa, gen_synthetic_kg
from kgt5lab.embeddings import (EmbeddingTable, TransEConfig, ZeroVectorError,
                                cosine_sim, train_kg_embeddings)
from kgt5lab.model import (BOS_ID, PAD_ID, AugmentedInput, EncoderInput,
                           ModelConfig, ModelParams, build_augmented_input,
                           build_vocab, forward, span_corrupt)
from kgt5lab.trainer import (AdamState, BadMagicError, CheckpointEmbeddingError,
                             CheckpointHeaderError, CheckpointLayoutError,
                             CheckpointShapeError,
                             EmptyDatasetError, LossSpec,
                             NonFiniteTrainingError, PreparedExample, TrainConfig,
                             TruncatedFileError, VersionUnsupportedError,
                             adam_step, finetune, load_checkpoint, loss_prime,
                             prepare_examples, pretrain, save_checkpoint,
                             sim_term)


def small_world(n_people=12, n_cities=4, n_countries=2, seed=0):
    spec = SyntheticKGSpec(n_people=n_people, n_cities=n_cities,
                           n_countries=n_countries,
                           occupations=("weaver", "smith", "scribe"), seed=seed)
    kg, corpus = gen_synthetic_kg(spec)
    dataset = gen_qa(kg, {"hop1": 8, "context": 8, "hop2": 8}, seed=seed)
    vocab = build_vocab(list(corpus) + [e.question for e in dataset]
                        + [e.answer for e in dataset])
    return kg, corpus, dataset, vocab


def tiny_model(vocab, d_kg=8, seed=0, kg_enabled=True, dropout_p=0.1):
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_layers=1, n_heads=2,
                      d_ff=48, dropout_p=dropout_p, max_len=32, d_kg=d_kg)
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


def reference_sim_term(emb, entities, relations):
    """The per-(entity, relation) double loop of 1-D cosine nodes."""
    if not entities or not relations:
        return Tensor(0.0)
    ent_t, rel_t = emb
    d = ent_t.data.shape[1]
    total = None
    for e in entities:
        ve = reshape(gather_rows(ent_t, [e]), (d,))
        for r in relations:
            vr = reshape(gather_rows(rel_t, [r]), (d,))
            c = cosine_similarity(ve, vr)
            total = c if total is None else add(total, c)
    return scalar_mul(total, 1.0 / (len(entities) * len(relations)))


def reference_mean(parts):
    total = parts[0]
    for p in parts[1:]:
        total = add(total, p)
    return scalar_mul(total, 1.0 / len(parts))


class TestBatchSimTerm:
    def test_row_wise_equals_double_loop(self):
        rng = np.random.default_rng(11)
        ent = Tensor(rng.normal(size=(9, 6)))
        rel = Tensor(rng.normal(size=(4, 6)))
        lists = [([0, 3, 5], [1, 2]), ([], [0]), ([8], [3]), ([1, 2], []),
                 ([4, 4, 7], [0, 1, 2, 3])]
        want = reference_mean([reference_sim_term((ent, rel), e, r) for e, r in lists]).item()
        got = sim_term((ent, rel), [x for e, _ in lists for x in e],
                       [x for _, r in lists for x in r],
                       counts=[(len(e), len(r)) for e, r in lists]).item()
        assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_no_pair_in_batch_is_constant_zero(self):
        emb = random_emb(3, 2)
        out = sim_term(emb, [0, 1], [1], counts=[(2, 0), (0, 1)])
        assert out.item() == 0.0 and out.node is None

    def test_zero_row_raises(self):
        ent = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        rel = Tensor(np.array([[1.0, 1.0]]))
        with pytest.raises(ZeroVectorError):
            sim_term((ent, rel), [0, 1], [0, 0], counts=[(1, 1), (1, 1)])


def reference_finetune_loss(params, examples, ent_t, rel_t, sim_weight):
    """One fine-tune step's (L, Sim, L') built one example at a time."""
    ce_parts, sim_parts = [], []
    for ex in examples:
        enc = build_augmented_input(ex.aug, (ent_t, rel_t), params)
        logits = forward(params, enc, ex.decoder_in, train_mode=True, seed=0)
        ce_parts.append(cross_entropy_mean(logits, ex.target, ignore_id=PAD_ID))
        sim_parts.append(reference_sim_term((ent_t, rel_t), ex.aug.sim_entity_ids,
                                            ex.aug.sim_relation_ids))
    base = reference_mean(ce_parts)
    sim = reference_mean(sim_parts)
    return base, sim, loss_prime(base, sim, sim_weight)


def reference_pretrain_loss(params, corrupted):
    """One pretrain step's loss built one example at a time from its
    (corrupted input, target) pairs."""
    losses = []
    for inp, tgt in corrupted:
        enc = EncoderInput(rows=gather_rows(params["tok_emb"], inp), n_text=(len(inp),),
                           lengths=(len(inp),))
        logits = forward(params, enc, [BOS_ID] + tgt[:-1], train_mode=True, seed=0)
        losses.append(cross_entropy_mean(logits, tgt, ignore_id=PAD_ID))
    return reference_mean(losses)


def run_step(loss_fn, tensors):
    """Loss values and every gradient of one taped step."""
    for t in tensors.values():
        t.grad = None
    with Tape() as tape:
        values = loss_fn()
        values = values if isinstance(values, tuple) else (values,)
        backward(tape, values[-1])
    grads = {n: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
             for n, t in tensors.items()}
    return [v.item() for v in values], grads


def assert_step_parity(packed, reference):
    (vals_p, grads_p), (vals_r, grads_r) = packed, reference
    for a, b in zip(vals_p, vals_r):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
    for name, g in grads_r.items():
        assert np.max(np.abs(grads_p[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


class TestPackedStep:
    """A packed step equals the per-example step up to summation order.

    Dropout is off: a packed step draws one mask per site over the whole
    batch, so with dropout on its examples see other masks than they would
    draw alone.  ``TestPackedBatch`` in ``test_model.py`` keeps dropout on."""

    @pytest.mark.parametrize("variant", ["none", "entity", "relation", "both"])
    @pytest.mark.parametrize("batch", [[0, 8, 16, 1, 9, 17, 2, 13], [5], [9, 14, 21]])
    def test_finetune_step_matches_per_example(self, variant, batch):
        kg, corpus, dataset, vocab = small_world()
        _, params = tiny_model(vocab, dropout_p=0.0)
        emb = random_emb(kg.n_entities, kg.n_relations)
        prepared = prepare_examples(dataset, kg, vocab, variant)
        examples = [prepared[i] for i in batch]
        if len(batch) > 1:
            # a longer answer, so decoder lengths differ too
            ans = examples[0].decoder_in[1:] + examples[0].aug.question_ids[:2]
            examples[0] = replace(examples[0], decoder_in=[BOS_ID] + ans,
                                  target=ans + [examples[0].target[-1]])
            assert len({len(ex.aug.question_ids) for ex in examples}) > 1
        if len(batch) == 3:  # one example links nothing, one has a PAD target
            examples[1] = replace(examples[1], aug=replace(
                examples[1].aug, entity_ids=[], relation_ids=[]))
            examples[2] = replace(examples[2], decoder_in=examples[2].decoder_in + [7],
                                  target=[PAD_ID] + examples[2].target)
        ent_t = Tensor(emb.entity_vecs.copy(), requires_grad=True)
        rel_t = Tensor(emb.relation_vecs.copy(), requires_grad=True)
        tensors = {**params.tensors, "kg.ent": ent_t, "kg.rel": rel_t}
        packed = run_step(lambda: trainer._step_loss(
            params, examples, (ent_t, rel_t), LossSpec(-0.1), 3, 2), tensors)
        reference = run_step(lambda: reference_finetune_loss(
            params, examples, ent_t, rel_t, -0.1), tensors)
        assert_step_parity(packed, reference)
        if variant != "none":
            assert np.any(packed[1]["kg.ent"] != 0)

    @pytest.mark.parametrize("batch", [list(range(8)), [4], [3, 11, 6]])
    def test_pretrain_step_matches_per_example(self, batch):
        kg, corpus, dataset, vocab = small_world()
        _, params = tiny_model(vocab, dropout_p=0.0)
        ids = [vocab.encode(s) for s in corpus]
        corrupted = [span_corrupt(list(ids[ex]), 0.15, 3.0,
                                  seed=trainer._mix(5, "corrupt", 1, slot))
                     for slot, ex in enumerate(batch)]
        examples = [PreparedExample(AugmentedInput(inp, [], [], "none"),
                                    [BOS_ID] + tgt[:-1], tgt) for inp, tgt in corrupted]
        base, sim, total = trainer._step_loss(params, examples, None, None, 5, 1)
        assert sim is None and total is base
        packed = run_step(lambda: trainer._step_loss(params, examples, None, None, 5, 1)[0],
                          params.tensors)
        reference = run_step(lambda: reference_pretrain_loss(params, corrupted),
                             params.tensors)
        assert_step_parity(packed, reference)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name, message", [
        ("learning_rate", "learning_rate and weight_decay must be finite and nonnegative"),
        ("weight_decay", "learning_rate and weight_decay must be finite and nonnegative"),
        ("grad_clip_norm", "grad_clip_norm must be finite and positive, or None"),
    ], ids=["learning_rate", "weight_decay", "grad_clip_norm"])
    def test_rejects_non_finite_values(self, name, message, value):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{name: value})


class TestNonFiniteTraining:
    def poisoned(self, vocab):
        _, params = tiny_model(vocab)
        params.tensors["out_proj"].data[3, 7] = np.nan
        return params

    def test_pretrain_raises_at_step_zero(self):
        kg, corpus, dataset, vocab = small_world()
        params = self.poisoned(vocab)
        before = params.tensors["tok_emb"].data.copy()
        with pytest.raises(NonFiniteTrainingError) as info:
            pretrain(params, [vocab.encode(s) for s in corpus], TrainConfig(max_steps=3))
        assert info.value.step == 0 and info.value.sim is None
        assert math.isnan(info.value.loss)
        assert np.array_equal(params.tensors["tok_emb"].data, before)  # no update

    def test_finetune_raises_at_step_zero(self):
        kg, corpus, dataset, vocab = small_world()
        params = self.poisoned(vocab)
        emb = random_emb(kg.n_entities, kg.n_relations)
        with pytest.raises(NonFiniteTrainingError) as info:
            finetune(params, dataset, kg, emb, LossSpec(), "both",
                     TrainConfig(max_steps=3), vocab)
        err = info.value
        assert err.step == 0 and math.isnan(err.loss) and math.isfinite(err.sim)
        assert "step 0" in str(err)

    def test_clipping_reuses_the_checked_norm(self, monkeypatch):
        kg, corpus, dataset, vocab = small_world()
        ids = [vocab.encode(s) for s in corpus]
        calls = []
        norm = trainer.global_norm

        def counting(*args):
            calls.append(1)
            return norm(*args)

        monkeypatch.setattr(trainer, "global_norm", counting)
        _, params = tiny_model(vocab)
        pretrain(params, ids, TrainConfig(max_steps=3, grad_clip_norm=1.0))
        assert len(calls) == 3


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

    def test_step_that_links_nothing_gets_no_kg_gradient(self, monkeypatch):
        # a KG-free batch right after a linked one must not be handed the
        # linked step's kg_proj gradient again
        kg, corpus, dataset, vocab = small_world()
        _, params = tiny_model(vocab)
        linked = next(ex for ex in dataset if ex.category == "hop1")
        unlinked = replace(linked, question="what is the answer")
        seen = []
        step = trainer.adam_step

        def recording(params_, grads, *args, **kwargs):
            seen.append((grads["kg_proj"].copy(), bool(kwargs["sparse"])))
            return step(params_, grads, *args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", recording)
        finetune(params, [linked, unlinked], kg, random_emb(kg.n_entities, kg.n_relations),
                 LossSpec(), "both", TrainConfig(batch_size=1, max_steps=8, seed=0), vocab)
        assert any(a[1] and not b[1] for a, b in zip(seen, seen[1:]))
        for grad, has_kg_rows in seen:
            assert np.any(grad != 0) == has_kg_rows

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


GOLDEN_TRAIN_DIGEST = "ae0bbebad3e697517aeba9a9ae2ba1eb9105be013d5a4521bcec3ce631f17daa"


class TestTrainGolden:
    """Pretraining, TransE and the four variant fine-tunes on a pinned small
    world reproduce the recorded bytes: every trace, parameter and KG row."""

    def test_pinned_training_digest(self):
        kg, corpus, dataset, vocab = small_world()
        _, params0 = tiny_model(vocab)
        h = hashlib.sha256()
        params0, pre_trace = pretrain(params0, [vocab.encode(s) for s in corpus],
                                      TrainConfig(max_steps=40, seed=3, eval_every=10))
        emb, transe_trace = train_kg_embeddings(kg, TransEConfig(epochs=20, seed=3), 8)
        h.update(np.array(pre_trace + transe_trace).tobytes())
        for variant in ("none", "entity", "relation", "both"):
            params, emb_v, trace = finetune(params0.copy(), dataset, kg, emb.copy(),
                                            LossSpec(), variant,
                                            TrainConfig(max_steps=60, seed=3), vocab)
            h.update(np.array([v for row in trace for v in row[1:]]).tobytes())
            h.update(params_digest(params).encode())
            h.update(emb_v.entity_vecs.tobytes() + emb_v.relation_vecs.tobytes())
        assert h.hexdigest() == GOLDEN_TRAIN_DIGEST


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

    def test_failed_write_keeps_previous_file(self, tmp_path):
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)
        before = path.read_bytes()
        # the last blob cannot be converted, so the header and the earlier
        # blobs are written before the save fails
        params.tensors[max(params.tensors)].data = np.array(["x"], dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(params, emb, configs, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        # shapes come from the parameter table, not from a model drawn to
        # learn them
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(ModelParams, "init", draw)
        monkeypatch.setattr(np.random, "default_rng", draw)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.names() == params.names()

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

    def rewrite(self, path, edit_header=None, tail=b""):
        import json
        import struct
        blob = path.read_bytes()
        hdr_len = struct.unpack_from("<I", blob, 12)[0]
        header = json.loads(blob[16:16 + hdr_len])
        if edit_header is not None:
            edit_header(header)
        new_hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:12] + struct.pack("<I", len(new_hdr)) + new_hdr
                         + blob[16 + hdr_len:] + tail)

    def saved(self, tmp_path):
        params, emb, configs = self.roundtrip_setup()
        path = tmp_path / "x.ckpt"
        save_checkpoint(params, emb, configs, path)
        return path

    def test_trailing_bytes(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, tail=b"\0" * 8)
        with pytest.raises(CheckpointLayoutError, match="trailing"):
            load_checkpoint(path)

    def test_overlapping_offsets(self, tmp_path):
        path = self.saved(tmp_path)

        def overlap(header):
            header["tensors"][1]["offset"] -= 8

        self.rewrite(path, overlap)
        with pytest.raises(CheckpointLayoutError):
            load_checkpoint(path)

    def test_out_of_order_offsets(self, tmp_path):
        path = self.saved(tmp_path)

        def swap(header):
            t = header["tensors"]
            t[0]["offset"], t[1]["offset"] = t[1]["offset"], t[0]["offset"]

        self.rewrite(path, swap)
        with pytest.raises(CheckpointLayoutError):
            load_checkpoint(path)

    def test_unknown_tensor_name(self, tmp_path):
        path = self.saved(tmp_path)

        def rename(header):
            header["tensors"][0]["name"] = "model.not_a_parameter"

        self.rewrite(path, rename)
        with pytest.raises(CheckpointShapeError, match="unknown"):
            load_checkpoint(path)

    def test_header_not_utf8(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointHeaderError):
            load_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[16] = ord("#")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointHeaderError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["kg_enabled", "model_config", "shape",
                                     "tensors", "vocab_size", "embedding_dim"])
    def test_renamed_header_key_is_header_error(self, tmp_path, key):
        # one changed byte in a key's name drops that field from the header
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        at = blob.index(f'"{key}"'.encode()) + 2
        path.write_bytes(blob[:at] + b"#" + blob[at + 1:])
        with pytest.raises(CheckpointHeaderError):
            load_checkpoint(path)

    @pytest.mark.parametrize("keys, value", [
        (("kg_enabled",), 1),
        (("model_config", "vocab_size"), 3.5),
        (("model_config", "n_heads"), 0),  # ModelConfig divided by it first
        (("tensors", 0, "shape"), [4.5]),
    ], ids=["kg_enabled", "vocab_size", "n_heads", "shape"])
    def test_mistyped_header_field_is_header_error(self, tmp_path, keys, value):
        path = self.saved(tmp_path)

        def mistype(header):
            for key in keys[:-1]:
                header = header[key]
            header[keys[-1]] = value

        self.rewrite(path, mistype)
        with pytest.raises(CheckpointHeaderError):
            load_checkpoint(path)

    def test_embedding_width_is_embedding_error(self, tmp_path):
        path = self.saved(tmp_path)

        def widen(header):
            header["embedding_dim"] += 1

        self.rewrite(path, widen)
        with pytest.raises(CheckpointEmbeddingError):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_byte_mutants_load_or_raise_checkpoint_error(self, data):
        blob, header_end = mutation_base()
        # half the draws land in the preamble and header, where the fields are
        pos = data.draw(st.one_of(st.integers(0, header_end - 1),
                                  st.integers(0, len(blob) - 1)))
        mutated = bytearray(blob)
        mutated[pos] = data.draw(st.integers(0, 255))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            path.write_bytes(bytes(mutated))
            try:
                load_checkpoint(path)
            except CHECKPOINT_ERRORS:
                pass


CHECKPOINT_ERRORS = (BadMagicError, VersionUnsupportedError, TruncatedFileError,
                     CheckpointHeaderError, CheckpointShapeError,
                     CheckpointLayoutError, CheckpointEmbeddingError)


@functools.lru_cache(maxsize=1)
def mutation_base():
    """A small saved checkpoint with embeddings and the end of its header."""
    kg, _, _, vocab = small_world()
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                      d_ff=8, dropout_p=0.1, max_len=8, d_kg=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.ckpt"
        save_checkpoint(ModelParams.init(cfg, seed=0),
                        random_emb(kg.n_entities, kg.n_relations, d=4),
                        {"vocab": vocab.tokens[:8]}, path)
        blob = path.read_bytes()
    return blob, 16 + struct.unpack_from("<I", blob, 12)[0]
