"""Vocabulary, span corruption, input augmentation and transformer tests."""

from dataclasses import replace

import numpy as np
import pytest

from kgt5lab import model
from kgt5lab.autodiff import (ShapeMismatchError, Tape, Tensor, cross_entropy_mean,
                              grad_check)
from kgt5lab.embeddings import EmbeddingTable, init_embeddings
from kgt5lab.harness import (DECODE_WINDOW, ExperimentConfig, build_vocabulary,
                             build_world)
from kgt5lab.model import (AugmentedInput, BOS_ID, EOS_ID, DecodeBatch,
                           DecodeBatchMismatchError, EmptyCorpusError,
                           EncoderInput, FIRST_REGULAR_ID, MissingBOSError,
                           ModelConfig, ModelParams, N_SENTINELS, SEP_ID,
                           TooLongError, TooManySpansError, UNK_ID, Vocabulary,
                           build_augmented_input, build_vocab,
                           corrupt_with_spans, forward, greedy_decode,
                           span_corrupt, tokenize)
from kgt5lab.trainer import prepare_examples


class TestVocabulary:
    def test_count_then_lexicographic_order(self):
        v = build_vocab(["a b", "a c"], min_count=1)
        assert v.tokens[FIRST_REGULAR_ID:] == ["a", "b", "c"]

    def test_min_count_threshold(self):
        v = build_vocab(["a b", "a c"], min_count=2)
        assert v.tokens[FIRST_REGULAR_ID:] == ["a"]
        assert v.encode("b c") == [UNK_ID, UNK_ID]

    def test_encode_decode_round_trip(self):
        v = build_vocab(["the quick brown fox", "jumps over the dog"])
        text = "the quick dog jumps"
        ids = v.encode(text)
        assert v.encode(v.decode(ids)) == ids

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([])

    def test_reserved_ids_fixed(self):
        v = build_vocab(["x"])
        assert v.tokens[0] == "<pad>"
        assert v.tokens[BOS_ID] == "<bos>"
        assert v.tokens[EOS_ID] == "<eos>"
        assert v.tokens[UNK_ID] == "<unk>"
        assert v.tokens[SEP_ID] == "<sep>"
        assert v.tokens[5] == "<X0>"
        assert v.tokens[36] == "<X31>"
        assert Vocabulary.sentinel_id(0) == 5

    def test_tokenize_normalizes(self):
        assert tokenize("  Hello\tWORLD ") == ["hello", "world"]


def toy_ids(n):
    return [FIRST_REGULAR_ID + i for i in range(n)]


class TestSpanCorrupt:
    def test_single_forced_span(self):
        ids = toy_ids(4)  # [t1 t2 t3 t4]
        inp, tgt = corrupt_with_spans(ids, [(1, 2)])
        x0 = Vocabulary.sentinel_id(0)
        assert inp == [ids[0], x0, ids[3]]
        assert tgt == [x0, ids[1], ids[2], EOS_ID]

    def test_every_token_corrupted(self):
        ids = toy_ids(6)
        inp, tgt = corrupt_with_spans(ids, [(0, 3), (3, 3)])
        assert inp == [Vocabulary.sentinel_id(0), Vocabulary.sentinel_id(1)]
        recovered = [t for t in tgt if t >= FIRST_REGULAR_ID]
        assert recovered == ids

    def test_too_many_spans(self):
        ids = toy_ids(80)
        with pytest.raises(TooManySpansError):
            corrupt_with_spans(ids, [(i * 2, 1) for i in range(N_SENTINELS + 1)])

    @staticmethod
    def reconstruct(inp, tgt):
        """Oracle: splice target spans back into the input at sentinels."""
        spans = {}
        current = None
        for t in tgt:
            if 5 <= t < 5 + N_SENTINELS:
                current = t
                spans[current] = []
            elif t == EOS_ID:
                current = None
            else:
                spans[current].append(t)
        out = []
        for t in inp:
            if 5 <= t < 5 + N_SENTINELS:
                out.extend(spans[t])
            else:
                out.append(t)
        return out

    def test_seeded_run_budget_and_reconstruction(self):
        ids = toy_ids(20)
        inp, tgt = span_corrupt(ids, corruption_rate=0.15, mean_span=3.0, seed=9)
        n_corrupted = len(ids) - sum(1 for t in inp if t >= FIRST_REGULAR_ID)
        assert n_corrupted in (2, 3, 4)
        assert self.reconstruct(inp, tgt) == ids

    def test_reconstruction_across_seeds_and_rates(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            ids = toy_ids(n)
            rate = float(rng.uniform(0.05, 0.95))
            inp, tgt = span_corrupt(ids, rate, mean_span=2.5, seed=seed)
            assert self.reconstruct(inp, tgt) == ids
            n_sent_in = sum(1 for t in inp if 5 <= t < 37)
            n_sent_tgt = sum(1 for t in tgt if 5 <= t < 37)
            assert n_sent_in == n_sent_tgt

    def test_deterministic(self):
        ids = toy_ids(25)
        a = span_corrupt(ids, 0.2, 3.0, seed=4)
        b = span_corrupt(ids, 0.2, 3.0, seed=4)
        assert a == b

    def test_rejects_reserved_ids(self):
        with pytest.raises(ValueError):
            span_corrupt([BOS_ID, 40, 41], 0.2, 2.0, seed=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            span_corrupt(toy_ids(5), 0.0, 2.0, seed=0)
        with pytest.raises(ValueError):
            span_corrupt(toy_ids(5), 1.0, 2.0, seed=0)


def tiny_setup(d_model=32, n_layers=2, n_heads=4, vocab=60, d_kg=8, seed=0,
               n_entities=10, n_relations=3):
    cfg = ModelConfig(vocab_size=vocab, d_model=d_model, n_layers=n_layers,
                      n_heads=n_heads, d_ff=d_model * 2, dropout_p=0.1,
                      max_len=32, d_kg=d_kg)
    params = ModelParams.init(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    emb = EmbeddingTable(d_kg, rng.normal(size=(n_entities, d_kg)),
                         rng.normal(size=(n_relations, d_kg)))
    return cfg, params, emb


class TestBuildAugmentedInput:
    def test_variant_none_is_plain_lookup(self):
        cfg, params, emb = tiny_setup()
        q = [40, 41, 42, 43, 44, 45, 46]
        aug = AugmentedInput(q, [1, 2], [0], "none")
        enc = build_augmented_input(aug, emb, params)
        assert enc.lengths == (7,)
        assert np.array_equal(enc.rows.data, params["tok_emb"].data[q])

    def test_length_arithmetic_variant_both(self):
        cfg, params, emb = tiny_setup()
        aug = AugmentedInput([40] * 7, [1, 2], [0], "both")
        enc = build_augmented_input(aug, emb, params)
        assert enc.lengths == (7 + 1 + 2 + 1,)

    def test_entity_variant_rows_match_matvec_oracle(self):
        cfg, params, emb = tiny_setup()
        q = [40] * 7
        aug = AugmentedInput(q, [1, 2], [0], "entity")
        enc = build_augmented_input(aug, emb, params)
        assert enc.lengths == (10,)
        proj = params["kg_proj"].data
        type_e = params["kg_type"].data[0]
        for slot, ent in enumerate([1, 2]):
            expected = emb.entity_vecs[ent] @ proj + type_e
            assert np.allclose(enc.rows.data[8 + slot], expected, atol=1e-12)
        assert np.array_equal(enc.rows.data[7], params["tok_emb"].data[SEP_ID])

    def test_relation_variant_skips_entities(self):
        cfg, params, emb = tiny_setup()
        aug = AugmentedInput([40] * 5, [1, 2], [0, 1], "relation")
        enc = build_augmented_input(aug, emb, params)
        assert enc.lengths == (5 + 1 + 2,)
        proj = params["kg_proj"].data
        type_r = params["kg_type"].data[1]
        expected = emb.relation_vecs[0] @ proj + type_r
        assert np.allclose(enc.rows.data[6], expected, atol=1e-12)

    def test_length_law_all_variants(self):
        cfg, params, emb = tiny_setup()
        for n_e in range(3):
            for n_r in range(3):
                aug_base = dict(question_ids=[40] * 6,
                                entity_ids=list(range(n_e)),
                                relation_ids=list(range(n_r)))
                for variant, expect in [
                        ("none", 6),
                        ("entity", 7 + n_e),
                        ("relation", 7 + n_r),
                        ("both", 7 + n_e + n_r)]:
                    enc = build_augmented_input(
                        AugmentedInput(variant=variant, **aug_base), emb, params)
                    assert enc.lengths == (expect,), (variant, n_e, n_r)

    def test_too_long(self):
        cfg, params, emb = tiny_setup()
        with pytest.raises(TooLongError):
            build_augmented_input(AugmentedInput([40] * 40, [], [], "none"),
                                  emb, params)


class TestForward:
    def test_decoder_causality_exhaustive(self):
        # perturb each decoder position; logits strictly before it must not move
        cfg, params, emb = tiny_setup()
        q = [40, 41, 42]
        enc = build_augmented_input(AugmentedInput(q, [], [], "none"), emb, params)
        base_ids = [BOS_ID, 40, 41, 42, 43, 44, 45, 46]
        base = forward(params, enc, base_ids, train_mode=False, seed=0).data
        for j in range(1, len(base_ids)):
            mutated = list(base_ids)
            mutated[j] = 50
            out = forward(params, enc, mutated, train_mode=False, seed=0).data
            assert np.array_equal(out[:j], base[:j]), j

    def test_eval_deterministic_bitwise(self):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(AugmentedInput([40, 41], [1], [0], "both"),
                                    emb, params)
        a = forward(params, enc, [BOS_ID, 40], train_mode=False, seed=0).data
        b = forward(params, enc, [BOS_ID, 40], train_mode=False, seed=0).data
        assert np.array_equal(a, b)

    def test_train_mode_seed_changes_dropout(self):
        cfg, params, emb = tiny_setup()
        enc_a = build_augmented_input(AugmentedInput([40, 41], [], [], "none"),
                                      emb, params)
        a = forward(params, enc_a, [BOS_ID, 40], train_mode=True, seed=0).data
        enc_b = build_augmented_input(AugmentedInput([40, 41], [], [], "none"),
                                      emb, params)
        b = forward(params, enc_b, [BOS_ID, 40], train_mode=True, seed=1).data
        assert not np.array_equal(a, b)

    def test_missing_bos(self):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(AugmentedInput([40], [], [], "none"), emb, params)
        with pytest.raises(MissingBOSError):
            forward(params, enc, [40, 41], train_mode=False, seed=0)

    def test_logits_finite_and_grad_check_through_model(self):
        cfg, params, emb = tiny_setup(d_model=32, n_layers=2)
        enc = build_augmented_input(AugmentedInput([40, 41, 42], [1], [0], "both"),
                                    emb, params)
        logits = forward(params, enc, [BOS_ID, 43, 44], train_mode=False, seed=0)
        assert np.all(np.isfinite(logits.data))

        # gradient-checker oracle through cross entropy + full model wrt one weight
        target = [43, 44, EOS_ID]

        def f(w):
            params.tensors["enc0.attn.wq"] = w
            e = build_augmented_input(AugmentedInput([40, 41, 42], [1], [0], "both"),
                                      emb, params)
            return cross_entropy_mean(forward(params, e, [BOS_ID, 43, 44],
                                              train_mode=False, seed=0), target)
        err = grad_check(f, params["enc0.attn.wq"])
        assert err < 1e-5

    def test_augmentation_identity_full_model(self):
        # variant=none must be bit-identical to a build with no KG machinery
        cfg, params, emb = tiny_setup()
        params_nokgs = ModelParams.init(cfg, seed=0, kg_enabled=False)
        shared = set(params_nokgs.tensors)
        assert shared == set(params.tensors) - {"kg_proj", "kg_type"}
        for name in shared:
            assert np.array_equal(params.tensors[name].data,
                                  params_nokgs.tensors[name].data), name
        q = [40, 41, 42, 43]
        enc_a = build_augmented_input(AugmentedInput(q, [1, 2], [0], "none"),
                                      emb, params)
        enc_b = build_augmented_input(AugmentedInput(q, [], [], "none"),
                                      emb, params_nokgs)
        assert np.array_equal(enc_a.rows.data, enc_b.rows.data)
        la = forward(params, enc_a, [BOS_ID, 44], train_mode=False, seed=0).data
        lb = forward(params_nokgs, enc_b, [BOS_ID, 44], train_mode=False, seed=0).data
        assert np.array_equal(la, lb)


PACKED_AUGS = [AugmentedInput([40, 41, 42], [1, 2], [0], "both"),
               AugmentedInput([43], [], [], "both"),
               AugmentedInput([44, 45, 46, 47, 48], [3], [], "entity"),
               AugmentedInput([49, 50], [4], [1, 2], "relation")]
PACKED_DEC = [[BOS_ID, 43, 44], [BOS_ID], [BOS_ID, 45, 46, 47], [BOS_ID, 48]]


class TestPackedBatch:
    def test_rows_follow_per_example_layout(self):
        cfg, params, emb = tiny_setup()
        packed = build_augmented_input(PACKED_AUGS, emb, params)
        assert isinstance(packed, EncoderInput)
        singles = [build_augmented_input(a, emb, params) for a in PACKED_AUGS]
        assert packed.lengths == sum((e.lengths for e in singles), ())
        assert packed.n_text == (3, 1, 5, 2)
        assert np.allclose(packed.rows.data,
                           np.concatenate([e.rows.data for e in singles]),
                           rtol=1e-14, atol=1e-16)

    def test_logits_match_per_example_forward(self):
        cfg, params, emb = tiny_setup()
        packed = forward(params, build_augmented_input(PACKED_AUGS, emb, params),
                         PACKED_DEC, train_mode=False, seed=0).data
        singles = np.concatenate([
            forward(params, build_augmented_input(a, emb, params), ids,
                    train_mode=False, seed=0).data
            for a, ids in zip(PACKED_AUGS, PACKED_DEC)])
        assert np.allclose(packed, singles, rtol=1e-12, atol=1e-12)

    def test_examples_do_not_see_each_other(self):
        # with dropout on, changing the third example's tokens and linked
        # entity leaves every other example's logits bit-identical
        cfg, params, emb = tiny_setup()
        base = forward(params, build_augmented_input(PACKED_AUGS, emb, params),
                       PACKED_DEC, train_mode=True, seed=11).data
        augs = list(PACKED_AUGS)
        augs[2] = AugmentedInput([51, 52, 53, 54, 55], [5], [], "entity")
        other = forward(params, build_augmented_input(augs, emb, params), PACKED_DEC,
                        train_mode=True, seed=11).data
        third = slice(4, 8)  # its decoder rows
        assert np.array_equal(np.delete(base, third, axis=0),
                              np.delete(other, third, axis=0))
        assert not np.array_equal(base[third], other[third])

    def test_only_each_example_is_bounded_by_max_len(self):
        cfg, params, emb = tiny_setup()
        augs = [AugmentedInput([40] * 20, [], [], "none")] * 3  # 60 rows > max_len 32
        enc = build_augmented_input(augs, emb, params)
        dec = [[BOS_ID] + [41] * 12] * 3  # 39 rows > max_len 32
        logits = forward(params, enc, dec, train_mode=True, seed=1)
        assert logits.shape == (39, cfg.vocab_size)
        with pytest.raises(TooLongError):
            build_augmented_input(augs + [AugmentedInput([40] * 33, [], [], "none")],
                                  emb, params)
        with pytest.raises(TooLongError):
            forward(params, enc, [[BOS_ID, 41], [BOS_ID] + [41] * 32, [BOS_ID]],
                    train_mode=True, seed=1)

    def test_every_example_needs_bos(self):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(PACKED_AUGS, emb, params)
        with pytest.raises(MissingBOSError):
            forward(params, enc, PACKED_DEC[:3] + [[48]], train_mode=False, seed=0)


class TestDropoutDraws:
    """A training forward draws all its dropout from one Generator, each
    site at the full packed shape of its operand."""

    SEED = 21

    def batch(self):
        # encoder lengths 2, 7 and 5; decoder lengths 1, 4 and 2
        cfg, params, emb = tiny_setup()
        return cfg, params, build_augmented_input(PACKED_AUGS[1:], emb, params), PACKED_DEC[1:]

    def counting(self, monkeypatch):
        """Patch ``np.random.default_rng``; returns the list of Generators
        built and the list of (generator index, shape) draws."""
        built, draws = [], []
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.gen = default_rng(seed)
                built.append(seed)

            def random(self, shape):
                draws.append((len(built) - 1, shape))
                return self.gen.random(shape)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        return built, draws

    def test_one_generator_in_train_and_none_in_eval(self, monkeypatch):
        cfg, params, enc, dec = self.batch()
        built, draws = self.counting(monkeypatch)
        forward(params, enc, dec, train_mode=True, seed=self.SEED)
        assert len(built) == 1 and draws
        built.clear()
        forward(params, enc, dec, train_mode=False, seed=self.SEED)
        assert built == []

    def test_every_site_draws_its_full_shape_in_order(self, monkeypatch):
        cfg, params, enc, dec = self.batch()
        built, draws = self.counting(monkeypatch)
        logits = forward(params, enc, dec, train_mode=True, seed=self.SEED).data
        n, t, d, h = 14, 7, cfg.d_model, cfg.n_heads
        want = ([(n, d)] + [(h, n, n), (n, d), (n, d)] * cfg.n_layers
                + [(t, d)] + [(h, t, t), (t, d), (h, t, n), (t, d), (t, d)] * cfg.n_layers)
        assert draws == [(0, shape) for shape in want]
        monkeypatch.undo()
        again = forward(params, enc, dec, train_mode=True, seed=self.SEED).data
        assert again.tobytes() == logits.tobytes()


def reference_decode(params, enc, max_steps):
    """Greedy decoding as one full ``forward`` per emitted token; returns the
    ids and each step's last-row logits."""
    ids, rows = [BOS_ID], []
    for _ in range(max_steps):
        row = forward(params, enc, ids, train_mode=False, seed=0).data[-1]
        rows.append(row)
        nxt = int(np.argmax(row))
        if nxt == EOS_ID:
            break
        ids.append(nxt)
        if len(ids) >= params.config.max_len:
            break
    return ids[1:], rows


class TestGreedyDecode:
    def test_deterministic(self):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(AugmentedInput([40, 41], [], [], "none"),
                                    emb, params)
        assert greedy_decode(params, enc, 6) == greedy_decode(params, enc, 6)

    def test_max_steps_one_with_eos_argmax_is_empty(self):
        cfg, params, emb = tiny_setup()
        # read the final hidden state through an identity projection, then
        # point the EOS column at it so EOS wins the argmax
        w = params.tensors["out_proj"].data
        w[:] = 0.0
        for i in range(cfg.d_model):
            w[i, i] = 1.0
        enc = build_augmented_input(AugmentedInput([40], [], [], "none"),
                                    emb, params)
        hidden = forward(params, enc, [BOS_ID], train_mode=False,
                         seed=0).data[0, :cfg.d_model]
        w[:] = 0.0
        w[:, EOS_ID] = 100.0 * hidden / float(hidden @ hidden)
        assert greedy_decode(params, enc, 1) == []

    def test_ties_resolve_to_lowest_id(self):
        cfg, params, emb = tiny_setup()
        params.tensors["out_proj"].data[:] = 0.0  # all logits tie
        enc = build_augmented_input(AugmentedInput([40], [], [], "none"),
                                    emb, params)
        out = greedy_decode(params, enc, 3)
        assert out == [0, 0, 0]  # PAD is the lowest id

    def check(self, monkeypatch, params, enc, max_steps):
        """Decoding encodes once and re-runs only the decoder stack; its ids
        and every step's logits must equal those of one forward per token."""
        ref_out, ref_rows = reference_decode(params, enc, max_steps)
        rows = []
        stack = model._decode_stack

        def recording(*args):
            logits = stack(*args)
            (row,) = logits.data[:, -1]  # a window of one stacks one question
            rows.append(row.copy())
            return logits

        monkeypatch.setattr(model, "_decode_stack", recording)
        out = greedy_decode(params, enc, max_steps)
        assert out == ref_out
        assert len(rows) == len(ref_rows)
        for step, (a, b) in enumerate(zip(rows, ref_rows)):
            assert np.array_equal(a, b), step
        return out

    @pytest.mark.parametrize("variant", ["none", "both"])
    def test_variants(self, monkeypatch, variant):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(AugmentedInput([40, 41, 42], [1, 2], [0], variant),
                                    emb, params)
        assert len(self.check(monkeypatch, params, enc, 8)) == 8

    def test_stops_at_eos(self, monkeypatch):
        cfg, params, emb = tiny_setup(seed=2)
        enc = build_augmented_input(AugmentedInput([40, 41, 42], [1, 2], [0], "both"),
                                    emb, params)
        out = self.check(monkeypatch, params, enc, 8)
        assert 0 < len(out) < 8  # EOS won the argmax after some tokens

    def test_too_long_encoder_input_raises_before_encoding(self, monkeypatch):
        cfg, params, emb = tiny_setup()
        enc = EncoderInput(rows=Tensor(np.zeros((cfg.max_len + 1, cfg.d_model))),
                           n_text=(cfg.max_len + 1,), lengths=(cfg.max_len + 1,))

        def no_encode(*args):
            raise AssertionError("encoder ran on an over-long input")

        monkeypatch.setattr(model, "encode", no_encode)
        with pytest.raises(TooLongError):
            greedy_decode(params, enc, 4)

    def test_batch_of_several_raises(self, monkeypatch):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(PACKED_AUGS[:2], emb, params)

        def no_encode(*args):
            raise AssertionError("encoder ran on a batch of two")

        monkeypatch.setattr(model, "encode", no_encode)
        with pytest.raises(ValueError, match="one example"):
            greedy_decode(params, enc, 4)

    def test_builds_no_random_generator(self, monkeypatch):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(AugmentedInput([40, 41], [1], [0], "both"),
                                    emb, params)
        expected = greedy_decode(params, enc, 4)

        def no_rng(*args, **kwargs):
            raise AssertionError("eval decoding built a random generator")

        monkeypatch.setattr(model.np.random, "default_rng", no_rng)
        assert greedy_decode(params, enc, 4) == expected


def pinned_inputs(weight_seed, variant, indices):
    """Seeded untrained weights and the encoder inputs of the pinned world's
    questions ``indices``."""
    exp = ExperimentConfig()
    kg, corpus, dataset = build_world(exp)
    vocab = build_vocabulary(corpus, dataset)
    cfg = replace(exp.model, vocab_size=len(vocab))
    params = ModelParams.init(cfg, weight_seed)
    emb = init_embeddings(kg, cfg.d_kg, weight_seed)
    prepared = prepare_examples([dataset[i] for i in indices], kg, vocab, variant)
    return params, [build_augmented_input(p.aug, emb, params) for p in prepared]


def decode_in_windows(monkeypatch, params, encs, max_steps):
    """Decode ``encs`` in windows of ``DECODE_WINDOW``, as ``evaluate_split``
    does.  Every question's ids and every step's logits must equal
    ``reference_decode``'s byte for byte.  Returns the ids and the size of
    each stacked group."""
    refs = [reference_decode(params, enc, max_steps) for enc in encs]
    calls = []
    encode, stack = model.encode, model._decode_stack

    def recording_encode(*args):
        calls.append(("encode", args[1]))
        return encode(*args)

    def recording_stack(*args):
        logits = stack(*args)
        calls.append(("step", np.array(args[1]), logits.data.copy()))
        return logits

    monkeypatch.setattr(model, "encode", recording_encode)
    monkeypatch.setattr(model, "_decode_stack", recording_stack)
    outs = []
    for lo in range(0, len(encs), DECODE_WINDOW):
        batch = DecodeBatch(params, encs[lo:lo + DECODE_WINDOW], max_steps)
        outs += [greedy_decode(params, enc, max_steps, batch) for enc in batch.encs]
    assert outs == [ids for ids, _ in refs]
    # replay: an encode call stacks the next questions of its group; each
    # step's slices are the members that have not emitted EOS
    pending, steps, sizes, members = list(range(len(encs))), [0] * len(encs), [], []
    for call in calls:
        if call[0] == "encode":
            members = []
            for rows in call[1].rows.data:
                i = next(i for i in pending if encs[i].rows.data.tobytes() == rows.tobytes())
                pending.remove(i)
                members.append(i)
            sizes.append(len(members))
            continue
        _, ids, logits = call
        assert len(ids) == len(logits) == len(members)
        t = ids.shape[1]
        for b, i in enumerate(members):
            ref_ids, ref_rows = refs[i]
            assert ids[b].tolist() == [BOS_ID] + ref_ids[:t - 1], (i, t)
            assert logits[b, -1].tobytes() == ref_rows[t - 1].tobytes(), (i, t)
            steps[i] += 1
        members = [i for b, i in enumerate(members) if np.argmax(logits[b, -1]) != EOS_ID]
    assert pending == []
    assert steps == [len(rows) for _, rows in refs]
    return outs, sizes


class TestWindowDecode:
    def test_mixed_shapes_and_early_eos(self, monkeypatch):
        cfg, params, emb = tiny_setup(seed=2)
        augs = [AugmentedInput([40, 41, 42], [1, 2], [0], "both"),  # (3, 7), EOS after 6
                AugmentedInput([40, 41], [], [], "none"),  # (2, 2)
                AugmentedInput([43, 44, 45], [3, 4], [1], "both"),  # (3, 7)
                AugmentedInput([49, 50], [7], [0], "both"),  # (2, 5)
                AugmentedInput([51, 52], [8, 9], [1], "both"),  # (2, 6)
                AugmentedInput([46, 47, 48], [5, 6], [2], "both"),  # (3, 7)
                AugmentedInput([53, 54], [], [], "none")]  # (2, 2)
        encs = [build_augmented_input(a, emb, params) for a in augs]
        outs, sizes = decode_in_windows(monkeypatch, params, encs, 8)
        assert sizes == [3, 2, 1, 1]  # (3, 7), (2, 2), (2, 5), (2, 6)
        assert len(outs[0]) == 6 and all(len(o) == 8 for o in outs[1:])

    def test_stops_at_max_len(self, monkeypatch):
        cfg, params, emb = tiny_setup()
        encs = [build_augmented_input(AugmentedInput(q, [1, 2], [0], "both"), emb, params)
                for q in ([40, 41, 42], [43, 44, 45], [46, 47, 48])]
        outs, sizes = decode_in_windows(monkeypatch, params, encs, cfg.max_len + 8)
        assert sizes == [3]
        assert [len(o) for o in outs] == [cfg.max_len - 1] * 3

    @pytest.mark.parametrize("n", [DECODE_WINDOW - 1, DECODE_WINDOW, DECODE_WINDOW + 1])
    def test_split_sizes(self, monkeypatch, n):
        # weight seed 6, variant none: question 26 emits EOS after one token
        params, encs = pinned_inputs(6, "none", range(20, 20 + n))
        outs, sizes = decode_in_windows(monkeypatch, params, encs, 4)
        assert sum(sizes) == n and max(sizes) > 1
        assert min(len(o) for o in outs) < 4

    def test_batch_mismatch_raises_before_decoding(self, monkeypatch):
        params, encs = pinned_inputs(0, "none", [0, 1])
        copy = EncoderInput(encs[0].rows, encs[0].n_text, encs[0].lengths)

        def no_encode(*args):
            raise AssertionError("a mismatched request decoded")

        monkeypatch.setattr(model, "encode", no_encode)
        for other in (params.copy(), ModelParams.init(params.config, 0)):
            with pytest.raises(DecodeBatchMismatchError, match="other params"):
                greedy_decode(params, encs[0], 4, DecodeBatch(other, encs, 4))
        with pytest.raises(DecodeBatchMismatchError, match="3 steps"):
            greedy_decode(params, encs[0], 4, DecodeBatch(params, encs, 3))
        with pytest.raises(DecodeBatchMismatchError, match="not in"):
            greedy_decode(params, copy, 4, DecodeBatch(params, encs, 4))

    def test_decoding_under_a_tape_raises(self):
        params, (enc,) = pinned_inputs(0, "none", [0])
        with Tape():
            with pytest.raises(ShapeMismatchError):
                greedy_decode(params, enc, 4)
