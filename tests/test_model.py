"""Vocabulary, span corruption, input augmentation and transformer tests."""

from dataclasses import replace

import numpy as np
import pytest

from kgt5lab import autodiff, model
from kgt5lab.autodiff import (Tape, Tensor, concat_rows, cross_entropy_mean,
                              grad_check)
from kgt5lab.embeddings import EmbeddingTable, init_embeddings, seed_seq
from kgt5lab.harness import ExperimentConfig, build_vocabulary, build_world
from kgt5lab.model import (AugmentedInput, BOS_ID, EOS_ID, EmptyCorpusError,
                           EncoderInput, FIRST_REGULAR_ID, MissingBOSError,
                           ModelConfig, ModelParams, N_SENTINELS, PrefixTable,
                           PrefixTableMismatchError, SEP_ID,
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

    def test_masked_row_is_ignored(self):
        # a junk row with mask 0 must not change any logit
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(AugmentedInput([40, 41, 42], [1], [0], "both"),
                                    emb, params)
        junk = Tensor(np.full((1, cfg.d_model), 7.0))
        padded = EncoderInput(rows=concat_rows([enc.rows, junk]), n_text=enc.n_text,
                              lengths=(enc.lengths[0] + 1,),
                              mask=np.append(enc.mask, 0.0))
        a = forward(params, enc, [BOS_ID, 43, 44], train_mode=False, seed=0).data
        b = forward(params, padded, [BOS_ID, 43, 44], train_mode=False, seed=0).data
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)

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
                         PACKED_DEC, train_mode=False, seed=[0] * 4).data
        singles = np.concatenate([
            forward(params, build_augmented_input(a, emb, params), ids,
                    train_mode=False, seed=0).data
            for a, ids in zip(PACKED_AUGS, PACKED_DEC)])
        assert np.allclose(packed, singles, rtol=1e-12, atol=1e-12)

    def test_examples_do_not_see_each_other(self):
        # with dropout on, changing the third example's tokens and linked
        # entity leaves every other example's logits bit-identical
        cfg, params, emb = tiny_setup()
        seeds = [11, 12, 13, 14]
        base = forward(params, build_augmented_input(PACKED_AUGS, emb, params),
                       PACKED_DEC, train_mode=True, seed=seeds).data
        augs = list(PACKED_AUGS)
        augs[2] = AugmentedInput([51, 52, 53, 54, 55], [5], [], "entity")
        other = forward(params, build_augmented_input(augs, emb, params), PACKED_DEC,
                        train_mode=True, seed=seeds).data
        third = slice(4, 8)  # its decoder rows
        assert np.array_equal(np.delete(base, third, axis=0),
                              np.delete(other, third, axis=0))
        assert not np.array_equal(base[third], other[third])

    def test_only_each_example_is_bounded_by_max_len(self):
        cfg, params, emb = tiny_setup()
        augs = [AugmentedInput([40] * 20, [], [], "none")] * 3  # 60 rows > max_len 32
        enc = build_augmented_input(augs, emb, params)
        dec = [[BOS_ID] + [41] * 12] * 3  # 39 rows > max_len 32
        logits = forward(params, enc, dec, train_mode=True, seed=[1, 2, 3])
        assert logits.shape == (39, cfg.vocab_size)
        with pytest.raises(TooLongError):
            build_augmented_input(augs + [AugmentedInput([40] * 33, [], [], "none")],
                                  emb, params)
        with pytest.raises(TooLongError):
            forward(params, enc, [[BOS_ID, 41], [BOS_ID] + [41] * 32, [BOS_ID]],
                    train_mode=True, seed=[1, 2, 3])

    def test_every_example_needs_bos(self):
        cfg, params, emb = tiny_setup()
        enc = build_augmented_input(PACKED_AUGS, emb, params)
        with pytest.raises(MissingBOSError):
            forward(params, enc, PACKED_DEC[:3] + [[48]], train_mode=False, seed=[0] * 4)


class PerSiteStreams:
    """The earlier dropout source of a packed batch: every keep_mask call
    draws each segment's block from that segment's own Generator."""

    def __init__(self, gens, rows, cols=None):
        self.gens = gens
        self.rows = rows
        self.cols = rows if cols is None else cols

    def keep_mask(self, shape, keep):
        mask = np.zeros(shape)
        r, c = self.rows, self.cols
        for i, gen in enumerate(self.gens):
            if len(shape) == 2:
                block = mask[r[i]:r[i + 1]]
            else:
                block = mask[..., r[i]:r[i + 1], c[i]:c[i + 1]]
            block[...] = (gen.random(block.shape) < keep) / keep
        return mask


class TestDropoutDraws:
    """A training forward draws each example's dropout once, and every
    mask equals the one drawn per site."""

    SEEDS = [21, 22, 23]

    def batch(self):
        # encoder lengths 2, 7 and 5; decoder lengths 1, 4 and 2
        cfg, params, emb = tiny_setup()
        return cfg, params, build_augmented_input(PACKED_AUGS[1:], emb, params), PACKED_DEC[1:]

    def test_every_mask_equals_the_per_site_draw(self, monkeypatch):
        cfg, params, enc, dec = self.batch()
        sites = []
        keep_mask = autodiff.Streams.keep_mask

        def recording(rng, shape, keep):
            mask = keep_mask(rng, shape, keep)
            sites.append((rng, shape, keep, mask))
            return mask

        monkeypatch.setattr(autodiff.Streams, "keep_mask", recording)
        forward(params, enc, dec, train_mode=True, seed=self.SEEDS)
        gens = [np.random.default_rng(seed_seq(s, "dropout")) for s in self.SEEDS]
        enc_rows, dec_rows = (0, 2, 9, 14), (0, 1, 5, 7)
        kinds = []
        for rng, shape, keep, mask in sites:
            ref = PerSiteStreams(gens, rng.rows, rng.cols).keep_mask(shape, keep)
            assert mask.tobytes() == ref.tobytes()
            kind = {(enc_rows, enc_rows): "enc", (dec_rows, dec_rows): "dec",
                    (dec_rows, enc_rows): "cross"}[(tuple(rng.rows), tuple(rng.cols))]
            kinds.append((kind, len(shape)))
        n = cfg.n_layers
        assert sorted(kinds) == sorted([("enc", 2)] * (1 + 2 * n) + [("enc", 3)] * n
                                       + [("dec", 2)] * (1 + 3 * n) + [("dec", 3)] * n
                                       + [("cross", 3)] * n)
        assert sites[-1][0].pos == sites[-1][0].ends  # every planned draw used

    def test_one_random_call_per_example_and_none_in_eval(self, monkeypatch):
        cfg, params, enc, dec = self.batch()
        calls = []
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.gen = default_rng(seed)

            def random(self, *args, **kwargs):
                calls.append(args or kwargs)
                return self.gen.random(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        forward(params, enc, dec, train_mode=True, seed=self.SEEDS)
        assert len(calls) == len(self.SEEDS)
        calls.clear()
        forward(params, enc, dec, train_mode=False, seed=self.SEEDS)
        assert calls == []


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
            rows.append(logits.data[-1].copy())
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

    def test_masked_encoder_row(self, monkeypatch):
        cfg, params, emb = tiny_setup(seed=1)
        enc = build_augmented_input(AugmentedInput([43, 44], [1], [0], "both"),
                                    emb, params)
        junk = Tensor(np.full((1, cfg.d_model), 7.0))
        padded = EncoderInput(rows=concat_rows([enc.rows, junk]), n_text=enc.n_text,
                              lengths=(enc.lengths[0] + 1,),
                              mask=np.append(enc.mask, 0.0))
        self.check(monkeypatch, params, padded, 6)

    def test_stops_at_eos(self, monkeypatch):
        cfg, params, emb = tiny_setup(seed=2)
        enc = build_augmented_input(AugmentedInput([40, 41, 42], [1, 2], [0], "both"),
                                    emb, params)
        out = self.check(monkeypatch, params, enc, 8)
        assert 0 < len(out) < 8  # EOS won the argmax after some tokens

    def test_too_long_encoder_input_raises_before_encoding(self, monkeypatch):
        cfg, params, emb = tiny_setup()
        enc = EncoderInput(rows=Tensor(np.zeros((cfg.max_len + 1, cfg.d_model))),
                           n_text=(cfg.max_len + 1,), lengths=(cfg.max_len + 1,),
                           mask=np.ones(cfg.max_len + 1))

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


class TestPrefixSharing:
    def test_shared_decode_matches_one_forward_per_token(self, monkeypatch):
        # weight seed 6, variant none: question 5 decodes what question 1
        # does, 6 what 4 does, and 26 emits EOS after one token
        params, encs = pinned_inputs(6, "none", [1, 5, 4, 6, 26])
        table = PrefixTable(params)
        rows = []
        stack = model._decode_stack

        def recording(*args):
            logits = stack(*args)
            rows.append(logits.data[-1].copy())
            return logits

        monkeypatch.setattr(model, "_decode_stack", recording)
        outs, new_entries = [], []
        for enc in encs:
            ref_out, ref_rows = reference_decode(params, enc, 4)
            rows.clear()
            before = len(table.entries)
            outs.append(greedy_decode(params, enc, 4, table))
            new_entries.append(len(table.entries) - before)
            assert outs[-1] == ref_out
            assert len(rows) == len(ref_rows)
            for step, (a, b) in enumerate(zip(rows, ref_rows)):
                assert np.array_equal(a, b), step
        assert outs[1] == outs[0] and new_entries[1] == 0  # every prefix cached
        assert outs[3] == outs[2] and new_entries[3] == 0
        assert len(outs[4]) < 4  # EOS won before the last step

    def test_cached_prefix_makes_three_attention_calls_per_step(self, monkeypatch):
        params, (enc,) = pinned_inputs(0, "both", [0])
        table = PrefixTable(params)
        calls = []
        core = model.attention_core

        def counting(*args):
            calls.append(args[0].shape[0])
            return core(*args)

        monkeypatch.setattr(model, "attention_core", counting)
        first = greedy_decode(params, enc, 4, table)
        assert len(first) == 4 and len(calls) == 2 + 4 * 4  # encoder, then misses
        calls.clear()
        assert greedy_decode(params, enc, 4, table) == first
        assert len(calls) == 2 + 4 * 3  # layer 0's self-attention is shared

    def test_table_for_other_params_raises(self):
        params, (enc,) = pinned_inputs(0, "none", [0])
        for other in (params.copy(), ModelParams.init(params.config, 0)):
            with pytest.raises(PrefixTableMismatchError):
                greedy_decode(params, enc, 4, PrefixTable(other))
        assert greedy_decode(params, enc, 4, PrefixTable(params)) == \
            greedy_decode(params, enc, 4)

    def test_not_read_or_written_while_a_tape_records(self):
        params, (enc,) = pinned_inputs(0, "none", [0])
        expected = greedy_decode(params, enc, 4)
        table = PrefixTable(params)
        with Tape():
            assert greedy_decode(params, enc, 4, table) == expected
        assert table.entries == {}


class TestFullModelGradCheck:
    def test_tiny_model_all_parameters(self):
        # d_model=16, 1 layer, every parameter coordinate, threshold 1e-4
        cfg = ModelConfig(vocab_size=45, d_model=16, n_layers=1, n_heads=2,
                          d_ff=24, dropout_p=0.0, max_len=16, d_kg=6)
        params = ModelParams.init(cfg, seed=3)
        rng = np.random.default_rng(4)
        emb = EmbeddingTable(6, rng.normal(size=(5, 6)), rng.normal(size=(2, 6)))
        aug = AugmentedInput([40, 41, 42], [1, 3], [0], "both")
        target = [43, 44, EOS_ID]

        def loss_with(name, w):
            saved = params.tensors[name]
            params.tensors[name] = w
            try:
                enc = build_augmented_input(aug, emb, params)
                return cross_entropy_mean(
                    forward(params, enc, [BOS_ID, 43, 44], train_mode=False,
                            seed=0), target)
            finally:
                params.tensors[name] = w  # keep under check until restored

        worst = {}
        for name in params.names():
            w = params.tensors[name]
            err = grad_check(lambda t: loss_with(name, t), w)
            params.tensors[name] = w
            worst[name] = err
            assert err < 1e-4, (name, err)
