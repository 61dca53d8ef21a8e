"""The benchmark's tracer wraps module-level names of the package by name.

A rename under ``src/`` would make ``perfbench/run.py --trace 1`` fail (or
trace nothing) without any package test noticing, so this loads the tracer
module, without writing bytecode next to it, and checks that every name it
wraps still exists, that its info hooks read attributes the package still has,
and that a traced run trains and decodes exactly as an untraced one and
leaves every name as it found it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from kgt5lab import harness, trainer
from kgt5lab.data import SyntheticKGSpec, gen_qa, gen_synthetic_kg
from kgt5lab.embeddings import EmbeddingTable, init_embeddings
from kgt5lab.model import (AugmentedInput, ModelConfig, ModelParams,
                           build_augmented_input, build_vocab)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(tracer):
    names = [(module, attr) for module, attr, _span, _info in tracer._WRAPS]
    return names + [(tracer.trainer, "Tape"), (tracer.trainer, "adam_step")]


def test_every_wrapped_name_exists(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer._WRAPS
    missing = [f"{module.__name__}.{attr}" for module, attr, _span, _info in tracer._WRAPS
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # install() also subclasses trainer.Tape and wraps trainer.adam_step
    assert isinstance(tracer.trainer.Tape, type)
    assert callable(tracer.trainer.adam_step)


def test_encode_hook_reads_encoder_input(monkeypatch):
    # the model.encode hook keys each call on its encoder input's n_text,
    # rows.data and mask; a missing attribute would break only a traced run
    tracer = load_tracer(monkeypatch)
    (hook,) = [info for module, attr, _span, info in tracer._WRAPS
               if module is tracer.model and attr == "encode"]
    cfg = ModelConfig(vocab_size=50, d_model=16, n_heads=2, d_ff=32, d_kg=4)
    params = ModelParams.init(cfg, seed=0)
    rng = np.random.default_rng(0)
    emb = EmbeddingTable(4, rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
    augs = [AugmentedInput([40, 41], [1], [0], "both"),
            AugmentedInput([42], [], [], "none")]
    for a in (augs[0], augs):
        enc = build_augmented_input(a, emb, params)
        n_rows = sum(enc.lengths)
        assert isinstance(enc.n_text, tuple) and len(enc.n_text) == len(enc.lengths)
        assert enc.rows.data.shape == (n_rows, cfg.d_model)
        assert enc.mask.shape == (n_rows,)
        assert isinstance(hook((params, enc, None, False)), int)


def tiny_training():
    """2 pretrain steps, then 2 fine-tune steps of variant ``both``: the
    losses, the fine-tune trace and the final parameter and KG-row bytes."""
    kg, corpus = gen_synthetic_kg(SyntheticKGSpec(n_people=8, n_cities=3, n_countries=2,
                                                  occupations=("weaver",), seed=0))
    dataset = gen_qa(kg, {"hop1": 6, "hop2": 6}, seed=0)
    vocab = build_vocab(list(corpus) + [e.question for e in dataset]
                        + [e.answer for e in dataset])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32,
                      max_len=32, d_kg=4)
    step_cfg = trainer.TrainConfig(max_steps=2, batch_size=4, eval_every=1)
    params, losses = trainer.pretrain(ModelParams.init(cfg, seed=0),
                                      [vocab.encode(s) for s in corpus], step_cfg)
    params, emb, trace = trainer.finetune(params, dataset, kg, init_embeddings(kg, 4, 0),
                                          trainer.LossSpec(), "both", step_cfg, vocab)
    return (losses, trace, [params[n].data.tobytes() for n in params.names()],
            emb.entity_vecs.tobytes(), emb.relation_vecs.tobytes())


def test_traced_training_is_bit_identical_and_restores(monkeypatch):
    tracer = load_tracer(monkeypatch)
    names = wrapped_names(tracer)
    originals = [getattr(module, attr) for module, attr in names]
    plain = tiny_training()
    t = tracer.Tracer()
    t.install()
    try:
        traced = tiny_training()
    finally:
        t.restore()
    assert traced == plain
    assert t.name.count("trainer.step") == 4
    assert t.name.count("trainer.pretrain") == t.name.count("trainer.finetune") == 1
    assert [getattr(module, attr) for module, attr in names] == originals


def tiny_eval():
    """Greedy predictions of variant ``both`` on 20 questions (two decode
    windows) with untrained weights, recorded per ``greedy_decode`` call."""
    kg, corpus = gen_synthetic_kg(SyntheticKGSpec(n_people=12, n_cities=3, n_countries=2,
                                                  occupations=("weaver",), seed=0))
    dataset = gen_qa(kg, {"hop1": 10, "hop2": 10}, seed=0)
    vocab = build_vocab(list(corpus) + [e.question for e in dataset]
                        + [e.answer for e in dataset])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32,
                      max_len=32, d_kg=4)
    preds = []
    decode = harness.greedy_decode

    def recording(*args):
        preds.append(decode(*args))
        return preds[-1]

    harness.greedy_decode = recording
    try:
        stats = harness.evaluate_split(ModelParams.init(cfg, seed=0), vocab, kg,
                                       init_embeddings(kg, 4, 0), dataset, "both", 4)
    finally:
        harness.greedy_decode = decode
    return stats, preds


def test_traced_decoding_is_bit_identical_and_restores(monkeypatch):
    # the model.encode hook reads the stacked encoder input of each group
    tracer = load_tracer(monkeypatch)
    names = wrapped_names(tracer)
    originals = [getattr(module, attr) for module, attr in names]
    plain = tiny_eval()
    t = tracer.Tracer()
    t.install()
    try:
        traced = tiny_eval()
    finally:
        t.restore()
    assert traced == plain and len(plain[1]) == 20
    assert t.name.count("model.greedy_decode") == 20
    encodes = [i for i, name in enumerate(t.name) if name == "model.encode"]
    assert 2 <= len(encodes) < 20 and all(isinstance(t.info[i], int) for i in encodes)
    assert [getattr(module, attr) for module, attr in names] == originals
