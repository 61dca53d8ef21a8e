"""The benchmark's tracer wraps module-level names of the package by name.

A rename under ``src/`` would make ``perfbench/run.py --trace 1`` fail (or
trace nothing) without any package test noticing, so this loads the tracer
module, without writing bytecode next to it, and checks that every name it
wraps still exists and that its info hooks read attributes the package
still has.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from kgt5lab.embeddings import EmbeddingTable
from kgt5lab.model import (AugmentedInput, ModelConfig, ModelParams,
                           build_augmented_input)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
