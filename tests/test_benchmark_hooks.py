"""The benchmark's tracer wraps module-level names of the package by name.

A rename under ``src/`` would make ``perfbench/run.py --trace 1`` fail (or
trace nothing) without any package test noticing, so this loads the tracer
module, without writing bytecode next to it, and checks that every name it
wraps still exists.
"""

import importlib.util
import sys
from pathlib import Path

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
