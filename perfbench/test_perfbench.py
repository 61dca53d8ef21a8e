"""The benchmark's own test.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It shows that tracing restores every name it wraps and changes no output
bit, and that a run prints exactly the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json

import pytest

import run  # pins BLAS threads and puts src/ on the path
import tracer as tracing
import workloads
from kgt5lab import trainer


def _wrapped():
    names = [(m, a) for m, a, _n, _i in tracing._WRAPS] + [(trainer, "Tape")]
    return {(m.__name__, a): getattr(m, a) for m, a in names}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Workloads shrunk to a few steps and questions, same code paths."""
    monkeypatch.setattr(workloads, "PRETRAIN_STEPS", 2)
    monkeypatch.setattr(workloads, "FINETUNE_STEPS", 3)
    monkeypatch.setattr(workloads, "FINAL_WINDOW", 2)
    monkeypatch.setattr(workloads, "TRANSE_EPOCHS", 2)
    monkeypatch.setattr(workloads, "KG_SCALE", 1)
    return tmp_path


def _job(wl, st, tracer=None):
    log = workloads.JobLog()
    if tracer is not None:
        tracer.start_phase(0)
        tracer.install()
    try:
        wl.job(st, log)
    finally:
        if tracer is not None:
            tracer.restore()
    return log


def test_restore_puts_back_every_wrapped_name():
    before = _wrapped()
    t = tracing.Tracer()
    t.install()
    during = _wrapped()
    assert all(during[k] is not before[k] for k in before)
    assert t._on_gc in gc.callbacks
    t.restore()
    after = _wrapped()
    assert all(after[k] is before[k] for k in before)
    assert t._on_gc not in gc.callbacks


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_job_is_bit_identical_and_restores(name, small):
    wl = workloads.make(name, small, workloads.load_reference()[name])
    st = wl.setup(1)
    if name == "decode":
        st.dataset = st.dataset[::40]
    before = _wrapped()
    plain = _job(wl, st)
    t = tracing.Tracer()
    traced = _job(wl, st, t)
    assert _wrapped() == before
    assert not plain.failures and not traced.failures
    assert traced.digest == plain.digest
    assert traced.obs == plain.obs

    layer = tracing.layer_metrics(t, [0])
    assert list(layer) == tracing.layer_metric_names()
    if name == "train":
        steps = 2 + 4 * 3
        assert layer["trainer.steps"] == steps
        assert layer["autodiff.tape_nodes"] > 0
        assert sum(layer[f"autodiff.tape_nodes.{op}"] for op in tracing.TAPE_OPS) \
            + layer["autodiff.tape_nodes.other"] == pytest.approx(layer["autodiff.tape_nodes"])
        assert layer["model.forward_calls"] == 8.0  # batch of 8 per step
    if name == "decode":
        steps = st.exp.decode_steps
        assert layer["model.forward_calls"] == steps
        assert layer["model.encode_reuse_ratio"] == pytest.approx(1.0 / steps)
    if name == "kg-sweep":
        assert layer["embeddings.transe_ms_per_epoch"] > 0
        assert layer["embeddings.transe_triple_epochs"] == 2 * sum(
            len(g.triples) for g in st.subgraphs)
        assert layer["trainer.checkpoint_load_ms"] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(100))) == (90.0, 89)
    assert tracing.tail_percentile(list(range(1000))) == (99.0, 989)
    assert tracing.tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_listed_metrics(trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "decode", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4 * (1 + trace)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
