"""The benchmark's three workloads: ``train``, ``decode`` and ``kg-sweep``.

A workload has a ``setup(seed)`` that builds its inputs and warms caches,
and a ``job(state, log)`` that runs one fixed unit of work as timed
operations.  A job records per-stage work and time, intrinsic checks (finite
losses, counts, bit-exact round trips) and the observations that
``verify`` compares with ``reference.json``.

Every workload maps ``--seed`` onto one of ``N_INPUT_SEEDS`` input seeds, the
seeds ``record_reference.py`` recorded references for, so every seed is
checked against a recorded reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from kgt5lab import data, embeddings, harness, kg, model, trainer
from kgt5lab.model import VARIANTS

N_INPUT_SEEDS = 32
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# train: one seed of the pinned ablation with short stages
PRETRAIN_STEPS = 24
FINETUNE_STEPS = 24
FINAL_WINDOW = 8  # fine-tune steps averaged for the final L and Sim
# kg-sweep: the KG side of the scale sweep on a world 20x the pinned one
KG_SCALE = 20
FRACTIONS = (0.25, 0.5, 1.0)
TRANSE_EPOCHS = 25
HITS_K = 10
HINGE_RTOL = 1e-3
HITS_ATOL = 5e-3
EARLY_STOP = "a question emitted EOS early, so forward calls != decode_steps x questions"


class JobLog:
    """Operations, stage work and failures of one job."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.stages: dict[str, list[float]] = {}  # metric -> [work, seconds]
        self.obs: dict = {}
        self._digest = hashlib.sha256()

    def run(self, op: str, fn):
        """Time ``fn()``; returns (result, seconds), or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None
        return result, time.perf_counter() - t0

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, message)

    def check(self, op: str, problems: list[str]) -> None:
        if problems:
            self.fail(op, "; ".join(problems))

    def stage(self, metric: str, work: float, seconds: float) -> None:
        acc = self.stages.setdefault(metric, [0.0, 0.0])
        acc[0] += work
        acc[1] += seconds

    def record(self, values) -> None:
        """Fold outputs into the job digest, which every job must repeat."""
        self._digest.update(json.dumps(values, default=_hex).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _hex(x):
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.integer):
        return int(x)
    raise TypeError(type(x))


def _finite(op: str, values, expected_len: int) -> list[str]:
    problems = []
    if len(values) != expected_len:
        problems.append(f"{op}: {len(values)} values, expected {expected_len}")
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{op}: non-finite value")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    """TransE, span-corruption pretraining, then fine-tuning of the four
    variants from the same pretrained weights: the tape-on path."""

    name = "train"

    def setup(self, seed: int):
        exp = harness.ExperimentConfig()
        kgraph, corpus, dataset = harness.build_world(exp)
        vocab = harness.build_vocabulary(corpus, dataset)
        cfg = replace(exp.model, vocab_size=len(vocab))
        train_set, _ = data.split(dataset, exp.split_ratios, seed)
        st = SimpleNamespace(exp=exp, seed=seed, kg=kgraph, vocab=vocab, cfg=cfg,
                             corpus_ids=[vocab.encode(s) for s in corpus],
                             train_set=train_set)
        # every batch must be full for examples = steps x batch to hold
        if (PRETRAIN_STEPS * exp.pretrain.batch_size > len(st.corpus_ids)
                or FINETUNE_STEPS * exp.finetune.batch_size > len(train_set)):
            raise ValueError("stage step counts exceed one epoch")
        # warm-up: one step of each loop fills model caches and BLAS state
        emb = embeddings.init_embeddings(kgraph, cfg.d_kg, seed)
        params, _ = trainer.pretrain(model.ModelParams.init(cfg, seed), st.corpus_ids,
                                     replace(exp.pretrain, seed=seed, max_steps=1))
        trainer.finetune(params, train_set, kgraph, emb, exp.loss, "both",
                         replace(exp.finetune, seed=seed, max_steps=1), vocab)
        return st

    def job(self, st, log: JobLog) -> None:
        exp, seed = st.exp, st.seed
        transe_cfg = replace(exp.transe, seed=seed)
        r = log.run("transe", lambda: embeddings.train_kg_embeddings(
            st.kg, transe_cfg, st.cfg.d_kg))
        if r is None:
            return
        (emb0, hinge), dt = r
        log.check("transe", _finite("hinge", hinge, transe_cfg.epochs))
        log.stage("transe.triple_epochs_per_s", transe_cfg.epochs * len(st.kg.triples), dt)
        log.record(hinge)

        pre_cfg = replace(exp.pretrain, seed=seed, max_steps=PRETRAIN_STEPS, eval_every=1)
        params0 = model.ModelParams.init(st.cfg, seed)
        r = log.run("pretrain", lambda: trainer.pretrain(params0, st.corpus_ids, pre_cfg))
        if r is None:
            return
        (params0, losses), dt = r
        log.check("pretrain", _finite("loss", losses, PRETRAIN_STEPS))
        log.stage("pretrain.examples_per_s", PRETRAIN_STEPS * pre_cfg.batch_size, dt)
        log.record(losses)

        ft_cfg = replace(exp.finetune, seed=seed, max_steps=FINETUNE_STEPS)
        for variant in VARIANTS:
            op = f"finetune.{variant}"
            r = log.run(op, lambda: trainer.finetune(
                params0.copy(), st.train_set, st.kg, emb0.copy(), exp.loss, variant,
                ft_cfg, st.vocab))
            if r is None:
                continue
            (_params, _emb, trace), dt = r
            values = [v for row in trace for v in row[1:]]
            log.check(op, _finite("L, Sim, L'", values, 3 * FINETUNE_STEPS))
            log.stage(f"{op}.examples_per_s", FINETUNE_STEPS * ft_cfg.batch_size, dt)
            log.record(trace)
            window = trace[-FINAL_WINDOW:]
            log.obs[variant] = [sum(t[1] for t in window) / len(window),
                                sum(t[2] for t in window) / len(window)]

    @staticmethod
    def bands(ref: dict) -> dict[str, list[tuple[float, float]]]:
        """Per variant, the across-seed [min, max] of the final-window L and
        Sim, widened by half its width on each side."""
        out = {}
        for variant in VARIANTS:
            rows = [seed_obs[variant] for seed_obs in ref.values()]
            out[variant] = []
            for col in range(2):
                lo = min(r[col] for r in rows)
                hi = max(r[col] for r in rows)
                pad = 0.5 * (hi - lo)
                out[variant].append((lo - pad, hi + pad))
        return out

    def verify(self, ref: dict, seed: int, obs: dict) -> dict[str, str]:
        bands = self.bands(ref)
        problems = {}
        for variant, values in obs.items():
            for label, v, (lo, hi) in zip(("L", "Sim"), values, bands[variant]):
                if not lo <= v <= hi:
                    problems[f"finetune.{variant}"] = (
                        f"final-window {label} {v:.6g} outside the recorded "
                        f"across-seed band [{lo:.6g}, {hi:.6g}]")
        return problems


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

class Decode:
    """Greedy-decode evaluation of all pinned questions for each variant with
    seeded, untrained weights: the tape-off read path.  With the recorded
    weight seeds no question emits EOS early, so every question costs
    exactly ``decode_steps`` forward calls whatever training changes."""

    name = "decode"

    def __init__(self, weight_seeds):
        # About half of all weight seeds (6, for one) let a few questions
        # emit EOS early; the recorded ones are those that do not.
        self.weight_seeds = weight_seeds

    def setup(self, seed: int):
        exp = harness.ExperimentConfig()
        kgraph, corpus, dataset = harness.build_world(exp)
        vocab = harness.build_vocabulary(corpus, dataset)
        cfg = replace(exp.model, vocab_size=len(vocab))
        w = self.weight_seeds[seed]
        st = SimpleNamespace(exp=exp, kg=kgraph, vocab=vocab, dataset=dataset,
                             params=model.ModelParams.init(cfg, w),
                             emb=embeddings.init_embeddings(kgraph, cfg.d_kg, w))
        harness.evaluate_split(st.params, vocab, kgraph, st.emb, dataset[:8], "both",
                               exp.decode_steps)
        return st

    def job(self, st, log: JobLog) -> None:
        steps = st.exp.decode_steps
        n = len(st.dataset)
        for variant in VARIANTS:
            op = f"eval.{variant}"
            preds: list[list[int]] = []
            decode = harness.greedy_decode

            def recording(*args, **kwargs):
                ids = decode(*args, **kwargs)
                preds.append(ids)
                return ids

            harness.greedy_decode = recording
            try:
                r = log.run(op, lambda: harness.evaluate_split(
                    st.params, st.vocab, st.kg, st.emb, st.dataset, variant, steps))
            finally:
                harness.greedy_decode = decode
            if r is None:
                continue
            stats, dt = r
            problems = []
            if len(preds) != n or sum(c for _m, c in stats.values()) != n:
                problems.append(f"{len(preds)} questions decoded, expected {n}")
            if any(len(p) != steps for p in preds):
                problems.append(EARLY_STOP)
            log.check(op, problems)
            log.stage("eval.questions_per_s", n, dt)
            digest = hashlib.sha256(json.dumps(preds).encode()).hexdigest()
            log.record(digest)
            log.obs[variant] = digest

    def verify(self, ref: dict, seed: int, obs: dict) -> dict[str, str]:
        expected = ref["digests"][str(seed)]
        return {f"eval.{v}": "predicted token ids differ from the reference digest"
                for v, digest in obs.items() if digest != expected[v]}


# ---------------------------------------------------------------------------
# kg-sweep
# ---------------------------------------------------------------------------

class KGSweep:
    """Subgraph sampling, TransE per subgraph and link prediction on a world
    20x the pinned one, then save/load round trips of the triples TSV, the
    ``.kge`` file and a ``.ckpt``."""

    name = "kg-sweep"

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed: int):
        spec = data.SyntheticKGSpec(n_people=240 * KG_SCALE, n_cities=24 * KG_SCALE,
                                    n_countries=12 * KG_SCALE, seed=seed)
        world, corpus = data.gen_synthetic_kg(spec)
        subgraphs = [kg.subgraph_fraction(world, f, seed) for f in FRACTIONS]
        vocab = harness.build_vocabulary(corpus, [])
        cfg = model.ModelConfig(vocab_size=len(vocab))
        st = SimpleNamespace(seed=seed, subgraphs=subgraphs, d_kg=cfg.d_kg,
                             params=model.ModelParams.init(cfg, seed))
        small = subgraphs[0]
        emb, _ = embeddings.train_kg_embeddings(
            small, embeddings.TransEConfig(epochs=1, seed=seed), cfg.d_kg)
        embeddings.link_prediction_eval(emb, small, HITS_K)
        return st

    def job(self, st, log: JobLog) -> None:
        emb = None
        for fraction, sub in zip(FRACTIONS, st.subgraphs):
            op = f"transe.{fraction}"
            cfg = embeddings.TransEConfig(epochs=TRANSE_EPOCHS, seed=st.seed)
            r = log.run(op, lambda: embeddings.train_kg_embeddings(sub, cfg, st.d_kg))
            if r is None:
                return
            (emb, hinge), dt = r
            log.check(op, _finite("hinge", hinge, TRANSE_EPOCHS))
            log.stage("transe.triple_epochs_per_s", TRANSE_EPOCHS * len(sub.triples), dt)
            log.record(hinge)
            log.obs[op] = hinge[-1]
        full = st.subgraphs[-1]

        r = log.run("linkpred", lambda: embeddings.link_prediction_eval(emb, full, HITS_K))
        if r is not None:
            (hits, mean_rank), dt = r
            log.check("linkpred", _finite("hits, rank", [hits, mean_rank], 2))
            log.stage("linkpred.triples_per_s", len(full.triples), dt)
            log.record([hits, mean_rank])
            log.obs["linkpred"] = hits

        tsv = self.scratch / "kg.tsv"
        r = log.run("io.tsv", lambda: (kg.save_triples_tsv(full, tsv),
                                        kg.load_triples_tsv(tsv))[1])
        if r is not None:
            (loaded, summary), dt = r
            log.check("io.tsv", [] if loaded == full and summary.n_duplicates == 0
                      else ["triples TSV did not reload equal"])
            size = tsv.stat().st_size
            log.stage("io.mb_per_s", 2 * size / 1e6, dt)
            log.record(size)

        kge = self.scratch / "emb.kge"
        r = log.run("io.kge", lambda: (embeddings.save_embeddings(
            emb, full.entity_names, full.relation_names, kge),
            embeddings.load_embeddings(kge))[1])
        if r is not None:
            (table, ent_names, rel_names), dt = r
            same = (_same_bits(table.entity_vecs, emb.entity_vecs)
                    and _same_bits(table.relation_vecs, emb.relation_vecs)
                    and tuple(ent_names) == full.entity_names
                    and tuple(rel_names) == full.relation_names)
            log.check("io.kge", [] if same else [".kge did not reload bit-exactly"])
            size = kge.stat().st_size
            log.stage("io.mb_per_s", 2 * size / 1e6, dt)
            log.record(size)

        ckpt = self.scratch / "model.ckpt"
        configs = {"workload": self.name, "seed": st.seed}
        r = log.run("io.ckpt", lambda: (trainer.save_checkpoint(st.params, emb, configs, ckpt),
                                         trainer.load_checkpoint(ckpt))[1])
        if r is not None:
            (params, table, loaded_cfg), dt = r
            same = (params.names() == st.params.names()
                    and all(_same_bits(params[n].data, st.params[n].data)
                            for n in params.names())
                    and table is not None
                    and _same_bits(table.entity_vecs, emb.entity_vecs)
                    and _same_bits(table.relation_vecs, emb.relation_vecs)
                    and loaded_cfg == configs)
            log.check("io.ckpt", [] if same else [".ckpt did not reload bit-exactly"])
            size = ckpt.stat().st_size
            log.stage("io.mb_per_s", 2 * size / 1e6, dt)
            log.record(size)

    def verify(self, ref: dict, seed: int, obs: dict) -> dict[str, str]:
        expected = ref[str(seed)]
        problems = {}
        for op, value in obs.items():
            want = expected[op]
            if op == "linkpred":
                if abs(value - want) > HITS_ATOL:
                    problems[op] = f"hits@{HITS_K} {value:.6g}, reference {want:.6g}"
            elif abs(value - want) > HINGE_RTOL * abs(want):
                problems[op] = f"final hinge {value:.9g}, reference {want:.9g}"
        return problems


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def make(name: str, scratch: Path, reference: dict):
    """The named workload; ``reference`` is its part of ``reference.json``."""
    if name == "train":
        return Train()
    if name == "decode":
        return Decode(reference["weight_seeds"])
    if name == "kg-sweep":
        return KGSweep(scratch)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "decode", "kg-sweep")
