"""Metrics, experiment harness shape, report emission and manifest tests."""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt5lab import harness, model
from kgt5lab.data import SyntheticKGSpec
from kgt5lab.embeddings import TransEConfig, init_embeddings
from kgt5lab.harness import (CSV_COLUMNS, DECODE_WINDOW, ConfigError,
                             ExperimentConfig, MetricsReport, build_vocabulary,
                             build_world, emit_report, evaluate_split, exact_match,
                             experiment_from_jsonable, experiment_to_jsonable,
                             make_manifest, parse_report_csv, render_markdown,
                             run_ablation, run_from_manifest, run_scale_sweep,
                             save_manifest)
from kgt5lab.kg import InvalidFractionError
from kgt5lab.model import (VARIANTS, ModelConfig, ModelParams,
                           build_augmented_input)
from kgt5lab.trainer import LossSpec, TrainConfig, prepare_examples


class TestExactMatch:
    def test_case_and_trim(self):
        assert exact_match("Paris ", "paris") == 1

    def test_mismatch(self):
        assert exact_match("paris", "london") == 0

    def test_whitespace_collapse(self):
        assert exact_match("new  york", "new york") == 1

    def test_returns_int(self):
        assert exact_match("a", "a") == 1
        assert exact_match("a", "b") == 0


# sha256 of the JSON list of greedy predictions per variant on the pinned
# world, with weights and KG embeddings initialized from seed 0 and
# decode_steps=4; perfbench/reference.json records the same digests for the
# decode workload's first weight seed.
GOLDEN_EVAL_DIGESTS = {
    "none": "71b9937c8c287c3e000f31613997949be229d0f4c4f759c690d6d1227bc18100",
    "entity": "723dd72450e2699d32a8650f1853356de465d7b698ebd740b11c8b968e8bd3f9",
    "relation": "d834e4f041ea67c8f75f8b1dbf81ee468a8f1e86900601aee141d094de0991d6",
    "both": "ece5178fa1cc89e0077aec46155f64784032af7a50070c1c35cad5143fddd7c7",
}


class TestEvalGolden:
    def test_predictions_on_pinned_world(self, monkeypatch):
        exp = ExperimentConfig()
        kg, corpus, dataset = build_world(exp)
        vocab = build_vocabulary(corpus, dataset)
        cfg = replace(exp.model, vocab_size=len(vocab))
        params = ModelParams.init(cfg, 0)
        emb = init_embeddings(kg, cfg.d_kg, 0)
        preds: list[list[int]] = []
        decode = harness.greedy_decode

        def recording(*args):
            preds.append(decode(*args))
            return preds[-1]

        monkeypatch.setattr(harness, "greedy_decode", recording)
        digests = {}
        for variant in VARIANTS:
            preds.clear()
            evaluate_split(params, vocab, kg, emb, dataset, variant, decode_steps=4)
            assert len(preds) == len(dataset)
            digests[variant] = hashlib.sha256(json.dumps(preds).encode()).hexdigest()
        assert digests == GOLDEN_EVAL_DIGESTS


class TestEvalWindows:
    @pytest.mark.parametrize("variant", ["none", "both"])
    def test_one_call_per_question_through_windows(self, monkeypatch, variant):
        exp = ExperimentConfig()
        kg, corpus, dataset = build_world(exp)
        vocab = build_vocabulary(corpus, dataset)
        cfg = replace(exp.model, vocab_size=len(vocab))
        params = ModelParams.init(cfg, 0)
        emb = init_embeddings(kg, cfg.d_kg, 0)
        examples = dataset[:-5]  # the last window is a partial one
        calls = []
        decode = harness.greedy_decode

        def recording(*args):
            calls.append((args, decode(*args)))
            return calls[-1][1]

        monkeypatch.setattr(harness, "greedy_decode", recording)
        evaluate_split(params, vocab, kg, emb, examples, variant, decode_steps=4)
        assert len(calls) == len(examples)
        prepared = prepare_examples(examples, kg, vocab, variant)
        starts = []
        for q, ((p, enc, steps, batch), ids) in enumerate(calls):
            assert p is params and steps == 4
            if q == 0 or batch is not calls[q - 1][0][3]:
                starts.append(q)
            alone = build_augmented_input(prepared[q].aug, emb, params)
            assert enc.rows.data.tobytes() == alone.rows.data.tobytes()  # dataset order
            assert ids == model.greedy_decode(params, alone, 4)
        assert starts == list(range(0, len(examples), DECODE_WINDOW))
        for lo in starts:
            batch = calls[lo][0][3]
            window = [args[1] for args, _ in calls[lo:lo + DECODE_WINDOW]]
            assert len(batch.encs) == len(window) <= DECODE_WINDOW
            assert all(a is b for a, b in zip(batch.encs, window))

    def test_decode_steps_below_one_raise_before_preparing(self, monkeypatch):
        def no_prepare(*args):
            raise AssertionError("examples were prepared")

        monkeypatch.setattr(harness, "prepare_examples", no_prepare)
        cfg = ModelConfig(vocab_size=50)
        for examples in ([], [None]):
            with pytest.raises(ValueError, match="decode_steps"):
                evaluate_split(ModelParams.init(cfg, 0), None, None, None, examples,
                               "none", decode_steps=0)


def tiny_experiment(max_steps=12, pre_steps=8):
    """Small but complete experiment config (seconds, not minutes)."""
    return ExperimentConfig(
        kg_spec=SyntheticKGSpec(n_people=12, n_cities=4, n_countries=2,
                                occupations=("weaver", "smith"), seed=0),
        per_category={"hop1": 8, "context": 8, "hop2": 8},
        split_ratios=(0.75, 0.25),
        model=ModelConfig(vocab_size=1, d_model=16, n_layers=1, n_heads=2,
                          d_ff=24, dropout_p=0.1, max_len=48, d_kg=8),
        transe=TransEConfig(epochs=5, seed=0, batch_size=16),
        pretrain=TrainConfig(max_steps=pre_steps, batch_size=4),
        finetune=TrainConfig(max_steps=max_steps, batch_size=4),
        loss=LossSpec(sim_weight=-0.1),
        decode_steps=3)


def criterion8_experiment():
    """The tiny config of acceptance criterion 8."""
    return ExperimentConfig(
        kg_spec=SyntheticKGSpec(n_people=14, n_cities=4, n_countries=2,
                                occupations=("weaver", "smith"), seed=0),
        per_category={"hop1": 10, "context": 10, "hop2": 10},
        split_ratios=(0.7, 0.3),
        model=ModelConfig(vocab_size=1, d_model=16, n_layers=1, n_heads=2,
                          d_ff=24, max_len=48, d_kg=8),
        transe=TransEConfig(epochs=10, batch_size=16),
        pretrain=TrainConfig(max_steps=10, batch_size=4),
        finetune=TrainConfig(max_steps=15, batch_size=4),
        decode_steps=3)


FLOATS = st.floats(allow_nan=False)
COUNTS = st.integers(0, 10**9)


def make_reports():
    rows = []
    for seed in (1, 2):
        for variant in ("none", "entity", "relation", "both"):
            rows.append(MetricsReport(
                variant=variant, kg_fraction=1.0, seed=seed,
                em_hop1=0.5 + 0.01 * seed, em_context=0.25, em_hop2=1 / 3,
                n_hop1=4, n_context=4, n_hop2=3,
                final_L=0.123456789012345, final_Sim=-0.5))
    return rows


class TestEmitReport:
    def test_csv_schema_and_round_trip(self, tmp_path):
        reports = make_reports()
        p1 = tmp_path / "m.csv"
        emit_report(reports, "csv", p1)
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        parsed = parse_report_csv(p1)
        assert parsed == reports
        p2 = tmp_path / "m2.csv"
        emit_report(parsed, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        MetricsReport, variant=st.sampled_from(VARIANTS), kg_fraction=FLOATS,
        seed=st.integers(-2**63, 2**63), em_hop1=FLOATS, em_context=FLOATS,
        em_hop2=FLOATS, n_hop1=COUNTS, n_context=COUNTS, n_hop2=COUNTS,
        final_L=FLOATS, final_Sim=FLOATS), min_size=1, max_size=4))
    def test_csv_round_trip_on_random_rows(self, reports):
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "m.csv", Path(tmp) / "m2.csv"
            emit_report(reports, "csv", p1)
            parsed = parse_report_csv(p1)
            assert parsed == reports
            emit_report(parsed, "csv", p2)
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit, fields", [
        (lambda line: line + ",7", 12),
        (lambda line: line.rpartition(",")[0], 10),
    ], ids=["extra-field", "missing-field"])
    def test_row_with_wrong_field_count_raises_naming_the_line(self, tmp_path, edit, fields):
        path = tmp_path / "m.csv"
        emit_report(make_reports(), "csv", path)
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 4 has {fields} fields, expected 11"):
            parse_report_csv(path)

    def test_markdown_has_variant_row_labels(self, tmp_path):
        md = render_markdown(make_reports())
        for label in ("none", "entity", "relation", "both"):
            assert f"| {label} |" in md

    def test_markdown_floats_have_four_decimals(self):
        md = render_markdown(make_reports())
        assert "0.3333" in md
        # by the field's declared type: a fraction read from JSON as 1 too
        md = render_markdown([replace(make_reports()[0], kg_fraction=1)])
        assert "| none | 1.0000 | 1 |" in md

    def test_empty_reports_error_no_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_report([], "csv", path)
        assert not path.exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(make_reports(), "yaml", tmp_path / "x")

    @pytest.mark.parametrize("format", ["csv", "markdown"])
    def test_failed_write_keeps_previous_file(self, tmp_path, format):
        path = tmp_path / "report"
        emit_report(make_reports(), format, path)
        before = path.read_bytes()
        # a lone surrogate has no UTF-8 form, so the write fails
        bad = make_reports() + [replace(make_reports()[0], variant="\ud800")]
        with pytest.raises(UnicodeEncodeError):
            emit_report(bad, format, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestRunAblation:
    def test_one_seed_shapes(self):
        exp = tiny_experiment()
        kg, corpus, dataset = build_world(exp)
        reports = run_ablation(kg, corpus, dataset, exp, seeds=[3])
        assert len(reports) == 4
        assert [r.variant for r in reports] == ["none", "entity", "relation", "both"]
        assert all(r.seed == 3 and r.kg_fraction == 1.0 for r in reports)
        for r in reports:
            for em in (r.em_hop1, r.em_context, r.em_hop2):
                assert 0.0 <= em <= 1.0
            assert r.n_hop1 + r.n_context + r.n_hop2 == 6  # 0.25 * 24

    def test_em_is_exact_ratio(self):
        exp = tiny_experiment()
        kg, corpus, dataset = build_world(exp)
        r = run_ablation(kg, corpus, dataset, exp, seeds=[1])[0]
        for em, n in ((r.em_hop1, r.n_hop1), (r.em_context, r.n_context),
                      (r.em_hop2, r.n_hop2)):
            assert em == pytest.approx(round(em * n) / n)


class TestRunScaleSweep:
    def test_shapes_and_fixed_denominators(self):
        exp = tiny_experiment()
        kg, corpus, dataset = build_world(exp)
        reports = run_scale_sweep(kg, corpus, dataset, exp,
                                  fractions=[0.5, 1.0], seeds=[1, 2])
        assert len(reports) == 4
        assert all(r.variant == "both" for r in reports)
        assert {r.kg_fraction for r in reports} == {0.5, 1.0}
        counts = {(r.n_hop1, r.n_context, r.n_hop2) for r in reports}
        assert len(counts) == 1  # test set fixed across fractions

    def test_unsorted_or_invalid_fractions(self):
        exp = tiny_experiment()
        kg, corpus, dataset = build_world(exp)
        with pytest.raises(InvalidFractionError):
            run_scale_sweep(kg, corpus, dataset, exp, [1.0, 0.5], [1])
        with pytest.raises(InvalidFractionError):
            run_scale_sweep(kg, corpus, dataset, exp, [0.0, 0.5], [1])

    def test_empty_seeds_raise_in_both_experiments(self):
        exp = tiny_experiment()
        kg, corpus, dataset = build_world(exp)
        with pytest.raises(ValueError, match="seed"):
            run_ablation(kg, corpus, dataset, exp, [])
        with pytest.raises(ValueError, match="seed"):
            run_scale_sweep(kg, corpus, dataset, exp, [0.5, 1.0], [])

    def test_full_graph_rows_equal_ablation_both_rows(self):
        exp = criterion8_experiment()
        kg, corpus, dataset = build_world(exp)
        both = [r for r in run_ablation(kg, corpus, dataset, exp, seeds=[3, 4])
                if r.variant == "both"]
        full = [r for r in run_scale_sweep(kg, corpus, dataset, exp, [0.5, 1.0],
                                           seeds=[3, 4]) if r.kg_fraction == 1.0]
        assert [r.seed for r in both] == [3, 4]
        assert both == full


class TestManifest:
    def test_experiment_config_json_round_trip(self):
        exp = tiny_experiment()
        blob = json.dumps(experiment_to_jsonable(exp))
        back = experiment_from_jsonable(json.loads(blob))
        assert back == exp

    def test_manifest_without_decode_steps_loads(self):
        d = experiment_to_jsonable(tiny_experiment())
        del d["decode_steps"]
        assert experiment_from_jsonable(d) == replace(tiny_experiment(), decode_steps=4)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [d], "config is not an object"),
        (lambda d: {**d, "finetune": {**d["finetune"], "bogus": 1}},
         "config.finetune.bogus: TrainConfig has no such field"),
        (lambda d: {**d, "bogus": 1}, "config.bogus: ExperimentConfig has no"),
        (lambda d: {**d, "model": [d["model"]]}, "config.model is not an object"),
    ], ids=["list", "section-key", "top-key", "section-list"])
    def test_bad_config_raises_config_error_naming_the_key(self, edit, message):
        d = experiment_to_jsonable(tiny_experiment())
        with pytest.raises(ConfigError) as info:
            experiment_from_jsonable(edit(d))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("section, key, value, message", [
        ("finetune", "batch_size", "x", "config.finetune.batch_size must be int, not str"),
        ("transe", "epochs", 2.5, "config.transe.epochs must be int, not float"),
        ("transe", "epochs", True, "config.transe.epochs must be int, not bool"),
        ("pretrain", "kg_embeddings_trainable", 1,
         "config.pretrain.kg_embeddings_trainable must be bool, not int"),
        ("pretrain", "grad_clip_norm", "1", "config.pretrain.grad_clip_norm must be float"),
        ("transe", "margin", 10**400, "config.transe.margin is out of range for a float"),
        ("kg_spec", "occupations", "smith", "config.kg_spec.occupations is not an array"),
        ("kg_spec", "occupations", ["smith", 3], "config.kg_spec.occupations[1] must be str"),
        (None, "per_category", 3, "config.per_category is not an object"),
        (None, "per_category", {"hop1": 8.0}, "config.per_category.hop1 must be int, not float"),
        (None, "split_ratios", [0.5], "config.split_ratios has 1 elements, expected 2"),
        (None, "split_ratios", [0.5, "x"], "config.split_ratios[1] must be float, not str"),
        (None, "qa_seed", None, "config.qa_seed must be int, not NoneType"),
    ], ids=["int-str", "int-float", "int-bool", "bool-int", "optional-str", "float-overflow",
            "tuple-str", "tuple-element", "dict-int", "dict-value", "tuple-length",
            "tuple-float-str", "int-null"])
    def test_mistyped_value_raises_config_error(self, section, key, value, message):
        d = experiment_to_jsonable(tiny_experiment())
        (d[section] if section else d)[key] = value
        with pytest.raises(ConfigError) as info:
            experiment_from_jsonable(d)
        assert str(info.value).startswith(message)

    def test_missing_required_key_raises_config_error(self):
        d = experiment_to_jsonable(tiny_experiment())
        del d["model"]["vocab_size"]
        with pytest.raises(ConfigError, match="config.model.vocab_size is missing"):
            experiment_from_jsonable(d)

    def test_int_accepted_as_float_and_null_as_optional(self):
        d = experiment_to_jsonable(tiny_experiment())
        d["transe"]["margin"], d["pretrain"]["grad_clip_norm"] = 2, None
        exp = experiment_from_jsonable(d)
        assert exp.transe.margin == 2.0 and isinstance(exp.transe.margin, float)
        assert exp.pretrain.grad_clip_norm is None

    def test_rerun_reproduces_reports_bit_exactly(self, tmp_path):
        exp = tiny_experiment()
        kg, corpus, dataset = build_world(exp)
        reports = run_ablation(kg, corpus, dataset, exp, seeds=[2])
        manifest = make_manifest("ablation", exp, seeds=[2])
        again = run_from_manifest(manifest)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(reports, "csv", p1)
        emit_report(again, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rerun_scale_sweep(self):
        exp = tiny_experiment()
        manifest = make_manifest("scale-sweep", exp, seeds=[1], fractions=[0.5, 1.0])
        a = run_from_manifest(manifest)
        b = run_from_manifest(manifest)
        assert a == b

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = make_manifest("ablation", tiny_experiment(), seeds=[1])
        save_manifest(manifest, path)
        before = path.read_bytes()
        # keys are written sorted, so "config" is written before "seeds" fails
        with pytest.raises(TypeError):
            save_manifest({**manifest, "seeds": [1, object()]}, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_manifest_records_version(self):
        from kgt5lab import __version__
        manifest = make_manifest("ablation", tiny_experiment(), seeds=[1])
        assert manifest["tool_version"] == __version__


class TestSharedArtifactsWithinSeed:
    def test_variants_share_pretrain_split_and_embeddings(self, monkeypatch):
        # both experiments call pretrain/split once per seed and TransE once
        # per seed and KG fraction
        import kgt5lab.harness as H
        calls = {"pretrain": 0, "transe": 0, "split": 0}
        real_pre, real_emb, real_split = H.pretrain, H.train_kg_embeddings, H.split

        def count_pre(*a, **k):
            calls["pretrain"] += 1
            return real_pre(*a, **k)

        def count_emb(*a, **k):
            calls["transe"] += 1
            return real_emb(*a, **k)

        def count_split(*a, **k):
            calls["split"] += 1
            return real_split(*a, **k)

        monkeypatch.setattr(H, "pretrain", count_pre)
        monkeypatch.setattr(H, "train_kg_embeddings", count_emb)
        monkeypatch.setattr(H, "split", count_split)
        exp = tiny_experiment(max_steps=4, pre_steps=4)
        kg, corpus, dataset = build_world(exp)
        H.run_ablation(kg, corpus, dataset, exp, seeds=[1, 2])
        assert calls == {"pretrain": 2, "transe": 2, "split": 2}
        calls.update(pretrain=0, transe=0, split=0)
        H.run_scale_sweep(kg, corpus, dataset, exp, [0.25, 0.5, 1.0], seeds=[1, 2])
        assert calls == {"pretrain": 2, "transe": 6, "split": 2}
