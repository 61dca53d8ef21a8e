"""Metrics, experiment harness shape, report emission and manifest tests."""

import json

import pytest

from kgt5lab.data import SyntheticKGSpec
from kgt5lab.embeddings import TransEConfig
from kgt5lab.harness import (CSV_COLUMNS, ExperimentConfig, MetricsReport,
                             build_world, emit_report, exact_match,
                             experiment_from_jsonable, experiment_to_jsonable,
                             make_manifest, parse_report_csv, render_markdown,
                             run_ablation, run_from_manifest, run_scale_sweep)
from kgt5lab.kg import InvalidFractionError
from kgt5lab.model import ModelConfig
from kgt5lab.trainer import LossSpec, TrainConfig


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

    def test_markdown_has_variant_row_labels(self, tmp_path):
        md = render_markdown(make_reports())
        for label in ("none", "entity", "relation", "both"):
            assert f"| {label} |" in md

    def test_markdown_floats_have_four_decimals(self):
        md = render_markdown(make_reports())
        assert "0.3333" in md

    def test_empty_reports_error_no_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_report([], "csv", path)
        assert not path.exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(make_reports(), "yaml", tmp_path / "x")


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


class TestManifest:
    def test_experiment_config_json_round_trip(self):
        exp = tiny_experiment()
        blob = json.dumps(experiment_to_jsonable(exp))
        back = experiment_from_jsonable(json.loads(blob))
        assert back == exp

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

    def test_manifest_records_version(self):
        from kgt5lab import __version__
        manifest = make_manifest("ablation", tiny_experiment(), seeds=[1])
        assert manifest["tool_version"] == __version__


class TestSharedArtifactsWithinSeed:
    def test_variants_share_pretrain_split_and_embeddings(self, monkeypatch):
        # the ablation must call pretrain/split/TransE once per seed
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
