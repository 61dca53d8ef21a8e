"""CLI contract tests: subcommands, exit codes, output files."""

import json
from pathlib import Path

import pytest

from kgt5lab import data
from kgt5lab.cli import main
from kgt5lab.harness import emit_report, parse_report_csv, run_from_manifest

FIXTURES = Path(__file__).parent / "fixtures"

TINY_CONFIG = {
    "kg_spec": {"n_people": 12, "n_cities": 4, "n_countries": 2,
                "occupations": ["weaver", "smith"], "seed": 0},
    "per_category": {"hop1": 8, "context": 8, "hop2": 8},
    "split_ratios": [0.75, 0.25],
    "model": {"vocab_size": 1, "d_model": 16, "n_layers": 1, "n_heads": 2,
              "d_ff": 24, "dropout_p": 0.1, "max_len": 48, "d_kg": 8},
    "transe": {"epochs": 5, "batch_size": 16},
    "pretrain": {"max_steps": 6, "batch_size": 4},
    "finetune": {"max_steps": 8, "batch_size": 4},
    "decode_steps": 3,
}


def write_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gen-kg", "--out", "x", "--frobnicate"]) == 1

    def test_no_args_exits_1(self):
        assert main([]) == 1

    def test_missing_required_flag(self):
        assert main(["gen-qa", "--out", "somewhere"]) == 1

    def test_config_rejected_where_unread(self, tmp_path):
        # finetune never read --config; it must refuse it, not ignore the file
        assert main(["finetune", "--checkpoint", "m.ckpt", "--qa", "qa.jsonl",
                     "--kg", "kg.tsv", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "ft")]) == 1
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("config, message", [
        ({"finetune": {"bogus": 1}}, "config.finetune.bogus"),
        ([TINY_CONFIG], "config is not an object"),
        ({"finetune": {"batch_size": "x"}}, "config.finetune.batch_size must be int"),
        ({"per_category": 3}, "config.per_category is not an object"),
        ({"transe": {"epochs": 2.5}}, "config.transe.epochs must be int"),
    ], ids=["unknown-key", "list", "str-for-int", "int-for-object", "float-for-int"])
    def test_bad_config_exits_1_naming_the_key(self, tmp_path, capsys, config, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["ablate", "--seeds", "1", "--config", str(path),
                     "--out", str(tmp_path / "ab")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ab").exists()


class TestGenPipeline:
    def test_gen_kg_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "kg"
        code = main(["gen-kg", "--people", "10", "--cities", "4",
                     "--countries", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "kg.tsv").exists()
        assert (out / "corpus.txt").exists()
        assert (out / "manifest.json").exists()

    def test_gen_qa_then_train_embed(self, tmp_path):
        kg_dir = tmp_path / "kg"
        assert main(["gen-kg", "--people", "10", "--cities", "4",
                     "--countries", "2", "--out", str(kg_dir)]) == 0
        qa_dir = tmp_path / "qa"
        assert main(["gen-qa", "--kg", str(kg_dir / "kg.tsv"), "--hop1", "5",
                     "--context", "5", "--hop2", "5", "--out", str(qa_dir)]) == 0
        assert (qa_dir / "qa.jsonl").exists()
        assert len((qa_dir / "qa.jsonl").read_text().splitlines()) == 15
        emb_dir = tmp_path / "emb"
        assert main(["train-embed", "--kg", str(kg_dir / "kg.tsv"), "--dim", "8",
                     "--epochs", "3", "--out", str(emb_dir)]) == 0
        assert (emb_dir / "embeddings.kge").exists()

    def test_gen_qa_infeasible_count_exits_1(self, tmp_path, capsys):
        kg_dir = tmp_path / "kg"
        main(["gen-kg", "--people", "3", "--cities", "2", "--countries", "2",
              "--out", str(kg_dir)])
        code = main(["gen-qa", "--kg", str(kg_dir / "kg.tsv"), "--hop1", "50",
                     "--context", "0", "--hop2", "0", "--out", str(tmp_path / "qa")])
        assert code == 1


    def test_gen_qa_graph_without_located_in_exits_1(self, tmp_path, capsys):
        kg_path = tmp_path / "kg.tsv"
        kg_path.write_text("person_0\tborn_in\tcity_0\nperson_0\tworks_as\tsmith\n")
        code = main(["gen-qa", "--kg", str(kg_path), "--hop1", "1", "--context", "0",
                     "--hop2", "0", "--out", str(tmp_path / "qa")])
        assert code == 1
        assert "validation error: located_in" in capsys.readouterr().err


class TestTrainEvalPipeline:
    def test_pretrain_finetune_eval(self, tmp_path):
        kg_dir, qa_dir = tmp_path / "kg", tmp_path / "qa"
        main(["gen-kg", "--people", "12", "--cities", "4", "--countries", "2",
              "--out", str(kg_dir)])
        main(["gen-qa", "--kg", str(kg_dir / "kg.tsv"), "--hop1", "6",
              "--context", "6", "--hop2", "6", "--out", str(qa_dir)])
        emb_dir = tmp_path / "emb"
        main(["train-embed", "--kg", str(kg_dir / "kg.tsv"), "--dim", "8",
              "--epochs", "3", "--out", str(emb_dir)])
        pre_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(kg_dir / "corpus.txt"),
                     "--qa", str(qa_dir / "qa.jsonl"), "--kg", str(kg_dir / "kg.tsv"),
                     "--steps", "5", "--dim", "8", "--out", str(pre_dir)])
        assert code == 0
        ft_dir = tmp_path / "ft"
        code = main(["finetune", "--checkpoint", str(pre_dir / "model.ckpt"),
                     "--qa", str(qa_dir / "qa.jsonl"), "--kg", str(kg_dir / "kg.tsv"),
                     "--embeddings", str(emb_dir / "embeddings.kge"),
                     "--variant", "both", "--steps", "6", "--out", str(ft_dir)])
        assert code == 0
        assert (ft_dir / "trace.csv").exists()
        ev_dir = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(ft_dir / "model.ckpt"),
                     "--qa", str(qa_dir / "qa.jsonl"), "--kg", str(kg_dir / "kg.tsv"),
                     "--variant", "both", "--out", str(ev_dir)])
        assert code == 0
        rows = parse_report_csv(ev_dir / "metrics.csv")
        assert len(rows) == 1


def assert_manifest_reproduces_metrics(out):
    manifest = json.loads((out / "manifest.json").read_text())
    emit_report(run_from_manifest(manifest), "csv", out / "again.csv")
    assert (out / "again.csv").read_bytes() == (out / "metrics.csv").read_bytes()


class TestExperimentCommands:
    def test_ablate_report_count_and_files(self, tmp_path):
        out = tmp_path / "ab"
        code = main(["ablate", "--seeds", "1,2", "--lambda", "-0.1",
                     "--config", write_config(tmp_path), "--out", str(out)])
        assert code == 0
        rows = parse_report_csv(out / "metrics.csv")
        assert len(rows) == 8  # 2 seeds x 4 variants
        assert (out / "report.md").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "ablation"
        assert manifest["seeds"] == [1, 2]
        assert_manifest_reproduces_metrics(out)

    def test_manifest_records_the_parsed_argv(self, tmp_path):
        # not the host process's sys.argv, which under pytest is pytest's
        argv = ["ablate", "--seeds", "1", "--config", write_config(tmp_path),
                "--out", str(tmp_path / "ab")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "ab" / "manifest.json").read_text())
        assert manifest["argv"] == argv

    def test_seed_range_syntax(self, tmp_path):
        out = tmp_path / "ab2"
        code = main(["ablate", "--seeds", "1..3",
                     "--config", write_config(tmp_path), "--out", str(out)])
        assert code == 0
        assert len(parse_report_csv(out / "metrics.csv")) == 12

    def test_scale_sweep_counts(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["scale-sweep", "--seeds", "1,2", "--fractions", "0.5,1.0",
                     "--config", write_config(tmp_path), "--out", str(out)])
        assert code == 0
        assert len(parse_report_csv(out / "metrics.csv")) == 4
        assert_manifest_reproduces_metrics(out)

    def test_report_rerender(self, tmp_path):
        out = tmp_path / "ab3"
        main(["ablate", "--seeds", "1", "--config", write_config(tmp_path),
              "--out", str(out)])
        md = tmp_path / "again.md"
        assert main(["report", "--metrics", str(out / "metrics.csv"),
                     "--format", "markdown", "--out", str(md)]) == 0
        assert md.exists()


class TestIngestSquadCommand:
    def test_valid_fixture_exit_0(self, capsys):
        code = main(["ingest-squad", "--path",
                     str(FIXTURES / "squad_v11_fixture.json")])
        assert code == 0
        assert "3 examples" in capsys.readouterr().out

    def test_offset_error_exit_1(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "squad_v11_fixture.json").read_text())
        doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["ingest-squad", "--path", str(bad)]) == 1

    def test_missing_file_exit_2(self):
        assert main(["ingest-squad", "--path", "/nonexistent/squad.json"]) == 2

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "sq"
        argv = ["ingest-squad", "--path", str(FIXTURES / "squad_v11_fixture.json"),
                "--out", str(out)]
        assert main(argv) == 0
        before = (out / "squad_flat.jsonl").read_bytes()
        ingest = data.ingest_squad
        # the second record is no dataclass: the write fails after one line
        monkeypatch.setattr(data, "ingest_squad", lambda path: ingest(path)[:1] + [None])
        assert main(argv) == 2
        assert (out / "squad_flat.jsonl").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                         "squad_flat.jsonl"]
