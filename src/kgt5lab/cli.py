"""Command-line experiment harness.

Subcommands: gen-kg, gen-qa, train-embed, pretrain, finetune, eval, ablate,
scale-sweep, ingest-squad, report.  Every run writes a manifest next to its
outputs.  Exit codes: 0 success, 1 validation/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import data as data_mod
from . import embeddings as emb_mod
from . import harness, kg as kg_mod, trainer
from .model import ModelConfig, ModelParams, VARIANTS, build_vocab


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise UsageError(f"no seeds in {text!r}")
    return seeds


def _parse_fractions(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _deep_update(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _load_experiment(config_path, sim_weight=None) -> harness.ExperimentConfig:
    base = harness.experiment_to_jsonable(harness.ExperimentConfig())
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            _deep_update(base, json.load(fh))
    exp = harness.experiment_from_jsonable(base)
    if sim_weight is not None:
        exp = replace(exp, loss=trainer.LossSpec(sim_weight=sim_weight))
    return exp


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_simple_manifest(out: Path, command: str, args: argparse.Namespace) -> None:
    manifest = {
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "tool_version": __version__,
    }
    harness.save_manifest(manifest, out / "manifest.json")


# --- subcommands -----------------------------------------------------------

def cmd_gen_kg(args) -> int:
    occupations = (tuple(o.strip() for o in args.occupations.split(",") if o.strip())
                   if args.occupations else data_mod.DEFAULT_OCCUPATIONS)
    spec = data_mod.SyntheticKGSpec(n_people=args.people, n_cities=args.cities,
                                    n_countries=args.countries,
                                    occupations=occupations, seed=args.seed)
    graph, corpus = data_mod.gen_synthetic_kg(spec)
    out = _out_dir(args)
    kg_mod.save_triples_tsv(graph, out / "kg.tsv")
    (out / "corpus.txt").write_text("\n".join(corpus) + "\n", encoding="utf-8")
    _write_simple_manifest(out, "gen-kg", args)
    print(f"wrote {out / 'kg.tsv'} (|V|={graph.n_entities}, |R|={graph.n_relations}, "
          f"|T|={len(graph.triples)}) and corpus of {len(corpus)} sentences")
    return 0


def cmd_gen_qa(args) -> int:
    graph, _ = kg_mod.load_triples_tsv(args.kg)
    per_cat = {"hop1": args.hop1, "context": args.context, "hop2": args.hop2}
    examples = data_mod.gen_qa(graph, per_cat, args.seed)
    out = _out_dir(args)
    data_mod.save_qa_jsonl(examples, graph, out / "qa.jsonl")
    _write_simple_manifest(out, "gen-qa", args)
    print(f"wrote {out / 'qa.jsonl'} with {len(examples)} examples")
    return 0


def cmd_train_embed(args) -> int:
    graph, _ = kg_mod.load_triples_tsv(args.kg)
    cfg = emb_mod.TransEConfig(margin=args.margin, learning_rate=args.lr,
                               negatives_per_positive=args.negatives,
                               epochs=args.epochs, batch_size=args.batch_size,
                               seed=args.seed)
    table, trace = emb_mod.train_kg_embeddings(graph, cfg, args.dim)
    out = _out_dir(args)
    emb_mod.save_embeddings(table, graph.entity_names, graph.relation_names,
                            out / "embeddings.kge")
    (out / "loss_trace.json").write_text(json.dumps(trace), encoding="utf-8")
    hits, mean_rank = emb_mod.link_prediction_eval(table, graph, k=10)
    _write_simple_manifest(out, "train-embed", args)
    print(f"wrote {out / 'embeddings.kge'}; hits@10={hits:.4f} mean_rank={mean_rank:.2f}")
    return 0


def _read_corpus(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip()]


def cmd_pretrain(args) -> int:
    corpus = _read_corpus(args.corpus)
    texts = list(corpus)
    if args.qa:
        graph, _ = kg_mod.load_triples_tsv(args.kg) if args.kg else (None, None)
        if graph is None:
            raise UsageError("--qa requires --kg to resolve gold names")
        for ex in data_mod.load_qa_jsonl(args.qa, graph):
            texts.extend([ex.question, ex.answer])
    vocab = build_vocab(texts, min_count=1)
    cfg = ModelConfig(vocab_size=len(vocab), d_kg=args.dim)
    params = ModelParams.init(cfg, args.seed)
    train_cfg = trainer.TrainConfig(max_steps=args.steps, seed=args.seed,
                                    learning_rate=args.lr, batch_size=args.batch_size)
    params, trace = trainer.pretrain(params, [vocab.encode(s) for s in corpus],
                                     train_cfg)
    out = _out_dir(args)
    trainer.save_checkpoint(params, None,
                            {"vocab": vocab.tokens, "stage": "pretrained"},
                            out / "model.ckpt")
    (out / "loss_trace.json").write_text(json.dumps(trace), encoding="utf-8")
    _write_simple_manifest(out, "pretrain", args)
    print(f"wrote {out / 'model.ckpt'}; trace={['%.3f' % x for x in trace]}")
    return 0


def _load_finetune_inputs(args):
    graph, _ = kg_mod.load_triples_tsv(args.kg)
    params, ckpt_emb, configs = trainer.load_checkpoint(args.checkpoint)
    from .model import RESERVED_TOKENS, Vocabulary
    vocab = Vocabulary(configs["vocab"][len(RESERVED_TOKENS):])
    dataset = data_mod.load_qa_jsonl(args.qa, graph)
    if args.embeddings:
        table, _, _ = emb_mod.load_embeddings(args.embeddings)
    else:
        table = ckpt_emb
    if table is None:
        raise UsageError("no embeddings: pass --embeddings or a checkpoint that has them")
    return graph, params, vocab, dataset, table, configs


def cmd_finetune(args) -> int:
    graph, params, vocab, dataset, table, configs = _load_finetune_inputs(args)
    cfg = trainer.TrainConfig(max_steps=args.steps, seed=args.seed,
                              learning_rate=args.lr, batch_size=args.batch_size)
    loss = trainer.LossSpec(sim_weight=args.sim_weight)
    params, table, trace = trainer.finetune(params, dataset, graph, table, loss,
                                            args.variant, cfg, vocab)
    out = _out_dir(args)
    trainer.save_checkpoint(params, table,
                            {**configs, "stage": "finetuned", "variant": args.variant},
                            out / "model.ckpt")
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("step,L,Sim,L_prime\n")
        for step, l, s, lp in trace:
            fh.write(f"{step},{l:.17g},{s:.17g},{lp:.17g}\n")
    _write_simple_manifest(out, "finetune", args)
    print(f"wrote {out / 'model.ckpt'} after {len(trace)} steps")
    return 0


def cmd_eval(args) -> int:
    graph, params, vocab, dataset, table, _ = _load_finetune_inputs(args)
    stats = harness.evaluate_split(params, vocab, graph, table, dataset,
                                   args.variant)
    report = harness.report_from(args.variant, 1.0, args.seed, stats, [])
    out = _out_dir(args)
    harness.emit_report([report], "csv", out / "metrics.csv")
    _write_simple_manifest(out, "eval", args)
    for cat, (m, n) in stats.items():
        print(f"{cat}: {m}/{n} = {m / n if n else 0.0:.4f}")
    return 0


def cmd_ablate(args) -> int:
    exp = _load_experiment(args.config, args.sim_weight)
    seeds = _parse_seeds(args.seeds)
    graph, corpus, dataset = harness.build_world(exp)
    reports = harness.run_ablation(graph, corpus, dataset, exp, seeds)
    out = _out_dir(args)
    harness.emit_report(reports, "csv", out / "metrics.csv")
    harness.emit_report(reports, "markdown", out / "report.md")
    manifest = harness.make_manifest("ablation", exp, seeds, argv=sys.argv[1:])
    harness.save_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(reports)} reports to {out / 'metrics.csv'}")
    return 0


def cmd_scale_sweep(args) -> int:
    exp = _load_experiment(args.config, args.sim_weight)
    seeds = _parse_seeds(args.seeds)
    fractions = _parse_fractions(args.fractions)
    graph, corpus, dataset = harness.build_world(exp)
    reports = harness.run_scale_sweep(graph, corpus, dataset, exp, fractions, seeds)
    out = _out_dir(args)
    harness.emit_report(reports, "csv", out / "metrics.csv")
    harness.emit_report(reports, "markdown", out / "report.md")
    manifest = harness.make_manifest("scale-sweep", exp, seeds, fractions,
                                     argv=sys.argv[1:])
    harness.save_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(reports)} reports to {out / 'metrics.csv'}")
    return 0


def cmd_ingest_squad(args) -> int:
    examples = data_mod.ingest_squad(args.path)
    print(f"{len(examples)} examples, all answer offsets valid")
    if args.out:
        out = _out_dir(args)
        with open(out / "squad_flat.jsonl", "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(json.dumps(dataclasses.asdict(ex), sort_keys=True) + "\n")
        _write_simple_manifest(out, "ingest-squad", args)
    return 0


def cmd_report(args) -> int:
    reports = harness.parse_report_csv(args.metrics)
    harness.emit_report(reports, args.format, args.out)
    print(f"wrote {args.out}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="kgt5lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")

    def experiment(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="JSON experiment overrides")
        p.add_argument("--seeds", required=True, help="e.g. 1,2,3 or 1..5")
        p.add_argument("--lambda", dest="sim_weight", type=float, default=None)

    p = sub.add_parser("gen-kg", help="generate a seeded synthetic KG and corpus")
    common(p)
    p.add_argument("--people", type=int, default=240)
    p.add_argument("--cities", type=int, default=24)
    p.add_argument("--countries", type=int, default=12)
    p.add_argument("--occupations", default=None, help="comma-separated names")
    p.set_defaults(func=cmd_gen_kg)

    p = sub.add_parser("gen-qa", help="generate QA examples over a KG")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--hop1", type=int, default=130)
    p.add_argument("--context", type=int, default=130)
    p.add_argument("--hop2", type=int, default=220)
    p.set_defaults(func=cmd_gen_qa)

    p = sub.add_parser("train-embed", help="pre-train KG embeddings")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--negatives", type=int, default=1)
    p.set_defaults(func=cmd_train_embed)

    p = sub.add_parser("pretrain", help="span-corruption pretraining")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--qa", default=None, help="QA jsonl folded into the vocabulary")
    p.add_argument("--kg", default=None)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--dim", type=int, default=32, help="KG embedding dim (d_kg)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune with the joint objective")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--variant", choices=VARIANTS, default="both")
    p.add_argument("--lambda", dest="sim_weight", type=float, default=-0.1)
    p.add_argument("--steps", type=int, default=800)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="exact-match evaluation of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--variant", choices=VARIANTS, default="both")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the KG-input ablation")
    experiment(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("scale-sweep", help="run the KG-size sweep")
    experiment(p)
    p.add_argument("--fractions", required=True, help="e.g. 0.25,0.5,1.0")
    p.set_defaults(func=cmd_scale_sweep)

    p = sub.add_parser("ingest-squad", help="validate a SQuAD v1.1 JSON file")
    p.add_argument("--path", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_ingest_squad)

    p = sub.add_parser("report", help="re-render a metrics CSV")
    p.add_argument("--metrics", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (ValueError, LookupError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
