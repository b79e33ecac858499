"""Command-line entry point for the full pipeline and experiment protocol."""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import corpus, evaluation, experiment, fusion, neural, pvdm, synth


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _load_experiment_config(args):
    base = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("%s: expected a JSON object" % args.config)
        known = [f.name for f in fields(experiment.ExperimentConfig)]
        for key in base:
            if key not in known:
                raise ValueError("%s: unknown config key %r (expected one of %s)"
                                 % (args.config, key, ", ".join(known)))
    if getattr(args, "arm", None) and args.arm != "all":
        base["arm"] = args.arm
    if getattr(args, "runs", None) is not None:
        base["runs"] = args.runs
    if getattr(args, "mu", None) is not None:
        base["mu"] = args.mu
    if getattr(args, "seed", None) is not None:
        base["master_seed"] = args.seed
    if getattr(args, "embedding_scope", None):
        base["embedding_scope"] = args.embedding_scope
    return experiment.ExperimentConfig(**base)


def _scoped_sentences(args, config):
    """Raw sentences for per-run embedding retraining, when requested."""
    if config.embedding_scope != "train_folds":
        return None
    if not getattr(args, "sentences", None):
        raise CliError("embedding scope 'train_folds' retrains per run: pass --sentences")
    return corpus.read_sentences(args.sentences)


def _cmd_synth(args):
    cfg = synth.SynthConfig(
        n_banks=args.banks,
        distress_prior=args.prior,
        text_signal=args.text_signal,
        numeric_signal=args.numeric_signal,
        sentences_per_bank_quarter=(args.min_sentences, args.max_sentences),
        seed=args.seed,
    )
    dataset = synth.generate(cfg)
    synth.write_dataset(dataset, args.out)
    summary = synth.describe(dataset)
    print("wrote %s: %d banks, %d articles, prior %.3f"
          % (args.out, summary["n_banks"], summary["n_articles"], summary["realized_prior"]))
    return 0


def _cmd_ingest(args):
    registry = corpus.compile_registry(args.registry)
    articles = corpus.read_articles(args.articles)
    sentences = []
    for article in articles:
        sentences.extend(corpus.extract_sentences(article, registry))
    if not sentences:
        raise CliError("no entity-bearing sentences found")
    corpus.write_sentences(sentences, args.out)
    print("wrote %s: %d sentences from %d articles" % (args.out, len(sentences), len(articles)))
    return 0


def _cmd_embed(args):
    sentences = corpus.read_sentences(args.sentences)
    cfg = pvdm.PvdmConfig(
        vector_dim=args.dim,
        window_n=args.window,
        epochs=args.epochs,
        seed=args.seed,
        min_count=args.min_count,
    )
    model, losses = experiment.embed_sentences(sentences, cfg)
    pvdm.save_model(model, args.out)
    if args.vectors:
        pvdm.export_vectors(model, args.vectors)
    tail = (" final epoch loss %.4f" % losses[-1]) if losses else ""
    print("wrote %s: |V|=%d, %d sentences%s"
          % (args.out, len(model.vocab), len(sentences), tail))
    return 0


def _cmd_fuse(args):
    sentences = corpus.read_sentences(args.sentences)
    vectors = pvdm.read_vectors(args.vectors)
    indicators = fusion.read_indicators(args.indicators)
    events = fusion.read_events(args.events)
    table, report = fusion.build_sample_table(sentences, vectors, indicators, events)
    stats = fusion.write_sample_table(table, args.out)
    if args.stats:
        fusion.write_normalization_stats(stats, args.stats)
    print("wrote %s: %d samples (%d sentences dropped, %d banks fully dropped), "
          "class prior %.3f"
          % (args.out, len(table), report.n_dropped, len(report.banks_fully_dropped),
             table.class_prior()))
    return 0


def _cmd_train(args):
    table = fusion.read_sample_table(args.fused)
    events = fusion.read_events(args.events)
    config = _load_experiment_config(args)
    result = experiment.run_once(table, events, config,
                                 experiment.derive_run_seed(config.master_seed, 0),
                                 sentences=_scoped_sentences(args, config))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "arm": config.arm,
                "mu": config.mu,
                "seed": result.seed,
                "threshold": result.threshold,
                "validation": evaluation.report_to_dict(result.validation),
                "test": evaluation.report_to_dict(result.test),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print("wrote %s: test U_r %.4f" % (args.out, result.test.relative_usefulness))
    return 0


def _cmd_experiment(args):
    table = fusion.read_sample_table(args.fused)
    events = fusion.read_events(args.events)
    config = _load_experiment_config(args)
    arms = list(fusion.ARMS) if args.arm == "all" else [config.arm]
    sentences = _scoped_sentences(args, config)
    os.makedirs(args.out, exist_ok=True)
    results_by_arm = {}
    for arm in arms:
        cfg = replace(config, arm=arm)
        mean, std, results = experiment.run_repeated(table, events, cfg, sentences=sentences)
        results_by_arm[arm] = results
        print("%s: mean test U_r %.4f (std %.4f, %d runs)" % (arm, mean, std, cfg.runs))
        redraws = sum(r.redraws for r in results)
        if redraws:
            print("%s: %d fold redraws replaced draws with a single-class validation "
                  "or test fold" % (arm, redraws))
    experiment.write_runs_csv(results_by_arm, os.path.join(args.out, "runs.csv"))
    experiment.write_summary_json(results_by_arm, config, os.path.join(args.out, "summary.json"))
    return 0


def _grid_values(text):
    values = []
    for v in text.split(","):
        try:
            values.append(float(v) if "." in v or "e" in v else int(v))
        except ValueError:
            raise CliError("--grid: %r is not a number" % v) from None
    return values


def _cmd_sweep(args):
    table = fusion.read_sample_table(args.fused)
    events = fusion.read_events(args.events)
    config = _load_experiment_config(args)
    grid = _grid_values(args.grid)

    if args.parameter in ("window_n", "vector_dim"):
        if not (args.sentences and args.indicators):
            raise CliError(
                "sweeping %s retrains embeddings: pass --sentences and --indicators"
                % args.parameter
            )
        sentences = corpus.read_sentences(args.sentences)
        indicators = fusion.read_indicators(args.indicators)

        def builder(pvdm_overrides):
            model, _ = experiment.embed_sentences(sentences, pvdm.PvdmConfig(**pvdm_overrides))
            vectors = {
                sid: model.paragraph[row] for sid, row in model.sentence_index.items()
            }
            new_table, _ = fusion.build_sample_table(sentences, vectors, indicators, events)
            return new_table
    else:
        def builder(_pvdm_overrides):
            return table

    result = experiment.sweep(builder, events, config, args.parameter, grid,
                              runs=args.runs if args.runs else 10,
                              sentences=_scoped_sentences(args, config))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep_%s.csv" % args.parameter)
    experiment.write_sweep_csv(result, path)
    for value, mean in zip(result.grid, result.mean_ur):
        print("%s=%s: mean U_r %.4f" % (args.parameter, value, mean))
    print("wrote %s" % path)
    return 0


def _cmd_report(args):
    path = os.path.join(args.results, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        lines = ["mu=%s runs config=%s" % (summary["config"]["mu"], summary["config"]["runs"])]
        for arm in sorted(summary["arms"]):
            entry = summary["arms"][arm]
            lines.append("%-14s mean U_r %+.4f  std %.4f  (%d runs)"
                         % (arm, entry["mean_test_ur"], entry["std_test_ur"], entry["runs"]))
    except KeyError as exc:
        raise CliError("%s: missing key %s" % (path, exc)) from None
    except (TypeError, ValueError) as exc:
        raise CliError("%s: %s" % (path, exc)) from None
    print("\n".join(lines))
    return 0


def build_parser():
    parser = _Parser(prog="bankdistress",
                     description="Bank-distress pipeline: news embeddings, "
                                 "indicator fusion, classification, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--banks", type=int, default=62)
    p.add_argument("--prior", type=float, default=0.07)
    p.add_argument("--text-signal", type=float, default=0.3)
    p.add_argument("--numeric-signal", type=float, default=0.6)
    p.add_argument("--min-sentences", type=int, default=5)
    p.add_argument("--max-sentences", type=int, default=40)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="extract entity-bearing sentences")
    p.add_argument("--articles", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--out", required=True, help="sentences JSON-lines output")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("embed", help="train paragraph vectors")
    p.add_argument("--sentences", required=True)
    p.add_argument("--out", required=True, help="model file (.npz)")
    p.add_argument("--vectors", help="optional JSON-lines vector export")
    p.add_argument("--dim", type=int, default=600)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("fuse", help="align, label and fuse samples")
    p.add_argument("--sentences", required=True)
    p.add_argument("--vectors", required=True)
    p.add_argument("--indicators", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True, help="fused dataset JSON-lines output")
    p.add_argument("--stats", help="optional normalization stats JSON (audit)")
    p.set_defaults(func=_cmd_fuse)

    def common_experiment_flags(p):
        p.add_argument("--fused", required=True)
        p.add_argument("--events", required=True)
        p.add_argument("--mu", type=float, default=0.9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--embedding-scope", choices=("full", "train_folds"),
                       help="retrain embeddings per run on training folds only")
        p.add_argument("--sentences",
                       help="raw sentences, needed when embeddings are retrained")

    p = sub.add_parser("train", help="single run: train, select threshold, report")
    common_experiment_flags(p)
    p.add_argument("--arm", choices=fusion.ARMS, default="combined")
    p.add_argument("--out", required=True, help="report JSON output")
    p.set_defaults(func=_cmd_train, runs=None)

    p = sub.add_parser("experiment", help="repeated-run protocol")
    common_experiment_flags(p)
    p.add_argument("--arm", choices=fusion.ARMS + ("all",), default="all")
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--out", required=True, help="results directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="one-parameter sensitivity sweep")
    common_experiment_flags(p)
    p.add_argument("--arm", choices=fusion.ARMS, default="combined")
    p.add_argument("--parameter", required=True, choices=experiment.SWEEPABLE)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--indicators", help="needed when sweeping embedding parameters")
    p.add_argument("--out", required=True, help="results directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="print a results-directory summary")
    p.add_argument("--results", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
