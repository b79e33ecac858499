"""Command-line entry point for the full pipeline and experiment protocol."""

import argparse
import errno
import functools
import os
import stat
import sys
from dataclasses import asdict, replace

from . import corpus, experiment, fusion, pvdm, synth


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _experiment_settings(args, **defaults):
    """The command's defaults, then the --config file, then the flags given.

    Flags left out are None; every default not passed here is ExperimentConfig's.
    """
    settings = dict(defaults)
    if args.config:
        settings.update(experiment.read_config(args.config))
    flags = {"arm": args.arm, "runs": args.runs, "mu": args.mu,
             "master_seed": args.seed, "embedding_scope": args.embedding_scope}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    return settings


def _distinct_files(paths):
    """Raise CliError if two of ``paths`` (name -> path, or None) are one file:
    an existing file by its inode and device, as ``os.path.samefile`` tells
    hard links apart, any other by the name its path resolves to."""
    seen = {}
    for what, path in paths.items():
        if path is None:  # a flag left out
            continue
        try:
            key = os.stat(path)[1:3]  # (st_ino, st_dev)
        except OSError:
            key = os.path.realpath(path)
        first = seen.setdefault(key, what)
        if first != what:
            raise CliError("%s and %s are the same file: %s" % (first, what, path))


def _writable_files(*paths):
    """Raise the OSError that opening each of ``paths`` to write it would
    raise for the empty path, a path that is a directory, or a parent
    directory that is missing or a file, before the command reads any input."""
    for path in paths:
        parent = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            code = errno.EISDIR
        elif path and os.path.isdir(parent):
            continue
        else:
            code = errno.ENOTDIR if path and os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _makeable_directory(path):
    """Raise the OSError that ``os.makedirs`` would raise, only after the
    command's work, for an output directory that is a file or lies below
    one. Runs before the command reads any input, and makes nothing."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISDIR(mode):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)


def _distinct_experiment_files(args, outputs):
    """``_distinct_files`` of the inputs of train, experiment or sweep and ``outputs``."""
    _distinct_files({"--fused": args.fused, "the twin of --fused": corpus.twin_path(args.fused),
                     "--events": args.events, "--config": args.config,
                     "--sentences": args.sentences, **outputs})


# the commands that read pvdm and --sentences: a run's vector_source embeds
_EMBEDDING_READERS = "embedding scope 'train_folds' or a full-scope window_n or vector_dim sweep"


def _read_inputs(args, config, arms, parameter=None):
    """The fused table, with its semantic column only if a run reads it, the
    events and the sentences, None where the command does not read them.

    A pvdm override or an input file the command would not read, an input it
    would read but was not given, and a fused sample whose sentence is not
    among the sentences each end the command before any run starts.
    """
    sources = {experiment.vector_source(arm, config.embedding_scope, parameter) for arm in arms}
    embeds = bool(sources - {None, "fused"})
    if embeds and not args.sentences:
        raise CliError("%s retrains embeddings: pass --sentences" % _EMBEDDING_READERS)
    if not embeds and (config.pvdm or args.sentences):
        if experiment.vector_source(fusion.TEXT_ARMS[0], config.embedding_scope,
                                    parameter) != "fused":
            unread = "is not read by arm %s, which reads no sentence vector" % ", ".join(arms)
        else:
            unread = "is read only under %s" % _EMBEDDING_READERS
        raise CliError("%s: pvdm %s" % (args.config, unread) if config.pvdm
                       else "--sentences %s" % unread)
    table = fusion.read_sample_table(args.fused, keep_semantic="fused" in sources)
    events = fusion.read_events(args.events)
    if not args.sentences:
        return table, events, None
    sentences = corpus.read_sentences(args.sentences)
    known = {s.sentence_id for s in sentences}
    for sid in table.sentence_ids:
        if sid not in known:
            raise CliError("%s: no sentence for fused sample %r" % (args.sentences, sid))
    return table, events, sentences


def _cmd_synth(args):
    _makeable_directory(args.out)
    cfg = synth.SynthConfig(n_banks=args.banks, distress_prior=args.prior,
                            text_signal=args.text_signal, numeric_signal=args.numeric_signal,
                            sentences_per_bank_quarter=(args.min_sentences, args.max_sentences),
                            seed=args.seed)
    dataset = synth.generate(cfg)
    synth.write_dataset(dataset, args.out)
    summary = synth.describe(dataset)
    print("wrote %s: %d banks, %d articles, prior %.3f"
          % (args.out, summary["n_banks"], summary["n_articles"], summary["realized_prior"]))
    return 0


def _cmd_ingest(args):
    _writable_files(args.out)
    _distinct_files({"--articles": args.articles, "--registry": args.registry, "--out": args.out})
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
    _writable_files(args.out, args.vectors)
    _distinct_files({"--sentences": args.sentences, "--vectors": args.vectors, "--out": args.out,
                     "the twin of --vectors": corpus.twin_path(args.vectors)})
    sentences = corpus.read_sentences(args.sentences)
    cfg = pvdm.PvdmConfig(vector_dim=args.dim, window_n=args.window, epochs=args.epochs,
                          seed=args.seed, min_count=args.min_count)
    model, losses = experiment.embed_sentences(sentences, cfg)
    pvdm.save_model(model, args.out)
    pvdm.export_vectors(model, args.vectors)
    tail = (" final epoch loss %.4f" % losses[-1]) if losses else ""
    print("wrote %s: |V|=%d, %d sentences%s"
          % (args.out, len(model.vocab), len(sentences), tail))
    return 0


def _cmd_fuse(args):
    _writable_files(args.out)
    _distinct_files({"--sentences": args.sentences, "--vectors": args.vectors,
                     "the twin of --vectors": corpus.twin_path(args.vectors),
                     "--indicators": args.indicators, "--events": args.events,
                     "--out": args.out, "the twin of --out": corpus.twin_path(args.out)})
    sentences = corpus.read_sentences(args.sentences)
    vectors = pvdm.read_vectors(args.vectors)
    indicators = fusion.read_indicators(args.indicators)
    events = fusion.read_events(args.events)
    labels, report = fusion.write_fused(sentences, args.vectors, vectors, indicators, events,
                                        args.out)
    print("wrote %s: %d samples (%d sentences dropped, %d banks fully dropped), "
          "class prior %.3f"
          % (args.out, len(labels), report.n_dropped, len(report.banks_fully_dropped),
             sum(labels) / len(labels)))
    return 0


def _cmd_train(args):
    _writable_files(args.out)
    settings = _experiment_settings(args, runs=1)
    if settings["runs"] != 1:
        raise CliError("%s: train makes one run, got runs %r" % (args.config, settings["runs"]))
    config = experiment.ExperimentConfig(**settings)
    _distinct_experiment_files(args, {"--out": args.out})
    table, events, sentences = _read_inputs(args, config, [config.arm])
    [(_, _, result)] = experiment.protocol_runs(table, events, {config.arm: config}, sentences)
    report = {"arm": config.arm, "mu": config.mu, "seed": result.seed,
              "threshold": result.threshold,
              "validation": asdict(result.validation), "test": asdict(result.test)}
    corpus.write_json(report, args.out)
    print("wrote %s: test U_r %.4f" % (args.out, result.test.relative_usefulness))
    return 0


def _cmd_experiment(args):
    _makeable_directory(args.out)
    settings = _experiment_settings(args)
    # an arm set by the file or a flag runs alone; none set, or --arm all, runs every arm
    if settings.get("arm") == "all":
        del settings["arm"]
    config = experiment.ExperimentConfig(**settings)
    arms = [config.arm] if "arm" in settings else list(fusion.ARMS)
    runs_csv, summary_json = (os.path.join(args.out, name) for name in ("runs.csv", "summary.json"))
    _distinct_experiment_files(args, {"--out's runs.csv": runs_csv,
                                      "--out's summary.json": summary_json})
    table, events, sentences = _read_inputs(args, config, arms)
    os.makedirs(args.out, exist_ok=True)
    results_by_arm = {arm: [] for arm in arms}
    configs = {arm: replace(config, arm=arm) for arm in arms}
    for arm, _, result in experiment.protocol_runs(table, events, configs, sentences):
        results_by_arm[arm].append(result)
    for arm, results in results_by_arm.items():
        mean, std = experiment.ur_stats(results)
        print("%s: mean test U_r %.4f (std %.4f, %d runs)" % (arm, mean, std, len(results)))
        redraws = sum(r.redraws for r in results)
        if redraws:
            print("%s: %d fold redraws replaced draws with a single-class validation "
                  "or test fold" % (arm, redraws))
        zero_vectors = sum(r.zero_vectors for r in results)
        if zero_vectors:
            print("%s: %d held-out sentences too short to infer took zero vectors"
                  % (arm, zero_vectors))
    experiment.write_runs_csv(results_by_arm, runs_csv)
    experiment.write_summary_json(results_by_arm, config, summary_json)
    return 0


def _grid_value(text):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    raise CliError("--grid: %r is not a number" % text)


def _cmd_sweep(args):
    _makeable_directory(args.out)
    config = experiment.ExperimentConfig(
        **_experiment_settings(args, runs=experiment.SWEEP_RUNS))
    grid = [_grid_value(v) for v in args.grid.split(",")]
    # a bad grid, or a parameter no run reads, ends the command before any input is read
    experiment.sweep_configs(config, args.parameter, grid)
    path = os.path.join(args.out, "sweep_%s.csv" % args.parameter)
    _distinct_experiment_files(args, {"--out's sweep file": path})
    table, events, sentences = _read_inputs(args, config, [config.arm], args.parameter)
    os.makedirs(args.out, exist_ok=True)  # before any run, as experiment makes its --out
    result = experiment.sweep(lambda _: table, events, config, args.parameter, grid,
                              runs=config.runs, sentences=sentences)
    experiment.write_sweep_csv(result, path)
    for value, mean in zip(result.grid, result.mean_ur):
        print("%s=%s: mean U_r %.4f" % (args.parameter, value, mean))
    print("wrote %s" % path)
    return 0


def _cmd_report(args):
    path = os.path.join(args.results, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = corpus.parse_json(fh.read())
        lines = ["mu=%s runs=%s" % (summary["config"]["mu"], summary["config"]["runs"])]
        arms = summary["arms"]
        if not (isinstance(arms, dict) and arms
                and all(isinstance(entry, dict) for entry in arms.values())):
            raise ValueError("arms must be a non-empty object of objects")
        for arm, entry in sorted(arms.items()):
            lines.append("%-14s mean U_r %+.4f  std %.4f  (%d runs)"
                         % (arm, entry["mean_test_ur"], entry["std_test_ur"], entry["runs"]))
    except KeyError as exc:
        raise CliError("%s: missing key %s" % (path, exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError("%s: %s" % (path, exc)) from None
    print("\n".join(lines))
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` keeps no state between calls, so ``main`` may
    run any number of commands in one process."""
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
    p.add_argument("--vectors", required=True, help="JSON-lines sentence vectors output")
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
    p.set_defaults(func=_cmd_fuse)

    def common_experiment_flags(p):
        p.add_argument("--fused", required=True)
        p.add_argument("--events", required=True)
        p.add_argument("--mu", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--embedding-scope", choices=("full", "train_folds"),
                       help="retrain embeddings per run on training folds only")
        p.add_argument("--sentences",
                       help="raw sentences, needed when embeddings are retrained")

    p = sub.add_parser("train", help="single run: train, select threshold, report")
    common_experiment_flags(p)
    p.add_argument("--arm", choices=fusion.ARMS)
    p.add_argument("--out", required=True, help="report JSON output")
    p.set_defaults(func=_cmd_train, runs=None)

    p = sub.add_parser("experiment", help="repeated-run protocol")
    common_experiment_flags(p)
    p.add_argument("--arm", choices=fusion.ARMS + ("all",))
    p.add_argument("--runs", type=int)
    p.add_argument("--out", required=True, help="results directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="one-parameter sensitivity sweep")
    common_experiment_flags(p)
    p.add_argument("--arm", choices=fusion.ARMS)
    p.add_argument("--parameter", required=True, choices=experiment.SWEEPABLE)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--runs", type=int, help="runs per grid value")
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
    except (CliError, ValueError, KeyError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
