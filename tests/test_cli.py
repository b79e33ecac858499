"""End-to-end command-line pipeline tests."""

import contextlib
import csv
import errno
import glob
import hashlib
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bankdistress import cli, corpus, experiment, fusion, pvdm, synth


def chain(d):
    """The argument lists of README's chain at the test size, synth -> ingest -> embed ->
    fuse -> experiment, each file in the directory ``d``; the experiment reads the
    network of ``d/config.json``."""
    data = os.path.join(d, "data")
    paths = {name: os.path.join(d, name) for name in ("sentences.jsonl", "model.npz",
                                                      "vectors.jsonl", "fused.jsonl")}
    return [["synth", "--out", data, "--banks", "12", "--min-sentences", "2",
             "--max-sentences", "6", "--seed", "4"],
            ["ingest", "--articles", os.path.join(data, "articles.jsonl"),
             "--registry", os.path.join(data, "registry.json"),
             "--out", paths["sentences.jsonl"]],
            ["embed", "--sentences", paths["sentences.jsonl"], "--out", paths["model.npz"],
             "--vectors", paths["vectors.jsonl"], "--dim", "16", "--window", "2",
             "--epochs", "2", "--seed", "1"],
            ["fuse", "--sentences", paths["sentences.jsonl"], "--vectors", paths["vectors.jsonl"],
             "--indicators", os.path.join(data, "indicators.csv"),
             "--events", os.path.join(data, "events.csv"), "--out", paths["fused.jsonl"]],
            ["experiment", "--fused", paths["fused.jsonl"],
             "--events", os.path.join(data, "events.csv"), "--config",
             os.path.join(d, "config.json"), "--runs", "2", "--arm", "all", "--seed", "0",
             "--out", os.path.join(d, "experiment")]]


def write_chain_config(d):
    with open(os.path.join(d, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"mlp": {"epochs": 3, "hidden_layers": [6]}}, fh)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> ingest -> embed -> fuse once and share the artifacts."""
    d = str(tmp_path_factory.mktemp("pipeline"))
    paths = {
        "data": os.path.join(d, "data"),
        "sentences": os.path.join(d, "sentences.jsonl"),
        "model": os.path.join(d, "model.npz"),
        "vectors": os.path.join(d, "vectors.jsonl"),
        "fused": os.path.join(d, "fused.jsonl"),
        "config": os.path.join(d, "config.json"),
        "dir": d,
    }
    for argv in chain(d)[:4]:
        assert cli.main(argv) == 0, argv
    write_chain_config(d)
    return paths


def test_synth_outputs(pipeline):
    data = pipeline["data"]
    registry = corpus.compile_registry(os.path.join(data, "registry.json"))
    assert len(registry) == 12
    events = fusion.read_events(os.path.join(data, "events.csv"))
    assert events
    manifest = json.load(open(os.path.join(data, "manifest.json"), encoding="utf-8"))
    assert manifest["seed"] == 4


def test_ingest_output(pipeline):
    sentences = corpus.read_sentences(pipeline["sentences"])
    assert sentences
    assert all(s.bank_id.startswith("bank") for s in sentences)
    # every synth sentence names exactly one bank, so ingest writes one line
    # per sentence of the dataset the manifest's config generates
    with open(os.path.join(pipeline["data"], "manifest.json"), encoding="utf-8") as fh:
        config = synth.SynthConfig(**json.load(fh)["config"])
    with open(pipeline["sentences"], encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == synth.describe(synth.generate(config))["n_sentences"]


def test_embed_output(pipeline):
    with np.load(pipeline["model"]) as data:
        header = corpus.parse_json(data["header"].tobytes().decode("utf-8"))
        assert data.files == ["header", "word_in", "word_out", "noise_probs"]
        assert data["word_in"].shape == (len(header["vocab"]["tokens"]), 16)
    assert header["format"] == "pvdm-v2" and header["config"]["vector_dim"] == 16
    rows, values, _ = pvdm.read_vectors(pipeline["vectors"])
    assert list(rows) == [s.sentence_id for s in corpus.read_sentences(pipeline["sentences"])]
    assert values.shape == (len(rows), 16)


def test_the_vectors_twin_holds_the_paragraph_matrix_embed_trained(pipeline):
    # the fixture's embed, run in-process: its paragraph matrix is the
    # twin's values, bit for bit, and the model file holds no copy of it
    config = pvdm.PvdmConfig(vector_dim=16, window_n=2, epochs=2, seed=1)
    model, _ = experiment.embed_sentences(corpus.read_sentences(pipeline["sentences"]), config)
    with np.load(corpus.twin_path(pipeline["vectors"])) as twin:
        assert twin["values"].tobytes() == model.paragraph.tobytes()
    with np.load(pipeline["model"]) as data:
        assert "paragraph" not in data.files
        assert data["word_in"].tobytes() == model.word_in.tobytes()
        assert data["word_out"].tobytes() == model.word_out.tobytes()


def test_each_twin_holds_the_sha256_of_the_file_beside_it(pipeline):
    # embed and fuse take each digest as they write the file; plain numpy
    # reads the twin's ids, as JSON text, and the file's numbers, row by row
    twins = {"vectors": ("ids", {"values": "values"}),
             "fused": ("sentence_ids", {"semantic": "semantic", "numeric_raw": "numeric_raw",
                                        "labels": "label"})}
    for name, (ids, columns) in twins.items():
        with open(pipeline[name], "rb") as fh:
            text = fh.read()
        rows = [json.loads(line) for line in text.splitlines()]
        with np.load(corpus.twin_path(pipeline[name])) as twin:
            assert twin["sha256"].tobytes() == hashlib.sha256(text).digest()
            assert json.loads(twin[ids].tobytes().decode("utf-8")) == [
                row["sentence_id"] for row in rows]
            for entry, key in columns.items():
                assert twin[entry].tolist() == [row[key] for row in rows], (name, entry)


def python_process(args, cwd, hash_seed=None):
    """The finished ``python <args>`` run in a new process with the package on its path,
    with a RuntimeWarning an error, as in the suite, and ``hash_seed``, if given, as
    PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               PYTHONWARNINGS="error::RuntimeWarning")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env, capture_output=True,
                          text=True)


def fresh_process(argv, cwd, hash_seed=None):
    """(exit status, stdout, stderr) of ``bankdistress <argv>`` run in a new process."""
    proc = python_process(["-m", "bankdistress.cli"] + argv, cwd, hash_seed)
    return proc.returncode, proc.stdout, proc.stderr


def sweep_argv(d, out):
    """README's full-scope window_n sweep on the chain's files in ``d``, with a small
    network and PV-DM, written to ``out``; its config lies beside ``out``. Two
    runs of the text-only arm gave other bytes at each of 12 PV-DM seeds tried,
    so the bytes show the embedding; one run, or the combined arm, gave the
    same bytes at several."""
    config = os.path.join(os.path.dirname(out), "sweep.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"arm": "text_only", "mlp": {"epochs": 3, "hidden_layers": [6]},
                   "pvdm": {"vector_dim": 4, "epochs": 1, "min_count": 1}}, fh)
    return ["sweep", "--fused", os.path.join(d, "fused.jsonl"),
            "--events", os.path.join(d, "data", "events.csv"),
            "--sentences", os.path.join(d, "sentences.jsonl"), "--parameter", "window_n",
            "--grid", "2,3", "--config", config, "--runs", "2", "--out", out]


@pytest.fixture(scope="module")
def fresh_chain(tmp_path_factory):
    """A directory that holds ``chain/``, the files of the README chain, and ``sweep/``,
    those of a sweep on them, each command run in a new process under hash seed 1."""
    root = tmp_path_factory.mktemp("fresh")
    d = root / "chain"
    d.mkdir()
    write_chain_config(str(d))
    for argv in chain(str(d)) + [sweep_argv(str(d), str(root / "sweep"))]:
        rc, _, err = fresh_process(argv, str(root), hash_seed=1)
        assert (rc, err) == (0, ""), argv
    return root


def test_commands_in_one_process_write_what_each_writes_in_a_fresh_one(pipeline, tmp_path,
                                                                       monkeypatch):
    # main parses every call with one parser; no call changes a later one,
    # neither one that sets a flag the next leaves out nor one that ends in
    # an error line
    assert cli.build_parser() is cli.build_parser()
    embed = ["embed", "--sentences", pipeline["sentences"], "--out", "model.npz",
             "--vectors", "vectors.jsonl", "--dim", "4", "--min-count", "1"]
    calls = [embed + ["--epochs", "0"], embed, embed + ["--epochs", "2", "--bogus"],
             embed + ["--epochs", "-2"], embed, embed + ["--epochs", "10"]]
    results = []
    for k, argv in enumerate(calls):
        here, fresh = tmp_path / ("here%d" % k), tmp_path / ("fresh%d" % k)
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert (rc, out.getvalue(), err.getvalue()) == fresh_process(argv, fresh)
        written = {}
        for name in sorted(os.listdir(here)):
            written[name] = (here / name).read_bytes()
            assert written[name] == (fresh / name).read_bytes(), name
        assert sorted(os.listdir(fresh)) == sorted(written)
        results.append((rc, written))
    assert [rc for rc, _ in results] == [0, 0, 1, 1, 0, 0]
    assert not results[2][1] and not results[3][1]
    # embed without --epochs trains the default 10 epochs, after a call that set 0
    assert results[1] == results[4] == results[5] != results[0]


def test_the_chain_in_one_process_writes_what_a_process_per_command_writes(pipeline,
                                                                          fresh_chain):
    # the pipeline fixture ran synth, ingest, embed and fuse through cli.main,
    # and other tests may have run commands since; main reuses its parser and
    # ingest the registry's screen, so no command may depend on what an
    # earlier one left behind
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(chain(pipeline["dir"])[-1]) == 0
    d = fresh_chain / "chain"
    names = sorted(os.path.relpath(path, d) for path in glob.glob(str(d / "**"), recursive=True)
                   if os.path.isfile(path))
    # data/ (5 files), sentences, model, vectors and fused with their twins,
    # runs.csv and summary.json, and the config both chains read
    assert len(names) == 14
    for name in names:
        with open(os.path.join(pipeline["dir"], name), "rb") as fh:
            assert fh.read() == (d / name).read_bytes(), name


def test_embed_fuse_and_a_sweep_write_the_same_bytes_under_another_hash_seed(fresh_chain,
                                                                             tmp_path):
    # the fresh chain ran under hash seed 1; embed, fuse and the sweep run
    # again on its inputs under hash seed 2
    d = fresh_chain / "chain"
    shutil.copytree(d / "data", tmp_path / "data")
    shutil.copy(d / "sentences.jsonl", tmp_path)
    for argv in chain(str(tmp_path))[2:4] + [sweep_argv(str(tmp_path), str(tmp_path / "sweep"))]:
        rc, _, err = fresh_process(argv, str(tmp_path), hash_seed=2)
        assert (rc, err) == (0, ""), argv
    for name in ("model.npz", "vectors.jsonl", "vectors.jsonl.twin.npz", "fused.jsonl",
                 "fused.jsonl.twin.npz"):
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name
    assert ((tmp_path / "sweep" / "sweep_window_n.csv").read_bytes()
            == (fresh_chain / "sweep" / "sweep_window_n.csv").read_bytes())


def test_every_json_file_of_the_chain_is_in_the_written_format(fresh_chain):
    # JSON-lines files hold one object a line, with sorted keys and json's
    # default spacing; JSON documents are indented by 2, with sorted keys;
    # each file ends in a newline
    d = fresh_chain / "chain"
    for name in ("data/articles.jsonl", "sentences.jsonl", "vectors.jsonl", "fused.jsonl"):
        with open(d / name, encoding="utf-8", newline="") as fh:
            for n, line in enumerate(fh, 1):
                assert line == json.dumps(json.loads(line), sort_keys=True) + "\n", (name, n)
    for name in ("data/registry.json", "data/manifest.json", "experiment/summary.json"):
        text = (d / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def test_fuse_output(pipeline):
    table = fusion.read_sample_table(pipeline["fused"])
    assert table.semantic_dim == 16
    assert table.numeric_raw.shape[1] == fusion.NUMERIC_DIM
    assert set(np.unique(table.labels)) <= {0, 1}
    # fuse copies each sentence's values text into its fused row: plain json
    # reads the same numbers from both files, and the row holds the text verbatim
    vectors = {}
    with open(pipeline["vectors"], encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            assert json.dumps(row["values"]) in line
            vectors[row["sentence_id"]] = row["values"]
    with open(pipeline["fused"], encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            assert set(row) == {"sentence_id", "bank_id", "month", "label", "semantic",
                                "numeric_raw"}
            assert row["semantic"] == vectors[row["sentence_id"]]
            assert '"semantic": %s, ' % json.dumps(row["semantic"]) in line


def test_fuse_has_no_stats_option(pipeline, capsys, tmp_path):
    rc = cli.main(["fuse", "--sentences", pipeline["sentences"],
                   "--vectors", pipeline["vectors"],
                   "--indicators", os.path.join(pipeline["data"], "indicators.csv"),
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--out", str(tmp_path / "fused.jsonl"), "--stats", str(tmp_path / "x.json")])
    assert_one_error_line(capsys, rc, "unrecognized arguments: --stats")
    assert not (tmp_path / "x.json").exists()


def test_experiment_rejects_a_fused_file_with_an_input_key(pipeline, capsys, tmp_path):
    # the earlier layout: semantic vector and z-scored indicators in one "input" list
    rows = []
    with open(pipeline["fused"], encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            row["input"] = row.pop("semantic") + [0.0] * fusion.NUMERIC_DIM
            rows.append(json.dumps(row, sort_keys=True))
    old = tmp_path / "fused.jsonl"
    old.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = cli.main(["experiment", "--fused", str(old),
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--runs", "1", "--out", str(tmp_path / "results")])
    assert_one_error_line(capsys, rc, "error: %s:1: missing key 'semantic'" % old)


def test_train_command(pipeline, monkeypatch):
    results = []
    run_once = experiment.run_once

    def recording_run_once(*args, **kwargs):
        results.append(run_once(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiment, "run_once", recording_run_once)
    out = os.path.join(pipeline["dir"], "report.json")
    rc = cli.main(["train", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--seed", "2", "--out", out])
    assert rc == 0
    report = json.load(open(out, encoding="utf-8"))
    assert report["arm"] == "combined"
    assert report["mu"] == 0.9
    assert set(report["test"]) >= {"relative_usefulness", "confusion", "threshold"}
    [result] = results
    c = result.test.confusion
    assert report["test"]["confusion"] == {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn}
    assert report["test"]["relative_usefulness"] == result.test.relative_usefulness


def test_experiment_command_and_report(pipeline, capsys):
    out = os.path.join(pipeline["dir"], "results")
    rc = cli.main(["experiment", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--seed", "2", "--runs", "2",
                   "--arm", "all", "--out", out])
    assert rc == 0
    runs = open(os.path.join(out, "runs.csv"), encoding="utf-8").read().splitlines()
    assert len(runs) == 1 + 3 * 2  # header + three arms x two runs
    summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
    assert sorted(summary["arms"]) == ["combined", "numeric_only", "text_only"]
    # the arms object names the arms run; the config names none
    assert "arm" not in summary["config"]

    capsys.readouterr()
    assert cli.main(["report", "--results", out]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "mu=0.9 runs=2"
    assert "combined" in printed and "mean U_r" in printed

    # train makes run 0 of one arm: the combined,0 row of runs.csv
    report = os.path.join(pipeline["dir"], "combined0.json")
    assert cli.main(["train", "--fused", pipeline["fused"],
                     "--events", os.path.join(pipeline["data"], "events.csv"),
                     "--config", pipeline["config"], "--seed", "2", "--arm", "combined",
                     "--out", report]) == 0
    report = json.load(open(report, encoding="utf-8"))
    with open(os.path.join(out, "runs.csv"), encoding="utf-8") as fh:
        [row] = [r for r in csv.DictReader(fh) if (r["arm"], r["run"]) == ("combined", "0")]
    assert ((report["seed"], report["threshold"], report["validation"]["relative_usefulness"],
             report["test"]["relative_usefulness"])
            == (int(row["seed"]), float(row["threshold"]), float(row["val_ur"]),
                float(row["test_ur"])))


def test_single_arm_experiment(pipeline):
    out = os.path.join(pipeline["dir"], "results_text")
    rc = cli.main(["experiment", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--seed", "2", "--runs", "1",
                   "--arm", "text_only", "--out", out])
    assert rc == 0
    summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
    assert list(summary["arms"]) == ["text_only"]


def test_sweep_command(pipeline):
    out = os.path.join(pipeline["dir"], "sweepdir")
    rc = cli.main(["sweep", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--seed", "2",
                   "--parameter", "l1", "--grid", "0.0,1e-5", "--runs", "1",
                   "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "sweep_l1.csv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "parameter,value,mean_ur,std_ur,runs"
    assert len(lines) == 3


def test_sweep_embedding_parameter_needs_inputs(pipeline, capsys):
    rc = cli.main(["sweep", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--parameter", "window_n", "--grid", "2,3",
                   "--out", os.path.join(pipeline["dir"], "x")])
    assert rc == 1
    assert "retrains embeddings" in capsys.readouterr().err


def test_exit_codes(pipeline, capsys, tmp_path):
    # unknown arguments are a usage error
    assert cli.main(["experiment", "--bogus"]) == 1
    # missing input files are i/o errors
    assert cli.main(["ingest", "--articles", str(tmp_path / "none.jsonl"),
                     "--registry", os.path.join(pipeline["data"], "registry.json"),
                     "--out", str(tmp_path / "out.jsonl")]) == 2
    # malformed registry is a validation error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["ingest",
                     "--articles", os.path.join(pipeline["data"], "articles.jsonl"),
                     "--registry", str(bad),
                     "--out", str(tmp_path / "out.jsonl")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("quarter", ["2010Q7", "2010-3", "2010Q"])
def test_fuse_rejects_malformed_quarter(pipeline, capsys, tmp_path, quarter):
    with open(os.path.join(pipeline["data"], "indicators.csv"), encoding="utf-8") as fh:
        header, first, *rest = fh.read().splitlines()
    bank, _, values = first.split(",", 2)
    bad = tmp_path / "indicators.csv"
    bad.write_text("\n".join([header, rest[0], ",".join([bank, quarter, values])] + rest[1:])
                   + "\n", encoding="utf-8")
    rc = cli.main(["fuse", "--sentences", pipeline["sentences"],
                   "--vectors", pipeline["vectors"], "--indicators", str(bad),
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--out", str(tmp_path / "fused.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: %s:3: quarter %r" % (bad, quarter))
    assert "Traceback" not in err


def test_embedding_scope_train_folds(pipeline, capsys, tmp_path):
    events = os.path.join(pipeline["data"], "events.csv")
    # the per-run retraining mode needs the raw sentences
    rc = cli.main(["train", "--fused", pipeline["fused"], "--events", events,
                   "--embedding-scope", "train_folds",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "--sentences" in capsys.readouterr().err

    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"mlp": {"epochs": 2, "hidden_layers": [6]},
                   "pvdm": {"vector_dim": 8, "window_n": 2, "epochs": 1,
                            "min_count": 1}}, fh)
    out = str(tmp_path / "report.json")
    rc = cli.main(["train", "--fused", pipeline["fused"], "--events", events,
                   "--config", cfg_path, "--seed", "2",
                   "--embedding-scope", "train_folds",
                   "--sentences", pipeline["sentences"], "--out", out])
    assert rc == 0
    report = json.load(open(out, encoding="utf-8"))
    assert "relative_usefulness" in report["test"]


def test_mu_flag_propagates(pipeline):
    out = os.path.join(pipeline["dir"], "report_mu.json")
    rc = cli.main(["train", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--seed", "2",
                   "--mu", "0.8", "--out", out])
    assert rc == 0
    report = json.load(open(out, encoding="utf-8"))
    assert report["mu"] == 0.8
    assert report["test"]["mu"] == 0.8


FILE_SETTINGS = {"master_seed": 5, "mu": 0.7, "runs": 2, "arm": "text_only"}
FLAG_SETTINGS = {"master_seed": 3, "mu": 0.8, "runs": 1, "arm": "numeric_only"}


@pytest.mark.parametrize("flags", [False, True], ids=["file", "flags"])
@pytest.mark.parametrize("command", ["train", "experiment", "sweep"])
def test_flags_left_out_keep_the_config_file_settings(pipeline, monkeypatch, tmp_path, command,
                                                      flags):
    # train makes one run and rejects any other runs setting
    file_settings = dict(FILE_SETTINGS, runs=1) if command == "train" else FILE_SETTINGS
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(file_settings, mlp={"epochs": 1, "hidden_layers": [4]})),
                        encoding="utf-8")
    calls = []
    run_once = experiment.run_once

    def recording_run_once(*args, **kwargs):
        calls.append(args[2:4])  # (config, run_seed)
        return run_once(*args, **kwargs)

    monkeypatch.setattr(experiment, "run_once", recording_run_once)
    argv = [command, "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--parameter", "l1", "--grid", "0.0,1e-5"]
    want = file_settings
    if flags:
        want = FLAG_SETTINGS
        argv += ["--seed", "3", "--mu", "0.8", "--arm", "numeric_only"]
        if command != "train":
            argv += ["--runs", "1"]
    assert cli.main(argv) == 0
    runs = want["runs"]
    grid_values = 2 if command == "sweep" else 1
    assert ([(c.arm, c.mu, c.master_seed) for c, _ in calls]
            == [(want["arm"], want["mu"], want["master_seed"])] * (runs * grid_values))
    # run index outer, grid values inner
    assert ([seed for _, seed in calls]
            == [experiment.derive_run_seed(want["master_seed"], i)
                for i in range(runs) for _ in range(grid_values)])


def test_arm_all_overrides_the_config_file_arm(pipeline, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"arm": "text_only", "runs": 1,
                                    "mlp": {"epochs": 1, "hidden_layers": [4]}}),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["experiment", "--fused", pipeline["fused"],
                     "--events", os.path.join(pipeline["data"], "events.csv"),
                     "--config", str(cfg_path), "--arm", "all", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert sorted(summary["arms"]) == sorted(fusion.ARMS)
    assert "arm" not in summary["config"]


FLAT_DROPOUT = {"mlp": {"hidden_layers": [], "dropout_p": 0.3}}
FLAT_DROPOUT_ERROR = ("mlp: dropout_p has no effect: hidden_layers is empty, so the network "
                      "has no hidden layer")


@pytest.mark.parametrize("command,config,flags,fragment", [
    ("experiment", {"pvdm": {"vector_dim": 8}}, [], "pvdm is read only"),
    ("train", {"pvdm": {"vector_dim": 8}}, [], "pvdm is read only"),
    ("sweep", {"pvdm": {"vector_dim": 8}}, [], "pvdm is read only"),
    ("experiment", {}, ["--sentences", "none.jsonl"], "--sentences is read only"),
    ("train", {}, ["--sentences", "none.jsonl"], "--sentences is read only"),
    ("sweep", {}, ["--sentences", "none.jsonl"], "--sentences is read only"),
    # an embedding sweep re-embeds into the fused table's rows; sweep has no --indicators
    ("sweep", {}, ["--parameter", "window_n", "--sentences", "none.jsonl",
                   "--indicators", "none.csv"], "unrecognized arguments: --indicators"),
    ("sweep", {"pvdm": {"vector_dim": 8}},
     ["--parameter", "window_n", "--embedding-scope", "train_folds",
      "--sentences", "none.jsonl", "--indicators", "none.csv"],
     "unrecognized arguments: --indicators"),
    # dropout acts only on hidden layers
    ("experiment", FLAT_DROPOUT, [], FLAT_DROPOUT_ERROR),
    ("train", FLAT_DROPOUT, [], FLAT_DROPOUT_ERROR),
    ("sweep", FLAT_DROPOUT, [], FLAT_DROPOUT_ERROR),
], ids=["experiment-pvdm", "train-pvdm", "sweep-pvdm", "experiment-sentences",
        "train-sentences", "sweep-sentences", "sweep-indicators", "scoped-sweep-indicators",
        "experiment-flat-dropout", "train-flat-dropout", "sweep-flat-dropout"])
def test_settings_a_command_would_not_read_are_rejected(monkeypatch, capsys, tmp_path, command,
                                                        config, flags, fragment):
    # full-scope runs other than an embedding sweep read neither pvdm nor
    # --sentences, and a network without a hidden layer reads no dropout_p;
    # none of the inputs exists, so the one error line shows the command
    # stopped before it read any
    calls = []
    monkeypatch.setattr(experiment, "run_once", lambda *a, **k: calls.append(a))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--fused", str(tmp_path / "none.jsonl"),
            "--events", str(tmp_path / "none.csv"), "--config", str(cfg_path),
            "--out", str(out)] + flags
    if command == "sweep" and "--parameter" not in flags:
        argv += ["--parameter", "l1", "--grid", "0.0"]
    elif command == "sweep":
        argv += ["--grid", "2"]
    prefix = "error: %s: " % cfg_path if fragment.startswith(("pvdm", "mlp")) else "error: "
    assert_one_error_line(capsys, cli.main(argv), prefix + fragment)
    assert not out.exists() and not calls


def test_scoped_embedding_sweep_embeds_training_folds_only(pipeline, monkeypatch, tmp_path):
    # each train_folds run embeds its own training folds' sentences, so the
    # sweep re-embeds no full corpus into a table of its own
    embedded = []
    embed_sentences = experiment.embed_sentences

    def recording_embed(sentences, pvdm_config):
        embedded.append(len(sentences))
        return embed_sentences(sentences, pvdm_config)

    monkeypatch.setattr(experiment, "embed_sentences", recording_embed)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mlp": {"epochs": 1, "hidden_layers": [2]},
                                    "pvdm": {"vector_dim": 4, "epochs": 1, "min_count": 1}}),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--fused", pipeline["fused"],
                     "--events", os.path.join(pipeline["data"], "events.csv"),
                     "--config", str(cfg_path), "--embedding-scope", "train_folds",
                     "--sentences", pipeline["sentences"], "--parameter", "window_n",
                     "--grid", "2,3", "--runs", "1", "--out", str(out)]) == 0
    n_sentences = len(corpus.read_sentences(pipeline["sentences"]))
    assert len(embedded) == 2 and all(n < n_sentences for n in embedded)
    assert len((out / "sweep_window_n.csv").read_text(encoding="utf-8").splitlines()) == 3


def test_sweep_has_no_indicators_option(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    assert "--indicators" not in capsys.readouterr().out


def test_full_scope_embedding_sweep_runs_on_the_fused_rows(pipeline, monkeypatch, tmp_path):
    # a fused file in reverse order with shifted indicators: the sweep must run
    # on its rows, with only the semantic column re-embedded from --sentences
    with open(pipeline["fused"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    for row in rows:
        row["numeric_raw"] = [v + 1.0 for v in row["numeric_raw"]]
    fused = tmp_path / "fused.jsonl"
    fused.write_text("".join(json.dumps(row) + "\n" for row in rows[::-1]), encoding="utf-8")
    pvdm_overrides = {"vector_dim": 4, "epochs": 1, "min_count": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mlp": {"epochs": 1, "hidden_layers": [2]},
                                    "pvdm": pvdm_overrides}), encoding="utf-8")
    tables = []
    run_repeated = experiment.run_repeated

    def recording_run_repeated(table, events, config):
        tables.append((config.pvdm["window_n"], table))
        return run_repeated(table, events, config)

    monkeypatch.setattr(experiment, "run_repeated", recording_run_repeated)
    assert cli.main(["sweep", "--fused", str(fused),
                     "--events", os.path.join(pipeline["data"], "events.csv"),
                     "--config", str(cfg_path), "--sentences", pipeline["sentences"],
                     "--parameter", "window_n", "--grid", "2,3", "--runs", "1",
                     "--out", str(tmp_path / "out")]) == 0
    want = fusion.read_sample_table(str(fused))
    sentences = corpus.read_sentences(pipeline["sentences"])
    indicators = fusion.read_indicators(os.path.join(pipeline["data"], "indicators.csv"))
    events = fusion.read_events(os.path.join(pipeline["data"], "events.csv"))
    assert [window for window, _ in tables] == [2, 3]
    for window, table in tables:
        assert table.sentence_ids == want.sentence_ids
        assert table.bank_ids == want.bank_ids and table.months == want.months
        np.testing.assert_array_equal(table.numeric_raw, want.numeric_raw)
        np.testing.assert_array_equal(table.labels, want.labels)
        model, _ = experiment.embed_sentences(
            sentences, pvdm.PvdmConfig(**dict(pvdm_overrides, window_n=window)))
        vectors = {sid: model.paragraph[row] for sid, row in model.sentence_index.items()}
        oracle, _ = fusion.build_sample_table(sentences, vectors, indicators, events)
        order = [oracle.sentence_ids.index(sid) for sid in table.sentence_ids]
        np.testing.assert_array_equal(table.semantic, oracle.semantic[order])


@pytest.mark.parametrize("command", ["train", "experiment", "sweep"])
def test_a_fused_sample_missing_from_the_sentences_ends_the_command(pipeline, monkeypatch,
                                                                    capsys, tmp_path, command):
    with open(pipeline["fused"], encoding="utf-8") as fh:
        missing = json.loads(fh.readline())["sentence_id"]
    sentences = tmp_path / "sentences.jsonl"
    with open(pipeline["sentences"], encoding="utf-8") as fh:
        sentences.write_text("".join(line for line in fh
                                     if json.loads(line)["sentence_id"] != missing),
                             encoding="utf-8")
    trained = []
    for name in ("embed_sentences", "run_once"):
        monkeypatch.setattr(experiment, name, lambda *a, **k: trained.append(a))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mlp": {"epochs": 1, "hidden_layers": [2]},
                                    "pvdm": {"vector_dim": 4, "epochs": 1}}), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--sentences", str(sentences), "--out", str(out)]
    if command == "sweep":
        argv += ["--parameter", "window_n", "--grid", "2,3", "--runs", "1"]
    else:
        argv += ["--embedding-scope", "train_folds"]
    assert_one_error_line(capsys, cli.main(argv), "error: %s: no sentence for fused sample %r"
                          % (sentences, missing))
    assert not trained and not out.exists()


@pytest.mark.parametrize("command", ["train", "experiment", "sweep"])
def test_numeric_only_reads_no_sentence_input(pipeline, monkeypatch, capsys, tmp_path, command):
    # the numeric_only arm reads no sentence vector: under train_folds it runs
    # without --sentences, embeds nothing and, but for a sweep, gives the
    # full-scope results; a sweep of an embedding parameter, which no run of
    # it reads, and --sentences or pvdm given to it each end the command with
    # one line naming the arm
    embedded = []
    embed_sentences = experiment.embed_sentences
    monkeypatch.setattr(experiment, "embed_sentences",
                        lambda *a, **k: embedded.append(a) or embed_sentences(*a, **k))
    mlp = {"mlp": {"epochs": 1, "hidden_layers": [2]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(mlp), encoding="utf-8")

    def run(name, flags, config=cfg_path):
        out = tmp_path / name
        rc = cli.main([command, "--fused", pipeline["fused"],
                       "--events", os.path.join(pipeline["data"], "events.csv"),
                       "--config", str(config), "--arm", "numeric_only", "--seed", "2",
                       "--out", str(out)] + flags)
        return rc, out

    if command == "sweep":
        rc, out = run("embedding-sweep", ["--parameter", "window_n", "--grid", "2,3"])
        assert_one_error_line(capsys, rc, "error: no run reads window_n: arm numeric_only "
                                          "reads no sentence vector")
        assert not out.exists()
        flags = ["--embedding-scope", "train_folds", "--parameter", "lr", "--grid", "0.1,0.2",
                 "--runs", "1"]
        rc, out = run("scoped", flags)
        assert rc == 0 and not embedded
    else:
        runs = ["--runs", "2"] if command == "experiment" else []
        flags, full = ["--embedding-scope", "train_folds"] + runs, runs
        rc, out = run("scoped", flags)
        assert rc == 0 and not embedded
        rc, full_out = run("full", full)
        assert rc == 0
        if command == "experiment":  # train writes one report file
            out, full_out = out / "runs.csv", full_out / "runs.csv"
        assert out.read_bytes() == full_out.read_bytes()
    capsys.readouterr()
    rc, out = run("with-sentences", flags + ["--sentences", pipeline["sentences"]])
    assert_one_error_line(capsys, rc, "error: --sentences is not read by arm numeric_only")
    assert not out.exists()
    pvdm_path = tmp_path / "pvdm.json"
    pvdm_path.write_text(json.dumps(dict(mlp, pvdm={"vector_dim": 4})), encoding="utf-8")
    rc, out = run("with-pvdm", flags, config=pvdm_path)
    assert_one_error_line(capsys, rc, "error: %s: pvdm is not read by arm numeric_only"
                          % pvdm_path)
    assert not out.exists() and not embedded


# The protocol the setting tests below change one value of: a 1-epoch,
# hidden-[2] network whose validation threshold, at master seed 1, lies
# inside the score range, so a changed score moves the results.
EFFECT_BASE = {"arm": "combined", "runs": 1, "master_seed": 1,
               "mlp": {"epochs": 1, "hidden_layers": [2], "lr": 0.01}}
EFFECT_PVDM = {"vector_dim": 4, "window_n": 2, "epochs": 1, "min_count": 1}
EFFECT_SCOPED = dict(EFFECT_BASE, embedding_scope="train_folds", pvdm=EFFECT_PVDM)
# one value per setting that differs from EFFECT_BASE's or EFFECT_SCOPED's
EFFECTS = {
    "config": {"arm": "text_only", "runs": 2, "mu": 0.8, "master_seed": 2,
               "mlp": dict(EFFECT_BASE["mlp"], epochs=3),
               "pvdm": dict(EFFECT_PVDM, vector_dim=6),
               "embedding_scope": "train_folds"},
    "mlp": {"hidden_layers": [3], "lr": 0.05, "l1": 0.01, "momentum": 0.5, "dropout_p": 0.0,
            "epochs": 3, "batch_size": 16},
    # min_count above every token's count pools them all into <unk>
    "pvdm": {"vector_dim": 6, "window_n": 3, "negative_samples": 2, "epochs": 2,
             "lr_initial": 0.05, "lr_final": 0.01, "seed": 9, "min_count": 10 ** 6},
}
EFFECT_CASES = ([("config", f.name) for f in fields(experiment.ExperimentConfig)]
                + [("mlp", key) for key in experiment.MLP_KEYS]
                + [("pvdm", key) for key in experiment.PVDM_KEYS])


@pytest.fixture(scope="module")
def effect_runs(pipeline, tmp_path_factory):
    """``run(config)`` -> runs.csv of a one-run experiment with that config."""
    d = tmp_path_factory.mktemp("effects")
    cache = {}

    def run(config):
        key = json.dumps(config, sort_keys=True)
        if key not in cache:
            n = len(cache)
            (d / ("%d.json" % n)).write_text(key, encoding="utf-8")
            out = d / str(n)
            argv = ["experiment", "--fused", pipeline["fused"],
                    "--events", os.path.join(pipeline["data"], "events.csv"),
                    "--config", str(d / ("%d.json" % n)), "--out", str(out)]
            if config.get("embedding_scope") == "train_folds":
                argv += ["--sentences", pipeline["sentences"]]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            # summary.json's config echoes every setting; only the results count
            cache[key] = (out / "runs.csv").read_bytes()
        return cache[key]

    return run


@pytest.mark.parametrize("section,key", EFFECT_CASES,
                         ids=["%s-%s" % case for case in EFFECT_CASES])
def test_every_setting_changes_the_results(effect_runs, section, key):
    value = EFFECTS[section][key]  # a setting added without a case fails here
    if section == "mlp":
        base, config = EFFECT_BASE, dict(EFFECT_BASE, mlp=dict(EFFECT_BASE["mlp"], **{key: value}))
    elif section == "pvdm":
        base, config = EFFECT_SCOPED, dict(EFFECT_SCOPED, pvdm=dict(EFFECT_PVDM, **{key: value}))
    elif key == "embedding_scope":
        # with the small embedding that keeps the per-run retraining cheap
        base, config = EFFECT_BASE, dict(EFFECT_SCOPED, embedding_scope=value)
    else:
        base = EFFECT_SCOPED if key == "pvdm" else EFFECT_BASE
        config = dict(base, **{key: value})
    assert effect_runs(config) != effect_runs(base)


def assert_one_error_line(capsys, rc, *fragments):
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    for fragment in fragments:
        assert fragment in err, err


@pytest.mark.parametrize("config,scope,fragment", [
    ({"run": 2}, None, "unknown config key 'run'"),
    ({"mlp": {"epoch": 2}}, None, "unknown mlp key 'epoch'"),
    ({"pvdm": {"dimm": 4}}, "train_folds", "unknown pvdm key 'dimm'"),
    ([1, 2], None, "config must be a JSON object"),
    # the fold count and the output width each had one legal value
    ({"folds": 5}, None, "unknown config key 'folds'"),
    ({"mlp": {"output_dim": 3}}, None, "unknown mlp key 'output_dim'"),
], ids=["top-level", "mlp", "pvdm", "not-an-object", "folds", "output-dim"])
def test_experiment_rejects_unknown_config_keys(pipeline, capsys, tmp_path, config, scope,
                                                fragment):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["experiment", "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--runs", "1", "--out", str(tmp_path / "out")]
    if scope:
        argv += ["--embedding-scope", scope, "--sentences", pipeline["sentences"]]
    assert_one_error_line(capsys, cli.main(argv), "error: %s: " % cfg_path, fragment)


@pytest.mark.parametrize("config,fragment", [
    ({"mlp": {"lr": float("nan")}}, "mlp: learning rate must be finite and positive"),
    ({"mlp": {"l1": float("inf")}}, "mlp: l1 penalty must be finite and non-negative"),
    ({"pvdm": {"lr_final": -1}}, "pvdm: lr_final must be >= 0"),
    ({"pvdm": {"lr_initial": float("inf")}}, "pvdm: lr_initial and lr_final must be finite"),
    ({"mu": 1.5}, "mu must lie strictly in (0, 1), got 1.5"),
    ({"mu": "0.9"}, "mu must lie strictly in (0, 1), got '0.9'"),
    ({"mlp": {"lr": "x"}}, "mlp: lr must be a number, got 'x'"),
    ({"pvdm": {"lr_initial": "x"}}, "pvdm: lr_initial must be a number, got 'x'"),
    ({"mlp": {"momentum": None}}, "mlp: momentum must be a number, got None"),
    ({"mlp": {"dropout_p": [1]}}, "mlp: dropout_p must be a number, got [1]"),
    ({"mlp": {"lr": True}}, "mlp: lr must be a number, got True"),
    ({"mlp": {"lr": 10 ** 400}}, "mlp: learning rate must be finite and positive"),
], ids=["mlp-lr-nan", "mlp-l1-inf", "pvdm-lr-final-negative", "pvdm-lr-initial-inf",
        "mu-above-one", "mu-string", "mlp-lr-string", "pvdm-lr-initial-string",
        "mlp-momentum-null", "mlp-dropout-list", "mlp-lr-bool", "mlp-lr-huge-int"])
def test_experiment_rejects_non_finite_and_negative_rates(pipeline, capsys, tmp_path, config,
                                                          fragment):
    # json writes NaN and Infinity, which json.load reads back as floats
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["experiment", "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--runs", "1", "--out", str(out)]
    assert_one_error_line(capsys, cli.main(argv), "error: %s: " % cfg_path, fragment)
    assert not out.exists()


@pytest.mark.parametrize("config,fragment", [
    ({"mlp": {"epochs": 2.5}}, "mlp: epochs must be an integer, got 2.5"),
    ({"mlp": {"hidden_layers": [8.5]}}, "mlp: hidden_layers entry must be an integer, got 8.5"),
    ({"mlp": {"batch_size": True}}, "mlp: batch_size must be an integer, got True"),
    ({"pvdm": {"window_n": 2.0}}, "pvdm: window_n must be an integer, got 2.0"),
    ({"master_seed": 0.5}, "master_seed must be an integer, got 0.5"),
], ids=["mlp-epochs-fraction", "mlp-hidden-fraction", "mlp-batch-size-bool",
        "pvdm-window-float", "master-seed-fraction"])
def test_experiment_rejects_non_integer_config_fields(pipeline, capsys, tmp_path, config,
                                                      fragment):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["experiment", "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--runs", "1", "--out", str(out)]
    assert_one_error_line(capsys, cli.main(argv), "error: %s: " % cfg_path, fragment)
    assert not out.exists()


@pytest.mark.parametrize("runs", [2, 50])
def test_train_rejects_a_config_runs_other_than_one(pipeline, capsys, tmp_path, runs):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"runs": runs, "mlp": {"epochs": 1, "hidden_layers": [4]}}),
                        encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["train", "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--out", str(out)]
    assert_one_error_line(capsys, cli.main(argv), "error: %s: " % cfg_path,
                          "train makes one run, got runs %d" % runs)
    assert not out.exists()


def test_experiment_prints_zero_vector_fallbacks(pipeline, capsys, tmp_path):
    # a window that only the longest sentences train at: no shorter held-out
    # sentence can be inferred, so each takes a zero vector
    longest = max(len(s.tokens) for s in corpus.read_sentences(pipeline["sentences"]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mlp": {"epochs": 1, "hidden_layers": [4]},
        "pvdm": {"vector_dim": 4, "window_n": longest - 2, "epochs": 1, "min_count": 1}}),
        encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["experiment", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", str(cfg_path), "--runs", "1", "--seed", "2",
                   "--embedding-scope", "train_folds", "--sentences", pipeline["sentences"],
                   "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "held-out sentences too short to infer took zero vectors" in printed, printed
    assert "zero" not in (out / "runs.csv").read_text(encoding="utf-8")
    assert "zero" not in (out / "summary.json").read_text(encoding="utf-8")


def test_embed_rejects_negative_epochs(pipeline, capsys, tmp_path):
    out, vectors = tmp_path / "model.npz", tmp_path / "vectors.jsonl"
    rc = cli.main(["embed", "--sentences", pipeline["sentences"], "--out", str(out),
                   "--vectors", str(vectors), "--dim", "4", "--epochs", "-2"])
    assert_one_error_line(capsys, rc, "epochs must be >= 0")
    assert os.listdir(tmp_path) == []


def test_embed_refuses_a_window_that_trains_nothing(pipeline, capsys, tmp_path):
    # a window one token too long for the longest sentence leaves no
    # training position, although epochs are asked for
    longest = max(len(s.tokens) for s in corpus.read_sentences(pipeline["sentences"]))
    out, vectors = tmp_path / "model.npz", tmp_path / "vectors.jsonl"
    rc = cli.main(["embed", "--sentences", pipeline["sentences"], "--out", str(out),
                   "--vectors", str(vectors), "--dim", "4", "--window", str(longest - 1)])
    assert_one_error_line(capsys, rc, "error: no sentence has a training position at window_n "
                          "%d: one needs %d tokens, and the longest has %d"
                          % (longest - 1, longest + 1, longest))
    assert os.listdir(tmp_path) == []


def test_embed_without_vectors_ends_before_any_output(pipeline, capsys, tmp_path):
    # the vectors file is the one copy of the sentence vectors embed trains
    rc = cli.main(["embed", "--sentences", pipeline["sentences"],
                   "--out", str(tmp_path / "model.npz"), "--dim", "4", "--epochs", "1"])
    assert_one_error_line(capsys, rc, "the following arguments are required: --vectors")
    assert os.listdir(tmp_path) == []


def test_an_allocation_the_system_refuses_ends_in_one_error_line(pipeline, capsys, tmp_path):
    # a word matrix of petabytes, far past any address space: refused at once
    dim = 10 ** 13
    vocab = corpus.build_vocabulary(corpus.read_sentences(pipeline["sentences"]), min_count=5)
    assert len(vocab) * dim * 8 > 2 ** 50
    rc = cli.main(["embed", "--sentences", pipeline["sentences"],
                   "--out", str(tmp_path / "model.npz"), "--vectors", str(tmp_path / "v.jsonl"),
                   "--dim", str(dim), "--epochs", "1"])
    assert_one_error_line(capsys, rc, "error: Unable to allocate", "PiB")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,config,fragment", [
    (["experiment", "--seed", "-1", "--runs", "1"], None, "master_seed must be >= 0, got -1"),
    (["train", "--seed", "-1"], None, "master_seed must be >= 0, got -1"),
    (["experiment", "--runs", "1"], {"master_seed": -1}, "master_seed must be >= 0, got -1"),
    (["experiment", "--runs", "1", "--embedding-scope", "train_folds"],
     {"pvdm": {"seed": -1, "vector_dim": 4, "epochs": 1}}, "pvdm: seed must be >= 0, got -1"),
    (["embed", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["synth", "--seed", "-1"], None, "seed must be >= 0, got -1"),
], ids=["experiment-flag", "train-flag", "experiment-config", "pvdm-config", "embed", "synth"])
def test_a_negative_seed_ends_the_command_before_any_output(pipeline, capsys, tmp_path, command,
                                                            config, fragment):
    out = tmp_path / "out"
    argv = command + ["--out", str(out)]
    if command[0] in ("experiment", "train"):
        argv += ["--fused", pipeline["fused"],
                 "--events", os.path.join(pipeline["data"], "events.csv")]
    if "train_folds" in command:
        argv += ["--sentences", pipeline["sentences"]]
    if command[0] == "embed":  # nor the vectors file, nor its twin
        argv += ["--sentences", pipeline["sentences"], "--dim", "4", "--epochs", "1",
                 "--vectors", str(tmp_path / "vectors.jsonl")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg_path)]
        fragment = "%s: %s" % (cfg_path, fragment)
    assert_one_error_line(capsys, cli.main(argv), "error: " + fragment)
    assert os.listdir(tmp_path) == (["cfg.json"] if config is not None else [])


def twin_collisions():
    """(command, flags, fragment): flags whose paths make a twin (the file
    ``<path>.twin.npz``) another input or output of the command."""
    return [
        ("embed", {"--out": "v.jsonl.twin.npz", "--vectors": "v.jsonl"},
         "--out and the twin of --vectors are the same file"),
        ("embed", {"--out": "v.jsonl.twin.npz", "--vectors": "./v.jsonl"},
         "--out and the twin of --vectors are the same file"),
        ("fuse", {"--vectors": "f.jsonl.twin.npz", "--out": "f.jsonl"},
         "--vectors and the twin of --out are the same file"),
        ("fuse", {"--vectors": "v.jsonl", "--out": "v.jsonl.twin.npz"},
         "the twin of --vectors and --out are the same file"),
        ("fuse", {"--vectors": "v.jsonl", "--out": "v.jsonl"},
         "--vectors and --out are the same file"),
    ]


@pytest.mark.parametrize("command,flags,fragment", twin_collisions(),
                         ids=["embed-out", "embed-out-dot", "fuse-out-twin",
                              "fuse-vectors-twin", "fuse-out"])
def test_a_twin_path_that_is_another_file_of_the_command_ends_it_first(
        pipeline, capsys, tmp_path, monkeypatch, command, flags, fragment):
    # the inputs are copied in, each under the name the case gives it
    monkeypatch.chdir(tmp_path)
    shutil.copytree(pipeline["data"], "data")
    argv = {"--sentences": "sentences.jsonl", "--indicators": "data/indicators.csv",
            "--events": "data/events.csv", **flags}
    shutil.copy(pipeline["sentences"], argv["--sentences"])
    if command == "fuse":
        shutil.copy(pipeline["vectors"], argv["--vectors"])
        shutil.copy(corpus.twin_path(pipeline["vectors"]), corpus.twin_path(argv["--vectors"]))
    else:
        del argv["--indicators"], argv["--events"]
        argv.update({"--dim": "4", "--epochs": "1"})
    before = {p: os.path.getmtime(p) for p in glob.glob("**", recursive=True)}
    rc = cli.main([command] + [v for flag in argv.items() for v in flag])
    assert_one_error_line(capsys, rc, "error: " + fragment)
    # nothing was written: no new file, and no file changed
    assert {p: os.path.getmtime(p) for p in glob.glob("**", recursive=True)} == before


INGEST_ARGV = ["ingest", "--articles", "data/articles.jsonl", "--registry", "data/registry.json"]
FUSE_ARGV = ["fuse", "--sentences", "sentences.jsonl", "--vectors", "vectors.jsonl",
             "--indicators", "data/indicators.csv", "--events", "data/events.csv"]
TRAIN_ARGV = ["train", "--fused", "fused.jsonl", "--events", "data/events.csv",
              "--config", "config.json"]


def copy_pipeline(pipeline):
    """Copy the pipeline's files, with their twins, into the working directory,
    under the names the argument lists above give them."""
    shutil.copytree(pipeline["data"], "data")
    for name in ("sentences", "vectors", "fused", "config"):
        shutil.copy(pipeline[name], os.path.basename(pipeline[name]))
    for name in ("vectors", "fused"):
        shutil.copy(corpus.twin_path(pipeline[name]), os.path.basename(corpus.twin_path(
            pipeline[name])))


def file_bytes():
    """Each file below the working directory, and its bytes."""
    return {p: open(p, "rb").read() for p in glob.glob("**", recursive=True) if os.path.isfile(p)}


# (argv, hard links to make first: new name -> the file it links, fragment)
OVERWRITES = {
    "ingest-out-articles": (INGEST_ARGV + ["--out", "data/articles.jsonl"], {},
                            "--articles and --out are the same file"),
    "ingest-out-registry": (INGEST_ARGV + ["--out", "data/registry.json"], {},
                            "--registry and --out are the same file"),
    "ingest-out-linked-articles": (INGEST_ARGV + ["--out", "linked.jsonl"],
                                   {"linked.jsonl": "data/articles.jsonl"},
                                   "--articles and --out are the same file"),
    "train-out-fused": (TRAIN_ARGV + ["--out", "fused.jsonl"], {},
                        "--fused and --out are the same file"),
    "train-out-linked-fused-twin": (TRAIN_ARGV + ["--out", "linked.npz"],
                                    {"linked.npz": "fused.jsonl.twin.npz"},
                                    "the twin of --fused and --out are the same file"),
    "embed-vectors-linked-sentences": (
        ["embed", "--sentences", "sentences.jsonl", "--out", "model.npz", "--vectors",
         "linked.jsonl", "--dim", "4", "--epochs", "1"], {"linked.jsonl": "sentences.jsonl"},
        "--sentences and --vectors are the same file"),
    "fuse-out-linked-sentences": (FUSE_ARGV + ["--out", "linked.jsonl"],
                                  {"linked.jsonl": "sentences.jsonl"},
                                  "--sentences and --out are the same file"),
    "fuse-out-linked-vectors": (FUSE_ARGV + ["--out", "linked.jsonl"],
                                {"linked.jsonl": "vectors.jsonl"},
                                "--vectors and --out are the same file"),
    "experiment-out-holds-fused": (
        ["experiment", "--fused", "results/runs.csv", "--events", "data/events.csv", "--config",
         "config.json", "--runs", "1", "--out", "results"], {"results/runs.csv": "fused.jsonl"},
        "--fused and --out's runs.csv are the same file"),
    "sweep-out-holds-config": (
        ["sweep", "--fused", "fused.jsonl", "--events", "data/events.csv", "--config",
         "sweep/sweep_lr.csv", "--parameter", "lr", "--grid", "0.1", "--out", "sweep"],
        {"sweep/sweep_lr.csv": "config.json"},
        "--config and --out's sweep file are the same file"),
}


@pytest.mark.parametrize("case", OVERWRITES)
def test_no_command_writes_over_one_of_its_inputs(pipeline, capsys, tmp_path, monkeypatch,
                                                  case):
    # an output path that names an input file, by its own name or by a hard
    # link, ends the command before it writes anything
    argv, links, fragment = OVERWRITES[case]
    monkeypatch.chdir(tmp_path)
    copy_pipeline(pipeline)
    for name, target in links.items():
        os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
        os.link(target, name)
    before = file_bytes()
    assert_one_error_line(capsys, cli.main(argv), "error: " + fragment)
    assert file_bytes() == before


EMBED_ARGV = ["embed", "--sentences", "sentences.jsonl", "--dim", "4", "--epochs", "1"]
# each file a command writes, in a directory that does not exist
MISSING_DIRECTORY_OUTPUTS = {
    "ingest-out": INGEST_ARGV + ["--out", "missing/sentences.jsonl"],
    "embed-out": EMBED_ARGV + ["--out", "missing/model.npz", "--vectors", "new.jsonl"],
    "embed-vectors": EMBED_ARGV + ["--out", "new.npz", "--vectors", "missing/vectors.jsonl"],
    "fuse-out": FUSE_ARGV + ["--out", "missing/fused.jsonl"],
    "train-out": TRAIN_ARGV + ["--out", "missing/train.json"],
}


@pytest.mark.parametrize("case", MISSING_DIRECTORY_OUTPUTS)
def test_an_output_in_a_missing_directory_ends_the_command_before_it_reads(
        pipeline, capsys, tmp_path, monkeypatch, case):
    argv = MISSING_DIRECTORY_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    copy_pipeline(pipeline)
    before = file_bytes()
    read = []
    # the first input each of these commands reads
    for module, name in ((corpus, "compile_registry"), (corpus, "read_sentences"),
                         (experiment, "read_config")):
        monkeypatch.setattr(module, name, lambda *args, name=name: read.append(name))
    rc = cli.main(argv)
    missing = next(value for value in argv if value.startswith("missing/"))
    assert (rc, capsys.readouterr().err) == (
        2, "i/o error: [Errno 2] No such file or directory: %r\n" % missing)
    assert read == []
    assert file_bytes() == before


# each command, with its outputs beside the files copy_pipeline copies in
FULL_DISK = {
    "synth": ["synth", "--out", "data", "--banks", "2", "--min-sentences", "1",
              "--max-sentences", "1"],
    "ingest": INGEST_ARGV + ["--out", "sentences.jsonl"],
    "embed": EMBED_ARGV + ["--out", "model.npz", "--vectors", "vectors.jsonl"],
    "fuse": FUSE_ARGV + ["--out", "fused.jsonl"],
    "experiment": ["experiment", "--fused", "fused.jsonl", "--events", "data/events.csv",
                   "--config", "config.json", "--runs", "1", "--out", "results"],
    "train": TRAIN_ARGV + ["--out", "train.json"],
    "sweep": ["sweep", "--fused", "fused.jsonl", "--events", "data/events.csv", "--config",
              "config.json", "--parameter", "l1", "--grid", "0", "--runs", "1", "--out", "sweep"],
}
BUILTIN_OPEN = open


class FullDisk:
    """A file open to write that takes its first write, then fails every
    later one, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def full_disk_open(file, mode="r", *args, **kwargs):
    fh = BUILTIN_OPEN(file, mode, *args, **kwargs)
    return FullDisk(fh) if set(mode) & set("wxa+") else fh


@pytest.mark.parametrize("command", FULL_DISK)
def test_an_output_is_written_whole_or_not_at_all(pipeline, capsys, tmp_path, monkeypatch,
                                                  command):
    # the disk fills after the first write to the first output: the command
    # ends in one i/o error line and leaves each output path as it was, with
    # no file of its own, or the file of an earlier run, and no stray file
    monkeypatch.chdir(tmp_path)
    copy_pipeline(pipeline)
    for earlier in (False, True):
        if earlier:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(FULL_DISK[command]) == 0
        before = file_bytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("builtins.open", full_disk_open)
            rc = cli.main(FULL_DISK[command])
        assert (rc, capsys.readouterr().err) == (
            2, "i/o error: [Errno %d] %s\n" % (errno.ENOSPC, os.strerror(errno.ENOSPC)))
        assert file_bytes() == before, earlier


# fuse, its vectors' text generator ended by SIGKILL at row int(sys.argv[1])
KILLED_FUSE = """
import os, signal, sys
from bankdistress import cli, fusion
write_vector_jsonl = fusion.write_vector_jsonl

def killed_at_row(rows, texts, path, key):
    def texts_then_kill():
        for n, text in enumerate(texts):
            if n == int(sys.argv[1]):
                os.kill(os.getpid(), signal.SIGKILL)
            yield text
    return write_vector_jsonl(rows, texts_then_kill(), path, key)

fusion.write_vector_jsonl = killed_at_row
cli.main(sys.argv[2:])
"""


@pytest.mark.parametrize("rows", [1, 200])
def test_a_fuse_killed_mid_file_leaves_no_fused_file(pipeline, tmp_path, rows):
    with open(pipeline["fused"], encoding="utf-8") as fh:
        assert sum(1 for _ in fh) > rows
    out = tmp_path / "fused.jsonl"
    argv = ["fuse", "--sentences", pipeline["sentences"], "--vectors", pipeline["vectors"],
            "--indicators", os.path.join(pipeline["data"], "indicators.csv"),
            "--events", os.path.join(pipeline["data"], "events.csv"), "--out", str(out)]
    proc = python_process(["-c", KILLED_FUSE, str(rows)] + argv, str(tmp_path))
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert not out.exists()


def test_fuse_rejects_a_repeated_indicators_row(pipeline, capsys, tmp_path):
    with open(os.path.join(pipeline["data"], "indicators.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = lines[1].split(",")
    repeated = ",".join(first[:-1] + ["99.0"])
    indicators = tmp_path / "indicators.csv"
    indicators.write_text("\n".join(lines + [repeated]) + "\n", encoding="utf-8")
    out = tmp_path / "fused.jsonl"
    rc = cli.main(["fuse", "--sentences", pipeline["sentences"], "--vectors", pipeline["vectors"],
                   "--indicators", str(indicators),
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--out", str(out)])
    assert_one_error_line(capsys, rc, "error: %s:%d: duplicate row for bank %r in %s"
                          % (indicators, len(lines) + 1, first[0], first[1]))
    assert not out.exists()


def replace_line(src, dst, line_no, text):
    """Copy ``src`` to ``dst`` with 1-based line ``line_no`` replaced by ``text``."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[line_no - 1] = text
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(dst)


REPEAT_FIRST = object()  # stands for a copy of the file's first line


@pytest.mark.parametrize("reader,text,fragment", [
    ("events", "bank00,2011-01-01", "row has fewer than 4 columns"),
    ("events", "bank00,2011-13-01,2011-12-31,state_aid", "month must be in 1..12"),
    ("vectors", "[1.0, 2.0]", "expected a JSON object, got list"),
    ("sentences", '["a", "b"]', "expected a JSON object, got list"),
    ("sentences", '{"sentence_id": "x"}', "missing key 'bank_id'"),
    ("sentences", '{"sentence_id": "x", "bank_id": "bank00", '
                  '"published_at": "2011-01-01T00:00:00", "tokens": "bank fell"}',
     "tokens must be a list of strings"),
    ("articles", '"just a string"', "expected a JSON object, got str"),
    ("fused", '{"sentence_id": "x"}', "missing key 'month'"),
    ("fused", '{"month": 7}', "month 7 is not of the form 2010-01..2010-12"),
    # the cases below edit the file's own second row
    ("fused", lambda row: dict(row, month="2010-13"), "month '2010-13' is not of the form"),
    ("fused", lambda row: dict(row, month="2010-0"), "month '2010-0' is not of the form"),
    ("fused", lambda row: dict(row, month="2010-1"), "month '2010-1' is not of the form"),
    ("fused", lambda row: dict(row, label=2), "label must be the integer 0 or 1, got 2"),
    ("fused", lambda row: dict(row, label=-1), "label must be the integer 0 or 1, got -1"),
    ("fused", lambda row: dict(row, label=1.7), "label must be the integer 0 or 1, got 1.7"),
    ("fused", lambda row: dict(row, label=True), "label must be the integer 0 or 1, got True"),
    ("fused", lambda row: dict(row, semantic=[float("nan")] + row["semantic"][1:]),
     "semantic holds a NaN or infinite entry"),
    ("fused", lambda row: dict(row, semantic=["0.5"] + row["semantic"][1:]),
     "semantic must be a list of numbers"),
    ("fused", lambda row: dict(row, semantic=row["semantic"][:-1]),
     "semantic has 15 entries where the first row has 16"),
    ("fused", lambda row: dict(row, bank_id=[1]), "bank_id must be a string, got [1]"),
    ("fused", lambda row: dict(row, bank_id=5), "bank_id must be a string, got 5"),
    ("fused", lambda row: dict(row, sentence_id=[2]), "sentence_id must be a string, got [2]"),
    ("fused", lambda row: dict(row, numeric_raw=row["numeric_raw"][:11]),
     "numeric_raw has 11 entries, expected 12"),
    ("fused", lambda row: dict(row, numeric_raw=[float("inf")] + row["numeric_raw"][1:]),
     "numeric_raw holds a NaN or infinite entry"),
    ("vectors", lambda row: dict(row, values=row["values"][:-1]),
     "values has 15 entries where the first row has 16"),
    ("vectors", lambda row: dict(row, values=[None] + row["values"][1:]),
     "values must be a list of numbers"),
    ("vectors", lambda row: dict(row, values=[float("-inf")] + row["values"][1:]),
     "values holds a NaN or infinite entry"),
    ("vectors", lambda row: dict(row, values=[10 ** 400] + row["values"][1:]),
     "int too large to convert to float"),
    ("vectors", lambda row: dict(row, sentence_id=[7]), "sentence_id must be a string, got [7]"),
    ("sentences", lambda row: dict(row, bank_id=[1]), "bank_id must be a string, got [1]"),
    ("sentences", lambda row: dict(row, sentence_id=[7]),
     "sentence_id must be a string, got [7]"),
    ("articles", lambda row: dict(row, article_id=None), "article_id must be a string, got None"),
    ("articles", lambda row: dict(row, article_id=3), "article_id must be a string, got 3"),
    # the cases below repeat the file's first row as its second
    ("sentences", REPEAT_FIRST, "duplicate sentence_id '"),
    ("vectors", REPEAT_FIRST, "duplicate sentence_id '"),
    ("articles", REPEAT_FIRST, "duplicate article_id '"),
], ids=["events-short-row", "events-bad-date", "vectors-array", "sentences-array",
        "sentences-missing-key", "sentences-string-tokens", "articles-string",
        "fused-missing-key", "fused-bad-type", "fused-month-13", "fused-month-0",
        "fused-month-one-digit", "fused-label-2", "fused-label-negative",
        "fused-label-fraction", "fused-label-bool", "fused-semantic-nan",
        "fused-semantic-string", "fused-semantic-short", "fused-bank-id-list",
        "fused-bank-id-int", "fused-sentence-id-list", "fused-numeric-raw-short",
        "fused-numeric-raw-inf", "vectors-short", "vectors-null", "vectors-inf",
        "vectors-huge-int", "vectors-sentence-id-list", "sentences-bank-id-list",
        "sentences-sentence-id-list", "articles-null-id", "articles-int-id",
        "sentences-repeated-id", "vectors-repeated-id", "articles-repeated-id"])
def test_malformed_rows_name_file_and_line(pipeline, capsys, tmp_path, reader, text, fragment):
    data = pipeline["data"]
    inputs = {
        "events": os.path.join(data, "events.csv"),
        "vectors": pipeline["vectors"],
        "sentences": pipeline["sentences"],
        "articles": os.path.join(data, "articles.jsonl"),
        "fused": pipeline["fused"],
    }
    with open(inputs[reader], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if text is REPEAT_FIRST:
        text = lines[0]
    elif callable(text):
        text = json.dumps(text(json.loads(lines[1])))
    inputs[reader] = bad = replace_line(inputs[reader], tmp_path / reader, 2, text)
    out = str(tmp_path / "out.jsonl")
    if reader == "articles":
        argv = ["ingest", "--articles", bad,
                "--registry", os.path.join(data, "registry.json"), "--out", out]
    elif reader == "fused":
        argv = ["experiment", "--fused", bad, "--events", inputs["events"], "--runs", "1",
                "--out", str(tmp_path / "results")]
    elif reader == "sentences":
        argv = ["embed", "--sentences", bad, "--out", str(tmp_path / "model.npz"),
                "--vectors", out, "--dim", "4", "--window", "2", "--epochs", "1"]
    else:
        argv = ["fuse", "--sentences", inputs["sentences"], "--vectors", inputs["vectors"],
                "--indicators", os.path.join(data, "indicators.csv"),
                "--events", inputs["events"], "--out", out]
    assert_one_error_line(capsys, cli.main(argv), "error: %s:2: " % bad, fragment)


@pytest.mark.parametrize("twin", [True, False], ids=["twin-kept", "twin-absent"])
def test_fuse_names_the_vectors_file_for_a_missing_vector(pipeline, capsys, tmp_path, twin):
    # with a twin, fuse looks the sentences up in it (write_fused); without
    # one, in the vectors it parsed (build_sample_table)
    vectors = tmp_path / "vectors.jsonl"
    if twin:
        with open(pipeline["sentences"], encoding="utf-8") as fh:
            first, *rest = fh.read().splitlines()
        fewer = tmp_path / "sentences.jsonl"
        fewer.write_text("\n".join(rest) + "\n", encoding="utf-8")
        assert cli.main(["embed", "--sentences", str(fewer), "--out", str(tmp_path / "model.npz"),
                         "--vectors", str(vectors), "--dim", "4", "--window", "2",
                         "--epochs", "1"]) == 0
        assert pvdm.read_vectors(str(vectors))[2] is not None
    else:
        with open(pipeline["vectors"], encoding="utf-8") as fh:
            first, *rest = fh.read().splitlines()
        vectors.write_text("\n".join(rest) + "\n", encoding="utf-8")
    rc = cli.main(["fuse", "--sentences", pipeline["sentences"], "--vectors", str(vectors),
                   "--indicators", os.path.join(pipeline["data"], "indicators.csv"),
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--out", str(tmp_path / "fused.jsonl")])
    assert_one_error_line(capsys, rc, "error: %s: no semantic vector for sentence %r"
                          % (vectors, json.loads(first)["sentence_id"]))
    assert not (tmp_path / "fused.jsonl").exists()


@pytest.mark.parametrize("row_no,bad_row,fragment", [
    (1, [1], "expected a JSON object, got list"),
    (2, {"canonical_name": "Nobank", "country": "DE", "name_patterns": ["Nobank"]},
     "missing key 'bank_id'"),
    # each matches empty text inside "The weather was fine.", which names no bank
    (2, {"bank_id": "nb", "canonical_name": "Nobank", "country": "DE", "name_patterns": ["\\b"]},
     "bank 'nb': pattern '\\\\b' matches the empty string"),
    (3, {"bank_id": "nb", "canonical_name": "Nobank", "country": "DE",
         "name_patterns": ["(?=w)"]}, "bank 'nb': pattern '(?=w)' matches the empty string"),
], ids=["row-not-an-object", "row-missing-bank-id", "word-boundary", "lookahead"])
def test_ingest_rejects_malformed_registry(pipeline, capsys, tmp_path, row_no, bad_row,
                                           fragment):
    with open(os.path.join(pipeline["data"], "registry.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    rows.insert(row_no - 1, bad_row)
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(rows), encoding="utf-8")
    rc = cli.main(["ingest", "--articles", os.path.join(pipeline["data"], "articles.jsonl"),
                   "--registry", str(registry), "--out", str(tmp_path / "sentences.jsonl")])
    assert_one_error_line(capsys, rc, "error: %s: row %d: %s" % (registry, row_no, fragment))


@pytest.mark.parametrize("text,fragment", [
    ('{"arms": {}}', "missing key 'config'"),
    ('{"config": {"mu": 0.9, "runs": 2}, "arms": {"combined": {"runs": 2}}}',
     "missing key 'mean_test_ur'"),
    ('{"config": {"mu": 0.9', "Expecting"),
    ('[1, 2]', "list indices"),
    ('{"config": {"mu": 0.9, "runs": 2}, "arms": [5]}', "arms must be a non-empty object"),
    ('{"config": {"mu": 0.9, "runs": 2}, "arms": []}', "arms must be a non-empty object"),
    ('{"config": {"mu": 0.9, "runs": 2}, "arms": {}}', "arms must be a non-empty object"),
], ids=["no-config", "no-arm-mean", "malformed-json", "not-an-object", "arms-a-list",
        "arms-empty-list", "arms-empty-object"])
def test_report_names_the_summary_file(capsys, tmp_path, text, fragment):
    (tmp_path / "summary.json").write_text(text, encoding="utf-8")
    rc = cli.main(["report", "--results", str(tmp_path)])
    assert_one_error_line(capsys, rc, "error: %s: " % (tmp_path / "summary.json"), fragment)


def csv_argv(pipeline, d, events=None, indicators=None, command="fuse"):
    """``fuse``, or ``experiment`` (one small run), on the pipeline's inputs
    with ``events`` or ``indicators`` in place of its own."""
    data = pipeline["data"]
    events = events or os.path.join(data, "events.csv")
    if command == "experiment":
        return ["experiment", "--fused", pipeline["fused"], "--events", events,
                "--config", pipeline["config"], "--runs", "1", "--out", os.path.join(d, "out")]
    return ["fuse", "--sentences", pipeline["sentences"], "--vectors", pipeline["vectors"],
            "--indicators", indicators or os.path.join(data, "indicators.csv"),
            "--events", events, "--out", os.path.join(d, "fused.jsonl")]


@pytest.mark.parametrize("reader,command", [("events", "experiment"), ("indicators", "fuse")])
def test_an_oversized_csv_field_names_file_and_line(pipeline, capsys, tmp_path, reader,
                                                    command):
    src = os.path.join(pipeline["data"], reader + ".csv")
    with open(src, encoding="utf-8") as fh:
        second = fh.read().splitlines()[1]
    bad = replace_line(src, tmp_path / "bad.csv", 2, second + "x" * 200_000)
    rc = cli.main(csv_argv(pipeline, str(tmp_path), command=command, **{reader: bad}))
    assert_one_error_line(capsys, rc, "error: %s:2: field larger than field limit" % bad)


DEEP = "[" * 100_000 + "]" * 100_000  # past any decoder's recursion limit


@pytest.mark.parametrize("reader", ["articles", "articles-array", "sentences", "vectors", "fused",
                                    "registry", "config", "summary"])
def test_deeply_nested_json_names_the_file(pipeline, capsys, tmp_path, reader):
    data = pipeline["data"]
    inputs = {"articles": os.path.join(data, "articles.jsonl"),
              "registry": os.path.join(data, "registry.json"),
              "sentences": pipeline["sentences"], "vectors": pipeline["vectors"],
              "fused": pipeline["fused"], "config": pipeline["config"]}
    if reader == "articles-array":  # a line that is the nested value itself
        reader = "articles"
        bad = tmp_path / "articles.jsonl"
        replace_line(inputs[reader], bad, 2, DEEP)
        want = "error: %s:2: JSON value nested too deeply" % bad
    elif reader in ("registry", "config", "summary"):
        bad = tmp_path / ("summary.json" if reader == "summary" else reader + ".json")
        bad.write_text(DEEP, encoding="utf-8")
        want = "error: %s: JSON value nested too deeply" % bad
        if reader == "registry":
            want = "error: malformed registry %s: JSON value nested too deeply" % bad
    else:
        # an object whose value nests: the vectors reader records where each
        # value's text lies, and decodes such a line its own way
        bad = tmp_path / (reader + ".jsonl")
        replace_line(inputs[reader], bad, 2, '{"sentence_id": %s}' % DEEP)
        want = "error: %s:2: JSON value nested too deeply" % bad
    inputs[reader] = str(bad)
    out = str(tmp_path / "out")
    if reader in ("articles", "registry"):
        argv = ["ingest", "--articles", inputs["articles"], "--registry", inputs["registry"],
                "--out", out]
    elif reader == "sentences":
        argv = ["embed", "--sentences", inputs["sentences"], "--out", out + ".npz",
                "--vectors", out + ".jsonl", "--dim", "4", "--window", "2", "--epochs", "1"]
    elif reader == "vectors":
        argv = ["fuse", "--sentences", inputs["sentences"], "--vectors", inputs["vectors"],
                "--indicators", os.path.join(data, "indicators.csv"),
                "--events", os.path.join(data, "events.csv"), "--out", out]
    elif reader == "summary":
        argv = ["report", "--results", str(tmp_path)]
    else:
        argv = ["experiment", "--fused", inputs["fused"], "--config", inputs["config"],
                "--events", os.path.join(data, "events.csv"), "--runs", "1", "--out", out]
    assert_one_error_line(capsys, cli.main(argv), want)


@pytest.mark.parametrize("grid,bad", [("a,b", "'a'"), ("0.1,1e-x", "'1e-x'"), ("", "''")])
def test_sweep_rejects_a_grid_value_that_is_not_a_number(pipeline, capsys, grid, bad):
    rc = cli.main(["sweep", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--parameter", "l1", "--grid", grid,
                   "--out", os.path.join(pipeline["dir"], "x")])
    assert_one_error_line(capsys, rc, "error: --grid: %s is not a number" % bad)


@pytest.mark.parametrize("parameter,grid", [("hidden_width", "5.5"),
                                            ("hidden_layer_count", "1,2.5"),
                                            ("window_n", "2,2.5"), ("vector_dim", "4,inf")])
def test_sweep_rejects_a_fractional_integer_parameter(pipeline, capsys, monkeypatch, parameter,
                                                      grid):
    trained = []
    for name in ("embed_sentences", "run_repeated"):
        monkeypatch.setattr(experiment, name, lambda *a, **k: trained.append(a))
    out = os.path.join(pipeline["dir"], "fractional")
    missing = os.path.join(pipeline["dir"], "missing")
    # the grid is checked before any input is opened, so none need exist
    argv = ["sweep", "--fused", missing + ".jsonl", "--events", missing + ".csv",
            "--parameter", parameter, "--grid", grid, "--out", out]
    if parameter in experiment.EMBEDDING_SWEEPS:
        # a full-scope embedding sweep reads the sentences and needs them
        argv += ["--sentences", missing + "_sentences.jsonl"]
    rc = cli.main(argv)
    bad = grid.split(",")[-1]
    assert_one_error_line(capsys, rc, "error: %s must be a whole number, got %r"
                          % (parameter, float(bad)))
    assert not trained and not os.path.exists(out)


@pytest.mark.parametrize("parameter,grid,arm,hidden,why", [
    ("hidden_layer_count", "1,2", None, [], "the config's hidden_layers is empty"),
    ("hidden_width", "2,3", None, [], "the config's hidden_layers is empty"),
    ("dropout_p", "0.1,0.2", None, [], "the config's hidden_layers is empty"),
    ("window_n", "2,3", "numeric_only", [2], "arm numeric_only reads no sentence vector"),
    ("vector_dim", "4,8", "numeric_only", [2], "arm numeric_only reads no sentence vector"),
])
def test_a_sweep_of_a_parameter_no_run_reads_ends_before_any_input(pipeline, capsys, tmp_path,
                                                                   parameter, grid, arm, hidden,
                                                                   why):
    # each grid value would give the same runs, or, for a layer count with no
    # layer to repeat, no run at all
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mlp": {"epochs": 1, "hidden_layers": hidden}}),
                      encoding="utf-8")
    missing = str(tmp_path / "missing")
    argv = ["sweep", "--fused", missing + ".jsonl", "--events", missing + ".csv",
            "--config", str(config), "--parameter", parameter, "--grid", grid,
            "--out", str(tmp_path / "out")]
    rc = cli.main(argv + (["--arm", arm] if arm else []))
    assert_one_error_line(capsys, rc, "error: no run reads %s: %s" % (parameter, why))
    assert os.listdir(tmp_path) == ["config.json"]


def test_sweep_reads_an_upper_case_exponent(pipeline, capsys):
    out = os.path.join(pipeline["dir"], "sweep_lr")
    rc = cli.main(["sweep", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--parameter", "lr", "--grid", "1E-3",
                   "--runs", "1", "--out", out])
    assert rc == 0 and capsys.readouterr().err == ""
    lines = open(os.path.join(out, "sweep_lr.csv"), encoding="utf-8").read().splitlines()
    assert lines[1].startswith("lr,0.001,")


def assert_exits_cleanly(argv):
    """``cli.main(argv)`` exits 0, or exits 1 with exactly one ``error:`` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1)
    if rc == 1:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith("error: "), err.getvalue()


MISSING = object()  # stands for deleting the key instead of replacing its value
ROW_KEYS = {
    "fused": ("sentence_id", "bank_id", "month", "label", "semantic", "numeric_raw"),
    "sentences": ("sentence_id", "bank_id", "published_at", "tokens"),
    "vectors": ("sentence_id", "values"),
}


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    json_containers, max_leaves=6)


@settings(max_examples=50, deadline=None)
@given(target=st.sampled_from([(reader, key) for reader, keys in ROW_KEYS.items()
                               for key in keys]),
       row_no=st.integers(min_value=0, max_value=2),
       value=JSON_VALUES | st.just(MISSING))
@example(target=("fused", "bank_id"), row_no=1, value=[1])
@example(target=("fused", "bank_id"), row_no=1, value=5)
def test_any_edited_field_exits_cleanly(pipeline, target, row_no, value):
    """One field of one row of a JSON-lines input, replaced or deleted, either
    leaves the command working or ends it with one ``error:`` line."""
    reader, key = target
    data = pipeline["data"]
    with tempfile.TemporaryDirectory() as d:
        inputs = {name: pipeline[name] for name in ROW_KEYS}
        with open(inputs[reader], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = json.loads(lines[row_no])
        if value is MISSING:
            del row[key]
        else:
            row[key] = value
        lines[row_no] = json.dumps(row)
        inputs[reader] = os.path.join(d, reader + ".jsonl")
        with open(inputs[reader], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        events = os.path.join(data, "events.csv")
        if reader == "fused":
            config = os.path.join(d, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"arm": "combined", "mlp": {"epochs": 1, "hidden_layers": [2]}}, fh)
            argv = ["experiment", "--fused", inputs["fused"], "--events", events,
                    "--config", config, "--runs", "1", "--out", os.path.join(d, "results")]
        else:
            argv = ["fuse", "--sentences", inputs["sentences"], "--vectors", inputs["vectors"],
                    "--indicators", os.path.join(data, "indicators.csv"), "--events", events,
                    "--out", os.path.join(d, "fused.jsonl")]
        assert_exits_cleanly(argv)


INGEST_KEYS = {
    "registry": ("bank_id", "canonical_name", "country", "name_patterns"),
    "articles": ("article_id", "published_at", "body"),
}


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from([(name, key) for name, keys in INGEST_KEYS.items()
                               for key in keys]),
       row_no=st.integers(min_value=0, max_value=2),
       value=JSON_VALUES | st.lists(st.text(max_size=8), max_size=3) | st.just(MISSING))
@example(target=("registry", "name_patterns"), row_no=0, value=["a{4294967296}"])
@example(target=("registry", "name_patterns"), row_no=1, value=[""])
@example(target=("articles", "article_id"), row_no=1, value=None)
def test_any_edited_ingest_field_exits_cleanly(pipeline, target, row_no, value):
    """One field of one registry or article row, replaced or deleted, either
    leaves ingest working or ends it with one ``error:`` line."""
    name, key = target
    inputs = {"registry": os.path.join(pipeline["data"], "registry.json"),
              "articles": os.path.join(pipeline["data"], "articles.jsonl")}
    with open(inputs[name], encoding="utf-8") as fh:
        rows = (json.load(fh) if name == "registry"
                else [json.loads(line) for line in fh.read().splitlines()])
    if value is MISSING:
        del rows[row_no][key]
    else:
        rows[row_no][key] = value
    with tempfile.TemporaryDirectory() as d:
        inputs[name] = os.path.join(d, os.path.basename(inputs[name]))
        with open(inputs[name], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(rows) if name == "registry"
                     else "".join(json.dumps(row) + "\n" for row in rows))
        assert_exits_cleanly(["ingest", "--articles", inputs["articles"],
                              "--registry", inputs["registry"],
                              "--out", os.path.join(d, "sentences.jsonl")])


def corrupt_csv_line(line, edit, at, text):
    """``line`` of a CSV file with one corruption ``edit`` at character or
    field position ``at``, with ``text`` where the edit inserts any."""
    fields = line.split(",")
    field = at % len(fields)
    if edit == "quote":
        return line[:at % (len(line) + 1)] + '"' + line[at % (len(line) + 1):]
    if edit == "nul":
        return line[:at % (len(line) + 1)] + "\x00" + line[at % (len(line) + 1):]
    if edit == "oversized":
        fields[field] += "z" * 140_000
    elif edit == "missing":
        del fields[field]
    elif edit == "extra":
        fields.insert(field, text)
    else:  # a field, often a number, replaced by text
        fields[field] = text
    return ",".join(fields)


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from([("events", "fuse"), ("events", "experiment"),
                               ("indicators", "fuse")]),
       line_no=st.integers(min_value=0, max_value=3),
       edit=st.sampled_from(["quote", "nul", "oversized", "missing", "extra", "text"]),
       at=st.integers(min_value=0, max_value=400),
       text=st.text(max_size=8) | st.sampled_from(["nan", "inf", "-1e999", "1e5x", ""]))
@example(target=("events", "experiment"), line_no=1, edit="oversized", at=3, text="")
@example(target=("indicators", "fuse"), line_no=0, edit="missing", at=0, text="")
@example(target=("indicators", "fuse"), line_no=0, edit="text", at=0, text="bank")
def test_any_corrupted_csv_line_exits_cleanly(pipeline, target, line_no, edit, at, text):
    """One line of the events or indicators file, given a stray quote, a NUL
    byte, an oversized field, a missing or extra column or text in place of
    a field (the header included), either leaves the command working or
    ends it with one ``error:`` line."""
    reader, command = target
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(pipeline["data"], reader + ".csv")
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[line_no] = corrupt_csv_line(lines[line_no], edit, at, text)
        bad = os.path.join(d, reader + ".csv")
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        assert_exits_cleanly(csv_argv(pipeline, d, command=command, **{reader: bad}))


@pytest.fixture(scope="module")
def twinless_outputs(pipeline, tmp_path_factory):
    """The bytes fuse and experiment write from inputs that have no twin."""
    d = str(tmp_path_factory.mktemp("twinless"))
    for name in ("vectors", "fused"):
        shutil.copy(pipeline[name], os.path.join(d, name + ".jsonl"))
    outputs = {}
    for command in ("fuse", "experiment"):
        out = os.path.join(d, command)
        assert cli.main(twin_fuzz_argv(pipeline, d, command, out)) == 0
        outputs[command] = result_bytes(command, out)
    return outputs


def twin_fuzz_argv(pipeline, d, command, out):
    data = pipeline["data"]
    if command == "fuse":
        return ["fuse", "--sentences", pipeline["sentences"],
                "--vectors", os.path.join(d, "vectors.jsonl"),
                "--indicators", os.path.join(data, "indicators.csv"),
                "--events", os.path.join(data, "events.csv"), "--out", out]
    return ["experiment", "--fused", os.path.join(d, "fused.jsonl"),
            "--events", os.path.join(data, "events.csv"), "--config", pipeline["config"],
            "--arm", "combined", "--runs", "1", "--seed", "3", "--out", out]


def result_bytes(command, out):
    names = [out] if command == "fuse" else [os.path.join(out, "runs.csv"),
                                             os.path.join(out, "summary.json")]
    result = []
    for name in names:
        with open(name, "rb") as fh:
            result.append(fh.read())
    return result


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["fuse", "experiment"]),
       damage=st.sampled_from(["truncated", "bit-flipped", "other-digest", "other-twin"]),
       at=st.integers(min_value=0, max_value=1 << 20), bit=st.integers(min_value=0, max_value=7))
@example(command="experiment", damage="truncated", at=0, bit=0)
@example(command="fuse", damage="other-digest", at=0, bit=0)
def test_a_damaged_twin_gives_the_twinless_outputs_or_one_error_line(
        pipeline, twinless_outputs, command, damage, at, bit):
    """fuse given a damaged vectors twin, and experiment a damaged fused twin,
    write what they write without any twin, or end with one ``error:`` line."""
    own, other = ("vectors", "fused") if command == "fuse" else ("fused", "vectors")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, own + ".jsonl")
        shutil.copy(pipeline[own], path)
        with open(corpus.twin_path(pipeline[own if damage != "other-twin" else other]),
                  "rb") as fh:
            raw = fh.read()
        at %= len(raw)
        if damage == "truncated":
            raw = raw[:at]
        elif damage == "bit-flipped":
            raw = raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1:]
        elif damage == "other-digest":  # the digest of the other file of the chain
            with np.load(corpus.twin_path(pipeline[own])) as data:
                entries = {name: data[name] for name in data.files}
            entries["sha256"] = np.frombuffer(corpus.file_sha256(pipeline[other]), dtype=np.uint8)
            corpus.write_npz(corpus.twin_path(path), entries)
        if damage != "other-digest":
            with open(corpus.twin_path(path), "wb") as fh:
                fh.write(raw)
        out = os.path.join(d, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(twin_fuzz_argv(pipeline, d, command, out))
        if rc == 1:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert err.getvalue().startswith("error: "), err.getvalue()
            return
        assert rc == 0, err.getvalue()
        assert result_bytes(command, out) == twinless_outputs[command]
        if command == "fuse" and os.path.exists(corpus.twin_path(out)):
            twinned = fusion.read_sample_table(out)
            os.remove(corpus.twin_path(out))
            from_json = fusion.read_sample_table(out)
            assert twinned.sentence_ids == from_json.sentence_ids
            assert twinned.semantic.tobytes() == from_json.semantic.tobytes()


# embed's flags, each with the value of a small valid run; the integers' upper
# bounds keep a run that succeeds small
EMBED_FLAGS = {"--sentences": "sentences.jsonl", "--out": "model.npz",
               "--vectors": "vectors.jsonl", "--dim": "4", "--window": "2", "--epochs": "1",
               "--min-count": "1", "--seed": "0"}
EMBED_INT_MAX = {"--dim": 16, "--window": 8, "--epochs": 2, "--min-count": 4, "--seed": 2 ** 64}
# each input and output of the command, its twins, another spelling of one,
# the directory itself and the empty path
EMBED_PATHS = ["sentences.jsonl", "model.npz", "vectors.jsonl", "sentences.jsonl.twin.npz",
               "vectors.jsonl.twin.npz", "model.npz.twin.npz", "./vectors.jsonl", ".", ""]


def embed_flag_value(flag):
    if flag in EMBED_INT_MAX:
        return (st.integers(min_value=-3, max_value=EMBED_INT_MAX[flag]).map(str)
                | st.sampled_from(["x", "1.5", "", "1e3", "0x4", "+2", " 3"]))
    return st.sampled_from(EMBED_PATHS)


@st.composite
def argument_lists(draw, flags, values, at_most=None):
    """An argument list of ``flags`` (flag -> the value of a small valid run),
    one list of (flag, value) pairs per flag: each flag kept, or, for at most
    ``at_most`` of them (default: any number), dropped, given another value,
    drawn from ``values(flag)``, or given twice (the last wins)."""
    changed = draw(st.sets(st.sampled_from(list(flags)), max_size=at_most))
    args = []
    for flag, value in flags.items():
        how = draw(st.sampled_from(["drop", "other", "twice"])) if flag in changed else "keep"
        other = draw(values(flag)) if how in ("other", "twice") else None
        args.append({"keep": [(flag, value)], "drop": [], "other": [(flag, other)],
                     "twice": [(flag, value), (flag, other)]}[how])
    return args


def assert_argument_list_exits_cleanly(command, args, order, d, paths, inputs):
    """``command`` with the flags of ``args`` in the order ``order`` shuffles
    them to, the value of each flag in ``paths`` a file of the directory
    ``d``, exits 0, or with exactly one ``error:`` line (1) or ``i/o error:``
    line (2), and never with a traceback. The files the flags in ``inputs``
    name, and the twins they have, keep their bytes."""
    flags = [pair for pairs in args for pair in pairs]
    order.shuffle(flags)
    flags = [(flag, os.path.join(d, value) if flag in paths and value else value)
             for flag, value in flags]
    # argparse takes the last value of a repeated flag
    read = [path for flag, path in dict(flags).items() if flag in inputs]
    read += [corpus.twin_path(path) for path in read]
    before = {path: open(path, "rb").read() for path in read if os.path.isfile(path)}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([command] + [v for pair in flags for v in pair])
    text = err.getvalue()
    assert "Traceback" not in text, text
    if rc == 0:
        assert text == "", text
    else:
        assert (rc, len(text.splitlines())) in ((1, 1), (2, 1)), (rc, text)
        assert text.startswith("error: " if rc == 1 else "i/o error: "), text
    assert {path: open(path, "rb").read() for path in before} == before


@settings(max_examples=100, deadline=None)
@given(args=argument_lists(EMBED_FLAGS, embed_flag_value), order=st.randoms(use_true_random=False))
def test_embed_argument_lists_exit_cleanly(pipeline, args, order):
    """embed, given its flags dropped, repeated, or set to a bad number or
    to one of its own files, exits 0, or with exactly one ``error:`` line
    (1) or ``i/o error:`` line (2), and never with a traceback."""
    with tempfile.TemporaryDirectory() as d:
        with open(pipeline["sentences"], encoding="utf-8") as src:
            head = src.readlines()[:20]
        with open(os.path.join(d, "sentences.jsonl"), "w", encoding="utf-8") as dst:
            dst.writelines(head)
        assert_argument_list_exits_cleanly("embed", args, order, d,
                                           set(EMBED_FLAGS) - set(EMBED_INT_MAX), {"--sentences"})


INGEST_FLAGS = {"--articles": "articles.jsonl", "--registry": "registry.json",
                "--out": "sentences.jsonl"}
# each file of the command, a hard link to its articles, a twin path, another
# spelling of one, the directory itself and the empty path
INGEST_PATHS = ["articles.jsonl", "registry.json", "sentences.jsonl", "linked.jsonl",
                "articles.jsonl.twin.npz", "./registry.json", ".", ""]


@settings(max_examples=60, deadline=None)
@given(args=argument_lists(INGEST_FLAGS, lambda flag: st.sampled_from(INGEST_PATHS)),
       order=st.randoms(use_true_random=False))
@example(args=[[("--articles", "articles.jsonl")], [("--registry", "registry.json")],
               [("--out", "linked.jsonl")]], order=random.Random(0))
def test_ingest_argument_lists_exit_cleanly(pipeline, args, order):
    """ingest, given its flags dropped, repeated, or set to one of its own
    files or a hard link to one, exits cleanly and changes no input."""
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(pipeline["data"], "articles.jsonl"), encoding="utf-8") as src:
            head = src.readlines()[:40]
        with open(os.path.join(d, "articles.jsonl"), "w", encoding="utf-8") as dst:
            dst.writelines(head)
        shutil.copy(os.path.join(pipeline["data"], "registry.json"), d)
        os.link(os.path.join(d, "articles.jsonl"), os.path.join(d, "linked.jsonl"))
        assert_argument_list_exits_cleanly("ingest", args, order, d, INGEST_FLAGS,
                                           {"--articles", "--registry"})


@pytest.fixture(scope="module")
def small_experiment_inputs(pipeline, tmp_path_factory):
    """A directory of train and sweep inputs: every 16th sentence, fused with
    its twin, the events, and two configs, a one-epoch network with a small
    PV-DM and one without a hidden layer."""
    d = str(tmp_path_factory.mktemp("small_inputs"))
    sentences = os.path.join(d, "sentences.jsonl")
    corpus.write_sentences(corpus.read_sentences(pipeline["sentences"])[::16], sentences)
    shutil.copy(os.path.join(pipeline["data"], "events.csv"), d)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fuse", "--sentences", sentences, "--vectors", pipeline["vectors"],
                         "--indicators", os.path.join(pipeline["data"], "indicators.csv"),
                         "--events", os.path.join(d, "events.csv"),
                         "--out", os.path.join(d, "fused.jsonl")]) == 0
    for name, config in (("small.json", {"mlp": {"epochs": 1, "hidden_layers": [2]},
                                         "pvdm": {"vector_dim": 4, "epochs": 1,
                                                  "min_count": 1}}),
                         ("flat.json", {"mlp": {"epochs": 1, "hidden_layers": []}})):
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    return d


# the values of train's and sweep's flags other than paths
EXPERIMENT_VALUES = {
    "--embedding-scope": ["full", "train_folds", "folds"],
    "--arm": list(fusion.ARMS) + ["all", "x"],
    "--seed": ["-1", "0", "3", "1.5", "x", ""],
    "--mu": ["0.5", "0", "1", "nan", "x"],
    "--parameter": list(experiment.SWEEPABLE) + ["x"],
    "--grid": ["2,3", "1", "0", "-1", "2.5", "0.1,0.2", "4,4", "x", ""],
    "--runs": ["1", "2", "0", "-1", "x"],
}
# each input and output of the commands, a hard link to the fused file, its
# twin, another spelling of it, the directory itself and the empty path
EXPERIMENT_PATHS = ["fused.jsonl", "events.csv", "small.json", "flat.json", "sentences.jsonl",
                    "out", "linked.jsonl", "fused.jsonl.twin.npz", "./fused.jsonl", ".", ""]
EXPERIMENT_INPUTS = {"--fused", "--events", "--config", "--sentences"}
EXPERIMENT_PATH_FLAGS = EXPERIMENT_INPUTS | {"--out"}
TRAIN_FLAGS = {"--fused": "fused.jsonl", "--events": "events.csv", "--config": "small.json",
               "--sentences": "sentences.jsonl", "--embedding-scope": "train_folds",
               "--arm": "combined", "--seed": "0", "--mu": "0.9", "--out": "out"}
SWEEP_FLAGS = {"--fused": "fused.jsonl", "--events": "events.csv", "--config": "small.json",
               "--sentences": "sentences.jsonl", "--embedding-scope": "full", "--arm": "combined",
               "--seed": "0", "--parameter": "window_n", "--grid": "2,3", "--runs": "1",
               "--out": "out"}
# a sweep of the layer count of a network with no layer to repeat
FLAT_COUNT_SWEEP = dict(SWEEP_FLAGS, **{"--config": "flat.json",
                                        "--parameter": "hidden_layer_count"})


def experiment_flag_value(flag):
    return st.sampled_from(EXPERIMENT_VALUES.get(flag, EXPERIMENT_PATHS))


def assert_experiment_argument_list_exits_cleanly(inputs, command, args, order):
    """``assert_argument_list_exits_cleanly`` in a copy of the directory
    ``inputs`` that also holds ``linked.jsonl``, a hard link to its fused file."""
    with tempfile.TemporaryDirectory() as d:
        d = os.path.join(d, "inputs")
        shutil.copytree(inputs, d)
        os.link(os.path.join(d, "fused.jsonl"), os.path.join(d, "linked.jsonl"))
        assert_argument_list_exits_cleanly(command, args, order, d, EXPERIMENT_PATH_FLAGS,
                                           EXPERIMENT_INPUTS)


@settings(max_examples=50, deadline=None)
@given(args=argument_lists(TRAIN_FLAGS, experiment_flag_value, at_most=3),
       order=st.randoms(use_true_random=False))
def test_train_argument_lists_exit_cleanly(small_experiment_inputs, args, order):
    """train, given its flags dropped, repeated, or set to a bad value, to
    one of its own files or to a hard link to one, exits cleanly and
    changes no input."""
    assert_experiment_argument_list_exits_cleanly(small_experiment_inputs, "train", args, order)


@settings(max_examples=50, deadline=None)
@given(args=argument_lists(SWEEP_FLAGS, experiment_flag_value, at_most=3),
       order=st.randoms(use_true_random=False))
@example(args=[[pair] for pair in FLAT_COUNT_SWEEP.items()], order=random.Random(0))
def test_sweep_argument_lists_exit_cleanly(small_experiment_inputs, args, order):
    """sweep, given its flags dropped, repeated, or set to a bad value, to
    one of its own files or to a hard link to one, exits cleanly and
    changes no input; a config without hidden layers included."""
    assert_experiment_argument_list_exits_cleanly(small_experiment_inputs, "sweep", args, order)


EXPERIMENT_FLAGS = {"--fused": "fused.jsonl", "--events": "events.csv", "--config": "flat.json",
                    "--embedding-scope": "full", "--arm": "all", "--seed": "0", "--mu": "0.9",
                    "--runs": "1", "--out": "out"}


@settings(max_examples=50, deadline=None)
@given(args=argument_lists(EXPERIMENT_FLAGS, experiment_flag_value, at_most=3),
       order=st.randoms(use_true_random=False))
def test_experiment_argument_lists_exit_cleanly(small_experiment_inputs, args, order):
    """experiment, given its flags dropped, repeated, or set to a bad value,
    to one of its own files or to a hard link to one, exits cleanly and
    changes no input."""
    assert_experiment_argument_list_exits_cleanly(small_experiment_inputs, "experiment", args,
                                                  order)


# synth's flags, each with the value of a small valid run
SYNTH_FLAGS = {"--out": "data", "--seed": "0", "--banks": "2", "--prior": "0.3",
               "--text-signal": "0.3", "--numeric-signal": "0.6", "--min-sentences": "1",
               "--max-sentences": "1"}
SYNTH_INT_MAX = {"--seed": 2 ** 64, "--banks": 3, "--min-sentences": 2, "--max-sentences": 2}
# a new directory, a new one inside another, a file, one inside a file, the
# directory itself and the empty path
SYNTH_PATHS = ["data", "data/deeper", "file.txt", "file.txt/data", ".", ""]


def synth_flag_value(flag):
    if flag == "--out":
        return st.sampled_from(SYNTH_PATHS)
    if flag in SYNTH_INT_MAX:
        return (st.integers(min_value=-2, max_value=SYNTH_INT_MAX[flag]).map(str)
                | st.sampled_from(["x", "1.5", ""]))
    return st.sampled_from(["0", "1", "0.5", "-0.1", "1.5", "nan", "inf", "1e-300", "x", ""])


@settings(max_examples=60, deadline=None)
@given(args=argument_lists(SYNTH_FLAGS, synth_flag_value), order=st.randoms(use_true_random=False))
def test_synth_argument_lists_exit_cleanly(args, order):
    """synth, given its flags dropped, repeated, or set to a bad number or
    to a path that cannot be its directory, exits cleanly."""
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "file.txt"), "w", encoding="utf-8") as fh:
            fh.write("a file, not a directory\n")
        assert_argument_list_exits_cleanly("synth", args, order, d, {"--out"}, set())


SUMMARY = {"config": {"mu": 0.9, "runs": 2},
           "arms": {"combined": {"mean_test_ur": 0.25, "std_test_ur": 0.5, "runs": 2}}}
# each key path of SUMMARY that report reads, and the document itself
SUMMARY_PATHS = [(), ("config",), ("config", "mu"), ("config", "runs"), ("arms",),
                 ("arms", "combined"), ("arms", "combined", "mean_test_ur"),
                 ("arms", "combined", "std_test_ur"), ("arms", "combined", "runs")]


@st.composite
def summary_files(draw):
    """The bytes of a summary.json: SUMMARY with the value at one key path
    replaced by a JSON value or deleted, and maybe bytes that are not UTF-8
    put in anywhere."""
    summary = json.loads(json.dumps(SUMMARY))
    at = draw(st.sampled_from(SUMMARY_PATHS))
    value = draw(JSON_VALUES | st.just(MISSING))
    if not at:
        summary = {} if value is MISSING else value
    else:
        parent = summary
        for key in at[:-1]:
            parent = parent[key]
        if value is MISSING:
            del parent[at[-1]]
        else:
            parent[at[-1]] = value
    text = json.dumps(summary).encode("utf-8")
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:i] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + text[i:]
    return text


REPORT_PATHS = ["results", "missing", "results/summary.json", ".", ""]


@settings(max_examples=100, deadline=None)
@given(args=argument_lists({"--results": "results"}, lambda flag: st.sampled_from(REPORT_PATHS)),
       order=st.randoms(use_true_random=False), summary=summary_files())
@example(args=[[("--results", "results")]], order=random.Random(0),
         summary=b'{"config": {"mu": 0.9, "runs": 2}, "arms": [5]}')
@example(args=[[("--results", "results")]], order=random.Random(0),
         summary=json.dumps(dict(SUMMARY, arms={"combined": dict(
             SUMMARY["arms"]["combined"], runs=float("inf"))})).encode("ascii"))
def test_report_argument_lists_and_summaries_exit_cleanly(args, order, summary):
    """report, given its flag dropped, repeated or set to a path that is not
    a results directory, and a summary.json of any JSON value or of bytes
    that are not UTF-8, exits cleanly and changes no input."""
    with tempfile.TemporaryDirectory() as d:
        os.mkdir(os.path.join(d, "results"))
        with open(os.path.join(d, "results", "summary.json"), "wb") as fh:
            fh.write(summary)
        assert_argument_list_exits_cleanly("report", args, order, d, {"--results"}, set())


@pytest.mark.parametrize("flag", ["--articles", "--registry"])
def test_ingest_names_the_input_that_is_not_utf8(pipeline, capsys, tmp_path, flag):
    inputs = {"--articles": os.path.join(pipeline["data"], "articles.jsonl"),
              "--registry": os.path.join(pipeline["data"], "registry.json")}
    with open(inputs[flag], "rb") as fh:
        raw = fh.read()
    inputs[flag] = str(tmp_path / "latin1")
    with open(inputs[flag], "wb") as fh:
        fh.write(raw.replace(b"\n", b"\n\xd6", 1))  # a Latin-1 letter opens line 2
    rc = cli.main(["ingest", *[v for pair in inputs.items() for v in pair],
                   "--out", str(tmp_path / "sentences.jsonl")])
    where = ("%s:2: " if flag == "--articles" else "malformed registry %s: ") % inputs[flag]
    assert_one_error_line(capsys, rc, where + "'utf-8' codec can't decode byte 0xd6")


def test_sweep_makes_its_out_before_any_run(pipeline, capsys, tmp_path, monkeypatch):
    entered = []
    monkeypatch.setattr(experiment, "sweep", lambda *args, **kwargs: entered.append(args))
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n", encoding="utf-8")
    rc = cli.main(["sweep", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--parameter", "l1", "--grid", "0,0.001", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and len(err.splitlines()) == 1 and err.startswith("i/o error: "), err
    assert entered == []


# the work each command would do first, were its --out not checked before it
DIRECTORY_OUTPUTS = {
    "synth": (synth, "generate", ["synth", "--banks", "4"]),
    "experiment": (fusion, "read_sample_table",
                   ["experiment", "--fused", "fused.jsonl", "--events", "data/events.csv"]),
    "sweep": (fusion, "read_sample_table",
              ["sweep", "--fused", "fused.jsonl", "--events", "data/events.csv",
               "--parameter", "l1", "--grid", "0,0.001"]),
}


@pytest.mark.parametrize("command", DIRECTORY_OUTPUTS)
def test_an_out_directory_that_is_a_file_ends_the_command_before_its_work(
        pipeline, capsys, tmp_path, monkeypatch, command):
    module, name, argv = DIRECTORY_OUTPUTS[command]
    monkeypatch.chdir(tmp_path)
    copy_pipeline(pipeline)
    with open("out_file", "w", encoding="utf-8") as fh:
        fh.write("a file, not a directory\n")
    before = file_bytes()
    worked = []
    monkeypatch.setattr(module, name, lambda *args, **kwargs: worked.append(args))
    for out, error in (("out_file", "[Errno 17] File exists"),
                       ("out_file/results", "[Errno 20] Not a directory")):
        rc = cli.main(argv + ["--out", out])
        assert (rc, capsys.readouterr().err) == (2, "i/o error: %s: %r\n" % (error, out))
    assert worked == []
    assert file_bytes() == before


FUSE_FLAGS = {"--sentences": "sentences.jsonl", "--vectors": "vectors.jsonl",
              "--indicators": "indicators.csv", "--events": "events.csv", "--out": "fused.jsonl"}
# each file of the command, the vectors' twin, vectors that are not UTF-8 and
# have no twin, another spelling of a file, the directory itself and the empty path
FUSE_PATHS = ["sentences.jsonl", "vectors.jsonl", "indicators.csv", "events.csv", "fused.jsonl",
              "vectors.jsonl.twin.npz", "latin1.jsonl", "./vectors.jsonl", ".", ""]


@pytest.fixture(scope="module")
def fuse_inputs(pipeline, tmp_path_factory):
    """fuse's inputs, every 16th sentence and the vectors with their twin,
    and a copy of the vectors with a Latin-1 byte in its second line."""
    d = str(tmp_path_factory.mktemp("fuse_inputs"))
    corpus.write_sentences(corpus.read_sentences(pipeline["sentences"])[::16],
                           os.path.join(d, "sentences.jsonl"))
    for path in (pipeline["vectors"], corpus.twin_path(pipeline["vectors"]),
                 os.path.join(pipeline["data"], "indicators.csv"),
                 os.path.join(pipeline["data"], "events.csv")):
        shutil.copy(path, d)
    with open(pipeline["vectors"], "rb") as src, open(os.path.join(d, "latin1.jsonl"), "wb") as dst:
        dst.write(src.read().replace(b"\n", b"\n\xd6", 1))
    return d


@settings(max_examples=30, deadline=None)
@given(args=argument_lists(FUSE_FLAGS, lambda flag: st.sampled_from(FUSE_PATHS)),
       order=st.randoms(use_true_random=False))
@example(args=[[("--sentences", "sentences.jsonl")], [("--vectors", "latin1.jsonl")],
               [("--indicators", "indicators.csv")], [("--events", "events.csv")],
               [("--out", "fused.jsonl")]], order=random.Random(0))
def test_fuse_argument_lists_exit_cleanly(fuse_inputs, args, order):
    """fuse, given its flags dropped, repeated, or set to one of its own
    files, a twin or vectors that are not UTF-8, exits cleanly and changes
    no input."""
    with tempfile.TemporaryDirectory() as d:
        d = os.path.join(d, "inputs")
        shutil.copytree(fuse_inputs, d)
        assert_argument_list_exits_cleanly("fuse", args, order, d, FUSE_FLAGS,
                                           set(FUSE_FLAGS) - {"--out"})
