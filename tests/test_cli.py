"""End-to-end command-line pipeline tests."""

import json
import os

import numpy as np
import pytest

from bankdistress import cli, corpus, fusion, pvdm


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
        "stats": os.path.join(d, "stats.json"),
        "config": os.path.join(d, "config.json"),
        "dir": d,
    }
    assert cli.main(["synth", "--out", paths["data"], "--banks", "12",
                     "--min-sentences", "2", "--max-sentences", "6",
                     "--seed", "4"]) == 0
    assert cli.main(["ingest",
                     "--articles", os.path.join(paths["data"], "articles.jsonl"),
                     "--registry", os.path.join(paths["data"], "registry.json"),
                     "--out", paths["sentences"]]) == 0
    assert cli.main(["embed", "--sentences", paths["sentences"],
                     "--out", paths["model"], "--vectors", paths["vectors"],
                     "--dim", "16", "--window", "2", "--epochs", "2",
                     "--seed", "1"]) == 0
    assert cli.main(["fuse", "--sentences", paths["sentences"],
                     "--vectors", paths["vectors"],
                     "--indicators", os.path.join(paths["data"], "indicators.csv"),
                     "--events", os.path.join(paths["data"], "events.csv"),
                     "--out", paths["fused"], "--stats", paths["stats"]]) == 0
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump({"mlp": {"epochs": 3, "hidden_layers": [6]}}, fh)
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


def test_embed_output(pipeline):
    model = pvdm.load_model(pipeline["model"])
    assert model.config.vector_dim == 16
    vectors = pvdm.read_vectors(pipeline["vectors"])
    assert set(vectors) == set(model.sentence_index)
    assert all(v.shape == (16,) for v in vectors.values())


def test_fuse_output(pipeline):
    table = fusion.read_sample_table(pipeline["fused"])
    assert table.semantic_dim == 16
    assert table.numeric_raw.shape[1] == fusion.NUMERIC_DIM
    assert set(np.unique(table.labels)) <= {0, 1}
    stats = json.load(open(pipeline["stats"], encoding="utf-8"))
    assert len(stats["mean"]) == fusion.NUMERIC_DIM
    assert stats["indicators"] == list(fusion.INDICATOR_NAMES)


def test_train_command(pipeline):
    out = os.path.join(pipeline["dir"], "report.json")
    rc = cli.main(["train", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--config", pipeline["config"], "--seed", "2", "--out", out])
    assert rc == 0
    report = json.load(open(out, encoding="utf-8"))
    assert report["arm"] == "combined"
    assert report["mu"] == 0.9
    assert set(report["test"]) >= {"relative_usefulness", "confusion", "threshold"}


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

    capsys.readouterr()
    assert cli.main(["report", "--results", out]) == 0
    printed = capsys.readouterr().out
    assert "combined" in printed and "mean U_r" in printed


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
    ([1, 2], None, "expected a JSON object"),
], ids=["top-level", "mlp", "pvdm", "not-an-object"])
def test_experiment_rejects_unknown_config_keys(pipeline, capsys, tmp_path, config, scope,
                                                fragment):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["experiment", "--fused", pipeline["fused"],
            "--events", os.path.join(pipeline["data"], "events.csv"),
            "--config", str(cfg_path), "--runs", "1", "--out", str(tmp_path / "out")]
    if scope:
        argv += ["--embedding-scope", scope, "--sentences", pipeline["sentences"]]
    assert_one_error_line(capsys, cli.main(argv), fragment)


def test_embed_rejects_negative_epochs(pipeline, capsys, tmp_path):
    out = tmp_path / "model.npz"
    rc = cli.main(["embed", "--sentences", pipeline["sentences"], "--out", str(out),
                   "--dim", "4", "--epochs", "-2"])
    assert_one_error_line(capsys, rc, "epochs must be >= 0")
    assert not out.exists()


def replace_line(src, dst, line_no, text):
    """Copy ``src`` to ``dst`` with 1-based line ``line_no`` replaced by ``text``."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[line_no - 1] = text
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(dst)


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
    ("fused", '{"month": 7}', "'int' object has no attribute"),
], ids=["events-short-row", "events-bad-date", "vectors-array", "sentences-array",
        "sentences-missing-key", "sentences-string-tokens", "articles-string",
        "fused-missing-key", "fused-bad-type"])
def test_malformed_rows_name_file_and_line(pipeline, capsys, tmp_path, reader, text, fragment):
    data = pipeline["data"]
    inputs = {
        "events": os.path.join(data, "events.csv"),
        "vectors": pipeline["vectors"],
        "sentences": pipeline["sentences"],
        "articles": os.path.join(data, "articles.jsonl"),
        "fused": pipeline["fused"],
    }
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
                "--dim", "4", "--window", "2", "--epochs", "1"]
    else:
        argv = ["fuse", "--sentences", inputs["sentences"], "--vectors", inputs["vectors"],
                "--indicators", os.path.join(data, "indicators.csv"),
                "--events", inputs["events"], "--out", out]
    assert_one_error_line(capsys, cli.main(argv), "error: %s:2: " % bad, fragment)


@pytest.mark.parametrize("row_no,bad_row,fragment", [
    (1, [1], "expected a JSON object, got list"),
    (2, {"canonical_name": "Nobank", "country": "DE", "name_patterns": ["Nobank"]},
     "missing key 'bank_id'"),
], ids=["row-not-an-object", "row-missing-bank-id"])
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
], ids=["no-config", "no-arm-mean", "malformed-json", "not-an-object"])
def test_report_names_the_summary_file(capsys, tmp_path, text, fragment):
    (tmp_path / "summary.json").write_text(text, encoding="utf-8")
    rc = cli.main(["report", "--results", str(tmp_path)])
    assert_one_error_line(capsys, rc, "error: %s: " % (tmp_path / "summary.json"), fragment)


@pytest.mark.parametrize("grid,bad", [("a,b", "'a'"), ("0.1,1e-x", "'1e-x'"), ("", "''")])
def test_sweep_rejects_a_grid_value_that_is_not_a_number(pipeline, capsys, grid, bad):
    rc = cli.main(["sweep", "--fused", pipeline["fused"],
                   "--events", os.path.join(pipeline["data"], "events.csv"),
                   "--parameter", "l1", "--grid", grid,
                   "--out", os.path.join(pipeline["dir"], "x")])
    assert_one_error_line(capsys, rc, "error: --grid: %s is not a number" % bad)
