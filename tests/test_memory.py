"""Memory bounds: each stage holds each vector matrix once.

``tracemalloc`` sees numpy's array allocations, so a peak counts every
matrix, row and temporary a call makes. Each bound is a multiple of the
bytes the call must hold (the matrix it returns, or one copy of the rows it
trains on), plus a fixed slack for ids, dicts and the model itself.
"""

import json
import tracemalloc

import numpy as np
import pytest

from bankdistress import cli, corpus, experiment, fusion, pvdm, synth
from conftest import toy_table

MB = 1e6
SLACK = 0.25 * MB


def traced(call):
    """(result, peak bytes allocated by ``call``, snapshot at its return)."""
    tracemalloc.start()
    try:
        result = call()
        snapshot = tracemalloc.take_snapshot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak, snapshot


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(0).standard_normal((400, 600))


def test_read_vectors_fills_one_matrix(tmp_path, rows):
    path = str(tmp_path / "vectors.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(rows):
            fh.write(json.dumps({"sentence_id": "s%d" % i, "values": row.tolist()}) + "\n")
    vectors, peak, snapshot = traced(lambda: pvdm.read_vectors(path))
    assert peak <= 1.25 * rows.nbytes + SLACK, peak
    # one block holds every vector; the map's values are views of its rows
    assert max(trace.size for trace in snapshot.traces) >= rows.nbytes
    np.testing.assert_array_equal(np.vstack(list(vectors.values())), rows)


def test_read_sample_table_fills_one_matrix_per_column(tmp_path):
    table, _ = toy_table(n_banks=10, n_months=20, per_month=2, sem_dim=600)
    path = str(tmp_path / "fused.jsonl")
    fusion.write_sample_table(table, path)
    read, peak, _ = traced(lambda: fusion.read_sample_table(path))
    matrices = table.semantic.nbytes + table.numeric_raw.nbytes
    assert peak <= 1.25 * matrices + SLACK, peak
    np.testing.assert_array_equal(read.semantic, table.semantic)
    np.testing.assert_array_equal(read.numeric_raw, table.numeric_raw)


@pytest.fixture(scope="module")
def text_pipeline(tmp_path_factory):
    """The text_pipeline benchmark's chain up to its vectors: 62 banks x 19
    quarters, one sentence each, 600-dim vectors; also a fused table of them."""
    d = tmp_path_factory.mktemp("text_pipeline")
    data = d / "data"
    synth.write_dataset(synth.generate(synth.SynthConfig(
        start_quarter=(2010, 1), end_quarter=(2014, 3), sentences_per_bank_quarter=(1, 1),
        seed=1)), str(data))
    paths = {"sentences": str(d / "sentences.jsonl"), "vectors": str(d / "vectors.jsonl"),
             "fused": str(d / "fused.jsonl"), "indicators": str(data / "indicators.csv"),
             "events": str(data / "events.csv"), "dir": d}
    assert cli.main(["ingest", "--articles", str(data / "articles.jsonl"),
                     "--registry", str(data / "registry.json"),
                     "--out", paths["sentences"]]) == 0
    ids = [s.sentence_id for s in corpus.read_sentences(paths["sentences"])]
    paths["rows"] = np.random.default_rng(0).standard_normal((len(ids), 600))
    with open(paths["vectors"], "w", encoding="utf-8") as fh:
        for sid, row in zip(ids, paths["rows"]):
            fh.write(json.dumps({"sentence_id": sid, "values": row.tolist()}) + "\n")
    assert len(ids) == 1178 and cli.main(fuse_argv(paths, paths["fused"])) == 0
    return paths


def fuse_argv(paths, out):
    return ["fuse", "--sentences", paths["sentences"], "--vectors", paths["vectors"],
            "--indicators", paths["indicators"], "--events", paths["events"], "--out", out]


def test_fuse_holds_no_vector_matrix(text_pipeline):
    fused = str(text_pipeline["dir"] / "fused-traced.jsonl")
    rc, peak, _ = traced(lambda: cli.main(fuse_argv(text_pipeline, fused)))
    rows = text_pipeline["rows"]
    assert rc == 0
    assert peak < rows.nbytes, peak  # 5.65 MB
    np.testing.assert_array_equal(fusion.read_sample_table(fused).semantic, rows)


class InputsRead(Exception):
    """Ends a command once its inputs are read."""


@pytest.mark.parametrize("flags", [
    ["experiment", "--arm", "all", "--embedding-scope", "train_folds", "--sentences", "{}"],
    ["sweep", "--parameter", "window_n", "--grid", "3", "--sentences", "{}"],
    ["experiment", "--arm", "numeric_only"],
], ids=["train-folds", "full-scope-window-sweep", "numeric-only"])
def test_a_command_whose_runs_read_no_fused_vector_holds_none(text_pipeline, monkeypatch,
                                                              flags):
    # each run retrains, re-embeds or reads no sentence vector, so the
    # command reads the fused semantic column without holding it
    read_inputs = cli._read_inputs
    seen = []

    def traced_read_inputs(*args, **kwargs):
        seen.append(traced(lambda: read_inputs(*args, **kwargs))[:2])
        raise InputsRead

    monkeypatch.setattr(cli, "_read_inputs", traced_read_inputs)
    argv = [flag.format(text_pipeline["sentences"]) for flag in flags] + [
        "--fused", text_pipeline["fused"], "--events", text_pipeline["events"],
        "--out", str(text_pipeline["dir"] / "out")]
    with pytest.raises(InputsRead):
        cli.main(argv)
    (table, _, _), peak = seen[0]
    assert peak < text_pipeline["rows"].nbytes, peak  # 5.65 MB
    assert table.semantic is None and len(table) == 1178


def test_save_model_writes_without_a_staging_copy(tmp_path):
    sentences = [corpus.Sentence(sentence_id="s%d" % i, bank_id="b", published_at=None,
                                 tokens=("a", "b")) for i in range(1000)]
    vocab = corpus.build_vocabulary(sentences, min_count=1)
    model = pvdm.init_model(vocab, sentences, pvdm.PvdmConfig(vector_dim=600))
    _, peak, _ = traced(lambda: pvdm.save_model(model, str(tmp_path / "model.npz")))
    assert model.paragraph.nbytes == 4.8 * MB
    assert peak <= 0.5 * MB, peak


@pytest.mark.parametrize("arm", ["combined", "text_only", "numeric_only"])
def test_run_once_holds_one_copy_of_the_rows(arm):
    # the text_pipeline benchmark's shape: 62 banks x 19 months, 600-dim vectors
    table, events = toy_table(n_banks=62, n_months=19, per_month=1, sem_dim=600)
    config = experiment.ExperimentConfig(arm=arm, mlp={"epochs": 2, "hidden_layers": (8,)})
    _, peak, _ = traced(lambda: experiment.run_once(table, events, config, run_seed=5))
    one_copy = len(table) * (table.semantic_dim + fusion.NUMERIC_DIM) * 8
    assert peak <= 1.25 * one_copy, peak
