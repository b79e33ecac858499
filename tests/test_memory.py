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


def test_fuse_holds_no_vector_matrix(tmp_path):
    # the text_pipeline benchmark's chain: 62 banks x 19 quarters, one
    # sentence each, 600-dim vectors
    data = tmp_path / "data"
    synth.write_dataset(synth.generate(synth.SynthConfig(
        start_quarter=(2010, 1), end_quarter=(2014, 3), sentences_per_bank_quarter=(1, 1),
        seed=1)), str(data))
    sentences, vectors = str(tmp_path / "sentences.jsonl"), str(tmp_path / "vectors.jsonl")
    assert cli.main(["ingest", "--articles", str(data / "articles.jsonl"),
                     "--registry", str(data / "registry.json"), "--out", sentences]) == 0
    ids = [s.sentence_id for s in corpus.read_sentences(sentences)]
    rows = np.random.default_rng(0).standard_normal((len(ids), 600))
    with open(vectors, "w", encoding="utf-8") as fh:
        for sid, row in zip(ids, rows):
            fh.write(json.dumps({"sentence_id": sid, "values": row.tolist()}) + "\n")
    fused = str(tmp_path / "fused.jsonl")
    rc, peak, _ = traced(lambda: cli.main([
        "fuse", "--sentences", sentences, "--vectors", vectors,
        "--indicators", str(data / "indicators.csv"),
        "--events", str(data / "events.csv"), "--out", fused]))
    assert rc == 0 and len(ids) == 1178
    assert peak < rows.nbytes, peak  # 5.65 MB
    np.testing.assert_array_equal(fusion.read_sample_table(fused).semantic, rows)


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
