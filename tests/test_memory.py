"""Memory bounds: each stage holds each vector matrix once.

``tracemalloc`` sees numpy's array allocations, so a peak counts every
matrix, row and temporary a call makes. Each bound is a multiple of the
bytes the call must hold (the matrix it returns, or one copy of the rows it
trains on), plus a fixed slack for ids, dicts and the model itself.
"""

import gc
import json
import os
import sys
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from bankdistress import cli, corpus, experiment, fusion, pvdm, synth
from conftest import toy_table

MB = 1e6
SLACK = 0.25 * MB


def traced(call):
    """(result, peak bytes allocated by ``call``, snapshot at its return).

    Garbage left by earlier code is collected before the window opens, and
    the collector stays off inside it, so a collection cannot run there. The
    full collection also empties CPython's free lists, whose parked objects
    ``tracemalloc`` counts as allocated, so no peak depends on what earlier
    tests left there."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        snapshot = tracemalloc.take_snapshot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return result, peak, snapshot


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(0).standard_normal((400, 600))


def test_read_vectors_fills_one_matrix(tmp_path, rows):
    path = str(tmp_path / "vectors.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(rows):
            fh.write(json.dumps({"sentence_id": "s%d" % i, "values": row.tolist()}) + "\n")
    (_, values, _), peak, snapshot = traced(lambda: pvdm.read_vectors(path))
    assert peak <= 1.25 * rows.nbytes + SLACK, peak
    # one block holds every vector
    assert max(trace.size for trace in snapshot.traces) >= rows.nbytes
    np.testing.assert_array_equal(values, rows)


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
    # the commands' tests below read the JSON, the larger of the fused file's two readings
    os.remove(corpus.twin_path(paths["fused"]))
    return paths


def fuse_argv(paths, out):
    return ["fuse", "--sentences", paths["sentences"], "--vectors", paths["vectors"],
            "--indicators", paths["indicators"], "--events", paths["events"], "--out", out]


@pytest.mark.parametrize("twin", [True, False], ids=["twin-kept", "twin-absent"])
def test_fuse_holds_one_vector_matrix(text_pipeline, twin):
    # the vectors, in file order, taken from the twin or parsed from the JSON,
    # are the one matrix fuse holds: each row's text is copied from the file
    # or printed from it, and the fused twin's semantic column is gathered
    # from it in row chunks
    d = text_pipeline["dir"]
    rows = text_pipeline["rows"]
    ids = [s.sentence_id for s in corpus.read_sentences(text_pipeline["sentences"])]
    vectors = str(d / ("vectors-twin-%s.jsonl" % twin))
    pvdm.export_vectors(pvdm.PvdmModel(word_in=None, word_out=None, paragraph=rows,
                                       sentence_index={sid: i for i, sid in enumerate(ids)},
                                       vocab=None, config=None), vectors)
    if not twin:
        os.remove(corpus.twin_path(vectors))
    fused = str(d / ("fused-twin-%s.jsonl" % twin))
    rc, peak, _ = traced(lambda: cli.main(fuse_argv(dict(text_pipeline, vectors=vectors), fused)))
    assert rc == 0 and os.path.exists(corpus.twin_path(fused))
    assert peak <= 1.5 * rows.nbytes, peak  # one matrix (5.65 MB), well short of a second
    with open(fused, "rb") as got, open(text_pipeline["fused"], "rb") as want:
        assert got.read() == want.read()
    np.testing.assert_array_equal(fusion.read_sample_table(fused).semantic, rows)


def test_read_sample_table_from_a_twin_fills_one_matrix_per_column(tmp_path):
    table, _ = toy_table(n_banks=10, n_months=20, per_month=2, sem_dim=600)
    path = str(tmp_path / "fused.jsonl")
    fusion.write_sample_table(table, path)
    corpus.write_twin(path, corpus.file_sha256(path), {
        "sentence_ids": table.sentence_ids, "bank_ids": table.bank_ids,
        "months": np.array(table.months, dtype=np.int64), "semantic": table.semantic,
        "numeric_raw": table.numeric_raw, "labels": table.labels})
    read, peak, _ = traced(lambda: fusion.read_sample_table(path))
    matrices = table.semantic.nbytes + table.numeric_raw.nbytes
    assert peak <= 1.25 * matrices + SLACK, peak
    np.testing.assert_array_equal(read.semantic, table.semantic)
    _, peak, _ = traced(lambda: fusion.read_sample_table(path, keep_semantic=False))
    assert peak <= 1.25 * table.numeric_raw.nbytes + SLACK, peak


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


def test_read_sentences_holds_one_string_per_distinct_token(tmp_path):
    # 2,000 sentences of 20 tokens over a 10-word vocabulary: beyond the same
    # sentences without tokens, each holds its tuple, not 20 strings of its own
    rng = np.random.default_rng(0)
    words = ["word%d" % i for i in range(10)]
    paths = {}
    for name, length in (("tokens", 20), ("empty", 0)):
        paths[name] = str(tmp_path / ("%s.jsonl" % name))
        corpus.write_sentences((corpus.Sentence(
            sentence_id="s%d" % i, bank_id="b%d" % (i % 7),
            published_at=datetime(2010, 1, 1 + i % 28, tzinfo=timezone.utc),
            tokens=tuple(rng.choice(words, size=length).tolist())) for i in range(2000)),
            paths[name])
    sentences, peak, _ = traced(lambda: corpus.read_sentences(paths["tokens"]))
    _, empty_peak, _ = traced(lambda: corpus.read_sentences(paths["empty"]))
    tuples = len(sentences) * sys.getsizeof(sentences[0].tokens)  # 0.4 MB
    assert peak - empty_peak <= 1.25 * tuples, (peak, empty_peak, tuples)
    assert len({id(t) for s in sentences for t in s.tokens}) == len(words)
    with open(paths["tokens"], encoding="utf-8") as fh:
        assert [s.tokens for s in sentences] == [tuple(json.loads(line)["tokens"]) for line in fh]


def pair_arrays_nbytes(model, sentences):
    """Bytes of the arrays ``pvdm.train`` keeps for every (context, target)
    pair: its context, target, paragraph row, shuffle slot and k + 1 scores."""
    cfg = model.config
    n_pairs = sum(len(pvdm.valid_positions(s.tokens, cfg.window_n)) for s in sentences)
    return n_pairs * (cfg.window_n + 3 + cfg.negative_samples + 1) * 8


def test_pvdm_train_holds_one_set_of_pair_arrays(text_pipeline):
    # the text_pipeline benchmark's sentences and window, at a width where one
    # batch's gathers are small next to the pair arrays: the noise words come
    # NOISE_BATCHES batches at a time and the loss is taken in place
    sentences = corpus.read_sentences(text_pipeline["sentences"])
    config = pvdm.PvdmConfig(vector_dim=50, window_n=5, epochs=2, min_count=1)
    model = pvdm.init_model(corpus.build_vocabulary(sentences, min_count=1), sentences, config)
    pairs = pair_arrays_nbytes(model, sentences)
    (_, losses), peak, _ = traced(lambda: pvdm.train(model, sentences))
    assert pairs == 1186752  # 10,596 pairs
    assert peak <= 1.25 * pairs + SLACK, peak
    assert len(losses) == 2 and losses[1] < losses[0]


def test_infer_vectors_holds_one_chunk_of_sentences(text_pipeline, monkeypatch):
    # every sentence of the text_pipeline corpus at dimension 600, 16 at a
    # time: beyond the vectors it returns, the call holds one chunk's context
    # sums and output-row gathers, not those of the whole batch
    sentences = corpus.read_sentences(text_pipeline["sentences"])
    config = pvdm.PvdmConfig(vector_dim=600, window_n=5, min_count=1)
    model = pvdm.init_model(corpus.build_vocabulary(sentences, min_count=1), sentences, config)
    model.word_out[:] = np.random.default_rng(0).normal(0.0, 0.1, size=model.word_out.shape)
    chunk = 16
    monkeypatch.setattr(pvdm, "INFER_STEPS", 2)
    monkeypatch.setattr(pvdm, "INFER_CHUNK", chunk)
    seqs = [s.tokens for s in sentences]
    vectors, peak, _ = traced(lambda: pvdm.infer_vectors(model, seqs, list(range(len(seqs)))))
    held = sum(v.nbytes for v in vectors if v is not None)  # 5.65 MB
    positions = sorted((len(pvdm.valid_positions(t, config.window_n)) for t in seqs),
                       reverse=True)
    chunk_rows = sum(positions[:chunk]) + chunk * (config.negative_samples + 1)
    assert peak <= held + 2 * chunk_rows * config.vector_dim * 8 + SLACK, peak


def test_save_model_writes_without_a_staging_copy(tmp_path):
    # 499 words and <unk>: two 500 x 600 word matrices, 4.8 MB in all
    sentences = [corpus.Sentence(sentence_id="s", bank_id="b", published_at=None,
                                 tokens=tuple("w%d" % i for i in range(499)))]
    vocab = corpus.build_vocabulary(sentences, min_count=1)
    model = pvdm.init_model(vocab, sentences, pvdm.PvdmConfig(vector_dim=600))
    _, peak, _ = traced(lambda: pvdm.save_model(model, str(tmp_path / "model.npz")))
    assert model.word_in.nbytes + model.word_out.nbytes == 4.8 * MB
    assert peak <= 0.5 * MB, peak


def test_export_vectors_writes_its_twin_without_a_copy_of_the_vectors(tmp_path):
    # 1,000 x 600 vectors (4.8 MB): beyond them, the export holds one row's
    # text and its spans, and the twin takes the paragraph matrix as it is
    rows = np.random.default_rng(0).standard_normal((1000, 600))
    model = pvdm.PvdmModel(word_in=None, word_out=None, paragraph=rows,
                           sentence_index={"s%d" % i: i for i in range(1000)},
                           vocab=None, config=None)
    path = str(tmp_path / "vectors.jsonl")
    _, peak, _ = traced(lambda: pvdm.export_vectors(model, path))
    assert peak <= 2 * SLACK, peak
    np.testing.assert_array_equal(np.load(corpus.twin_path(path))["values"], rows)


@pytest.mark.parametrize("arm", ["combined", "text_only", "numeric_only"])
def test_run_once_holds_one_copy_of_the_rows(arm):
    # the text_pipeline benchmark's shape: 62 banks x 19 months, 600-dim vectors
    table, events = toy_table(n_banks=62, n_months=19, per_month=1, sem_dim=600)
    config = experiment.ExperimentConfig(arm=arm, mlp={"epochs": 2, "hidden_layers": (8,)})
    _, peak, _ = traced(lambda: experiment.run_once(table, events, config, run_seed=5))
    one_copy = len(table) * (table.semantic_dim + fusion.NUMERIC_DIM) * 8
    assert peak <= 1.25 * one_copy, peak


def test_run_once_builds_no_training_matrix():
    # a wide table, 600 training rows of 612 inputs: training reads its rows
    # from the table minibatch by minibatch, and the validation inputs are
    # freed before the test inputs are built, so beyond the table a run holds
    # less than one (training rows, inputs) matrix
    table, events = toy_table(n_banks=10, n_months=50, per_month=2, sem_dim=600)
    config = experiment.ExperimentConfig(mlp={"epochs": 2, "hidden_layers": (8,)})
    result, peak, _ = traced(lambda: experiment.run_once(table, events, config, run_seed=5))
    n_train = sum(result.fold_of[b] in experiment.TRAIN_FOLDS for b in table.bank_ids)
    training_matrix = n_train * (table.semantic_dim + fusion.NUMERIC_DIM) * 8
    assert n_train == 600 and training_matrix == 2937600
    assert peak < training_matrix, peak
