"""Binary twins of the JSON-lines matrix files: the format, and the readers
that take a valid twin in place of the JSON it mirrors.

A twin, ``<path>.twin.npz``, holds a file's columns and the sha256 of the
file's bytes. Every reader must give bit-equal results with and without it.
"""

import json
import os
import shutil
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankdistress import cli, corpus, fusion, pvdm
from bankdistress.fusion import DistressEvent
from conftest import toy_table
from test_fusion import (EDGE_FLOATS, FLOATS, SENTENCE_IDS, cli_fuse, fuse_argv, make_indicators,
                         make_sentence, ts)

VECTOR_COLUMNS = {"ids": str, "values": (np.float64, (None, None)),
                  "spans": (np.int64, (None, 2))}


def export(path, matrix, ids, order=None):
    """``pvdm.export_vectors`` of a model whose paragraph rows are ``matrix``,
    row ``order[i]`` (by default ``i``) that of ``ids[i]``."""
    order = range(len(ids)) if order is None else order
    model = pvdm.PvdmModel(word_in=None, word_out=None, paragraph=matrix,
                           sentence_index=dict(zip(ids, order)), vocab=None, config=None)
    pvdm.export_vectors(model, str(path))
    return str(path)


def small_fuse_inputs(ids):
    """Sentences of bank a, one a month from January, and its indicators."""
    sentences = [make_sentence(sid, "a", ts(2010, 1 + i)) for i, sid in enumerate(ids)]
    return sentences, [make_indicators("a", 2010, q) for q in (1, 2)]


def write_table_twin(table, path):
    """The twin ``fusion.write_fused`` writes beside a fused file of ``table``."""
    corpus.write_twin(path, corpus.file_sha256(path), {
        "sentence_ids": list(table.sentence_ids), "bank_ids": list(table.bank_ids),
        "months": np.array(table.months, dtype=np.int64).reshape(-1, 2),
        "semantic": table.semantic, "numeric_raw": table.numeric_raw,
        "labels": np.asarray(table.labels, dtype=np.int64)})


def assert_spans_hold_the_values(path, spans, rows):
    """Span i of ``spans`` is the JSON text of ``rows[i]``, the last value on
    line i of the file ``path``."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    text = b"".join(lines)
    assert len(lines) == len(spans) == len(rows)
    for row, end, (offset, length) in zip(rows, np.cumsum([len(x) for x in lines]).tolist(),
                                          spans):
        assert text[offset:offset + length] == json.dumps(row).encode("ascii")
        assert offset + length == end - len(b"}\n")


def assert_tables_bit_equal(got, want):
    assert got.sentence_ids == want.sentence_ids and got.bank_ids == want.bank_ids
    assert got.months == want.months
    assert all(type(v) is int for month in got.months for v in month)
    for name in ("semantic", "numeric_raw", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# The format


def test_write_npz_gathers_rows_into_the_bytes_of_np_savez(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((300, 7))
    rows = rng.integers(0, 300, size=corpus.NPZ_ROW_CHUNK * 2 + 5)  # repeats, a short chunk
    corpus.write_npz(str(tmp_path / "got.npz"), {"a": np.arange(3), "g": (matrix, rows),
                                                 "none": (matrix, rows[:0])})
    np.savez(str(tmp_path / "want.npz"), a=np.arange(3), g=matrix[rows], none=matrix[:0])
    assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()


def test_write_vector_jsonl_spans_are_the_bytes_of_each_value(tmp_path):
    path = str(tmp_path / "v.jsonl")
    ids = ['q"\\[0]', "é€\U0001d11e", '"values": [', "\ud800"]
    vectors = [EDGE_FLOATS[i:i + 3 + i] for i in range(len(ids))]
    digest, spans = corpus.write_vector_jsonl(({"sentence_id": sid} for sid in ids),
                                              corpus.vector_texts(vectors), path, "values")
    assert digest == corpus.file_sha256(path)
    assert_spans_hold_the_values(path, spans, vectors)


@pytest.mark.parametrize("n_texts", [2, 4], ids=["a-text-short", "a-text-over"])
def test_write_vector_jsonl_pairs_each_row_with_one_text(tmp_path, n_texts):
    # a text too few or too many is an error, not a row or a text dropped
    rows = [{"sentence_id": sid} for sid in "abc"]
    with pytest.raises(ValueError, match="zip"):
        corpus.write_vector_jsonl(rows, corpus.vector_texts([[0.5]] * n_texts),
                                  str(tmp_path / "v.jsonl"), "values")


def test_a_twin_round_trips_ids_and_columns(tmp_path):
    path = export(tmp_path / "v.jsonl", np.array(EDGE_FLOATS).reshape(4, 3),
                  ['q"\\[0]', "é€\U0001d11e", "\ud800", ""])
    twin = corpus.read_twin(path, VECTOR_COLUMNS)
    assert twin["ids"] == ['q"\\[0]', "é€\U0001d11e", "\ud800", ""]
    assert twin["values"].tobytes() == np.array(EDGE_FLOATS).tobytes()
    with np.load(corpus.twin_path(path)) as data:  # plain numpy reads it
        assert data.files == ["sha256", "ids", "values", "spans"]


def flip_bit(raw, at, bit=2):
    return raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1:]


def damaged_twins():
    """name -> a change to the twin of vectors file ``path`` (its model ``matrix``, ``ids``)."""
    def rewrite(**columns):
        def apply(path, matrix, ids):
            base = {"ids": ids, "values": matrix,
                    "spans": corpus.read_twin(path, VECTOR_COLUMNS)["spans"]}
            corpus.write_twin(path, corpus.file_sha256(path), dict(base, **columns))
        return apply

    def replace_bytes(make):
        def apply(path, matrix, ids):
            twin = corpus.twin_path(path)
            with open(twin, "rb") as fh:
                raw = fh.read()
            with open(twin, "wb") as fh:
                fh.write(make(raw))
        return apply

    def stale(path, matrix, ids):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")

    def other_digest(path, matrix, ids):
        twin = corpus.twin_path(path)
        with np.load(twin) as data:
            entries = {name: data[name] for name in data.files}
        entries["sha256"] = np.frombuffer(corpus.file_sha256(twin), dtype=np.uint8)
        corpus.write_npz(twin, entries)

    return {
        "missing": lambda path, matrix, ids: os.remove(corpus.twin_path(path)),
        "stale": stale,
        "other-digest": other_digest,
        "truncated": replace_bytes(lambda raw: raw[:len(raw) // 2]),
        "bit-flipped": replace_bytes(  # inside the values entry's data
            lambda raw: flip_bit(raw, raw.index(np.arange(6.0).tobytes()))),
        "not-a-zip": replace_bytes(lambda raw: b"not a twin"),
        "float32-values": rewrite(values=np.ones((3, 2), dtype=np.float32)),
        "wide-spans": rewrite(spans=np.zeros((3, 3), dtype=np.int64)),
        "short-ids": rewrite(ids=["a", "b"]),
        "int-ids": rewrite(ids=[1, 2, 3]),
        "ids-not-json": rewrite(ids=np.frombuffer(b"\xff[", dtype=np.uint8)),
        "ids-an-object": rewrite(ids=np.frombuffer(b'{"a": "b"}', dtype=np.uint8)),
    }


@pytest.mark.parametrize("damage", sorted(damaged_twins()))
def test_read_twin_takes_no_missing_stale_unloadable_or_malformed_twin(tmp_path, damage):
    matrix, ids = np.arange(6.0).reshape(3, 2), ["a", "b", "c"]
    path = export(tmp_path / "v.jsonl", matrix, ids)
    assert corpus.read_twin(path, VECTOR_COLUMNS) is not None
    damaged_twins()[damage](path, matrix, ids)
    assert corpus.read_twin(path, VECTOR_COLUMNS) is None


# ---------------------------------------------------------------------------
# The readers, with and without a twin


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=6),
       dim=st.integers(min_value=1, max_value=5))
def test_twin_and_json_give_bit_equal_vectors_spans_and_tables(tmp_path_factory, data, n, dim):
    d = tmp_path_factory.mktemp("twin")
    ids = data.draw(st.lists(SENTENCE_IDS, min_size=n, max_size=n, unique=True))
    matrix = np.array(data.draw(st.lists(FLOATS, min_size=n * dim, max_size=n * dim)))
    order = data.draw(st.permutations(range(n)))
    vectors = export(d / "vectors.jsonl", matrix.reshape(n, dim), ids, order)
    rows, values, spans = pvdm.read_vectors(vectors)
    assert values.tobytes() == matrix.tobytes()
    # the twin's ids, in file order, and vectors are those read_vectors parses
    # from the JSON of a copy without a twin, which gives no spans
    json_rows, json_values, json_spans = pvdm.read_vectors(shutil.copy(vectors, str(d / "bare")))
    assert list(rows) == list(json_rows) and json_spans is None
    assert values.tobytes() == json_values.tobytes()
    assert spans.dtype == np.int64
    assert_spans_hold_the_values(vectors, spans.tolist(), values.tolist())
    # the sentences in another order than the vectors; bank b has no
    # indicators for quarter 2, so its sentences there are dropped
    months = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    sentences = [make_sentence(sid, "ab"[i % 2], ts(2010, month))
                 for i, (sid, month) in enumerate(zip(ids, months))]
    recs = [make_indicators(b, 2010, q, base=0.5 * q) for b in "ab" for q in (1, 2)
            if (b, q) != ("b", 2)]
    events = [DistressEvent("a", date(2010, 2, 1), date(2010, 4, 30), "state_aid")]
    fused = str(d / "fused.jsonl")
    if not fusion.align(sentences, recs)[0]:
        return
    fusion.write_fused(sentences, vectors, (rows, values, spans), recs, events, fused)
    twinned = [fusion.read_sample_table(fused, keep) for keep in (True, False)]
    os.remove(corpus.twin_path(fused))
    for keep, table in zip((True, False), twinned):
        assert_tables_bit_equal(table, fusion.read_sample_table(fused, keep))
    want = [matrix.reshape(n, dim)[order[ids.index(sid)]] for sid in twinned[0].sentence_ids]
    assert twinned[0].semantic.tobytes() == np.array(want).tobytes()


def test_without_keep_semantic_the_twin_reader_reads_no_semantic_entry(tmp_path, monkeypatch):
    # the semantic column that train_folds, numeric_only and re-embedding
    # sweeps never read is neither decoded from JSON nor read from the twin
    table, _ = toy_table(n_banks=5, n_months=4, sem_dim=6)
    path = str(tmp_path / "fused.jsonl")
    fusion.write_sample_table(table, path)
    write_table_twin(table, path)
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recording_getitem(self, key):
        read.append(key)
        return getitem(self, key)

    def no_json(*args, **kwargs):
        raise AssertionError("the JSON was read")

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording_getitem)
    monkeypatch.setattr(fusion, "read_jsonl", no_json)
    got = fusion.read_sample_table(path, keep_semantic=False)
    assert "semantic" not in read and "labels" in read
    assert_tables_bit_equal(got, fusion.SampleTable(
        sentence_ids=table.sentence_ids, bank_ids=table.bank_ids, months=table.months,
        semantic=None, numeric_raw=table.numeric_raw, labels=table.labels))
    read.clear()
    assert_tables_bit_equal(fusion.read_sample_table(path), table)
    assert "semantic" in read


def test_a_twin_whose_rows_fail_the_checks_leaves_the_reading_to_the_json(tmp_path):
    # the JSON is the record: a row the twin's checks reject is read from it
    table, _ = toy_table(n_banks=5, n_months=4, sem_dim=6)
    path = str(tmp_path / "fused.jsonl")
    fusion.write_sample_table(table, path)
    for column, value in (("labels", 2), ("labels", -1), ("semantic", np.nan),
                          ("numeric_raw", np.inf), ("months", (2010, 13)), ("months", (-1, 1))):
        bad = replace(table, months=list(table.months), semantic=table.semantic.copy(),
                      numeric_raw=table.numeric_raw.copy(), labels=table.labels.copy())
        getattr(bad, column)[3] = value
        write_table_twin(bad, path)
        assert_tables_bit_equal(fusion.read_sample_table(path), table)
    # fuse takes no vectors twin that repeats an id or holds a NaN, and
    # writes the fused file from the JSON, and no fused twin
    matrix = np.arange(6.0).reshape(3, 2)
    vectors = export(tmp_path / "v.jsonl", matrix, ["a", "b", "c"])
    sentences, recs = small_fuse_inputs(["a", "b", "c"])
    want = cli_fuse(sentences, vectors, recs, [], str(tmp_path / "want.jsonl"))
    spans = corpus.read_twin(vectors, VECTOR_COLUMNS)["spans"]
    for ids, values in ((["a", "b", "c"], np.where(matrix > 4, np.nan, matrix)),
                        (["a", "b", "a"], matrix)):
        corpus.write_twin(vectors, corpus.file_sha256(vectors),
                          {"ids": ids, "values": values, "spans": spans})
        assert pvdm.read_vectors(vectors)[2] is None
        out = str(tmp_path / "fused-from-vectors.jsonl")
        assert cli_fuse(sentences, vectors, recs, [], out) == want
        assert not os.path.exists(corpus.twin_path(out))


def test_a_bad_row_in_file_and_twin_raises_the_json_error(tmp_path, capsys):
    table, _ = toy_table(n_banks=5, n_months=4, sem_dim=6)
    table.labels[2] = 2
    path = str(tmp_path / "fused.jsonl")
    fusion.write_sample_table(table, path)
    write_table_twin(table, path)
    with pytest.raises(ValueError, match=r"fused\.jsonl:3: label must be the integer 0 or 1, "
                                         r"got 2"):
        fusion.read_sample_table(path)
    # fuse reads no vector from a twin whose file fails the checks: the
    # JSON's error ends the command
    matrix = np.arange(6.0).reshape(3, 2)
    matrix[1, 0] = np.nan
    vectors = export(tmp_path / "v.jsonl", matrix, ["a", "b", "c"])
    sentences, recs = small_fuse_inputs(["a", "b", "c"])
    out = str(tmp_path / "fused-from-vectors.jsonl")
    assert cli.main(fuse_argv(sentences, vectors, recs, [], out)) == 1
    assert capsys.readouterr().err == "error: %s:2: values holds a NaN or infinite entry\n" % (
        vectors)
    vectors = str(tmp_path / "w.jsonl")
    ids = ["a", "b", "a"]
    digest, spans = corpus.write_vector_jsonl(({"sentence_id": sid} for sid in ids),
                                              corpus.vector_texts([[0.5]] * 3), vectors, "values")
    corpus.write_twin(vectors, digest,
                      {"ids": ids, "values": np.full((3, 1), 0.5),
                       "spans": np.array(spans, dtype=np.int64)})
    assert cli.main(fuse_argv(sentences, vectors, recs, [], out)) == 1
    assert capsys.readouterr().err == "error: %s:3: duplicate sentence_id 'a'\n" % vectors
    assert not os.path.exists(out)


def test_fused_twin_is_written_only_beside_vectors_taken_from_a_twin(tmp_path):
    ids = ["s%d" % i for i in range(4)]
    vectors = export(tmp_path / "v.jsonl", np.ones((4, 3)), ids)
    sentences, recs = small_fuse_inputs(ids)
    fused = cli_fuse(sentences, vectors, recs, [], str(tmp_path / "fused.jsonl"))
    assert os.path.exists(corpus.twin_path(str(tmp_path / "fused.jsonl")))
    copy = str(tmp_path / "copy.jsonl")
    shutil.copy(vectors, copy)
    assert cli_fuse(sentences, copy, recs, [], str(tmp_path / "fused2.jsonl")) == fused
    assert not os.path.exists(corpus.twin_path(str(tmp_path / "fused2.jsonl")))
