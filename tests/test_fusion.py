"""Alignment, labeling, normalization, folds and fused-dataset format tests."""

import _pyio
import contextlib
import io
import json
import os
import shutil
import tempfile
from datetime import date, datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankdistress import cli, corpus, fusion, pvdm
from bankdistress.corpus import Sentence
from bankdistress.fusion import (
    ARM_ROW_CHUNK,
    NUMERIC_DIM,
    DistressEvent,
    QuarterlyIndicators,
    align,
    apply_normalization,
    assign_folds,
    build_sample_table,
    fit_normalization,
    label,
    month_of,
    project_arm,
    quarter_of,
    read_events,
    read_indicators,
    read_sample_table,
    write_events,
    write_fused,
    write_indicators,
    write_sample_table,
)
from conftest import json_sample_lines


def ts(year, month, day=15):
    return datetime(year, month, day, 12, 0, 0, tzinfo=timezone.utc)


def make_sentence(sid, bank_id, when):
    return Sentence(sentence_id=sid, bank_id=bank_id, published_at=when,
                    tokens=("bank", "news"))


def make_indicators(bank_id, year, quarter, base=0.0):
    return QuarterlyIndicators(
        bank_id=bank_id, year=year, quarter=quarter,
        values=np.arange(NUMERIC_DIM, dtype=float) + base,
    )


def test_quarter_and_month_of():
    assert quarter_of(date(2010, 1, 31)) == (2010, 1)
    assert quarter_of(date(2010, 12, 1)) == (2010, 4)
    assert quarter_of(ts(2011, 7)) == (2011, 3)
    assert month_of(ts(2011, 7)) == (2011, 7)


# ---------------------------------------------------------------------------
# Validation


def test_indicator_record_validation():
    with pytest.raises(ValueError):
        QuarterlyIndicators("a", 2010, 1, np.zeros(5))
    with pytest.raises(ValueError):
        QuarterlyIndicators("a", 2010, 1, np.full(NUMERIC_DIM, np.nan))
    for bad_quarter in (0, 5, 7):
        with pytest.raises(ValueError, match="quarter"):
            QuarterlyIndicators("a", 2010, bad_quarter, np.zeros(NUMERIC_DIM))


def test_event_validation():
    with pytest.raises(ValueError):
        DistressEvent("a", date(2010, 5, 1), date(2010, 4, 1), "state_aid")
    with pytest.raises(ValueError):
        DistressEvent("a", date(2010, 4, 1), date(2010, 5, 1), "hiccup")


# ---------------------------------------------------------------------------
# Alignment and labels


def test_align_matches_and_drops():
    sents = [
        make_sentence("s1", "a", ts(2010, 2)),
        make_sentence("s2", "a", ts(2010, 8)),   # no Q3 record
        make_sentence("s3", "b", ts(2010, 2)),   # bank b has no records at all
    ]
    recs = [make_indicators("a", 2010, 1)]
    aligned, report = align(sents, recs)
    assert [(s.sentence_id, r.bank_id) for s, r in aligned] == [("s1", "a")]
    assert report.n_dropped == 2
    assert report.dropped_by_bank == {"a": 1, "b": 1}
    assert report.banks_fully_dropped == ["b"]


def test_label_window_inclusive():
    events = [DistressEvent("a", date(2010, 3, 10), date(2010, 6, 20), "state_aid")]
    assert label(make_sentence("s", "a", ts(2010, 3, 10)), events) == 1
    assert label(make_sentence("s", "a", ts(2010, 6, 20)), events) == 1
    assert label(make_sentence("s", "a", ts(2010, 3, 9)), events) == 0
    assert label(make_sentence("s", "a", ts(2010, 6, 21)), events) == 0
    assert label(make_sentence("s", "b", ts(2010, 4, 1)), events) == 0


# ---------------------------------------------------------------------------
# Normalization


def test_fit_normalization_population_std():
    values = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 2.0]])
    stats = fit_normalization(values, source_folds=(0, 1))
    np.testing.assert_allclose(stats.mean, [3.0, 2.0])
    np.testing.assert_allclose(stats.std, [np.sqrt(8.0 / 3.0), 0.0])
    assert list(stats.degenerate) == [False, True]
    assert stats.source_folds == (0, 1)


def test_fit_normalization_needs_two_samples():
    with pytest.raises(ValueError):
        fit_normalization(np.ones((1, 3)))


def test_apply_normalization_zscore_and_degenerate():
    stats = fit_normalization(np.array([[0.0, 7.0], [2.0, 7.0]]))
    z = apply_normalization(stats, np.array([[2.0, 7.0], [0.0, 100.0]]))
    np.testing.assert_allclose(z[:, 0], [1.0, -1.0])
    np.testing.assert_allclose(z[:, 1], [0.0, 0.0])  # degenerate column
    one = apply_normalization(stats, np.array([1.0, 7.0]))
    np.testing.assert_allclose(one, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Arms


def test_project_arm():
    semantic = np.arange(30.0).reshape(5, 6)
    rows = np.array([4, 1, 2])
    numeric = -np.arange(12.0).reshape(3, 4)  # the z-scored block of those rows
    combined = project_arm(semantic, numeric, rows, "combined")
    np.testing.assert_array_equal(combined, np.hstack([semantic[rows], numeric]))
    np.testing.assert_array_equal(project_arm(semantic, numeric, rows, "text_only"),
                                  semantic[rows])
    assert project_arm(semantic, numeric, rows, "numeric_only") is numeric
    assert combined.flags.c_contiguous and combined.shape == (3, 10)
    # a combined block longer than one gathering chunk
    many = np.arange(ARM_ROW_CHUNK * 2 + 3) % 5
    np.testing.assert_array_equal(
        project_arm(semantic, np.zeros((len(many), 4)), many, "combined")[:, :6],
        semantic[many])
    with pytest.raises(ValueError):
        project_arm(semantic, numeric, rows, "both")


# ---------------------------------------------------------------------------
# Folds


def test_assign_folds_partition():
    banks = ["b%02d" % i for i in range(13)]
    folds = assign_folds(banks * 3, k=5, seed=11)
    assert sorted(folds.fold_of) == banks
    sizes = [len(folds.banks_in(f)) for f in range(5)]
    assert sum(sizes) == 13
    assert max(sizes) - min(sizes) <= 1


def test_assign_folds_seed_determinism():
    banks = ["b%02d" % i for i in range(10)]
    a = assign_folds(banks, k=5, seed=1)
    b = assign_folds(banks, k=5, seed=1)
    c = assign_folds(banks, k=5, seed=2)
    assert a.fold_of == b.fold_of
    assert a.fold_of != c.fold_of


def test_assign_folds_too_few_banks():
    with pytest.raises(ValueError):
        assign_folds(["a", "b", "c"], k=5)


# ---------------------------------------------------------------------------
# Sample table and file formats


def small_dataset():
    sents, vectors = [], {}
    rng = np.random.default_rng(0)
    for b in ("a", "b"):
        for month in (1, 2, 4):
            sid = "art:%s:%d" % (b, month)
            sents.append(make_sentence(sid, b, ts(2010, month)))
            vectors[sid] = rng.normal(size=6)
    recs = [make_indicators(b, 2010, q, base=ord(b)) for b in ("a", "b") for q in (1, 2)]
    events = [DistressEvent("a", date(2010, 2, 1), date(2010, 2, 28), "bankruptcy_default")]
    return sents, vectors, recs, events


def test_build_sample_table():
    sents, vectors, recs, events = small_dataset()
    table, report = build_sample_table(sents, vectors, recs, events)
    assert len(table) == 6
    assert report.n_dropped == 0
    assert table.semantic.shape == (6, 6)
    assert table.semantic_dim == 6
    assert table.numeric_raw.shape == (6, NUMERIC_DIM)
    by_id = dict(zip(table.sentence_ids, table.labels))
    assert by_id["art:a:2"] == 1
    assert by_id["art:a:1"] == 0
    assert by_id["art:b:2"] == 0
    assert abs(table.labels.mean() - 1.0 / 6.0) < 1e-12


def test_build_sample_table_missing_vector():
    sents, vectors, recs, events = small_dataset()
    del vectors["art:a:1"]
    with pytest.raises(ValueError, match="no semantic vector for sentence 'art:a:1'"):
        build_sample_table(sents, vectors, recs, events)


def test_sample_table_round_trip(tmp_path):
    sents, vectors, recs, events = small_dataset()
    table, _ = build_sample_table(sents, vectors, recs, events)
    path = str(tmp_path / "fused.jsonl")
    write_sample_table(table, path)
    loaded = read_sample_table(path)
    assert loaded.sentence_ids == table.sentence_ids
    assert loaded.bank_ids == table.bank_ids
    assert loaded.months == table.months
    assert loaded.semantic_dim == table.semantic_dim
    np.testing.assert_allclose(loaded.semantic, table.semantic)
    np.testing.assert_allclose(loaded.numeric_raw, table.numeric_raw)
    np.testing.assert_array_equal(loaded.labels, table.labels)


def test_indicator_csv_round_trip(tmp_path):
    recs = [make_indicators("a", 2010, 1, base=0.25), make_indicators("b", 2011, 4, base=-3.5)]
    path = str(tmp_path / "indicators.csv")
    write_indicators(recs, path)
    loaded = read_indicators(path)
    assert [(r.bank_id, r.year, r.quarter) for r in loaded] == [("a", 2010, 1), ("b", 2011, 4)]
    for got, want in zip(loaded, recs):
        np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("quarter", ["2010Q7", "2010Q0", "2010-3", "2010Q", "10Q1", "2010Q12", ""])
def test_read_indicators_rejects_malformed_quarter(tmp_path, quarter):
    path = str(tmp_path / "indicators.csv")
    write_indicators([make_indicators("a", 2010, 1), make_indicators("b", 2010, 2)], path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("b,2010Q2,", "b,%s," % quarter))
    with pytest.raises(ValueError, match=r"indicators\.csv:3: quarter"):
        read_indicators(path)


def test_read_indicators_rejects_short_and_non_numeric_rows(tmp_path):
    path = str(tmp_path / "indicators.csv")
    write_indicators([make_indicators("a", 2010, 1)], path)
    with open(path, encoding="utf-8") as fh:
        header, row = fh.read().splitlines()
    for bad_row, message in ((row.rsplit(",", 1)[0], "fewer than 12"),
                             (row.rsplit(",", 1)[0] + ",abc", "abc")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + bad_row + "\n")
        with pytest.raises(ValueError, match=r"indicators\.csv:2: .*%s" % message):
            read_indicators(path)


def test_event_csv_round_trip(tmp_path):
    events = [
        DistressEvent("a", date(2009, 10, 1), date(2010, 3, 31), "state_aid"),
        DistressEvent("b", date(2012, 1, 15), date(2012, 1, 15), "distressed_merger"),
    ]
    path = str(tmp_path / "events.csv")
    write_events(events, path)
    assert read_events(path) == events


def test_read_sample_table_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        read_sample_table(str(path))


@pytest.mark.parametrize("edit,fragment", [
    (lambda row: dict(row, label=2), "label must be the integer 0 or 1, got 2"),
    (lambda row: dict(row, label=-1), "label must be the integer 0 or 1, got -1"),
    (lambda row: dict(row, label=1.7), "label must be the integer 0 or 1, got 1.7"),
    (lambda row: dict(row, label=False), "label must be the integer 0 or 1, got False"),
    (lambda row: dict(row, semantic=row["semantic"][:2] + [float("nan")] + row["semantic"][3:]),
     "semantic holds a NaN or infinite entry"),
    (lambda row: dict(row, semantic=row["semantic"][:-1] + [True]),
     "semantic must be a list of numbers"),
    (lambda row: dict(row, semantic="0.5"), "semantic must be a list of numbers"),
    (lambda row: dict(row, semantic=row["semantic"] + [0.0]),
     "semantic has 7 entries where the first row has 6"),
    (lambda row: dict(row, numeric_raw=row["numeric_raw"] + [1.0]),
     "numeric_raw has 13 entries, expected 12"),
    (lambda row: dict(row, numeric_raw=row["numeric_raw"][:5] + ["x"]),
     "numeric_raw must be a list of numbers"),
], ids=["label-2", "label-negative", "label-fraction", "label-bool", "semantic-nan",
        "semantic-bool-entry", "semantic-string", "semantic-long", "numeric-raw-long",
        "numeric-raw-string"])
def test_read_sample_table_rejects_malformed_rows(tmp_path, edit, fragment):
    sents, vectors, recs, events = small_dataset()
    table, _ = build_sample_table(sents, vectors, recs, events)
    path = tmp_path / "fused.jsonl"
    write_sample_table(table, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps(edit(json.loads(lines[2])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # a semantic column that no run reads is checked as strictly as a kept one
    for keep_semantic in (True, False):
        with pytest.raises(ValueError, match=r"fused\.jsonl:3: ") as info:
            read_sample_table(str(path), keep_semantic=keep_semantic)
        assert fragment in str(info.value)


def test_read_sample_table_rejects_an_empty_semantic_vector(tmp_path):
    path = tmp_path / "fused.jsonl"
    row = {"sentence_id": "s", "bank_id": "a", "month": "2010-01", "label": 0,
           "semantic": [], "numeric_raw": [0.0] * NUMERIC_DIM}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    for keep_semantic in (True, False):
        with pytest.raises(ValueError, match=r"fused\.jsonl:1: semantic is empty"):
            read_sample_table(str(path), keep_semantic=keep_semantic)


def test_read_sample_table_without_the_semantic_column(tmp_path):
    sents, vectors, recs, events = small_dataset()
    table, _ = build_sample_table(sents, vectors, recs, events)
    path = str(tmp_path / "fused.jsonl")
    write_sample_table(table, path)
    read = read_sample_table(path, keep_semantic=False)
    assert read.semantic is None
    assert read.sentence_ids == table.sentence_ids and read.bank_ids == table.bank_ids
    assert read.months == table.months
    np.testing.assert_array_equal(read.numeric_raw, table.numeric_raw)
    np.testing.assert_array_equal(read.labels, table.labels)


# ---------------------------------------------------------------------------
# write_fused: the fused file with each vector's text copied from the vectors file


def fuse_both_ways(sentences, vectors_path, recs, events, d):
    """The bytes write_fused writes, and the bytes json.dumps writes for the
    table of the same inputs, its oracle."""
    fused = os.path.join(d, "fused.jsonl")
    rows, values, spans = pvdm.read_vectors(vectors_path)
    write_fused(sentences, vectors_path, (rows, values, spans), recs, events, fused)
    table, _ = build_sample_table(sentences, {sid: values[row] for sid, row in rows.items()},
                                  recs, events)
    with open(fused, "rb") as fh:
        return fh.read(), json_sample_lines(table)


def fuse_argv(sentences, vectors_path, recs, events, out):
    """``bankdistress fuse`` flags for ``vectors_path`` and these sentences,
    indicators and events, which are written beside ``out``."""
    d = os.path.dirname(out)
    inputs = {name: os.path.join(d, name)
              for name in ("sentences.jsonl", "indicators.csv", "events.csv")}
    corpus.write_sentences(sentences, inputs["sentences.jsonl"])
    write_indicators(recs, inputs["indicators.csv"])
    write_events(events, inputs["events.csv"])
    return ["fuse", "--sentences", inputs["sentences.jsonl"], "--vectors", vectors_path,
            "--indicators", inputs["indicators.csv"], "--events", inputs["events.csv"],
            "--out", out]


def cli_fuse(sentences, vectors_path, recs, events, out):
    """The bytes ``bankdistress fuse`` writes to ``out`` (see ``fuse_argv``)."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(fuse_argv(sentences, vectors_path, recs, events, out)) == 0
    with open(out, "rb") as fh:
        return fh.read()


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


def assert_the_twin_of_the_twin_path(fused, twinned):
    """The twin beside the fused file ``fused``, written from vectors read
    from the JSON, holds the bytes of the twin beside ``twinned``, the fused
    file of the same vectors taken from a twin; and ``read_sample_table``
    takes it, without reading the JSON, for the table the JSON gives."""
    with open(corpus.twin_path(fused), "rb") as got, open(corpus.twin_path(twinned),
                                                          "rb") as want:
        assert got.read() == want.read()
    with mock.patch.object(fusion, "read_jsonl", side_effect=AssertionError("JSON read")):
        from_twin = read_sample_table(fused)
    bare = shutil.copy(fused, fused + ".bare")  # the same bytes, with no twin beside them
    assert_tables_bit_equal(from_twin, read_sample_table(bare))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1e-5,
               3.0, -7.0, 2.0 ** 53, 1.7976931348623157e308]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
SENTENCE_IDS = st.text(alphabet=st.sampled_from('a\u00e9\u20ac\U0001d11e"\\[] :,{}')
                       | st.characters(), min_size=1, max_size=8)


def assert_fused_matches_the_oracle(ids, months, matrix, order):
    """write_fused of an export of ``matrix`` (row ``order[i]`` for ids[i])
    writes the oracle's bytes, or refuses a set where nothing aligns."""
    sentences = [make_sentence(sid, "ab"[i % 2], ts(2010, month))
                 for i, (sid, month) in enumerate(zip(ids, months))]
    # quarter 2 of bank b has no indicators, so its sentences are dropped
    recs = [make_indicators(b, 2010, q, base=0.1 * q) for b in "ab" for q in (1, 2)
            if (b, q) != ("b", 2)]
    events = [DistressEvent("a", date(2010, 2, 1), date(2010, 4, 30), "state_aid")]
    model = pvdm.PvdmModel(word_in=None, word_out=None, paragraph=matrix,
                           sentence_index=dict(zip(ids, order)), vocab=None, config=None)
    with tempfile.TemporaryDirectory() as d:
        vectors_path = os.path.join(d, "vectors.jsonl")
        pvdm.export_vectors(model, vectors_path)
        if not align(sentences, recs)[0]:
            with pytest.raises(ValueError, match="no aligned samples"):
                write_fused(sentences, vectors_path, pvdm.read_vectors(vectors_path),
                            recs, events, os.path.join(d, "fused.jsonl"))
            return
        fused, oracle = fuse_both_ways(sentences, vectors_path, recs, events, d)
    assert fused == oracle


def test_write_fused_writes_the_oracle_bytes_of_edge_floats():
    ids = ['q"\\[0]', "\u00e9\u20ac\U0001d11e", "[]", "\\"]
    matrix = np.array(EDGE_FLOATS).reshape(4, 3)
    assert_fused_matches_the_oracle(ids, [1, 2, 3, 5], matrix, [2, 0, 3, 1])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=6),
       dim=st.integers(min_value=1, max_value=5))
def test_write_fused_writes_the_oracle_bytes_of_an_export(data, n, dim):
    ids = data.draw(st.lists(SENTENCE_IDS, min_size=n, max_size=n, unique=True))
    months = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    values = data.draw(st.lists(FLOATS, min_size=n * dim, max_size=n * dim))
    order = data.draw(st.permutations(range(n)))
    assert_fused_matches_the_oracle(ids, months, np.array(values).reshape(n, dim), order)


def test_write_fused_of_vectors_read_from_the_json_writes_the_oracle_bytes_and_the_same_twin(
        tmp_path):
    # without a vectors twin, read_vectors parses the JSON and gives no spans;
    # write_fused then prints each row's floats from the matrix it parsed
    ids = ['q"\\[0]', "\u00e9\u20ac\U0001d11e", "[]", "\\"]
    matrix = np.array(EDGE_FLOATS).reshape(4, 3)
    sentences = [make_sentence(sid, "ab"[i % 2], ts(2010, 1 + 2 * i)) for i, sid in enumerate(ids)]
    recs = [make_indicators(b, 2010, q, base=q) for b in "ab" for q in (1, 2, 3)]
    events = [DistressEvent("a", date(2010, 2, 1), date(2010, 4, 30), "state_aid")]
    model = pvdm.PvdmModel(word_in=None, word_out=None, paragraph=matrix,
                           sentence_index={sid: i for i, sid in enumerate(ids)}, vocab=None,
                           config=None)
    vectors_path, fused = str(tmp_path / "vectors.jsonl"), str(tmp_path / "fused.jsonl")
    pvdm.export_vectors(model, vectors_path)
    twinned = str(tmp_path / "twinned.jsonl")
    write_fused(sentences, vectors_path, pvdm.read_vectors(vectors_path), recs, events, twinned)
    os.remove(corpus.twin_path(vectors_path))
    vectors = pvdm.read_vectors(vectors_path)
    assert vectors[2] is None
    labels, report = write_fused(sentences, vectors_path, vectors, recs, events, fused)
    table, want_report = build_sample_table(sentences, dict(zip(ids, matrix)), recs, events)
    with open(fused, "rb") as fh:
        assert fh.read() == json_sample_lines(table)
    assert_the_twin_of_the_twin_path(fused, twinned)
    np.testing.assert_array_equal(labels, table.labels)
    assert report == want_report


def test_write_fused_ends_its_lines_as_the_twinless_path_does_where_the_platform_writes_crlf(
        tmp_path, monkeypatch):
    # a text file opened without newline="" ends each line in os.linesep;
    # _pyio.open reads os.linesep when it opens a file, so with "\r\n" there
    # the files are written as on a platform whose line separator is CRLF
    monkeypatch.setattr(os, "linesep", "\r\n")
    for module in (corpus, fusion):
        monkeypatch.setattr(module, "open", _pyio.open, raising=False)
    ids = ["a0", "a1", "a2"]
    sentences = [make_sentence(sid, "a", ts(2010, 1 + i)) for i, sid in enumerate(ids)]
    recs = [make_indicators("a", 2010, 1)]
    model = pvdm.PvdmModel(word_in=None, word_out=None, paragraph=np.arange(6.0).reshape(3, 2),
                           sentence_index={sid: i for i, sid in enumerate(ids)}, vocab=None,
                           config=None)
    vectors_path = str(tmp_path / "vectors.jsonl")
    pvdm.export_vectors(model, vectors_path)
    fused, oracle = fuse_both_ways(sentences, vectors_path, recs, [], str(tmp_path))
    assert b"\r" not in fused and fused == oracle
    # the twin's digest, taken as the file was written, is that of the file
    with np.load(corpus.twin_path(str(tmp_path / "fused.jsonl"))) as twin:
        assert twin["sha256"].tobytes() == corpus.file_sha256(str(tmp_path / "fused.jsonl"))


# Hand-written rows: CRLF endings, a blank line, leading blanks, values
# before sentence_id, nested "values" keys in other fields, int and exponent
# numerals, [1,2] spacing, and raw multi-byte ids before and after values.
HAND_WRITTEN = [
    '{"values": [1, 2.5, -3], "sentence_id": "s0"}',
    "",
    '   {"sentence_id": "s1", "values": [1e-3,2E2,-0], "extra": {"values": [9, 9, 9]}}',
    '\t{"note": {"values": "x"}, "sentence_id": "s2", "values":[ 4 , 5.0 ,6e0 ]}',
    '{"sentence_id": "b\u00e4nk\u20ac\U0001d11e", "values": [7,8,1E+1]}',
    '{"values": [0.5, 0.25, 0.125], "sentence_id": "\u00fc\u00fc"}',
]


def test_fuse_writes_hand_written_numerals_as_the_oracle_does(tmp_path):
    # without a twin, fuse parses the vectors and prints the floats again:
    # the fused file and twin of an export of the same vectors
    vectors_path = tmp_path / "vectors.jsonl"
    vectors_path.write_bytes("\r\n".join(HAND_WRITTEN + [""]).encode("utf-8"))
    ids = ["s0", "s1", "s2", "b\u00e4nk\u20ac\U0001d11e", "\u00fc\u00fc"]
    sentences = [make_sentence(sid, "ab"[i % 2], ts(2010, 1 + i)) for i, sid in enumerate(ids)]
    recs = [make_indicators(b, 2010, q, base=q) for b in "ab" for q in (1, 2)]
    events = [DistressEvent("a", date(2010, 2, 1), date(2010, 4, 30), "state_aid")]
    fused = cli_fuse(sentences, str(vectors_path), recs, events, str(tmp_path / "fused.jsonl"))
    values = [[1.0, 2.5, -3.0], [1e-3, 200.0, 0.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0],
              [0.5, 0.25, 0.125]]
    export = str(tmp_path / "export.jsonl")
    pvdm.export_vectors(pvdm.PvdmModel(word_in=None, word_out=None, paragraph=np.array(values),
                                       sentence_index={sid: i for i, sid in enumerate(ids)},
                                       vocab=None, config=None), export)
    twinned = str(tmp_path / "twinned.jsonl")
    assert cli_fuse(sentences, export, recs, events, twinned) == fused
    assert_the_twin_of_the_twin_path(str(tmp_path / "fused.jsonl"), twinned)
    table, _ = build_sample_table(sentences, dict(zip(ids, np.array(values))), recs, events)
    assert fused == json_sample_lines(table)
    lines = fused.decode("utf-8").splitlines()
    assert len(lines) == len(values)
    for line, row in zip(lines, values):
        assert '"semantic": %s, "sentence_id": ' % json.dumps(row) in line
    got = read_sample_table(str(tmp_path / "fused.jsonl"))
    assert got.sentence_ids == ids
    assert got.semantic.tobytes() == np.array(values).tobytes()


def respell(value, how):
    """One float of a vectors row as another numeral that parses back to it."""
    if how == "int" and value == int(value) and repr(value) != "-0.0":
        return "%d" % value  # json reads an int; VectorRows makes it this float
    if how == "exponent":
        return "%.17e" % value
    if how == "EXPONENT":
        return "%.17E" % value
    if how == "e0" and "e" not in repr(value):
        return repr(value) + "e0"
    return repr(value)


@st.composite
def respelled_rows(draw, ids, matrix):
    """The lines of a vectors file holding ``matrix``'s rows for ``ids``,
    spelled as the JSON of no export is: other separators and blanks,
    either key order, other numerals, CRLF or LF, and blank lines."""
    blanks = st.sampled_from(["", " ", "  ", "\t", " \t "])
    lines = []
    for sid, row in zip(ids, matrix.tolist()):
        numerals = [respell(v, draw(st.sampled_from(["repr", "int", "exponent", "EXPONENT",
                                                     "e0"]))) for v in row]
        comma = draw(blanks) + "," + draw(blanks)
        values = "[%s%s%s]" % (draw(blanks), comma.join(numerals), draw(blanks))
        colon = draw(blanks) + ":" + draw(blanks)
        pairs = ['"sentence_id"%s%s' % (colon, json.dumps(sid)),
                 '"values"%s%s' % (colon, values)]
        if draw(st.booleans()):
            pairs.reverse()
        lines.append("%s{%s%s}%s" % (draw(blanks), draw(blanks), comma.join(pairs),
                                     draw(blanks)))
        lines.extend(draw(st.lists(blanks, max_size=2)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5),
       dim=st.integers(min_value=1, max_value=4))
def test_fuse_of_a_respelled_vectors_file_writes_the_bytes_of_the_export(data, n, dim):
    ids = data.draw(st.lists(SENTENCE_IDS, min_size=n, max_size=n, unique=True))
    matrix = np.array(data.draw(st.lists(FLOATS, min_size=n * dim, max_size=n * dim)))
    matrix = matrix.reshape(n, dim)
    sentences = [make_sentence(sid, "ab"[i % 2], ts(2010, 1 + i % 6)) for i, sid in
                 enumerate(ids)]
    recs = [make_indicators(b, 2010, q, base=0.1 * q) for b in "ab" for q in (1, 2)]
    events = [DistressEvent("a", date(2010, 2, 1), date(2010, 4, 30), "state_aid")]
    text = data.draw(respelled_rows(ids, matrix))
    with tempfile.TemporaryDirectory() as d:
        export = os.path.join(d, "export.jsonl")
        pvdm.export_vectors(pvdm.PvdmModel(word_in=None, word_out=None, paragraph=matrix,
                                           sentence_index={sid: i for i, sid in enumerate(ids)},
                                           vocab=None, config=None), export)
        respelled = os.path.join(d, "respelled.jsonl")
        with open(respelled, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        from_twin = cli_fuse(sentences, export, recs, events, os.path.join(d, "twinned.jsonl"))
        assert cli_fuse(sentences, respelled, recs, events,
                        os.path.join(d, "twinless.jsonl")) == from_twin
        assert_the_twin_of_the_twin_path(os.path.join(d, "twinless.jsonl"),
                                         os.path.join(d, "twinned.jsonl"))
