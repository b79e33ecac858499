"""Alignment of sentences with quarterly indicators, labels, folds and fusion."""

import csv
import re
from dataclasses import dataclass
from datetime import date

import numpy as np

from .corpus import (VectorRows, count_rows, read_jsonl, read_twin, replacing, require_str,
                     vector_texts, write_twin, write_vector_jsonl)

NUMERIC_DIM = 12

INDICATOR_NAMES = (
    "capital_to_asset",
    "interest_to_liabilities",
    "reserves_to_asset",
    "mortgages_to_loans_d4",
    "securities_to_liabilities_d4",
    "financial_assets_to_gdp",
    "house_price_gap",
    "mip_international_investment_position",
    "private_debt",
    "government_bond_yield_d4",
    "credit_to_gdp",
    "credit_to_gdp_d12",
)

ARMS = ("text_only", "numeric_only", "combined")
TEXT_ARMS = ("text_only", "combined")  # the arms whose inputs hold sentence vectors

EVENT_KINDS = ("bankruptcy_default", "state_aid", "distressed_merger")
EVENT_COLUMNS = ("bank_id", "start_date", "end_date", "kind")

QUARTER_PATTERN = re.compile(r"\d{4}Q[1-4]")  # e.g. 2010Q3, as write_indicators writes it
MONTH_PATTERN = re.compile(r"\d{4}-(0[1-9]|1[0-2])")  # e.g. 2010-07, in write_sample_table


@dataclass(frozen=True)
class QuarterlyIndicators:
    bank_id: str
    year: int
    quarter: int  # 1..4
    values: np.ndarray

    def __post_init__(self):
        if self.quarter not in (1, 2, 3, 4):
            raise ValueError("quarter must be 1..4, got %r" % (self.quarter,))
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (NUMERIC_DIM,):
            raise ValueError("expected %d indicator values, got %s" % (NUMERIC_DIM, vals.shape))
        if not np.isfinite(vals).all():
            raise ValueError("indicator values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DistressEvent:
    bank_id: str
    start_date: date
    end_date: date
    kind: str

    def __post_init__(self):
        if self.start_date > self.end_date:
            raise ValueError("event window ends before it starts")
        if self.kind not in EVENT_KINDS:
            raise ValueError("unknown event kind %r" % self.kind)


@dataclass
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray  # bool mask of zero-variance columns
    source_folds: tuple


@dataclass
class FoldAssignment:
    fold_of: dict  # bank_id -> fold index

    def banks_in(self, fold):
        return sorted(b for b, f in self.fold_of.items() if f == fold)


@dataclass
class DropReport:
    n_dropped: int
    dropped_by_bank: dict
    banks_fully_dropped: list


def quarter_of(dt):
    return (dt.year, (dt.month - 1) // 3 + 1)


def month_of(dt):
    return (dt.year, dt.month)


def align(sentences, indicators):
    """Match each sentence to its bank's record for the publication quarter.

    Sentences without a (bank, quarter) indicator record are dropped and
    counted; banks losing all their sentences are listed in the report.
    """
    table = {(q.bank_id, q.year, q.quarter): q for q in indicators}
    aligned = []
    dropped = {}
    survivors = set()
    seen = set()
    for sent in sentences:
        seen.add(sent.bank_id)
        year, quarter = quarter_of(sent.published_at)
        rec = table.get((sent.bank_id, year, quarter))
        if rec is None:
            dropped[sent.bank_id] = dropped.get(sent.bank_id, 0) + 1
        else:
            aligned.append((sent, rec))
            survivors.add(sent.bank_id)
    report = DropReport(
        n_dropped=sum(dropped.values()),
        dropped_by_bank=dropped,
        banks_fully_dropped=sorted(seen - survivors),
    )
    return aligned, report


def label(sentence, events):
    """1 iff the sentence date falls inside any distress window of its bank."""
    d = sentence.published_at.date()
    for ev in events:
        if ev.bank_id == sentence.bank_id and ev.start_date <= d <= ev.end_date:
            return 1
    return 0


def fit_normalization(values, source_folds=()):
    """Per-indicator mean and population std over training-fold samples."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit normalization")
    mean = vals.mean(axis=0)
    std = vals.std(axis=0)  # population convention (divisor N)
    return NormalizationStats(
        mean=mean,
        std=std,
        degenerate=std < 1e-12,
        source_folds=tuple(source_folds),
    )


def apply_normalization(stats, values):
    """z-score transform; degenerate columns map to 0."""
    vals = np.asarray(values, dtype=float)
    safe_std = np.where(stats.degenerate, 1.0, stats.std)
    z = (vals - stats.mean) / safe_std
    z[..., stats.degenerate] = 0.0
    return z


def assign_folds(bank_ids, k=5, seed=0):
    """Seeded shuffle of banks, round-robin into k folds (sizes differ by <=1)."""
    banks = sorted(set(bank_ids))
    if len(banks) < k:
        raise ValueError("need at least %d banks for %d folds, have %d" % (k, k, len(banks)))
    rng = np.random.default_rng(seed)
    order = list(banks)
    rng.shuffle(order)
    return FoldAssignment(fold_of={b: i % k for i, b in enumerate(order)})


ARM_ROW_CHUNK = 256  # rows gathered at a time into an arm's inputs


def arm_blocks(semantic, numeric, rows, arm):
    """Experiment arm ``arm``'s input columns for the samples ``rows``, left to
    right, as (matrix, row indices) blocks: ``semantic`` read at ``rows``,
    then the z-scored indicator block ``numeric`` (one row per entry of
    ``rows``) read in order. Only the arms that read ``semantic`` touch it.
    """
    if arm not in ARMS:
        raise ValueError("unknown arm %r" % arm)
    blocks = [(semantic, rows)] if arm in TEXT_ARMS else []
    if arm != "text_only":
        blocks.append((numeric, np.arange(len(rows))))
    return blocks


def project_arm(semantic, numeric, rows, arm):
    """``arm_blocks``' columns side by side, as a new C-ordered matrix, or
    ``numeric`` itself for ``numeric_only``.

    Each block's rows are gathered into place ARM_ROW_CHUNK rows at a time,
    so no full-size block is built twice.
    """
    blocks = arm_blocks(semantic, numeric, rows, arm)
    if arm == "numeric_only":
        return numeric
    out = np.empty((len(rows), sum(matrix.shape[1] for matrix, _ in blocks)))
    for lo in range(0, len(rows), ARM_ROW_CHUNK):
        col = 0
        for matrix, at in blocks:
            width = matrix.shape[1]
            out[lo:lo + ARM_ROW_CHUNK, col:col + width] = matrix[at[lo:lo + ARM_ROW_CHUNK]]
            col += width
    return out


@dataclass
class SampleTable:
    """Column-wise aligned dataset, numeric part kept raw for per-run z-scoring."""

    sentence_ids: list
    bank_ids: list
    months: list
    semantic: np.ndarray     # N x semantic_dim, or None if no run reads it
    numeric_raw: np.ndarray  # N x 12
    labels: np.ndarray       # N, in {0, 1}

    @property
    def semantic_dim(self):
        return self.semantic.shape[1]

    def __len__(self):
        return len(self.sentence_ids)


def _by_sentence(sentence_ids, by_id, source):
    """``by_id``'s entry of each of ``sentence_ids``, in order; an id without one
    raises ValueError naming ``source`` and the id."""
    try:
        return [by_id[sid] for sid in sentence_ids]
    except KeyError as missing:
        raise ValueError("%s: no semantic vector for sentence %r"
                         % (source, missing.args[0])) from None


def semantic_rows(sentence_ids, vectors_by_id, source):
    """The vectors of ``sentence_ids``, in order, as the rows of one new matrix;
    an id without a vector raises ValueError naming ``source`` and the id."""
    return np.array(_by_sentence(sentence_ids, vectors_by_id, source), dtype=float)


def _fused_table(sentences, indicators, events):
    """The SampleTable of the aligned, labelled sentences, with no ``semantic``,
    and the DropReport; raises ValueError if no sentence aligns."""
    aligned, report = align(sentences, indicators)
    if not aligned:
        raise ValueError("no aligned samples")
    sents, recs = zip(*aligned)
    return SampleTable(sentence_ids=[s.sentence_id for s in sents],
                       bank_ids=[s.bank_id for s in sents],
                       months=[month_of(s.published_at) for s in sents], semantic=None,
                       numeric_raw=np.vstack([r.values for r in recs]),
                       labels=np.array([label(s, events) for s in sents], dtype=np.int64)), report


def build_sample_table(sentences, vectors_by_id, indicators, events):
    """Align, label and stack everything the experiment harness consumes (the oracle
    of ``write_fused``); an aligned sentence without a vector raises ValueError."""
    table, report = _fused_table(sentences, indicators, events)
    table.semantic = semantic_rows(table.sentence_ids, vectors_by_id, "vectors")
    return table, report


# ---------------------------------------------------------------------------
# File formats


def _read_csv(path, parse):
    """``parse(row)`` of every row of a CSV file with a header line; a line
    that the csv module cannot read (a field over its size limit, say), or
    a row that ``parse`` rejects with ValueError, raises ValueError naming
    path:line."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                out.append(parse(row))
        except (csv.Error, ValueError) as exc:
            # the csv reader's own count: DictReader's is the last good row's
            raise ValueError("%s:%d: %s" % (path, reader.reader.line_num, exc)) from None
    return out


def _parse_indicators(row):
    q = row.get("quarter") or ""
    if not QUARTER_PATTERN.fullmatch(q):
        raise ValueError("quarter %r is not of the form 2010Q1..2010Q4" % q)
    cells = [row.get(name) for name in INDICATOR_NAMES]
    if None in cells:
        raise ValueError("row has fewer than %d indicator columns" % NUMERIC_DIM)
    if row.get("bank_id") is None:
        raise ValueError("row has no bank_id column")
    return QuarterlyIndicators(
        bank_id=row["bank_id"],
        year=int(q[:4]),
        quarter=int(q[5]),
        values=np.array([float(c) for c in cells]),
    )


def read_indicators(path):
    """Read an indicator CSV; a malformed row, or a second row for the same
    bank and quarter, raises ValueError naming path:line."""
    seen = set()

    def parse(row):
        rec = _parse_indicators(row)
        key = (rec.bank_id, rec.year, rec.quarter)
        if key in seen:
            raise ValueError("duplicate row for bank %r in %dQ%d" % key)
        seen.add(key)
        return rec

    return _read_csv(path, parse)


def write_indicators(indicators, path):
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bank_id", "quarter") + INDICATOR_NAMES)
        for rec in indicators:
            writer.writerow(
                [rec.bank_id, "%dQ%d" % (rec.year, rec.quarter)]
                + ["%r" % v for v in rec.values.tolist()]
            )


def _parse_event(row):
    cells = [row.get(name) for name in EVENT_COLUMNS]
    if None in cells:
        raise ValueError("row has fewer than %d columns" % len(EVENT_COLUMNS))
    bank_id, start, end, kind = cells
    return DistressEvent(bank_id=bank_id, start_date=date.fromisoformat(start),
                         end_date=date.fromisoformat(end), kind=kind)


def read_events(path):
    """Read an events CSV; a malformed row raises ValueError naming path:line."""
    return _read_csv(path, _parse_event)


def write_events(events, path):
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_COLUMNS)
        for ev in events:
            writer.writerow([ev.bank_id, ev.start_date.isoformat(), ev.end_date.isoformat(), ev.kind])


def _write_fused_rows(table, path, texts):
    """Write the fused file of ``table``, one row per sample and one key per
    SampleTable column: the one place that names those keys and the forms of
    their values. ``texts`` holds each row's ``semantic`` text, in row order,
    as ``corpus.write_vector_jsonl`` takes it; returns what it returns."""
    rows = ({"sentence_id": sid, "bank_id": table.bank_ids[i],
             "month": "%04d-%02d" % table.months[i], "label": int(table.labels[i]),
             "numeric_raw": table.numeric_raw[i].tolist()}
            for i, sid in enumerate(table.sentence_ids))
    return write_vector_jsonl(rows, texts, path, "semantic")


def write_sample_table(table, path):
    """The fused dataset of ``table``, which ``read_sample_table`` reads back:
    the oracle of the bytes ``write_fused`` writes, with or without a vectors twin."""
    _write_fused_rows(table, path, vector_texts(table.semantic))


def _parse_sample(row, semantic, numeric_raw):
    """(sentence_id, bank_id, month, label) of a fused row, whose vectors go
    to ``semantic`` (a VectorRows' add, or check) and ``numeric_raw``.add."""
    month = row["month"]
    if not (isinstance(month, str) and MONTH_PATTERN.fullmatch(month)):
        raise ValueError("month %r is not of the form 2010-01..2010-12" % (month,))
    label = row["label"]
    if type(label) is not int or label not in (0, 1):
        raise ValueError("label must be the integer 0 or 1, got %r" % (label,))
    sentence_id = require_str("sentence_id", row["sentence_id"])
    bank_id = require_str("bank_id", row["bank_id"])
    if not len(semantic(row["semantic"])):
        raise ValueError("semantic is empty")
    numeric_raw.add(row["numeric_raw"])
    return sentence_id, bank_id, (int(month[:4]), int(month[5:])), label


def read_sample_table(path, keep_semantic=True):
    """Read a fused dataset; a malformed row raises ValueError naming path:line.

    The rows are counted first, so that each vector column is read into one
    preallocated matrix. Without ``keep_semantic`` the semantic vectors are
    checked as strictly but not stored, and the table's ``semantic`` is None.
    The file's valid twin (``corpus.read_twin``) is read instead, if there is
    one, with the same checks; without ``keep_semantic``, all but ``semantic``.
    """
    columns = {"sentence_ids": str, "bank_ids": str, "months": (np.int64, (None, 2)),
               "numeric_raw": (np.float64, (None, NUMERIC_DIM)), "labels": (np.int64, (None,))}
    if keep_semantic:
        columns["semantic"] = (np.float64, (None, None))
    twin = read_twin(path, columns)
    if twin is not None:  # _parse_sample's checks on whole columns
        months, labels, numeric, semantic = (twin.get(name) for name in
                                             ("months", "labels", "numeric_raw", "semantic"))
        # else the JSON is read, and names the row a check rejects
        if (len(labels) and ((months >= (0, 1)) & (months <= (9999, 12))).all()
                and np.isin(labels, (0, 1)).all() and (semantic is None or semantic.shape[1])):
            return SampleTable(sentence_ids=twin["sentence_ids"], bank_ids=twin["bank_ids"],
                               months=[tuple(m) for m in months.tolist()], semantic=semantic,
                               numeric_raw=numeric, labels=labels)
    n = count_rows(path)
    if not n:
        raise ValueError("empty fused dataset %s" % path)
    semantic = VectorRows("semantic", n)
    numeric_raw = VectorRows("numeric_raw", n, width=NUMERIC_DIM)
    take = semantic.add if keep_semantic else semantic.check
    rows = read_jsonl(path, lambda row: _parse_sample(row, take, numeric_raw))
    sids, bids, months, labels = map(list, zip(*rows))
    return SampleTable(sentence_ids=sids, bank_ids=bids, months=months,
                       semantic=semantic.matrix, numeric_raw=numeric_raw.matrix,
                       labels=np.array(labels, dtype=np.int64))


def write_fused(sentences, vectors_path, vectors, indicators, events, path):
    """Align and label the sentences; write the fused dataset to ``path``, then its twin.

    ``vectors`` is ``pvdm.read_vectors(vectors_path)``, and ``path`` is
    another file, as the ``fuse`` command checks. Each row's ``semantic``
    text is copied from the vectors file at the twin's spans or, without
    them, printed from ``values``: the same bytes, and no matrix is built in
    sample order. The fused twin's ``semantic`` is gathered from ``values``
    in row chunks and its digest taken as the file is written. An aligned
    sentence without a vector raises ValueError naming it and
    ``vectors_path``, before ``path`` is opened. Returns the labels and the
    DropReport.
    """
    vector_rows, values, spans = vectors
    table, report = _fused_table(sentences, indicators, events)
    at = np.array(_by_sentence(table.sentence_ids, vector_rows, vectors_path), dtype=np.intp)

    def copied():
        with open(vectors_path, "rb") as text:
            for offset, length in spans[at].tolist():
                text.seek(offset + 1)  # the text inside the brackets
                yield text.read(length - 2)

    texts = vector_texts(values[i] for i in at) if spans is None else copied()
    digest, _ = _write_fused_rows(table, path, texts)
    # vars keeps SampleTable's field order, the order of the twin's entries
    write_twin(path, digest, {**vars(table), "months": np.array(table.months, dtype=np.int64),
                              "semantic": (values, at)})
    return table.labels, report
