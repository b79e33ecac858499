"""The vector text of the JSON-lines files: ``corpus.float_text`` prints each
row's floats as ``", ".join(map(repr, row))`` from integer arithmetic over
whole arrays, and the writers that print vectors with it write the bytes
``json.dumps`` writes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankdistress import corpus, fusion, pvdm
from conftest import json_sample_lines, toy_table

# the extremes of each range, the layout's switches (1e-05 to 0.0001 and
# 9999999999999998.0 to 1e16), 2**53, a double whose digits need 17 places
# (1e23), ties to even in the last digit (the exact values end in 5:
# 1.79376983642578125, 0.77753448486328125), and every power of two, whose
# lower neighbour is closer than its upper one
PINNED = ([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 0.0001, 0.00012,
           9999999999999998.0, 1e16, 2.0 ** 53, 1e23, 0.3, 0.1, 1.5, 12.5, 1e22,
           1234567890123456.7, 1.7937698364257812, 0.7775344848632812, 0.0, -0.0]
          + [float(i) for i in range(-20, 21)] + [float(10 ** e) for e in range(23)]
          + [2.0 ** e for e in range(-1074, 1024)])


def repr_text(row):
    return ", ".join(map(repr, np.asarray(row, dtype=float).tolist())).encode("ascii")


def doubles(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# any finite double, from its sign, biased exponent and fraction; the
# fraction is often 0 (a power of two) or at an end of its range
FINITE_BITS = st.builds(lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
                        st.integers(0, 1), st.integers(0, 2046),
                        st.integers(0, 2 ** 52 - 1) | st.sampled_from([0, 1, 2 ** 52 - 1]))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(FINITE_BITS, max_size=12), min_size=1, max_size=6))
def test_float_text_is_repr_of_every_finite_double(rows):
    vectors = [doubles(row) for row in rows]
    assert corpus.float_text(vectors) == [repr_text(v) for v in vectors]


def test_float_text_is_repr_of_the_pinned_doubles():
    values = np.array(PINNED + [-v for v in PINNED])
    rows = [values[i:i + 7] for i in range(0, len(values), 7)]
    assert corpus.float_text(rows) == [repr_text(row) for row in rows]
    # one value a row: no neighbour's zero or subnormal sends it to repr
    assert corpus.float_text([[v] for v in values]) == [repr_text([v]) for v in values]
    assert corpus.float_text([[], [0.5], []]) == [b"", b"0.5", b""]


def test_float_text_spells_nan_and_infinity_as_json_does():
    rows = [[float("nan"), 1.5], [float("inf"), float("-inf")], [0.25]]
    assert corpus.float_text(rows) == [json.dumps(row)[1:-1].encode("ascii") for row in rows]


def edge_matrix(width):
    """The pinned doubles and random bit patterns of finite doubles, ``width`` to a row."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, size=40 * width, dtype=np.uint64)
    bits[(bits >> np.uint64(52) & np.uint64(2047)) == 2047] ^= np.uint64(1 << 62)
    values = np.concatenate([PINNED, bits.view(np.float64), -np.array(PINNED)])
    return values[:len(values) // width * width].reshape(-1, width)


# a row wider than FLOAT_CHUNK goes alone in its chunk
@pytest.mark.parametrize("width", [5, corpus.FLOAT_CHUNK + 1])
def test_export_vectors_writes_the_lines_json_writes(tmp_path, width):
    matrix = edge_matrix(width)
    ids = ["s%d" % i for i in range(len(matrix))]
    path = str(tmp_path / "vectors.jsonl")
    pvdm.export_vectors(pvdm.PvdmModel(word_in=None, word_out=None, paragraph=matrix,
                                       sentence_index={sid: i for i, sid in enumerate(ids)},
                                       vocab=None, config=None), path)
    with open(path, "rb") as fh:
        text = fh.read()
    assert text == b"".join(json.dumps({"sentence_id": sid, "values": row}, sort_keys=True)
                            .encode("ascii") + b"\n" for sid, row in zip(ids, matrix.tolist()))
    _, values, spans = pvdm.read_vectors(path)
    assert spans is not None and values.tobytes() == matrix.tobytes()  # the twin's numbers
    assert spans.dtype == np.int64 and spans.shape == (len(matrix), 2)
    assert [text[a:a + n] for a, n in spans.tolist()] == [
        b"[%s]" % repr_text(row) for row in matrix]


@pytest.mark.parametrize("width, n_banks", [(5, 20), (corpus.FLOAT_CHUNK + 1, 1)])
def test_write_sample_table_writes_the_lines_json_writes(tmp_path, width, n_banks):
    table, _ = toy_table(n_banks=n_banks, n_months=24, sem_dim=width)
    table.semantic = np.resize(edge_matrix(width), table.semantic.shape)  # every row, and more
    path = str(tmp_path / "fused.jsonl")
    fusion.write_sample_table(table, path)
    with open(path, "rb") as fh:
        assert fh.read() == json_sample_lines(table)
