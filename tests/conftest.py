"""Shared helpers for the test suite."""

import json
import os
from datetime import date

# BLAS on one thread, set before numpy loads it: on two cores a threaded
# OpenBLAS spent more CPU on the suite's small matrices and gained no time
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from bankdistress import fusion
from bankdistress.fusion import DistressEvent, SampleTable


def toy_table(n_banks=10, n_months=24, per_month=2, sem_dim=8, seed=0):
    """Small labeled sample table with signal in both parts, plus events.

    Every bank gets one five-month distress window so each fold role sees
    both classes regardless of the fold draw.
    """
    rng = np.random.default_rng(seed)
    banks = ["b%02d" % i for i in range(n_banks)]
    events = []
    distress = {}
    for i, bank in enumerate(banks):
        start = 10 + (i % 3) * 2
        months = [(2010 + (m - 1) // 12, (m - 1) % 12 + 1) for m in range(start, start + 5)]
        distress[bank] = set(months)
        events.append(DistressEvent(
            bank_id=bank,
            start_date=date(months[0][0], months[0][1], 1),
            end_date=date(months[-1][0], months[-1][1], 28),
            kind="state_aid",
        ))
    sids, bids, months_col, sem, num, labels = [], [], [], [], [], []
    for bank in banks:
        for m in range(1, n_months + 1):
            month = (2010 + (m - 1) // 12, (m - 1) % 12 + 1)
            for j in range(per_month):
                lab = int(month in distress[bank])
                sids.append("%s:%d:%d" % (bank, m, j))
                bids.append(bank)
                months_col.append(month)
                sem.append(rng.normal(size=sem_dim) + 1.5 * lab)
                num.append(rng.normal(size=fusion.NUMERIC_DIM) + 1.5 * lab)
                labels.append(lab)
    table = SampleTable(
        sentence_ids=sids, bank_ids=bids, months=months_col,
        semantic=np.vstack(sem), numeric_raw=np.vstack(num),
        labels=np.array(labels, dtype=np.int64),
    )
    return table, events


def json_sample_lines(table):
    """The bytes ``json.dumps`` writes for the rows of ``table`` as lines of a fused file:
    the reference of ``fusion.write_sample_table`` and ``fusion.write_fused``, whose
    vectors ``corpus.float_text`` prints."""
    return b"".join(json.dumps({
        "sentence_id": sid, "bank_id": table.bank_ids[i], "month": "%04d-%02d" % table.months[i],
        "label": int(table.labels[i]), "semantic": table.semantic[i].tolist(),
        "numeric_raw": table.numeric_raw[i].tolist()}, sort_keys=True).encode("ascii") + b"\n"
        for i, sid in enumerate(table.sentence_ids))
