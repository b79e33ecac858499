"""Usefulness framework tests with hand-derived oracles."""

import calendar
import math
from dataclasses import astuple
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bankdistress import evaluation
from bankdistress.evaluation import (
    ConfusionRates,
    MonthScore,
    aggregate_monthly,
    baseline_loss,
    confusion,
    group_months,
    model_loss,
    month_label,
    pick_threshold,
    relative_usefulness,
    usefulness_curve,
    usefulness_report,
)
from bankdistress.fusion import DistressEvent


def ms(bank, month, score, label):
    return MonthScore(bank_id=bank, month=month, score=score, n_sentences=1, label=label)


# ---------------------------------------------------------------------------
# Monthly aggregation


def test_month_label_window_intersection():
    events = [DistressEvent("a", date(2010, 3, 25), date(2010, 5, 3), "state_aid")]
    assert month_label("a", (2010, 3), events) == 1   # window starts late in March
    assert month_label("a", (2010, 4), events) == 1
    assert month_label("a", (2010, 5), events) == 1   # window ends early in May
    assert month_label("a", (2010, 2), events) == 0
    assert month_label("a", (2010, 6), events) == 0
    assert month_label("b", (2010, 4), events) == 0


def reference_month_label(bank_id, month, events):
    """month_label on dates, as it was before months compared as integers:
    the oracle of that form."""
    year, m = month
    first = date(year, m, 1)
    last = date(year, m, calendar.monthrange(year, m)[1])
    for ev in events:
        if ev.bank_id == bank_id and ev.start_date <= last and ev.end_date >= first:
            return 1
    return 0


def _snap(day, where):
    """``day`` itself, or the first or last day of its month."""
    if where == "first":
        return day.replace(day=1)
    if where == "last":
        return day.replace(day=calendar.monthrange(day.year, day.month)[1])
    return day


SNAPS = ("day", "first", "last")
# (bank, start, length in days, where the start and the end snap to)
WINDOWS = st.tuples(st.sampled_from("ab"), st.dates(date(2007, 1, 1), date(2013, 12, 31)),
                    st.integers(min_value=0, max_value=800),
                    st.sampled_from(SNAPS), st.sampled_from(SNAPS))


@settings(max_examples=300, deadline=None)
@given(windows=st.lists(WINDOWS, max_size=4))
@example(windows=[("a", date(2012, 2, 29), 0, "day", "day")])        # single leap day
@example(windows=[("a", date(2008, 2, 10), 0, "first", "last")])     # a whole leap February
@example(windows=[("a", date(2011, 2, 28), 0, "day", "day"),         # last day of a
                  ("b", date(2010, 3, 1), 0, "day", "day")])         # short February; a first day
@example(windows=[("a", date(2010, 12, 31), 1, "day", "day"),        # Dec 31 to Jan 1
                  ("b", date(2009, 11, 15), 500, "first", "last")])  # spans two new years
def test_month_label_matches_date_reference(windows):
    events = []
    for bank, start, days, where_start, where_end in windows:
        first = _snap(start, where_start)
        events.append(DistressEvent(bank, first, max(first, _snap(start + timedelta(days=days),
                                                                   where_end)), "state_aid"))
    keys = [(bank, (year, m)) for bank in "abc" for year in range(2006, 2016)
            for m in range(1, 13)]
    want = [reference_month_label(bank, month, events) for bank, month in keys]
    assert [month_label(bank, month, events) for bank, month in keys] == want
    groups = group_months([b for b, _ in keys], [m for _, m in keys], events)
    assert groups.keys == keys
    assert groups.labels.tolist() == want


def test_aggregate_monthly_means_and_sorting():
    groups = group_months(["b", "a", "a", "a"],
                          [(2010, 1), (2010, 1), (2010, 1), (2010, 2)], events=[])
    assert groups.keys == [("a", (2010, 1)), ("a", (2010, 2)), ("b", (2010, 1))]
    assert groups.codes.tolist() == [2, 0, 0, 1]
    assert groups.counts.tolist() == [2, 1, 1]
    out = aggregate_monthly(np.array([0.2, 0.4, 0.8, 0.5]), groups)
    assert len(out) == 3
    assert out.score.tolist() == [(0.4 + 0.8) / 2, 0.5, 0.2]
    assert out.label.tolist() == [0, 0, 0]


EVENTS = [DistressEvent("a", date(2010, 2, 20), date(2010, 3, 5), "state_aid"),
          DistressEvent("c", date(2010, 4, 30), date(2010, 4, 30), "bankruptcy_default"),
          DistressEvent("a", date(2010, 6, 1), date(2010, 6, 30), "distressed_merger")]


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=6),
              st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    max_size=40,
))
def test_group_months_labels_and_sequential_means(samples):
    bank_ids = [b for b, _, _ in samples]
    months = [(2010, m) for _, m, _ in samples]
    groups = group_months(bank_ids, months, EVENTS)
    out = aggregate_monthly(np.array([p for _, _, p in samples], dtype=float), groups)
    assert groups.keys == sorted(set(zip(bank_ids, months)))
    assert len(out) == len(groups.keys)
    for i, key in enumerate(groups.keys):
        assert out.label[i] == month_label(key[0], key[1], EVENTS)
        members = [p for b, m, p in samples if (b, (2010, m)) == key]
        assert groups.counts[i] == len(members)
        # exactly the sequential mean, also for several sentences per bank-month
        assert out.score[i] == sum(members) / len(members)


# ---------------------------------------------------------------------------
# Confusion and losses


def test_confusion_counts_and_threshold_boundary():
    scores = [ms("a", (2010, 1), 0.7, 1), ms("a", (2010, 2), 0.69, 1),
              ms("b", (2010, 1), 0.7, 0), ms("b", (2010, 2), 0.1, 0)]
    conf = confusion(scores, threshold=0.7)  # score == threshold signals
    assert (conf.tp, conf.fn, conf.fp, conf.tn) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        confusion([], 0.5)


def test_baseline_loss_oracle():
    # min(0.9 * 0.07, 0.1 * 0.93) = min(0.063, 0.093)
    assert baseline_loss(0.07, 0.9) == pytest.approx(0.063, abs=1e-15)
    assert baseline_loss(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="baseline"):
            baseline_loss(bad, 0.9)
    with pytest.raises(ValueError):
        baseline_loss(0.07, 1.0)


def test_model_loss_and_relative_usefulness_oracle():
    # 1000 months: 60 tp, 10 fn, 50 fp, 880 tn -> prior 0.07,
    # p_FN = 0.01, p_FP = 0.05
    conf = ConfusionRates(tp=60, fp=50, tn=880, fn=10)
    l_m = model_loss(conf, 0.9)
    assert l_m == pytest.approx(0.014, abs=1e-15)
    l_b = baseline_loss(0.07, 0.9)
    u_a, u_r = relative_usefulness(l_b, l_m)
    assert u_a == pytest.approx(0.049, abs=1e-15)
    assert u_r == pytest.approx(7.0 / 9.0, abs=1e-12)
    with pytest.raises(ValueError):
        relative_usefulness(0.0, 0.1)


def test_always_tranquil_predictor_scores_zero():
    # 100 bank-months at prior 0.07; a predictor that never signals has
    # p_FN = prior, so its loss equals the baseline and U_r must be 0
    scores = [ms("a", (2010, i % 12 + 1), 0.0, 1) for i in range(7)]
    scores += [ms("b%d" % i, (2010, i % 12 + 1), 0.0, 0) for i in range(93)]
    report = usefulness_report(scores, mu=0.9, threshold=0.5)
    assert report.prior == pytest.approx(0.07, abs=1e-15)
    assert report.relative_usefulness == pytest.approx(0.0, abs=1e-12)
    assert report.absolute_usefulness == pytest.approx(0.0, abs=1e-12)


def test_usefulness_report_fields():
    scores = [ms("a", (2010, 1), 0.9, 1), ms("a", (2010, 2), 0.2, 0),
              ms("b", (2010, 1), 0.1, 0), ms("b", (2010, 2), 0.3, 0)]
    report = usefulness_report(scores, mu=0.9, threshold=0.5)
    assert report.confusion.tp == 1
    assert report.confusion.tn == 3
    assert report.prior == pytest.approx(0.25)
    assert report.mu == 0.9
    assert report.threshold == 0.5


# ---------------------------------------------------------------------------
# Threshold selection


def test_pick_threshold_prefers_separating_value():
    scores = [ms("a", (2010, 1), 0.8, 1), ms("a", (2010, 2), 0.9, 1),
              ms("b", (2010, 1), 0.2, 0), ms("b", (2010, 2), 0.3, 0)]
    report = pick_threshold(scores, mu=0.9)
    assert 0.3 < report.threshold <= 0.8
    assert report.relative_usefulness == pytest.approx(1.0)


def test_pick_threshold_tie_breaks_low():
    # thresholds 0.0 and 0.5 both signal everything and tie on usefulness;
    # the smaller (more sensitive) one wins
    scores = [ms("a", (2010, 1), 0.5, 1), ms("b", (2010, 1), 0.5, 0)]
    assert pick_threshold(scores, mu=0.9).threshold == 0.0


# steps of a relative-usefulness curve about the 1e-12 a later candidate must
# win by, and NaN, which no comparison passes
CURVE_STEPS = [0.0, 0.4e-12, 0.6e-12, 1e-12, -1e-12, 1.1e-12, 2e-12, 1e-3, -1e-3, "nan"]


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1, 1), steps=st.lists(st.sampled_from(CURVE_STEPS), max_size=40),
       flip=st.booleans())
@example(start=0.5, steps=["nan", 1e-3, 0.6e-12, 0.6e-12], flip=False)
@example(start=0.5, steps=[0.6e-12, 0.6e-12, 0.6e-12], flip=False)
def test_pick_threshold_picks_what_the_loop_over_every_candidate_picks(start, steps, flip):
    # the curve is summed step by step, as rounding leaves a real one; a NaN
    # step makes that one candidate NaN
    values, ur = [start], start
    for step in steps:
        if step != "nan":
            ur += step
        values.append(float("nan") if step == "nan" else ur)
    values = [-v for v in values] if flip else values
    n = len(values)
    index = np.arange(n)
    conf = ConfusionRates(tp=index, fp=n - index, tn=index, fn=n - index)
    curve = evaluation.UsefulnessReport(
        mu=0.9, prior=0.5, threshold=index.astype(float), baseline_loss=0.0, model_loss=0.0,
        absolute_usefulness=0.0, relative_usefulness=np.array(values), confusion=conf)
    best = 0
    for i, ur in enumerate(values):
        if ur > values[best] + 1e-12:
            best = i
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "usefulness_curve", lambda scores, mu: curve)
        report = pick_threshold(None, 0.9)
    assert report == evaluation._assemble(
        ConfusionRates(best, n - best, best, n - best), 0.9, float(best))


def test_pick_threshold_errors():
    with pytest.raises(ValueError, match="no validation"):
        pick_threshold([], 0.9)
    with pytest.raises(ValueError, match="single class"):
        pick_threshold([ms("a", (2010, 1), 0.5, 0)], 0.9)
    # the same errors for monthly scores aggregated from a grouping
    empty = aggregate_monthly(np.zeros(0), group_months([], [], EVENTS))
    with pytest.raises(ValueError, match="no validation"):
        pick_threshold(empty, 0.9)
    with pytest.raises(ValueError, match="no observations"):
        usefulness_report(empty, 0.9, 0.5)
    tranquil = aggregate_monthly(np.array([0.5, 0.7]),
                                 group_months(["a", "b"], [(2010, 1), (2010, 1)], EVENTS))
    with pytest.raises(ValueError, match="single class"):
        pick_threshold(tranquil, 0.9)


def reference_pick_threshold(scores, mu):
    """Oracle for the sort-based search: one full report per candidate.

    Returns the chosen threshold and its relative usefulness. A NaN score is
    never a candidate.
    """
    if not scores:
        raise ValueError("usefulness undefined: no validation observations")
    if {s.label for s in scores} != {0, 1}:
        raise ValueError("usefulness undefined: validation set contains a single class")
    best_tau, best_ur = None, None
    for tau in candidate_thresholds(scores):
        ur = usefulness_report(scores, mu, tau).relative_usefulness
        if best_ur is None or ur > best_ur + 1e-12:
            best_tau, best_ur = tau, ur
    return best_tau, best_ur


def candidate_thresholds(scores):
    return sorted({s.score for s in scores if not math.isnan(s.score)} | {0.0, 1.0})


@settings(max_examples=300, deadline=None)
@given(
    steps=st.sampled_from((5, 20)),
    data=st.lists(
        st.tuples(st.one_of(st.integers(min_value=0, max_value=20), st.none()),
                  st.integers(min_value=0, max_value=1)),
        min_size=1, max_size=40,
    ),
    mu=st.floats(min_value=0.05, max_value=0.95),
)
@example(steps=5, data=[(0, 0), (0, 1), (0, 1)], mu=1 / 3)
# a NaN month in distress once signalled in the search but not in the
# report: the curve read 1.0 where the report read -2.0 at 0.7, and NaN was
# itself a candidate, the one picked in the second example
@example(steps=20, data=[(14, 1), (16, 1), (None, 1), (2, 0), (4, 0), (6, 0)], mu=0.9)
@example(steps=5, data=[(5, 0), (None, 1)], mu=0.9)
def test_pick_threshold_matches_reference(steps, data, mu):
    # scores on a coarse grid k/steps, so ties between bank-months are
    # common; None draws a NaN score
    scores = [ms("b%d" % i, (2010, 1), math.nan if k is None else min(k, steps) / steps, lab)
              for i, (k, lab) in enumerate(data)]
    try:
        ref_tau, ref_ur = reference_pick_threshold(scores, mu)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            pick_threshold(scores, mu)
        return
    report = pick_threshold(scores, mu)
    assert (report.threshold, report.relative_usefulness) == (ref_tau, ref_ur)
    # the search returns the report at its threshold, field by field, in the
    # Python numbers the result files print
    assert report == usefulness_report(scores, mu, report.threshold)
    assert {type(v) for v in astuple(report)[:-1] + astuple(report.confusion)} <= {int, float}
    curve = usefulness_curve(scores, mu)
    assert curve.threshold.tolist() == candidate_thresholds(scores)
    # bit-identical to a full report at every candidate, not just close
    assert curve.relative_usefulness.tolist() == [
        usefulness_report(scores, mu, tau).relative_usefulness
        for tau in curve.threshold.tolist()]


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                  st.integers(min_value=0, max_value=1)),
        min_size=2, max_size=25,
    ),
    mu=st.floats(min_value=0.05, max_value=0.95),
)
# tau 0.0 and 1.0 tie exactly here; rounding once made 1.0 win
@example(data=[(0.0, 0), (0.0, 1), (0.0, 1)], mu=1 / 3)
def test_pick_threshold_is_argmax(data, mu):
    labels = {lab for _, lab in data}
    scores = [ms("b%d" % i, (2010, i % 12 + 1), s, lab) for i, (s, lab) in enumerate(data)]
    if labels != {0, 1}:
        with pytest.raises(ValueError):
            pick_threshold(scores, mu)
        return
    tau = pick_threshold(scores, mu).threshold
    best = pick_ur = usefulness_report(scores, mu, tau).relative_usefulness
    for cand in sorted({s for s, _ in data} | {0.0, 1.0}):
        ur = usefulness_report(scores, mu, cand).relative_usefulness
        assert ur <= pick_ur + 1e-12
        if abs(ur - best) <= 1e-15:
            # ties break toward the smaller threshold
            assert tau <= cand
            break

