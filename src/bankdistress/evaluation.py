"""Monthly aggregation and the usefulness evaluation framework."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonthScore:
    bank_id: str
    month: tuple  # (year, 1..12)
    score: float  # mean distress probability over the bank's sentences
    n_sentences: int
    label: int


@dataclass(frozen=True)
class MonthlyScores:
    """Scores and 0/1 labels of a set of bank-months, as parallel arrays."""

    score: np.ndarray
    label: np.ndarray

    def __len__(self):
        return len(self.score)


@dataclass(frozen=True)
class MonthGrouping:
    """The (bank, month) groups of a fixed set of samples.

    Built once per run for a fold's samples: keys and labels stay fixed while
    the scores change every epoch.
    """

    keys: list          # distinct (bank_id, month), sorted
    codes: np.ndarray   # per sample: index of its key
    counts: np.ndarray  # per key: number of samples
    labels: np.ndarray  # per key: month_label, 0/1


@dataclass(frozen=True)
class ConfusionRates:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn

    @property
    def p_fp(self):
        return self.fp / self.total

    @property
    def p_fn(self):
        return self.fn / self.total


@dataclass(frozen=True)
class UsefulnessReport:
    mu: float
    prior: float
    threshold: float
    baseline_loss: float
    model_loss: float
    absolute_usefulness: float
    relative_usefulness: float
    confusion: ConfusionRates


def month_label(bank_id, month, events):
    """1 iff any distress window of the bank touches any day of the month,
    that is iff its first and last days' months bound it (as 12 * year + month)."""
    index = 12 * month[0] + month[1]
    for ev in events:
        if (ev.bank_id == bank_id and 12 * ev.start_date.year + ev.start_date.month <= index
                <= 12 * ev.end_date.year + ev.end_date.month):
            return 1
    return 0


def group_months(bank_ids, months, events):
    """Group samples by (bank, month) and label each group once."""
    keys = sorted(set(zip(bank_ids, months)))
    index = {key: i for i, key in enumerate(keys)}
    codes = np.array([index[key] for key in zip(bank_ids, months)], dtype=np.intp)
    by_bank = {}  # each key is labelled against its own bank's events only
    for ev in events:
        by_bank.setdefault(ev.bank_id, []).append(ev)
    return MonthGrouping(
        keys=keys,
        codes=codes,
        counts=np.bincount(codes, minlength=len(keys)),
        labels=np.array([month_label(b, m, by_bank.get(b, ())) for b, m in keys],
                        dtype=np.int64),
    )


def aggregate_monthly(p_distress, grouping):
    """Mean sentence-level distress probability per (bank, month).

    ``bincount`` adds each group's probabilities in sample order, as a
    sequential ``sum`` does.
    """
    totals = np.bincount(grouping.codes, weights=p_distress, minlength=len(grouping.keys))
    return MonthlyScores(score=totals / grouping.counts, label=grouping.labels)


def _columns(scores):
    """(score, label) arrays of a MonthlyScores or of MonthScore rows."""
    if isinstance(scores, MonthlyScores):
        return scores.score, scores.label
    return (np.array([ms.score for ms in scores], dtype=float),
            np.array([ms.label for ms in scores], dtype=np.int64))


def _count(score, label, thresholds):
    """Confusion counts of the rule `signal iff score >= threshold` at each
    of ``thresholds`` (a number or an array), from one sort and binary search
    per class. A NaN score compares false, so it never signals."""
    positive = label == 1
    signals = ~np.isnan(score)
    pos = np.sort(score[positive & signals])
    neg = np.sort(score[~positive & signals])
    n_pos = int(np.count_nonzero(positive))
    tp = len(pos) - np.searchsorted(pos, thresholds, side="left")
    fp = len(neg) - np.searchsorted(neg, thresholds, side="left")
    return ConfusionRates(tp=tp, fp=fp, tn=len(score) - n_pos - fp, fn=n_pos - tp)


def confusion(scores, threshold):
    """Confusion counts of the rule `signal iff score >= threshold`."""
    score, label = _columns(scores)
    if not len(score):
        raise ValueError("cannot build a confusion matrix from no observations")
    conf = _count(score, label, threshold)
    return ConfusionRates(*(int(n) for n in (conf.tp, conf.fp, conf.tn, conf.fn)))


def baseline_loss(prior, mu):
    """Loss of the best constant guess given the class prior and mu."""
    if not 0.0 < prior < 1.0:
        raise ValueError("undefined baseline: prior must lie strictly in (0, 1)")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly in (0, 1)")
    return min(mu * prior, (1.0 - mu) * (1.0 - prior))


def model_loss(conf, mu):
    """Preference-weighted error rate of the classifier."""
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly in (0, 1)")
    return mu * conf.p_fn + (1.0 - mu) * conf.p_fp


def relative_usefulness(l_baseline, l_model):
    """Absolute and relative gain over the best trivial guess."""
    if l_baseline <= 0.0:
        raise ValueError("relative usefulness undefined for non-positive baseline loss")
    u_abs = l_baseline - l_model
    return u_abs, u_abs / l_baseline


def _assemble(conf, mu, threshold):
    """The UsefulnessReport of the counts ``conf`` at ``threshold``, scalars
    or arrays of one entry per threshold, elementwise through the loss
    functions."""
    # the positives tp + fn, so the prior, are the same at every threshold
    prior = float(np.ravel((conf.tp + conf.fn) / conf.total)[0])
    l_b = baseline_loss(prior, mu)
    l_m = model_loss(conf, mu)
    u_a, u_r = relative_usefulness(l_b, l_m)
    return UsefulnessReport(mu=mu, prior=prior, threshold=threshold, baseline_loss=l_b,
                            model_loss=l_m, absolute_usefulness=u_a, relative_usefulness=u_r,
                            confusion=conf)


def usefulness_report(scores, mu, threshold):
    """Full usefulness evaluation of monthly scores at one threshold."""
    return _assemble(confusion(scores, threshold), mu, threshold)


def usefulness_curve(scores, mu):
    """The UsefulnessReport at every candidate threshold, in arrays: the
    distinct scores other than NaN plus {0, 1}, ascending. Each entry is
    bit-identical to ``usefulness_report``'s at its threshold."""
    score, label = _columns(scores)
    if not len(score):
        raise ValueError("usefulness undefined: no validation observations")
    if np.count_nonzero(label == 1) in (0, len(score)):
        raise ValueError("usefulness undefined: validation set contains a single class")
    # np.unique would import numpy.ma on first use, for ~1 MB of memory
    candidates = np.sort(np.concatenate((score[~np.isnan(score)], (0.0, 1.0))))
    candidates = candidates[np.concatenate(([True], candidates[1:] != candidates[:-1]))]
    return _assemble(_count(score, label, candidates), mu, candidates)


def pick_threshold(scores, mu):
    """The usefulness report at the threshold maximizing relative usefulness
    on a validation set.

    Candidates are those of ``usefulness_curve``; ties break toward the
    smallest threshold (the more sensitive rule). A later candidate wins only
    by more than 1e-12, so thresholds that tie in exact arithmetic but differ
    by rounding still count as tied. Since the best only rises, and
    ``a + 1e-12 >= a`` in floats, only a record, a value above every earlier
    one (NaN aside), can win: the loop visits the records alone.
    """
    curve = usefulness_curve(scores, mu)
    u_r = curve.relative_usefulness
    records = np.flatnonzero(u_r[1:] > np.fmax.accumulate(u_r)[:-1]) + 1
    best, top = 0, u_r[0].item()
    for i, ur in zip(records.tolist(), u_r[records].tolist()):
        if ur > top + 1e-12:
            best, top = i, ur
    c = curve.confusion
    return _assemble(ConfusionRates(*(n[best].item() for n in (c.tp, c.fp, c.tn, c.fn))), mu,
                     curve.threshold[best].item())
