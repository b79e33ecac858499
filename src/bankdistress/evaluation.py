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


def confusion(scores, threshold):
    """Confusion counts of the rule `signal iff score >= threshold`."""
    score, label = _columns(scores)
    if not len(score):
        raise ValueError("cannot build a confusion matrix from no observations")
    signaled = score >= threshold
    positive = label == 1
    tp = int(np.count_nonzero(signaled & positive))
    fp = int(np.count_nonzero(signaled)) - tp
    fn = int(np.count_nonzero(positive)) - tp
    return ConfusionRates(tp=tp, fp=fp, tn=len(score) - tp - fp - fn, fn=fn)


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


def usefulness_report(scores, mu, threshold):
    """Full usefulness evaluation of monthly scores at one threshold."""
    conf = confusion(scores, threshold)
    prior = (conf.tp + conf.fn) / conf.total
    l_b = baseline_loss(prior, mu)
    l_m = model_loss(conf, mu)
    u_a, u_r = relative_usefulness(l_b, l_m)
    return UsefulnessReport(
        mu=mu,
        prior=prior,
        threshold=threshold,
        baseline_loss=l_b,
        model_loss=l_m,
        absolute_usefulness=u_a,
        relative_usefulness=u_r,
        confusion=conf,
    )


def usefulness_curve(scores, mu):
    """Relative usefulness of every candidate threshold.

    Candidates are the distinct observed scores plus {0, 1}, ascending. The
    confusion counts of all candidates come from one sort and binary search
    per class; U_r then goes through the same loss functions as
    ``usefulness_report``, elementwise, so each value is bit-identical to
    that report's.
    """
    score, label = _columns(scores)
    if not len(score):
        raise ValueError("usefulness undefined: no validation observations")
    positive = np.sort(score[label == 1])
    negative = np.sort(score[label != 1])
    if not len(positive) or not len(negative):
        raise ValueError("usefulness undefined: validation set contains a single class")
    # np.unique would import numpy.ma on first use, for ~1 MB of memory
    candidates = np.sort(np.concatenate((score, (0.0, 1.0))))
    distinct = np.empty(len(candidates), dtype=bool)
    distinct[0] = True
    np.not_equal(candidates[1:], candidates[:-1], out=distinct[1:])
    candidates = candidates[distinct]
    tp = len(positive) - np.searchsorted(positive, candidates, side="left")
    fp = len(negative) - np.searchsorted(negative, candidates, side="left")
    conf = ConfusionRates(tp=tp, fp=fp, tn=len(negative) - fp, fn=len(positive) - tp)
    l_b = baseline_loss(len(positive) / len(score), mu)
    _, u_r = relative_usefulness(l_b, model_loss(conf, mu))
    return candidates, u_r


def pick_threshold(scores, mu):
    """Threshold maximizing relative usefulness on a validation set.

    Candidates are those of ``usefulness_curve``; ties break toward the
    smallest threshold (the more sensitive rule). A later candidate wins only
    by more than 1e-12, so thresholds that tie in exact arithmetic but differ
    by rounding still count as tied.
    """
    candidates, u_r = usefulness_curve(scores, mu)
    best_tau, best_ur = None, None
    for tau, ur in zip(candidates.tolist(), u_r.tolist()):
        if best_ur is None or ur > best_ur + 1e-12:
            best_tau, best_ur = tau, ur
    return best_tau

