"""Monthly aggregation and the usefulness evaluation framework."""

import calendar
import json
from dataclasses import dataclass
from datetime import date


@dataclass(frozen=True)
class MonthScore:
    bank_id: str
    month: tuple  # (year, 1..12)
    score: float  # mean distress probability over the bank's sentences
    n_sentences: int
    label: int


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
    def p_tp(self):
        return self.tp / self.total

    @property
    def p_fp(self):
        return self.fp / self.total

    @property
    def p_tn(self):
        return self.tn / self.total

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
    """1 iff any distress window of the bank touches any day of the month."""
    year, m = month
    first = date(year, m, 1)
    last = date(year, m, calendar.monthrange(year, m)[1])
    for ev in events:
        if ev.bank_id == bank_id and ev.start_date <= last and ev.end_date >= first:
            return 1
    return 0


def aggregate_monthly(predictions, events):
    """Mean sentence-level distress probability per (bank, month)."""
    groups = {}
    for pred in predictions:
        groups.setdefault((pred.bank_id, pred.month), []).append(pred.p_distress)
    out = []
    for (bank_id, month) in sorted(groups):
        scores = groups[(bank_id, month)]
        out.append(
            MonthScore(
                bank_id=bank_id,
                month=month,
                score=sum(scores) / len(scores),
                n_sentences=len(scores),
                label=month_label(bank_id, month, events),
            )
        )
    return out


def confusion(scores, threshold):
    """Confusion counts of the rule `signal iff score >= threshold`."""
    if not scores:
        raise ValueError("cannot build a confusion matrix from no observations")
    tp = fp = tn = fn = 0
    for ms in scores:
        signaled = ms.score >= threshold
        if ms.label == 1:
            if signaled:
                tp += 1
            else:
                fn += 1
        else:
            if signaled:
                fp += 1
            else:
                tn += 1
    return ConfusionRates(tp=tp, fp=fp, tn=tn, fn=fn)


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


def pick_threshold(scores, mu):
    """Threshold maximizing relative usefulness on a validation set.

    Candidates are the distinct observed scores plus {0, 1}; ties break
    toward the smallest threshold (the more sensitive rule). A later
    candidate wins only by more than 1e-12, so thresholds that tie in exact
    arithmetic but differ by rounding still count as tied.
    """
    if not scores:
        raise ValueError("usefulness undefined: no validation observations")
    labels = {ms.label for ms in scores}
    if labels != {0, 1}:
        raise ValueError("usefulness undefined: validation set contains a single class")
    candidates = sorted({ms.score for ms in scores} | {0.0, 1.0})
    best_tau, best_ur = None, None
    for tau in candidates:
        report = usefulness_report(scores, mu, tau)
        if best_ur is None or report.relative_usefulness > best_ur + 1e-12:
            best_tau, best_ur = tau, report.relative_usefulness
    return best_tau


def report_to_dict(report):
    return {
        "mu": report.mu,
        "prior": report.prior,
        "threshold": report.threshold,
        "baseline_loss": report.baseline_loss,
        "model_loss": report.model_loss,
        "absolute_usefulness": report.absolute_usefulness,
        "relative_usefulness": report.relative_usefulness,
        "confusion": {
            "tp": report.confusion.tp,
            "fp": report.confusion.fp,
            "tn": report.confusion.tn,
            "fn": report.confusion.fn,
        },
    }


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_month_scores(scores, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bank_id,month,score,n_sentences,label\n")
        for ms in scores:
            fh.write(
                "%s,%04d-%02d,%r,%d,%d\n"
                % (ms.bank_id, ms.month[0], ms.month[1], ms.score, ms.n_sentences, ms.label)
            )
