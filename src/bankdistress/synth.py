"""Seeded synthetic banks, news and indicators for desk-scale verification."""

import calendar
import os
from dataclasses import dataclass, asdict
from datetime import date, datetime, timezone

import numpy as np

from .corpus import Article, BankEntity, Registry, require_int, write_json, write_jsonl
from .fusion import (
    DistressEvent,
    EVENT_KINDS,
    INDICATOR_NAMES,
    QuarterlyIndicators,
    write_events,
    write_indicators,
)

# Six of the twelve indicators shift under distress, with alternating sign.
SIGNAL_INDICATORS = (0, 1, 2, 3, 4, 5)
SIGNAL_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)

_NAME_PREFIXES = (
    "Nor", "Hel", "Ost", "Val", "Bre", "Cal", "Dor", "Fen", "Gral", "Hax",
    "Jor", "Kel", "Lum", "Mar", "Nov", "Orv", "Pel", "Quin", "Rav", "Sol",
    "Tor", "Ulm", "Ven", "Wex", "Yor", "Zan",
)
_NAME_SUFFIXES = ("dia", "vek", "mont", "lor", "gan", "tis", "rund", "bek")
_COUNTRIES = ("DE", "FR", "IT", "ES", "NL", "GR", "IE", "PT", "AT", "DK", "SE", "FI")

TRANQUIL_PHRASES = (
    "reported steady quarterly profit and stable funding conditions",
    "announced a modest dividend after another solid earnings season",
    "expanded its lending book on healthy capital buffers",
    "posted resilient revenue growth across its retail operations",
    "maintained a comfortable liquidity position through the quarter",
    "confirmed its guidance citing robust deposit inflows",
)

DISTRESS_PHRASES = (
    "faces mounting losses amid a deepening funding crisis",
    "sought emergency state aid after heavy trading losses",
    "warned of default risk as nervous depositors withdrew funds",
    "was downgraded following a severe capital shortfall",
    "suspended its dividend amid tense bailout negotiations",
    "scrambled to plug a widening hole in its balance sheet",
)

FILLER_WORDS = (
    "analysts", "said", "market", "investors", "regulators", "sector",
    "europe", "report", "today", "meanwhile", "traders", "shares",
    "outlook", "sources", "officials", "quarter",
)


@dataclass
class SynthConfig:
    n_banks: int = 62
    start_quarter: tuple = (2007, 1)
    end_quarter: tuple = (2014, 3)
    sentences_per_bank_quarter: tuple = (5, 40)
    distress_prior: float = 0.07
    text_signal: float = 0.3
    numeric_signal: float = 0.6
    indicator_shift: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.start_quarter = tuple(self.start_quarter)
        self.end_quarter = tuple(self.end_quarter)
        self.sentences_per_bank_quarter = tuple(self.sentences_per_bank_quarter)
        if not 0.0 <= self.text_signal <= 1.0 or not 0.0 <= self.numeric_signal <= 1.0:
            raise ValueError("signal strengths must lie in [0, 1]")
        if not 0.0 < self.distress_prior < 1.0:
            raise ValueError("distress_prior must lie in (0, 1)")
        require_int("n_banks", self.n_banks, 1)
        require_int("seed", self.seed, 0)
        lo, hi = self.sentences_per_bank_quarter
        require_int("sentences_per_bank_quarter minimum", lo, 1)
        require_int("sentences_per_bank_quarter maximum", hi, lo)


@dataclass
class SyntheticDataset:
    registry: Registry
    articles: list
    events: list
    indicators: list
    distressed_months: dict  # bank_id -> frozenset of (year, month)
    months: list
    config: SynthConfig


def _quarter_range(start_quarter, end_quarter):
    y, q = start_quarter
    quarters = []
    while (y, q) <= tuple(end_quarter):
        quarters.append((y, q))
        q += 1
        if q == 5:
            y, q = y + 1, 1
    return quarters


def _month_range(start_quarter, end_quarter):
    return [(y, 3 * (q - 1) + m) for y, q in _quarter_range(start_quarter, end_quarter)
            for m in (1, 2, 3)]


def _bank_names(n):
    names = ["%s%s Bank" % (p, s) for p in _NAME_PREFIXES for s in _NAME_SUFFIXES]
    if n > len(names):
        raise ValueError("at most %d synthetic banks supported" % len(names))
    return names[:n]


def _place_windows(config, months, rng):
    """Distress windows per bank hitting the target prior over bank-months.

    Each bank gets at most two non-overlapping windows of 3-9 months;
    banks are filled in shuffled order until the month budget is spent.
    """
    n_months = len(months)
    total = config.n_banks * n_months
    target = int(round(config.distress_prior * total))
    bank_windows = {i: [] for i in range(config.n_banks)}
    order = list(range(config.n_banks)) * 2
    rng.shuffle(order)
    remaining = target
    for bank in order:
        if remaining <= 0:
            break
        if len(bank_windows[bank]) >= 2:
            continue
        length = int(min(rng.integers(3, 10), remaining, n_months))
        for _ in range(20):
            start = int(rng.integers(0, n_months - length + 1))
            span = set(range(start, start + length))
            taken = set()
            for s, e in bank_windows[bank]:
                taken.update(range(max(0, s - 1), min(n_months, e + 2)))
            if not span & taken:
                bank_windows[bank].append((start, start + length - 1))
                remaining -= length
                break
    realized = (target - remaining) / total
    if abs(realized - config.distress_prior) > 0.02:
        raise ValueError(
            "infeasible distress prior %.3f for this span (realized %.3f)"
            % (config.distress_prior, realized)
        )
    return bank_windows


def _window_to_event(bank_id, months, window, rng):
    start_y, start_m = months[window[0]]
    end_y, end_m = months[window[1]]
    return DistressEvent(
        bank_id=bank_id,
        start_date=date(start_y, start_m, 1),
        end_date=date(end_y, end_m, calendar.monthrange(end_y, end_m)[1]),
        kind=EVENT_KINDS[int(rng.integers(0, len(EVENT_KINDS)))],
    )


def _compose_sentence(canonical, distressed, rng):
    phrases = DISTRESS_PHRASES if distressed else TRANQUIL_PHRASES
    phrase = phrases[int(rng.integers(0, len(phrases)))]
    fillers = rng.choice(len(FILLER_WORDS), size=3, replace=False)
    tail = "as %s %s told %s" % tuple(FILLER_WORDS[i] for i in fillers)
    return "%s %s %s." % (canonical, phrase, tail)


def generate(config):
    """Build a complete seeded dataset in the pipeline's input formats."""
    rng = np.random.default_rng(config.seed)
    months = _month_range(config.start_quarter, config.end_quarter)
    quarters = _quarter_range(config.start_quarter, config.end_quarter)
    names = _bank_names(config.n_banks)

    registry = Registry(BankEntity(bank_id="bank%03d" % i, canonical_name=name,
                                   country=_COUNTRIES[i % len(_COUNTRIES)], name_patterns=(name,))
                        for i, name in enumerate(names))

    bank_windows = _place_windows(config, months, rng)
    events = []
    distressed_months = {}
    for i, entity in enumerate(registry):
        state = set()
        for window in sorted(bank_windows[i]):
            events.append(_window_to_event(entity.bank_id, months, window, rng))
            state.update(months[j] for j in range(window[0], window[1] + 1))
        distressed_months[entity.bank_id] = frozenset(state)

    shift = config.indicator_shift * config.numeric_signal
    indicators = []
    for entity in registry:
        for (year, quarter) in quarters:
            q_months = [(year, 3 * (quarter - 1) + m) for m in (1, 2, 3)]
            distressed_q = any(m in distressed_months[entity.bank_id] for m in q_months)
            values = rng.normal(0.0, 1.0, size=len(INDICATOR_NAMES))
            if distressed_q:
                for pos, sign in zip(SIGNAL_INDICATORS, SIGNAL_SIGNS):
                    values[pos] += sign * shift
            indicators.append(
                QuarterlyIndicators(
                    bank_id=entity.bank_id, year=year, quarter=quarter, values=values
                )
            )

    lo, hi = config.sentences_per_bank_quarter
    articles = []
    for entity in registry:
        for (year, quarter) in quarters:
            total = int(rng.integers(lo, hi + 1))
            split = rng.multinomial(total, [1 / 3] * 3)
            for offset, count in enumerate(split):
                if count == 0:
                    continue
                month = 3 * (quarter - 1) + 1 + offset
                distressed = (year, month) in distressed_months[entity.bank_id]
                sentences = []
                for _ in range(count):
                    use_distress_vocab = distressed and rng.random() < config.text_signal
                    sentences.append(
                        _compose_sentence(entity.canonical_name, use_distress_vocab, rng)
                    )
                day = int(rng.integers(1, 28))
                articles.append(
                    Article(
                        article_id="a-%s-%04d%02d" % (entity.bank_id, year, month),
                        published_at=datetime(year, month, day, 12, 0, 0, tzinfo=timezone.utc),
                        body=" ".join(sentences),
                    )
                )

    return SyntheticDataset(
        registry=registry,
        articles=articles,
        events=events,
        indicators=indicators,
        distressed_months=distressed_months,
        months=months,
        config=config,
    )


def realized_prior(dataset):
    total = dataset.config.n_banks * len(dataset.months)
    distressed = sum(len(s) for s in dataset.distressed_months.values())
    return distressed / total


def describe(dataset):
    """Summary counts and state-conditional indicator means."""
    n_sentences = sum(len(a.body.split(". ")) for a in dataset.articles)
    by_state = {0: [], 1: []}
    for rec in dataset.indicators:
        q_months = [(rec.year, 3 * (rec.quarter - 1) + m) for m in (1, 2, 3)]
        distressed = any(m in dataset.distressed_months[rec.bank_id] for m in q_months)
        by_state[int(distressed)].append(rec.values)
    means = {}
    for state, rows in by_state.items():
        means[state] = np.vstack(rows).mean(axis=0) if rows else np.full(len(INDICATOR_NAMES), np.nan)
    return {
        "n_banks": len(dataset.registry),
        "n_articles": len(dataset.articles),
        "n_sentences": n_sentences,
        "n_events": len(dataset.events),
        "n_bank_months": dataset.config.n_banks * len(dataset.months),
        "realized_prior": realized_prior(dataset),
        "indicator_means_tranquil": means[0].tolist(),
        "indicator_means_distress": means[1].tolist(),
        "indicator_names": list(INDICATOR_NAMES),
    }


def write_dataset(dataset, outdir):
    """Serialize to the exact formats the ingestion modules consume."""
    os.makedirs(outdir, exist_ok=True)
    write_json([{"bank_id": e.bank_id, "canonical_name": e.canonical_name,
                 "country": e.country, "name_patterns": list(e.name_patterns)}
                for e in dataset.registry], os.path.join(outdir, "registry.json"))
    write_jsonl(({"article_id": a.article_id, "published_at": a.published_at.isoformat(),
                  "body": a.body} for a in dataset.articles),
                os.path.join(outdir, "articles.jsonl"))
    write_events(dataset.events, os.path.join(outdir, "events.csv"))
    write_indicators(dataset.indicators, os.path.join(outdir, "indicators.csv"))
    write_json({"config": asdict(dataset.config), "seed": dataset.config.seed},
               os.path.join(outdir, "manifest.json"))
