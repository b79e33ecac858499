"""Paragraph-vector model tests: gradients, training, persistence."""

import json
import math
import os
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from bankdistress import corpus, pvdm
from bankdistress.corpus import Sentence, build_vocabulary
from bankdistress.pvdm import (
    PvdmConfig,
    infer_vector,
    infer_vectors,
    init_model,
    save_model,
    step_gradients,
    step_loss,
    train,
    valid_positions,
)

TS = datetime(2010, 6, 15, 12, 0, 0, tzinfo=timezone.utc)


def make_sentence(sid, tokens):
    return Sentence(sentence_id=sid, bank_id="bank0", published_at=TS, tokens=tuple(tokens))


def toy_corpus(n_sentences=30, n_words=18, length=9, seed=0):
    """Random sentences over a small closed vocabulary."""
    rng = np.random.default_rng(seed)
    words = ["w%02d" % i for i in range(n_words)]
    sents = [
        make_sentence("s%d" % i, rng.choice(words, size=length))
        for i in range(n_sentences)
    ]
    vocab = build_vocabulary(sents, min_count=1)
    return sents, vocab


# ---------------------------------------------------------------------------
# Initialization


def test_init_shapes_and_ranges():
    sents, vocab = toy_corpus()
    cfg = PvdmConfig(vector_dim=8, window_n=2, seed=3)
    model = init_model(vocab, sents, cfg)
    assert model.word_in.shape == (len(vocab), 8)
    assert model.paragraph.shape == (len(sents), 8)
    assert np.all(model.word_out == 0.0)
    half = 0.5 / 8
    assert np.all(np.abs(model.word_in) <= half)
    assert np.all(np.abs(model.paragraph) <= half)
    assert model.sentence_index["s0"] == 0


def test_init_deterministic():
    sents, vocab = toy_corpus()
    cfg = PvdmConfig(vector_dim=8, window_n=2, seed=3)
    a = init_model(vocab, sents, cfg)
    b = init_model(vocab, sents, cfg)
    np.testing.assert_array_equal(a.word_in, b.word_in)
    np.testing.assert_array_equal(a.paragraph, b.paragraph)


def test_init_rejects_duplicates_and_empty():
    sents, vocab = toy_corpus()
    cfg = PvdmConfig(vector_dim=8, window_n=2)
    with pytest.raises(ValueError):
        init_model(vocab, [], cfg)
    with pytest.raises(ValueError):
        init_model(vocab, [sents[0], sents[0]], cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        PvdmConfig(vector_dim=0)
    with pytest.raises(ValueError):
        PvdmConfig(window_n=0)
    with pytest.raises(ValueError):
        PvdmConfig(negative_samples=0)
    with pytest.raises(ValueError):
        PvdmConfig(lr_initial=1e-4, lr_final=1e-3)
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        PvdmConfig(epochs=-2)
    assert PvdmConfig(epochs=0).epochs == 0


@pytest.mark.parametrize("rates,fragment", [
    ({"lr_initial": float("inf")}, "must be finite"),
    ({"lr_initial": float("nan")}, "must be finite"),
    ({"lr_final": float("nan")}, "must be finite"),
    ({"lr_initial": float("inf"), "lr_final": float("inf")}, "must be finite"),
    ({"lr_final": -1.0}, "lr_final must be >= 0"),
    ({"lr_initial": 0.0, "lr_final": 0.0}, "below lr_initial"),
])
def test_config_rejects_non_finite_and_negative_rates(rates, fragment):
    with pytest.raises(ValueError, match=fragment):
        PvdmConfig(**rates)
    assert PvdmConfig(lr_final=0.0).lr_final == 0.0


# ---------------------------------------------------------------------------
# Loss and gradients


@pytest.mark.parametrize("field,value", [
    ("vector_dim", 4.0), ("window_n", True), ("negative_samples", 2.5), ("epochs", 1.5),
    ("seed", None), ("min_count", "5"),
])
def test_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ValueError) as info:
        PvdmConfig(**{field: value})
    assert "%s must be an integer, got %r" % (field, value) in str(info.value)
    assert PvdmConfig(vector_dim=np.int64(4)).vector_dim == 4


def test_initial_step_loss_is_closed_form():
    # with zero output weights every score is 0, sigma = 1/2, so the loss
    # is (1 + k) * ln 2 regardless of the sampled noise words
    sents, vocab = toy_corpus()
    for k in (1, 5, 9):
        cfg = PvdmConfig(vector_dim=8, window_n=2, negative_samples=k, seed=0)
        model = init_model(vocab, sents, cfg)
        loss = step_loss(model, sents[0].tokens, 0, noise_idx=np.arange(k), paragraph_row=0)
        assert abs(loss - (1 + k) * math.log(2.0)) < 1e-12


def randomized_model(dim=8, window=3, k=4, n_words=20, seed=7):
    sents, vocab = toy_corpus(n_sentences=10, n_words=n_words, length=window + 4, seed=seed)
    cfg = PvdmConfig(vector_dim=dim, window_n=window, negative_samples=k, seed=seed)
    model = init_model(vocab, sents, cfg)
    rng = np.random.default_rng(seed + 1)
    model.word_out[:] = rng.normal(0.0, 0.3, size=model.word_out.shape)
    model.word_in[:] = rng.normal(0.0, 0.3, size=model.word_in.shape)
    model.paragraph[:] = rng.normal(0.0, 0.3, size=model.paragraph.shape)
    return model, sents


def central_difference(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        x[i] += eps
        hi = f()
        x[i] -= 2 * eps
        lo = f()
        x[i] += eps
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def test_step_gradients_match_finite_differences():
    model, sents = randomized_model()
    tokens = sents[0].tokens
    # duplicated noise index exercises gradient accumulation on word_out
    noise_idx = np.array([2, 5, 5, 11])
    loss, grad_in, grad_par, grad_out = step_gradients(
        model, tokens, 0, noise_idx, paragraph_row=0
    )
    assert loss > 0.0

    def rel_err(analytic, numeric):
        return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)

    def loss_now():
        return step_loss(model, tokens, 0, noise_idx, paragraph_row=0)

    num_par = central_difference(loss_now, model.paragraph[0])
    assert rel_err(grad_par, num_par) < 1e-5

    for w, g in grad_in.items():
        num = central_difference(loss_now, model.word_in[w])
        assert rel_err(g, num) < 1e-5

    for w, g in grad_out.items():
        num = central_difference(loss_now, model.word_out[w])
        assert rel_err(g, num) < 1e-5


def test_step_gradients_accumulate_repeated_context_words():
    model, sents = randomized_model()
    tokens = ("w01", "w01", "w02", "w03")  # window 3, repeated context word
    idx01 = model.vocab.lookup("w01")
    _, grad_in, _, _ = step_gradients(model, tokens, 0, np.array([4, 9]), paragraph_row=0)
    assert set(grad_in) == {idx01, model.vocab.lookup("w02")}

    def loss_now():
        return step_loss(model, tokens, 0, np.array([4, 9]), paragraph_row=0)

    num = central_difference(loss_now, model.word_in[idx01])
    np.testing.assert_allclose(grad_in[idx01], num, rtol=1e-5, atol=1e-9)


def test_position_bounds():
    model, sents = randomized_model(window=3)
    tokens = sents[0].tokens  # length window + 4 = 7
    with pytest.raises(IndexError):
        step_loss(model, tokens, len(tokens) - 3, np.array([1]), paragraph_row=0)
    with pytest.raises(IndexError):
        step_loss(model, tokens, -1, np.array([1]), paragraph_row=0)


def test_window_rows_match_context_target():
    model, _ = randomized_model(window=3)
    n = model.config.window_n
    seqs = [
        (),
        ("w03",) * (n + 1),                                 # one token short
        ("w05", "w06", "w07", "w08", "w09"),                # exactly window_n + 2
        ("w02", "zzz", "w02", "yyy", "w02", "w04", "zzz"),  # unknown and repeated words
        ("w11", "w11", "w11", "w12", "w13", "w11", "w11", "w14"),
        ("w01",),
    ]
    ctx, targets, counts = pvdm._window_rows(model, seqs)
    assert counts.tolist() == [len(valid_positions(t, n)) for t in seqs] == [0, 0, 1, 3, 4, 0]
    want = [pvdm._context_target(model, t, p) for t in seqs for p in valid_positions(t, n)]
    assert ctx.shape == (len(want), n) and targets.shape == (len(want),)
    for c, t, (want_c, want_t) in zip(ctx, targets, want):
        np.testing.assert_array_equal(c, want_c)
        assert t == want_t
    ctx, targets, counts = pvdm._window_rows(model, [])
    assert ctx.shape == (0, n) and targets.shape == (0,) and counts.shape == (0,)


def test_valid_positions():
    assert list(valid_positions(("a",) * 4, 5)) == []      # too short
    assert list(valid_positions(("a",) * 6, 5)) == []      # still one token shy
    assert list(valid_positions(("a",) * 7, 5)) == [0]
    assert list(valid_positions(("a",) * 10, 5)) == [0, 1, 2, 3]


def test_noise_cdf_ends_at_one():
    # ten equal weights: the plain cumsum ends at 0.9999999999999999, and <unk>
    # (never seen) comes last with no mass
    sents = [make_sentence("s0", ["w%d" % i for i in range(10)])]
    vocab = build_vocabulary(sents, min_count=1)
    plain = np.cumsum(vocab.noise_probs)
    assert plain[-1] < 1.0 and vocab.noise_probs[-1] == 0.0
    cdf = init_model(vocab, sents, PvdmConfig(vector_dim=4, window_n=2)).noise_cdf()
    np.testing.assert_array_equal(cdf[:9], plain[:9])
    assert cdf[9:].tolist() == [1.0, 1.0]
    # the highest uniform draw gives the last word with mass, not an index past the end
    assert np.searchsorted(cdf, np.nextafter(1.0, 0.0), side="right") == 9


def model_with_noise(probs):
    """A one-sentence model whose vocabulary has the noise distribution ``probs``."""
    sents = [make_sentence("s0", ["w%d" % i for i in range(len(probs))])]
    vocab = replace(build_vocabulary(sents, min_count=1), noise_probs=np.asarray(probs))
    return init_model(vocab, sents, PvdmConfig(vector_dim=4, window_n=2))


def zipf_probs(n, zeros=0):
    """Counts 1/rank over ``n`` words raised to the noise power, with the
    last ``zeros`` of them at zero mass."""
    weights = (1.0 / np.arange(1, n + 1)) ** corpus.NOISE_POWER
    weights[n - zeros:] = 0.0
    return weights / weights.sum()


@pytest.mark.parametrize("probs", [
    zipf_probs(163),
    zipf_probs(40, zeros=6),
    np.full(11, 0.1) * (np.arange(11) < 10),  # a cumsum that ends below 1.0
    zipf_probs(10_000),  # more cdf steps than buckets
    [1.0],
], ids=["text-pipeline-vocabulary", "zero-mass-tail", "equal-weights", "large", "one-word"])
def test_noise_words_equal_the_search(probs):
    model = model_with_noise(probs)
    cdf = model.noise_cdf()
    below_one = np.nextafter(1.0, 0.0)
    edges = np.arange(pvdm.NOISE_BUCKETS) / pvdm.NOISE_BUCKETS
    special = np.concatenate([[0.0, below_one], cdf, np.nextafter(cdf, 0.0),
                              np.nextafter(cdf, 1.0), edges, np.nextafter(edges, 1.0),
                              np.nextafter(edges[1:], 0.0)])
    special = special[special < 1.0]
    draws = np.random.default_rng(0).random(1_000_000)
    for u in (special, draws, draws[:999_990].reshape(-1, 5, 2)):
        got = model.noise_words(u)
        assert got.shape == u.shape
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


# ---------------------------------------------------------------------------
# Training


def reference_train(model, sentences, batch_pairs):
    """train's schedule straight from step_gradients: the oracle for train.

    Pairs in sentence then position order; ``default_rng([seed, 1])`` makes
    one shuffle and one (pairs, k) noise draw per epoch. Each batch of
    ``batch_pairs`` shuffled pairs takes every pair's gradients from a copy
    of the batch's starting state and applies them all at the batch's
    learning rate, which falls linearly over all batches of the run.

    Also returns the parameter groups in which some row took two or more
    terms within one batch, so a test can check that it exercised them.
    """
    cfg = model.config
    pairs = [(s, pos) for s in sentences for pos in valid_positions(s.tokens, cfg.window_n)]
    size = batch_pairs
    n_batches = math.ceil(len(pairs) / size)
    rng = np.random.default_rng([cfg.seed, 1])
    denom = float(max(1, cfg.epochs * n_batches - 1))
    order = np.arange(len(pairs))
    losses, repeated = [], set()
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        u = rng.random((len(pairs), cfg.negative_samples))
        noise = np.searchsorted(model.noise_cdf(), u, side="right")
        total = 0.0
        for b in range(n_batches):
            lr = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * ((epoch * n_batches + b) / denom)
            start = replace(model, word_in=model.word_in.copy(),
                            word_out=model.word_out.copy(), paragraph=model.paragraph.copy())
            terms = {"word_in": Counter(), "word_out": Counter(), "paragraph": Counter()}
            for j in range(b * size, min(len(pairs), (b + 1) * size)):
                sent, pos = pairs[order[j]]
                row = model.sentence_index[sent.sentence_id]
                loss, grad_in, grad_par, grad_out = step_gradients(
                    start, sent.tokens, pos, noise[j], paragraph_row=row)
                total += loss
                for w, g in grad_in.items():
                    model.word_in[w] -= lr * g
                model.paragraph[row] -= lr * grad_par
                for w, g in grad_out.items():
                    model.word_out[w] -= lr * g
                terms["word_in"].update(model.vocab.lookup(t)
                                        for t in sent.tokens[pos:pos + cfg.window_n])
                terms["word_out"].update([model.vocab.lookup(sent.tokens[pos + cfg.window_n])]
                                         + noise[j].tolist())
                terms["paragraph"][row] += 1
            repeated.update(g for g, count in terms.items() if max(count.values()) > 1)
        losses.append(total / len(pairs))
    return model, losses, repeated


@pytest.mark.parametrize("batch_pairs,repeated", [
    (1, {"word_in", "word_out"}),
    (3, {"word_in", "word_out", "paragraph"}),
    (7, {"word_in", "word_out", "paragraph"}),
    (50, {"word_in", "word_out", "paragraph"}),
], ids=["one-pair", "3", "7-short-last-batch", "more-than-all-pairs"])
def test_train_matches_reference_train(monkeypatch, batch_pairs, repeated):
    # six words, window 3 and three noise draws: many steps repeat a context
    # word, draw a noise word twice or draw the target as noise, and a batch
    # of three or more often holds two pairs of one sentence (its paragraph
    # row) or shares a context or noise word between pairs
    sents, vocab = toy_corpus(n_sentences=12, n_words=6, length=7, seed=3)
    sents.append(make_sentence("short", ("w01", "w02")))  # no position
    cfg = PvdmConfig(vector_dim=5, window_n=3, negative_samples=3, epochs=3,
                     lr_initial=0.2, seed=2)
    monkeypatch.setattr(pvdm, "BATCH_PAIRS", batch_pairs)
    n_pairs = sum(len(valid_positions(s.tokens, cfg.window_n)) for s in sents)
    assert n_pairs == 36  # 36 = 5 * 7 + 1: the last batch of seven holds one pair
    got, got_losses = train(init_model(vocab, sents, cfg), sents)
    want, want_losses, want_repeated = reference_train(init_model(vocab, sents, cfg), sents,
                                                       batch_pairs)
    assert want_repeated == repeated
    for name in ("word_in", "word_out", "paragraph"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_losses, want_losses, rtol=0, atol=1e-12)


@pytest.mark.parametrize("noise_batches", [1, 5, 1000], ids=["one", "5", "more-than-all"])
def test_noise_batches_leave_the_model_and_losses_unchanged(monkeypatch, noise_batches):
    # 301 sentences of 8 pairs: 2,408 pairs in 75 batches of 32 and one of 8,
    # so the default's second chunk of 64 batches is partial, as is the last
    # of every 5
    sents, vocab = toy_corpus(n_sentences=301, n_words=20, length=12, seed=5)
    cfg = PvdmConfig(vector_dim=4, window_n=3, negative_samples=3, epochs=2, seed=1)
    assert pvdm.BATCH_PAIRS == 32 and pvdm.NOISE_BATCHES == 64
    default, default_losses = train(init_model(vocab, sents, cfg), sents)
    monkeypatch.setattr(pvdm, "NOISE_BATCHES", noise_batches)
    got, losses = train(init_model(vocab, sents, cfg), sents)
    assert losses == default_losses
    for name in ("word_in", "word_out", "paragraph"):
        assert getattr(got, name).tobytes() == getattr(default, name).tobytes(), name


def test_train_deterministic_and_loss_decreases():
    sents, vocab = toy_corpus(n_sentences=40, seed=2)
    cfg = PvdmConfig(vector_dim=12, window_n=2, epochs=5, lr_initial=0.05, seed=4)
    m1, losses1 = train(init_model(vocab, sents, cfg), sents)
    m2, losses2 = train(init_model(vocab, sents, cfg), sents)
    assert losses1 == losses2
    np.testing.assert_array_equal(m1.word_in, m2.word_in)
    np.testing.assert_array_equal(m1.paragraph, m2.paragraph)
    assert losses1[-1] < losses1[0]


def test_train_stays_finite_when_sigma_saturates():
    # |u . h| > 40: sigma rounds to exactly 0 or 1, where -log(sigma) would be inf
    sents, vocab = toy_corpus(n_sentences=12, n_words=6, length=7, seed=3)
    cfg = PvdmConfig(vector_dim=5, window_n=3, negative_samples=3, epochs=3, seed=2)
    model = init_model(vocab, sents, cfg)
    rng = np.random.default_rng(0)
    model.word_out[:] = rng.choice((-1.0, 1.0), size=model.word_out.shape) * 1e4
    model.paragraph[:] = 1.0
    model.word_in[:] = 1.0
    h = np.ones(cfg.vector_dim)
    assert np.abs(model.word_out @ h).min() > 40.0
    model, losses = train(model, sents)
    assert np.isfinite(losses).all() and losses[0] > 40.0
    for name in ("word_in", "word_out", "paragraph"):
        assert np.isfinite(getattr(model, name)).all()


def set_infer_schedule(monkeypatch, steps, lr=pvdm.INFER_LR):
    monkeypatch.setattr(pvdm, "INFER_STEPS", steps)
    monkeypatch.setattr(pvdm, "INFER_LR", lr)


def test_train_and_infer_restore_the_error_state(monkeypatch):
    # saturated scores overflow exp(-x); the calls ignore that inside and
    # leave the caller's own setting (here: raise) as they found it
    sents, vocab = toy_corpus(n_sentences=12, n_words=6, length=7, seed=3)
    cfg = PvdmConfig(vector_dim=5, window_n=3, negative_samples=3, epochs=2, seed=2)
    model = init_model(vocab, sents, cfg)
    model.word_out[:] = np.random.default_rng(0).choice((-1.0, 1.0), size=model.word_out.shape) * 1e4
    model.word_in[:] = model.paragraph[:] = 1.0
    with np.errstate(over="raise"):
        before = np.geterr()
        model, _ = train(model, sents)
        assert np.geterr() == before
        set_infer_schedule(monkeypatch, 3)
        (vec,) = infer_vectors(model, [sents[0].tokens], [1])
        assert np.geterr() == before
    assert np.isfinite(vec).all()


def test_train_skips_short_sentences():
    sents, vocab = toy_corpus(n_sentences=5, length=10, seed=1)
    short = make_sentence("short", ("w01", "w02"))
    cfg = PvdmConfig(vector_dim=6, window_n=5, epochs=2, lr_initial=0.05, seed=0)
    model = init_model(vocab, sents + [short], cfg)
    before = model.paragraph[model.sentence_index["short"]].copy()
    model, _ = train(model, sents + [short])
    np.testing.assert_array_equal(model.paragraph[model.sentence_index["short"]], before)


def test_train_refuses_epochs_where_no_sentence_has_a_training_position():
    # a 10-token sentence trains at window_n 8 (one position) but not at 9
    sents, vocab = toy_corpus(n_sentences=5, length=10, seed=1)
    model, losses = train(init_model(vocab, sents, PvdmConfig(vector_dim=6, window_n=8)), sents)
    assert len(losses) == model.config.epochs
    cfg = PvdmConfig(vector_dim=6, window_n=9, epochs=2)
    with pytest.raises(ValueError, match=r"^no sentence has a training position at window_n 9: "
                                         r"one needs 11 tokens, and the longest has 10$"):
        train(init_model(vocab, sents, cfg), sents)
    # with no epochs asked for, the model comes back as it was
    model = init_model(vocab, sents, replace(cfg, epochs=0))
    before = model.paragraph.copy()
    got, losses = train(model, sents)
    assert got is model and losses == []
    np.testing.assert_array_equal(model.paragraph, before)


def test_train_rejects_unknown_sentence():
    sents, vocab = toy_corpus(n_sentences=5)
    cfg = PvdmConfig(vector_dim=6, window_n=2, epochs=1)
    model = init_model(vocab, sents[:4], cfg)
    with pytest.raises(ValueError):
        train(model, sents)


# ---------------------------------------------------------------------------
# Inference


def trained_two_topic_model():
    rng = np.random.default_rng(0)
    words_a = ["profit", "dividend", "steady", "growth", "capital", "revenue"]
    words_b = ["losses", "default", "crisis", "bailout", "shortfall", "withdrawn"]
    sents = []
    for i in range(120):
        pool = words_a if i % 2 == 0 else words_b
        sents.append(make_sentence("s%d" % i, rng.choice(pool, size=8)))
    vocab = build_vocabulary(sents, min_count=1)
    cfg = PvdmConfig(vector_dim=16, window_n=2, epochs=40, lr_initial=0.1, seed=0)
    model, _ = train(init_model(vocab, sents, cfg), sents)
    return model, sents


def test_infer_vector_recovers_training_sentence(monkeypatch):
    model, sents = trained_two_topic_model()
    set_infer_schedule(monkeypatch, 40)
    inferred = infer_vector(model, sents[0].tokens, seed=5)

    def cosine(sentence_id):
        own = model.paragraph[model.sentence_index[sentence_id]]
        return inferred @ own / (np.linalg.norm(inferred) * np.linalg.norm(own))

    assert cosine("s0") > 0.5
    assert cosine("s0") > cosine("s1")


def reference_infer_vector(model, tokens, seed=0):
    """One sentence at a time through step_gradients: the oracle for infer_vectors,
    with its schedule ``pvdm.INFER_STEPS`` and ``pvdm.INFER_LR``."""
    steps, lr = pvdm.INFER_STEPS, pvdm.INFER_LR
    cfg = model.config
    if len(tokens) < cfg.window_n + 2:
        return None
    rng = np.random.default_rng(seed)
    half = 0.5 / cfg.vector_dim
    vec = rng.uniform(-half, half, size=cfg.vector_dim)
    for _ in range(steps):
        for pos in valid_positions(tokens, cfg.window_n):
            u = rng.random(cfg.negative_samples)
            noise_idx = np.searchsorted(model.noise_cdf(), u, side="right")
            _, _, grad_par, _ = step_gradients(
                model, tuple(tokens), pos, noise_idx, paragraph_vec=vec
            )
            vec -= lr * grad_par
    return vec


def assert_matches_reference(model, token_seqs, seeds, got):
    assert len(got) == len(token_seqs)
    for tokens, seed, vec in zip(token_seqs, seeds, got):
        want = reference_infer_vector(model, tokens, seed=seed)
        if want is None:
            assert vec is None
        else:
            np.testing.assert_allclose(vec, want, rtol=0, atol=1e-12)


def test_infer_vectors_match_per_sentence_reference(monkeypatch):
    model, _ = randomized_model(window=3)
    n = model.config.window_n
    batch = [
        ("w01", "w02", "w03", "w04", "w05", "w06", "w07", "w08", "w09", "w10"),
        ("w03",) * (n + 1),                                 # one token short: None
        ("w05", "w06", "w07", "w08", "w09"),                # exactly window_n + 2
        ("w02", "zzz", "w02", "yyy", "w02", "w04", "zzz"),  # unknown and repeated words
        ("w11", "w11", "w11", "w12", "w13", "w11", "w11", "w14"),
        (),
        ("w15", "w16", "w17", "w18", "w19", "w00", "w01", "w02", "w03", "w04",
         "w05", "w06", "w07"),
    ]
    seeds = [11, 12, 13, 14, 15, 16, 17]
    set_infer_schedule(monkeypatch, 7, 0.05)
    got = infer_vectors(model, batch, seeds)
    assert [v is None for v in got] == [False, True, False, False, False, True, False]
    assert_matches_reference(model, batch, seeds, got)

    # a batch of one, and the empty batch
    one = infer_vectors(model, batch[3:4], seeds[3:4])
    assert_matches_reference(model, batch[3:4], seeds[3:4], one)
    assert infer_vectors(model, [], []) == []
    with pytest.raises(ValueError, match="one seed per sentence"):
        infer_vectors(model, batch, seeds[:2])


@pytest.mark.parametrize("dim,window", [(8, 3), (1, 9)], ids=["dim8", "dim1-window9"])
def test_infer_vectors_batch_equals_each_sentence_alone(monkeypatch, dim, window):
    # mixed lengths: the batch runs position-major over the longest-first
    # sentences, and each sentence draws all its sweeps' noise in one call
    model, _ = randomized_model(dim=dim, window=window, n_words=20)
    rng = np.random.default_rng(4)
    words = ["w%02d" % i for i in range(20)] + ["zzz"]
    batch = [tuple(rng.choice(words, size=size)) for size in (0, 25, window + 2, 3, 14, 25,
                                                               window + 1, 19, window + 3)]
    seeds = list(range(30, 30 + len(batch)))
    set_infer_schedule(monkeypatch, 4, 0.05)
    got = infer_vectors(model, batch, seeds)
    assert sum(v is None for v in got) == 3
    for tokens, seed, vec in zip(batch, seeds, got):
        (alone,) = infer_vectors(model, [tokens], [seed])
        if alone is None:
            assert vec is None
        else:
            np.testing.assert_array_equal(vec, alone)
    assert_matches_reference(model, batch, seeds, got)


def test_infer_chunks_leave_the_vectors_unchanged(monkeypatch):
    # the longest-first order cut into chunks of one, of three (the last one
    # partial) and the default, which holds the whole batch
    model, _ = randomized_model(dim=6, window=3, n_words=20)
    rng = np.random.default_rng(8)
    words = ["w%02d" % i for i in range(20)] + ["zzz"]
    batch = [tuple(rng.choice(words, size=size)) for size in (12, 0, 5, 30, 4, 9, 5, 17, 6, 3,
                                                               22)]
    seeds = list(range(50, 50 + len(batch)))
    set_infer_schedule(monkeypatch, 3, 0.05)
    default = infer_vectors(model, batch, seeds)
    assert sum(v is None for v in default) == 3 and pvdm.INFER_CHUNK > len(batch)
    for chunk in (1, 3):
        monkeypatch.setattr(pvdm, "INFER_CHUNK", chunk)
        got = infer_vectors(model, batch, seeds)
        assert [v is None for v in got] == [v is None for v in default]
        for vec, want in zip(got, default):
            if want is not None:
                assert vec.tobytes() == want.tobytes()
        assert_matches_reference(model, batch, seeds, got)


def test_infer_vector_wraps_infer_vectors(monkeypatch):
    model, sents = randomized_model()
    tokens = sents[2].tokens
    set_infer_schedule(monkeypatch, 5)
    vec = infer_vector(model, tokens, seed=9)
    np.testing.assert_array_equal(vec, infer_vectors(model, [tokens], [9])[0])


def test_infer_vector_needs_trainable_context():
    sents, vocab = toy_corpus()
    model = init_model(vocab, sents, PvdmConfig(vector_dim=8, window_n=5))
    with pytest.raises(ValueError, match="no trainable context"):
        infer_vector(model, ("w01",) * 6)


# ---------------------------------------------------------------------------
# Persistence


def test_save_model_writes_the_bytes_of_np_savez(tmp_path):
    sents, vocab = toy_corpus(n_sentences=20, seed=9)
    model = init_model(vocab, sents, PvdmConfig(vector_dim=10, window_n=2, seed=1))
    save_model(model, str(tmp_path / "model.npz"))
    with np.load(str(tmp_path / "model.npz")) as data:
        arrays = {name: data[name] for name in data.files}
    assert list(arrays) == ["header", "word_in", "word_out", "noise_probs"]
    np.savez(str(tmp_path / "oracle.npz"), **arrays)
    assert (tmp_path / "model.npz").read_bytes() == (tmp_path / "oracle.npz").read_bytes()


def test_the_model_file_holds_the_word_model_and_the_twin_the_trained_vectors(tmp_path):
    # the sentence vectors live in the export alone: the model file keeps
    # what inferring a new sentence's vector reads
    sents, vocab = toy_corpus(n_sentences=20, seed=9)
    cfg = PvdmConfig(vector_dim=10, window_n=2, epochs=2, lr_initial=0.05, seed=1)
    model, _ = train(init_model(vocab, sents, cfg), sents)
    save_model(model, str(tmp_path / "model.npz"))
    pvdm.export_vectors(model, str(tmp_path / "vectors.jsonl"))
    with np.load(str(tmp_path / "model.npz")) as data:
        header = json.loads(data["header"].tobytes().decode("utf-8"))
        assert data.files == ["header", "word_in", "word_out", "noise_probs"]
        for name in ("word_in", "word_out"):
            assert data[name].tobytes() == getattr(model, name).tobytes()
        assert data["noise_probs"].tobytes() == vocab.noise_probs.tobytes()
    assert header["format"] == "pvdm-v2" and "sentence_ids" not in header
    assert PvdmConfig(**header["config"]) == cfg
    assert header["vocab"]["tokens"] == vocab.index_to_token
    with np.load(corpus.twin_path(str(tmp_path / "vectors.jsonl"))) as twin:
        assert twin["values"].tobytes() == model.paragraph.tobytes()
        assert json.loads(twin["ids"].tobytes()) == [s.sentence_id for s in sents]


def test_vector_export_round_trip(tmp_path):
    sents, vocab = toy_corpus(n_sentences=8)
    model = init_model(vocab, sents, PvdmConfig(vector_dim=6, window_n=2, seed=2))
    path = str(tmp_path / "vectors.jsonl")
    pvdm.export_vectors(model, path)
    rows, values, spans = pvdm.read_vectors(path)
    assert list(rows.items()) == list(model.sentence_index.items())
    assert values.tobytes() == model.paragraph.tobytes()
    assert spans.shape == (len(rows), 2)
    # without the twin the JSON gives the same rows and bits, and no spans
    os.remove(corpus.twin_path(path))
    json_rows, json_values, json_spans = pvdm.read_vectors(path)
    assert list(json_rows.items()) == list(rows.items()) and json_spans is None
    assert json_values.tobytes() == values.tobytes()


@pytest.mark.parametrize("values,fragment", [
    ([0.5] * 5, "values has 5 entries where the first row has 6"),
    ([0.5] * 5 + [float("nan")], "values holds a NaN or infinite entry"),
    ([0.5] * 5 + ["1.0"], "values must be a list of numbers"),
    ([0.5] * 5 + [False], "values must be a list of numbers"),
    ({"x": 1.0}, "values must be a list of numbers"),
], ids=["short", "nan", "string-entry", "bool-entry", "object"])
def test_read_vectors_rejects_malformed_rows(tmp_path, values, fragment):
    sents, vocab = toy_corpus(n_sentences=4)
    model = init_model(vocab, sents, PvdmConfig(vector_dim=6, window_n=2, seed=2))
    path = tmp_path / "vectors.jsonl"
    pvdm.export_vectors(model, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), values=values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"vectors\.jsonl:2: ") as info:
        pvdm.read_vectors(str(path))
    assert fragment in str(info.value)
