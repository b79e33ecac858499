"""Paragraph-vector model tests: gradients, training, persistence."""

import math
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
    load_model,
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


# ---------------------------------------------------------------------------
# Loss and gradients


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


def test_train_skips_short_sentences():
    sents, vocab = toy_corpus(n_sentences=5, length=10, seed=1)
    short = make_sentence("short", ("w01", "w02"))
    cfg = PvdmConfig(vector_dim=6, window_n=5, epochs=2, lr_initial=0.05, seed=0)
    model = init_model(vocab, sents + [short], cfg)
    before = model.paragraph[model.sentence_index["short"]].copy()
    model, _ = train(model, sents + [short])
    np.testing.assert_array_equal(model.paragraph[model.sentence_index["short"]], before)


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


def test_infer_vector_recovers_training_sentence():
    model, sents = trained_two_topic_model()
    inferred = infer_vector(model, sents[0].tokens, steps=40, seed=5)

    def cosine(sentence_id):
        own = model.paragraph[model.sentence_index[sentence_id]]
        return inferred @ own / (np.linalg.norm(inferred) * np.linalg.norm(own))

    assert cosine("s0") > 0.5
    assert cosine("s0") > cosine("s1")


def reference_infer_vector(model, tokens, steps=20, lr=0.025, seed=0):
    """One sentence at a time through step_gradients: the oracle for infer_vectors."""
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


def assert_matches_reference(model, token_seqs, seeds, got, steps=20, lr=0.025):
    assert len(got) == len(token_seqs)
    for tokens, seed, vec in zip(token_seqs, seeds, got):
        want = reference_infer_vector(model, tokens, steps=steps, lr=lr, seed=seed)
        if want is None:
            assert vec is None
        else:
            np.testing.assert_allclose(vec, want, rtol=0, atol=1e-12)


def test_infer_vectors_match_per_sentence_reference():
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
    got = infer_vectors(model, batch, seeds, steps=7, lr=0.05)
    assert [v is None for v in got] == [False, True, False, False, False, True, False]
    assert_matches_reference(model, batch, seeds, got, steps=7, lr=0.05)

    # a batch of one, and the empty batch
    one = infer_vectors(model, batch[3:4], seeds[3:4], steps=7, lr=0.05)
    assert_matches_reference(model, batch[3:4], seeds[3:4], one, steps=7, lr=0.05)
    assert infer_vectors(model, [], []) == []
    with pytest.raises(ValueError, match="one seed per sentence"):
        infer_vectors(model, batch, seeds[:2])


def test_infer_vector_wraps_infer_vectors():
    model, sents = randomized_model()
    tokens = sents[2].tokens
    vec = infer_vector(model, tokens, steps=5, seed=9)
    np.testing.assert_array_equal(vec, infer_vectors(model, [tokens], [9], steps=5)[0])


def test_infer_vector_needs_trainable_context():
    sents, vocab = toy_corpus()
    model = init_model(vocab, sents, PvdmConfig(vector_dim=8, window_n=5))
    with pytest.raises(ValueError, match="no trainable context"):
        infer_vector(model, ("w01",) * 6)


# ---------------------------------------------------------------------------
# Persistence


def test_save_load_round_trip_bit_exact(tmp_path):
    sents, vocab = toy_corpus(n_sentences=20, seed=9)
    cfg = PvdmConfig(vector_dim=10, window_n=2, epochs=2, lr_initial=0.05, seed=1)
    model, _ = train(init_model(vocab, sents, cfg), sents)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.word_in, model.word_in)
    np.testing.assert_array_equal(loaded.word_out, model.word_out)
    np.testing.assert_array_equal(loaded.paragraph, model.paragraph)
    np.testing.assert_array_equal(loaded.vocab.noise_probs, model.vocab.noise_probs)
    assert loaded.sentence_index == model.sentence_index
    assert loaded.vocab.token_to_index == model.vocab.token_to_index
    assert loaded.vocab.counts == model.vocab.counts
    assert loaded.config == model.config


def test_load_rejects_unknown_format(tmp_path):
    path = str(tmp_path / "bad.npz")
    header = np.frombuffer(b'{"format": "other-v9"}', dtype=np.uint8)
    np.savez(path, header=header)
    with pytest.raises(ValueError, match="format"):
        load_model(path)


def test_vector_export_round_trip(tmp_path):
    sents, vocab = toy_corpus(n_sentences=8)
    model = init_model(vocab, sents, PvdmConfig(vector_dim=6, window_n=2, seed=2))
    path = str(tmp_path / "vectors.jsonl")
    pvdm.export_vectors(model, path)
    loaded = pvdm.read_vectors(path)
    assert set(loaded) == set(model.sentence_index)
    for sid, row in model.sentence_index.items():
        np.testing.assert_allclose(loaded[sid], model.paragraph[row])
