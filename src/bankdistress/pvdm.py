"""Distributed-memory paragraph vectors trained with negative sampling."""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .corpus import Vocabulary, read_jsonl

MODEL_FORMAT = "pvdm-v1"
BATCH_PAIRS = 32  # (context, target) pairs per SGD update in train


@dataclass
class PvdmConfig:
    vector_dim: int = 600
    window_n: int = 5
    negative_samples: int = 5
    epochs: int = 10
    lr_initial: float = 0.025
    lr_final: float = 1e-4
    seed: int = 0
    min_count: int = 5  # rarer tokens pool into <unk> (build_vocabulary)

    def __post_init__(self):
        if self.vector_dim < 1:
            raise ValueError("vector_dim must be >= 1")
        if self.window_n < 1:
            raise ValueError("window_n must be >= 1")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.lr_final < self.lr_initial:
            raise ValueError("lr_final must be below lr_initial")


@dataclass
class PvdmModel:
    word_in: np.ndarray       # |V| x dim context embeddings
    word_out: np.ndarray      # |V| x dim prediction weights
    paragraph: np.ndarray     # |S| x dim sentence embeddings
    sentence_index: dict      # sentence_id -> paragraph row
    vocab: Vocabulary
    config: PvdmConfig
    _noise_cdf: np.ndarray = field(default=None, repr=False)

    def noise_cdf(self):
        """Cumulative noise distribution, reaching exactly 1.0 at the last word
        with noise mass.

        A cumsum can round to just below 1.0; a uniform draw at or above its
        end would then index one past the vocabulary. Pinning the end changes
        no draw below it.
        """
        if self._noise_cdf is None:
            probs = self.vocab.noise_probs
            self._noise_cdf = np.cumsum(probs)
            self._noise_cdf[np.flatnonzero(probs)[-1]:] = 1.0
        return self._noise_cdf


def _sigmoid(x):
    # exp(-x) overflows to inf for x < -709, where 1 / (1 + inf) is the right 0.0
    with np.errstate(over="ignore"):
        e = np.exp(-x)
    return 1.0 / (1.0 + e)


def init_model(vocab, sentences, config):
    """Fresh model: uniform word/paragraph vectors, zero output weights."""
    if not sentences:
        raise ValueError("cannot initialize a model without sentences")
    rng = np.random.default_rng(config.seed)
    dim = config.vector_dim
    half = 0.5 / dim
    word_in = rng.uniform(-half, half, size=(len(vocab), dim))
    paragraph = rng.uniform(-half, half, size=(len(sentences), dim))
    word_out = np.zeros((len(vocab), dim))
    sentence_index = {}
    for row, sent in enumerate(sentences):
        if sent.sentence_id in sentence_index:
            raise ValueError("duplicate sentence_id %r" % sent.sentence_id)
        sentence_index[sent.sentence_id] = row
    return PvdmModel(
        word_in=word_in,
        word_out=word_out,
        paragraph=paragraph,
        sentence_index=sentence_index,
        vocab=vocab,
        config=config,
    )


def _token_indices(model, tokens):
    return np.array([model.vocab.lookup(t) for t in tokens], dtype=np.int64)


def _windows(model, tokens):
    """(contexts, targets): vocabulary indices of every valid position.

    Row p of the (positions, window_n) context array holds the words at
    p .. p + window_n - 1; the target is the word after them.
    """
    n = model.config.window_n
    idx = _token_indices(model, tokens)
    starts = np.arange(len(valid_positions(tokens, n)))
    return idx[starts[:, None] + np.arange(n)], idx[starts + n]


def _context_target(model, tokens, position):
    n = model.config.window_n
    if position < 0 or position + n >= len(tokens):
        raise IndexError(
            "position %d leaves no target in a %d-token sentence (window %d)"
            % (position, len(tokens), n)
        )
    idx = _token_indices(model, tokens)
    return idx[position : position + n], idx[position + n]


def _step_terms(model, paragraph_vec, ctx_idx, target_idx, noise_idx):
    n = model.config.window_n
    h = (model.word_in[ctx_idx].sum(axis=0) + paragraph_vec) / (n + 1)
    out_idx = np.concatenate(([target_idx], noise_idx))
    dots = model.word_out[out_idx] @ h
    sig = _sigmoid(dots)
    # -log sigma(u_t . h) - sum_k log sigma(-u_k . h)
    loss = -np.log(sig[0]) - np.log(1.0 - sig[1:]).sum()
    return h, out_idx, sig, loss


def step_loss(model, tokens, position, noise_idx, paragraph_row=None, paragraph_vec=None):
    """Negative-sampling loss of one prediction step (pure, no update)."""
    ctx_idx, target_idx = _context_target(model, tokens, position)
    if paragraph_vec is None:
        paragraph_vec = model.paragraph[paragraph_row]
    _, _, _, loss = _step_terms(model, paragraph_vec, ctx_idx, target_idx, np.asarray(noise_idx))
    return loss


def step_gradients(model, tokens, position, noise_idx, paragraph_row=None, paragraph_vec=None):
    """Analytic gradients of step_loss for the three parameter groups.

    Returns (loss, grad_word_in rows dict, grad_paragraph, grad_word_out rows dict).
    Row gradients are keyed by vocabulary index with duplicates accumulated.
    """
    ctx_idx, target_idx = _context_target(model, tokens, position)
    if paragraph_vec is None:
        paragraph_vec = model.paragraph[paragraph_row]
    noise_idx = np.asarray(noise_idx)
    h, out_idx, sig, loss = _step_terms(model, paragraph_vec, ctx_idx, target_idx, noise_idx)

    n = model.config.window_n
    # dL/d(u . h) terms: sigma - 1 for the target, sigma for each noise word.
    coef = sig.copy()
    coef[0] -= 1.0

    grad_out = {}
    for c, w in zip(coef, out_idx):
        w = int(w)
        if w in grad_out:
            grad_out[w] = grad_out[w] + c * h
        else:
            grad_out[w] = c * h

    grad_h = coef @ model.word_out[out_idx]
    shared = grad_h / (n + 1)
    grad_in = {}
    for w in ctx_idx:
        w = int(w)
        if w in grad_in:
            grad_in[w] = grad_in[w] + shared
        else:
            grad_in[w] = shared.copy()
    return loss, grad_in, shared, grad_out


def _output_step(u, h):
    """Negative-sampling terms of a batch of steps at one state.

    ``u`` stacks each step's output rows, target first then the noise words
    (batch, 1 + k, dim); ``h`` is each step's hidden vector (batch, dim).
    Returns the scores u . h, the coefficients dL/d(u . h) (sigma - 1 for the
    target, sigma for each noise word) and dL/dh. The scores, not sigma, are
    returned so that a caller can take the loss as logaddexp(0, -+score),
    which stays finite when sigma rounds to 0 or 1.
    """
    scores = np.matmul(u, h[:, :, None])[:, :, 0]
    coef = _sigmoid(scores)
    coef[:, 0] -= 1.0
    grad_h = np.matmul(coef[:, None, :], u)[:, 0, :]
    return scores, coef, grad_h


def valid_positions(tokens, window_n):
    """Context start offsets that yield a training step for this sentence."""
    return range(max(0, len(tokens) - window_n - 1))


def _row_scatter(mat):
    """``scatter(idx, cols, coef, vecs)``: ``mat[idx[i]] -= coef[i] * vecs[cols[i]]``
    for every i, as one product.

    ``vecs`` holds one row per pair of a batch; terms that land on the same
    row of ``mat`` add up. The coefficients go into a (touched rows, batch)
    matrix, so each touched row moves once, by that matrix times ``vecs``.
    The touched rows are found by marking them in a per-row flag array,
    which costs less than sorting the indices.
    """
    touched = np.zeros(len(mat), dtype=bool)
    slot = np.zeros(len(mat), dtype=np.intp)

    def scatter(idx, cols, coef, vecs):
        touched[idx] = True
        rows = np.flatnonzero(touched)
        touched[rows] = False
        slot[rows] = np.arange(len(rows))
        c = np.zeros((len(rows), len(vecs)))
        np.add.at(c, (slot[idx], cols), coef)
        mat[rows] -= c @ vecs

    return scatter


def train(model, sentences):
    """Train in place over every (sentence, position) pair, epoch by epoch.

    Each epoch shuffles the pairs and runs them in batches of
    ``BATCH_PAIRS``. Every pair of a batch takes its
    ``step_gradients`` terms at the batch's starting state; then each output,
    context and paragraph row moves once, by the sum of all of its terms in
    the batch. With one pair per batch this is plain per-pair SGD. The
    learning rate decays linearly from lr_initial to lr_final over the
    run's batches. Returns (model, per-epoch mean losses).
    """
    cfg = model.config
    n, k = cfg.window_n, cfg.negative_samples
    ctx, targets, par_rows = [], [], []
    for sent in sentences:
        if sent.sentence_id not in model.sentence_index:
            raise ValueError("sentence %r unknown to the model" % sent.sentence_id)
        c, t = _windows(model, sent.tokens)
        ctx.append(c)
        targets.append(t)
        par_rows.append(np.full(len(t), model.sentence_index[sent.sentence_id]))
    n_pairs = sum(len(t) for t in targets)
    if cfg.epochs == 0 or n_pairs == 0:
        return model, []
    ctx = np.concatenate(ctx)
    targets = np.concatenate(targets)
    par_rows = np.concatenate(par_rows)

    word_in, word_out, paragraph = model.word_in, model.word_out, model.paragraph
    rng = np.random.default_rng([cfg.seed, 1])
    cdf = model.noise_cdf()
    size = min(BATCH_PAIRS, n_pairs)
    n_batches = -(-n_pairs // size)
    denom = float(max(1, cfg.epochs * n_batches - 1))
    lr_span = cfg.lr_final - cfg.lr_initial
    scatter_out, scatter_in, scatter_par = map(_row_scatter, (word_out, word_in, paragraph))
    # batch column of each flattened context and output row
    pair_col = np.arange(size)
    ctx_col = np.repeat(pair_col, n)
    out_col = np.repeat(pair_col, k + 1)
    # loss of one step: logaddexp(0, -score) for the target, (0, +score) for noise
    sign = np.ones(k + 1)
    sign[0] = -1.0
    scores = np.empty((n_pairs, k + 1))
    order = np.arange(n_pairs)
    epoch_losses = []
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        noise = np.searchsorted(cdf, rng.random((n_pairs, k)), side="right")
        out_idx = np.concatenate((targets[order, None], noise), axis=1)
        for b in range(n_batches):
            lo, hi = b * size, min(n_pairs, (b + 1) * size)
            lr = cfg.lr_initial + lr_span * ((epoch * n_batches + b) / denom)
            pick = order[lo:hi]
            c, rows, out = ctx[pick], par_rows[pick], out_idx[lo:hi]
            h = (word_in[c].sum(axis=1) + paragraph[rows]) / (n + 1)
            scores[lo:hi], coef, grad_h = _output_step(word_out[out], h)
            shared = (lr / (n + 1)) * grad_h
            scatter_out(out.ravel(), out_col[: out.size], lr * coef.ravel(), h)
            scatter_in(c.ravel(), ctx_col[: c.size], 1.0, shared)
            scatter_par(rows, pair_col[: rows.size], 1.0, shared)
        epoch_losses.append(float(np.logaddexp(0.0, sign * scores).sum()) / n_pairs)
    return model, epoch_losses


def infer_vectors(model, token_seqs, seeds, steps=20, lr=0.025):
    """Fit fresh paragraph vectors for many sentences against frozen word matrices.

    Returns one vector per sentence, or None for a sentence shorter than
    window_n + 2 tokens. Each sentence runs ``steps`` sweeps of SGD over its
    positions, with the step math of ``step_gradients`` (no clipping), and
    draws its start vector and noise words from its own
    ``default_rng(seed)`` in the order a one-sentence loop would, so the
    result does not depend on the batch. The word matrices never change, so
    every (sentence, position) context sum is computed once; the sentences'
    updates at one position run as a few array operations over all of them.
    """
    cfg = model.config
    n, k, dim = cfg.window_n, cfg.negative_samples, cfg.vector_dim
    if len(token_seqs) != len(seeds):
        raise ValueError("need one seed per sentence")
    out = [None] * len(token_seqs)
    counts = [len(valid_positions(tokens, n)) for tokens in token_seqs]
    # Longest first, so the sentences active at position p form a prefix.
    order = sorted((i for i, c in enumerate(counts) if c > 0), key=lambda i: -counts[i])
    if not order:
        return out
    rngs = [np.random.default_rng(seeds[i]) for i in order]
    half = 0.5 / dim
    vecs = np.array([rng.uniform(-half, half, size=dim) for rng in rngs])
    n_pos = [counts[i] for i in order]
    # active[p]: number of sentences with more than p positions
    active = np.count_nonzero(np.array(n_pos)[:, None] > np.arange(n_pos[0]), axis=0)

    ctxsum = np.zeros((len(order), n_pos[0], dim))
    targets = np.zeros((len(order), n_pos[0]), dtype=np.int64)
    for s, i in enumerate(order):
        ctx, tgt = _windows(model, token_seqs[i])
        ctxsum[s, : n_pos[s]] = model.word_in[ctx].sum(axis=1)
        targets[s, : n_pos[s]] = tgt

    cdf = model.noise_cdf()
    draws = np.zeros((len(order), n_pos[0], k))
    u_buf = np.empty((len(order), k + 1, dim))
    for _ in range(steps):
        for s, rng in enumerate(rngs):
            rng.random(out=draws[s, : n_pos[s]])
        noise = np.searchsorted(cdf, draws, side="right")
        out_idx = np.concatenate((targets[:, :, None], noise), axis=2)
        for p, a in enumerate(active):
            vec = vecs[:a]
            h = (ctxsum[:a, p] + vec) / (n + 1)
            # One reused buffer: mode="raise" would copy through a temporary. Every
            # index is a vocabulary row, as the cdf ends at 1.0.
            u = np.take(model.word_out, out_idx[:a, p], axis=0, out=u_buf[:a], mode="clip")
            _, _, grad_h = _output_step(u, h)
            vec -= lr * (grad_h / (n + 1))
    for s, i in enumerate(order):
        out[i] = vecs[s]
    return out


def infer_vector(model, tokens, steps=20, lr=0.025, seed=0):
    """Fit a fresh paragraph vector for one sentence against frozen word matrices."""
    min_tokens = model.config.window_n + 2
    if len(tokens) < min_tokens:
        raise ValueError("no trainable context: need at least %d tokens" % min_tokens)
    (vec,) = infer_vectors(model, [tokens], [seed], steps=steps, lr=lr)
    return vec


def save_model(model, path):
    """Persist config, vocabulary and matrices; matrix round-trip is bit-exact."""
    ids = [None] * len(model.sentence_index)
    for sid, row in model.sentence_index.items():
        ids[row] = sid
    header = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "vocab": {
            "tokens": model.vocab.index_to_token,
            "counts": [model.vocab.counts[t] for t in model.vocab.index_to_token],
            "min_count": model.vocab.min_count,
            "noise_power": model.vocab.noise_power,
        },
        "sentence_ids": ids,
    }
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8),
        word_in=model.word_in,
        word_out=model.word_out,
        paragraph=model.paragraph,
        noise_probs=model.vocab.noise_probs,
    )


def load_model(path):
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        if header.get("format") != MODEL_FORMAT:
            raise ValueError("unsupported model format: %r" % header.get("format"))
        vocab_meta = header["vocab"]
        vocab = Vocabulary(
            token_to_index={t: i for i, t in enumerate(vocab_meta["tokens"])},
            index_to_token=list(vocab_meta["tokens"]),
            counts=dict(zip(vocab_meta["tokens"], vocab_meta["counts"])),
            min_count=vocab_meta["min_count"],
            noise_power=vocab_meta["noise_power"],
            noise_probs=data["noise_probs"].copy(),
        )
        return PvdmModel(
            word_in=data["word_in"].copy(),
            word_out=data["word_out"].copy(),
            paragraph=data["paragraph"].copy(),
            sentence_index={sid: i for i, sid in enumerate(header["sentence_ids"])},
            vocab=vocab,
            config=PvdmConfig(**header["config"]),
        )


def export_vectors(model, path):
    """JSON-lines export of all trained paragraph vectors."""
    ids = sorted(model.sentence_index, key=model.sentence_index.get)
    with open(path, "w", encoding="utf-8") as fh:
        for sid in ids:
            row = model.sentence_index[sid]
            fh.write(
                json.dumps({"sentence_id": sid, "values": model.paragraph[row].tolist()})
            )
            fh.write("\n")


def read_vectors(path):
    """Load an export back into a sentence_id -> vector map."""
    return dict(read_jsonl(
        path, lambda row: (row["sentence_id"], np.array(row["values"], dtype=float))))
