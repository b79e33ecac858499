"""Distributed-memory paragraph vectors trained with negative sampling."""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .corpus import Vocabulary, read_jsonl

MODEL_FORMAT = "pvdm-v1"


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
    return 1.0 / (1.0 + np.exp(-x))


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


def _epoch_kernel(word_in, word_out, paragraph, ctx, targets, par_rows, order,
                  noise, lr_initial, lr_span, step0, denom):
    """One epoch of sequential SGD steps over precomputed index arrays.

    The step math of ``step_gradients``, except that each output row is
    updated as soon as its term is done, as in word2vec: a word drawn twice
    in one step sees its first update.
    """
    n = ctx.shape[1]
    k = noise.shape[1]
    inv = 1.0 / (n + 1)
    total = 0.0
    for j in range(order.shape[0]):
        i = order[j]
        lr = lr_initial + lr_span * ((step0 + j) / denom)
        row = par_rows[i]
        c = ctx[i]
        h = (word_in[c].sum(axis=0) + paragraph[row]) * inv
        grad_h = np.zeros_like(h)
        for t in range(k + 1):
            w = targets[i] if t == 0 else noise[j, t - 1]
            sig = 1.0 / (1.0 + np.exp(-(word_out[w] @ h)))
            sig = min(max(sig, 1e-12), 1.0 - 1e-12)
            if t == 0:
                total += -np.log(sig)
                coef = sig - 1.0
            else:
                total += -np.log(1.0 - sig)
                coef = sig
            grad_h += coef * word_out[w]
            word_out[w] -= (lr * coef) * h
        shared = (lr * inv) * grad_h
        for t in range(n):
            word_in[c[t]] -= shared
        paragraph[row] -= shared
    return total


try:
    import numba as _numba

    _epoch_kernel_jit = _numba.njit(cache=True, fastmath=False)(_epoch_kernel)
except ImportError:  # pragma: no cover - numba is an optional speedup
    _epoch_kernel_jit = None


def valid_positions(tokens, window_n):
    """Context start offsets that yield a training step for this sentence."""
    return range(max(0, len(tokens) - window_n - 1))


def train(model, sentences):
    """Train in place over every (sentence, position) pair, epoch by epoch.

    The learning rate decays linearly from lr_initial to lr_final over the
    whole run. Returns (model, per-epoch mean losses).
    """
    cfg = model.config
    n = cfg.window_n
    ctx_rows, target_ids, par_rows = [], [], []
    for sent in sentences:
        if sent.sentence_id not in model.sentence_index:
            raise ValueError("sentence %r unknown to the model" % sent.sentence_id)
        idx = _token_indices(model, sent.tokens)
        row = model.sentence_index[sent.sentence_id]
        for pos in valid_positions(sent.tokens, n):
            ctx_rows.append(idx[pos : pos + n])
            target_ids.append(idx[pos + n])
            par_rows.append(row)
    if cfg.epochs == 0 or not ctx_rows:
        return model, []

    ctx = np.vstack(ctx_rows)
    targets = np.array(target_ids, dtype=np.int64)
    par_rows = np.array(par_rows, dtype=np.int64)
    n_pairs = len(targets)

    rng = np.random.default_rng([cfg.seed, 1])
    cdf = model.noise_cdf()
    total_steps = cfg.epochs * n_pairs
    k = cfg.negative_samples
    denom = float(max(1, total_steps - 1))
    lr_span = cfg.lr_final - cfg.lr_initial
    epoch_losses = []
    order = np.arange(n_pairs)
    kernel = _epoch_kernel_jit if _epoch_kernel_jit is not None else _epoch_kernel
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        noise = np.searchsorted(cdf, rng.random((n_pairs, k)), side="right")
        total = kernel(
            model.word_in, model.word_out, model.paragraph,
            ctx, targets, par_rows, order, noise,
            cfg.lr_initial, lr_span, epoch * n_pairs, denom,
        )
        epoch_losses.append(total / n_pairs)
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
        idx = _token_indices(model, token_seqs[i])
        starts = np.arange(n_pos[s])
        ctxsum[s, : n_pos[s]] = model.word_in[idx[starts[:, None] + np.arange(n)]].sum(axis=1)
        targets[s, : n_pos[s]] = idx[starts + n]

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
            sig = _sigmoid(np.matmul(u, h[:, :, None])[:, :, 0])
            sig[:, 0] -= 1.0
            grad_h = np.matmul(sig[:, None, :], u)[:, 0, :]
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
