"""Distributed-memory paragraph vectors trained with negative sampling."""

from dataclasses import dataclass, field, asdict
from itertools import chain, repeat

import numpy as np

from .corpus import (Vocabulary, VectorRows, count_rows, json_entry, read_jsonl, read_twin,
                     require_float, require_int, require_str, vector_texts, write_npz,
                     write_twin, write_vector_jsonl)

MODEL_FORMAT = "pvdm-v2"
BATCH_PAIRS = 32  # (context, target) pairs per SGD update in train
NOISE_BATCHES = 64  # batches whose noise words train draws in one call
INFER_CHUNK = 256  # held-out sentences infer_vectors runs at a time
INFER_STEPS = 20  # SGD sweeps over each sentence's positions in infer_vectors
INFER_LR = 0.025  # infer_vectors' fixed learning rate
NOISE_BUCKETS = 4096  # equal slices of [0, 1) in noise_words' lookup; a power of two


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
        for name, minimum in (("vector_dim", 1), ("window_n", 1), ("negative_samples", 1),
                              ("epochs", 0), ("seed", 0), ("min_count", 1)):
            require_int(name, getattr(self, name), minimum)
        lr_initial, lr_final = (require_float(name, getattr(self, name))
                                for name in ("lr_initial", "lr_final"))
        if not (np.isfinite(lr_initial) and np.isfinite(lr_final)):
            raise ValueError("lr_initial and lr_final must be finite")
        if not 0 <= lr_final < lr_initial:
            raise ValueError("lr_final must be >= 0 and below lr_initial")


@dataclass
class PvdmModel:
    word_in: np.ndarray       # |V| x dim context embeddings
    word_out: np.ndarray      # |V| x dim prediction weights
    paragraph: np.ndarray     # |S| x dim sentence embeddings
    sentence_index: dict      # sentence_id -> paragraph row
    vocab: Vocabulary
    config: PvdmConfig
    _noise_cdf: np.ndarray = field(default=None, repr=False)
    _noise_table: tuple = field(default=None, repr=False)

    def noise_cdf(self):
        """Cumulative noise distribution, reaching exactly 1.0 at the last word
        with noise mass.

        A cumsum can round to just below 1.0; a uniform draw at or above its
        end would then index one past the vocabulary. Pinning the end changes
        no draw below it. The table ``noise_words`` reads is built with it.
        """
        if self._noise_cdf is None:
            probs = self.vocab.noise_probs
            cdf = np.cumsum(probs)
            cdf[np.flatnonzero(probs)[-1]:] = 1.0
            edges = np.arange(NOISE_BUCKETS + 1) / NOISE_BUCKETS
            below = np.searchsorted(cdf, edges[:-1], side="right")
            split = np.searchsorted(cdf, edges[1:], side="left") > below
            self._noise_cdf = cdf
            self._noise_table = below.astype(np.min_scalar_type(len(cdf) - 1)), split
        return self._noise_cdf

    def noise_words(self, u):
        """The noise word of each uniform draw in ``u`` (an array in [0, 1)):
        ``np.searchsorted(noise_cdf(), u, side="right")``, bit for bit.

        Bucket b of ``NOISE_BUCKETS`` holds the draws in [b / B, (b + 1) / B);
        B is a power of two, so u * B and b / B are exact. Where no cdf value
        lies strictly inside a bucket, every draw in it has the search's
        answer at b / B, which a table holds; the draws in the other buckets
        are searched.
        """
        cdf = self.noise_cdf()
        table, split = self._noise_table
        # the cast into the int buffer truncates, which on [0, 1) is floor
        bucket = np.multiply(u, NOISE_BUCKETS, out=np.empty(u.shape, np.intp),
                             casting="unsafe")
        words = table.take(bucket)
        searched = split.take(bucket)
        words[searched] = np.searchsorted(cdf, u[searched], side="right")
        return words


def _sigmoid(x):
    # exp(-x) overflows to inf for x < -709, where 1 / (1 + inf) is the right
    # 0.0; callers enter np.errstate(over="ignore") once around their steps
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


def _window_rows(model, token_seqs):
    """(contexts, targets, counts) over every valid position of every sentence.

    Rows run sentence by sentence, then position by position: one row per
    ``valid_positions`` offset p, whose context holds the vocabulary indices
    of the words at p .. p + window_n - 1 and whose target is the word after
    them. ``counts[s]`` is the number of rows of sentence s.
    """
    n = model.config.window_n
    to_index = model.vocab.token_to_index
    lengths = np.fromiter(map(len, token_seqs), dtype=np.intp, count=len(token_seqs))
    counts = np.fromiter((len(valid_positions(tokens, n)) for tokens in token_seqs),
                         dtype=np.intp, count=len(token_seqs))
    tokens = chain.from_iterable(token_seqs)
    idx = np.fromiter(map(to_index.get, tokens, repeat(to_index[Vocabulary.UNK])),
                      dtype=np.intp, count=int(lengths.sum()))
    # a row's first word: its sentence's offset in idx plus the row's position
    shift = (np.cumsum(lengths) - lengths) - (np.cumsum(counts) - counts)
    first = np.arange(counts.sum())
    first += np.repeat(shift, counts)
    # One column at a time, with no (rows, window_n) index temporary: freeing
    # one before train's loop moved glibc's heap thresholds so that a fresh
    # process's first dim-600 embedding took 70k page faults instead of 2k.
    ctx = np.empty((len(first), n), dtype=np.intp)
    for j in range(n):
        ctx[:, j] = idx[j:][first]
    return ctx, idx[n:][first], counts


def _context_target(model, tokens, position):
    n = model.config.window_n
    if position < 0 or position + n >= len(tokens):
        raise IndexError(
            "position %d leaves no target in a %d-token sentence (window %d)"
            % (position, len(tokens), n)
        )
    idx = np.array([model.vocab.lookup(t) for t in tokens], dtype=np.int64)
    return idx[position : position + n], idx[position + n]


def _step_terms(model, paragraph_vec, ctx_idx, target_idx, noise_idx):
    n = model.config.window_n
    h = (model.word_in[ctx_idx].sum(axis=0) + paragraph_vec) / (n + 1)
    out_idx = np.concatenate(([target_idx], noise_idx))
    dots = model.word_out[out_idx] @ h
    with np.errstate(over="ignore"):
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
    run's batches. Returns (model, per-epoch mean losses); with epochs but
    no sentence long enough for a training position, raises ValueError.
    """
    cfg = model.config
    n, k = cfg.window_n, cfg.negative_samples
    sentence_rows = [model.sentence_index.get(sent.sentence_id) for sent in sentences]
    if None in sentence_rows:
        raise ValueError("sentence %r unknown to the model"
                         % sentences[sentence_rows.index(None)].sentence_id)
    ctx, targets, counts = _window_rows(model, [sent.tokens for sent in sentences])
    n_pairs = len(targets)
    if cfg.epochs == 0:
        return model, []
    if n_pairs == 0:
        longest = max((len(sent.tokens) for sent in sentences), default=0)
        raise ValueError("no sentence has a training position at window_n %d: one needs %d "
                         "tokens, and the longest has %d" % (n, n + 2, longest))
    par_rows = np.repeat(np.array(sentence_rows, dtype=np.intp), counts)

    word_in, word_out, paragraph = model.word_in, model.word_out, model.paragraph
    rng = np.random.default_rng([cfg.seed, 1])
    # The noise cdf and its table, built before the loop's arrays: built
    # after them, they sat above them on the heap once those were freed, and
    # kept 1.7 MB of freed pages resident after the text_pipeline
    # benchmark's dim-600 embed.
    model.noise_cdf()
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
    # Target and noise words of NOISE_BATCHES batches at a time. Nothing else
    # draws from rng within an epoch, so the chunks' draws are the doubles of
    # one (n_pairs, k) draw, in the same order.
    chunk = NOISE_BATCHES * size
    out_idx = np.empty((min(chunk, n_pairs), k + 1), dtype=np.intp)
    order = np.arange(n_pairs)
    epoch_losses = []
    with np.errstate(over="ignore"):
        for epoch in range(cfg.epochs):
            rng.shuffle(order)
            for b in range(n_batches):
                lo, hi = b * size, min(n_pairs, (b + 1) * size)
                if b % NOISE_BATCHES == 0:
                    start, m = lo, min(chunk, n_pairs - lo)
                    out_idx[:m, 0] = targets[order[lo : lo + m]]
                    out_idx[:m, 1:] = model.noise_words(rng.random((m, k)))
                lr = cfg.lr_initial + lr_span * ((epoch * n_batches + b) / denom)
                pick = order[lo:hi]
                c, rows, out = ctx[pick], par_rows[pick], out_idx[lo - start : hi - start]
                h = (word_in[c].sum(axis=1) + paragraph[rows]) / (n + 1)
                scores[lo:hi], coef, grad_h = _output_step(word_out[out], h)
                shared = (lr / (n + 1)) * grad_h
                scatter_out(out.ravel(), out_col[: out.size], lr * coef.ravel(), h)
                scatter_in(c.ravel(), ctx_col[: c.size], 1.0, shared)
                scatter_par(rows, pair_col[: rows.size], 1.0, shared)
            # the loss in place: the operations of logaddexp(0, sign * scores)
            np.multiply(scores, sign, out=scores)
            np.logaddexp(0.0, scores, out=scores)
            epoch_losses.append(float(scores.sum()) / n_pairs)
    return model, epoch_losses


def infer_vectors(model, token_seqs, seeds):
    """Fit fresh paragraph vectors for many sentences against frozen word matrices.

    Returns one vector per sentence, or None for a sentence shorter than
    window_n + 2 tokens. Each sentence runs ``INFER_STEPS`` SGD sweeps over its
    positions at rate ``INFER_LR`` with ``step_gradients``' step math (no
    clipping), drawing its start vector, then all its sweeps' noise words, from
    its own ``default_rng(seed)``: the stream a one-sentence loop would take, so
    the result does not depend on the batch. The sentences run longest first,
    ``INFER_CHUNK`` at a time, so the arrays of one chunk are alive at once.
    """
    if len(token_seqs) != len(seeds):
        raise ValueError("need one seed per sentence")
    out = [None] * len(token_seqs)
    n_rows = [len(valid_positions(tokens, model.config.window_n)) for tokens in token_seqs]
    # A Python sort: numpy's stable sort would page in code nothing else runs.
    order = sorted((i for i, c in enumerate(n_rows) if c), key=lambda i: -n_rows[i])
    for lo in range(0, len(order), INFER_CHUNK):
        chunk = order[lo : lo + INFER_CHUNK]
        vecs = _infer_longest_first(model, [token_seqs[i] for i in chunk],
                                    [seeds[i] for i in chunk])
        for i, vec in zip(chunk, vecs):
            out[i] = vec
    return out


def _infer_longest_first(model, token_seqs, seeds):
    """``infer_vectors``' matrix of vectors for sentences that each have a
    position, longest first, so that the sentences active at position p form
    a prefix. The word matrices never change, so every (sentence, position)
    context sum is computed once; the sentences' updates at one position run
    as a few array operations over all of them.
    """
    cfg = model.config
    n, k, dim = cfg.window_n, cfg.negative_samples, cfg.vector_dim
    ctx, targets, n_pos = _window_rows(model, token_seqs)
    # active[p]: number of sentences with more than p positions
    active = np.count_nonzero(n_pos[:, None] > np.arange(n_pos[0]), axis=0)
    # Position-major rows: position p is the block of rows block[p] ..
    # block[p] + active[p] - 1, one per sentence.
    block = np.cumsum(active) - active
    pos = np.repeat(np.arange(len(active)), active)
    rank = np.arange(len(pos)) - block[pos]
    rows = (np.cumsum(n_pos) - n_pos)[rank] + pos
    ctx, targets = ctx[rows], targets[rows]

    # One context column at a time, in the order sum(axis=1) adds them.
    ctxsum = model.word_in[ctx[:, 0]]
    for j in range(1, n):
        ctxsum += model.word_in[ctx[:, j]]

    # Every sweep's noise words, rows position-major as above: steps x rows x k
    # entries, so in the smallest integer type that holds a vocabulary index.
    cdf = model.noise_cdf()
    noise = np.empty((INFER_STEPS, len(rows), k), dtype=np.min_scalar_type(len(cdf) - 1))
    vecs = np.empty((len(token_seqs), dim))
    half = 0.5 / dim
    for s, (seed, c) in enumerate(zip(seeds, n_pos.tolist())):
        rng = np.random.default_rng(seed)
        vecs[s] = rng.uniform(-half, half, size=dim)
        noise[:, block[:c] + s] = model.noise_words(rng.random((INFER_STEPS, c, k)))

    out_idx = np.empty((len(rows), k + 1), dtype=np.intp)
    out_idx[:, 0] = targets
    u_buf = np.empty((len(token_seqs), k + 1, dim))
    blocks = list(zip(block.tolist(), active.tolist()))
    with np.errstate(over="ignore"):
        for sweep in noise:
            out_idx[:, 1:] = sweep
            for lo, a in blocks:
                vec = vecs[:a]
                h = (ctxsum[lo : lo + a] + vec) / (n + 1)
                # One reused buffer: mode="raise" would copy through a temporary.
                # Every index is a vocabulary row, as the cdf ends at 1.0.
                u = np.take(model.word_out, out_idx[lo : lo + a], axis=0, out=u_buf[:a],
                            mode="clip")
                _, _, grad_h = _output_step(u, h)
                vec -= INFER_LR * (grad_h / (n + 1))
    return vecs


def infer_vector(model, tokens, seed=0):
    """Fit a fresh paragraph vector for one sentence against frozen word matrices."""
    min_tokens = model.config.window_n + 2
    if len(tokens) < min_tokens:
        raise ValueError("no trainable context: need at least %d tokens" % min_tokens)
    (vec,) = infer_vectors(model, [tokens], [seed])
    return vec


def save_model(model, path):
    """Persist config, vocabulary and word matrices: the model that infers a
    sentence's vector. The trained sentences' vectors go to ``export_vectors``."""
    header = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "vocab": {
            "tokens": model.vocab.index_to_token,
            "counts": [model.vocab.counts[t] for t in model.vocab.index_to_token],
            "min_count": model.vocab.min_count,
            "noise_power": model.vocab.noise_power,
        },
    }
    write_npz(path, {
        "header": json_entry(header),
        "word_in": model.word_in,
        "word_out": model.word_out,
        "noise_probs": model.vocab.noise_probs,
    })


def export_vectors(model, path):
    """JSON-lines export of all trained paragraph vectors, in row order, and
    its twin: the ids, the vectors and the byte span of each ``values`` text.
    ``init_model`` gives each sentence its own row, so row order is the
    paragraph matrix as it is. The twin's digest is taken as the file is
    written."""
    ids = sorted(model.sentence_index, key=model.sentence_index.get)
    digest, spans = write_vector_jsonl(({"sentence_id": sid} for sid in ids),
                                       vector_texts(model.paragraph), path, "values")
    write_twin(path, digest, {"ids": ids, "values": model.paragraph, "spans": spans})


def read_vectors(path):
    """(rows, values, spans) of the vectors file ``path``: sentence_id -> row;
    the vectors, in file order, as the rows of one matrix; and where each
    row's ``values`` text lies in the file, an (offset, length) row of
    ``spans`` in bytes. All three come from the file's valid twin
    (``corpus.read_twin``) whose ids do not repeat. Without one the JSON is
    read into one preallocated matrix and ``spans`` is None; a malformed
    row or a repeated sentence_id then raises ValueError naming path:line.
    """
    twin = read_twin(path, {"ids": str, "values": (np.float64, (None, None)),
                            "spans": (np.int64, (None, 2))})
    if twin is not None and len(set(twin["ids"])) == len(twin["ids"]):
        return {sid: row for row, sid in enumerate(twin["ids"])}, twin["values"], twin["spans"]
    values = VectorRows("values", count_rows(path))
    ids = read_jsonl(path, lambda row: (require_str("sentence_id", row["sentence_id"]),
                                        values.add(row["values"]))[0], unique="sentence_id")
    return {sid: row for row, sid in enumerate(ids)}, values.matrix, None
