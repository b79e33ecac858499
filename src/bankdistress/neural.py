"""Feed-forward softmax classifier trained with Nesterov accelerated gradient."""

import copy
from dataclasses import dataclass, field

import numpy as np

from .corpus import require_float, require_int

N_CLASSES = 2  # tranquil (0) and distressed (1); predict reads column 1


@dataclass
class MlpConfig:
    input_dim: int
    hidden_layers: tuple = (50,)
    lr: float = 5e-4
    l1: float = 1e-5
    momentum: float = 0.9
    dropout_p: float = 0.5
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("input_dim", 1), ("epochs", 0), ("batch_size", 1), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)
        if not isinstance(self.hidden_layers, (list, tuple)):
            raise ValueError("hidden_layers must be a list of layer widths, got %r"
                             % (self.hidden_layers,))
        self.hidden_layers = tuple(self.hidden_layers)
        for width in self.hidden_layers:
            require_int("hidden_layers entry", width, 1)
        lr, l1, momentum, dropout_p = (require_float(name, getattr(self, name))
                                       for name in ("lr", "l1", "momentum", "dropout_p"))
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError("learning rate must be finite and positive")
        if not (np.isfinite(l1) and l1 >= 0):
            raise ValueError("l1 penalty must be finite and non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")


def _layer_dims(config):
    return (config.input_dim,) + config.hidden_layers + (N_CLASSES,)


def _layer_views(flat, config):
    """Per-layer (weights, biases) views of a flat buffer that holds every
    weight matrix in layer order, then every bias vector."""
    dims = _layer_dims(config)
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
    for fan_out in dims[1:]:
        biases.append(flat[start : start + fan_out])
        start += fan_out
    return weights, biases


def _buffer_sizes(config):
    """(weight entries, all entries) of the flat parameter layout."""
    dims = _layer_dims(config)
    n_weights = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    return n_weights, n_weights + sum(dims[1:])


@dataclass
class MlpModel:
    """Classifier parameters and Nesterov velocities in two flat buffers.

    ``params`` holds every weight matrix in layer order, then every bias;
    ``velocity`` has the same layout. ``weights``, ``biases``, ``vel_w`` and
    ``vel_b`` are per-layer views into them, so writing into a list entry
    writes the buffer; an array assigned over an entry is no longer part of
    the model's parameters.
    """

    config: MlpConfig
    params: np.ndarray
    velocity: np.ndarray
    weights: list = field(init=False)
    biases: list = field(init=False)
    vel_w: list = field(init=False)
    vel_b: list = field(init=False)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.params, self.config)
        self.vel_w, self.vel_b = _layer_views(self.velocity, self.config)

    def __deepcopy__(self, memo):
        # A plain deepcopy would copy each view on its own, off the buffer.
        # The copy holds what the lists hold, in buffers of its own.
        new = MlpModel(copy.deepcopy(self.config, memo), np.empty_like(self.params),
                       np.empty_like(self.velocity))
        for name in ("weights", "biases", "vel_w", "vel_b"):
            for dst, src in zip(getattr(new, name), getattr(self, name), strict=True):
                dst[...] = src
        return new


def init_model(config):
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases and velocities."""
    rng = np.random.default_rng(config.seed)
    _, size = _buffer_sizes(config)
    model = MlpModel(config, np.zeros(size), np.zeros(size))
    for w in model.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


class _Workspace:
    """Buffers one ``train`` call reuses at every step, of ``dtype``.

    ``ahead`` (the lookahead point, one pass from the scaled velocity) and
    ``grad`` share the model's flat layout, with per-layer views and a view
    of each one's weight region; ``scratch`` takes l1 * sign(w). ``rows``
    indexes minibatch rows. ``masks`` holds the current minibatch's dropout
    masks, one per hidden layer, or None for a step without dropout.
    """

    def __init__(self, config, batch_rows, dtype=np.float64):
        n_weights, size = _buffer_sizes(config)
        self.ahead, self.grad = np.empty(size, dtype), np.empty(size, dtype)
        self.ahead_w, self.ahead_b = _layer_views(self.ahead, config)
        self.grad_w, self.grad_b = _layer_views(self.grad, config)
        self.ahead_region = self.ahead[:n_weights]
        self.grad_region = self.grad[:n_weights]
        self.scratch = np.empty(n_weights, dtype)
        self.rows = np.arange(batch_rows)
        self.masks = None


def _softmax(logits):
    """Row-wise softmax over the N_CLASSES = 2 columns, in place in ``logits``."""
    # the row max and sum of two columns, each one elementwise operation with
    # the bits of a reduce over the row, and faster than one
    logits -= np.maximum(logits[:, :1], logits[:, 1:])
    np.exp(logits, out=logits)
    logits /= logits[:, :1] + logits[:, 1:]
    return logits


def _keep_scaled(u, p):
    """Inverted-dropout mask (u >= p) / (1 - p), written into the uniforms ``u``."""
    np.greater_equal(u, p, out=u)
    u /= 1.0 - p
    return u


def _forward_cached(weights, biases, x, masks=None):
    """Forward pass keeping activations for backprop.

    Every layer's output is a fresh matmul result that the bias add, ReLU,
    dropout scaling and softmax then update in place; ``x`` is never written.
    ``masks``, if given, holds one dropout mask per hidden layer.
    """
    h = x
    activations = [h]
    for layer in range(len(weights) - 1):
        h = h @ weights[layer]
        h += biases[layer]
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[layer]
        activations.append(h)
    probs = h @ weights[-1]
    probs += biases[-1]
    return _softmax(probs), activations


def forward(model, x):
    """Infer-mode class probabilities of a 2-D batch of inputs, one row each.

    The arithmetic is float64: numpy's type promotion upcasts float32
    parameters (``train``'s working model, which the eval hook gets) exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("input must be a 2-D batch (rows, features), got shape %s"
                         % (x.shape,))
    if x.shape[1] != model.config.input_dim:
        raise ValueError(
            "input has %d features, model expects %d" % (x.shape[1], model.config.input_dim)
        )
    probs, _ = _forward_cached(model.weights, model.biases, x)
    return probs


def loss(model, x, y):
    """Mean negative log-likelihood plus the L1 weight penalty (no dropout)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    probs, _ = _forward_cached(model.weights, model.biases, x)
    picked = np.clip(probs[np.arange(len(y)), y], np.finfo(probs.dtype).tiny, None)
    nll = -np.log(picked).mean()
    penalty = model.config.l1 * sum(np.abs(w).sum() for w in model.weights)
    return nll + penalty


def gradients(model, x, y, weights=None, biases=None):
    """Backprop gradients of ``loss``, the regularized loss without dropout,
    at ``weights``/``biases`` (default: the model's), for any config.

    The L1 subgradient uses sign(w) with sign(0) = 0 and never touches
    biases. Returns (loss value, weight grads, bias grads). The gradient
    arrays are fresh, so a caller may update them in place.
    """
    cfg = model.config
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    workspace = _Workspace(cfg, n)
    for dst, src in zip(workspace.ahead_w + workspace.ahead_b,
                        (model.weights if weights is None else weights)
                        + (model.biases if biases is None else biases)):
        dst[...] = src
    return _gradients(cfg, x, y, workspace), workspace.grad_w, workspace.grad_b


def _gradients(cfg, x, y, workspace):
    """``gradients`` at the workspace's lookahead point, with its dropout masks
    if it holds any, into its gradient buffer, for a checked non-empty 2-D
    batch; returns the loss value."""
    n = x.shape[0]
    weights, biases = workspace.ahead_w, workspace.ahead_b
    masks = workspace.masks
    probs, activations = _forward_cached(weights, biases, x, masks)

    rows = workspace.rows[:n]
    picked = probs[rows, y]
    # the smallest normal of the step's dtype: a clamp below it (1e-300 is 0
    # in float32) would leave an underflowed probability at log(0)
    np.maximum(picked, np.finfo(picked.dtype).tiny, out=picked)
    np.log(picked, out=picked)
    nll = -(np.add.reduce(picked) / n)
    # |w| summed per layer, in the gradient buffer before backprop fills it
    np.abs(workspace.ahead_region, out=workspace.grad_region)
    value = nll + cfg.l1 * sum(np.add.reduce(a, axis=None) for a in workspace.grad_w)

    delta = probs
    delta[rows, y] -= 1.0
    delta /= n

    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=workspace.grad_w[layer])
        np.add.reduce(delta, axis=0, out=workspace.grad_b[layer])
        if layer > 0:
            delta = delta @ weights[layer].T
            if masks is not None:
                delta *= masks[layer - 1]
            # AND delta's bits with ones where the unit is on, zeros where it is
            # off: np.putmask(delta, a <= 0, 0.0) bit for bit, but branch-free
            bits = delta.view("i%d" % delta.itemsize)
            keep = np.subtract(activations[layer] <= 0.0, 1, dtype=bits.dtype)
            np.bitwise_and(bits, keep, out=bits)
    # into a buffer of its own: np.sign is several times slower in place
    penalty = np.sign(workspace.ahead_region, out=workspace.scratch)
    penalty *= cfg.l1
    workspace.grad_region += penalty
    return value


def nesterov_step(model, x, y, lr, ahead=None):
    """One Nesterov update: gradient at the lookahead point, then velocity step.

    ``ahead`` is the workspace ``train`` builds once and passes to every
    step. With it the step makes five whole-buffer passes: v *= momentum,
    the lookahead v + w into the workspace, then g *= lr, v -= g and
    w += v, the same IEEE operations as momentum * v - lr * g and w + v;
    the gradient comes from ``gradients``' core, which skips its input
    checks, with the workspace's dropout masks. Without it the lookahead goes
    into a fresh buffer, ``gradients`` gets its per-layer views as
    ``weights=`` and ``biases=``, and the update uses the arrays it returns;
    that step has no dropout. Velocities and parameters are updated in place.
    """
    gamma = model.config.momentum
    if ahead is None:
        point = np.multiply(model.velocity, gamma)
        point += model.params
        ahead_w, ahead_b = _layer_views(point, model.config)
        value, grads_w, grads_b = gradients(model, x, y, weights=ahead_w, biases=ahead_b)
        model.velocity *= gamma
        for v, g in zip(model.vel_w + model.vel_b, grads_w + grads_b):
            g *= lr
            v -= g
    else:
        model.velocity *= gamma
        np.add(model.velocity, model.params, out=ahead.ahead)
        value = _gradients(model.config, x, y, ahead)
        ahead.grad *= lr
        model.velocity -= ahead.grad
    model.params += model.velocity
    return value


def _row_blocks(x_train, input_dim):
    """``train``'s inputs, a non-empty list of (matrix, rows) pairs, as checked
    column blocks: row i of the inputs is row ``rows[i]`` of each block's
    matrix, the blocks' columns side by side, left to right.
    """
    if not isinstance(x_train, list) or not x_train:
        raise ValueError("x_train holds no column blocks")
    blocks = []
    for i, (matrix, rows) in enumerate(x_train):
        matrix, rows = np.asarray(matrix, dtype=float), np.asarray(rows)
        if matrix.ndim != 2:
            raise ValueError("x_train block %d must be 2-D, got shape %s" % (i, matrix.shape))
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError("x_train block %d must be read at a 1-D array of integer "
                             "row indices, got %s of shape %s" % (i, rows.dtype, rows.shape))
        # the minibatch gathers clip, so an index outside the matrix is caught here
        outside = rows[(rows < 0) | (rows >= len(matrix))]
        if len(outside):
            raise ValueError("x_train block %d reads row %d of a %d-row matrix"
                             % (i, outside[0], len(matrix)))
        blocks.append((matrix, rows.astype(np.intp, copy=False)))
    counts = [len(rows) for _, rows in blocks]
    if len(set(counts)) > 1:
        raise ValueError("x_train blocks are read at different numbers of rows: %s"
                         % ", ".join(map(str, counts)))
    widths = [matrix.shape[1] for matrix, _ in blocks]
    if sum(widths) != input_dim:
        raise ValueError("x_train blocks are %s columns wide, %d in all; the model "
                         "expects %d" % (" + ".join(map(str, widths)), sum(widths), input_dim))
    return blocks


def train(model, x_train, y_train, eval_hook=None):
    """Mini-batch Nesterov training with best-validation snapshotting.

    ``x_train`` is a non-empty list of (matrix, row indices) column blocks
    (``_row_blocks``), never a 2-D array: one matrix ``x`` is passed as
    ``[(x, np.arange(len(x)))]``. Each minibatch is gathered from the blocks
    as it is trained on, so no matrix of all the training inputs is built.
    The steps run in float32 (``_epochs``); the returned model is float64
    and holds the float32 values exactly. ``eval_hook(model) -> score`` is
    called after every epoch with the float32 working model; the parameter
    snapshot with the highest score is returned. Without a hook the final
    model is returned. The training curve rows are (epoch, mean step loss,
    validation score or nan).
    """
    cfg = model.config
    blocks = _row_blocks(x_train, cfg.input_dim)
    y_train = np.asarray(y_train)
    n = len(blocks[0][1])
    if n == 0:
        raise ValueError("empty training set")
    if y_train.shape != (n,):
        raise ValueError("y_train must hold one label per row: shape %s for %d rows"
                         % (y_train.shape, n))
    if (y_train.dtype.kind not in "iu" or y_train.min() < 0
            or y_train.max() >= N_CLASSES):
        raise ValueError("labels must be integers in [0, %d)" % N_CLASSES)
    y_train = y_train.astype(np.int64, copy=False)
    curve, best_params = _epochs(model, blocks, y_train, eval_hook)
    if best_params is None:
        return model, curve
    # The epoch loop's buffers are freed by now; the best model takes the
    # snapshot as its parameters and a copy of the final velocities.
    return MlpModel(copy.deepcopy(cfg), best_params.astype(np.float64),
                    model.velocity.copy()), curve


def _epochs(model, blocks, y_train, eval_hook):
    """``train``'s epoch loop on checked column blocks, in float32.

    The steps run on a float32 copy of the model, whose values the model's
    own buffers take, upcast, at the end; the eval hook gets that copy.
    Returns the curve and the float32 parameters of the best-scoring epoch
    (None without a hook or without epochs).
    """
    cfg = model.config
    n = len(y_train)
    rng = np.random.default_rng([cfg.seed, 2])
    work = MlpModel(cfg, model.params.astype(np.float32), model.velocity.astype(np.float32))
    order = np.arange(n)
    # Every epoch shuffles ``order`` in place and reads each block's row
    # indices through it into ``epoch_rows``. Each minibatch gathers its
    # view of those indices from each block's matrix into the front of the
    # block's ``gathers`` buffer, whose rows are cast into the block's
    # columns of batch_x, so no (n, input_dim) matrix is built.
    size = min(cfg.batch_size, n)
    epoch_rows = [np.empty(n, dtype=np.intp) for _ in blocks]
    gathers = [np.empty((size, matrix.shape[1])) for matrix, _ in blocks]
    batch_x = np.empty((size, cfg.input_dim), dtype=np.float32)
    batch_y = np.empty(size, dtype=np.int64)
    workspace = _Workspace(cfg, size, np.float32)
    # Each minibatch draws its dropout uniforms just before its step, into
    # the front of ``drops``: a (rows, width) block per hidden layer, the
    # stream that one draw per layer and step would take. Its float64 masks
    # are cast into the front of ``masks32``.
    drops = masks32 = None
    if cfg.dropout_p > 0.0 and cfg.hidden_layers:
        drops = np.empty(size * sum(cfg.hidden_layers))
        masks32 = np.empty(len(drops), dtype=np.float32)
    batches = []
    for start in range(0, n, cfg.batch_size):
        rows = min(cfg.batch_size, n - start)
        masks = draw = None
        if drops is not None:
            masks, offset = [], 0
            for width in cfg.hidden_layers:
                masks.append(masks32[offset : offset + rows * width].reshape(rows, width))
                offset += rows * width
            draw = drops[:offset], masks32[:offset]
        reads, col = [], 0
        for (matrix, _), at, gather in zip(blocks, epoch_rows, gathers):
            width = matrix.shape[1]
            reads.append((matrix, at[start : start + rows], gather[:rows],
                          batch_x[:rows, col : col + width]))
            col += width
        batches.append((order[start : start + rows], reads, batch_x[:rows], batch_y[:rows],
                        masks, draw))
    curve = []
    best_score = None
    # overwritten in place, so one snapshot is alive at a time
    snapshot = None if eval_hook is None else np.empty_like(work.params)
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        for (_, rows), at in zip(blocks, epoch_rows):
            rows.take(order, out=at, mode="clip")  # order is a permutation of 0..n-1
        losses = []
        for batch, reads, x, y, masks, draw in batches:
            if draw is not None:
                uniforms, cast = draw
                np.copyto(cast, _keep_scaled(rng.random(out=uniforms), cfg.dropout_p))
            workspace.masks = masks
            # _row_blocks checked every row index, so clipping moves none
            for matrix, at, rows64, columns in reads:
                matrix.take(at, axis=0, out=rows64, mode="clip")
                np.copyto(columns, rows64)
            y_train.take(batch, out=y, mode="clip")
            losses.append(nesterov_step(work, x, y, cfg.lr, ahead=workspace))
        score = float("nan")
        if eval_hook is not None:
            score = eval_hook(work)
            if best_score is None or score > best_score:
                best_score = score
                snapshot[...] = work.params
        curve.append((epoch, float(np.mean(losses)), score))
    model.params[...] = work.params
    model.velocity[...] = work.velocity
    return curve, None if best_score is None else snapshot


def predict(model, inputs):
    """Infer-mode distress probability (class 1) of each input row."""
    return forward(model, inputs)[:, 1]

