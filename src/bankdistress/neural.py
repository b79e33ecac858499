"""Feed-forward softmax classifier trained with Nesterov accelerated gradient."""

import copy
from dataclasses import dataclass

import numpy as np


@dataclass
class MlpConfig:
    input_dim: int
    hidden_layers: tuple = (50,)
    output_dim: int = 2
    lr: float = 5e-4
    l1: float = 1e-5
    momentum: float = 0.9
    dropout_p: float = 0.5
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        self.hidden_layers = tuple(self.hidden_layers)
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden_layers):
            raise ValueError("layer widths must be positive")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("learning rate must be finite and positive")
        if not (np.isfinite(self.l1) and self.l1 >= 0):
            raise ValueError("l1 penalty must be finite and non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("epochs/batch_size out of range")


@dataclass
class MlpModel:
    weights: list
    biases: list
    vel_w: list
    vel_b: list
    config: MlpConfig


def init_model(config):
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases and velocities."""
    rng = np.random.default_rng(config.seed)
    dims = (config.input_dim,) + config.hidden_layers + (config.output_dim,)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        weights=weights,
        biases=biases,
        vel_w=[np.zeros_like(w) for w in weights],
        vel_b=[np.zeros_like(b) for b in biases],
        config=config,
    )


def _softmax(logits):
    """Row-wise softmax, computed in place in ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _forward_cached(weights, biases, config, x, mode, rng):
    """Forward pass keeping activations and dropout masks for backprop.

    Every layer's output is a fresh matmul result that the bias add, ReLU,
    dropout scaling and softmax then update in place; ``x`` is never written.
    """
    h = x
    activations = [h]
    masks = []
    n_hidden = len(weights) - 1
    for layer in range(n_hidden):
        h = h @ weights[layer]
        h += biases[layer]
        np.maximum(h, 0.0, out=h)
        if mode == "train" and config.dropout_p > 0.0:
            # (u >= p) / keep, written into the uniform draws themselves
            mask = rng.random(h.shape)
            np.greater_equal(mask, config.dropout_p, out=mask)
            mask /= 1.0 - config.dropout_p
            h *= mask
        else:
            mask = None
        masks.append(mask)
        activations.append(h)
    probs = h @ weights[-1]
    probs += biases[-1]
    return _softmax(probs), activations, masks


def forward(model, x, mode="infer", rng=None):
    """Class probabilities for one input or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != model.config.input_dim:
        raise ValueError(
            "input has %d features, model expects %d" % (x.shape[-1], model.config.input_dim)
        )
    if mode not in ("train", "infer"):
        raise ValueError("mode must be 'train' or 'infer'")
    if mode == "train" and model.config.dropout_p > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")
    batch = x[None, :] if single else x
    probs, _, _ = _forward_cached(model.weights, model.biases, model.config, batch, mode, rng)
    return probs[0] if single else probs


def loss(model, x, y, weights=None, biases=None):
    """Mean negative log-likelihood plus the L1 weight penalty (no dropout)."""
    weights = model.weights if weights is None else weights
    biases = model.biases if biases is None else biases
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    probs, _, _ = _forward_cached(weights, biases, model.config, x, "infer", None)
    nll = -np.log(np.clip(probs[np.arange(len(y)), y], 1e-300, None)).mean()
    penalty = model.config.l1 * sum(np.abs(w).sum() for w in weights)
    return nll + penalty


def gradients(model, x, y, rng=None, weights=None, biases=None):
    """Backprop gradients of the regularized loss.

    The L1 subgradient uses sign(w) with sign(0) = 0 and never touches
    biases. Returns (loss value, weight grads, bias grads); the gradient
    arrays are fresh, so a caller may update them in place.
    """
    weights = model.weights if weights is None else weights
    biases = model.biases if biases is None else biases
    cfg = model.config
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    mode = "train" if cfg.dropout_p > 0.0 else "infer"
    probs, activations, masks = _forward_cached(weights, biases, cfg, x, mode, rng)

    rows = np.arange(n)
    picked = probs[rows, y]
    np.maximum(picked, 1e-300, out=picked)
    np.log(picked, out=picked)
    nll = -(np.add.reduce(picked) / n)
    # |w| per layer; the same buffers later hold l1 * sign(w)
    scratch = [np.abs(w) for w in weights]
    value = nll + cfg.l1 * sum(a.sum() for a in scratch)

    delta = probs
    delta[rows, y] -= 1.0
    delta /= n

    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grad = activations[layer].T @ delta
        penalty = np.sign(weights[layer], out=scratch[layer])
        penalty *= cfg.l1
        grad += penalty
        grads_w[layer] = grad
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            if masks[layer - 1] is not None:
                delta *= masks[layer - 1]
            np.putmask(delta, activations[layer] <= 0.0, 0.0)
    return value, grads_w, grads_b


def _lookahead_buffers(model):
    return ([np.empty_like(w) for w in model.weights],
            [np.empty_like(b) for b in model.biases])


def nesterov_step(model, x, y, lr, rng=None, ahead=None):
    """One Nesterov update: gradient at the lookahead point, then velocity step.

    ``ahead`` is a (weights, biases) pair of arrays shaped like the model's
    that receive the lookahead point w + momentum * v; ``train`` passes the
    same pair to every step. Velocities and parameters are updated in place.
    """
    gamma = model.config.momentum
    params = model.weights + model.biases
    velocities = model.vel_w + model.vel_b
    ahead_w, ahead_b = _lookahead_buffers(model) if ahead is None else ahead
    for point, p, v in zip(ahead_w + ahead_b, params, velocities):
        np.multiply(v, gamma, out=point)
        point += p
    value, grads_w, grads_b = gradients(model, x, y, rng=rng, weights=ahead_w, biases=ahead_b)
    for p, v, g in zip(params, velocities, grads_w + grads_b):
        v *= gamma
        g *= lr
        v -= g
        p += v
    return value


def train(model, x_train, y_train, eval_hook=None):
    """Mini-batch Nesterov training with best-validation snapshotting.

    ``eval_hook(model) -> score`` is called after every epoch; the parameter
    snapshot with the highest score is returned. Without a hook the final
    model is returned. The training curve rows are
    (epoch, mean step loss, validation score or nan).
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=np.int64)
    if len(x_train) == 0:
        raise ValueError("empty training set")
    cfg = model.config
    rng = np.random.default_rng([cfg.seed, 2])
    order = np.arange(len(x_train))
    # Each minibatch is gathered into the front of these buffers.
    size = min(cfg.batch_size, len(x_train))
    batch_x = np.empty((size,) + x_train.shape[1:])
    batch_y = np.empty(size, dtype=np.int64)
    ahead = _lookahead_buffers(model)
    curve = []
    best_score = None
    best_params = None
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = np.take(x_train, batch, axis=0, out=batch_x[: len(batch)], mode="clip")
            y = np.take(y_train, batch, out=batch_y[: len(batch)], mode="clip")
            losses.append(nesterov_step(model, x, y, cfg.lr, rng=rng, ahead=ahead))
        score = float("nan")
        if eval_hook is not None:
            score = eval_hook(model)
            if best_score is None or score > best_score:
                best_score = score
                best_params = (
                    [w.copy() for w in model.weights],
                    [b.copy() for b in model.biases],
                )
        curve.append((epoch, float(np.mean(losses)), score))
    if best_params is not None:
        best = copy.deepcopy(model)
        best.weights, best.biases = best_params
        return best, curve
    return model, curve


def predict(model, inputs):
    """Infer-mode distress probability (class 1) of each input row."""
    return forward(model, inputs, mode="infer")[:, 1]

