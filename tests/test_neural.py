"""Classifier tests: forward math, gradients, Nesterov updates, training."""

import copy
import math

import numpy as np
import pytest

import bankdistress.neural as neural_module
from bankdistress.neural import (
    MlpConfig,
    forward,
    gradients,
    init_model,
    loss,
    nesterov_step,
    predict,
    train,
)


def toy_model(dropout=0.0, l1=0.001, hidden=(4,), seed=3, input_dim=6):
    cfg = MlpConfig(input_dim=input_dim, hidden_layers=hidden, dropout_p=dropout,
                    l1=l1, seed=seed)
    return init_model(cfg)


def toy_batch(n=5, input_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, input_dim))
    y = rng.integers(0, 2, size=n)
    return x, y


# ---------------------------------------------------------------------------
# Configuration and initialization


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, hidden_layers=(0,))
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, lr=0.0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, l1=-1e-6)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, momentum=1.0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, dropout_p=1.0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, batch_size=0)


@pytest.mark.parametrize("field,value,fragment", [
    ("lr", float("nan"), "learning rate"),
    ("lr", float("inf"), "learning rate"),
    ("lr", -0.1, "learning rate"),
    ("l1", float("nan"), "l1 penalty"),
    ("l1", float("inf"), "l1 penalty"),
])
def test_config_rejects_non_finite_and_negative_rates(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        MlpConfig(input_dim=4, **{field: value})
    assert MlpConfig(input_dim=4, l1=0.0).l1 == 0.0


@pytest.mark.parametrize("field,value,fragment", [
    ("input_dim", 6.0, "input_dim must be an integer, got 6.0"),
    ("epochs", 2.5, "epochs must be an integer, got 2.5"),
    ("batch_size", True, "batch_size must be an integer, got True"),
    ("seed", "3", "seed must be an integer, got '3'"),
    ("hidden_layers", (8.5,), "hidden_layers entry must be an integer, got 8.5"),
    ("hidden_layers", (4, False), "hidden_layers entry must be an integer, got False"),
    ("hidden_layers", 8, "hidden_layers must be a list of layer widths, got 8"),
], ids=["input-dim-float", "epochs-fraction", "batch-size-bool",
        "seed-string", "hidden-fraction", "hidden-bool", "hidden-not-a-list"])
def test_config_rejects_non_integer_fields(field, value, fragment):
    kwargs = {"input_dim": 6, field: value}
    with pytest.raises(ValueError) as info:
        MlpConfig(**kwargs)
    assert fragment in str(info.value)
    assert MlpConfig(input_dim=np.int64(6), hidden_layers=[np.int32(4)]).hidden_layers == (4,)


def test_init_shapes_bounds_determinism():
    model = toy_model(hidden=(4, 3))
    shapes = [w.shape for w in model.weights]
    assert shapes == [(6, 4), (4, 3), (3, 2)]
    assert all(np.all(b == 0.0) for b in model.biases)
    assert all(np.all(v == 0.0) for v in model.vel_w)
    for w, fan_in in zip(model.weights, (6, 4, 3)):
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
    again = toy_model(hidden=(4, 3))
    for a, b in zip(model.weights, again.weights):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Forward pass


def test_forward_probabilities():
    model = toy_model()
    x, _ = toy_batch()
    probs = forward(model, x)
    assert probs.shape == (5, 2)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(probs >= 0.0)
    one_row = forward(model, x[:1])
    np.testing.assert_allclose(one_row, probs[:1])


def test_forward_input_validation():
    model = toy_model()
    with pytest.raises(ValueError, match="features"):
        forward(model, np.zeros((1, 5)))
    # one input is a batch of one row, not a 1-D vector
    with pytest.raises(ValueError, match=r"2-D batch .*shape \(6,\)"):
        forward(model, np.zeros(6))
    with pytest.raises(ValueError, match=r"shape \(1, 1, 6\)"):
        forward(model, np.zeros((1, 1, 6)))


def test_dropout_scales_expectation():
    model = toy_model(dropout=0.5)
    x = np.ones((600, 6))
    # one inverted-dropout mask per row, as a step draws them
    masks = [neural_module._keep_scaled(np.random.default_rng(0).random((600, 4)), 0.5)]
    assert set(np.unique(masks[0])) == {0.0, 2.0}
    reps, _ = neural_module._forward_cached(model.weights, model.biases, x, masks)
    infer = forward(model, x[:1])[0]
    # inverted dropout keeps the expected activations near the infer pass
    np.testing.assert_allclose(reps.mean(axis=0), infer, atol=0.08)


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_match_finite_differences():
    # loss has no dropout, and neither has gradients, for any config: a step
    # applies dropout only with the masks train's loop puts in its workspace
    for dropout, hidden in ((0.0, (4,)), (0.5, (4,)), (0.5, (20, 10))):
        model = toy_model(dropout=dropout, l1=1e-3, hidden=hidden)
        x, y = toy_batch()
        value, grads_w, grads_b = gradients(model, x, y)
        assert value == pytest.approx(loss(model, x, y), abs=1e-12)

        eps = 1e-5
        for layer in range(len(model.weights)):
            for mat, grad in ((model.weights[layer], grads_w[layer]),
                              (model.biases[layer], grads_b[layer])):
                num = np.zeros_like(mat)
                flat = mat.reshape(-1)
                nflat = num.reshape(-1)
                for i in range(flat.size):
                    flat[i] += eps
                    hi = loss(model, x, y)
                    flat[i] -= 2 * eps
                    lo = loss(model, x, y)
                    flat[i] += eps
                    nflat[i] = (hi - lo) / (2 * eps)
                rel = np.abs(grad - num).max() / max(np.abs(num).max(), 1e-12)
                assert rel < 1e-5, "dropout %s, hidden %s, layer %d" % (dropout, hidden, layer)


def test_gradients_exclude_bias_from_l1():
    model = toy_model(l1=10.0)
    x, y = toy_batch()
    _, grads_w, grads_b = gradients(model, x, y)
    small = toy_model(l1=0.0)
    small.weights = [w.copy() for w in model.weights]
    small.biases = [b.copy() for b in model.biases]
    _, plain_w, plain_b = gradients(small, x, y)
    for g, p in zip(grads_b, plain_b):
        np.testing.assert_allclose(g, p, atol=1e-12)
    for g, p, w in zip(grads_w, plain_w, model.weights):
        np.testing.assert_allclose(g - p, 10.0 * np.sign(w), atol=1e-12)


# ---------------------------------------------------------------------------
# Nesterov updates


def test_nesterov_step_matches_manual_lookahead():
    model = toy_model(dropout=0.0, l1=1e-4)
    x, y = toy_batch()
    gamma = model.config.momentum
    lr = 0.01
    ref = toy_model(dropout=0.0, l1=1e-4)
    w = [x_.copy() for x_ in ref.weights]
    b = [x_.copy() for x_ in ref.biases]
    vw = [np.zeros_like(x_) for x_ in w]
    vb = [np.zeros_like(x_) for x_ in b]
    for _ in range(3):  # several steps so the velocity term is exercised
        ahead_w = [wi + gamma * vi for wi, vi in zip(w, vw)]
        ahead_b = [bi + gamma * vi for bi, vi in zip(b, vb)]
        _, gw, gb = gradients(ref, x, y, weights=ahead_w, biases=ahead_b)
        vw = [gamma * vi - lr * gi for vi, gi in zip(vw, gw)]
        vb = [gamma * vi - lr * gi for vi, gi in zip(vb, gb)]
        w = [wi + vi for wi, vi in zip(w, vw)]
        b = [bi + vi for bi, vi in zip(b, vb)]
        nesterov_step(model, x, y, lr)
    for got, want in zip(model.vel_w, vw):
        np.testing.assert_allclose(got, want, atol=1e-12)
    for got, want in zip(model.weights, w):
        np.testing.assert_allclose(got, want, atol=1e-12)
    for got, want in zip(model.biases, b):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_nesterov_quadratic_trace(monkeypatch):
    # minimize f(theta) = theta^2 / 2 so the gradient is theta itself;
    # gamma=0.9, lr=0.1 from theta=1 must give 0.9 then 0.729
    cfg = MlpConfig(input_dim=1, hidden_layers=(), lr=0.1, momentum=0.9,
                    l1=0.0, dropout_p=0.0)
    model = init_model(cfg)
    model.weights[0][:] = 1.0

    def quadratic_grad(model_, x, y, rng=None, weights=None, biases=None):
        theta = weights[0] if weights is not None else model_.weights[0]
        return 0.5 * float(theta[0, 0]) ** 2, [theta.copy()], [np.zeros(2)]

    monkeypatch.setattr(neural_module, "gradients", quadratic_grad)
    nesterov_step(model, np.zeros((1, 1)), np.zeros(1, dtype=int), lr=0.1)
    assert abs(model.weights[0][0, 0] - 0.9) < 1e-12
    nesterov_step(model, np.zeros((1, 1)), np.zeros(1, dtype=int), lr=0.1)
    assert abs(model.weights[0][0, 0] - 0.729) < 1e-12


# ---------------------------------------------------------------------------
# Training loop


def one_block(x):
    """``x`` as ``train`` takes it: the one column block of all its rows."""
    return [(x, np.arange(len(x)))]


def separable_data(n=200, seed=1):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 6)) + 2.5 * y[:, None]
    return x, y


def test_train_learns_separable_data():
    x, y = separable_data()
    cfg = MlpConfig(input_dim=6, hidden_layers=(8,), lr=0.05, l1=0.0,
                    dropout_p=0.0, epochs=30, batch_size=32, seed=2)
    model, curve = train(init_model(cfg), one_block(x), y)
    assert len(curve) == 30
    assert curve[-1][1] < curve[0][1]
    preds = forward(model, x).argmax(axis=1)
    assert (preds == y).mean() > 0.95


def test_train_deterministic():
    x, y = separable_data(n=80)
    cfg = MlpConfig(input_dim=6, hidden_layers=(5,), epochs=4, seed=9)
    m1, c1 = train(init_model(cfg), one_block(x), y)
    m2, c2 = train(init_model(cfg), one_block(x), y)
    assert [(e, l) for e, l, _ in c1] == [(e, l) for e, l, _ in c2]
    for a, b in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(a, b)


def test_train_snapshots_best_hook_score():
    x, y = separable_data(n=60)
    cfg = MlpConfig(input_dim=6, hidden_layers=(5,), epochs=5, seed=0)
    scores = iter([0.1, 0.8, 0.3, 0.2, 0.1])
    snapshots = []

    def hook(m):
        snapshots.append([w.copy() for w in m.weights])
        return next(scores)

    best, curve = train(init_model(cfg), one_block(x), y, eval_hook=hook)
    assert [c[2] for c in curve] == [0.1, 0.8, 0.3, 0.2, 0.1]
    for got, want in zip(best.weights, snapshots[1]):  # epoch with score 0.8
        np.testing.assert_array_equal(got, want)


# The training step as it was before it worked in place: the oracle that
# ``train`` must reproduce bit for bit.


def reference_forward_cached(weights, biases, config, x, mode, rng):
    h = x
    activations = [h]
    masks = []
    for layer in range(len(weights) - 1):
        h = np.maximum(h @ weights[layer] + biases[layer], 0.0)
        if mode == "train" and config.dropout_p > 0.0:
            keep = 1.0 - config.dropout_p
            mask = ((rng.random(h.shape) >= config.dropout_p) / keep).astype(h.dtype)
            h = h * mask
        else:
            mask = None
        masks.append(mask)
        activations.append(h)
    logits = h @ weights[-1] + biases[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True), activations, masks


def reference_gradients(model, x, y, rng, weights, biases):
    cfg = model.config
    n = x.shape[0]
    mode = "train" if cfg.dropout_p > 0.0 else "infer"
    probs, activations, masks = reference_forward_cached(weights, biases, cfg, x, mode, rng)
    nll = -np.log(np.clip(probs[np.arange(n), y], np.finfo(probs.dtype).tiny, None)).mean()
    value = nll + cfg.l1 * sum(np.abs(w).sum() for w in weights)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta + cfg.l1 * np.sign(weights[layer])
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            if masks[layer - 1] is not None:
                delta = delta * masks[layer - 1]
            delta[activations[layer] <= 0.0] = 0.0
    return value, grads_w, grads_b


def reference_nesterov_step(model, x, y, lr, rng):
    gamma = model.config.momentum
    ahead_w = [w + gamma * v for w, v in zip(model.weights, model.vel_w)]
    ahead_b = [b + gamma * v for b, v in zip(model.biases, model.vel_b)]
    value, grads_w, grads_b = reference_gradients(model, x, y, rng, ahead_w, ahead_b)
    for i in range(len(model.weights)):
        model.vel_w[i] = gamma * model.vel_w[i] - lr * grads_w[i]
        model.vel_b[i] = gamma * model.vel_b[i] - lr * grads_b[i]
        model.weights[i] = model.weights[i] + model.vel_w[i]
        model.biases[i] = model.biases[i] + model.vel_b[i]
    return value


def reference_train(model, x_train, y_train, eval_hook=None, dtype=np.float32):
    """The loop on ``dtype`` copies of the parameters, velocities and inputs,
    upcast to float64 at the end, as ``train`` runs it in float32."""
    cfg = model.config
    names = ("weights", "biases", "vel_w", "vel_b")
    for name in names:
        setattr(model, name, [a.astype(dtype) for a in getattr(model, name)])
    x_train = x_train.astype(dtype)
    rng = np.random.default_rng([cfg.seed, 2])
    order = np.arange(len(x_train))
    curve = []
    best_score = None
    best_params = None
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            losses.append(reference_nesterov_step(model, x_train[batch], y_train[batch],
                                                  cfg.lr, rng))
        score = float("nan")
        if eval_hook is not None:
            score = eval_hook(model)
            if best_score is None or score > best_score:
                best_score = score
                best_params = ([w.copy() for w in model.weights],
                               [b.copy() for b in model.biases])
        curve.append((epoch, float(np.mean(losses)), score))
    best = model
    if best_params is not None:
        best = copy.deepcopy(model)
        best.weights, best.biases = best_params
    for m in (model, best):
        for name in names:
            setattr(m, name, [a.astype(np.float64) for a in getattr(m, name)])
    return best, curve


@pytest.mark.parametrize("hidden,dropout,l1,n,batch_size,hooked,input_dim", [
    ((50,), 0.5, 1e-5, 70, 16, True, 9),     # short last batch (70 = 4 * 16 + 6)
    ((50,), 0.0, 1e-3, 64, 16, True, 9),
    ((20, 10), 0.5, 1e-3, 45, 8, True, 9),
    ((20, 10), 0.0, 0.0, 45, 8, False, 9),
    ((), 0.0, 1e-3, 30, 64, True, 9),        # one batch larger than the data
    ((), 0.0, 0.0, 30, 7, False, 9),
    ((8,), 0.5, 0.0, 30, 100, False, 9),
    # the arm_protocol benchmark's shape: 12 + 50 inputs, 707 = 11 * 64 + 3 rows
    ((50,), 0.5, 1e-5, 707, 64, True, 62),
], ids=["50-dropout-short-batch", "50-l1", "20x10-dropout", "20x10-plain",
        "linear-big-batch", "linear-plain", "8-dropout-big-batch", "arm-protocol-shape"])
def test_train_matches_reference_train(hidden, dropout, l1, n, batch_size, hooked, input_dim):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, input_dim))
    y = rng.integers(0, 2, size=n)
    cfg = MlpConfig(input_dim=input_dim, hidden_layers=hidden, dropout_p=dropout, l1=l1,
                    lr=0.02, epochs=6, batch_size=batch_size, seed=4)
    # scores that rise and fall, so the best epoch is neither the first nor the last
    scores = [0.1, 0.5, 0.7, 0.2, 0.6, 0.3]
    results = []
    for fit, inputs in ((train, one_block(x)), (reference_train, x)):
        model = init_model(cfg)
        hook = (lambda m, it=iter(scores): next(it)) if hooked else None
        best, curve = fit(model, inputs, y, eval_hook=hook)
        results.append((model, best, curve))
    (model, best, curve), (ref_model, ref_best, ref_curve) = results
    for got, want in ((model, ref_model), (best, ref_best)):
        for name in ("weights", "biases", "vel_w", "vel_b"):
            for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
                assert np.array_equal(a, b), name
                assert a.tobytes() == b.tobytes(), name  # signed zeros too
    if hooked:
        assert curve == ref_curve
        assert best is not model
    else:
        assert [c[:2] for c in curve] == [c[:2] for c in ref_curve]
        assert all(math.isnan(c[2]) for c in curve)
        assert best is model


@pytest.mark.parametrize("hidden,dropout,l1,n,batch_size,input_dim", [
    ((50,), 0.5, 1e-5, 70, 16, 9),
    ((20, 10), 0.5, 1e-3, 45, 8, 9),
    ((), 0.0, 1e-3, 30, 64, 9),
    ((50,), 0.5, 1e-5, 707, 64, 62),
], ids=["50-dropout", "20x10-dropout", "linear", "arm-protocol-shape"])
def test_float32_training_stays_near_the_float64_reference(hidden, dropout, l1, n, batch_size,
                                                         input_dim):
    # train's float32 loop against the same loop in float64, after 6 epochs:
    # the parameters and per-epoch losses agree within 1e-5, where about
    # 1.5e-7 was measured (float32's epsilon is 1.2e-7)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, input_dim))
    y = rng.integers(0, 2, size=n)
    cfg = MlpConfig(input_dim=input_dim, hidden_layers=hidden, dropout_p=dropout, l1=l1,
                    lr=0.02, epochs=6, batch_size=batch_size, seed=4)
    model, curve = train(init_model(cfg), one_block(x), y)
    wide, wide_curve = reference_train(init_model(cfg), x, y, dtype=np.float64)
    np.testing.assert_allclose(model.params, np.concatenate(
        [a.ravel() for a in wide.weights + wide.biases]), rtol=0, atol=1e-5)
    np.testing.assert_allclose([c[1] for c in curve], [c[1] for c in wide_curve],
                               rtol=0, atol=1e-5)


def test_a_float32_step_whose_true_class_underflows_has_a_finite_loss():
    # class 1 leads by 400 logits, so a class-0 row's probability is exp(-400):
    # 0 in float32, where log(0) would be -inf and a RuntimeWarning (an error
    # here); the clamp at float32's smallest normal keeps the loss finite
    model = toy_model(dropout=0.0, l1=0.0, hidden=())
    model.biases[0][:] = (-200.0, 200.0)
    x, _ = toy_batch(n=4)
    y = np.zeros(4, dtype=np.int64)
    _, curve = train(model, one_block(x), y)
    tiny = np.finfo(np.float32).tiny
    assert curve[0][1] == pytest.approx(-math.log(tiny), rel=1e-6)
    assert np.all(np.isfinite(model.params))


@pytest.mark.parametrize("seed", range(6))
def test_relu_gate_matches_reference_bit_for_bit(seed):
    # Hidden units 0-2 are held off by their bias, and at unit 0 delta @ W.T
    # overflows: the gate must zero that inf, where multiplying by the gate
    # would give inf * 0 = NaN.
    model = toy_model(dropout=0.0, l1=1e-5, hidden=(6,), seed=seed)
    model.biases[0][:3] = -1e3
    model.weights[1][0] = (-1e308, 1e308)
    model.biases[1][:] = (-50.0, 50.0)  # class 1 near certain, so delta ~ (-1, 1)
    x, _ = toy_batch(n=1, seed=seed)
    y = np.zeros(1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        value, grads_w, grads_b = gradients(model, x, y)
        want = reference_gradients(model, x, y, None, model.weights, model.biases)
    assert value == want[0]
    for got, ref in zip(grads_w + grads_b, want[1] + want[2], strict=True):
        assert got.tobytes() == ref.tobytes()


def test_softmax_matches_the_reduce_form_bit_for_bit():
    # the two-column max and sum against numpy's reduces over the row, on
    # logits at every scale with signed zeros, infinities and NaNs mixed in
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=50.0, size=(100_000, neural_module.N_CLASSES))
    special = rng.random(logits.shape) < 0.05
    logits[special] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308],
                                 size=special.sum())
    with np.errstate(all="ignore"):
        want = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
        want /= np.add.reduce(want, axis=-1, keepdims=True)
        got = neural_module._softmax(logits.copy())
    assert got.tobytes() == want.tobytes()


def assert_views_of_buffers(model):
    """Every per-layer entry is a view into the model's flat buffers, in layout order."""
    for buffer, names in ((model.params, ("weights", "biases")),
                          (model.velocity, ("vel_w", "vel_b"))):
        entries = getattr(model, names[0]) + getattr(model, names[1])
        for name in names:
            for i, entry in enumerate(getattr(model, name)):
                assert np.shares_memory(entry, buffer), "%s[%d] is off the buffer" % (name, i)
        assert np.array_equal(np.concatenate([e.ravel() for e in entries]), buffer)
        assert sum(e.size for e in entries) == buffer.size


def test_model_lists_are_views_of_flat_buffers():
    x, y = separable_data(n=40)
    cfg = MlpConfig(input_dim=6, hidden_layers=(5, 3), epochs=4, batch_size=16, seed=1)
    model = init_model(cfg)
    assert_views_of_buffers(model)
    scores = iter([0.2, 0.9, 0.1, 0.3])
    best, _ = train(model, one_block(x), y, eval_hook=lambda m: next(scores))
    assert best is not model
    for m in (model, best, copy.deepcopy(model), copy.deepcopy(best)):
        assert_views_of_buffers(m)
    twin = copy.deepcopy(model)
    assert not np.shares_memory(twin.params, model.params)
    assert not np.shares_memory(twin.velocity, model.velocity)
    assert np.array_equal(twin.params, model.params)
    assert np.array_equal(twin.velocity, model.velocity)


@pytest.mark.parametrize("hidden,dropout,n", [((50,), 0.5, 64), ((20, 10), 0.5, 13),
                                              ((8,), 0.0, 9), ((), 0.0, 5)],
                         ids=["50-dropout", "20x10-dropout", "8-plain", "linear"])
def test_nesterov_step_with_and_without_workspace_agree(hidden, dropout, n):
    cfg = MlpConfig(input_dim=9, hidden_layers=hidden, dropout_p=dropout, l1=1e-3, seed=5)
    plain, spaced = init_model(cfg), init_model(cfg)
    workspace = neural_module._Workspace(cfg, n)
    x, y = toy_batch(n=n, input_dim=9, seed=4)
    for _ in range(4):
        v1 = nesterov_step(plain, x, y, 0.05)
        v2 = nesterov_step(spaced, x, y, 0.05, ahead=workspace)
        assert v1 == v2
    assert np.array_equal(plain.params, spaced.params)
    assert np.array_equal(plain.velocity, spaced.velocity)
    assert plain.params.tobytes() == spaced.params.tobytes()
    assert plain.velocity.tobytes() == spaced.velocity.tobytes()


@pytest.mark.parametrize("y,fragment", [
    (np.zeros(5, dtype=int), "one label per row"),
    (np.zeros((20, 1), dtype=int), "one label per row"),
    (np.full(20, -1), "labels must be integers in [0, 2)"),
    (np.full(20, 2), "labels must be integers in [0, 2)"),
    (np.zeros(20), "labels must be integers in [0, 2)"),
    (np.zeros(20, dtype=bool), "labels must be integers in [0, 2)"),
], ids=["short-labels", "2d-labels", "label-negative", "label-too-large", "float-labels",
        "bool-labels"])
def test_train_checks_its_arrays(y, fragment):
    cfg = MlpConfig(input_dim=6, epochs=1)
    with pytest.raises(ValueError) as info:
        train(init_model(cfg), one_block(np.zeros((20, 6))), y)
    assert fragment in str(info.value)


@pytest.mark.parametrize("dropout,batch_size", [(0.0, 64), (0.5, 7), (0.5, 200)],
                         ids=["no-dropout", "many-minibatches", "one-minibatch"])
def test_train_on_column_blocks_equals_train_on_their_matrix(dropout, batch_size):
    # rows read out of order and more than once, across two blocks of
    # different heights; a hook makes train snapshot and return the best epoch
    rng = np.random.default_rng(5)
    semantic, numeric = rng.normal(size=(90, 5)), rng.normal(size=(40, 3))
    at = rng.integers(0, 90, size=40)
    y = rng.integers(0, 2, size=40)
    blocks = [(semantic, at), (numeric, np.arange(40))]
    x = np.hstack([semantic[at], numeric])
    cfg = MlpConfig(input_dim=8, hidden_layers=(6,), dropout_p=dropout, epochs=4,
                    batch_size=batch_size, seed=1)

    def hook(m):
        return float(predict(m, x).sum())

    got, got_curve = train(init_model(cfg), blocks, y, eval_hook=hook)
    want, want_curve = train(init_model(cfg), one_block(x), y, eval_hook=hook)
    assert got_curve == want_curve
    assert got.params.tobytes() == want.params.tobytes()
    assert got.velocity.tobytes() == want.velocity.tobytes()


@pytest.mark.parametrize("blocks,fragment", [
    ([], "x_train holds no column blocks"),
    (np.zeros((4, 6)), "x_train holds no column blocks"),
    ([(np.zeros(24), np.arange(4)), (np.zeros((4, 2)), np.arange(4))],
     "x_train block 0 must be 2-D, got shape (24,)"),
    ([(np.zeros((4, 4)), np.arange(4)), (np.zeros((4, 2)), np.arange(3))],
     "x_train blocks are read at different numbers of rows: 4, 3"),
    ([(np.zeros((4, 4)), np.arange(4)), (np.zeros((4, 3)), np.arange(4))],
     "x_train blocks are 4 + 3 columns wide, 7 in all; the model expects 6"),
    ([(np.zeros((4, 4)), np.array([0, 1, 4, 2])), (np.zeros((4, 2)), np.arange(4))],
     "x_train block 0 reads row 4 of a 4-row matrix"),
    ([(np.zeros((4, 4)), np.arange(4)), (np.zeros((4, 2)), np.array([0, -1, 2, 3]))],
     "x_train block 1 reads row -1 of a 4-row matrix"),
    ([(np.zeros((4, 6)), np.arange(4.0))], "x_train block 0 must be read at a 1-D array "
                                           "of integer row indices, got float64"),
    ([(np.zeros((4, 6)), np.arange(4).reshape(2, 2))],
     "x_train block 0 must be read at a 1-D array of integer row indices"),
], ids=["no-blocks", "one-matrix", "1d-block", "row-counts", "widths", "row-past-the-end",
        "negative-row", "float-rows", "2d-rows"])
def test_train_checks_its_column_blocks(blocks, fragment):
    cfg = MlpConfig(input_dim=6, epochs=1)
    with pytest.raises(ValueError) as info:
        train(init_model(cfg), blocks, np.zeros(4, dtype=int))
    assert fragment in str(info.value)


def test_gradients_return_fresh_arrays():
    model = toy_model(dropout=0.5, hidden=(4, 3))
    x, y = toy_batch()
    _, gw1, gb1 = gradients(model, x, y)
    _, gw2, gb2 = gradients(model, x, y)
    arrays = gw1 + gb1 + gw2 + gb2 + model.weights + model.biases + [x]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        np.testing.assert_array_equal(a, b)


def test_train_rejects_empty():
    cfg = MlpConfig(input_dim=6, epochs=1)
    with pytest.raises(ValueError):
        train(init_model(cfg), one_block(np.zeros((0, 6))), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# Prediction and persistence


def test_predict_returns_distress_probability():
    model = toy_model()
    x, _ = toy_batch(n=3)
    p = predict(model, x)
    assert p.shape == (3,)
    assert p.tolist() == forward(model, x)[:, 1].tolist()
    assert np.all((0.0 <= p) & (p <= 1.0))
    assert predict(model, np.zeros((0, 6))).shape == (0,)
    with pytest.raises(ValueError):
        predict(model, x[:, :5])

