"""Acceptance gate: metric oracles, numerical properties, qualitative claims.

Each test prints one pass/fail line (visible with `pytest -s` or in the
captured output). The heavier criteria run the full pipeline on seeded
synthetic data at reduced scale; all seeds below are fixed so results are
reproducible byte for byte.
"""

import contextlib
import json
import math
import os

import numpy as np
import pytest

import bankdistress.neural as neural_module
from bankdistress import cli, corpus, evaluation, experiment, fusion, neural, pvdm, synth
from conftest import toy_table


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print("[criterion %02d] FAIL %s" % (num, title))
        raise
    print("[criterion %02d] PASS %s" % (num, title))


# ---------------------------------------------------------------------------
# Shared synthetic datasets (built once per module)

STRONG_SYNTH = dict(n_banks=62, sentences_per_bank_quarter=(1, 4), seed=3)
STRONG_PVDM = dict(vector_dim=50, window_n=2, epochs=60, lr_initial=0.2, seed=1)
STRONG_MASTER_SEED = 5
NOSIGNAL_SYNTH = dict(n_banks=62, sentences_per_bank_quarter=(1, 4),
                      text_signal=0.0, numeric_signal=0.0, seed=7)
NOSIGNAL_PVDM = dict(vector_dim=50, window_n=2, epochs=20, lr_initial=0.1, seed=1)
NOSIGNAL_MASTER_SEED = 33


def embed_dataset(dataset, pvdm_kwargs):
    sentences = []
    for article in dataset.articles:
        sentences.extend(corpus.extract_sentences(article, dataset.registry))
    model, _ = experiment.embed_sentences(sentences, pvdm.PvdmConfig(**pvdm_kwargs))
    vectors = {sid: model.paragraph[row] for sid, row in model.sentence_index.items()}
    table, _ = fusion.build_sample_table(sentences, vectors, dataset.indicators,
                                         dataset.events)
    return table, sentences


@pytest.fixture(scope="module")
def strong_dataset():
    return synth.generate(synth.SynthConfig(**STRONG_SYNTH))


@pytest.fixture(scope="module")
def strong_table(strong_dataset):
    table, _ = embed_dataset(strong_dataset, STRONG_PVDM)
    return table, strong_dataset.events


@pytest.fixture(scope="module")
def nosignal_table():
    dataset = synth.generate(synth.SynthConfig(**NOSIGNAL_SYNTH))
    table, _ = embed_dataset(dataset, NOSIGNAL_PVDM)
    return table, dataset.events


# ---------------------------------------------------------------------------
# 1. Usefulness metric oracles


def test_criterion_1_usefulness_oracle():
    with criterion(1, "usefulness metric oracles (hand-derived values)"):
        assert evaluation.baseline_loss(0.07, 0.9) == pytest.approx(0.063, abs=1e-15)
        conf = evaluation.ConfusionRates(tp=60, fp=50, tn=880, fn=10)
        assert conf.p_fn == pytest.approx(0.01, abs=1e-15)
        assert conf.p_fp == pytest.approx(0.05, abs=1e-15)
        assert evaluation.model_loss(conf, 0.9) == pytest.approx(0.014, abs=1e-15)
        u_a, u_r = evaluation.relative_usefulness(0.063, 0.014)
        assert abs(u_r - 7.0 / 9.0) < 1e-12


# ---------------------------------------------------------------------------
# 2. Trivial-classifier null


def test_criterion_2_always_tranquil_null():
    with criterion(2, "always-tranquil predictor scores exactly zero"):
        scores = [evaluation.MonthScore("a", (2010, i % 12 + 1), 0.0, 1, 1)
                  for i in range(7)]
        scores += [evaluation.MonthScore("b%d" % i, (2010, i % 12 + 1), 0.0, 1, 0)
                   for i in range(93)]
        report = evaluation.usefulness_report(scores, mu=0.9, threshold=0.5)
        assert report.prior == pytest.approx(0.07, abs=1e-15)
        assert abs(report.relative_usefulness) < 1e-12


# ---------------------------------------------------------------------------
# 3. Gradient correctness


def central_difference(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    flat, nflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        flat[i] += eps
        hi = f()
        flat[i] -= 2 * eps
        lo = f()
        flat[i] += eps
        nflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(analytic, numeric):
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)


def test_criterion_3_gradient_correctness():
    with criterion(3, "analytic gradients match central finite differences"):
        # classifier: 6-4-2 network, no dropout so the loss is deterministic
        cfg = neural.MlpConfig(input_dim=6, hidden_layers=(4,), dropout_p=0.0,
                               l1=1e-3, seed=3)
        model = neural.init_model(cfg)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 2, size=5)
        _, grads_w, grads_b = neural.gradients(model, x, y)
        for layer in range(2):
            for mat, grad in ((model.weights[layer], grads_w[layer]),
                              (model.biases[layer], grads_b[layer])):
                num = central_difference(lambda: neural.loss(model, x, y), mat)
                assert rel_err(grad, num) < 1e-5

        # embedding: dim-8 vectors over a 20-word vocabulary
        from datetime import datetime, timezone

        words = ["w%02d" % i for i in range(20)]
        rng = np.random.default_rng(7)
        sents = [corpus.Sentence("s%d" % i, "b",
                                 datetime(2010, 1, 1, tzinfo=timezone.utc),
                                 tuple(rng.choice(words, size=7)))
                 for i in range(10)]
        vocab = corpus.build_vocabulary(sents, min_count=1)
        pcfg = pvdm.PvdmConfig(vector_dim=8, window_n=3, negative_samples=4, seed=7)
        emodel = pvdm.init_model(vocab, sents, pcfg)
        emodel.word_out[:] = rng.normal(0.0, 0.3, size=emodel.word_out.shape)
        tokens = sents[0].tokens
        noise_idx = np.array([2, 5, 5, 11])
        _, grad_in, grad_par, grad_out = pvdm.step_gradients(
            emodel, tokens, 0, noise_idx, paragraph_row=0
        )

        def eloss():
            return pvdm.step_loss(emodel, tokens, 0, noise_idx, paragraph_row=0)

        assert rel_err(grad_par, central_difference(eloss, emodel.paragraph[0])) < 1e-5
        for w, g in grad_in.items():
            assert rel_err(g, central_difference(eloss, emodel.word_in[w])) < 1e-5
        for w, g in grad_out.items():
            assert rel_err(g, central_difference(eloss, emodel.word_out[w])) < 1e-5


# ---------------------------------------------------------------------------
# 4. Nesterov oracle


def test_criterion_4_nesterov_quadratic_trace(monkeypatch):
    with criterion(4, "Nesterov quadratic trace 1 -> 0.9 -> 0.729"):
        cfg = neural.MlpConfig(input_dim=1, hidden_layers=(), lr=0.1, momentum=0.9,
                               l1=0.0, dropout_p=0.0)
        model = neural.init_model(cfg)
        model.weights[0][:] = 1.0

        def quadratic_grad(model_, x, y, rng=None, weights=None, biases=None):
            theta = weights[0] if weights is not None else model_.weights[0]
            return 0.0, [theta.copy()], [np.zeros(2)]

        monkeypatch.setattr(neural_module, "gradients", quadratic_grad)
        x, y = np.zeros((1, 1)), np.zeros(1, dtype=int)
        neural.nesterov_step(model, x, y, lr=0.1)
        assert abs(model.weights[0][0, 0] - 0.9) < 1e-12
        neural.nesterov_step(model, x, y, lr=0.1)
        assert abs(model.weights[0][0, 0] - 0.729) < 1e-12


# ---------------------------------------------------------------------------
# 5. Embedding loss at initialization and early decrease


def test_criterion_5_embedding_loss(strong_dataset):
    with criterion(5, "initial loss (1+k) ln 2; epoch losses decrease"):
        sentences = []
        for article in strong_dataset.articles[:200]:
            sentences.extend(corpus.extract_sentences(article, strong_dataset.registry))
        vocab = corpus.build_vocabulary(sentences, min_count=5)
        for k in (1, 5):
            cfg = pvdm.PvdmConfig(vector_dim=20, window_n=2, negative_samples=k, seed=0)
            model = pvdm.init_model(vocab, sentences, cfg)
            loss = pvdm.step_loss(model, sentences[0].tokens, 0,
                                  noise_idx=np.arange(k), paragraph_row=0)
            assert abs(loss - (1 + k) * math.log(2.0)) < 1e-12

        full = []
        for article in strong_dataset.articles:
            full.extend(corpus.extract_sentences(article, strong_dataset.registry))
        vocab = corpus.build_vocabulary(full, min_count=5)
        cfg = pvdm.PvdmConfig(vector_dim=50, window_n=2, epochs=3, lr_initial=0.1, seed=1)
        _, losses = pvdm.train(pvdm.init_model(vocab, full, cfg), full)
        assert len(losses) == 3
        assert losses[1] <= losses[0] * 1.05
        assert losses[2] <= losses[1] * 1.05
        assert losses[2] < losses[0]


# ---------------------------------------------------------------------------
# 6. Fold hygiene


def test_criterion_6_fold_hygiene(monkeypatch):
    with criterion(6, "grouped folds partition banks; normalization is train-only"):
        banks = ["bank%03d" % i for i in range(62)]
        for seed in range(100):
            folds = fusion.assign_folds(banks, k=5, seed=seed)
            assert sorted(folds.fold_of) == banks  # each bank in exactly one fold
            sizes = [len(folds.banks_in(f)) for f in range(5)]
            assert sum(sizes) == 62 and min(sizes) >= 1

        table, events = toy_table()
        captured = []
        original = fusion.fit_normalization

        def recorder(values, source_folds=()):
            captured.append(np.asarray(values).copy())
            return original(values, source_folds=source_folds)

        monkeypatch.setattr(experiment, "fit_normalization", recorder)
        cfg = experiment.ExperimentConfig(mlp={"epochs": 2, "hidden_layers": (4,)})
        for seed in (11, 37, 91):
            captured.clear()
            result = experiment.run_once(table, events, cfg, run_seed=seed)
            train_banks = {b for b, f in result.fold_of.items()
                           if f in experiment.TRAIN_FOLDS}
            mask = np.array([b in train_banks for b in table.bank_ids])
            assert len(captured) == 1
            np.testing.assert_array_equal(captured[0], table.numeric_raw[mask])
            assert mask.sum() < len(table)


# ---------------------------------------------------------------------------
# 7. Qualitative arm ordering


def test_criterion_7_arm_ordering(strong_table):
    with criterion(7, "combined > numeric_only > text_only > 0 over 10 runs"):
        table, events = strong_table
        means = {}
        for arm in fusion.ARMS:
            cfg = experiment.ExperimentConfig(
                arm=arm, runs=10, mlp={"epochs": 100},
                master_seed=STRONG_MASTER_SEED,
            )
            mean, _, _ = experiment.run_repeated(table, events, cfg)
            means[arm] = mean
        assert means["text_only"] > 0.0, means
        assert means["numeric_only"] > means["text_only"], means
        assert means["combined"] > means["numeric_only"], means
        assert means["combined"] - means["numeric_only"] > 0.02, means


def test_criterion_7b_full_dimension_smoke(strong_dataset):
    with criterion(7, "600-dim embedding smoke run (1 repetition)"):
        table, _ = embed_dataset(
            strong_dataset,
            dict(vector_dim=600, window_n=5, epochs=1, seed=1),
        )
        assert table.semantic_dim == 600
        cfg = experiment.ExperimentConfig(
            arm="combined", runs=1, mlp={"epochs": 5}, master_seed=STRONG_MASTER_SEED,
        )
        result = experiment.run_once(
            table, strong_dataset.events, cfg,
            experiment.derive_run_seed(STRONG_MASTER_SEED, 0),
        )
        assert np.isfinite(result.test.relative_usefulness)
        assert 0.0 < result.test.prior < 1.0


# ---------------------------------------------------------------------------
# 8. No-signal null


def test_criterion_8_no_signal_null(nosignal_table):
    with criterion(8, "no-signal data yields mean U_r within [-0.1, 0.1]"):
        table, events = nosignal_table
        for arm in fusion.ARMS:
            cfg = experiment.ExperimentConfig(
                arm=arm, runs=10, mlp={"epochs": 20},
                master_seed=NOSIGNAL_MASTER_SEED,
            )
            mean, _, _ = experiment.run_repeated(table, events, cfg)
            assert -0.1 <= mean <= 0.1, (arm, mean)


# ---------------------------------------------------------------------------
# 9. Sensitivity harness


def test_criterion_9_hidden_width_sweep(strong_table):
    with criterion(9, "hidden-width sweep is well-formed and plateaus"):
        table, events = strong_table
        base = experiment.ExperimentConfig(
            arm="numeric_only", mlp={"epochs": 100}, master_seed=STRONG_MASTER_SEED,
        )
        result = experiment.sweep(lambda overrides: table, events, base,
                                  "hidden_width", [10, 20, 50, 100], runs=10)
        assert result.parameter == "hidden_width"
        assert result.grid == [10, 20, 50, 100]
        assert len(result.mean_ur) == 4 and len(result.std_ur) == 4
        assert result.runs_per_point == 10
        assert all(np.isfinite(v) for v in result.mean_ur)
        peak = max(result.mean_ur)
        assert all(peak - v <= 0.25 for v in result.mean_ur), result.mean_ur


# ---------------------------------------------------------------------------
# 10. Determinism


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "identical seeds give byte-identical result files"):
        d = str(tmp_path)
        paths = {
            "data": os.path.join(d, "data"),
            "sentences": os.path.join(d, "sentences.jsonl"),
            "model": os.path.join(d, "model.npz"),
            "vectors": os.path.join(d, "vectors.jsonl"),
            "fused": os.path.join(d, "fused.jsonl"),
            "config": os.path.join(d, "config.json"),
        }
        assert cli.main(["synth", "--out", paths["data"], "--banks", "12",
                         "--min-sentences", "2", "--max-sentences", "6",
                         "--seed", "4"]) == 0
        assert cli.main(["ingest",
                         "--articles", os.path.join(paths["data"], "articles.jsonl"),
                         "--registry", os.path.join(paths["data"], "registry.json"),
                         "--out", paths["sentences"]]) == 0
        assert cli.main(["embed", "--sentences", paths["sentences"],
                         "--out", paths["model"], "--vectors", paths["vectors"],
                         "--dim", "16", "--window", "2", "--epochs", "2",
                         "--seed", "1"]) == 0
        assert cli.main(["fuse", "--sentences", paths["sentences"],
                         "--vectors", paths["vectors"],
                         "--indicators", os.path.join(paths["data"], "indicators.csv"),
                         "--events", os.path.join(paths["data"], "events.csv"),
                         "--out", paths["fused"]]) == 0
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump({"mlp": {"epochs": 3, "hidden_layers": [6]}}, fh)
        for out in ("out1", "out2"):
            assert cli.main(["experiment", "--fused", paths["fused"],
                             "--events", os.path.join(paths["data"], "events.csv"),
                             "--config", paths["config"], "--seed", "2",
                             "--runs", "2", "--arm", "all",
                             "--out", os.path.join(d, out)]) == 0
        for name in ("runs.csv", "summary.json"):
            b1 = open(os.path.join(d, "out1", name), "rb").read()
            b2 = open(os.path.join(d, "out2", name), "rb").read()
            assert b1 == b2, name
