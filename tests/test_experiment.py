"""Experiment protocol tests: seeds, folds, arm isolation, sweeps, outputs."""

import json
import os
import tempfile
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bankdistress.experiment as experiment_module
from bankdistress import experiment
from bankdistress.experiment import (
    MAX_FOLD_REDRAWS,
    TEST_FOLD,
    TRAIN_FOLDS,
    VALIDATION_FOLD,
    ExperimentConfig,
    derive_run_seed,
    run_once,
    run_repeated,
    sweep,
    write_runs_csv,
    write_summary_json,
    write_sweep_csv,
)
from bankdistress.fusion import SampleTable, assign_folds
from conftest import toy_table


def quick_config(**overrides):
    base = dict(arm="combined", runs=2, mlp={"epochs": 3, "hidden_layers": (6,)},
                master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Configuration and seeds


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(arm="both")
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    # fold roles are fixed (3 train, 1 validation, 1 test), so is the count
    with pytest.raises(TypeError, match="folds"):
        ExperimentConfig(folds=5)


def test_config_rejects_unknown_override_keys():
    with pytest.raises(ValueError, match="unknown mlp key 'epoch'"):
        ExperimentConfig(mlp={"epoch": 2})
    with pytest.raises(ValueError, match="unknown pvdm key 'dimm'"):
        ExperimentConfig(pvdm={"dimm": 4})
    # input_dim and the seed are set by each run; setting them would do nothing
    for key in ("input_dim", "seed"):
        with pytest.raises(ValueError, match="unknown mlp key %r" % key):
            ExperimentConfig(mlp={key: 1})
    with pytest.raises(ValueError, match="pvdm must be a JSON object"):
        ExperimentConfig(pvdm=[4])
    # override values are checked as a PvdmConfig would check them
    with pytest.raises(ValueError, match="pvdm: epochs must be >= 0"):
        ExperimentConfig(pvdm={"epochs": -1})
    cfg = ExperimentConfig(mlp={"epochs": 2, "hidden_layers": [4]},
                           pvdm={"vector_dim": 4, "min_count": 1, "seed": 3})
    assert cfg.pvdm["min_count"] == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def json_object(keys):
    """A JSON object whose keys are among ``keys`` and whose values are any JSON."""
    return st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=len(keys))


# config files whose keys are config keys at every level, with any JSON values
CONFIG_FILES = st.fixed_dictionaries({}, optional=dict(
    {f.name: JSON_VALUES for f in fields(ExperimentConfig)},
    mlp=json_object(experiment.MLP_KEYS) | JSON_VALUES,
    pvdm=json_object(experiment.PVDM_KEYS) | JSON_VALUES))


@settings(max_examples=300, deadline=None)
@given(CONFIG_FILES)
@example({"mlp": {"lr": "x"}})
@example({"pvdm": {"lr_initial": None, "lr_final": [0.1]}})
@example({"mlp": {"momentum": 10 ** 400}, "mu": 10 ** 400})
def test_read_config_returns_or_raises_a_value_error_naming_the_file(config):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        try:
            experiment.read_config(path)
        except ValueError as exc:
            assert str(exc).startswith(path + ": "), exc


@pytest.mark.parametrize("arm,scope,parameter,source", [
    ("numeric_only", "train_folds", None, None),
    ("numeric_only", "full", "window_n", None),
    ("combined", "train_folds", None, "train_folds"),
    ("text_only", "train_folds", "vector_dim", "train_folds"),
    ("combined", "full", "window_n", "reembedded"),
    ("text_only", "full", "vector_dim", "reembedded"),
    ("combined", "full", "lr", "fused"),
    ("text_only", "full", None, "fused"),
])
def test_vector_source(arm, scope, parameter, source):
    assert experiment.vector_source(arm, scope, parameter) == source


def test_derive_run_seed_properties():
    seeds = [derive_run_seed(5, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [derive_run_seed(5, i) for i in range(50)]
    assert derive_run_seed(6, 0) != derive_run_seed(5, 0)


# ---------------------------------------------------------------------------
# Single runs


def test_run_once_deterministic():
    table, events = toy_table()
    cfg = quick_config()
    a = run_once(table, events, cfg, run_seed=123)
    b = run_once(table, events, cfg, run_seed=123)
    assert a.threshold == b.threshold
    assert a.test == b.test
    assert a.fold_of == b.fold_of
    c = run_once(table, events, cfg, run_seed=124)
    assert a.fold_of != c.fold_of


def test_run_once_fold_roles_partition_banks():
    table, events = toy_table()
    result = run_once(table, events, quick_config(), run_seed=42)
    by_fold = {}
    for bank, f in result.fold_of.items():
        by_fold.setdefault(f, []).append(bank)
    assert set(by_fold) == set(TRAIN_FOLDS) | {VALIDATION_FOLD, TEST_FOLD}
    assert sorted(b for banks in by_fold.values() for b in banks) == sorted(set(table.bank_ids))


@pytest.mark.parametrize("sem_dim", [8, 64])
def test_run_once_validation_report_scores_the_best_hook_score(monkeypatch, sem_dim):
    # train steps in float32 and hands the hook its float32 working model; the
    # float64 model it returns holds those values exactly, so the run's
    # validation report scores what the hook scored at the best epoch
    table, events = toy_table(sem_dim=sem_dim)
    scores, returned = [], []
    original = experiment_module.neural.train

    def recording_train(model, x_train, y_train, eval_hook=None):
        def hook(m):
            scores.append(eval_hook(m))
            return scores[-1]

        best, curve = original(model, x_train, y_train, eval_hook=hook)
        returned.append(best)
        return best, curve

    monkeypatch.setattr(experiment_module.neural, "train", recording_train)
    config = quick_config(mlp={"epochs": 6, "hidden_layers": (6,)})
    result = run_once(table, events, config, run_seed=42)
    assert len(scores) == 6
    assert result.validation.relative_usefulness == max(scores)
    (best,) = returned
    for values in (best.params, best.velocity):
        assert values.dtype == np.float64
        assert np.array_equal(values.astype(np.float32).astype(float), values)


def test_run_once_arm_isolation():
    table, events = toy_table()
    cfg_text = quick_config(arm="text_only", runs=1)
    cfg_num = quick_config(arm="numeric_only", runs=1)

    base_text = run_once(table, events, cfg_text, run_seed=9)
    base_num = run_once(table, events, cfg_num, run_seed=9)

    # corrupting the numeric block must not move the text arm, and vice versa
    jumbled = SampleTable(
        sentence_ids=table.sentence_ids, bank_ids=table.bank_ids, months=table.months,
        semantic=table.semantic, numeric_raw=table.numeric_raw * -3.0 + 5.0,
        labels=table.labels,
    )
    assert run_once(jumbled, events, cfg_text, run_seed=9).test == base_text.test

    jumbled2 = SampleTable(
        sentence_ids=table.sentence_ids, bank_ids=table.bank_ids, months=table.months,
        semantic=table.semantic * -3.0 + 5.0, numeric_raw=table.numeric_raw,
        labels=table.labels,
    )
    assert run_once(jumbled2, events, cfg_num, run_seed=9).test == base_num.test


def test_run_once_normalization_sees_only_training_folds(monkeypatch):
    table, events = toy_table()
    captured = []
    original = experiment_module.fit_normalization

    def recorder(values, source_folds=()):
        captured.append(np.asarray(values).copy())
        return original(values, source_folds=source_folds)

    monkeypatch.setattr(experiment_module, "fit_normalization", recorder)
    result = run_once(table, events, quick_config(), run_seed=31)
    assert len(captured) == 1
    train_banks = {b for b, f in result.fold_of.items() if f in TRAIN_FOLDS}
    mask = np.array([b in train_banks for b in table.bank_ids])
    np.testing.assert_array_equal(captured[0], table.numeric_raw[mask])
    assert mask.sum() < len(table)  # validation/test rows really were excluded


def fused_table_oracle(table, semantic, fold_of, arm):
    """The train, validation and test inputs of the old path: z-score the
    whole table's indicators, concatenate them to the semantic vectors, slice
    the arm's columns, then take each role's rows by mask."""
    from bankdistress.fusion import apply_normalization, fit_normalization

    fold = np.array([fold_of[b] for b in table.bank_ids])
    masks = (np.isin(fold, TRAIN_FOLDS), fold == VALIDATION_FOLD, fold == TEST_FOLD)
    stats = fit_normalization(table.numeric_raw[masks[0]], source_folds=TRAIN_FOLDS)
    fused = np.concatenate([semantic, apply_normalization(stats, table.numeric_raw)], axis=1)
    dim = semantic.shape[1]
    projected = {"combined": fused, "text_only": fused[..., :dim],
                 "numeric_only": fused[..., dim:]}[arm]
    return [projected[mask] for mask in masks]


def sorted_rows(x, y):
    """The rows of ``x`` (as float64) with their labels ``y`` appended, in
    lexicographic order: a multiset of labelled rows, whatever their order."""
    rows = np.column_stack([np.asarray(x, dtype=np.float64), y])
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("scope", ["full", "train_folds"])
@pytest.mark.parametrize("run_seed", [11, 12])
@pytest.mark.parametrize("arm", ["combined", "text_only", "numeric_only"])
def test_run_once_role_inputs_match_the_fused_table_oracle(monkeypatch, arm, run_seed, scope):
    from bankdistress import neural

    # 300 training rows: more than one of project_arm's gathering chunks
    table, events = toy_table(n_banks=10, n_months=25, per_month=2)
    sentences = toy_sentences(table)
    fed = {"train": [], "steps": [], "predict": [], "vectors": []}
    train, step = neural.train, neural.nesterov_step
    predict, scoped = neural.predict, experiment.fold_scoped_vectors

    def record_train(model, x, y, eval_hook=None):
        fed["train"].append((x, y))
        return train(model, x, y, eval_hook=eval_hook)

    def record_step(model, x, y, lr, ahead=None):
        # the minibatch buffers are reused, so each step's rows are copied
        fed["steps"].append((x.copy(), y.copy()))
        return step(model, x, y, lr, ahead=ahead)

    def record_predict(model, x):
        fed["predict"].append(x)
        return predict(model, x)

    def record_scoped(*args):
        vectors, zero_vectors = scoped(*args)
        fed["vectors"].append(vectors)
        return vectors, zero_vectors

    monkeypatch.setattr(neural, "train", record_train)
    monkeypatch.setattr(neural, "nesterov_step", record_step)
    monkeypatch.setattr(neural, "predict", record_predict)
    monkeypatch.setattr(experiment, "fold_scoped_vectors", record_scoped)
    config = quick_config(arm=arm, runs=1, embedding_scope=scope,
                          pvdm={} if scope == "full" else
                          {"vector_dim": 6, "window_n": 2, "epochs": 1, "min_count": 1})
    result = run_once(table, events, config, run_seed=run_seed,
                      sentences=sentences if scope == "train_folds" else None)

    semantic = table.semantic
    if scope == "train_folds" and arm != "numeric_only":
        (vectors,) = fed["vectors"]
        semantic = np.vstack([vectors[sid] for sid in table.sentence_ids])
    else:
        assert not fed["vectors"]  # full scope, or an arm that reads no semantic vectors
    want_train, want_val, want_test = fused_table_oracle(table, semantic, result.fold_of, arm)
    fold = np.array([result.fold_of[b] for b in table.bank_ids])
    want_labels = table.labels[np.isin(fold, TRAIN_FOLDS)]

    # train gets column blocks whose rows, side by side, are the oracle's
    ((blocks, labels),) = fed["train"]
    assert np.array_equal(np.hstack([matrix[rows] for matrix, rows in blocks]), want_train)
    assert np.array_equal(labels, want_labels)
    # every epoch's minibatches are the oracle's rows, cast to float32, with
    # their labels, each once
    epochs, batches = config.mlp["epochs"], -(-len(want_train) // 64)
    assert len(fed["steps"]) == epochs * batches
    for epoch in range(epochs):
        steps = fed["steps"][epoch * batches : (epoch + 1) * batches]
        assert all(x.dtype == np.float32 for x, _ in steps)
        got = sorted_rows(np.concatenate([x for x, _ in steps]),
                          np.concatenate([y for _, y in steps]))
        assert np.array_equal(got, sorted_rows(want_train.astype(np.float32), want_labels))

    # the eval hook predicts on the validation inputs; the last call is the test
    got = [fed["predict"][0], fed["predict"][-1]]
    assert all(x is got[0] for x in fed["predict"][:-1])
    for role, x, want in zip(("validation", "test"), got, (want_val, want_test)):
        assert np.array_equal(x, want), role
        assert x.dtype == want.dtype and x.flags.c_contiguous, role


def test_numeric_only_builds_no_fold_scoped_embedding(monkeypatch):
    table, events = toy_table()
    sentences = toy_sentences(table)
    calls = []
    scoped = experiment.fold_scoped_vectors

    def counting_scoped(*args):
        calls.append(args)
        return scoped(*args)

    monkeypatch.setattr(experiment, "fold_scoped_vectors", counting_scoped)
    pvdm_overrides = {"vector_dim": 4, "window_n": 2, "epochs": 1, "min_count": 1}
    urs = {}
    for arm in ("combined", "numeric_only", "text_only"):
        config = quick_config(arm=arm, runs=2, embedding_scope="train_folds",
                              pvdm=pvdm_overrides)
        count = len(calls)
        results = [r for _, _, r in experiment.protocol_runs(table, events, {arm: config},
                                                                 sentences)]
        urs[arm] = [r.test.relative_usefulness for r in results]
        assert len(calls) - count == (0 if arm == "numeric_only" else 2), arm
    # the MLP seeds from key 1 of the run seed, the embedding from key 2, so
    # skipping the embedding leaves numeric_only's runs as the full-scope ones
    _, _, full = run_repeated(table, events, quick_config(arm="numeric_only", runs=2))
    assert urs["numeric_only"] == [r.test.relative_usefulness for r in full]


def toy_sentences(table, seed=1):
    """Raw sentences matching a toy table's ids, for embedding-scope runs."""
    from datetime import datetime, timezone

    from bankdistress.corpus import Sentence

    rng = np.random.default_rng(seed)
    words = ["w%02d" % i for i in range(15)]
    out = []
    for sid, bank, month in zip(table.sentence_ids, table.bank_ids, table.months):
        out.append(Sentence(
            sentence_id=sid, bank_id=bank,
            published_at=datetime(month[0], month[1], 10, tzinfo=timezone.utc),
            tokens=tuple(rng.choice(words, size=8)),
        ))
    return out


def test_embed_sentences_is_vocabulary_init_train():
    from bankdistress import pvdm
    from bankdistress.corpus import build_vocabulary

    table, _ = toy_table(n_banks=3, n_months=2)
    sentences = toy_sentences(table)
    for min_count in (1, 5, 8):  # 15 words over 96 tokens, each seen 3 to 11 times
        cfg = pvdm.PvdmConfig(vector_dim=4, window_n=2, epochs=2, seed=5,
                              min_count=min_count)
        model, losses = experiment.embed_sentences(sentences, cfg)
        vocab = build_vocabulary(sentences, min_count=min_count)
        want, want_losses = pvdm.train(pvdm.init_model(vocab, sentences, cfg), sentences)
        assert model.vocab.index_to_token == vocab.index_to_token
        assert losses == want_losses and len(losses) == 2
        np.testing.assert_array_equal(model.paragraph, want.paragraph)
    assert len(model.vocab) < len(build_vocabulary(sentences, min_count=1))


def test_fold_scoped_vectors_do_not_leak():
    table, _ = toy_table(n_banks=6)
    sentences = toy_sentences(table)
    pvdm_overrides = {"vector_dim": 6, "window_n": 2, "epochs": 1, "min_count": 1}
    train_banks = {"b00", "b01", "b02", "b03"}
    first, _ = experiment.fold_scoped_vectors(sentences, pvdm_overrides, train_banks,
                                              seed=3)
    assert set(first) == set(table.sentence_ids)
    assert all(v.shape == (6,) for v in first.values())

    # rewriting a held-out bank's text must not move any training-bank vector
    altered = [
        s if s.bank_id in train_banks else
        type(s)(sentence_id=s.sentence_id, bank_id=s.bank_id,
                published_at=s.published_at, tokens=("w00",) * 8)
        for s in sentences
    ]
    second, _ = experiment.fold_scoped_vectors(altered, pvdm_overrides, train_banks,
                                               seed=3)
    for s in sentences:
        if s.bank_id in train_banks:
            np.testing.assert_array_equal(first[s.sentence_id], second[s.sentence_id])


def test_fold_scoped_vectors_infer_held_out_and_fall_back_to_zero():
    from bankdistress import pvdm
    from bankdistress.corpus import build_vocabulary
    from test_pvdm import reference_infer_vector

    table, _ = toy_table(n_banks=6, n_months=4)
    sentences = toy_sentences(table)
    short = next(i for i, s in enumerate(sentences) if s.bank_id == "b05")
    sentences[short] = type(sentences[short])(
        sentence_id=sentences[short].sentence_id, bank_id="b05",
        published_at=sentences[short].published_at, tokens=("w01", "w02", "w03"))
    overrides = {"vector_dim": 6, "window_n": 2, "epochs": 1, "min_count": 1}
    train_banks = {"b00", "b01", "b02", "b03"}
    vectors, zero_vectors = experiment.fold_scoped_vectors(sentences, overrides, train_banks,
                                                           seed=3)
    assert zero_vectors == 1

    train_sents = [s for s in sentences if s.bank_id in train_banks]
    cfg = pvdm.PvdmConfig(vector_dim=6, window_n=2, epochs=1, seed=3)
    model = pvdm.init_model(build_vocabulary(train_sents, min_count=1), train_sents, cfg)
    model, _ = pvdm.train(model, train_sents)
    for i, s in enumerate(sentences):
        if s.bank_id in train_banks:
            row = model.sentence_index[s.sentence_id]
            np.testing.assert_array_equal(vectors[s.sentence_id], model.paragraph[row])
        elif i == short:
            np.testing.assert_array_equal(vectors[s.sentence_id], np.zeros(6))
        else:
            np.testing.assert_allclose(vectors[s.sentence_id],
                                       reference_infer_vector(model, s.tokens, seed=3 + i),
                                       rtol=0, atol=1e-12)


def test_run_once_train_folds_embedding_scope():
    table, events = toy_table(n_banks=6)
    sentences = toy_sentences(table)
    cfg = quick_config(
        runs=1,
        embedding_scope="train_folds",
        pvdm={"vector_dim": 6, "window_n": 2, "epochs": 1, "min_count": 1},
    )
    a = run_once(table, events, cfg, run_seed=17, sentences=sentences)
    b = run_once(table, events, cfg, run_seed=17, sentences=sentences)
    assert a.test == b.test
    assert a.zero_vectors == 0

    # every sentence of bank b05 too short to infer: each falls back to a zero
    # vector when b05 is held out, and none does when it trains
    short = [s if s.bank_id != "b05" else replace(s, tokens=s.tokens[:3]) for s in sentences]
    n_short = sum(s.bank_id == "b05" for s in sentences)
    seen = set()
    for seed in (17, 20, 22, 23):
        r = run_once(table, events, cfg, run_seed=seed, sentences=short)
        held_out = r.fold_of["b05"] not in TRAIN_FOLDS
        assert r.zero_vectors == (n_short if held_out else 0)
        seen.add(held_out)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="raw sentences"):
        run_once(table, events, cfg, run_seed=17)
    with pytest.raises(ValueError, match="embedding_scope"):
        quick_config(embedding_scope="per_bank")


# ---------------------------------------------------------------------------
# Repeated runs


def test_run_repeated_statistics_and_prefix():
    table, events = toy_table()
    mean, std, results = run_repeated(table, events, quick_config(runs=4))
    urs = [r.test.relative_usefulness for r in results]
    assert mean == pytest.approx(np.mean(urs))
    assert std == pytest.approx(np.std(urs))
    assert [r.run_index for r in results] == [0, 1, 2, 3]

    # the first runs do not depend on how many runs follow
    _, _, prefix = run_repeated(table, events, quick_config(runs=2))
    assert [r.seed for r in prefix] == [r.seed for r in results[:2]]
    assert [r.test for r in prefix] == [r.test for r in results[:2]]


def test_apply_sweep_value():
    cfg = quick_config()
    assert experiment._apply_sweep_value(cfg, "hidden_width", 20).mlp["hidden_layers"] == (20,)
    assert experiment._apply_sweep_value(cfg, "hidden_layer_count", 3).mlp["hidden_layers"] == (6, 6, 6)
    assert experiment._apply_sweep_value(cfg, "lr", 0.01).mlp["lr"] == 0.01
    assert experiment._apply_sweep_value(cfg, "l1", 1e-4).mlp["l1"] == 1e-4
    assert experiment._apply_sweep_value(cfg, "dropout_p", 0.2).mlp["dropout_p"] == 0.2
    assert experiment._apply_sweep_value(cfg, "window_n", 3).pvdm["window_n"] == 3
    assert experiment._apply_sweep_value(cfg, "vector_dim", 32).pvdm["vector_dim"] == 32
    with pytest.raises(ValueError):
        experiment._apply_sweep_value(cfg, "batchiness", 1)


@pytest.mark.parametrize("parameter,overrides", [
    ("lr", {"mlp": {"lr": 0.01}}), ("l1", {"mlp": {"l1": 0.0}}),
    ("dropout_p", {"mlp": {"dropout_p": 0.1}}), ("window_n", {"pvdm": {"window_n": 3}}),
    ("vector_dim", {"pvdm": {"vector_dim": 8}}),
])
def test_sweep_rejects_a_config_value_the_grid_replaces(parameter, overrides):
    calls = []
    with pytest.raises(ValueError, match="the config sets %s, which the sweep sets" % parameter):
        sweep(lambda o: calls.append(o), None, quick_config(**overrides), parameter, [2])
    assert not calls


def test_sweep_builder_invocations_and_result():
    table, events = toy_table()
    calls = []

    def builder(pvdm_overrides):
        calls.append(dict(pvdm_overrides))
        return table

    result = sweep(builder, events, quick_config(), "hidden_width", [4, 8], runs=1)
    assert result.parameter == "hidden_width"
    assert result.grid == [4, 8]
    assert len(result.mean_ur) == 2 and len(result.std_ur) == 2
    assert result.runs_per_point == 1
    assert len(calls) == 1  # classifier-side sweep reuses one table

    # an embedding sweep builds its one table too, and re-embeds the
    # sentences into it at each grid value itself
    calls.clear()
    small = quick_config(pvdm={"vector_dim": 4, "epochs": 1, "min_count": 1})
    with pytest.raises(ValueError, match="full-scope window_n sweep needs the raw sentences"):
        sweep(builder, events, small, "window_n", [2, 3], runs=1)
    assert not calls
    result = sweep(builder, events, small, "window_n", [2, 3], runs=1,
                   sentences=toy_sentences(table))
    assert calls == [dict(small.pvdm, window_n=2)]
    assert len(result.mean_ur) == 2

    with pytest.raises(ValueError):
        sweep(builder, events, quick_config(), "hidden_width", [], runs=1)


# ---------------------------------------------------------------------------
# The protocol loop

LOOP_PVDM = {"vector_dim": 4, "window_n": 2, "epochs": 1, "min_count": 1}


def fresh_runs(table_of, events, configs, sentences):
    """(key, run index, RunResult) of one run_once call per (config, run
    index), outside any loop, so no call shares work with another;
    ``table_of(config)`` is each config's table."""
    return [(key, i, run_once(table_of(cfg), events, cfg, derive_run_seed(cfg.master_seed, i),
                              run_index=i, sentences=sentences))
            for key, cfg in configs.items() for i in range(cfg.runs)]


def count_calls(monkeypatch, names):
    """Count the calls of each of ``names`` that run_once makes through the module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _inner=getattr(experiment, name), _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counting)
    return counts


def few_distressed(events):
    # three distressed banks of ten: some fold draws are redrawn
    return [e for e in events if e.bank_id in ("b00", "b01", "b02")]


@pytest.mark.parametrize("scope", ["full", "train_folds"])
def test_protocol_runs_share_a_run_index_and_equal_fresh_runs(monkeypatch, scope):
    table, events = toy_table()
    events = few_distressed(events)
    sentences = toy_sentences(table) if scope == "train_folds" else None
    configs = {arm: quick_config(arm=arm, runs=4, embedding_scope=scope,
                                 pvdm=LOOP_PVDM if sentences else {})
               for arm in ("text_only", "numeric_only", "combined")}
    names = ("assign_folds", "fit_normalization", "fold_scoped_vectors")
    counts = count_calls(monkeypatch, names)
    want = fresh_runs(lambda cfg: table, events, configs, sentences)
    # fresh runs draw the folds and embed once per text arm and run index
    redraws = [r.redraws for key, _, r in want if key == "combined"]
    assert any(redraws)
    assert counts == {"assign_folds": 3 * (4 + sum(redraws)), "fit_normalization": 3 * 4,
                      "fold_scoped_vectors": 2 * 4 if sentences else 0}

    counts.update(dict.fromkeys(names, 0))
    fresh = {(key, i): result for key, i, result in want}

    def check_a_direct_run(i):
        # a run_once call outside the loop draws its own folds and equals a fresh run
        before = dict(counts)
        config = configs["combined"]
        result = run_once(table, events, config, derive_run_seed(config.master_seed, i),
                          run_index=i, sentences=sentences)
        assert counts["assign_folds"] > before["assign_folds"]
        assert result == fresh["combined", i]
        counts.update(before)

    got, seen = [], []
    for key, i, result in experiment.protocol_runs(table, events, configs, sentences):
        got.append((key, i, result))
        seen.append((i, dict(counts)))
        if (key, i) == ("text_only", 1):
            # the loop is suspended before the other configs of run index 1
            check_a_direct_run(1)
    assert sorted(got, key=lambda g: list(configs).index(g[0])) == want
    assert [(key, i) for key, i, _ in got] == [(key, i) for i in range(4) for key in configs]
    # the first run of each run index builds what all of its configs use
    for i, seen_counts in seen:
        assert seen_counts == {"assign_folds": i + 1 + sum(redraws[:i + 1]),
                               "fit_normalization": i + 1,
                               "fold_scoped_vectors": i + 1 if sentences else 0}, i
    check_a_direct_run(3)


@pytest.mark.parametrize("parameter,grid,scope", [("lr", [0.01, 0.05, 0.1], "train_folds"),
                                                  ("window_n", [2, 3], "train_folds"),
                                                  ("window_n", [2, 3], "full")])
def test_sweep_runs_equal_fresh_runs(monkeypatch, parameter, grid, scope):
    from bankdistress import pvdm

    table, events = toy_table()
    sentences = toy_sentences(table)
    base = quick_config(runs=3, embedding_scope=scope,
                        pvdm={k: v for k, v in LOOP_PVDM.items() if k != parameter})
    reembeds = experiment.vector_source(base.arm, scope, parameter) == "reembedded"

    def table_of(cfg):
        # a re-embedding sweep's table for each grid value: the sentences
        # embedded with its pvdm settings, into the table's rows
        if not reembeds:
            return table
        model, _ = experiment.embed_sentences(sentences, pvdm.PvdmConfig(**cfg.pvdm))
        vectors = {sid: model.paragraph[row] for sid, row in model.sentence_index.items()}
        return replace(table, semantic=experiment.semantic_rows(table.sentence_ids, vectors, "s"))

    configs = dict(enumerate(experiment.sweep_configs(base, parameter, grid)))
    want = fresh_runs(table_of, events, configs, sentences)

    counts = count_calls(monkeypatch, ("assign_folds", "fold_scoped_vectors"))
    got, built, columns = [], [], []  # columns: a weak reference to each semantic one
    run_once, semantic_rows = experiment.run_once, experiment.semantic_rows

    def recording_run_once(*args, **kwargs):
        result = run_once(*args, **kwargs)
        got.append((list(configs.values()).index(args[2]), result.run_index, result))
        return result

    def recording_semantic_rows(*args):
        if reembeds:
            assert all(c() is None for c in columns)  # the table before is gone
        column = semantic_rows(*args)
        columns.append(weakref.ref(column))
        return column

    def builder(pvdm_overrides):
        built.append(pvdm_overrides)
        return table

    monkeypatch.setattr(experiment, "run_once", recording_run_once)
    monkeypatch.setattr(experiment, "semantic_rows", recording_semantic_rows)
    result = sweep(builder, events, base, parameter, grid, runs=3, sentences=sentences)
    assert built == [configs[0].pvdm]  # one table, built once
    assert sorted(got, key=lambda g: g[0]) == want
    stats = [experiment.ur_stats([r for k, _, r in want if k == point]) for point in configs]
    assert result.mean_ur == [mean for mean, _ in stats]
    assert result.std_ur == [std for _, std in stats]
    if reembeds:
        # grid value outer: one table per grid value, each run index's folds drawn per table
        assert [(k, i) for k, i, _ in got] == [(k, i) for k in configs for i in range(3)]
        assert len(columns) == len(grid)
        assert counts == {"assign_folds": 3 * len(grid), "fold_scoped_vectors": 0}
    else:
        # run index outer: one fold draw per run index, and one embedding per
        # run index and distinct pvdm override set
        assert [(k, i) for k, i, _ in got] == [(k, i) for i in range(3) for k in configs]
        pvdm_sets = len(grid) if parameter in experiment.EMBEDDING_SWEEPS else 1
        assert counts == {"assign_folds": 3, "fold_scoped_vectors": 3 * pvdm_sets}


# ---------------------------------------------------------------------------
# Result files


def test_result_files_deterministic_bytes(tmp_path):
    table, events = toy_table()
    cfg = quick_config(runs=2)
    _, _, results = run_repeated(table, events, cfg)
    by_arm = {"combined": results}

    p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    write_runs_csv(by_arm, p1)
    write_runs_csv(by_arm, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    header = open(p1, encoding="utf-8").readline().strip()
    assert header == "arm,run,seed,threshold,val_ur,test_ur,test_prior,tp,fp,tn,fn"

    s1, s2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    write_summary_json(by_arm, cfg, s1)
    write_summary_json(by_arm, cfg, s2)
    assert open(s1, "rb").read() == open(s2, "rb").read()

    import json
    summary = json.loads(open(s1, encoding="utf-8").read())
    assert summary["arms"]["combined"]["runs"] == 2
    assert summary["config"]["master_seed"] == 7


def test_write_sweep_csv(tmp_path):
    result = experiment.SweepResult(
        parameter="lr", grid=[0.1, 0.2], mean_ur=[0.5, 0.4], std_ur=[0.05, 0.02],
        runs_per_point=3,
    )
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(result, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "parameter,value,mean_ur,std_ur,runs"
    assert lines[1] == "lr,0.1,0.5,0.05,3"


def test_run_once_redraws_single_class_folds():
    # three distressed banks of ten: most draws leave the validation or the
    # test fold (two banks each) without a distressed month
    table, events = toy_table()
    distressed = {"b00", "b01", "b02"}
    events = [e for e in events if e.bank_id in distressed]
    cfg = quick_config()

    def degenerate(seed):
        fold_of = assign_folds(table.bank_ids, k=5, seed=seed).fold_of
        return any(not distressed & {b for b, f in fold_of.items() if f == role}
                   for role in (VALIDATION_FOLD, TEST_FOLD))

    results = [run_once(table, events, cfg, run_seed=s) for s in range(6)]
    assert {r.redraws == 0 for r in results} == {True, False}
    for seed, result in enumerate(results):
        draws = [seed] + [derive_run_seed(seed, r + 2) for r in range(1, result.redraws + 1)]
        assert [degenerate(s) for s in draws] == [True] * result.redraws + [False]
        # the kept draw, unchanged when the first draw was already valid
        assert result.fold_of == assign_folds(table.bank_ids, k=5, seed=draws[-1]).fold_of
        assert 0.0 < result.validation.prior < 1.0 and 0.0 < result.test.prior < 1.0

    # one distressed bank can never reach both folds: the capped redraws end in one error
    lone = [e for e in events if e.bank_id == "b00"]
    with pytest.raises(ValueError, match="%d fold draws" % (MAX_FOLD_REDRAWS + 1)):
        run_once(table, lone, cfg, run_seed=0)
