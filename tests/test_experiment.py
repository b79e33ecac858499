"""Experiment protocol tests: seeds, folds, arm isolation, sweeps, outputs."""

import numpy as np
import pytest

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
    for folds in (1, 4, 6):
        with pytest.raises(ValueError, match="folds must be 5"):
            ExperimentConfig(folds=folds)
    assert ExperimentConfig(folds=5).folds == 5


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
    first = experiment.fold_scoped_vectors(sentences, pvdm_overrides, train_banks,
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
    second = experiment.fold_scoped_vectors(altered, pvdm_overrides, train_banks,
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
    vectors = experiment.fold_scoped_vectors(sentences, overrides, train_banks,
                                             seed=3)

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

    calls.clear()
    sweep(builder, events, quick_config(), "window_n", [2, 3], runs=1)
    assert [c["window_n"] for c in calls] == [2, 3]  # embedding sweep rebuilds

    with pytest.raises(ValueError):
        sweep(builder, events, quick_config(), "hidden_width", [], runs=1)


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
