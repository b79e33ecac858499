"""Repeated-run protocol: grouped folds, per-run normalization, arms, sweeps."""

import json
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import evaluation, neural, pvdm
from .corpus import build_vocabulary
from .fusion import (
    ARMS,
    apply_normalization,
    assign_folds,
    fit_normalization,
    project_arm,
)

TRAIN_FOLDS = (0, 1, 2)
VALIDATION_FOLD = 3
TEST_FOLD = 4
MAX_FOLD_REDRAWS = 100

SWEEPABLE = ("hidden_width", "hidden_layer_count", "lr", "l1", "dropout_p",
             "window_n", "vector_dim")

# MlpConfig fields a config may set; input_dim and seed are set by each run.
MLP_KEYS = tuple(f.name for f in fields(neural.MlpConfig)
                 if f.name not in ("input_dim", "seed"))
PVDM_KEYS = tuple(f.name for f in fields(pvdm.PvdmConfig))


def _check_keys(section, overrides, allowed):
    if not isinstance(overrides, dict):
        raise ValueError("%s must be a JSON object of overrides" % section)
    for key in overrides:
        if key not in allowed:
            raise ValueError("unknown %s key %r (expected one of %s)"
                             % (section, key, ", ".join(allowed)))


@dataclass
class ExperimentConfig:
    arm: str = "combined"
    runs: int = 50
    folds: int = 5
    mu: float = 0.9
    mlp: dict = field(default_factory=dict)      # MlpConfig overrides (MLP_KEYS)
    pvdm: dict = field(default_factory=dict)     # PvdmConfig overrides (PVDM_KEYS)
    embedding_scope: str = "full"                # "full" or "train_folds"
    master_seed: int = 0

    def __post_init__(self):
        if self.arm not in ARMS:
            raise ValueError("unknown arm %r" % self.arm)
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        n_folds = len(TRAIN_FOLDS) + 2
        if self.folds != n_folds:
            raise ValueError("folds must be %d: %d train, 1 validation and 1 test fold"
                             % (n_folds, len(TRAIN_FOLDS)))
        if self.embedding_scope not in ("full", "train_folds"):
            raise ValueError("embedding_scope must be 'full' or 'train_folds'")
        _check_keys("mlp", self.mlp, MLP_KEYS)
        _check_keys("pvdm", self.pvdm, PVDM_KEYS)
        try:
            pvdm.PvdmConfig(**self.pvdm)
        except ValueError as exc:
            raise ValueError("pvdm: %s" % exc) from None


@dataclass
class RunResult:
    run_index: int
    seed: int
    fold_of: dict
    threshold: float
    validation: evaluation.UsefulnessReport
    test: evaluation.UsefulnessReport
    redraws: int = 0                             # degenerate fold draws replaced


@dataclass
class SweepResult:
    parameter: str
    grid: list
    mean_ur: list
    std_ur: list
    runs_per_point: int


def derive_run_seed(master_seed, run_index):
    """Per-run seed independent of the total run count."""
    return int(np.random.SeedSequence((master_seed, run_index)).generate_state(1)[0])


def embed_sentences(sentences, pvdm_config):
    """Train paragraph vectors for ``sentences``: vocabulary, init, then SGD.

    Returns (model, per-epoch mean losses).
    """
    vocab = build_vocabulary(sentences, min_count=pvdm_config.min_count)
    return pvdm.train(pvdm.init_model(vocab, sentences, pvdm_config), sentences)


def fold_scoped_vectors(sentences, pvdm_overrides, train_banks, seed):
    """Paragraph vectors trained on the training banks' sentences only.

    Held-out sentences get vectors inferred against the frozen word matrices,
    so no text outside the training folds shapes the embedding space.
    Sentences too short to infer fall back to zero vectors. ``seed`` is the
    PV-DM seed unless the overrides set one, and the base of the inference
    seeds.
    """
    train_sents = [s for s in sentences if s.bank_id in train_banks]
    if not train_sents:
        raise ValueError("no sentences from training-fold banks")
    cfg = pvdm.PvdmConfig(**dict({"seed": seed}, **pvdm_overrides))
    model, _ = embed_sentences(train_sents, cfg)
    vectors = {}
    held_out = []
    for i, sent in enumerate(sentences):
        row = model.sentence_index.get(sent.sentence_id)
        if row is not None:
            vectors[sent.sentence_id] = model.paragraph[row]
        else:
            held_out.append((i, sent))
    inferred = pvdm.infer_vectors(model, [s.tokens for _, s in held_out],
                                  [seed + i for i, _ in held_out])
    for (_, sent), vec in zip(held_out, inferred):
        vectors[sent.sentence_id] = np.zeros(cfg.vector_dim) if vec is None else vec
    return vectors


def run_once(table, events, config, run_seed, run_index=0, sentences=None):
    """One full protocol run: fold draw, normalization, training, test report.

    A fold draw whose validation or test fold holds month labels of one class
    only leaves the usefulness measure undefined; the run then redraws the
    folds with seeds derived from ``run_seed``, at most MAX_FOLD_REDRAWS
    times, and records the count in ``RunResult.redraws``. A draw that
    already holds both classes is kept as it is.

    With ``embedding_scope == "train_folds"`` the raw ``sentences`` must be
    supplied; the run then retrains its own embedding on training-fold banks
    instead of using the table's precomputed semantic vectors.
    """
    def month_groups(mask):
        rows = np.flatnonzero(mask)
        return evaluation.group_months([table.bank_ids[i] for i in rows],
                                       [table.months[i] for i in rows], events)

    for redraws in range(MAX_FOLD_REDRAWS + 1):
        # Redraw r uses key r + 2 of the run seed: keys 1 and 2 seed the MLP
        # and the per-run embedding.
        seed = run_seed if redraws == 0 else derive_run_seed(run_seed, redraws + 2)
        folds = assign_folds(table.bank_ids, k=config.folds, seed=seed)
        role_of = {}
        for bank, f in folds.fold_of.items():
            if f in TRAIN_FOLDS:
                role_of[bank] = "train"
            elif f == VALIDATION_FOLD:
                role_of[bank] = "validation"
            else:
                role_of[bank] = "test"
        roles = np.array([role_of[b] for b in table.bank_ids])
        train_mask = roles == "train"
        val_mask = roles == "validation"
        test_mask = roles == "test"
        if not (train_mask.any() and val_mask.any() and test_mask.any()):
            raise ValueError("a fold role received no samples")
        val_groups = month_groups(val_mask)
        test_groups = month_groups(test_mask)
        if all(g.labels.min() != g.labels.max() for g in (val_groups, test_groups)):
            break
    else:
        raise ValueError(
            "%d fold draws all left the validation or the test fold with month "
            "labels of one class (too few distressed banks?)" % (MAX_FOLD_REDRAWS + 1))

    semantic = table.semantic
    if config.embedding_scope == "train_folds":
        if sentences is None:
            raise ValueError("embedding_scope 'train_folds' needs the raw sentences")
        train_banks = {b for b, role in role_of.items() if role == "train"}
        vectors = fold_scoped_vectors(
            sentences, config.pvdm, train_banks, derive_run_seed(run_seed, 2))
        semantic = np.vstack([vectors[sid] for sid in table.sentence_ids])

    stats = fit_normalization(table.numeric_raw[train_mask], source_folds=TRAIN_FOLDS)
    numeric_z = apply_normalization(stats, table.numeric_raw)
    fused = np.concatenate([semantic, numeric_z], axis=1)
    inputs = project_arm(fused, config.arm, semantic_dim=semantic.shape[1])

    mlp_overrides = dict(config.mlp)
    mlp_overrides["input_dim"] = inputs.shape[1]
    mlp_overrides["seed"] = derive_run_seed(run_seed, 1)
    model = neural.init_model(neural.MlpConfig(**mlp_overrides))

    x_val = inputs[val_mask]

    def val_usefulness(m):
        scores = evaluation.aggregate_monthly(neural.predict(m, x_val), val_groups)
        tau = evaluation.pick_threshold(scores, config.mu)
        return evaluation.usefulness_report(scores, config.mu, tau).relative_usefulness

    best, _curve = neural.train(
        model, inputs[train_mask], table.labels[train_mask], eval_hook=val_usefulness
    )

    val_scores = evaluation.aggregate_monthly(neural.predict(best, x_val), val_groups)
    tau = evaluation.pick_threshold(val_scores, config.mu)
    val_report = evaluation.usefulness_report(val_scores, config.mu, tau)

    test_scores = evaluation.aggregate_monthly(neural.predict(best, inputs[test_mask]),
                                               test_groups)
    test_report = evaluation.usefulness_report(test_scores, config.mu, tau)

    return RunResult(
        run_index=run_index,
        seed=run_seed,
        fold_of=dict(folds.fold_of),
        threshold=tau,
        validation=val_report,
        test=test_report,
        redraws=redraws,
    )


def run_repeated(table, events, config, sentences=None):
    """config.runs independent repetitions with seeds derived from master_seed."""
    results = [
        run_once(table, events, config, derive_run_seed(config.master_seed, i),
                 run_index=i, sentences=sentences)
        for i in range(config.runs)
    ]
    urs = np.array([r.test.relative_usefulness for r in results])
    return float(urs.mean()), float(urs.std()), results


def _apply_sweep_value(config, parameter, value):
    mlp = dict(config.mlp)
    pvdm = dict(config.pvdm)
    if parameter == "hidden_width":
        depth = len(mlp.get("hidden_layers", (50,)))
        mlp["hidden_layers"] = (int(value),) * depth
    elif parameter == "hidden_layer_count":
        width = mlp.get("hidden_layers", (50,))[0]
        mlp["hidden_layers"] = (width,) * int(value)
    elif parameter == "lr":
        mlp["lr"] = float(value)
    elif parameter == "l1":
        mlp["l1"] = float(value)
    elif parameter == "dropout_p":
        mlp["dropout_p"] = float(value)
    elif parameter == "window_n":
        pvdm["window_n"] = int(value)
    elif parameter == "vector_dim":
        pvdm["vector_dim"] = int(value)
    else:
        raise ValueError("unknown sweep parameter %r (expected one of %s)"
                         % (parameter, ", ".join(SWEEPABLE)))
    return replace(config, mlp=mlp, pvdm=pvdm)


def sweep(table_builder, events, base_config, parameter, grid, runs=10, sentences=None):
    """Mean/std relative usefulness across a one-parameter grid.

    ``table_builder(pvdm_overrides) -> SampleTable`` rebuilds the dataset;
    it is only re-invoked for embedding-side parameters.
    """
    if not len(grid):
        raise ValueError("sweep grid must be non-empty")
    base_config = replace(base_config, runs=runs)
    cached_table = None
    means, stds = [], []
    for value in grid:
        cfg = _apply_sweep_value(base_config, parameter, value)
        if parameter in ("window_n", "vector_dim"):
            table = table_builder(cfg.pvdm)
        else:
            if cached_table is None:
                cached_table = table_builder(cfg.pvdm)
            table = cached_table
        mean, std, _ = run_repeated(table, events, cfg, sentences=sentences)
        means.append(mean)
        stds.append(std)
    return SweepResult(
        parameter=parameter,
        grid=list(grid),
        mean_ur=means,
        std_ur=stds,
        runs_per_point=runs,
    )


# ---------------------------------------------------------------------------
# Result files


def write_runs_csv(results_by_arm, path):
    """One row per run; ``results_by_arm`` maps arm name -> list of RunResult."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("arm,run,seed,threshold,val_ur,test_ur,test_prior,"
                 "tp,fp,tn,fn\n")
        for arm in sorted(results_by_arm):
            for r in results_by_arm[arm]:
                c = r.test.confusion
                fh.write(
                    "%s,%d,%d,%r,%r,%r,%r,%d,%d,%d,%d\n"
                    % (arm, r.run_index, r.seed, r.threshold,
                       r.validation.relative_usefulness, r.test.relative_usefulness,
                       r.test.prior, c.tp, c.fp, c.tn, c.fn)
                )


def write_summary_json(results_by_arm, config, path):
    summary = {"config": asdict(config), "arms": {}}
    for arm, results in results_by_arm.items():
        urs = np.array([r.test.relative_usefulness for r in results])
        summary["arms"][arm] = {
            "runs": len(results),
            "seeds": [r.seed for r in results],
            "mean_test_ur": float(urs.mean()),
            "std_test_ur": float(urs.std()),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("parameter,value,mean_ur,std_ur,runs\n")
        for value, mean, std in zip(result.grid, result.mean_ur, result.std_ur):
            fh.write("%s,%s,%r,%r,%d\n"
                     % (result.parameter, value, mean, std, result.runs_per_point))
