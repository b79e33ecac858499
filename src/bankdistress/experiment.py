"""Repeated-run protocol: grouped folds, per-run normalization, arms, sweeps."""

import numbers
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import evaluation, neural, pvdm
from .corpus import build_vocabulary, parse_json, replacing, require_int, write_json
from .fusion import (ARMS, TEXT_ARMS, apply_normalization, arm_blocks, assign_folds,
                     fit_normalization, project_arm, semantic_rows)

TRAIN_FOLDS = (0, 1, 2)
VALIDATION_FOLD = 3
TEST_FOLD = 4
MAX_FOLD_REDRAWS = 100

# At full scope, sweeps of these parameters re-embed the corpus into a new table.
EMBEDDING_SWEEPS = ("window_n", "vector_dim")
SWEEPABLE = ("hidden_width", "hidden_layer_count", "lr", "l1", "dropout_p") + EMBEDDING_SWEEPS
SWEEP_RUNS = 10  # runs per grid value

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
    mu: float = 0.9
    mlp: dict = field(default_factory=dict)      # MlpConfig overrides (MLP_KEYS)
    pvdm: dict = field(default_factory=dict)     # PvdmConfig overrides (PVDM_KEYS)
    embedding_scope: str = "full"                # "full" or "train_folds"
    master_seed: int = 0

    def __post_init__(self):
        for name, minimum in (("runs", 1), ("master_seed", 0)):
            require_int(name, getattr(self, name), minimum)
        if self.arm not in ARMS:
            raise ValueError("unknown arm %r" % self.arm)
        if not (isinstance(self.mu, numbers.Real) and 0.0 < self.mu < 1.0):
            raise ValueError("mu must lie strictly in (0, 1), got %r" % (self.mu,))
        if self.embedding_scope not in ("full", "train_folds"):
            raise ValueError("embedding_scope must be 'full' or 'train_folds'")
        _check_keys("mlp", self.mlp, MLP_KEYS)
        _check_keys("pvdm", self.pvdm, PVDM_KEYS)
        # each run sets input_dim; any valid width checks the other fields
        for section, make, overrides in (("mlp", neural.MlpConfig, dict(self.mlp, input_dim=1)),
                                         ("pvdm", pvdm.PvdmConfig, self.pvdm)):
            try:
                make(**overrides)
            except ValueError as exc:
                raise ValueError("%s: %s" % (section, exc)) from None


def vector_source(arm, embedding_scope, parameter=None):
    """Where a run of ``arm`` at ``embedding_scope`` (sweeping ``parameter``,
    if given) takes its sentence vectors: None for an arm that reads none,
    "train_folds" (PV-DM retrained on the run's training folds), "reembedded"
    (the corpus embedded anew at each grid value) or "fused" (the table's)."""
    if arm not in TEXT_ARMS:
        return None
    if embedding_scope == "train_folds":
        return "train_folds"
    return "reembedded" if parameter in EMBEDDING_SWEEPS else "fused"


def read_config(path):
    """The settings of a JSON experiment config file, checked as ExperimentConfig
    checks them; a dropout_p beside an empty hidden_layers, which ExperimentConfig
    takes since a hidden_layer_count sweep's 0 builds it, is refused too.
    Every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            settings = parse_json(fh.read())
        _check_keys("config", settings, [f.name for f in fields(ExperimentConfig)])
        mlp = ExperimentConfig(**settings).mlp
        if "dropout_p" in mlp and not mlp.get("hidden_layers", neural.MlpConfig.hidden_layers):
            raise ValueError("mlp: dropout_p has no effect: hidden_layers is empty, so the "
                             "network has no hidden layer")
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    return settings


@dataclass
class RunResult:
    run_index: int
    seed: int
    fold_of: dict
    threshold: float
    validation: evaluation.UsefulnessReport
    test: evaluation.UsefulnessReport
    redraws: int = 0                             # degenerate fold draws replaced
    zero_vectors: int = 0                        # held-out sentences too short to infer


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
    Returns (model, per-epoch mean losses)."""
    vocab = build_vocabulary(sentences, min_count=pvdm_config.min_count)
    return pvdm.train(pvdm.init_model(vocab, sentences, pvdm_config), sentences)


def _embedded(sentences, pvdm_config):
    """``embed_sentences``' model and its sentence_id -> vector map."""
    model, _ = embed_sentences(sentences, pvdm_config)
    return model, {sid: model.paragraph[row] for sid, row in model.sentence_index.items()}


def fold_scoped_vectors(sentences, pvdm_overrides, train_banks, seed):
    """Paragraph vectors trained on the training banks' sentences only.

    Held-out sentences get vectors inferred against the frozen word matrices,
    so no text outside the training folds shapes the embedding space.
    Sentences too short to infer fall back to zero vectors. ``seed`` is the
    PV-DM seed unless the overrides set one, and the base of the inference
    seeds. Returns (sentence_id -> vector, number of zero-vector fallbacks).
    """
    train_sents = [s for s in sentences if s.bank_id in train_banks]
    if not train_sents:
        raise ValueError("no sentences from training-fold banks")
    cfg = pvdm.PvdmConfig(**dict({"seed": seed}, **pvdm_overrides))
    model, vectors = _embedded(train_sents, cfg)
    held_out = [(i, s) for i, s in enumerate(sentences) if s.sentence_id not in vectors]
    inferred = pvdm.infer_vectors(model, [s.tokens for _, s in held_out],
                                  [seed + i for i, _ in held_out])
    for (_, sent), vec in zip(held_out, inferred):
        vectors[sent.sentence_id] = np.zeros(cfg.vector_dim) if vec is None else vec
    return vectors, sum(vec is None for vec in inferred)


def _draw_folds(table, events, run_seed):
    """What a run takes from its seed alone: the kept fold draw, its redraw
    count, role rows, validation and test month groups and normalization.

    A fold draw whose validation or test fold holds month labels of one class
    only leaves the usefulness measure undefined; the run then redraws the
    folds with seeds derived from ``run_seed``, at most MAX_FOLD_REDRAWS
    times. A draw that already holds both classes is kept as it is.
    """
    def month_groups(rows):
        return evaluation.group_months([table.bank_ids[i] for i in rows],
                                       [table.months[i] for i in rows], events)

    for redraws in range(MAX_FOLD_REDRAWS + 1):
        # Redraw r uses key r + 2 of the run seed: keys 1 and 2 seed the MLP
        # and the per-run embedding.
        seed = run_seed if redraws == 0 else derive_run_seed(run_seed, redraws + 2)
        folds = assign_folds(table.bank_ids, k=len(TRAIN_FOLDS) + 2, seed=seed)
        fold = np.array([folds.fold_of[b] for b in table.bank_ids])
        rows = (np.flatnonzero(np.isin(fold, TRAIN_FOLDS)),
                np.flatnonzero(fold == VALIDATION_FOLD), np.flatnonzero(fold == TEST_FOLD))
        if not all(len(r) for r in rows):
            raise ValueError("a fold role received no samples")
        groups = (month_groups(rows[1]), month_groups(rows[2]))
        if all(g.labels.min() != g.labels.max() for g in groups):
            break
    else:
        raise ValueError(
            "%d fold draws all left the validation or the test fold with month "
            "labels of one class (too few distressed banks?)" % (MAX_FOLD_REDRAWS + 1))
    stats = fit_normalization(table.numeric_raw[rows[0]], source_folds=TRAIN_FOLDS)
    return folds, redraws, rows, groups, stats


def run_once(table, events, config, run_seed, run_index=0, sentences=None, shared=None):
    """One full protocol run: fold draw (``_draw_folds``), normalization,
    training, test report.

    A run whose ``vector_source`` is "train_folds" needs the raw
    ``sentences``: it retrains its own embedding on training-fold banks
    instead of using the table's semantic vectors. Runs given the same
    ``shared`` dict build each fold draw (key: run seed) and each such
    embedding (key: run seed and pvdm overrides) once; a run given none
    builds all of it itself.
    """
    shared = {} if shared is None else shared
    if run_seed not in shared:
        shared[run_seed] = _draw_folds(table, events, run_seed)
    folds, redraws, (train_rows, val_rows, test_rows), (val_groups, test_groups), stats = \
        shared[run_seed]

    semantic = table.semantic
    zero_vectors = 0
    if vector_source(config.arm, config.embedding_scope) == "train_folds":
        if sentences is None:
            raise ValueError("embedding_scope 'train_folds' needs the raw sentences")
        key = (run_seed, tuple(sorted(config.pvdm.items())))
        if key not in shared:
            train_banks = {b for b, f in folds.fold_of.items() if f in TRAIN_FOLDS}
            vectors, zeros = fold_scoped_vectors(sentences, config.pvdm, train_banks,
                                                 derive_run_seed(run_seed, 2))
            shared[key] = semantic_rows(table.sentence_ids, vectors, "sentences"), zeros
        semantic, zero_vectors = shared[key]

    def numeric(rows):
        # z-scoring is elementwise, so each role's rows take the same values
        # as rows of a z-scored whole table would
        return apply_normalization(stats, table.numeric_raw[rows])

    def arm_inputs(rows):
        return project_arm(semantic, numeric(rows), rows, config.arm)

    # Training reads its rows from the table minibatch by minibatch; the
    # validation inputs are freed before the test inputs are built.
    x_val = arm_inputs(val_rows)
    model = neural.init_model(neural.MlpConfig(**dict(
        config.mlp, input_dim=x_val.shape[1], seed=derive_run_seed(run_seed, 1))))

    def val_report(m):
        # the validation report at the threshold picked on its own scores
        return evaluation.pick_threshold(
            evaluation.aggregate_monthly(neural.predict(m, x_val), val_groups), config.mu)

    best, _curve = neural.train(
        model, arm_blocks(semantic, numeric(train_rows), train_rows, config.arm),
        table.labels[train_rows], eval_hook=lambda m: val_report(m).relative_usefulness)
    validation = val_report(best)
    tau = validation.threshold
    del x_val

    test_scores = evaluation.aggregate_monthly(neural.predict(best, arm_inputs(test_rows)),
                                               test_groups)
    test_report = evaluation.usefulness_report(test_scores, config.mu, tau)

    return RunResult(run_index=run_index, seed=run_seed, fold_of=dict(folds.fold_of),
                     threshold=tau, validation=validation, test=test_report,
                     redraws=redraws, zero_vectors=zero_vectors)


def protocol_runs(table, events, configs, sentences=None):
    """Yield (key, run index, RunResult) of each ``run_once`` of ``configs``
    (key -> ExperimentConfig) as it ends, run index outer, configs inner.
    The configs of a run index share one ``shared`` dict, so its ``_draw_folds``
    and the train_folds vectors of each distinct pvdm override set are built once."""
    for i in range(max(c.runs for c in configs.values())):
        shared = {}
        for key, config in configs.items():
            if i < config.runs:
                yield key, i, run_once(table, events, config,
                                       derive_run_seed(config.master_seed, i),
                                       run_index=i, sentences=sentences, shared=shared)


def ur_stats(results):
    """Mean and standard deviation of the runs' test relative usefulness."""
    urs = np.array([r.test.relative_usefulness for r in results])
    return float(urs.mean()), float(urs.std())


def run_repeated(table, events, config):
    """config.runs independent repetitions with seeds derived from master_seed,
    on ``table``'s sentence vectors (``protocol_runs`` takes the raw sentences
    that a ``train_folds`` run embeds)."""
    results = [r for _, _, r in protocol_runs(table, events, {config.arm: config})]
    return (*ur_stats(results), results)


def _whole(parameter, value):
    """``value`` as an int, if it has no fractional part."""
    if not float(value).is_integer():
        raise ValueError("%s must be a whole number, got %r" % (parameter, value))
    return int(value)


def _apply_sweep_value(config, parameter, value):
    mlp = dict(config.mlp)
    pvdm = dict(config.pvdm)
    if parameter in mlp or parameter in pvdm:
        raise ValueError("the config sets %s, which the sweep sets at each grid value"
                         % parameter)
    hidden = mlp.get("hidden_layers", neural.MlpConfig.hidden_layers)
    if parameter == "hidden_width":
        mlp["hidden_layers"] = (_whole(parameter, value),) * len(hidden)
    elif parameter == "hidden_layer_count":
        mlp["hidden_layers"] = (hidden[0],) * _whole(parameter, value)
    elif parameter in ("lr", "l1", "dropout_p"):
        mlp[parameter] = float(value)
    elif parameter in EMBEDDING_SWEEPS:
        pvdm[parameter] = _whole(parameter, value)
    else:
        raise ValueError("unknown sweep parameter %r (expected one of %s)"
                         % (parameter, ", ".join(SWEEPABLE)))
    return replace(config, mlp=mlp, pvdm=pvdm)


def sweep_configs(base_config, parameter, grid):
    """The config of each grid point: ``base_config`` with ``parameter`` set
    to the grid value. Raises ValueError for an empty grid, an unknown
    parameter, a config that sets the parameter itself, a fractional value
    of an integer parameter, or a parameter no run reads: a PV-DM setting
    where the arm reads no sentence vector, or a hidden-layer setting where
    the network has no hidden layer."""
    if not len(grid):
        raise ValueError("sweep grid must be non-empty")
    if parameter in EMBEDDING_SWEEPS and base_config.arm not in TEXT_ARMS:
        raise ValueError("no run reads %s: arm %s reads no sentence vector"
                         % (parameter, base_config.arm))
    if (parameter in ("hidden_width", "hidden_layer_count", "dropout_p")
            and not base_config.mlp.get("hidden_layers", neural.MlpConfig.hidden_layers)):
        raise ValueError("no run reads %s: the config's hidden_layers is empty, so the "
                         "network has no hidden layer" % parameter)
    return [_apply_sweep_value(base_config, parameter, value) for value in grid]


def sweep(table_builder, events, base_config, parameter, grid, runs=SWEEP_RUNS, sentences=None):
    """Mean/std relative usefulness across a one-parameter grid.

    ``table_builder(pvdm_overrides) -> SampleTable`` builds the dataset once.
    A sweep whose ``vector_source`` is "reembedded" embeds ``sentences`` into
    its semantic column anew at each grid point, grid point outer, so one
    re-embedded table is alive at a time; any other runs one protocol_runs
    loop over every grid point. Every grid point's config is checked first.
    """
    configs = sweep_configs(replace(base_config, runs=runs), parameter, grid)
    reembeds = vector_source(base_config.arm, base_config.embedding_scope,
                             parameter) == "reembedded"
    if reembeds and sentences is None:
        raise ValueError("a full-scope %s sweep needs the raw sentences" % parameter)
    table = table_builder(configs[0].pvdm)
    if reembeds:
        def table_at(cfg):
            _, vectors = _embedded(sentences, pvdm.PvdmConfig(**cfg.pvdm))
            return replace(table, semantic=semantic_rows(table.sentence_ids, vectors, "sentences"))
        stats = [run_repeated(table_at(cfg), events, cfg)[:2] for cfg in configs]
    else:
        by_point = [[] for _ in configs]
        for k, _, result in protocol_runs(table, events, dict(enumerate(configs)), sentences):
            by_point[k].append(result)
        stats = [ur_stats(results) for results in by_point]
    return SweepResult(parameter=parameter, grid=list(grid), mean_ur=[m for m, _ in stats],
                       std_ur=[s for _, s in stats], runs_per_point=runs)


# ---------------------------------------------------------------------------
# Result files


def write_runs_csv(results_by_arm, path):
    """One row per run; ``results_by_arm`` maps arm name -> list of RunResult."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write("arm,run,seed,threshold,val_ur,test_ur,test_prior,"
                 "tp,fp,tn,fn\n")
        for arm in sorted(results_by_arm):
            for r in results_by_arm[arm]:
                c = r.test.confusion
                fh.write("%s,%d,%d,%r,%r,%r,%r,%d,%d,%d,%d\n"
                         % (arm, r.run_index, r.seed, r.threshold, r.validation.relative_usefulness,
                            r.test.relative_usefulness, r.test.prior, c.tp, c.fp, c.tn, c.fn))


def write_summary_json(results_by_arm, config, path):
    """The config and each arm's statistics; ``arms`` names the arms run, so
    the config's own arm is left out."""
    settings = asdict(config)
    del settings["arm"]
    summary = {"config": settings, "arms": {}}
    for arm, results in results_by_arm.items():
        mean, std = ur_stats(results)
        summary["arms"][arm] = {"runs": len(results), "seeds": [r.seed for r in results],
                                "mean_test_ur": mean, "std_test_ur": std}
    write_json(summary, path)


def write_sweep_csv(result, path):
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write("parameter,value,mean_ur,std_ur,runs\n")
        for value, mean, std in zip(result.grid, result.mean_ur, result.std_ur):
            fh.write("%s,%s,%r,%r,%d\n"
                     % (result.parameter, value, mean, std, result.runs_per_point))
