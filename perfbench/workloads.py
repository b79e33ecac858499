"""The benchmark's workloads: seeded inputs, the measured CLI section, and the
checks on what the program wrote.

Every workload uses 62 banks with one article of one sentence per
bank-quarter. At that shape no fold draw leaves the validation or test fold
with a single class (0 of 3,000 draws per span checked), so no protocol run
fails on degenerate folds; every bank has the same number of sentences, so
run times hardly depend on the fold draw. The mean test U_r over a
workload's runs varies across seeds by 0.03-0.05 (quartile distance over
median) on the 19-quarter span, and by up to 0.14 on fold_scoped's 7-quarter
span, whose small test folds make single runs' U_r range widely.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

# 19 quarters x 62 banks = 1,178 sentences.
SYNTH = dict(n_banks=62, start_quarter=(2010, 1), end_quarter=(2014, 3),
             sentences_per_bank_quarter=(1, 1), distress_prior=0.1,
             text_signal=0.8, numeric_signal=1.0, indicator_shift=2.0)
# 7 quarters x 62 banks = 434 sentences: each run retrains PV-DM and infers
# the held-out two fifths of them one by one (window 8 keeps that to ~1.7 s
# per run, so one repetition of 20 runs takes about 35 s).
SYNTH_SHORT = dict(SYNTH, start_quarter=(2013, 1), distress_prior=0.2)
MLP = {"epochs": 20, "lr": 0.01}
FOLD_PVDM = {"vector_dim": 50, "window_n": 8, "epochs": 1, "lr_initial": 0.2}


@dataclass(frozen=True)
class Embed:
    dim: int
    window: int
    epochs: int

    def argv(self):
        return ["--dim", str(self.dim), "--window", str(self.window),
                "--epochs", str(self.epochs)]


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    arm: str                   # experiment --arm
    runs: int                  # experiment --runs, per arm
    config: dict               # experiment --config
    table_embed: Embed = None  # embedding of the fused table built in set-up
    chain_embed: Embed = None  # embedding inside the measured CLI chain
    scope: str = "full"        # experiment --embedding-scope
    rep_s: float = 0.0         # one repetition's time at the reference pace
    setups: int = 5            # set-ups per untraced run; setup_s is their median
    shape: str = field(default="", compare=False)

    def repetitions(self, seconds):
        """Repetitions that fit in ``seconds`` at the reference pace, at least one."""
        return max(1, int(seconds // self.rep_s))

    def arms(self):
        return ("combined", "numeric_only", "text_only") if self.arm == "all" else (self.arm,)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="text_pipeline",
            synth=SYNTH, arm="combined", runs=20, config={"mlp": MLP},
            chain_embed=Embed(600, 5, 1), rep_s=15.0, setups=15,
            shape="ingest->embed(dim 600, window 5, 1 epoch)->fuse->experiment "
                  "combined x20 runs, 1,178 sentences",
        ),
        Workload(
            name="arm_protocol",
            synth=SYNTH, arm="all", runs=10, config={"mlp": MLP},
            table_embed=Embed(50, 2, 1), rep_s=9.0, setups=3,
            shape="experiment --arm all, 3 arms x10 runs x20 MLP epochs on a "
                  "dim-50 table of 1,178 samples",
        ),
        Workload(
            name="fold_scoped",
            synth=SYNTH_SHORT, arm="combined", runs=20,
            config={"mlp": MLP, "pvdm": FOLD_PVDM},
            table_embed=Embed(50, 2, 1), scope="train_folds", rep_s=37.0,
            shape="experiment --embedding-scope train_folds, combined x20 runs, "
                  "dim-50 window-8 PV-DM per run, 434 sentences",
        ),
    )
}


def smoke(workload):
    """A tiny version of a workload, for the benchmark's own smoke test."""
    config = {"mlp": {"epochs": 2, "lr": 0.01}}
    if "pvdm" in workload.config:
        config["pvdm"] = dict(FOLD_PVDM, vector_dim=8)
    tiny = Embed(8, 2, 1)
    return replace(workload, synth=SYNTH_SHORT, runs=2, config=config, setups=1,
                   shape="smoke-test size of " + workload.name,
                   table_embed=workload.table_embed and tiny,
                   chain_embed=workload.chain_embed and tiny)


def derive_seeds(seed):
    """Synth seed, experiment master seed and embedding seed of a workload seed."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(3)]


class StageFailed(Exception):
    """A CLI command returned non-zero; the rest of its section cannot run."""


class Ledger:
    """Operations attempted and failed: CLI commands, protocol runs, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED: %s" % what, file=sys.stderr, flush=True)
        return ok


class Section:
    """Runs one workload's set-up and measured section inside a directory."""

    def __init__(self, bd, workload, seed, ledger, tracer):
        self.bd = bd
        self.w = workload
        self.synth_seed, self.master_seed, self.embed_seed = derive_seeds(seed)
        self.ledger = ledger
        self.tracer = tracer

    def cli(self, command, argv):
        self.tracer.pace()
        index = self.tracer.open("cli." + command)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.bd.cli.main([command] + argv)
        finally:
            self.tracer.close(index)
        if not self.ledger.record("bankdistress %s exited %s" % (command, code), code == 0):
            raise StageFailed(command)

    def setup(self, d):
        """Inputs from the seed; returns the number of synth sentences."""
        synth = self.bd.synth
        dataset = synth.generate(synth.SynthConfig(**self.w.synth, seed=self.synth_seed))
        synth.write_dataset(dataset, os.path.join(d, "data"))
        if self.w.table_embed is not None:
            self.chain(d, d, self.w.table_embed)
        return synth.describe(dataset)["n_sentences"]

    def chain(self, data_dir, out, embed):
        """ingest -> embed -> fuse, writing into ``out``."""
        data = os.path.join(data_dir, "data")
        os.makedirs(out, exist_ok=True)
        sentences = os.path.join(out, "sentences.jsonl")
        vectors = os.path.join(out, "vectors.jsonl")
        self.cli("ingest", ["--articles", os.path.join(data, "articles.jsonl"),
                            "--registry", os.path.join(data, "registry.json"),
                            "--out", sentences])
        self.cli("embed", ["--sentences", sentences, "--out", os.path.join(out, "model.npz"),
                           "--vectors", vectors, "--seed", str(self.embed_seed)]
                 + embed.argv())
        self.cli("fuse", ["--sentences", sentences, "--vectors", vectors,
                          "--indicators", os.path.join(data, "indicators.csv"),
                          "--events", os.path.join(data, "events.csv"),
                          "--out", os.path.join(out, "fused.jsonl")])

    def measured(self, setup_dir, out):
        """The measured section; returns the directory holding its fused table."""
        table_dir = setup_dir
        if self.w.chain_embed is not None:
            self.chain(setup_dir, out, self.w.chain_embed)
            table_dir = out
        config = os.path.join(out, "config.json")
        os.makedirs(out, exist_ok=True)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(self.w.config, fh)
        argv = ["--fused", os.path.join(table_dir, "fused.jsonl"),
                "--events", os.path.join(setup_dir, "data", "events.csv"),
                "--config", config, "--seed", str(self.master_seed),
                "--runs", str(self.w.runs), "--arm", self.w.arm,
                "--out", os.path.join(out, "results")]
        if self.w.scope != "full":
            argv += ["--embedding-scope", self.w.scope,
                     "--sentences", os.path.join(table_dir, "sentences.jsonl")]
        self.cli("experiment", argv)
        return table_dir

    def check_chain(self, out, n_sentences):
        self.ledger.record("ingest wrote one sentence per synth sentence",
                           _count_lines(os.path.join(out, "sentences.jsonl")) == n_sentences)
        self.ledger.record("fuse dropped no sentence",
                           _count_lines(os.path.join(out, "fused.jsonl")) == n_sentences)

    def check_results(self, table_dir, out, n_sentences):
        """Checks the measured section's outputs; returns runs.csv and summary.json."""
        if self.w.chain_embed is not None:
            self.check_chain(out, n_sentences)
        results = os.path.join(out, "results")
        self.check_runs(os.path.join(results, "runs.csv"),
                        os.path.join(table_dir, "sentences.jsonl"))
        return {name: _read_bytes(os.path.join(results, name))
                for name in ("runs.csv", "summary.json")}

    def check_runs(self, runs_csv, sentences_path):
        """Each row's confusion counts cover its test fold's bank-months."""
        bank_months = set()
        with open(sentences_path, "r", encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                bank_months.add((row["bank_id"], row["published_at"][:7]))
        banks = sorted({b for b, _ in bank_months})
        with open(runs_csv, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_arm = {arm: sum(r["arm"] == arm for r in rows) for arm in self.w.arms()}
        self.ledger.record("runs.csv has %d rows per arm" % self.w.runs,
                           len(rows) == len(self.w.arms()) * self.w.runs
                           and all(n == self.w.runs for n in per_arm.values()))
        for r in rows:
            folds = self.bd.fusion.assign_folds(banks, k=5, seed=int(r["seed"]))
            test_fold = self.bd.experiment.TEST_FOLD
            test = sum(folds.fold_of[b] == test_fold for b, _ in bank_months)
            total = sum(int(r[k]) for k in ("tp", "fp", "tn", "fn"))
            self.ledger.record(
                "%s run %s: tp+fp+tn+fn=%d covers %d test bank-months, U_r finite"
                % (r["arm"], r["run"], total, test),
                total == test and math.isfinite(float(r["test_ur"])))


def _count_lines(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree_digest(d):
    """Digest of every file under ``d``, for comparing two set-ups."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(d):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, d).encode())
            h.update(_read_bytes(path))
    return h.hexdigest()
