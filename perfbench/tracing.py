"""In-memory spans around the pipeline's public functions, and the per-layer
metrics derived from them.

The program itself carries no instrumentation. ``Tracer.wrap`` replaces a
module attribute with a timing wrapper until ``unwrap_all``, so every call
that looks the name up in that module is recorded. A name that a module
imported with ``from ... import`` is looked up in the importing module, so it
is wrapped there (``experiment.build_vocabulary`` and the like). Per-step
functions (``pvdm.step_gradients``) are never wrapped; PV-DM step counts come
from ``pvdm.valid_positions`` instead.

Pace probes: the machine the benchmark was built on is shared, and the speed
of the same code drifts by up to 30% over seconds to minutes. With pacing on,
a fixed ~25 ms loop of small numpy and integer operations (like the
pipeline's own hot loops) runs before every CLI command, every protocol run
and around every set-up and repetition. ``duration`` then leaves the probes
out of a span and scales each stretch between two probes by
``PACE_REFERENCE_S`` over the mean time of those two probes: seconds at the
reference machine's pace. Program changes move scaled times as they move raw
ones; the probes only remove the machine's drift.
"""

import json
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# The package's modules, in pipeline order; span names start with one of them.
LAYERS = ("synth", "corpus", "pvdm", "fusion", "neural", "evaluation",
          "experiment", "cli")

PACE_REFERENCE_S = 0.027  # median pace_loop() time on the reference machine


def pace_loop():
    v = np.zeros(50)
    total = 0
    for i in range(10_000):
        v = v * 0.5 + 1.0
        total += i * i % 7
    return total


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Spans (name, start, end, parent), counters and pace probes, in memory."""

    def __init__(self, pacing):
        self.pacing = pacing
        self.spans = []
        self.probes = []  # (start, end) of each pace_loop() call
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def pace(self):
        if self.pacing:
            start = time.perf_counter()
            pace_loop()
            self.probes.append((start, time.perf_counter()))

    def duration(self, index):
        """A span's time without the probes inside it, at the reference pace.

        Each stretch between probes is scaled by the mean of the probes on
        either side of it. Without probes this is the span's plain duration.
        """
        span = self.spans[index]
        before = [e - s for s, e in self.probes if e <= span.start]
        inside = [(s, e) for s, e in self.probes if span.start <= s and e <= span.end]
        after = [e - s for s, e in self.probes if s >= span.end]
        # Stretches between consecutive probe boundaries, with the probe times
        # that bracket each one (None where no probe exists on that side).
        edges = [span.start] + [t for s, e in inside for t in (s, e)] + [span.end]
        paces = ([before[-1] if before else None]
                 + [e - s for s, e in inside]
                 + [after[0] if after else None])
        total = 0.0
        for k in range(len(inside) + 1):
            known = [p for p in paces[k:k + 2] if p is not None]
            factor = PACE_REFERENCE_S / (sum(known) / len(known)) if known else 1.0
            total += (edges[2 * k + 1] - edges[2 * k]) * factor
        return total

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name, before=None, after=None, span=True):
        """Record every call of ``module.attr`` as a span called ``name``.

        ``before(counts, args)`` and ``after(counts, result, args)`` add
        counts at the boundary; a call that raises counts as ``<name>.raised``.
        With ``span=False`` only the call count is kept, for functions called
        too often to time one by one.
        """
        inner = getattr(module, attr)
        counts = self.counts

        if span:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(counts, args)
                index = self.open(name)
                try:
                    result = inner(*args, **kwargs)
                except BaseException:
                    counts[name + ".raised"] += 1
                    raise
                finally:
                    self.close(index)
                if after is not None:
                    after(counts, result, args)
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, inner))

    def unwrap_all(self):
        while self._restore:
            module, attr, inner = self._restore.pop()
            setattr(module, attr, inner)

    def durations(self, name, root):
        """Durations of the spans called ``name`` under the span ``root``."""
        return [self.duration(i) for i, s in enumerate(self.spans)
                if s.name == name and self.root_of(i) == root]

    def root_of(self, index):
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}))
                fh.write("\n")


def install_run_timer(tracer, bd):
    """The one wrapper present in traced and untraced runs alike."""
    tracer.wrap(bd.experiment, "run_once", "experiment.run_once",
                before=lambda _counts, _args: tracer.pace())


def install_layers(tracer, bd):
    """Wrap the public entry points of every layer; ``bd`` is the package."""
    corpus, pvdm, fusion, synth = bd.corpus, bd.pvdm, bd.fusion, bd.synth
    neural, evaluation, experiment = bd.neural, bd.evaluation, bd.experiment

    def file_mb(key, arg):
        def after(counts, _result, args):
            counts[key] += os.path.getsize(args[arg]) / 1e6
        return after

    def count_sentences(counts, result, _args):
        counts["corpus.sentences"] += len(result)

    def count_pvdm_steps(counts, args):
        model, sentences = args[0], args[1]
        n = model.config.window_n
        pairs = sum(len(pvdm.valid_positions(s.tokens, n)) for s in sentences)
        counts["pvdm.steps"] += pairs * model.config.epochs

    def count_table(counts, result, _args):
        table, report = result
        counts["fusion.samples"] += len(table)
        counts["fusion.dropped"] += report.n_dropped

    def count_bank_months(counts, result, _args):
        counts["evaluation.bank_months"] += len(result)

    w = tracer.wrap
    w(synth, "generate", "synth.generate")
    w(synth, "write_dataset", "synth.write")

    w(corpus, "compile_registry", "corpus.read")
    w(corpus, "read_articles", "corpus.read")
    w(corpus, "read_sentences", "corpus.read")
    w(corpus, "write_sentences", "corpus.write")
    w(corpus, "extract_sentences", "corpus.extract", after=count_sentences)
    w(corpus, "build_vocabulary", "corpus.vocab")
    w(experiment, "build_vocabulary", "corpus.vocab")

    w(pvdm, "init_model", "pvdm.init")
    w(pvdm, "train", "pvdm.train", before=count_pvdm_steps)
    w(pvdm, "infer_vector", "pvdm.infer")
    w(pvdm, "save_model", "pvdm.io", after=file_mb("pvdm.io_mb", 1))
    w(pvdm, "export_vectors", "pvdm.io", after=file_mb("pvdm.io_mb", 1))
    w(pvdm, "read_vectors", "pvdm.io", after=file_mb("pvdm.io_mb", 0))

    w(fusion, "build_sample_table", "fusion.build", after=count_table)
    for attr in ("read_indicators", "read_events", "read_sample_table"):
        w(fusion, attr, "fusion.io", after=file_mb("fusion.io_mb", 0))
    w(fusion, "write_sample_table", "fusion.io", after=file_mb("fusion.io_mb", 1))
    for attr in ("assign_folds", "fit_normalization", "apply_normalization", "project_arm"):
        w(experiment, attr, "fusion.prepare")

    w(neural, "init_model", "neural.init")
    w(neural, "train", "neural.train")
    w(neural, "nesterov_step", "neural.step")
    w(neural, "predict", "neural.predict")

    w(evaluation, "aggregate_monthly", "evaluation.aggregate", after=count_bank_months)
    w(evaluation, "pick_threshold", "evaluation.pick_threshold")
    w(evaluation, "usefulness_report", "evaluation.candidates", span=False)

    w(experiment, "run_repeated", "experiment.run_repeated")
    w(experiment, "fold_scoped_vectors", "experiment.fold_scoped")
    w(experiment, "write_runs_csv", "experiment.write")
    w(experiment, "write_summary_json", "experiment.write")


def layer_of(name):
    return name.split(".", 1)[0]


def rep_metrics(tracer, root, counts):
    """Per-layer metrics of the spans under the root span of one repetition.

    ``counts`` holds the counters added during that repetition. Busy times
    are sums of span durations; a layer's self time is its spans' durations
    minus the time their child spans cover.
    """
    spans = tracer.spans
    members = [i for i in range(root + 1, len(spans)) if tracer.root_of(i) == root]
    child_time = Counter()
    hook_children = Counter()  # per neural.train span: its non-step children
    for i in members:
        s = spans[i]
        d = s.end - s.start
        child_time[s.parent] += d
        if spans[s.parent].name == "neural.train" and s.name != "neural.step":
            hook_children[s.parent] += d

    busy, calls, self_time = Counter(), Counter(), Counter()
    hook = 0.0
    for i in members:
        s = spans[i]
        d = s.end - s.start
        busy[s.name] += d
        calls[s.name] += 1
        self_time[layer_of(s.name)] += d - child_time[i]
        if spans[s.parent].name == "neural.train" and layer_of(s.name) == "evaluation":
            hook += d
    train_minus_hook = busy["neural.train"] - sum(hook_children.values())

    def per_s(n, t):
        return n / t if t > 0 else 0.0

    infer_calls = calls["pvdm.infer"]
    m = {
        "corpus.read_s": busy["corpus.read"],
        "corpus.write_s": busy["corpus.write"],
        "corpus.extract_s": busy["corpus.extract"],
        "corpus.vocab_s": busy["corpus.vocab"],
        "corpus.sentences": counts["corpus.sentences"],
        "corpus.sentences_per_s": per_s(counts["corpus.sentences"], busy["corpus.extract"]),
        "pvdm.train_s": busy["pvdm.train"],
        "pvdm.steps": counts["pvdm.steps"],
        "pvdm.steps_per_s": per_s(counts["pvdm.steps"], busy["pvdm.train"]),
        "pvdm.infer_s": busy["pvdm.infer"],
        "pvdm.infer_calls": infer_calls,
        "pvdm.infer_ok_frac": (1.0 - counts["pvdm.infer.raised"] / infer_calls
                               if infer_calls else 1.0),
        "pvdm.io_s": busy["pvdm.io"],
        "pvdm.io_mb": counts["pvdm.io_mb"],
        "fusion.build_s": busy["fusion.build"],
        "fusion.samples": counts["fusion.samples"],
        "fusion.dropped": counts["fusion.dropped"],
        "fusion.io_s": busy["fusion.io"],
        "fusion.io_mb": counts["fusion.io_mb"],
        "neural.train_s": busy["neural.train"],
        "neural.step_s": busy["neural.step"],
        "neural.steps": calls["neural.step"],
        "neural.step_us": 1e6 * per_s(busy["neural.step"], calls["neural.step"]),
        "neural.predict_s": busy["neural.predict"],
        "neural.train_self_s": train_minus_hook,
        "evaluation.hook_s": hook,
        "evaluation.pick_threshold_s": busy["evaluation.pick_threshold"],
        "evaluation.aggregate_s": busy["evaluation.aggregate"],
        "evaluation.candidates": counts["evaluation.candidates"],
        "evaluation.bank_months": counts["evaluation.bank_months"],
        "experiment.run_once_self_s": sum(
            spans[i].end - spans[i].start - child_time[i]
            for i in members if spans[i].name == "experiment.run_once"),
        "experiment.fold_scoped_s": busy["experiment.fold_scoped"],
        "experiment.runs": calls["experiment.run_once"],
        "experiment.runs_failed": counts["experiment.run_once.raised"],
        "cli.ingest_s": busy["cli.ingest"],
        "cli.embed_s": busy["cli.embed"],
        "cli.fuse_s": busy["cli.fuse"],
        "cli.experiment_s": busy["cli.experiment"],
    }
    for layer in LAYERS[1:]:
        m[layer + ".self_s"] = self_time[layer]
    m["perfbench.self_s"] = spans[root].end - spans[root].start - child_time[root]
    return m
