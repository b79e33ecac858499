"""Benchmark of the bankdistress pipeline through its command-line entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload seed derives every input. Set-up generates the inputs
(several times untraced, median reported); the measured section then repeats
as often as it fits in ``--seconds`` at the reference pace (a fixed count per
workload, at least one), and each repetition's result files must be
byte-identical to the first one's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` one untraced and one traced repetition run; the last line then
carries the per-layer metrics of the traced one, the tracing overhead, and
the spans go to ``.perfbench_runs/trace-<workload>-<seed>.jsonl``.
Exit status is 0 when every operation succeeded and every check held.
"""

import os

# Pin BLAS threads before numpy loads: results must not depend on them and
# one thread is as fast as two on the pipeline's small matrices.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10  # run_tail_s: the run time with this many runs beyond it


def commit_id():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit_id(),
    }


def run_tail(times):
    """(value, note): the highest percentile with TAIL_BEYOND runs beyond it.

    With no more than TAIL_BEYOND runs there is none; the slowest is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], "slowest of %d runs" % n
    k = n - 1 - TAIL_BEYOND
    return ordered[k], "p%d of %d runs, %d beyond it" % (100 * k // (n - 1), n, TAIL_BEYOND)


class Bench:
    def __init__(self, bd, workload, seed, work, pacing):
        self.bd = bd
        self.work = work
        self.tracer = tracing.Tracer(pacing)
        self.ledger = workloads.Ledger()
        self.section = workloads.Section(bd, workload, seed, self.ledger, self.tracer)

    def interval(self, name, fn):
        """Run ``fn`` under a root span; returns (root, result or None if a stage failed)."""
        self.tracer.pace()
        root = self.tracer.open(name)
        result = None
        try:
            result = fn()
        except workloads.StageFailed:
            pass
        finally:
            self.tracer.close(root)
            self.tracer.pace()
        return root, result

    def set_tracing(self, on):
        self.tracer.unwrap_all()
        tracing.install_run_timer(self.tracer, self.bd)
        if on:
            tracing.install_layers(self.tracer, self.bd)

    def setups(self, count):
        """Set up ``count`` times.

        Returns (directory, synth sentences, roots); the sentence count is
        None when a set-up command failed.
        """
        roots, digests = [], []
        for k in range(count):
            d = os.path.join(self.work, "setup%d" % k)
            root, n_sentences = self.interval("setup", lambda: self.section.setup(d))
            roots.append(root)
            if n_sentences is None:
                return None, None, roots
            if self.section.w.table_embed is not None:
                self.section.check_chain(d, n_sentences)
            digests.append(workloads.tree_digest(d))
            if k:
                shutil.rmtree(d)
        if count > 1:
            self.ledger.record("%d set-ups wrote identical files" % count,
                               len(set(digests)) == 1)
        return os.path.join(self.work, "setup0"), n_sentences, roots

    def measure(self, setup_dir, n_sentences, traced_flags):
        """Run the measured section once per entry of ``traced_flags``.

        Returns [(traced, root, counts)] and the first repetition's result
        files.
        """
        reps, first = [], None
        for traced in traced_flags:
            out = os.path.join(self.work, "rep%d" % len(reps))
            before = Counter(self.tracer.counts)
            self.set_tracing(traced)
            try:
                root, table_dir = self.interval(
                    "rep", lambda: self.section.measured(setup_dir, out))
            finally:
                self.set_tracing(False)
            counts = self.tracer.counts - before
            runs = len(self.tracer.durations("experiment.run_once", root))
            failed = counts["experiment.run_once.raised"]
            for i in range(runs):
                self.ledger.record("protocol run %d of repetition %d" % (i, len(reps)),
                                   i < runs - failed)
            if table_dir is None:
                return reps, first
            files = self.section.check_results(table_dir, out, n_sentences)
            shutil.rmtree(out)
            if first is None:
                first = files
            else:
                self.ledger.record(
                    "repetition %d (%s) wrote runs.csv and summary.json "
                    "byte-identical to repetition 0"
                    % (len(reps), "traced" if traced else "untraced"),
                    files == first)
            reps.append((traced, root, counts))
        return reps, first


def end_to_end(bench, reps, first, setup_roots):
    runs = [d for _, root, _ in reps for d in bench.tracer.durations("experiment.run_once", root)]
    tail, tail_note = run_tail(runs)
    combined = json.loads(first["summary.json"])["arms"]["combined"]
    return {
        "setup_s": (statistics.median(bench.tracer.duration(r) for r in setup_roots), "s",
                    "median of %d set-ups" % len(setup_roots)),
        "wall_s": (statistics.median(bench.tracer.duration(root) for _, root, _ in reps), "s",
                   "median of %d repetitions" % len(reps)),
        "run_p50_s": (statistics.median(runs), "s", "median of %d runs" % len(runs)),
        "run_tail_s": (tail, "s", tail_note),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "whole process"),
        "test_ur_combined": (combined["mean_test_ur"], "1",
                             "mean of %d runs" % combined["runs"]),
    }


def per_layer(bench, reps, setup_root):
    """Metrics of the one traced repetition, and its overhead over the untraced one."""
    (_, plain, _), (_, root, counts) = reps
    metrics = tracing.rep_metrics(bench.tracer, root, counts)
    metrics["trace.wall_s"] = bench.tracer.duration(root)
    metrics["trace.overhead_s"] = bench.tracer.duration(root) - bench.tracer.duration(plain)
    for name in ("synth.generate", "synth.write"):
        metrics[name + "_s"] = sum(bench.tracer.durations(name, setup_root))
    note = "one traced repetition"
    return {name: (value, unit_of(name), note) for name, value in metrics.items()}


def unit_of(name):
    """Per-layer metric units follow from the name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_us", "us"), ("_mb", "MB"),
                         ("_frac", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description="bankdistress pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import numpy as np
        import bankdistress
        import bankdistress.cli  # noqa: F401  (the package does not import its CLI)
    except ImportError as exc:
        print("error: cannot import the bankdistress package from %s: %s" % (src, exc),
              file=sys.stderr)
        return 2
    if not os.path.abspath(bankdistress.__file__).startswith(src + os.sep):
        print("error: bankdistress was imported from %s, not from %s"
              % (bankdistress.__file__, src), file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    work = os.path.join(runs_dir, "%s-%d-%d" % (workload.name, args.seed, os.getpid()))
    os.makedirs(work)
    # Pace probes would add to the self time of the spans around them, so
    # traced runs go without; their per-layer times are plain seconds.
    bench = Bench(bankdistress, workload, args.seed, work, pacing=not args.trace)
    # The repetition count depends on --seconds only, never on the measured
    # speed, so every commit times the same number of runs.
    traced_flags = ((False, True) if args.trace
                    else (False,) * workload.repetitions(args.seconds))
    reps, first = [], None
    try:
        bench.set_tracing(bool(args.trace))
        setup_dir, n_sentences, setup_roots = bench.setups(
            1 if args.trace else workload.setups)
        if setup_dir is not None:
            reps, first = bench.measure(setup_dir, n_sentences, traced_flags)
    finally:
        bench.tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)

    ledger = bench.ledger
    metrics = {}
    complete = len(reps) == len(traced_flags)
    if complete:
        if args.trace:
            metrics = per_layer(bench, reps, setup_roots[0])
            spans_path = os.path.join(runs_dir, "trace-%s-%d.jsonl" % (workload.name, args.seed))
            bench.tracer.write_jsonl(spans_path)
            print("spans: %s (%d)" % (os.path.relpath(spans_path, ROOT), len(bench.tracer.spans)))
        else:
            metrics = end_to_end(bench, reps, first, setup_roots)
    else:
        ledger.record("the workload completed", False)

    print("workload %s seed %d trace %d: %s"
          % (workload.name, args.seed, args.trace, workload.shape))
    print("env %s" % json.dumps(environment(np), sort_keys=True))
    probes = [e - s for s, e in bench.tracer.probes]
    if probes:
        print("pace: %d probes, median %.4f s, range %.4f-%.4f s; times are scaled to the "
              "reference pace %.4f s" % (len(probes), statistics.median(probes), min(probes),
                                          max(probes), tracing.PACE_REFERENCE_S))
    for name, (value, unit, note) in sorted(metrics.items()):
        print("  %-30s %14.6g %-6s %s" % (name, value, unit, note))
    print("  %-30s %14.6g %-6s %d failed of %d operations"
          % ("failed_frac", ledger.failed / max(1, ledger.attempted), "1",
             ledger.failed, ledger.attempted))
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
