"""Byte identity of the pipeline's outputs between this checkout and another commit.

    python3 tools/identity.py --against REV

Checks REV out with ``git worktree add`` into a temporary directory and runs
one fixed matrix on each tree, each tree in its own Python process with
``PYTHONPATH=<tree>/src`` and one BLAS thread. At seeds 1-3 the matrix holds

- each benchmark workload's ``Section.setup`` and ``measured``, imported from
  this checkout's ``perfbench/workloads.py``;
- the README chain at 12 banks: synth, ingest, embed, fuse, experiment --arm all,
  report, train and sweep --parameter lr;
- the chain's synth, ingest, embed and fuse, then train, experiment --arm all,
  sweep --parameter lr and sweep --parameter window_n under --embedding-scope
  train_folds and a full-scope sweep --parameter window_n, each retraining
  PV-DM at dimension 16;

each case once as it runs and once with every ``*.twin.npz`` deleted as soon
as the command that wrote it returns. The sha256 of every file a case writes,
of each header column of every ``.csv`` it writes and of each command's
stdout are compared between the trees. Each file or stdout that differs is
named, a CSV with the columns that differ, and the exit status is then 1.
"""

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
WORKLOADS = ("text_pipeline", "arm_protocol", "fold_scoped")
# (what, seed, whether twins are kept)
MATRIX = [(what, seed, twins) for what in WORKLOADS + ("chain", "scoped") for seed in SEEDS
          for twins in (True, False)]
# the digest of a CSV column is named "<file> column <header name>"
COLUMN = " column "
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def chain_argvs(seed):
    """The README chain's commands at 12 banks, seeded by ``seed``."""
    fused = ["--fused", "fused.jsonl", "--events", "data/events.csv", "--seed", str(seed)]
    return [
        ["synth", "--out", "data", "--seed", str(seed), "--banks", "12", "--min-sentences", "2",
         "--max-sentences", "6"],
        ["ingest", "--articles", "data/articles.jsonl", "--registry", "data/registry.json",
         "--out", "sentences.jsonl"],
        ["embed", "--sentences", "sentences.jsonl", "--dim", "16", "--seed", str(seed),
         "--out", "model.npz", "--vectors", "vectors.jsonl"],
        ["fuse", "--sentences", "sentences.jsonl", "--vectors", "vectors.jsonl",
         "--indicators", "data/indicators.csv", "--events", "data/events.csv",
         "--out", "fused.jsonl"],
        ["experiment", *fused, "--runs", "2", "--arm", "all", "--out", "results"],
        ["report", "--results", "results"],
        ["train", *fused, "--arm", "combined", "--out", "train.json"],
        ["sweep", *fused, "--parameter", "lr", "--grid", "0.005,0.01", "--runs", "2",
         "--out", "sweep"],
    ]


# the PV-DM settings of the scoped case's runs, in its --config file
SCOPED_CONFIG = {"pvdm": {"vector_dim": 16, "epochs": 2}}


def scoped_argvs(seed):
    """The chain's first four commands, then the commands that embed per run
    or per grid value, seeded by ``seed``."""
    full = ["--fused", "fused.jsonl", "--events", "data/events.csv", "--seed", str(seed),
            "--sentences", "sentences.jsonl", "--config", "scoped.json"]
    scoped = full + ["--embedding-scope", "train_folds"]
    return chain_argvs(seed)[:4] + [
        ["train", *scoped, "--arm", "combined", "--out", "train.json"],
        ["experiment", *scoped, "--arm", "all", "--runs", "2", "--out", "results"],
        ["sweep", *scoped, "--parameter", "lr", "--grid", "0.005,0.01", "--runs", "2",
         "--out", "sweep"],
        ["sweep", *scoped, "--parameter", "window_n", "--grid", "3,5", "--runs", "2",
         "--out", "scoped_sweep"],
        ["sweep", *full, "--parameter", "window_n", "--grid", "3,5", "--runs", "2",
         "--out", "sweep"],
    ]


class Commands:
    """``cli.main`` that keeps the sha256 of each command's stdout and, unless
    ``twins``, deletes every twin under the working directory when a command
    returns. A command that exits non-zero raises RuntimeError."""

    def __init__(self, cli, twins):
        self.cli = cli
        self.twins = twins
        self.stdouts = []

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError("%s exited %d" % (" ".join(argv), code))
        self.stdouts.append((argv[0], hashlib.sha256(out.getvalue().encode()).hexdigest()))
        if not self.twins:
            for path in glob.glob(os.path.join("**", "*.twin.npz"), recursive=True):
                os.remove(path)
        return code


class NoTracer:
    """The tracer a workload's Section calls, timing nothing."""

    def pace(self):
        pass

    def open(self, name):
        return 0

    def close(self, index):
        pass


def run_case(bd, workloads, what, seed, twins):
    """Run one case of the matrix in the working directory."""
    commands = Commands(bd.cli, twins)
    if what == "chain":
        for argv in chain_argvs(seed):
            commands.main(argv)
    elif what == "scoped":
        with open("scoped.json", "w", encoding="utf-8") as fh:
            json.dump(SCOPED_CONFIG, fh)
        for argv in scoped_argvs(seed):
            commands.main(argv)
    else:
        package = types.SimpleNamespace(**{**vars(bd), "cli": commands})
        ledger = workloads.Ledger()
        section = workloads.Section(package, workloads.WORKLOADS[what], seed, ledger, NoTracer())
        section.setup("setup")
        section.measured("setup", "out")
        if ledger.failed:
            raise RuntimeError("%d operations failed" % ledger.failed)
    return commands.stdouts


def column_digests(path):
    """header name -> sha256 of that column's values, row by row, of the CSV
    file ``path``; a short row's missing value counts apart from an empty one."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    return {name: hashlib.sha256(json.dumps([row[i:i + 1] for row in rows]).encode()).hexdigest()
            for i, name in enumerate(header)}


def tree_digests(work, cases):
    """name -> sha256 of each file the ``cases`` write under ``work``, of each
    header column of a CSV among them and of each command's stdout, in this
    process's ``bankdistress``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    import bankdistress
    import bankdistress.cli  # noqa: F401  (the package does not import its CLI)

    src = os.environ["PYTHONPATH"]
    if not os.path.abspath(bankdistress.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError("bankdistress was imported from %s, not from %s"
                           % (bankdistress.__file__, src))
    work = os.path.abspath(work)
    digests = {}
    for what, seed, twins in cases:
        case = "%s-seed%d-%s" % (what, seed, "twins" if twins else "no-twins")
        d = os.path.join(work, case)
        os.makedirs(d)
        os.chdir(d)  # the commands name their files relative to the case, as does their stdout
        stdouts = run_case(bankdistress, workloads, what, seed, twins)
        os.chdir(work)
        for i, (command, digest) in enumerate(stdouts):
            digests["%s/stdout of command %d, %s" % (case, i, command)] = digest
        for root, _, files in os.walk(d):
            for name in files:
                path = os.path.join(root, name)
                key = "%s/%s" % (case, os.path.relpath(path, d))
                with open(path, "rb") as fh:
                    digests[key] = hashlib.sha256(fh.read()).hexdigest()
                if name.endswith(".csv"):
                    for column, digest in column_digests(path).items():
                        digests[key + COLUMN + column] = digest
        shutil.rmtree(d)
    return digests


def start_tree(tree, work, cases):
    """A process running ``tree_digests`` on the package of ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **BLAS_ENV)
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--digests", work,
                             json.dumps(cases)], env=env, stdout=subprocess.PIPE, text=True)


def compare_trees(trees, work, cases):
    """The digests of ``cases`` in each of ``trees``, run side by side, and
    the names whose digest differs between them or that only one tree wrote."""
    procs, results = [], []
    try:
        for i, tree in enumerate(trees):
            os.makedirs(os.path.join(work, str(i)))
            procs.append(start_tree(tree, os.path.join(work, str(i)), cases))
        for tree, proc in zip(trees, procs):
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError("the matrix failed on %s" % tree)
            results.append(json.loads(out))
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    a, b = results
    return results, sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))


def differ_lines(differ):
    """One line per file or stdout among the digest names ``differ``, a CSV's
    naming its columns among them."""
    columns = {}
    for name in differ:
        path, _, column = name.partition(COLUMN)
        columns.setdefault(path, []).extend([column] if column else [])
    return ["differs: %s%s" % (path, " (columns %s)" % ", ".join(names) if names else "")
            for path, names in columns.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="the commit to compare with")
    parser.add_argument("--digests", nargs=2, metavar=("WORK", "CASES"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests:
        work, cases = args.digests
        print(json.dumps(tree_digests(work, json.loads(cases)), sort_keys=True))
        return 0
    if not args.against:
        parser.error("--against is required")

    work = tempfile.mkdtemp(prefix="identity-")
    other = os.path.join(work, "tree")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", other,
                        args.against], check=True)
        try:
            (ours, _), differ = compare_trees([ROOT, other], os.path.join(work, "runs"), MATRIX)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", other],
                           check=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in differ_lines(differ):
        print(line)
    print("%d digests of %d cases compared against %s: %d differ"
          % (len(ours), len(MATRIX), args.against, len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
