"""``tools/identity.py`` on a shrunken matrix: one tree against itself."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("identity",
                                               os.path.join(ROOT, "tools", "identity.py"))
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_a_tree_writes_the_bytes_it_wrote_and_the_same_results_without_twins(tmp_path):
    cases = [["chain", 1, True], ["chain", 1, False]]
    (digests, _), differ = identity.compare_trees([ROOT, ROOT], str(tmp_path), cases)
    assert differ == []
    kept = {name.split("/", 1)[1]: digest for name, digest in digests.items()
            if name.startswith("chain-seed1-twins/")}
    deleted = {name.split("/", 1)[1]: digest for name, digest in digests.items()
               if name.startswith("chain-seed1-no-twins/")}
    # every command's stdout and every file, the twins only where they are kept
    assert sum(name.startswith("stdout of command") for name in kept) == 8
    assert {"fused.jsonl", "results/runs.csv", "train.json", "sweep/sweep_lr.csv",
            "vectors.jsonl.twin.npz", "fused.jsonl.twin.npz"} <= set(kept)
    assert deleted == {name: digest for name, digest in kept.items()
                       if not name.endswith(".twin.npz")}
