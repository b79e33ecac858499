"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _result(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_the_declared_ones(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_failed_output_check_raises_failed_frac(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bankdistress import corpus

    write_sentences = corpus.write_sentences

    def lossy(sentences, path):
        return write_sentences(sentences[:-1], path)

    monkeypatch.setattr(corpus, "write_sentences", lossy)
    code = run.main(["--workload", "text_pipeline", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    out = capsys.readouterr().out
    result = _result(out)
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    frac = next(float(line.split()[1]) for line in out.splitlines()
                if line.split()[:1] == ["failed_frac"])
    assert frac > 0
